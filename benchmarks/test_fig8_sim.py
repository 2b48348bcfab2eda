"""Figure 8: simulation comparison incl. Clove-INT and CONGA.

Paper reference points (NS2, same topology):
  - Fig 8a (symmetric): at 80% load Clove-ECN is 1.4x better than ECMP and
    1.2x better than Edge-Flowlet; Clove-INT and CONGA another ~1.1x ahead.
    Clove-ECN captures ~82% of the ECMP->CONGA gain.
  - Fig 8b (asymmetric): ECMP shoots up after 50% load; Clove-ECN 3x better
    than ECMP and 1.8x better than Edge-Flowlet at 70%; captures ~80% of
    the ECMP->CONGA gain; Clove-INT ~95%.
"""

import math

from benchmarks.conftest import bench_quality, run_once
from repro.harness.figures import capture_ratios, fig8a, fig8b
from repro.harness.report import render_table


def test_fig8a_symmetric(benchmark):
    series = run_once(benchmark, fig8a, bench_quality())
    print("\n=== Figure 8a: simulation, symmetric, avg FCT ===")
    print(render_table(series))
    assert set(series) == {"ecmp", "edge-flowlet", "clove-ecn", "clove-int", "conga"}


_fig8b_cache = {}


def _cached_fig8b(benchmark):
    if "series" not in _fig8b_cache:
        _fig8b_cache["series"] = run_once(benchmark, fig8b, bench_quality())
    else:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    return _fig8b_cache["series"]


def test_fig8b_asymmetric(benchmark):
    series = _cached_fig8b(benchmark)
    print("\n=== Figure 8b: simulation, asymmetric, avg FCT ===")
    print(render_table(series))
    top = max(l for l, _v in series["ecmp"])
    ecmp = dict(series["ecmp"])[top]
    clove = dict(series["clove-ecn"])[top]
    assert clove <= ecmp * 1.5


def test_capture_ratios(benchmark):
    """The Section 1/6 headline: how much of the ECMP->CONGA gain each
    edge scheme captures (paper: Edge-Flowlet ~40%, Clove-ECN ~80%,
    Clove-INT ~95%)."""
    series = _cached_fig8b(benchmark)
    top = max(l for l, _v in series["ecmp"])
    ratios = capture_ratios(series, top)
    print(f"\n=== Capture of the ECMP->CONGA gain at {top:.0%} load ===")
    for scheme, ratio in ratios.items():
        shown = "n/a (CONGA did not beat ECMP here)" if math.isnan(ratio) else f"{ratio:.0%}"
        print(f"  {scheme:<14} {shown}")
    assert set(ratios) == {"edge-flowlet", "clove-ecn", "clove-int"}
