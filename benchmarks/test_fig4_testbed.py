"""Figure 4b / 4c: testbed average FCT vs load, symmetric and asymmetric.

Paper reference points (testbed, 160G bisection, web-search workload):
  - Fig 4b (symmetric): all schemes comparable at low load; at 80% load
    Clove-ECN beats ECMP ~2.5x and Edge-Flowlet ~1.8x; MPTCP best.
  - Fig 4c (asymmetric): ECMP's FCT blows up past 50% load; Clove-ECN 7.5x
    better than ECMP at 80%; Presto lags Clove 3.8x at 70% despite ideal
    weights; Edge-Flowlet 4.2x better than ECMP at 80%.
"""

from benchmarks.conftest import bench_quality, run_once
from repro.harness.figures import fig4b, fig4c
from repro.harness.report import render_table


def test_fig4b_symmetric(benchmark):
    series = run_once(benchmark, fig4b, bench_quality())
    print("\n=== Figure 4b: symmetric testbed, avg FCT ===")
    print(render_table(series))
    assert set(series) == {"ecmp", "edge-flowlet", "clove-ecn", "mptcp", "presto"}
    for points in series.values():
        assert all(v > 0 for _l, v in points)


def test_fig4c_asymmetric(benchmark):
    series = run_once(benchmark, fig4c, bench_quality())
    print("\n=== Figure 4c: asymmetric testbed (S2-L2 cable down), avg FCT ===")
    print(render_table(series))
    # Shape check at the highest load: Clove-ECN must not lose to ECMP.
    top = max(l for l, _v in series["ecmp"])
    ecmp = dict(series["ecmp"])[top]
    clove = dict(series["clove-ecn"])[top]
    assert clove <= ecmp * 1.5, (
        f"Clove-ECN ({clove:.4f}s) should be competitive with ECMP "
        f"({ecmp:.4f}s) at {top:.0%} load under asymmetry"
    )
