"""Figure 5: FCT breakdown under asymmetry (mice / elephants / 99th pct).

Paper reference points:
  - Fig 5a: avg FCT of <100KB flows mirrors the overall ordering, with
    slightly smaller relative gaps than for large flows.
  - Fig 5b: avg FCT of >10MB flows; long flows give more opportunities to
    react, so gaps widen (Edge-Flowlet 4.1x over ECMP at 70% for large
    flows vs 3.7x for small).
  - Fig 5c: 99th percentile FCT; the ordering CHANGES - MPTCP's static
    subflow mapping makes its tail much worse (Clove 2.7x better at 60%).

All three panels come out of one sweep (``fig5_all``): every run produces
every bucket's statistics.
"""


from benchmarks.conftest import bench_quality, run_once
from repro.harness.figures import fig5_all
from repro.harness.report import render_table

_panels = {}


def _get_panels(benchmark):
    if "data" not in _panels:
        _panels["data"] = run_once(benchmark, fig5_all, bench_quality())
    else:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    return _panels["data"]


def test_fig5a_mice(benchmark):
    series = _get_panels(benchmark)["mice"]
    print("\n=== Figure 5a: asymmetric, avg FCT of <100KB flows ===")
    print(render_table(series))
    for points in series.values():
        assert all(v > 0 for _l, v in points)


def test_fig5b_elephants(benchmark):
    series = _get_panels(benchmark)["elephants"]
    print("\n=== Figure 5b: asymmetric, avg FCT of >10MB flows ===")
    print(render_table(series))
    for points in series.values():
        assert all(v > 0 for _l, v in points)
    # Elephants take longer than mice at every point.
    mice = _panels["data"]["mice"]
    for scheme, points in series.items():
        for (load, big), (_l2, small) in zip(points, mice[scheme]):
            assert big >= small


def test_fig5c_p99(benchmark):
    series = _get_panels(benchmark)["p99"]
    print("\n=== Figure 5c: asymmetric, 99th percentile FCT ===")
    print(render_table(series))
    # Tail ordering: Clove's p99 must beat MPTCP's at the top load (the
    # paper's standout result - static subflow mapping hurts MPTCP's tail).
    top = max(l for l, _v in series["clove-ecn"])
    clove = dict(series["clove-ecn"])[top]
    mptcp = dict(series["mptcp"])[top]
    assert clove <= mptcp * 1.25, (
        f"Clove-ECN p99 ({clove:.4f}s) should not lose to MPTCP "
        f"({mptcp:.4f}s) at {top:.0%} load"
    )
