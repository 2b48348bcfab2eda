"""Figure 6: Clove-ECN parameter sensitivity (asymmetric testbed).

Paper reference points: the testbed optimum was (flowlet gap = 1xRTT, ECN
threshold = 20 packets).  A 0.2xRTT gap behaves like per-packet spraying
(heavy reordering, ~5x degradation); a 5xRTT gap suffers elephant-flowlet
collisions; a 40-packet ECN threshold reacts too slowly (~4x at 80% load).
"""

from benchmarks.conftest import bench_quality, run_once
from repro.harness.figures import fig6
from repro.harness.report import render_table


def test_fig6_parameter_sensitivity(benchmark):
    series = run_once(benchmark, fig6, bench_quality())
    print("\n=== Figure 6: Clove-ECN parameter sensitivity ===")
    print(render_table(series))
    assert len(series) == 4
    # The paper-recommended setting should be at least competitive with the
    # mis-tuned variants at the highest load.
    top = max(l for l, _v in next(iter(series.values())))
    best = dict(series["clove-best(1RTT,20p)"])[top]
    worst = max(dict(points)[top] for label, points in series.items())
    assert best <= worst * 1.05
