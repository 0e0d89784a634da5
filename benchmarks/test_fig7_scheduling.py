"""Figure 7: mode-tree size and generation time vs system size and fmax.

Paper shape: both grow combinatorially (sum C(n, i), i <= fmax); trees stay
small enough for embedded flash; generation is offline.  Large cells use the
layer-sampling estimator (see DESIGN.md); the cross-check below validates
the estimator against exact generation where both are feasible.
"""

import pytest

from conftest import scale
from repro.experiments import fig7_scheduling
from repro.experiments.common import print_table

SIZES = scale((15, 30, 60), (20, 50, 100, 200))
FMAX_VALUES = scale((1, 2), (1, 2, 3))


@pytest.fixture(scope="module")
def rows():
    return fig7_scheduling.run(
        sizes=SIZES, fmax_values=FMAX_VALUES, samples_per_layer=4
    )


def test_fig7_scheduling(benchmark, rows):
    benchmark.pedantic(
        fig7_scheduling.run_cell,
        kwargs={"n": 12, "fmax": 1},
        rounds=1,
        iterations=1,
    )
    print_table(rows, "Figure 7: scheduling trees (size + generation time)")
    checks = fig7_scheduling.check_shape(rows)
    print(f"shape checks: {checks}")
    failed = [k for k, ok in checks.items() if not ok]
    assert not failed, f"Fig. 7 shape checks failed: {failed}"


def test_fig7_estimator_cross_check(benchmark):
    """The sampling estimator agrees with exact generation at small n."""
    import time

    from repro.net.topology import erdos_renyi_topology
    from repro.sched.modegen import ModeTreeGenerator
    from repro.sched.workload import WorkloadGenerator

    topo = erdos_renyi_topology(14, seed=2)
    wl = WorkloadGenerator(seed=2).workload(target_utilization=4.0)

    def both():
        gen = ModeTreeGenerator(topo, wl, fmax=2, fconc=1)
        start = time.perf_counter()
        tree = gen.generate()
        exact_time = time.perf_counter() - start
        stats = gen.estimate(samples_per_layer=8, seed=3)
        return tree, exact_time, stats

    tree, exact_time, stats = benchmark.pedantic(both, rounds=1, iterations=1)
    assert stats.estimated_total_modes == tree.num_modes
    size_ratio = stats.estimated_size_bytes / tree.serialized_size()
    time_ratio = stats.estimated_total_time_s / max(1e-9, exact_time)
    print(
        f"estimator cross-check: size ratio {size_ratio:.2f}, "
        f"time ratio {time_ratio:.2f}"
    )
    assert 0.5 < size_ratio < 2.0
    assert 0.2 < time_ratio < 5.0
