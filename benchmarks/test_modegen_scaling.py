"""Mode-tree generation scaling: serial vs parallel engine.

Runs the ``bench_modegen`` sweep (the same driver behind
``python -m repro bench-modegen``) under pytest-benchmark and asserts the
engine's contract: the parallel tree is identical to the serial tree.
Runs the quick sweep; ``python -m repro bench-modegen`` runs the full ILP
cells.
"""


def test_modegen_parallel_identity(benchmark):
    from repro.experiments.bench_modegen import run_modegen_bench

    result = benchmark.pedantic(
        lambda: run_modegen_bench(
            workers=2,
            quick=True,
            output_path=None,
        ),
        rounds=1,
        iterations=1,
    )
    for cell in result["cells"]:
        assert cell["parallel_identical_to_serial"], cell["name"]
    assert result["all_parallel_identical"]
    print(
        f"modegen: serial {result['total_serial_s']:.2f}s, "
        f"parallel {result['total_parallel_s']:.2f}s"
    )


def test_parallel_workers_sweep(benchmark):
    """Exact generation at a fixed size across worker counts: identical
    trees whatever the pool size."""
    from repro.net.topology import erdos_renyi_topology
    from repro.sched.modegen import ModeTreeGenerator
    from repro.sched.workload import WorkloadGenerator

    n, fmax = 10, 2
    topology = erdos_renyi_topology(n, seed=2)
    workload = WorkloadGenerator(seed=2, chain_length_range=(1, 2)).workload(
        target_utilization=2.0
    )

    def sweep():
        trees = {}
        for workers in (1, 2, 4):
            gen = ModeTreeGenerator(topology, workload, fmax=fmax, workers=workers)
            trees[workers] = gen.generate()
        return trees

    trees = benchmark.pedantic(sweep, rounds=1, iterations=1)
    serial = trees[1]
    for workers, tree in trees.items():
        assert tree.schedules == serial.schedules
        assert tree.parents == serial.parents
        assert tree.children == serial.children
        assert tree.serialized_size() == serial.serialized_size()
