"""Mode-tree generation (paper S3.9, evaluated in Fig. 7).

Conceptually there is a mode for every failure scenario (KN, KL).  The
generator precomputes the node-fault modes as a tree rooted at the
fault-free mode; children differ from their parents by exactly one
additional node failure, and leaves are modes with ``fmax`` faults.
Schedules are computed top-down against the parent to minimize transition
cost, and the whole tree is stored on every node (a few MB, fitting
embedded flash -- Fig. 7a).  Link-fault scenarios, whose cross-product is
far larger, are scheduled on demand by :meth:`ModeTree.schedule_for`, as
the paper suggests ("could be computed on demand").

The number of node-fault vertices is sum_{i=0..fmax} C(n, i) (paper S5.4),
which explodes for large n.  Like the paper we parallelize per fault layer:
every scenario in a layer depends only on its parent's schedule (computed in
the previous layer), so the layer's solves are embarrassingly parallel.
:meth:`ModeTreeGenerator.generate` fans them out across a
``concurrent.futures.ProcessPoolExecutor`` when the generator's ``workers``
argument is above 1; the expansion plan and the merge are computed
deterministically in the parent process, so the parallel tree is
byte-identical to the serial one -- same canonical parents, same child
ordering, same schedules.  Serial (``workers=1``) is the default.

For large n the Fig. 7 benchmark additionally uses a *sampling estimator*:
it schedules the root plus a random sample of modes per layer and
extrapolates total generation time and tree size.  The exact and estimated
paths share all scheduling code (and the same worker pool).

:meth:`ModeTree.serialized_size` stores each distinct schedule *body*
(placements + active/dropped flows) once; sibling modes whose failed node
hosted nothing repeat their parent's body, which keeps the Fig. 7a flash
footprint down.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.message import encode, register_message
from repro.net.topology import Topology
from repro.sched.assign import InfeasibleSchedule, ModeSchedule, ScheduleBuilder
from repro.sched.task import Workload

Link = Tuple[int, int]


@register_message
@dataclass(frozen=True)
class FailureScenario:
    """A failure pattern (KN, KL): known-failed nodes and links."""

    nodes: FrozenSet[int]
    links: FrozenSet[Link]

    @property
    def fault_count(self) -> int:
        return len(self.nodes) + len(self.links)

    def with_node(self, node: int) -> "FailureScenario":
        # Once a node is failed, all of its link faults are implied and
        # dropped from KL (paper S3.2).
        links = frozenset(l for l in self.links if node not in l)
        return FailureScenario(nodes=self.nodes | {node}, links=links)

    def with_link(self, link: Link) -> "FailureScenario":
        a, b = sorted(link)
        if a in self.nodes or b in self.nodes:
            return self  # implied by a node fault already
        return FailureScenario(nodes=self.nodes, links=self.links | {(a, b)})

    def covers(self, other: "FailureScenario") -> bool:
        """True if this scenario includes every fault of ``other``."""
        if not other.nodes <= self.nodes:
            return False
        for link in other.links:
            if link not in self.links and not (set(link) & self.nodes):
                return False
        return True


EMPTY_SCENARIO = FailureScenario(nodes=frozenset(), links=frozenset())


def normalize_scenario(
    scenario: FailureScenario, fmax: int
) -> FailureScenario:
    """Map a scenario with more than ``fmax`` faults into the tree's domain.

    Paper S3.2: a mode (KN, KL) with |KN| + |KL| > fmax can always be mapped
    to one with |KN| + |KL| <= fmax by replacing some link faults with node
    faults -- e.g. two LFDs sharing endpoint A imply (under the fault budget)
    that A itself is faulty.  We greedily blame the endpoint incident to the
    most failed links until the budget is met.
    """
    nodes = set(scenario.nodes)
    links = {l for l in scenario.links if not (set(l) & nodes)}
    while len(nodes) + len(links) > fmax and links:
        counts: Dict[int, int] = {}
        for a, b in links:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        blamed = max(counts, key=lambda n: (counts[n], -n))
        nodes.add(blamed)
        links = {l for l in links if blamed not in l}
    return FailureScenario(nodes=frozenset(nodes), links=frozenset(links))


def _body_key(schedule: ModeSchedule) -> Tuple:
    """Canonical key for a schedule's scenario-independent payload."""
    return (
        tuple(sorted(schedule.placements.items())),
        tuple(sorted(schedule.active_flows)),
        tuple(sorted(schedule.dropped_flows)),
    )


@dataclass
class ModeTree:
    """The generated tree: scenario -> schedule, with parent/child structure.

    ``builder`` (attached by the generator) enables deterministic *on-demand*
    scheduling for scenarios outside the precomputed tree -- chiefly
    link-fault combinations, which the tree never precomputes (the paper
    notes schedules "could be computed on demand", S3.9).  Because the
    builder is deterministic, every correct node computes the identical
    schedule without coordination.
    """

    fmax: int
    fconc: int
    schedules: Dict[FailureScenario, ModeSchedule] = field(default_factory=dict)
    parents: Dict[FailureScenario, Optional[FailureScenario]] = field(default_factory=dict)
    children: Dict[FailureScenario, List[FailureScenario]] = field(default_factory=dict)
    builder: Optional["ScheduleBuilder"] = field(default=None, compare=False)
    stats: Optional["GenerationStats"] = field(
        default=None, compare=False, repr=False
    )
    #: Scenarios inserted by the on-demand single-jump path of
    #: :meth:`schedule_for` rather than layered generation.
    #: :meth:`ModeTreeGenerator.extend_for` replaces these with canonical
    #: layered entries when it regenerates a subtree online.
    ondemand: Set[FailureScenario] = field(
        default_factory=set, compare=False, repr=False
    )

    @property
    def num_modes(self) -> int:
        return len(self.schedules)

    def schedule_for(self, scenario: FailureScenario) -> ModeSchedule:
        """Look up the schedule for a (normalized) scenario.

        Scenarios over budget are normalized per S3.2.  A scenario absent
        from the tree (any link fault, or a node pattern beyond the
        generated layers) is built on demand against the closest generated
        ancestor -- the one covering the most of its faults -- and added to
        the tree; without a builder, or when no feasible schedule exists
        (:class:`InfeasibleSchedule`), that ancestor's schedule is
        returned.  Any other builder error propagates.
        """
        normalized = normalize_scenario(scenario, self.fmax)
        if normalized in self.schedules:
            return self.schedules[normalized]
        best: Optional[FailureScenario] = None
        for candidate in self.schedules:
            if normalized.covers(candidate):
                if best is None or candidate.fault_count > best.fault_count:
                    best = candidate
        if best is None:
            best = EMPTY_SCENARIO
        if self.builder is None:
            return self.schedules[best]
        try:
            schedule = self.builder.build(
                failed_nodes=normalized.nodes,
                failed_links=normalized.links,
                parent=self.schedules[best],
            )
        except InfeasibleSchedule:
            return self.schedules[best]
        self.schedules[normalized] = schedule
        self.parents[normalized] = best
        self.children.setdefault(best, []).append(normalized)
        self.children.setdefault(normalized, [])
        self.ondemand.add(normalized)
        return schedule

    def serialized_size(self) -> int:
        """Bytes needed to store the tree on a node (Fig. 7a metric).

        Each unique schedule body -- placements plus active/dropped flow
        sets -- is stored once and scenarios reference it by index; the
        per-mode failure sets are recoverable from the scenario key itself.
        """
        items = sorted(self.schedules.items(), key=lambda kv: encode(kv[0]))
        bodies: List[Tuple] = []
        body_index: Dict[Tuple, int] = {}
        entries: List[Tuple[FailureScenario, int]] = []
        for scenario, schedule in items:
            key = _body_key(schedule)
            idx = body_index.get(key)
            if idx is None:
                idx = len(bodies)
                body_index[key] = idx
                bodies.append(
                    (
                        schedule.placements,
                        schedule.active_flows,
                        schedule.dropped_flows,
                    )
                )
            entries.append((scenario, idx))
        return len(encode(("modetree/v2", bodies, entries)))

    def depth_of(self, scenario: FailureScenario) -> int:
        depth = 0
        current = self.parents.get(scenario)
        while current is not None:
            depth += 1
            current = self.parents.get(current)
        return depth


@dataclass
class GenerationStats:
    """Bookkeeping from a generation or estimation run (drives Fig. 7).

    The first five fields predate the parallel engine and keep their
    positional meaning.  For :meth:`ModeTreeGenerator.generate` runs the
    "estimated" fields hold the actual totals (the run *is* the full tree)
    and ``estimated_size_bytes`` is left 0 -- call
    :meth:`ModeTree.serialized_size` for the real footprint.

    Attributes:
        workers: pool size used (1 = serial).
        per_layer: one dict per fault layer -- ``layer``, ``scenarios``
            (solve jobs), ``feasible`` (schedules produced), ``wall_s``,
            ``solve_s`` (summed per-job solver time, across workers).
        solver: ScheduleBuilder counters summed over this run's solves
            (builds, placement calls, ILP solves, explored nodes,
            warm-start proofs, ...), wherever the solve ran.
    """

    modes_generated: int
    wall_time_s: float
    estimated_total_modes: int
    estimated_total_time_s: float
    estimated_size_bytes: int
    workers: int = 1
    per_layer: List[Dict[str, Any]] = field(default_factory=list)
    solver: Dict[str, int] = field(default_factory=dict)


def _layer_stats(
    layer: int, scenarios: int, feasible: int, wall_s: float, solve_s: float
) -> Dict[str, Any]:
    return {
        "layer": layer,
        "scenarios": scenarios,
        "feasible": feasible,
        "wall_s": wall_s,
        "solve_s": solve_s,
    }


# -- worker-pool plumbing -----------------------------------------------------
#
# Workers hold a per-process ScheduleBuilder (shipped once via the pool
# initializer); jobs carry only the scenario and its parent schedule.  Each
# job returns the schedule (or None when infeasible), its wall time, and
# the builder-counter delta so the parent can aggregate solver stats.

_WORKER_BUILDER: Optional[ScheduleBuilder] = None

Job = Tuple[FrozenSet[int], FrozenSet[Link], Optional[ModeSchedule]]


def _pool_init(builder: ScheduleBuilder) -> None:
    global _WORKER_BUILDER
    _WORKER_BUILDER = builder


def _solve_with(
    builder: ScheduleBuilder, job: Job
) -> Tuple[Optional[ModeSchedule], float, Dict[str, int]]:
    nodes, links, parent = job
    before = dict(builder.counters)
    start = time.perf_counter()
    try:
        schedule = builder.build(
            failed_nodes=nodes, failed_links=links, parent=parent
        )
    except InfeasibleSchedule:
        schedule = None
    elapsed = time.perf_counter() - start
    delta = {
        key: builder.counters[key] - before.get(key, 0)
        for key in builder.counters
    }
    return schedule, elapsed, delta


def _pool_job(job: Job) -> Tuple[Optional[ModeSchedule], float, Dict[str, int]]:
    assert _WORKER_BUILDER is not None, "pool worker not initialized"
    return _solve_with(_WORKER_BUILDER, job)


class ModeTreeGenerator:
    """Generates mode trees over node-fault scenarios.

    Args:
        topology: the network.
        workload: the flows to schedule.
        fmax: maximum total faults planned for.
        fconc: replicas per task (concurrent-fault bound).
        method: ``"greedy"`` or ``"ilp"`` placement.
        workers: fan each fault layer of :meth:`generate`,
            :meth:`extend_for` and :meth:`estimate` out across this many
            worker processes (layers are embarrassingly parallel; the merge
            is deterministic, so the tree is byte-identical to a serial
            run).  1, the default, stays serial.
        ilp_node_budget: forwarded to :class:`ScheduleBuilder`.
    """

    def __init__(
        self,
        topology: Topology,
        workload: Workload,
        fmax: int = 1,
        fconc: int = 1,
        method: str = "greedy",
        utilization_cap: float = 0.9,
        pinned_primaries=None,
        workers: int = 1,
        ilp_node_budget: Optional[int] = 1_000_000,
    ):
        if fmax < 0:
            raise ValueError("fmax must be non-negative")
        self.topology = topology
        self.workload = workload
        self.fmax = fmax
        self.fconc = fconc
        self.workers = max(1, workers)
        self.last_stats: Optional[GenerationStats] = None
        self.builder = ScheduleBuilder(
            topology,
            workload,
            fconc=fconc,
            utilization_cap=utilization_cap,
            method=method,
            pinned_primaries=pinned_primaries,
            ilp_node_budget=ilp_node_budget,
        )

    # -- worker pool ----------------------------------------------------------

    def _make_pool(self):
        """A context manager yielding a ProcessPoolExecutor primed with this
        generator's builder, or None when serial."""
        if self.workers <= 1:
            return contextlib.nullcontext()
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        method = "fork" if "fork" in mp.get_all_start_methods() else None
        context = mp.get_context(method) if method else mp.get_context()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_pool_init,
            initargs=(self.builder,),
        )

    def _solve_batch(
        self, jobs: Sequence[Job], pool, solver: Dict[str, int]
    ) -> List[Tuple[Optional[ModeSchedule], float]]:
        """Solve jobs in order, via the pool when one is attached, and add
        every job's builder-counter delta to ``solver``.

        ``Executor.map`` preserves input order, so results merge
        deterministically regardless of completion order.
        """
        if pool is None:
            results = [_solve_with(self.builder, job) for job in jobs]
        else:
            chunksize = max(1, len(jobs) // (pool._max_workers * 4))
            results = list(pool.map(_pool_job, jobs, chunksize=chunksize))
        for _schedule, _elapsed, delta in results:
            for key, value in delta.items():
                solver[key] = solver.get(key, 0) + value
        return [(schedule, elapsed) for schedule, elapsed, _delta in results]

    def _solve_root(
        self, solver: Dict[str, int]
    ) -> Tuple[ModeSchedule, Dict[str, Any]]:
        [(root, elapsed)] = self._solve_batch(
            [(frozenset(), frozenset(), None)], None, solver
        )
        if root is None:
            raise InfeasibleSchedule("no surviving controllers")
        return root, _layer_stats(0, 1, 1, elapsed, elapsed)

    # -- layer expansion -------------------------------------------------------

    def _expand(
        self,
        tree: ModeTree,
        depth: int,
        target: Optional[FailureScenario],
        pool,
        solver: Dict[str, int],
    ) -> List[Dict[str, Any]]:
        """Grow ``tree`` from its root down to layer ``depth``.

        The one expansion loop behind :meth:`generate` and
        :meth:`extend_for`.  Per layer it *plans* every (parent, child)
        edge in frontier order -- children restricted to ``target``'s
        sub-lattice when one is given -- *claims* each child not yet in
        the tree for the first parent reaching it, *solves* the claimed
        children (serially or on ``pool``), and *merges* in plan order: the
        first parent inserts a child, later parents only link it (the
        scenario space is a DAG; the tree keeps one canonical parent).
        Children already in the tree -- the precomputed layers an
        extension replays, or an earlier extension's entries -- are linked
        and stay on the frontier, so deeper layers expand under them.
        Because the plan is fixed before any solve, the result does not
        depend on the pool.  Returns one stats dict per layer.
        """
        per_layer: List[Dict[str, Any]] = []
        frontier = [EMPTY_SCENARIO]
        for layer_no in range(1, depth + 1):
            layer_t0 = time.perf_counter()
            plan: List[Tuple[FailureScenario, FailureScenario]] = []
            claimed: Set[FailureScenario] = set()
            job_children: List[FailureScenario] = []
            jobs: List[Job] = []
            for scenario in frontier:
                for child in self._children_of(scenario):
                    if target is not None and not target.covers(child):
                        continue
                    plan.append((scenario, child))
                    if child in tree.schedules or child in claimed:
                        continue
                    claimed.add(child)
                    job_children.append(child)
                    jobs.append((child.nodes, child.links, tree.schedules[scenario]))
            results = self._solve_batch(jobs, pool, solver)
            solved = {
                child: schedule
                for child, (schedule, _elapsed) in zip(job_children, results)
                if schedule is not None
            }
            next_frontier: List[FailureScenario] = []
            on_frontier: Set[FailureScenario] = set()
            for scenario, child in plan:
                if child in tree.schedules:
                    if child not in tree.children[scenario]:
                        tree.children[scenario].append(child)
                elif child in solved:
                    tree.schedules[child] = solved[child]
                    tree.parents[child] = scenario
                    tree.children[scenario].append(child)
                    tree.children[child] = []
                else:
                    continue  # infeasible under every parent
                if child not in on_frontier:
                    on_frontier.add(child)
                    next_frontier.append(child)
            frontier = next_frontier
            per_layer.append(
                _layer_stats(
                    layer_no,
                    len(jobs),
                    len(solved),
                    time.perf_counter() - layer_t0,
                    sum(elapsed for _schedule, elapsed in results),
                )
            )
        return per_layer

    def _children_of(self, scenario: FailureScenario) -> Iterable[FailureScenario]:
        for node in self.topology.controllers:
            if node not in scenario.nodes:
                yield scenario.with_node(node)

    # -- exact generation ----------------------------------------------------

    def generate(self) -> ModeTree:
        """Generate the full tree (exponential in fmax; use for small n).

        With ``workers > 1`` each fault layer's scenarios are solved by a
        process pool; the expansion plan (which child belongs to which
        canonical parent, and in which order) is fixed in the parent
        process before any solve, so the result is identical to a serial
        run -- the equivalence tests assert this bit-for-bit.
        """
        start = time.perf_counter()
        solver: Dict[str, int] = {}
        tree = ModeTree(fmax=self.fmax, fconc=self.fconc, builder=self.builder)
        root, root_layer = self._solve_root(solver)
        tree.schedules[EMPTY_SCENARIO] = root
        tree.parents[EMPTY_SCENARIO] = None
        tree.children[EMPTY_SCENARIO] = []
        with self._make_pool() as pool:
            per_layer = [root_layer] + self._expand(
                tree, self.fmax, None, pool, solver
            )
        wall = time.perf_counter() - start
        stats = GenerationStats(
            modes_generated=tree.num_modes,
            wall_time_s=wall,
            estimated_total_modes=tree.num_modes,
            estimated_total_time_s=wall,
            estimated_size_bytes=0,
            workers=self.workers,
            per_layer=per_layer,
            solver=solver,
        )
        tree.stats = stats
        self.last_stats = stats
        return tree

    # -- online subtree extension (PROTOCOL.md §16.5) -----------------------------

    def extend_for(self, tree: ModeTree, target: FailureScenario) -> Dict[str, Any]:
        """Extend ``tree`` in place with the sub-lattice under ``target``.

        When a live system observes a failure pattern with more than
        ``fmax`` faults, the precomputed tree has no exact mode for it and
        nodes degrade to a *holding mode* (the best covering ancestor, or a
        single-jump on-demand build against that ancestor).  This method
        regenerates online exactly the scenarios the overflow needs --
        ``{S : S ⊆ target, |S| > fmax}`` -- by running :meth:`generate`'s
        expansion restricted to the sub-lattice under ``target``, down to
        ``target.fault_count``.  The layers up to ``fmax`` are already in
        the tree, so replaying them solves nothing and only rebuilds their
        frontier order; the added entries are therefore **byte-identical**
        to what a from-scratch generation at ``fmax' = target.fault_count``
        would have produced for those scenarios (the benchmark and the
        tests assert this).  The identity holds because every parent of a
        scenario ``⊆ target`` is itself ``⊆ target``: restricting the
        frontier to the sub-lattice preserves both the visit order and the
        first-parent-canonical claims of the full expansion.

        Any scenarios in the open sub-lattice previously inserted by the
        on-demand single-jump path are replaced by their canonical layered
        entries (the jump parent differs, so its schedule may too).

        Returns a stats dict: ``added_modes``, ``replaced_ondemand``,
        ``layers`` (per-layer scenario/feasible counts above ``fmax``),
        ``base_layer``, ``target_layer``, ``wall_s``, ``solve_s``,
        ``workers``.
        """
        target = FailureScenario(
            nodes=frozenset(target.nodes), links=frozenset(target.links)
        )
        start = time.perf_counter()
        stats: Dict[str, Any] = {
            "added_modes": 0,
            "replaced_ondemand": 0,
            "layers": [],
            "base_layer": tree.fmax,
            "target_layer": target.fault_count,
            "wall_s": 0.0,
            "solve_s": 0.0,
            "workers": self.workers,
        }
        if target.fault_count > tree.fmax:
            # Evict on-demand single-jump entries inside the open
            # sub-lattice: their parent was a coarse covering ancestor, not
            # the canonical layered parent, so keeping them would break the
            # identity.
            for scenario in [
                s
                for s in tree.ondemand
                if s.fault_count > tree.fmax and target.covers(s)
            ]:
                parent = tree.parents.pop(scenario, None)
                tree.schedules.pop(scenario, None)
                tree.children.pop(scenario, None)
                if parent is not None and scenario in tree.children.get(parent, ()):
                    tree.children[parent].remove(scenario)
                tree.ondemand.discard(scenario)
                stats["replaced_ondemand"] += 1
            with self._make_pool() as pool:
                layers = self._expand(
                    tree, target.fault_count, target, pool, {}
                )[tree.fmax:]
            stats["layers"] = layers
            stats["added_modes"] = sum(layer["feasible"] for layer in layers)
            stats["solve_s"] = sum(layer["solve_s"] for layer in layers)
        stats["wall_s"] = time.perf_counter() - start
        return stats

    # -- sampling estimator (Fig. 7 at large n) -----------------------------------

    def layer_counts(self) -> List[int]:
        """Number of node-fault scenarios per layer: C(n, i) for i <= fmax."""
        n = len(self.topology.controllers)
        return [math.comb(n, i) for i in range(self.fmax + 1)]

    def estimate(self, samples_per_layer: int = 8, seed: int = 0) -> GenerationStats:
        """Estimate full-tree generation cost by sampling each fault layer.

        Schedules the root exactly, then for each layer draws random
        scenarios, schedules them against the root (transition-cost parent),
        and extrapolates per-layer time and per-mode serialized size to the
        analytic layer counts.  The sample set is drawn deterministically
        up front (seeded), so serial and parallel runs schedule identical
        scenarios; with ``workers > 1`` the samples are solved by the same
        worker pool as :meth:`generate`.
        """
        rng = random.Random(seed)
        controllers = self.topology.controllers
        counts = self.layer_counts()
        solver: Dict[str, int] = {}
        start = time.perf_counter()
        root, root_layer = self._solve_root(solver)
        root_time = root_layer["solve_s"]
        root_size = len(encode((EMPTY_SCENARIO, root)))
        per_layer: List[Dict[str, Any]] = [root_layer]

        # Pre-draw each layer's sample deterministically.  The serial loop
        # only ever fails a draw when no controller survives, which is a
        # property of the scenario alone, so the draw sequence (including
        # retries) is reproducible without solving anything.
        layer_samples: List[List[FailureScenario]] = []
        for layer in range(1, self.fmax + 1):
            count = counts[layer]
            sample_n = min(samples_per_layer, count)
            scenarios: List[FailureScenario] = []
            seen: Set[FrozenSet[int]] = set()
            attempts = 0
            while len(scenarios) < sample_n and attempts < sample_n * 20:
                attempts += 1
                nodes = frozenset(rng.sample(controllers, layer))
                if nodes in seen:
                    continue
                seen.add(nodes)
                if len(nodes) >= len(controllers):
                    continue  # no surviving controllers: build() would raise
                scenarios.append(
                    FailureScenario(nodes=nodes, links=frozenset())
                )
            layer_samples.append(scenarios)

        total_time = root_time
        total_size = root_size
        modes_generated = 1
        with self._make_pool() as pool:
            for layer, scenarios in enumerate(layer_samples, start=1):
                layer_t0 = time.perf_counter()
                count = counts[layer]
                jobs = [(s.nodes, s.links, root) for s in scenarios]
                results = self._solve_batch(jobs, pool, solver)
                layer_time = 0.0
                layer_size = 0
                scheduled = 0
                for scenario, (schedule, elapsed) in zip(scenarios, results):
                    if schedule is None:
                        continue
                    layer_time += elapsed
                    layer_size += len(encode((scenario, schedule)))
                    scheduled += 1
                if scheduled:
                    total_time += layer_time / scheduled * count
                    total_size += layer_size // scheduled * count
                    modes_generated += scheduled
                per_layer.append(
                    _layer_stats(
                        layer,
                        len(jobs),
                        scheduled,
                        time.perf_counter() - layer_t0,
                        layer_time,
                    )
                )
        stats = GenerationStats(
            modes_generated=modes_generated,
            wall_time_s=time.perf_counter() - start,
            estimated_total_modes=sum(counts),
            estimated_total_time_s=total_time,
            estimated_size_bytes=total_size,
            workers=self.workers,
            per_layer=per_layer,
            solver=solver,
        )
        self.last_stats = stats
        return stats
