"""A from-scratch 0-1 integer linear program solver (Gurobi substitute).

The paper uses Gurobi to find per-mode schedules (S3.9, S4).  Gurobi is
proprietary and unavailable here, so we implement implicit enumeration
(Balas-style branch-and-bound) for binary programs:

    minimize    c . x
    subject to  A x {<=, >=, ==} b,   x in {0,1}^n

Pruning uses (a) constraint-interval propagation -- a partial assignment is
abandoned as soon as some constraint cannot be satisfied by any completion --
and (b) an optimistic objective bound -- the sum of all negative remaining
costs.  Variables are branched in decreasing |cost| order, trying the
cost-improving value first, so good incumbents are found early.

Two features support the mode-tree generator's offline scheduling path:

* **Warm starts** -- :meth:`ZeroOneILP.solve` accepts an externally computed
  feasible assignment (modegen passes the greedy placement).  The incumbent
  prunes from node one; when its objective already meets an admissible
  lower bound (detected from exactly-one "GUB" constraints), the solve
  returns immediately without any search.  A warm-started solve always
  returns the *same objective* as a cold solve (the incumbent only prunes
  subtrees that cannot strictly improve), though it may return a different
  equally-optimal assignment; when a budget trips, the best incumbent so
  far (at worst the warm start) is returned.
* **Deterministic node budgets** -- ``max_nodes`` bounds the number of
  branch-and-bound nodes explored, a machine-independent alternative to the
  wall-clock ``time_limit_s``: identical models explore identical node
  sequences on every machine, so budget-limited outcomes (and thus mode
  trees) are reproducible across hosts and in CI.  ``ILPSolution.stopped_by``
  reports which budget tripped.

This is exact and fast enough for the per-mode assignment instances the
mode-tree generator produces; the large Fig. 7/9 sweeps use the greedy
scheduler in :mod:`repro.sched.assign` with identical feasibility checks.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class ILPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time-limit"
    NODE_LIMIT = "node-limit"


#: Process-wide solver counters (surfaced via repro.analysis.metrics).
_SOLVER_STATS: Dict[str, int] = {
    "solves": 0,
    "nodes_explored": 0,
    "warm_starts": 0,
    "warm_proved_optimal": 0,
    "warm_start_infeasible": 0,
    "time_limit_trips": 0,
    "node_limit_trips": 0,
}


def solver_stats() -> Dict[str, int]:
    """A copy of the process-wide branch-and-bound counters."""
    return dict(_SOLVER_STATS)


def reset_solver_stats() -> None:
    for key in _SOLVER_STATS:
        _SOLVER_STATS[key] = 0


@dataclass
class ILPSolution:
    """Result of a solve: status, assignment by variable name, objective.

    Attributes:
        stopped_by: which budget ended the search early -- ``"time"``,
            ``"nodes"``, or None when the search ran to completion.
    """

    status: ILPStatus
    assignment: Dict[str, int]
    objective: Optional[float]
    nodes_explored: int = 0
    stopped_by: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.objective is not None


@dataclass
class _Constraint:
    coeffs: Dict[int, float]
    sense: str  # "<=", ">=", "=="
    bound: float


class ZeroOneILP:
    """A binary integer program.

    Usage::

        ilp = ZeroOneILP()
        x = ilp.add_variable("x", cost=2.0)
        y = ilp.add_variable("y", cost=-1.0)
        ilp.add_constraint({"x": 1, "y": 1}, "<=", 1)
        solution = ilp.solve()
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._costs: List[float] = []
        self._constraints: List[_Constraint] = []

    # -- model building ------------------------------------------------------

    def add_variable(self, name: str, cost: float = 0.0) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._costs.append(float(cost))
        return name

    def add_constraint(
        self, coeffs: Dict[str, float], sense: str, bound: float
    ) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        resolved: Dict[int, float] = {}
        for name, coeff in coeffs.items():
            if name not in self._index:
                raise ValueError(f"unknown variable {name!r}")
            if coeff != 0:
                resolved[self._index[name]] = float(coeff)
        self._constraints.append(_Constraint(resolved, sense, float(bound)))

    # -- warm-start helpers ---------------------------------------------------

    def _check_feasible(self, x: List[int]) -> bool:
        for con in self._constraints:
            lhs = sum(c * x[i] for i, c in con.coeffs.items())
            if con.sense == "<=" and lhs > con.bound + 1e-9:
                return False
            if con.sense == ">=" and lhs < con.bound - 1e-9:
                return False
            if con.sense == "==" and abs(lhs - con.bound) > 1e-9:
                return False
        return True

    def _gub_groups(self) -> List[List[int]]:
        """Disjoint exactly-one ("GUB") groups detected from the model.

        An equality constraint with all-ones coefficients and bound 1 forces
        exactly one member variable to 1; disjoint groups yield the
        admissible objective lower bound used to prove warm starts optimal
        without search.
        """
        groups: List[List[int]] = []
        grouped: set = set()
        for con in self._constraints:
            if con.sense != "==" or con.bound != 1.0 or not con.coeffs:
                continue
            if any(c != 1.0 for c in con.coeffs.values()):
                continue
            members = sorted(con.coeffs)
            if any(v in grouped for v in members):
                continue
            grouped.update(members)
            groups.append(members)
        return groups

    def _lower_bound(self, groups: List[List[int]]) -> float:
        """Admissible objective lower bound from the GUB relaxation."""
        grouped = {v for g in groups for v in g}
        bound = sum(min(self._costs[v] for v in g) for g in groups)
        bound += sum(
            c for i, c in enumerate(self._costs) if i not in grouped and c < 0
        )
        return bound

    # -- solving ----------------------------------------------------------------

    def solve(
        self,
        time_limit_s: float = 30.0,
        max_nodes: Optional[int] = None,
        warm_start: Optional[Dict[str, int]] = None,
    ) -> ILPSolution:
        """Exact branch-and-bound solve (minimization).

        Args:
            time_limit_s: wall-clock budget (machine-dependent).
            max_nodes: branch-and-bound node budget (machine-independent;
                the same model explores the same node sequence everywhere,
                so budget-limited outcomes are reproducible).
            warm_start: optional feasible assignment used as the initial
                incumbent; infeasible warm starts are ignored.  Guarantees
                the cold-solve objective; the returned assignment may be a
                different equally-optimal one.
        """
        _SOLVER_STATS["solves"] += 1
        n = len(self._names)

        warm_x: Optional[List[int]] = None
        warm_obj = 0.0
        if warm_start is not None:
            candidate = [0] * n
            for name, value in warm_start.items():
                idx = self._index.get(name)
                if idx is not None and value:
                    candidate[idx] = 1
            if self._check_feasible(candidate):
                warm_x = candidate
                warm_obj = sum(
                    c * candidate[i] for i, c in enumerate(self._costs)
                )
                _SOLVER_STATS["warm_starts"] += 1
            else:
                _SOLVER_STATS["warm_start_infeasible"] += 1

        groups: List[List[int]] = []
        if warm_x is not None:
            groups = self._gub_groups()
            if warm_obj <= self._lower_bound(groups) + 1e-9:
                # The incumbent meets an admissible lower bound: provably
                # optimal, no search needed.
                _SOLVER_STATS["warm_proved_optimal"] += 1
                return ILPSolution(
                    status=ILPStatus.OPTIMAL,
                    assignment={
                        self._names[i]: warm_x[i] for i in range(n)
                    },
                    objective=warm_obj,
                    nodes_explored=0,
                )

        # Normalize constraints to <= form; keep == as a pair.
        norm: List[Tuple[Dict[int, float], float]] = []
        for con in self._constraints:
            if con.sense in ("<=", "=="):
                norm.append((con.coeffs, con.bound))
            if con.sense in (">=", "=="):
                norm.append(({i: -c for i, c in con.coeffs.items()}, -con.bound))

        if warm_x is None:
            # Branch order: decreasing |cost|, then most-constrained.
            order = sorted(range(n), key=lambda i: -abs(self._costs[i]))
        else:
            # Warm-started order: exactly-one groups first (propagation
            # localizes infeasibility within a group), remaining variables
            # by decreasing |cost|.
            order = [v for g in groups for v in g]
            seen = set(order)
            order += sorted(
                (i for i in range(n) if i not in seen),
                key=lambda i: -abs(self._costs[i]),
            )

        # For propagation: per-constraint running LHS and the min possible
        # remaining contribution (sum of negative coeffs of unassigned vars).
        con_lhs = [0.0] * len(norm)
        con_min_remaining = [
            sum(c for c in coeffs.values() if c < 0) for coeffs, _ in norm
        ]
        # Optimistic objective: sum of negative costs of unassigned vars.
        obj_min_remaining = sum(c for c in self._costs if c < 0)

        # Var -> list of (constraint index, coeff).
        var_cons: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for ci, (coeffs, _b) in enumerate(norm):
            for var, coeff in coeffs.items():
                var_cons[var].append((ci, coeff))

        assignment = [0] * n
        best_obj: Optional[float] = None
        best_assignment: Optional[List[int]] = None
        if warm_x is not None:
            best_obj = warm_obj
            best_assignment = list(warm_x)
        nodes = 0
        deadline = time.monotonic() + time_limit_s
        stopped: Optional[str] = None

        def feasible_now() -> bool:
            return all(
                con_lhs[ci] + con_min_remaining[ci] <= bound + 1e-9
                for ci, (_c, bound) in enumerate(norm)
            )

        def dfs(depth: int, current_obj: float) -> None:
            nonlocal best_obj, best_assignment, nodes, obj_min_remaining, stopped
            nodes += 1
            if stopped is not None:
                return
            if max_nodes is not None and nodes > max_nodes:
                stopped = "nodes"
                return
            if nodes % 1024 == 0 and time.monotonic() > deadline:
                stopped = "time"
                return
            if best_obj is not None and current_obj + obj_min_remaining >= best_obj - 1e-12:
                return
            if not feasible_now():
                return
            if depth == n:
                if best_obj is None or current_obj < best_obj - 1e-12:
                    best_obj = current_obj
                    best_assignment = assignment.copy()
                return
            var = order[depth]
            cost = self._costs[var]
            if warm_x is not None:
                # Descend toward the warm incumbent first: deviations are
                # explored only where they can strictly improve.
                values = (warm_x[var], 1 - warm_x[var])
            else:
                values = (1, 0) if cost < 0 else (0, 1)
            for value in values:
                assignment[var] = value
                delta_obj = cost * value
                saved_minrem: List[Tuple[int, float]] = []
                for ci, coeff in var_cons[var]:
                    saved_minrem.append((ci, con_min_remaining[ci]))
                    con_lhs[ci] += coeff * value
                    if coeff < 0:
                        con_min_remaining[ci] -= coeff
                saved_obj_minrem = obj_min_remaining
                if cost < 0:
                    obj_min_remaining -= cost
                dfs(depth + 1, current_obj + delta_obj)
                obj_min_remaining = saved_obj_minrem
                for (ci, coeff), (_ci2, minrem) in zip(var_cons[var], saved_minrem):
                    con_lhs[ci] -= coeff * assignment[var]
                    con_min_remaining[ci] = minrem
                if stopped is not None:
                    return
            assignment[var] = 0

        dfs(0, 0.0)
        _SOLVER_STATS["nodes_explored"] += nodes
        if stopped == "time":
            _SOLVER_STATS["time_limit_trips"] += 1
        elif stopped == "nodes":
            _SOLVER_STATS["node_limit_trips"] += 1

        if best_assignment is None:
            if stopped == "nodes":
                status = ILPStatus.NODE_LIMIT
            elif stopped == "time":
                status = ILPStatus.TIME_LIMIT
            else:
                status = ILPStatus.INFEASIBLE
            return ILPSolution(
                status=status,
                assignment={},
                objective=None,
                nodes_explored=nodes,
                stopped_by=stopped,
            )
        if stopped == "nodes":
            status = ILPStatus.NODE_LIMIT
        elif stopped == "time":
            status = ILPStatus.TIME_LIMIT
        else:
            status = ILPStatus.OPTIMAL
        return ILPSolution(
            status=status,
            assignment={self._names[i]: best_assignment[i] for i in range(n)},
            objective=best_obj,
            nodes_explored=nodes,
            stopped_by=stopped,
        )

from repro.obs import registry as _telemetry

_telemetry.register("ilp_solver", solver_stats, reset_solver_stats)
