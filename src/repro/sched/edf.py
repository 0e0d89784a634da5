"""Earliest-Deadline-First schedulability analysis and simulation.

Controllers run their assigned tasks under preemptive EDF (paper S3.9/S4).
Two analyses are provided:

* :func:`edf_schedulable` -- exact schedulability test for a periodic task
  set on one processor: the utilization bound (U <= 1) for implicit
  deadlines, and processor-demand analysis for constrained deadlines.
* :class:`EDFSimulator` -- a discrete-time job-level EDF simulator that
  executes a task set, reporting deadline misses and a preemption trace;
  used by the runtime (to order task executions within a round) and by the
  tests (to cross-validate the analytical tests).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sched.task import Task


def total_utilization(tasks: Iterable[Task]) -> float:
    return sum(t.utilization for t in tasks)


def _hyperperiod(tasks: Sequence[Task]) -> int:
    hp = 1
    for t in tasks:
        hp = hp * t.period_us // math.gcd(hp, t.period_us)
    return hp


def demand_bound(tasks: Sequence[Task], interval_us: int) -> int:
    """Processor demand of ``tasks`` in any interval of length ``interval_us``.

    dbf(t) = sum over tasks of max(0, floor((t - D_i)/T_i) + 1) * C_i.
    """
    demand = 0
    for task in tasks:
        jobs = (interval_us - task.deadline_us) // task.period_us + 1
        if jobs > 0:
            demand += jobs * task.wcet_us
    return demand


def edf_schedulable(tasks: Sequence[Task], utilization_cap: float = 1.0) -> bool:
    """Exact EDF schedulability on one processor.

    For implicit-deadline periodic tasks, EDF is schedulable iff total
    utilization <= 1 (Liu & Layland).  With constrained deadlines we use
    processor-demand analysis over the testing interval (up to the
    hyperperiod, checking each absolute deadline).  ``utilization_cap``
    lets callers reserve headroom (e.g. for the REBOUND protocol task).
    """
    tasks = list(tasks)
    if not tasks:
        return True
    u = total_utilization(tasks)
    if u > utilization_cap + 1e-12:
        return False
    if all(t.implicit_deadline for t in tasks):
        return True
    # Constrained deadlines: check dbf(t) <= t at every deadline up to the
    # hyperperiod (sufficient since U <= 1).
    horizon = _hyperperiod(tasks)
    checkpoints = set()
    for task in tasks:
        d = task.deadline_us
        while d <= horizon:
            checkpoints.add(d)
            d += task.period_us
    cap_scaled = utilization_cap
    for t in sorted(checkpoints):
        if demand_bound(tasks, t) > t * cap_scaled + 1e-9:
            return False
    return True


@dataclass
class JobRecord:
    """One executed (or missed) job in an EDF simulation."""

    task_id: int
    release_us: int
    deadline_us: int
    finish_us: Optional[int]

    @property
    def missed(self) -> bool:
        return self.finish_us is None or self.finish_us > self.deadline_us


@dataclass
class EDFResult:
    """Outcome of an EDF simulation."""

    jobs: List[JobRecord]
    preemptions: int

    @property
    def deadline_misses(self) -> List[JobRecord]:
        return [j for j in self.jobs if j.missed]

    @property
    def schedulable(self) -> bool:
        return not self.deadline_misses


class EDFSimulator:
    """Discrete-time preemptive EDF simulation of a periodic task set.

    Simulates with microsecond resolution using event-driven execution (no
    per-tick loop): at any instant the pending job with the earliest
    absolute deadline runs until it finishes or a new release preempts it.
    """

    def __init__(self, tasks: Sequence[Task]):
        self.tasks = list(tasks)

    def run(self, horizon_us: Optional[int] = None) -> EDFResult:
        if not self.tasks:
            return EDFResult(jobs=[], preemptions=0)
        if horizon_us is None:
            horizon_us = min(_hyperperiod(self.tasks), 10_000_000)
        releases: List[Tuple[int, int, int]] = []  # (time, task_idx, job_no)
        for idx, task in enumerate(self.tasks):
            t = 0
            job_no = 0
            while t < horizon_us:
                releases.append((t, idx, job_no))
                t += task.period_us
                job_no += 1
        releases.sort()
        # Ready queue: (abs_deadline, seq, task_idx, remaining_us, record)
        ready: List[Tuple[int, int, int, int, JobRecord]] = []
        jobs: List[JobRecord] = []
        preemptions = 0
        seq = 0
        now = 0
        rel_pos = 0
        running: Optional[Tuple[int, int, int, int, JobRecord]] = None
        while rel_pos < len(releases) or ready or running:
            # Admit releases at the current time.
            while rel_pos < len(releases) and releases[rel_pos][0] <= now:
                rel_time, idx, _job_no = releases[rel_pos]
                task = self.tasks[idx]
                record = JobRecord(
                    task_id=task.task_id,
                    release_us=rel_time,
                    deadline_us=rel_time + task.deadline_us,
                    finish_us=None,
                )
                jobs.append(record)
                heapq.heappush(ready, (record.deadline_us, seq, idx, task.wcet_us, record))
                seq += 1
                rel_pos += 1
            if running is not None:
                heapq.heappush(ready, running)
                running = None
            if not ready:
                if rel_pos < len(releases):
                    now = releases[rel_pos][0]
                    continue
                break
            deadline, sq, idx, remaining, record = heapq.heappop(ready)
            next_release = releases[rel_pos][0] if rel_pos < len(releases) else None
            finish_at = now + remaining
            if next_release is not None and next_release < finish_at:
                # Run until the release, then re-evaluate (possible preemption).
                ran = next_release - now
                now = next_release
                candidate = (deadline, sq, idx, remaining - ran, record)
                # Peek: if a newly released job has an earlier deadline, this
                # counts as a preemption (checked after admission).
                admitted_before = len(jobs)
                while rel_pos < len(releases) and releases[rel_pos][0] <= now:
                    rel_time, idx2, _ = releases[rel_pos]
                    task2 = self.tasks[idx2]
                    rec2 = JobRecord(
                        task_id=task2.task_id,
                        release_us=rel_time,
                        deadline_us=rel_time + task2.deadline_us,
                        finish_us=None,
                    )
                    jobs.append(rec2)
                    heapq.heappush(ready, (rec2.deadline_us, seq, idx2, task2.wcet_us, rec2))
                    seq += 1
                    rel_pos += 1
                if ready and ready[0][0] < candidate[0]:
                    preemptions += 1
                running = candidate
            else:
                now = finish_at
                record.finish_us = now
        return EDFResult(jobs=jobs, preemptions=preemptions)
