"""The four ledger workloads and the closed loop that drives them.

Load shape: a closed loop of one.  A single thread calls
``system.run_round()`` back to back; host time is ``perf_counter`` around
that call only, and every output check runs between rounds, outside the
clock.  A workload is a sequence of *episodes*; an episode builds a fresh
deployment from a seed (timed as one set-up sample), optionally warms it
up, then runs timed rounds -- for a fixed count when the episode has a
script (fault injection), until its share of the time budget otherwise.

Only API that every ROADMAP item keeps is used: ``ReboundSystem``, the
paper flags of ``ReboundConfig`` plus ``durability_*``, the topology
builders, ``WorkloadGenerator``, ``inject_now``, ``run_round``, the
``faults.adversary`` behaviours and ``CrashRestartBehavior``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.metrics import transcript_entry
from repro.chaos.restart import CrashRestartBehavior
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.faults.adversary import (
    CrashBehavior,
    EquivocateBehavior,
    LFDStormBehavior,
    RandomOutputBehavior,
    SilenceBehavior,
)
from repro.net.topology import Topology, erdos_renyi_topology, grid_topology
from repro.obs import registry
from repro.sched.workload import WorkloadGenerator

from spans import SETUP_SPANS, Tracer

#: Every pass runs at least this many episodes, whatever its time budget.
MIN_EPISODES = 3
#: Timed rounds per episode that enter ``transcript_sha256["prefix"]``, over
#: the first MIN_EPISODES episodes: a cut every full-length run reaches, so
#: two commits' protocol behaviour compares exactly although a run is
#: bounded by time, not by a round count.
PREFIX_ROUNDS = 20
INITIAL_MODE = ((), ())


def er_topology(n: int, seed: int, diameter: int = 3) -> Topology:
    """The paper's G(n, 3 ln n / n), redrawn from ``seed`` until its edge
    count is within 1 % of the expectation and its diameter is ``diameter``.

    Sends per round follow the edge count and ``d_max`` follows the
    diameter, so without this the host time per round would measure the
    seed's luck (the edge count alone has a 3 % spread at n = 150).
    """
    p = 3.0 * math.log(n) / n
    expected = p * n * (n - 1) / 2
    for attempt in range(100_000):
        topology = erdos_renyi_topology(n, seed=seed * 100_003 + attempt)
        if (
            abs(len(topology.p2p_links) - expected) <= 0.01 * expected
            and topology.diameter() == diameter
        ):
            return topology
    raise RuntimeError(f"no ER topology in the load class for n={n} seed={seed}")


class TimedRestart(CrashRestartBehavior):
    """``CrashRestartBehavior`` that also clocks the restart it performs."""

    restore_ms: Optional[float] = None

    def on_round(self, round_no: int) -> None:
        pending = self.restart_round is None
        start = time.perf_counter()
        super().on_round(round_no)
        if pending and self.restart_round is not None:
            self.restore_ms = (time.perf_counter() - start) * 1000.0


@dataclass
class Episode:
    """One deployment and its script.

    ``rounds`` is the number of timed rounds (``None``: until the time
    share is used); ``behavior`` is injected into ``victim`` just before
    timed round ``inject_at``; ``recover_within`` is the recovery bound in
    rounds (``None``: the episode is not a recovery experiment).
    """

    system: ReboundSystem
    warmup: int = 0
    rounds: Optional[int] = None
    inject_at: Optional[int] = None
    victim: Optional[int] = None
    behavior: Any = None
    recover_within: Optional[int] = None


def _steady(n: int, variant: str, fmax: int, rsa_bits: int,
            utilization: float, chain: Sequence[int]) -> Callable[[int, str], Episode]:
    def build(seed: int, workdir: str) -> Episode:
        workload = WorkloadGenerator(seed=seed, chain_length_range=tuple(chain)).workload(
            target_utilization=utilization
        )
        config = ReboundConfig(fmax=fmax, fconc=fmax, variant=variant, rsa_bits=rsa_bits)
        system = ReboundSystem(er_topology(n, seed), workload, config, seed=seed)
        # d_max + 3 rounds fill the heartbeat windows; 8 covers d_max = 5.
        return Episode(system, warmup=8)

    return build


RECOVERY_KINDS = ("crash", "equivocate", "commission", "lfd_storm", "silence")


def _recovery(seed: int, workdir: str) -> Episode:
    workload = WorkloadGenerator(seed=seed, chain_length_range=(2, 3)).workload(
        target_utilization=3.0
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    system = ReboundSystem(er_topology(45, seed), workload, config, seed=seed)
    rng = random.Random(seed)
    kind = RECOVERY_KINDS[seed % len(RECOVERY_KINDS)]
    victims = system.topology.controllers
    if kind == "commission":
        # A corrupted output is only audited if some task consumes it; on a
        # topology without actuators a terminal task's output has no
        # consumer, so the victim must host a non-terminal primary.
        schedule = system.target_schedule()
        victims = sorted({
            schedule.primary_of(task)
            for flow in workload.flows.values()
            if flow.flow_id in schedule.active_flows
            for task, _successor in flow.edges
        })
    behavior = {
        "crash": CrashBehavior,
        "equivocate": EquivocateBehavior,
        "commission": lambda: RandomOutputBehavior(seed=seed),
        "lfd_storm": LFDStormBehavior,
        "silence": SilenceBehavior,
    }[kind]()
    d_max = config.d_max
    return Episode(
        system,
        rounds=(d_max + 3) + (2 * d_max + 4),
        inject_at=d_max + 3,
        victim=rng.choice(victims),
        behavior=behavior,
        recover_within=2 * d_max + 4,
    )


def _durable(seed: int, workdir: str) -> Episode:
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=1, fconc=1, variant="multi", rsa_bits=256,
        durability_enabled=True, durability_dir=workdir, snapshot_interval=8,
    )
    topology = grid_topology(4, 5)
    system = ReboundSystem(topology, workload, config, seed=seed)
    # At this commit a crash-restart of node 4 (a corner) or 3 (next to it)
    # can end with never-faulty nodes condemned -- a Req 3 violation, on 11
    # and 3 of 20 task workloads; the other 18 victims were clean on all 20.
    # A benchmark workload must be one on which no operation fails, so these
    # two are not drawn; the check stays armed.  See README, "Known".
    victim = random.Random(seed).choice(
        [n for n in topology.controllers if n not in (3, 4)]
    )
    # 12 steady rounds, 3 rounds down, restart, 17 rounds to rejoin.
    return Episode(system, rounds=32, inject_at=12, victim=victim,
                   behavior=TimedRestart(down_rounds=3))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], Episode]
    #: fixed episode count, the time budget split evenly (``None``: whole
    #: scripted episodes until the budget is used, at least MIN_EPISODES).
    episodes: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady_er150_multi",
                 _steady(150, "multi", 0, 256, 1.5, (1, 2)), episodes=3),
        Workload("steady_er60_basic",
                 _steady(60, "basic", 1, 512, 3.0, (1, 3)), episodes=3),
        Workload("recovery_er45_multi", _recovery),
        Workload("durable_grid20_restart", _durable),
    )
}


@dataclass
class PassData:
    """Everything one pass over a workload measured or counted."""

    setup_s: List[float] = field(default_factory=list)
    round_ms: List[float] = field(default_factory=list)
    rounds_per_episode: List[int] = field(default_factory=list)
    link_bytes: List[float] = field(default_factory=list)
    msgs: int = 0
    wire_bytes: int = 0
    storage_bytes: List[float] = field(default_factory=list)
    evidence_items: List[float] = field(default_factory=list)
    modes: List[int] = field(default_factory=list)
    crypto_ops: Dict[str, int] = field(default_factory=dict)
    durable: Dict[str, float] = field(default_factory=dict)
    recovery_ms: List[float] = field(default_factory=list)
    recovery_rounds: List[int] = field(default_factory=list)
    restore_ms: List[float] = field(default_factory=list)
    restarts: int = 0
    readmitted: int = 0
    disk_bytes: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    ops: int = 0
    failed_ops: List[Dict[str, Any]] = field(default_factory=list)
    full_hash: Any = field(default_factory=hashlib.sha256)
    prefix_hash: Any = field(default_factory=hashlib.sha256)
    prefix_complete: bool = False
    #: ``full`` transcript hash at the end of the planned (replayed) episodes.
    replay_sha256: Optional[str] = None

    def transcript_sha256(self) -> Dict[str, Optional[str]]:
        return {
            "prefix": self.prefix_hash.hexdigest() if self.prefix_complete else None,
            "full": self.full_hash.hexdigest(),
        }


def _disk_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


def run_episode(
    workload: Workload,
    index: int,
    seed: int,
    data: PassData,
    workdir: str,
    share_s: Optional[float] = None,
    max_rounds: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> None:
    """Build and run episode ``index``; every failure becomes a failed op.

    A time-bounded episode runs until ``share_s`` seconds of round time are
    used or ``max_rounds`` is reached, whichever is given.
    """

    def flush(phase: str) -> None:
        if tracer is not None:
            tracer.flush(phase)

    def fail(round_index: Optional[int], check: str) -> None:
        data.failed_ops.append({
            "workload": workload.name, "episode": index,
            "round": round_index, "check": check,
        })

    episode_dir = os.path.join(workdir, f"ep{index}")
    os.makedirs(episode_dir, exist_ok=True)
    data.ops += 1  # the episode itself
    system = None
    times: List[float] = []
    try:
        start = time.perf_counter()
        episode = workload.build(seed * 1000 + index, episode_dir)
        data.setup_s.append(time.perf_counter() - start)
        flush("setup")
        system = episode.system
        for _ in range(episode.warmup):
            system.run_round()
        flush("warmup")

        limit = episode.rounds if episode.rounds is not None else max_rounds
        ever_faulty = set()
        crypto_before = system.total_crypto_counters().as_dict()
        recovered, recovered_at = False, None
        while (
            len(times) < limit if limit is not None
            else sum(times) < share_s * 1000.0
        ):
            i = len(times)
            if i == episode.inject_at:
                system.inject_now(episode.victim, episode.behavior)
                ever_faulty.add(episode.victim)
            start = time.perf_counter()
            system.run_round()
            times.append((time.perf_counter() - start) * 1000.0)
            flush("round")

            # -- output checks, outside the clock --
            data.ops += 1
            network = system.network
            wire_bytes = network.bytes_in_round(network.round_no)
            msgs = sum(
                s.messages_in_round(network.round_no)
                for s in network.channel_stats.values()
            )
            # Evidence digests and modes say nothing in a fault-free run;
            # the bytes and messages on the wire make every round count.
            entry = transcript_entry(system)
            blob = repr((entry, wire_bytes, msgs)).encode()
            data.full_hash.update(blob)
            if index < MIN_EPISODES and i < PREFIX_ROUNDS:
                data.prefix_hash.update(blob)
                if index == MIN_EPISODES - 1 and i == PREFIX_ROUNDS - 1:
                    data.prefix_complete = True
            broken = []
            if episode.inject_at is None and any(
                mode != INITIAL_MODE for _node, _digest, mode in entry
            ):
                broken.append("steady round changed a mode")
            if any(
                set(system.nodes[c].fault_pattern.nodes) - ever_faulty
                for c in system.correct_controllers()
            ):
                broken.append("never-faulty controller in a correct node's fault pattern")
            if broken:
                fail(i, "; ".join(broken))
            if episode.recover_within is not None and i >= episode.inject_at:
                recovered = (
                    system.detected() and system.converged() and system.schedules_agree()
                )
                if recovered and recovered_at is None:
                    recovered_at = i
            data.link_bytes.append(system.mean_link_bytes_in_round())
            data.wire_bytes += wire_bytes
            data.msgs += msgs
            flush("check")

        if episode.recover_within is not None:
            window = None if recovered_at is None else recovered_at - episode.inject_at + 1
            if window is None or window > episode.recover_within:
                fail(None, f"not recovered within {episode.recover_within} rounds")
            elif not recovered:
                fail(None, "recovered but not stable at episode end")
            else:
                data.recovery_rounds.append(window)
                data.recovery_ms.append(sum(times[episode.inject_at:recovered_at + 1]))
        if isinstance(episode.behavior, CrashRestartBehavior):
            data.ops += 1  # the restart
            data.restarts += 1
            result = episode.behavior.restore_result
            if result is None or result.tampered or result.node is None:
                fail(episode.behavior.restart_round, "restart without a clean verified restore")
            else:
                data.restore_ms.append(episode.behavior.restore_ms)
            data.readmitted += not any(
                episode.victim in system.nodes[c].fault_pattern.nodes
                for c in system.correct_controllers()
            )
        after = system.total_crypto_counters().as_dict()
        for key, value in after.items():
            data.crypto_ops[key] = data.crypto_ops.get(key, 0) + value - crypto_before[key]
        data.storage_bytes.append(system.mean_storage_bytes())
        data.evidence_items.append(
            statistics.fmean(len(node.evidence) for node in system.nodes.values())
        )
        data.modes.append(system.mode_tree.num_modes)
        for node in system.nodes.values():
            store = getattr(node, "durable", None)
            for key, value in (store.timings if store is not None else {}).items():
                data.durable[key] = data.durable.get(key, 0) + value
    except Exception as exc:  # an op that raises is a failed op, not a crash
        fail(None, f"exception: {type(exc).__name__}: {exc}")
    finally:
        data.round_ms.extend(times)
        data.rounds_per_episode.append(len(times))
        if system is not None:
            system.close()
            if system.config.durability_enabled:
                data.disk_bytes.append(_disk_bytes(episode_dir) / len(system.nodes))
        shutil.rmtree(episode_dir, ignore_errors=True)
        flush("check")


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    tracer: Optional[Tracer] = None,
    plan: Sequence[int] = (),
    max_episodes: Optional[int] = None,
) -> PassData:
    """Run ``workload`` for ``seconds`` of round time.

    ``plan`` fixes the timed-round count of the first ``len(plan)``
    episodes (a traced pass replays its untraced reference with it; the
    self-tests use it for fixed-size miniatures); ``max_episodes`` caps the
    episode count below the workload's own.
    """
    data = PassData()
    count = workload.episodes
    if max_episodes is not None:
        count = max_episodes if count is None else min(count, max_episodes)
    index = 0
    while True:
        used = sum(data.round_ms) / 1000.0
        if count is not None:
            if index >= count:
                break
            share = max(0.0, seconds - used) / (count - index)
        else:
            if used >= seconds and index >= MIN_EPISODES:
                break
            share = None
        run_episode(
            workload, index, seed, data, workdir, share_s=share,
            max_rounds=plan[index] if index < len(plan) else None, tracer=tracer,
        )
        if not data.rounds_per_episode[-1] and count is None:
            break  # nothing runs (it is in failed_ops): do not spin on the budget
        # Collect the finished deployment now, not in a timed round of the
        # next episode.
        gc.collect()
        index += 1
        if index <= MIN_EPISODES:
            # Read after the same amount of work in every run: the high-water
            # mark keeps creeping up with each further episode a faster
            # machine fits into the time budget.
            data.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if index == len(plan):
            data.replay_sha256 = data.full_hash.hexdigest()
    return data


# -- metrics --------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def pass_metrics(data: PassData) -> Dict[str, float]:
    """Every metric a pass yields without a tracer, by BENCHMARK.json name.

    Workload-specific quantities read 0 on a workload that has none.
    """
    rounds = len(data.round_ms)
    snapshot = registry.stats_snapshot()

    def per_round(total: float) -> float:
        return total / rounds if rounds else 0.0

    def hit_ratio(component: str) -> float:
        stats = snapshot.get(component)
        if stats is None:
            return -1.0
        lookups = stats["hits"] + stats["misses"]
        return stats["hits"] / lookups if lookups else 0.0

    snapshots = data.durable.get("snapshots", 0)
    return {
        "setup_s": _median(data.setup_s),
        "round_ms_p50": _median(data.round_ms),
        "round_ms_p90": (
            statistics.quantiles(data.round_ms, n=10)[8] if rounds >= 2 else _median(data.round_ms)
        ),
        "rounds_per_s": rounds / (sum(data.round_ms) / 1000.0) if rounds else 0.0,
        "peak_rss_mb": data.peak_rss_mb,
        "link_bytes_per_round": _mean(data.link_bytes),
        "storage_bytes_per_node": _mean(data.storage_bytes),
        "recovery_window_ms_p50": _median(data.recovery_ms),
        "recovery_rounds_max": float(max(data.recovery_rounds, default=0)),
        "recovery_rounds_mean": _mean(data.recovery_rounds),
        "restore_ms_p50": _median(data.restore_ms),
        "readmit_share": data.readmitted / data.restarts if data.restarts else 0.0,
        "disk_bytes_per_node": _mean(data.disk_bytes),
        "fail_share": len(data.failed_ops) / data.ops if data.ops else 0.0,
        "net.network.msgs_per_round": per_round(data.msgs),
        "net.network.bytes_per_round": per_round(data.wire_bytes),
        "net.message.memo_hit_ratio": hit_ratio("codec_memo"),
        "crypto.verify_cache_hit_ratio": hit_ratio("verify_cache"),
        "crypto.ops.rsa_sign": per_round(data.crypto_ops.get("rsa_sign", 0)),
        "crypto.ops.rsa_verify": per_round(data.crypto_ops.get("rsa_verify", 0)),
        "crypto.ops.ms_sign": per_round(data.crypto_ops.get("ms_sign", 0)),
        "crypto.ops.ms_verify": per_round(data.crypto_ops.get("ms_verify", 0)),
        "crypto.ops.ms_combine": per_round(data.crypto_ops.get("ms_combine_sig", 0)),
        "core.evidence.items_per_node": _mean(data.evidence_items),
        "sched.modegen.modes": _mean(data.modes),
        "durability.snapshots": per_round(snapshots),
        "durability.snapshot_bytes": data.durable.get("snapshot_bytes", 0) / snapshots if snapshots else 0.0,
        "durability.appends": per_round(data.durable.get("appends", 0)),
        "durability.flushes": per_round(data.durable.get("flushes", 0)),
    }


def span_metrics(tracer: Tracer, data: PassData) -> Dict[str, float]:
    """``<span>.self_ms`` / ``<span>.calls`` per timed round (per set-up for
    SETUP_SPANS); -1 for a span whose target no longer resolves."""
    rounds, setups = len(data.round_ms), len(data.setup_s)
    in_rounds, in_setup = tracer.totals("round"), tracer.totals("setup")
    metrics: Dict[str, float] = {}
    for name in tracer.names:
        source, per = (in_setup, setups) if name in SETUP_SPANS else (in_rounds, rounds)
        if name in tracer.unresolved or not per:
            self_ms = calls = -1.0
        else:
            self_ms, calls = source[name][0] / 1e6 / per, source[name][1] / per
        metrics[name + ".self_ms"] = self_ms
        metrics[name + ".calls"] = calls
    return metrics
