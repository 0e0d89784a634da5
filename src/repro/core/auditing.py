"""The REBOUND auditing layer (paper S3.7-3.8).

Inspired by PeerReview, but much simpler because the synchronous forwarding
layer already handles omission faults: in each round, the sink of a path
either receives a correctly signed message or a mode transition occurs.

Mechanics per audited task tau with primary pi and replicas rho_1..rho_fconc:

* pi executes tau every round on the inputs delivered that round, signs the
  output authenticator, and sends the output downstream (tau -> beta paths).
* pi streams a signed *bundle* (round, pre-state, inputs) to each replica
  (tau -> rho paths) -- the paper's "the primary needs to stream updates to
  each replica".
* every downstream consumer beta (task host or actuator) forwards the
  authenticator of tau's output to tau's replicas (beta -> rho paths).
* replicas exchange input/output authenticators (rho -> rho paths) to
  detect equivocation toward different replicas.
* each replica replays the bundle deterministically; if the replayed output
  digest disagrees with a validly-signed downstream authenticator, the
  replica emits a :class:`~repro.core.evidence.BadComputationPoM`, which the
  forwarding layer floods and every node verifies independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.evidence import BadComputationPoM, StateChainPoM, data_body
from repro.core.identity import DOMAIN_AUDITING, NodeCrypto
from repro.core.paths import (
    DEVICE_TASK,
    PATH_AUTH,
    PATH_DATA,
    PATH_INPUT,
    PATH_XREP,
    Path,
    PathSet,
)
from repro.crypto.hashing import hash_bytes
from repro.net.message import decode, encode
from repro.obs import recorder as _flight
from repro.obs.events import (
    EV_AUDIT_CHALLENGE,
    EV_AUDIT_RESPONSE,
    EV_POM_CREATED,
)
from repro.sched.assign import ModeSchedule
from repro.sched.task import Workload

# An input to a task execution: (origin, path_id, origin_round, payload, sig).
InputTuple = Tuple[int, int, int, bytes, bytes]


class TaskLogic:
    """Deterministic task behaviour; subclass per application task.

    Implementations MUST be deterministic functions of (state, inputs,
    round); replicas and PoM verifiers re-execute them bit-for-bit.
    """

    def initial_state(self) -> bytes:
        return b""

    def compute(
        self, state: bytes, inputs: List[Tuple[int, bytes]], round_no: int
    ) -> Tuple[bytes, bytes]:
        """Execute one period.

        Args:
            state: the task's state before this execution.
            inputs: (path_id, payload) pairs sorted by path_id.
            round_no: the execution round.

        Returns:
            (new_state, output_payload).
        """
        raise NotImplementedError


class PassthroughTask(TaskLogic):
    """Forwards the concatenation of its inputs; the default stage logic."""

    def compute(self, state, inputs, round_no):
        return b"", b"".join(payload for _pid, payload in inputs)


class TaskRegistry:
    """task_id -> TaskLogic; shared by all nodes (deterministic replay)."""

    def __init__(self) -> None:
        self._logic: Dict[int, TaskLogic] = {}

    def register(self, task_id: int, logic: TaskLogic) -> None:
        self._logic[task_id] = logic

    def register_default(self, workload: Workload) -> None:
        for task in workload.tasks:
            self._logic.setdefault(task.task_id, PassthroughTask())

    def logic(self, task_id: int) -> Optional[TaskLogic]:
        return self._logic.get(task_id)

    def _replay_full(
        self, task_id: int, state: bytes, inputs: Tuple[InputTuple, ...], round_no: int
    ) -> Optional[Tuple[bytes, bytes]]:
        logic = self.logic(task_id)
        if logic is None:
            return None
        try:
            pairs = sorted((entry[1], entry[3]) for entry in inputs)
        except (TypeError, IndexError, KeyError):
            return None  # a signed-but-garbage bundle: replay is impossible
        try:
            new_state, output = logic.compute(state, pairs, round_no)
        except Exception:
            return None
        return new_state, output

    def replay(
        self, task_id: int, state: bytes, inputs: Tuple[InputTuple, ...], round_no: int
    ) -> Optional[bytes]:
        """Output-replay adapter for :class:`EvidenceVerifier`."""
        result = self._replay_full(task_id, state, inputs, round_no)
        return result[1] if result is not None else None

    def replay_state(
        self, task_id: int, state: bytes, inputs: Tuple[InputTuple, ...], round_no: int
    ) -> Optional[bytes]:
        """State-replay adapter for state-chain verification."""
        result = self._replay_full(task_id, state, inputs, round_no)
        return result[0] if result is not None else None


@dataclass
class _ReplicaState:
    """Audit bookkeeping for one replica copy hosted on this node."""

    state: bytes
    bundles: Dict[int, Tuple[bytes, bytes]] = field(default_factory=dict)
    auths: Dict[int, List[Tuple[int, bytes, bytes]]] = field(default_factory=dict)
    peer_digests: Dict[int, List[bytes]] = field(default_factory=dict)
    next_audit_round: int = -1
    mismatch_flags: int = 0
    # (round, payload, signature) of the last audited bundle, for chaining.
    last_bundle: Optional[Tuple[int, bytes, bytes]] = None


class AuditingLayer:
    """One controller's auditing layer.

    Args:
        node_id: this controller.
        workload: the task set (for path/task metadata).
        registry: deterministic task logic.
        crypto: counted crypto handle (auditing bucket).
        submit_evidence: callback handing a locally generated PoM to the
            forwarding layer.
        send_on_path: callback(path, payload) originating a signed packet.
    """

    def __init__(
        self,
        node_id: int,
        workload: Workload,
        registry: TaskRegistry,
        crypto: NodeCrypto,
        submit_evidence: Callable[[Any], None],
        send_on_path: Callable[[Path, bytes], None],
        pending_cap: int,
    ):
        self.node_id = node_id
        self.workload = workload
        self.registry = registry
        self.crypto = crypto
        self.submit_evidence = submit_evidence
        self.send_on_path = send_on_path
        # Max buffered bundle/auth/xrep rounds per replica.  An honest
        # primary streams in round order and the audit loop drains after a
        # short wait, so honest traffic never reaches the cap; a gap that
        # would stall the window is the primary's fault and rounds past it
        # are never audited anyway.
        self.pending_cap = pending_cap
        self.pending_drops = 0

        self.schedule: Optional[ModeSchedule] = None
        self.paths: PathSet = PathSet([])
        self.mode_round = 0
        self._primaries: Set[int] = set()
        self._replicas: Dict[Tuple[int, int], _ReplicaState] = {}
        self._primary_state: Dict[int, bytes] = {}
        # Inputs delivered this round for each primary task.
        self._pending_inputs: Dict[int, List[InputTuple]] = {}
        # Outputs consumed this round as a downstream beta (or produced here),
        # queued for authenticator forwarding.
        self._auth_outbox: List[Tuple[Path, bytes]] = []
        self._audit_waits: Dict[Tuple[int, int], int] = {}
        self.audits_performed = 0
        self.poms_emitted = 0

    def storage_bytes(self) -> int:
        """Retained auditing state: primary states, replica states and
        buffered bundles/authenticators (Fig. 8c's auditing share)."""
        total = sum(len(state) for state in self._primary_state.values())
        for replica in self._replicas.values():
            total += len(replica.state)
            total += sum(
                len(payload) + len(sig)
                for payload, sig in replica.bundles.values()
            )
            if replica.last_bundle is not None:
                total += len(replica.last_bundle[1]) + len(replica.last_bundle[2])
            for auths in replica.auths.values():
                total += sum(len(d) + len(sg) + 8 for _pid, d, sg in auths)
            for digests in replica.peer_digests.values():
                total += sum(len(d) for d in digests)
        return total

    # -- mode management ------------------------------------------------------

    def set_mode(self, schedule: ModeSchedule, paths: PathSet, round_no: int) -> None:
        """Adopt a new mode: update local copies, preserving surviving state.

        A node that keeps a copy keeps its state; a node that gains a copy
        it did not previously hold starts from the task's initial state (a
        replica promoted to primary on the same node keeps the replica's
        replayed state -- the cheap state transfer the scheduler's
        transition-cost minimization aims for).
        """
        self.paths = paths
        self.mode_round = round_no
        old_primary_state = dict(self._primary_state)
        old_replicas = dict(self._replicas)
        self.schedule = schedule
        self._primaries = set()
        new_replicas: Dict[Tuple[int, int], _ReplicaState] = {}
        new_primary_state: Dict[int, bytes] = {}
        for (task_id, copy_idx), host in schedule.placements.items():
            if host != self.node_id:
                continue
            logic = self.registry.logic(task_id)
            if logic is None:
                continue
            if copy_idx == 0:
                self._primaries.add(task_id)
                if task_id in old_primary_state:
                    new_primary_state[task_id] = old_primary_state[task_id]
                else:
                    # Promote a local replica's replayed state if present.
                    promoted = None
                    for (tid, _c), rep in old_replicas.items():
                        if tid == task_id:
                            promoted = rep.state
                            break
                    new_primary_state[task_id] = (
                        promoted if promoted is not None else logic.initial_state()
                    )
            else:
                existing = old_replicas.get((task_id, copy_idx))
                if existing is None:
                    for (tid, _c), rep in old_replicas.items():
                        if tid == task_id:
                            existing = rep
                            break
                if existing is not None:
                    new_replicas[(task_id, copy_idx)] = _ReplicaState(
                        state=existing.state,
                        next_audit_round=round_no + 1,
                    )
                else:
                    state0 = (
                        old_primary_state.get(task_id)
                        or logic.initial_state()
                    )
                    new_replicas[(task_id, copy_idx)] = _ReplicaState(
                        state=state0, next_audit_round=round_no + 1
                    )
        self._replicas = new_replicas
        self._primary_state = new_primary_state
        self._pending_inputs = {t: [] for t in self._primaries}
        self._audit_waits = {
            key: self._compute_audit_wait(key[0]) for key in new_replicas
        }

    def _compute_audit_wait(self, task_id: int) -> int:
        """Rounds a replica must wait after execution round e before
        auditing: the output must reach a downstream consumer and the
        consumer's authenticator must travel back (beta -> rho)."""
        longest = 0
        for data_path in self.paths.of_kind(PATH_DATA):
            if data_path.task_from != task_id:
                continue
            for auth_path in self.paths.of_kind(PATH_AUTH):
                if auth_path.task_to != task_id:
                    continue
                longest = max(longest, data_path.length + auth_path.length)
        return longest + 1

    @property
    def primaries(self) -> Set[int]:
        return set(self._primaries)

    @property
    def replica_copies(self) -> Set[Tuple[int, int]]:
        return set(self._replicas)

    # -- packet intake (wired to ForwardingLayer.on_packet) ----------------------

    def on_packet(
        self, path: Path, origin_round: int, payload: bytes, origin: int,
        signature: bytes,
    ) -> None:
        if path.kind == PATH_DATA:
            self._on_data_packet(path, origin_round, payload, origin, signature)
        elif path.kind == PATH_INPUT:
            self._on_input_bundle(path, origin_round, payload, origin, signature)
        elif path.kind == PATH_AUTH:
            self._on_auth_packet(path, origin_round, payload, origin)
        elif path.kind == PATH_XREP:
            self._on_xrep_packet(path, origin_round, payload, origin)

    def _on_data_packet(
        self, path: Path, origin_round: int, payload: bytes, origin: int,
        signature: bytes,
    ) -> None:
        task_id = path.task_to
        if task_id == DEVICE_TASK or task_id not in self._primaries:
            return
        self._pending_inputs.setdefault(task_id, []).append(
            (origin, path.path_id, origin_round, payload, signature)
        )
        # As the downstream beta of path.task_from, forward the output
        # authenticator to the producer's replicas (beta -> rho).
        if path.task_from != DEVICE_TASK:
            auth_payload = encode(
                (path.path_id, origin_round, hash_bytes(payload), signature)
            )
            for auth_path in self.paths.of_kind(PATH_AUTH):
                if (
                    auth_path.task_to == path.task_from
                    and auth_path.task_from == task_id
                    and auth_path.source == self.node_id
                ):
                    self._auth_outbox.append((auth_path, auth_payload))

    def _on_input_bundle(
        self, path: Path, origin_round: int, payload: bytes, origin: int,
        signature: bytes,
    ) -> None:
        replica = self._replicas.get((path.task_to, path.copy_to))
        if replica is None:
            return
        if not self._admit_pending(replica, origin_round, replica.bundles):
            return
        replica.bundles[origin_round] = (payload, signature)
        if replica.next_audit_round < 0:
            replica.next_audit_round = origin_round
        # Exchange the bundle digest with sibling replicas (rho -> rho).
        digest_payload = encode((origin_round, hash_bytes(payload)))
        for xrep in self.paths.of_kind(PATH_XREP):
            if (
                xrep.task_from == path.task_to
                and xrep.copy_from == path.copy_to
                and xrep.source == self.node_id
            ):
                self._auth_outbox.append((xrep, digest_payload))

    def _on_auth_packet(
        self, path: Path, origin_round: int, payload: bytes, origin: int
    ) -> None:
        replica = self._replicas.get((path.task_to, path.copy_to))
        if replica is None:
            return
        try:
            decoded = decode(payload)
        except (ValueError, TypeError):
            return
        if not (isinstance(decoded, tuple) and len(decoded) == 4):
            return
        out_path_id, out_round, digest, sig = decoded
        if not all(
            isinstance(v, t)
            for v, t in zip(decoded, (int, int, bytes, bytes))
        ):
            return
        if not self._admit_pending(replica, out_round, replica.auths):
            return
        entries = replica.auths.setdefault(out_round, [])
        if len(entries) >= self.pending_cap:
            self.pending_drops += 1
            return
        entries.append((out_path_id, digest, sig))

    def _on_xrep_packet(
        self, path: Path, origin_round: int, payload: bytes, origin: int
    ) -> None:
        replica = self._replicas.get((path.task_to, path.copy_to))
        if replica is None:
            return
        try:
            decoded = decode(payload)
        except (ValueError, TypeError):
            return
        if not (isinstance(decoded, tuple) and len(decoded) == 2):
            return
        exec_round, digest = decoded
        if not isinstance(exec_round, int) or not isinstance(digest, bytes):
            return
        if not self._admit_pending(replica, exec_round, replica.peer_digests):
            return
        digests = replica.peer_digests.setdefault(exec_round, [])
        if len(digests) >= self.pending_cap:
            self.pending_drops += 1
            return
        digests.append(digest)

    def _admit_pending(
        self, replica: _ReplicaState, round_no: int, buffer: Dict[int, Any]
    ) -> bool:
        """Admission check for per-replica pending buffers: the round must
        sit inside the audit window [next - 2, next + pending_cap), and a
        *new* round key must not grow the buffer past the cap."""
        nxt = replica.next_audit_round
        if nxt >= 0:
            if round_no < nxt - 2 or round_no >= nxt + self.pending_cap:
                self.pending_drops += 1
                return False
        if round_no not in buffer and len(buffer) >= self.pending_cap:
            self.pending_drops += 1
            return False
        return True

    # -- round execution -----------------------------------------------------------

    def execute_round(self, round_no: int) -> None:
        """Run local primaries, stream bundles, forward auths, audit replicas."""
        self._run_primaries(round_no)
        self._flush_auth_outbox()
        self._run_audits(round_no)

    def _run_primaries(self, round_no: int) -> None:
        for task_id in sorted(self._primaries):
            logic = self.registry.logic(task_id)
            if logic is None:
                continue
            raw_inputs = tuple(
                sorted(
                    self._pending_inputs.get(task_id, []), key=lambda e: e[1]
                )
            )
            pairs = [(e[1], e[3]) for e in raw_inputs]
            state = self._primary_state[task_id]
            new_state, output = logic.compute(state, pairs, round_no)
            self._primary_state[task_id] = new_state
            self._pending_inputs[task_id] = []
            # Send the output downstream.
            for path in self.paths.of_kind(PATH_DATA):
                if path.task_from == task_id and path.source == self.node_id:
                    self.send_on_path(path, output)
            # Stream the signed bundle to each replica.
            bundle = encode((round_no, state, raw_inputs))
            for path in self.paths.of_kind(PATH_INPUT):
                if path.task_from == task_id and path.source == self.node_id:
                    self.send_on_path(path, bundle)

    def _flush_auth_outbox(self) -> None:
        outbox, self._auth_outbox = self._auth_outbox, []
        for path, payload in outbox:
            self.send_on_path(path, payload)

    def _run_audits(self, round_no: int) -> None:
        for (task_id, copy_idx), replica in sorted(self._replicas.items()):
            if self.registry.logic(task_id) is None:
                continue
            wait = self._audit_waits.get((task_id, copy_idx), 2)
            while True:
                exec_round = replica.next_audit_round
                if exec_round < 0 or exec_round not in replica.bundles:
                    break
                if exec_round > round_no - wait:
                    break  # downstream authenticators may still be in flight
                bundle_payload, bundle_sig = replica.bundles.pop(exec_round)
                self._audit_one(
                    task_id, copy_idx, replica, exec_round,
                    bundle_payload, bundle_sig,
                )
                replica.next_audit_round = exec_round + 1
            # Trim stale buffers.
            for stale in [r for r in replica.auths if r < replica.next_audit_round - 2]:
                del replica.auths[stale]
            for stale in [
                r for r in replica.peer_digests if r < replica.next_audit_round - 2
            ]:
                del replica.peer_digests[stale]

    def _input_path_for(self, task_id: int, copy_idx: int) -> Optional[Path]:
        for path in self.paths.of_kind(PATH_INPUT):
            if path.task_from == task_id and path.copy_to == copy_idx:
                return path
        return None

    def _audit_one(
        self,
        task_id: int,
        copy_idx: int,
        replica: _ReplicaState,
        exec_round: int,
        bundle_payload: bytes,
        bundle_sig: bytes,
    ) -> None:
        flight = _flight.active
        poms_before = self.poms_emitted
        if flight is not None:
            flight.emit(
                EV_AUDIT_CHALLENGE,
                self.node_id,
                {"task": task_id, "copy": copy_idx, "exec_round": exec_round},
            )
        try:
            self._audit_one_inner(
                task_id, copy_idx, replica, exec_round,
                bundle_payload, bundle_sig,
            )
        finally:
            if flight is not None:
                flight.emit(
                    EV_AUDIT_RESPONSE,
                    self.node_id,
                    {
                        "task": task_id,
                        "copy": copy_idx,
                        "exec_round": exec_round,
                        "poms": self.poms_emitted - poms_before,
                    },
                )

    def _audit_one_inner(
        self,
        task_id: int,
        copy_idx: int,
        replica: _ReplicaState,
        exec_round: int,
        bundle_payload: bytes,
        bundle_sig: bytes,
    ) -> None:
        try:
            decoded = decode(bundle_payload)
        except (ValueError, TypeError):
            return
        if not (isinstance(decoded, tuple) and len(decoded) == 3):
            return
        _round, state, inputs = decoded
        # State-chain check: this bundle's pre-state must equal the state
        # replayed from the previous round's bundle (PeerReview-style
        # defense against a primary fabricating its state).
        if (
            replica.last_bundle is not None
            and replica.last_bundle[0] == exec_round - 1
            and state != replica.state
        ):
            primary = self.schedule.primary_of(task_id) if self.schedule else None
            input_path = self._input_path_for(task_id, copy_idx)
            if primary is not None and input_path is not None:
                pom = StateChainPoM(
                    accused=primary,
                    task_id=task_id,
                    round_no=exec_round - 1,
                    bundle_a_payload=replica.last_bundle[1],
                    bundle_a_signature=replica.last_bundle[2],
                    bundle_b_payload=bundle_payload,
                    bundle_b_signature=bundle_sig,
                    input_path_id=input_path.path_id,
                )
                self.poms_emitted += 1
                self._emit_pom_event(primary, "state-chain", task_id)
                self.submit_evidence(pom)
        # A signed-but-garbage bundle cannot be replayed; any signed
        # downstream authenticator then condemns the primary directly
        # (verify_bad_computation treats undecodable bundles as proof).
        replayed = self.registry._replay_full(task_id, state, inputs, exec_round)
        new_state, output = (
            replayed if replayed is not None else (replica.state, None)
        )
        replica.state = new_state
        replica.last_bundle = (exec_round, bundle_payload, bundle_sig)
        self.audits_performed += 1
        digest = hash_bytes(output) if output is not None else None
        # Cross-check against sibling replicas' bundle digests.
        for peer_digest in replica.peer_digests.get(exec_round, []):
            if peer_digest != hash_bytes(bundle_payload):
                replica.mismatch_flags += 1
        # Compare with every downstream authenticator for this round.
        for out_path_id, claimed_digest, sig in replica.auths.get(exec_round, []):
            if claimed_digest == digest:
                continue
            primary = (
                self.schedule.primary_of(task_id) if self.schedule else None
            )
            if primary is None:
                continue
            body = data_body(out_path_id, exec_round, claimed_digest)
            if not self.crypto.verify(
                primary, body, sig, domain=DOMAIN_AUDITING
            ):
                continue  # unattributable garbage authenticator
            input_path = self._input_path_for(task_id, copy_idx)
            if input_path is None:
                continue
            pom = BadComputationPoM(
                accused=primary,
                task_id=task_id,
                round_no=exec_round,
                bundle_payload=bundle_payload,
                bundle_signature=bundle_sig,
                input_path_id=input_path.path_id,
                claimed_output_digest=claimed_digest,
                claimed_signature=sig,
                output_path_id=out_path_id,
            )
            self.poms_emitted += 1
            self._emit_pom_event(primary, "bad-computation", task_id)
            self.submit_evidence(pom)

    def _emit_pom_event(self, accused: int, pom_kind: str, task_id: int) -> None:
        flight = _flight.active
        if flight is not None:
            flight.emit(
                EV_POM_CREATED,
                self.node_id,
                {"accused": accused, "pom": pom_kind, "task": task_id},
            )
