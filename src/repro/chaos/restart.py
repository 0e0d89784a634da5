"""Crash-restart behaviors: the durability layer's chaos counterpart.

:class:`CrashRestartBehavior` drives the full crash -> restart -> rejoin
arc against one victim: fail-stop at the injection round, stay down for
``down_rounds``, then restart through
:meth:`~repro.core.runtime.ReboundSystem.restart_from_durable` -- the
node rejoins as a fresh node fed the evidence of its verified chained
log, through the blessing flow, with the BTR monitor holding the system to
the ``Bounds.r_max`` recovery bound (:mod:`repro.core.bounds`) from the
restart round.

:class:`LogTamperBehavior` runs the same arc but corrupts the victim's
on-disk event log while the node is down -- truncation, a record
bit-flip, or a chain splice.  The tamper model is an adversary with write
access to the log *file* (not the operator-held head anchor, and not the
HMAC key).  The restore path must refuse the corrupted suffix: the
detection lands in ``system.durability_tamper_detections`` and the node
rejoins from the verified prefix instead of silently replaying forged
records.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.adversary import AdversaryBehavior


class CrashRestartBehavior(AdversaryBehavior):
    """Fail-stop, stay down ``down_rounds`` rounds, restart from durable
    state, and rejoin (see module docstring)."""

    def __init__(self, down_rounds: int = 3):
        super().__init__()
        self.down_rounds = down_rounds
        self._crash_round: Optional[int] = None
        self.restart_round: Optional[int] = None
        #: the RestoreResult of the restart (None until it happens).
        self.restore_result = None

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        system.network.crash_node(node_id)
        # inject_now runs between rounds: the crash silences the node from
        # the round about to run.
        self._crash_round = system.round_no + 1

    def on_round(self, round_no: int) -> None:
        if self.detached or self.restart_round is not None:
            return
        if round_no < self._crash_round + self.down_rounds:
            return
        self.before_restart()
        # restart_from_durable evicts this behavior (detach + removal from
        # the active list) as part of the rejoin.
        self.restore_result = self.system.restart_from_durable(self.node_id)
        self.restart_round = self.system.round_no

    def before_restart(self) -> None:
        """Hook for subclasses: runs while the node is still down, just
        before the durable restore (default: nothing)."""


class LogTamperBehavior(CrashRestartBehavior):
    """Crash-restart with the victim's chained log corrupted on disk.

    Modes:
        * ``truncate`` -- drop the trailing log records (caught by the
          head anchor, which still names the tag the chain must reach);
        * ``bitflip`` -- flip one byte inside a record line (caught by
          the per-record HMAC);
        * ``splice`` -- duplicate an existing record at the tail (caught
          by the prev-digest linking).
    """

    MODES = ("truncate", "bitflip", "splice")

    def __init__(self, mode: str = "truncate", down_rounds: int = 3):
        if mode not in self.MODES:
            raise ValueError(f"unknown tamper mode {mode!r} (have {self.MODES})")
        super().__init__(down_rounds=down_rounds)
        self.mode = mode
        self.tampered = False

    def _log_path(self) -> str:
        from repro.durability.store import LOG_NAME

        return os.path.join(
            self.system.config.durability_dir,
            f"node_{self.node_id:04d}",
            LOG_NAME,
        )

    def before_restart(self) -> None:
        path = self._log_path()
        try:
            with open(path) as fh:
                lines = [line for line in fh.read().splitlines() if line.strip()]
        except FileNotFoundError:
            # A crash before the first record leaves no log: an empty one,
            # with nothing to tamper.
            return
        if not lines:
            return
        if self.mode == "truncate":
            lines = lines[:-1]
        elif self.mode == "bitflip":
            target = len(lines) // 2
            raw = bytearray(lines[target].encode())
            # Flip a low bit mid-line: lands inside the JSON body, so
            # either the HMAC breaks or the line stops parsing -- both are
            # detections, never a silent replay.
            raw[len(raw) // 2] ^= 0x01
            lines[target] = raw.decode("utf-8", errors="replace")
        elif self.mode == "splice":
            lines.append(lines[len(lines) // 2])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        self.tampered = True
