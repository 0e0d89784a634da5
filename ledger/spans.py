"""Outside-in span tracing: wrap the layer-boundary functions, never edit them.

``SPANS`` is the one table that maps a span name (``<layer>.<function>``,
layers are module names under ``src/repro``) to the import path of the
function it wraps.  :class:`Tracer` replaces each target -- on its class for
methods, in every other loaded ``repro`` module that imported it by name for
functions -- with a wrapper that keeps a call stack, so a span knows its
parent and a layer's *self* time is its duration minus what its child spans
cover.  A target that no longer resolves is reported in ``unresolved``
instead of raising: the planned refactors reshape several of these.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_FWD = "repro.core.forwarding:ForwardingLayer."
_CRYPTO = "repro.core.identity:NodeCrypto."
_STORE = "repro.durability.store:NodeDurableStore."

#: span name -> "module:attr[.attr]".  To add a span, add a row here and its
#: ``<name>.self_ms`` / ``<name>.calls`` rows to BENCHMARK.json ``per_layer``.
SPANS: Dict[str, str] = {
    "core.runtime.run_round": "repro.core.runtime:ReboundSystem.run_round",
    "core.runtime.restart_from_durable":
        "repro.core.runtime:ReboundSystem.restart_from_durable",
    "net.network.run_round": "repro.net.network:RoundNetwork.run_round",
    "net.network.send": "repro.net.network:RoundNetwork.send",
    "net.network.broadcast": "repro.net.network:RoundNetwork.broadcast",
    "net.message.encoded_size": "repro.net.message:encoded_size",
    "net.message.encode": "repro.net.message:encode",
    "net.message.decode": "repro.net.message:decode",
    "crypto.sign": _CRYPTO + "sign",
    "crypto.verify": _CRYPTO + "verify",
    "crypto.ms_sign": _CRYPTO + "ms_sign",
    "crypto.ms_verify_value": _CRYPTO + "ms_verify_value",
    "crypto.ms_verify_batch": _CRYPTO + "ms_verify_batch",
    "crypto.ms_warm_batch": _CRYPTO + "ms_warm_batch",
    "crypto.ms_combine": _CRYPTO + "ms_combine",
    "core.forwarding.begin_round": _FWD + "begin_round",
    "core.forwarding.receive": _FWD + "receive",
    "core.forwarding.receive_batch": _FWD + "receive_batch",
    "core.forwarding.end_round": _FWD + "end_round",
    "core.forwarding.submit_evidence": _FWD + "submit_evidence",
    "core.auditing.execute_round": "repro.core.auditing:AuditingLayer.execute_round",
    "core.auditing.on_packet": "repro.core.auditing:AuditingLayer.on_packet",
    "core.auditing.set_mode": "repro.core.auditing:AuditingLayer.set_mode",
    "core.evidence.verify": "repro.core.evidence:EvidenceVerifier.verify",
    "core.evidence.failure_pattern": "repro.core.evidence:EvidenceSet.failure_pattern",
    "core.node.on_round_end": "repro.core.node:ReboundNode.on_round_end",
    "core.node.paths_for": "repro.core.node:PathCache.paths_for",
    "sched.modegen.generate": "repro.sched.modegen:ModeTreeGenerator.generate",
    "sched.modegen.schedule_for": "repro.sched.modegen:ModeTree.schedule_for",
    "core.identity.register": "repro.core.identity:Directory.register",
    "durability.record_evidence": _STORE + "record_evidence",
    "durability.end_round": _STORE + "end_round",
    "durability.load": _STORE + "load",
}

#: Spans that only run while a system is built; their ``self_ms`` / ``calls``
#: are per set-up, every other span's are per timed simulated round.
SETUP_SPANS = frozenset({"core.identity.register", "sched.modegen.generate"})


def resolve(path: str) -> Tuple[Any, str, Callable]:
    """``"module:Class.method"`` -> (owner object, attribute name, function).

    Raises ``ImportError`` / ``AttributeError`` / ``KeyError`` when the target
    is gone (a method must be defined on the named class itself).
    """
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, vars(owner)[leaf]


class Tracer:
    """Aggregating span recorder over the functions named in a span table.

    Per span it keeps self nanoseconds and a call count; :meth:`flush`
    moves what accumulated since the last flush into a named phase bucket,
    so set-up, warm-up, timed rounds and the harness's own checks stay
    apart.  With ``keep_spans`` every span is also kept as
    ``(index, start_ns, duration_ns, depth)`` for :meth:`dump_chrome_trace`.
    """

    def __init__(self, table: Dict[str, str] = SPANS, keep_spans: bool = False):
        self.names: List[str] = list(table)
        self.table = table
        self.unresolved: List[str] = []
        self.spans: Optional[List[Tuple[int, int, int, int]]] = [] if keep_spans else None
        self._self_ns = [0] * len(self.names)
        self._calls = [0] * len(self.names)
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.phases: Dict[str, Tuple[List[int], List[int]]] = {}

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        # Resolve every row before patching any: resolving imports the
        # modules, and a by-name reference can only be replaced once the
        # module holding it is loaded.
        resolved = []
        for index, name in enumerate(self.names):
            try:
                resolved.append((index, *resolve(self.table[name])))
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(name)
        for index, owner, attr, fn in resolved:
            wrapper = self._wrap(fn, index)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: other repro modules hold it by name
            # (``from repro.net.message import encode``), so replace every
            # such reference.  The defining module keeps the original: a
            # span marks a call *into* the layer, and ``encoded_size``
            # calling ``encode`` next to it is not one.  (A function-local
            # import reads the defining module and is therefore not seen.)
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        if self.unresolved:
            print(
                "ledger: WARNING unresolved spans (metrics reported as -1): "
                + ", ".join(self.unresolved),
                file=sys.stderr,
            )

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, index: int) -> Callable:
        stack, self_ns, calls, spans = self._stack, self._self_ns, self._calls, self.spans
        clock = time.perf_counter_ns

        # wraps() keeps __name__: a bound method held in node state is
        # pickled by name into the durable snapshots.
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)  # nanoseconds covered by this span's children
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[index] += duration - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += duration
                if spans is not None:
                    spans.append((index, start, duration, len(stack)))

        return span

    # -- aggregation ---------------------------------------------------------

    def flush(self, phase: str) -> None:
        """Credit everything recorded since the previous flush to ``phase``."""
        bucket = self.phases.setdefault(
            phase, ([0] * len(self.names), [0] * len(self.names))
        )
        for i in range(len(self.names)):
            bucket[0][i] += self._self_ns[i]
            bucket[1][i] += self._calls[i]
            self._self_ns[i] = self._calls[i] = 0

    def totals(self, phase: str) -> Dict[str, Tuple[int, int]]:
        """span name -> (self ns, calls) credited to ``phase``."""
        self_ns, calls = self.phases.get(
            phase, ([0] * len(self.names), [0] * len(self.names))
        )
        return {
            name: (self_ns[i], calls[i])
            for i, name in enumerate(self.names)
            if name not in self.unresolved
        }

    def dump_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome-trace ``X`` events (one thread, so
        nesting in the viewer is the parent/child relation)."""
        events = [
            {
                "name": self.names[index], "ph": "X", "pid": 0, "tid": 0,
                "ts": start / 1000.0, "dur": duration / 1000.0,
                "args": {"depth": depth},
            }
            for index, start, duration, depth in self.spans or []
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
