"""The telemetry registry: one place where every counter-bearing component
registers its ``stats()`` / ``reset()`` pair.

Before this existed, ``analysis/metrics.py`` kept two hand-maintained,
easy-to-desync import lists (one to collect stats, one to reset them).
Now each component module registers itself *once, at import time*::

    # bottom of repro/net/message.py
    from repro.obs import registry as _telemetry
    _telemetry.register("codec_memo", codec_memo_stats, reset_codec_memo_stats)

and consumers ask the registry.  The registry itself is dependency-free
(stdlib only) so any module can import it without cycles; the canonical
list of component *modules* lives here as ``DEFAULT_COMPONENT_MODULES`` and
is imported lazily by :func:`ensure_default_components` -- the single
bootstrap replacing the twin lists.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List


@dataclass(frozen=True)
class TelemetryComponent:
    """One registered component: a name plus its stats/reset callables."""

    name: str
    stats: Callable[[], Dict[str, Any]]
    reset: Callable[[], None]


_components: Dict[str, TelemetryComponent] = {}

#: Modules whose import registers the stock fast-path components.  This is
#: the *only* list: collection and reset both walk the registry.
DEFAULT_COMPONENT_MODULES = (
    "repro.net.message",         # codec_memo
    "repro.sched.ilp",           # ilp_solver
)


def register(
    name: str,
    stats: Callable[[], Dict[str, Any]],
    reset: Callable[[], None],
) -> TelemetryComponent:
    """Register (or re-register, e.g. on module reload) a component."""
    if not callable(stats) or not callable(reset):
        raise TypeError(f"component {name!r} needs callable stats and reset")
    component = TelemetryComponent(name=name, stats=stats, reset=reset)
    _components[name] = component
    return component


def unregister(name: str) -> None:
    _components.pop(name, None)


def components() -> Dict[str, TelemetryComponent]:
    """Registered components by name (a copy; mutation-safe)."""
    return dict(_components)


def ensure_default_components() -> None:
    """Import every stock component module (each registers itself)."""
    for module in DEFAULT_COMPONENT_MODULES:
        importlib.import_module(module)


def stats_snapshot() -> Dict[str, Dict[str, Any]]:
    """Every component's current counters, keyed by component name."""
    return {name: comp.stats() for name, comp in sorted(_components.items())}


def reset_all() -> List[str]:
    """Zero every component's counters; returns the component names."""
    names = []
    for name, comp in sorted(_components.items()):
        comp.reset()
        names.append(name)
    return names

