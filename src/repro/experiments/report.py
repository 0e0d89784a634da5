"""One-shot reproduction report, and the one table of figure parameters.

:data:`FIGURES` holds, for Table 1, every evaluation figure and the S3.5 /
S3.9 ablations: the title, the entry point that runs it, its parameters at
each scale (``tiny`` for the unit tests, ``small`` for the committed
``results.md``, ``full`` for paper-scale sweeps), the projection to report
rows, and the paper's qualitative claims as booleans.  The ``figN`` CLI
commands, ``python -m repro report [--scale tiny|small|full]`` and
``tests/test_experiments.py`` all read their parameters from it.
"""

from __future__ import annotations

import datetime
import platform
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments import (
    ablations,
    fig5_overhead,
    fig6_modechange,
    fig7_scheduling,
    fig8_casestudy,
    fig9_pbft,
    fig10_xc90,
    fig11_testbed,
    timescales,
)

SCALES = ("tiny", "small", "full")
Checks = Dict[str, bool]


@dataclass(frozen=True)
class Figure:
    """One report section."""

    title: str
    run: Callable[..., Any]
    params: Dict[str, Dict[str, Any]]
    """Keyword arguments of ``run`` at each of :data:`SCALES`."""
    table: Callable[[Any], Sequence[Dict]] = lambda result: result
    check_shape: Callable[[Any], Checks] = lambda result: {}

    def section(self, scale: str) -> Tuple[str, Checks]:
        """Run at ``scale``; return the markdown section and its checks."""
        result = self.run(**self.params[scale])
        checks = self.check_shape(result)
        text = f"## {self.title}\n\n" + md_table(self.table(result))
        if checks:
            text += "\n" + md_checks(checks)
        return text, checks


def _scales(tiny: Dict, small: Dict, full: Dict) -> Dict[str, Dict]:
    return {"tiny": tiny, "small": small, "full": full}


FIGURES: Dict[str, Figure] = {
    "table1": Figure(
        "Table 1 — recovery timescales (reference data)",
        lambda: timescales.TABLE_1,
        _scales({}, {}, {}),
    ),
    "fig5": Figure(
        "Figure 5 — protocol overhead vs system size",
        fig5_overhead.run,
        _scales(
            {"sizes": (4, 12, 24), "rounds": 15, "seeds": (0,), "rsa_bits": 256},
            {"sizes": (4, 10, 20, 35), "rounds": 20, "seeds": (0,),
             "rsa_bits": 512},
            {"sizes": (4, 10, 20, 35, 50, 75, 100), "rounds": 50, "seeds": (0,),
             "rsa_bits": 512},
        ),
        check_shape=fig5_overhead.check_shape,
    ),
    "fig6": Figure(
        "Figure 6 — mode-change dynamics",
        fig6_modechange.run,
        _scales(
            {"n": 20, "fault_round": 30, "total_rounds": 50, "rsa_bits": 256},
            {"n": 30, "fault_round": 35, "total_rounds": 60, "rsa_bits": 512},
            {"n": 45, "fault_round": 50, "total_rounds": 100, "rsa_bits": 512},
        ),
        table=fig6_modechange.table,
        check_shape=fig6_modechange.check_shape,
    ),
    "fig7": Figure(
        "Figure 7 — scheduling trees",
        fig7_scheduling.run,
        _scales(
            {"sizes": (10, 35), "fmax_values": (1, 2), "samples_per_layer": 3,
             "workers": 1},
            {"sizes": (15, 30), "fmax_values": (1, 2), "samples_per_layer": 6,
             "workers": 1},
            {"sizes": (20, 50, 100, 200), "fmax_values": (1, 2, 3),
             "samples_per_layer": 6, "workers": 1},
        ),
        check_shape=fig7_scheduling.check_shape,
    ),
    "fig8": Figure(
        "Figure 8 — case-study runtime costs",
        fig8_casestudy.run,
        _scales(
            {"fconc_values": (None, 1, 3), "n": 15, "flows": 4, "rounds": 15,
             "rsa_bits": 256},
            {"fconc_values": (None, 1, 2, 3), "n": 18, "flows": 4, "rounds": 40,
             "rsa_bits": 512},
            {"fconc_values": (None, 1, 2, 3), "n": 26, "flows": 4, "rounds": 100,
             "rsa_bits": 512},
        ),
        check_shape=fig8_casestudy.check_shape,
    ),
    "fig9": Figure(
        "Figure 9 — comparison to PBFT",
        fig9_pbft.run,
        _scales(
            # tiny is small: a smaller cell passed where the report failed.
            {"f_values": (1, 2, 3), "node_counts": (25,), "workloads_per_cell": 8},
            {"f_values": (1, 2, 3), "node_counts": (25,), "workloads_per_cell": 8},
            {"f_values": (1, 2, 3), "node_counts": (25, 50, 75),
             "workloads_per_cell": 25},
        ),
        check_shape=fig9_pbft.check_shape,
    ),
    "fig10": Figure(
        "Figure 10 — XC90 cruise-control attack",
        fig10_xc90.run_all,
        # Below 1.5 s the unprotected car has not yet passed +7 mph.
        _scales({"duration_s": 1.5}, {"duration_s": 1.5}, {"duration_s": 3.0}),
        table=fig10_xc90.table,
        check_shape=fig10_xc90.check_shape,
    ),
    "fig11": Figure(
        "Figure 11 — testbed attack scenarios",
        fig11_testbed.run_all,
        _scales({"post_rounds": 25}, {"post_rounds": 25}, {"post_rounds": 40}),
        table=fig11_testbed.table,
        check_shape=fig11_testbed.check_shape,
    ),
    "ablations": Figure(
        "Ablations — the §3.5 refinements and §3.9 placement",
        ablations.run,
        _scales({"rounds": (10, 20)}, {"rounds": (12, 25)}, {"rounds": (30, 60)}),
        table=ablations.table,
        check_shape=ablations.check_shape,
    ),
}


def md_table(rows: Sequence[Dict]) -> str:
    if not rows:
        return "(no rows)\n"
    columns = list(rows[0].keys())
    out = ["| " + " | ".join(str(c) for c in columns) + " |",
           "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c)
            cells.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def md_checks(checks: Checks) -> str:
    lines = [
        f"- {'✔' if ok else '✘ FAILED'} `{name}`" for name, ok in checks.items()
    ]
    return "\n".join(lines) + "\n"


def generate_report(scale: str = "small") -> Tuple[str, Dict[str, Checks]]:
    """Run every :data:`FIGURES` entry; return the markdown report and each
    section's checks."""
    started = time.time()
    parts: List[str] = [
        "# REBOUND reproduction report\n\n"
        f"Generated {datetime.datetime.now().isoformat(timespec='seconds')} "
        f"on Python {platform.python_version()} ({platform.machine()}), "
        f"scale = {scale}.\n"
    ]
    checks: Dict[str, Checks] = {}
    for name, figure in FIGURES.items():
        text, checks[name] = figure.section(scale)
        parts.append(text)
    parts.append(f"---\nTotal generation time: {time.time() - started:.1f} s\n")
    return "\n".join(parts), checks
