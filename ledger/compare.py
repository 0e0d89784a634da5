"""Noise-aware diff of two ledger files written by ``run.py --out``.

For every (workload, end-to-end metric) it prints base, new, the ratio and
a verdict against the metric's bound in BENCHMARK.json:

* ``worse`` / ``better`` -- the new value moved by more than the bound;
* ``same`` -- it stayed within it;
* ``unresolved`` -- a host-time metric, and the two runs' ``host.calib_ms``
  differ by more than CALIB_TOLERANCE: the machine changed speed, so the
  pair says nothing.  Rerun it.

A differing transcript prefix is reported on its own line: the protocol
behaved differently, whatever the timings say.
"""

from __future__ import annotations

import json
from typing import Any, Dict

CALIB_TOLERANCE = 0.05
#: Units of metrics that measure host time, and so follow the machine's speed.
HOST_TIME_UNITS = frozenset({"ms", "s", "1/s"})


def verdict(base: float, new: float, metric: Dict[str, Any], drifted: bool) -> str:
    if drifted and metric["unit"] in HOST_TIME_UNITS:
        return "unresolved"
    if not base:
        return "same" if not new else "unresolved"
    change = new / base - 1.0
    worse_by = change if metric["better"] == "lower" else -change
    if worse_by > metric["bound"]:
        return "worse"
    return "better" if worse_by < -metric["bound"] else "same"


def compare(base: Dict[str, Any], new: Dict[str, Any], bench: Dict[str, Any]) -> int:
    """Print the comparison; 1 on any ``worse`` or a higher ``fail_share``."""
    regressed = False
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][name]["untraced"], new["workloads"][name]["untraced"]
        calib_b, calib_n = b["metrics"]["host.calib_ms"], n["metrics"]["host.calib_ms"]
        drifted = abs(calib_n / calib_b - 1.0) > CALIB_TOLERANCE
        print("== %s  (host.calib_ms %.2f -> %.2f%s)" % (
            name, calib_b, calib_n, ", DRIFTED: host-time metrics unresolved" if drifted else ""))
        for metric in bench["end_to_end"]:
            vb, vn = b["metrics"][metric["name"]], n["metrics"][metric["name"]]
            outcome = verdict(vb, vn, metric, drifted)
            regressed |= outcome == "worse"
            print("%-26s %14.4f -> %14.4f %-5s x%.4f  %s" % (
                metric["name"], vb, vn, metric["unit"], vn / vb if vb else float("nan"), outcome))
        fails_b, fails_n = b["metrics"]["fail_share"], n["metrics"]["fail_share"]
        if fails_n > fails_b:
            regressed = True
            print("fail_share rose: %.6f -> %.6f" % (fails_b, fails_n))
        prefix_b, prefix_n = b["transcript_sha256"]["prefix"], n["transcript_sha256"]["prefix"]
        if base["seed"] != new["seed"] or None in (prefix_b, prefix_n):
            print("transcripts not comparable: different seeds or a run too short")
        elif prefix_b != prefix_n:
            print("protocol behaviour changed: transcript %s.. -> %s.." % (
                prefix_b[:12], prefix_n[:12]))
    return 1 if regressed else 0


def compare_files(base_path: str, new_path: str, bench: Dict[str, Any]) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    return compare(base, new, bench)
