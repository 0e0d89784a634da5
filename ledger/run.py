#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one pass in this interpreter: prints every metric by name with its
        unit, every failed op, and -- last line -- the result object the
        BENCHMARK.json contract asks for.  ``--trace 0`` measures the
        end-to-end metrics with nothing wrapped; ``--trace 1`` wraps the
        layer boundaries (``spans.py``) and yields the per-layer metrics.
    python3 ledger/run.py [--workload W] [--seed N] [--seconds S] [--out L.json]
        both passes of every (or one) workload, each in a fresh interpreter
        so the process-wide caches start cold, merged into one ledger file.
    python3 ledger/run.py --compare BASE.json NEW.json
        noise-aware diff of two ledger files (``compare.py``).

Exit status is non-zero only for a harness error (an exception outside an
op, a missing or misnamed metric) or a ``--compare`` regression; failed ops
are counted and printed, not raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".ledger_work")

#: Share of a traced pass's time spent on its untraced reference prefix.
REFERENCE_SHARE = 0.25


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def calibrate() -> float:
    """Milliseconds for a fixed bigint + dict + numpy loop, best of ten: the
    machine's speed right now, so sustained drift between runs is visible
    (best of three still wandered 15 % while round times held within 4 %)."""
    import numpy

    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        x, modulus = 3, (1 << 255) - 19
        for i in range(20_000):
            x = (x * x + i) % modulus
        table: Dict[int, int] = {}
        for i in range(60_000):
            table[i & 4095] = table.get(i & 4095, 0) + i
        grid = numpy.arange(250_000, dtype=numpy.uint64)
        for _ in range(5):
            grid = (grid * grid + 1) % 1_000_003
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def env_block() -> Dict[str, Any]:
    import numpy

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def one_pass(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    from spans import Tracer
    from workloads import MIN_EPISODES, WORKLOADS, pass_metrics, run_pass, span_metrics

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, str(os.getpid()))
    calib = [calibrate()]
    tracer = reference = None
    try:
        if args.trace:
            # The same inputs untraced first: what the traced rounds are
            # compared with, for the overhead and for "wrappers do not
            # perturb the protocol".
            reference = run_pass(
                workload, args.seed, args.seconds * REFERENCE_SHARE, workdir,
                max_episodes=1 if workload.episodes else MIN_EPISODES,
            )
            tracer = Tracer(keep_spans=bool(args.spans))
            tracer.install()
            try:
                data = run_pass(
                    workload, args.seed, args.seconds * (1 - REFERENCE_SHARE), workdir,
                    tracer=tracer, plan=reference.rounds_per_episode,
                )
            finally:
                tracer.uninstall()
        else:
            data = run_pass(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibrate())

    metrics = pass_metrics(data)
    metrics["host.calib_ms"] = statistics.fmean(calib)
    correct = not data.failed_ops
    if tracer is not None:
        metrics.update(span_metrics(tracer, data))
        replayed = sum(reference.rounds_per_episode)
        metrics["trace.overhead_ratio"] = (
            statistics.median(data.round_ms[:replayed]) / statistics.median(reference.round_ms)
        )
        root_ns = tracer.totals("round").get("core.runtime.run_round", (0, 0))[0]
        metrics["trace.unattributed_share"] = root_ns / 1e6 / sum(data.round_ms)
        if data.replay_sha256 != reference.transcript_sha256()["full"]:
            correct = False
            print("FAILED %s: traced and untraced transcripts differ" % workload.name)
        if args.spans:
            tracer.dump_chrome_trace(args.spans)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit("ledger: metrics missing from BENCHMARK.json: %s" % unknown)
    for name in sorted(metrics):
        print("%-44s %16.6f %s" % (name, metrics[name], units[name]))
    for op in data.failed_ops:
        print("FAILED %(workload)s / episode %(episode)s / round %(round)s / %(check)s" % op)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit("ledger: metrics not measured: %s" % missing)
    result = {
        "correct": correct,
        "attempted": data.ops,
        "failed": len(data.failed_ops),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    if args.out:
        detail = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env_block(), "correct": correct,
            "ops": data.ops, "failed_ops": data.failed_ops,
            "episodes": len(data.rounds_per_episode), "rounds": len(data.round_ms),
            "transcript_sha256": data.transcript_sha256(),
            "calib_ms": calib,
            "unresolved_spans": tracer.unresolved if tracer else [],
            "metrics": metrics,
        }
        with open(args.out, "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def all_passes(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    ledger: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    os.makedirs(WORK, exist_ok=True)
    for name in names:
        passes = ledger["workloads"][name] = {}
        for trace, label in enumerate(("untraced", "traced")):
            detail = os.path.join(WORK, "%s.%s.json" % (name, label))
            print("== %s (%s) ==" % (name, label), flush=True)
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", detail],
                check=True,
            )
            with open(detail) as fh:
                passes[label] = json.load(fh)
            os.remove(detail)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
    return 0


def main() -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the pass detail / the merged ledger as JSON")
    parser.add_argument("--spans", help="with --trace 1: dump every span as Chrome-trace JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    if args.compare:
        from compare import compare_files

        return compare_files(args.compare[0], args.compare[1], bench)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("ledger: %s has no src/repro to measure" % ROOT)
    if "PYTHONHASHSEED" not in os.environ:
        # bytes and str hashes are salted per process and the simulator
        # iterates sets of digests: unpinned, one --seed gives slightly
        # different runs (other op counts, other transcripts).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.trace is None:
        return all_passes(args, bench)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return one_pass(args, bench)


if __name__ == "__main__":
    sys.exit(main())
