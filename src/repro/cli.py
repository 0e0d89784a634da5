"""Command-line interface: regenerate any evaluation figure from a shell.

Usage::

    python -m repro fig5 [--scale tiny|small|full]     # likewise fig6 ... fig11
    python -m repro table1
    python -m repro ablations [--scale tiny|small|full]
    python -m repro report --out results.md [--scale full]
    python -m repro bench-modegen [--workers 2] [--quick] [--out BENCH_modegen.json]
    python -m repro bench-scale [--smoke] [--out BENCH_scale.json]
    python -m repro chaos [--preset smoke|full|storm|restart|churn] [--seeds 0,1] [--out BENCH_chaos.json]
    python -m repro trace [--preset smoke|equivocation-gap] [--rounds 30]
    python -m repro trace --validate TRACE_smoke.jsonl
    python -m repro top [--preset smoke] [--rounds 30] [--once]

Each figure command prints its report section -- the regenerated rows and
the paper's qualitative shape checks -- with the parameters
``repro.experiments.report.FIGURES`` gives at that scale, and exits 1 if a
check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments.report import FIGURES, SCALES, generate_report


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def cmd_figure(args) -> int:
    text, checks = FIGURES[args.command].section(args.scale)
    print(text)
    return 0 if all(checks.values()) else 1


def cmd_report(args) -> int:
    text, checks = generate_report(scale=args.scale)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text)} bytes)")
    failed = [
        f"{name}.{check}"
        for name, section in checks.items()
        for check, ok in section.items()
        if not ok
    ]
    print(f"failed shape checks: {', '.join(failed)}" if failed
          else "all shape checks passed")
    return 1 if failed else 0


def cmd_bench_modegen(args) -> int:
    from repro.experiments import bench_modegen

    result = bench_modegen.main(
        output_path=args.out, workers=args.workers, quick=args.quick
    )
    refresh = result["time_to_new_tree"]
    ok = (
        result["all_parallel_identical"]
        and refresh["all_identical_to_scratch"]
        and refresh["all_parallel_identical"]
    )
    return 0 if ok else 1


def cmd_bench_scale(args) -> int:
    from repro.experiments import bench_scale

    result = bench_scale.main(
        output_path=args.out,
        smoke=args.smoke,
        rounds=args.rounds,
        sizes=args.sizes,
    )
    return 0 if result["all_clean"] else 1


def cmd_chaos(args) -> int:
    from repro.chaos import run_campaign

    on_result = None
    if args.live:
        from repro.obs.console import CampaignLiveSink

        on_result = CampaignLiveSink()
    report = run_campaign(
        preset=args.preset,
        seeds=args.seeds,
        max_cells=args.max_cells,
        shrink=not args.no_shrink,
        output_path=args.out,
        progress=print if args.verbose else None,
        on_result=on_result,
    )
    matrix = report["matrix"]
    print(
        f"chaos[{args.preset}]: {report['cell_count']} cells -- "
        f"{matrix.get('pass', 0)} pass, {matrix.get('fail', 0)} fail, "
        f"{matrix.get('crash', 0)} crash "
        f"({report['elapsed_s']:.1f}s)"
    )
    print(f"violation census: {report['violation_census'] or 'none'}")
    print(f"noop transcript identical: {report['noop_transcript_identical']}")
    for shrunk in report["failures"]:
        print(f"minimal repro: {json.dumps(shrunk, sort_keys=True)}")
    if args.out:
        print(f"wrote {args.out}")
    ok = (
        matrix.get("fail", 0) == 0
        and matrix.get("crash", 0) == 0
        and report["noop_transcript_identical"]
    )
    return 0 if ok else 1


def cmd_trace(args) -> int:
    from repro.experiments import trace_run

    if args.validate is not None:
        from repro.obs.events import validate_jsonl

        try:
            count = validate_jsonl(args.validate)
        except (OSError, ValueError) as exc:
            print(f"INVALID {args.validate}: {exc}")
            return 1
        print(f"ok {args.validate}: {count} schema-valid event(s)")
        return 0
    return trace_run.main(
        preset=args.preset,
        rounds=args.rounds,
        seed=args.seed,
        jsonl_path=args.jsonl,
        chrome_path=args.chrome,
    )


def cmd_top(args) -> int:
    from repro.obs.console import run_top

    return run_top(
        preset=args.preset,
        rounds=args.rounds,
        seed=args.seed,
        once=args.once,
        interval=args.interval,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the REBOUND paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, figure in FIGURES.items():
        fig = sub.add_parser(name, help=figure.title)
        fig.add_argument("--scale", choices=SCALES, default="small")
        fig.set_defaults(func=cmd_figure)

    benchm = sub.add_parser(
        "bench-modegen",
        help="mode-tree generation benchmark: serial vs parallel engine, "
        "plus online tree refresh (prints a BENCH JSON line)",
    )
    benchm.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the parallel runs",
    )
    benchm.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized smoke sweep (skips the expensive ILP cells)",
    )
    benchm.add_argument("--out", default="BENCH_modegen.json")
    benchm.set_defaults(func=cmd_bench_modegen)

    benchs = sub.add_parser(
        "bench-scale",
        help="serial round time on fault-free Erdos-Renyi n=200/500/1000 "
        "sweeps; exits non-zero if any node is suspected "
        "(writes BENCH_scale.json)",
    )
    benchs.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep: n=200 only, <60s",
    )
    benchs.add_argument("--rounds", type=int, default=None,
                        help="override rounds per sweep")
    benchs.add_argument(
        "--sizes", type=_int_list, default=None,
        help="comma-separated sweep sizes (default 200,500,1000)",
    )
    benchs.add_argument("--out", default="BENCH_scale.json")
    benchs.set_defaults(func=cmd_bench_scale)

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: adversaries x impairment plans x topologies "
        "under the BTR invariant monitor (writes BENCH_chaos.json)",
    )
    chaos.add_argument(
        "--preset", choices=["smoke", "full", "storm", "restart", "churn"],
        default="smoke",
        help="cell matrix (smoke is CI-sized, <60s; storm stresses the "
        "evidence layer: equivocation + floods with memory-bound checks; "
        "restart runs durable crash-restart-rejoin arcs plus log-tamper "
        "detection cells)",
    )
    chaos.add_argument(
        "--seeds", type=_int_list, default=None,
        help="restrict to these topology seeds (e.g. 0,1)",
    )
    chaos.add_argument("--max-cells", type=int, default=None)
    chaos.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failing cells",
    )
    chaos.add_argument("--verbose", action="store_true",
                       help="print one line per cell")
    chaos.add_argument(
        "--live", action="store_true",
        help="print a live running tally line as each cell finishes",
    )
    chaos.add_argument("--out", default="BENCH_chaos.json")
    chaos.set_defaults(func=cmd_chaos)

    top = sub.add_parser(
        "top",
        help="live campaign console: run a trace preset with the full "
        "telemetry plane attached and render per-round progress, node "
        "health, and the recovery decomposition",
    )
    top.add_argument(
        "--preset", choices=["smoke", "equivocation-gap"], default="smoke",
    )
    top.add_argument("--rounds", type=int, default=None,
                     help="override the preset's round count")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--once", action="store_true",
        help="render a single final frame (headless/CI mode)",
    )
    top.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to sleep between frames on a TTY",
    )
    top.set_defaults(func=cmd_top)

    trace = sub.add_parser(
        "trace",
        help="flight-recorder run: record a seeded fault, reconstruct the "
        "recovery timeline, export JSONL + Chrome-trace files",
    )
    trace.add_argument(
        "--preset", choices=["smoke", "equivocation-gap"], default="smoke",
        help="smoke = seeded crash on a 4x5 grid; equivocation-gap = the "
        "(closed) equivocation storm; both exit non-zero unless the "
        "trace-rebuilt decomposition equals the monitor's live one",
    )
    trace.add_argument("--rounds", type=int, default=None,
                       help="override the preset's round count")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--jsonl", default=None,
                       help="JSONL event log path (default TRACE_<preset>.jsonl)")
    trace.add_argument(
        "--chrome", default=None,
        help="Chrome-trace path (default TRACE_<preset>.chrome.json)",
    )
    trace.add_argument(
        "--validate", default=None, metavar="PATH",
        help="validate an existing JSONL trace against the event schema "
        "and exit (no run)",
    )
    trace.set_defaults(func=cmd_trace)

    rep = sub.add_parser("report", help="run everything, write a markdown report")
    rep.add_argument("--out", default="results.md")
    rep.add_argument("--scale", choices=SCALES, default="small")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
