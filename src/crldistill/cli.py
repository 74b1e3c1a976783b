# Command-line frontend: run experiments, verify the theorem batteries,
# regenerate reports and extract Pareto fronts.
#
# Exit codes: 0 success, 1 usage or config error, 2 run failure,
# 3 verification failure.
from __future__ import annotations

import argparse
import sys

from . import harness, verification
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_VERIFICATION_FAILURE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crldistill",
        description="Budget-constrained policy distillation on token MDPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train the configured method grid")
    run.add_argument("config", help="experiment YAML file")
    run.add_argument("--force", action="store_true",
                     help="overwrite existing results")
    run.add_argument("--out", default=None,
                     help="override the config's output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="train on this single seed instead of the grid")

    verify = sub.add_parser("verify",
                            help="run the theorem and assumption batteries")
    verify.add_argument("--instances", type=int, default=100,
                        help="random instances per battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None,
                        help="directory for theorems.jsonl")
    verify.add_argument("--skip-training", action="store_true",
                        help="skip the (slower) trained-policy trend check")

    report = sub.add_parser("report",
                            help="regenerate CSVs and the SVG from runs")
    report.add_argument("directory")

    pareto = sub.add_parser("pareto",
                            help="print the non-dominated rows of metrics.csv")
    pareto.add_argument("directory")
    pareto.add_argument("--x", default="task_success_rate")
    pareto.add_argument("--y", default="constraint_satisfaction")
    return parser


def _cmd_run(args) -> int:
    try:
        config = harness.ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config.seeds = harness.check_seeds([args.seed])
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        records = harness.run_experiment(config, force=args.force,
                                         output_dir=args.out)
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    out = args.out or config.output_dir
    print(f"wrote {len(records)} runs to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = [
        verification.equivalence_battery(args.instances, args.seed),
        verification.monotonicity_battery(max(args.instances // 5, 1),
                                          args.seed),
        verification.assumptions_battery(max(args.instances // 5, 1),
                                         args.seed),
        verification.bellman_battery(max(args.instances // 10, 1), args.seed),
    ]
    if not args.skip_training:
        reports.append(verification.check_violation_trend(seed=args.seed))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.theorem:<24} instances={r.instances}"
              f" max_deviation={r.max_deviation:.3e}")
    if args.out is not None:
        harness.write_theorem_reports(args.out, reports)
    return EXIT_OK if all(r.passed for r in reports) \
        else EXIT_VERIFICATION_FAILURE


def _cmd_report(args) -> int:
    try:
        harness.emit_reports(args.directory)
    except FileNotFoundError as exc:
        print(f"error: no runs found: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except harness.MissingRunsError as exc:
        print(f"error: incomplete results; missing cells:", file=sys.stderr)
        for gap in exc.gaps:
            print(f"  {gap}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"reports written to {args.directory}")
    return EXIT_OK


def _cmd_pareto(args) -> int:
    try:
        rows = harness.load_metric_rows(args.directory)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    if not rows:
        print("error: metrics.csv has no rows", file=sys.stderr)
        return EXIT_RUN_FAILURE
    for row in (args.x, args.y):
        if row not in rows[0]:
            print(f"error: unknown metric {row!r}", file=sys.stderr)
            return EXIT_USAGE
    front = harness.pareto_front(rows, args.x, args.y)
    print(",".join(harness.METRIC_COLUMNS))
    for row in front:
        print(",".join(harness._format_value(row[c])
                       for c in harness.METRIC_COLUMNS))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "report": _cmd_report, "pareto": _cmd_pareto}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
