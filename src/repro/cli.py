"""Command-line interface for running the reproduction's experiments.

Usage::

    python -m repro list
    python -m repro run fig9-11 --seed 1
    python -m repro run fig17-18 --stream
    python -m repro bench scale --json BENCH_scale.json --repeat 3
    python -m repro bench concurrency --json BENCH_concurrency.json
    python -m repro bench compare baselines/BENCH_scale.json BENCH_scale.json
    python -m repro serve --port 8080
    python -m repro lint src tests benchmarks

``run`` takes the id of one paper artifact from
:data:`repro.experiments.artifacts.ARTIFACTS` (``list`` prints them), runs
its experiment at the scale the claims in ``benchmarks/`` judge and prints
its tables.  ``bench`` executes the machine-readable benchmark workloads of
:mod:`repro.bench` and the scripted baseline comparator that backs the CI
perf-regression gate.  ``lint`` runs the determinism/concurrency
static-analysis pass of :mod:`repro.lint` that CI enforces (see README
"Static analysis").  This is a thin wrapper over :mod:`repro.experiments` /
:mod:`repro.bench` / :mod:`repro.lint` for users who want the figures and
numbers without writing Python.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from . import __version__
from .api.events import ProgressEvent, ProgressKind
from .experiments import format_table
from .experiments.artifacts import ARTIFACTS


def _print_progress(label: str, event: ProgressEvent) -> None:
    """One line per ProgressEvent, the ``--stream`` output format."""
    if event.kind is ProgressKind.RUN_STARTED:
        print(f"[{label}] run started (pool={event.pool_size})", flush=True)
    elif event.kind is ProgressKind.BATCH_COMPLETED:
        accuracy = (
            f" acc={event.accuracy_estimate:.3f}"
            if event.accuracy_estimate is not None
            else ""
        )
        print(
            f"[{label}] batch {event.batch_index}: +{len(event.new_labels)} labels "
            f"(total {event.records_labeled}) t={event.wall_clock:.1f}s "
            f"pool={event.pool_size}{accuracy}",
            flush=True,
        )
    else:
        print(
            f"[{label}] finished: {event.records_labeled} labels "
            f"in {event.wall_clock:.1f}s",
            flush=True,
        )


def _run_artifact(args: argparse.Namespace) -> int:
    """Run one artifact at claim scale and print its tables.

    ``--max-extra-assignments`` and ``--stream`` reach the driver as its
    ``max_extra_assignments`` / ``on_event`` arguments, when it takes them.
    """
    artifact = ARTIFACTS[args.artifact]
    print(f"Running: {artifact.title} (seed={args.seed})")
    requested: dict[str, tuple[str, object]] = {}
    if args.max_extra_assignments is not None:
        # -1 is the CLI spelling of "unlimited" (config None); other
        # negatives are rejected at parse time.
        cap = None if args.max_extra_assignments == -1 else args.max_extra_assignments
        requested["--max-extra-assignments"] = ("max_extra_assignments", cap)
    if args.stream:
        requested["--stream"] = ("on_event", _print_progress)
    options: dict[str, object] = {}
    for flag, (name, value) in requested.items():
        if artifact.accepts(name):
            options[name] = value
        else:
            takers = ", ".join(a.id for a in ARTIFACTS.values() if a.accepts(name))
            print(f"note: {flag} only applies to {takers}; ignoring")
    for table in artifact.printer(artifact.run(seed=args.seed, **options)):
        print(f"\n=== {table.title} ===")
        print(format_table(list(table.headers), table.rows))
    return 0


def _parse_cap(raw: str) -> int:
    """Parse ``--max-extra-assignments``: an int >= 0, or exactly -1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (or -1 for unlimited), got {value}"
        )
    return value


def _parse_param(raw: str) -> tuple[str, object]:
    """Parse one ``--param key=value`` override (value is JSON, else string)."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {raw!r}"
        )
    key, _, value = raw.partition("=")
    key = key.strip()
    if not key:
        raise argparse.ArgumentTypeError(f"--param has an empty key: {raw!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _add_bench_parser(subparsers: argparse._SubParsersAction) -> None:
    from .bench import workload_specs

    bench_parser = subparsers.add_parser(
        "bench",
        help="run machine-readable benchmarks / compare against baselines",
        description=(
            "Run a named benchmark workload and optionally write the stable "
            "BENCH_<workload>.json document, or compare two such documents "
            "(the CI perf-regression gate)."
        ),
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_sub.add_parser("list", help="list available benchmark workloads")

    compare_parser = bench_sub.add_parser(
        "compare", help="compare a current BENCH json against a baseline"
    )
    compare_parser.add_argument("baseline", help="path to the baseline BENCH json")
    compare_parser.add_argument("current", help="path to the current BENCH json")
    compare_parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="fail when throughput falls below (1 - this) of baseline (default 0.30)",
    )
    compare_parser.add_argument(
        "--strict",
        action="store_true",
        help="additionally require identical simulated outcomes for equal seeds",
    )

    for spec in workload_specs():
        workload_parser = bench_sub.add_parser(
            spec.name, help=spec.description or f"run the {spec.name} workload"
        )
        workload_parser.add_argument(
            "--seed", type=int, default=0, help="random seed (default 0)"
        )
        workload_parser.add_argument(
            "--repeat", type=int, default=3, help="timed repetitions (default 3)"
        )
        workload_parser.add_argument(
            "--warmup", type=int, default=1, help="discarded warmup runs (default 1)"
        )
        workload_parser.add_argument(
            "--json",
            dest="json_path",
            metavar="PATH",
            default=None,
            help="write the BENCH json document to PATH",
        )
        workload_parser.add_argument(
            "--param",
            action="append",
            type=_parse_param,
            default=[],
            metavar="KEY=VALUE",
            help="override a workload parameter (value parsed as JSON; repeatable)",
        )


def _run_bench(args: argparse.Namespace) -> int:
    from .bench import compare_files, run_benchmark, workload_specs, write_result

    if args.bench_command == "list":
        for spec in workload_specs():
            defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
            suffix = f" [{defaults}]" if defaults else ""
            print(f"{spec.name:<12} {spec.description}{suffix}")
        return 0

    if args.bench_command == "compare":
        report = compare_files(
            args.baseline,
            args.current,
            max_regression=args.max_regression,
            strict=args.strict,
        )
        for line in report.summary_lines():
            print(line)
        return 0 if report.passed else 1

    result = run_benchmark(
        args.bench_command,
        seed=args.seed,
        repeat=args.repeat,
        warmup=args.warmup,
        params=dict(args.param),
    )
    for line in result.summary_lines():
        print(line)
    if args.json_path:
        path = write_result(result, args.json_path)
        print(f"wrote {path}")
    return 0


def _add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the labeling engine over HTTP (jobs, labels, SSE progress)",
        description=(
            "Start the labeling-as-a-service HTTP front end: POST /jobs "
            "submits a JSON JobSpec document, GET /jobs[/{id}] reports "
            "status and stats, GET /jobs/{id}/labels paginates results, "
            "GET /jobs/{id}/events streams live progress via SSE, and "
            "DELETE /jobs/{id} unregisters a job.  Serves until interrupted."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    serve_parser.add_argument(
        "--max-workers",
        type=int,
        default=8,
        help="engine pool size for concurrent jobs (default 8)",
    )
    serve_parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help=(
            "execution mode for submitted jobs: pool threads (GIL-bound) or "
            "shared-nothing worker processes; outcomes are bit-identical "
            "(default thread)"
        ),
    )


def _run_serve(args: argparse.Namespace) -> int:
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        executor=args.executor,
    )


def _add_lint_parser(subparsers: argparse._SubParsersAction) -> None:
    from .lint import add_lint_arguments

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the determinism/concurrency static-analysis pass",
        description=(
            "AST-based checks for the repo's bit-identity invariants: seeded "
            "RNG ownership, no wall-clock reads in simulated code, "
            "_GUARDED_BY lock discipline, ordering hazards, and oracle "
            "parity between indexed fast paths and their _scan twins.  "
            "Exits 1 when unsuppressed findings remain (the CI lint gate)."
        ),
    )
    add_lint_arguments(lint_parser)


def _run_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint_cli

    return run_lint_cli(
        args.paths, output_format=args.format, list_rules=args.list_rules
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce CLAMShell (VLDB 2015) experiments on the simulated crowd.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the paper artifacts")
    run_parser = subparsers.add_parser(
        "run", help="run one paper artifact at claim scale and print its tables"
    )
    run_parser.add_argument("artifact", choices=sorted(ARTIFACTS), help="artifact id")
    run_parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help="print per-batch progress lines while the runs advance (fig17-18 only)",
    )
    run_parser.add_argument(
        "--max-extra-assignments",
        type=_parse_cap,
        default=None,
        metavar="N",
        help=(
            "cap concurrent straggler-mitigation duplicates per task "
            "(N >= 0; -1 forces unlimited; default: each experiment's own "
            "configuration; artifacts whose driver takes a cap only)"
        ),
    )
    _add_bench_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for artifact in ARTIFACTS.values():
            print(f"{artifact.id:<19} {artifact.title}")
        return 0
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    return _run_artifact(args)


if __name__ == "__main__":
    raise SystemExit(main())
