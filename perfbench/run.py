"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload scale_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs untraced
passes, then traced passes, then one pass under ``tracemalloc``, and prints
every per-layer metric.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it name each metric with its unit, and say which checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How many times a run sets the workload up; ``setup_s`` is the median.
SETUPS = 3
#: Passes a run makes at least, so that passes can be compared.
MIN_PASSES = 2


def _prepare_environment() -> None:
    """Import the program from this checkout and keep scratch files in it."""
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    # One BLAS thread, set before NumPy loads.  Left to itself OpenBLAS runs
    # one spinning thread per core beside the job's own, and on a shared
    # two-core host the learning workloads then measure the scheduler.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    scratch = Path(".bench_tmp")
    scratch.mkdir(exist_ok=True)
    # Relative on purpose: the fork server's socket lives here, and a
    # socket path must stay short.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch.resolve())


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _prepare_environment()
    from perfbench import layers, report
    from perfbench.host import PeakRss, clock, stop_multiprocessing_helpers
    from perfbench.tracing import TraceShim, Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    def passes_for(seconds: float, at_least: int) -> list:
        out = []
        started = clock()
        while len(out) < at_least or clock() - started < seconds:
            out.append(workload.run_pass())
        return out

    setup_samples = []
    try:
        for attempt in range(SETUPS):
            if attempt:
                workload.teardown()
            setup_samples.append(workload.setup())
        # Sampling starts after set-up: each set-up times a separate
        # interpreter importing the program, and that is not the program's
        # memory.
        with PeakRss() as rss:
            if args.trace:
                untraced = passes_for(args.seconds / 3.0, 1)
                tracer = Tracer()
                with TraceShim(tracer, layers.targets()):
                    traced = passes_for(args.seconds * 2.0 / 3.0, 1)
                tracemalloc.start()
                try:
                    profiled = workload.run_pass()
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                passes = [*untraced, *traced, profiled]
            else:
                passes = passes_for(args.seconds, MIN_PASSES)
            reference = workload.reference()
    finally:
        workload.teardown()
        stop_multiprocessing_helpers()

    problems = report.check(passes, reference)
    if args.trace:
        metrics = layers.layer_metrics(tracer, traced, untraced, peak_bytes, profiled.labels)
        units = layers.UNITS
        note = layers.unmeasured(metrics, workload.name)
        tracer.write(Path(".bench_out") / f"spans-{workload.name}-{args.seed}.tsv.gz")
    else:
        metrics = report.end_to_end(passes, setup_samples, rss.peak_mb)
        units = report.UNITS
        note = report.tail_note(passes)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    if note:
        print(f"note: {note}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(one.attempted for one in passes),
        "failed": sum(one.failed for one in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
