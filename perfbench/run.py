"""Benchmark of widefeat's ``extract`` and ``recommend``.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: extract-pcg, escalate-tall, default-refine (see README.md).  One
run sets up the seeded inputs, then repeats rounds of the workload's
operation (one ``extract`` or ``recommend`` call per dataset of the workload)
until ``--seconds`` of operation time have passed, checking every output
untimed.  A fixed reference loop (``reference.py``) runs after every
operation, so that ``wall_s`` can be given at a fixed host speed.  It prints
each metric by name and unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the first round untraced and the rest
with spans around the package's public functions, and reports the per-layer
metrics.  The exit code is 1 when a check fails and 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

UNITS = {"peak_rss_mb": "MB", "fe2_test_accuracy": "fraction"}


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, one after the other."""
    times = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed),
             str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, work: Path) -> tuple[dict, int, int, list[str]]:
    import checks
    import reference
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup_times = measure_setup(args.workload, args.seed, work)
    datasets = workloads.prepare(wl, args.seed, work / "inputs")

    recorder = spans.Recorder() if args.trace else None
    rounds: list[tuple[bool, list[float]]] = []  # (traced, operation times)
    attempted = failed = 0
    problems: list[str] = []
    first: dict[int, object] = {}  # dataset -> its first outcome
    rss_after_first = None
    refs = [reference.reference_s()]
    op = 0
    # Whole rounds only: the run stops after the round that brings the summed
    # operation time to --seconds, and makes at least two rounds, so that every
    # dataset's output is compared with a repeat.  A traced run traces every
    # round after its first.
    while sum(sum(times) for _, times in rounds) < args.seconds or len(rounds) < 2:
        tracing = bool(args.trace) and bool(rounds)
        times = []
        for j, inputs in enumerate(datasets):
            op_dir = work / f"op{op}"
            outcome = None
            with spans.traced(recorder) if tracing else nullcontext():
                if tracing:
                    recorder.begin_op(op)
                start = time.perf_counter()
                try:
                    with recorder.span("op") if tracing else nullcontext():
                        outcome = wl.operation(inputs, op_dir)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                times.append(time.perf_counter() - start)
            refs.append(reference.reference_s())
            attempted += 1
            if outcome is not None:
                if rss_after_first is None:
                    rss_after_first = peak_rss_mb()
                if j not in first:
                    problems += [f"dataset {j}: {p}"
                                 for p in checks.CHECKS[args.workload](outcome, inputs)]
                    outcome.recommendation = None  # keep only what later comparisons need
                    first[j] = outcome
                elif outcome.fingerprint != first[j].fingerprint:
                    problems.append(f"dataset {j}: operation {op} output differs from the "
                                    "first operation on it, byte for byte")
            shutil.rmtree(op_dir, ignore_errors=True)
            op += 1
        rounds.append((tracing, times))

    if len(first) < len(datasets):
        problems.append("some dataset had no successful operation")
        return {}, attempted, failed, problems

    # A round's figure is the mean operation time over its datasets, given at the
    # host speed where the reference loop takes NOMINAL_S, from the median of the
    # run's reference passes (one after every operation).
    scale = (reference.NOMINAL_S / statistics.median(refs)) ** reference.ELASTICITY
    untraced = [statistics.fmean(times) * scale for traced, times in rounds if not traced]
    traced = [statistics.fmean(times) * scale for traced, times in rounds if traced]
    if not args.trace:
        # extract-pcg trains no classifier, so it has no Fe2; it reports 1.0 there so
        # that every workload carries every end-to-end metric.
        accuracy = (statistics.fmean(o.fe2_test_accuracy for o in first.values())
                    if wl.recommends else 1.0)
        metrics = {"wall_s": statistics.median(untraced),
                   "peak_rss_mb": rss_after_first,
                   "setup_s": statistics.median(setup_times),
                   "fe2_test_accuracy": accuracy}
        print(f"{args.workload}: operation wall times by round {[t for _, t in rounds]}, "
              f"reference times {refs}, scaled round times {untraced}, "
              f"set-up times {setup_times}")
    else:
        problems += recorder.problems
        per_op = [spans.op_layer_metrics(recorder, i) for i in range(len(datasets), op)]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(trace_path)
        print(f"{args.workload}: scaled round times, untraced {untraced}, traced {traced}; "
              f"reference times {refs}; spans in {trace_path}")
        print("breakdown of the last traced operation:")
        print("\n".join(spans.breakdown(recorder, op - 1)))
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract-pcg", "escalate-tall", "default-refine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "widefeat" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, problems = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"attempted {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit_of(name)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


if __name__ == "__main__":
    sys.exit(main())
