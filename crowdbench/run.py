"""Benchmark of crowdselect's selection paths on seeded synthetic inputs.

    python3 crowdbench/run.py --workload t-grid --seed 1 --seconds 30 --trace 0

One process runs one workload (see workloads.py): it imports the package from
../src, generates the inputs from --seed, runs an untimed warm-up pass, then
timed passes over the same operations for about --seconds. Every
operation's output is checked on every pass, and every pass must return the
warm-up pass's subsets. The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, or the per-layer metrics of a traced run with --trace 1, which
alternates passes without and with spans around the package's public
functions.

A reported time sums, over the operations of one pass, each operation's
fastest timed repeat in the run. On a shared machine the speed of pure-Python
code switches every few seconds between levels up to 1.7x apart; the
fastest of several repeats spread over the run lands on the fast level, where
a median of a few passes lands on one level or the other.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread, so timings do not depend on how
# many threads the library starts on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
GENERATION_REPEATS = 3
# each operation's fastest time needs repeats spread over the run
MIN_PASSES = 2


@dataclass
class PassResult:
    """Outcome of one pass over a workload's operations."""

    elapsed: float = 0.0
    op_times: list = field(default_factory=list)  # per operation; None where it raised
    solver_times: dict = field(default_factory=lambda: defaultdict(float))
    quality: list = field(default_factory=list)
    subsets: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0


def run_pass(groups) -> PassResult:
    """Time every operation once, then check it; a raise or a failed check fails it."""
    result = PassResult()
    started = time.perf_counter()
    for group in groups:
        outputs, values, failed = {}, {}, set()

        def fail(op_name, message):
            failed.add(op_name)
            result.failures.append((f"{group.label}/{op_name}", message))

        for op in group.ops:
            result.attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            try:
                output = op.call(outputs)
            except Exception as err:  # the runner must go on and count it
                result.op_times.append(None)
                result.subsets.append(None)
                fail(op.name, f"raised {type(err).__name__}: {err}")
                continue
            elapsed = time.perf_counter() - t0
            result.op_times.append(elapsed)
            result.solver_times[op.solver] += elapsed
            outputs[op.name] = output
            result.subsets.append(op.subset(output) if op.subset else None)
            try:
                values[op.name] = op.check(output, outputs)
            except Exception as err:
                fail(op.name, f"check: {type(err).__name__}: {err}")
        if group.verify is not None and group.referee not in failed:
            try:
                group.verify(values)
            except Exception as err:
                fail(group.referee, f"check: {type(err).__name__}: {err}")
        # a heuristic's score as a share of the best score reached on the same input
        best = max((v for v in values.values() if v is not None), default=0.0)
        for op in group.ops:
            if op.heuristic and values.get(op.name) is not None and best > 0.0:
                result.quality.append(values[op.name] / best)
    result.elapsed = time.perf_counter() - started
    return result


def compare_subsets(reference: PassResult, other: PassResult, labels) -> None:
    """Count an operation as failed when its subset differs from the warm-up pass's."""
    for label, want, got in zip(labels, reference.subsets, other.subsets):
        if want is not None and got is not None and want != got:
            other.failures.append((label, f"subset {got} differs from the warm-up pass's {want}"))


def timed_passes(seconds: float, run_one) -> list:
    """Call run_one() while the next call is expected to end within `seconds`;
    at least MIN_PASSES times."""
    results = []
    started = time.perf_counter()
    while len(results) < MIN_PASSES or (
        (time.perf_counter() - started) * (len(results) + 1) / len(results) <= seconds
    ):
        results.append(run_one())
    return results


def machine_info(numpy) -> dict:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def fastest_times(passes: list[PassResult]) -> list[float]:
    """Each operation's fastest time over the passes, leaving out one that always raised."""
    per_op = zip(*(p.op_times for p in passes))
    return [min(t for t in times if t is not None)
            for times in per_op if any(t is not None for t in times)]


def end_to_end_metrics(setup_s: float, passes: list[PassResult]) -> dict:
    fastest = fastest_times(passes)
    # quality depends on the seed only; the subset comparison holds every pass to it
    quality = statistics.fmean(passes[-1].quality) if passes[-1].quality else 0.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(fastest), "s"),
        "quality": (quality, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, firsts: list[int], untraced, traced) -> dict:
    """Each PER_LAYER metric at its best over the traced passes, and the tracing overhead."""
    ends = firsts[1:] + [len(tracer.spans)]
    per_pass = [spans.layer_metrics(tracer.spans[:end], first) for first, end in zip(firsts, ends)]
    metrics = {}
    for name, unit, better in spans.PER_LAYER:
        pick = min if better == "lower" else max
        metrics[name] = (pick(m[name] for m in per_pass), unit)
    overhead = sum(fastest_times(traced)) - sum(fastest_times(untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("t-grid", "t-large", "s-profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crowdselect" / "__init__.py").is_file():
        print(f"crowdbench: no crowdselect package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy

    from crowdselect import pbd, profiles, smodel, tmodel

    import workloads

    import_s = time.perf_counter() - started
    print("machine:", json.dumps(machine_info(numpy)))

    generate = workloads.WORKLOADS[args.workload]
    generation = []
    for _ in range(GENERATION_REPEATS):
        t0 = time.perf_counter()
        groups = generate(args.seed)
        generation.append(time.perf_counter() - t0)
    labels = [f"{g.label}/{op.name}" for g in groups for op in g.ops]

    warm = run_pass(groups)
    setup_s = import_s + statistics.median(generation) + warm.elapsed
    print(f"setup: import {import_s:.4f} s, generation {statistics.median(generation):.4f} s, "
          f"warm-up pass {warm.elapsed:.4f} s, {len(labels)} operations per pass")

    def checked_pass() -> PassResult:
        result = run_pass(groups)
        compare_subsets(warm, result, labels)
        return result

    if args.trace:
        # untraced and traced passes alternate, so both see the same machine
        tracer, firsts = spans.Tracer(), []

        def traced_pair():
            untraced = checked_pass()
            firsts.append(len(tracer.spans))
            tracer.install(pbd, tmodel, smodel, profiles)
            try:
                return untraced, checked_pass()
            finally:
                tracer.uninstall()

        pairs = timed_passes(args.seconds, traced_pair)
        untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
        metrics = per_layer_metrics(tracer, firsts, untraced, traced)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv", started)
        passes = [p for pair in pairs for p in pair]
    else:
        passes = timed_passes(args.seconds, checked_pass)
        metrics = end_to_end_metrics(setup_s, passes)

    for i, p in enumerate(passes):
        times = " ".join(f"{k}={v:.4f}" for k, v in sorted(p.solver_times.items()))
        print(f"pass {i}: {sum(t for t in p.op_times if t is not None):.4f} s, {times}")
    failures = warm.failures + [f for p in passes for f in p.failures]
    for label, message in failures:
        print(f"FAILED {label}: {message}", file=sys.stderr)
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = len({(i, label) for i, p in enumerate([warm] + passes) for label, _ in p.failures})
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
