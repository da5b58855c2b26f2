"""lcreg benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload ablation_vec --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/``; run
outputs go to ``.bench_runs/`` and are removed at exit. With ``--trace 0``
the last line of standard output is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics of
a traced run, which spends the first half of its time on untraced rounds
to measure the tracing overhead. Earlier lines give record digests, known failures and, when
traced, a per-layer table. See README.md in this directory.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# single-threaded BLAS, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "io_s": "s",
}


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed; at least one (an ablation
    grid outlasts a short run)."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        stats = workload.round()
        stats.wall_s = time.perf_counter() - t
        out.append(stats)
    return out


def pooled_median_total(rounds: list, attr: str) -> float:
    """Median of each item's pass times pooled over all rounds, summed over
    items. Evaluation and I/O take milliseconds; pooling passes from the
    whole run keeps one slow spell of a shared host from setting them."""
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        for item, times in getattr(r, attr).items():
            pooled.setdefault(item, []).extend(times)
    return sum(statistics.median(times) for times in pooled.values())


def end_to_end(rounds: list, setup_s: float) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": med([r.wall_s for r in rounds]),
        "train_samples_per_s": med([r.train_samples / r.train_s for r in rounds]),
        "eval_samples_per_s": rounds[0].eval_samples / pooled_median_total(rounds, "eval_s"),
        "io_s": pooled_median_total(rounds, "io_s"),
    }


def traced(workload, seconds: float):
    """Untraced rounds for half the time, then traced rounds; returns (all
    rounds, metrics, units)."""
    from layers import KERNELS, PER_LAYER, all_targets, per_layer_metrics
    from lcreg.diffcore import Tape
    from spans import Tracer, tape_kernel_names

    # one more set-up under its own tracer: synthesis mostly happens there
    setup_tracer = Tracer()
    setup_tracer.install(all_targets(Tape))
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()
    setup_tracer.fold()

    untraced = run_rounds(workload, seconds / 2)
    row_seconds = dict(workload.row_seconds)
    tracer = Tracer()
    tracer.gap_targets = {"trainer.step"}
    present = tape_kernel_names(Tape)
    tracer.missing += [f"lcreg.diffcore.Tape.{k}" for k in KERNELS if k not in present]
    tracer.install(all_targets(Tape))
    workload.tracer = tracer
    try:
        rounds = run_rounds(workload, seconds / 2)
    finally:
        workload.tracer = None
        tracer.uninstall()
    overhead = (statistics.median(r.wall_s for r in untraced),
                statistics.median(r.wall_s for r in rounds))
    metrics = per_layer_metrics(tracer, len(rounds), present, row_seconds, overhead)
    metrics["data.setup_synth_s"] = setup_tracer.stats("data.synth")[1]
    print(f"untraced rounds {len(untraced)}, median {overhead[0]:.3f} s; "
          f"traced rounds {len(rounds)}, median {overhead[1]:.3f} s")
    for name, unit in PER_LAYER:
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    for name, calls in workload.row_calls.items():
        print(f"row {name}: " + ", ".join(f"{k} {v:.0f}" for k, v in calls.items()))
    for label in tracer.missing:
        print(f"missing wrap target: {label}")
    return untraced + rounds, {name: metrics[name] for name, _ in PER_LAYER}, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lcreg" / "__init__.py").is_file():
        print(f"lcreg package not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workdir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    os.environ["LCREG_CACHE_DIR"] = str(workdir / "cache")
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace:
            rounds, metrics, units = traced(workload, args.seconds)
            errors = workload.check() + workload.traced_check()
        else:
            rounds = run_rounds(workload, args.seconds)
            errors = workload.check()
            metrics = end_to_end(rounds, setup_s)
            units = list(END_TO_END_UNITS.items())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    for key, value in workload.digests().items():
        print(f"digest {key} {value}")
    for line in workload.known_failures():
        print(f"known failure: {line}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(f"rounds {len(rounds)}; setup runs "
          + ", ".join(f"{t:.3f}" for t in setup_times) + f" s; import {import_s:.3f} s")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
