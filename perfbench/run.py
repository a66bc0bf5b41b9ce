"""Benchmark of the ofanet pipeline: pretrain, probe and datagen workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it is the full record
of the run (machine, thread counts, sample counts, failures, exact counts).
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OFA_THREADS")
THREADS = 1  # BLAS and generation threads; never more than nproc
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
}


def pin_threads() -> None:
    """Must run before numpy is imported: OpenBLAS reads these once."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _openblas() -> tuple[str | None, int | None]:
    """Configuration and live thread count of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {parts[5] for parts in map(str.split, fh) if len(parts) > 5 and "openblas" in parts[5].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                try:
                    threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def environment() -> dict:
    import numpy as np
    from ofanet.seeds import thread_count

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    openblas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        "ofa_threads": thread_count(),
        "loadavg": os.getloadavg(),
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still has
    ten samples beyond it; the maximum when that percentile would fall below
    the median (fewer than 20 samples)."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, seconds: float, tracer, tally) -> tuple[list[dict], str, list[dict]]:
    """Set up, warm up, then run passes for ``seconds``. With a tracer,
    passes alternate untraced and traced, starting untraced. The reference
    kernel is timed before and after each set-up and pass, which carry the
    scale it gives. Returns the set-ups, the digest of the inputs set-up
    made, and the passes."""
    from calibrate import reference_s, scale
    from workloads import Tally

    reference_s()  # warm-up: its arrays' first touch
    setups, digests = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        before = reference_s()
        with tracer.active() if tracer else nullcontext():
            t0 = perf_counter()
            digests.append(workload.setup())
            setups.append({"wall_s": perf_counter() - t0})
        setups[-1]["scale"] = scale(before, reference_s())
    tally.op(len(set(digests)) == 1, "set-up is not deterministic")
    workload.unit(Tally())  # warm-up: lazy imports and first-call costs
    workload.check(tally)

    passes = []
    before = reference_s()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline or (tracer and len(passes) % 2):
        traced = tracer is not None and len(passes) % 2 == 1
        steps = Tally()
        counts = tracer.exact_counts() if traced else None
        with tracer.active() if traced else nullcontext():
            t0 = perf_counter()
            items = workload.unit(steps)
            wall = perf_counter() - t0
        after = reference_s()
        entry = {"traced": traced, "wall_s": wall, "items": items, "steps": steps.steps, "scale": scale(before, after)}
        before = after
        if traced:
            entry["exact_counts"] = [a - b for a, b in zip(tracer.exact_counts(), counts)]
        passes.append(entry)
        workload.check(tally)
    traced_counts = [p["exact_counts"] for p in passes if p["traced"]]
    for counts in traced_counts:
        tally.op(counts == traced_counts[0], "exact counts differ between traced passes")
    return setups, digests[0], passes


def end_to_end(setups: list[dict], passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference machine
    speed unless ``scaled`` is false."""
    def f(interval):
        return interval["scale"] if scaled else 1.0

    steps = [s * f(p) for p in passes for _, s in p["steps"]]
    return {
        "setup_s": statistics.median(s["wall_s"] * f(s) for s in setups),
        "wall_s": statistics.median(p["wall_s"] * f(p) for p in passes),
        "items_per_s": sum(p["items"] for p in passes) / sum(p["wall_s"] * f(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_tail": tail(steps)[0] * 1e3,
    }


def per_layer(workload, tracer, passes: list[dict]) -> dict[str, tuple[float, str]]:
    from ofanet.modalities import BUILTIN_IDS

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    traced_steps = [s for p in traced for _, s in p["steps"]] if workload.trains else []
    work = len(traced_steps) if workload.trains else sum(p["items"] for p in traced)
    out = tracer.metrics(len(traced_steps), sum(traced_steps), work)
    for mid in BUILTIN_IDS:
        own = [s for p in plain for m, s in p["steps"] if m == mid] if workload.trains else []
        out[f"trainer.step_ms_p50.{mid}"] = (statistics.median(own) * 1e3 if own else 0.0, "ms")
    # readouts of the other workloads read 0
    out["trainer.loss_final"] = (0.0, "mse")
    for mid in BUILTIN_IDS:
        out[f"probe.top1.{mid}"] = (0.0, "fraction")
        out[f"probe.miou.{mid}"] = (0.0, "fraction")
    out.update(workload.readouts())
    overhead = statistics.median(p["wall_s"] * p["scale"] for p in traced) - statistics.median(
        p["wall_s"] * p["scale"] for p in plain
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["pretrain", "probe", "datagen"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long the timed loop runs")
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"], help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    if not (SRC / "ofanet" / "__init__.py").is_file():
        print(f"error: no ofanet sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calibrate import NOMINAL_S
    from tracer import Tracer
    from workloads import WORKLOADS, Tally

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    try:
        # the temp dir's name has a fixed length, so checkpoints embedding
        # paths under it have the same size in every run of one checkout
        with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK) as tmp:
            workload = WORKLOADS[args.workload](args.seed, args.size, Path(tmp))
            setups, digest, passes = measure(workload, args.seconds, tracer, tally)
    finally:
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass

    plain = [p for p in passes if not p["traced"]]
    if tracer:
        metrics = per_layer(workload, tracer, passes)
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(setups, plain).items()}
    steps = [s for p in plain for _, s in p["steps"]]
    _, percentile, samples = tail(steps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": environment(),
        "setup_s": [s["wall_s"] for s in setups],
        "scale": {
            "nominal_reference_s": NOMINAL_S,
            "setups": [s["scale"] for s in setups],
            "passes": [p["scale"] for p in passes],
        },
        "unscaled": end_to_end(setups, plain, scaled=False),
        "inputs_digest": digest,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "step_samples": samples,
        "step_ms_tail_percentile": percentile,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "readouts": {name: value for name, (value, _) in workload.readouts().items()},
        "exact_counts": next((p["exact_counts"] for p in passes if p["traced"]), None),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
