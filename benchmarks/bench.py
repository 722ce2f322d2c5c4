"""pdmsim benchmark: one client, one thread, closed loop, in-process ``pdm`` commands.

Run from the root of a source checkout:

    python3 benchmarks/bench.py --workload multi-event-build --seed 1 --seconds 28 --trace 0

The package is imported from ``src/`` of that checkout, never from an
installed copy. With ``--trace 0`` the run times operations untraced and
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes over a fixed list of operations and prints per-layer metrics.
The last line of standard output is the result as one JSON object; a record
with the run environment and every operation's raw latency is written to
``.bench_out/``.

Reported times are scaled to a fixed host speed. On the shared 2-vCPU host
this benchmark was written on, the same work ran up to 1.5-2x slower for
seconds to minutes at a time, in CPU time as well as wall time, so raw medians
of separate runs differed by over 20%. A fixed reference kernel that does not
use pdmsim is therefore timed before and after every operation (and after
every set-up and around every traced pass), and each wall time is multiplied
by ``REF_NOMINAL_S`` over the mean of the reference times around it. A scaled
time is the time on a host that runs the reference kernel in
``REF_NOMINAL_S``.

Each reference run waits ``THINK_S`` first. After a multithreaded BLAS call
(the 32x32 eigensolve of a 5-event build is one) OpenBLAS's worker threads
spin for about 2^28 cycles; on 2 vCPUs that halved the speed of the main
thread for 0.1-0.3 s, which the reference must not see. The wait also makes
every operation start, like a fresh ``pdm`` process, with those threads idle.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated in child processes so that its median covers the import:
# this many before the timed loop and as many after it, so that the median
# spans the run and not a few seconds of host load.
SETUP_PROBES_EACH_SIDE = 2
# A traced pass covers this many operations, the same list on every pass.
TRACE_OPS = 4
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10
REF_ITERATIONS = 1000
REF_NOMINAL_S = 0.050
THINK_S = 0.25


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up and print it (used by the parent run)")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    requested = next((int(os.environ[v]) for v in BLAS_THREAD_VARS
                      if os.environ.get(v, "").isdigit()), nproc)
    threads = max(1, min(requested, nproc))
    for v in BLAS_THREAD_VARS:
        os.environ[v] = str(threads)
    return threads


def import_package():
    """Import pdmsim from this checkout's src/ and fail if that is not where it came from."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pdmsim
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import pdmsim from {src}: {exc}") from None
    origin = Path(pdmsim.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bench: pdmsim came from {origin}, not from {src}")
    return pdmsim


def reference_s() -> float:
    """Wall time of a fixed kernel of Python calls on tiny complex matrices, the
    kind of work that dominates every workload, timed after ``THINK_S`` idle."""
    import numpy as np

    time.sleep(THINK_S)
    rng = np.random.default_rng(0)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    I2 = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        P = np.kron(np.kron(I2, X), I2)
        M = (P @ M + M @ P) / 2.0
        acc += np.trace(M).real
    dt = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return dt


def speed_scale(*refs: float) -> float:
    """Factor that scales a time measured between these reference times to the nominal host."""
    return REF_NOMINAL_S * len(refs) / sum(refs)


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, generate the seeded inputs and run one warm-up operation."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; have {sorted(workloads.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[name](seed, str(workdir))
    w.generate()
    w.collect(0, w.run(0))
    raw = time.perf_counter() - t0
    ref = reference_s()
    return w, {"setup_s": raw * speed_scale(ref), "raw_s": raw, "reference_s": ref}


def probe_setup(args) -> list[dict]:
    """Time the whole set-up in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES_EACH_SIDE):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def run_op(w, i: int, failures: list):
    """Run operation i; returns (seconds, output) with output None if it raised."""
    t0 = time.perf_counter()
    try:
        out = w.run(i)
    except Exception:
        dt = time.perf_counter() - t0
        failures.append(f"op {i} raised:\n{traceback.format_exc()}")
        return dt, None
    dt = time.perf_counter() - t0
    w.collect(i, out)
    return dt, out


def check_ops(w, done: list, failures: list) -> int:
    """Check every output; returns the number of failed operations."""
    failed = 0
    for i, out in done:
        if out is None:
            failed += 1
            continue
        try:
            errs = w.check(i, out)
        except Exception:
            errs = [f"check raised:\n{traceback.format_exc()}"]
        if errs:
            failed += 1
            failures.extend(f"op {i}: {e}" for e in errs[:3])
    return failed


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least TAIL_BEYOND samples beyond it, and its percentile.

    With fewer than 2 * TAIL_BEYOND + 1 samples that statistic would lie below
    the median, so the median's upper neighbour is taken instead.
    """
    s = sorted(latencies)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return s[k], 100.0 * (k + 1) / n


def measure(w, seconds: float, failures: list) -> dict:
    """Closed loop with one client until the deadline, ending on a whole cycle of the pool."""
    raw, latencies, refs, done = [], [], [reference_s()], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % w.cycle:
        dt, out = run_op(w, i, failures)
        refs.append(reference_s())
        raw.append(dt)
        latencies.append(dt * speed_scale(refs[-2], refs[-1]))
        done.append((i, out))
        i += 1
    failed = check_ops(w, done, failures)
    tail, pct = tail_latency(latencies)
    return {
        "attempted": len(done),
        "failed": failed,
        "raw_latencies_s": raw,
        "reference_s": refs,
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "throughput_ops_s": len(latencies) / sum(latencies),
    }


def measure_traced(w, seconds: float, failures: list) -> dict:
    """Alternate untraced and traced passes over the same operations until the deadline."""
    from tracer import Tracer

    tracer = Tracer()
    ops = range(TRACE_OPS)
    untraced, traced, passes, scales, done = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        for record in (False, True):
            before = reference_s()
            if record:
                tracer.install()
            wall = 0.0
            try:
                for i in ops:
                    tracer.current_op = i
                    dt, out = run_op(w, i, failures)
                    wall += dt
                    done.append((i, out))
            finally:
                tracer.uninstall()
            scale = speed_scale(before, reference_s())
            (traced if record else untraced).append(wall * scale)
            if record:
                passes.append(tracer.totals())
                scales.append(scale)
    failed = check_ops(w, done, failures)
    if tracer.missing:
        failures.append(f"note: not found in pdmsim, reported as 0: {tracer.missing}")
    counts_repeat = all(p.calls == passes[0].calls for p in passes)
    if not counts_repeat:
        failures.append("traced passes over the same operations made different call counts")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-seed{w.seed}.json.gz"
    tracer.write(spans_path)
    n = len(ops)
    metrics = {}
    for name in tracer.names:
        if not name.startswith("verify."):
            metrics[f"{name}.calls"] = (passes[0].calls[name] / n, "count")
        self_ms = statistics.median(p.self_ns[name] * k for p, k in zip(passes, scales)) / 1e6 / n
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    for name, b in passes[0].computed_bytes.items():
        metrics[f"{name}.bytes"] = (b / n, "computed_bytes")
    overhead_ms = 1e3 * (statistics.median(traced) - statistics.median(untraced)) / n
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    return {
        "attempted": len(done),
        "failed": failed,
        "calls_repeat_exactly": counts_repeat,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans_per_pass": passes[0].spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def blas_threads_in_use():
    """OpenBLAS's own thread count, read from the loaded library; None if it cannot be read."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(pdmsim, args, blas_threads: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "pdmsim": getattr(pdmsim, "__version__", "unknown"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_cap": blas_threads,
        "blas_threads": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    failures: list[str] = []
    try:
        w, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        import pdmsim

        env = environment(pdmsim, args, blas_threads)
        print("env " + json.dumps(env))
        print(f"workload {w.name}: {w.why}")
        if args.trace:
            result = measure_traced(w, args.seconds, failures)
            metrics = result.pop("metrics")
        else:
            setups = [setup] + probe_setup(args)
            result = measure(w, args.seconds, failures)
            setups += probe_setup(args)
            result["setup_runs"] = setups
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["failed_ratio"] = result["failed"] / result["attempted"]
            metrics = {
                "latency_p50_ms": (result["latency_p50_ms"], "ms"),
                "latency_tail_ms": (result["latency_tail_ms"], "ms"),
                "throughput_ops_s": (result["throughput_ops_s"], "ops/s"),
                "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                "success_ratio": (1.0 - result["failed_ratio"], "ratio"),
            }
            print(f"tail is p{result['tail_percentile']:.1f} of {result['attempted']} operations; "
                  f"unscaled median {result['raw_latency_p50_ms']:.1f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f, file=sys.stderr)
    correct = result["failed"] == 0 and result.get("calls_repeat_exactly", True)
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "details": result, "failures": failures, **summary}
    (OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
