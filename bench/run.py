#!/usr/bin/env python3
"""pertcrf benchmark: CRF training, corpus ingest and two-stage tagging.

    python3 bench/run.py --workload train-pos-crf2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. Operations repeat
until --seconds have passed. Set-up (input generation, serialisation, the
oracle, model pre-training) runs several times (workloads.py sets how
many) in forked child processes, once before the first operation and then
spread evenly over the run, and `setup_s` is the median. Every operation's
output is checked (see workloads.py); an operation that raises or fails a
check counts as failed.

--trace 0 reports the end-to-end metrics: setup_s, pass_ms (the fastest
time of each distinct operation, summed over one pass of the workload's
inputs; see run_untraced for why the minimum), tokens_per_s (the pass's
train or tagged tokens per second of pass_ms), peak_rss_mb (this process
only: set-up ran in children), test_f1 and success_rate
(1 - failed/attempted). setup_s, pass_ms and tokens_per_s are scaled to the
reference host speed (hostspeed.py); the record line holds them as
measured, with the scale. It also gives the median operation time (train_s,
or batch_p50_ms and batch_p90_ms), the median tokens per second,
error_rate and the sample counts.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (layers.py), the tracing overhead
measured on the pairs, and for each traced operation its top-level spans
plus the unspanned remainder.

`--workload all` runs every workload in a process of its own. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the full record, including the
machine it ran on.
"""

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set before numpy is first imported in this process.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("train-pos-crf2", "ingest-ezafe", "tag-pipeline")
PROBE_EVERY_S = 0.25
BREAKDOWN_LINES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ms": "ms",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "test_f1": "ratio",
    "success_rate": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Loop:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, workload, state, tracer=None, targets=None):
        self.w = workload
        self.state = state
        self.tracer = tracer
        self.targets = targets
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced_roots: list[int] = []
        self.train_tokens = 0

    def run(self, i: int, traced: bool = False) -> tuple[int, float, int] | None:
        """One operation; its (key, wall seconds, tokens), or None if it
        failed."""
        self.attempted += 1
        try:
            if traced:
                with self.tracer.installed(self.targets), self.tracer.root_span("bench.op") as root:
                    t0 = time.perf_counter()
                    produced = self.w.op(self.state, i)
                    dt = time.perf_counter() - t0
                self.traced_roots.append(root)
            else:
                t0 = time.perf_counter()
                produced = self.w.op(self.state, i)
                dt = time.perf_counter() - t0
            out = self.w.check(self.state, i, produced)
        except Exception:
            self.failed += 1
            self.errors.append(f"operation {i}: {traceback.format_exc(limit=4)}")
            return None
        digest = hashlib.sha256(out.output).hexdigest()
        if self.reference.setdefault(out.key, digest) != digest:
            out.errors.append("output differs from an earlier repeat" + (" (traced)" if traced else ""))
        if out.errors:
            self.failed += 1
            self.errors.extend(f"operation {i}: {e}" for e in out.errors)
            return None
        if self.w.unit == "train":
            self.train_tokens = out.tokens
        return out.key, dt, out.tokens


def _setup_child(w, seed: int, keep: bool, conn) -> None:
    t0 = time.perf_counter()
    state = w.setup(seed)
    seconds = time.perf_counter() - t0
    conn.send((seconds, state if keep else None))
    conn.close()


def setup_in_child(w, seed: int, keep: bool) -> tuple[float, object]:
    """Runs one set-up in a forked child and returns its (seconds, state),
    the state only if keep. What set-up allocates (generation, the oracle,
    model training) so stays out of this process's peak RSS."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_setup_child, args=(w, seed, keep, send))
    child.start()
    send.close()
    try:
        result = recv.recv()
    except EOFError:
        result = None
    finally:
        recv.close()
        child.join()
    if result is None:
        raise RuntimeError(f"set-up failed in its child process (exit code {child.exitcode})")
    return result


def run_untraced(w, seed: int, seconds: float) -> tuple[dict, dict, Loop]:
    import hostspeed

    probes = [hostspeed.probe() for _ in range(5)]
    setup_s, state = setup_in_child(w, seed, keep=True)
    setup_times = [setup_s]
    loop = Loop(w, state)
    ops = []
    best: dict[int, tuple[float, int]] = {}  # key -> (fastest seconds, tokens)
    start = last_probe = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < w.min_ops or time.perf_counter() < deadline:
        # The other set-ups are spread over the run, so that they meet the
        # same host conditions as the operations.
        if len(setup_times) < w.setup_repeats and (
            time.perf_counter() >= start + seconds * len(setup_times) / w.setup_repeats
        ):
            setup_times.append(setup_in_child(w, seed, keep=False)[0])
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(hostspeed.probe())
            last_probe = time.perf_counter()
        done = loop.run(i)
        if done is not None:
            key, dt, n = done
            ops.append((dt, n))
            if key not in best or dt < best[key][0]:
                best[key] = (dt, n)
        i += 1
    while len(setup_times) < w.setup_repeats:
        setup_times.append(setup_in_child(w, seed, keep=False)[0])
    times = [dt for dt, _ in ops] or [0.0]
    rates = [n / dt for dt, n in ops] or [0.0]
    pass_s = sum(dt for dt, _ in best.values())
    pass_tokens = sum(n for _, n in best.values())
    # The fastest time of each distinct operation, summed over one pass of
    # the inputs (one operation for training, every batch for tagging). On
    # a shared host the wall time of one and the same operation varies by
    # half and more with the neighbours' load; per-operation minimums, and
    # their ratio to the fastest probe of the same run, repeat from run to
    # run better than medians and raw times.
    speed = hostspeed.REFERENCE_S / min(probes)
    raw = {
        "setup_s": statistics.median(setup_times),
        "pass_ms": 1000.0 * pass_s,
        "tokens_per_s": pass_tokens / pass_s if pass_s else 0.0,
    }
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "pass_ms": raw["pass_ms"] * speed,
        "tokens_per_s": raw["tokens_per_s"] / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_f1": w.quality(state),
        "success_rate": 1.0 - loop.failed / loop.attempted,
    }
    detail = {
        "as_measured": raw,
        "host_speed_scale": speed,
        "probe_min_ms": 1000.0 * min(probes),
        "probes": len(probes),
        "operations": len(ops),
        "error_rate": loop.failed / loop.attempted,
        "setup_samples_s": setup_times,
        "tokens_per_s_median": statistics.median(rates),
    }
    if w.unit == "train":
        detail["train_s"] = statistics.median(times)
        detail["train_tokens"] = loop.train_tokens
    else:
        detail["batch_p50_ms"] = 1000.0 * statistics.median(times)
        detail["batch_p90_ms"] = 1000.0 * percentile(times, 90)
    return metrics, detail, loop


def run_traced(w, seed: int, seconds: float) -> tuple[dict, dict, Loop]:
    import layers
    import spans

    tracer = spans.Tracer()
    targets = layers.targets(tracer)
    with tracer.installed(targets), tracer.root_span("bench.setup") as setup_root:
        state = w.setup(seed)
    loop = Loop(w, state, tracer, targets)
    ratios = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 1 or time.perf_counter() < deadline:
        # Alternate which side of the pair runs first.
        order = (False, True) if i % 2 == 0 else (True, False)
        done = {traced: loop.run(i, traced) for traced in order}
        if done[False] is not None and done[True] is not None:
            ratios.append(done[True][1] / done[False][1])
        i += 1
    peak_bytes = 0
    if w.unit == "train":
        # One more, untimed operation for the memory high-water mark.
        tracemalloc.start()
        try:
            loop.run(i)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    summaries = tracer.summary()
    ops = [summaries[r] for r in loop.traced_roots]
    metrics = layers.layer_metrics(summaries[setup_root], ops)
    metrics.update(layers.derived_metrics(metrics, loop.train_tokens, peak_bytes))
    metrics["bench.trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
    breakdowns = [{"wall_s": s.wall, "spans_s": s.top_level()} for s in ops]
    detail = {
        "traced_operations": len(ops),
        "pairs": len(ratios),
        "traced_peak_bytes": peak_bytes,
        "train_tokens": loop.train_tokens,
        "missing_attributes": tracer.missing,
        "breakdown_max_residual_s": max(
            (abs(sum(b["spans_s"].values()) - b["wall_s"]) for b in breakdowns), default=0.0
        ),
        "breakdowns": breakdowns[:BREAKDOWN_LINES],
    }
    return metrics, detail, loop


def print_report(args, metrics: dict, units: dict, detail: dict, loop: Loop, record: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("closed loop, 1 client, 1 process; machine " + json.dumps(record["machine"]))
    for name, value in metrics.items():
        note = " (computed)" if name.startswith("extrap.") else ""
        print(f"  {name:<28} {value:>16.6g} {units[name]}{note}")
    if args.trace:
        print(f"  traced operations {detail['traced_operations']}, pairs {detail['pairs']}")
        for k, b in enumerate(detail["breakdowns"]):
            parts = " + ".join(f"{n} {v:.4f}" for n, v in b["spans_s"].items())
            print(f"  op {k}: wall {b['wall_s']:.4f} s = {parts}")
    else:
        for name in ("train_s", "batch_p50_ms", "batch_p90_ms", "tokens_per_s_median"):
            if name in detail:
                unit = "tokens/s" if "_per_s" in name else name.rsplit("_", 1)[1]
                print(f"  {name:<28} {detail[name]:>16.6g} {unit}"
                      f" (over {detail['operations']} operations)")
        print(f"  {'error_rate':<28} {detail['error_rate']:>16.6g} ratio"
              f" ({loop.failed} of {loop.attempted} operations failed)")
    for e in loop.errors[:BREAKDOWN_LINES]:
        print("  FAILED " + e.rstrip().replace("\n", "\n    "))


def run_one(args) -> int:
    if not (SRC / "pertcrf" / "__init__.py").is_file():
        print(f"error: toolkit sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    w = workloads.make(args.workload, args.size)
    if args.trace:
        metrics, detail, loop = run_traced(w, args.seed, args.seconds)
        units = layers.PER_LAYER_UNITS
    else:
        metrics, detail, loop = run_untraced(w, args.seed, args.seconds)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workloads.SIZES[args.workload][args.size],
        "machine": machine(),
        "metrics": metrics,
        "detail": detail,
        "errors": loop.errors,
    }
    print_report(args, metrics, units, detail, loop, record)
    print(json.dumps(record))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, so peak RSS is its alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
