"""The ordermotion benchmark.

One run:

    python3 bench/run.py --workload even_plan --seed 3 --seconds 20 --trace 0

generates the workload's inputs from the seed, runs ops back to back for
--seconds seconds of op time (a closed loop with one client that waits for
each result), checks every output, prints every metric by name with its unit,
and prints one JSON result line last. With --trace 1 timing wrappers are
installed over the library's layers and the result line holds the per-layer
metrics instead of the end-to-end ones. The exit code is 1 when an op failed.

All workloads, untraced then traced, with the tracing overhead:

    python3 bench/run.py --seconds 20

Op and set-up times are scaled to a reference host speed (see speed.py); the
wall-clock figures are printed beside them and kept in the results file.
Results and span files go to bench/out/. Workloads, metrics and the layer map
are described in bench/METRICS.md.
"""

from __future__ import annotations

import os
import sys

# One process, one library thread: cap native thread pools before numpy is
# imported, and run the library without its thread fan-out.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_CAPS:
    os.environ[_var] = "1"
IGNORED_ORDERMOTION_THREADS = os.environ.pop("ORDERMOTION_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
# An op still running after this long is stopped and counted as failed, so a
# run ends within the time it is allowed even if an input makes the library stall.
OP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("even_plan", "odd_plan", "rotation_measure", "blowup_oracle")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_source() -> None:
    """Import ordermotion from this checkout's src/ and nowhere else."""
    if not (SRC / "ordermotion" / "__init__.py").is_file():
        _fail(f"no library source at {SRC / 'ordermotion'}")
    sys.path.insert(0, str(SRC))


def set_up(workload: str, seed: int) -> tuple[float, float, float]:
    """Import ordermotion and run one warm-up op, which fills lazy caches.
    Returns (set-up in reference seconds, set-up wall seconds, input
    generation seconds); generation is not part of set-up."""
    before = speed.calibrate()
    start = time.perf_counter()
    import ordermotion  # noqa: F401

    imported = time.perf_counter() - start
    import workloads

    gen_start = time.perf_counter()
    warm = workloads.warmup_instance(workload, seed)
    generation = time.perf_counter() - gen_start
    op_start = time.perf_counter()
    workloads.run_op(warm)
    wall = imported + time.perf_counter() - op_start
    return speed.scale(wall, before, speed.calibrate()), wall, generation


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter: (reference s, wall s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["wall_s"]


def environment() -> dict:
    import numpy

    h = hashlib.sha256()
    for path in sorted((SRC / "ordermotion").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "ignored_ORDERMOTION_THREADS": IGNORED_ORDERMOTION_THREADS,
        "speed_reference_s": speed.REFERENCE_S,
    }


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None in
    a checkout that is not a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _load_reference(workload: str, seed: int) -> list[str]:
    if not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["digests"].get(workload, {}).get(str(seed), [])


class OpTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout(f"op still running after {OP_TIMEOUT_S} s")


def _traced_op(tracer, workloads, inst) -> str:
    with tracer.span("op"):
        with tracer.span("serialize.decode"):
            tuples = workloads.decode(inst)
        result = workloads.compute(inst, tuples)
        with tracer.span("serialize.encode"):
            return workloads.encode(inst, result)


def _end_to_end(latencies: list[float], setups: list[float], rss_mb: float):
    tail = stats.tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "op_tail_ms": (tail.value * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, tail


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_main = set_up(workload, seed)
    generation = setup_main[2]
    setups = [setup_main[:2]] + [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]

    import layers
    import tracing
    import workloads

    reference = _load_reference(workload, seed)
    counts = layers.OutputCounts()
    tracer = tracing.Tracer() if trace else None
    wall: list[float] = []
    calibrations: list[tuple[float, float]] = []
    failures: list[tuple[int, str, list[str]]] = []
    index = 0
    busy = 0.0
    signal.signal(signal.SIGALRM, _raise_timeout)
    if tracer is not None:
        tracer.install()
    try:
        while busy < seconds:
            gen_start = time.perf_counter()
            inst = workloads.instance(workload, seed, index)
            generation += time.perf_counter() - gen_start
            text = None
            problems: list[str] = []
            before = speed.calibrate()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            start = time.perf_counter()
            try:
                if tracer is None:
                    text = workloads.run_op(inst)
                else:
                    tracer.op = index
                    text = _traced_op(tracer, workloads, inst)
            except Exception as exc:  # an op that raises is counted and the run goes on
                problems.append(f"raised {exc!r}")
            finally:
                latency = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.op = tracing.OUTSIDE_OP
            busy += latency
            wall.append(latency)
            calibrations.append((before, speed.calibrate()))
            if text is not None:
                expected = reference[index] if index < len(reference) else None
                problems += workloads.judge(inst, text, expected)
                if not problems:
                    counts.add(inst, text)
            if problems:
                failures.append((index, inst.shape, problems))
            index += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and tracing.leftover_wrappers():
        _fail(f"timing wrappers left installed: {tracing.leftover_wrappers()}")

    # The true good-rotation measure exceeds 1/2; a single op's small-sample
    # estimate may not, so the check pools every measure op of a dimension.
    for d, (good, total) in counts.measure_good.items():
        if 2 * good <= total:
            for idx in counts.measure_ops[d]:
                failures.append((idx, f"goodrot:d={d}", [f"pooled measure {good}/{total} <= 1/2"]))

    scaled = speed.scale_all(wall, calibrations)
    counts.ops = index
    failed_ops = len({idx for idx, _, _ in failures})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, tail = _end_to_end(scaled, [s for s, _ in setups], rss_mb)
    e2e_wall, _ = _end_to_end(wall, [w for _, w in setups], rss_mb)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": index,
        "failed": failed_ops,
        "error_rate": failed_ops / index,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_wall": {k: {"value": v, "unit": u} for k, (v, u) in e2e_wall.items()},
        "tail": {"percentile": tail.percentile, "beyond": tail.beyond, "samples": tail.samples},
        "setup_samples_s": [s for s, _ in setups],
        "input_generation_s": generation,
        "latencies_ms": [round(x * 1000.0, 3) for x in scaled],
        "wall_latencies_ms": [round(x * 1000.0, 3) for x in wall],
        "calibrations_ms": [[round(b * 1000.0, 4), round(a * 1000.0, 4)] for b, a in calibrations],
        "environment": environment(),
        "failures": [{"index": i, "shape": s, "problems": p} for i, s, p in failures[:50]],
    }

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"ops {index}  failed {failed_ops}  error_rate {failed_ops / index:.4f}")
    for name, (value, unit) in e2e.items():
        extra = f"  (wall {e2e_wall[name][0]:.4f})" if name != "peak_rss_mb" else ""
        if name == "op_tail_ms":
            extra += f"  p{tail.percentile:.2f}, {tail.beyond} of {tail.samples} ops beyond"
        print(f"  {name:<24} {value:12.4f} {unit}{extra}")
    print(f"  {'error_rate':<24} {failed_ops / index:12.4f}")
    env = record["environment"]
    print(f"  python {env['python']}  numpy {env['numpy']}  cpus {env['cpu_count']}  "
          f"commit {env['commit']}  ORDERMOTION_THREADS ignored: {env['ignored_ORDERMOTION_THREADS']}")
    print(f"  {'input_generation_s':<24} {generation:12.4f} s  (information, not set-up)")
    for idx, shape, problems in failures[:10]:
        print(f"  FAILED op {idx} ({shape}): {'; '.join(problems)}", file=sys.stderr)

    metrics = record["end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        span_stats = tracing.aggregate(tracer)
        per_layer = layers.layer_metrics(tracer, span_stats, counts)
        shares = layers.self_time_shares(span_stats)
        inclusive = layers.total_time_shares(span_stats)
        print(f"  per-layer metrics ({len(tracer)} spans):")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<44} {value:14.6g} {unit}")
        print("  self-time shares: " + ", ".join(f"{n} {s:.1%}" for n, s in shares[:6]))
        print("  total-time shares of op time: "
              + ", ".join(f"{n} {s:.1%}" for n, s in inclusive[1:7]))
        spans_path = OUT / f"{stem}.spans.npz"
        tracer.write(spans_path)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["self_time_shares"] = dict(shares)
        record["total_time_shares"] = dict(inclusive)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: record["per_layer"][name] for name, _, _ in layers.PER_LAYER}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": index,
        "failed": failed_ops,
        "metrics": metrics,
    }))
    return 0 if failed_ops == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process; prints
    both sets of end-to-end numbers and the tracing overhead."""
    records: dict[tuple[str, int], dict] = {}
    status = 0
    for trace in (0, 1):
        for workload in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S + 10 * seconds, check=False)
            if proc.returncode != 0 or not path.is_file():
                status = 1
            if path.is_file():
                records[(workload, trace)] = json.loads(path.read_text())
    print("\nend-to-end, untraced -> traced (tracing overhead):")
    for workload in WORKLOAD_NAMES:
        plain, traced = records.get((workload, 0)), records.get((workload, 1))
        if plain is None or traced is None:
            print(f"  {workload}: missing run")
            continue
        print(f"  {workload}: error_rate {plain['error_rate']:.4f} -> {traced['error_rate']:.4f}")
        for name, unit in END_TO_END:
            a = plain["end_to_end"][name]["value"]
            b = traced["end_to_end"][name]["value"]
            print(f"    {name:<14} {a:12.4f} -> {b:12.4f} {unit}  ({(b - a) / a:+.1%})")
        if plain["failed"] or traced["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ordermotion benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.setup_probe:
        setup_s, wall_s, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
