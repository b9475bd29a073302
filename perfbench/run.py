"""ellsqueeze benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cloudgrid --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload cloudgrid --seed 1 --seconds 45 --trace 1

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones.  Human-readable lines come first; the last
line of stdout is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The shared host's speed swings by up to 2x within seconds (see README.md).
# Each timed step is therefore bracketed by a fixed reference kernel, and its
# time is rescaled to the speed at which one kernel takes REFERENCE_S (about
# the kernel's median on a 2-CPU Xeon virtual machine).  The kernel mirrors the
# workload's mix: a pure-Python loop, then in-place arithmetic on a large
# complex array (`cloudgrid`) or many numpy calls on a small one (`frame`).
REFERENCE_LOOP = 40_000
REFERENCE_ARRAY = 1 << 18
REFERENCE_SMALL = 32
REFERENCE_SMALL_CALLS = 1500
REFERENCE_KIND = {"cloudgrid": "array", "frame": "small"}
REFERENCE_REPEATS = 3
REFERENCE_S = 0.006


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads():
    """Thread-pool size reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.rsplit("/", 1)[-1] and ".so" in line.rsplit("/", 1)[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_sha": _git_sha(),
    }


@functools.lru_cache(maxsize=None)
def _reference_arrays(size: int):
    a = np.exp(1j * np.linspace(0.0, 1.0, size))
    return a, np.empty_like(a)


def reference_s(kind: str) -> float:
    """Median seconds of the fixed reference kernel: the machine's current speed.

    The kernel allocates nothing, so the program's heap cannot change its speed.
    """
    big = kind == "array"
    a, y = _reference_arrays(REFERENCE_ARRAY if big else REFERENCE_SMALL)
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i
        np.copyto(y, a)
        for _ in range(4 if big else REFERENCE_SMALL_CALLS):
            np.multiply(y, a, out=y)
            np.add(y, 0.5, out=y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrated:
    """Times rescaled to reference speed by the kernel run just before and after each."""

    def __init__(self, kind: str):
        self.kind = kind
        self.ref = reference_s(kind)
        self.refs = [self.ref]

    def scale(self, seconds: float) -> float:
        after = reference_s(self.kind)
        self.refs.append(after)
        factor = 2.0 * REFERENCE_S / (self.ref + after)
        self.ref = after
        return seconds * factor


def measure_setup(seed: int, workdir: Path, kind: str) -> tuple:
    """Seconds from spawning a fresh interpreter until its inputs are ready.

    Returns the times as measured and rescaled to reference speed.
    """
    raw, scaled = [], []
    calibrated = Calibrated(kind)
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(seed), str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw.append(float(done.stdout.split()[-1]) - t0)
        scaled.append(calibrated.scale(raw[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return raw, scaled


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_pass(workloads, name, inputs, checking=None, after_op=float):
    """One pass; its time is the sum of `after_op(seconds)` over its calls."""
    kwargs = {} if checking is None else {"checking": checking}
    outcomes, total = [], 0.0
    for op in workloads.OPS[name](inputs):
        outcomes.append(workloads.run_op(op, **kwargs))
        total += after_op(outcomes[-1].seconds)
    return total, outcomes


def untraced(workloads, name, sets, seconds):
    """Pass times as measured and rescaled call by call to reference speed."""
    raw, scaled, outcomes = [], [], []
    calibrated = Calibrated(REFERENCE_KIND[name])
    t0 = last = time.monotonic()
    while not raw or 2 * time.monotonic() - last - t0 <= seconds:  # next pass fits
        last = time.monotonic()
        seconds_k, out_k = run_pass(workloads, name, sets[len(raw) % len(sets)],
                                    after_op=calibrated.scale)
        raw.append(sum(o.seconds for o in out_k))
        scaled.append(seconds_k)
        outcomes += out_k
    return raw, scaled, outcomes, calibrated.refs


def traced(workloads, name, sets, seconds, seed):
    """Alternate untraced and traced passes on input set 0."""
    import tracer as tr

    tracer = tr.Tracer()
    plain, passes, outcomes, ranges = [], [], [], []
    t0 = last = time.monotonic()
    while not passes or 2 * time.monotonic() - last - t0 <= seconds:  # next pair fits
        last = time.monotonic()
        if len(passes) % 2:  # alternate the order so warm-up favours neither side
            plain.append(run_pass(workloads, name, sets[0]))
        first = len(tracer)
        tracer.install()
        try:
            seconds_t, out_t = run_pass(workloads, name, sets[0], tracer.paused)
        finally:
            tracer.restore()
        if not len(passes) % 2:
            plain.append(run_pass(workloads, name, sets[0]))
        ranges.append((first, len(tracer)))
        metrics = tr.layer_metrics(tracer.spans(first, len(tracer)))
        metrics["trace.pass_s"] = seconds_t
        metrics["trace.remainder_s"] = seconds_t - metrics["trace.covered_s"]
        passes.append(metrics)
        outcomes += out_t
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}-seed{seed}.npz", ranges)

    counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".points"))
               or k in ("scaling.line_solves", "trace.spans")} for m in passes]
    order = sorted(range(len(passes)), key=lambda i: passes[i]["trace.pass_s"])
    chosen = dict(passes[order[(len(order) - 1) // 2]])
    outcomes += [o for _, out_u in plain for o in out_u]
    chosen["trace.untraced_pass_s"] = statistics.median(t for t, _ in plain)
    chosen["trace.overhead_s"] = (statistics.median(m["trace.pass_s"] for m in passes)
                                  - chosen["trace.untraced_pass_s"])
    info = {"traced_pass_s": [round(m["trace.pass_s"], 4) for m in passes],
            "untraced_pass_s": [round(t, 4) for t, _ in plain],
            "counts_repeat": all(c == counts[0] for c in counts)}
    return chosen, outcomes, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cloudgrid", "frame"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ellsqueeze" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no ellsqueeze sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print("perfbench: ellsqueeze was imported from outside src/", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            sets = workloads.setup(args.seed, workdir / "inputs")
            metrics, outcomes, info = traced(workloads, args.workload, sets,
                                             args.seconds, args.seed)
        else:
            setup_raw, setup_times = measure_setup(args.seed, workdir,
                                                    REFERENCE_KIND[args.workload])
            sets = workloads.setup(args.seed, workdir / "inputs")
            raw, times, outcomes, refs = untraced(workloads, args.workload, sets, args.seconds)
            q1, q3 = _quartiles(times)
            metrics = {
                "wall_s": statistics.median(times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            info = {"pass_s": [round(t, 4) for t in times], "wall_s_q1": q1, "wall_s_q3": q3,
                    "passes": len(times), "setup_s_samples": setup_times,
                    "measured_pass_s": [round(t, 4) for t in raw],
                    "measured_wall_s": statistics.median(raw),
                    "measured_setup_s": statistics.median(setup_raw),
                    "reference_s": {"nominal": REFERENCE_S, "min": min(refs),
                                    "median": statistics.median(refs), "max": max(refs)}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    info["fail_ratio"] = len(failed) / len(outcomes)
    by_op = {}
    for o in outcomes:
        by_op.setdefault(o.name, []).append(o.seconds)
    info["op_median_s"] = {k: round(statistics.median(v), 4) for k, v in by_op.items()}
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(info, sort_keys=True))
    for o in failed[:10]:
        print(f"FAILED {o.name}: {'; '.join(o.problems)}")
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
