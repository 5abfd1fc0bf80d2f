"""Benchmark of the firal package: four closed-loop workloads run through
the public API, end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload al_tuned_S --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 24     # all four, untraced then traced

One process runs one workload one or more times with the same inputs,
each run starting when the previous one ends, with BLAS pinned to one
thread.
The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.  Workloads, metrics and the
measured baseline are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One BLAS thread: on a shared two-core machine a second thread made run
# times both slower to reach a steady value and more spread out.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed per benchmark process, half before the workload
# runs and half after them, each half after one warm-up: the host's speed
# drifts over tens of seconds, and this spreads the samples across it.
SETUP_SAMPLES = 12
# The keys of workloads.WORKLOADS, named here so that parsing arguments
# does not import numpy before the BLAS threads are pinned.
WORKLOAD_NAMES = ("al_tuned_S", "al_wide_M", "greedy_S", "sweep_dilation")


def child_env():
    """Environment, BLAS pin included, for a fresh interpreter that imports
    firal from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def pin_blas_and_import_path():
    """Pin BLAS threads (before numpy loads) and put src/ first on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    sys.path.insert(0, str(ROOT / "src"))


def measure_setup(count):
    """Seconds from starting a fresh interpreter to ``import firal`` done,
    ``count`` times after one warm-up."""
    code = "import firal, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for i in range(count + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"import firal failed in a fresh interpreter ({proc.returncode})")
        if i:  # the first run fills the bytecode and page caches
            samples.append(elapsed)
    return samples


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "firal").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return func()
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def tail(samples):
    """The highest percentile with at least ten samples above it, as
    ``(percent, value)``; None until it reaches the median (20 samples)."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(name, samples, unit):
    med = statistics.median(samples)
    t = tail(samples)
    tail_text = (f"p{t[0]:.0f} {t[1]:.4f} {unit}" if t
                 else "tail n/a (needs 20 samples)")
    return f"{name}: median {med:.4f} {unit}, {tail_text}, n={len(samples)}"


def load_json(path):
    return json.loads(path.read_text()) if path.is_file() else {}


def run_workload(name, seed, seconds, trace):
    """Run one workload for about ``seconds``; returns the result object."""
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup_s = [] if trace else measure_setup(SETUP_SAMPLES // 2)
    OUT.mkdir(exist_ok=True)

    # Output digests of every run made in this checkout, keyed by the
    # source digest too: a same-seed rerun of the same code, in this process
    # or a later one, must reproduce the CSV byte for byte.  A change to the
    # code may change its output; that shows in picks_match, not here.
    seen_path = OUT / "seen_digests.json"
    key = f"{name}/{seed}/{env['source_sha256']}"
    seen = load_json(seen_path)
    tracer = tracing.Tracer() if trace else None
    run_s, round_s, per_run, digest = [], [], [], None
    failed = 0
    with tracer or contextlib.nullcontext():
        for attempted in range(1, max(1, int(seconds // workload.nominal_s)) + 1):
            problems, outcome = [], None
            t0 = time.perf_counter()
            try:
                if tracer:
                    outcome = tracer.run(attempted, workload.run, seed, OUT)
                else:
                    outcome = workload.run(seed, OUT)
            except Exception:  # a failed run is counted, and the loop goes on
                traceback.print_exc()
                problems.append("raised")
            run_s.append(time.perf_counter() - t0)
            if attempted == 1:  # peak memory of one run, however many follow
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if outcome is not None:
                problems.extend(outcome.problems)
                round_s.extend(outcome.round_s)
                digest = hashlib.sha256(outcome.csv).hexdigest()
                if seen.setdefault(key, digest) != digest:
                    problems.append("same-seed CSV differs from an earlier run")
            if tracer:
                per_run.append([s for s in tracer.spans if s["iter"] == attempted])
            if problems:
                failed += 1
                print(f"run {attempted} FAILED: {'; '.join(problems)}")
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    if not trace:
        setup_s += measure_setup(SETUP_SAMPLES - len(setup_s))

    print(f"workload {name} seed {seed} trace {trace}: {attempted} runs, "
          f"BLAS threads {BLAS_THREADS}")
    expected = load_json(HERE / "digests.json").get(name, {}).get(str(seed))
    match = "unrecorded" if expected is None else str(digest == expected).lower()
    print(f"output sha256 {digest}; picks_match={match} (reported, not gated)")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")

    if trace:
        metrics = trace_report(name, seed, workload, tracer, per_run, env)
        chosen = spec["per_layer"]
    else:
        print("run_s samples: " + " ".join(f"{v:.4f}" for v in run_s))
        print(describe("run_s", run_s, "s"))
        print(describe("round_s", round_s or run_s, "s"))
        print(describe("setup_s", setup_s, "s"))
        metrics = {
            "run_s": statistics.median(run_s),
            "round_s": statistics.median(round_s or run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
        chosen = spec["end_to_end"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in chosen}}


def trace_report(name, seed, workload, tracer, per_run, env):
    """Print the per-layer table, write the spans file, return the metrics."""
    import tracing

    summaries = [tracing.summarize(spans) for spans in per_run]
    metrics = {k: statistics.median(s[0][k] for s in summaries) for k in summaries[0][0]}
    outer = {}
    for _, o in summaries:
        for k, v in o.items():
            outer[k] = outer.get(k, 0.0) + v / len(summaries)
    dominant = max(outer, key=outer.get) if outer else None
    zero = sorted(set(tracer.missing) | {
        layer for layer in workload.expected_layers if metrics.get(f"{layer}.calls", 0) == 0})
    metrics["trace.zero_call_layers"] = len(zero)

    print(f"{'layer function':32s} {'calls':>7s} {'self_s':>9s} {'self%':>6s} {'peak_mb':>8s}")
    for layer in tracing.NAMES:
        print(f"{layer:32s} {metrics[layer + '.calls']:7.0f} {metrics[layer + '.self_s']:9.4f} "
              f"{metrics[layer + '.self_pct']:6.1f} {metrics[layer + '.peak_mb']:8.1f}")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_s", ".self_pct", ".peak_mb")):
            print(f"  {key} = {metrics[key]:.6g}")
    print(f"dominant layer (outermost compute call): {dominant} "
          f"{100 * outer.get(dominant, 0) / metrics['traced.run_s']:.1f}%")
    for layer in zero:
        print(f"FLAG: {layer} recorded zero calls on {name}, which should call it")
    kernels = tracing.kernel_counts(per_run[0])
    for kernel, counts in kernels.items():
        print(f"computed, not measured: {kernel}: "
              + ", ".join(f"{k}={v:,}" for k, v in counts.items()))

    path = OUT / f"spans_{name}_seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "env": env, "dominant": dominant,
        "zero_call_layers": zero, "kernel_counts_computed": kernels,
        "per_layer": metrics, "spans": tracer.dump(),
    }, indent=1))
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def run_all(seed, seconds):
    """Every workload untraced then traced, each in a fresh process."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        result = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                ok = False
                break
            result[trace] = json.loads(lines[-1])
            ok = ok and result[trace]["correct"]
        if len(result) == 2:
            rows.append((name, result))
    print("\nworkload        run_s    round_s  setup_s  peak_rss_mb  failed_frac  traced_run_s  overhead")
    for name, result in rows:
        e, t = result[0]["metrics"], result[1]["metrics"]
        run_s, traced = e["run_s"]["value"], t["traced.run_s"]["value"]
        print(f"{name:14s} {run_s:7.3f}s {e['round_s']['value']:8.3f}s {e['setup_s']['value']:7.3f}s "
              f"{e['peak_rss_mb']['value']:9.1f}MB {result[0]['failed'] / result[0]['attempted']:12.3f} "
              f"{traced:11.3f}s {100 * (traced / run_s - 1):+8.1f}%")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "firal" / "__init__.py").is_file():
        print(f"error: no firal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    pin_blas_and_import_path()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
