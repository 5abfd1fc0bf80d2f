"""Spans around the public functions of each firal layer, recorded from
outside the package.

`Tracer` replaces each named function at every place a ``firal.*`` module
binds it (``from .fisher import pool_hessian`` in three modules gives
three bindings), so calls between modules are seen without touching the
package.  Spans stay in memory and are written out when the run ends.
``tracemalloc`` runs while tracing, for each span's peak memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = 2.0**20

# (module, function) pairs; the layer is the module.
LAYERS = (
    ("cli", "active_learning_loop"),
    ("cli", "tune_eta"),
    ("sparsify", "select_batch"),
    ("relax", "relax_solve"),
    ("fisher", "shifted_fishers"),
    ("fisher", "whiten_factors"),
    ("fisher", "pool_hessian"),
    ("synth", "dilation_for_fir"),
    ("synth", "mc_excess_risk"),
    ("baselines", "select_greedy_fb"),
    ("model", "fit_erm"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)
ROOT_SPAN = "bench.run"


def _describe(name, args, result):
    """Counts read from a call's arguments and result."""
    if name == "sparsify.select_batch":
        m, dt, k = args["factors"].factors.shape
        return {"steps": int(args["budget"]), "m": m, "d_tilde": dt, "k": k}
    if name == "cli.tune_eta":
        return {"grid_size": len({float(e) for e in args["etas"]})}
    if name == "relax.relax_solve":
        m, dt, _ = np.shape(args["fishers"])
        return {"iters": result.n_iter, "best_iter": result.best_iter,
                "box_violations": result.box_violations, "m": m, "d_tilde": dt}
    if name == "fisher.shifted_fishers":
        m, dt, _ = result.shape
        return {"stack_mb": m * dt * dt * 8 / MB}
    if name == "fisher.whiten_factors":
        return {"identity_residual": result.identity_residual}
    if name == "fisher.pool_hessian":
        return {"rows": len(args["X"])}
    if name == "model.fit_erm":
        return {"newton_iters": result.n_iter, "unconverged": int(not result.converged)}
    if name == "synth.mc_excess_risk":
        return {"points": int(args["n_points"])}
    return {}


class Tracer:
    """Records a span (name, start, end, parent) per traced call."""

    def __init__(self):
        self.spans = []
        self.missing = []      # named functions the package no longer has
        self._stack = []
        self._patched = []     # (module, attribute, original)
        self._iteration = 0
        self._t0 = time.perf_counter()

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "firal" or n.startswith("firal.")]
        for mod, fn in LAYERS:
            original = getattr(sys.modules.get(f"firal.{mod}"), fn, None)
            if original is None:
                self.missing.append(f"{mod}.{fn}")
                continue
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _open(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1]["_max"] = max(self._stack[-1]["_max"], peak)
        tracemalloc.reset_peak()
        span = {"id": len(self.spans), "name": name, "iter": self._iteration,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "_base": current, "_max": current}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter() - self._t0
        return span

    def _close(self, span):
        span["end"] = time.perf_counter() - self._t0
        _, peak = tracemalloc.get_traced_memory()
        top = max(span.pop("_max"), peak)
        span["peak_mb"] = (top - span.pop("_base")) / MB
        self._stack.pop()
        if self._stack:
            self._stack[-1]["_max"] = max(self._stack[-1]["_max"], top)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span["info"] = _describe(name, bound.arguments, result)
            return result

        return traced

    def run(self, iteration, func, *args):
        """Call ``func(*args)`` as one request under a root span."""
        self._iteration = iteration
        span = self._open(ROOT_SPAN)
        try:
            return func(*args)
        finally:
            self._close(span)

    def dump(self):
        return [{k: s[k] for k in ("id", "name", "iter", "parent", "start", "end", "peak_mb")}
                | ({"info": s["info"]} if "info" in s else {}) for s in self.spans]


def _outermost(span, by_id):
    """True for a non-cli span with no non-cli traced ancestor: the compute
    call a request spends its time in, below the cli orchestration."""
    if span["name"].startswith("cli."):
        return False
    parent = span["parent"]
    while parent is not None:
        name = by_id[parent]["name"]
        if name != ROOT_SPAN and not name.startswith("cli."):
            return False
        parent = by_id[parent]["parent"]
    return True


def summarize(spans):
    """Per-layer metrics of one request, from the spans of one iteration.

    Returns ``(metrics, outer_s)``; ``outer_s`` is the time each named
    function took over its outermost calls, which picks the dominant layer.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    total = root["end"] - root["start"]
    calls, self_s, peak, outer_s = (defaultdict(int), defaultdict(float),
                                    defaultdict(float), defaultdict(float))
    info = defaultdict(list)
    for s in spans:
        name = s["name"]
        if name == ROOT_SPAN:
            continue
        calls[name] += 1
        self_s[name] += s["end"] - s["start"] - child_s[s["id"]]
        peak[name] = max(peak[name], s["peak_mb"])
        if _outermost(s, by_id):
            outer_s[name] += s["end"] - s["start"]
        info[name].append(s.get("info", {}))

    def total_of(name, key):
        return sum(i.get(key, 0) for i in info[name])

    m = {"traced.run_s": total}
    for name in NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.self_pct"] = 100.0 * self_s[name] / total
        m[f"{name}.peak_mb"] = peak[name]

    sb, relax = "sparsify.select_batch", "relax.relax_solve"
    steps = total_of(sb, "steps")
    kept = sum(1 for s in spans if s["name"] == sb
               and by_id[s["parent"]]["name"] != "cli.tune_eta")
    m[f"{sb}.steps"] = steps
    m[f"{sb}.s_per_step"] = self_s[sb] / steps if steps else 0.0
    m[f"{sb}.useful_ratio"] = kept / calls[sb] if calls[sb] else 0.0
    m["cli.tune_eta.grid_size"] = max((i["grid_size"] for i in info["cli.tune_eta"]), default=0)
    iters = total_of(relax, "iters")
    m[f"{relax}.iters"] = iters
    m[f"{relax}.s_per_iter"] = self_s[relax] / iters if iters else 0.0
    m[f"{relax}.best_iter_ratio"] = (
        float(np.mean([i["best_iter"] / i["iters"] for i in info[relax]])) if iters else 0.0)
    m[f"{relax}.box_violations"] = total_of(relax, "box_violations")
    m["fisher.shifted_fishers.stack_mb"] = max(
        (i["stack_mb"] for i in info["fisher.shifted_fishers"]), default=0.0)
    m["fisher.whiten_factors.identity_residual_max"] = max(
        (i["identity_residual"] for i in info["fisher.whiten_factors"]), default=0.0)
    m["synth.dilation_for_fir.pool_hessian_calls"] = sum(
        1 for s in spans if s["name"] == "fisher.pool_hessian"
        and by_id[s["parent"]]["name"] == "synth.dilation_for_fir")
    m["model.fit_erm.newton_iters"] = total_of("model.fit_erm", "newton_iters")
    m["model.fit_erm.unconverged"] = total_of("model.fit_erm", "unconverged")
    m["synth.mc_excess_risk.points"] = total_of("synth.mc_excess_risk", "points")
    return m, dict(outer_s)


def kernel_counts(spans):
    """Operation counts and bytes of the two hot kernels, computed from the
    sizes the traced calls saw (not measured)."""
    out = {}
    sb = next((s["info"] for s in spans if s["name"] == "sparsify.select_batch"), None)
    if sb:
        m, d, k = sb["m"], sb["d_tilde"], sb["k"]
        out["sparsify.select_batch per step"] = {
            "m": m, "d_tilde": d, "k": k,
            # _scores: two three-operand einsums, one multiply-multiply-add
            # per (i, a, b, k, l) term.
            "scores_flop_as_written": 6 * m * d * d * k * k,
            # The same scores as Y = B^(1/2) P, P^T Y and Y^T Y.
            "scores_flop_matmul_form": 4 * m * d * d * k + 4 * m * d * k * k,
            # eigh, inverse root, B = B^(1/2)^2 and eigvalsh on d_tilde x d_tilde.
            "dense_flop_approx": 27 * d**3,
            "bytes": 2 * m * d * k * 8 + 2 * d * d * 8,
        }
    rx = next((s["info"] for s in spans if s["name"] == "relax.relax_solve"), None)
    if rx:
        m, d = rx["m"], rx["d_tilde"]
        out["relax.relax_solve per iteration"] = {
            "m": m, "d_tilde": d,
            # aggregate and gradient contractions over the (m, d, d) stack,
            # Cholesky factor and two d-column solves.
            "flop": 4 * m * d * d + (13 * d**3) // 3,
            "bytes": 2 * m * d * d * 8,
        }
    return out
