"""The benchmark's four workloads: inputs made from a seed, one run through
the public API, and the checks on that run's output.

Each workload is one closed-loop request: the whole ``firal run`` (or
``firal sweep``) a user would start, returning its CSV bytes, the wall
time of each round, and the list of checks that failed.  Why each
workload exists, and which layer it stresses, is in ``README.md``.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from firal import cli
from firal.sparsify import AuditReport


@dataclass
class Outcome:
    """What one workload run produced."""

    csv: bytes
    round_s: list          # wall time of each round (per target for the sweep)
    problems: list         # descriptions of failed output checks


@dataclass(frozen=True)
class Workload:
    name: str
    # Typical seconds per run on a shared two-core machine.  A process
    # makes ``seconds // nominal_s`` runs (at least one), so the count never
    # depends on the times it is measuring.
    nominal_s: float
    expected_layers: tuple  # traced functions every run of this workload calls
    run: Callable[[int, Path], Outcome]  # (seed, output directory) -> Outcome


def al_config(name, seed):
    """The `RunConfig` of an active-learning workload for a seed."""
    if name == "al_tuned_S":
        return cli.RunConfig(seed=seed)
    if name == "al_wide_M":
        d_tilde = 16 * (4 - 1)
        return cli.RunConfig(seed=seed, classes=4, dim=16, budget=6, rounds=3,
                             eta=8.0 * math.sqrt(d_tilde))
    if name == "greedy_S":
        return cli.RunConfig(seed=seed, selector="greedy_fb")
    raise KeyError(name)


def check_al(config, records):
    """Output checks for one active-learning run; returns the failures."""
    problems = []
    round_budget = config.budget // config.rounds
    if len(records) != config.rounds + 1:
        return [f"{len(records)} records for {config.rounds} rounds"]
    labeled = set()
    for rec in records[1:]:
        picks = rec.selected
        if len(picks) != round_budget:
            problems.append(f"round {rec.round}: {len(picks)} picks, budget {round_budget}")
        if len(set(picks)) != len(picks) or labeled & set(picks):
            problems.append(f"round {rec.round}: a point was picked twice")
        if any(not 0 <= i < config.pool_size for i in picks):
            problems.append(f"round {rec.round}: pick outside the pool")
        labeled |= set(picks)
        if rec.n_labeled != records[0].n_labeled + rec.round * round_budget:
            problems.append(f"round {rec.round}: n_labeled {rec.n_labeled}")
        if config.selector == "firal":
            # The library's own guarantee rule, applied to the worst
            # margins the loop records for the round.
            trace = None if math.isnan(rec.margin_trace) else np.array([rec.margin_trace])
            if not AuditReport(np.array([rec.margin_min_eig]), trace).holds():
                problems.append(f"round {rec.round}: regret audit fails")
    if len(labeled) != config.budget:
        problems.append(f"{len(labeled)} distinct picks, budget {config.budget}")
    for rec in records:
        if not (0.0 <= rec.accuracy <= 1.0 and math.isfinite(rec.excess_risk)):
            problems.append(f"round {rec.round}: accuracy or excess risk invalid")
    return problems


def _run_al(name):
    def run(seed, out_dir):
        config = al_config(name, seed)
        records = cli.active_learning_loop(config)
        path = out_dir / f"{name}_seed{seed}.csv"
        cli.emit_results(records, str(path))
        return Outcome(path.read_bytes(), [r.wall_time for r in records[1:]],
                       check_al(config, records))
    return run


SWEEP_NUMBERS = ("target_fir", "scale_param", "realized_fir", "sigma",
                 "excess_risk", "risk_stderr")


def check_sweep(seed, text):
    """Output checks for one sweep, read against the CSV's own header;
    returns the failures and the number of targets swept."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["sweep CSV has no rows"], 0
    problems = []
    try:
        for row in rows:
            if (None in row or None in row.values() or row["mode"] != "dilation"
                    or not all(math.isfinite(float(row[k])) for k in SWEEP_NUMBERS)
                    or float(row["realized_fir"]) <= 0):
                problems.append(f"invalid sweep row {row}")
        targets = {row["target_fir"] for row in rows}
        seeds = sorted({int(row["seed"]) for row in rows})
    except (KeyError, TypeError, ValueError) as exc:
        return [f"sweep CSV unreadable: {exc!r}"], 0
    if seeds != list(range(seed, seed + len(seeds))):
        problems.append(f"sweep seeds {seeds} do not run on from {seed}")
    if len(rows) != len(targets) * len(seeds):
        problems.append(f"{len(rows)} sweep rows for {len(targets)} targets "
                        f"x {len(seeds)} seeds")
    return problems, len(targets)


def _run_sweep(seed, out_dir):
    """`firal sweep` defaults; its round time is the run's time per target."""
    path = out_dir / f"sweep_dilation_seed{seed}.csv"
    t0 = time.perf_counter()
    code = cli.main(["sweep", "--seed", str(seed), "--out", str(path)])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"firal sweep exited {code}")
    text = path.read_bytes()
    problems, n_targets = check_sweep(seed, text.decode())
    return Outcome(text, [elapsed / n_targets] if n_targets else [], problems)


_AL_LAYERS = ("cli.active_learning_loop", "relax.relax_solve", "sparsify.select_batch",
              "fisher.shifted_fishers", "fisher.whiten_factors", "fisher.pool_hessian",
              "model.fit_erm", "synth.mc_excess_risk")

WORKLOADS = {
    w.name: w for w in (
        Workload("al_tuned_S", 16.0, _AL_LAYERS + ("cli.tune_eta",), _run_al("al_tuned_S")),
        Workload("al_wide_M", 14.0, _AL_LAYERS, _run_al("al_wide_M")),
        Workload("greedy_S", 13.0,
                 ("cli.active_learning_loop", "baselines.select_greedy_fb",
                  "fisher.pool_hessian", "model.fit_erm", "synth.mc_excess_risk"),
                 _run_al("greedy_S")),
        Workload("sweep_dilation", 11.0,
                 ("synth.dilation_for_fir", "fisher.pool_hessian", "model.fit_erm",
                  "synth.mc_excess_risk"),
                 _run_sweep),
    )
}
