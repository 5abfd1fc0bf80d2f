"""Experiment harness: run configuration, the multi-round active-learning
loop, result persistence, and the command line front end.

Subcommands: ``run`` (active learning), ``sweep`` (risk-versus-ratio
sweep), ``embed`` (spectral preprocessing), ``audit`` (repeats-allowed
selection guarantee checks).  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import baselines, data, embed, synth
from .fisher import fir, pool_hessian, sigma_max
from .model import accuracy, class_probabilities, fit_erm
# tune_eta is bound here for perfbench, whose tracer finds it as firal.cli.tune_eta.
from .round import round_fishers, select_firal, tune_eta  # noqa: F401

SELECTORS = ("firal", "random", "kmeans", "entropy", "var_ratios", "greedy_fb")


@dataclass
class RunConfig:
    """Flat configuration for one active-learning run."""

    seed: int = 0
    data: str = "synthetic"        # "synthetic" or a dataset CSV path
    selector: str = "firal"
    budget: int = 30               # total new labels over all rounds
    rounds: int = 3
    init_per_class: int = 1
    family: str = "gaussian"
    classes: int = 3
    dim: int = 8
    variance: float = 100.0
    dof: float = 5.0
    pool_size: int = 3000
    eta: float | None = None       # fixed FTRL rate; None means grid search
    theory_mode: bool = False
    ridge: float = 1e-6
    risk_points: int = 50_000
    out: str | None = None

    def validate(self):
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be one of {SELECTORS}")
        if self.rounds < 0 or self.budget < 0:
            raise ValueError("budget and rounds must be nonnegative")
        if self.rounds > 0:
            if self.budget <= 0:
                raise ValueError("budget must be positive when rounds > 0")
            if self.budget % self.rounds != 0:
                raise ValueError("budget must be divisible by rounds")
        if self.init_per_class < 1:
            raise ValueError("init_per_class must be positive")
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if not 0 <= self.ridge < np.inf:
            raise ValueError("ridge must be nonnegative and finite")
        if self.selector == "greedy_fb" and self.ridge == 0:
            raise ValueError("greedy_fb needs ridge > 0 to start from a nonsingular design")
        if self.risk_points < 2:
            raise ValueError("risk_points must be at least 2 for a standard error")
        if self.data == "synthetic":
            if self.classes < 2 or self.dim < 2:
                raise ValueError("synthetic runs need classes >= 2, dim >= 2")
            if self.family not in synth.FAMILIES:
                raise ValueError(f"family must be one of {synth.FAMILIES}, "
                                 f"got {self.family!r}")
            if not 0 < self.variance < np.inf:
                raise ValueError(f"variance must be positive and finite, got {self.variance!r}")
            if self.family == "student_t" and not 2 < self.dof < np.inf:
                raise ValueError(f"dof must be finite and above 2 for student_t, "
                                 f"got {self.dof!r}")
            self.check_room(self.init_per_class * self.classes, self.pool_size)
        return self

    def check_room(self, n_init, pool_size):
        """Reject a pool without room for the initial labels and, when any
        round selects, the budget; ``greedy_fb`` needs twice the round
        budget unlabeled in its last round."""
        need = n_init
        if self.rounds:
            need += self.budget + (self.budget // self.rounds
                                   if self.selector == "greedy_fb" else 0)
        if need > pool_size:
            raise ValueError(f"{self.selector} needs a pool of {need} points, got {pool_size}")


@dataclass
class ExperimentRecord:
    """One row of the run output (round-level summary).

    ``wall_time`` is observability only and is never serialized; the
    emitted CSV must be byte-identical across same-seed reruns.
    """

    round: int
    n_labeled: int
    fir: float
    sigma: float
    excess_risk: float
    risk_stderr: float
    accuracy: float
    eta: float
    margin_min_eig: float
    margin_trace: float
    selected: tuple = field(default_factory=tuple)
    wall_time: float = 0.0


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.name != "wall_time")


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ";".join(str(int(v)) for v in value)
    return f"{float(value):.17g}"


def _write_csv(fh, records, columns):
    """Write dataclass records as CSV, one column per named attribute."""
    fh.write(",".join(columns) + "\n")
    for rec in records:
        fh.write(",".join(_fmt(getattr(rec, col)) for col in columns) + "\n")


def emit_results(records, path):
    """Write records as CSV with the documented fixed column order."""
    with open(path, "w") as fh:
        _write_csv(fh, records, CSV_COLUMNS)


def _stratified_init(y_hidden, n_classes, per_class, rng):
    """One (or more) indices per class, scanning a seeded permutation."""
    perm = rng.permutation(len(y_hidden))
    picks = []
    for cls in range(1, n_classes + 1):
        members = perm[y_hidden[perm] == cls]
        if len(members) < per_class:
            raise ValueError(f"class {cls} has fewer than {per_class} pool points")
        picks.extend(members[:per_class].tolist())
    return np.array(sorted(picks), dtype=int)


def _pool_accuracy(X, theta, theta_star, y_true):
    if theta_star is None:
        return accuracy(X, y_true, theta)
    # Expected accuracy under the true conditional label law.
    pred = np.argmax(class_probabilities(X, theta), axis=1)
    P_star = class_probabilities(X, theta_star)
    return float(np.mean(P_star[np.arange(len(X)), pred]))


def _feature_span(X):
    """``X`` in coordinates of its numerical row space, from one SVD, when
    its rank is below ``d``; a full-rank ``X`` is returned as it is.

    Zero, duplicated or jointly constant feature columns would otherwise
    leave every Fisher matrix singular along the same directions.
    """
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(X.shape) * np.finfo(float).eps))
    if rank == X.shape[1]:
        return X
    if rank == 0:
        raise ValueError("every feature column is zero")
    print(f"note: features have numerical rank {rank}; "
          f"dropped {X.shape[1] - rank} of {X.shape[1]} dimensions", file=sys.stderr)
    return X @ Vt[:rank].T


def _spectral_diagnostics(Hp, X_labeled, theta):
    Hq = pool_hessian(X_labeled, theta)
    try:
        return fir(Hq, Hp), sigma_max(Hq, Hp)
    except np.linalg.LinAlgError:
        return float("inf"), float("inf")


def _select(config, X_pool, labeled_idx, theta, Hp, round_budget, select_ss):
    """Run the configured selector; returns pool indices and, for
    ``firal`` only, its :class:`firal.round.Diagnostics`.  ``Hp`` is the
    pool Hessian at ``theta``."""
    unlabeled = np.setdiff1d(np.arange(len(X_pool)), labeled_idx)
    Xu = X_pool[unlabeled]
    diag = None
    if config.selector in ("firal", "greedy_fb"):
        fishers = round_fishers(X_pool, labeled_idx, unlabeled, theta, round_budget,
                                ridge=config.ridge)
    if config.selector == "firal":
        local, diag = select_firal(round_budget, Hp, fishers, eta=config.eta,
                                   repeats=config.theory_mode)
    elif config.selector == "random":
        local = baselines.select_random(Xu, round_budget, select_ss)
    elif config.selector == "kmeans":
        local = baselines.select_kmeans(Xu, round_budget, select_ss)
    elif config.selector == "entropy":
        local = baselines.select_entropy(Xu, theta, round_budget)
    elif config.selector == "var_ratios":
        local = baselines.select_var_ratios(Xu, theta, round_budget)
    else:  # greedy_fb
        local = baselines.select_greedy_fb(round_budget, Hp, fishers)
    return unlabeled[np.asarray(local, dtype=int)], diag


def _draw_problem(config: RunConfig):
    """The pool of a run, its hidden labels, the truth (None for a dataset),
    the initial labeled indices, and the round and risk seed streams, all
    from ``config.seed``."""
    root = np.random.SeedSequence(config.seed)
    pool_ss, theta_ss, init_ss, rounds_ss, risk_ss = root.spawn(5)
    if config.data == "synthetic":
        theta_star = synth.make_theta_star(config.classes, config.dim, theta_ss)
        X_pool = synth.sample_pool(_family_spec(config), config.pool_size, pool_ss)
        hidden = synth.sample_labels(X_pool, theta_star, init_ss)
    else:
        X_pool, hidden = data.load_dataset(config.data)
        if hidden is None:
            raise ValueError("active learning on CSV data needs a label column")
        X_pool = _feature_span(X_pool)
        theta_star = None
    n_classes = config.classes if theta_star is not None else int(hidden.max())
    init_rng = np.random.default_rng(init_ss.spawn(1)[0])
    labeled_idx = _stratified_init(hidden, n_classes, config.init_per_class, init_rng)
    return X_pool, hidden, theta_star, labeled_idx, rounds_ss, risk_ss


def active_learning_loop(config: RunConfig):
    """Run the configured experiment; returns one record per round.

    Round 0 is the fit on the initial labels.  Each later round selects
    with the previous round's parameters, queries the oracle, refits, and
    records diagnostics.  Deterministic for a fixed seed.
    """
    config.validate()
    X_pool, hidden, theta_star, labeled_idx, rounds_ss, risk_ss = _draw_problem(config)
    n_classes = int(hidden.max())  # every class has an initial label
    labeled_y = hidden[labeled_idx]
    config.check_room(len(labeled_idx), len(X_pool))
    if theta_star is not None:
        spec_p = _family_spec(config)
        # Spawned before the selection streams: the spawn order fixes both.
        label_streams = rounds_ss.spawn(config.rounds + 1)

    risk_streams = risk_ss.spawn(config.rounds + 1)
    select_streams = rounds_ss.spawn(config.rounds + 1)
    round_budget = config.budget // config.rounds if config.rounds else 0
    records = []
    theta = Hp = None

    for rnd in range(config.rounds + 1):
        t0 = time.perf_counter()
        eta_used = margin1 = margin2 = float("nan")
        picked = ()

        if rnd > 0:
            try:
                picks, diag = _select(config, X_pool, labeled_idx, theta, Hp,
                                      round_budget, select_streams[rnd])
            except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
                raise type(exc)(
                    f"selector {config.selector!r} failed in round {rnd}: {exc}"
                ) from exc
            if diag is not None:
                eta_used, margin1 = diag.eta, diag.report.worst_min_eig
                if diag.report.worst_trace is not None:
                    margin2 = diag.report.worst_trace
            if theta_star is not None:
                new_y = synth.sample_labels(X_pool[picks], theta_star, label_streams[rnd])
            else:
                new_y = hidden[picks]
            labeled_idx = np.concatenate([labeled_idx, picks])
            labeled_y = np.concatenate([labeled_y, new_y])
            picked = tuple(int(i) for i in picks)

        result = fit_erm(X_pool[labeled_idx], labeled_y, n_classes,
                         ridge=config.ridge)
        theta = result.theta
        # The next round's selection reads this same pool Hessian.
        Hp = pool_hessian(X_pool, theta)

        fir_val, sigma_val = _spectral_diagnostics(Hp, X_pool[labeled_idx], theta)
        acc = _pool_accuracy(X_pool, theta, theta_star, hidden)
        if theta_star is not None:
            [(risk, risk_se)] = synth.mc_excess_risk(
                [theta], theta_star, spec_p, n_points=config.risk_points,
                seed=risk_streams[rnd],
            )
        else:
            risk, risk_se = float("nan"), float("nan")

        records.append(ExperimentRecord(
            round=rnd, n_labeled=len(labeled_idx), fir=fir_val, sigma=sigma_val,
            excess_risk=risk, risk_stderr=risk_se, accuracy=acc, eta=eta_used,
            margin_min_eig=margin1, margin_trace=margin2, selected=picked,
            wall_time=time.perf_counter() - t0,
        ))

    return records


def _family_spec(config: RunConfig):
    return synth.DesignSpec(
        config.family, np.zeros(config.dim),
        config.variance * np.eye(config.dim),
        dof=config.dof if config.family == "student_t" else None,
    )


def load_config(path):
    """Parse a flat ``key=value`` config file into a :class:`RunConfig`.
    A bad line is reported by its ``path:lineno`` and its key."""
    by_name = {f.name: f for f in fields(RunConfig)}
    kwargs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise ValueError(f"{where}: unknown config key {key!r}")
            try:
                kwargs[key] = _coerce(by_name[key], raw)
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
    return RunConfig(**kwargs)


BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _coerce(field_info, raw):
    """Parse ``raw`` as the field's annotated type (``none`` or empty is
    None where the type allows it)."""
    kind, text = field_info.type, str(raw)
    if kind.endswith(" | None"):
        if text.lower() in ("none", ""):
            return None
        kind = kind.removesuffix(" | None")
    if kind == "bool":
        if text.lower() not in BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return BOOL_WORDS[text.lower()]
    return {"int": int, "float": float}.get(kind, str)(text)


def _cmd_run(args):
    config = load_config(args.config) if args.config else RunConfig()
    # Every flag left unset is None, so the file's value or the default stays.
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    config = replace(config, **overrides).validate()

    records = active_learning_loop(config)
    if config.out:
        emit_results(records, config.out)
    for rec in records:
        print(f"round={rec.round} n_labeled={rec.n_labeled} "
              f"accuracy={rec.accuracy:.4f} fir={rec.fir:.6g} "
              f"excess_risk={rec.excess_risk:.6g}")
    return 0


def _cmd_sweep(args):
    if args.classes < 2 or args.dim < 2:
        raise ValueError("sweep needs --classes >= 2 and --dim >= 2")
    if args.n < 1 or args.n_targets < 1 or args.seeds < 1 or args.risk_points < 2:
        raise ValueError("sweep needs --n >= 1, --n-targets >= 1, --seeds >= 1 "
                         "and --risk-points >= 2")
    if args.n_mc < args.dim:
        # Fewer draws than dimensions leave the reference Fisher singular.
        raise ValueError("sweep needs --n-mc >= --dim")
    if args.targets:
        try:
            targets = [float(t) for t in args.targets.split(",")]
        except ValueError:
            raise ValueError(f"--targets must be comma-separated numbers, "
                             f"got {args.targets!r}") from None
        if not all(0 < t < np.inf for t in targets):
            raise ValueError(f"every --targets entry must be finite and > 0, "
                             f"got {args.targets!r}")
    else:
        d_tilde = args.dim * (args.classes - 1)
        lo = 0.2 * d_tilde if args.mode == "dilation" else float(d_tilde)
        targets = np.geomspace(lo, 10.0 * d_tilde, args.n_targets).tolist()
    points = synth.risk_ratio_sweep(
        args.classes, args.dim, targets, args.n,
        seeds=range(args.seed, args.seed + args.seeds),
        mode=args.mode, theta_seed=args.seed, risk_points=args.risk_points,
        n_mc=args.n_mc,
    )
    columns = tuple(f.name for f in fields(synth.SweepPoint))
    if args.out:
        with open(args.out, "w") as fh:
            _write_csv(fh, points, columns)
    else:
        _write_csv(sys.stdout, points, columns)
    return 0


def _cmd_embed(args):
    X, y = data.load_dataset(args.input)
    emb = embed.spectral_embed(X, args.neighbors, args.dim_out)
    data.save_dataset(args.out, emb, y)
    print(f"embedded {len(emb)} points into {args.dim_out} dimensions")
    return 0


def _cmd_audit(args):
    # Repeats are allowed in the audited mode, so the budget may exceed
    # the pool size; no RunConfig pool constraint applies here.
    if args.classes < 2 or args.dim < 2 or args.budget < 1:
        raise ValueError("audit needs classes >= 2, dim >= 2, budget >= 1")
    if args.eta is not None and not 0 < args.eta < np.inf:
        raise ValueError("audit needs a positive, finite --eta")
    if args.pool_size < 2 * args.classes:
        # The fit starts from two labeled points per class.
        raise ValueError(f"audit needs --pool-size >= 2 * --classes = "
                         f"{2 * args.classes}, got {args.pool_size}")
    config = RunConfig(seed=args.seed, classes=args.classes, dim=args.dim,
                       pool_size=args.pool_size, init_per_class=2)
    X, hidden, _, init_idx, _, _ = _draw_problem(config)
    theta0 = fit_erm(X[init_idx], hidden[init_idx], args.classes, ridge=config.ridge).theta

    fishers = round_fishers(X, init_idx, np.arange(len(X)), theta0, args.budget,
                            ridge=config.ridge)
    _, diag = select_firal(args.budget, pool_hessian(X, theta0), fishers,
                           eta=args.eta, repeats=True)
    print(f"eta={diag.eta:.6g} budget={args.budget} "
          f"d_tilde={args.dim * (args.classes - 1)}")
    print(f"worst_min_eig_margin={diag.report.worst_min_eig:.6e}")
    print(f"worst_trace_margin={diag.report.worst_trace:.6e}")
    print(f"worst_relax_gap={diag.relax_gap:.6e}")
    print("guarantees hold")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="firal",
        description="Information-ratio active learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an active-learning experiment")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--seed", type=int)
    run.add_argument("--selector", choices=SELECTORS)
    run.add_argument("--budget", type=int)
    run.add_argument("--rounds", type=int)
    run.add_argument("--out")
    run.add_argument("--eta", type=float)
    run.add_argument("--theory-mode", action="store_true", default=None,
                     dest="theory_mode")
    run.add_argument("--data")
    run.add_argument("--pool-size", type=int, dest="pool_size")
    run.add_argument("--classes", type=int)
    run.add_argument("--dim", type=int)
    run.add_argument("--ridge", type=float)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="risk-versus-information-ratio sweep")
    sweep.add_argument("--mode", choices=("dilation", "translation"),
                       default="dilation")
    sweep.add_argument("--classes", type=int, default=2)
    sweep.add_argument("--dim", type=int, default=8)
    sweep.add_argument("--n", type=int, default=1600)
    sweep.add_argument("--targets", help="comma-separated ratio targets")
    sweep.add_argument("--n-targets", type=int, default=5, dest="n_targets")
    sweep.add_argument("--seeds", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--risk-points", type=int, default=50_000,
                       dest="risk_points")
    sweep.add_argument("--n-mc", type=int, default=100_000, dest="n_mc")
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    emb = sub.add_parser("embed", help="spectral embedding preprocessor")
    emb.add_argument("--input", required=True)
    emb.add_argument("--out", required=True)
    emb.add_argument("--neighbors", type=int, default=256)
    emb.add_argument("--dim-out", type=int, default=20, dest="dim_out")
    emb.set_defaults(func=_cmd_embed)

    audit = sub.add_parser("audit", help="repeats-allowed guarantee audit")
    audit.add_argument("--classes", type=int, default=2)
    audit.add_argument("--dim", type=int, default=2)
    audit.add_argument("--pool-size", type=int, default=40, dest="pool_size")
    audit.add_argument("--budget", type=int, default=96)
    audit.add_argument("--eta", type=float)
    audit.add_argument("--seed", type=int, default=0)
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
