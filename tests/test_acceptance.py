"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Criteria pin their tolerances here; nothing is deferred.

The heavier criteria reuse one dilation sweep through a module-scoped
fixture, mirroring how the numbers would be produced operationally.
"""

import itertools

import numpy as np
import pytest

from firal.bounds import nine_fifths_envelope
from firal.cli import RunConfig, active_learning_loop, main
from firal.embed import normalized_laplacian, knn_graph, spectral_embed
from firal.fisher import fir
from firal.model import KronFishers
from firal.relax import relax_solve
from firal.sparsify import ftrl_action, select_batch
from firal.synth import gaussian_design, risk_ratio_sweep, sample_pool

from oracle import (
    f_objective,
    loss_gradient,
    nll_loss,
    pipeline_factors,
    point_fisher,
    predict_proba,
    score_candidate,
)


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} {detail}", flush=True)
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _spd(rng, n, jitter=0.3):
    R = rng.normal(size=(n, n))
    return R @ R.T + jitter * np.eye(n)


@pytest.fixture(scope="module")
def dilation_sweep():
    """Shared dilation sweep: d=8, c=2, n=1600, 5 ratio settings, 10 seeds.

    Targets span [0.2, 10] times d(c-1); settings below the dilation
    family's achievable floor are clamped to it, and every assertion uses
    the realized ratio.
    """
    d_tilde = 8
    targets = np.geomspace(0.2 * d_tilde, 10 * d_tilde, 5)
    return risk_ratio_sweep(2, 8, targets, 1600, seeds=range(10),
                            mode="dilation")


class TestCriterion1Derivatives:
    def test_gradient_and_fisher_match_finite_differences(self):
        rng = np.random.default_rng(11)
        worst_g, worst_h = 0.0, 0.0
        for trial in range(100):
            c = int(rng.choice([2, 3, 5]))
            d = int(rng.choice([1, 2, 8]))
            x = rng.normal(size=d)
            theta = rng.normal(size=(c - 1, d))
            y = int(rng.integers(1, c + 1))

            g = loss_gradient(x, y, theta)
            h = 1e-5
            fd = np.zeros_like(theta)
            for i in range(c - 1):
                for j in range(d):
                    tp, tm = theta.copy(), theta.copy()
                    tp[i, j] += h
                    tm[i, j] -= h
                    fd[i, j] = (nll_loss(x, y, tp) - nll_loss(x, y, tm)) / (2 * h)
            scale_g = max(np.abs(fd).max(), 1e-12)
            worst_g = max(worst_g, np.abs(g - fd).max() / scale_g)

            # Fisher against central differences of the loss gradient
            # (itself verified just above), column by column.
            F = point_fisher(x, theta)
            dim = (c - 1) * d
            fdh = np.zeros((dim, dim))
            v0 = theta.ravel()
            for a in range(dim):
                e = np.zeros(dim)
                e[a] = h
                gp = loss_gradient(x, y, (v0 + e).reshape(c - 1, d)).ravel()
                gm = loss_gradient(x, y, (v0 - e).reshape(c - 1, d)).ravel()
                fdh[:, a] = (gp - gm) / (2 * h)
            scale_h = max(np.abs(fdh).max(), 1e-12)
            worst_h = max(worst_h, np.abs(F - fdh).max() / scale_h)

        _report(1, "derivative correctness",
                worst_g < 1e-6 and worst_h < 1e-5,
                f"worst gradient rel err {worst_g:.2e}, hessian {worst_h:.2e}")


class TestCriterion2FisherIdentities:
    def test_identity_and_zero_mean_by_enumeration(self):
        rng = np.random.default_rng(22)
        worst_id, worst_mean = 0.0, 0.0
        for trial in range(100):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=d)
            theta = rng.normal(size=(c - 1, d))
            p = predict_proba(x, theta)
            dim = (c - 1) * d
            outer = np.zeros((dim, dim))
            mean = np.zeros((c - 1, d))
            for y in range(1, c + 1):
                g = loss_gradient(x, y, theta)
                outer += p[y - 1] * np.outer(g.ravel(), g.ravel())
                mean += p[y - 1] * g
            worst_id = max(worst_id, np.abs(outer - point_fisher(x, theta)).max())
            worst_mean = max(worst_mean, np.abs(mean).max())
        _report(2, "fisher identity / zero-mean gradient",
                worst_id <= 1e-10 and worst_mean <= 1e-10,
                f"identity {worst_id:.2e}, mean {worst_mean:.2e}")


class TestCriterion3ObjectiveLaws:
    def test_reciprocal_linearity_monotonicity_convexity(self):
        rng = np.random.default_rng(33)
        H = _spd(rng, 4)
        Hp = _spd(rng, 4)
        base = f_objective(np.array([1.0]), H[None], Hp)
        recip_ok = all(
            abs(f_objective(np.array([t]), H[None], Hp) - base / t)
            <= 1e-10 * abs(base / t)
            for t in (0.25, 0.5, 2.0, 8.0, 64.0)
        )
        mono_ok = True
        for _ in range(100):
            A = _spd(rng, 4)
            R = rng.normal(size=(4, 3))
            B = A + R @ R.T
            mono_ok &= fir(A, Hp) >= fir(B, Hp) - 1e-10
        conv_ok = True
        for _ in range(100):
            A, B = _spd(rng, 4), _spd(rng, 4)
            lam = rng.random()
            lhs = fir(lam * A + (1 - lam) * B, Hp)
            rhs = lam * fir(A, Hp) + (1 - lam) * fir(B, Hp)
            conv_ok &= lhs <= rhs + 1e-10 * abs(rhs)
        _report(3, "objective laws", recip_ok and mono_ok and conv_ok,
                f"reciprocal={recip_ok} monotone={mono_ok} convex={conv_ok}")


class TestCriterion4RelaxationLowerBound:
    def test_relaxed_below_exhaustive(self):
        worst = -np.inf
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            m = int(rng.integers(4, 11))
            b = int(rng.integers(1, 4))
            dt = int(rng.integers(2, 5))
            fishers = np.stack([_spd(rng, dt) for _ in range(m)])
            Hp0 = _spd(rng, dt, jitter=0.5)
            f_star = min(
                f_objective(np.array(s, dtype=int), fishers, Hp0)
                for s in itertools.combinations(range(m), b)
            )
            kron = KronFishers(np.ones((m, 1)), fishers, np.zeros((dt, dt)))
            res = relax_solve(b, Hp0, kron)
            worst = max(worst, res.objective - f_star)
        _report(4, "relaxation lower bound", worst <= 1e-6,
                f"worst gap over 20 instances {worst:.3e}")


class TestCriterion5WoodburyEquivalence:
    def test_reduced_argmax_equals_dense_argmin(self):
        rng = np.random.default_rng(55)
        shapes = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4)]  # (c-1)d <= 12
        steps = 0
        all_match = True
        while steps < 50:
            c, d = shapes[int(rng.integers(len(shapes)))]
            factors, _, _, _ = pipeline_factors(
                int(rng.integers(10_000)), c, d, m=20, budget=4,
            )
            eta = float(rng.uniform(0.5, 20.0))
            cum = _spd(rng, factors.d_tilde, jitter=0.0) * rng.uniform(0.05, 1.0)
            A_inv_sqrt, _, _ = ftrl_action(cum, eta)
            B_sqrt = np.linalg.inv(A_inv_sqrt + eta * factors.shift_w)
            B = B_sqrt @ B_sqrt
            scores = [
                score_candidate(B_sqrt, B, factors.factors[i], eta)
                for i in range(20)
            ]
            dense = [
                np.trace(np.linalg.inv(A_inv_sqrt + eta * (factors.shift_w + P @ P.T)))
                for P in factors.factors
            ]
            all_match &= int(np.argmax(scores)) == int(np.argmin(dense))
            steps += 1
        _report(5, "woodbury equivalence", all_match, f"{steps} steps compared")


class TestCriterion6RegretAudits:
    def test_bounds_hold_at_every_step(self):
        worst1, worst2 = np.inf, np.inf
        for d_tilde, (c, d) in ((2, (2, 2)), (4, (2, 4))):
            factors, _, _, _ = pipeline_factors(
                600 + d_tilde, c, d, m=60, budget=128,
            )
            eta = 8.0 * np.sqrt(d_tilde)
            [(_, report)] = select_batch(128, [eta], factors, mask_selected=False)
            worst1 = min(worst1, report.worst_min_eig)
            worst2 = min(worst2, report.worst_trace)
        _report(6, "regret audits", worst1 >= -1e-8 and worst2 >= -1e-8,
                f"worst margins {worst1:.3e} / {worst2:.3e}")


class TestCriterion7NearOptimality:
    def test_factor_two_of_relaxed_optimum(self):
        # epsilon = 1: budget 96 exceeds 32*2 + 16*sqrt(2), rate 8*sqrt(2).
        factors, fishers, Hp0, relaxed = pipeline_factors(
            77, c=2, d=2, m=50, budget=96,
        )
        eta = 8.0 * np.sqrt(2.0)
        [(picks, _)] = select_batch(96, [eta], factors, mask_selected=False)
        f_picked = f_objective(picks, fishers, Hp0)
        _report(7, "near-optimality", f_picked <= 2.0 * relaxed.objective + 1e-9,
                f"f(picked)={f_picked:.6g} vs 2 f(relaxed)={2 * relaxed.objective:.6g}")


class TestCriterion8RiskSandwich:
    def test_mean_risk_inside_envelope(self, dilation_sweep):
        by_setting = {}
        for p in dilation_sweep:
            by_setting.setdefault(p.realized_fir, []).append(p.excess_risk)
        ok = True
        details = []
        for realized, risks in sorted(by_setting.items()):
            mean_risk = float(np.mean(risks))
            upper = 1.2 * nine_fifths_envelope(realized, 1600)
            lower = 0.05 * realized / 1600
            ok &= lower <= mean_risk <= upper
            details.append(f"ratio {realized:.2f}: {mean_risk:.4g} in "
                           f"[{lower:.3g}, {upper:.3g}]")
        _report(8, "excess-risk sandwich", ok, "; ".join(details))


class TestCriterion9RiskScaling:
    def test_log_log_slope_near_one(self, dilation_sweep):
        by_setting = {}
        for p in dilation_sweep:
            by_setting.setdefault(p.realized_fir, []).append(p.excess_risk)
        x = np.log([k for k in sorted(by_setting)])
        y = np.log([np.mean(by_setting[k]) for k in sorted(by_setting)])
        slope = np.polyfit(x, y, 1)[0]
        _report(9, "risk-versus-ratio scaling", abs(slope - 1.0) <= 0.25,
                f"log-log slope {slope:.3f}")


class TestCriterion10SelectorComparison:
    def test_firal_not_worse_than_random(self):
        finals = {}
        for selector in ("firal", "random"):
            accs = []
            for seed in range(10):
                cfg = RunConfig(
                    seed=seed, selector=selector, budget=30, rounds=3,
                    classes=3, dim=8, pool_size=3000, risk_points=1000,
                )
                accs.append(active_learning_loop(cfg)[-1].accuracy)
            finals[selector] = np.array(accs)
        rand_se = finals["random"].std(ddof=1) / np.sqrt(10)
        lhs = finals["firal"].mean()
        rhs = finals["random"].mean() - rand_se
        _report(10, "selector comparison", lhs >= rhs,
                f"firal mean {lhs:.4f} vs random mean - se {rhs:.4f}")


class TestCriterion11SpectralEmbedding:
    def test_cluster_instance(self):
        rng = np.random.default_rng(111)
        X = np.vstack([
            rng.normal(size=(15, 2)),
            rng.normal(size=(15, 2)) + np.array([60.0, 0.0]),
        ])
        emb = spectral_embed(X, k=3, d_out=2)
        spectrum = np.linalg.eigvalsh(normalized_laplacian(knn_graph(X, 3)))
        vals = spectrum[:2]
        two_zero = vals[0] < 1e-8 and vals[1] < 1e-8
        bounded = spectrum[0] >= -1e-10 and spectrum[-1] <= 2.0 + 1e-10
        w = emb[:15].mean(axis=0) - emb[15:].mean(axis=0)
        separable = (emb[:15] @ w).min() > (emb[15:] @ w).max()
        _report(11, "spectral embedding", two_zero and bounded and separable,
                f"low eigenvalues {vals[:2]}, spectrum max {spectrum[-1]:.6f}")


class TestCriterion12Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        run_args = ["run", "--seed", "9", "--selector", "firal", "--budget", "6",
                    "--rounds", "2", "--pool-size", "60", "--classes", "2",
                    "--dim", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(run_args + ["--out", str(a)]) == 0
        assert main(run_args + ["--out", str(b)]) == 0
        run_same = a.read_bytes() == b.read_bytes()

        sweep_args = ["sweep", "--mode", "translation", "--classes", "2",
                      "--dim", "3", "--n", "200", "--targets", "4.5",
                      "--seeds", "2", "--n-mc", "4000",
                      "--risk-points", "2000"]
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        assert main(sweep_args + ["--out", str(c)]) == 0
        assert main(sweep_args + ["--out", str(d)]) == 0
        sweep_same = c.read_bytes() == d.read_bytes()
        _report(12, "determinism", run_same and sweep_same,
                f"run identical={run_same}, sweep identical={sweep_same}")
