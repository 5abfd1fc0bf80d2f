"""Tests of one FIRAL round: its input, rate tuning, the composed
relaxation, whitening and rounding, and both search selectors over
randomly drawn rounds that a fixed config never reaches."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from firal import round as firal_round
from firal import round_fishers, select_firal
from firal.baselines import select_greedy_fb
from firal.fisher import pool_hessian, whiten_factors
from firal.relax import GAP_TOL, relax_solve
from firal.round import eta_grid, tune_eta
from firal.sparsify import AuditReport, select_batch

from oracle import best_subset, pipeline_factors, point_fisher, subset_values

RIDGE = 1e-6


class TestTuneEta:
    def test_singleton_grid(self):
        factors = pipeline_factors(0, m=10)[0]
        assert tune_eta([2.5], factors, 3)[0] == 2.5

    def test_duplicates_keep_first(self):
        factors = pipeline_factors(0, m=10)[0]
        assert tune_eta([2.5, 2.5, 2.5], factors, 3)[0] == 2.5

    def test_winner_maximizes_min_eigenvalue(self):
        factors = pipeline_factors(1, m=10)[0]
        grid = eta_grid(factors.d_tilde)
        best, _, _ = tune_eta(grid, factors, 4)
        [(_, best_report)] = select_batch(4, [best], factors)
        for e in grid:
            [(_, report)] = select_batch(4, [e], factors)
            assert best_report.min_eig >= report.min_eig - 1e-12

    def test_returned_selection_equals_fresh_run(self):
        factors = pipeline_factors(2, m=10)[0]
        eta, picks, report = tune_eta(eta_grid(factors.d_tilde), factors, 4)
        [(fresh_picks, fresh)] = select_batch(4, [eta], factors)
        np.testing.assert_array_equal(picks, fresh_picks)
        assert report.min_eig == fresh.min_eig
        np.testing.assert_array_equal(report.margin_min_eig, fresh.margin_min_eig)
        assert report.margin_trace is None and fresh.margin_trace is None

    @pytest.mark.parametrize("rel, winner", [(1e-15, 1.0), (1e-9, 2.0)])
    def test_near_tie_keeps_earlier_rate(self, monkeypatch, rel, winner):
        v = 0.37
        scores = {1.0: v, 2.0: v * (1 + rel)}

        def scored(budget, etas, factors):
            return [(np.array([int(e)]), SimpleNamespace(min_eig=scores[e])) for e in etas]

        monkeypatch.setattr(firal_round, "select_batch", scored)
        eta, picks, _ = tune_eta([1.0, 2.0], None, 1)
        assert eta == winner
        assert picks.tolist() == [int(winner)]

    def test_same_set_in_another_order_is_not_rescored(self, monkeypatch):
        # The later rate picks the earlier rate's set in another order; its
        # higher score is rounding, so the earlier rate is kept.
        v = 0.37
        runs = {1.0: ([0, 1], v), 2.0: ([1, 0], v * (1 + 1e-9))}

        def scored(budget, etas, factors):
            return [(np.array(runs[e][0]), SimpleNamespace(min_eig=runs[e][1])) for e in etas]

        monkeypatch.setattr(firal_round, "select_batch", scored)
        eta, picks, report = tune_eta([1.0, 2.0], None, 2)
        assert eta == 1.0
        assert picks.tolist() == [0, 1]
        assert report.min_eig == v


def inject_report(monkeypatch, name, report):
    """Make ``firal.round.<name>`` (``select_batch`` or ``tune_eta``) keep its
    picks but return ``report`` as their regret audit, at every rate."""
    real = getattr(firal_round, name)

    def violated(*args, **kwargs):
        if name == "select_batch":
            return [(picks, report) for picks, _ in real(*args, **kwargs)]
        *picks, _ = real(*args, **kwargs)
        return (*picks, report)

    monkeypatch.setattr(firal_round, name, violated)


def firal_problem(seed=4, m=30, c=3, d=2):
    """A small pool, parameters, and a labeled set given out of order."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d)) * 2.0
    theta = rng.normal(size=(c - 1, d))
    labeled = np.array([17, 3, 25, 9, 0])
    return X, theta, labeled


def hand_chain(X, labeled, candidates, theta, budget, eta, repeats):
    """The FIRAL round composed by hand from the layer functions."""
    fishers = round_fishers(X, labeled, candidates, theta, budget, ridge=RIDGE)
    relaxed = relax_solve(budget, pool_hessian(X, theta), fishers)
    factors = whiten_factors(relaxed.z, fishers)
    if eta is None and not repeats:
        eta, local, report = tune_eta(eta_grid(factors.d_tilde), factors, budget)
    else:
        eta = 8.0 * np.sqrt(factors.d_tilde) if eta is None else eta
        [(local, report)] = select_batch(budget, [eta], factors, mask_selected=not repeats)
    return candidates[local], eta, report


class TestSelectFiral:
    @pytest.mark.parametrize("case", ["tuned_masked", "fixed_eta_repeats", "whole_pool"])
    def test_equals_hand_composed_chain(self, case):
        X, theta, labeled = firal_problem()
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        candidates, eta, repeats, budget = {
            "tuned_masked": (unlabeled, None, False, 4),
            "fixed_eta_repeats": (unlabeled, 3.0, True, 6),
            "whole_pool": (np.arange(len(X)), None, True, 8),
        }[case]
        fishers = round_fishers(X, labeled, candidates, theta, budget, ridge=RIDGE)
        local, diag = select_firal(budget, pool_hessian(X, theta), fishers,
                                   eta=eta, repeats=repeats)
        picks = candidates[local]
        want_picks, want_eta, want = hand_chain(X, labeled, candidates, theta,
                                                budget, eta, repeats)
        np.testing.assert_array_equal(picks, want_picks)
        assert diag.eta == want_eta
        np.testing.assert_array_equal(diag.report.margin_min_eig, want.margin_min_eig)
        if repeats:
            np.testing.assert_array_equal(diag.report.margin_trace, want.margin_trace)
        else:
            assert diag.report.margin_trace is None
            assert not set(picks.tolist()) & set(labeled.tolist())

    def test_labeled_order_does_not_matter(self):
        X, theta, labeled = firal_problem(seed=5)
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        Hp = pool_hessian(X, theta)
        picks, diag = select_firal(
            4, Hp, round_fishers(X, labeled, unlabeled, theta, 4, ridge=RIDGE))
        sorted_picks, sorted_diag = select_firal(
            4, Hp, round_fishers(X, np.sort(labeled), unlabeled, theta, 4, ridge=RIDGE))
        np.testing.assert_array_equal(picks, sorted_picks)
        assert diag.eta == sorted_diag.eta
        np.testing.assert_array_equal(diag.report.margin_min_eig,
                                      sorted_diag.report.margin_min_eig)

    def test_factors_computed_once_per_round(self, monkeypatch):
        # The relaxation and the whitening share one eigh of the W stack,
        # the (m, c-1, c-1) one; the rounding's per-rate stacks are others.
        X, theta, labeled = firal_problem(seed=6)
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        w_stack = (len(unlabeled), theta.shape[0], theta.shape[0])
        eigh, stacks = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            if np.shape(a) == w_stack:
                stacks.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        select_firal(4, pool_hessian(X, theta),
                     round_fishers(X, labeled, unlabeled, theta, 4, ridge=RIDGE))
        assert len(stacks) == 1

    @pytest.mark.parametrize("name, bad", [
        ("budget", lambda Hp: 5.5),
        ("budget", lambda Hp: 0),
        ("Hp", lambda Hp: Hp[:3, :3]),
        ("Hp", lambda Hp: Hp + np.triu(Hp, 1)),
        ("Hp", lambda Hp: np.where(np.eye(len(Hp)), np.nan, Hp)),
        ("Hp", lambda Hp: -Hp),
    ], ids=["budget-5.5", "budget-0", "Hp-3x3", "Hp-asymmetric", "Hp-nan", "Hp-negated"])
    def test_bad_input_names_its_argument(self, name, bad):
        X, theta, labeled = firal_problem()
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        Hp = pool_hessian(X, theta)
        args = {"budget": 4, "Hp": Hp, name: bad(Hp)}
        fishers = round_fishers(X, labeled, unlabeled, theta, 4, ridge=RIDGE)
        with pytest.raises(ValueError, match=rf"^{name} must"):
            select_firal(args["budget"], args["Hp"], fishers)

    @pytest.mark.parametrize("bad", [
        lambda Hp: Hp[:3, :3],
        lambda Hp: Hp + np.triu(Hp, 1),
        lambda Hp: np.full_like(Hp, np.nan),
        lambda Hp: -Hp,
    ], ids=["Hp-3x3", "Hp-asymmetric", "Hp-nan", "Hp-negated"])
    @pytest.mark.parametrize("select", [relax_solve, select_greedy_fb],
                             ids=["relax_solve", "greedy_fb"])
    def test_search_selectors_check_hp(self, select, bad):
        # Each search selector applies select_firal's Hp checks itself.
        X, theta, labeled = firal_problem()
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        fishers = round_fishers(X, labeled, unlabeled, theta, 4, ridge=RIDGE)
        with pytest.raises(ValueError, match=r"^Hp must"):
            select(4, bad(pool_hessian(X, theta)), fishers)

    def test_violated_guarantee_raises(self, monkeypatch):
        # A library call is stopped where the margins are computed.
        inject_report(monkeypatch, "select_batch",
                      AuditReport(np.array([0.5, -1.0]), np.array([2.0, -0.25])))
        X, theta, labeled = firal_problem()
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        with pytest.raises(FloatingPointError, match=r"regret guarantee violated: "
                           r"worst_min_eig_margin=-1\.000000e\+00 worst_trace_margin=-0\.25"):
            select_firal(4, pool_hessian(X, theta),
                         round_fishers(X, labeled, unlabeled, theta, 4, ridge=RIDGE),
                         repeats=True)


class TestRoundFishers:
    def test_empty_labeled_list_gives_zero_shift(self):
        X, theta, _ = firal_problem()
        candidates = np.arange(len(X))
        from_list = round_fishers(X, [], candidates, theta, 4, ridge=RIDGE)
        from_array = round_fishers(X, np.array([], dtype=int), candidates, theta, 4,
                                   ridge=RIDGE)
        for name in ("X", "W", "shift"):
            np.testing.assert_array_equal(getattr(from_list, name), getattr(from_array, name))
        assert not from_list.shift.any()

    def test_shift_carries_the_fit_ridge(self):
        # budget * shift is the labeled curvature of a fit with this ridge.
        X, theta, labeled = firal_problem()
        budget = 4
        candidates = np.arange(len(X))
        fishers = round_fishers(X, labeled, candidates, theta, budget, ridge=0.25)
        plain = round_fishers(X, labeled, candidates, theta, budget, ridge=0.0)
        np.testing.assert_array_equal(
            fishers.shift, plain.shift + len(labeled) * 0.25 / budget * np.eye(np.size(theta)))
        want = sum(point_fisher(X[j], theta) for j in labeled) / budget
        np.testing.assert_allclose(plain.shift, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name, value", [
        ("labeled", [1.7, 3.2]),
        ("labeled", np.array([True, False])),
        ("candidates", np.array([4.0, 5.0])),
        ("budget", 0),
        ("budget", 2.5),
        ("budget", 4.0),
        ("ridge", -1e-6),
        ("ridge", np.nan),
        ("ridge", np.inf),
        ("labeled", [-1]),
        ("candidates", np.array([0, 30])),
        ("labeled", [[0, 1]]),
        ("candidates", 3),
    ])
    def test_bad_input_names_its_argument(self, name, value):
        X, theta, labeled = firal_problem()
        args = {"labeled": labeled, "candidates": np.arange(len(X)), "budget": 4,
                "ridge": RIDGE, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must"):
            round_fishers(X, args["labeled"], args["candidates"], theta, args["budget"],
                          ridge=args["ridge"])


# What a round may raise on input it cannot select from; cli.main maps each
# to exit 2 or 3.
ROUND_ERRORS = (ValueError, np.linalg.LinAlgError, FloatingPointError)


def drawn_round(c, d, m, n, rows, scale, budget, ridge, seed):
    """``(budget, Hp, fishers)`` of a round built by :func:`round_fishers`:
    ``m`` candidates after ``n`` labeled points, with rows drawn at ``scale``
    and then left ``"random"`` or made partly ``"duplicate"``,
    ``"collinear"`` or all ``"equal"``, and ``Hp`` over all of them."""
    rng = np.random.default_rng(seed)
    X = scale * rng.normal(size=(n + m, d))
    if rows == "duplicate":
        into = rng.choice(n + m, size=(n + m) // 2, replace=False)
        X[into] = X[rng.integers(0, n + m, size=into.size)]
    elif rows == "collinear":
        X = rng.normal(size=(n + m, 1)) * X[:1]
    elif rows == "equal":
        X[:] = X[0]
    theta = rng.normal(size=(c - 1, d))
    fishers = round_fishers(X, np.arange(n), np.arange(n, n + m), theta, budget, ridge=ridge)
    return budget, pool_hessian(X, theta), fishers


@st.composite
def drawn_params(draw):
    """Keywords of :func:`drawn_round`: 2 to 10 classes, 1 to 6 dimensions,
    1 to 40 candidates after 0 to 4 labeled points, a budget up to one past
    the candidates, and a ridge of 0 or 1e-6."""
    m = draw(st.integers(1, 40))
    return dict(
        c=draw(st.integers(2, 10)), d=draw(st.integers(1, 6)), m=m, n=draw(st.integers(0, 4)),
        rows=draw(st.sampled_from(["random", "duplicate", "collinear", "equal"])),
        scale=draw(st.sampled_from([0.3, 3.0, 30.0])), budget=draw(st.integers(1, m + 1)),
        ridge=draw(st.sampled_from([0.0, 1e-6])), seed=draw(st.integers(0, 2**32 - 1)))


def check_firal(budget, m, masked, picks, diag):
    """Every check a FIRAL round's result must pass, NaN-free included."""
    report = diag.report
    assert masked == (report.margin_trace is None)
    margins = (report.margin_min_eig if masked
               else np.concatenate([report.margin_min_eig, report.margin_trace]))
    assert np.all(np.isfinite(margins)) and np.isfinite(report.min_eig)
    assert np.isfinite(diag.eta) and diag.relax_gap <= GAP_TOL and report.holds()
    assert len(picks) == budget and np.all((0 <= picks) & (picks < m))
    assert not masked or len(set(picks.tolist())) == budget


class TestExactOptimum:
    @pytest.mark.parametrize("d, m, budget, seed", [
        (2, 30, 4, 0), (3, 24, 6, 1), (4, 20, 5, 2), (2, 16, 3, 3), (3, 30, 3, 4), (4, 14, 6, 5),
        (2, 24, 5, 6), (3, 20, 4, 7),
    ])
    def test_certificate_and_selectors_against_best_subset(self, d, m, budget, seed):
        # The exact optimum over every budget-subset of a small drawn round
        # lies above the relaxation's certified lower bound, and neither
        # search selector's picks beat it.  A relative 1e-12 allows for the
        # relaxation's own summation order.
        budget, Hp, fishers = drawn_round(c=3, d=d, m=m, n=2, rows="random", scale=3.0,
                                          budget=budget, ridge=RIDGE, seed=seed)
        f_opt = best_subset(fishers, Hp, budget)
        relaxed = relax_solve(budget, Hp, fishers)
        assert f_opt >= (relaxed.objective - relaxed.gap) * (1 - 1e-12)
        firal_picks, _ = select_firal(budget, Hp, fishers)
        greedy_picks = select_greedy_fb(budget, Hp, fishers)
        f_picks = subset_values(fishers, Hp, np.sort([firal_picks, greedy_picks], axis=1))
        assert np.all(f_picks >= f_opt)


class TestDrawnRounds:
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    # Rounds singular at uniform weights over the whole pool, on which the
    # relaxation once doubled its first support forever; each raises.
    @example(dict(c=2, d=2, m=4, n=0, rows="random", scale=30.0, budget=4, ridge=0.0,
                  seed=1356))
    @example(dict(c=10, d=1, m=3, n=0, rows="equal", scale=30.0, budget=3, ridge=0.0,
                  seed=499))
    @example(dict(c=2, d=2, m=1, n=1, rows="duplicate", scale=3.0, budget=2, ridge=0.0,
                  seed=21221))
    @example(dict(c=3, d=2, m=39, n=2, rows="equal", scale=30.0, budget=28, ridge=0.0,
                  seed=194523))
    @example(dict(c=2, d=3, m=2, n=0, rows="equal", scale=0.3, budget=2, ridge=0.0,
                  seed=4294967294))
    @example(dict(c=2, d=2, m=1, n=0, rows="collinear", scale=30.0, budget=1, ridge=1e-6,
                  seed=920))
    # Every pool probability saturates, so Hp is zero and so is the
    # relaxed objective: every design is optimal, with a gap of 0.
    @example(dict(c=2, d=6, m=1, n=2, rows="equal", scale=30.0, budget=2, ridge=1e-6,
                  seed=6))
    @example(dict(c=2, d=6, m=6, n=2, rows="equal", scale=30.0, budget=2, ridge=1e-6,
                  seed=2))
    @given(drawn_params())
    def test_each_selector_selects_or_raises_a_round_error(self, params):
        # Each call either returns a result that passes every check or
        # raises one of ROUND_ERRORS; any other exception fails the test.
        budget, Hp, fishers = drawn_round(**params)
        m = fishers.shape[0]
        # Masked with the tuned rate and with a fixed one; with repeats
        # the default rate is fixed.
        for eta, repeats in ((None, False), (4.0, False), (None, True)):
            try:
                picks, diag = select_firal(budget, Hp, fishers, eta=eta, repeats=repeats)
            except ROUND_ERRORS:
                continue
            check_firal(budget, m, not repeats, picks, diag)
        # The greedy adds twice its budget, so it takes at most half the
        # candidates.
        budget = max(1, min(budget, m // 2))
        try:
            picks = select_greedy_fb(budget, Hp, fishers)
        except ROUND_ERRORS:
            return
        assert len(set(picks.tolist())) == budget and np.all((0 <= picks) & (picks < m))
