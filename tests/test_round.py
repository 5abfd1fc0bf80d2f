"""Tests of one FIRAL round: its input, rate tuning, and the composed
relaxation, whitening and rounding."""

from types import SimpleNamespace

import numpy as np
import pytest

from firal import round as firal_round
from firal import round_fishers, select_firal
from firal.fisher import labeled_shift, pool_hessian, whiten_factors
from firal.model import KronFishers
from firal.relax import relax_solve
from firal.round import eta_grid, tune_eta
from firal.sparsify import AuditReport, select_batch


def make_factors(seed=0, m=10, budget=4):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(1, 2))
    X = rng.normal(size=(m, 2)) * 2
    X0 = rng.normal(size=(3, 2)) * 2
    shift = labeled_shift(X0, theta, budget)
    fishers = KronFishers.at(X, theta, shift)
    relaxed = relax_solve(budget, pool_hessian(X, theta), fishers)
    return whiten_factors(relaxed.z, fishers)


class TestTuneEta:
    def test_singleton_grid(self):
        factors = make_factors()
        assert tune_eta([2.5], factors, 3)[0] == 2.5

    def test_duplicates_keep_first(self):
        factors = make_factors()
        assert tune_eta([2.5, 2.5, 2.5], factors, 3)[0] == 2.5

    def test_winner_maximizes_min_eigenvalue(self):
        factors = make_factors(seed=1)
        grid = eta_grid(factors.d_tilde)
        best, _, _ = tune_eta(grid, factors, 4)
        _, best_report = select_batch(4, best, factors)
        for e in grid:
            _, report = select_batch(4, e, factors)
            assert best_report.min_eig >= report.min_eig - 1e-12

    def test_returned_selection_equals_fresh_run(self):
        factors = make_factors(seed=2)
        eta, picks, report = tune_eta(eta_grid(factors.d_tilde), factors, 4)
        fresh_picks, fresh = select_batch(4, eta, factors)
        np.testing.assert_array_equal(picks, fresh_picks)
        assert report.min_eig == fresh.min_eig
        np.testing.assert_array_equal(report.margin_min_eig, fresh.margin_min_eig)
        assert report.margin_trace is None and fresh.margin_trace is None

    @pytest.mark.parametrize("rel, winner", [(1e-15, 1.0), (1e-9, 2.0)])
    def test_near_tie_keeps_earlier_rate(self, monkeypatch, rel, winner):
        v = 0.37
        scores = {1.0: v, 2.0: v * (1 + rel)}

        def scored(budget, eta, factors):
            return np.array([int(eta)]), SimpleNamespace(min_eig=scores[eta])

        monkeypatch.setattr(firal_round, "select_batch", scored)
        eta, picks, _ = tune_eta([1.0, 2.0], None, 1)
        assert eta == winner
        assert picks.tolist() == [int(winner)]


def inject_report(monkeypatch, name, report):
    """Make ``firal.round.<name>`` (``select_batch`` or ``tune_eta``) keep its
    picks but return ``report`` as their regret audit."""
    real = getattr(firal_round, name)

    def violated(*args, **kwargs):
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
    shift = labeled_shift(X[np.sort(labeled)], theta, budget)
    fishers = KronFishers.at(X[candidates], theta, shift)
    relaxed = relax_solve(budget, pool_hessian(X, theta), fishers)
    factors = whiten_factors(relaxed.z, fishers)
    if eta is None and not repeats:
        eta, local, report = tune_eta(eta_grid(factors.d_tilde), factors, budget)
    else:
        eta = 8.0 * np.sqrt(factors.d_tilde) if eta is None else eta
        local, report = select_batch(budget, eta, factors, mask_selected=not repeats)
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
        fishers = round_fishers(X, labeled, candidates, theta, budget)
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
        picks, diag = select_firal(4, Hp, round_fishers(X, labeled, unlabeled, theta, 4))
        sorted_picks, sorted_diag = select_firal(
            4, Hp, round_fishers(X, np.sort(labeled), unlabeled, theta, 4))
        np.testing.assert_array_equal(picks, sorted_picks)
        assert diag.eta == sorted_diag.eta
        np.testing.assert_array_equal(diag.report.margin_min_eig,
                                      sorted_diag.report.margin_min_eig)

    def test_factors_computed_once_per_round(self, monkeypatch):
        # The relaxation and the whitening share one eigh of the W stack.
        X, theta, labeled = firal_problem(seed=6)
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        eigh, stacks = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        select_firal(4, pool_hessian(X, theta), round_fishers(X, labeled, unlabeled, theta, 4))
        assert len(stacks) == 1

    def test_violated_guarantee_raises(self, monkeypatch):
        # A library call is stopped where the margins are computed.
        inject_report(monkeypatch, "select_batch",
                      AuditReport(np.array([0.5, -1.0]), np.array([2.0, -0.25])))
        X, theta, labeled = firal_problem()
        unlabeled = np.setdiff1d(np.arange(len(X)), labeled)
        with pytest.raises(FloatingPointError, match=r"regret guarantee violated: "
                           r"worst_min_eig_margin=-1\.000000e\+00 worst_trace_margin=-0\.25"):
            select_firal(4, pool_hessian(X, theta),
                         round_fishers(X, labeled, unlabeled, theta, 4), repeats=True)


class TestRoundFishers:
    def test_empty_labeled_list_gives_zero_shift(self):
        X, theta, _ = firal_problem()
        candidates = np.arange(len(X))
        from_list = round_fishers(X, [], candidates, theta, 4)
        from_array = round_fishers(X, np.array([], dtype=int), candidates, theta, 4)
        for name in ("X", "W", "shift"):
            np.testing.assert_array_equal(getattr(from_list, name), getattr(from_array, name))
        assert not from_list.shift.any()
