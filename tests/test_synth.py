"""Synthetic protocol tests: parameter construction, samplers, label laws,
Monte-Carlo risk estimation, the row blocks of the sampling layers (byte
for byte against whole-array references, and their traced peak memory),
and the ratio calibration helpers."""

import tracemalloc

import numpy as np
import pytest

import oracle
from firal import synth
from firal.fisher import fir, pool_hessian, sigma_max
from firal.model import class_probabilities, fit_erm
from firal.synth import (
    BASE_VARIANCE,
    DesignSpec,
    SweepPoint,
    dilation_for_fir,
    gaussian_design,
    make_theta_star,
    mc_excess_risk,
    risk_ratio_sweep,
    sample_labels,
    sample_pool,
    translated_design,
    translation_direction,
    translation_for_fir,
)


class TestMakeThetaStar:
    def test_binary_single_unit_row(self):
        theta = make_theta_star(2, 4, seed=0)
        assert theta.shape == (1, 4)
        assert np.linalg.norm(theta[0]) == pytest.approx(1.0, abs=1e-12)

    def test_row_norms_are_unit(self):
        for c in (3, 5):
            theta = make_theta_star(c, 8, seed=1)
            np.testing.assert_allclose(
                np.linalg.norm(theta, axis=1), 1.0, atol=1e-12
            )

    def test_balance_by_label_frequency_oracle(self):
        # Sampled label frequencies under the reference design stay within
        # the documented tolerance of 1/c.
        c, d = 5, 8
        theta = make_theta_star(c, d, seed=2)
        X = sample_pool(gaussian_design(d), 40_000, seed=3)
        y = sample_labels(X, theta, seed=4)
        freqs = np.bincount(y, minlength=c + 1)[1:] / len(y)
        assert np.abs(freqs - 1 / c).max() <= 0.25 / c

    def test_binary_split_symmetric(self):
        theta = make_theta_star(2, 4, seed=5)
        X = sample_pool(gaussian_design(4), 50_000, seed=6)
        y = sample_labels(X, theta, seed=7)
        assert abs(np.mean(y == 1) - 0.5) < 0.02

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_theta_star(1, 4, seed=0)
        with pytest.raises(ValueError):
            make_theta_star(6, 4, seed=0)


class TestSamplePool:
    def test_gaussian_covariance(self):
        nu = 2.0
        d = 3
        spec = gaussian_design(d, dilation=nu)
        X = sample_pool(spec, 100_000, seed=8)
        target = nu * BASE_VARIANCE * np.eye(d)
        err = np.linalg.norm(np.cov(X.T) - target) / np.linalg.norm(target)
        assert err < 0.10

    def test_translation_mean(self):
        tau = 7.0
        d = 4
        n = 100_000
        spec = translated_design(d, tau)
        X = sample_pool(spec, n, seed=9)
        bound = 5 * np.sqrt(BASE_VARIANCE) / np.sqrt(n)
        assert np.abs(X.mean(axis=0) - tau * translation_direction(d)).max() < bound

    def test_laplace_covariance(self):
        # Elliptical construction with Exp(1) mixing has covariance equal
        # to the scale matrix.
        spec = DesignSpec("laplace", np.zeros(3), 4.0 * np.eye(3))
        X = sample_pool(spec, 200_000, seed=10)
        err = np.linalg.norm(np.cov(X.T) - 4 * np.eye(3)) / np.linalg.norm(4 * np.eye(3))
        assert err < 0.2

    def test_student_t_covariance(self):
        dof = 5.0
        spec = DesignSpec("student_t", np.zeros(2), np.eye(2), dof=dof)
        X = sample_pool(spec, 200_000, seed=11)
        target = dof / (dof - 2) * np.eye(2)
        err = np.linalg.norm(np.cov(X.T) - target) / np.linalg.norm(target)
        assert err < 0.2

    def test_seed_determinism(self):
        spec = gaussian_design(3)
        a = sample_pool(spec, 100, seed=12)
        b = sample_pool(spec, 100, seed=12)
        np.testing.assert_array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DesignSpec("cauchy", np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            DesignSpec("student_t", np.zeros(2), np.eye(2), dof=1.5)
        with pytest.raises(ValueError):
            DesignSpec("gaussian", np.zeros(2), -np.eye(2))


class _TopDraws(np.random.Generator):
    """A generator whose uniform draws are all ``1 - 2**-53``, the largest
    double below 1; ``default_rng`` hands it back unaltered."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(size, 1.0 - 2.0**-53)


class TestSampleLabels:
    def test_draw_above_rounded_cdf_stays_in_range(self):
        # Rounding leaves about a quarter of the cdf rows ending below 1; a
        # top draw compared with every cdf column would give label c + 1.
        c, d = 3, 4
        theta = make_theta_star(c, d, seed=0)
        X = sample_pool(gaussian_design(d), 2000, seed=1)
        assert np.any(np.cumsum(class_probabilities(X, theta), axis=1)[:, -1] < 1.0)
        y = sample_labels(X, theta, seed=_TopDraws(np.random.PCG64(2)))
        assert y.min() >= 1 and y.max() <= c
        assert np.mean(y == c) > 0.99

    def test_zero_parameters_uniform(self):
        X = np.random.default_rng(13).normal(size=(60_000, 2))
        y = sample_labels(X, np.zeros((2, 2)), seed=14)
        freqs = np.bincount(y, minlength=4)[1:] / len(y)
        sd = np.sqrt((1 / 3) * (2 / 3) / len(y))
        assert np.abs(freqs - 1 / 3).max() < 5 * sd

    def test_extreme_logit_deterministic(self):
        X = np.ones((100, 1)) * 50.0
        y = sample_labels(X, np.array([[20.0]]), seed=15)
        np.testing.assert_array_equal(y, 1)

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(16)
        theta = rng.normal(size=(2, 3)) * 0.3
        X = rng.normal(size=(50_000, 3))
        y = sample_labels(X, theta, seed=17)
        expected = class_probabilities(X, theta).mean(axis=0)
        freqs = np.bincount(y, minlength=4)[1:] / len(y)
        sd = np.sqrt(expected * (1 - expected) / len(y))
        assert np.all(np.abs(freqs - expected) < 5 * sd)


def sampled_excess_risk(theta_n, theta_star, spec, n_points, n_labels, seed):
    """Reference estimator with label noise: the log-loss gap on
    ``n_labels`` labels sampled per point, averaged per point.  Its points
    are those of ``mc_excess_risk(..., seed=seed)``.  Returns
    ``(estimate, stderr)``."""
    ss = np.random.SeedSequence(seed).spawn(2)
    X = sample_pool(spec, n_points, ss[0])
    rows = np.repeat(np.arange(n_points), n_labels)
    y = sample_labels(X[rows], theta_star, ss[1]) - 1
    log_star = np.log(np.maximum(class_probabilities(X, theta_star), 1e-300))
    log_n = np.log(np.maximum(class_probabilities(X, theta_n), 1e-300))
    gap = (log_star[rows, y] - log_n[rows, y]).reshape(n_points, n_labels)
    per_point = gap.mean(axis=1)
    return float(per_point.mean()), float(per_point.std(ddof=1) / np.sqrt(n_points))


class TestMcExcessRisk:
    @pytest.mark.parametrize("c", [2, 3, 5, 7, 10])
    def test_exact_sum_bitwise_equal_to_axis_sum(self, c):
        # The per-point class sum is row_sums, numpy's axis-1 sum bit for
        # bit.
        d, seed = 6, 29
        rng = np.random.default_rng(c)
        theta_star, theta = rng.normal(size=(2, c - 1, d)) * 0.3
        spec = gaussian_design(d)
        ss = np.random.SeedSequence(seed).spawn(2)
        X = sample_pool(spec, 3000, ss[0])
        P_star, P_n = class_probabilities(X, theta_star), class_probabilities(X, theta)
        per_point = np.sum(P_star * (np.log(np.maximum(P_star, 1e-300))
                                     - np.log(np.maximum(P_n, 1e-300))), axis=1)
        expected = (float(per_point.mean()),
                    float(per_point.std(ddof=1) / np.sqrt(len(X))))
        assert mc_excess_risk([theta], theta_star, spec, n_points=3000, seed=seed) == [expected]

    def test_zero_at_truth(self):
        theta = make_theta_star(3, 4, seed=18)
        spec = gaussian_design(4)
        assert mc_excess_risk([theta], theta, spec, n_points=1000, seed=19)[0][0] == 0.0

    def test_nonnegative_within_noise(self):
        rng = np.random.default_rng(20)
        theta_star = make_theta_star(2, 3, seed=21)
        for k in range(5):
            theta = theta_star + 0.05 * rng.normal(size=theta_star.shape)
            [(val, se)] = mc_excess_risk([theta], theta_star, gaussian_design(3),
                                         n_points=5000, seed=22 + k)
            assert val >= -3 * se

    def test_exact_enumeration_agrees_with_sampling(self):
        # The label-enumerated estimator is the many-label limit of the
        # sampled one; on independent draws they agree within sampling noise.
        theta_star = make_theta_star(2, 2, seed=23)
        theta = theta_star * 0.7
        spec = gaussian_design(2)
        [(exact, se_e)] = mc_excess_risk([theta], theta_star, spec, n_points=20_000,
                                         seed=24)
        sampled, se_s = sampled_excess_risk(theta, theta_star, spec, n_points=20_000,
                                            n_labels=100, seed=25)
        assert abs(exact - sampled) <= 3 * np.hypot(se_e, se_s)

    def test_label_enumeration_reduces_variance(self):
        # Enumerating labels removes the label-noise component of the
        # estimator variance, so its standard error cannot exceed the
        # single-label sampled one on the same points.
        theta_star = make_theta_star(2, 2, seed=40)
        theta = theta_star * 0.6
        spec = gaussian_design(2)
        [(_, se_exact)] = mc_excess_risk([theta], theta_star, spec, n_points=10_000,
                                         seed=41)
        _, se_one = sampled_excess_risk(theta, theta_star, spec, n_points=10_000,
                                        n_labels=1, seed=41)
        assert se_exact <= se_one

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_several_parameters_equal_one_call_each(self, c):
        # One draw of points and truth log-probabilities serves every
        # parameter; each pair is the one-parameter call's, bit for bit.
        d = 6
        theta_star = make_theta_star(c, d, seed=42)
        rng = np.random.default_rng(43)
        thetas = [theta_star + 0.1 * rng.normal(size=theta_star.shape), theta_star,
                  rng.normal(size=theta_star.shape)]
        spec = gaussian_design(d)
        risks = mc_excess_risk(thetas, theta_star, spec, n_points=3000, seed=44)
        assert risks == [mc_excess_risk([theta], theta_star, spec, n_points=3000,
                                        seed=44)[0] for theta in thetas]
        assert risks[1] == (0.0, 0.0)

    def test_one_seed_sequence_twice_agrees(self):
        # The caller's SeedSequence is read, not advanced: a second call
        # with the same object draws the same points as the first.
        theta_star = make_theta_star(2, 3, seed=45)
        theta = theta_star * 0.7
        ss = np.random.SeedSequence(5)
        first = mc_excess_risk([theta], theta_star, gaussian_design(3), 1000, ss)
        assert mc_excess_risk([theta], theta_star, gaussian_design(3), 1000, ss) == first
        assert ss.n_children_spawned == 0
        assert first == mc_excess_risk([theta], theta_star, gaussian_design(3), 1000, 5)

    def test_exact_mode_pointwise_nonnegative(self):
        # Conditional enumeration makes the per-point gap a divergence, so
        # the estimate is nonnegative for any parameter pair.
        rng = np.random.default_rng(26)
        theta_star = make_theta_star(3, 3, seed=27)
        theta = rng.normal(size=theta_star.shape)
        [(val, _)] = mc_excess_risk([theta], theta_star, gaussian_design(3),
                                    n_points=2000, seed=28)
        assert val >= 0.0


def test_reference_share_bitwise_equal_to_axis_reductions():
    rng = np.random.default_rng(30)
    for k in (1, 2, 4, 6):
        w = rng.standard_normal((5000, k))
        G = 0.7 * np.eye(k) + 0.3 * np.ones((k, k))
        z = 10.0 * (w @ np.linalg.cholesky(G).T)
        z = np.concatenate([z, np.zeros((len(z), 1))], axis=1)
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        assert synth._reference_share(0.3, w, 10.0) == float(p[:, -1].mean())


SMALL_BLOCK = 8
BLOCK_SIZES = [1, 2, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, SMALL_BLOCK + 4,
               3 * SMALL_BLOCK + 2, 3 * SMALL_BLOCK + 5]


def random_spec(family, d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    return DesignSpec(family, 10.0 * rng.normal(size=d), 25.0 * (A @ A.T + np.eye(d)),
                      dof=3.5 if family == "student_t" else None)


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` counts while ``fn()`` runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestRowBlocks:
    """The sampling layers work in row blocks of ``synth.BLOCK`` rows; with
    the block made small, every boundary case equals the whole-array
    computation of ``oracle``, byte for byte.  A product with one column
    (``c = 2``) goes to ``gemv``, whose row groups the block starts must
    respect.  The dimensions stay below those at which OpenBLAS multiplies
    a few rows on a path of its own."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 11, 12, 13, 20, 26, 29, 100])
    def test_blocks_start_on_multiples_of_the_block(self, monkeypatch, n):
        monkeypatch.setattr(synth, "BLOCK", SMALL_BLOCK)
        blocks = synth._row_blocks(n)
        assert [b.start for b in blocks] == list(range(0, SMALL_BLOCK * len(blocks), SMALL_BLOCK))
        assert [b.stop for b in blocks] == [b.start for b in blocks[1:]] + [n]
        assert n - blocks[-1].start < SMALL_BLOCK + SMALL_BLOCK // 2
        assert n - blocks[-1].start >= min(n, SMALL_BLOCK // 2)

    @pytest.mark.parametrize("family", synth.FAMILIES)
    @pytest.mark.parametrize("d", [3, 8])
    def test_sample_pool_equals_whole_array(self, monkeypatch, family, d):
        monkeypatch.setattr(synth, "BLOCK", SMALL_BLOCK)
        spec = random_spec(family, d, seed=d)
        for n in BLOCK_SIZES:
            got = sample_pool(spec, n, seed=n)
            assert got.tobytes() == oracle.sample_pool(spec, n, seed=n).tobytes()

    @pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("family", synth.FAMILIES)
    @pytest.mark.parametrize("c", [2, 4])
    def test_mc_excess_risk_equals_whole_array(self, monkeypatch, family, c):
        # n = 1 leaves no degree of freedom for the standard error, which
        # is nan on both sides.
        monkeypatch.setattr(synth, "BLOCK", SMALL_BLOCK)
        d = 8
        spec = random_spec(family, d, seed=7)
        rng = np.random.default_rng(8)
        theta_star = 0.3 * rng.normal(size=(c - 1, d))
        thetas = [theta_star + 0.1 * rng.normal(size=theta_star.shape),
                  rng.normal(size=theta_star.shape)]
        for n in BLOCK_SIZES:
            got = mc_excess_risk(thetas, theta_star, spec, n_points=n, seed=n)
            want = oracle.mc_excess_risk(thetas, theta_star, spec, n_points=n, seed=n)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("c, d", [(2, 8), (3, 8), (4, 16), (10, 9)])
    @pytest.mark.parametrize("samples", [1, 2, SMALL_BLOCK + 4, 3 * SMALL_BLOCK + 5,
                                         50 * SMALL_BLOCK + 7])
    def test_class_frequencies_equal_whole_array(self, monkeypatch, c, d, samples):
        monkeypatch.setattr(synth, "BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(synth, "BALANCE_SAMPLES", samples)
        theta = 0.3 * np.random.default_rng(c).normal(size=(c - 1, d))
        got = synth._class_frequencies(theta, np.random.default_rng(samples))
        want = oracle.class_frequencies(theta, np.random.default_rng(samples))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c, d, seed", [(2, 2, 0), (3, 8, 1), (4, 16, 0), (10, 9, 2)])
    @pytest.mark.parametrize("block, samples", [(SMALL_BLOCK, 3 * SMALL_BLOCK + 5),
                                                (SMALL_BLOCK, 50 * SMALL_BLOCK + 7),
                                                (4096, synth.BALANCE_SAMPLES)])
    def test_make_theta_star_equals_whole_array(self, monkeypatch, c, d, seed,
                                                block, samples):
        # A short balance draw can leave every attempt unbalanced; both
        # sides then agree that no attempt balances.
        monkeypatch.setattr(synth, "BLOCK", block)
        monkeypatch.setattr(synth, "BALANCE_SAMPLES", samples)
        want = oracle.make_theta_star(c, d, seed)
        if want is None:
            with pytest.raises(ValueError, match="^class balance not achieved"):
                make_theta_star(c, d, seed)
        else:
            assert make_theta_star(c, d, seed).tobytes() == want.tobytes()


class TestSamplingMemory:
    """``tracemalloc`` counts numpy's buffers, so these peaks are exact for
    a numpy version.  Whole-array versions hold two or three copies of the
    points (3.0 times the points for the risk, 25.6 MB for the balance
    check); the row-block versions hold one and a block."""

    def test_mc_excess_risk_holds_one_copy_of_the_points(self):
        n, d = 50_000, 16
        theta_star = make_theta_star(4, d, seed=0)
        rng = np.random.default_rng(1)
        thetas = [theta_star + 0.1 * rng.normal(size=theta_star.shape), theta_star]
        peak = traced_peak(lambda: mc_excess_risk(thetas, theta_star, gaussian_design(d),
                                                  n_points=n, seed=2))
        assert peak <= 1.5 * n * d * 8

    def test_make_theta_star_peak(self):
        assert traced_peak(lambda: make_theta_star(4, 16, 0)) <= 8e6


def calibration_ratio(theta, dim, n_mc, seed, design):
    """The ratio the calibration walks, rebuilt from the public pieces: the
    Fisher matrix of ``design(base, knob)`` against that of one base draw
    of the reference design."""
    base = np.sqrt(BASE_VARIANCE) * np.random.default_rng(seed).standard_normal((n_mc, dim))
    Hp = pool_hessian(base, theta)
    return lambda knob: fir(pool_hessian(design(base, knob), theta), Hp)


def dilated(base, nu):
    return np.sqrt(nu) * base


class TestRatioCalibration:
    def test_dilation_hits_target(self):
        theta = make_theta_star(2, 4, seed=29)
        d_tilde = 4
        for target in (1.5 * d_tilde, 3.0 * d_tilde):
            nu = dilation_for_fir([target], theta, 4, n_mc=30_000, seed=30)[0]
            spec_q = gaussian_design(4, dilation=nu)
            Hq = pool_hessian(sample_pool(spec_q, 200_000, seed=31), theta)
            Hp = pool_hessian(sample_pool(gaussian_design(4), 200_000, seed=31), theta)
            assert fir(Hq, Hp) == pytest.approx(target, rel=0.08)

    def test_dilation_clamps_to_floor(self):
        # Ratios below the dilation family's floor are unreachable and get
        # the floor's multiplier, the grid point of least ratio; a ratio
        # above the whole decreasing branch raises.
        theta = make_theta_star(2, 4, seed=29)
        ratio = calibration_ratio(theta, 4, 20_000, 30, dilated)
        vals = [ratio(nu) for nu in synth.NU_GRID]
        nu = dilation_for_fir([0.1], theta, 4, n_mc=20_000, seed=30)[0]
        assert nu == synth.NU_GRID[int(np.argmin(vals))]
        with pytest.raises(ValueError, match="not reached"):
            dilation_for_fir([2.0 * vals[0]], theta, 4, n_mc=20_000, seed=30)

    @pytest.mark.parametrize("theta_seed", [0, 1, 2])
    def test_default_dilation_targets_keep_their_knobs(self, theta_seed):
        # The knobs of the default sweep targets are those of the bracket
        # rule: the whole grid, then geometric bisection in the first
        # falling interval (ends included), the floor's multiplier below it.
        theta = make_theta_star(2, 8, seed=theta_seed)
        targets = np.geomspace(1.6, 80.0, 5).tolist()
        ratio = calibration_ratio(theta, 8, 20_000, 0, dilated)
        vals = np.array([ratio(nu) for nu in synth.NU_GRID])
        expected = []
        for target in targets:
            if target < vals.min():
                expected.append(float(synth.NU_GRID[int(np.argmin(vals))]))
                continue
            i = np.flatnonzero((vals[:-1] >= target) & (target >= vals[1:]))[0]
            expected.append(synth._bisect(ratio, target, synth.NU_GRID[i],
                                          synth.NU_GRID[i + 1],
                                          lambda lo, hi: np.sqrt(lo * hi), rising=False))
        assert dilation_for_fir(targets, theta, 8, n_mc=20_000) == expected

    def test_translation_hits_target(self):
        theta = make_theta_star(2, 4, seed=32)
        d_tilde = 4
        target = 3.0 * d_tilde
        tau = translation_for_fir([target], theta, 4, n_mc=30_000, seed=33)[0]
        spec_q = translated_design(4, tau)
        Hq = pool_hessian(sample_pool(spec_q, 200_000, seed=34), theta)
        Hp = pool_hessian(sample_pool(gaussian_design(4), 200_000, seed=34), theta)
        assert fir(Hq, Hp) == pytest.approx(target, rel=0.08)

    def test_translation_rejects_small_target(self):
        # The walk stops once the ratio rises past the target, before the
        # shifts whose designs saturate the Fisher matrix (LinAlgError).
        theta = make_theta_star(2, 4, seed=35)
        with pytest.raises(ValueError, match="not reached") as info:
            translation_for_fir([1.0], theta, 4, n_mc=5000)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_translation_rejects_target_past_saturation(self):
        # At c = 3, d = 4 the ratio climbs to about 340 at shift 32 and the
        # design's Fisher matrix is singular at 64; the walk ends there and
        # the target is unreached.
        theta = make_theta_star(3, 4, seed=35)
        with pytest.raises(ValueError, match="not reached") as info:
            translation_for_fir([1e30], theta, 4, n_mc=5000)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("c, d", [(2, 4), (3, 4), (2, 8)])
    def test_unshifted_ratio_calibrates_to_zero_shift(self, c, d):
        # The unshifted design has ratio d(c-1), so that target's smallest
        # shift is 0, not one on the rising branch past the dip.
        theta = make_theta_star(c, d, seed=29)
        assert translation_for_fir([d * (c - 1)], theta, d, n_mc=5000, seed=33) == [0.0]

    def test_dip_target_reached_at_its_smallest_shift(self):
        # At c = 2, d = 8 the ratio dips from 8 to about 7.0; a target in
        # the dip is reached on its falling side, and no smaller grid shift
        # reaches it.
        theta = make_theta_star(2, 8, seed=0)
        a = translation_direction(8)
        ratio = calibration_ratio(theta, 8, 5000, 0, lambda base, tau: base + tau * a)
        for target in (7.5, 7.2):
            tau = translation_for_fir([target], theta, 8, n_mc=5000, seed=0)[0]
            assert abs(ratio(tau) - target) <= synth.RATIO_TOL * target
            assert all(ratio(t) > target for t in synth.TAU_GRID if t < tau)
            assert ratio(2.0 * tau) < ratio(tau)

    def test_several_targets_equal_one_call_each(self):
        # One call calibrates a list of targets to exactly the knobs that
        # one call per target gives, the clamped floor included.
        theta = make_theta_star(2, 4, seed=29)
        targets = [6.0, 0.1, 12.0]
        knobs = dilation_for_fir(targets, theta, 4, n_mc=5000, seed=30)
        assert knobs == [dilation_for_fir([t], theta, 4, n_mc=5000, seed=30)[0]
                         for t in targets]
        targets = [12.0, 5.0, 4.0]
        taus = translation_for_fir(targets, theta, 4, n_mc=5000, seed=33)
        assert taus == [translation_for_fir([t], theta, 4, n_mc=5000, seed=33)[0]
                        for t in targets]


    def test_translation_evaluates_each_doubling_point_once(self, monkeypatch):
        # Every target is calibrated on one shared walk of the shifts 0, 1,
        # 2, 4, ...; bisection midpoints are never 0 or powers of two at or
        # above 1.
        theta = make_theta_star(2, 4, seed=29)
        a = translation_direction(4)
        rows = []

        def recording(X, theta_star):
            rows.append(X[0].copy())
            return pool_hessian(X, theta_star)

        monkeypatch.setattr(synth, "pool_hessian", recording)
        translation_for_fir([12.0, 5.0, 40.0], theta, 4, n_mc=5000, seed=33)
        taus = [round(float((row - rows[0]) @ a), 9) for row in rows[1:]]
        grid = [t for t in taus if t == 0 or t >= 1 and np.log2(t).is_integer()]
        assert grid == [0.0] + [2.0**j for j in range(len(grid) - 1)]


class TestRiskRatioSweep:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown sweep mode"):
            risk_ratio_sweep(2, 4, [6.0], 50, seeds=[0], mode="rotation")

    def test_rows_equal_one_risk_call_per_target_and_seed(self, monkeypatch):
        # Reference: the loop with targets outside and one mc_excess_risk
        # call per (target, seed), rebuilt from the public pieces.
        c, d, n, n_mc, risk_points = 2, 2, 60, 4000, 2000
        targets, seeds = [1.5, 4.0], [0, 1, 2]
        theta_star = make_theta_star(c, d, 0)
        knobs = dilation_for_fir(targets, theta_star, d, n_mc=n_mc)
        spec_p = gaussian_design(d)
        Hp = pool_hessian(sample_pool(spec_p, n_mc, 10_001), theta_star)
        expected = []
        for target, knob in zip(targets, knobs):
            spec_q = gaussian_design(d, dilation=knob)
            Hq = pool_hessian(sample_pool(spec_q, n_mc, 10_001), theta_star)
            for seed in seeds:
                ss = np.random.SeedSequence([seed, 7]).spawn(3)
                Xq = sample_pool(spec_q, n, ss[0])
                theta = fit_erm(Xq, sample_labels(Xq, theta_star, ss[1]), c,
                                ridge=synth.SWEEP_RIDGE).theta
                [(risk, se)] = mc_excess_risk([theta], theta_star, spec_p,
                                              n_points=risk_points, seed=ss[2])
                expected.append(SweepPoint(
                    mode="dilation", target_fir=target, scale_param=knob,
                    realized_fir=float(fir(Hq, Hp)), sigma=float(sigma_max(Hq, Hp)),
                    n=n, seed=seed, excess_risk=risk, risk_stderr=se))

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return mc_excess_risk(*args, **kwargs)

        monkeypatch.setattr(synth, "mc_excess_risk", counting)
        points = risk_ratio_sweep(c, d, targets, n, seeds=seeds, n_mc=n_mc,
                                  risk_points=risk_points)
        assert points == expected
        # One risk draw per seed, shared by both targets.
        assert calls == [len(targets)] * len(seeds)
