"""Harness tests: config parsing and validation, loop bookkeeping, output
format, CLI exit codes, and determinism."""

import csv
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from firal import cli, relax
from firal import round as firal_round
from firal.cli import (
    CSV_COLUMNS,
    RunConfig,
    active_learning_loop,
    emit_results,
    load_config,
    main,
)
from firal.data import save_dataset
from firal.relax import RelaxResult
from firal.sparsify import AuditReport

from test_round import inject_report


def small_config(**overrides):
    base = dict(
        seed=3, selector="random", budget=6, rounds=2, classes=2, dim=3,
        pool_size=80, risk_points=1500,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestConfig:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "seed = 7\nselector = entropy\nbudget=4\nrounds=2\n"
            "classes=2\ndim=3\npool_size=50\ntheory_mode = true\n"
            "# comment line\neta = 3.5\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.selector == "entropy"
        assert cfg.theory_mode is True
        assert cfg.eta == 3.5

    @pytest.mark.parametrize("line, key", [
        ("not_a_key=1", "not_a_key"), ("seed = 1.5", "seed"), ("theory_mode = maybe", "theory_mode"),
    ], ids=["unknown_key", "int_key", "bool_key"])
    def test_bad_line_names_its_key(self, tmp_path, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}:2: ")
        assert key in str(exc.value)

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("Yes", True), ("on", True), ("0", False), ("NO", False), ("off", False),
    ])
    def test_boolean_words(self, tmp_path, word, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"theory_mode = {word}\n")
        assert load_config(path).theory_mode is value

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(budget=7, rounds=2).validate()
        with pytest.raises(ValueError):
            RunConfig(selector="magic").validate()
        with pytest.raises(ValueError):
            RunConfig(pool_size=5, budget=10, rounds=1).validate()
        # The greedy's last round adds twice the round budget, 20 of the
        # 40 - 3 - 20 = 17 points still unlabeled.
        with pytest.raises(ValueError, match="greedy_fb needs a pool of 43 points, got 40"):
            RunConfig(selector="greedy_fb", pool_size=40, rounds=3).validate()
        RunConfig(selector="greedy_fb", pool_size=43, rounds=3).validate()
        RunConfig(selector="firal", pool_size=40, rounds=3).validate()
        # No round selects, so the pool needs room for the initial labels only.
        RunConfig(pool_size=20, rounds=0).validate()
        RunConfig(selector="greedy_fb", pool_size=20, rounds=0).validate()


class TestLoop:
    def test_zero_rounds_single_record(self):
        recs = active_learning_loop(small_config(rounds=0, budget=0))
        assert len(recs) == 1
        assert recs[0].round == 0
        assert recs[0].selected == ()

    @pytest.mark.parametrize("overrides", [
        *(dict(seed=seed, classes=c, dim=d, pool_size=20, budget=6, rounds=2,
               theory_mode=theory, eta=eta)
          for seed, c, d, theory, eta in [
              (1, 2, 2, False, None), (1, 2, 2, False, 4.0), (1, 3, 3, False, None),
              (3, 2, 2, True, None), (3, 2, 2, True, 4.0),
              (4, 2, 2, False, None), (4, 2, 2, False, 4.0)]),
        dict(theory_mode=True, pool_size=40),
    ])
    def test_saturated_small_pool_certifies(self, monkeypatch, overrides):
        # On these saturated pools the reduced Hessian of the last round is
        # so near-singular that no Newton step descends; pairwise steps must
        # still take every round to its certificate.
        relaxed, real = [], firal_round.relax_solve

        def captured(*args):
            relaxed.append(real(*args))
            return relaxed[-1]

        monkeypatch.setattr(firal_round, "relax_solve", captured)
        config = RunConfig(risk_points=1000, **overrides)
        assert len(active_learning_loop(config)) == config.rounds + 1
        assert len(relaxed) == config.rounds
        for res in relaxed:
            assert res.gap <= relax.GAP_TOL * res.objective

    def test_labeled_set_sizes(self):
        cfg = small_config()
        recs = active_learning_loop(cfg)
        init = cfg.init_per_class * cfg.classes
        per_round = cfg.budget // cfg.rounds
        for k, rec in enumerate(recs):
            assert rec.n_labeled == init + k * per_round

    def test_deterministic_records(self):
        a = active_learning_loop(small_config())
        b = active_learning_loop(small_config())
        for ra, rb in zip(a, b):
            assert ra.selected == rb.selected
            assert ra.accuracy == rb.accuracy
            assert ra.excess_risk == rb.excess_risk

    def test_selectors_all_run(self):
        for selector in ("firal", "random", "kmeans", "entropy", "var_ratios"):
            recs = active_learning_loop(small_config(
                selector=selector, budget=4, rounds=1, pool_size=40,
                risk_points=500,
            ))
            assert len(recs) == 2
            assert len(recs[1].selected) == 4

    def test_greedy_fb_runs(self):
        recs = active_learning_loop(small_config(
            selector="greedy_fb", budget=2, rounds=1, pool_size=20,
            risk_points=500,
        ))
        assert len(recs[1].selected) == 2

    def test_random_accuracy_improves_on_average(self):
        # Monte-Carlo smoke check: across seeds, labeling more points does
        # not hurt pool accuracy on average.
        first, last = [], []
        for seed in range(20):
            recs = active_learning_loop(small_config(
                seed=seed, budget=10, rounds=1, pool_size=100, risk_points=200,
            ))
            first.append(recs[0].accuracy)
            last.append(recs[-1].accuracy)
        assert np.mean(last) >= np.mean(first) - 0.01

    def test_csv_dataset_loop(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = 1 + (X[:, 0] > 0).astype(int)
        path = tmp_path / "pool.csv"
        save_dataset(path, X, y)
        recs = active_learning_loop(RunConfig(
            seed=0, data=str(path), selector="entropy", budget=4, rounds=2,
        ))
        assert len(recs) == 3
        assert np.isnan(recs[0].excess_risk)
        assert recs[-1].accuracy > 0.5

    @pytest.mark.parametrize("case", ["zero", "duplicate", "two_constants"])
    def test_rank_deficient_csv_runs_firal(self, tmp_path, capsys, case):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 3))
        X = {
            "zero": np.column_stack([X, np.zeros(60)]),
            "duplicate": np.column_stack([X, X[:, 1]]),
            "two_constants": np.column_stack([X, np.ones(60), np.full(60, 2.0)]),
        }[case]
        y = 1 + (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)
        path = tmp_path / "pool.csv"
        save_dataset(path, X, y)
        assert main(["run", "--data", str(path), "--selector", "firal",
                     "--budget", "4", "--rounds", "2"]) == 0
        assert f"dropped 1 of {X.shape[1]} dimensions" in capsys.readouterr().err

    def test_small_dataset_pool_for_greedy_rejected_before_fit(self, monkeypatch,
                                                                 tmp_path, capsys):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(19, 2))
        y = 1 + (X[:, 0] > 0).astype(int)
        path = tmp_path / "pool.csv"
        save_dataset(path, X, y)
        monkeypatch.setattr(cli, "fit_erm", pytest.fail)
        assert main(["run", "--data", str(path), "--selector", "greedy_fb",
                     "--budget", "12", "--rounds", "2"]) == 2
        assert "greedy_fb needs a pool of 20 points, got 19" in capsys.readouterr().err

    def test_all_zero_features_config_error(self, tmp_path, capsys):
        path = tmp_path / "pool.csv"
        save_dataset(path, np.zeros((10, 2)), np.arange(10) % 2 + 1)
        assert main(["run", "--data", str(path), "--selector", "firal",
                     "--budget", "2", "--rounds", "1"]) == 2
        assert "every feature column is zero" in capsys.readouterr().err

    def test_intercept_column_is_kept_as_is(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.normal(size=(40, 3)), np.ones(40)])
        assert cli._feature_span(X) is X


# (selected, eta) of each round at seeds 0-2, recorded before the
# relaxation read its supports through KronFishers.take.
DEFAULT_PICKS = {
    0: [([1397, 2265, 1110, 1302, 407, 1778, 12, 502, 2583, 1764], 32.0),
        ([2446, 349, 125, 1361, 2927, 2586, 1278, 2349, 1426, 1225], 16.0),
        ([480, 2615, 2273, 2883, 246, 770, 1008, 2122, 1901, 2676], 32.0)],
    1: [([130, 1312, 2910, 260, 1603, 938, 194, 1946, 671, 1669], 16.0),
        ([2946, 2065, 2517, 2538, 2294, 2514, 668, 151, 1432, 1545], 64.0),
        ([2943, 620, 2976, 470, 1520, 1953, 2609, 27, 392, 243], 16.0)],
    2: [([745, 261, 1488, 20, 542, 1243, 1371, 2033, 2614, 233], 32.0),
        ([1396, 1930, 2880, 968, 2386, 2879, 1845, 2088, 785, 2112], 32.0),
        ([2759, 2099, 727, 2499, 1888, 1767, 908, 282, 1995, 623], 16.0)],
}
WIDE_ETA = 8.0 * np.sqrt(48)
WIDE_PICKS = {
    0: [([432, 133], WIDE_ETA), ([231, 1647], WIDE_ETA), ([1154, 2248], WIDE_ETA)],
    1: [([1565, 2105], WIDE_ETA), ([1304, 2231], WIDE_ETA), ([1312, 834], WIDE_ETA)],
    2: [([2454, 42], WIDE_ETA), ([576, 1309], WIDE_ETA), ([2143, 330], WIDE_ETA)],
}


class TestPinnedPicks:
    """The picks and rate of every round of the default run and of the
    wide fixed-rate run, at three seeds, equal the recorded values."""

    @pytest.mark.parametrize("seed", range(3))
    def test_default_run(self, seed):
        records = active_learning_loop(RunConfig(seed=seed))
        assert [(list(r.selected), r.eta) for r in records[1:]] == DEFAULT_PICKS[seed]

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_fixed_rate_run(self, seed):
        config = RunConfig(seed=seed, classes=4, dim=16, budget=6, rounds=3, eta=WIDE_ETA)
        records = active_learning_loop(config)
        assert [(list(r.selected), r.eta) for r in records[1:]] == WIDE_PICKS[seed]


class TestEmitResults:
    def test_column_order_and_precision(self, tmp_path):
        recs = active_learning_loop(small_config(budget=4, rounds=1,
                                                 risk_points=500))
        path = tmp_path / "out.csv"
        emit_results(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(recs)
        # Floats carry 17 significant digits; reparse must be exact.
        risk_col = CSV_COLUMNS.index("excess_risk")
        for rec, line in zip(recs, lines[1:]):
            assert float(line.split(",")[risk_col]) == rec.excess_risk


class TestCliCommands:
    @pytest.mark.parametrize("in_file, flags, theory_mode, budget", [
        ("true", [], True, 12),
        ("false", [], False, 12),
        ("false", ["--theory-mode", "--budget", "6"], True, 6),
    ])
    def test_run_flags_override_config_file(self, tmp_path, monkeypatch,
                                            in_file, flags, theory_mode, budget):
        # A flag left out keeps the file's value; a flag given wins.
        path = tmp_path / "run.cfg"
        path.write_text(f"theory_mode = {in_file}\nbudget = 12\nrounds = 3\n"
                        "eta = 2.5\nout = none\n")
        seen = []
        monkeypatch.setattr(cli, "active_learning_loop",
                            lambda config: seen.append(config) or [])
        assert main(["run", "--config", str(path)] + flags) == 0
        cfg = seen[0]
        assert (cfg.theory_mode, cfg.budget) == (theory_mode, budget)
        assert (cfg.rounds, cfg.eta, cfg.out) == (3, 2.5, None)

    def test_run_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--seed", "5", "--selector", "random", "--budget", "4",
                "--rounds", "1", "--pool-size", "40", "--classes", "2",
                "--dim", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_embed_command(self, tmp_path):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(10, 3)) + 40])
        src = tmp_path / "feat.csv"
        dst = tmp_path / "emb.csv"
        save_dataset(src, X, np.repeat([1, 2], 10))
        assert main(["embed", "--input", str(src), "--out", str(dst),
                     "--neighbors", "3", "--dim-out", "2"]) == 0
        from firal.data import load_dataset
        emb, y = load_dataset(dst)
        assert emb.shape == (20, 2)
        np.testing.assert_array_equal(y, np.repeat([1, 2], 10))

    def test_embed_command_without_labels(self, tmp_path):
        from firal.data import load_dataset
        X = np.random.default_rng(7).normal(size=(15, 4))
        src, dst = tmp_path / "m.csv", tmp_path / "e.csv"
        save_dataset(src, X)
        assert main(["embed", "--input", str(src), "--out", str(dst),
                     "--neighbors", "4", "--dim-out", "3"]) == 0
        emb, y = load_dataset(dst)
        assert emb.shape == (15, 3)
        assert y is None

    def test_audit_command(self, capsys):
        code = main(["audit", "--classes", "2", "--dim", "2",
                     "--pool-size", "25", "--budget", "40", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "guarantees hold" in out

    def test_audit_of_a_saturated_fit_is_certified(self, capsys):
        # The fit's pool Hessian has eigenvalues near 1e-6, and a reduced
        # Newton Hessian of the relaxation is singular to working precision
        # though its Cholesky succeeds.
        assert main(["audit", "--classes", "3", "--dim", "2", "--pool-size", "10",
                     "--budget", "5"]) == 0
        assert "guarantees hold" in capsys.readouterr().out

    def test_config_error_exit_code(self):
        assert main(["run", "--budget", "7", "--rounds", "2",
                     "--pool-size", "30"]) == 2

    @pytest.mark.parametrize("args", [
        ["run", "--eta", "0"],
        ["run", "--eta", "-1.5"],
        ["run", "--eta", "nan"],
        ["sweep", "--n-targets", "0"],
        ["sweep", "--seeds", "0"],
        ["sweep", "--risk-points", "1"],
        ["run", "--eta", "inf"],
        ["run", "--ridge", "nan"],
        ["run", "--ridge", "inf"],
        ["run", "--ridge", "-0.5"],
        ["run", "--selector", "greedy_fb", "--pool-size", "40", "--rounds", "3"],
        ["run", "--selector", "greedy_fb", "--ridge", "0"],
        ["audit", "--eta", "nan"],
        ["audit", "--eta", "inf"],
        ["audit", "--eta", "0"],
        ["sweep", "--n", "0"],
        ["sweep", "--n-mc", "7"],
        ["sweep", "--targets", "-5"],
        ["sweep", "--targets", "0"],
        ["sweep", "--targets", "nan"],
        ["sweep", "--targets", "inf"],
        ["sweep", "--targets", "6,-inf"],
        ["sweep", "--targets", "6,x"],
        ["sweep", "--classes", "1"],
        ["sweep", "--dim", "0"],
        ["audit", "--pool-size", "0"],
        ["audit", "--budget", "0"],
        ["audit", "--classes", "1"],
    ])
    def test_degenerate_input_exit_code(self, monkeypatch, args):
        # Rejected where the input enters, before any fit or calibration.
        monkeypatch.setattr(cli, "active_learning_loop", pytest.fail)
        monkeypatch.setattr(cli.synth, "risk_ratio_sweep", pytest.fail)
        monkeypatch.setattr(cli.synth, "make_theta_star", pytest.fail)
        assert main(args) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--targets", "-5"), ("--targets", "nan"), ("--targets", "6,x"),
        ("--classes", "1"), ("--dim", "0"),
    ])
    def test_bad_sweep_input_names_its_flag(self, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli.synth, "risk_ratio_sweep", pytest.fail)
        assert main(["sweep", flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("pool", ["0", "5"])
    def test_small_audit_pool_names_its_flag(self, monkeypatch, capsys, pool):
        # Two labeled points per class start the audit's fit.
        monkeypatch.setattr(cli.synth, "make_theta_star", pytest.fail)
        assert main(["audit", "--classes", "3", "--pool-size", pool]) == 2
        assert "--pool-size >= 2 * --classes = 6" in capsys.readouterr().err

    def test_unreachable_translation_target_exit_code(self, monkeypatch, tmp_path, capsys):
        # The calibration rejects, before any fit, a target below every
        # ratio a shift reaches and one above every ratio reached before a
        # shift saturates the design; d(c-1) = 8 here, the unshifted
        # design's ratio, calibrates to shift 0.
        args = ["sweep", "--mode", "translation", "--classes", "3", "--dim", "4",
                "--n", "200", "--seeds", "1", "--n-mc", "5000", "--risk-points", "200"]
        with monkeypatch.context() as m:
            m.setattr(cli.synth, "fit_erm", pytest.fail)
            assert main(args + ["--targets", "12,1"]) == 2
        assert "target ratio 1 not reached" in capsys.readouterr().err
        with monkeypatch.context() as m:
            m.setattr(cli.synth, "fit_erm", pytest.fail)
            assert main(args + ["--targets", "1e30"]) == 2
        assert "target ratio 1e+30 not reached" in capsys.readouterr().err
        out = tmp_path / "sweep.csv"
        assert main(args + ["--targets", "8", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert row.split(",")[header.split(",").index("scale_param")] == "0"

    def test_misspelled_boolean_checked_before_any_work(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "active_learning_loop", pytest.fail)
        path = tmp_path / "run.cfg"
        path.write_text("theory_mode = ture\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "theory_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        ("family = cauchy", "family"),
        ("variance = -1", "variance"),
        ("variance = nan", "variance"),
        ("family = student_t\ndof = 2", "dof"),
    ], ids=["family", "variance_negative", "variance_nan", "dof"])
    def test_design_checked_before_any_work(self, monkeypatch, tmp_path, capsys, lines, key):
        monkeypatch.setattr(cli, "active_learning_loop", pytest.fail)
        path = tmp_path / "run.cfg"
        path.write_text(f"{lines}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert f"error: {key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["laplace", "student_t"])
    def test_heavy_tailed_family_runs(self, tmp_path, family):
        # Only a config file can choose these families.
        path = tmp_path / "run.cfg"
        path.write_text(f"family = {family}\npool_size = 200\nrisk_points = 2000\n")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with outs[0].open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(np.isfinite(float(row["excess_risk"])) for row in rows)

    def test_degenerate_risk_points_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("risk_points = 1\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "risk_points" in capsys.readouterr().err

    def test_risk_labels_checked_before_any_work(self, monkeypatch, tmp_path, capsys):
        # The excess risk has one estimator, so the keys that chose the
        # sampled-label one are unknown keys.
        monkeypatch.setattr(cli, "active_learning_loop", pytest.fail)
        for key in ("exact_risk", "risk_labels"):
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = 1\n")
            assert main(["run", "--config", str(path)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_violated_guarantee_exit_code(self, monkeypatch, capsys):
        inject_report(monkeypatch, "tune_eta", AuditReport(np.array([0.5, -1.0]), None))
        assert main(["run", "--selector", "firal", "--budget", "4", "--rounds", "2",
                     "--pool-size", "60", "--classes", "2", "--dim", "2"]) == 3
        assert ("selector 'firal' failed in round 1: regret guarantee violated: "
                "worst_min_eig_margin=-1.000000e+00" in capsys.readouterr().err)

    def test_audit_violated_guarantee_exit_code(self, monkeypatch, capsys):
        inject_report(monkeypatch, "select_batch",
                      AuditReport(np.array([0.5, -1.0]), np.array([2.0, -0.25])))
        assert main(["audit", "--pool-size", "25", "--budget", "40", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert "guarantees hold" not in captured.out
        assert "worst_min_eig_margin=-1.000000e+00" in captured.err
        assert "worst_trace_margin=-0.25" in captured.err

    def test_singular_whitening_exit_code(self, monkeypatch, capsys):
        # All relaxed weight on one candidate: with the two labeled points
        # and no ridge sigma has rank 3 of d(c-1) = 4, and its inverse root
        # raises.
        def one_point(budget, Hp0, fishers):
            z = np.zeros(fishers.shape[0])
            z[0] = budget
            return RelaxResult(z=z, objective=1.0, gap=0.0, n_iter=0, best_iter=0,
                               box_violations=0)

        monkeypatch.setattr(firal_round, "relax_solve", one_point)
        assert main(["run", "--selector", "firal", "--budget", "2", "--rounds", "1",
                     "--pool-size", "30", "--classes", "2", "--dim", "4",
                     "--ridge", "0"]) == 3
        assert "inv_sqrt_psd: matrix is singular" in capsys.readouterr().err

    def test_theory_mode_records_trace_margin(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--selector", "firal", "--theory-mode", "--budget", "4",
                     "--rounds", "2", "--pool-size", "60", "--classes", "2",
                     "--dim", "2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        col = CSV_COLUMNS.index("margin_trace")
        assert np.isnan(float(rows[0][col]))
        for row in rows[1:]:
            assert np.isfinite(float(row[col])) and float(row[col]) >= -1e-8

    def test_sweep_stdout_equals_out_file(self, tmp_path, capsys):
        args = ["sweep", "--dim", "2", "--n", "60", "--targets", "1.5,4", "--seeds", "2",
                "--n-mc", "4000", "--risk-points", "200"]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1 + 2 * 2
        assert printed == out.read_text()

    def test_missing_file_exit_code(self):
        assert main(["run", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_numerical_failure_exit_code(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("relaxed aggregate is singular")

        monkeypatch.setattr(firal_round, "relax_solve", fail)
        assert main(["run", "--selector", "firal", "--budget", "2", "--rounds", "1",
                     "--pool-size", "30", "--classes", "2", "--dim", "2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_uncertified_relaxation_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(relax, "MAX_NEWTON_STEPS", 1)
        assert main(["run", "--selector", "firal", "--budget", "2", "--rounds", "1",
                     "--pool-size", "30", "--classes", "2", "--dim", "2"]) == 3
        assert "not certified" in capsys.readouterr().err

    def test_stalled_relaxation_exits_at_once(self, monkeypatch, capsys):
        # Newton and pairwise steps that never move leave the first outer
        # round, whose support is the whole 10-point pool, unchanged;
        # repeating it would idle up to MAX_NEWTON_STEPS.
        derivatives, calls = relax._Support.derivatives, []

        def counted(self, w):
            calls.append(len(w))
            return derivatives(self, w)

        monkeypatch.setattr(relax._Support, "derivatives", counted)
        monkeypatch.setattr(relax, "_newton_direction",
                            lambda w, g, H: np.zeros_like(w))
        monkeypatch.setattr(relax, "_step", lambda support, w, f, g, d: None)
        assert main(["audit", "--classes", "3", "--dim", "2", "--pool-size", "10",
                     "--budget", "5"]) == 3
        err = capsys.readouterr().err
        assert "changed neither the support nor the weights, gap" in err
        assert len(calls) < 10

    def test_non_finite_dataset_exit_code(self, tmp_path, capsys):
        path = tmp_path / "pool.csv"
        path.write_text("x_1,x_2,y\n0.5,1.0,1\n-0.5,inf,2\n1.5,2.0,1\n")
        assert main(["run", "--data", str(path), "--selector", "random",
                     "--budget", "1", "--rounds", "1"]) == 2
        assert "data row 2" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "firal", "run", "--seed", "1",
             "--selector", "random", "--budget", "2", "--rounds", "1",
             "--pool-size", "30", "--classes", "2", "--dim", "2"],
            capture_output=True, text=True, env=_firal_env(),
        )
        assert proc.returncode == 0
        assert "round=1" in proc.stdout

    def test_package_imports_no_scipy(self):
        # numpy is the only runtime dependency.  A fresh interpreter, since
        # the test modules import scipy themselves.
        # ``import firal`` alone is the library: one round resolves from it
        # without loading the harness or the baselines.
        code = ("import sys, firal; "
                "print(firal.select_firal.__module__, firal.round_fishers.__module__, "
                "[n for n in ('firal.cli', 'firal.baselines') if n in sys.modules]); "
                "import firal.cli; "
                "print(sorted(n for n in sys.modules "
                "if n == 'scipy' or n.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_firal_env())
        assert proc.returncode == 0, proc.stderr
        library, scipy = proc.stdout.splitlines()
        assert library == "firal.round firal.round []"
        assert scipy == "[]"


def _firal_env():
    """Environment for a subprocess that imports the same firal as these
    tests, installed or not."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
