"""Dataset CSV format tests: round trips, header contract, precision."""

import numpy as np
import pytest

from firal.data import load_dataset, save_dataset


class TestDatasetRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3)) * np.pi
        y = rng.integers(1, 4, size=7)
        path = tmp_path / "data.csv"
        save_dataset(path, X, y)
        X2, y2 = load_dataset(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)

    def test_header_written(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(path, np.ones((2, 2)), np.array([1, 2]))
        assert path.read_text().splitlines()[0] == "x_1,x_2,y"

    def test_matrix_without_labels(self, tmp_path):
        path = tmp_path / "mat.csv"
        M = np.random.default_rng(1).normal(size=(4, 2))
        save_dataset(path, M)
        M2, y = load_dataset(path)
        np.testing.assert_array_equal(M, M2)
        assert y is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,1\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_fractional_labels_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("x_1,y\n0.5,1.5\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("text,row", [
        ("x_1,x_2,y\n0.5,1.0,1\n2.0,3.0,2\n1.0,nan,1\n", 3),
        ("x_1,x_2,y\n0.5,inf,1\n", 1),
        ("x_1,x_2\n0.5,1.0\n-inf,2.0\n", 2),
        ("x_1,y\n0.5,1\n0.7,inf\n", 2),
    ], ids=["nan", "inf", "matrix", "label"])
    def test_non_finite_values_rejected_with_row(self, tmp_path, text, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"data row {row} "):
            load_dataset(path)
