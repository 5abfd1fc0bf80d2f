"""CSV dataset format: feature columns ``x_1..x_d`` plus a 1-based integer
label column ``y``.  A header row is required.  Feature-only matrices use
the same convention without the label column.
"""

from __future__ import annotations

import numpy as np


def _float_repr(v):
    return f"{v:.17g}"


def save_dataset(path, X, y=None):
    """Write features, and the label column unless ``y`` is None, with the
    required header row; :func:`load_dataset` reads it back."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (y is not None and len(X) != len(y)):
        raise ValueError("X must be (n, d) with one label per row")
    header = [f"x_{j + 1}" for j in range(X.shape[1])] + ([] if y is None else ["y"])
    ends = [""] * len(X) if y is None else [f",{label}" for label in np.asarray(y, dtype=int)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row, end in zip(X, ends):
            fh.write(",".join(_float_repr(v) for v in row) + end + "\n")


def load_dataset(path):
    """Read a dataset CSV; returns ``(X, y)`` with ``y`` possibly ``None``.

    The header must be ``x_1,...,x_d`` optionally followed by ``y``, and
    every value must be finite.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: missing header row")
        cols = header.split(",")
        has_labels = cols[-1] == "y"
        d = len(cols) - 1 if has_labels else len(cols)
        expected = [f"x_{j + 1}" for j in range(d)]
        if cols[:d] != expected:
            raise ValueError(
                f"{path}: header must be x_1..x_{d}[,y], got {header!r}"
            )
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(cols):
        raise ValueError(f"{path}: row width does not match header")
    bad_rows = np.flatnonzero(~np.isfinite(body).all(axis=1))
    if bad_rows.size:
        raise ValueError(
            f"{path}: data row {bad_rows[0] + 1} holds a NaN or infinite value"
        )
    if has_labels:
        X = body[:, :-1]
        y = body[:, -1]
        if not np.all(y == np.round(y)) or np.any(y < 1):
            raise ValueError(f"{path}: labels must be 1-based integers")
        return X, y.astype(int)
    return body, None
