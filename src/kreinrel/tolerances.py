"""Tolerance policy and complex-matrix validation shared by the whole package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


class DimensionMismatchError(ValueError):
    """Operands live in incompatible ambient spaces."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds for rank decisions and subspace comparisons.

    rank_rel: relative singular-value cutoff (scaled by the largest
        singular value), must stay at or above machine epsilon.
    rank_abs: absolute singular-value floor of spans and kernels.
    angle_tol: largest principal angle, in radians (at most pi/2), at which
        two subspaces still count as equal; `negligible` applies the same
        cut to the relative residual of every identity, neutrality included.
    """

    rank_rel: float = 1e-10
    rank_abs: float = 1e-12
    angle_tol: float = 1e-8

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.rank_rel, self.rank_abs, self.angle_tol)):
            raise ValueError("tolerances must be strictly positive and finite")
        if self.rank_rel < _EPS or self.angle_tol > np.pi / 2:
            raise ValueError("rank_rel must be at least machine epsilon, angle_tol at most pi/2")

    def rank_cut(self, largest_sv: float) -> float:
        return max(self.rank_abs, self.rank_rel * largest_sv)

    def negligible(self, residual, scale):
        return residual <= self.angle_tol * scale


DEFAULT_TOL = TolerancePolicy()


def as_matrix(entries, rows=None, cols=None) -> np.ndarray:
    """Validate and return a complex matrix (finite entries, optional shape)."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatchError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatchError(f"expected {cols} cols, got {m.shape[1]}")
    return m

