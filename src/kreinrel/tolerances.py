"""Tolerance policy and complex-matrix validation shared by the whole package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


class DimensionMismatchError(ValueError):
    """Operands live in incompatible ambient spaces."""


def _count(mask: np.ndarray):
    """True entries along the last axis, an int for a 1-D mask."""
    return int(np.count_nonzero(mask)) if mask.ndim == 1 else np.count_nonzero(mask, axis=-1)


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds for rank decisions and subspace comparisons, and the only
    code that reads them: every decision calls one of the rules below.

    rank_rel: relative singular-value cutoff (scaled by the largest
        singular value), in [machine epsilon, 1).
    rank_abs: absolute singular-value floor of spans and kernels, below 1:
        no cut reaches the singular values of an orthonormal frame.
    angle_tol: largest principal angle, in radians (at most pi/2), at which
        two subspaces still count as equal; `negligible` applies the same
        cut to the relative residual of every identity, neutrality included.

    The rank rules take singular values already computed, in descending
    order: a 1-D array gives an int, a stack along the last axis an array.
    `span_full_certified` proves the span rule's full-rank answer on a
    square matrix instead, without its singular values.
    """

    rank_rel: float = 1e-10
    rank_abs: float = 1e-12
    angle_tol: float = 1e-8

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.rank_rel, self.rank_abs, self.angle_tol)):
            raise ValueError("tolerances must be strictly positive and finite")
        if not (_EPS <= self.rank_rel < 1 and self.rank_abs < 1 and self.angle_tol <= np.pi / 2):
            raise ValueError("rank_rel must lie in [eps, 1), rank_abs below 1, angle_tol <= pi/2")

    def rank_cut(self, largest):
        return np.fmax(self.rank_abs, self.rank_rel * largest)

    def span_rank(self, s: np.ndarray):
        """The span rule, for spans, kernels and regularity: the number of s
        above rank_cut of the largest."""
        return _count(s > self.rank_cut(s[..., :1]))

    def span_full_certified(self, r: np.ndarray) -> bool:
        """A proof, without singular values, that the span rule gives the
        square matrix r, or every matrix of a stack, full rank; False means
        undecided, not deficient.

        r is scaled by its largest entry, rank_abs with it.  A Cholesky
        factorization of r r^H - c^2 I with c^2 = (2 rank_cut(||r||_F))^2 +
        4 (rows + 1)^2 eps ||r||_F^2 exists only if sigma_min(r) > 2
        rank_cut(sigma_max(r)): the second term exceeds the rounding of the
        Gram and of the factorization (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 10), so the span rule keeps every computed
        singular value.  When 2 rank_cut >= ||r||_F no proof is tried.
        """
        rows = r.shape[-1]
        top = np.abs(r).max(axis=(-2, -1))
        if not 0 < top.min() <= top.max() < np.inf:  # a zero or overflowed r
            return False
        s = r / top[..., None, None]
        g = s @ s.conj().swapaxes(-2, -1)
        diag = np.einsum("...ii->...i", g)  # a writable view of g's diagonal
        fro2 = diag.real.sum(-1)
        fro = np.sqrt(fro2)
        if (self.rank_abs / fro >= top / 2).any():  # 2 rank_cut >= ||r||_F
            return False
        cut = np.fmax(self.rank_abs / top, self.rank_rel * fro)  # rank_cut(||r||_F) / top
        diag -= (4 * cut * cut + 4 * (rows + 1) ** 2 * _EPS * fro2)[..., None]
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
        return True

    def map_rank(self, s: np.ndarray):
        """The map rule, for the rank of a map: the number of s above rank_rel
        times the largest, with no absolute floor."""
        return _count(s > self.rank_rel * s[..., :1])

    def map_rank_of(self, m: np.ndarray):
        """The map rule on a matrix, or on each of a stack."""
        return np.linalg.matrix_rank(m, rtol=self.rank_rel)

    def apart(self, sines: np.ndarray):
        """The intersection rule: the number of principal-angle sines above
        rank_cut(1.0), the directions outside the intersection."""
        return _count(sines > self.rank_cut(1.0))

    def angle_equal(self, theta):
        """The angle-equality rule: theta <= angle_tol."""
        return theta <= self.angle_tol

    def angle_differs(self, theta):
        """theta > angle_tol: a NaN angle neither differs nor is equal."""
        return theta > self.angle_tol

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

