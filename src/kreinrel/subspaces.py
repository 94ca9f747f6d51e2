"""Tolerance-aware complex subspace arithmetic.

Every subspace is stored as an orthonormal column frame obtained from an
SVD or a Householder QR; the trivial subspace is a zero-column frame.  All
comparisons are quantitative: equality, containment and intersection read
principal angles off projection residuals F_A - F_B F_B^H F_A, and each
decision is a `TolerancePolicy` rule: the span rule for ranks, the
intersection rule for `intersect`, the angle-equality rule for `equal` and
`contains`.  Frames are read-only.  A caller's frame is copied, Gram-checked
(defect <= 1e-8) and orthonormalized past roundoff; frames this module
computes from an SVD or a Householder QR are orthonormal to roundoff and
skip that check.

`span` and `kernel` also take a stack (k, rows, cols) of matrices and return
the list of the k subspaces from stacked LAPACK calls, each item decided by
the span rule and giving the frame of its own 2-D call; a 2-D matrix keeps
the unstacked path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy, as_matrix

_ROUNDOFF = 16 * float(np.finfo(np.float64).eps)  # Gram defect per column, orthonormal frames

# Fewest rows at which `kernel` takes a wide matrix through one Householder QR
# of its conjugate transpose.  Per-call minimum on a full-rank random block, one
# OpenBLAS thread, full SVD vs QR and certificate: 12x15 38 vs 43 us, 16x20 62
# vs 51 us, 32x40 206 vs 104 us, 64x80 1010 vs 408 us; below 16 rows numpy's
# QR overhead loses.  The gate also keeps every frame below 16 rows an SVD's.
_QR_MIN_ROWS = 16


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim held as an orthonormal frame.  `==` is
    identity; `equal` compares subspaces."""

    ambient_dim: int
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = as_matrix(self.frame, rows=self.ambient_dim).copy()
        if f.shape[1] > self.ambient_dim:
            raise ValueError("frame has more columns than the ambient dimension")
        if f.shape[1]:
            gram = f.conj().T @ f
            defect = np.abs(gram - np.eye(f.shape[1])).max()
            if defect > 1e-8:
                raise ValueError("frame columns are not orthonormal")
            if defect > _ROUNDOFF * f.shape[1]:
                # f <- f L^-H with gram = L L^H: orthonormal to roundoff, same span
                f = np.linalg.solve(np.linalg.cholesky(gram), f.conj().T).conj().T
        f.flags.writeable = False
        object.__setattr__(self, "frame", f)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Frame coordinates of ambient vectors (columns)."""
        return self.frame.conj().T @ vectors


def _trusted(ambient_dim: int, frame: np.ndarray) -> Subspace:
    """A Subspace around an orthonormal frame computed here, unchecked."""
    frame.flags.writeable = False
    s = object.__new__(Subspace)
    object.__setattr__(s, "ambient_dim", ambient_dim)
    object.__setattr__(s, "frame", frame)
    return s


def _pinv(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """V S^-1 U^H from a reduced SVD, by `np.linalg.pinv`'s default cut: 1/s
    is 0 where s <= 1e-15 times the largest."""
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s.max(initial=0.0))
    return vh.conj().T @ (inv[:, None] * u.conj().T)


def _orth(columns: np.ndarray, tol: TolerancePolicy):
    """Orthonormal basis of the column span, ranked by the span rule; the
    list of the bases of each matrix of a stack."""
    if columns.size == 0:
        return np.zeros((*columns.shape[:-1], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if columns.ndim == 2:
        return u[:, :tol.span_rank(s)]
    return [ui[:, :r] for ui, r in zip(u, tol.span_rank(s))]


def _as_stack(entries) -> np.ndarray:
    """Validate and return a stack (k, rows, cols) of finite complex matrices."""
    m = np.asarray(entries, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _stacked(f, matrices: list) -> list:
    """[f(m) for m in matrices] from one call of f per shape, on the stack of the
    matrices of that shape; f maps a stack (k, rows, cols) to k results."""
    out = [None] * len(matrices)
    shapes: dict = {}
    for i, m in enumerate(matrices):
        shapes.setdefault(m.shape, []).append(i)
    for items in shapes.values():
        for i, value in zip(items, f(np.stack([matrices[i] for i in items]))):
            out[i] = value
    return out


def span(vectors, tol: TolerancePolicy = DEFAULT_TOL):
    """Linear hull of the given ambient vectors (list or column matrix); the
    list of the hulls of each column matrix of a stack (k, rows, cols)."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 3:
        return [_trusted(vectors.shape[1], f) for f in _orth(_as_stack(vectors), tol)]
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = vectors
    else:
        vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not vecs:
            raise ValueError("span of an empty list needs an explicit ambient dim; use trivial()")
        n = vecs[0].shape[0]
        for v in vecs:
            if v.shape[0] != n:
                raise DimensionMismatchError("vectors of mixed ambient dimension")
        cols = np.column_stack(vecs)
    cols = as_matrix(cols)
    return _trusted(cols.shape[0], _orth(cols, tol))


def trivial(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))


def full(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")


def complement(a: Subspace) -> Subspace:
    """Euclidean orthocomplement."""
    n, r = a.ambient_dim, a.dim
    if r == 0:
        return full(n)
    u, _, _ = np.linalg.svd(a.frame, full_matrices=True)
    return _trusted(n, u[:, r:])


def sum_(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    _check_same_ambient(a, b)
    return _trusted(a.ambient_dim, _orth(np.hstack([a.frame, b.frame]), tol))


def intersect(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """A ∩ B from one reduced SVD of the smaller frame's projection residual.

    R = F_A - F_B F_B^H F_A has the sines of A's principal angles to B as
    singular values.  The directions F_A v that the policy's intersection rule
    (`apart`), a rule on the angle alone, does not set apart span A ∩ B,
    orthonormally since F_A is.
    """
    _check_same_ambient(a, b)
    a, b = (a, b) if a.dim <= b.dim else (b, a)
    _, s, vh = np.linalg.svd(a.frame - b.frame @ b.coords(a.frame), full_matrices=False)
    return _trusted(a.ambient_dim, a.frame @ vh[tol.apart(s):].conj().T)


def _meet_complement(a: Subspace, t: Subspace, tol: TolerancePolicy) -> Subspace:
    """A ∩ T-perp by `intersect`'s rule, from one SVD of F_T^H F_A and no frame
    of T-perp.

    F_T^H F_A has the cosines of A's principal angles to T, which are the
    sines of its angles to T-perp, as singular values; the right singular
    vectors past the first dim T have sine 0.  The directions F_A v that the
    intersection rule keeps span A ∩ T-perp, as `intersect(a, complement(t))`
    finds them whenever dim A <= dim T-perp.
    """
    _check_same_ambient(a, t)
    _, s, vh = np.linalg.svd(t.coords(a.frame), full_matrices=True)
    return _trusted(a.ambient_dim, a.frame @ vh[tol.apart(s):].conj().T)


def kernel(m: np.ndarray, ambient_dim=None, tol: TolerancePolicy = DEFAULT_TOL):
    """Null space of a matrix as a Subspace of its column ambient.

    The rank is the policy's span rule, and the frame comes from an SVD or a
    Householder QR.  A wide m with at least _QR_MIN_ROWS rows is first
    factored as m^H = QR: m has the singular values of the square block
    R[:rows], and when the rule gives them full rank, Q's trailing
    cols - rows columns span ker m.  The policy's certificate
    (`span_full_certified`) proves that answer first; only when it is
    undecided does the rule read a values-only SVD of R.  A rank-deficient m
    and every other shape take the right singular vectors of a full SVD.
    A stack (k, rows, cols) gives the list of the k null spaces (`_kernels`).
    """
    if isinstance(m, np.ndarray) and m.ndim == 3:
        return _kernels(_as_stack(m), ambient_dim, tol)
    m = as_matrix(m) if m.size else np.asarray(m, dtype=np.complex128)
    n = m.shape[1] if m.ndim == 2 else (ambient_dim or 0)
    if ambient_dim is not None and n != ambient_dim:
        raise DimensionMismatchError("kernel ambient mismatch")
    if m.size == 0 or m.shape[0] == 0:
        return full(n)
    rows = m.shape[0]
    if _QR_MIN_ROWS <= rows < n:
        q, r = np.linalg.qr(m.conj().T, mode="complete")
        r = r[:rows]
        if (tol.span_full_certified(r)
                or tol.span_rank(np.linalg.svd(r, compute_uv=False)) == rows):
            return _trusted(n, q[:, rows:])
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return _trusted(n, vh[tol.span_rank(s):].conj().T)


def _kernels(m: np.ndarray, ambient_dim, tol: TolerancePolicy) -> list[Subspace]:
    """`kernel` of each matrix of a stack: one stacked QR and one certificate
    for the whole stack, a stacked values-only SVD of R only when the
    certificate is undecided, then one stacked full SVD of the items that are
    rank-deficient or take no QR."""
    k, rows, n = m.shape
    if ambient_dim is not None and n != ambient_dim:
        raise DimensionMismatchError("kernel ambient mismatch")
    if m.size == 0:
        return [full(n) for _ in range(k)]
    out = [None] * k
    if _QR_MIN_ROWS <= rows < n:
        q, r = np.linalg.qr(m.conj().transpose(0, 2, 1), mode="complete")
        r = r[:, :rows]
        if tol.span_full_certified(r):
            out = [_trusted(n, qi[:, rows:]) for qi in q]
        else:
            for i in np.flatnonzero(tol.span_rank(np.linalg.svd(r, compute_uv=False)) == rows):
                out[i] = _trusted(n, q[i][:, rows:])
    rest = [i for i, f in enumerate(out) if f is None]
    if rest:
        _, s, vh = np.linalg.svd(m[rest], full_matrices=True)
        for i, r, vhi in zip(rest, tol.span_rank(s), vh):
            out[i] = _trusted(n, vhi[r:].conj().T)
    return out


def image(m: np.ndarray, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Image M(A) of a subspace under a linear map."""
    m = as_matrix(m, cols=a.ambient_dim)
    return _trusted(m.shape[0], _orth(m @ a.frame, tol))


def preimage(m: np.ndarray, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Preimage {x : Mx in A}; always contains ker M."""
    m = as_matrix(m, rows=a.ambient_dim)
    ca = complement(a)
    return kernel(ca.frame.conj().T @ m, m.shape[1], tol)


def product(a: Subspace, b: Subspace) -> Subspace:
    """A x B inside C^(dimA_ambient + dimB_ambient)."""
    n1, n2 = a.ambient_dim, b.ambient_dim
    f = np.zeros((n1 + n2, a.dim + b.dim), dtype=np.complex128)
    f[:n1, : a.dim] = a.frame
    f[n1:, a.dim :] = b.frame
    return Subspace(n1 + n2, f)


def _angle(a: Subspace, b: Subspace) -> float:
    """Largest principal angle from B to A: arcsin ||F_B - P_A F_B||_2.

    The residual is what the projector onto A leaves of B's frame; its
    sine form stays accurate for very small angles (unlike arccos of a
    cross-Gram singular value).
    """
    sines = np.linalg.svd(b.frame - a.frame @ a.coords(b.frame), compute_uv=False)
    return float(np.arcsin(min(1.0, sines.max(initial=0.0))))


def distance(a: Subspace, b: Subspace) -> float:
    """Largest principal angle when dims match, +inf sentinel otherwise."""
    _check_same_ambient(a, b)
    return _angle(a, b) if a.dim == b.dim else np.inf


def equal(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    _check_same_ambient(a, b)
    return a.dim == b.dim and tol.angle_equal(_angle(a, b))


def contains(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether B is a subset of A, by the same angle rule as `equal`."""
    _check_same_ambient(a, b)
    return tol.angle_equal(_angle(a, b))
