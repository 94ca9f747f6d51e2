"""Tolerance-aware complex subspace arithmetic.

Every subspace is stored as an orthonormal column frame obtained from an
SVD or a Householder QR; the trivial subspace is a zero-column frame.  All
comparisons are quantitative: equality, containment and intersection read
principal angles off projection residuals F_A - F_B F_B^H F_A, and each
decision is a `TolerancePolicy` rule: the span rule for ranks, the
intersection rule for `intersect`, the angle-equality rule for `equal` and
`contains`.  `Subspace(frame)` holds the frame alone: the ambient dimension
is its row count and the dimension its column count.  Frames are read-only.
A caller's frame is copied, Gram-checked (defect <= 1e-8) and
orthonormalized past roundoff; frames this module computes from an SVD or a
Householder QR are orthonormal to roundoff and skip that check.  A rank is
decided where it can drop: an injective image of a decided frame, such as a
full-rank basis times a kernel frame, takes one QR (`_injective_span`), and a
matrix of proven full rank whose frame a seeded draw reads takes the left
vectors of its SVD (`_svd_span`).

`span(m)` is the column span of a matrix and `kernel(m)` its null space in
C^cols.  Each takes one of two routes by shape, and SVD vectors are paid for
only where a rank is in doubt.  A wide m with at least `_QR_MIN_ROWS` rows
(`kernel`), or a tall one with at least `_QR_MIN_ROWS` columns (`span`,
`sum_`, `image`), is factored by one Householder QR, and the policy's
certificate (`span_full_certified`) proves the full rank of its square
factor R; only an undecided R takes an SVD, of R.  Every other shape takes
an SVD of m.  `complement` reads a complete QR of its frame from
`_QR_MIN_ROWS` ambient rows on, and `intersect` the sines of a residual
with at least `_QR_MIN_ROWS` columns off the square factor of an R-only QR;
each takes an SVD below, where the QR costs more.  The angle behind
`distance`, `equal` and `contains` is read off the residual's Gram at every
shape (`_arcsin_norm`), as are the angles that `relations` reads off a
relation's Green rows.  `span` and `kernel` also take a stack (k, rows, cols)
of matrices and return the list of the k subspaces from stacked LAPACK
calls, each item decided by the span rule and giving the frame of its own
2-D call; a 2-D matrix keeps the unstacked path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy, as_matrix

_ROUNDOFF = 16 * float(np.finfo(np.float64).eps)  # Gram defect per column, orthonormal frames

# Fewest rows at which `kernel` takes a wide matrix through one Householder QR
# of its conjugate transpose; fewest columns at which `span` takes a tall one
# through its QR and `intersect` reads its residual's sines off an R-only QR;
# fewest ambient rows at which `complement` reads a complete QR.  Per-call
# minimum of 7 repeats on random blocks, one OpenBLAS thread, old vs new route:
#   kernel, full SVD vs QR and certificate: 12x15 38 vs 43 us, 16x20 62 vs
#     51 us, 32x40 206 vs 104 us, 64x80 1010 vs 408 us;
#   span, reduced SVD vs QR and certificate: 16x8 32 vs 46 us, so narrower
#     spans keep the SVD; 32x16 84 vs 61 us, 96x36 434 vs 174 us, 192x96 4.5
#     vs 2.5 ms;
#   intersect's residual, reduced SVD vs R-only QR and SVD of R: 24x12 45 vs
#     51 us, 32x12 48 vs 53 us; at 16 columns a tie, 32x16 77 vs 79 us and
#     48x16 83 vs 79 us; 64x32 274 vs 234 us, 96x48 715 vs 631 us;
#   complement, full SVD vs complete QR: 8x4 13 vs 16 us, 12x6 17 vs 18 us;
#     16x8 21 vs 20 us, 24x12 44 vs 28 us, 64x32 274 vs 145 us.
# Below 16, numpy's QR overhead loses on each.  The gate also keeps every
# frame below 16 rows an SVD's.
_QR_MIN_ROWS = 16


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal n-row frame; n is
    `ambient_dim`.  `==` is identity; `equal` compares subspaces."""

    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = as_matrix(self.frame).copy()
        if f.shape[1] > f.shape[0]:
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

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Frame coordinates of ambient vectors (columns)."""
        return self.frame.conj().T @ vectors


def _trusted(frame: np.ndarray) -> Subspace:
    """A Subspace around an orthonormal frame computed here, unchecked."""
    frame.flags.writeable = False
    s = object.__new__(Subspace)
    object.__setattr__(s, "frame", frame)
    return s


def _pinv(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """V S^-1 U^H from a reduced SVD whose full rank the caller decided under
    its policy, so every singular value is inverted."""
    return vh.conj().T @ ((1.0 / s)[:, None] * u.conj().T)


def _orth(columns: np.ndarray, tol: TolerancePolicy):
    """Orthonormal basis of the column span, ranked by the span rule; the
    list of the bases of each matrix of a stack.

    A tall m with at least _QR_MIN_ROWS columns is factored as m = QR, and m
    has the singular values of R.  When the policy's certificate proves R
    full rank, Q is the basis; otherwise one SVD R = U S V^H gives the rank
    by the span rule, and the basis is Q at full rank or Q U[:, :rank].  A
    stack is certified as a whole, and each item still gets the basis of its
    own 2-D call.  Every other shape takes the left singular vectors of a
    reduced SVD of m.
    """
    if columns.size == 0:
        return np.zeros((*columns.shape[:-1], 0), dtype=np.complex128)
    rows, cols = columns.shape[-2:]
    if _QR_MIN_ROWS <= cols <= rows:
        q, r = np.linalg.qr(columns)
        if tol.span_full_certified(r):
            return q if q.ndim == 2 else list(q)
        u, s, _ = np.linalg.svd(r)
        ranks = tol.span_rank(s)
        if q.ndim == 2:
            return q if ranks == cols else q @ u[:, :ranks]
        return [qi if rank == cols else qi @ ui[:, :rank] for qi, ui, rank in zip(q, u, ranks)]
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


def span(columns, tol: TolerancePolicy = DEFAULT_TOL):
    """Column span of a matrix (a vector is one column); the list of the
    column spans of each matrix of a stack (k, rows, cols)."""
    if isinstance(columns, np.ndarray) and columns.ndim == 3:
        return [_trusted(f) for f in _orth(_as_stack(columns), tol)]
    return _trusted(_orth(as_matrix(columns), tol))


def _injective_span(columns: np.ndarray):
    """Column span of a matrix of decided full column rank: one QR, no rank
    cut; the list of the column spans of each matrix of a stack.  A matrix
    with no columns spans the trivial subspace, which takes no QR call."""
    q = np.linalg.qr(columns)[0] if columns.size else np.zeros(columns.shape, np.complex128)
    return _trusted(q) if q.ndim == 2 else [_trusted(qi) for qi in q]


def _svd_span(columns: np.ndarray) -> Subspace:
    """Column span of a matrix of decided full column rank, framed by the left
    singular vectors of its reduced SVD: no rank cut, and a frame fixed by the
    matrix alone, whatever route `span` takes."""
    return _trusted(np.linalg.svd(columns, full_matrices=False)[0])


def trivial(ambient_dim: int) -> Subspace:
    return Subspace(np.zeros((ambient_dim, 0), dtype=np.complex128))


def full(ambient_dim: int) -> Subspace:
    return Subspace(np.eye(ambient_dim, dtype=np.complex128))


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")


def complement(a: Subspace) -> Subspace:
    """Euclidean orthocomplement: the trailing columns of a complete QR of
    A's frame from _QR_MIN_ROWS ambient rows on, of a full SVD below.  The
    frame has full column rank, so neither takes a rank decision."""
    if a.ambient_dim >= _QR_MIN_ROWS:
        return _trusted(np.linalg.qr(a.frame, mode="complete")[0][:, a.dim:])
    u, _, _ = np.linalg.svd(a.frame, full_matrices=True)
    return _trusted(u[:, a.dim :])


def sum_(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    _check_same_ambient(a, b)
    return _trusted(_orth(np.hstack([a.frame, b.frame]), tol))


def intersect(a: Subspace, b: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """A ∩ B from one reduced SVD of the smaller frame's projection residual.

    R = F_A - F_B F_B^H F_A has the sines of A's principal angles to B as
    singular values.  The directions F_A v that the policy's intersection rule
    (`apart`), a rule on the angle alone, does not set apart span A ∩ B,
    orthonormally since F_A is.  From dim A >= _QR_MIN_ROWS on, the sines and
    right singular vectors are those of the square factor of an R-only QR
    of R, which forms no left vectors.
    """
    _check_same_ambient(a, b)
    a, b = (a, b) if a.dim <= b.dim else (b, a)
    residual = a.frame - b.frame @ b.coords(a.frame)
    if a.dim >= _QR_MIN_ROWS:
        residual = np.linalg.qr(residual, mode="r")
    _, s, vh = np.linalg.svd(residual, full_matrices=False)
    return _trusted(a.frame @ vh[tol.apart(s):].conj().T)


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
    return _trusted(a.frame @ vh[tol.apart(s):].conj().T)


def kernel(m: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL):
    """Null space of a matrix as a Subspace of its column ambient.

    The rank is the policy's span rule, and each shape takes one route.  A
    wide m with at least _QR_MIN_ROWS rows is factored as m^H = QR, and Q =
    [Q1, Q2] splits after its first rows columns: m has the singular values
    of the square block R[:rows].  When the policy's certificate
    (`span_full_certified`) proves R full rank, Q2 spans ker m.  Otherwise
    one SVD R[:rows] = U S V^H gives the rank by the span rule and the frame
    [Q1 U[:, rank:], Q2] (Golub and Van Loan, Matrix Computations, 5.4).
    Every other shape takes the right singular vectors of a full SVD of m;
    for an m with no rows they are exactly the identity.  A stack (k, rows,
    cols) gives the list of the k null spaces (`_kernels`).
    """
    if isinstance(m, np.ndarray) and m.ndim == 3:
        return _kernels(_as_stack(m), tol)
    m = as_matrix(m)
    rows, n = m.shape
    if _QR_MIN_ROWS <= rows < n:
        q, r = np.linalg.qr(m.conj().T, mode="complete")
        r = r[:rows]
        if tol.span_full_certified(r):
            return _trusted(q[:, rows:])
        u, s, _ = np.linalg.svd(r)
        return _trusted(np.hstack([q[:, :rows] @ u[:, tol.span_rank(s):], q[:, rows:]]))
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return _trusted(vh[tol.span_rank(s):].conj().T)


def _kernels(m: np.ndarray, tol: TolerancePolicy) -> list[Subspace]:
    """`kernel` of each matrix of a stack, all by the route of their shape:
    one stacked QR and one certificate for the whole stack, then one stacked
    SVD of R with vectors unless the certificate proves every item full
    rank; or one stacked full SVD of m."""
    k, rows, n = m.shape
    if m.size == 0:
        return [full(n) for _ in range(k)]
    if not _QR_MIN_ROWS <= rows < n:
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        return [_trusted(vhi[r:].conj().T) for r, vhi in zip(tol.span_rank(s), vh)]
    q, r = np.linalg.qr(m.conj().transpose(0, 2, 1), mode="complete")
    r = r[:, :rows]
    if tol.span_full_certified(r):
        return [_trusted(qi[:, rows:]) for qi in q]
    u, s, _ = np.linalg.svd(r)
    return [_trusted(np.hstack([qi[:, :rows] @ ui[:, rank:], qi[:, rows:]]))
            for qi, ui, rank in zip(q, u, tol.span_rank(s))]


def image(m: np.ndarray, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Image M(A) of a subspace under a linear map."""
    m = as_matrix(m, cols=a.ambient_dim)
    return _trusted(_orth(m @ a.frame, tol))


def preimage(m: np.ndarray, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Preimage {x : Mx in A}; always contains ker M."""
    m = as_matrix(m, rows=a.ambient_dim)
    ca = complement(a)
    return kernel(ca.frame.conj().T @ m, tol)


def product(a: Subspace, b: Subspace) -> Subspace:
    """A x B inside C^(dimA_ambient + dimB_ambient)."""
    n1, n2 = a.ambient_dim, b.ambient_dim
    f = np.zeros((n1 + n2, a.dim + b.dim), dtype=np.complex128)
    f[:n1, : a.dim] = a.frame
    f[n1:, a.dim :] = b.frame
    return Subspace(f)


def _arcsin_norm(m: np.ndarray) -> float:
    """arcsin ||m||_2, capped at pi/2, for an m whose 2-norm is a sine.  The
    largest sine is sqrt(lambda_max(m^H m)), read off the Gram's eigenvalues:
    the largest eigenvalue of a Gram is accurate relative to itself.  The
    Gram and its eigenvalues cost less than m's singular values at every
    shape measured, 4 x 2 to 64 x 32."""
    top = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m).max(initial=0.0))
    return float(np.arcsin(min(1.0, top)))


def _angle(a: Subspace, b: Subspace) -> float:
    """Largest principal angle from B to A: arcsin ||F_B - P_A F_B||_2.

    The residual is what the projector onto A leaves of B's frame; its sine
    form stays accurate for very small angles (unlike arccos of a
    cross-Gram singular value).  Where A^perp has a known orthonormal frame
    C, the residual's norm is ||C^H F_B||_2, which callers read with
    `_arcsin_norm` instead, building no frame of A.
    """
    return _arcsin_norm(b.frame - a.frame @ a.coords(b.frame))


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
