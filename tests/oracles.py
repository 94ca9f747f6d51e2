"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: exact rational
Gaussian elimination for ranks, cross-Gram SVD and the projector gap
for principal angles, raw SVD null spaces and the Weyl values read off
them, hand-rolled graph joins for compositions, the literal indefinite
inner product and the [.,.]-orthogonal companion, the complement-and-flip
route for adjoints and the canonical operator part of V0 for (V0)_s.  The
routes the library replaced are kept here as references too: the SVD span of
an operator's graph, Gamma V^{-1} by composing relations, z-fibres by
intersecting a graph with a cage around the graph of zI, A ∩ T-perp by
intersecting with T's complement, spans over a triple's basis coordinates
from the 2n-row products, `np.linalg.pinv`, the SVD spans of unitary images
of frames, the eager parts of a relation, the signature from `eigvalsh`, and
the rank-then-pinv lift of dom N.  Four references the package no longer
holds live here too: the relation V0, the canonical operator part of a
relation, the forward Cayley transform and the relation spanned by a list of
graph vectors.  So do the decision expressions that `TolerancePolicy`'s rules
replaced, written out against the policy's fields, and the SVD span of M_hat.
"""

from fractions import Fraction

import numpy as np


class QComplex:
    """Gaussian rational a + b*i with exact Fraction arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError
        return QComplex((self.re * other.re + self.im * other.im) / d,
                        (self.im * other.re - self.re * other.im) / d)

    def is_zero(self):
        return self.re == 0 and self.im == 0


def exact_rank(int_matrix) -> int:
    """Rank over Q(i) by fraction-free-ish Gaussian elimination.

    Entries must be (complex) integers so the conversion is exact.
    """
    rows = [[QComplex(int(np.real(x)), int(np.imag(x))) for x in row]
            for row in np.atleast_2d(int_matrix)]
    rank = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pval = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col].is_zero():
                continue
            factor = rows[r][col] / pval
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def principal_angles_arccos(frame_a: np.ndarray, frame_b: np.ndarray) -> np.ndarray:
    """Classic arccos-of-cross-Gram-singular-values principal angles."""
    if frame_a.shape[1] == 0 or frame_b.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(frame_a.conj().T @ frame_b, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def projector_gap_angle(frame_a: np.ndarray, frame_b: np.ndarray) -> float:
    """Largest principal angle from the gap metric ||P_A - P_B||_2 = sin(theta)."""
    pa = frame_a @ frame_a.conj().T
    pb = frame_b @ frame_b.conj().T
    return float(np.arcsin(min(1.0, np.linalg.norm(pa - pb, ord=2))))


def svd_nullspace(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > tol * (s[0] if s.size else 1.0)))
    return vh[rank:].conj().T


def weyl_gamma_by_svd(triple, z: complex):
    """M(z) and gamma(z) from a raw SVD null space of D+ - zE+, where [E+; D+]
    is the adjoint's graph frame: its kernel k gives the defect graph columns
    frame k, whose boundary values Gamma0 and Gamma1 fix both values."""
    frame = triple.tplus.graph.frame
    n, d = triple.space.dim, triple.boundary_dim
    cols = frame @ svd_nullspace(frame[n:] - z * frame[:n])
    bvals = triple.gamma @ np.linalg.lstsq(triple.basis, cols, rcond=None)[0]
    inv0 = np.linalg.inv(bvals[:d])
    return bvals[d:] @ inv0, (cols @ inv0)[:n]


def kernel_by_qr_and_svd(m: np.ndarray, tol) -> np.ndarray:
    """`kernel`'s frame of a wide m with at least 16 rows, the full rank of the
    square factor R of m^H = QR decided by the span rule on R's singular
    values, with no certificate."""
    rows = m.shape[0]
    q, r = np.linalg.qr(m.conj().T, mode="complete")
    if tol.span_rank(np.linalg.svd(r[:rows], compute_uv=False)) == rows:
        return q[:, rows:]
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[tol.span_rank(s):].conj().T


def intersection_by_join(frame_a: np.ndarray, frame_b: np.ndarray,
                         tol: float = 1e-10) -> np.ndarray:
    """A ∩ B via the kernel of [A_frame | -B_frame], lifted back."""
    if frame_a.shape[1] == 0 or frame_b.shape[1] == 0:
        return np.zeros((frame_a.shape[0], 0), dtype=np.complex128)
    k = svd_nullspace(np.hstack([frame_a, -frame_b]), tol)
    lifted = frame_a @ k[: frame_a.shape[1], :]
    if lifted.shape[1] == 0:
        return lifted
    q, r = np.linalg.qr(lifted)
    keep = np.abs(np.diag(r)) > tol * max(1.0, np.abs(np.diag(r)).max())
    return q[:, keep]


def graph_join(inner_frame: np.ndarray, outer_frame: np.ndarray,
               n_in: int, n_mid: int, n_out: int, tol: float = 1e-10) -> np.ndarray:
    """Composition of two relations by matching middle components directly."""
    di = inner_frame.shape[1]
    do = outer_frame.shape[1]
    mid_in = inner_frame[n_in:, :]
    mid_out = outer_frame[:n_mid, :]
    k = svd_nullspace(np.hstack([mid_in, -mid_out]), tol)
    x, y = k[:di, :], k[di:, :]
    cols = np.vstack([inner_frame[:n_in, :] @ x, outer_frame[n_mid:, :] @ y])
    if cols.shape[1] == 0:
        return cols
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > tol * max(1.0, np.abs(np.diag(r)).max())
    return q[:, keep]


def green_pairing(j: np.ndarray, fhat: np.ndarray, ghat: np.ndarray,
                  j_tgt: np.ndarray | None = None) -> complex:
    """[f, g']_1 - [f', g]_2 evaluated literally on doubled vectors.

    (f, f') lies in H1 x H2 with symmetries j and j_tgt (j_tgt defaults
    to j), and (g, g') in H2 x H1.
    """
    j_tgt = j if j_tgt is None else j_tgt
    n1, n2 = j.shape[0], j_tgt.shape[0]
    f, fp = fhat[:n1], fhat[n1:]
    g, gp = ghat[:n2], ghat[n2:]
    return complex(f.conj() @ j @ gp - fp.conj() @ j_tgt @ g)


def indefinite_inner(space, f, g) -> complex:
    """[f, g] = <f, J g> of two vectors, conjugate-linear in the first factor."""
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    g = np.asarray(g, dtype=np.complex128).reshape(-1)
    return complex(f.conj() @ (space.J @ g))


def ortho_companion(space, a):
    """The [.,.]-orthogonal companion of a subspace: the Euclidean complement of J(A)."""
    from kreinrel import subspaces as sub

    return sub.complement(sub.image(space.J, a))


def adjoint_by_complement(t, metric: str = "krein"):
    """Adjoint of a relation by the three-step route.

    T* is the image of the Euclidean graph complement under the flip
    (a, b) -> (b, -a); T+ is the image of T* under diag(J2, J1).
    """
    from kreinrel import krein, relations as rel, subspaces as sub

    n1, n2 = t.src.dim, t.tgt.dim
    flip = np.zeros((n2 + n1, n1 + n2), dtype=np.complex128)
    flip[:n2, n1:] = np.eye(n2)
    flip[n2:, :n1] = -np.eye(n1)
    star = sub.image(flip, sub.complement(t.graph))
    if metric == "hilbert":
        return rel.LinearRelation(krein.hilbert_space(n2), krein.hilbert_space(n1), star)
    jj = np.zeros((n2 + n1, n2 + n1), dtype=np.complex128)
    jj[:n2, :n2] = t.tgt.J
    jj[n2:, n2:] = t.src.J
    return rel.LinearRelation(t.tgt, t.src, sub.image(jj, star))


def v0(triple_a, triple_b):
    """The composition relation of the two boundary maps, K -> K'."""
    from kreinrel import krein, relations as rel, subspaces as sub

    tol = triple_a.tol
    ga, gb = triple_a.gamma, triple_b.gamma
    k = sub.kernel(np.hstack([ga, -gb]), ga.shape[1] + gb.shape[1], tol)
    x, y = k.frame[: ga.shape[1], :], k.frame[ga.shape[1] :, :]
    cols = np.vstack([triple_a.basis @ x, triple_b.basis @ y])
    return rel.LinearRelation(krein.doubled(triple_a.space).krein,
                              krein.doubled(triple_b.space).krein, sub.span(cols, tol))


def operator_part(t, tol):
    """T ∩ (H x mul(T)^perp), so that T = operator_part ⊕ ({0} x mul T)."""
    from kreinrel import relations as rel, subspaces as sub

    cage = sub.product(sub.full(t.src.dim), sub.complement(rel.parts(t, tol).mul))
    return rel.LinearRelation(t.src, t.tgt, sub.intersect(t.graph, cage, tol))


def cayley(t0, tol):
    """Unitary Cayley transform {(f' + if, f' - if)} of a Hilbert self-adjoint
    T0, invertible by matrix_rank(rtol=rank_rel)."""
    from kreinrel import relations as rel

    if t0.src.signature[1] or not rel.is_selfadjoint(t0, tol):
        raise ValueError("Cayley transform needs a Hilbert-metric self-adjoint relation")
    e, d = t0.blocks()
    top = d + 1j * e
    if t0.dim != t0.src.dim or np.linalg.matrix_rank(top, rtol=tol.rank_rel) < t0.src.dim:
        raise rel.NotRegularError("graph does not parametrize a unitary")
    return (d - 1j * e) @ np.linalg.inv(top)


def relation(src, tgt, vectors, tol=None):
    """Relation from graph vectors (dom block stacked over ran block) or a Subspace."""
    from kreinrel import relations as rel, subspaces as sub
    from kreinrel.tolerances import DEFAULT_TOL

    if isinstance(vectors, sub.Subspace):
        return rel.LinearRelation(src, tgt, vectors)
    return rel.LinearRelation(src, tgt, sub.span(vectors, tol or DEFAULT_TOL))


def v0_operator_part_by_relation(triple_a, triple_b):
    """(V0)_s by the canonical route: the operator part of the relation V0,
    read off its graph frame [E; D] as D pinv(E), which vanishes off T+."""
    e, d = operator_part(v0(triple_a, triple_b), triple_a.tol).blocks()
    return d @ np.linalg.pinv(e)


def graph_by_span(m, src, tgt, tol):
    """The graph of an operator as the SVD span of [I; M], with its rank cut."""
    from kreinrel import relations as rel, subspaces as sub

    cols = np.vstack([np.eye(src.dim, dtype=np.complex128), np.asarray(m, dtype=np.complex128)])
    return rel.LinearRelation(src, tgt, sub.span(cols, tol))


def membership_angle_by_compose(vm, triple_a, triple_b):
    """The angle of Gamma' = Gamma V^{-1} for a matrix V on K: V's graph by
    `graph_by_span`, inverted and composed with Gamma as relations."""
    from kreinrel import boundary as bnd, krein, relations as rel, subspaces as sub

    tol = triple_a.tol
    v_rel = graph_by_span(vm, krein.doubled(triple_a.space).krein,
                          krein.doubled(triple_b.space).krein, tol)
    composed = rel.compose(bnd.gamma_relation(triple_a), rel.inverse(v_rel), tol)
    return sub.distance(composed.graph, triple_b.gamma_graph)


def z_fibre_by_cage(t, z: complex, side: str, tol):
    """{x : (x, y) in T, y in the graph of zI} for side "tgt" (V^{-1}(zI)), or
    {y : (x, y) in T, x in the graph of zI} for side "src" (Gamma(zI)): T's
    graph intersected with the graph of zI times the full other space."""
    from kreinrel import subspaces as sub

    n1, n2 = t.src.dim, t.tgt.dim
    h = (n2 if side == "tgt" else n1) // 2
    zgraph = sub.span(np.vstack([np.eye(h), z * np.eye(h)]), tol)
    if side == "tgt":
        hit = sub.intersect(t.graph, sub.product(sub.full(n1), zgraph), tol)
        return sub.span(hit.frame[:n1], tol)
    hit = sub.intersect(t.graph, sub.product(zgraph, sub.full(n2)), tol)
    return sub.span(hit.frame[n1:], tol)


def meet_complement_by_complement(a, t, tol):
    """A ∩ T-perp as `intersect` with the full-SVD complement of T."""
    from kreinrel import subspaces as sub

    return sub.intersect(a, sub.complement(t), tol)


def span_over_basis(triple, coords):
    """The span of basis @ coords, from an SVD of the 2n-row product."""
    from kreinrel import subspaces as sub

    return sub.span(triple.basis @ coords, triple.tol)


def kernel_relation_by_span(triple, g):
    """ker g on T+ (T0 for Gamma0, T1 for Gamma1) as the span of basis @ ker g."""
    from kreinrel import relations as rel, subspaces as sub

    coords = sub.kernel(g, triple.basis.shape[1], triple.tol).frame
    return rel.LinearRelation(triple.space, triple.space, span_over_basis(triple, coords))


def gamma_graph_by_span(triple):
    """The graph of the boundary map as the SVD span of [basis; Gamma]."""
    from kreinrel import subspaces as sub

    return sub.span(np.vstack([triple.basis, triple.gamma]), triple.tol)


def hilbertize_by_span(t, tol):
    """JT as the SVD span of [E; JD], with its rank cut."""
    from kreinrel import krein, relations as rel, subspaces as sub

    h = krein.hilbert_space(t.src.dim)
    e, d = t.blocks()
    return rel.LinearRelation(h, h, sub.span(np.vstack([e, t.src.J @ d]), tol))


def cayley_graph_by_span(frak_t0, tol):
    """The Cayley graph as the SVD span of [D + iE; D - iE]."""
    from kreinrel import subspaces as sub

    e, d = frak_t0.blocks()
    return sub.span(np.vstack([d + 1j * e, d - 1j * e]), tol)


def parts_by_span(t, tol) -> dict:
    """dom, ran, ker and mul of a relation, all four spanned at once."""
    from kreinrel import subspaces as sub

    e, d = t.blocks()
    return {"dom": sub.span(e, tol), "ran": sub.span(d, tol),
            "ker": sub.span(e @ sub.kernel(d, tol=tol).frame, tol),
            "mul": sub.span(d @ sub.kernel(e, tol=tol).frame, tol)}


def signature_by_eigvalsh(j) -> tuple[int, int]:
    """(p, q): the counts of positive and other eigenvalues of a Hermitian J."""
    p = int(np.sum(np.linalg.eigvalsh(j) > 0))
    return p, j.shape[0] - p


def dom_n_neutrality_by_pinv(dec, dom_n, tol) -> dict:
    """`extensions._dom_n_neutrality` by matrix_rank(rtol=rank_rel) of the defect
    frames [N_i, N_-i], then `np.linalg.pinv` of them: two SVDs of one matrix."""
    from kreinrel import krein, subspaces as sub

    phi = np.hstack([dec.defect_plus_frame, dec.defect_minus_frame])
    d1, d2 = dec.defect_plus_frame.shape[1], dec.defect_minus_frame.shape[1]
    if np.linalg.matrix_rank(phi, rtol=tol.rank_rel) < d1 + d2:
        return {"dom_n_hyper_maximal": None, "m_degenerate": True}
    lift = np.linalg.pinv(phi) @ dom_n.frame
    s = np.diag(np.concatenate([np.ones(d1), -np.ones(d2)])).astype(np.complex128)
    flags = krein.neutrality_rank(krein.KreinSpace(d1 + d2, s, (d1, d2)), sub.span(lift, tol), tol)
    return {"dom_n_hyper_maximal": bool(flags["hyper_maximal"]), "m_degenerate": False}


def m_hat_by_span(fp, fm, tol):
    """M_hat = span [N_i, N_-i; iN_i, -iN_-i] in the Hilbert doubled space, by an
    SVD span with its rank cut."""
    from kreinrel import krein

    hil = krein.hilbert_space(fp.shape[0])
    return relation(hil, hil, np.vstack([np.hstack([fp, fm]),
                                         np.hstack([1j * fp, -1j * fm])]), tol)


# The decision expressions `TolerancePolicy`'s rules replaced, as they stood
# at their sites, on singular values (descending) or angles.

def span_rank_by_cut(s, tol) -> int:
    """`subspaces._rank`: the singular values above rank_cut of the largest."""
    return int(np.sum(s > tol.rank_cut(s[0]))) if s.size else 0


def map_rank_by_rtol(s, tol) -> int:
    """`subspaces._rank_rel`: matrix_rank(rtol=rank_rel)'s rule on values."""
    return int(np.sum(s > tol.rank_rel * s[:1]))


def full_rank_by_last(s, tol) -> bool:
    """The QR route's full-rank test of `kernel`: the smallest value passes."""
    return bool(s[-1] > tol.rank_cut(s[0]))


def regular_by_last(s, tol) -> bool:
    """`resolvent_matrix`'s regularity, given t.dim = n."""
    return not (s.size and s[-1] <= tol.rank_cut(s[0]))


def gamma0_regular_by_all(s, tol):
    """`boundary._gamma0_regular` on the values of Gamma0's SVD, or a stack."""
    return (s > tol.rank_rel * s[..., :1]).all(axis=-1)


def apart_by_cut(sines, tol) -> int:
    """`intersect` and `_meet_complement`: the sines above rank_cut(1.0)."""
    return int(np.sum(sines > tol.rank_cut(1.0)))


def angle_equal_by_cut(theta, tol):
    return theta <= tol.angle_tol


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(item) -> complex:
    if isinstance(item, (int, float)):
        return complex(item)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(item[0], item[1])
    raise ValueError(f"not a complex scalar: {item!r}")


def encode_matrix_by_scalar(m) -> list:
    return [[encode_complex(z) for z in row] for row in np.asarray(m)]


def decode_matrix_by_scalar(rows) -> np.ndarray:
    return np.array([[decode_complex(z) for z in row] for row in rows],
                    dtype=np.complex128)


def encode_vectors_by_scalar(cols) -> list:
    return encode_matrix_by_scalar(np.asarray(cols).T)


def decode_vectors_by_scalar(items, dim: int) -> np.ndarray:
    if not items:
        return np.zeros((dim, 0), dtype=np.complex128)
    return np.column_stack([decode_matrix_by_scalar([v])[0] for v in items])


def document_by_scalar(space, relation=None, triple=None) -> dict:
    """The JSON document of `kreinrel.io.document_for`, one scalar at a time."""
    doc = {"space": {"dim": space.dim, "J": encode_matrix_by_scalar(space.J)}}
    if relation is not None:
        doc["relation"] = {"graph": encode_vectors_by_scalar(relation.graph.frame)}
    if triple is not None:
        doc["triple"] = {"boundary_dim": triple.boundary_dim,
                         "gamma": encode_matrix_by_scalar(triple.gamma),
                         "tplus_basis": encode_vectors_by_scalar(triple.basis)}
    return doc
