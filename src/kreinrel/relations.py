"""The algebra of linear relations (multivalued operators) as graphs.

A relation from (H1, J1) to (H2, J2) is a subspace of C^(n1+n2) with the
first block holding domain components.  Everything is eager: sums,
compositions, adjoints and resolvents all normalize back to orthonormal
graph frames, so tolerances stay local to each operation.  Ranks, and with
them regularity, are decided by the policy's span rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import subspaces as sub
from .krein import KreinSpace, hilbert_space
from .subspaces import Subspace
from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy, as_matrix


class HostMismatchError(ValueError):
    """Relations live in incompatible Krein spaces."""


class NotRegularError(ValueError):
    """Resolvent-type matrix requested at a non-regular point."""


@dataclass(frozen=True, eq=False)
class LinearRelation:
    """A graph in C^(src.dim + tgt.dim); `==` is identity, `sub.equal` on the
    graphs compares relations."""

    src: KreinSpace
    tgt: KreinSpace
    graph: Subspace = field(repr=False)
    # Derived structure (adjoints, defect subspaces) by (kind, argument, tol).
    # Graph frames and J are read-only, so an entry never goes stale; threads
    # that miss together compute equal values and the first one stored is kept.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.graph.ambient_dim != self.src.dim + self.tgt.dim:
            raise DimensionMismatchError("graph ambient must be src.dim + tgt.dim")

    @property
    def dim(self) -> int:
        return self.graph.dim

    @property
    def is_endo(self) -> bool:
        return self.src.same_as(self.tgt)

    def _memoized(self, key: tuple, compute):
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, compute())
        return value

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Domain-side and range-side blocks of the graph frame."""
        f = self.graph.frame
        return f[: self.src.dim, :], f[self.src.dim :, :]


@dataclass(frozen=True, eq=False)
class RelationParts:
    """dom, ran, ker and mul of a relation with graph frame [E; D], each
    spanned under `tol` when first read and kept."""

    relation: LinearRelation
    tol: TolerancePolicy = field(repr=False)

    dom = cached_property(lambda self: sub.span(self.relation.blocks()[0], self.tol))
    ran = cached_property(lambda self: sub.span(self.relation.blocks()[1], self.tol))

    @cached_property
    def ker(self) -> Subspace:
        e, d = self.relation.blocks()
        return sub.span(e @ sub.kernel(d, tol=self.tol).frame, self.tol)

    @cached_property
    def mul(self) -> Subspace:
        e, d = self.relation.blocks()
        return sub.span(d @ sub.kernel(e, tol=self.tol).frame, self.tol)


def _same_hosts(a: LinearRelation, b: LinearRelation):
    if not (a.src.same_as(b.src) and a.tgt.same_as(b.tgt)):
        raise HostMismatchError("relations have different host spaces")


def zero_relation(src: KreinSpace, tgt: KreinSpace) -> LinearRelation:
    return LinearRelation(src, tgt, sub.trivial(src.dim + tgt.dim))


def identity_relation(space: KreinSpace) -> LinearRelation:
    n = space.dim
    f = np.vstack([np.eye(n), np.eye(n)]).astype(np.complex128) / np.sqrt(2.0)
    return LinearRelation(space, space, Subspace(2 * n, f))


def from_operator(m, src: KreinSpace, tgt: KreinSpace) -> LinearRelation:
    """The graph {(f, Mf)} of an operator.  [I; M] has full column rank, so a
    QR gives its frame with no rank decision, however large M is."""
    m = as_matrix(m, rows=tgt.dim, cols=src.dim)
    cols = np.vstack([np.eye(src.dim, dtype=np.complex128), m])
    return LinearRelation(src, tgt, Subspace(src.dim + tgt.dim, np.linalg.qr(cols)[0]))


def parts(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> RelationParts:
    """dom T, ran T, ker T and mul T, each spanned only when read."""
    return RelationParts(t, tol)


def is_operator(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """mul T = D(ker E) is trivial; D is an isometry on ker E."""
    return sub.kernel(t.blocks()[0], t.dim, tol).dim == 0


def inverse(t: LinearRelation) -> LinearRelation:
    e, d = t.blocks()
    return LinearRelation(t.tgt, t.src, Subspace(t.graph.ambient_dim, np.vstack([d, e])))


def restrict(t: LinearRelation, dom: Subspace,
             tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """Domain restriction T ∩ (L x H)."""
    if dom.ambient_dim != t.src.dim:
        raise DimensionMismatchError("restriction subspace lives in the wrong space")
    cage = sub.product(dom, sub.full(t.tgt.dim))
    return LinearRelation(t.src, t.tgt, sub.intersect(t.graph, cage, tol))


def compose(outer: LinearRelation, inner: LinearRelation,
            tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """outer ∘ inner: pairs (x, z) with (x, y) in inner, (y, z) in outer."""
    if not inner.tgt.same_as(outer.src):
        raise HostMismatchError("inner space of the composition does not match")
    ei, di = inner.blocks()
    eo, do = outer.blocks()
    k = sub.kernel(np.hstack([di, -eo]), inner.dim + outer.dim, tol)
    x = k.frame[: inner.dim, :]
    y = k.frame[inner.dim :, :]
    cols = np.vstack([ei @ x, do @ y])
    return LinearRelation(inner.src, outer.tgt, sub.span(cols, tol))


def shift(t: LinearRelation, z: complex,
          tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """T - zI on an endorelation."""
    if t.src.dim != t.tgt.dim:
        raise HostMismatchError("shift needs an endorelation")
    e, d = t.blocks()
    cols = np.vstack([e, d - z * e])
    return LinearRelation(t.src, t.tgt, sub.span(cols, tol))


def cw_sum(a: LinearRelation, b: LinearRelation,
           tol: TolerancePolicy = DEFAULT_TOL) -> tuple[LinearRelation, bool]:
    """Componentwise sum; the flag reports Euclidean orthogonality of the graphs."""
    _same_hosts(a, b)
    total = LinearRelation(a.src, a.tgt, sub.sum_(a.graph, b.graph, tol))
    g = a.graph.frame.conj().T @ b.graph.frame
    orthogonal = tol.angle_equal(float(np.abs(g).max(initial=0.0)))
    return total, orthogonal


def op_sum(a: LinearRelation, b: LinearRelation,
           tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """Operatorwise sum {(f, f' + g') : (f, f') in A, (f, g') in B}."""
    _same_hosts(a, b)
    ea, da = a.blocks()
    eb, db = b.blocks()
    k = sub.kernel(np.hstack([ea, -eb]), a.dim + b.dim, tol)
    x, y = k.frame[: a.dim, :], k.frame[a.dim :, :]
    cols = np.vstack([ea @ x, da @ x + db @ y])
    return LinearRelation(a.src, a.tgt, sub.span(cols, tol))


# ---------------------------------------------------------------------------
# adjoints


def adjoint(t: LinearRelation, metric: str = "krein",
            tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """Hilbert adjoint T* or Krein adjoint T+ = J1 T* J2.

    (g, g') lies in T+ iff [f', g]_2 = [f, g']_1 for every (f, f') in T.
    On the graph frame [E; D] that is D^H J2 g - E^H J1 g' = 0, so the
    adjoint graph is one kernel of the Green form; J = I gives T*.
    """
    if metric not in ("krein", "hilbert"):
        raise ValueError("metric must be 'krein' or 'hilbert'")

    def compute() -> LinearRelation:
        src, tgt = t.src, t.tgt
        if metric == "hilbert":
            src, tgt = hilbert_space(src.dim), hilbert_space(tgt.dim)
        e, d = t.blocks()
        green = np.hstack([d.conj().T @ tgt.J, -e.conj().T @ src.J])
        return LinearRelation(tgt, src, sub.kernel(green, tgt.dim + src.dim, tol))

    return t._memoized(("adjoint", metric, tol), compute)


def is_symmetric(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    if not t.is_endo:
        return False
    return sub.contains(adjoint(t, "krein", tol).graph, t.graph, tol)


def is_selfadjoint(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    if not t.is_endo:
        return False
    return sub.equal(adjoint(t, "krein", tol).graph, t.graph, tol)


# ---------------------------------------------------------------------------
# spectra


def eigenspace(t: LinearRelation, z, tol: TolerancePolicy = DEFAULT_TOL):
    """ker(T - zI) = {f : (f, zf) in T}.  A list of points gives the list
    of their eigenspaces, from stacked kernels and spans."""
    e, d = t.blocks()
    if isinstance(z, (list, tuple)):
        ks = sub.kernel(d - np.asarray(z, dtype=np.complex128)[:, None, None] * e, t.dim, tol)
        return sub._stacked(lambda s: sub.span(s, tol), [e @ k.frame for k in ks])
    k = sub.kernel(d - z * e, t.dim, tol)
    return sub.span(e @ k.frame, tol)


def graph_eigenspace(t: LinearRelation, z, tol: TolerancePolicy = DEFAULT_TOL):
    """The graph zI ∩ T over the eigenspace at z; the list of the graphs at
    each of a list of points, from stacked calls.  [f; zf]/sqrt(1 + |z|^2)
    of the eigenspace's SVD frame f is orthonormal to roundoff, so it is
    taken unchecked, as `subspaces` takes its own SVD frames."""
    def graph(w, f):
        cols = np.vstack([f.frame, w * f.frame]) / np.sqrt(1.0 + abs(w) ** 2)
        return LinearRelation(t.src, t.tgt, sub._trusted(t.graph.ambient_dim, cols))
    if isinstance(z, (list, tuple)):
        return [graph(w, f) for w, f in zip(z, eigenspace(t, z, tol))]
    return graph(z, eigenspace(t, z, tol))


def spectral_probe(t: LinearRelation, z: complex,
                   tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Point classification from the nullity of D - zE, which is dim ker(T - z)
    (E is a multiple of an isometry there) and t.dim - dim ran(T - z)."""
    e, d = t.blocks()
    regular_type = sub.kernel(d - z * e, t.dim, tol).dim == 0
    regular = regular_type and t.dim == t.src.dim
    return {"eigenvalue": not regular_type, "regular_type": regular_type, "regular": regular}


def resolvent_matrix(t: LinearRelation, z, tol: TolerancePolicy = DEFAULT_TOL):
    """(T - z)^{-1} = E (D - zE)^{-1} = E V S^{-1} U^H from one SVD of D - zE,
    which also decides regularity by `spectral_probe`'s rule: t.dim = n and
    D - zE of full rank by the policy's span rule.  A
    list of points gives the list of the resolvents from one stacked SVD,
    None at each point that is not regular."""
    e, d = t.blocks()
    if isinstance(z, (list, tuple)):
        zs = np.asarray(z, dtype=np.complex128)
        out = [None] * len(zs)
        if t.dim != t.src.dim or not len(zs):
            return out
        u, s, vh = np.linalg.svd(d - zs[:, None, None] * e)
        ok = list(np.flatnonzero(tol.span_rank(s) == s.shape[-1]))
        if ok:
            vs = vh[ok].conj().transpose(0, 2, 1) / s[ok, None, :]
            for i, r in zip(ok, e @ vs @ u[ok].conj().transpose(0, 2, 1)):
                out[i] = r
        return out
    u, s, vh = np.linalg.svd(d - z * e)
    if t.dim != t.src.dim or tol.span_rank(s) < s.size:
        raise NotRegularError(f"z={z} is not a regular point")
    return e @ (vh.conj().T / s) @ u.conj().T


# ---------------------------------------------------------------------------
# Cayley transforms


def hilbertize(t: LinearRelation) -> LinearRelation:
    """JT as a relation in the Euclidean Hilbert space over the same carrier.
    [E; JD] is the image of the frame [E; D] under the unitary diag(I, J), so
    it is taken as a frame, Gram-checked, with no rank decision."""
    h = hilbert_space(t.src.dim)
    e, d = t.blocks()
    return LinearRelation(h, h, Subspace(t.graph.ambient_dim, np.vstack([e, t.src.J @ d])))


def inverse_cayley(c, tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """Relation {((g - Cg)/2i, (g + Cg)/2) : g}; self-adjoint for unitary C."""
    c = as_matrix(c)
    n = c.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    cols = np.vstack([(eye - c) / 2j, (eye + c) / 2.0])
    h = hilbert_space(n)
    return LinearRelation(h, h, sub.span(cols, tol))
