"""Boundary triples for the adjoint of a symmetric relation.

The boundary map is stored as a matrix acting on coordinates of an
explicit basis of T+, with the first block of rows feeding the abstract
Green identity's primary side.  Weyl values are relations in the
boundary space first and matrices only when single-valued and
everywhere defined.  A triple carries its tolerance policy, and every
function of a triple or pair decides under `triple.tol` (`pair.tol`);
only `validate_triple`, which builds a triple, takes a policy.  Spans take
the policy's span rule; Gamma, Gamma0 on N_z and the restricted blocks its
map rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import extensions as ext
from . import relations as rel
from . import subspaces as sub
from .krein import KreinSpace, boundary_doubled, doubled, hilbert_space
from .relations import LinearRelation
from .subspaces import Subspace
from .tolerances import DEFAULT_TOL, TolerancePolicy, as_matrix

DEFAULT_GRID = (1j, -1j, 2j, -2j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j,
                0.5 + 1.5j, 0.5 - 1.5j)


class TripleValidationError(ValueError):
    pass


class PolicyMismatchError(ValueError):
    """Two triples or pairs of one computation carry different policies."""


def shared_tol(a, b) -> TolerancePolicy:
    """The one policy of two triples or pairs; never a pick between two."""
    if a.tol != b.tol:
        raise PolicyMismatchError(f"different tolerance policies: {a.tol} and {b.tol}")
    return a.tol


@dataclass(frozen=True, eq=False)
class BoundaryTriple:
    """Gamma on coordinates of `basis`, a basis of T+ for the parent T.  Every
    derived value and function of the triple decides under `tol`.  The basis
    is factored once, by a reduced SVD U S V^H taken on first read:
    `basis_pinv` is V S^-1 U^H, and the span of basis @ c is U times the span
    of S V^H c (`_lift`).  A transformed triple shares its source's factors.
    Unchecked: `validate_triple` checks the definition, `transform` that X is
    boundary-unitary.  `==` is identity."""
    parent: LinearRelation
    gamma: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    tol: TolerancePolicy = field(repr=False)
    # {z: (WeylValue of M(z), ghat)}: the defect solves of the last walk, or
    # of the last single z asked, keyed by z alone as `tol` decides every
    # solve, so M(z) and gamma(z) share one solve.  Replaced as a whole, never
    # mutated: a concurrent reader sees a key with its own value.
    _solves: dict = field(default_factory=dict, init=False, repr=False)

    # Read through on every access.
    _sv = property(lambda self: self.basis_svd[1][:, None] * self.basis_svd[2])  # S V^H
    boundary_dim = property(lambda self: self.gamma.shape[0] // 2)
    space = property(lambda self: self.parent.src)
    gamma0 = property(lambda self: self.gamma[: self.boundary_dim, :])
    gamma1 = property(lambda self: self.gamma[self.boundary_dim :, :])

    def _lift(self, rows: np.ndarray) -> Subspace:
        """The span of [basis @ c; b] from rows = [S V^H c; b]: diag(U, I) maps
        the span of the rows onto it isometrically, so the singular values,
        and with them the rank decision, are those of the direct span."""
        u, s, _ = self.basis_svd
        f = sub.span(rows, self.tol).frame
        return sub._trusted(u.shape[0] + len(rows) - s.size,
                            np.vstack([u @ f[: s.size], f[s.size :]]))

    def _kernel_of(self, g: np.ndarray) -> LinearRelation:
        coords = sub.kernel(g, self.basis.shape[1], self.tol).frame
        return LinearRelation(self.space, self.space, self._lift(self._sv @ coords))

    # Derived on first read and kept.  N = ker Gamma0 ∩ T-perp is unchecked,
    # as ker Gamma0 is self-adjoint and extends T; a0 and a1 are Gamma0 on
    # J_hat(N) and Gamma1 on N, and g0inv and g1inv their inverses into T+.
    tplus = cached_property(lambda self: rel.adjoint(self.parent, "krein", self.tol))
    basis_svd = cached_property(lambda self: np.linalg.svd(self.basis, full_matrices=False))
    basis_pinv = cached_property(lambda self: sub._pinv(*self.basis_svd))
    # Gamma on ambient vectors of T+, which it reads through their coordinates
    gamma_ambient = cached_property(lambda self: self.gamma @ self.basis_pinv)
    boundary_space = cached_property(lambda self: hilbert_space(self.boundary_dim))
    t0 = cached_property(lambda self: self._kernel_of(self.gamma0))
    t1 = cached_property(lambda self: self._kernel_of(self.gamma1))
    n_rel = cached_property(lambda self: ext._n_part(self.parent, self.t0, self.tol))
    ft = cached_property(lambda self: self.parent.graph.frame)
    fn = cached_property(lambda self: self.n_rel.graph.frame)
    fjn = cached_property(lambda self: doubled(self.space).J_hat @ self.fn)
    fjt = cached_property(lambda self: doubled(self.space).J_hat @ self.ft)
    _a0 = cached_property(lambda self: self.gamma0 @ (self.basis_pinv @ self.fjn))
    _a1 = cached_property(lambda self: self.gamma1 @ (self.basis_pinv @ self.fn))
    g0inv = cached_property(lambda self: self.fjn @ np.linalg.inv(self._a0))
    g1inv = cached_property(lambda self: self.fn @ np.linalg.inv(self._a1))
    beta = cached_property(lambda self: self.gamma1 @ (self.basis_pinv @ self.g0inv))
    # the graph of the boundary map, the span of [basis; Gamma]
    gamma_graph = cached_property(lambda self: self._lift(np.vstack([self._sv, self.gamma])))

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Basis coordinates of columns that lie in T+."""
        x = self.basis_pinv @ vectors
        if not self.tol.negligible(np.linalg.norm(self.basis @ x - vectors),
                                   1 + np.linalg.norm(vectors)):
            raise ValueError("vectors are not inside the adjoint's graph")
        return x

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Boundary values (Gamma0 stacked over Gamma1) of T+ columns."""
        return self.gamma @ self.coords(vectors)


@dataclass(frozen=True, eq=False)
class WeylValue:
    """M(z) at one point: its matrix form where gamma(z) exists, and its graph
    in L, the span of the read-only boundary values of N_z(T+) under `tol`,
    taken when `relation_in_L` is first read (a walk spans it up front).  `==`
    is identity."""
    z: complex
    operator_form: np.ndarray | None
    boundary_values: np.ndarray = field(repr=False)
    space: KreinSpace = field(repr=False)
    tol: TolerancePolicy = field(repr=False)

    @cached_property
    def relation_in_L(self) -> LinearRelation:
        return LinearRelation(self.space, self.space, sub.span(self.boundary_values, self.tol))


@dataclass(frozen=True, eq=False)
class IsometricBoundaryPair:
    """The boundary map as a relation, deciding under `tol` like a triple."""
    boundary_dim: int
    gamma_rel: LinearRelation
    a_star: LinearRelation
    kernel: LinearRelation
    tol: TolerancePolicy = field(repr=False)


def green_residual(space: KreinSpace, basis: np.ndarray, gamma: np.ndarray) -> float:
    """Max-abs defect of the Green identity over the stored basis."""
    jhat = doubled(space).J_hat
    jo = boundary_doubled(gamma.shape[0] // 2).J_hat
    lhs = basis.conj().T @ jhat @ basis
    rhs = gamma.conj().T @ jo @ gamma
    return float(np.abs(lhs - rhs).max(initial=0.0))


def validate_triple(t: LinearRelation, gamma, basis=None,
                    tol: TolerancePolicy = DEFAULT_TOL) -> BoundaryTriple:
    """Check a candidate boundary map and build its triple.

    Checks the definition (T symmetric, a basis of T+, Gamma surjective, the
    Green identity), the a0/a1 ranks and beta Hermitian.  That the kernels are
    self-adjoint, meet in T and span T+ follows; the boundary suite proves it.
    """
    gamma = as_matrix(gamma)
    if gamma.shape[0] % 2:
        raise TripleValidationError("gamma must have an even number of rows")
    d = gamma.shape[0] // 2
    if not rel.is_symmetric(t, tol):
        raise TripleValidationError("parent relation is not symmetric")
    if basis is None:
        basis = rel.adjoint(t, "krein", tol).graph.frame
    basis = as_matrix(basis, rows=2 * t.src.dim)
    m = basis.shape[1]
    if gamma.shape[1] != m:
        raise TripleValidationError("gamma columns must match the basis size")
    triple = BoundaryTriple(t, gamma, basis, tol)
    # the frame and rank of `sub.span(basis)`, from the triple's SVD of its basis
    u, s, _ = triple.basis_svd
    rank = tol.span_rank(s)
    if rank < m or not sub.equal(sub._trusted(2 * t.src.dim, u[:, :rank]),
                                 triple.tplus.graph, tol):
        raise TripleValidationError("basis does not span the adjoint's graph")
    # Gamma's singular values give its rank and its 2-norm; the basis's
    # 2-norm is its largest singular value
    sg = np.linalg.svd(gamma, compute_uv=False)
    if tol.map_rank(sg) < 2 * d:
        raise TripleValidationError("boundary map is not surjective")
    res = green_residual(t.src, basis, gamma)
    if not tol.negligible(res, (1.0 + sg.max(initial=0.0)) * (1.0 + s.max(initial=0.0) ** 2)):
        raise TripleValidationError(f"Green identity violated: residual {res:.3e}")

    if triple.n_rel.dim != d or min(tol.map_rank_of(a) for a in (triple._a0, triple._a1)) < d:
        raise TripleValidationError("restricted boundary block is singular")
    beta = triple.beta
    if not tol.negligible(np.linalg.norm(beta - beta.conj().T), 1 + np.linalg.norm(beta)):
        raise TripleValidationError("beta came out non-Hermitian")
    return triple


# ---------------------------------------------------------------------------
# Weyl family and gamma-field


def _defect_solve(triple: BoundaryTriple, z):
    """The defect graph N_z(T+) and its boundary values, then the solver
    (Gamma0 on N_z)^{-1} and the matrix M(z) = Gamma1 (Gamma0 on N_z)^{-1}, as
    (WeylValue, solver); the WeylValue spans M(z)'s graph from the boundary
    values when it is first read.  The one regularity rule: dim N_z = d and
    Gamma0 on N_z has rank d by the policy's map rule, read off one
    values-only SVD (vacuously at d = 0); otherwise M(z)'s matrix and the
    solver are None.  The inverse is then an LU's: a values-only SVD plus an
    LU took 0.6-0.8 of the time of an SVD with vectors and V S^{-1} U^H, per
    block and per stack of 20, d = 1..16, one OpenBLAS thread.  The arrays are
    read-only; a z in the
    triple's slot returns the same ones.  A list of points is solved in one
    pass of stacked calls, M(z)'s graphs included (the points already in the
    slot are kept), and replaces the slot with the walk's {z: solve}, which
    it returns."""
    if isinstance(z, (list, tuple)):
        return _solve_walk(triple, [complex(w) for w in z])
    z = complex(z)
    hit = triple._solves.get(z)
    if hit is not None:
        return hit
    d, tol = triple.boundary_dim, triple.tol
    frame = rel.graph_eigenspace(triple.tplus, z, tol).graph.frame
    # N_z(T+) lies in T+, so its coordinates are read unchecked; a frame of the
    # wrong dim (a loose cut's extra direction) only makes z irregular below
    bvals = _read_only(triple.gamma_ambient @ frame)
    m = ghat = None
    if frame.shape[1] == d and tol.map_rank(np.linalg.svd(bvals[:d], compute_uv=False)) == d:
        inv0 = np.linalg.inv(bvals[:d])
        m, ghat = bvals[d:] @ inv0, frame @ inv0
    solve = (WeylValue(z, _read_only(m), bvals, triple.boundary_space, tol),
             _read_only(ghat))
    object.__setattr__(triple, "_solves", {z: solve})
    return solve


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.flags.writeable = False
    return a


def _solve_walk(triple: BoundaryTriple, walk: list) -> dict:
    known = triple._solves
    todo = [z for z in dict.fromkeys(walk) if z not in known]
    solves = _solve_stacked(triple, todo) if todo else {}
    solves = {z: known.get(z) or solves[z] for z in walk}
    object.__setattr__(triple, "_solves", solves)
    return solves


def _solve_stacked(triple: BoundaryTriple, points: list) -> dict:
    """`_defect_solve` at each of the points, one stacked call per step; every
    caller of a walk reads M(z)'s graphs, so they are spanned here."""
    d, tol = triple.boundary_dim, triple.tol
    frames = [g.graph.frame for g in rel.graph_eigenspace(triple.tplus, points, tol)]
    bvals = [_read_only(b) for b in sub._stacked(lambda f: triple.gamma_ambient @ f, frames)]
    graphs = sub._stacked(lambda b: sub.span(b, tol), bvals)
    square = [i for i, f in enumerate(frames) if f.shape[1] == d]
    b = np.stack([bvals[i] for i in square]) if square else np.zeros((0, 2 * d, d))
    regular = tol.map_rank(np.linalg.svd(b[:, :d], compute_uv=False)) == d
    square, b = [i for i, r in zip(square, regular) if r], b[regular]
    inv0 = np.linalg.inv(b[:, :d])
    ghat = np.stack([frames[i] for i in square]) @ inv0 if square else []
    solved = {i: (m, g) for i, m, g in zip(square, b[:, d:] @ inv0, ghat)}
    lspace, solves = triple.boundary_space, {}
    for i, (z, bv, graph) in enumerate(zip(points, bvals, graphs)):
        m, g = solved.get(i, (None, None))
        value = WeylValue(z, _read_only(m), bv, lspace, tol)
        object.__setattr__(value, "relation_in_L", LinearRelation(lspace, lspace, graph))
        solves[z] = (value, _read_only(g))
    return solves


def weyl(triple: BoundaryTriple, z: complex) -> WeylValue:
    """M(z) as a relation in L, with its matrix form where gamma(z) exists."""
    return _defect_solve(triple, z)[0]


def gamma_field_hat(triple: BoundaryTriple, z: complex) -> np.ndarray:
    """The full defect-graph solver (Gamma0 restricted to zI)^{-1}: L -> K."""
    ghat = _defect_solve(triple, z)[1]
    if ghat is None:
        raise rel.NotRegularError(f"gamma-field undefined at z={z}")
    return ghat


def gamma_field(triple: BoundaryTriple, z: complex) -> np.ndarray:
    """gamma(z): L -> H, first component of the defect-graph solver."""
    return gamma_field_hat(triple, z)[: triple.space.dim, :]


# ---------------------------------------------------------------------------
# transforms


def transform(triple: BoundaryTriple, x) -> BoundaryTriple:
    """New triple with gamma replaced by X @ gamma for boundary-unitary X, which
    alone is checked: by the transformation lemma (T, X Gamma) is a boundary triple."""
    d = triple.boundary_dim
    x = as_matrix(x, rows=2 * d, cols=2 * d)
    jo = boundary_doubled(d).J_hat
    if not triple.tol.negligible(np.linalg.norm(x.conj().T @ jo @ x - jo),
                                 1 + np.linalg.norm(x) ** 2):
        raise TripleValidationError("transform matrix is not boundary-unitary")
    out = BoundaryTriple(triple.parent, x @ triple.gamma, triple.basis, triple.tol)
    # the same basis: its factors, where taken, are shared
    vars(out).update({k: v for k, v in vars(triple).items()
                      if k in ("basis_svd", "basis_pinv")})
    return out


def beta_shift(triple: BoundaryTriple, beta=None) -> BoundaryTriple:
    """The shifted triple (Gamma0, Gamma1 - beta Gamma0); defaults to beta(triple)."""
    d = triple.boundary_dim
    b = triple.beta if beta is None else as_matrix(beta, rows=d, cols=d)
    return transform(triple, np.block([[np.eye(d), np.zeros((d, d))], [-b, np.eye(d)]]))


def t_theta(triple: BoundaryTriple, theta: LinearRelation) -> LinearRelation:
    """The extension Gamma^{-1}(Theta); self-adjoint iff Theta is."""
    d = triple.boundary_dim
    if theta.src.dim != d or theta.tgt.dim != d:
        raise ValueError("Theta must be a relation in the boundary space")
    coords = sub.preimage(triple.gamma, theta.graph, triple.tol)
    return LinearRelation(triple.space, triple.space, triple._lift(triple._sv @ coords.frame))


# ---------------------------------------------------------------------------
# isometric boundary pairs


def gamma_relation(triple: BoundaryTriple) -> LinearRelation:
    """The boundary map as a relation K -> K_circ: the span of [basis; gamma]."""
    return LinearRelation(doubled(triple.space).krein,
                          boundary_doubled(triple.boundary_dim).krein, triple.gamma_graph)


def pair_from_triple(triple: BoundaryTriple,
                     domain: Subspace | None = None) -> IsometricBoundaryPair:
    """The boundary map as a relation K -> K_circ, optionally domain-restricted.

    dom Gamma = T+ and ker Gamma = T come from the triple; a domain cuts
    both down with Gamma itself.
    """
    space, tol = triple.space, triple.tol
    gamma_rel = gamma_relation(triple)
    dom, kern = triple.tplus.graph, triple.parent.graph
    if domain is not None:
        gamma_rel = rel.restrict(gamma_rel, domain, tol)
        dom, kern = sub.intersect(dom, domain, tol), sub.intersect(kern, domain, tol)
    return IsometricBoundaryPair(triple.boundary_dim, gamma_rel,
                                 LinearRelation(space, space, dom),
                                 LinearRelation(space, space, kern), tol)


def pair_isometry_check(pair: IsometricBoundaryPair) -> dict:
    """Flags {isometric, unitary} via the cross-space Krein adjoint."""
    g, tol = pair.gamma_rel, pair.tol
    ginv = rel.inverse(g)
    gplus = rel.adjoint(g, "krein", tol)
    isometric = sub.contains(gplus.graph, ginv.graph, tol)
    unitary = isometric and sub.equal(gplus.graph, ginv.graph, tol)
    return {"isometric": isometric, "unitary": unitary}


def k_shift_equivalence(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> dict:
    """Equivalence of the two shift conditions between triples for one T+.

    Condition (a): some bounded K solves Gamma'_1 = Gamma_1 - K Gamma_0 on
    all of T+.  Condition (b): Gamma'_1 agrees with Gamma_1 on N.  The K
    candidate is beta(A) - Gamma'_1 Gamma_0^{(-1)}.
    """
    tol = shared_tol(triple_a, triple_b)
    if not sub.equal(triple_a.tplus.graph, triple_b.tplus.graph, tol):
        raise ValueError("triples must share the adjoint")
    d = triple_a.boundary_dim
    g1a_on_n = triple_a.apply(triple_a.fn)[d:, :]
    g1b_on_n = triple_b.apply(triple_a.fn)[d:, :]
    cond_b = tol.negligible(np.linalg.norm(g1a_on_n - g1b_on_n), 1 + np.linalg.norm(g1a_on_n))
    beta0 = triple_b.apply(triple_a.g0inv)[d:, :]
    k = triple_a.beta - beta0
    lhs = triple_b.apply(triple_a.basis)[d:, :]
    bvals_a = triple_a.apply(triple_a.basis)
    rhs = bvals_a[d:, :] - k @ bvals_a[:d, :]
    cond_a = tol.negligible(np.linalg.norm(lhs - rhs), 1 + np.linalg.norm(lhs))
    return {"exists_k": cond_a, "agrees_on_n": cond_b, "k": k,
            "equivalent": cond_a == cond_b}


# ---------------------------------------------------------------------------
# identity checks over grids


def resolvent_identities_check(triple: BoundaryTriple, grid=DEFAULT_GRID) -> dict:
    """The identities of one Weyl family, from one walk over the non-real grid
    points and their conjugates with one defect solve per point.

    "symmetry" holds, at every walked point, the largest principal angle in
    radians (capped at pi/2) between M(z)^* and M(conj z) as relations in L;
    "weyl" holds the WeylValue of every walked point.  The gamma-field
    difference identity, the Step-3 pairing identity and the Krein-Naimark
    formula are evaluated at the walked points where gamma(z) exists and T0
    is regular ("points"); the grid points outside them are "skipped".  Each
    "max_" entry is the largest of its residuals, NaN if any of them is.  The
    walk's solves, resolvents and Hilbert adjoints come from stacked calls,
    and each residual is evaluated for all of its pairs of points at once."""
    j, tol, d = triple.space.J, triple.tol, triple.boundary_dim
    grid = [complex(z) for z in grid]
    nonreal = [z for z in grid if z.imag != 0]
    walk = list(dict.fromkeys([*nonreal, *(z.conjugate() for z in nonreal)]))
    _defect_solve(triple, walk)
    weyls, gammas = {}, {}
    for z in walk:
        weyls[z] = weyl(triple, z)
        try:
            gammas[z] = gamma_field(triple, z)
        except rel.NotRegularError:
            pass
    r0 = {z: r for z, r in zip(gammas, rel.resolvent_matrix(triple.t0, list(gammas), tol))
          if r is not None}
    pts = list(r0)
    report = {"weyl": weyls, "points": pts, "symmetry": {}, "gamma_diff": {},
              "pairing": {}, "krein_naimark": {},
              "skipped": [z for z in grid if z not in r0]}
    # M(z)^* in L is ker [D^H, -E^H] on the frame [E; D] of M(z)'s graph
    greens = [np.hstack([f[d:].conj().T, -f[:d].conj().T])
              for f in (weyls[z].relation_in_L.graph.frame for z in walk)]
    adjoints = sub._stacked(lambda g: sub.kernel(g, 2 * d, tol), greens)
    for z, adj in zip(walk, adjoints):
        report["symmetry"][z] = min(
            sub.distance(adj, weyls[z.conjugate()].relation_in_L.graph), np.pi / 2)
    if pts:
        _pair_identities(report, triple, pts, gammas, r0, weyls)
    for key in ("symmetry", "gamma_diff", "pairing", "krein_naimark"):
        report[f"max_{key}"] = float(np.max([*report[key].values()], initial=0.0))
    return report


def _pair_identities(report: dict, triple: BoundaryTriple, pts: list, gammas: dict,
                     r0: dict, weyls: dict):
    """The gamma-difference, pairing and Krein-Naimark residuals of
    `resolvent_identities_check` over all pairs (z, z0) of its points."""
    j, tol, d = triple.space.J, triple.tol, triple.boundary_dim
    zs = np.array(pts)
    g = np.stack([gammas[z] for z in pts])
    r = np.stack([r0[z] for z in pts])
    m = np.stack([weyls[z].operator_form for z in pts])
    # gamma(z) - gamma(z0) = (z - z0)(T0 - z)^{-1} gamma(z0)
    rhs = (zs[:, None] - zs)[..., None, None] * (r[:, None] @ g)
    diff = np.abs(g[:, None] - g - rhs).max(axis=(2, 3), initial=0.0)
    report["gamma_diff"] = {(z, z0): float(diff[a, b])
                            for a, z in enumerate(pts) for b, z0 in enumerate(pts)}
    # (conj z - z0) gamma(z)^* J gamma(z0) = M(conj z) - M(z0), where conj z is a point
    index = {z: a for a, z in enumerate(pts)}
    rows = [a for a, z in enumerate(pts) if z.conjugate() in index]
    if not rows:
        return
    bar = [index[pts[a].conjugate()] for a in rows]
    gj = g.conj().transpose(0, 2, 1) @ j
    lhs = (zs[bar][:, None] - zs)[..., None, None] * (gj[rows][:, None] @ g)
    pairing = np.abs(lhs - (m[bar][:, None] - m)).max(axis=(2, 3), initial=0.0)
    report["pairing"] = {(pts[a], z0): float(pairing[i, b])
                         for i, a in enumerate(rows) for b, z0 in enumerate(pts)}
    # (T1 - z)^{-1} = (T0 - z)^{-1} - gamma(z) M(z)^{-1} gamma(conj z)^* J
    full = tol.map_rank_of(m[rows]) == d
    kn = [i for i, f in enumerate(full) if f]
    r1 = rel.resolvent_matrix(triple.t1, [pts[rows[i]] for i in kn], tol)
    kn = [(i, x) for i, x in zip(kn, r1) if x is not None]
    if not kn:
        return
    at = [rows[i] for i, _ in kn]
    rhs = r[at] - g[at] @ np.linalg.inv(m[at]) @ gj[[bar[i] for i, _ in kn]]
    residual = np.abs(np.stack([x for _, x in kn]) - rhs).max(axis=(1, 2))
    report["krein_naimark"] = {pts[a]: float(res) for a, res in zip(at, residual)}


def ddTTp_check(triple_a: BoundaryTriple, triple_b: BoundaryTriple, grid=DEFAULT_GRID) -> dict:
    """Regular-point transfer between triples with matching Weyl families."""
    tol = shared_tol(triple_a, triple_b)
    pts = [complex(z) for z in grid if complex(z).imag != 0]
    _defect_solve(triple_a, pts)
    _defect_solve(triple_b, pts)
    weyl_equal = {}
    for z in pts:
        ma = weyl(triple_a, z).relation_in_L
        mb = weyl(triple_b, z).relation_in_L
        weyl_equal[z] = sub.equal(ma.graph, mb.graph, tol)
    omega = [z for z in pts if weyl_equal[z] and weyl_equal.get(np.conj(z), False)]
    report = {"weyl_equal": weyl_equal, "omega": omega, "transfers": {}}
    hat_a = {z for z in omega if ext.delta_membership(triple_a.parent, z, tol)}
    hat_b = {z for z in omega if ext.delta_membership(triple_b.parent, z, tol)}
    for i, (ta, tb) in enumerate(((triple_a.t0, triple_b.t0),
                                  (triple_a.t1, triple_b.t1))):
        rho_a = {z for z in omega if rel.spectral_probe(ta, z, tol)["regular"]}
        rho_b = {z for z in omega if rel.spectral_probe(tb, z, tol)["regular"]}
        ok = True
        if rho_a and rho_b:
            ok = (rho_a & rho_b == rho_a & hat_b) and (rho_a & rho_b == rho_b & hat_a)
        if hat_a == hat_b and (rho_a or rho_b):
            ok = ok and (bool(rho_a) == bool(rho_b)) and rho_a == rho_b
        report["transfers"][i] = {"rho_a": sorted(rho_a, key=str),
                                  "rho_b": sorted(rho_b, key=str), "ok": ok}
    report["ok"] = all(v["ok"] for v in report["transfers"].values())
    return report
