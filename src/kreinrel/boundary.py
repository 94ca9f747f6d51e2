"""Boundary triples for the adjoint of a symmetric relation.

A boundary map is given as a matrix on K = C^2n, of which only the action
on T+ counts, and stored as a matrix acting on coordinates of T+'s own
orthonormal graph frame F (Gamma F), with the first block of rows feeding
the abstract Green identity's primary side.  Weyl values are relations in
the boundary space first and matrices only when single-valued and
everywhere defined: a defect solve reads N_z(T+) off the orthocomplement
that T+ keeps (one kernel, `rel.eigenspace`) and spans M(z)'s graph from its
2d x d boundary values.  A triple carries its tolerance policy, and every
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
from .krein import KreinSpace, hilbert_space
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
    """Gamma on coordinates of `basis` = F, T+'s own orthonormal graph frame
    read through the parent's adjoint memo (so a transformed triple shares it):
    Gamma x = gamma F^H x for x in T+.  Every derived value and function of the
    triple decides under `tol`; T0, T1, t_theta and the graph of Gamma, images
    of F, take no rank decision.  Unchecked: `validate_triple` checks the
    definition, `transform` that X is boundary-unitary.  `==` is identity."""
    parent: LinearRelation
    gamma: np.ndarray = field(repr=False)
    tol: TolerancePolicy = field(repr=False)
    # {z: WeylValue}: the defect solves of the last walk, or of the last single
    # z asked, keyed by z alone as `tol` decides every solve, so M(z) and
    # gamma(z) share one solve.  Replaced as a whole, never mutated: a
    # concurrent reader sees a key with its own value.
    _solves: dict = field(default_factory=dict, init=False, repr=False)

    # Read through on every access.
    boundary_dim = property(lambda self: self.gamma.shape[0] // 2)
    space = property(lambda self: self.parent.src)
    gamma0 = property(lambda self: self.gamma[: self.boundary_dim, :])
    gamma1 = property(lambda self: self.gamma[self.boundary_dim :, :])
    boundary_space = property(lambda self: hilbert_space(self.boundary_dim))
    basis = property(lambda self: self.tplus.graph.frame)

    def _kernel_of(self, g: np.ndarray) -> LinearRelation:
        coords = sub.kernel(g, self.tol).frame
        return LinearRelation(self.space, self.space, sub._trusted(self.basis @ coords))

    # Derived on first read and kept.  N = ker Gamma0 ∩ T-perp is unchecked,
    # as ker Gamma0 is self-adjoint and extends T; a0 and a1 are Gamma0 on
    # J_hat(N) and Gamma1 on N, and g0inv and g1inv their inverses into T+.
    tplus = cached_property(lambda self: rel.adjoint(self.parent, "krein"))
    # Gamma on ambient vectors of T+, which it reads through their coordinates
    gamma_ambient = cached_property(lambda self: self.gamma @ self.basis.conj().T)
    t0 = cached_property(lambda self: self._kernel_of(self.gamma0))
    t1 = cached_property(lambda self: self._kernel_of(self.gamma1))
    n_rel = cached_property(lambda self: ext._n_part(self.parent, self.t0, self.tol))
    ft = cached_property(lambda self: self.parent.graph.frame)
    fn = cached_property(lambda self: self.n_rel.graph.frame)
    fjn = cached_property(lambda self: self.space.doubled.J @ self.fn)
    fjt = cached_property(lambda self: self.space.doubled.J @ self.ft)
    _a0 = cached_property(lambda self: self.gamma0 @ (self.basis.conj().T @ self.fjn))
    _a1 = cached_property(lambda self: self.gamma1 @ (self.basis.conj().T @ self.fn))
    g0inv = cached_property(lambda self: self.fjn @ np.linalg.inv(self._a0))
    g1inv = cached_property(lambda self: self.fn @ np.linalg.inv(self._a1))
    beta = cached_property(lambda self: self.gamma1 @ (self.basis.conj().T @ self.g0inv))
    # the graph of the boundary map, [F; Gamma] of full column rank
    gamma_graph = cached_property(
        lambda self: sub._injective_span(np.vstack([self.basis, self.gamma])))


@dataclass(frozen=True, eq=False)
class WeylValue:
    """One defect solve at z: M(z)'s matrix form and the solver gamma_hat(z) =
    (Gamma0 on N_z(T+))^{-1}: L -> K where the regularity rule holds (else
    None), the boundary values of N_z(T+)'s frame, and M(z)'s graph in L,
    their span under `tol`.  The arrays are read-only.  `==` is identity."""
    z: complex
    operator_form: np.ndarray | None
    gamma_hat: np.ndarray | None = field(repr=False)
    boundary_values: np.ndarray = field(repr=False)
    relation_in_L: LinearRelation = field(repr=False)
    tol: TolerancePolicy = field(repr=False)

    def __post_init__(self):
        for a in (self.operator_form, self.gamma_hat, self.boundary_values):
            if a is not None:
                a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class IsometricBoundaryPair:
    """The boundary map as a relation, deciding under `tol` like a triple."""
    gamma_rel: LinearRelation
    a_star: LinearRelation
    kernel: LinearRelation
    tol: TolerancePolicy = field(repr=False)


def green_residual(space: KreinSpace, basis: np.ndarray, gamma: np.ndarray) -> float:
    """Max-abs defect of the Green identity of Gamma given on coordinates of
    `basis`, over the basis: basis^H J_hat basis against gamma^H J_circ gamma."""
    jo = hilbert_space(gamma.shape[0] // 2).doubled.J
    lhs = basis.conj().T @ space.doubled.J @ basis
    rhs = gamma.conj().T @ jo @ gamma
    return float(np.abs(lhs - rhs).max(initial=0.0))


def validate_triple(t: LinearRelation, gamma,
                    tol: TolerancePolicy = DEFAULT_TOL) -> BoundaryTriple:
    """Check a boundary map Gamma, a 2d x 2n matrix on K = C^2n of which only
    the action on T+ counts, and build its triple, which holds Gamma F on
    T+'s own frame F.

    Checks the definition on F: T symmetric, Gamma F surjective by one
    values-only SVD, the Green identity at the scale 2(1 + |Gamma F|_2) of an
    orthonormal basis, then the a0/a1 ranks and beta Hermitian at the scale
    1 + |Gamma F|_2 |g0inv|_F of its factors, never below 1 + |beta|_F.  That the
    kernels are self-adjoint, meet in T and span T+ follows; the boundary
    suite proves it.
    """
    gamma = as_matrix(gamma, cols=2 * t.src.dim)
    if gamma.shape[0] % 2:
        raise TripleValidationError("gamma must have an even number of rows")
    d = gamma.shape[0] // 2
    if not rel.is_symmetric(t, tol):
        raise TripleValidationError("parent relation is not symmetric")
    frame = rel.adjoint(t, "krein").graph.frame
    gamma = gamma @ frame
    # Gamma F's singular values give its rank and its 2-norm
    sg = np.linalg.svd(gamma, compute_uv=False)
    if tol.map_rank(sg) < 2 * d:
        raise TripleValidationError("boundary map is not surjective")
    res = green_residual(t.src, frame, gamma)
    if not tol.negligible(res, 2 * (1.0 + sg.max(initial=0.0))):
        raise TripleValidationError(f"Green identity violated: residual {res:.3e}")

    triple = BoundaryTriple(t, gamma, tol)
    if triple.n_rel.dim != d or min(tol.map_rank_of(a) for a in (triple._a0, triple._a1)) < d:
        raise TripleValidationError("restricted boundary block is singular")
    # beta = Gamma1 F^H g0inv rounds off in proportion to its factors, which a
    # rescaling diag(I/k, k I) of Gamma grows by k^2 while beta may stay 0
    beta = triple.beta
    scale = 1 + sg.max(initial=0.0) * np.linalg.norm(triple.g0inv)
    if not tol.negligible(np.linalg.norm(beta - beta.conj().T), scale):
        raise TripleValidationError("beta came out non-Hermitian")
    return triple


# ---------------------------------------------------------------------------
# Weyl family and gamma-field


def _defect_solve(triple: BoundaryTriple, z: complex) -> WeylValue:
    """The defect graph N_z(T+), read off T+'s orthocomplement
    (`rel.eigenspace`), and its boundary values, whose span is M(z)'s graph;
    then the solver (Gamma0 on N_z)^{-1} and the matrix M(z) =
    Gamma1 (Gamma0 on N_z)^{-1}.  The one regularity rule: dim N_z = d and
    Gamma0 on N_z has rank d by the policy's map rule, read off one
    values-only SVD (vacuously at d = 0); otherwise M(z)'s matrix and the
    solver are None.  The inverse is then an LU's: a values-only SVD plus an
    LU took 0.6-0.8 of the time of an SVD with vectors and V S^{-1} U^H, per
    block and per stack of 20, d = 1..16, one OpenBLAS thread.  A z in the
    triple's slot returns the same value."""
    z = complex(z)
    hit = triple._solves.get(z)
    if hit is not None:
        return hit
    d, tol = triple.boundary_dim, triple.tol
    frame = rel.graph_eigenspace(triple.tplus, z, tol).graph.frame
    # N_z(T+) lies in T+, so its coordinates are read unchecked; a frame of the
    # wrong dim (a loose cut's extra direction) only makes z irregular below
    bvals = triple.gamma_ambient @ frame
    m = ghat = None
    if frame.shape[1] == d and tol.map_rank(np.linalg.svd(bvals[:d], compute_uv=False)) == d:
        inv0 = np.linalg.inv(bvals[:d])
        m, ghat = bvals[d:] @ inv0, frame @ inv0
    lspace = triple.boundary_space
    value = WeylValue(z, m, ghat, bvals, LinearRelation(lspace, lspace, sub.span(bvals, tol)), tol)
    object.__setattr__(triple, "_solves", {z: value})
    return value


def _solve_stacked(triple: BoundaryTriple, points: list) -> list:
    """`_defect_solve` at each of the points, one stacked call per step."""
    d, tol = triple.boundary_dim, triple.tol
    frames = [g.graph.frame for g in rel.graph_eigenspace(triple.tplus, points, tol)]
    bvals = sub._stacked(lambda f: triple.gamma_ambient @ f, frames)
    graphs = sub._stacked(lambda b: sub.span(b, tol), bvals)
    square = [i for i, f in enumerate(frames) if f.shape[1] == d]
    b = np.stack([bvals[i] for i in square]) if square else np.zeros((0, 2 * d, d))
    regular = tol.map_rank(np.linalg.svd(b[:, :d], compute_uv=False)) == d
    square, b = [i for i, r in zip(square, regular) if r], b[regular]
    inv0 = np.linalg.inv(b[:, :d])
    ghat = np.stack([frames[i] for i in square]) @ inv0 if square else []
    solved = {i: (m, g) for i, m, g in zip(square, b[:, d:] @ inv0, ghat)}
    lspace = triple.boundary_space
    return [WeylValue(z, *solved.get(i, (None, None)), bv, LinearRelation(lspace, lspace, graph),
                      tol)
            for i, (z, bv, graph) in enumerate(zip(points, bvals, graphs))]


def weyl(triple: BoundaryTriple, z) -> WeylValue | list:
    """M(z) as a relation in L, with its matrix form and gamma_hat(z) where
    gamma(z) exists.  A list or tuple of points is a walk: one value per point,
    in order, from one stacked pass, and the walk's values replace the
    triple's slot, from which a scalar call at one of its points reads."""
    if isinstance(z, (list, tuple)):
        values = _solve_stacked(triple, [complex(w) for w in z])
        object.__setattr__(triple, "_solves", {v.z: v for v in values})
        return values
    return _defect_solve(triple, z)


def gamma_field(triple: BoundaryTriple, z: complex) -> np.ndarray:
    """gamma(z): L -> H, the first component of gamma_hat(z)."""
    ghat = _defect_solve(triple, z).gamma_hat
    if ghat is None:
        raise rel.NotRegularError(f"gamma-field undefined at z={z}")
    return ghat[: triple.space.dim, :]


# ---------------------------------------------------------------------------
# transforms


def transform(triple: BoundaryTriple, x) -> BoundaryTriple:
    """New triple with gamma replaced by X @ gamma for boundary-unitary X, which
    alone is checked: by the transformation lemma (T, X Gamma) is a boundary triple."""
    d = triple.boundary_dim
    x = as_matrix(x, rows=2 * d, cols=2 * d)
    jo = triple.boundary_space.doubled.J
    if not triple.tol.negligible(np.linalg.norm(x.conj().T @ jo @ x - jo),
                                 1 + np.linalg.norm(x) ** 2):
        raise TripleValidationError("transform matrix is not boundary-unitary")
    return BoundaryTriple(triple.parent, x @ triple.gamma, triple.tol)


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
    return LinearRelation(triple.space, triple.space, sub._trusted(triple.basis @ coords.frame))


# ---------------------------------------------------------------------------
# isometric boundary pairs


def gamma_relation(triple: BoundaryTriple) -> LinearRelation:
    """The boundary map as a relation K -> K_circ: the span of [basis; gamma]."""
    return LinearRelation(triple.space.doubled, triple.boundary_space.doubled,
                          triple.gamma_graph)


def pair_from_triple(triple: BoundaryTriple,
                     domain: Subspace | None = None) -> IsometricBoundaryPair:
    """The boundary map as a relation K -> K_circ, optionally domain-restricted.

    dom Gamma = T+ and ker Gamma = T are the triple's own relations, so the
    pair's T+ keeps the orthocomplement `rel.eigenspace` reads; a domain cuts
    both down with Gamma itself.
    """
    space, tol = triple.space, triple.tol
    gamma_rel = gamma_relation(triple)
    if domain is None:
        return IsometricBoundaryPair(gamma_rel, triple.tplus, triple.parent, tol)
    gamma_rel = rel.restrict(gamma_rel, domain, tol)
    dom = sub.intersect(triple.tplus.graph, domain, tol)
    kern = sub.intersect(triple.parent.graph, domain, tol)
    return IsometricBoundaryPair(gamma_rel, LinearRelation(space, space, dom),
                                 LinearRelation(space, space, kern), tol)


def pair_isometry_check(pair: IsometricBoundaryPair) -> dict:
    """Flags {isometric, unitary}: Gamma^{-1} ⊆ Gamma+ for the cross-space
    Krein adjoint, by the angle-equality rule on the largest angle from
    Gamma^{-1} to Gamma+, read off Gamma's own Green rows; and equality, as
    Gamma+ has dim ambient - dim Gamma.  No adjoint is built."""
    g, tol = pair.gamma_rel, pair.tol
    ginv = rel.inverse(g)
    isometric = tol.angle_equal(rel._angle_to_adjoint(g, ginv.graph))
    unitary = isometric and ginv.dim == g.graph.ambient_dim - g.dim
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
    # one T+: Gamma'_1 reads A's frames, all inside it, through B's ambient map
    g1b = triple_b.gamma_ambient[triple_b.boundary_dim :]
    g1a_on_n = triple_a._a1
    g1b_on_n = g1b @ triple_a.fn
    cond_b = tol.negligible(np.linalg.norm(g1a_on_n - g1b_on_n), 1 + np.linalg.norm(g1a_on_n))
    k = triple_a.beta - g1b @ triple_a.g0inv
    lhs = g1b @ triple_a.basis
    rhs = triple_a.gamma1 - k @ triple_a.gamma0
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
    tol, d = triple.tol, triple.boundary_dim
    grid = [complex(z) for z in grid]
    nonreal = [z for z in grid if z.imag != 0]
    walk = list(dict.fromkeys([*nonreal, *(z.conjugate() for z in nonreal)]))
    weyls = dict(zip(walk, weyl(triple, walk)))
    solved = [z for z in walk if weyls[z].gamma_hat is not None]
    r0 = {z: r for z, r in zip(solved, rel.resolvent_matrix(triple.t0, solved, tol))
          if r is not None}
    pts = list(r0)
    report = {"weyl": weyls, "points": pts, "symmetry": {}, "gamma_diff": {},
              "pairing": {}, "krein_naimark": {},
              "skipped": [z for z in grid if z not in r0]}
    # M(z)^* in L is ker [D^H, -E^H] on the frame [E; D] of M(z)'s graph
    greens = [np.hstack([f[d:].conj().T, -f[:d].conj().T])
              for f in (weyls[z].relation_in_L.graph.frame for z in walk)]
    adjoints = sub._stacked(lambda g: sub.kernel(g, tol), greens)
    for z, adj in zip(walk, adjoints):
        report["symmetry"][z] = min(
            sub.distance(adj, weyls[z.conjugate()].relation_in_L.graph), np.pi / 2)
    if pts:
        _pair_identities(report, triple, pts, r0, weyls)
    for key in ("symmetry", "gamma_diff", "pairing", "krein_naimark"):
        report[f"max_{key}"] = float(np.max([*report[key].values()], initial=0.0))
    return report


def _pair_identities(report: dict, triple: BoundaryTriple, pts: list, r0: dict,
                     weyls: dict):
    """The gamma-difference, pairing and Krein-Naimark residuals of
    `resolvent_identities_check` over all pairs (z, z0) of its points."""
    j, tol, d = triple.space.J, triple.tol, triple.boundary_dim
    zs = np.array(pts)
    g = np.stack([weyls[z].gamma_hat[: triple.space.dim] for z in pts])
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
    weyl_equal = {z: sub.equal(ma.relation_in_L.graph, mb.relation_in_L.graph, tol)
                  for z, ma, mb in zip(pts, weyl(triple_a, pts), weyl(triple_b, pts))}
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
