"""Solutions V of Gamma' = Gamma V^{-1} and the similarity reconstruction.

The operator part of the composition relation V0, from the inverse-boundary
formula, ties two boundary triples over a shared boundary space together;
standard-unitary solutions are assembled blockwise from a graph isomorphism
tau, a free coupling sigma and a Hermitian parameter Theta, and the
reconstruction recovers the similarity of two triples from matching Weyl
families on a symmetric grid and beside T0's poles.  Two triples decide
under the policy they share, by its rules: invertibility by the map rule,
minimality by the span rule, membership and the Weyl comparison by the
angle-equality rule; under different policies they raise
`PolicyMismatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import relations as rel
from . import subspaces as sub
from .boundary import (DEFAULT_GRID, BoundaryTriple, IsometricBoundaryPair, _defect_solve,
                       gamma_field, gamma_relation, pair_from_triple, shared_tol, weyl)
from .krein import KreinSpace, doubled
from .relations import LinearRelation
from .subspaces import Subspace
from .tolerances import TolerancePolicy, as_matrix


class BuildError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BlockUnitary:
    """2x2-block operator (A, B; C, D) between doubled Krein spaces."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    src: KreinSpace
    tgt: KreinSpace

    def full_matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    def as_relation(self) -> LinearRelation:
        return rel.from_operator(self.full_matrix(), doubled(self.src).krein,
                                 doubled(self.tgt).krein)

    def vabcd_residual(self) -> float:
        """Max-abs defect over the six standard-unitary block identities."""
        j, jp = self.src.J, self.tgt.J
        kadj = lambda x: j @ x.conj().T @ jp
        eye = np.eye(self.src.dim)
        eyep = np.eye(self.tgt.dim)
        a, b, c, d = self.a, self.b, self.c, self.d
        residuals = [
            kadj(a) @ d - kadj(c) @ b - eye,
            a @ kadj(d) - b @ kadj(c) - eyep,
            kadj(a) @ c - kadj(c) @ a,
            a @ kadj(b) - b @ kadj(a),
            kadj(b) @ d - kadj(d) @ b,
            c @ kadj(d) - d @ kadj(c),
        ]
        return max(float(np.abs(r).max()) for r in residuals)


def block_unitary_from_matrix(m, src: KreinSpace, tgt: KreinSpace) -> BlockUnitary:
    m = as_matrix(m, rows=2 * tgt.dim, cols=2 * src.dim)
    n, np_ = src.dim, tgt.dim
    return BlockUnitary(m[:np_, :n], m[:np_, n:], m[np_:, :n], m[np_:, n:], src, tgt)


def _v_matrix(v, triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> np.ndarray:
    """The matrix of an operator V (a BlockUnitary or a matrix) K -> K'."""
    if isinstance(v, BlockUnitary):
        return v.full_matrix()
    return as_matrix(v, rows=2 * triple_b.space.dim, cols=2 * triple_a.space.dim)


def _as_v_relation(v, triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> LinearRelation:
    if isinstance(v, LinearRelation):
        return v
    return rel.from_operator(_v_matrix(v, triple_a, triple_b), doubled(triple_a.space).krein,
                             doubled(triple_b.space).krein)


# ---------------------------------------------------------------------------
# V0 and its operator part


def _check_compatible(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> TolerancePolicy:
    if triple_a.boundary_dim != triple_b.boundary_dim:
        raise BuildError("triples do not share a boundary space")
    return shared_tol(triple_a, triple_b)


def v0_operator_part(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> np.ndarray:
    """(V0)_s = Gamma'^{-1} Gamma by the inverse-boundary formula, as a
    matrix on T+ (zero on the Euclidean complement)."""
    _check_compatible(triple_a, triple_b)
    formula = (triple_b.g0inv @ triple_a.gamma0
               + triple_b.g1inv @ (triple_a.gamma1 - triple_b.beta @ triple_a.gamma0))
    return formula @ triple_a.basis_pinv


def sigma_frames(triple: BoundaryTriple) -> np.ndarray:
    return np.hstack([triple.fn, triple.fjn])


def sigma_unitary_check(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> dict:
    """Gram preservation of (V0)_s between the two Sigma subspaces, plus
    the displayed inverse composing to the identity."""
    tol = _check_compatible(triple_a, triple_b)
    vs = v0_operator_part(triple_a, triple_b)
    sa = sigma_frames(triple_a)
    ja = doubled(triple_a.space).J_hat
    jb = doubled(triple_b.space).J_hat
    img = vs @ sa
    gram_res = float(np.abs(img.conj().T @ jb @ img - sa.conj().T @ ja @ sa).max(initial=0.0))
    inv_full = v0_operator_part(triple_b, triple_a)
    roundtrip = float(np.abs(inv_full @ img - sa).max(initial=0.0))
    scale = 1 + np.abs(sa).max(initial=0.0)
    return {"gram_residual": gram_res, "inverse_residual": roundtrip,
            "ok": tol.negligible(gram_res, scale) and tol.negligible(roundtrip, scale)}


def w_maps(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> dict:
    """The two graph homeomorphisms N -> N' in frame coordinates."""
    tol = _check_compatible(triple_a, triple_b)
    d = triple_a.boundary_dim
    ja = doubled(triple_a.space).J_hat
    jb = doubled(triple_b.space).J_hat
    bv0 = triple_a.apply(triple_a.fjn)[:d, :]
    w0 = triple_b.fn.conj().T @ (jb @ (triple_b.g0inv @ bv0))
    bv1 = triple_a.apply(triple_a.fn)[d:, :]
    w1 = triple_b.fn.conj().T @ (triple_b.g1inv @ bv1)
    inv_res = float(np.abs(w1 - np.linalg.inv(w0.conj().T)).max(initial=0.0))
    llp_lhs = triple_a.g0inv.conj().T @ ja @ triple_a.g1inv
    llp_rhs = triple_b.g0inv.conj().T @ jb @ triple_b.g1inv
    llp_res = float(np.abs(llp_lhs - llp_rhs).max(initial=0.0))
    return {"w0": w0, "w1": w1, "inverse_residual": inv_res, "llp_residual": llp_res,
            "ok": tol.negligible(inv_res, 1 + np.abs(w0).max(initial=0.0))
                  and tol.negligible(llp_res, 1.0 + float(np.abs(llp_lhs).max(initial=0.0)))}


# ---------------------------------------------------------------------------
# membership


def _gamma_angle(vm: np.ndarray, triple_a: BoundaryTriple, triple_b: BoundaryTriple,
                 tol: TolerancePolicy) -> float:
    """The largest principal angle between the graphs of Gamma V^{-1} and
    Gamma' for an operator V on K (+inf when their dimensions differ).

    Gamma V^{-1} = {(Vx, Gamma x) : x in T+} is the span of [V F_K; F_L] on
    the frame [F_K; F_L] of Gamma's graph, that graph under diag(V, I); the
    span keeps its rank decision, as V may be singular.
    """
    f, k = triple_a.gamma_graph.frame, 2 * triple_a.space.dim
    graph = sub.span(np.vstack([vm @ f[:k], f[k:]]), tol)
    return sub.distance(graph, triple_b.gamma_graph)


def membership_check(v, triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> dict:
    """Whether Gamma' = Gamma V^{-1} holds, as a relation identity.

    "angle" is the largest principal angle between the graphs of Gamma V^{-1}
    and Gamma' (+inf when their dimensions differ); "member" is that angle
    under the policy's angle-equality rule.  An operator V (a BlockUnitary or
    a matrix on K) maps Gamma's graph under diag(V, I); a LinearRelation V,
    whose domain may be less than K, is composed as a relation.  For operator
    inputs whose domain covers ker Gamma the displayed range criterion is
    evaluated as well and the two routes compared.
    """
    tol = shared_tol(triple_a, triple_b)
    if isinstance(v, LinearRelation):
        composed = rel.compose(gamma_relation(triple_a), rel.inverse(v), tol)
        angle = sub.distance(composed.graph, triple_b.gamma_graph)
        return {"member": tol.angle_equal(angle), "angle": angle,
                "lemma_e": None, "routes_agree": None}
    vm = _v_matrix(v, triple_a, triple_b)
    angle = _gamma_angle(vm, triple_a, triple_b, tol)
    member = tol.angle_equal(angle)
    vs_full = v0_operator_part(triple_a, triple_b)
    ran_diff = sub.span((vs_full - vm) @ triple_a.tplus.graph.frame, tol)
    vs_image = sub.image(vm, triple_a.parent.graph, tol)
    lemma_e = (sub.contains(triple_b.parent.graph, ran_diff, tol)
               and sub.equal(vs_image, triple_b.parent.graph, tol))
    return {"member": member, "angle": angle, "lemma_e": lemma_e,
            "routes_agree": lemma_e == member}


# ---------------------------------------------------------------------------
# constructions of Theorem l


def build_V_from_tau(triple_a: BoundaryTriple, triple_b: BoundaryTriple, tau) -> LinearRelation:
    """Operator (V0)_s + tau P_T with domain T+ and free entries zero."""
    tol = _check_compatible(triple_a, triple_b)
    dt_a = triple_a.parent.dim
    dt_b = triple_b.parent.dim
    tau = as_matrix(tau, rows=dt_b, cols=dt_a) if dt_a and dt_b else \
        np.zeros((dt_b, dt_a), dtype=np.complex128)
    if tol.map_rank_of(tau) < dt_b:
        raise BuildError("tau is not surjective onto T'")
    vs_full = v0_operator_part(triple_a, triple_b)
    m = vs_full + triple_b.ft @ tau @ triple_a.ft.conj().T
    frame = triple_a.tplus.graph.frame
    cols = np.vstack([frame, m @ frame])
    return LinearRelation(doubled(triple_a.space).krein,
                          doubled(triple_b.space).krein, sub.span(cols, tol))


def build_standard_V(triple_a: BoundaryTriple, triple_b: BoundaryTriple,
                     tau, theta=None, sigma=None, coupling=None) -> BlockUnitary:
    """Standard unitary solution from (tau, Theta, sigma) block data.

    tau: invertible dim T' x dim T coordinate matrix (graph frames);
    Theta: Hermitian matrix over the J'(T') frame; sigma: coupling
    N -> T' in frame coordinates, zero when omitted; coupling: the
    free J'(T') x J'(N') block of the Hermitian kernel parameter (its
    image stays inside T', so membership survives any choice).
    """
    tol = _check_compatible(triple_a, triple_b)
    d = triple_a.boundary_dim
    dt_a, dt_b = triple_a.parent.dim, triple_b.parent.dim
    if dt_a != dt_b:
        raise BuildError("no homeomorphism between graphs of different dimension")
    dt = dt_a
    tau = as_matrix(tau, rows=dt, cols=dt) if dt else np.zeros((0, 0), np.complex128)
    if tol.map_rank_of(tau) < dt:
        raise BuildError("tau is not a homeomorphism")
    theta = (np.zeros((dt, dt), np.complex128) if theta is None
             else as_matrix(theta, rows=dt, cols=dt))
    if not tol.negligible(np.linalg.norm(theta - theta.conj().T), 1 + np.linalg.norm(theta)):
        raise BuildError("Theta is not self-adjoint")
    sigma = (np.zeros((dt, d), np.complex128) if sigma is None
             else as_matrix(sigma, rows=dt, cols=d))
    coupling = (np.zeros((dt, d), np.complex128) if coupling is None
                else as_matrix(coupling, rows=dt, cols=d))

    wm = w_maps(triple_a, triple_b)
    w0 = wm["w0"]
    e0 = _e0_coords(triple_a, triple_b)
    e0 = (e0 + e0.conj().T) / 2.0

    n = triple_a.space.dim
    b_coords = np.zeros((n, n), dtype=np.complex128)
    b_coords[:dt, :dt] = tau.conj().T
    b_coords[dt:, :dt] = sigma.conj().T
    b_coords[dt:, dt:] = np.linalg.inv(w0) if d else w0
    if tol.map_rank_of(b_coords) < n:
        raise BuildError("assembled B block is singular")
    e_coords = np.zeros((n, n), dtype=np.complex128)
    e_coords[:dt, :dt] = theta
    e_coords[:dt, dt:] = coupling
    e_coords[dt:, :dt] = coupling.conj().T
    e_coords[dt:, dt:] = e0

    binv = np.linalg.inv(b_coords)
    v_coords = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    v_coords[:n, :n] = binv
    v_coords[n:, :n] = 1j * (e_coords @ binv)
    v_coords[n:, n:] = b_coords.conj().T

    fa = np.hstack([triple_a.fjt, triple_a.fjn, triple_a.ft, triple_a.fn])
    fb = np.hstack([triple_b.fjt, triple_b.fjn, triple_b.ft, triple_b.fn])
    v_full = fb @ v_coords @ fa.conj().T
    out = block_unitary_from_matrix(v_full, triple_a.space, triple_b.space)
    res = out.vabcd_residual()
    if not tol.negligible(res, 1 + np.abs(v_full).max() ** 2):
        raise BuildError(f"block identities violated: residual {res:.3e}")
    if not membership_check(out.as_relation(), triple_a, triple_b)["member"]:
        raise BuildError("constructed V failed the membership identity")
    return out


def _e0_coords(triple_a: BoundaryTriple, triple_b: BoundaryTriple) -> np.ndarray:
    """Coordinates of the symmetric kernel operator on J'(N')."""
    d = triple_a.boundary_dim
    a0_b = triple_b.apply(triple_b.fjn)[:d, :]
    delta = triple_a.beta - triple_b.beta
    return -1j * (triple_b.fn.conj().T @ (triple_b.g1inv @ (delta @ a0_b)))


# ---------------------------------------------------------------------------
# Weyl-equality criterion


@dataclass(frozen=True)
class CriterionResult:
    criterion: bool
    direct: bool
    hypotheses_ok: bool
    diagnostics: dict

    def __bool__(self) -> bool:
        return self.criterion


def _z_fibre(c: np.ndarray, z: complex, tol: TolerancePolicy) -> Subspace:
    """ker(c2 - z c1) for a block c = [c1; c2] of a graph frame: the frame
    coordinates a for which c a lies in the graph of zI, by the formula of
    `rel.eigenspace`."""
    h = c.shape[0] // 2
    return sub.kernel(c[h:] - z * c[:h], c.shape[1], tol)


def _vinv_z(v, z: complex, tol: TolerancePolicy) -> Subspace:
    """V^{-1}(zI) = {x : (x, y) in V, y in the graph of zI}.  An operator V is
    the range block of the graph [I; V], whose coordinates are x itself, so
    its fibre ker(V2 - z V1) is the answer; a relation's fibre is mapped by
    the domain block of its frame."""
    if isinstance(v, BlockUnitary):
        return _z_fibre(v.full_matrix(), z, tol)
    e, d = v.blocks()
    return sub.span(e @ _z_fibre(d, z, tol).frame, tol)


def _pair_weyl_relation(pair: IsometricBoundaryPair, z: complex) -> Subspace:
    """Graph of Gamma(zI) in the boundary doubled space: the boundary values
    of the x in dom Gamma that lie in the graph of zI."""
    e, d = pair.gamma_rel.blocks()
    return sub.span(d @ _z_fibre(e, z, pair.tol).frame, pair.tol)


def _coerce_pair(obj) -> IsometricBoundaryPair:
    return pair_from_triple(obj) if isinstance(obj, BoundaryTriple) else obj


def weyl_equality_criterion(pair_a, pair_b, v, z: complex) -> CriterionResult:
    """Defect-inclusion criterion for Weyl-family equality at z.

    Evaluates the containment of the defect subspace of dom Gamma in the
    kernel-side eigenspace of S + V^{-1}(zI), and independently compares
    the two Weyl values as relations; the two answers must agree when
    the sufficiency hypotheses hold.
    """
    pa, pb = _coerce_pair(pair_a), _coerce_pair(pair_b)
    tol = shared_tol(pa, pb)
    if not isinstance(v, (BlockUnitary, LinearRelation)):
        raise BuildError("V must be a BlockUnitary or a LinearRelation")
    z = complex(z)
    vinv_z = _vinv_z(v, z, tol)

    s_graph = pa.kernel.graph
    rhs_rel = LinearRelation(pa.a_star.src, pa.a_star.tgt, sub.sum_(s_graph, vinv_z, tol))
    lhs_eig = rel.eigenspace(pa.a_star, z, tol)
    rhs_eig = rel.eigenspace(rhs_rel, z, tol)
    criterion = sub.contains(rhs_eig, lhs_eig, tol)

    ma = _pair_weyl_relation(pa, z)
    mb = _pair_weyl_relation(pb, z)
    direct = sub.equal(ma, mb, tol)

    s_cap = sub.intersect(s_graph, vinv_z, tol).dim == 0
    s_eig = rel.spectral_probe(pa.kernel, z, tol)["regular_type"]
    sp_eig = rel.spectral_probe(pb.kernel, z, tol)["regular_type"]
    hypotheses_ok = s_cap and s_eig and sp_eig
    return CriterionResult(criterion, direct, hypotheses_ok,
                           {"s_cap_vinv_trivial": s_cap,
                            "z_not_eig_S": s_eig, "z_not_eig_Sprime": sp_eig,
                            "agree": criterion == direct})


# ---------------------------------------------------------------------------
# similarity reconstruction (gamma-field route)


def _utilde(u: np.ndarray) -> np.ndarray:
    """U-tilde = diag(U, U) between the doubled spaces."""
    n_t, n_s = u.shape
    out = np.zeros((2 * n_t, 2 * n_s), dtype=np.complex128)
    out[:n_t, :n_s] = u
    out[n_t:, n_s:] = u
    return out


def _u_inverse(u, src: KreinSpace, tgt: KreinSpace) -> np.ndarray:
    """U^{-1} = J U^* J' for a standard unitary U: (H, J) -> (H', J')."""
    return src.J @ np.asarray(u).conj().T @ tgt.J


def _standard_unitary_residual(u: np.ndarray, src: KreinSpace, tgt: KreinSpace) -> float:
    return float(np.abs(u.conj().T @ tgt.J @ u - src.J).max())


def reconstruct_similarity(triple_a: BoundaryTriple, triple_b: BoundaryTriple,
                           grid=DEFAULT_GRID) -> dict:
    """Recover a standard unitary realizing the similarity, or a witness.

    Returns a dict with status 'unitary' (carrying U, the standard unitary
    V built from U-tilde's blocks, and residuals), 'witness' (a point of the
    grid, or beside a pole of T0 where the grid's gamma columns span less than
    H, at which the Weyl values differ; their largest principal angle in
    radians is the discrepancy) or 'hypothesis-violation'.
    """
    tol, n = _check_compatible(triple_a, triple_b), triple_a.space.dim
    violation = lambda reason: {"status": "hypothesis-violation", "reason": reason}
    # omega: the points where both Weyl values have an operator form, which
    # is exactly where gamma(z) is defined for both triples.  gamma(z) is
    # asked right after M(z), so each triple solves each point once: the first
    # point of a walk alone, so that a witness there costs one solve a side,
    # and the rest in one stacked pass.
    omega, g_blocks, gp_blocks = [], [], []

    def walk(points):
        for i, (z, weight) in enumerate(points):
            if i == 1:
                _defect_solve(triple_a, [w for w, _ in points[1:]])
                _defect_solve(triple_b, [w for w, _ in points[1:]])
            wa, wb = weyl(triple_a, z), weyl(triple_b, z)
            gap = sub.distance(wa.relation_in_L.graph, wb.relation_in_L.graph)
            if tol.angle_differs(gap):
                return {"status": "witness", "z": z, "discrepancy": min(gap, np.pi / 2)}
            if wa.operator_form is not None and wb.operator_form is not None:
                omega.append(z)
                g_blocks.append(weight * gamma_field(triple_a, z))
                gp_blocks.append(weight * gamma_field(triple_b, z))

    found = walk([(complex(z), 1.0) for z in grid if complex(z).imag != 0])
    if found or not omega:
        return found or violation("no common regular grid point for the distinguished extensions")
    # gamma(z) maps L onto N_z(T+) for z in omega, so the source's columns decide
    # minimality by the span rule; unit_res and the final identity settle the
    # planted side.  The SVD that decides the rank gives the pseudo-inverse.
    hull = np.linalg.svd(np.hstack(g_blocks), full_matrices=False)
    rank = tol.span_rank(hull[1])
    if rank < n:
        # z0 + 1/(mu + delta) is beside the pole z0 + 1/mu; |delta| undoes gamma's growth there
        try:
            r0 = rel.resolvent_matrix(triple_a.t0, omega[0], tol)
        except rel.NotRegularError:
            return violation(f"T0 is not regular at z0 = {omega[0]}")
        mu, scale = np.linalg.eigvals(r0), np.linalg.norm(r0)
        gaps = np.abs(mu[:, None] - mu) + np.diag(np.full(n, np.inf))
        size = np.minimum(0.1 * gaps.min(axis=1), np.abs(mu).max())
        size = np.where(size > tol.rank_cut(scale), size, 0.1 * scale)
        found = walk(list(zip(map(complex, omega[0] + 1 / (mu + size * np.exp(0.7j))), size)))
        hull = np.linalg.svd(np.hstack(g_blocks), full_matrices=False)
        rank = tol.span_rank(hull[1])
    if found or rank < n:
        return found or violation("defect subspaces over the grid and beside T0's poles "
                                  f"are not minimal (rank {rank} < {n})")
    u = np.hstack(gp_blocks) @ sub._pinv(*hull)
    unit_res = _standard_unitary_residual(u, triple_a.space, triple_b.space)
    if not tol.negligible(unit_res, 1 + np.abs(u).max() ** 2):
        return violation(f"assembled map is not standard unitary ({unit_res:.3e})")
    # The final identity settles the rest (equal relations have equal kernels, so
    # U~ T = T' and U gamma(z) = gamma'(z)) but N', read off triple_b's own cut.
    ut = _utilde(u)
    gamma_res = _gamma_angle(ut, triple_a, triple_b, tol)
    if tol.angle_differs(gamma_res):
        return violation(f"final boundary identity off by {gamma_res:.3e}")
    if triple_b.n_rel.dim != triple_a.n_rel.dim:
        return violation(f"dim N' = {triple_b.n_rel.dim} differs from dim N = {triple_a.n_rel.dim}")

    # Theorem-l extraction: read (tau, sigma, Theta) off U-tilde, build the
    # standard unitary V they parametrize and peel off W = U~^{-1} V.
    dt = triple_a.parent.dim
    tau_c = triple_b.ft.conj().T @ (ut @ triple_a.ft)
    sigma_c = triple_b.ft.conj().T @ (ut @ triple_a.fn)
    xa = np.hstack([triple_a.fjt, triple_a.fjn])
    xb = np.hstack([triple_b.fjt, triple_b.fjn])
    yb = np.hstack([triple_b.ft, triple_b.fn])
    v11 = xb.conj().T @ (ut @ xa)
    v21 = yb.conj().T @ (ut @ xa)
    theta_c = coupling_c = None
    if tol.map_rank_of(v11) == v11.shape[0]:
        e_cand = -1j * (v21 @ np.linalg.inv(v11))
        e_cand = (e_cand + e_cand.conj().T) / 2.0
        theta_c, coupling_c = e_cand[:dt, :dt], e_cand[:dt, dt:]
    v = build_standard_V(triple_a, triple_b, tau_c, theta_c, sigma_c, coupling_c)

    w = _utilde(_u_inverse(u, triple_a.space, triple_b.space)) @ v.full_matrix()
    w_blocks = block_unitary_from_matrix(w, triple_a.space, triple_a.space)
    off_diag = float(max(np.abs(w_blocks.b).max(initial=0.0),
                         np.abs(w_blocks.c).max(initial=0.0)))
    diag_gap = float(np.abs(w_blocks.a - w_blocks.d).max(initial=0.0))
    return {"status": "unitary", "U": u, "V": v, "w_offdiag": off_diag,
            "w_diag_gap": diag_gap, "gamma_residual": gamma_res,
            "unitary_residual": unit_res}


def w_invariance_audit(triple_a: BoundaryTriple, triple_b: BoundaryTriple,
                       u: np.ndarray, vs, grid=DEFAULT_GRID) -> dict:
    """Invariance W(T) = T and W(defect graphs) = same, for each supplied V."""
    tol = shared_tol(triple_a, triple_b)
    ut_inv = _utilde(_u_inverse(u, triple_a.space, triple_b.space))
    ksrc = doubled(triple_a.space).krein
    reports = []
    defect_graphs = {}
    for z in map(complex, grid):
        if z.imag != 0 and rel.spectral_probe(triple_a.parent, z, tol)["regular_type"]:
            defect_graphs[z] = rel.graph_eigenspace(triple_a.tplus, z, tol).graph
    for v in vs:
        v_rel = _as_v_relation(v, triple_a, triple_b)
        w_rel = rel.compose(rel.from_operator(ut_inv, v_rel.tgt, ksrc), v_rel, tol)
        t_img = rel.parts(rel.restrict(w_rel, triple_a.parent.graph, tol), tol).ran
        entry = {"t_invariant": sub.equal(t_img, triple_a.parent.graph, tol),
                 "defect_invariant": {}}
        for z, nz in defect_graphs.items():
            img = rel.parts(rel.restrict(w_rel, nz, tol), tol).ran
            entry["defect_invariant"][z] = sub.equal(img, nz, tol)
        entry["ok"] = entry["t_invariant"] and all(entry["defect_invariant"].values())
        reports.append(entry)
    return {"per_v": reports, "ok": all(e["ok"] for e in reports)}
