from collections import Counter

import numpy as np
import pytest

from kreinrel import boundary as bnd, relations as rel, similarity as sim, \
    subspaces as sub
from kreinrel.generators import (InstanceSpec, gen_standard_unitary, gen_symmetric,
                                 gen_triple, planted_similar_triple, random_unitary,
                                 rng_for, scaled_triple)
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy
from conftest import solved_points, under
from oracles import graph_by_span, membership_angle_by_compose, v0, v0_operator_part_by_relation, \
    z_fibre_by_cage

LOOSE = TolerancePolicy(1e-3, 1e-6, 1e-4)


@pytest.fixture(scope="module")
def pair44():
    t = gen_symmetric(InstanceSpec(31, 4, (2, 2), 2))
    return t, gen_triple(t, 32), gen_triple(t, 33)


def _assert_formula_matches_oracle(vs, tri_a, tri_b):
    frame = tri_a.tplus.graph.frame
    canon = v0_operator_part_by_relation(tri_a, tri_b)
    assert np.abs((vs - canon) @ frame).max() < 1e-9


def test_v0_same_triple_identity(pair44):
    t, tri, _ = pair44
    v = v0(tri, tri)
    # V0 = identity-on-T+ ∔ ({0} x T)
    ident = rel.identity_relation(t.src.doubled)
    on_tplus = rel.restrict(ident, tri.tplus.graph)
    extra = sub.product(sub.trivial(2 * t.src.dim), t.graph)
    want = sub.sum_(on_tplus.graph, extra)
    assert sub.equal(v.graph, want)
    # the operator part sheds the mul part T, leaving the Sigma projection
    vs = sim.v0_operator_part(tri, tri)
    frame = tri.tplus.graph.frame
    sigma = np.hstack([tri.fn, tri.fjn])
    proj = sigma @ sigma.conj().T
    assert np.abs(vs @ frame - proj @ frame).max() < 1e-10
    _assert_formula_matches_oracle(vs, tri, tri)


def test_v0_structure(pair44):
    t, tri_a, tri_b = pair44
    v = v0(tri_a, tri_b)
    p = rel.parts(v)
    assert sub.equal(p.dom, tri_a.tplus.graph)
    assert sub.equal(p.mul, t.graph)
    assert sub.equal(p.ker, t.graph)
    assert sub.equal(p.ran, tri_b.tplus.graph)


def test_v0_matches_relation_composition(pair44):
    # independent route: compose the boundary maps as raw relations
    t, tri_a, tri_b = pair44
    composed = rel.compose(rel.inverse(sim.gamma_relation(tri_b)),
                           sim.gamma_relation(tri_a))
    assert sub.equal(composed.graph, v0(tri_a, tri_b).graph)


def test_v0_beta_shift_case(pair44):
    # the K-shifted pair: (V0)_s = (I + Gamma1^(-1) K Gamma0) P_Sigma
    t, tri, _ = pair44
    rng = np.random.default_rng(9)
    k = rng.standard_normal((2, 2))
    k = (k + k.T) / 2
    shifted = bnd.beta_shift(tri, -k)  # Gamma1' = Gamma1 + k Gamma0
    vs = sim.v0_operator_part(tri, shifted)
    sigma = np.hstack([tri.fn, tri.fjn])
    proj = sigma @ sigma.conj().T
    direct = proj + tri.g1inv @ (-k) @ (tri.gamma0 @ np.linalg.pinv(tri.basis))
    # compare actions on T+
    frame = tri.tplus.graph.frame
    got = vs @ frame
    want = direct @ frame
    # note: the shifted triple's own inverse operators enter; check the
    # displayed w-maps instead of the raw projector formula
    wm = sim.w_maps(tri, shifted)
    assert np.abs(wm["w0"] - np.eye(2)).max() < 1e-9
    assert np.abs(wm["w1"] - np.eye(2)).max() < 1e-9
    assert np.abs(got - want).max() < 1e-9
    _assert_formula_matches_oracle(vs, tri, shifted)


def test_v0_kappa_scaled(pair44):
    t, tri, _ = pair44
    kappa = 2.0
    scaled = scaled_triple(tri, kappa)
    vs = sim.v0_operator_part(tri, scaled)
    p_n = tri.fn @ tri.fn.conj().T
    p_jn = tri.fjn @ tri.fjn.conj().T
    want = (p_n / kappa + kappa * p_jn)
    frame = tri.tplus.graph.frame
    assert np.abs(vs @ frame - want @ frame).max() < 1e-9
    _assert_formula_matches_oracle(vs, tri, scaled)
    wm = sim.w_maps(tri, scaled)
    assert np.abs(wm["w0"] - kappa * np.eye(2)).max() < 1e-9
    assert np.abs(wm["w1"] - np.eye(2) / kappa).max() < 1e-9


def test_one_route_layer_never_forms_v0(pair44):
    # (V0)_s comes from the inverse-boundary formula alone: the package holds
    # neither the relation V0 nor a canonical operator part to form on the way
    t, tri_a, tri_b = pair44
    planted = planted_similar_triple(tri_a, gen_standard_unitary(1, t.src, t.src), t.src)
    assert not hasattr(sim, "v0") and not hasattr(rel, "operator_part")
    vs = sim.v0_operator_part(tri_a, tri_b)
    assert vs.shape == (2 * t.src.dim, 2 * t.src.dim)
    assert sim.sigma_unitary_check(tri_a, tri_b)["ok"]
    v = sim.build_standard_V(tri_a, tri_b, np.eye(t.dim))
    assert sim.vabcd_residual(v, t.src, t.src) < 1e-9
    assert sim.reconstruct_similarity(tri_a, planted)["status"] == "unitary"


def test_w_maps_identity_and_llp(pair44):
    t, tri_a, tri_b = pair44
    wm = sim.w_maps(tri_a, tri_a)
    assert np.abs(wm["w0"] - np.eye(2)).max() < 1e-10
    assert np.abs(wm["w1"] - np.eye(2)).max() < 1e-10
    wm = sim.w_maps(tri_a, tri_b)
    assert wm["inverse_residual"] < 1e-9
    assert wm["llp_residual"] < 1e-9


def test_sigma_unitary(pair44):
    t, tri_a, tri_b = pair44
    out = sim.sigma_unitary_check(tri_a, tri_b)
    assert out["ok"], out


def test_membership_of_v0_operator_part(pair44):
    t, tri_a, tri_b = pair44
    # V = (V0)_s with domain T+ solves the boundary identity
    v = sim.build_V_from_tau(tri_a, tri_b, np.eye(t.dim))
    out = sim.membership_check(v, tri_a, tri_b)
    assert out["member"]
    assert out["member"] == (out["angle"] <= DEFAULT_TOL.angle_tol)


def test_membership_perturbation_detected(pair44):
    t, tri_a, tri_b = pair44
    rng = rng_for(77, 0)
    v = sim.build_standard_V(tri_a, tri_b, random_unitary(rng, t.dim))
    out = sim.membership_check(v, tri_a, tri_b)
    assert out["member"] and out["lemma_e"] and out["routes_agree"]
    assert out["member"] == (out["angle"] <= DEFAULT_TOL.angle_tol)
    bad = v.copy()
    bad[0, 0] += 1e-3
    out = sim.membership_check(bad, tri_a, tri_b)
    assert not out["member"] and out["routes_agree"]
    assert out["member"] == (out["angle"] <= DEFAULT_TOL.angle_tol)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("n", [4, 16, 48])
def test_operator_and_relation_routes_of_membership_agree(n, tol):
    # a planted pair as pipeline-large draws it, with V from build_standard_V
    # and U-tilde; the relation route, and the old SVD graph composed as
    # relations, give the same verdict and angle as the operator route
    p = int(rng_for(n, 7).integers(0, n + 1))
    t = gen_symmetric(InstanceSpec(n, n, (p, n - p), n // 4), tol=tol)
    tri = gen_triple(t, n, tol)
    u = gen_standard_unitary(n, t.src, t.src)
    planted = planted_similar_triple(tri, u, t.src)
    v = sim.build_standard_V(tri, planted, random_unitary(rng_for(n, 3), t.dim))
    bad = v.copy()
    bad[0, 0] += 1e-3
    # V kills a direction of T = ker Gamma, so Gamma V^-1 loses a dimension
    f = tri.ft[:, :1]
    singular = v @ (np.eye(2 * n) - f @ f.conj().T)
    for vm, member in ((v, True), (sim._utilde(u), True), (bad, False), (singular, False)):
        by_operator = sim.membership_check(vm, tri, planted)
        by_relation = sim.membership_check(rel.from_operator(vm, t.src.doubled, t.src.doubled),
                                           tri, planted)
        old = membership_angle_by_compose(vm, tri, planted)
        assert by_operator["member"] == by_relation["member"] == member
        if vm is singular:
            assert by_operator["angle"] == by_relation["angle"] == old == np.inf
        else:
            assert abs(by_operator["angle"] - by_relation["angle"]) <= 1e-12
            assert abs(by_operator["angle"] - old) <= 1e-12


@pytest.mark.parametrize("z", [1j, 0.5 - 1.5j, 0.7])
def test_z_fibres_match_the_cage_intersection(pair44, z):
    # V^{-1}(zI) for an operator, its graph and a relation with domain T+, and
    # Gamma(zI) for full pairs at z and for pairs restricted to T0 at z and at
    # an eigenvalue of T0 (elsewhere T0 ∩ zI is trivial), against the old route
    t, tri_a, tri_b = pair44
    planted = planted_similar_triple(tri_a, gen_standard_unitary(29, t.src, t.src), t.src)
    rng = rng_for(19, 0)
    op = sim.build_standard_V(tri_a, tri_b, random_unitary(rng, t.dim))
    by_tau = sim.build_V_from_tau(tri_a, tri_b, random_unitary(rng, t.dim))
    ka = t.src.doubled
    op_rel = rel.from_operator(op, ka, ka)
    e, d = tri_a.t0.blocks()
    lam = np.linalg.eigvals(d @ np.linalg.inv(e))[0]
    ra, rb = (bnd.pair_from_triple(x, x.t0.graph) for x in (tri_a, planted))
    old_op = graph_by_span(op, ka, ka, DEFAULT_TOL)
    cases = [(sim._vinv_z(v, z, DEFAULT_TOL), graph, "tgt", z)
             for v, graph in ((op, old_op), (op_rel, op_rel), (by_tau, by_tau))]
    full = bnd.pair_from_triple(tri_a)
    cases += [(sim._pair_weyl_relation(pr, w), pr.gamma_rel, "src", w)
              for pr, w in ((full, z), (ra, z), (ra, lam), (rb, z), (rb, lam))]
    for got, graph, side, w in cases:
        want = z_fibre_by_cage(graph, w, side, DEFAULT_TOL)
        assert got.dim == want.dim and sub.distance(got, want) <= 1e-12
    assert [got.dim for got, *_ in cases] == [4, 4, 2, 2, 0, 1, 0, 1]


def test_build_v_from_tau_rejects_non_surjective(pair44):
    t, tri_a, tri_b = pair44
    with pytest.raises(sim.BuildError):
        sim.build_V_from_tau(tri_a, tri_b, np.zeros((t.dim, t.dim)))


def test_build_standard_v_properties(pair44):
    t, tri_a, tri_b = pair44
    rng = rng_for(5, 1)
    for k in range(10):
        tau = random_unitary(rng, t.dim) * (1 + 0.5 * rng.random())
        h = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
        theta = (h + h.conj().T) / 2
        sg = rng.standard_normal((t.dim, tri_a.boundary_dim))
        v = sim.build_standard_V(tri_a, tri_b, tau, theta, sg)
        assert sim.vabcd_residual(v, t.src, t.src) < 1e-9
        assert sim.membership_check(v, tri_a, tri_b)["member"]


def test_standard_v_on_a_planted_pair_meets_its_spaces_by_identity(pair44, monkeypatch):
    # the build's relations share the doubled spaces of the two triples, so
    # no host check falls back to comparing J entrywise
    t, tri, _ = pair44
    planted = planted_similar_triple(tri, gen_standard_unitary(5, t.src, t.src), t.src)
    compared, allclose = [], np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **k: compared.append(a) or allclose(*a, **k))
    sim.build_standard_V(tri, planted, np.eye(t.dim))
    assert not compared


def test_build_standard_v_rejects_bad_theta(pair44):
    t, tri_a, tri_b = pair44
    with pytest.raises(sim.BuildError):
        sim.build_standard_V(tri_a, tri_b, np.eye(t.dim),
                             np.array([[0, 1], [0, 0]], dtype=complex))


def test_final_example_block_structure(pair44):
    # Gamma' = Gamma: the displayed 4x4 triangular form with tau-natural
    t, tri, _ = pair44
    rng = rng_for(8, 2)
    tau = random_unitary(rng, t.dim) * 1.3
    h = rng.standard_normal((t.dim, t.dim))
    theta = (h + h.T) / 2 + 0j
    sg = rng.standard_normal((t.dim, tri.boundary_dim)) + 0j
    m = sim.build_standard_V(tri, tri, tau, theta, sg)
    ft, fn, fjn, fjt = tri.ft, tri.fn, tri.fjn, tri.fjt

    def block(rows, cols):
        return rows.conj().T @ m @ cols

    assert np.abs(block(ft, ft) - tau).max() < 1e-9
    assert np.abs(block(ft, fn) - sg).max() < 1e-9
    assert np.abs(block(fn, fn) - np.eye(tri.boundary_dim)).max() < 1e-9
    assert np.abs(block(fjn, fjn) - np.eye(tri.boundary_dim)).max() < 1e-9
    tau_nat = np.linalg.inv(tau.conj().T)
    assert np.abs(block(fjt, fjt) - tau_nat).max() < 1e-9
    assert np.abs(block(fjn, fjt) + (np.linalg.inv(tau) @ sg).conj().T).max() < 1e-9
    assert np.abs(block(ft, fjt) - 1j * theta @ tau_nat).max() < 1e-9
    for zero in (block(fn, ft), block(fjn, ft), block(fjt, ft),
                 block(fn, fjn), block(fjt, fjn), block(fjt, fn), block(fjn, fn)):
        assert np.abs(zero).max() < 1e-9


def test_weyl_criterion_planted_true(pair44):
    t, tri, _ = pair44
    u = gen_standard_unitary(21, t.src, t.src)
    planted = planted_similar_triple(tri, u, t.src)
    v = sim._utilde(u)
    for z in bnd.DEFAULT_GRID:
        res = sim.weyl_equality_criterion(tri, planted, v, complex(z))
        assert res.criterion and res.direct and res.diagnostics["agree"]


def test_weyl_criterion_kappa_false(pair44):
    t, tri, _ = pair44
    kappa = 2.0
    scaled = scaled_triple(tri, kappa)
    v = sim.build_standard_V(tri, scaled, np.eye(t.dim))
    hits = 0
    for z in bnd.DEFAULT_GRID:
        res = sim.weyl_equality_criterion(tri, scaled, v, complex(z))
        if res.hypotheses_ok:
            assert res.diagnostics["agree"]
            hits += 0 if res.criterion else 1
    assert hits  # the scaled pair differs at generic grid points


def test_two_route_agreement_random():
    for k in range(10):
        t = gen_symmetric(InstanceSpec(50 + k, 4, (2, 2), 2))
        tri_a = gen_triple(t, 60 + k)
        tri_b = gen_triple(t, 70 + k)
        rng = rng_for(80 + k, 0)
        v = sim.build_standard_V(tri_a, tri_b, random_unitary(rng, t.dim))
        for z in bnd.DEFAULT_GRID:
            res = sim.weyl_equality_criterion(tri_a, tri_b, v, complex(z))
            if res.hypotheses_ok:
                assert res.diagnostics["agree"], (k, z, res)


def test_weyl_criterion_accepts_relation_valued_v(pair44):
    # an operator defined only on T+ (free entries zero) runs through the
    # relation route of the criterion and agrees with the direct comparison
    t, tri_a, tri_b = pair44
    rng = rng_for(19, 0)
    v = sim.build_V_from_tau(tri_a, tri_b, random_unitary(rng, t.dim))
    for z in (1j, 1 + 1j, 0.5 - 1.5j):
        res = sim.weyl_equality_criterion(tri_a, tri_b, v, z)
        if res.hypotheses_ok:
            assert res.diagnostics["agree"]


def test_weyl_criterion_on_restricted_pairs(pair44):
    # isometric (non-unitary) boundary pairs: domain T0, kernel still T
    t, tri, _ = pair44
    u = gen_standard_unitary(29, t.src, t.src)
    planted = planted_similar_triple(tri, u, t.src)
    pa = bnd.pair_from_triple(tri, tri.t0.graph)
    pb = bnd.pair_from_triple(planted, planted.t0.graph)
    assert bnd.pair_isometry_check(pa) == {"isometric": True, "unitary": False}
    v = sim._utilde(u)
    for z in (1j, 2j):
        res = sim.weyl_equality_criterion(pa, pb, v, z)
        assert res.criterion and res.direct and res.diagnostics["agree"]


def test_reconstruct_identity(pair44):
    t, tri, _ = pair44
    out = sim.reconstruct_similarity(tri, tri)
    assert out["status"] == "unitary"
    assert np.abs(out["U"] - np.eye(t.src.dim)).max() < 1e-8


def test_reconstruct_planted(pair44):
    t, tri, _ = pair44
    for seed in (1, 2, 3):
        u = gen_standard_unitary(seed, t.src, t.src)
        planted = planted_similar_triple(tri, u, t.src)
        out = sim.reconstruct_similarity(tri, planted)
        assert out["status"] == "unitary", out
        assert out["gamma_residual"] < 1e-7
        assert out["w_offdiag"] < 1e-8
        assert out["w_diag_gap"] < 1e-8
        final = sim.membership_check(sim._utilde(out["U"]), tri, planted)
        assert out["gamma_residual"] == final["angle"]


@pytest.mark.parametrize("perturb, reason", [
    ("rotate", "final boundary identity off by"),
    ("scale", "assembled map is not standard unitary"),
])
def test_perturbed_reconstruction_still_fails(pair44, monkeypatch, perturb, reason):
    # gamma'(z) no longer matches the planted triple's Weyl family: rotated
    # everywhere by a second standard unitary, or rescaled at one grid point
    t, tri, _ = pair44
    planted = planted_similar_triple(tri, gen_standard_unitary(1, t.src, t.src), t.src)
    assert sim.reconstruct_similarity(tri, planted)["status"] == "unitary"
    w = gen_standard_unitary(5, t.src, t.src)
    gamma_field = sim.gamma_field

    def perturbed(triple, z):
        g = gamma_field(triple, z)
        if triple is not planted:
            return g
        if perturb == "rotate":
            return w @ g
        return g * (1 + 1e-3) if z == bnd.DEFAULT_GRID[0] else g

    monkeypatch.setattr(sim, "gamma_field", perturbed)
    out = sim.reconstruct_similarity(tri, planted)
    assert out["status"] == "hypothesis-violation", out
    assert out["reason"].startswith(reason), out["reason"]


@pytest.mark.parametrize("n", [16, 32, 48])
def test_reconstruct_at_benchmark_scale(n, monkeypatch):
    # the pipeline-large instances: d = n/4, a random signature
    p = int(rng_for(n, 7).integers(0, n + 1))
    t = gen_symmetric(InstanceSpec(n, n, (p, n - p), n // 4))
    tri = gen_triple(t, n)
    u = gen_standard_unitary(n, t.src, t.src)
    planted = planted_similar_triple(tri, u, t.src)
    calls = solved_points(monkeypatch)
    out = sim.reconstruct_similarity(tri, planted)
    # one defect solve per (triple, grid point): M(z) and gamma(z) share it
    assert Counter(calls) == Counter(2 * bnd.DEFAULT_GRID)
    assert out["status"] == "unitary", out
    assert np.abs(out["U"] - u).max() < 1e-9
    assert out["gamma_residual"] < 1e-7
    calls.clear()
    out = sim.reconstruct_similarity(tri, scaled_triple(tri, 2.0))
    assert out["status"] == "witness"
    assert out["discrepancy"] > 1e-3
    # the witness is at the first grid point, which each side solves alone
    assert out["z"] == bnd.DEFAULT_GRID[0]
    assert calls == [bnd.DEFAULT_GRID[0]] * 2


@pytest.mark.parametrize("s", [101, 201])
@pytest.mark.parametrize("n, d", [(12, 1), (16, 1), (24, 2), (64, 2), (96, 1), (96, 4)])
def test_reconstruct_past_the_grid(n, d, s):
    # n > 10 d: the grid's 10 d gamma columns cannot span H, so gamma is also
    # sampled beside the poles of T0
    t = gen_symmetric(InstanceSpec(s, n, (n // 2, n // 2), d))
    tri = gen_triple(t, s + 1)
    u = gen_standard_unitary(s + 2, t.src, t.src)
    out = sim.reconstruct_similarity(tri, planted_similar_triple(tri, u, t.src))
    assert out["status"] == "unitary", out.get("reason")
    assert np.abs(out["U"] - u).max() <= 1e-8 * np.abs(u).max()
    assert out["gamma_residual"] < 1e-7
    assert sim.reconstruct_similarity(tri, scaled_triple(tri, 2.0))["status"] == "witness"


def test_reconstruct_the_loose_similarity_trial():
    # suite_similarity's trial 20240871722437 under the loose policy plants a U
    # with cond U = 5.1e3, whose planted gamma columns fall under the 1e-3 cut;
    # the source's columns decide minimality, and they span H
    tseed, loose = 20240871722437, TolerancePolicy(1e-3, 1e-6, 1e-4)
    rng = rng_for(tseed, 30)
    n = int(rng.integers(2, 5))
    p = int(rng.integers(0, n + 1))
    t = gen_symmetric(InstanceSpec(tseed, n, (p, n - p), int(rng.integers(1, n))), tol=loose)
    tri = gen_triple(t, tseed, loose)
    u = gen_standard_unitary(tseed, t.src, t.src)
    assert np.linalg.cond(u) > 5e3
    out = sim.reconstruct_similarity(tri, planted_similar_triple(tri, u, t.src))
    assert out["status"] == "unitary", out.get("reason")
    assert np.abs(out["U"] - u).max() <= 1e-8 * np.abs(u).max()


def test_reconstruct_beside_a_pole_at_infinity(c4):
    # R0 = (T0 - z0)^{-1} is nilpotent on c4, so its four eigenvalues are 0 and
    # no gap separates them: one grid point's 3 columns miss H, and the pole
    # points still move off 0 by a tenth of ||R0||
    tri = c4["triple"]
    u = gen_standard_unitary(6, tri.space, tri.space)
    out = sim.reconstruct_similarity(tri, planted_similar_triple(tri, u, tri.space), (1j,))
    assert out["status"] == "unitary", out.get("reason")
    assert np.abs(out["U"] - u).max() <= 1e-8 * np.abs(u).max()


def test_reconstruct_names_the_build_check_a_loose_planted_pair_fails():
    # a hyperbolic rotation with cond U = e^12 = 1.6e5: the planted N' keeps
    # dim 2 under the loose cut, U is recovered, and the Theorem-l V then
    # fails its B-block check, which the reconstruction names
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    t = gen_symmetric(InstanceSpec(5008, 4, (2, 2), 2), tol=loose)
    tri = gen_triple(t, 5008, loose)
    w, v = np.linalg.eigh(t.src.J)
    ep, em = v[:, [np.argmax(w)]], v[:, [np.argmin(w)]]
    u = (np.eye(4) + (np.cosh(6) - 1) * (ep @ ep.conj().T + em @ em.conj().T)
         + np.sinh(6) * (ep @ em.conj().T + em @ ep.conj().T))
    out = sim.reconstruct_similarity(tri, planted_similar_triple(tri, u, t.src))
    assert out == {"status": "hypothesis-violation",
                   "reason": "Theorem-l V not built: assembled B block is singular"}


def test_omega_is_where_both_weyl_values_are_operators(monkeypatch):
    # a grid hugging the real eigenvalue of T0 near 2.9113: the loose rank cut
    # cannot tell T0 - z from singular there, yet Gamma0 stays invertible on
    # each defect graph, so both Weyl values have operator forms and gamma(z)
    # is evaluated at every point.  Its columns span less than H, and the
    # poles of T0 are read off R0 at the first such point, z0 = grid[0],
    # which the same cut calls singular: the reconstruction names z0.
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    t = gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2))
    tri = gen_triple(t, 4243, loose)
    planted = planted_similar_triple(tri, gen_standard_unitary(4244, t.src, t.src), t.src)
    e, d = tri.t0.blocks()
    eigs = np.linalg.eigvals(d @ np.linalg.inv(e))
    lam = eigs[np.argmin(np.abs(eigs - 2.9113))]
    assert abs(lam - 2.9113) < 1e-3
    grid = [lam.real + 0.03j, lam.real - 0.03j, lam.real + 0.04j, lam.real - 0.04j]
    seen = []
    gamma_field = sim.gamma_field

    def recording(triple, z):
        seen.append(z)
        return gamma_field(triple, z)

    monkeypatch.setattr(sim, "gamma_field", recording)
    out = sim.reconstruct_similarity(tri, planted, grid)
    both = [z for z in grid if bnd.weyl(tri, z).operator_form is not None
            and bnd.weyl(planted, z).operator_form is not None]
    assert both == grid
    assert set(both) <= set(seen)
    assert out == {"status": "hypothesis-violation",
                   "reason": f"T0 is not regular at z0 = {grid[0]}"}


def test_tau_invertibility_is_a_rank_decision():
    # det(0.5 I) = 5.7e-14 at dim T = 44, yet tau is perfectly conditioned
    t = gen_symmetric(InstanceSpec(48, 48, (24, 24), 4))
    tri = gen_triple(t, 48)
    assert t.dim == 44
    v = sim.build_standard_V(tri, tri, 0.5 * np.eye(t.dim))
    assert sim.vabcd_residual(v, t.src, t.src) < 1e-9
    tau = np.eye(t.dim)
    tau[0, 0] = 1e-14
    with pytest.raises(sim.BuildError, match="homeomorphism"):
        sim.build_standard_V(tri, tri, tau)


def test_rank_decisions_are_scale_invariant(pair44):
    # a rank is cut relative to the largest singular value, so a surjective
    # tau far below the loose policy's absolute floor of 1e-6 stays surjective
    t, tri_a, tri_b = pair44
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    v = sim.build_V_from_tau(under(tri_a, loose), under(tri_b, loose), 1e-7 * np.eye(t.dim))
    assert v.dim == tri_a.tplus.dim
    # the same map in units diag(I/30, 30 I), boundary-unitary, with Gamma F's
    # singular values 1/30 and 30, still validates and keeps its kernels
    x = np.repeat([1 / 30, 30.0], tri_a.boundary_dim)[:, None]
    scaled = bnd.validate_triple(t, x * tri_a.gamma_ambient, loose)
    assert sub.equal(scaled.t0.graph, tri_a.t0.graph, loose)
    assert sub.equal(scaled.t1.graph, tri_a.t1.graph, loose)


def test_two_triples_under_different_policies_are_rejected(pair44):
    t, tri_a, tri_b = pair44
    loose_b = under(tri_b, TolerancePolicy(1e-3, 1e-6, 1e-4))
    v = sim.build_standard_V(tri_a, tri_b, np.eye(t.dim))
    with pytest.raises(bnd.PolicyMismatchError):
        sim.reconstruct_similarity(tri_a, loose_b)
    with pytest.raises(bnd.PolicyMismatchError):
        sim.membership_check(v, tri_a, loose_b)
    with pytest.raises(bnd.PolicyMismatchError):
        sim.weyl_equality_criterion(bnd.pair_from_triple(tri_a),
                                    bnd.pair_from_triple(loose_b), v, 0.5 + 1.5j)
    assert sim.membership_check(v, tri_a, tri_b)["member"]


def test_reconstruct_rejects_a_non_simple_parent(t2_plus_point):
    # T = T2 ⊕ 0.7: no defect subspace, on the grid or beside a pole of T0,
    # reaches the self-adjoint part, so gamma's columns span 2 of 3 dimensions
    tri = t2_plus_point
    out = sim.reconstruct_similarity(tri, tri)
    assert out == {"status": "hypothesis-violation",
                   "reason": "defect subspaces over the grid and beside T0's poles "
                             "are not minimal (rank 2 < 3)"}


def test_reconstruct_witness_on_scaled(pair44):
    t, tri, _ = pair44
    for kappa in (2.0, 3.0):
        out = sim.reconstruct_similarity(tri, scaled_triple(tri, kappa))
        assert out["status"] == "witness"
        assert out["discrepancy"] > 1e-3


def test_w_invariance_audit(pair44):
    t, tri, _ = pair44
    u = gen_standard_unitary(33, t.src, t.src)
    planted = planted_similar_triple(tri, u, t.src)
    out = sim.reconstruct_similarity(tri, planted)
    vs = [sim._utilde(u), out["V"]]
    audit = sim.w_invariance_audit(tri, planted, u, vs)
    assert audit["ok"], audit
    # a perturbed candidate loses the invariances
    bad = sim._utilde(u).copy()
    bad[0, 1] += 0.05
    audit = sim.w_invariance_audit(tri, planted, u, [bad])
    assert not audit["ok"]


def test_boundary_dim_zero_checks():
    # a self-adjoint T has T+ = T, so the empty boundary map is a triple
    t = gen_symmetric(InstanceSpec(3, 4, (2, 2), 0))
    tri = bnd.validate_triple(t, np.zeros((0, 2 * t.src.dim)))
    assert tri.boundary_dim == 0
    assert sim.w_maps(tri, tri)["ok"]
    assert sim.sigma_unitary_check(tri, tri)["ok"]
    v = sim.build_standard_V(tri, tri, np.eye(t.dim))
    assert np.allclose(v, np.eye(2 * t.src.dim))
