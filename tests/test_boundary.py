import cProfile
import inspect
import pstats
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, extensions as ext, generators as gen, krein, \
    relations as rel, similarity as sim, subspaces as sub, suites as st
from kreinrel.generators import InstanceSpec, gen_standard_unitary, gen_symmetric, \
    gen_triple, planted_similar_triple, rng_for, sample_witness
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

from conftest import c4_weyl_matrix, svd_calls, under
from oracles import relation, weyl_gamma_by_svd


def test_validate_c4(c4):
    tri = c4["triple"]
    assert tri.boundary_dim == 3
    t0_golden = sub.span([[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1],
                         [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]])
    t1_golden = sub.span([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]])
    assert sub.equal(tri.t0.graph, t0_golden)
    assert sub.equal(tri.t1.graph, t1_golden)
    assert np.abs(tri.beta).max() < 1e-12


def test_validate_rejects_rank_deficient(c4):
    gamma = c4["gamma"].copy()
    gamma[3:, :] = gamma[:3, :]  # Gamma1 = Gamma0
    with pytest.raises(bnd.TripleValidationError):
        bnd.validate_triple(c4["T"], gamma, c4["basis"])


def test_validate_rejects_green_violation(c4):
    gamma = c4["gamma"].copy()
    gamma[0, 1] += 0.25
    with pytest.raises(bnd.TripleValidationError):
        bnd.validate_triple(c4["T"], gamma, c4["basis"])


def test_generated_triples_validate():
    for k in range(20):
        rng = rng_for(800 + k, 0)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(0, n + 1))
        d = int(rng.integers(1, n))
        t = gen_symmetric(InstanceSpec(800 + k, n, (p, n - p), d))
        tri = gen_triple(t, 900 + k)
        assert bnd.green_residual(t.src, tri.basis, tri.gamma) < 1e-10
        ext.n_class_check(t, tri.n_rel)


def test_gen_triple_rejects_selfadjoint(c4):
    with pytest.raises(ValueError):
        gen_triple(c4["triple"].t0, 1)


def test_weyl_matrix_c4(c4):
    tri = c4["triple"]
    for z in (1j, 1 + 2j, -0.5 + 0.25j):
        value = bnd.weyl(tri, z)
        assert value.operator_form is not None
        assert np.abs(value.operator_form - c4_weyl_matrix(z)).max() < 1e-10
    m0 = bnd.weyl(tri, 0.0)
    assert np.abs(m0.operator_form).max() < 1e-12


def test_weyl_mul_part_matches_kernel_overlap(c4):
    tri = c4["triple"]
    z = 1j
    overlap = sub.intersect(rel.graph_eigenspace(tri.tplus, z).graph, tri.t0.graph)
    mul = rel.parts(bnd.weyl(tri, z).relation_in_L).mul
    bv = tri.apply(overlap.frame) if overlap.dim else np.zeros((6, 0))
    want = sub.span(bv[3:, :]) if overlap.dim else sub.trivial(3)
    assert sub.equal(mul, want)


def _transposed(tri):
    """The transposed triple (Gamma1, -Gamma0), by the boundary-unitary flip."""
    eye, zero = np.eye(tri.boundary_dim), np.zeros((tri.boundary_dim,) * 2)
    return bnd.transform(tri, np.block([[zero, eye], [-eye, zero]]))


def test_transposed_weyl_inverse(c4):
    # M(z) of the worked example is singular, so the transposed family is a
    # genuine relation; the identity M^T(z) = -M(z)^{-1} holds graph-wise.
    tri = c4["triple"]
    flipped = _transposed(tri)
    neg = np.kron(np.diag([1.0, -1.0]), np.eye(3))
    for z in (1j, 1 + 1j):
        m = bnd.weyl(tri, z).relation_in_L
        mt = bnd.weyl(flipped, z).relation_in_L
        want = sub.image(neg, rel.inverse(m).graph)
        assert sub.equal(mt.graph, want)


def test_transposed_weyl_inverse_operator_case():
    # on a generated instance with invertible Weyl matrix the same identity
    # appears as an honest matrix inverse
    t = gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2))
    tri = gen_triple(t, 4243)
    flipped = _transposed(tri)
    done = 0
    for z in (1j, 1 + 1j, 2j):
        m = bnd.weyl(tri, z).operator_form
        mt = bnd.weyl(flipped, z).operator_form
        if m is None or mt is None or np.linalg.matrix_rank(m) < m.shape[0]:
            continue
        assert np.abs(mt + np.linalg.inv(m)).max() < 1e-8
        done += 1
    assert done


def test_gamma_field_c4(c4):
    tri = c4["triple"]
    z = 0.7 + 0.3j
    ghat = bnd.gamma_field_hat(tri, z)
    bv = tri.apply(ghat)
    assert np.abs(bv[:3, :] - np.eye(3)).max() < 1e-10
    g = bnd.gamma_field(tri, z)
    want = np.array([[1, z, 0], [0, 1, 0], [0, 0, z], [0, 0, 1]])
    assert np.abs(g - want).max() < 1e-10
    # values populate the defect subspace
    nz = rel.eigenspace(tri.tplus, z)
    assert sub.equal(sub.span(g), nz)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)])
def test_weyl_and_gamma_field_share_the_regularity_rule(tol):
    # just off a real eigenvalue of T0, where a loose rank cut calls the
    # restriction of Gamma0 to the defect graph singular
    tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243, tol)
    e, d = tri.t0.blocks()
    lam = min(np.linalg.eigvals(np.linalg.solve(e, d)), key=lambda x: abs(x - 2.9113))
    assert abs(lam.imag) < 1e-9
    z = lam.real + 1e-5j
    try:
        bnd.gamma_field_hat(tri, z)
        raised = False
    except rel.NotRegularError:
        raised = True
    assert (bnd.weyl(tri, z).operator_form is None) == raised


def test_a_loose_triple_decides_the_weyl_family_under_its_own_policy():
    # the loose cut calls Gamma0 on the defect graph singular just off the
    # real eigenvalue of T0 near 2.9113, where the default cut still solves
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243, loose)
    assert tri.tol == loose
    e, d = tri.t0.blocks()
    lam = min(np.linalg.eigvals(np.linalg.solve(e, d)), key=lambda x: abs(x - 2.9113))
    z = lam.real + 1e-5j
    assert bnd.weyl(tri, z).operator_form is None
    with pytest.raises(rel.NotRegularError):
        bnd.gamma_field(tri, z)
    assert bnd.weyl(under(tri, DEFAULT_TOL), z).operator_form is not None


_OF_A_TRIPLE = {"triple", "triple_a", "triple_b", "pair", "pair_a", "pair_b"}


def test_functions_of_a_triple_or_pair_take_no_policy():
    # the builders take the policy the triple then carries
    exempt = {"validate_triple", "gen_triple"}
    seen = set()
    for mod in (bnd, sim, gen):
        for name, f in vars(mod).items():
            if (name.startswith("_") or name in exempt or not inspect.isfunction(f)
                    or f.__module__ != mod.__name__):
                continue
            params = inspect.signature(f).parameters
            if any(p in _OF_A_TRIPLE or "BoundaryTriple" in str(v.annotation)
                   or "IsometricBoundaryPair" in str(v.annotation)
                   for p, v in params.items()):
                seen.add(name)
                assert "tol" not in params, f"{mod.__name__}.{name} takes a policy"
    assert {"weyl", "gamma_field", "pair_isometry_check", "reconstruct_similarity",
            "weyl_equality_criterion", "planted_similar_triple", "scaled_triple"} <= seen


def test_weyl_then_gamma_field_share_one_defect_solve(monkeypatch):
    tri = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991)
    calls = []
    graph_eigenspace = rel.graph_eigenspace

    def counting(t, z, tol=DEFAULT_TOL):
        calls.append(z)
        return graph_eigenspace(t, z, tol)

    monkeypatch.setattr(rel, "graph_eigenspace", counting)
    z = 0.37 + 1.21j
    assert bnd.weyl(tri, z).operator_form is not None
    bnd.gamma_field(tri, z)
    assert calls == [z]


def test_weyl_and_gamma_field_take_no_singular_vectors_of_the_defect_block(monkeypatch):
    # N_z(T+) = ker(D+ - zE+), an n x (n + d) block, comes from a QR of its
    # conjugate transpose; the certificate proves the square factor's full
    # rank, so neither block takes an SVD
    n, d = 32, 8
    tri = gen_triple(gen_symmetric(InstanceSpec(3232, n, (n // 2, n // 2), d)), 3233)
    tri.tplus, tri.basis_pinv  # derived before counting
    calls = svd_calls(monkeypatch)
    for z in (0.3 + 1.1j, -2 - 0.5j):
        assert bnd.weyl(tri, z).operator_form is not None
        bnd.gamma_field(tri, z)
    assert ((n, n + d), True) not in calls
    assert ((n, n), False) not in calls


@pytest.mark.parametrize("n", [16, 32, 64])
def test_weyl_and_gamma_field_match_the_svd_route(n):
    d = n // 4
    tri = gen_triple(gen_symmetric(InstanceSpec(n + 500, n, (n // 2, n // 2), d)), n + 501)
    for z in (1j, 0.5 - 1.5j, -1 + 1j, 3 + 0.01j):
        want_m, want_g = weyl_gamma_by_svd(tri, z)
        got_m, got_g = bnd.weyl(tri, z).operator_form, bnd.gamma_field(tri, z)
        assert np.linalg.norm(got_m - want_m) <= 1e-10 * np.linalg.norm(want_m)
        assert np.linalg.norm(got_g - want_g) <= 1e-10 * np.linalg.norm(want_g)


def _same(x, y):
    return (x is None and y is None) or np.array_equal(x, y)


def test_defect_solve_slot_never_goes_stale():
    # near a real eigenvalue of T0 the loose policy finds no gamma(z) while
    # the default one does: the same boundary map under the two policies
    # answers each under its own, whatever the other's slot holds
    tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243)
    loose = under(tri, TolerancePolicy(1e-3, 1e-6, 1e-4))
    other = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991)
    e, d = tri.t0.blocks()
    lam = min(np.linalg.eigvals(np.linalg.solve(e, d)), key=lambda x: abs(x - 2.9113))
    z1, z2 = lam.real + 1e-5j, -1 + 1j
    steps = [(tri, z1), (tri, z2), (tri, z1), (loose, z1), (other, z1), (loose, z1),
             (tri, z1)]
    forms = []
    for t, z in steps:
        fresh = under(t, t.tol)
        for a, b in ((t, fresh), (fresh, t)):
            wa, wb = bnd.weyl(a, z), bnd.weyl(b, z)
            assert _same(wa.operator_form, wb.operator_form)
            assert np.array_equal(wa.relation_in_L.graph.frame, wb.relation_in_L.graph.frame)
            if wa.operator_form is not None:
                assert np.array_equal(bnd.gamma_field_hat(a, z), bnd.gamma_field_hat(b, z))
        forms.append(bnd.weyl(t, z).operator_form)
    assert forms[2] is not None and forms[3] is None


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
@pytest.mark.parametrize("seed, n, d", [(4242, 4, 2), (1616, 16, 4)])
def test_a_walk_solves_each_point_like_the_scalar_call(tol, seed, n, d):
    # the first point is beside a real eigenvalue of T0, where the loose cut
    # finds no gamma(z) at n = 4; the walk is solved in one stacked pass and
    # each point gets the scalar call's verdict, M(z) and gamma(z)
    tri = gen_triple(gen_symmetric(InstanceSpec(seed, n, (n // 2, n // 2), d)), seed + 1, tol)
    e, dd = tri.t0.blocks()
    lam = min(np.linalg.eigvals(np.linalg.solve(e, dd)), key=lambda x: abs(x - 2.9113))
    walk = [lam.real + 1e-5j, *bnd.DEFAULT_GRID, 3 + 0.01j]
    solves = bnd._defect_solve(tri, walk)
    assert list(solves) == walk
    r0 = rel.resolvent_matrix(tri.t0, walk, tol)
    for z, r in zip(walk, r0):
        value, ghat = solves[z]
        scalar = under(tri, tol)
        want, want_ghat = bnd.weyl(scalar, z), bnd._defect_solve(scalar, z)[1]
        graph, want_graph = bnd.weyl(tri, z).relation_in_L.graph, want.relation_in_L.graph
        assert graph.dim == want_graph.dim and sub.distance(graph, want_graph) < 1e-13
        m, want_m = value.operator_form, want.operator_form
        assert (m is None) == (want_m is None) == (ghat is None)
        if m is not None:
            assert _rel_gap(m, want_m) < 1e-13 and _rel_gap(ghat, want_ghat) < 1e-13
            assert bnd.weyl(tri, z).operator_form is m and bnd.gamma_field_hat(tri, z) is ghat
        try:
            assert _rel_gap(r, rel.resolvent_matrix(tri.t0, z, tol)) < 1e-13
        except rel.NotRegularError:
            assert r is None
    if n == 4:
        assert (solves[walk[0]][0].operator_form is None) == (tol != DEFAULT_TOL)


def _beside_real_eigenvalue(tri, eps):
    """lambda + i eps beside the real eigenvalue of T0 near 2.9113 (seed 4242)."""
    e, d = tri.t0.blocks()
    lam = min(np.linalg.eigvals(np.linalg.solve(e, d)), key=lambda x: abs(x - 2.9113))
    return lam.real + 1j * eps


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
def test_one_svd_of_gamma0_decides_regularity_as_matrix_rank_does(tol):
    # eps = 1e-1 .. 1e-9 brings Gamma0 on N_z from well conditioned to past
    # both cuts; the scalar call and the walk give matrix_rank's verdict
    tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243, tol)
    d = tri.boundary_dim
    walk = [_beside_real_eigenvalue(tri, 10.0 ** -k) for k in range(1, 10)]
    walked = bnd._defect_solve(under(tri, tol), walk)
    verdicts = []
    for z in walk:
        value = bnd.weyl(tri, z)
        b0 = value.boundary_values[:d]
        want = b0.shape[1] == d and np.linalg.matrix_rank(b0, rtol=tol.rank_rel) == d
        assert (value.operator_form is not None) == want
        assert (walked[z][0].operator_form is not None) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("case", ["regular", "loose-irregular"])
def test_weyl_spans_its_relation_only_when_read(case, monkeypatch):
    # reading M(z)'s matrix and gamma(z) takes one span (the eigenspace's), no
    # span of the boundary values and no matrix_rank; the relation read after
    # is that span, bit for bit.  The loose case is the point of
    # test_defect_solve_slot_never_goes_stale that has no operator form.
    if case == "regular":
        tri, z = gen_triple(gen_symmetric(InstanceSpec(1616, 16, (8, 8), 4)), 1617), 0.3 + 0.7j
    else:
        tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243,
                         TolerancePolicy(1e-3, 1e-6, 1e-4))
        z = _beside_real_eigenvalue(tri, 1e-5)
    d, tol = tri.boundary_dim, tri.tol
    tri.tplus, tri.gamma_ambient, tri.boundary_space  # derived before counting
    calls, ranks, spans = svd_calls(monkeypatch), [], []
    matrix_rank, span = np.linalg.matrix_rank, sub.span
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: ranks.append(a) or matrix_rank(*a, **k))
    monkeypatch.setattr(sub, "span", lambda *a, **k: spans.append(a) or span(*a, **k))
    value = bnd.weyl(tri, z)
    if case == "regular":
        assert value.operator_form is not None
        bnd.gamma_field(tri, z)
    else:
        assert value.operator_form is None
        with pytest.raises(rel.NotRegularError):
            bnd.gamma_field(tri, z)
    repr(value)
    assert "relation_in_L" not in vars(value) and not ranks and len(spans) == 1
    if case == "regular":  # at n = 4 = 2d the eigenspace's span also has this shape
        assert ((2 * d, d), True) not in calls
    graph = value.relation_in_L.graph
    assert len(spans) == 2 and bnd.weyl(tri, z).relation_in_L is value.relation_in_L
    frame = rel.graph_eigenspace(tri.tplus, z, tol).graph.frame
    assert np.array_equal(graph.frame, span(tri.gamma_ambient @ frame, tol).frame)
    assert graph.dim == d


def test_a_boundary_dim_zero_triple_has_empty_weyl_values():
    # a self-adjoint T0 has T+ = T0, and the zero map on it is a boundary map
    t0 = sample_witness(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 5).t0
    tri = bnd.validate_triple(t0, np.zeros((0, rel.adjoint(t0, "krein").dim)))
    assert tri.boundary_dim == 0
    for z in (0.5 - 1.5j, 1j):
        value = bnd.weyl(tri, z)
        assert value.operator_form.shape == (0, 0) and value.relation_in_L.dim == 0
        assert bnd.gamma_field(tri, z).shape == (4, 0)
    # 1j is in the slot from the scalar call, -1j is walked
    for fresh in (False, True):
        triple = bnd.validate_triple(t0, tri.gamma) if fresh else tri
        out = bnd.resolvent_identities_check(triple, (1j,))
        assert out["points"] == [1j, -1j] and out["max_symmetry"] == 0.0
        assert out["weyl"][-1j].relation_in_L.dim == 0


def test_defect_solve_arrays_are_read_only():
    tri = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991)
    m = bnd.weyl(tri, 1j).operator_form
    g = bnd.gamma_field(tri, 1j)
    with pytest.raises(ValueError):
        m[0, 0] = 0
    with pytest.raises(ValueError):
        g[0, 0] = 0


def test_shared_triple_across_threads():
    tri = gen_triple(gen_symmetric(InstanceSpec(77, 16, (8, 8), 4)), 78)
    pts = [complex(x, s * y) for s in (1, -1) for y in (0.5, 2.0) for x in (-1.0, 0.0, 1.0)]
    serial = {z: (bnd.weyl(tri, z).operator_form, bnd.gamma_field(tri, z)) for z in pts}

    def worker(zs):
        for _ in range(20):
            for z in zs:
                m, g = bnd.weyl(tri, z).operator_form, bnd.gamma_field(tri, z)
                assert np.array_equal(m, serial[z][0]) and np.array_equal(g, serial[z][1])
        return True

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert all(pool.map(worker, [pts[::2], pts[1::2]]))


def test_derived_values_shared_across_threads():
    # threads that miss a derived value of one triple at once compute equal values
    tri = gen_triple(gen_symmetric(InstanceSpec(77, 8, (4, 4), 2)), 78)
    names = ("t0", "t1", "n_rel", "g0inv", "g1inv", "beta")

    def derive(shared):
        values = [getattr(shared, n) for n in names]
        return [v.graph.frame if isinstance(v, rel.LinearRelation) else v for v in values]

    want = derive(bnd.beta_shift(tri))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                shared = bnd.beta_shift(tri)
                for got in pool.map(lambda _: derive(shared), range(4), timeout=60):
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def test_inverse_boundary_c4(c4):
    tri = c4["triple"]
    g0inv_golden = np.zeros((8, 3), dtype=complex)
    g0inv_golden[0, 0] = 0.5
    g0inv_golden[1, 1] = 1
    g0inv_golden[3, 2] = 1
    g0inv_golden[5, 0] = -0.5
    g1inv_golden = np.zeros((8, 3), dtype=complex)
    g1inv_golden[2, 0] = 1
    g1inv_golden[4, 2] = 1
    g1inv_golden[6, 1] = 1
    g1inv_golden[7, 0] = 1
    assert np.abs(tri.g0inv - g0inv_golden).max() < 1e-10
    assert np.abs(tri.g1inv - g1inv_golden).max() < 1e-10
    assert np.abs(tri.beta).max() < 1e-12


def test_inverse_boundary_projection_identities(c4):
    tri = c4["triple"]
    p_jn = tri.fjn @ tri.fjn.conj().T
    p_n = tri.fn @ tri.fn.conj().T
    for z in (1j, 2j, 1 - 1j):
        ghat = bnd.gamma_field_hat(tri, z)
        assert np.abs(p_jn @ ghat - tri.g0inv).max() < 1e-9
        m_beta = bnd.weyl(tri, z).operator_form - tri.beta
        assert np.abs(p_n @ ghat - tri.g1inv @ m_beta).max() < 1e-9


def test_inverse_boundary_transposed_swaps_roles(c4):
    tri = c4["triple"]
    flipped = _transposed(tri)
    # N of the transposed triple is J_hat(N) of the original
    assert sub.equal(flipped.n_rel.graph, sub.span(tri.fjn))
    assert sub.equal(sub.span(flipped.fjn), tri.n_rel.graph)


def test_beta_shift_properties(c4):
    tri = c4["triple"]
    shifted = bnd.beta_shift(tri)  # beta = 0: unchanged
    assert np.abs(shifted.gamma - tri.gamma).max() < 1e-12
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    b = (b + b.T) / 2
    shifted = bnd.beta_shift(tri, b)
    for z in (1j, 1 + 1j):
        m = bnd.weyl(tri, z).operator_form
        mb = bnd.weyl(shifted, z).operator_form
        assert np.abs(mb - (m - b)).max() < 1e-9
    assert np.abs(shifted.beta - (tri.beta - b)).max() < 1e-9
    # kernel claim: ker Gamma1^beta = T ⊕ J_hat(N) for the beta of the triple
    back = bnd.beta_shift(tri)
    t_jn = sub.sum_(c4["T"].graph, sub.span(tri.fjn))
    assert sub.equal(back.t1.graph, t_jn)


def test_beta_shift_kernel_claim_random():
    for k in range(5):
        t = gen_symmetric(InstanceSpec(111 + k, 4, (2, 2), 2))
        tri = gen_triple(t, 222 + k)
        shifted = bnd.beta_shift(tri)
        t_jn = sub.sum_(t.graph, sub.span(tri.fjn))
        assert sub.equal(shifted.t1.graph, t_jn)


def test_transform_rejects_non_unitary(c4):
    x = np.eye(6, dtype=complex)
    x[0, 0] = 2.0
    with pytest.raises(bnd.TripleValidationError):
        bnd.transform(c4["triple"], x)


def test_t_theta_special_cases(c4):
    tri = c4["triple"]
    lspace = tri.boundary_space
    zero_times_l = relation(lspace, lspace, sub.product(sub.trivial(3), sub.full(3)))
    assert sub.equal(bnd.t_theta(tri, zero_times_l).graph, tri.t0.graph)
    l_times_zero = relation(lspace, lspace, sub.product(sub.full(3), sub.trivial(3)))
    assert sub.equal(bnd.t_theta(tri, l_times_zero).graph, tri.t1.graph)


def test_t_theta_prop_fn_formula(c4):
    tri = c4["triple"]
    lspace = tri.boundary_space
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 3))
    theta = rel.from_operator((h + h.T) / 2, lspace, lspace)
    t_theta = bnd.t_theta(tri, theta)
    assert rel.is_selfadjoint(t_theta)
    # displayed formula: T ⊕ ran(Gamma0^(-1) + Gamma1^(-1)(Theta - beta))
    mat = tri.g0inv + tri.g1inv @ ((h + h.T) / 2 - tri.beta)
    want = sub.sum_(c4["T"].graph, sub.span(mat))
    assert sub.equal(t_theta.graph, want)


def test_pair_isometry_flags(c4):
    tri = c4["triple"]
    full = bnd.pair_from_triple(tri)
    flags = bnd.pair_isometry_check(full)
    assert flags == {"isometric": True, "unitary": True}
    assert sub.equal(full.kernel.graph, c4["T"].graph)
    assert sub.equal(full.a_star.graph, tri.tplus.graph)

    restricted = bnd.pair_from_triple(tri, tri.t0.graph)
    flags = bnd.pair_isometry_check(restricted)
    assert flags["isometric"] and not flags["unitary"]
    assert sub.equal(restricted.kernel.graph, c4["T"].graph)

    broken = bnd.IsometricBoundaryPair(
        tri.boundary_dim,
        relation(krein.doubled(tri.space).krein, krein.boundary_doubled(3).krein,
                    sub.span(np.vstack([tri.basis,
                                        np.vstack([tri.gamma[:3] * 0, tri.gamma[3:]])]))),
        full.a_star, full.kernel, full.tol)
    flags = bnd.pair_isometry_check(broken)
    assert not flags["isometric"]


def test_k_shift_equivalence_both_directions(c4):
    tri = c4["triple"]
    rng = np.random.default_rng(2)
    b = rng.standard_normal((3, 3))
    shifted = bnd.beta_shift(tri, (b + b.T) / 2)
    out = bnd.k_shift_equivalence(tri, shifted)
    assert out["exists_k"] and out["agrees_on_n"] and out["equivalent"]
    assert np.abs(out["k"] - (b + b.T) / 2).max() < 1e-9
    # scaling changes Gamma1 on N: both sides false together
    from kreinrel.generators import scaled_triple
    out = bnd.k_shift_equivalence(tri, scaled_triple(tri, 2.0))
    assert not out["agrees_on_n"] and not out["exists_k"] and out["equivalent"]


def test_weyl_symmetry_c4(c4):
    out = bnd.resolvent_identities_check(c4["triple"])
    assert out["max_symmetry"] < 1e-10
    out2 = bnd.resolvent_identities_check(c4["triple"], grid=(1j, -1j, 0.5))
    assert 0.5 in out2["skipped"]


def test_resolvent_identities_c4(c4):
    # the worked example has singular Weyl matrices and an extension T1
    # without regular points, so only the gamma-field identities fire here
    out = bnd.resolvent_identities_check(c4["triple"])
    assert out["points"]
    assert out["max_gamma_diff"] < 1e-9
    assert out["max_pairing"] < 1e-9
    assert not out["krein_naimark"]


def test_resolvent_identities_generated():
    evaluated = 0
    for k in range(6):
        t = gen_symmetric(InstanceSpec(990 + k, 4, (2, 2), 2))
        tri = gen_triple(t, 991 + k)
        out = bnd.resolvent_identities_check(tri)
        assert out["max_gamma_diff"] < 1e-8
        assert out["max_pairing"] < 1e-8
        assert out["max_krein_naimark"] < 1e-8
        evaluated += len(out["krein_naimark"])
    assert evaluated, "Krein-Naimark never fired across generated instances"


def test_resolvent_identities_propagate_a_nan_residual(monkeypatch):
    # a NaN angle at the second symmetry point reaches max_symmetry, so the
    # boundary suite's report fails on it
    tri = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991)
    distance, calls = sub.distance, []

    def nan_second(a, b):
        calls.append(None)
        return float("nan") if len(calls) == 2 else distance(a, b)

    monkeypatch.setattr(sub, "distance", nan_second)
    out = bnd.resolvent_identities_check(tri)
    assert np.isnan(out["max_symmetry"])
    assert out["max_gamma_diff"] < 1e-8


def test_resolvent_identities_skip_points_without_a_defect_solve(monkeypatch):
    # where the probe of T0 says regular but the defect solve finds no
    # gamma(z), the point is skipped rather than raising
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    tri = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991, loose)
    solve = bnd._defect_solve

    def singular_at_i(triple, z):
        return (solve(triple, z)[0], None, None) if z == 1j else solve(triple, z)

    monkeypatch.setattr(bnd, "_defect_solve", singular_at_i)
    assert rel.spectral_probe(tri.t0, 1j, loose)["regular"]
    out = bnd.resolvent_identities_check(tri, bnd.DEFAULT_GRID)
    assert 1j in out["skipped"] and 1j not in out["points"]
    assert out["points"] and out["max_gamma_diff"] < 1e-8


@pytest.mark.parametrize("walk", [tuple, iter])
def test_resolvent_identities_read_the_grid_once(walk):
    # an iterator grid reports its skipped points like the same tuple
    tri = gen_triple(gen_symmetric(InstanceSpec(1, 4, (2, 2), 2)), 2)
    out = bnd.resolvent_identities_check(tri, walk((0.5, 1j, -1j, 2 + 1j)))
    assert out["skipped"] == [0.5]
    assert set(out["points"]) == {1j, -1j, 2 + 1j, 2 - 1j}


LOOSE = TolerancePolicy(1e-3, 1e-6, 1e-4)


@pytest.mark.parametrize("z", [0.7 + 1e-3j, 0.7 + 1e-4j, 0.7 + 1e-6j])
def test_loose_cut_near_an_eigenvalue_of_t_is_irregular(t2_plus_point, z):
    # the 1e-3 cut keeps a near-null direction of T+ - z about one cut off
    # T+, so the defect frame has d + 1 columns: z is irregular, not an error
    tri = under(t2_plus_point, LOOSE)
    value = bnd.weyl(tri, z)
    assert value.operator_form is None
    assert value.relation_in_L.dim == tri.boundary_dim
    with pytest.raises(rel.NotRegularError):
        bnd.gamma_field(tri, z)
    assert bnd.resolvent_identities_check(tri, (z,))["max_symmetry"] < 1e-8


def test_loose_cut_further_from_an_eigenvalue_of_t_still_solves(t2_plus_point):
    tri, z = under(t2_plus_point, LOOSE), 0.7 + 3e-3j
    m = bnd.weyl(tri, z).operator_form
    assert np.abs(m - bnd.weyl(t2_plus_point, z).operator_form).max() < 1e-12
    assert bnd.gamma_field(tri, z).shape == (3, 1)


def test_apply_rejects_vectors_off_tplus(t2_plus_point):
    # caller vectors 1e-5 off T+ leave a relative residual of about 1e-6,
    # which fails the default policy's membership cut
    tri = t2_plus_point
    off = np.zeros((6, 1), dtype=np.complex128)
    off[2, 0] = 1e-5
    tri.apply(tri.basis[:, :1])
    with pytest.raises(ValueError, match="not inside the adjoint's graph"):
        tri.apply(tri.basis[:, :1] + off)


def test_ddttp_check_planted(c4):
    tri = c4["triple"]
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 3))
    other = bnd.beta_shift(bnd.beta_shift(tri, (b + b.T) / 2), -(b + b.T) / 2)
    out = bnd.ddTTp_check(tri, other)
    assert out["omega"]
    assert out["ok"], out


# ---------------------------------------------------------------------------
# each builder checks its hypotheses once; settled facts are not re-decided


def _hermitian_theta(tri):
    h = np.random.default_rng(6).standard_normal((tri.boundary_dim,) * 2)
    lspace = tri.boundary_space
    return rel.from_operator((h + h.T) / 2, lspace, lspace)


_BUILDERS = {
    "validate_triple": lambda t, tri: bnd.validate_triple(t, tri.gamma, tri.basis),
    "sample_witness": lambda t, tri: sample_witness(t, 5),
    "n_class_check": lambda t, tri: ext.n_class_check(t, tri.n_rel),
    "extend": lambda t, tri: ext.extend(t, tri.n_rel),
    "t_theta": lambda t, tri: bnd.t_theta(tri, _hermitian_theta(tri)),
    "transform": lambda t, tri: bnd.beta_shift(tri),
    "planted_similar_triple": lambda t, tri: planted_similar_triple(
        tri, gen_standard_unitary(5, tri.space, tri.space), tri.space),
}


@pytest.fixture(scope="module")
def generated41():
    t = gen_symmetric(InstanceSpec(41, 4, (2, 2), 2))
    return t, gen_triple(t, 42)


@pytest.mark.parametrize("route, builder", [
    ("ext.n_class_check", "validate_triple"),
    ("ext.n_class_check", "sample_witness"),
    ("sub.sum_", "validate_triple"),
    ("rel.is_selfadjoint", "validate_triple"),
    ("rel.is_selfadjoint", "sample_witness"),
    ("rel.is_selfadjoint", "n_class_check"),
    ("rel.is_selfadjoint", "extend"),
    ("rel.is_selfadjoint", "t_theta"),
    ("rel.is_symmetric", "transform"),
    ("rel.is_symmetric", "planted_similar_triple"),
])
def test_builders_do_not_re_decide_settled_facts(c4, generated41, monkeypatch,
                                                 route, builder):
    owner, name = route.split(".")

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{builder} re-decided a fact through {route}")

    monkeypatch.setattr({"ext": ext, "rel": rel, "sub": sub}[owner], name, forbidden)
    for parent, tri in ((c4["T"], c4["triple"]), generated41):
        assert _BUILDERS[builder](parent, tri) is not None


def _t1_is_t0(tri):
    # plant t1 = t0 over the value derived from gamma: self-adjoint, and
    # spanning T+ by dimension count alone, but meeting t1 in t0, not in T
    object.__setattr__(tri, "t1", tri.t0)
    return tri


def test_boundary_suite_proves_the_kernel_theorem(monkeypatch):
    # validate_triple leaves the kernel theorem to the boundary suite, so a
    # triple whose t1 is its t0 must fail there by name
    build = st.gen.gen_triple
    assert st.suite_boundary(1, 3).ok
    monkeypatch.setattr(st.gen, "gen_triple",
                        lambda t, seed, tol=DEFAULT_TOL: _t1_is_t0(build(t, seed, tol)))
    report = st.suite_boundary(1, 3)
    assert [f["what"] for f in report.failures] == ["ker Gamma0 and ker Gamma1 do not meet in T"]


def test_boundary_suite_proves_the_kernel_theorem_for_the_beta_shift(monkeypatch):
    # transform does not validate, so the suite's proof is what checks the
    # shifted triple; a fault in it alone is named for that triple
    shift = st.bnd.beta_shift
    monkeypatch.setattr(st.bnd, "beta_shift",
                        lambda tri, beta=None: _t1_is_t0(shift(tri, beta)))
    report = st.suite_boundary(1, 3)
    assert [f["what"] for f in report.failures] == [
        "beta-shifted triple: ker Gamma0 and ker Gamma1 do not meet in T"]


def _svd_calls(fn):
    prof = cProfile.Profile()
    out = prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    return out, sum(v[1] for k, v in stats.items() if k[2] == "svd" and "linalg" in k[0])


def test_transformed_triples_derive_on_first_read(generated41):
    t, tri = generated41
    u = gen_standard_unitary(5, tri.space, tri.space)
    shifted, shift_svds = _svd_calls(lambda: bnd.beta_shift(tri))
    planted, plant_svds = _svd_calls(lambda: planted_similar_triple(tri, u, tri.space))
    # transform multiplies gamma; planting maps T by U~, one QR for T's image
    assert (shift_svds, plant_svds) == (0, 0)
    assert not {"t0", "t1", "beta"} & (vars(shifted).keys() | vars(planted).keys())
    for built in (shifted, planted):
        checked = bnd.validate_triple(built.parent, built.gamma, built.basis)
        for name in ("t0", "t1"):
            assert np.array_equal(getattr(built, name).graph.frame,
                                  getattr(checked, name).graph.frame)
        assert np.array_equal(built.beta, checked.beta)


def test_gamma_relation_spans_once_per_triple(generated41, monkeypatch):
    _, tri = generated41
    first = bnd.gamma_relation(tri)
    calls = svd_calls(monkeypatch)
    assert bnd.gamma_relation(tri).graph is first.graph
    assert not calls


def test_planted_similar_triple_checks_u(generated41):
    _, tri = generated41
    u = gen_standard_unitary(5, tri.space, tri.space)
    with pytest.raises(bnd.TripleValidationError):
        planted_similar_triple(tri, 2 * u, tri.space)
