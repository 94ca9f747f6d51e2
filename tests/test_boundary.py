import cProfile
import dataclasses
import inspect
import json
import os
import pstats
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, extensions as ext, generators as gen, io as kio, \
    krein, relations as rel, similarity as sim, subspaces as sub, suites as st
from kreinrel.generators import InstanceSpec, gen_standard_unitary, gen_symmetric, \
    gen_triple, planted_similar_triple, rng_for, sample_witness
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

from conftest import c4_weyl_matrix, svd_calls, under
from oracles import relation, weyl_gamma_by_svd


T0_GOLDEN = np.array([[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1],
                      [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]]).T
T1_GOLDEN = np.array([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]]).T


def test_validate_c4(c4):
    tri = c4["triple"]
    assert tri.boundary_dim == 3
    assert sub.equal(tri.t0.graph, sub.span(T0_GOLDEN))
    assert sub.equal(tri.t1.graph, sub.span(T1_GOLDEN))
    assert np.abs(tri.beta).max() < 1e-12


def test_a_hand_written_ambient_gamma_loads():
    # the shipped ex4 gives Gamma as an integer matrix on C^8 with rows
    # e0 - e5, e1, e3, e2, e6, e4, and no basis of T+
    path = os.path.join(os.path.dirname(kio.__file__), "data", "ex4.json")
    with open(path, encoding="utf-8") as fh:
        block = json.load(fh)["triple"]
    assert set(block) == {"boundary_dim", "gamma"}
    e = np.eye(8)
    want = np.stack([e[0] - e[5], e[1], e[3], e[2], e[6], e[4]])
    assert np.array_equal(kio.decode_matrix(block["gamma"]), want)
    tri = kio.load_document(path)["triple"]
    assert sub.equal(tri.t0.graph, sub.span(T0_GOLDEN))
    assert sub.equal(tri.t1.graph, sub.span(T1_GOLDEN))
    assert np.abs(tri.beta).max() <= 1e-15


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
@pytest.mark.parametrize("n", [4, 16, 48])
def test_only_gamma_on_tplus_counts(n, tol):
    # Gamma + Y (I - F F^H) with Y large acts on T+ as Gamma does; what
    # validation keeps of it agrees to 1e-14 of the input's norm, and T0, T1
    # and M(i) to 1e-14 of the input's norm over Gamma F's
    t = gen_symmetric(InstanceSpec(n, n, (n // 2, n - n // 2), max(1, n // 4)), tol=tol)
    tri = gen_triple(t, n, tol)
    f, g = tri.basis, tri.gamma_ambient
    y = 1e3 * gen.random_complex(rng_for(n, 80), *g.shape)
    big = g + y @ (np.eye(2 * n) - f @ f.conj().T)
    other = bnd.validate_triple(t, big, tol)
    scale = np.linalg.norm(big, 2)
    amp = scale / np.linalg.norm(tri.gamma, 2)
    assert amp > 1e3
    assert np.linalg.norm(other.gamma - tri.gamma, 2) <= 1e-14 * scale
    for name in ("t0", "t1"):
        assert sub.distance(getattr(other, name).graph, getattr(tri, name).graph) <= 1e-14 * amp
    m, want = bnd.weyl(other, 1j).operator_form, bnd.weyl(tri, 1j).operator_form
    assert np.linalg.norm(m - want) <= 1e-14 * amp * np.linalg.norm(want)


def test_validate_rejects_rank_deficient(c4):
    gamma = c4["gamma"].copy()
    gamma[3:, :] = gamma[:3, :]  # Gamma1 = Gamma0
    with pytest.raises(bnd.TripleValidationError):
        bnd.validate_triple(c4["T"], gamma)


def test_validate_rejects_green_violation(c4):
    gamma = c4["gamma"].copy()
    gamma[0, 1] += 0.25
    with pytest.raises(bnd.TripleValidationError):
        bnd.validate_triple(c4["T"], gamma)


@pytest.mark.parametrize("tol, scales, too_wide", [
    (DEFAULT_TOL, (1e4, 1e-4), ()),
    (TolerancePolicy(1e-3, 1e-6, 1e-4), (10.0, 0.1), (1e4,)),
], ids=["default", "loose"])
def test_beta_is_checked_at_the_scale_of_its_factors(tol, scales, too_wide):
    # diag(I/k, k I) Gamma is a triple with the same kernels and beta = 0, whose
    # beta rounds off k^2 times more; cond Gamma F = k^2 stays inside the map
    # rule at each of `scales`, 1e8 against rank_rel 1e-10 and 1e2 against 1e-3,
    # while the loose rule calls the map at k = 1e4 not surjective
    for n in range(2, 17):
        t = gen_symmetric(InstanceSpec(n, n, (n // 2, n - n // 2), max(1, n // 4)), tol=tol)
        tri = gen_triple(t, n, tol)
        for k in scales + too_wide:
            gamma = np.repeat([1 / k, k], tri.boundary_dim)[:, None] * tri.gamma_ambient
            if k in too_wide:
                with pytest.raises(bnd.TripleValidationError, match="not surjective"):
                    bnd.validate_triple(t, gamma, tol)
                continue
            scaled = bnd.validate_triple(t, gamma, tol)
            assert sub.equal(scaled.t0.graph, tri.t0.graph, tol)
            assert sub.equal(scaled.t1.graph, tri.t1.graph, tol)


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
    bv = tri.gamma_ambient @ overlap.frame
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
    ghat = bnd.weyl(tri, z).gamma_hat
    bv = tri.gamma_ambient @ ghat
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
    value = bnd.weyl(tri, z)
    try:
        bnd.gamma_field(tri, z)
        raised = False
    except rel.NotRegularError:
        raised = True
    assert (value.operator_form is None) == (value.gamma_hat is None) == raised


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
    tri.tplus, tri.gamma_ambient  # derived before counting
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
                assert np.array_equal(bnd.weyl(a, z).gamma_hat, bnd.weyl(b, z).gamma_hat)
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
    values = bnd.weyl(tri, walk)
    assert [value.z for value in values] == walk
    r0 = rel.resolvent_matrix(tri.t0, walk, tol)
    for z, value, r in zip(walk, values, r0):
        want = bnd.weyl(under(tri, tol), z)
        graph, want_graph = bnd.weyl(tri, z).relation_in_L.graph, want.relation_in_L.graph
        assert graph.dim == want_graph.dim and sub.distance(graph, want_graph) < 1e-13
        m, want_m, ghat = value.operator_form, want.operator_form, value.gamma_hat
        assert (m is None) == (want_m is None) == (ghat is None)
        if m is not None:
            assert _rel_gap(m, want_m) < 1e-13 and _rel_gap(ghat, want.gamma_hat) < 1e-13
        assert bnd.weyl(tri, z) is value
        try:
            assert _rel_gap(r, rel.resolvent_matrix(tri.t0, z, tol)) < 1e-13
        except rel.NotRegularError:
            assert r is None
    if n == 4:
        assert (values[0].operator_form is None) == (tol != DEFAULT_TOL)
    # a tuple is a walk too, and an empty walk has no values
    for value, again in zip(values, bnd.weyl(tri, tuple(walk)), strict=True):
        assert _same(value.operator_form, again.operator_form)
        assert _same(value.gamma_hat, again.gamma_hat)
    assert bnd.weyl(tri, []) == []


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
    walked = bnd.weyl(under(tri, tol), walk)
    verdicts = []
    for z, walked_value in zip(walk, walked):
        value = bnd.weyl(tri, z)
        b0 = value.boundary_values[:d]
        want = b0.shape[1] == d and np.linalg.matrix_rank(b0, rtol=tol.rank_rel) == d
        assert (value.operator_form is not None) == want
        assert (walked_value.operator_form is not None) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("case", ["regular", "loose-irregular"])
def test_a_point_solve_spans_only_its_boundary_values(case, monkeypatch):
    # reading M(z)'s matrix and gamma(z) takes one kernel, of T+'s narrower
    # (n - d) x n block, and one span, of the 2d x d boundary values: no span
    # of the eigenspace and no matrix_rank.  M(z)'s relation is read off the
    # value and is that span, bit for bit.  The loose case is the point of
    # test_defect_solve_slot_never_goes_stale that has no operator form.
    if case == "regular":
        tri, z = gen_triple(gen_symmetric(InstanceSpec(1616, 16, (8, 8), 4)), 1617), 0.3 + 0.7j
    else:
        tri = gen_triple(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 4243,
                         TolerancePolicy(1e-3, 1e-6, 1e-4))
        z = _beside_real_eigenvalue(tri, 1e-5)
    n, d, tol = tri.space.dim, tri.boundary_dim, tri.tol
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
    graph = value.relation_in_L.graph
    assert not ranks and len(spans) == 1 and spans[0][0] is value.boundary_values
    assert [c for c in calls if c[1]] == [((n - d, n), True), ((2 * d, d), True)]
    assert bnd.weyl(tri, z).relation_in_L is value.relation_in_L and len(spans) == 1
    frame = rel.graph_eigenspace(tri.tplus, z, tol).graph.frame
    assert np.array_equal(graph.frame, span(tri.gamma_ambient @ frame, tol).frame)
    assert graph.dim == d


def test_a_boundary_dim_zero_triple_has_empty_weyl_values():
    # a self-adjoint T0 has T+ = T0, and the zero map on it is a boundary map
    t0 = sample_witness(gen_symmetric(InstanceSpec(4242, 4, (2, 2), 2)), 5).t0
    tri = bnd.validate_triple(t0, np.zeros((0, 2 * t0.src.dim)))
    assert tri.boundary_dim == 0
    for z in (0.5 - 1.5j, 1j):
        value = bnd.weyl(tri, z)
        assert value.operator_form.shape == (0, 0) and value.relation_in_L.dim == 0
        assert bnd.gamma_field(tri, z).shape == (4, 0)
    # the walk solves 1j again beside -1j, on a fresh triple and on one whose
    # slot holds 1j from the scalar call
    for fresh in (False, True):
        triple = bnd.validate_triple(t0, tri.gamma_ambient) if fresh else tri
        out = bnd.resolvent_identities_check(triple, (1j,))
        assert out["points"] == [1j, -1j] and out["max_symmetry"] == 0.0
        assert out["weyl"][-1j].relation_in_L.dim == 0


def test_defect_solve_arrays_are_read_only():
    tri = gen_triple(gen_symmetric(InstanceSpec(990, 4, (2, 2), 2)), 991)
    m = bnd.weyl(tri, 1j).operator_form
    g = bnd.gamma_field(tri, 1j)
    arrays = [m, g]
    for value in bnd.weyl(tri, [2j, 1 - 1j]):
        arrays += [value.operator_form, value.gamma_hat, value.boundary_values]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 0


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
        ghat = bnd.weyl(tri, z).gamma_hat
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
    # the pair's T+ is the triple's, which keeps the orthocomplement eigenspace reads
    assert full.a_star is tri.tplus and full.kernel is tri.parent

    restricted = bnd.pair_from_triple(tri, tri.t0.graph)
    flags = bnd.pair_isometry_check(restricted)
    assert flags["isometric"] and not flags["unitary"]
    assert sub.equal(restricted.kernel.graph, c4["T"].graph)

    broken = bnd.IsometricBoundaryPair(
        relation(tri.space.doubled, krein.hilbert_space(3).doubled,
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
    stacked = bnd._solve_stacked

    def singular_at_i(triple, points):
        return [dataclasses.replace(v, gamma_hat=None) if v.z == 1j else v
                for v in stacked(triple, points)]

    monkeypatch.setattr(bnd, "_solve_stacked", singular_at_i)
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
    "validate_triple": lambda t, tri: bnd.validate_triple(t, tri.gamma_ambient),
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
    # transform multiplies gamma and shares T+ through the parent's adjoint
    # memo; planting maps T by U~, one QR for T's image, and takes T'+'s kernel,
    # the frame Gamma' acts on, which every later read of the triple shares
    assert (shift_svds, plant_svds) == (0, 1)
    assert shifted.basis is tri.basis
    assert _svd_calls(lambda: planted.basis)[1] == 0
    assert not {"t0", "t1", "beta"} & (vars(shifted).keys() | vars(planted).keys())
    # each validates as a boundary map on K, and derives what a triple built
    # afresh on its Gamma derives
    for built in (shifted, planted):
        checked = under(built, built.tol)
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


def _index_law(tri: bnd.BoundaryTriple, z0: complex = 0.31 + 1.7j):
    """(kappa, count) for T0 of a triple, or None where two eigenvalues of T0
    lie within 1e-6.  kappa is the number of negative squares of J and count
    the number of T0's eigenvalues in C+ plus its real eigenvalues whose
    eigenvector x has x^H J x < 0; T0's eigenvalues are z0 + 1/mu over the
    eigenvalues mu of (T0 - z0)^{-1}, with the same eigenvectors."""
    mu, x = np.linalg.eig(rel.resolvent_matrix(tri.t0, z0))
    lam = z0 + 1 / mu
    gaps = np.abs(lam[:, None] - lam) + np.diag(np.full(len(lam), np.inf))
    if gaps.min(initial=np.inf) < 1e-6:
        return None
    real = np.abs(lam.imag) <= 1e-8 * (1 + np.abs(lam))
    negative = np.einsum("ij,ik,kj->j", x.conj(), tri.space.J, x).real < 0
    return tri.space.signature[1], int(np.sum(~real & (lam.imag > 0)) + np.sum(real & negative))


def test_t0_obeys_pontryagins_index_law():
    # T0 is self-adjoint in (C^n, J): with simple eigenvalues, each pair of
    # non-real eigenvalues z, conj z spans one negative square and each real
    # eigenvector of negative type one more, q in all
    triples = [gen_triple(st._draw_t(seed, DEFAULT_TOL), seed) for seed in range(100)]
    for k in range(20):
        n = 8 + k % 5
        p = int(rng_for(k, 60).integers(0, n + 1))
        t = gen_symmetric(InstanceSpec(600 + k, n, (p, n - p), 1 + k % (n - 1)))
        triples.append(gen_triple(t, 600 + k))
    laws = [_index_law(tri) for tri in triples]
    skipped = sum(law is None for law in laws)
    assert skipped <= 6, f"{skipped} of {len(laws)} draws have an eigenvalue gap under 1e-6"
    for law in laws:
        if law is not None:
            assert law[0] == law[1]


@pytest.mark.parametrize("n, d", [(4, 2), (24, 6)])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
def test_pair_isometry_check_builds_no_adjoint(n, d, tol, monkeypatch):
    # the triple's pair is isometric and unitary; with Gamma1 alone doubled
    # the Green identity, and with it Gamma^-1 ⊆ Gamma+, fails
    tri = gen_triple(gen_symmetric(InstanceSpec(90 + n, n, (n - n // 2, n // 2), d), tol=tol),
                     91 + n, tol)
    broken = bnd.BoundaryTriple(tri.parent, np.vstack([tri.gamma0, 2 * tri.gamma1]), tol)
    pairs = [bnd.pair_from_triple(x) for x in (tri, broken)]

    def refuse(*args, **kwargs):
        raise AssertionError("pair_isometry_check built an adjoint")

    monkeypatch.setattr(rel, "adjoint", refuse)
    monkeypatch.setattr(sub, "complement", refuse)
    assert bnd.pair_isometry_check(pairs[0]) == {"isometric": True, "unitary": True}
    assert bnd.pair_isometry_check(pairs[1]) == {"isometric": False, "unitary": False}
