import numpy as np
import pytest

import kreinrel as kr
from kreinrel import krein, relations as rel, subspaces as sub
from kreinrel.generators import (InstanceSpec, gen_symmetric, gen_triple, random_complex,
                                 random_signature_symmetry, rng_for)
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

from oracles import adjoint_by_complement, cayley, graph_join, green_pairing, operator_part, \
    ortho_companion, relation


def random_space(seed, n):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(0, n + 1))
    return kr.make_krein(random_signature_symmetry(rng, p, n - p))


def random_relation(seed, space, k):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((2 * space.dim, k)) + 1j * rng.standard_normal((2 * space.dim, k))
    return relation(space, space, sub.span(cols))


def test_identity_operator_parts():
    space = krein.hilbert_space(2)
    t = rel.from_operator(np.eye(2), space, space)
    p = rel.parts(t)
    assert p.dom.dim == 2 and p.ran.dim == 2 and p.ker.dim == 0 and p.mul.dim == 0
    assert rel.is_operator(t)


def test_c4_parts(c4):
    p = rel.parts(c4["T"])
    assert sub.equal(p.dom, sub.span(np.array([[1, 0, 0, 0]]).T))
    assert sub.equal(p.ran, sub.span(np.array([[0, 1, 0, 0]]).T))
    assert p.ker.dim == 0 and p.mul.dim == 0


def test_c4_adjoint_and_mul(c4):
    tplus = rel.adjoint(c4["T"], "krein")
    # expected display: ((c1,c2,c3,c4),(c5,c6,c7,c3))
    vecs = np.zeros((8, 7), dtype=complex)
    for k in range(7):
        vecs[k, k] = 1
    vecs[7, 2] = 1
    assert sub.equal(tplus.graph, sub.span(vecs))
    mul = rel.parts(tplus).mul
    assert sub.equal(mul, sub.span(np.eye(4)[:, :3]))


def test_adjoint_of_zero_relation():
    space = random_space(0, 3)
    z = rel.zero_relation(space, space)
    assert rel.adjoint(z, "krein").dim == 6


def test_double_adjoint_random():
    for seed in range(5):
        space = random_space(seed, 4)
        t = random_relation(seed, space, 3)
        again = rel.adjoint(rel.adjoint(t, "krein"), "krein")
        assert sub.equal(again.graph, t.graph)
        again_h = rel.adjoint(rel.adjoint(t, "hilbert"), "hilbert")
        assert sub.equal(again_h.graph, t.graph)


def test_green_identity_characterizes_adjoint():
    space = random_space(7, 3)
    t = random_relation(7, space, 2)
    tplus = rel.adjoint(t, "krein")
    j = space.J
    rng = np.random.default_rng(1)
    for col in range(tplus.dim):
        ghat = tplus.graph.frame[:, col]
        for fcol in range(t.dim):
            fhat = t.graph.frame[:, fcol]
            assert abs(green_pairing(j, fhat, ghat)) < 1e-10
    # a vector outside T+ must violate the pairing for some element of T
    outside = sub.complement(tplus.graph).frame[:, 0]
    vals = [abs(green_pairing(j, t.graph.frame[:, k], outside)) for k in range(t.dim)]
    assert max(vals) > 1e-8


def test_krein_adjoint_is_indefinite_companion():
    # dual route: T+ equals the indefinite-orthogonal companion of the
    # graph inside the doubled space
    for seed in range(4):
        space = random_space(seed + 40, 4)
        t = random_relation(seed + 40, space, 3)
        via_adjoint = rel.adjoint(t, "krein").graph
        via_companion = ortho_companion(space.doubled, t.graph)
        assert sub.equal(via_adjoint, via_companion)


@pytest.mark.parametrize("metric", ["krein", "hilbert"])
@pytest.mark.parametrize("k", [0, 4, 8])
def test_cross_space_adjoint_matches_complement_route(metric, k):
    # T from (C^3, J1) with signature (2, 1) to (C^5, J2) with (1, 4);
    # k = 0 is the zero relation and k = 8 the full graph.  The adjoint is
    # itself the complement of a flip of T's frame, so the oracle is no
    # independent route; the Green pairing and the double adjoint are the
    # checks here, and the closed forms below the independent reference.
    rng = np.random.default_rng(60 + k)
    src = kr.make_krein(random_signature_symmetry(rng, 2, 1))
    tgt = kr.make_krein(random_signature_symmetry(rng, 1, 4))
    t = relation(src, tgt, sub.span(random_complex(rng, 8, k)))
    adj = rel.adjoint(t, metric)
    ref = adjoint_by_complement(t, metric)
    assert adj.dim == 8 - k
    assert adj.src.same_as(ref.src) and adj.tgt.same_as(ref.tgt)
    assert sub.equal(adj.graph, ref.graph)
    j1, j2 = adj.tgt.J, adj.src.J  # the adjoint's hosts carry the metric
    pairing = [abs(green_pairing(j1, fhat, ghat, j2))
               for fhat in t.graph.frame.T for ghat in adj.graph.frame.T]
    assert max(pairing, default=0.0) < 1e-12
    again = rel.adjoint(adj, metric)
    assert again.src.same_as(adj.tgt) and again.tgt.same_as(adj.src)
    assert sub.equal(again.graph, t.graph)


def _green(t, metric):
    """T's Green rows [D^H J2, -E^H J1], J = I under the Hilbert metric."""
    e, d = t.blocks()
    j1, j2 = (t.src.J, t.tgt.J) if metric == "krein" else (np.eye(t.src.dim), np.eye(t.tgt.dim))
    return np.hstack([d.conj().T @ j2, -e.conj().T @ j1])


@pytest.mark.parametrize("n", [3, 8, 24])
def test_adjoint_takes_no_rank_decision(n, monkeypatch):
    # dim T in {0, d, n, 2n} on a Krein space of n dims, and one relation from
    # it to a space of n + 1 dims; at n = 24 the Green rows of dim T = d fall
    # below the 16 rows of kernel's QR route, those of dim T = n past them
    rng = np.random.default_rng(700 + n)
    d = max(1, n // 4)
    space = kr.make_krein(random_signature_symmetry(rng, n - n // 3, n // 3))
    other = kr.make_krein(random_signature_symmetry(rng, n // 2, n + 1 - n // 2))
    cases = [relation(space, space, sub.span(random_complex(rng, 2 * n, k)))
             for k in (d, n, 2 * n)]
    cases += [rel.zero_relation(space, space),
              relation(space, other, sub.span(random_complex(rng, 2 * n + 1, n)))]
    # the parent's route, one kernel of the Green rows under the policy
    refs = [(t, metric, _green(t, metric), sub.kernel(_green(t, metric), DEFAULT_TOL))
            for t in cases for metric in ("krein", "hilbert")]

    def refuse(*args, **kwargs):
        raise AssertionError("the adjoint decided a rank")

    monkeypatch.setattr(sub, "kernel", refuse)
    monkeypatch.setattr(TolerancePolicy, "span_full_certified", refuse)
    for t, metric, green, ref in refs:
        adj = rel.adjoint(t, metric)
        f = adj.graph.frame
        assert np.abs(f.conj().T @ f - np.eye(adj.dim)).max(initial=0.0) <= 1e-13
        assert adj.dim == t.src.dim + t.tgt.dim - t.dim == ref.dim
        assert sub.distance(adj.graph, ref) <= 1e-12
        assert np.array_equal(adj._memo[rel._PERP].frame, green.conj().T)


def test_adjoint_memo_has_one_entry_per_metric():
    # the adjoint decides nothing, so callers deciding under either policy
    # share it
    from kreinrel import extensions as ext
    from kreinrel.boundary import DEFAULT_GRID
    t = gen_symmetric(InstanceSpec(5, 4, (2, 2), 1))
    loose = TolerancePolicy(1e-3, 1e-6, 1e-4)
    triples = [gen_triple(t, 6, tol) for tol in (DEFAULT_TOL, loose)]
    for tol in (DEFAULT_TOL, loose):
        ext.simple_check(t, DEFAULT_GRID, tol)
        rel.adjoint(t, "hilbert")
    assert triples[0].tplus is triples[1].tplus is rel.adjoint(t)
    assert sorted(k for k in t._memo if k[0] == "adjoint") == [("adjoint", "hilbert"),
                                                               ("adjoint", "krein")]


@pytest.mark.parametrize("n", [3, 8, 24])
def test_adjoint_of_an_operator_in_closed_form(n):
    # T = graph of A on (C^n, J): T+ is the graph of J A^H J, and under the
    # Hilbert metric T* is the graph of A^H; each reference is the QR frame of
    # [I; B], taken here, and compared by the largest principal angle
    rng = np.random.default_rng(900 + n)
    space = kr.make_krein(random_signature_symmetry(rng, n - n // 2, n // 2))
    a = random_complex(rng, n, n)
    t = rel.from_operator(a, space, space)
    j = space.J
    for metric, b in (("krein", j @ a.conj().T @ j), ("hilbert", a.conj().T)):
        want = np.linalg.qr(np.vstack([np.eye(n), b]))[0]
        got = rel.adjoint(t, metric).graph.frame
        assert got.shape == want.shape
        sine = np.linalg.norm(got - want @ (want.conj().T @ got), 2)
        assert np.arcsin(min(1.0, sine)) <= 1e-12


def _kernel_route_flags(t, tol):
    """The parent's rule: contains and equal of the Green rows' kernel and T."""
    adj = sub.kernel(_green(t, "krein"), tol)
    return sub.contains(adj, t.graph, tol), sub.equal(adj, t.graph, tol), sub._angle(adj, t.graph)


def _tilted(t, theta):
    """T with its first frame column turned by theta toward C's second
    column, a unit vector orthogonal to T+ and so to T, then
    re-orthonormalized.  The J_hat-Gram of the frame becomes sin(theta) times
    one off-diagonal pair, so the angle from the tilt to its adjoint is theta
    to first order; toward C's first column it would vanish to first order."""
    f = t.graph.frame.copy()
    f[:, 0] = np.cos(theta) * f[:, 0] + np.sin(theta) * _green(t, "krein")[1].conj()
    return rel.LinearRelation(t.src, t.tgt, sub.Subspace(f))


def _symmetry_inputs():
    """Symmetric draws at n = 2..48, their witnesses' T0, and (T, factor) to
    tilt T by factor * angle_tol."""
    from kreinrel.generators import sample_witness
    specs = [(n, seed) for n in range(2, 13) for seed in range(18)]
    specs += [(n, seed) for n in (16, 24, 32, 48) for seed in range(2)]
    out = []
    for n, seed in specs:
        d = seed % (n // 2 + 1)
        t = gen_symmetric(InstanceSpec(5000 + 100 * n + seed, n, (n - n // 2, n // 2), d))
        out.append(t)
        if d:
            out.append(sample_witness(t, seed).t0)
        if seed < 2 and t.dim >= 2:
            out += [(t, factor) for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0)]
    return out


def test_symmetry_is_read_off_the_green_rows():
    # against the parent's rule, an adjoint from one kernel of the Green rows,
    # under both policies; the draws' angles are roundoff, the tilts' straddle
    # angle_tol by a factor of 2 or 1 +- 1e-3.  Each relation is a fresh copy,
    # whose memo the decisions leave empty.
    inputs = _symmetry_inputs()
    assert sum(not isinstance(x, tuple) for x in inputs) >= 200
    near = 0
    for tol in (DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)):
        for item in inputs:
            t = _tilted(item[0], item[1] * tol.angle_tol) if isinstance(item, tuple) \
                else rel.LinearRelation(item.src, item.tgt, item.graph)
            symmetric, selfadjoint, angle = _kernel_route_flags(t, tol)
            assert abs(rel._angle_to_adjoint(t, t.graph) - angle) <= 1e-13
            if isinstance(item, tuple):
                assert abs(angle / (item[1] * tol.angle_tol) - 1) <= 1e-6
            if abs(angle - tol.angle_tol) <= 1e-12 * tol.angle_tol:
                near += 1
                continue
            assert rel.is_symmetric(t, tol) == symmetric
            assert rel.is_selfadjoint(t, tol) == selfadjoint
            assert not t._memo
    assert near == 0


def test_symmetry_needs_an_endorelation():
    # hosts of one dim with different symmetries, and of different dims
    rng = np.random.default_rng(31)
    src = kr.make_krein(random_signature_symmetry(rng, 2, 1))
    for tgt in (kr.make_krein(random_signature_symmetry(rng, 1, 2)), krein.hilbert_space(4)):
        for k in (0, 3, src.dim + tgt.dim):
            t = relation(src, tgt, sub.span(random_complex(rng, src.dim + tgt.dim, k)))
            assert not rel.is_symmetric(t) and not rel.is_selfadjoint(t)
            assert not t._memo


def test_krein_vs_hilbert_adjoint_conjugation():
    space = random_space(3, 4)
    t = random_relation(3, space, 3)
    tstar = rel.adjoint(t, "hilbert")
    tplus = rel.adjoint(t, "krein")
    jj = np.kron(np.eye(2), space.J)
    assert sub.equal(tplus.graph, sub.image(jj, tstar.graph))


def test_adjoint_reverses_cw_sum():
    space = random_space(9, 4)
    a = random_relation(9, space, 2)
    b = random_relation(10, space, 2)
    total, _ = rel.cw_sum(a, b)
    lhs = rel.adjoint(total, "krein").graph
    rhs = sub.intersect(rel.adjoint(a, "krein").graph, rel.adjoint(b, "krein").graph)
    assert sub.equal(lhs, rhs)


def test_inverse_involution():
    space = random_space(11, 3)
    t = random_relation(11, space, 2)
    assert sub.equal(rel.inverse(rel.inverse(t)).graph, t.graph)


def test_cw_sum_c4(c4):
    tri = c4["triple"]
    total, orthogonal = rel.cw_sum(c4["T"], tri.n_rel)
    assert orthogonal
    assert sub.equal(total.graph, tri.t0.graph)


@pytest.mark.parametrize("scale", [1e4, 1e11])
def test_graph_of_an_ill_scaled_operator_keeps_every_direction(scale):
    # the SVD span of [I; M] cut sigma_min = 1 against rank_rel * scale, and so
    # dropped a direction under the loose policy at 1e4 and the default at 1e11
    space = krein.hilbert_space(2)
    m = np.diag([scale, 1.0])
    f = rel.from_operator(m, space, space).graph.frame
    assert f.shape == (4, 2)
    assert np.abs(f.conj().T @ f - np.eye(2)).max() < 1e-12
    cols = np.vstack([np.eye(2), m])
    cols = cols / np.linalg.norm(cols, axis=0)
    assert np.abs(cols - f @ (f.conj().T @ cols)).max() < 1e-12


def test_op_sum_of_operators():
    space = krein.hilbert_space(3)
    rng = np.random.default_rng(2)
    m1 = random_complex(rng, 3, 3)
    m2 = random_complex(rng, 3, 3)
    s = rel.op_sum(rel.from_operator(m1, space, space), rel.from_operator(m2, space, space))
    assert sub.equal(s.graph, rel.from_operator(m1 + m2, space, space).graph)


def test_compose_matches_join_oracle():
    src = random_space(1, 3)
    mid = random_space(2, 4)
    out = random_space(3, 2)
    rng = np.random.default_rng(4)
    inner = relation(src, mid, sub.span(random_complex(rng, 7, 3)))
    outer = relation(mid, out, sub.span(random_complex(rng, 6, 3)))
    got = rel.compose(outer, inner)
    want = graph_join(inner.graph.frame, outer.graph.frame, 3, 4, 2)
    assert got.dim == want.shape[1]
    if want.shape[1]:
        assert sub.equal(got.graph, sub.span(want))


def test_restrict_c4(c4):
    t = c4["T"]
    tplus = c4["triple"].tplus
    restricted = rel.restrict(tplus, sub.span(np.array([[1, 0, 0, 0]]).T))
    assert sub.contains(restricted.graph, t.graph)
    assert rel.parts(restricted).dom.dim == 1


def test_symmetry_flags(c4):
    assert rel.is_symmetric(c4["T"]) and not rel.is_selfadjoint(c4["T"])
    assert rel.is_selfadjoint(c4["triple"].t0)
    assert rel.is_selfadjoint(c4["triple"].t1)


def test_is_endo_needs_the_same_host(c4):
    # a target symmetry 1e-9 off is a different host, as for compose and cw_sum
    t = c4["T"]
    bumped = t.tgt.J.copy()
    bumped[0, 1] = bumped[1, 0] = 1e-9
    moved = rel.LinearRelation(t.src, krein.KreinSpace(bumped), t.graph)
    assert t.is_endo and not moved.is_endo
    assert not rel.is_symmetric(moved) and not rel.is_selfadjoint(moved)


def test_hyper_maximal_graph_selfadjoint():
    # any hyper-maximal neutral subspace of the doubled space, read as a
    # relation, is self-adjoint
    from kreinrel.generators import hyper_maximal_neutral
    space = random_space(21, 3)
    m = hyper_maximal_neutral(np.random.default_rng(21), space)
    t = relation(space, space, m)
    assert rel.is_selfadjoint(t)


def test_eigenspace_identity_full():
    space = krein.hilbert_space(3)
    ident = rel.identity_relation(space)
    assert rel.eigenspace(ident, 1.0).dim == 3
    assert rel.eigenspace(ident, 0.5).dim == 0


def test_eigenspace_c4(c4):
    tplus = c4["triple"].tplus
    for z in (1j, 1 + 2j, 0.3 - 0.7j):
        nz = rel.eigenspace(tplus, z)
        want = sub.span(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, z, 1]]).T)
        assert sub.equal(nz, want)
        graph_nz = rel.graph_eigenspace(tplus, z)
        assert graph_nz.dim == 3
        assert sub.contains(tplus.graph, graph_nz.graph)
        f = graph_nz.graph.frame
        assert np.abs(f.conj().T @ f - np.eye(3)).max() <= 1e-12
        assert sub.equal(graph_nz.graph, sub.span(np.vstack([nz.frame, z * nz.frame])))


def test_spectral_probe_consistency(c4):
    probe = rel.spectral_probe(c4["triple"].t0, 1j)
    assert probe == {"eigenvalue": False, "regular_type": True, "regular": True}
    # T1 in the worked example has every point as an eigenvalue
    probe1 = rel.spectral_probe(c4["triple"].t1, 1j)
    assert probe1["eigenvalue"] and not probe1["regular"]


def _probe_by_frames(t, z):
    """spectral_probe through the eigenspace and range frames it no longer builds."""
    e, d = t.blocks()
    eig = rel.eigenspace(t, z).dim > 0
    ran_full = sub.span(d - z * e).dim == t.src.dim
    return {"eigenvalue": eig, "regular_type": not eig, "regular": not eig and ran_full}


def test_spectral_probe_matches_the_frame_route(c4):
    h3 = krein.hilbert_space(3)
    planted = rel.from_operator(np.diag([0.5 + 0.5j, 2.0, 3.0]), h3, h3)
    thin = random_relation(41, random_space(41, 3), 2)
    zero = rel.zero_relation(h3, h3)
    cases = [(planted, 0.5 + 0.5j, (True, False, False)),
             (thin, 0.3 + 0.4j, (False, True, False)),
             (c4["triple"].t0, 1j, (False, True, True)),
             (c4["triple"].t0, 2 - 1j, (False, True, True)),
             (zero, 1j, (False, True, False))]
    for t, z, (eig, rtype, regular) in cases:
        probe = rel.spectral_probe(t, z)
        assert probe == {"eigenvalue": eig, "regular_type": rtype, "regular": regular}
        assert probe == _probe_by_frames(t, z)


def test_is_operator_counts_the_multivalued_part(c4):
    tplus = rel.adjoint(c4["T"], "krein")
    assert rel.parts(tplus).mul.dim == 3 and not rel.is_operator(tplus)
    seen = set()
    for seed in range(12):
        space = random_space(seed + 50, 3)
        t = random_relation(seed + 50, space, 1 + seed % 6)
        assert rel.is_operator(t) == (rel.parts(t).mul.dim == 0)
        seen.add(rel.is_operator(t))
    assert seen == {True, False}


def test_operator_part_reassembles():
    for seed in range(4):
        space = random_space(seed + 30, 4)
        t = random_relation(seed + 30, space, 4)
        op = operator_part(t, DEFAULT_TOL)
        m = relation(t.src, t.tgt, sub.product(sub.trivial(4), rel.parts(t).mul))
        total, orthogonal = rel.cw_sum(op, m)
        assert orthogonal
        assert sub.equal(total.graph, t.graph)
        assert rel.is_operator(op)


def test_resolvent_matrix_against_solve():
    space = krein.hilbert_space(3)
    rng = np.random.default_rng(8)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    t = rel.from_operator(h, space, space)
    z = 1 + 1j
    got = rel.resolvent_matrix(t, z)
    want = np.linalg.inv(h - z * np.eye(3))
    assert np.abs(got - want).max() < 1e-10
    with pytest.raises(rel.NotRegularError):
        rel.resolvent_matrix(t, np.linalg.eigvalsh(h)[0])


@pytest.mark.parametrize("tol, n_regular", [(DEFAULT_TOL, 6),
                                             (TolerancePolicy(1e-3, 1e-6, 1e-4), 0)],
                         ids=["default", "loose"])
def test_resolvent_matrix_is_regular_exactly_where_the_probe_says(tol, n_regular):
    # z = lam + i eps approaches the real eigenvalue lam ~ 11.8814 of T0; at
    # eps = 1e-7, sigma_min/sigma_max of D - zE is 7e-10, regular by the default cut
    t0 = gen_triple(gen_symmetric(InstanceSpec(990, 4, (4, 0), 2)), 991).t0
    e, d = t0.blocks()
    lam = np.linalg.eigvals(d @ np.linalg.inv(e)).real.max()
    assert abs(lam - 11.8814) < 1e-4
    regular = []
    for eps in 10.0 ** -np.arange(2, 12):
        z = lam + 1j * eps
        regular.append(rel.spectral_probe(t0, z, tol)["regular"])
        if not regular[-1]:
            with pytest.raises(rel.NotRegularError):
                rel.resolvent_matrix(t0, z, tol)
            continue
        want = e @ np.linalg.solve(d - z * e, np.eye(4))
        # relative, since the condition number of D - zE reaches 1.4e9
        got = rel.resolvent_matrix(t0, z, tol)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    assert regular.count(True) == n_regular


def test_cayley_zero_operator():
    space = krein.hilbert_space(1)
    t0 = rel.from_operator(np.zeros((1, 1)), space, space)
    c = cayley(t0, DEFAULT_TOL)
    assert np.allclose(c, [[-1.0]])


def test_cayley_vz_identities():
    space = krein.hilbert_space(4)
    rng = np.random.default_rng(12)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2
    t0 = rel.from_operator(h, space, space)
    c = cayley(t0, DEFAULT_TOL)
    assert np.abs(c.conj().T @ c - np.eye(4)).max() < 1e-10
    # V_z = I + 2z (T0 - z)^{-1} is C at z = -i and C^{-1} at z = i
    vz = {z: np.eye(4) + 2 * z * rel.resolvent_matrix(t0, z) for z in (1j, -1j)}
    assert np.abs(vz[-1j] - c).max() < 1e-9
    assert np.abs(vz[1j] - np.linalg.inv(c)).max() < 1e-9
    assert np.abs(vz[-1j] @ vz[1j] - np.eye(4)).max() < 1e-9
    roundtrip = rel.inverse_cayley(c)
    assert sub.equal(roundtrip.graph, t0.graph)


def test_cayley_multivalued_extension(c4):
    # the distinguished extension of the worked example has a genuine
    # multivalued part; its Hilbert conjugate still Cayley-transforms
    t0 = c4["triple"].t0
    frak = rel.hilbertize(t0)
    c = cayley(frak, DEFAULT_TOL)
    assert np.abs(c.conj().T @ c - np.eye(4)).max() < 1e-10
    back = rel.inverse_cayley(c)
    assert sub.equal(back.graph, frak.graph)


def test_cayley_rejects_non_selfadjoint(c4):
    with pytest.raises(ValueError):
        cayley(rel.hilbertize(c4["T"]), DEFAULT_TOL)


def test_defect_duality():
    spec = InstanceSpec(17, 5, (3, 2), 2)
    t = gen_symmetric(spec)
    tplus = rel.adjoint(t, "krein")
    for z in (1j, 1 - 1j):
        e, d = t.blocks()
        ran_shift = sub.span(d - z * e)
        dual = ortho_companion(t.src, rel.eigenspace(tplus, np.conj(z)))
        assert sub.contains(dual, ran_shift)
