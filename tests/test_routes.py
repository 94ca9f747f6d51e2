"""Each matrix factored once, checked against the route it replaced.

A caller's Gamma on K is carried onto T+'s own frame F, whose pseudo-inverse
is F^H, and Gamma F is factored by one values-only SVD; only Gamma on T+
counts.
An image of an orthonormal frame under F, or an injective image of a decided
frame, takes no rank decision: T0, T1, t_theta and the graph of Gamma, so a
planted triple keeps its dims at any cond U; ker and mul of a relation,
T - zI, the graph of `build_V_from_tau` and the suites' zI - H and Theta
lift.  A document reloads the triple it was written from.  The
reconstruction's gamma columns and the audit's defect frames each give their
rank and pseudo-inverse from one SVD.  Unitary images of orthonormal frames are Gram-checked frames, with
no rank decision; `parts` takes each part when it is read; `make_krein`
reads the signature off tr J.
Each route is compared with its old one from tests/oracles.py: the same dims
and decisions, principal angles at most 1e-12 and pseudo-inverses equal to
roundoff, under the default and CI's loose policy.  Gamma on a triple's own
frames is read off its blocks and its ambient map, and is compared with Gamma
applied to checked basis coordinates, to 1e-12 relative.  N_z is one kernel
of the Green form, compared with the eigenspace of JG+, and a generated
triple's N is the witness of its own seed.  An adjoint's eigenspace is one
kernel of the orthocomplement frame it keeps, compared with E ker(D - zE)
on a copy of its graph that keeps none; that eigenspace, an injective image
of the kernel frame, is one QR, compared with the span of E ker(D - zE).
"""

import dataclasses

import numpy as np
import pytest

from kreinrel import boundary as bnd, extensions as ext, generators as gen, io as kio, krein, \
    relations as rel, similarity as sim, subspaces as sub, suites as st
from kreinrel.generators import InstanceSpec, gen_standard_unitary, gen_symmetric, gen_triple, \
    planted_similar_triple
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

import oracles
from conftest import svd_calls

LOOSE = TolerancePolicy(1e-3, 1e-6, 1e-4)
POLICIES = pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
SIZES = pytest.mark.parametrize("n", [4, 16, 48])


def _same(a: sub.Subspace, b: sub.Subspace):
    assert a.dim == b.dim
    assert sub.distance(a, b) <= 1e-12


def _triples(n: int, tol: TolerancePolicy):
    """A generated triple at (n, n/2 + n/2, n/4) and its planted image."""
    t = gen_symmetric(InstanceSpec(n, n, (n // 2, n - n // 2), max(1, n // 4)), tol=tol)
    tri = gen_triple(t, n, tol)
    return tri, planted_similar_triple(tri, gen_standard_unitary(n, t.src, t.src), t.src)


def _check_basis_routes(tri: bnd.BoundaryTriple):
    for g, tk in ((tri.gamma0, tri.t0), (tri.gamma1, tri.t1)):
        _same(tk.graph, oracles.kernel_relation_by_span(tri, g).graph)
    _same(tri.gamma_graph, oracles.gamma_graph_by_span(tri))
    # Gamma acts on T+'s own frame, whose pseudo-inverse is its conjugate transpose
    assert tri.basis is tri.tplus.graph.frame
    _close(tri.gamma_ambient, tri.gamma @ np.linalg.pinv(tri.basis))


@SIZES
@POLICIES
def test_spans_over_basis_coordinates_match_the_direct_spans(n, tol):
    for tri in _triples(n, tol):
        _check_basis_routes(tri)
        # Theta = the graph of a Hermitian matrix: t_theta is a span over T+
        d = tri.boundary_dim
        h = gen.random_complex(gen.rng_for(n, 77), d, d)
        theta = rel.from_operator(h + h.conj().T, tri.boundary_space, tri.boundary_space)
        coords = sub.preimage(tri.gamma, theta.graph, tol).frame
        _same(bnd.t_theta(tri, theta).graph, oracles.span_over_basis(tri, coords))


def test_the_loose_cut_keeps_the_planted_kernels_whole():
    # the planted triple of test_reconstruct_names_the_build_check_a_loose_planted_pair_fails,
    # cond U = e^12: Gamma' acts on T'+'s own frame, so ker Gamma0' and
    # ker Gamma1' keep dim 4 and match their span routes
    loose = LOOSE
    t = gen_symmetric(InstanceSpec(5008, 4, (2, 2), 2), tol=loose)
    tri = gen_triple(t, 5008, loose)
    w, v = np.linalg.eigh(t.src.J)
    ep, em = v[:, [np.argmax(w)]], v[:, [np.argmin(w)]]
    u = (np.eye(4) + (np.cosh(6) - 1) * (ep @ ep.conj().T + em @ em.conj().T)
         + np.sinh(6) * (ep @ em.conj().T + em @ ep.conj().T))
    planted = planted_similar_triple(tri, u, t.src)
    assert (planted.t0.dim, planted.t1.dim) == (4, 4)
    _check_basis_routes(planted)


def _same_frame(got: sub.Subspace, want: sub.Subspace):
    """A QR frame against its span route: the same dim, principal angles at
    most 1e-12, and a Gram defect at most 1e-13."""
    _same(got, want)
    f = got.frame
    assert np.abs(f.conj().T @ f - np.eye(got.dim)).max(initial=0.0) <= 1e-13


def _hyperbolic(j: np.ndarray, cond: float) -> np.ndarray:
    """A standard unitary of (C^n, J) with cond U = cond: a hyperbolic
    rotation of one positive and one negative eigenvector of J."""
    w, v = np.linalg.eigh(j)
    ep, em = v[:, [np.argmax(w)]], v[:, [np.argmin(w)]]
    a = np.log(cond) / 2
    return (np.eye(len(j)) + (np.cosh(a) - 1) * (ep @ ep.conj().T + em @ em.conj().T)
            + np.sinh(a) * (ep @ em.conj().T + em @ ep.conj().T))


@POLICIES
def test_planted_triples_keep_their_dims_at_any_cond(tol):
    # Gamma' acts on T'+'s own frame, so planting decides no rank of U~ F:
    # T0', T1' and N' keep dims (n, n, d) however ill-conditioned U is
    for seed in range(6000, 6030):
        t = gen_symmetric(InstanceSpec(seed, 4, (2, 2), 2), tol=tol)
        tri = gen_triple(t, seed, tol)
        for cond in (1e2, 1e4, 1.6e5, 1.2e6, 8.9e6):
            planted = planted_similar_triple(tri, _hyperbolic(t.src.J, cond), t.src)
            assert (planted.t0.dim, planted.t1.dim, planted.n_rel.dim) == (4, 4, 2)


@SIZES
@POLICIES
def test_a_document_reloads_the_same_triple(n, tol):
    # a document holds Gamma on K; reloading spans the relation again and
    # applies Gamma to the new adjoint's frame
    for tri in _triples(n, tol):
        back = kio.load_document(kio.document_for(tri.space, tri.parent, tri), tol)["triple"]
        for name in ("t0", "t1"):
            assert sub.equal(getattr(back, name).graph, getattr(tri, name).graph, tol)
        want = bnd.weyl(tri, 1j).operator_form
        assert np.linalg.norm(bnd.weyl(back, 1j).operator_form - want) <= \
            1e-12 * np.linalg.norm(want)


def _scaled_document(tri: bnd.BoundaryTriple, scale: float, tol: TolerancePolicy):
    """The triple read back from a document whose Gamma0 rows are divided by
    `scale` and Gamma1 rows multiplied by it: diag(I/scale, scale I) Gamma."""
    doc = kio.document_for(tri.space, tri.parent, tri)
    x = np.repeat([1 / scale, scale], tri.boundary_dim)[:, None]
    doc["triple"]["gamma"] = kio.encode_matrix(x * tri.gamma_ambient)
    return kio.load_document(doc, tol)["triple"]


def _check_injective_images(tri: bnd.BoundaryTriple, seed: int):
    tol, d = tri.tol, tri.boundary_dim
    for g, tk in ((tri.gamma0, tri.t0), (tri.gamma1, tri.t1)):
        _same_frame(tk.graph, oracles.kernel_relation_by_span(tri, g).graph)
    _same_frame(tri.gamma_graph, oracles.gamma_graph_by_span(tri))
    h = gen.random_complex(gen.rng_for(seed, 79), d, d)
    h = h + h.conj().T
    theta = rel.from_operator(h, tri.boundary_space, tri.boundary_space)
    _same_frame(theta.graph, oracles.graph_by_span(h, tri.boundary_space,
                                                   tri.boundary_space, tol).graph)
    coords = sub.preimage(tri.gamma, theta.graph, tol).frame
    _same_frame(bnd.t_theta(tri, theta).graph, oracles.span_over_basis(tri, coords))
    # the laws suite's lift Gamma0^{-1} + Gamma1^{-1}(Theta - beta)
    lift = tri.g0inv + tri.g1inv @ (h - tri.beta)
    _same_frame(sub._injective_span(lift), sub.span(lift, tol))
    for r in (tri.parent, tri.tplus, tri.t0):
        want = oracles.parts_by_span(r, tol)
        for name in ("ker", "mul"):
            _same_frame(getattr(rel.parts(r, tol), name), want[name])
        for z in (0.7 - 0.3j, 1j, 2.0):
            _same_frame(rel.shift(r, z).graph, oracles.shift_by_span(r, z, tol).graph)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 32])
@POLICIES
def test_injective_images_of_decided_frames_match_their_spans(n, tol):
    # generated triples, planted images at cond U = 1e2 and 1e4 and documents
    # whose Gamma rows are scaled by diag(I/kappa, kappa I): Gamma F has
    # orthonormal rows, so kappa = 30 and 1/30 give cond 900, which the loose
    # map rule (rank_rel 1e-3) still calls surjective
    t = gen_symmetric(InstanceSpec(n, n, (n // 2, n - n // 2), max(1, n // 4)), tol=tol)
    tri = gen_triple(t, n, tol)
    _check_injective_images(tri, n)
    tau = gen.random_unitary(gen.rng_for(n, 3), t.dim)
    for cond in (1e2, 1e4):
        u = _hyperbolic(t.src.J, cond)
        planted = planted_similar_triple(tri, u, t.src)
        _same_frame(planted.parent.graph, sub.image(sim._utilde(u), t.graph, tol))
        _check_injective_images(planted, n)
        _same_frame(sim.build_V_from_tau(tri, planted, tau).graph,
                    oracles.v_from_tau_by_span(tri, planted, tau).graph)
    for scale in (30.0, 1 / 30):
        _check_injective_images(_scaled_document(tri, scale, tol), n)
    if n <= 8:
        for z in (0.4 + 0.2j, 1j, 1.5, 0.0):
            _same(st._lemma_o_range(t, tri.n_rel, z, tol),
                  oracles.lemma_o_range_by_span(t, tri.n_rel, z, tol))
    split = t.dim // 2  # the eqgh suite's two slices of T's frame
    for cols in (slice(None, split), slice(split, None)):
        _same_frame(sub._trusted(t.graph.frame[:, cols]), sub.span(t.graph.frame[:, cols], tol))


def test_a_validated_triple_factors_its_basis_once(monkeypatch):
    t = gen_symmetric(InstanceSpec(16, 16, (8, 8), 4))
    tri = gen_triple(t, 16)
    caller = tri.gamma_ambient.copy()
    seen, svd, norm = [], np.linalg.svd, np.linalg.norm

    def svd_spy(a, *args, **kwargs):
        seen.append((a, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def norm_spy(x, ord=None, *args, **kwargs):
        assert ord != 2, "a 2-norm is an SVD of its own"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    checked = bnd.validate_triple(t, caller)
    for name in ("t0", "t1", "gamma_graph", "beta"):
        getattr(checked, name)
    # one values-only SVD of Gamma F for its rank and the Green identity's
    # scale, and no SVD of the caller's matrix
    assert [uv for a, uv in seen if a is checked.gamma] == [False]
    assert not [a for a, uv in seen if a is caller]
    # a transformed triple takes no SVD of T+'s frame
    seen.clear()
    shifted = bnd.beta_shift(checked, np.eye(4))
    for name in ("t0", "t1", "gamma_graph", "beta"):
        getattr(shifted, name)
    assert not [a for a, uv in seen if a is checked.basis]


@SIZES
def test_matrix_v_and_doubled_spaces_match_the_wrappers_they_replaced(n):
    # the V of a planted reconstruction and standard Vs to the planted triple
    # and to a triple on another carrier: the block identities from slices of
    # the matrix, and J_hat of each space and of L, are the old ones bit for bit
    tri, planted = _triples(n, DEFAULT_TOL)
    out = sim.reconstruct_similarity(tri, planted)
    assert out["status"] == "unitary"
    t2 = gen_symmetric(InstanceSpec(n + 1, n, (n // 2, n - n // 2), max(1, n // 4)))
    other = gen_triple(t2, n + 1)
    tau = gen.random_unitary(gen.rng_for(n, 3), tri.parent.dim)
    for v, tgt in ((out["V"], planted), (sim.build_standard_V(tri, planted, tau), planted),
                   (sim.build_standard_V(tri, other, tau), other)):
        got = sim.vabcd_residual(v, tri.space, tgt.space)
        assert got == oracles.vabcd_residual_by_blocks(v, tri.space, tgt.space) < 1e-9
    for space in (tri.space, t2.src, tri.boundary_space):
        assert space.doubled.J.tobytes() == oracles.doubled_j(space).tobytes()


def _close(got: np.ndarray, want: np.ndarray):
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


@SIZES
@POLICIES
def test_boundary_values_of_own_frames_match_the_apply_route(n, tol, monkeypatch):
    # k_shift_equivalence, w_maps and build_standard_V read Gamma on a triple's
    # own frames off its blocks and its ambient map; the old route applied Gamma
    # to basis coordinates checked against T+
    tri, planted = _triples(n, tol)
    d = tri.boundary_dim
    h = gen.random_complex(gen.rng_for(n, 78), d, d)
    other = gen_triple(tri.parent, n + 7, tol)
    for b in (bnd.beta_shift(tri, h + h.conj().T), gen.scaled_triple(tri, 2.0), other):
        got, want = bnd.k_shift_equivalence(tri, b), oracles.k_shift_by_apply(tri, b)
        assert [got[f] for f in ("exists_k", "agrees_on_n", "equivalent")] == \
            [want[f] for f in ("exists_k", "agrees_on_n", "equivalent")]
        _close(got["k"], want["k"])
    pairs = [(tri, planted), (planted, tri), (tri, other)]
    for a, b in pairs:
        got, want = sim.w_maps(a, b), oracles.w_maps_by_apply(a, b)
        assert got["ok"] == want["ok"]
        _close(got["w0"], want["w0"])
        _close(got["w1"], want["w1"])
    tau = gen.random_unitary(gen.rng_for(n, 3), tri.parent.dim)
    vs = [sim.build_standard_V(a, b, tau) for a, b in pairs]
    monkeypatch.setattr(sim, "w_maps", oracles.w_maps_by_apply)
    monkeypatch.setattr(sim, "_e0_coords", oracles.e0_coords_by_apply)
    for v, (a, b) in zip(vs, pairs):
        _close(v, sim.build_standard_V(a, b, tau))


@POLICIES
def test_reconstruction_takes_one_svd_of_the_gamma_columns(tol, monkeypatch):
    # the rank decision and the pseudo-inverse of the planted pair's columns
    tri, planted = _triples(16, tol)
    for x in (tri, planted):
        x.t0, x.n_rel, x.gamma_graph, x.beta  # derive outside the count
    pinv = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pinv.append(a))
    calls = svd_calls(monkeypatch)
    out = sim.reconstruct_similarity(tri, planted)
    assert out["status"] == "unitary" and not pinv
    # the grid's 10 points give the 16 x 40 columns
    assert calls.count(((16, 40), True)) == 1


@SIZES
@POLICIES
def test_unitary_images_of_frames_match_their_spans(n, tol):
    tri, _ = _triples(n, tol)
    w = gen.sample_witness(tri.parent, n, tol)
    for r in (tri.parent, w.N, w.t0, tri.tplus):
        _same(rel.hilbertize(r).graph, oracles.hilbertize_by_span(r, tol).graph)
    frak_t0 = rel.hilbertize(w.t0)
    _same(ext._cayley_graph(frak_t0), oracles.cayley_graph_by_span(frak_t0, tol))
    # sample_witness's T0 is J T0_hilbert: J applied again, by the span route, gives it back
    space = w.t0.src
    back = oracles.hilbertize_by_span(rel.LinearRelation(space, space, frak_t0.graph), tol)
    _same(w.t0.graph, back.graph)
    fp, fm = (ext.defect_subspace(tri.parent, z, tol).frame for z in (1j, -1j))
    dom_n = rel.parts(w.N, tol).dom
    assert ext._dom_n_neutrality(tri.parent, dom_n, tol) == oracles.dom_n_neutrality_by_pinv(
        fp, fm, dom_n, tol)


def _at_involution_cut(j0: np.ndarray, perturbation: np.ndarray, share: float) -> np.ndarray:
    """j0 + eps * perturbation with max|J^2 - I| at `share` of make_krein's cut."""
    eps = 1e-9
    for _ in range(60):
        j = j0 + eps * perturbation
        cut = 1e-10 * (1 + np.linalg.norm(j)) ** 2
        eps *= share * cut / np.abs(j @ j - np.eye(len(j))).max()
    return j0 + eps * perturbation


def test_hilbertize_keeps_its_dim_for_a_j_at_the_involution_cut():
    # make_krein accepts J at 0.9 of its involution cut; the Gram check of
    # [E; JD] holds there, at n = 96, for J scaled and for J nudged by a
    # random Hermitian matrix
    t = gen_symmetric(InstanceSpec(101, 96, (48, 48), 4))
    w = gen.sample_witness(t, 102)
    h = gen.random_complex(gen.rng_for(103, 0), 96, 96)
    for nudge in (t.src.J, h + h.conj().T):
        j = _at_involution_cut(t.src.J, nudge, 0.9)
        space = krein.make_krein(j)
        with pytest.raises(krein.NotAFundamentalSymmetryError, match="involution"):
            krein.make_krein(_at_involution_cut(t.src.J, nudge, 1.1))
        for r in (t, w.N, w.t0):
            moved = rel.LinearRelation(space, space, r.graph)
            _same(rel.hilbertize(moved).graph, oracles.hilbertize_by_span(moved, DEFAULT_TOL).graph)


def test_parts_spans_each_part_when_read(monkeypatch):
    t = gen_symmetric(InstanceSpec(16, 16, (8, 8), 4))
    tplus = rel.adjoint(t, "krein")
    ref = oracles.parts_by_span(tplus, DEFAULT_TOL)
    calls = svd_calls(monkeypatch)
    p = rel.parts(tplus)
    assert not calls
    assert p.dom is p.dom and len(calls) == 1
    for name in ("dom", "ran", "ker", "mul"):
        _same(getattr(p, name), ref[name])


def test_the_signature_is_the_trace_count():
    for n in range(1, 97):
        rng = gen.rng_for(n, 5)
        for p in sorted({0, n, int(rng.integers(0, n + 1))}):
            j = gen.random_signature_symmetry(rng, p, n - p)
            assert krein.make_krein(j).signature == oracles.signature_by_eigvalsh(j) == (p, n - p)


def _holders(seed: int) -> list:
    """One of each array-holding object of the package, from one seed."""
    t = gen_symmetric(InstanceSpec(seed, 4, (2, 2), 2))
    tri = gen_triple(t, seed)
    w = gen.sample_witness(t, seed)
    return [tri, bnd.weyl(tri, 1j), bnd.pair_from_triple(tri), t, rel.parts(t), t.graph,
            t.src, w]


def test_array_holding_objects_compare_by_identity():
    # two draws from one seed: equal arrays, distinct objects
    for a, b in zip(_holders(41), _holders(41)):
        assert dataclasses.is_dataclass(a) and type(a) is type(b)
        assert (a == b) is False and (a == a) is True and (a != b) is True
        assert len({a, b, a}) == 2


@POLICIES
def test_defect_subspace_matches_the_eigenspace_of_the_adjoint(tol):
    # random non-symmetric relations of graph dim k <= n, where N_z has dim n - k
    for seed in range(12):
        rng = gen.rng_for(seed, 50)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, n + 1))
        space = gen.random_space(seed, p, n - p)
        k = int(rng.integers(1, n + 1))
        g = rel.LinearRelation(space, space, sub.span(gen.random_complex(rng, 2 * n, k), tol))
        assert not rel.is_symmetric(g, tol)
        for z in (0.7 - 0.3j, 1j, -1j, 2.0):
            got = ext.defect_subspace(g, z, tol)
            assert got.dim == n - k
            _same(got, oracles.defect_subspace_by_eigenspace(g, z, tol))


@POLICIES
def test_a_generated_triple_keeps_the_witness_it_was_drawn_from(tol):
    # gen_triple builds T0 = T + N from the witness of its own seed, so the
    # suites read N off the triple instead of drawing it again
    for seed in range(8):
        t = st._draw_t(seed, tol)
        _same(gen_triple(t, seed, tol).n_rel.graph, gen.sample_witness(t, seed, tol).N.graph)


def test_the_boundary_suite_samples_one_witness_a_trial(monkeypatch):
    # the laws suite draws two triples a trial and no witness of its own
    drawn = []
    sample = gen.sample_witness

    def counting(t, seed, tol=DEFAULT_TOL):
        drawn.append(seed)
        return sample(t, seed, tol)

    monkeypatch.setattr(gen, "sample_witness", counting)
    for suite, per_trial in ((st.suite_boundary, 1), (st.suite_laws, 2)):
        drawn.clear()
        assert suite(3, 11).ok
        assert len(drawn) == 3 * per_trial


def _beside_a_real_eigenvalue(tri: bnd.BoundaryTriple, eps: float) -> complex:
    """lambda + i eps beside the real eigenvalue of T0 nearest 0."""
    e, d = tri.t0.blocks()
    lams = np.linalg.eigvals(np.linalg.solve(e, d))
    lam = min(lams[np.abs(lams.imag) < 1e-8], key=abs)
    return lam.real + 1j * eps


@pytest.mark.parametrize("n,d", [(4, 1), (16, 1), (16, 4), (64, 1), (64, 16)])
@POLICIES
def test_eigenspaces_of_an_adjoint_are_read_off_its_orthocomplement(n, d, tol):
    # T+ keeps the frame of its graph's orthocomplement; a copy of its graph
    # keeps none, so it takes the route of E ker(D - zE) and one QR.  At most
    # n/4 of T0's eigenvalues are non-real at signature (n - n/4, n/4)
    tri = gen_triple(gen_symmetric(InstanceSpec(n + d, n, (n - n // 4, n // 4), d), tol=tol),
                     n + d, tol)
    copy = rel.LinearRelation(tri.space, tri.space, tri.tplus.graph)
    points = list(dict.fromkeys([*bnd.DEFAULT_GRID, *np.conj(bnd.DEFAULT_GRID),
                                 _beside_a_real_eigenvalue(tri, 1e-5)]))
    stacked = rel.eigenspace(tri.tplus, points, tol)
    for z, walked in zip(points, stacked):
        got = rel.eigenspace(tri.tplus, z, tol)
        _same(got, rel.eigenspace(copy, z, tol))
        assert np.array_equal(walked.frame, got.frame)
    assert rel._PERP not in copy._memo
    # the kept frame is the orthonormal complement of the adjoint's graph
    for metric in ("krein", "hilbert"):
        adj = rel.adjoint(tri.parent, metric)
        perp = adj._memo[rel._PERP].frame
        assert perp.shape == (2 * n, 2 * n - adj.dim) and adj.dim == n + d
        assert np.abs(perp.conj().T @ perp - np.eye(n - d)).max() <= 1e-13
        assert np.abs(adj.graph.frame.conj().T @ perp).max() <= 1e-13


@pytest.mark.parametrize("n,d", [(4, 1), (16, 4), (64, 16)])
@POLICIES
def test_eigenspaces_without_an_orthocomplement_take_no_span(n, d, tol, monkeypatch):
    # E ker(D - zE) is an injective image of the decided kernel frame, so the
    # only SVDs are the kernel's; it is compared with the span of E K, at
    # DEFAULT_GRID, its conjugates, 1e-5 beside a real eigenvalue of T0 and
    # at that eigenvalue, for T, T0 and a copy of T+'s graph
    tri = gen_triple(gen_symmetric(InstanceSpec(n + d, n, (n - n // 4, n // 4), d), tol=tol),
                     n + d, tol)
    copy = rel.LinearRelation(tri.space, tri.space, tri.tplus.graph)
    beside = _beside_a_real_eigenvalue(tri, 1e-5)
    points = list(dict.fromkeys([*bnd.DEFAULT_GRID, *np.conj(bnd.DEFAULT_GRID),
                                 beside, beside.real]))
    calls = svd_calls(monkeypatch)
    dims = set()
    for t in (tri.parent, tri.t0, copy):
        e, d_block = t.blocks()
        stacked = rel.eigenspace(t, points, tol)
        for z, walked in zip(points, stacked):
            calls.clear()
            k = sub.kernel(d_block - z * e, tol)
            kernel_calls = calls[:]
            calls.clear()
            got = rel.eigenspace(t, z, tol)
            assert calls == kernel_calls
            _same_frame(got, sub.span(e @ k.frame, tol))
            assert np.array_equal(walked.frame, got.frame)
            dims.add(got.dim)
    assert dims > {0}
