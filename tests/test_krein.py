import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreinrel as kr
from kreinrel import krein, subspaces as sub
from kreinrel.generators import random_signature_symmetry, rng_for

from oracles import green_pairing, indefinite_inner, ortho_companion


def test_make_krein_identity():
    space = kr.make_krein(np.eye(4))
    assert space.signature == (4, 0)


def test_make_krein_flip(c4):
    assert c4["space"].signature == (2, 2)


def test_make_krein_diag_pontryagin():
    space = kr.make_krein(np.diag([1.0, -1.0, 1.0]))
    assert space.signature == (2, 1)


def test_signature_is_read_off_j():
    # dim and (p, q) come from J alone: p - q = tr J, with or without make_krein
    rng = np.random.default_rng(32)
    for n in range(9):
        for p in range(n + 1):
            j = random_signature_symmetry(rng, p, n - p)
            for space in (krein.KreinSpace(j), kr.make_krein(j)):
                assert space.dim == n and space.signature == (p, n - p)
                assert space.doubled.dim == 2 * n and space.doubled.signature == (n, n)
        assert krein.hilbert_space(n).signature == (n, 0)


def test_make_krein_rejects_non_involution():
    with pytest.raises(krein.NotAFundamentalSymmetryError):
        kr.make_krein(np.diag([1.0, 2.0]))
    with pytest.raises(krein.NotAFundamentalSymmetryError):
        kr.make_krein(np.array([[0, 1], [0, 1]], dtype=float))


def test_space_holds_a_read_only_copy_of_j():
    # relations remember adjoints computed from J, so J must not change under them
    j = np.diag([1.0, -1.0]).astype(np.complex128)
    space = krein.make_krein(j)
    j[1, 1] = 1.0
    assert space.signature == (1, 1) and space.J[1, 1] == -1.0
    for s in (space, krein.hilbert_space(2)):
        with pytest.raises(ValueError, match="read-only"):
            s.J[0, 0] = 2.0


def test_every_krein_space_holds_a_read_only_j():
    # doubled spaces and spaces built directly copy and freeze J as well
    j = np.diag([1.0, -1.0]).astype(np.complex128)
    direct = krein.KreinSpace(j)
    j[0, 0] = -1.0
    assert direct.J[0, 0] == 1.0
    for s in (direct, direct.doubled):
        assert not s.J.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.J[0, 0] = 2.0


def test_a_space_keeps_one_doubled_space_and_hilbert_spaces_are_shared():
    # relations over one base share their doubled space, so host checks meet
    # the same object
    space = kr.make_krein(np.diag([1.0, -1.0]))
    assert space.doubled is space.doubled
    assert krein.hilbert_space(3) is krein.hilbert_space(3)
    assert krein.hilbert_space(3).doubled is krein.hilbert_space(3).doubled


def test_symmetry_tolerances_are_absolute():
    # numpy's default rtol=1e-5 would let each of these defects through
    with pytest.raises(krein.NotAFundamentalSymmetryError, match="Hermitian"):
        kr.make_krein(np.diag([1 + 1e-7j, -1.0]))
    with pytest.raises(krein.NotAFundamentalSymmetryError, match="involution"):
        kr.make_krein(np.diag([1 + 1e-6, -1.0]))
    space = kr.make_krein(np.diag([1.0, -1.0]))
    nudged = krein.KreinSpace(space.J + np.diag([1e-7, 0.0]))
    assert not space.same_as(nudged)


def test_indefinite_inner_small():
    space = kr.make_krein(np.diag([1.0, -1.0]))
    assert indefinite_inner(space, [1, 0], [1, 0]) == pytest.approx(1)
    assert indefinite_inner(space, [0, 1], [0, 1]) == pytest.approx(-1)


def test_indefinite_inner_flip(c4):
    e1 = np.eye(4)[:, 0]
    e4 = np.eye(4)[:, 3]
    assert indefinite_inner(c4["space"], e1, e4) == pytest.approx(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = int(rng.integers(0, n + 1))
    space = kr.make_krein(random_signature_symmetry(rng, p, n - p))
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert indefinite_inner(space, f, g) == pytest.approx(
        np.conj(indefinite_inner(space, g, f)))


def test_ortho_companion_full_space():
    space = kr.make_krein(np.diag([1.0, -1.0, 1.0]))
    assert ortho_companion(space, sub.full(3)).dim == 0


def test_ortho_companion_dims_random():
    rng = np.random.default_rng(3)
    space = kr.make_krein(random_signature_symmetry(rng, 2, 3))
    a = sub.span(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    comp = ortho_companion(space, a)
    assert a.dim + comp.dim == 5
    assert sub.equal(ortho_companion(space, comp), a)


def test_sigma_as_companion_intersection(c4):
    # T+ ∩ T-perp(Hilbert) = N ⊕ J_hat(N) on the worked example
    t = c4["T"]
    tri = c4["triple"]
    sigma = sub.intersect(tri.tplus.graph, sub.complement(t.graph))
    split = sub.sum_(tri.n_rel.graph, sub.span(tri.fjn))
    assert sub.equal(sigma, split)


def test_classify_and_neutrality():
    space = kr.make_krein(np.diag([1.0, -1.0]))
    neutral = sub.span(np.array([[1, 1]]).T)
    flags = krein.neutrality_rank(space, neutral)
    assert flags == {"neutral": True, "maximal": True, "hyper_maximal": True}
    for definite in (sub.span(np.array([[1, 0]]).T), sub.span(np.array([[0, 1]]).T), sub.full(2)):
        assert not krein.neutrality_rank(space, definite)["neutral"]


def test_trivial_subspace_neutral():
    space = kr.make_krein(np.diag([1.0, -1.0, -1.0]))
    flags = krein.neutrality_rank(space, sub.trivial(3))
    assert flags["neutral"] and not flags["maximal"]


def test_hyper_maximal_on_doubled(c4):
    tri = c4["triple"]
    dk = c4["space"].doubled
    t0_graph = tri.t0.graph
    flags = krein.neutrality_rank(dk, t0_graph)
    assert flags["hyper_maximal"]
    # hyper-maximal neutral subspaces coincide with their companions
    assert sub.equal(ortho_companion(dk, t0_graph), t0_graph)
    # projection-form cross-check: both canonical projections are onto
    for sign in (1.0, -1.0):
        proj = (np.eye(8) + sign * dk.J) / 2.0
        assert sub.image(proj, t0_graph).dim == 4
    # a strictly smaller neutral subspace fails the projection criterion
    small = sub.span(t0_graph.frame[:, :2])
    dims = [sub.image((np.eye(8) + s * dk.J) / 2.0, small).dim for s in (1, -1)]
    assert max(dims) < 4


def test_neutral_contained_in_companion():
    rng = np.random.default_rng(11)
    space = kr.make_krein(random_signature_symmetry(rng, 2, 2))
    dk = space.doubled
    vecs, _ = np.linalg.eigh(dk.J)
    # trace out a small neutral subspace: mix +1 and -1 eigenvectors
    _, v = np.linalg.eigh(dk.J)
    neutral = sub.span((v[:, :2] + v[:, -2:]) / np.sqrt(2))
    assert krein.is_neutral(dk, neutral)
    assert sub.contains(ortho_companion(dk, neutral), neutral)


def test_doubled_smallest():
    space = krein.hilbert_space(1)
    dk = space.doubled
    assert np.allclose(dk.J, np.array([[0, -1j], [1j, 0]]))


def test_doubled_inner_product_formula(c4):
    space = c4["space"]
    dk = space.doubled
    rng = np.random.default_rng(1)
    for _ in range(5):
        fhat = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ghat = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        via_jhat = np.conj(fhat) @ dk.J @ ghat
        f, fp, g, gp = fhat[:4], fhat[4:], ghat[:4], ghat[4:]
        j = space.J
        direct = -1j * (np.conj(f) @ j @ gp) + 1j * (np.conj(fp) @ j @ g)
        assert via_jhat == pytest.approx(direct)
        assert 1j * via_jhat == pytest.approx(green_pairing(j, fhat, ghat))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_doubled_signature(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    p = int(rng.integers(0, n + 1))
    space = kr.make_krein(random_signature_symmetry(rng, p, n - p))
    dk = space.doubled
    assert dk.signature == (n, n)
    assert np.allclose(dk.J, dk.J.conj().T)
    assert np.allclose(dk.J @ dk.J, np.eye(2 * n))
