import numpy as np
import pytest

import kreinrel as kr
from kreinrel import extensions as ext, krein, relations as rel, subspaces as sub
from kreinrel.boundary import DEFAULT_GRID
from kreinrel.generators import (InstanceSpec, gen_symmetric, random_complex,
                                 rng_for, sample_witness)
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy
from oracles import m_hat_by_span, relation


def brute_defect(t, z):
    """Kernel of J T+ J ... of the Euclidean adjoint, straight from the frames."""
    tstar = rel.adjoint(t, "hilbert")
    e, d = tstar.blocks()
    k = sub.kernel(d - z * e)
    cols = e @ k.frame
    jcols = t.src.J @ cols  # J-conjugation moves T* to (JT)*
    return np.linalg.matrix_rank(jcols) if jcols.size else 0


def test_defects_selfadjoint_zero(c4):
    t0 = c4["triple"].t0
    assert ext.defect_numbers(t0) == (0, 0)


def test_defects_c4(c4):
    assert ext.defect_numbers(c4["T"]) == (3, 3)


def test_defects_c2_shift_operator():
    space = krein.hilbert_space(2)
    t = relation(space, space, np.array([[1, 0, 0, 1]]).T)
    assert ext.defect_numbers(t) == (1, 1)
    # brute-force kernel count: (JT)* = T* here, defect = dim ker(T* -/+ i)
    tstar = rel.adjoint(t, "hilbert")
    for z in (1j, -1j):
        assert rel.eigenspace(tstar, z).dim == 1


def test_n_class_accepts_c4(c4):
    w = ext.n_class_check(c4["T"], c4["triple"].n_rel)
    assert sub.equal(w.t0.graph, c4["triple"].t0.graph)


def test_n_class_rejects_t_itself(c4):
    with pytest.raises(ext.NClassRejection):
        ext.n_class_check(c4["T"], c4["T"])


def test_n_class_accepts_jn_as_other_kernel(c4):
    # J_hat(N) is the witness of the other distinguished extension T1
    jn = relation(c4["space"], c4["space"], sub.span(c4["triple"].fjn))
    w = ext.n_class_check(c4["T"], jn)
    assert sub.equal(w.t0.graph, c4["triple"].t1.graph)


def test_n_class_rejects_bad_candidates(c4, c4_false_n):
    tri = c4["triple"]
    # too small: the sum cannot be hyper-maximal
    small = relation(c4["space"], c4["space"], sub.span(tri.fn[:, :2]))
    with pytest.raises(ext.NClassRejection):
        ext.n_class_check(c4["T"], small)
    # mixing N with its J_hat-image of the same column breaks neutrality
    mixed = relation(c4["space"], c4["space"],
                        sub.span(np.hstack([tri.fn[:, :2], tri.fjn[:, :1]])))
    with pytest.raises(ext.NClassRejection):
        ext.n_class_check(c4["T"], mixed)
    # N ⊆ T+ ∩ T-perp and ran(JN ± i) = N_±i hold, so only the
    # self-adjointness of T ⊕ N tells these apart from the N-class
    t = c4["T"]
    for n in c4_false_n.values():
        assert sub.contains(rel.adjoint(t, "krein").graph, n.graph)
        assert sub.contains(sub.complement(t.graph), n.graph)
        e, d = rel.hilbertize(n).blocks()
        for z in (1j, -1j):
            assert sub.equal(sub.span(d + z * e), ext.defect_subspace(t, z))
        assert not rel.is_selfadjoint(rel.cw_sum(t, n)[0])
        for build in (ext.n_class_check, ext.extend):
            with pytest.raises(ext.NClassRejection, match="not hyper-maximal neutral"):
                build(t, n)



def test_extend_reduce_roundtrip_c4(c4):
    t = c4["T"]
    n = c4["triple"].n_rel
    t0 = ext.extend(t, n)
    back = ext.reduce(t, t0)
    assert sub.distance(back.graph, n.graph) < 1e-10
    # the worked example's displayed N
    n_golden = sub.span(np.array([[0, 0, 1, 0, 0, 0, 0, 1],
                                 [0, 0, 0, 0, 1, 0, 0, 0],
                                 [0, 0, 0, 0, 0, 0, 1, 0]]).T)
    assert sub.equal(back.graph, n_golden)


def test_selfadjoint_has_trivial_n_class(c4):
    t0 = c4["triple"].t0
    n = ext.reduce(t0, t0)
    assert n.dim == 0
    again = ext.extend(t0, n)
    assert sub.equal(again.graph, t0.graph)


def test_roundtrip_random_instances():
    rng = np.random.default_rng(0)
    for k in range(25):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, n + 1))
        d = int(rng.integers(1, n))
        t = gen_symmetric(InstanceSpec(1000 + k, n, (p, n - p), d))
        w = sample_witness(t, 2000 + k)
        t0 = ext.extend(t, w.N)
        assert sub.distance(t0.graph, w.t0.graph) < 1e-8
        back = ext.reduce(t, t0)
        assert sub.distance(back.graph, w.N.graph) < 1e-8
        ext.n_class_check(t, back)


def test_sigma_decomposition_c4(c4):
    t = c4["T"]
    n = ext.reduce(t, c4["triple"].t0)
    sigma = sub._meet_complement(rel.adjoint(t, "krein").graph, t.graph, kr.DEFAULT_TOL)
    assert sigma.dim == 6
    assert sub.equal(sigma, sub.sum_(n.graph, sub.image(t.src.doubled.J, n.graph)))
    m_hat = ext._m_hat(t, kr.DEFAULT_TOL)
    assert m_hat.dim == 6
    # M_hat against the eigenspace route through JT+
    tstar = rel.hilbertize(rel.adjoint(t, "krein"))
    want, _ = rel.cw_sum(rel.graph_eigenspace(tstar, 1j), rel.graph_eigenspace(tstar, -1j))
    assert m_hat.src.same_as(want.src) and m_hat.tgt.same_as(want.tgt)
    assert sub.equal(m_hat.graph, want.graph)
    # dimension ledger of the proposition: d + n = dim H
    d_plus, _ = ext.defect_numbers(t)
    n_plus, _ = ext.defect_numbers(n)
    assert d_plus + n_plus == 4
    assert n.dim == d_plus and t.dim == n_plus


def test_prop_n_audit_c4(c4):
    report = ext.prop_n_audit(c4["T"], c4["triple"].n_rel)
    assert report["ok"], report
    assert report["t0_selfadjoint"] is True
    assert report["defects"] == (3, 3)
    assert report["n_defects"] == (1, 1)
    # the worked example has intersecting defect subspaces, so the
    # pair-metric transfer is degenerate there
    assert report["m_degenerate"] is True


def test_prop_n_audit_random_nondegenerate():
    t = gen_symmetric(InstanceSpec(77, 4, (2, 2), 2, require_property_p=True))
    w = sample_witness(t, 78)
    report = ext.prop_n_audit(t, w.N)
    assert report["ok"], report
    assert report["t0_selfadjoint"] is True
    assert report["m_degenerate"] is False
    assert report["dom_n_hyper_maximal"] is True


def test_prop_n_audit_without_defect():
    # a self-adjoint T has trivial defect subspaces and N = {0}, whose domain
    # is hyper-maximal neutral in the empty defect-pair space
    t = gen_symmetric(InstanceSpec(5, 3, (2, 1), 0))
    report = ext.prop_n_audit(t, sample_witness(t, 7).N)
    assert report["ok"], report
    assert report["defects"] == (0, 0)
    assert report["m_degenerate"] is False
    assert report["dom_n_hyper_maximal"] is True


def test_delta_membership_simple(c4):
    # simple T: every non-real point is of symmetric regular type
    for z in DEFAULT_GRID:
        assert ext.delta_membership(c4["T"], complex(z))
    assert not ext.delta_membership(c4["T"], 1.0)


def test_O_membership_planted_orthogonal_ranges():
    space = krein.hilbert_space(4)
    g = relation(space, space, np.array([[1, 0, 0, 0, 0, 1, 0, 0]]).T)
    h = relation(space, space, np.array([[0, 0, 1, 0, 0, 0, 0, 1]]).T)
    z = 0.3 + 0.4j
    assert ext.O_membership(g, h, z)


def test_lemma_os_identity_c4(c4):
    w = ext.NWitness(c4["triple"].n_rel, c4["triple"].t0)
    out = ext.lemma_os_check(c4["T"], w, DEFAULT_GRID)
    assert out["ok"], out


def test_lemma_os_identity_random():
    for k in range(10):
        t = gen_symmetric(InstanceSpec(300 + k, 5, (3, 2), 2, require_property_p=True))
        w = sample_witness(t, 400 + k)
        out = ext.lemma_os_check(t, w, DEFAULT_GRID)
        assert out["ok"], (k, out)


def test_simple_check(c4):
    assert ext.simple_check(c4["T"], [1j, -1j, 1 + 1j, -1 - 2j])
    t0 = c4["triple"].t0
    assert not ext.simple_check(t0, DEFAULT_GRID)


def test_theorem_ex_sampled(c4):
    t = c4["T"]
    witnesses = [sample_witness(t, s) for s in (1, 2, 3)]
    out = ext.theorem_ex_check(t, witnesses, DEFAULT_GRID)
    assert out["ok"], out
    assert out["property_p"] is False  # the worked example fails (P)
    assert out["densely_defined"] is False


def test_lemma_exn_on_property_p_instances():
    hits = 0
    for k in range(10):
        t = gen_symmetric(InstanceSpec(500 + k, 5, (3, 2), 2, require_property_p=True))
        w = sample_witness(t, 600 + k)
        out = ext.lemma_exn_check(t, w.N, DEFAULT_GRID)
        assert not out["eigenvalues"], out
        assert out["pm_i_trivial"]
        hits += out["is_operator"]
    assert hits == 10


def test_defect_dimension_at_regular_points():
    # at regular points of a distinguished extension the defect subspace
    # of the adjoint has exactly the defect dimension
    for k in range(5):
        t = gen_symmetric(InstanceSpec(700 + k, 5, (3, 2), 2))
        w = sample_witness(t, 701 + k)
        tplus = rel.adjoint(t, "krein")
        for z in DEFAULT_GRID:
            if rel.spectral_probe(w.t0, complex(z))["regular"]:
                assert rel.eigenspace(tplus, complex(z)).dim == 2


@pytest.mark.parametrize("case", ["n3", "n6", "n16", "c4", "zero"])
def test_defect_subspace_matches_adjoint_eigenspace(case, c4):
    if case == "c4":
        t = c4["T"]
    elif case == "zero":
        space = krein.make_krein(np.diag([1, -1, 1]).astype(np.complex128))
        t = rel.zero_relation(space, space)
    else:
        n = int(case[1:])
        t = gen_symmetric(InstanceSpec(810 + n, n, (n // 2 + 1, n - n // 2 - 1), n // 3))
    for z in (1j, -1j, 0.5 + 2j, 2.0):
        ref = rel.eigenspace(rel.hilbertize(rel.adjoint(t, "krein")), z)
        assert sub.equal(ext.defect_subspace(t, z), ref)


def test_has_property_p(c4):
    assert not ext.has_property_p(c4["T"])
    space = krein.hilbert_space(2)
    t = relation(space, space, np.array([[1, 0, 0, 1]]).T)
    assert ext.has_property_p(t)


def test_adjoint_and_defect_subspace_are_memoized():
    t = gen_symmetric(InstanceSpec(5, 4, (2, 2), 2))
    loose = kr.TolerancePolicy(rank_rel=1e-3)
    for metric in ("krein", "hilbert"):
        assert rel.adjoint(t, metric) is rel.adjoint(t, metric)
    assert rel.adjoint(t, "krein") is not rel.adjoint(t, "hilbert")
    assert ext.defect_subspace(t, 1j) is ext.defect_subspace(t, complex(0, 1))
    assert ext.defect_subspace(t, 1j) is not ext.defect_subspace(t, -1j)
    assert ext.defect_subspace(t, 1j) is not ext.defect_subspace(t, 1j, loose)
    # a relation with the same graph starts with nothing remembered
    twin = rel.LinearRelation(t.src, t.tgt, t.graph)
    assert twin.graph is t.graph and rel.adjoint(twin) is not rel.adjoint(t)
    assert sub.equal(rel.adjoint(twin).graph, rel.adjoint(t).graph)


def test_graph_frames_are_read_only():
    t = gen_symmetric(InstanceSpec(6, 3, (2, 1), 1))
    for frame in (t.graph.frame, t.blocks()[1], rel.adjoint(t).graph.frame,
                  ext.defect_subspace(t, 1j).frame):
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0] = 1.0


def test_memo_shared_across_threads():
    # more threads than cores start together on relations with empty memos and
    # switch often; every caller must get the one stored value, equal to a lone
    # caller's, which a lost update between two racing misses would break
    import sys
    import threading
    t = gen_symmetric(InstanceSpec(8, 5, (3, 2), 2))
    keys = [("adjoint", "krein"), ("adjoint", "hilbert"),
            ("defect", 1j), ("defect", -1j), ("defect", 2 + 1j)]

    def lookup(r, kind, arg):
        return rel.adjoint(r, arg).graph if kind == "adjoint" else ext.defect_subspace(r, arg)

    shared = [rel.LinearRelation(t.src, t.tgt, t.graph) for _ in range(30)]
    seen = [[] for _ in range(6)]
    start = threading.Barrier(len(seen), timeout=60)

    def worker(out):
        for r in shared:
            start.wait()
            out.extend((r, key, lookup(r, *key)) for key in keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    want = {key: lookup(t, *key) for key in keys}
    for out in seen:
        assert len(out) == len(shared) * len(keys)
        for r, key, got in out:
            assert got is lookup(r, *key)
            assert sub.equal(got, want[key])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
@pytest.mark.parametrize("n", [4, 16, 48])
def test_m_hat_frame_from_its_structure_spans_what_the_svd_spans(n, tol):
    # [N_i, N_-i; iN_i, -iN_-i]/sqrt(2) is orthonormal by construction, so it is
    # taken as a frame, with no SVD and no rank decision
    t = gen_symmetric(InstanceSpec(500 + n, n, (n // 2, n // 2), n // 4), tol=tol)
    m_hat = ext._m_hat(t, tol)
    want = m_hat_by_span(ext.defect_subspace(t, 1j, tol).frame,
                         ext.defect_subspace(t, -1j, tol).frame, tol)
    assert m_hat.dim == want.dim == 2 * (n // 4)
    assert sub.distance(m_hat.graph, want.graph) <= 1e-12


@pytest.mark.parametrize("n, d", [(6, 2), (24, 6)])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(1e-3, 1e-6, 1e-4)],
                         ids=["default", "loose"])
def test_n_class_check_builds_no_adjoint_or_complement(n, d, tol, monkeypatch):
    # N's first column turned by theta toward T stays in T+ but leaves T-perp,
    # and toward a column of C = [J D; -J E], which frames the orthocomplement
    # of T+, stays in T-perp but leaves T+; either angle is exactly theta
    t = gen_symmetric(InstanceSpec(80 + n, n, (n - n // 2, n // 2), d), tol=tol)
    witness = sample_witness(t, 81 + n, tol).N
    e, dd = t.blocks()
    toward = {"N not orthogonal to T": t.graph.frame[:, 0],
              "N not inside the adjoint": np.concatenate([t.src.J @ dd[:, 0],
                                                          -t.src.J @ e[:, 0]])}

    def refuse(*args, **kwargs):
        raise AssertionError("n_class_check built a frame it only measures against")

    monkeypatch.setattr(rel, "adjoint", refuse)
    monkeypatch.setattr(sub, "complement", refuse)
    assert ext.n_class_check(t, witness, tol).N is witness
    for reason, u in toward.items():
        for factor in (0.5, 2.0):
            theta = factor * tol.angle_tol
            f = witness.graph.frame.copy()
            f[:, 0] = np.cos(theta) * f[:, 0] + np.sin(theta) * u
            moved = rel.LinearRelation(t.src, t.tgt, sub.Subspace(f))
            if factor < 1:
                assert ext.n_class_check(t, moved, tol).N is moved
            else:
                with pytest.raises(ext.NClassRejection, match=reason):
                    ext.n_class_check(t, moved, tol)
