"""Degenerate shapes: trivial graphs, full defect, one-dimensional spaces."""

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, extensions as ext, generators as gen, \
    relations as rel, similarity as sim, subspaces as sub
from oracles import cayley


def test_zero_relation_full_defect_pipeline():
    for n, p in ((2, 1), (3, 2)):
        t = gen.gen_symmetric(gen.InstanceSpec(5, n, (p, n - p), n))
        assert t.dim == 0
        assert ext.defect_numbers(t) == (n, n)
        tri = gen.gen_triple(t, 6)
        assert tri.boundary_dim == n
        assert bnd.green_residual(t.src, tri.basis, tri.gamma) < 1e-10
        audit = ext.prop_n_audit(t, tri.n_rel)
        assert audit["ok"]
        tri2 = gen.gen_triple(t, 7)
        v = sim.build_standard_V(tri, tri2, np.zeros((0, 0)))
        assert v.vabcd_residual() < 1e-9
        assert sim.membership_check(v, tri, tri2)["member"]


def test_dim1_reconstruction():
    t = gen.gen_symmetric(gen.InstanceSpec(9, 1, (1, 0), 1))
    tri = gen.gen_triple(t, 10)
    u = gen.gen_standard_unitary(11, t.src, t.src)
    planted = gen.planted_similar_triple(tri, u, t.src)
    out = sim.reconstruct_similarity(tri, planted)
    assert out["status"] == "unitary"
    assert out["gamma_residual"] < 1e-10


def test_cayley_defect_bijection():
    # the restricted Cayley transform carries one defect subspace onto the other
    t = gen.gen_symmetric(gen.InstanceSpec(13, 4, (2, 2), 2))
    w = gen.sample_witness(t, 14)
    frak_t0 = rel.hilbertize(w.t0)
    c = cayley(frak_t0, kr.DEFAULT_TOL)
    ni = ext.defect_subspace(t, 1j)
    nmi = ext.defect_subspace(t, -1j)
    assert sub.equal(sub.image(c, ni), nmi)
    assert sub.equal(sub.image(np.linalg.inv(c), nmi), ni)


def test_indefinite_gram_entries():
    from kreinrel.krein import indefinite_gram
    from oracles import indefinite_inner
    rng = np.random.default_rng(2)
    space = gen.random_space(3, 2, 2)
    a = sub.span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    b = sub.span(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    g = indefinite_gram(space, a, b)
    for k in range(2):
        for l in range(3):
            want = indefinite_inner(space, a.frame[:, k], b.frame[:, l])
            assert g[k, l] == pytest.approx(want)


def test_property_p_impossible_regime_raises():
    with pytest.raises(gen.SamplingExhaustedError):
        gen.gen_symmetric(gen.InstanceSpec(1, 3, (2, 1), 2, require_property_p=True))


def test_cli_custom_grid(tmp_path, capsys):
    import json
    import os
    from kreinrel import io as kio
    from kreinrel.cli import main
    fixture = os.path.join(os.path.dirname(kio.__file__), "data", "ex4.json")
    out = kio.load_document(fixture)
    tri = out["triple"]
    u = gen.gen_standard_unitary(11, tri.space, tri.space)
    planted = gen.planted_similar_triple(tri, u, tri.space)
    pos = tmp_path / "p.json"
    kio.save_document(str(pos), kio.document_for(tri.space, planted.parent, planted))
    assert main(["similar", fixture, str(pos), "--grid", "1i,-1i,2+1i,2-1i"]) == 0
    capsys.readouterr()
    assert main(["similar", fixture, str(pos), "--grid", "nonsense"]) == 2
