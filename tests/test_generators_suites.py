import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, extensions as ext, generators as gen, io as kio, \
    krein, relations as rel, similarity as sim, subspaces as sub, suites as st
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy

from conftest import solved_points
from oracles import relation


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        gen.InstanceSpec(0, 4, (3, 2), 1)
    with pytest.raises(ValueError):
        gen.InstanceSpec(0, 4, (2, 2), 5)


def test_gen_symmetric_defect_zero_selfadjoint():
    t = gen.gen_symmetric(gen.InstanceSpec(5, 3, (2, 1), 0))
    assert rel.is_selfadjoint(t)


def test_gen_symmetric_c4_parameters():
    # the worked example's parameters: dim 4, signature (2,2), defect 3
    t = gen.gen_symmetric(gen.InstanceSpec(6, 4, (2, 2), 3))
    assert t.dim == 1
    assert ext.defect_numbers(t) == (3, 3)
    w = gen.sample_witness(t, 7)
    assert ext.prop_n_audit(t, w.N)["ok"]


def test_gen_symmetric_determinism():
    spec = gen.InstanceSpec(123, 5, (3, 2), 2)
    a = gen.gen_symmetric(spec)
    b = gen.gen_symmetric(spec)
    assert np.array_equal(a.graph.frame, b.graph.frame)


def test_a_seed_names_its_instance_whatever_frame_span_returns(monkeypatch):
    # the seeded draws read no frame that `span`, `sum_` or `image` chose: with
    # each such frame's columns reversed and turned by i, T and Gamma come out
    # bit for bit, at n = 16, where 2n x n spans take the QR route
    def build():
        t = gen.gen_symmetric(gen.InstanceSpec(5, 16, (8, 8), 4))
        return t.graph.frame, gen.gen_triple(t, 5).gamma

    want = build()
    orth = sub._orth

    def turned(columns, tol):
        f = orth(columns, tol)
        return [1j * g[:, ::-1] for g in f] if isinstance(f, list) else 1j * f[:, ::-1]

    monkeypatch.setattr(sub, "_orth", turned)
    for got, ref in zip(build(), want):
        assert np.array_equal(got, ref)


def test_gen_symmetric_flags():
    spec = gen.InstanceSpec(9, 4, (2, 2), 2, require_simple=True,
                            require_property_p=True)
    t = gen.gen_symmetric(spec)
    assert ext.simple_check(t, bnd.DEFAULT_GRID)
    assert ext.has_property_p(t)


def test_gen_triple_seed_changes_map():
    t = gen.gen_symmetric(gen.InstanceSpec(3, 4, (2, 2), 2))
    tri_a = gen.gen_triple(t, 1)
    tri_b = gen.gen_triple(t, 2)
    assert not np.allclose(tri_a.gamma, tri_b.gamma)


def test_gen_standard_unitary_gram():
    for seed in range(5):
        rng = gen.rng_for(seed, 0)
        space = gen.random_space(seed, 2, 2)
        other = gen.random_space(seed + 100, 2, 2)
        u = gen.gen_standard_unitary(seed, space, other)
        assert np.abs(u.conj().T @ other.J @ u - space.J).max() < 1e-10


def test_gen_standard_unitary_hilbert_case():
    space = kr.hilbert_space(4)
    u = gen.gen_standard_unitary(8, space, space)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_gen_standard_unitary_signature_mismatch():
    a = gen.random_space(1, 3, 1)
    b = gen.random_space(2, 2, 2)
    with pytest.raises(ValueError):
        gen.gen_standard_unitary(0, a, b)


def test_lemma_o_trivial_second_summand():
    # the eigenspace formula with H = {0}x{0} degenerates to the plain one
    space = gen.random_space(1, 2, 2)
    rng = gen.rng_for(2, 0)
    g = relation(space, space, sub.span(gen.random_complex(rng, 8, 3)))
    h = rel.zero_relation(space, space)
    gh, _ = rel.cw_sum(g, h)
    for z in (1j, 0.5, 1 - 2j):
        assert sub.equal(rel.eigenspace(gh, z), rel.eigenspace(g, z))
        assert ext.O_membership(g, h, z)


def test_suites_deterministic():
    r1 = st.suite_extensions(5, 99)
    r2 = st.suite_extensions(5, 99)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed"), d2.pop("elapsed")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_residual_fails_the_report(bad):
    report = st.Report("x", 1)
    report.record(1e-12)
    report.record(bad)
    report.record(1e-12)
    assert not report.ok
    assert not np.isfinite(report.max_residual)


def test_failure_data_of_numpy_scalars_round_trips_through_json():
    report = st.Report("x", 1)
    report.fail(1, "numpy scalars", flag=np.bool_(False), count=np.int64(3),
                value=np.float64(0.25), z=np.complex128(1 - 2j))
    got = json.loads(json.dumps(report.to_dict()))["failures"][0]
    assert (got["flag"], got["count"], got["value"], got["z"]) == (False, 3, 0.25, [1.0, -2.0])


@pytest.mark.parametrize("name", ["appendix", "extensions", "boundary", "similarity", "laws"])
def test_suites_clean_on_small_runs(name):
    for report in st.run_suites(name, 6, 2024):
        assert report.ok, report.to_dict()


@pytest.mark.parametrize("seed", [1, 7, 20240811])
def test_boundary_trial_solves_each_triple_point_once_per_check(seed, monkeypatch):
    # resolvent_identities_check walks the grid once and the beta-shift loop
    # reads M(z) from its report, so only the shifted triple is solved again
    calls = solved_points(monkeypatch)
    assert st.suite_boundary(1, seed).ok
    assert Counter(calls) == Counter(2 * bnd.DEFAULT_GRID)


def test_custom_policy_reaches_every_rank_cut(monkeypatch):
    custom = TolerancePolicy(rank_rel=2e-10, rank_abs=2e-12, angle_tol=2e-8)
    seen = []
    rank_cut = TolerancePolicy.rank_cut

    def recording(self, largest_sv):
        seen.append(self)
        return rank_cut(self, largest_sv)

    rank_calls = []
    matrix_rank = np.linalg.matrix_rank

    def recording_rank(a, *args, **kwargs):
        rank_calls.append((args, kwargs))
        return matrix_rank(a, *args, **kwargs)

    # every identity residual is decided by the policy too; only
    # gen_standard_unitary, which takes no policy, draws under the default
    identity_calls = []
    negligible = TolerancePolicy.negligible

    def recording_negligible(self, residual, scale):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "gen_standard_unitary":
            frame = frame.f_back
        identity_calls.append((self, frame is not None))
        return negligible(self, residual, scale)

    monkeypatch.setattr(TolerancePolicy, "rank_cut", recording)
    monkeypatch.setattr(TolerancePolicy, "negligible", recording_negligible)
    monkeypatch.setattr(np.linalg, "matrix_rank", recording_rank)
    st.run_suites("all", 3, 11, custom)
    assert seen
    assert DEFAULT_TOL not in seen
    # matrix ranks are decided relative to the largest singular value, by
    # the policy's rank_rel, never by numpy's own cut
    assert rank_calls
    bypasses = [call for call in rank_calls if call != ((), {"rtol": custom.rank_rel})]
    assert not bypasses, f"{len(bypasses)} of {len(rank_calls)} ranks bypass the policy"
    assert identity_calls
    strays = [tol for tol, drawing in identity_calls if not drawing and tol != custom]
    assert not strays, f"{len(strays)} of {len(identity_calls)} identities bypass the policy"


def _green_off(tol):
    # ex4 with Gamma's first row scaled by 1 + 1e-6
    with open(os.path.join(os.path.dirname(kio.__file__), "data", "ex4.json")) as fh:
        doc = json.load(fh)
    gamma = kio.decode_matrix(doc["triple"]["gamma"])
    gamma[0] *= 1 + 1e-6
    doc["triple"]["gamma"] = kio.encode_matrix(gamma)
    kio.load_document(doc, tol)


def _pair(tol):
    t = gen.gen_symmetric(gen.InstanceSpec(31, 4, (2, 2), 2))
    return t, gen.gen_triple(t, 32, tol), gen.gen_triple(t, 33, tol)


def _transform_off(tol):
    _, tri, _ = _pair(tol)
    bnd.transform(tri, np.eye(2 * tri.boundary_dim) * (1 + 1e-6))


def _planting_off(tol):
    t, tri, _ = _pair(tol)
    gen.planted_similar_triple(tri, gen.gen_standard_unitary(1, t.src, t.src) * (1 + 1e-6),
                               t.src)


def _theta_off(tol):
    t, tri_a, tri_b = _pair(tol)
    theta = np.array([[1, 2j], [-2j, 3]]) + 1e-6 * np.array([[0, 1], [-1, 0]])
    sim.build_standard_V(tri_a, tri_b, np.eye(t.dim), theta)


def _neutrality_off(tol):
    space = kr.make_krein(np.diag([1.0, -1.0]))
    if not krein.neutrality_rank(space, sub.span(np.array([[1, 1 + 1e-6]]).T), tol)["neutral"]:
        raise ValueError("not neutral")


@pytest.mark.parametrize("plant, error", [
    (_green_off, "Green identity violated"),
    (_transform_off, "not boundary-unitary"),
    (_planting_off, "not standard unitary"),
    (_theta_off, "Theta is not self-adjoint"),
    (_neutrality_off, "not neutral"),
], ids=["green", "transform", "planted-unitary", "theta", "neutrality"])
def test_identity_cut_follows_the_policy(plant, error):
    # a relative residual near 1e-6 fails the default cut and passes a 1e-4 one
    with pytest.raises(ValueError, match=error):
        plant(DEFAULT_TOL)
    plant(TolerancePolicy(angle_tol=1e-4))
