"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every tolerance is pinned here, none deferred.
"""

import time

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, extensions as ext, generators as gen, \
    relations as rel, similarity as sim, subspaces as sub, suites as st

from conftest import c4_weyl_matrix
from oracles import v0_operator_part_by_relation

MASTER_SEED = 20240811


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def _corpus(count, max_dim=8, require_p=False, seed_base=0):
    rng = gen.rng_for(MASTER_SEED, 90, seed_base)
    out = []
    for k in range(count):
        n = int(rng.integers(2, max_dim + 1))
        p = int(rng.integers(0, n + 1))
        d = int(rng.integers(1, n))
        out.append(gen.InstanceSpec(MASTER_SEED + seed_base * 100000 + k, n,
                                    (p, n - p), d, require_property_p=require_p))
    return out


def test_criterion_1_c4_golden(c4):
    start = time.perf_counter()
    space, t, tri = c4["space"], c4["T"], c4["triple"]
    worst = 0.0

    tplus_golden = np.zeros((8, 7), dtype=complex)
    for k in range(7):
        tplus_golden[k, k] = 1
    tplus_golden[7, 2] = 1
    worst = max(worst, sub.distance(tri.tplus.graph, sub.span(tplus_golden)))

    for z in (1j, 1 + 2j):
        nz = rel.eigenspace(tri.tplus, z)
        worst = max(worst, sub.distance(
            nz, sub.span(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, z, 1]]).T)))

    t0_golden = sub.span(np.array([[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]]).T)
    t1_golden = sub.span(np.array([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                                  [0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]]).T)
    n_golden = sub.span(np.array([[0, 0, 1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0],
                                 [0, 0, 0, 0, 0, 0, 1, 0]]).T)
    jn_golden = sub.span(np.array([[1, 0, 0, 0, 0, -1, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                                  [0, 0, 0, 1, 0, 0, 0, 0]]).T)
    worst = max(worst, sub.distance(tri.t0.graph, t0_golden))
    worst = max(worst, sub.distance(tri.t1.graph, t1_golden))
    worst = max(worst, sub.distance(tri.n_rel.graph, n_golden))
    worst = max(worst, sub.distance(sub.span(tri.fjn), jn_golden))

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
    worst = max(worst, float(np.abs(tri.g0inv - g0inv_golden).max()))
    worst = max(worst, float(np.abs(tri.g1inv - g1inv_golden).max()))
    beta_norm = float(np.abs(tri.beta).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and beta_norm < 1e-12 and elapsed < 1.0
    _line(1, ok, f"golden distance {worst:.2e}, |beta| {beta_norm:.2e}, "
                 f"{elapsed * 1000:.0f} ms")


@pytest.fixture(scope="module")
def roundtrip_corpus():
    specs = _corpus(200, max_dim=8, seed_base=1)
    out = []
    for spec in specs:
        t = gen.gen_symmetric(spec)
        w = gen.sample_witness(t, spec.seed + 1)
        out.append((spec, t, w))
    return out


def test_criterion_2_roundtrip(roundtrip_corpus):
    start = time.perf_counter()
    worst = 0.0
    for spec, t, w in roundtrip_corpus:
        t0 = ext.extend(t, w.N)
        back = ext.reduce(t, t0)
        worst = max(worst, sub.distance(t0.graph, w.t0.graph))
        worst = max(worst, sub.distance(back.graph, w.N.graph))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _line(2, ok, f"200 roundtrips, worst distance {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_prop_n(roundtrip_corpus):
    worst = 0.0
    failures = 0
    for spec, t, w in roundtrip_corpus:
        report = ext.prop_n_audit(t, w.N)
        if not (report["counts_ok"] and report["adjoint_splits"]
                and report["sigma_split"] and report["sigma_is_j_mhat"]):
            failures += 1
        worst = max(worst, max(report["dom_formula_distances"].values()))
    ok = failures == 0 and worst < 1e-8
    _line(3, ok, f"200 audits, {failures} failures, worst dom-N distance {worst:.2e}")


def test_criterion_4_green_weyl():
    specs = _corpus(50, max_dim=6, seed_base=2)
    green_worst = 0.0
    ju_worst = 0.0
    beta_worst = 0.0
    evaluated = 0
    for spec in specs:
        t = gen.gen_symmetric(spec)
        tri = gen.gen_triple(t, spec.seed + 13)
        green_worst = max(green_worst,
                          bnd.green_residual(t.src, tri.basis, tri.gamma))
        ju_worst = max(ju_worst,
                       bnd.resolvent_identities_check(tri)["max_symmetry"])
        shifted = bnd.beta_shift(tri)
        for z in bnd.DEFAULT_GRID:
            m = bnd.weyl(tri, complex(z)).operator_form
            mb = bnd.weyl(shifted, complex(z)).operator_form
            if m is None or mb is None:
                continue
            beta_worst = max(beta_worst, float(np.abs(mb - (m - tri.beta)).max()))
            evaluated += 1
    ok = green_worst < 1e-10 and ju_worst < 1e-8 and beta_worst < 1e-8 and evaluated
    _line(4, ok, f"green {green_worst:.2e}, weyl-symmetry {ju_worst:.2e}, "
                 f"beta-shift {beta_worst:.2e} over {evaluated} points")


def test_criterion_5_lemma_vos():
    rng = gen.rng_for(MASTER_SEED, 91)
    part_worst = gram_worst = llp_worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(0, n + 1))
        d = int(rng.integers(1, n))
        t = gen.gen_symmetric(gen.InstanceSpec(MASTER_SEED + 300000 + k, n,
                                               (p, n - p), d))
        tri_a = gen.gen_triple(t, MASTER_SEED + 400000 + k)
        if k % 2:
            # shared boundary space only: an unrelated relation in another
            # Krein space with the same defect number
            n2 = int(rng.integers(d + 1, d + 4))
            p2 = int(rng.integers(0, n2 + 1))
            t2 = gen.gen_symmetric(gen.InstanceSpec(MASTER_SEED + 550000 + k, n2,
                                                    (p2, n2 - p2), d))
            tri_b = gen.gen_triple(t2, MASTER_SEED + 560000 + k)
        else:
            tri_b = gen.gen_triple(t, MASTER_SEED + 500000 + k)
        # the inverse-boundary formula against the canonical operator part of V0
        vs = sim.v0_operator_part(tri_a, tri_b)
        canon = v0_operator_part_by_relation(tri_a, tri_b)
        frame = tri_a.tplus.graph.frame
        part_worst = max(part_worst, float(np.abs((vs - canon) @ frame).max()))
        sc = sim.sigma_unitary_check(tri_a, tri_b)
        gram_worst = max(gram_worst, sc["gram_residual"])
        wm = sim.w_maps(tri_a, tri_b)
        llp_worst = max(llp_worst, wm["llp_residual"], wm["inverse_residual"])
    ok = part_worst < 1e-9 and gram_worst < 1e-9 and llp_worst < 1e-9
    _line(5, ok, f"100 pairs: operator-part {part_worst:.2e}, "
                 f"sigma-gram {gram_worst:.2e}, w-law {llp_worst:.2e}")


def test_criterion_6_lemma_wl():
    rng = gen.rng_for(MASTER_SEED, 92)
    disagreements = 0
    points = 0
    for k in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(0, n + 1))
        d = int(rng.integers(1, n))
        seed = MASTER_SEED + 600000 + k
        t = gen.gen_symmetric(gen.InstanceSpec(seed, n, (p, n - p), d))
        tri_a = gen.gen_triple(t, seed + 1)
        if k % 4 == 1:
            # different carrier space of the same dimension and defect
            p2 = int(rng.integers(0, n + 1))
            t2 = gen.gen_symmetric(gen.InstanceSpec(seed + 9, n, (p2, n - p2), d))
            tri_b = gen.gen_triple(t2, seed + 2)
            tau = gen.random_unitary(gen.rng_for(seed, 5), t.dim)
            v = sim.build_standard_V(tri_a, tri_b, tau)
        elif k % 2:
            tri_b = gen.gen_triple(t, seed + 2)
            tau = gen.random_unitary(gen.rng_for(seed, 5), t.dim)
            v = sim.build_standard_V(tri_a, tri_b, tau)
        else:
            u = gen.gen_standard_unitary(seed + 3, t.src, t.src)
            tri_b = gen.planted_similar_triple(tri_a, u, t.src)
            v = sim._utilde(u)
        for z in bnd.DEFAULT_GRID:
            res = sim.weyl_equality_criterion(tri_a, tri_b, v, complex(z))
            if res.hypotheses_ok:
                points += 1
                if not res.diagnostics["agree"]:
                    disagreements += 1
    ok = disagreements == 0 and points > 500
    _line(6, ok, f"{points} hypothesis-valid grid evaluations, "
                 f"{disagreements} route disagreements")


def test_criterion_7_reconstruction(c4):
    rng = gen.rng_for(MASTER_SEED, 93)
    worst_gamma = worst_offdiag = 0.0
    failures = []
    plants = 0
    for k in range(50):
        seed = MASTER_SEED + 700000 + k
        if k % 10 == 0:
            tri = c4["triple"]
            space = c4["space"]
        else:
            n = int(rng.integers(3, 6))
            p = int(rng.integers(0, n + 1))
            d = int(rng.integers(1, n))
            t = gen.gen_symmetric(gen.InstanceSpec(seed, n, (p, n - p), d,
                                                   require_simple=True))
            tri = gen.gen_triple(t, seed + 1)
            space = t.src
        if k % 3 == 1:
            # carry the triple into a different Krein space of equal signature
            target = gen.random_space(seed + 5, *space.signature)
        else:
            target = space
        u = gen.gen_standard_unitary(seed + 2, space, target)
        planted = gen.planted_similar_triple(tri, u, target)
        out = sim.reconstruct_similarity(tri, planted)
        plants += 1
        if out["status"] != "unitary":
            failures.append((k, out.get("reason", out["status"])))
            continue
        worst_gamma = max(worst_gamma, out["gamma_residual"])
        worst_offdiag = max(worst_offdiag, out["w_offdiag"])
    neg_ok = True
    for kappa in (2.0, 3.0):
        out = sim.reconstruct_similarity(c4["triple"],
                                         gen.scaled_triple(c4["triple"], kappa))
        if out["status"] != "witness" or out["discrepancy"] <= 1e-3:
            neg_ok = False
    ok = (not failures and worst_gamma < 1e-7 and worst_offdiag < 1e-8 and neg_ok
          and plants == 50)
    _line(7, ok, f"50 plants: worst boundary residual {worst_gamma:.2e}, "
                 f"worst W off-diagonal {worst_offdiag:.2e}, "
                 f"{len(failures)} failures, negative controls "
                 f"{'ok' if neg_ok else 'FAILED'}")


def test_criterion_8_theorem_ex_os():
    rng = gen.rng_for(MASTER_SEED, 94)
    failures = 0
    for k in range(100):
        seed = MASTER_SEED + 800000 + k
        n = int(rng.integers(3, 7))
        p = int(rng.integers(0, n + 1))
        # property (P) needs dom T + ran T to fill H, hence defect <= n/2
        d = int(rng.integers(1, n // 2 + 1))
        t = gen.gen_symmetric(gen.InstanceSpec(seed, n, (p, n - p), d,
                                               require_property_p=True))
        witnesses = [gen.sample_witness(t, seed + j) for j in (1, 2, 3)]
        ex_report = ext.theorem_ex_check(t, witnesses, bnd.DEFAULT_GRID)
        if not ex_report["ok"]:
            failures += 1
            continue
        for w in witnesses:
            if not ext.lemma_os_check(t, w, bnd.DEFAULT_GRID)["ok"]:
                failures += 1
                break
    _line(8, failures == 0, f"100 property-(P) instances, {failures} failures")


def test_criterion_9_appendix_suites():
    start = time.perf_counter()
    reports = st.run_suites("all", 200, MASTER_SEED)
    elapsed = time.perf_counter() - start
    appendix = [r for r in reports if r.suite in ("eqgh", "lemma_o", "sfn", "p3")]
    counterexamples = sum(len(r.failures) for r in appendix)
    max_res = max(r.max_residual for r in reports)
    ok = (counterexamples == 0 and max_res < 1e-8 and elapsed < 300.0
          and all(r.ok for r in reports))
    _line(9, ok, f"appendix 4x200 trials, {counterexamples} counterexamples, "
                 f"full verify(all) max residual {max_res:.2e} in {elapsed:.1f} s")
