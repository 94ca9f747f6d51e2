"""Randomized verification suites with deterministic, seed-splittable reports.

Each suite constructs instances satisfying the hypotheses of one result,
evaluates both sides of every displayed identity by independent subspace
computations, and records residuals; a surviving counterexample is a
build failure, not a statistic.

Each suite is written as one trial, `trial(report, k, tseed, tol)`, and
`_suite` runs it `trials` times: trial k gets its own seed `tseed`,
derived from the master seed and k, so any trial can be replayed alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bnd
from . import extensions as ext
from . import generators as gen
from . import relations as rel
from . import similarity as sim
from . import subspaces as sub
from .krein import KreinSpace, hilbert_space
from .relations import LinearRelation
from .tolerances import DEFAULT_TOL, TolerancePolicy

RESIDUAL_BUDGET = 1e-8


@dataclass
class Report:
    suite: str
    trials: int
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    skipped: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and self.max_residual < RESIDUAL_BUDGET

    def record(self, residual: float):
        """Keep the largest residual; a NaN one sticks and fails the report."""
        self.max_residual = float(np.maximum(self.max_residual, residual))

    def fail(self, seed: int, what: str, **data):
        self.failures.append({"seed": seed, "what": what,
                              **{k: _plain(v) for k, v in data.items()}})

    def to_dict(self) -> dict:
        return {"suite": self.suite, "trials": self.trials, "ok": self.ok,
                "max_residual": self.max_residual, "skipped": self.skipped,
                "elapsed": round(self.elapsed, 3), "failures": self.failures}


def _plain(v):
    if isinstance(v, np.generic):  # numpy scalars, np.bool_ among them
        v = v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _suite(name: str):
    """Make `trial(report, k, tseed, tol)` the suite `(trials, seed, tol) -> Report`."""
    def runner(trial):
        def suite(trials: int, seed: int, tol: TolerancePolicy = DEFAULT_TOL) -> Report:
            report = Report(name, trials)
            start = time.perf_counter()
            for k in range(trials):
                trial(report, k, seed * 1000003 + k, tol)
            report.elapsed = time.perf_counter() - start
            return report
        suite.__name__ = suite.__qualname__ = trial.__name__
        suite.__doc__ = trial.__doc__
        return suite
    return runner


def _trial_dims(rng: np.random.Generator) -> tuple[int, int, int]:
    n = int(rng.integers(2, 7))
    p = int(rng.integers(0, n + 1))
    d = int(rng.integers(1, n))
    return n, p, d


def _draw_t(seed: int, tol: TolerancePolicy) -> LinearRelation:
    n, p, d = _trial_dims(gen.rng_for(seed, 10))
    return gen.gen_symmetric(gen.InstanceSpec(seed, n, (p, n - p), d), tol=tol)


# ---------------------------------------------------------------------------
# appendix suites


def _random_relation(rng, space: KreinSpace, graph_dim: int,
                     tol: TolerancePolicy) -> LinearRelation:
    cols = gen.random_complex(rng, 2 * space.dim, graph_dim)
    return LinearRelation(space, space, sub.span(cols, tol))


@_suite("eqgh")
def suite_eqgh(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Range inclusions/equalities for H inside G+ ∩ G-perp."""
    rng = gen.rng_for(tseed, 20)
    n, p, d = _trial_dims(rng)
    space = gen.random_space(tseed, p, n - p)

    # (a): dom G ⊥ dom H, H ⊆ G+ ∩ G-perp.  A cramped domain keeps the
    # candidate pool nonempty, retrying a few draws when it collapses.
    pool = None
    for graph_dim in range(max(1, n // 2), 0, -1):
        dom_cage = sub.span(gen.random_complex(rng, n, max(1, n - 2)), tol)
        g = LinearRelation(space, space, sub.intersect(
            sub.span(gen.random_complex(rng, 2 * n, graph_dim + 2), tol),
            sub.product(dom_cage, sub.full(n)), tol))
        if g.dim == 0:
            continue
        gplus = rel.adjoint(g, "krein")
        dom_g = rel.parts(g, tol).dom
        cage = sub.product(sub.complement(dom_g), sub.full(n))
        pool = sub.intersect(sub._meet_complement(gplus.graph, g.graph, tol), cage, tol)
        if pool.dim:
            break
    if pool is not None and pool.dim:
        keep = int(rng.integers(1, pool.dim + 1))
        h = LinearRelation(space, space, sub.span(
            pool.frame @ gen.random_complex(rng, pool.dim, keep), tol))
        eh, dh = rel.hilbertize(h).blocks()
        for z in (0.7 - 0.3j, 1j, 2.0):
            ran_shift = sub.span(dh + z * eh, tol)
            if not sub.contains(ext.defect_subspace(g, z, tol), ran_shift, tol):
                report.fail(tseed, "inclusion (a) fails", z=z)
    else:
        report.skipped += 1

    # (b): hyper-maximal case gives equalities at both ±i, a strictly
    # smaller neutral sum gives strict inclusions.
    spec = gen.InstanceSpec(tseed, n, (p, n - p), d)
    t = gen.gen_symmetric(spec, tol=tol)
    w = gen.sample_witness(t, tseed, tol)
    en, dn = rel.hilbertize(w.N).blocks()
    for z in (1j, -1j):
        ran_shift = sub.span(dn + z * en, tol)
        if not sub.equal(ran_shift, ext.defect_subspace(t, z, tol), tol):
            report.fail(tseed, "hyper-maximal equality (b)(ii) fails", z=z)
    if t.dim >= 2:
        split = t.dim // 2
        g2 = LinearRelation(space, space, sub._trusted(t.graph.frame[:, :split]))
        h2 = LinearRelation(space, space, sub._trusted(t.graph.frame[:, split:]))
        eh2, dh2 = rel.hilbertize(h2).blocks()
        equal_everywhere = True
        for z in (1j, -1j):
            ran_shift = sub.span(dh2 + z * eh2, tol)
            target = ext.defect_subspace(g2, z, tol)
            if not sub.contains(target, ran_shift, tol):
                report.fail(tseed, "neutral inclusion (b)(i) fails", z=z)
            if not sub.equal(ran_shift, target, tol):
                equal_everywhere = False
        if equal_everywhere:
            report.fail(tseed, "non-maximal sum reached equality (b)(ii) converse)")


@_suite("lemma_o")
def suite_o(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Eigenspace formula for componentwise sums and the point-spectrum split."""
    rng = gen.rng_for(tseed, 21)
    n, p, _ = _trial_dims(rng)
    space = gen.random_space(tseed, p, n - p)
    g = _random_relation(rng, space, int(rng.integers(1, n + 1)), tol)
    h_free = _random_relation(rng, space, int(rng.integers(1, n + 1)), tol)
    zs = [complex(z) for z in (0.4 + 0.2j, 1j, 1.5, 0.0)]
    for h, orthogonal in ((h_free, False), (_orth_complement_relation(g, rng, tol), True)):
        gh, _ = rel.cw_sum(g, h, tol)
        for z in zs:
            lhs = rel.eigenspace(gh, z, tol)
            rhs = _lemma_o_range(g, h, z, tol)
            if not sub.equal(lhs, rhs, tol):
                report.fail(tseed, "eigenspace formula fails", z=z,
                            orthogonal=orthogonal)
            naive = sub.sum_(rel.eigenspace(g, z, tol), rel.eigenspace(h, z, tol), tol)
            if not sub.contains(lhs, naive, tol):
                report.fail(tseed, "naive inclusion fails", z=z)
            in_o = ext.O_membership(g, h, z, tol)
            if in_o and not sub.equal(lhs, naive, tol):
                report.fail(tseed, "equality on O fails", z=z)
            if orthogonal:
                point = lhs.dim > 0
                split = not in_o or (rel.spectral_probe(g, z, tol)["eigenvalue"]
                                     or rel.spectral_probe(h, z, tol)["eigenvalue"])
                if point != split:
                    report.fail(tseed, "point-spectrum split fails", z=z)


def _orth_complement_relation(g: LinearRelation, rng, tol) -> LinearRelation:
    pool = sub.complement(g.graph)
    if pool.dim == 0:
        return rel.zero_relation(g.src, g.tgt)
    cols = pool.frame @ gen.random_complex(rng, pool.dim, int(rng.integers(1, pool.dim + 1)))
    return LinearRelation(g.src, g.tgt, sub.span(cols, tol))


def _lemma_o_range(g: LinearRelation, h: LinearRelation, z: complex,
                   tol: TolerancePolicy) -> sub.Subspace:
    """ran((G - z)^{-1}(zI - H) + I) through explicit relation algebra."""
    gz_inv = rel.inverse(rel.shift(g, z))
    eh, dh = h.blocks()
    zh = LinearRelation(h.src, h.tgt, sub._injective_span(np.vstack([eh, z * eh - dh])))
    comp = rel.compose(gz_inv, zh, tol)
    plus_i = rel.op_sum(comp, rel.identity_relation(g.src), tol)
    return rel.parts(plus_i, tol).ran


@_suite("sfn")
def suite_sfn(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Defect disjointness iff dom + ran dense, plus a planted counterexample."""
    rng = gen.rng_for(tseed, 22)
    n, p, _ = _trial_dims(rng)
    space = gen.random_space(tseed, p, n - p)
    g = _random_relation(rng, space, int(rng.integers(1, n + 1)), tol)
    parts_g = rel.parts(g, tol)
    dense = sub.sum_(parts_g.dom, parts_g.ran, tol).dim == n
    gplus = rel.adjoint(g, "krein")
    pairs = [(0.3 + 1j, -0.7 + 0.2j), (1j, -1j), (2.0, 0.5)]
    disjoint = all(
        sub.intersect(rel.eigenspace(gplus, z1, tol),
                      rel.eigenspace(gplus, z2, tol), tol).dim == 0
        for z1, z2 in pairs)
    if dense != disjoint:
        report.fail(tseed, "equivalence fails", dense=dense, disjoint=disjoint)

    # planted deficiency: confine the graph so a vector escapes dom+ran
    u = gen.random_complex(rng, n, 1)
    u /= np.linalg.norm(u)
    cage = sub.complement(sub.span(u, tol))
    small = sub.intersect(g.graph, sub.product(cage, cage), tol)
    g_small = LinearRelation(space, space, small)
    gsp = rel.adjoint(g_small, "krein")
    common = sub.intersect(rel.eigenspace(gsp, 0.3 + 1j, tol),
                           rel.eigenspace(gsp, -0.7 + 0.2j, tol), tol)
    if common.dim == 0:
        report.fail(tseed, "planted counterexample stayed disjoint")


@_suite("p3")
def suite_p3(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Finite-dimensional content of the denseness lemma for symmetric operators.

    Checks (i) densely defined implies property (P) and an adjoint with
    trivial multivalued part, and conversely; (ii) property (P) is
    equivalent to trivial ker T* ∩ mul T*, the mechanism the proof runs
    on.  The literal converse (P) => densely defined is false already in
    C^2 and is recorded as a skip, not a failure.
    """
    rng = gen.rng_for(tseed, 23)
    n = int(rng.integers(2, 7))
    space = hilbert_space(n)
    d = int(rng.integers(1, n))
    spec = gen.InstanceSpec(tseed, n, (n, 0), d)
    t = gen.gen_symmetric(spec, space=space, tol=tol)
    if not rel.is_operator(t, tol):
        report.skipped += 1
        return
    parts_t = rel.parts(t, tol)
    densely = parts_t.dom.dim == n
    prop_p = sub.sum_(parts_t.dom, parts_t.ran, tol).dim == n
    tstar = rel.adjoint(t, "hilbert")
    parts_star = rel.parts(tstar, tol)
    star_operator = parts_star.mul.dim == 0
    mechanism = sub.intersect(parts_star.ker, parts_star.mul, tol).dim == 0
    if densely != star_operator:
        report.fail(tseed, "dense <=> adjoint operator fails")
    if densely and not prop_p:
        report.fail(tseed, "dense without property (P)")
    if prop_p != mechanism:
        report.fail(tseed, "(P) <=> trivial ker∩mul fails")


# ---------------------------------------------------------------------------
# module-level suites


@_suite("extensions")
def suite_extensions(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Roundtrip of the extension correspondence plus the full witness audit."""
    t = _draw_t(tseed, tol)
    w = gen.sample_witness(t, tseed, tol)
    t0 = ext.extend(t, w.N, tol)
    report.record(sub.distance(t0.graph, w.t0.graph))
    n_back = ext.reduce(t, t0, tol)
    report.record(sub.distance(n_back.graph, w.N.graph))
    audit = ext.prop_n_audit(t, w.N, tol)
    if not audit["ok"]:
        report.fail(tseed, "proposition audit fails", audit=str(audit))
    for v in audit["dom_formula_distances"].values():
        report.record(v)


@_suite("boundary")
def suite_boundary(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Green residuals and the kernel theorem for a triple and its shift by a
    drawn Hermitian b (a generated triple has beta = 0, so its own shift is
    itself), the shift law M_b(z) = M(z) - b, Weyl symmetry and the resolvent
    identities."""
    t = _draw_t(tseed, tol)
    triple = gen.gen_triple(t, tseed, tol)
    b = gen.random_complex(gen.rng_for(tseed, 31), triple.boundary_dim, triple.boundary_dim)
    b = (b + b.conj().T) / 2
    shifted = bnd.beta_shift(triple, b)
    for label, tri in (("", triple), ("beta-shifted triple: ", shifted)):
        report.record(bnd.green_residual(t.src, tri.basis, tri.gamma))
        for name, tk in (("ker Gamma0", tri.t0), ("ker Gamma1", tri.t1)):
            if not rel.is_selfadjoint(tk, tol):
                report.fail(tseed, f"{label}{name} is not self-adjoint")
        if not sub.equal(sub.intersect(tri.t0.graph, tri.t1.graph, tol), t.graph, tol):
            report.fail(tseed, f"{label}ker Gamma0 and ker Gamma1 do not meet in T")
        if tri.t0.dim + tri.t1.dim - t.dim != tri.tplus.dim:
            report.fail(tseed, f"{label}ker Gamma0 and ker Gamma1 do not span T+")
    res = bnd.resolvent_identities_check(triple, bnd.DEFAULT_GRID)
    for key in ("max_symmetry", "max_gamma_diff", "max_pairing", "max_krein_naimark"):
        report.record(res[key])
    for value, shift in zip(res["weyl"].values(), bnd.weyl(shifted, list(res["weyl"]))):
        if value.operator_form is None or shift.operator_form is None:
            continue
        report.record(np.abs(shift.operator_form - (value.operator_form - b)).max())
    flags = bnd.pair_isometry_check(bnd.pair_from_triple(triple))
    if not flags["unitary"]:
        report.fail(tseed, "validated triple is not a unitary pair")


@_suite("similarity")
def suite_similarity(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """Operator-part agreement, Sigma-unitarity, w-map laws and the
    planted-similarity reconstruction."""
    rng = gen.rng_for(tseed, 30)
    n = int(rng.integers(2, 5))
    p = int(rng.integers(0, n + 1))
    d = int(rng.integers(1, n))
    spec = gen.InstanceSpec(tseed, n, (p, n - p), d)
    t = gen.gen_symmetric(spec, tol=tol)
    triple_a = gen.gen_triple(t, tseed, tol)
    if k % 3 == 2:
        # cross-space pair sharing only the boundary dimension
        n2 = int(rng.integers(d + 1, d + 4))
        p2 = int(rng.integers(0, n2 + 1))
        t2 = gen.gen_symmetric(gen.InstanceSpec(tseed + 5, n2, (p2, n2 - p2), d),
                               tol=tol)
        triple_b = gen.gen_triple(t2, tseed + 7, tol)
    else:
        triple_b = gen.gen_triple(t, tseed + 7, tol)
    sc = sim.sigma_unitary_check(triple_a, triple_b)
    report.record(sc["gram_residual"])
    report.record(sc["inverse_residual"])
    if not sc["ok"]:
        report.fail(tseed, "(V0)_s is not unitary between the Sigma subspaces")
    wm = sim.w_maps(triple_a, triple_b)
    report.record(wm["inverse_residual"])
    report.record(wm["llp_residual"])
    if not wm["ok"]:
        report.fail(tseed, "w-map laws fail")

    u = gen.gen_standard_unitary(tseed, t.src, t.src)
    planted = gen.planted_similar_triple(triple_a, u, t.src)
    out = sim.reconstruct_similarity(triple_a, planted, bnd.DEFAULT_GRID)
    if out["status"] != "unitary":
        report.fail(tseed, "planted reconstruction failed", status=out["status"],
                    reason=out.get("reason", ""))
    else:
        report.record(out["gamma_residual"])
        report.record(out["w_offdiag"])
    scaled = gen.scaled_triple(triple_a, 2.0)
    neg = sim.reconstruct_similarity(triple_a, scaled, bnd.DEFAULT_GRID)
    if neg["status"] != "witness":
        report.fail(tseed, "scaled triple not rejected", status=neg["status"])


@_suite("laws")
def suite_laws(report: Report, k: int, tseed: int, tol: TolerancePolicy):
    """The boundary-triple laws (the k-shift equivalence; Gamma^{-1}(Theta) by
    its displayed formula, self-adjoint iff Theta is), Theorem l's
    tau-construction, lemma E's range criterion on the standard V built from
    the same tau, W-invariance of the reconstructed V at one grid point
    and lemma ExN; each law is decided under the policy by a flag or an
    angle rule, and no raw residual is recorded.  Lemma ExN runs only on
    draws with property (P), its hypothesis; a draw without it counts as
    skipped."""
    t = _draw_t(tseed, tol)
    triple = gen.gen_triple(t, tseed, tol)
    rng = gen.rng_for(tseed, 40)
    d = triple.boundary_dim
    b, h = (gen.random_complex(rng, d, d) for _ in range(2))
    b, h = (b + b.conj().T) / 2, (h + h.conj().T) / 2
    # A generated triple has beta = 0, so it is shifted by a drawn Hermitian b:
    # K = b exists and Gamma1 is kept on N.  Rescaling breaks both.
    for label, other, holds in (("beta-shifted", bnd.beta_shift(triple, b), True),
                                ("rescaled", gen.scaled_triple(triple, 2.0), False)):
        ks = bnd.k_shift_equivalence(triple, other)
        if not ks["equivalent"] or ks["exists_k"] != holds:
            report.fail(tseed, f"k-shift equivalence fails for the {label} triple",
                        exists_k=ks["exists_k"], agrees_on_n=ks["agrees_on_n"])

    lspace = triple.boundary_space
    for theta, hermitian in ((h, True), (h + 1j * np.eye(d), False)):
        t_theta = bnd.t_theta(triple, rel.from_operator(theta, lspace, lspace))
        if rel.is_selfadjoint(t_theta, tol) != hermitian:
            report.fail(tseed, "Gamma^-1(Theta) is self-adjoint iff Theta is fails",
                        hermitian=hermitian)
        # Gamma^{-1}(Theta) = T + ran(Gamma0^{-1} + Gamma1^{-1}(Theta - beta)), whose lift
        # Gamma0 maps to I (Gamma1^{-1} lands in N ⊆ ker Gamma0), so it takes one QR
        lift = triple.g0inv + triple.g1inv @ (theta - triple.beta)
        if not sub.equal(t_theta.graph, sub.sum_(t.graph, sub._injective_span(lift), tol), tol):
            report.fail(tseed, "Gamma^-1(Theta) misses its displayed formula", hermitian=hermitian)

    other = gen.gen_triple(t, tseed + 7, tol)
    tau = gen.random_unitary(rng, t.dim)
    if not sim.membership_check(sim.build_V_from_tau(triple, other, tau), triple, other)["member"]:
        report.fail(tseed, "the tau-construction misses Gamma' = Gamma V^-1")
    check = sim.membership_check(sim.build_standard_V(triple, other, tau), triple, other)
    if not (check["member"] and check["lemma_e"] and check["routes_agree"]):
        report.fail(tseed, "lemma E's range criterion misses the standard V from tau",
                    member=check["member"], lemma_e=check["lemma_e"])

    u = gen.gen_standard_unitary(tseed, t.src, t.src)
    planted = gen.planted_similar_triple(triple, u, t.src)
    out = sim.reconstruct_similarity(triple, planted, bnd.DEFAULT_GRID)
    if out["status"] != "unitary":
        report.fail(tseed, "planted reconstruction failed", status=out["status"],
                    reason=out.get("reason", ""))
    else:
        z = bnd.DEFAULT_GRID[k % len(bnd.DEFAULT_GRID)]
        if not sim.w_invariance_audit(triple, planted, out["U"], [out["V"]], (z,))["ok"]:
            report.fail(tseed, "W = U~^-1 V does not fix T and the defect graph", z=z)

    if not ext.has_property_p(t, tol):
        report.skipped += 1
    elif not ext.lemma_exn_check(t, triple.n_rel, bnd.DEFAULT_GRID, tol)["ok"]:
        report.fail(tseed, "N of a property-(P) draw is not an operator without eigenvalues")


# CLI name -> suites it runs; "all" runs every entry in this order.
SUITES = {
    "appendix": (suite_eqgh, suite_o, suite_sfn, suite_p3),
    "extensions": (suite_extensions,),
    "boundary": (suite_boundary,),
    "similarity": (suite_similarity,),
    "laws": (suite_laws,),
}


def run_suites(which: str, trials: int, seed: int,
               tol: TolerancePolicy = DEFAULT_TOL) -> list[Report]:
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    names = SUITES if which == "all" else (which,)
    return [suite(trials, seed, tol) for name in names for suite in SUITES[name]]
