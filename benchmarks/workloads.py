"""The three benchmark workloads.

Each workload is a closed loop of ops issued one at a time by one process.
`__init__` is the set-up (input generation from the workload seed),
`warm_up` runs the code paths once on inputs the timed ops never use,
`op(i)` runs op number i and returns its raw result (this is the timed
part), `gate(i, result)` turns that result into (ok, verdict) outside the
timing, and `check()` runs the correctness checks that need the whole timed
phase and returns the indices of the ops they fail.  The op schedule repeats every `period` ops, so a
prefix of whole periods always has the same mix.
"""

from __future__ import annotations

import json

import numpy as np

from kreinrel import boundary as bnd
from kreinrel import extensions as ext
from kreinrel import generators as gen
from kreinrel import io as kio
from kreinrel import relations as rel
from kreinrel import similarity as sim
from kreinrel import suites as st

# The suites' residual budget, applied to the weyl-grid identities.
BUDGET = st.RESIDUAL_BUDGET
# Warm-up inputs do not depend on the workload seed, so set-up time varies
# with the seed only through the timed phase's inputs.  The workload seeds
# in use are small integers, and derived_seed keeps the streams apart.
WARM_SEED = 2**31 - 1


def derived_seed(seed: int, stream: int, k: int) -> int:
    """Independent integer seed for item k of a stream under the workload seed."""
    return int(np.random.SeedSequence((seed, stream, k)).generate_state(1)[0])


class VerifyDesk:
    """One op is one trial (trials=1) of one suite, round-robin over the seven
    suites of `kreinrel verify --suite all`, at desk scale (n <= 6)."""

    name = "verify-desk"
    suites = (st.suite_eqgh, st.suite_o, st.suite_sfn, st.suite_p3,
              st.suite_extensions, st.suite_boundary, st.suite_similarity)
    period = len(suites)
    digest_ops = 20 * period
    traced_functions = (
        "subspaces.span", "subspaces.kernel", "subspaces.intersect", "subspaces.contains",
        "subspaces.distance", "subspaces.complement", "subspaces.image",
        "subspaces.Subspace.validate", "relations.adjoint", "relations.parts",
        "relations.eigenspace", "relations.compose", "relations.spectral_probe",
        "relations.resolvent_matrix", "extensions.defect_subspace",
        "extensions.n_class_check", "extensions.reduce", "extensions.prop_n_audit",
        "boundary.validate_triple", "boundary.weyl", "boundary.gamma_field",
        "boundary.resolvent_identities_check", "similarity.reconstruct_similarity",
        "similarity.build_standard_V", "similarity.membership_check",
        "generators.gen_symmetric", "generators.sample_witness", "generators.gen_triple",
        "numpy.linalg.svd", "numpy.linalg.pinv", "numpy.linalg.matrix_rank")

    def __init__(self, seed: int, inject: str | None = None):
        self.seed = seed

    def _trial(self, seed: int, i: int):
        suite = self.suites[i % self.period]
        return suite(1, derived_seed(seed, 1, i // self.period))

    def warm_up(self):
        for i in range(self.period):
            self._trial(WARM_SEED, i)

    def op(self, i: int):
        return self._trial(self.seed, i)

    def gate(self, i: int, report):
        return report.ok, f"{report.suite}:{'ok' if report.ok else 'fail'}:{report.skipped}"

    def check(self) -> set[int]:
        return set()


class WeylGrid:
    """One op is M(z) and gamma(z) of one triple at one point of a dense,
    conjugate-symmetric grid of non-real points; triples at n = 16, 32, 64
    with d = n/4 are built and validated in set-up."""

    name = "weyl-grid"
    sizes = (16, 32, 64)
    per_size = 2
    grid = tuple(complex(x, s * y) for s in (1, -1) for y in (0.5, 1.0, 2.0)
                 for x in np.linspace(-2.0, 2.0, 8))
    warm_point = 0.3 + 0.7j
    period = len(sizes) * per_size
    digest_ops = period * len(grid)
    traced_functions = ("boundary.weyl", "boundary.gamma_field",
                        "relations.graph_eigenspace", "relations.eigenspace",
                        "subspaces.span", "subspaces.kernel", "numpy.linalg.svd")
    bypassed_functions = ("subspaces.intersect", "subspaces.contains", "relations.adjoint")

    def __init__(self, seed: int, inject: str | None = None):
        self.inject = inject
        self.triples = []
        for n in self.sizes:
            for k in range(self.per_size):
                s = derived_seed(seed, n, k)
                p = int(gen.rng_for(s, 7).integers(0, n + 1))
                t = gen.gen_symmetric(gen.InstanceSpec(s, n, (p, n - p), n // 4))
                self.triples.append(gen.gen_triple(t, s))
        self.values = {}
        self.ops_of = {}

    def _combo(self, i: int) -> tuple[int, int]:
        return i % self.period, (i // self.period) % len(self.grid)

    def _evaluate(self, k: int, j: int):
        triple, z = self.triples[k], self.grid[j]
        return bnd.weyl(triple, z).operator_form, bnd.gamma_field(triple, z)

    def warm_up(self):
        for triple in self.triples:
            bnd.weyl(triple, self.warm_point)
            bnd.gamma_field(triple, self.warm_point)

    def op(self, i: int):
        return self._evaluate(*self._combo(i))

    def gate(self, i: int, result):
        combo = self._combo(i)
        m, g = result
        self.ops_of.setdefault(combo, []).append(i)
        if m is None:
            return False, f"{combo}:no-operator-form"
        first = self.values.setdefault(combo, (m, g))
        drift = max(np.abs(m - first[0]).max(), np.abs(g - first[1]).max())
        return bool(drift <= BUDGET), f"{combo}:{'ok' if drift <= BUDGET else 'drift'}"

    def check(self) -> set[int]:
        """M(conj z) = M(z)^* on conjugate pairs, and the gamma-field identity
        gamma(z) - gamma(z0) = (z - z0)(T0 - z)^{-1} gamma(z0) against z0 = grid[0]."""
        if self.inject == "perturb-weyl" and self.values:
            combo, (m, g) = next(iter(self.values.items()))
            self.values[combo] = (m + 1e-6, g)
        z0 = self.grid[0]
        conj = {z: j for j, z in enumerate(self.grid)}
        failed = set()
        for (k, j), (m, g) in list(self.values.items()):
            z = self.grid[j]
            try:
                m_bar = self._value(k, conj[z.conjugate()])[0]
                g0 = self._value(k, 0)[1]
                r0 = rel.resolvent_matrix(self.triples[k].t0, z)
            except (ValueError, np.linalg.LinAlgError):
                failed.update(self.ops_of[(k, j)])
                continue
            sym = np.abs(m.conj().T - m_bar).max() if m_bar is not None else np.inf
            diff = np.abs(g - g0 - (z - z0) * (r0 @ g0)).max()
            if not (sym <= BUDGET and diff <= BUDGET):
                failed.update(self.ops_of[(k, j)])
        return failed

    def _value(self, k: int, j: int):
        if (k, j) not in self.values:
            self.values[(k, j)] = self._evaluate(k, j)
        return self.values[(k, j)]


class PipelineLarge:
    """One op is one request at n = 16, 32 or 48, alternating `similar` (what
    `kreinrel similar` does: load and validate both triple documents, then
    reconstruct the similarity) and `audit` (what `kreinrel ext audit` does:
    load T, sample a witness, run the proposition audit)."""

    name = "pipeline-large"
    sizes = (16, 32, 48)
    per_size = 2
    period = 2 * len(sizes) * per_size * 2
    digest_ops = period
    criterion_point = 1j
    traced_functions = (
        "subspaces.span", "subspaces.intersect", "subspaces.contains",
        "subspaces.complement", "relations.adjoint", "relations.compose",
        "extensions.prop_n_audit", "extensions.defect_subspace", "boundary.validate_triple",
        "boundary.weyl", "boundary.gamma_field", "similarity.reconstruct_similarity",
        "similarity.build_standard_V", "similarity.membership_check",
        "similarity.weyl_equality_criterion", "generators.sample_witness",
        "numpy.linalg.svd")

    def __init__(self, seed: int, inject: str | None = None):
        self.seed = seed
        self.instances = [self._instance(derived_seed(seed, n, k), n)
                          for k in range(self.per_size) for n in self.sizes]
        self.warm = self._instance(WARM_SEED, 8)
        if inject == "scaled-as-planted":
            for inst in self.instances:
                inst["planted"] = inst["scaled"]

    @staticmethod
    def _instance(s: int, n: int) -> dict:
        p = int(gen.rng_for(s, 7).integers(0, n + 1))
        t = gen.gen_symmetric(gen.InstanceSpec(s, n, (p, n - p), n // 4))
        triple = gen.gen_triple(t, s)
        u = gen.gen_standard_unitary(s, t.src, t.src)
        planted = gen.planted_similar_triple(triple, u, t.src)
        scaled = gen.scaled_triple(triple, 2.0)

        def doc(tr=None, parent=t):
            return json.dumps(kio.document_for(parent.src, parent, tr))
        return {"a": doc(triple), "planted": doc(planted, planted.parent),
                "scaled": doc(scaled), "t": doc()}

    @staticmethod
    def _load(text: str) -> dict:
        return kio.load_document(json.loads(text))

    def _similar(self, inst: dict, kind: str):
        """A planted request also cross-checks the recovered V with the
        Weyl-equality criterion at one point."""
        ta = self._load(inst["a"])["triple"]
        tb = self._load(inst[kind])["triple"]
        out = sim.reconstruct_similarity(ta, tb, bnd.DEFAULT_GRID)
        crit = None
        if kind == "planted" and out["status"] == "unitary":
            crit = sim.weyl_equality_criterion(ta, tb, out["V"], self.criterion_point)
        return kind, out, crit

    def _audit(self, inst: dict, witness_seed: int):
        t = self._load(inst["t"])["relation"]
        witness = gen.sample_witness(t, witness_seed)
        return "audit", ext.prop_n_audit(t, witness.N), None

    def warm_up(self):
        self._similar(self.warm, "planted")
        self._similar(self.warm, "scaled")
        self._audit(self.warm, WARM_SEED)

    def op(self, i: int):
        m = i // 2
        inst = self.instances[m % len(self.instances)]
        if i % 2:
            return self._audit(inst, derived_seed(self.seed, 2, i))
        kind = "planted" if (m // len(self.instances)) % 2 == 0 else "scaled"
        return self._similar(inst, kind)

    def gate(self, i: int, result):
        """Planted pairs give `unitary` with gamma_residual < 1e-7 and a
        criterion that agrees with the direct comparison, scaled pairs give
        `witness`, audits are ok."""
        kind, out, crit = result
        if kind == "audit":
            ok = bool(out["ok"])
            return ok, f"audit:{'ok' if ok else 'fail'}"
        status = out["status"]
        if kind == "scaled":
            return status == "witness", f"similar-scaled:{status}"
        ok = (status == "unitary" and out["gamma_residual"] < 1e-7 and crit.direct
              and (crit.diagnostics["agree"] or not crit.hypotheses_ok))
        return ok, f"similar-planted:{status}:{'ok' if ok else 'fail'}"

    def check(self) -> set[int]:
        return set()


WORKLOADS = {w.name: w for w in (VerifyDesk, WeylGrid, PipelineLarge)}
