"""Self-adjoint extension theory through neutral complements.

A closed symmetric relation T in a Krein space is extended by picking a
neutral relation N inside T+ ∩ T-perp whose orthogonal sum with T is a
hyper-maximal neutral subspace of the doubled space; extensions and
their witnesses convert back and forth losslessly (the 1-1
correspondence), and the audit functions re-derive every side condition
independently, each decided by a rule of the policy: the defect frames'
rank by the map rule, the dom N formulas by the angle-equality rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import relations as rel
from . import subspaces as sub
from .krein import KreinSpace, doubled, hilbert_space, neutrality_rank
from .relations import LinearRelation
from .subspaces import Subspace
from .tolerances import DEFAULT_TOL, TolerancePolicy


class NClassRejection(ValueError):
    """Candidate N failed a membership condition; .reason names it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True, eq=False)
class NWitness:
    N: LinearRelation
    parent: LinearRelation
    t0: LinearRelation


@dataclass(frozen=True, eq=False)
class SigmaDecomposition:
    sigma: Subspace
    n_part: Subspace
    jn_part: Subspace
    m_hat: LinearRelation
    defect_plus_frame: np.ndarray = field(repr=False)
    defect_minus_frame: np.ndarray = field(repr=False)


def defect_subspace(t: LinearRelation, z: complex,
                    tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """N_z = ker(JT+ - z) = {g : (g, zJg) in T+}.

    With J^2 = I the Green form of `rel.adjoint` at (g, zJg) reads
    (D^H J - z E^H) g = 0 on the graph frame [E; D] of T.
    """
    def compute() -> Subspace:
        e, d = t.blocks()
        return sub.kernel(d.conj().T @ t.src.J - z * e.conj().T, t.src.dim, tol)

    return t._memoized(("defect", complex(z), tol), compute)


def defect_numbers(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, int]:
    if not rel.is_symmetric(t, tol):
        raise ValueError("defect numbers are defined for symmetric relations")
    d_plus = defect_subspace(t, 1j, tol).dim
    d_minus = defect_subspace(t, -1j, tol).dim
    return d_plus, d_minus


def n_class_check(t: LinearRelation, n: LinearRelation,
                  tol: TolerancePolicy = DEFAULT_TOL) -> NWitness:
    """Verify N-class membership and return the witness bundling T0.

    Decides (a) N ⊆ T+ ∩ T-perp, (b) ran(JN ± i) = N_{±i} and (c) T0 = T ⊕ N
    hyper-maximal neutral, i.e. self-adjoint; Σ itself passes (a) and (b).
    """
    if not t.src.same_as(n.src) or not t.tgt.same_as(n.tgt):
        raise NClassRejection("host mismatch")
    tplus = rel.adjoint(t, "krein", tol)
    if not sub.contains(tplus.graph, n.graph, tol):
        raise NClassRejection("N not inside the adjoint")
    if not sub.contains(sub.complement(t.graph), n.graph, tol):
        raise NClassRejection("N not orthogonal to T")
    frak_n = rel.hilbertize(n)
    for z in (1j, -1j):
        e, d = frak_n.blocks()
        ran_shifted = sub.span(d + z * e, tol)
        if not sub.equal(ran_shifted, defect_subspace(t, z, tol), tol):
            raise NClassRejection(f"range condition fails at z={z}")
    t0, _ = rel.cw_sum(t, n, tol)
    if not neutrality_rank(doubled(t.src).krein, t0.graph, tol)["hyper_maximal"]:
        raise NClassRejection("T ⊕ N is not hyper-maximal neutral")
    return NWitness(n, t, t0)


def extend(t: LinearRelation, n: LinearRelation,
           tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    return n_class_check(t, n, tol).t0


def reduce(t: LinearRelation, t0: LinearRelation,
           tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """N = T0 ∩ T-perp for a canonical self-adjoint extension T0: checks the
    hypotheses, then calls `_n_part`; `prop_n_audit` re-derives the N-class."""
    if not rel.is_selfadjoint(t0, tol):
        raise ValueError("reduce needs a self-adjoint extension")
    if not sub.contains(t0.graph, t.graph, tol):
        raise ValueError("T0 does not extend T")
    return _n_part(t, t0, tol)


def _n_part(t: LinearRelation, t0: LinearRelation, tol: TolerancePolicy) -> LinearRelation:
    """`reduce` unchecked, for a T0 that is self-adjoint and extends T by construction."""
    return LinearRelation(t.src, t.tgt, sub._meet_complement(t0.graph, t.graph, tol))


def _sigma_parts(t: LinearRelation, n: LinearRelation,
                 tol: TolerancePolicy) -> SigmaDecomposition:
    """Σ = T+ ∩ T-perp with its N ⊕ J_hat(N) split and the defect pairing, for
    an N in the N-class of T (from `reduce` or accepted by `n_class_check`);
    N is not checked again here."""
    tplus = rel.adjoint(t, "krein", tol)
    sigma = sub._meet_complement(tplus.graph, t.graph, tol)
    jhat = doubled(t.src).J_hat
    jn = sub.image(jhat, n.graph, tol)
    ni = defect_subspace(t, 1j, tol)
    nmi = defect_subspace(t, -1j, tol)
    fp, fm = ni.frame, nmi.frame
    # [N_i, N_-i; iN_i, -iN_-i] has orthogonal columns of norm sqrt(2), as N_i
    # and N_-i are orthonormal frames: a frame of M_hat, Gram-checked
    hil = hilbert_space(t.src.dim)
    m_hat = LinearRelation(hil, hil, Subspace(2 * t.src.dim, np.vstack(
        [np.hstack([fp, fm]), np.hstack([1j * fp, -1j * fm])]) / np.sqrt(2.0)))
    return SigmaDecomposition(
        sigma=sigma,
        n_part=n.graph,
        jn_part=jn,
        m_hat=m_hat,
        defect_plus_frame=fp,
        defect_minus_frame=fm,
    )


def dom_n_formulas(t: LinearRelation, t0: LinearRelation,
                   tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """The three equivalent descriptions of dom N, computed independently."""
    frak_t0 = rel.hilbertize(t0)
    ni = defect_subspace(t, 1j, tol)
    nmi = defect_subspace(t, -1j, tol)

    def preimage_of(shift_z: complex, target: Subspace) -> Subspace:
        shifted = rel.shift(frak_t0, -shift_z, tol)  # T0 + shift_z I
        cage = sub.product(sub.full(t.src.dim), target)
        return rel.parts(
            LinearRelation(frak_t0.src, frak_t0.tgt,
                           sub.intersect(shifted.graph, cage, tol)), tol).dom

    via_plus = preimage_of(1j, ni)
    via_minus = preimage_of(-1j, nmi)

    c_full_graph = _cayley_graph(frak_t0)
    c_n = sub.intersect(c_full_graph, sub.product(ni, sub.full(t.src.dim)), tol)
    x, y = c_n.frame[: t.src.dim, :], c_n.frame[t.src.dim :, :]
    via_cayley = sub.span(y - x, tol)
    return {"resolvent_plus": via_plus, "resolvent_minus": via_minus,
            "cayley": via_cayley}


def _cayley_graph(frak_t0: LinearRelation) -> Subspace:
    """[D + iE; D - iE]/sqrt(2), a unitary image of the frame [E; D]: a frame
    of the graph as it stands, Gram-checked."""
    e, d = frak_t0.blocks()
    return Subspace(frak_t0.graph.ambient_dim, np.vstack([d + 1j * e, d - 1j * e]) / np.sqrt(2.0))


def prop_n_audit(t: LinearRelation, n: LinearRelation,
                 tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Re-derive every claim attached to a witness pair (T, N)."""
    witness = n_class_check(t, n, tol)
    t0 = witness.t0
    dim_h = t.src.dim
    d_plus, d_minus = defect_numbers(t, tol)
    n_plus, n_minus = defect_numbers(n, tol)
    dec = _sigma_parts(t, n, tol)
    formulas = dom_n_formulas(t, t0, tol)
    dom_n = rel.parts(n, tol).dom
    pair_dists = {
        "plus_vs_minus": sub.distance(formulas["resolvent_plus"], formulas["resolvent_minus"]),
        "plus_vs_cayley": sub.distance(formulas["resolvent_plus"], formulas["cayley"]),
        "dom_vs_plus": sub.distance(dom_n, formulas["resolvent_plus"]),
    }
    t_sum_sigma, orth = rel.cw_sum(
        t, LinearRelation(t.src, t.tgt, dec.sigma), tol)
    tplus = rel.adjoint(t, "krein", tol)
    # Σ = J M_hat: post-compose the relation M_hat with the base symmetry, a
    # unitary image of its frame
    e, d = dec.m_hat.blocks()
    j_mhat = Subspace(2 * dim_h, np.vstack([e, t.src.J @ d]))
    report = {
        "defects": (d_plus, d_minus),
        "n_defects": (n_plus, n_minus),
        "counts_ok": d_plus == d_minus and n_plus == n_minus
                     and d_plus + n_plus == dim_h
                     and n.dim == d_plus and t.dim == n_plus,
        "t0_selfadjoint": rel.is_selfadjoint(t0, tol),
        "adjoint_splits": sub.equal(t_sum_sigma.graph, tplus.graph, tol) and orth,
        "sigma_split": sub.equal(dec.sigma, sub.sum_(dec.n_part, dec.jn_part, tol), tol),
        "sigma_is_j_mhat": sub.equal(dec.sigma, j_mhat, tol),
        "dom_formula_distances": pair_dists,
        "dom_formulas_ok": all(tol.angle_equal(v) for v in pair_dists.values()),
    }
    report.update(_dom_n_neutrality(dec, dom_n, tol))
    report["ok"] = (report["counts_ok"] and report["t0_selfadjoint"]
                    and report["adjoint_splits"]
                    and report["sigma_split"] and report["sigma_is_j_mhat"]
                    and report["dom_formulas_ok"]
                    and report["dom_n_hyper_maximal"] is not False)
    return report


def _dom_n_neutrality(dec: SigmaDecomposition, dom_n: Subspace,
                      tol: TolerancePolicy) -> dict:
    """Hyper-maximal neutrality of dom N in the defect-pair metric.

    The metric lives on abstract pairs (u, v) in N_i x N_-i with
    fundamental symmetry diag(1, -1); it transfers to M = N_i + N_-i only
    when the two defect subspaces are disjoint, so degenerate instances
    are reported as skipped (None) rather than judged.
    """
    fp, fm = dec.defect_plus_frame, dec.defect_minus_frame
    d1, d2 = fp.shape[1], fm.shape[1]
    # one SVD of phi decides its rank and gives its pseudo-inverse
    u, sv, vh = np.linalg.svd(np.hstack([fp, fm]), full_matrices=False)
    if tol.map_rank(sv) < d1 + d2:
        return {"dom_n_hyper_maximal": None, "m_degenerate": True}
    lift = sub._pinv(u, sv, vh) @ dom_n.frame
    s = np.diag(np.concatenate([np.ones(d1), -np.ones(d2)])).astype(np.complex128)
    pair_space = KreinSpace(d1 + d2, s, (d1, d2))
    flags = neutrality_rank(pair_space, sub.span(lift, tol), tol)
    return {"dom_n_hyper_maximal": bool(flags["hyper_maximal"]), "m_degenerate": False}


# ---------------------------------------------------------------------------
# spectral-set membership probes


def delta_membership(t: LinearRelation, z: complex,
                     tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """z in delta(T): non-real, of regular type for T together with conj(z)."""
    if z.imag == 0:
        return False
    return (rel.spectral_probe(t, z, tol)["regular_type"]
            and rel.spectral_probe(t, np.conj(z), tol)["regular_type"])


def O_membership(g: LinearRelation, h: LinearRelation, z: complex,
                 tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """ran(G - z) ∩ ran(H - z) trivial."""
    eg, dg = g.blocks()
    eh, dh = h.blocks()
    rg = sub.span(dg - z * eg, tol)
    rh = sub.span(dh - z * eh, tol)
    return sub.intersect(rg, rh, tol).dim == 0


def Os_membership(t: LinearRelation, n: LinearRelation, z: complex,
                  tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """z in delta(T) with trivial range intersections at z and conj(z)."""
    if not delta_membership(t, z, tol):
        return False
    return (O_membership(t, n, z, tol)
            and O_membership(t, n, np.conj(z), tol))


def simple_check(t: LinearRelation, grid,
                 tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Grid-sampled simplicity: no non-real eigenvalues seen and the
    defect subspaces over the grid span the whole space."""
    tplus = rel.adjoint(t, "krein", tol)
    frames = []
    for z in grid:
        z = complex(z)
        if z.imag == 0:
            continue
        if rel.spectral_probe(t, z, tol)["eigenvalue"]:
            return False
        frames.append(rel.eigenspace(tplus, z, tol).frame)
    return bool(frames) and sub.span(np.hstack(frames), tol).dim == t.src.dim


def has_property_p(t: LinearRelation, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    p = rel.parts(t, tol)
    return sub.sum_(p.dom, p.ran, tol).dim == t.src.dim


def theorem_ex_check(t: LinearRelation, witnesses, grid,
                     tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Sampled resolvent-set inclusion rho(T0) ⊇ delta(T) per witness.

    The dense-domain hypothesis degenerates in finite dimension, so the
    operative hypothesis recorded here is property (P).
    """
    report = {
        "property_p": has_property_p(t, tol),
        "densely_defined": rel.parts(t, tol).dom.dim == t.src.dim,
        "violations": [],
    }
    delta_grid = [complex(z) for z in grid if delta_membership(t, complex(z), tol)]
    for idx, w in enumerate(witnesses):
        for z in delta_grid:
            if not rel.spectral_probe(w.t0, z, tol)["regular"]:
                report["violations"].append({"witness": idx, "z": z})
    report["ok"] = not report["violations"]
    return report


def lemma_os_check(t: LinearRelation, witness: NWitness, grid,
                   tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Pointwise identity C_* ∩ rho(T0) = O_s(T, N) ∩ delta(N)."""
    mismatches = []
    for z in grid:
        z = complex(z)
        if z.imag == 0:
            continue
        lhs = rel.spectral_probe(witness.t0, z, tol)["regular"]
        rhs = (Os_membership(t, witness.N, z, tol)
               and delta_membership(witness.N, z, tol))
        if lhs != rhs:
            mismatches.append({"z": z, "lhs": lhs, "rhs": rhs})
    return {"ok": not mismatches, "mismatches": mismatches}


def lemma_exn_check(t: LinearRelation, n: LinearRelation, grid,
                    tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """N should be an operator with empty point spectrum.

    Grid points are scanned directly; at ±i the eigenspace formula in
    terms of the halves of the defect subspaces is evaluated as well.
    """
    report = {"is_operator": rel.is_operator(n, tol), "eigenvalues": [],
              "pm_i_trivial": None}
    for z in grid:
        z = complex(z)
        if rel.spectral_probe(n, z, tol)["eigenvalue"]:
            report["eigenvalues"].append(z)
    ni = defect_subspace(t, 1j, tol)
    nmi = defect_subspace(t, -1j, tol)
    h_plus = sub.kernel(t.src.J - np.eye(t.src.dim), t.src.dim, tol)
    h_minus = sub.kernel(t.src.J + np.eye(t.src.dim), t.src.dim, tol)
    dom_n = rel.parts(n, tol).dom
    n_i = sub.intersect(dom_n, sub.sum_(sub.intersect(h_plus, ni, tol),
                                        sub.intersect(h_minus, nmi, tol), tol), tol)
    n_mi = sub.intersect(dom_n, sub.sum_(sub.intersect(h_plus, nmi, tol),
                                         sub.intersect(h_minus, ni, tol), tol), tol)
    report["pm_i_trivial"] = n_i.dim == 0 and n_mi.dim == 0
    report["ok"] = (report["is_operator"] and not report["eigenvalues"]
                    and report["pm_i_trivial"])
    return report
