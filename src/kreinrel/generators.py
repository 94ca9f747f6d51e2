"""Seeded random instances: symmetric relations, boundary triples and
standard unitaries.

All draws go through numpy Generators derived from explicit integer
seeds, so identical seeds reproduce identical objects bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import extensions as ext
from . import relations as rel
from . import subspaces as sub
from .krein import KreinSpace, make_krein
from .relations import LinearRelation
from .similarity import _standard_unitary_residual, _u_inverse, _utilde
from .tolerances import DEFAULT_TOL, TolerancePolicy


class SamplingExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class InstanceSpec:
    seed: int
    dim: int
    signature: tuple[int, int]
    defect: int
    require_simple: bool = False
    require_property_p: bool = False

    def __post_init__(self):
        p, q = self.signature
        if p + q != self.dim:
            raise ValueError("signature must sum to dim")
        if not (0 <= self.defect <= self.dim):
            raise ValueError("defect must lie in 0..dim")


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_signature_symmetry(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Random fundamental symmetry with prescribed signature."""
    u = random_unitary(rng, p + q)
    d = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(np.complex128)
    return u @ d @ u.conj().T


def random_space(seed: int, p: int, q: int) -> KreinSpace:
    return make_krein(random_signature_symmetry(rng_for(seed, 0), p, q))


def hyper_maximal_neutral(rng: np.random.Generator, space: KreinSpace) -> sub.Subspace:
    """Graph of a random self-adjoint relation: angular form F+ + F- W, whose
    columns are orthogonal with norm sqrt 2."""
    eig, vecs = np.linalg.eigh(space.doubled.J)
    n = space.dim
    f_minus, f_plus = vecs[:, :n], vecs[:, n:]
    w = random_unitary(rng, n)
    return sub._svd_span(f_plus + f_minus @ w)


def gen_symmetric(spec: InstanceSpec, space: KreinSpace | None = None,
                  tol: TolerancePolicy = DEFAULT_TOL) -> LinearRelation:
    """Symmetric relation with prescribed equal defects inside a random
    hyper-maximal neutral subspace of the doubled space."""
    p, q = spec.signature
    if space is None:
        space = random_space(spec.seed, p, q)
    n, d = spec.dim, spec.defect
    if spec.require_property_p and 2 * (n - d) < n:
        # dom T + ran T can reach at most 2 dim T dimensions
        raise SamplingExhaustedError(
            f"property (P) is impossible for defect {d} in dimension {n}")
    grid = bnd.DEFAULT_GRID
    for attempt in range(200):
        rng = rng_for(spec.seed, 1, attempt)
        m = hyper_maximal_neutral(rng, space)
        coeff = random_complex(rng, n, n - d)
        # n - d orthonormal columns keep dim T = n - d; the seeded witness draw
        # reads T's frame and tests/data/verdicts.json pins the draws
        t_frame = m.frame @ np.linalg.qr(coeff)[0]
        t = LinearRelation(space, space, sub._svd_span(t_frame))
        dplus, dminus = ext.defect_numbers(t, tol)
        if (dplus, dminus) != (d, d):
            continue
        if spec.require_property_p and not ext.has_property_p(t, tol):
            continue
        if spec.require_simple and not ext.simple_check(t, grid, tol):
            continue
        return t
    raise SamplingExhaustedError("no admissible instance after 200 tries")


def sample_witness(t: LinearRelation, seed: int,
                   tol: TolerancePolicy = DEFAULT_TOL) -> ext.NWitness:
    """Draw N from the von Neumann parametrization run backwards.

    A random Euclidean unitary between the defect subspaces closes the
    Cayley transform of JT to a unitary; pulling back gives a Hilbert
    self-adjoint extension, then T0 = J T0_hilbert and N = T0 ∩ T-perp,
    unchecked: T0 is self-adjoint and extends T by construction.  T0's frame
    [E0; J D0] is the image of T0_hilbert's under the unitary diag(I, J),
    Gram-checked, with no rank decision.
    """
    rng = rng_for(seed, 2)
    space = t.src
    frak_t = rel.hilbertize(t)
    ni = ext.defect_subspace(t, 1j, tol)
    nmi = ext.defect_subspace(t, -1j, tol)
    d = ni.dim
    e, dd = frak_t.blocks()
    c_t = (dd - 1j * e) @ np.linalg.pinv(dd + 1j * e)
    u_defect = random_unitary(rng, d)
    c_full = c_t + nmi.frame @ u_defect @ ni.frame.conj().T
    frak_t0 = rel.inverse_cayley(c_full)
    e0, d0 = frak_t0.blocks()
    t0 = LinearRelation(space, space, sub.Subspace(np.vstack([e0, space.J @ d0])))
    return ext.NWitness(ext._n_part(t, t0, tol), t0)


def gen_triple(t: LinearRelation, seed: int,
               tol: TolerancePolicy = DEFAULT_TOL) -> bnd.BoundaryTriple:
    """Boundary triple from a sampled witness via the defect pairing.

    Gamma = [-i w (J_hat F_N)^H; w F_N^H] on K for a random unitary w of the
    boundary space: Gamma1 reads off N-coordinates and Gamma0 pairs the
    J_hat(N)-component against them with the indefinite inner product.
    [F_T, F_N, J_hat F_N] is an orthonormal frame of T+ (N is orthogonal to
    T, J_hat N is too as N lies in T+, and N is neutral, so orthogonal to
    J_hat N), which makes the Green identity exact by construction.
    """
    dplus, dminus = ext.defect_numbers(t, tol)
    if dplus != dminus:
        raise ValueError("unequal defect numbers")
    if dplus == 0:
        raise ValueError("self-adjoint relation has a trivial boundary space")
    fn = sample_witness(t, seed, tol).N.graph.frame
    w = random_unitary(rng_for(seed, 3), dplus)
    fjn = t.src.doubled.J @ fn
    gamma = np.vstack([-1j * w @ fjn.conj().T, w @ fn.conj().T])
    return bnd.validate_triple(t, gamma, tol)


# a sampling bound like cond(I + a) <= 1e8, 100x inside the default identity cut
_DRAW_TOL = TolerancePolicy(angle_tol=DEFAULT_TOL.angle_tol / 100)


def gen_standard_unitary(seed: int, src: KreinSpace, tgt: KreinSpace) -> np.ndarray:
    """Standard unitary via the Krein-space Cayley transform of a random
    J-skew-adjoint matrix, composed with a signature-matching isometry."""
    if src.signature != tgt.signature:
        raise ValueError("signatures must match for a standard unitary to exist")
    n = src.dim
    for attempt in range(50):
        rng = rng_for(seed, 4, attempt)
        s = random_complex(rng, n, n)
        a = src.J @ ((s - s.conj().T) / 2.0)
        if np.linalg.cond(np.eye(n) + a) > 1e8:
            continue
        c = (np.eye(n) - a) @ np.linalg.inv(np.eye(n) + a)
        _, vec_s = np.linalg.eigh(src.J)
        _, vec_t = np.linalg.eigh(tgt.J)
        pi = vec_t @ vec_s.conj().T
        u = pi @ c
        if _is_standard_unitary(u, src, tgt, _DRAW_TOL):
            return u
    raise SamplingExhaustedError("could not draw a standard unitary")


def _is_standard_unitary(u: np.ndarray, src: KreinSpace, tgt: KreinSpace,
                         tol: TolerancePolicy) -> bool:
    """U^H J' U = J, relative to the scale of U, under `tol`."""
    return tol.negligible(_standard_unitary_residual(u, src, tgt), 1 + np.abs(u).max() ** 2)


def planted_similar_triple(triple: bnd.BoundaryTriple, u: np.ndarray,
                           tgt: KreinSpace) -> bnd.BoundaryTriple:
    """The triple Gamma' = Gamma U~^{-1} for T' = U T U^{-1}, under the triple's
    policy.  Only U is checked: by the transformation lemma a standard unitary
    carries a triple to a triple.  Gamma' acts on T'+'s own frame F', as
    Gamma (F^H U~^{-1} F') with U~^{-1} = diag(U^{-1}, U^{-1}); no rank of
    U~ F is decided."""
    if not _is_standard_unitary(u, triple.space, tgt, triple.tol):
        raise bnd.TripleValidationError("planting matrix is not standard unitary")
    # U~ is injective, so the image of T's frame takes one QR
    t_prime = LinearRelation(tgt, tgt, sub._injective_span(_utilde(u) @ triple.parent.graph.frame))
    f_prime = rel.adjoint(t_prime, "krein").graph.frame
    coords = triple.basis.conj().T @ (_utilde(_u_inverse(u, triple.space, tgt)) @ f_prime)
    return bnd.BoundaryTriple(t_prime, triple.gamma @ coords, triple.tol)


def scaled_triple(triple: bnd.BoundaryTriple, kappa: float) -> bnd.BoundaryTriple:
    """The diag(1/kappa, kappa)-rescaled triple (real kappa keeps Green)."""
    x = np.diag(np.repeat([1 / kappa, kappa], triple.boundary_dim))
    return bnd.transform(triple, x)
