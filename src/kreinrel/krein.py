"""Krein/Pontryagin space structures.

A Krein space here is C^n carrying a fundamental symmetry J (Hermitian
involution); the indefinite inner product is [f, g] = <f, J g> with the
Euclidean product conjugate-linear in the first factor.  The doubled space
pairs H^2 with the block symmetry built from -iJ / iJ, under which graphs
of relations acquire their indefinite geometry.  Neutrality is decided under
a tolerance policy, like every rank decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .subspaces import Subspace
from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy, as_matrix


class NotAFundamentalSymmetryError(ValueError):
    """J fails to be a Hermitian involution."""


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """C^dim with fundamental symmetry J, held as a read-only copy.  `==` is
    identity; `same_as` compares spaces."""

    dim: int
    J: np.ndarray = field(repr=False)
    signature: tuple[int, int]

    def __post_init__(self):
        j = np.array(self.J)
        j.flags.writeable = False
        object.__setattr__(self, "J", j)

    def same_as(self, other: "KreinSpace") -> bool:
        return self is other or (
            self.dim == other.dim and np.allclose(self.J, other.J, rtol=0.0, atol=1e-12))


def make_krein(J) -> KreinSpace:
    """Build a KreinSpace from a fundamental symmetry, validating J = J^H and
    J^2 = I entrywise, to 1e-10 (1 + ||J||_F) and 1e-10 (1 + ||J||_F)^2.  The
    eigenvalues of a Hermitian involution are +-1, so the signature (p, q) is
    read off p - q = tr J, with no eigendecomposition."""
    J = as_matrix(J)
    n = J.shape[0]
    if J.shape[1] != n:
        raise NotAFundamentalSymmetryError("J must be square")
    scale = 1 + np.linalg.norm(J)
    if np.abs(J - J.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise NotAFundamentalSymmetryError("J is not Hermitian")
    if np.abs(J @ J - np.eye(n)).max(initial=0.0) > 1e-10 * scale ** 2:
        raise NotAFundamentalSymmetryError("J is not an involution")
    p = round((n + float(np.trace(J).real)) / 2)
    return KreinSpace(n, J, (p, n - p))


def hilbert_space(dim: int) -> KreinSpace:
    return KreinSpace(dim, np.eye(dim, dtype=np.complex128), (dim, 0))


@dataclass(frozen=True, eq=False)
class DoubledKrein:
    base: KreinSpace
    J_hat: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.base.dim

    @property
    def krein(self) -> KreinSpace:
        n = self.base.dim
        return KreinSpace(2 * n, self.J_hat, (n, n))


def doubled(space: KreinSpace) -> DoubledKrein:
    """The doubled space (H^2, J_hat) with J_hat = [[0, -iJ], [iJ, 0]]."""
    n = space.dim
    jh = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    jh[:n, n:] = -1j * space.J
    jh[n:, :n] = 1j * space.J
    return DoubledKrein(space, jh)


def boundary_doubled(boundary_dim: int) -> DoubledKrein:
    """The boundary-side doubled space over a Hilbert L (J = identity)."""
    return doubled(hilbert_space(boundary_dim))


def indefinite_gram(space: KreinSpace, a: Subspace, b: Subspace) -> np.ndarray:
    """Gram matrix [a_k, b_l] over the two frames."""
    if a.ambient_dim != space.dim or b.ambient_dim != space.dim:
        raise DimensionMismatchError("subspace does not live in this space")
    return a.frame.conj().T @ space.J @ b.frame


def is_neutral(space: KreinSpace, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    g = indefinite_gram(space, a, a)
    return tol.negligible(float(np.abs(g).max(initial=0.0)), 1.0 + np.linalg.norm(a.frame))


def neutrality_rank(space: KreinSpace, a: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Neutrality flags by the finite-dimensional criterion.

    neutral: the Gram vanishes; maximal: neutral of dim min(p, q);
    hyper_maximal: neutral of dim p = q (forces a balanced signature).
    """
    p, q = space.signature
    neutral = is_neutral(space, a, tol)
    return {
        "neutral": neutral,
        "maximal": neutral and a.dim == min(p, q),
        "hyper_maximal": neutral and p == q and a.dim == p,
    }
