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
from functools import cache, cached_property

import numpy as np

from .subspaces import Subspace
from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy, as_matrix


class NotAFundamentalSymmetryError(ValueError):
    """J fails to be a Hermitian involution."""


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """C^dim with fundamental symmetry J, held as a read-only copy.  `==` is
    identity; `same_as` compares spaces.  dim and the signature (p, q) are
    read off J: the eigenvalues of a Hermitian involution are +-1, so
    p - q = tr J.  `doubled` is the doubled space (H^2, J_hat) with
    J_hat = [[0, -iJ], [iJ, 0]].  Each is derived on first read and kept, so
    the relations over one base share one doubled space."""

    J: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = np.array(self.J)
        j.flags.writeable = False
        object.__setattr__(self, "J", j)

    @cached_property
    def dim(self) -> int:
        return self.J.shape[0]

    @cached_property
    def signature(self) -> tuple[int, int]:
        p = round((self.dim + float(np.trace(self.J).real)) / 2)
        return p, self.dim - p

    def __repr__(self):
        return f"KreinSpace(dim={self.dim}, signature={self.signature})"

    def same_as(self, other: "KreinSpace") -> bool:
        return self is other or (
            self.dim == other.dim and np.allclose(self.J, other.J, rtol=0.0, atol=1e-12))

    @cached_property
    def doubled(self) -> "KreinSpace":
        n = self.dim
        jh = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        jh[:n, n:] = -1j * self.J
        jh[n:, :n] = 1j * self.J
        return KreinSpace(jh)


def make_krein(J) -> KreinSpace:
    """Build a KreinSpace from a fundamental symmetry, validating J = J^H and
    J^2 = I entrywise, to 1e-10 (1 + ||J||_F) and 1e-10 (1 + ||J||_F)^2."""
    J = as_matrix(J)
    n = J.shape[0]
    if J.shape[1] != n:
        raise NotAFundamentalSymmetryError("J must be square")
    scale = 1 + np.linalg.norm(J)
    if np.abs(J - J.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise NotAFundamentalSymmetryError("J is not Hermitian")
    if np.abs(J @ J - np.eye(n)).max(initial=0.0) > 1e-10 * scale ** 2:
        raise NotAFundamentalSymmetryError("J is not an involution")
    return KreinSpace(J)


@cache
def hilbert_space(dim: int) -> KreinSpace:
    """C^dim with J = I; one space per dim, as J is read-only."""
    return KreinSpace(np.eye(dim, dtype=np.complex128))


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
