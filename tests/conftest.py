import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, relations as rel
from kreinrel.tolerances import DEFAULT_TOL
from oracles import relation


@pytest.fixture(scope="session")
def c4():
    """The flip-symmetry C^4 instance with its boundary triple."""
    j = np.fliplr(np.eye(4)).astype(np.complex128)
    space = kr.make_krein(j)
    t = relation(space, space, np.array([[1, 0, 0, 0, 0, 1, 0, 0]]).T)
    basis = np.zeros((8, 7), dtype=np.complex128)
    for k in range(7):
        basis[k, k] = 1
    basis[7, 2] = 1
    # the map displayed on the basis, as the matrix Gamma basis^+ on C^8
    gamma = np.array([
        [1, 0, 0, 0, 0, -1, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0],
    ], dtype=np.complex128) @ np.linalg.pinv(basis)
    triple = bnd.validate_triple(t, gamma)
    return {"space": space, "T": t, "triple": triple, "gamma": gamma}


@pytest.fixture(scope="session")
def c4_false_n(c4):
    """Candidates for the N-class of the c4 T that lie in T+ ∩ T-perp and meet
    both range conditions at ±i, yet T ⊕ N is not self-adjoint: Σ itself, and
    the graph {f + 2f'} joining the defect subspaces by a non-isometric map."""
    from kreinrel import extensions as ext, subspaces as sub
    space, t, tri = c4["space"], c4["T"], c4["triple"]
    fp = ext.defect_subspace(t, 1j).frame
    fm = ext.defect_subspace(t, -1j).frame
    w = 2.0 * np.eye(fp.shape[1])
    graph = np.vstack([fp + fm @ w, space.J @ (1j * fp - 1j * fm @ w)])
    return {
        "sigma": relation(space, space, sub.span(np.hstack([tri.fn, tri.fjn]))),
        "non-isometric": relation(space, space, sub.span(graph)),
    }


@pytest.fixture(scope="session")
def t2_plus_point():
    """A triple for T = T2 ⊕ 0.7: a generated symmetric T2 on C^2 and the
    self-adjoint 0.7 on a positive C^1, which no defect subspace reaches."""
    from kreinrel.generators import InstanceSpec, gen_symmetric, gen_triple
    t2 = gen_symmetric(InstanceSpec(5, 2, (1, 1), 1))
    j = np.eye(3, dtype=np.complex128)
    j[:2, :2] = t2.src.J
    space = kr.make_krein(j)
    e, d = t2.blocks()
    cols = np.zeros((6, 2), dtype=np.complex128)
    cols[:2, :1], cols[3:5, :1] = e, d
    cols[2, 1], cols[5, 1] = 1.0, 0.7
    return gen_triple(relation(space, space, cols), 11)


def c4_weyl_matrix(z: complex) -> np.ndarray:
    """Brute-force image of the defect frame under the displayed boundary map."""
    z = complex(z)
    return np.array([[0, 0, z], [0, 0, z * z], [z, z * z, 0]], dtype=np.complex128)


def under(tri, tol):
    """The same boundary map, validated under `tol`, as a triple that decides
    under `tol` and holds tri's Gamma on F bit for bit."""
    checked = bnd.validate_triple(tri.parent, tri.gamma_ambient, tol)
    assert np.array_equal(checked.basis, tri.basis)
    return bnd.BoundaryTriple(tri.parent, tri.gamma, tol)


def svd_calls(monkeypatch) -> list:
    """Record (shape, compute_uv) of every np.linalg.svd call from here on."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def solved_points(monkeypatch) -> list:
    """Record each point whose defect graph is solved from here on: one entry
    per point, also for the points of a stacked call."""
    calls, graph_eigenspace = [], rel.graph_eigenspace

    def counting(t, z, tol=DEFAULT_TOL):
        calls.extend(z if np.ndim(z) else [z])
        return graph_eigenspace(t, z, tol)

    monkeypatch.setattr(rel, "graph_eigenspace", counting)
    return calls
