"""JSON documents for spaces, relations and triples.

One document type covers all fixtures: a `space` block (dim plus the
fundamental symmetry), an optional `relation` block (graph basis
vectors) and an optional `triple` block (boundary dim, gamma matrix and
a basis of the adjoint's graph).  Complex scalars are two-element
[re, im] arrays and matrices are row-major nested lists, which keeps
golden files human-diffable.
"""

from __future__ import annotations

import json

import numpy as np

from . import boundary as bnd
from .krein import KreinSpace, make_krein
from .relations import LinearRelation
from .subspaces import span
from .tolerances import DEFAULT_TOL, TolerancePolicy


class DocumentError(ValueError):
    pass


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(item) -> complex:
    if isinstance(item, (int, float)):
        return complex(item)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(item[0], item[1])
    raise DocumentError(f"not a complex scalar: {item!r}")


def encode_matrix(m: np.ndarray) -> list:
    return [[encode_complex(z) for z in row] for row in np.asarray(m)]


def decode_matrix(rows) -> np.ndarray:
    try:
        return np.array([[decode_complex(z) for z in row] for row in rows],
                        dtype=np.complex128)
    except (TypeError, IndexError, ValueError) as exc:
        raise DocumentError(f"malformed matrix: {exc}") from exc


def encode_vectors(cols: np.ndarray) -> list:
    return [[encode_complex(z) for z in col] for col in np.asarray(cols).T]


def decode_vectors(items, dim: int) -> np.ndarray:
    vecs = [np.array([decode_complex(z) for z in v], dtype=np.complex128) for v in items]
    for v in vecs:
        if v.shape[0] != dim:
            raise DocumentError(f"vector length {v.shape[0]} does not match dim {dim}")
    return np.column_stack(vecs) if vecs else np.zeros((dim, 0), dtype=np.complex128)


def document_for(space: KreinSpace, relation: LinearRelation | None = None,
                 triple: bnd.BoundaryTriple | None = None) -> dict:
    doc = {"space": {"dim": space.dim, "J": encode_matrix(space.J)}}
    if relation is not None:
        doc["relation"] = {"graph": encode_vectors(relation.graph.frame)}
    if triple is not None:
        doc["triple"] = {"boundary_dim": triple.boundary_dim,
                         "gamma": encode_matrix(triple.gamma),
                         "tplus_basis": encode_vectors(triple.basis)}
    return doc


def load_document(path_or_dict, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Parse a document into {'space', 'relation', 'triple'} objects."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if "space" not in doc:
        raise DocumentError("document lacks a 'space' block")
    sdoc = doc["space"]
    try:
        dim = int(sdoc["dim"])
        space = make_krein(decode_matrix(sdoc["J"]))
    except (KeyError, ValueError) as exc:
        raise DocumentError(f"bad space block: {exc}") from exc
    if space.dim != dim:
        raise DocumentError("declared dim does not match J")
    out = {"space": space, "relation": None, "triple": None}
    if "relation" in doc:
        cols = decode_vectors(doc["relation"].get("graph", []), 2 * dim)
        out["relation"] = LinearRelation(space, space, span(cols, tol))
    if "triple" in doc:
        tdoc = doc["triple"]
        if out["relation"] is None:
            raise DocumentError("a triple document needs the relation block")
        try:
            gamma = decode_matrix(tdoc["gamma"])
            basis = decode_vectors(tdoc["tplus_basis"], 2 * dim)
        except KeyError as exc:
            raise DocumentError(f"bad triple block: {exc}") from exc
        declared = int(tdoc.get("boundary_dim", gamma.shape[0] // 2))
        if gamma.shape[0] != 2 * declared:
            raise DocumentError("gamma rows do not match boundary_dim")
        out["triple"] = bnd.validate_triple(out["relation"], gamma, basis, tol)
    return out


def save_document(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
