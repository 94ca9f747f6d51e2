"""JSON documents for spaces, relations and triples.

One document type covers all fixtures: a `space` block (dim plus the
fundamental symmetry), an optional `relation` block (graph basis
vectors) and an optional `triple` block (boundary dim and gamma, the
2d x 2n matrix of the boundary map on K = C^2n, of which only the action on
T+ counts; loading validates it on the loaded relation's adjoint frame).
The library writes each matrix packed, as {"shape": [rows, cols],
"base64": ...}: the base64 of its row-major, little-endian IEEE complex128
bytes, which JSON parses as one string.  A vector list is the matrix with
one row per vector.  Decoding also reads the hand-written form, row-major
nested lists whose scalars are either all [re, im] pairs or all bare reals;
a block that mixes the two is rejected.  Each block crosses the JSON
boundary in one numpy conversion, and encoding then decoding gives back
every bit, signed zeros, infinities and NaNs included.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from . import boundary as bnd
from .krein import KreinSpace, make_krein
from .relations import LinearRelation
from .subspaces import span
from .tolerances import DEFAULT_TOL, TolerancePolicy


class DocumentError(ValueError):
    pass


_PACKED = np.dtype("<c16")  # little-endian IEEE complex128


def encode_matrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=_PACKED)
    return {"shape": list(m.shape), "base64": base64.b64encode(m.tobytes()).decode("ascii")}


def _unpack(block: dict) -> np.ndarray:
    shape, data = block.get("shape"), block.get("base64")
    if (block.keys() != {"shape", "base64"} or type(shape) is not list
            or len(shape) != 2 or any(type(k) is not int or k < 0 for k in shape)
            or not isinstance(data, str)):
        raise DocumentError("malformed matrix: a packed block is {'shape': [rows, cols], "
                            "'base64': string} with non-negative integer rows and cols")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise DocumentError(f"malformed matrix: bad base64: {exc}") from exc
    if len(raw) != 16 * shape[0] * shape[1]:
        raise DocumentError(f"malformed matrix: {len(raw)} bytes do not hold "
                            f"{shape[0]} x {shape[1]} complex128 entries")
    return np.frombuffer(raw, dtype=_PACKED).astype(np.complex128).reshape(shape)


def decode_matrix(block) -> np.ndarray:
    """A packed block, a block of [re, im] pairs, shape (rows, cols, 2), or
    one of bare reals, shape (rows, cols), as an exact complex array."""
    if isinstance(block, dict):
        return _unpack(block)
    try:
        a = np.asarray(block)
    except ValueError as exc:
        raise DocumentError(f"malformed matrix: {exc}") from exc
    if a.dtype.kind not in "iuf" or a.ndim not in (2, 3) or a.shape[2:] not in ((), (2,)):
        raise DocumentError(f"malformed matrix: a {a.dtype} block of shape {a.shape} is "
                            "neither all [re, im] pairs nor all bare reals")
    if a.ndim == 2:
        return a.astype(np.complex128)
    return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]


def encode_vectors(cols: np.ndarray) -> dict:
    return encode_matrix(np.asarray(cols).T)


def decode_vectors(items, dim: int) -> np.ndarray:
    vecs = decode_matrix(items) if items != [] else np.zeros((0, dim), dtype=np.complex128)
    if vecs.shape[1] != dim:
        raise DocumentError(f"vector length {vecs.shape[1]} does not match dim {dim}")
    return np.ascontiguousarray(vecs.T)


def document_for(space: KreinSpace, relation: LinearRelation | None = None,
                 triple: bnd.BoundaryTriple | None = None) -> dict:
    doc = {"space": {"dim": space.dim, "J": encode_matrix(space.J)}}
    if relation is not None:
        doc["relation"] = {"graph": encode_vectors(relation.graph.frame)}
    if triple is not None:
        doc["triple"] = {"boundary_dim": triple.boundary_dim,
                         "gamma": encode_matrix(triple.gamma_ambient)}
    return doc


def load_document(path_or_dict, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Parse a document into {'space', 'relation', 'triple'} objects."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "space" not in doc:
        raise DocumentError("document is not a JSON object with a 'space' block")
    for key in ("space", "relation", "triple"):
        if not isinstance(doc.get(key, {}), dict):
            raise DocumentError(f"the '{key}' block is not a JSON object")
    sdoc = doc["space"]
    try:
        dim = sdoc["dim"]
        if type(dim) is not int:  # not a bool, float or string that int() would take
            raise TypeError(f"dim {dim!r} is not an integer")
        space = make_krein(decode_matrix(sdoc["J"]))
    except (KeyError, TypeError, ValueError) as exc:
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
            declared = tdoc.get("boundary_dim", gamma.shape[0] // 2)
            if type(declared) is not int:
                raise TypeError(f"boundary_dim {declared!r} is not an integer")
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"bad triple block: {exc}") from exc
        if gamma.shape[0] != 2 * declared:
            raise DocumentError("gamma rows do not match boundary_dim")
        if "tplus_basis" in tdoc or gamma.shape[1] != 2 * dim:
            raise DocumentError(
                f"gamma must be the {2 * declared} x {2 * dim} matrix of the boundary map on "
                f"C^{2 * dim}; a gamma given on the columns of a tplus_basis converts to "
                "gamma @ pinv(tplus_basis), Gamma basis^+")
        out["triple"] = bnd.validate_triple(out["relation"], gamma, tol)
    return out


def save_document(path: str, doc: dict | list):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
