"""The block codecs of `kreinrel.io` against the one-call-per-scalar oracle:
byte-identical JSON on encode, bit-identical arrays on decode."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreinrel as kr
from kreinrel import generators as gen, io as kio

import oracles
from oracles import relation

FIXTURE = os.path.join(os.path.dirname(kio.__file__), "data", "ex4.json")

EDGE = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
        2.2250738585072014e-308 / 3, float("inf"), -float("inf")]
scalars = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False))


def _bits(a: np.ndarray):
    """Shape, dtype and every bit of a complex array, signed zeros included."""
    assert a.flags.c_contiguous
    return a.shape, a.dtype, a.view(np.float64).tobytes()


@st.composite
def complex_blocks(draw, min_rows=1, max_rows=5, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(0, max_cols))
    parts = draw(st.lists(scalars, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real = np.reshape(parts[::2], (rows, cols))
    m.imag = np.reshape(parts[1::2], (rows, cols))
    return m


def _same_document(doc: dict, oracle_doc: dict) -> str:
    text = json.dumps(doc, indent=1, sort_keys=True)
    assert text == json.dumps(oracle_doc, indent=1, sort_keys=True)
    return text


def _decodes_like_the_oracle(doc: dict):
    n2 = 2 * doc["space"]["dim"]
    matrices = [doc["space"]["J"]] + ([doc["triple"]["gamma"]] if "triple" in doc else [])
    vectors = [doc[block][key] for block, key in (("relation", "graph"), ("triple", "tplus_basis"))
               if block in doc]
    for rows in matrices:
        assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))
    for items in vectors:
        assert (_bits(kio.decode_vectors(items, n2))
                == _bits(oracles.decode_vectors_by_scalar(items, n2)))


@settings(max_examples=200, deadline=None)
@given(complex_blocks())
def test_matrix_roundtrip_matches_the_oracle(m):
    text = json.dumps(kio.encode_matrix(m))
    assert text == json.dumps(oracles.encode_matrix_by_scalar(m))
    rows = json.loads(text)
    assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))
    assert _bits(kio.decode_matrix(rows)) == _bits(m)


@settings(max_examples=200, deadline=None)
@given(complex_blocks(min_rows=0, max_rows=4, max_cols=6))
def test_vectors_roundtrip_matches_the_oracle(vectors):
    frame = np.ascontiguousarray(vectors.T)
    dim = frame.shape[0]
    text = json.dumps(kio.encode_vectors(frame))
    assert text == json.dumps(oracles.encode_vectors_by_scalar(frame))
    items = json.loads(text)
    decoded = kio.decode_vectors(items, dim)
    assert _bits(decoded) == _bits(oracles.decode_vectors_by_scalar(items, dim))
    assert _bits(decoded) == _bits(frame)


@settings(max_examples=100, deadline=None)
@given(complex_blocks())
def test_bare_real_blocks_match_the_oracle(m):
    # a real-only J as a user writes it, and as a float64 array encodes
    real = np.ascontiguousarray(m.real)
    assert json.dumps(kio.encode_matrix(real)) == json.dumps(oracles.encode_matrix_by_scalar(real))
    rows = json.loads(json.dumps(real.tolist()))
    assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))


def test_zero_column_relation_document():
    space = kr.make_krein(np.diag([1.0, -1.0, 1.0]))
    empty = relation(space, space, np.zeros((6, 0)))
    doc = json.loads(_same_document(kio.document_for(space, empty),
                                    oracles.document_by_scalar(space, empty)))
    assert doc["relation"]["graph"] == []
    _decodes_like_the_oracle(doc)
    assert kio.load_document(doc)["relation"].graph.frame.shape == (6, 0)


def test_fixture_reencodes_like_the_oracle():
    with open(FIXTURE, encoding="utf-8") as fh:
        _decodes_like_the_oracle(json.load(fh))
    out = kio.load_document(FIXTURE)
    args = (out["space"], out["relation"], out["triple"])
    doc = json.loads(_same_document(kio.document_for(*args), oracles.document_by_scalar(*args)))
    _decodes_like_the_oracle(doc)


def test_pipeline_scale_documents_match_the_oracle():
    # the documents of a benchmark request at n = 48, d = 12
    t = gen.gen_symmetric(gen.InstanceSpec(5, 48, (20, 28), 12))
    triple = gen.gen_triple(t, 5)
    u = gen.gen_standard_unitary(5, t.src, t.src)
    planted = gen.planted_similar_triple(triple, u, t.src)
    for args in ((t.src, t, triple), (t.src, planted.parent, planted), (t.src, t)):
        text = _same_document(kio.document_for(*args), oracles.document_by_scalar(*args))
        _decodes_like_the_oracle(json.loads(text))


@pytest.mark.parametrize("block", [
    [[1.0, "a"], [0.0, 1.0]],
    [[1.0, None], [0.0, 1.0]],
    [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
    [[1.0, 0.0], [0.0]],
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    [[1.0, [0.0, 1.0]], [0.0, 1.0]],
    [[[1.0, 0.0], 0.0], [[0.0, 0.0], [1.0, 0.0]]],
    [[True, False], [False, True]],
    [1.0, 0.0],
    5,
], ids=["string", "none", "triple-entries", "ragged-reals", "ragged-pairs",
        "mixed-real-then-pair", "mixed-pair-then-real", "booleans", "flat", "scalar"])
def test_malformed_blocks_rejected(block):
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.decode_matrix(block)
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.decode_vectors(block, 2)


def test_malformed_blocks_rejected_in_documents():
    with open(FIXTURE, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    doc["triple"]["gamma"][0][1] = 0.0
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.load_document(doc)
    doc = json.loads(text)
    doc["relation"]["graph"][0][2] = None
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.load_document(doc)


@pytest.mark.parametrize("items", [[[[1.0, 0.0]] * 3], [[1.0] * 5, [0.0] * 5]],
                         ids=["short-pairs", "long-reals"])
def test_wrong_vector_length_rejected(items):
    with pytest.raises(kio.DocumentError, match="vector length .* does not match dim 4"):
        kio.decode_vectors(items, 4)
