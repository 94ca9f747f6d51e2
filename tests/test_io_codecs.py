"""The block codecs of `kreinrel.io` against the one-call-per-scalar oracles:
byte-identical JSON when packing, bit-identical arrays when decoding either
form, and documents that load to the same bits packed or nested."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kreinrel as kr
from kreinrel import generators as gen, io as kio
from kreinrel.cli import main

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


def _through_json(block):
    return json.loads(json.dumps(block))


def _loads_like_the_oracle(doc: dict, nested: dict):
    """A packed document and the oracle's nested one, each through JSON: block
    by block they decode to the same bits, and they load to the same J, graph
    frame and Gamma F."""
    doc, nested = _through_json(doc), _through_json(nested)
    assert {k: set(v) for k, v in doc.items()} == {k: set(v) for k, v in nested.items()}
    n2 = 2 * doc["space"]["dim"]
    for key, name in (("space", "J"), ("triple", "gamma")):
        if key in doc:
            assert (_bits(kio.decode_matrix(doc[key][name]))
                    == _bits(oracles.decode_matrix_by_scalar(nested[key][name])))
    if "relation" in doc:
        assert (_bits(kio.decode_vectors(doc["relation"]["graph"], n2))
                == _bits(oracles.decode_vectors_by_scalar(nested["relation"]["graph"], n2)))
    a, b = kio.load_document(doc), kio.load_document(nested)
    pairs = [(a["space"].J, b["space"].J)]
    if a["relation"] is not None:
        pairs.append((a["relation"].graph.frame, b["relation"].graph.frame))
    if a["triple"] is not None:
        pairs.append((a["triple"].gamma, b["triple"].gamma))
    for x, y in pairs:
        assert _bits(np.ascontiguousarray(x)) == _bits(np.ascontiguousarray(y))


def _decodes_like_the_oracle(doc: dict):
    """Each nested block of a hand-written document decodes like the oracle."""
    n2 = 2 * doc["space"]["dim"]
    matrices = [doc["space"]["J"]] + ([doc["triple"]["gamma"]] if "triple" in doc else [])
    vectors = [doc["relation"]["graph"]] if "relation" in doc else []
    for rows in matrices:
        assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))
    for items in vectors:
        assert (_bits(kio.decode_vectors(items, n2))
                == _bits(oracles.decode_vectors_by_scalar(items, n2)))


@settings(max_examples=200, deadline=None)
@given(complex_blocks())
def test_matrix_roundtrip_matches_the_oracle(m):
    text = json.dumps(kio.encode_matrix(m))
    assert text == json.dumps(oracles.encode_packed_by_scalar(m))
    assert _bits(kio.decode_matrix(json.loads(text))) == _bits(m)
    # the hand-written form decodes as before
    rows = _through_json(oracles.encode_matrix_by_scalar(m))
    assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))
    assert _bits(kio.decode_matrix(rows)) == _bits(m)


@settings(max_examples=200, deadline=None)
@given(complex_blocks(min_rows=0, max_rows=4, max_cols=6))
def test_vectors_roundtrip_matches_the_oracle(vectors):
    frame = np.ascontiguousarray(vectors.T)
    dim = frame.shape[0]
    text = json.dumps(kio.encode_vectors(frame))
    assert text == json.dumps(oracles.encode_packed_by_scalar(vectors))
    assert _bits(kio.decode_vectors(json.loads(text), dim)) == _bits(frame)
    items = _through_json(oracles.encode_vectors_by_scalar(frame))
    decoded = kio.decode_vectors(items, dim)
    assert _bits(decoded) == _bits(oracles.decode_vectors_by_scalar(items, dim))
    assert _bits(decoded) == _bits(frame)


@settings(max_examples=100, deadline=None)
@given(complex_blocks())
def test_bare_real_blocks_match_the_oracle(m):
    # a real-only J as a user writes it, and as a float64 array encodes
    real = np.ascontiguousarray(m.real)
    text = json.dumps(kio.encode_matrix(real))
    assert text == json.dumps(oracles.encode_packed_by_scalar(real))
    assert _bits(kio.decode_matrix(json.loads(text))) == _bits(real.astype(np.complex128))
    rows = _through_json(real.tolist())
    assert _bits(kio.decode_matrix(rows)) == _bits(oracles.decode_matrix_by_scalar(rows))


def test_packed_blocks_keep_every_nan_bit():
    # NaNs with sign and payload, which the nested form cannot carry
    words = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000002,
                      0x0000000000000000], dtype="<u8")
    m = words.view(np.complex128).reshape(1, 2)
    assert kio.decode_matrix(_through_json(kio.encode_matrix(m))).view("<u8").tolist() == \
        [words.tolist()]


def test_zero_column_relation_document():
    space = kr.make_krein(np.diag([1.0, -1.0, 1.0]))
    empty = relation(space, space, np.zeros((6, 0)))
    doc = kio.document_for(space, empty)
    assert doc["relation"]["graph"] == {"shape": [0, 6], "base64": ""}
    _loads_like_the_oracle(doc, oracles.document_by_scalar(space, empty))
    assert kio.load_document(doc)["relation"].graph.frame.shape == (6, 0)


def test_fixture_reencodes_like_the_oracle():
    with open(FIXTURE, encoding="utf-8") as fh:
        _decodes_like_the_oracle(json.load(fh))
    out = kio.load_document(FIXTURE)
    args = (out["space"], out["relation"], out["triple"])
    _loads_like_the_oracle(kio.document_for(*args), oracles.document_by_scalar(*args))


def test_pipeline_scale_documents_match_the_oracle():
    # the documents of a benchmark request at n = 48, d = 12; packed, each is
    # at most half the length of its nested form
    t = gen.gen_symmetric(gen.InstanceSpec(5, 48, (20, 28), 12))
    triple = gen.gen_triple(t, 5)
    u = gen.gen_standard_unitary(5, t.src, t.src)
    planted = gen.planted_similar_triple(triple, u, t.src)
    for args in ((t.src, t, triple), (t.src, planted.parent, planted), (t.src, t)):
        doc, nested = kio.document_for(*args), oracles.document_by_scalar(*args)
        _loads_like_the_oracle(doc, nested)
        assert len(json.dumps(doc)) <= len(json.dumps(nested)) / 2


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


ONE = kio.encode_matrix([[1 + 2j]])  # 16 bytes, "AAAAAAAA8D8AAAAAAAAAQA=="


@pytest.mark.parametrize("block", [
    {**ONE, "order": "C"},
    {"shape": [1, 1]},
    {"shape": [True, 1], "base64": ONE["base64"]},
    {"shape": [1.0, 1], "base64": ONE["base64"]},
    {"shape": [-1, -1], "base64": ONE["base64"]},
    {"shape": [1, 1, 1], "base64": ONE["base64"]},
    {"shape": "1x1", "base64": ONE["base64"]},
    {"shape": [1, 1], "base64": 5},
    {"shape": [1, 1], "base64": ONE["base64"][:8] + "\n" + ONE["base64"][8:]},
    {"shape": [1, 1], "base64": ONE["base64"].replace("A", "-")},
    {"shape": [1, 1], "base64": ONE["base64"][:-4]},
    {"shape": [1, 1], "base64": ONE["base64"][:-1]},
    {"shape": [1, 2], "base64": ONE["base64"]},
], ids=["extra-key", "no-base64", "bool-rows", "float-rows", "negative-shape", "three-dims",
        "string-shape", "number-base64", "newline", "outside-alphabet", "short-bytes",
        "bad-padding", "long-shape"])
def test_malformed_packed_blocks_rejected(block, tmp_path, capsys):
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.decode_matrix(block)
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.decode_vectors(block, 1)
    out = kio.load_document(FIXTURE)
    doc = kio.document_for(out["space"], out["relation"], out["triple"])
    for key, name in (("space", "J"), ("relation", "graph"), ("triple", "gamma")):
        bad = json.loads(json.dumps(doc))
        bad[key][name] = block
        with pytest.raises(kio.DocumentError, match="malformed matrix"):
            kio.load_document(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["triple", "validate", str(path)]) == 2
    assert "malformed matrix" in capsys.readouterr().err


@pytest.mark.parametrize("items", [[[[1.0, 0.0]] * 3], [[1.0] * 5, [0.0] * 5]],
                         ids=["short-pairs", "long-reals"])
def test_wrong_vector_length_rejected(items):
    with pytest.raises(kio.DocumentError, match="vector length .* does not match dim 4"):
        kio.decode_vectors(items, 4)
