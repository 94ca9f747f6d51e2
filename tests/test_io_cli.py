import json
import os

import numpy as np
import pytest

import kreinrel as kr
from kreinrel import boundary as bnd, generators as gen, io as kio, subspaces as sub
from kreinrel.cli import main
from kreinrel.tolerances import DEFAULT_TOL

FIXTURE = os.path.join(os.path.dirname(kio.__file__), "data", "ex4.json")


def test_fixture_loads_and_matches_golden(c4):
    out = kio.load_document(FIXTURE)
    assert out["space"].signature == (2, 2)
    assert out["triple"].boundary_dim == 3
    assert np.abs(out["triple"].beta).max() < 1e-12
    from kreinrel import subspaces as sub
    assert sub.equal(out["relation"].graph, c4["T"].graph)
    assert sub.equal(out["triple"].t0.graph, c4["triple"].t0.graph)


def test_document_roundtrip(tmp_path, c4):
    doc = kio.document_for(c4["space"], c4["T"], c4["triple"])
    path = tmp_path / "roundtrip.json"
    kio.save_document(str(path), doc)
    again = kio.load_document(str(path))
    from kreinrel import subspaces as sub
    assert sub.equal(again["triple"].t1.graph, c4["triple"].t1.graph)


def test_malformed_document_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": {"dim": 2, "J": [[1, 0], [0, 2]]}}))
    with pytest.raises(Exception):
        kio.load_document(str(bad))
    bad.write_text(json.dumps({"relation": {"graph": []}}))
    with pytest.raises(kio.DocumentError):
        kio.load_document(str(bad))


def test_ragged_gamma_rejected():
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["triple"]["gamma"][1] = doc["triple"]["gamma"][1][:-1]
    with pytest.raises(kio.DocumentError, match="malformed matrix"):
        kio.load_document(doc)


def _old_triple_block(doc: dict, with_basis: bool) -> dict:
    """ex4 in the format that gave Gamma on the columns of a basis of T+:
    Gamma basis on C^7, beside that basis when `with_basis`."""
    basis = np.eye(8)[:, :7]
    basis[7, 2] = 1
    gamma = kio.decode_matrix(doc["triple"]["gamma"]) @ basis
    doc["triple"]["gamma"] = kio.encode_matrix(gamma)
    if with_basis:
        doc["triple"]["tplus_basis"] = kio.encode_vectors(basis)
    return doc


@pytest.mark.parametrize("with_basis", [True, False], ids=["tplus_basis", "gamma-on-c7"])
def test_an_old_triple_block_is_an_input_error(tmp_path, capsys, with_basis):
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = _old_triple_block(json.load(fh), with_basis)
    with pytest.raises(kio.DocumentError, match=r"6 x 8 matrix .* gamma @ pinv\(tplus_basis\)"):
        kio.load_document(doc)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert main(["triple", "validate", str(path)]) == 2
    assert "tplus_basis" in capsys.readouterr().err


def test_cli_validate_golden(capsys):
    code = main(["triple", "validate", FIXTURE])
    out = capsys.readouterr().out
    assert code == 0
    assert "boundary dim 3" in out
    assert "T0 = ker Gamma0: dim 4" in out


def test_cli_weyl_golden(capsys):
    code = main(["triple", "weyl", "--z", "1+2i", FIXTURE])
    out = capsys.readouterr().out
    assert code == 0
    assert "M(1+2i)" in out
    assert "+1+2i" in out
    assert "-3+4i" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", ["1e400j", "1+1e400j", "nan"])
def test_cli_rejects_a_point_that_is_not_finite(z, capsys):
    # an input error before any arithmetic: no numpy warning, exit 2
    assert main(["triple", "weyl", "--z", z, FIXTURE]) == 2
    assert main(["similar", "--grid", f"1j,{z}", FIXTURE, FIXTURE]) == 2
    assert "not finite" in capsys.readouterr().err


def test_cli_relation_and_ext(capsys):
    assert main(["relation", "check", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "symmetric: True" in out and "self-adjoint: False" in out
    assert main(["ext", "defects", FIXTURE]) == 0
    assert "(3, 3)" in capsys.readouterr().out
    assert main(["ext", "audit", "--seed", "5", FIXTURE]) == 0


def test_cli_relation_parts_and_adjoint(capsys):
    assert main(["relation", "parts", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "dom: dim 1" in out and "mul: dim 0" in out
    assert main(["relation", "adjoint", FIXTURE]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert kio.decode_vectors(doc["relation"]["graph"], 8).shape == (8, 7)


@pytest.mark.parametrize("metric", ["krein", "hilbert"])
def test_cli_adjoint_document_hosts_the_adjoint(metric, capsys):
    from kreinrel import relations as rel, subspaces as sub
    t = kio.load_document(FIXTURE)["relation"]
    assert main(["relation", "adjoint", "--metric", metric, FIXTURE]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected_j = np.eye(4) if metric == "hilbert" else t.src.J
    assert np.array_equal(kio.decode_matrix(doc["space"]["J"]), expected_j)
    again = kio.load_document(doc)["relation"]
    assert sub.equal(rel.adjoint(again, metric).graph, t.graph)
    assert sub.equal(rel.adjoint(again, "krein").graph, t.graph)


def test_cli_similar_positive_and_negative(tmp_path, capsys):
    out = kio.load_document(FIXTURE)
    tri = out["triple"]
    u = gen.gen_standard_unitary(11, tri.space, tri.space)
    planted = gen.planted_similar_triple(tri, u, tri.space)
    pos = tmp_path / "planted.json"
    kio.save_document(str(pos), kio.document_for(tri.space, planted.parent, planted))
    scaled = gen.scaled_triple(tri, 2.0)
    neg = tmp_path / "scaled.json"
    kio.save_document(str(neg), kio.document_for(tri.space, scaled.parent, scaled))

    assert main(["similar", FIXTURE, str(pos)]) == 0
    assert "boundary identity residual" in capsys.readouterr().out
    assert main(["similar", FIXTURE, str(neg)]) == 1
    assert "not similar" in capsys.readouterr().out


def test_cli_verify_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "appendix", "--trials", "3", "--seed", "4",
                 "--format", "json", "--out", str(report_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {p["suite"] for p in payload} == {"eqgh", "lemma_o", "sfn", "p3"}
    assert main(["report", str(report_path)]) == 0
    assert "eqgh" in capsys.readouterr().out
    assert main(["report", str(report_path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_cli_verify_writes_a_failed_k_shift_as_json(tmp_path, monkeypatch, capsys):
    # the k-shift flags are numpy booleans, carried into the failure's data
    real = bnd.k_shift_equivalence
    monkeypatch.setattr(bnd, "k_shift_equivalence",
                        lambda a, b: {**real(a, b), "equivalent": np.False_})
    path = tmp_path / "report.json"
    assert main(["verify", "--suite", "laws", "--trials", "1", "--out", str(path)]) == 1
    capsys.readouterr()
    with open(path) as fh:
        (report,) = json.load(fh)
    assert not report["ok"]
    assert {f["exists_k"] for f in report["failures"]} == {True, False}


def test_cli_input_errors(tmp_path, capsys):
    assert main(["relation", "check", str(tmp_path / "missing.json")]) == 2
    assert "input error" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["relation", "check", str(garbled)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": {"dim": 2, "J": [[1, 0], [0, 2]]}}))
    assert main(["relation", "check", str(bad)]) == 2


@pytest.mark.parametrize("block", ["space", "relation", "triple", "document"])
def test_cli_block_that_is_not_an_object_is_an_input_error(block, tmp_path, capsys):
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    if block == "space":
        doc = {"space": []}
    elif block == "document":
        doc = ["space"]
    else:
        doc[block] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["relation", "check", str(bad)]) == 2
    what = "document is not" if block == "document" else f"the '{block}' block is not"
    assert capsys.readouterr().err.startswith(f"input error: {what} a JSON object")


@pytest.mark.parametrize("block, key", [("space", "dim"), ("triple", "boundary_dim")])
@pytest.mark.parametrize("value", [None, [2], 4.7, "4", "3", 3.0, True],
                         ids=["null", "list", "4.7", "'4'", "'3'", "3.0", "true"])
def test_cli_dimension_that_is_not_a_number_is_an_input_error(block, key, value, tmp_path,
                                                              capsys):
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[block][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["relation", "check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: bad {block} block")


@pytest.mark.parametrize("argv, env_seed", [
    (["report", "missing.json"], None),
    (["triple", "transform", FIXTURE], None),
    (["ext", "nclass", FIXTURE], None),
    (["verify", "--trials", "1"], "seven"),
    (["report", FIXTURE, "--format", "json"], None),
    (["report", "numbers.json"], None),
    (["report", "null-residual.json"], None),
    (["report", "text-residual.json"], None),
    (["ext", "extend", FIXTURE, "space-only.json"], None),
    (["ext", "reduce", FIXTURE, "space-only.json"], None),
    (["ext", "nclass", FIXTURE, "space-only.json"], None),
    (["verify", "--trials", "0"], None),
    (["verify", "--trials", "-3"], None),
    (["--tol-angle", "inf", "triple", "validate", FIXTURE], None),
    (["--tol-angle", "2", "triple", "validate", FIXTURE], None),
    (["--tol-rank-abs", "inf", "relation", "check", FIXTURE], None),
    (["--tol-rank-rel", "1", "verify", "--trials", "1"], None),
], ids=["report-missing-file", "transform-without-matrix", "nclass-without-second",
        "non-integer-env-seed", "report-not-a-report", "report-list-of-numbers",
        "report-null-residual", "report-text-residual", "extend-second-without-relation",
        "reduce-second-without-relation", "nclass-second-without-relation",
        "verify-zero-trials", "verify-negative-trials", "infinite-angle-tolerance",
        "angle-tolerance-past-a-right-angle", "infinite-rank-floor", "rank-cut-of-one"])
def test_cli_usage_errors_are_input_errors(argv, env_seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open(FIXTURE, encoding="utf-8") as fh:
        (tmp_path / "space-only.json").write_text(json.dumps({"space": json.load(fh)["space"]}))
    (tmp_path / "numbers.json").write_text("[1, 2]")
    (tmp_path / "null-residual.json").write_text('[{"suite": "x", "max_residual": null}]')
    (tmp_path / "text-residual.json").write_text('[{"suite": "x", "max_residual": "big"}]')
    if env_seed is not None:
        monkeypatch.setenv("KREINREL_SEED", env_seed)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    if argv[-1].endswith("-residual.json"):
        assert "suite 'x': max_residual" in err
    if argv[-1] == "space-only.json":
        assert err == "input error: document has no relation block\n"


def test_cli_extend_reduce(tmp_path, capsys, c4):
    space, tri = c4["space"], c4["triple"]
    t_doc = tmp_path / "t.json"
    kio.save_document(str(t_doc), kio.document_for(space, c4["T"]))
    n_doc = tmp_path / "n.json"
    kio.save_document(str(n_doc), kio.document_for(space, tri.n_rel))
    assert main(["ext", "extend", str(t_doc), str(n_doc)]) == 0
    extended = json.loads(capsys.readouterr().out)
    t0_doc = tmp_path / "t0.json"
    t0_doc.write_text(json.dumps(extended))
    assert main(["ext", "reduce", str(t_doc), str(t0_doc)]) == 0
    reduced = kio.load_document(json.loads(capsys.readouterr().out))
    from kreinrel import subspaces as sub
    assert sub.equal(reduced["relation"].graph, tri.n_rel.graph)


def test_cli_triple_transform(capsys):
    x = np.zeros((6, 6))
    x[:3, 3:] = np.eye(3)
    x[3:, :3] = -np.eye(3)
    assert main(["triple", "transform", FIXTURE, "--matrix",
                 json.dumps(x.tolist())]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert kio.load_document(doc)["triple"].boundary_dim == 3
    bad = np.eye(6) * 2
    assert main(["triple", "transform", FIXTURE, "--matrix",
                 json.dumps(bad.tolist())]) == 1
    capsys.readouterr()
    # the identity keeps gamma; its document, given as a packed block, reloads
    # onto the adjoint of the reloaded relation, with the same T0, T1 and M(i)
    tri = kio.load_document(FIXTURE)["triple"]
    assert np.array_equal(bnd.transform(tri, np.eye(6)).gamma, tri.gamma)
    assert main(["triple", "transform", FIXTURE, "--matrix",
                 json.dumps(kio.encode_matrix(np.eye(6)))]) == 0
    same = kio.load_document(json.loads(capsys.readouterr().out))["triple"]
    for name in ("t0", "t1"):
        assert sub.equal(getattr(same, name).graph, getattr(tri, name).graph)
    want = bnd.weyl(tri, 1j).operator_form
    assert np.linalg.norm(bnd.weyl(same, 1j).operator_form - want) <= 1e-12 * np.linalg.norm(want)
    # a block mixing pairs and bare reals is an input error
    mixed = np.eye(6).tolist()
    mixed[0][0] = [1.0, 0.0]
    assert main(["triple", "transform", FIXTURE, "--matrix", json.dumps(mixed)]) == 2
    assert "malformed matrix" in capsys.readouterr().err


def test_cli_triple_gamma(capsys):
    assert main(["triple", "gamma", "--z", "2i", FIXTURE]) == 0
    assert "gamma(2i)" in capsys.readouterr().out


def test_cli_triple_inverse(capsys):
    tri = kio.load_document(FIXTURE)["triple"]
    assert main(["triple", "inverse", FIXTURE]) == 0
    printed, label = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  ["):
            printed[label].append([complex(x.replace("i", "j"))
                                   for x in line.strip(" []").split(", ")])
        else:
            label = line
            printed[label] = []
    assert list(printed) == ["Gamma0^(-1) =", "Gamma1^(-1) =", "beta ="]
    for got, want in zip(printed.values(), (tri.g0inv, tri.g1inv, tri.beta)):
        assert np.array(got).shape == want.shape
        assert np.abs(np.array(got) - want).max() < 1e-9


@pytest.mark.parametrize("z", ["0.7+1e-3i", "0.7+1e-4i", "0.7+1e-6i"])
def test_cli_loose_policy_near_an_eigenvalue_of_t(z, tmp_path, capsys, t2_plus_point):
    tri = t2_plus_point
    path = tmp_path / "t2p.json"
    kio.save_document(str(path), kio.document_for(tri.space, tri.parent, tri))
    loose = ["--tol-rank-rel", "1e-3", "--tol-rank-abs", "1e-6", "--tol-angle", "1e-4"]
    assert main(loose + ["triple", "weyl", "--z", z, str(path)]) == 0
    assert "no operator form" in capsys.readouterr().out
    assert main(loose + ["triple", "gamma", "--z", z, str(path)]) == 1
    assert capsys.readouterr().err.startswith("rejected: gamma-field undefined")


def test_cli_mathematical_rejection(tmp_path, capsys, c4, c4_false_n):
    # a symmetric-but-wrong candidate for the N-class is a rejection, not a crash
    out = kio.load_document(FIXTURE)
    space, t = out["space"], out["relation"]
    doc_t = tmp_path / "t.json"
    kio.save_document(str(doc_t), kio.document_for(space, t))
    assert main(["ext", "nclass", str(doc_t), str(doc_t)]) == 1
    assert "rejected" in capsys.readouterr().out
    # candidates that meet the range conditions but do not give a
    # self-adjoint T ⊕ N
    kio.save_document(str(doc_t), kio.document_for(c4["space"], c4["T"]))
    doc_n = tmp_path / "n.json"
    for n in c4_false_n.values():
        kio.save_document(str(doc_n), kio.document_for(c4["space"], n))
        for command in ("nclass", "extend"):
            assert main(["ext", command, str(doc_t), str(doc_n)]) == 1
            out = capsys.readouterr()
            assert "rejected: T ⊕ N is not hyper-maximal neutral" in out.out + out.err


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KREINREL_SEED", "31")
    from kreinrel.cli import _policy, build_parser
    args = build_parser().parse_args(["verify", "--trials", "1"])
    assert args.seed == 31
    assert _policy(args) == DEFAULT_TOL
