import json

import pytest

from ybh.cli import main
from ybh.cohomology import cocycle_basis
from ybh.errors import InputError, ValidationError
from ybh.fixtures import build_fixture
from ybh.hopf import group_hopf
from ybh.constructions import FiniteGroup
from ybh.scalars import GF, QQ
from ybh.serialize import (algebra_from_json, algebra_to_json, canonical_json,
                           cochain2_to_json, load_algebra, series_to_json,
                           tensor_from_json, tensor_to_json)
from ybh.deformation import series_from_cocycle
from ybh.rng import SplitMix64
from ybh.tensor import random_map


def test_braided_round_trip(tmp_path):
    for name, field in [("heap_z2", QQ), ("mcq_z2_z2", GF(3))]:
        b = build_fixture(name, field)
        doc = algebra_to_json(b)
        b2 = algebra_from_json(doc)
        assert b2.mu == b.mu and b2.r == b.r and b2.labels == b.labels
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(doc))
        b3 = load_algebra(str(path))
        assert b3.mu == b.mu and b3.r == b.r


def test_hopf_round_trip():
    h = group_hopf(FiniteGroup.cyclic(3), GF(2))
    doc = algebra_to_json(h)
    h2 = algebra_from_json(doc)
    assert h2.mu == h.mu and h2.delta == h.delta and h2.antipode == h.antipode


def test_tensor_document_round_trip():
    rng = SplitMix64(51)
    t = random_map(QQ, 3, 2, 1, rng, span=5)
    assert tensor_from_json(tensor_to_json(t), QQ) == t


def test_non_associative_document_rejected():
    doc = {"schema": "ybh/1", "field": {"kind": "rational"}, "dim": 2,
           "basis": ["e0", "e1"],
           "mu": [[0, 0, 1, "1"], [0, 1, 0, "1"]],
           "R": [[i, j, j, i, "1"] for i in range(2) for j in range(2)]}
    with pytest.raises(ValidationError) as err:
        algebra_from_json(doc)
    assert err.value.witness == (0, 0, 0)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "ybh/1", "dim": ')
    with pytest.raises(InputError) as err:
        load_algebra(str(path))
    assert "line" in str(err.value)


def test_schema_and_shape_validation():
    with pytest.raises(InputError):
        algebra_from_json({"schema": "other/9", "field": {"kind": "rational"}, "dim": 1})
    with pytest.raises(InputError):
        algebra_from_json({"schema": "ybh/1", "field": {"kind": "prime", "p": 6},
                           "dim": 1, "mu": [], "R": []})
    with pytest.raises(InputError):
        algebra_from_json({"schema": "ybh/1", "field": {"kind": "rational"},
                           "dim": 2, "mu": [[0, 0, 5, "1"]], "R": []})


def _write_fixture(tmp_path, name, field):
    b = build_fixture(name, field)
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(algebra_to_json(b)))
    return b, path


def test_cli_check_exit_codes(tmp_path, capsys):
    _, path = _write_fixture(tmp_path, "z2_adjoint", QQ)
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_ok"] is True and report["kind"] == "braided"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 2

    # failing axioms are results, not input errors: exit 1 with witnesses
    doc = json.loads(path.read_text())
    doc["R"] = [[i, j, i, j, "1"] for i in range(2) for j in range(2)]  # R = id
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(doc))
    assert main(["check", str(failing)]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {e["name"]: e for e in report["checks"] if not e["ok"]}
    assert "yi" in failed and failed["yi"]["witness"] is not None


def test_cli_cohomology_report(tmp_path, capsys):
    _, path = _write_fixture(tmp_path, "dual_trivial", GF(2))
    assert main(["cohomology", str(path), "--degree", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h2"] == report["dim_z2"] - report["dim_b2"]
    assert report["h2"] > 0
    assert report["cochain_dims"]["c2"] == 24


def test_cli_cohomology_guard(tmp_path, capsys, monkeypatch):
    _, path = _write_fixture(tmp_path, "s3_adjoint", GF(2))
    assert main(["cohomology", str(path)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("YBH_MAX_DIM", "2")
    _, small = _write_fixture(tmp_path, "z2_adjoint", QQ)
    assert main(["cohomology", str(small)]) == 0


def test_cli_deform_verify_and_extend(tmp_path, capsys):
    b = build_fixture("z2_adjoint", QQ)
    cocycles = cocycle_basis(b)
    series = series_from_cocycle(b, cocycles[0])
    good = tmp_path / "series.json"
    good.write_text(canonical_json(series_to_json(series)))
    assert main(["deform", "--series", str(good)]) == 0
    capsys.readouterr()

    bad_series = series_to_json(series)
    bad_series["phi_terms"][0]["entries"] = [[0, 0, "1"], [3, 3, "2"]]
    badf = tmp_path / "bad_series.json"
    badf.write_text(canonical_json(bad_series))
    assert main(["deform", "--series", str(badf)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and "failure" in report

    cdoc = {"algebra": algebra_to_json(b)}
    cdoc.update(cochain2_to_json(cocycles[0]))
    cfile = tmp_path / "cocycle.json"
    cfile.write_text(canonical_json(cdoc))
    code = main(["deform", "--extend", str(cfile)])
    report = json.loads(capsys.readouterr().out)
    assert report["obstruction_is_cocycle"] is True
    assert code == (0 if report["ok"] else 1)


def test_cli_deform_certificate_pinned(tmp_path, capsys):
    b = build_fixture("z2_adjoint", GF(2))
    cocycles = cocycle_basis(b)
    for index, row_index in ((1, 79), (2, 39)):
        cdoc = {"algebra": algebra_to_json(b)}
        cdoc.update(cochain2_to_json(cocycles[index]))
        cfile = tmp_path / f"cocycle{index}.json"
        cfile.write_text(canonical_json(cdoc))
        assert main(["deform", "--extend", str(cfile)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"] == {"rank": 16, "rank_augmented": 17,
                                         "row_index": row_index}


def test_cli_construct_fixture_and_input(tmp_path, capsys):
    out = tmp_path / "alg.json"
    assert main(["construct", "--fixture", "heap_z2", "--field", "prime",
                 "--prime", "3", "--out", str(out)]) == 0
    b = load_algebra(str(out))
    assert b.dim == 4

    spec = {"construction": "mcq",
            "components": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]}
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps(spec))
    assert main(["construct", "--input", str(sfile), "--field", "q"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4 and doc["provenance"]["construction"] == "mcq"

    assert main(["construct", "--fixture", "nope"]) == 2


def test_cli_selftest_deterministic(tmp_path, capsys):
    args = ["selftest", "--seed", "11", "--prime", "13", "--trials", "3",
            "--max-dim", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["all_ok"] is True
    assert any(c["name"].startswith("obstruction-cocycle") for c in report["checks"])


def test_cli_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--degree"])
    assert exc.value.code == 2


def test_reports_are_byte_identical_for_same_input(tmp_path, capsys):
    _, path = _write_fixture(tmp_path, "z2_adjoint", QQ)
    assert main(["check", str(path)]) == 0
    a = capsys.readouterr().out
    assert main(["check", str(path)]) == 0
    b = capsys.readouterr().out
    assert a == b


def _assert_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Traceback" not in err


def test_cli_bad_max_dim_environment_exits_2(tmp_path, capsys, monkeypatch):
    _, path = _write_fixture(tmp_path, "z2_adjoint", QQ)
    monkeypatch.setenv("YBH_MAX_DIM", "abc")
    _assert_input_error(capsys, ["cohomology", str(path)])


@pytest.mark.parametrize("p", ["3", True, 3.0])
def test_cli_field_modulus_must_be_an_int(tmp_path, capsys, p):
    _, path = _write_fixture(tmp_path, "z2_adjoint", GF(3))
    doc = json.loads(path.read_text())
    doc["field"]["p"] = p
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        _assert_input_error(capsys, [command, str(path)])


@pytest.mark.parametrize("field", [QQ, GF(3)])
@pytest.mark.parametrize("key", ["mu", "R", "unit"])
def test_cli_scalar_must_be_a_string(tmp_path, capsys, field, key):
    _, path = _write_fixture(tmp_path, "z2_adjoint", field)
    doc = json.loads(path.read_text())
    doc[key][0][-1] = int(doc[key][0][-1])
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        _assert_input_error(capsys, [command, str(path)])


@pytest.mark.parametrize("dim,index", [(1, False), (True, 0)])
def test_cli_dim_and_indices_must_be_ints(tmp_path, capsys, dim, index):
    # the one-dimensional algebra k with mu = R = 1 is braided; a bool where
    # an int belongs must not pass as 0 or 1
    doc = {"schema": "ybh/1", "field": {"kind": "rational"}, "dim": dim,
           "mu": [[index, 0, 0, "1"]], "R": [[0, 0, 0, 0, "1"]]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        _assert_input_error(capsys, [command, str(path)])
    doc["dim"], doc["mu"][0][0] = 1, 0
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [("mu", [5]), ("mu", 5), ("basis", 3)])
def test_cli_structures_must_be_lists(tmp_path, capsys, key, value):
    _, path = _write_fixture(tmp_path, "z2_adjoint", GF(2))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        _assert_input_error(capsys, [command, str(path)])


@pytest.mark.parametrize("field,value", [("dim", "2"), ("dim", 2.0),
                                         ("out_arity", True), ("entries", ["0", 0, "1"])])
def test_cli_tensor_document_fields_must_be_ints(tmp_path, capsys, field, value):
    b = build_fixture("z2_adjoint", QQ)
    cocycle = next(c for c in cocycle_basis(b) if c.psi.nnz())
    cdoc = {"algebra": algebra_to_json(b)}
    cdoc.update(cochain2_to_json(cocycle))
    if field == "entries":
        cdoc["psi"]["entries"][0] = value
    else:
        cdoc["psi"][field] = value
    cfile = tmp_path / "cocycle.json"
    cfile.write_text(json.dumps(cdoc))
    _assert_input_error(capsys, ["deform", "--extend", str(cfile)])


def test_cli_check_dimension_guard(tmp_path, capsys, monkeypatch):
    doc = {"schema": "ybh/1", "field": {"kind": "rational"}, "dim": 1000000,
           "mu": [[0, 0, 0, "1"]], "R": [[0, 0, 0, 0, "1"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and "Traceback" not in err
    # YBH_MAX_DIM overrides the default bound in both directions
    _, small = _write_fixture(tmp_path, "z2_adjoint", QQ)
    monkeypatch.setenv("YBH_MAX_DIM", "1")
    assert main(["check", str(small)]) == 2
    assert capsys.readouterr().err.startswith("resource guard: ")
    monkeypatch.setenv("YBH_MAX_DIM", "2")
    assert main(["check", str(small)]) == 0
    capsys.readouterr()


def test_cli_selftest_max_dim_zero_is_kept(capsys):
    assert main(["selftest", "--trials", "1", "--max-dim", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_dim"] == 0 and report["checks"] == []
