import json

import pytest

from ybh.cli import main
from ybh.cohomology import YBH2Cochain, cocycle_basis
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
from ybh.tensor import TensorMap, random_map


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


@pytest.mark.parametrize("argv", [
    ["cohomology", "DOC", "--prime", "2"],
    ["cohomology", "DOC", "--field", "q", "--prime", "2"],
    ["construct", "--fixture", "z2_adjoint", "--prime", "2"],
], ids=["cohomology-no-field", "cohomology-field-q", "construct"])
def test_cli_prime_needs_field_prime(tmp_path, capsys, argv):
    # a --prime that no prime --field reads exits 2 rather than answering over Q
    _, path = _write_fixture(tmp_path, "dual_trivial", QQ)
    assert main([str(path) if a == "DOC" else a for a in argv]) == 2
    assert capsys.readouterr().err == "input error: --prime needs --field prime\n"


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


@pytest.mark.parametrize("spec", [
    {"construction": "heap", "group": 5},
    [1, 2],
    {"construction": "adjoint", "group": [["x"]]},
    {"construction": "mcq", "components": 5},
    {"construction": "mcq", "components": [[[0]]], "star": 5},
], ids=["group-not-a-table", "spec-not-an-object", "entry-not-an-int",
        "components-not-a-list", "star-not-a-table"])
def test_cli_construct_malformed_spec_exits_2(tmp_path, capsys, spec):
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps(spec))
    _assert_input_error(capsys, ["construct", "--input", str(sfile)])


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_cli_construct_dimension_guard(tmp_path, capsys, monkeypatch):
    # the guard reads the output dimension off the spec before any table is
    # validated: n^2 for frobenius and heap, n for adjoint, sum of orders for mcq
    def no_group(table):
        raise AssertionError("FiniteGroup ran before the guard")

    specs = {"frobenius": {"construction": "frobenius", "group": _cyclic_table(5)},
             "adjoint": {"construction": "adjoint", "group": [[0] * 17] * 17},
             "mcq": {"construction": "mcq", "components": [_cyclic_table(9)] * 2}}
    monkeypatch.delenv("YBH_MAX_DIM", raising=False)
    with monkeypatch.context() as m:
        m.setattr("ybh.cli.FiniteGroup", no_group)
        for name, spec in specs.items():
            sfile = tmp_path / f"{name}.json"
            sfile.write_text(json.dumps(spec))
            assert main(["construct", "--input", str(sfile)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("resource guard: ") and "Traceback" not in err, name
    # YBH_MAX_DIM overrides the bound for specs and fixtures alike
    sfile = tmp_path / "heap.json"
    sfile.write_text(json.dumps({"construction": "heap", "group": _cyclic_table(3)}))
    monkeypatch.setenv("YBH_MAX_DIM", "8")
    for argv in (["--input", str(sfile)], ["--fixture", "heap_z3"]):
        assert main(["construct", *argv]) == 2
        assert capsys.readouterr().err.startswith("resource guard: ")
    monkeypatch.setenv("YBH_MAX_DIM", "9")
    for argv in (["--input", str(sfile)], ["--fixture", "heap_z3"]):
        assert main(["construct", *argv, "--field", "prime", "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 9


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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_cli_check_rejects_a_singular_r(tmp_path, capsys, field):
    # R = 0 satisfies the YBE, YI and IY, but is not invertible: an input
    # error that names R, for check as for cohomology
    _, path = _write_fixture(tmp_path, "z2_adjoint", field)
    doc = json.loads(path.read_text())
    doc["R"] = []
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: R is not invertible")


def test_cli_dispatches_to_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    # a cmd_* rebound between two main calls (as perfbench's tracer does) is
    # the one the second call runs
    from ybh import cli
    _, path = _write_fixture(tmp_path, "z2_adjoint", QQ)
    assert main(["check", str(path)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.file) or 7)
    assert main(["check", str(path)]) == 7
    assert seen == [str(path)]


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


@pytest.mark.parametrize("dims", [(3, 3), (2000, 2)], ids=["both-d3", "phi-d2000"])
def test_cli_extend_rejects_a_cochain_of_another_dimension(tmp_path, capsys, dims):
    # a cochain whose parts do not live on its algebra's V is malformed input
    b = build_fixture("z2_adjoint", QQ)
    cdoc = {"algebra": algebra_to_json(b)}
    cdoc.update(cochain2_to_json(YBH2Cochain(TensorMap.zero(QQ, dims[1], 2, 2),
                                             TensorMap.zero(QQ, dims[1], 2, 1))))
    cdoc["phi"]["dim"] = dims[0]
    cfile = tmp_path / "cocycle.json"
    cfile.write_text(json.dumps(cdoc))
    assert main(["deform", "--extend", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: bad cochain: phi has dimension {dims[0]}, its algebra has 2\n"


@pytest.mark.parametrize("mode", ["--extend", "--series"])
def test_cli_deform_rejects_a_hopf_base(tmp_path, capsys, mode):
    # a Hopf algebra document carries no braiding to deform: exit 2 before
    # the cochain is read, never a traceback
    h = group_hopf(FiniteGroup.cyclic(2), GF(2))
    zero = TensorMap.zero(GF(2), 2, 2, 1)
    doc = {"schema": "ybh/1", "algebra": algebra_to_json(h)}
    if mode == "--extend":
        doc.update(cochain2_to_json(YBH2Cochain(TensorMap.zero(GF(2), 2, 2, 2), zero)))
    else:
        doc.update(phi_terms=[], psi_terms=[tensor_to_json(zero)])
    path = tmp_path / "deform.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(capsys, ["deform", mode, str(path)])


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


def test_cli_guards_run_before_loading(tmp_path, capsys, monkeypatch):
    # cohomology, deform --extend and deform --series trip their guard on the
    # declared dim before loading runs a single axiom check
    huge = {"schema": "ybh/1", "field": {"kind": "rational"}, "dim": 1000000,
            "mu": [[0, 0, 0, "1"]], "R": [[0, 0, 0, 0, "1"]]}
    b = build_fixture("z2_adjoint", QQ)
    c = cocycle_basis(b)[0]
    cocycle = cochain2_to_json(c)
    series = series_to_json(series_from_cocycle(b, c))
    docs = {"cohomology": (huge, huge),
            "--extend": ({"algebra": huge, **cocycle}, {"algebra": algebra_to_json(b), **cocycle}),
            "--series": ({**series, "algebra": huge}, series)}
    for key, (big, small) in docs.items():
        argv = ["cohomology"] if key == "cohomology" else ["deform", key]
        for name, doc in (("big", big), ("small", small)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        monkeypatch.delenv("YBH_MAX_DIM", raising=False)
        assert main(argv + [str(tmp_path / "big.json")]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("resource guard: ") and "Traceback" not in err
        if key == "cohomology":
            continue
        # YBH_MAX_DIM overrides the default bound of both deform modes
        monkeypatch.setenv("YBH_MAX_DIM", "1")
        assert main(argv + [str(tmp_path / "small.json")]) == 2, key
        assert capsys.readouterr().err.startswith("resource guard: ")
        monkeypatch.setenv("YBH_MAX_DIM", "2")
        assert main(argv + [str(tmp_path / "small.json")]) in (0, 1), key
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "algebra.json"],
    ["cohomology", "algebra.json"],
    ["construct", "--fixture", "z2_adjoint"],
    ["deform", "--series", "series.json"],
    ["deform", "--extend", "cocycle.json"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_guard_message_advice_lifts_the_guard(tmp_path, capsys, monkeypatch, argv):
    b = build_fixture("z2_adjoint", QQ)
    c = cocycle_basis(b)[0]
    docs = {"algebra.json": algebra_to_json(b),
            "series.json": series_to_json(series_from_cocycle(b, c)),
            "cocycle.json": {"algebra": algebra_to_json(b), **cochain2_to_json(c)}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(canonical_json(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    monkeypatch.setenv("YBH_MAX_DIM", "1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and err.rstrip().endswith(" to opt in")
    switches = err.rsplit("; raise ", 1)[1].removesuffix(" to opt in\n").split(" / ")
    assert switches == (["--max-dim", "YBH_MAX_DIM"] if argv[0] == "cohomology"
                        else ["YBH_MAX_DIM"])
    # follow the first switch named: each one is accepted and lifts the guard
    if switches[0] == "--max-dim":
        argv = argv + ["--max-dim", "2"]
    else:
        monkeypatch.setenv("YBH_MAX_DIM", "2")
    assert main(argv) == 0
    assert "resource guard" not in capsys.readouterr().err


def test_cli_selftest_max_dim_bounds_every_guard(capsys, monkeypatch):
    # selftest --max-dim admits fixtures up to that dimension, and every
    # guard its Complex runs (chain checks, cocycle basis) takes the same bound
    monkeypatch.setattr("ybh.cohomology.MAX_DIM_DEGREE2", 1)
    assert main(["selftest", "--trials", "1", "--max-dim", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_ok"] and "chain-d2d1/z2_adjoint" in [c["name"] for c in report["checks"]]


def test_cli_selftest_max_dim_zero_is_kept(capsys):
    assert main(["selftest", "--trials", "1", "--max-dim", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_dim"] == 0 and report["checks"] == []


def test_cli_selftest_records_a_failed_chain_identity(tmp_path, monkeypatch):
    # a delta3 with one stray entry breaks D3 o D2 = 0 on the complex slice:
    # selftest still writes its report, marks the check failed and exits 1
    import ybh.cohomology
    from ybh.cohomology import YBH4Cochain
    from ybh.tensor import TensorMap
    delta3 = ybh.cohomology.delta3

    def broken_delta3(b, c):
        parts = dict(delta3(b, c).components)
        parts["yb"] = parts["yb"] + TensorMap.from_entries(
            b.field, b.dim, 4, 4, [(0, 0, b.field.one)])
        return YBH4Cochain(parts)

    monkeypatch.setattr(ybh.cohomology, "delta3", broken_delta3)
    out = tmp_path / "selftest.json"
    assert main(["selftest", "--trials", "1", "--max-dim", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_ok"] is False
    assert [c["name"] for c in report["checks"] if not c["ok"]] == \
        ["chain-d3d2/z2_adjoint", "chain-d3d2/dual_trivial"]


def _boundary_inputs(tmp_path):
    """A directory, a non-UTF-8 file, a file nested 100000 levels deep, a
    valid algebra document, and a --out path under a missing directory."""
    _, algebra = _write_fixture(tmp_path, "z2_adjoint", QQ)
    directory = tmp_path / "adir"
    directory.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"schema": "ybh/1", "basis": ["\xe9"]}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    return {"dir": directory, "latin1": latin1, "deep": deep, "algebra": algebra,
            "missing": tmp_path / "missing" / "out.json"}


@pytest.mark.parametrize("argv", [
    ["check", "{dir}"], ["cohomology", "{dir}"], ["deform", "--series", "{dir}"],
    ["construct", "--input", "{dir}"],
    ["check", "{latin1}"], ["deform", "--extend", "{latin1}"],
    ["check", "{deep}"], ["cohomology", "{deep}"], ["deform", "--extend", "{deep}"],
    ["construct", "--input", "{deep}"],
    ["check", "{algebra}", "--out", "{dir}"], ["check", "{algebra}", "--out", "{missing}"],
    ["construct", "--fixture", "z2_adjoint", "--out", "{dir}"],
    ["construct", "--fixture", "z2_adjoint", "--out", "{missing}"],
], ids=lambda argv: " ".join(argv))
def test_cli_file_boundary_errors_exit_2(tmp_path, capsys, argv):
    paths = _boundary_inputs(tmp_path)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def test_cli_file_boundary_error_in_a_fresh_process(tmp_path):
    # the same boundary through `python -m ybh`, as a user runs it
    import os
    import subprocess
    import sys
    from pathlib import Path
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    paths = _boundary_inputs(tmp_path)
    for argv in (["check", str(paths["deep"])],
                 ["check", str(paths["algebra"]), "--out", str(paths["dir"])]):
        proc = subprocess.run([sys.executable, "-m", "ybh", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: ") and "Traceback" not in proc.stderr


def test_cli_selftest_rejects_negative_trials(capsys):
    assert main(["selftest", "--trials", "-5", "--max-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: --trials must be >= 0, got -5\n"


@pytest.mark.parametrize("field,scalar", [(QQ, "1_0"), (QQ, "1 / 2"), (QQ, "١"),
                                          (GF(101), "1_0")])
def test_cli_check_rejects_scalars_outside_the_grammar(tmp_path, capsys, field, scalar):
    _, path = _write_fixture(tmp_path, "z2_adjoint", field)
    doc = json.loads(path.read_text())
    doc["mu"][0][-1] = scalar
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: bad ") and repr(scalar) in err
    assert "Traceback" not in err
