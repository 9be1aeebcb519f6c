import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_same_tree_is_byte_identical(tmp_path):
    # one fixture, the same tree on both sides, in-process
    tool = _tool()
    fields = {"F2": tool.FIELDS["F2"]}
    specs = {"mcq": tool.SPECS["mcq"]}
    codes = tool.write_reports(tmp_path / "a", ["z2_adjoint"], fields, selftest=False,
                               specs=specs)
    tool.write_reports(tmp_path / "b", ["z2_adjoint"], fields, selftest=False, specs=specs)
    assert tool.diff_dirs(tmp_path / "a", tmp_path / "b") == []
    assert codes["spec-mcq-F2.algebra.json"] == codes["spec-mcq-F2.check.json"] == 0
    # z2_adjoint over F2 has cocycles that extend and ones that do not
    assert {codes[n] for n in codes if ".extend" in n} == {0, 1}
    assert codes["z2_adjoint-F2.cohomology3.json"] == 0
    # one more entry in mu, R or the unit fails a check; R stays invertible
    assert {n: codes[n] for n in codes if ".perturbed-" in n} == {
        f"z2_adjoint-F2.perturbed-{key}.check.json": 1 for key in ("mu", "R", "unit")}
    assert codes["hopf-kS3-F2.cohomology2.json"] == codes["hopf-dual-F2.check.json"] == 0
    assert json.loads((tmp_path / "a" / "exit_codes.json").read_text()) == codes
    (tmp_path / "b" / "z2_adjoint-F2.check.json").write_text("{}")
    assert tool.diff_dirs(tmp_path / "a", tmp_path / "b") == ["z2_adjoint-F2.check.json"]
    assert tool.main(["only-one"]) == 2


def test_finish_removes_the_trees_only_when_byte_identical(tmp_path, capsys):
    tool = _tool()
    for side in ("a", "b"):
        (tmp_path / "same" / side).mkdir(parents=True)
        (tmp_path / "same" / side / "r.json").write_text("{}")
    assert tool.finish(tmp_path / "same") == 0
    assert not (tmp_path / "same").exists()
    assert "1 files: byte-identical" in capsys.readouterr().out
    for side, text in (("a", "{}"), ("b", "[]")):
        (tmp_path / "differ" / side).mkdir(parents=True)
        (tmp_path / "differ" / side / "r.json").write_text(text)
    assert tool.finish(tmp_path / "differ") == 1
    assert (tmp_path / "differ" / "a" / "r.json").is_file()
    out = capsys.readouterr().out
    assert str(tmp_path / "differ") in out and "differs: r.json" in out


def test_write_reports_adds_degree3_over_f3_for_small_fixtures(tmp_path):
    # the fixture reports over F3, degree 3 and the deformations included,
    # for every fixture with d <= 3 only
    tool = _tool()
    codes = tool.write_reports(tmp_path, ["z2_adjoint", "heap_z2"], {}, selftest=False,
                               specs={})
    # z2_adjoint over F3 has a four-cocycle Z^2 basis
    assert sorted(codes) == sorted(
        [f"z2_adjoint-F3.{kind}.json" for kind in ("algebra", "check", "cohomology2",
                                                   "cohomology3")]
        + [f"z2_adjoint-F3.{kind}{i}.json" for kind in ("extend", "verify") for i in range(4)])
    assert set(codes.values()) == {0}
    assert json.loads((tmp_path / "z2_adjoint-F3.cohomology3.json").read_text())["degree"] == 3


def test_hopf_docs_are_the_library_hopf_algebras(tmp_path, capsys):
    from ybh.cli import main
    from ybh.constructions import FiniteGroup
    from ybh.hopf import dual_numbers_hopf, group_hopf
    from ybh.scalars import GF, QQ
    from ybh.serialize import algebra_from_json

    tool = _tool()
    docs = tool.hopf_docs({"Q": [], "F2": []})
    assert sorted(docs) == sorted([f"hopf-{g}-{tag}" for g in ("kZ2", "kZ3", "kS3")
                                   for tag in ("Q", "F2")] + ["hopf-dual-F2", "hopf-kZ3-S1-Q"])

    def maps(h):
        return h.mu, h.eta, h.delta, h.epsilon, h.antipode

    for stem, h in [("hopf-kZ2-Q", group_hopf(FiniteGroup.cyclic(2), QQ)),
                    ("hopf-kZ3-F2", group_hopf(FiniteGroup.cyclic(3), GF(2))),
                    ("hopf-dual-F2", dual_numbers_hopf(GF(2)))]:
        assert maps(algebra_from_json(docs[stem])) == maps(h)
    # S = 1 on k[Z/3] fails exactly the two antipode axioms
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(docs["hopf-kZ3-S1-Q"]))
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["antipode-left",
                                                                   "antipode-right"]
