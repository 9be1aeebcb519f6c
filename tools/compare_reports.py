"""Byte-compare the CLI reports of two source trees.

    python tools/compare_reports.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository (each with src/ybh).  Each
tree writes the report set below in its own subprocess, into a fresh
directory under one temporary directory; the two directories are then
compared file by file.  Exit 0 when every file is byte-identical, 1 on any
difference or when a side fails, 2 on bad arguments.  The temporary
directory is removed when every file is byte-identical; otherwise it is kept
and its path printed.

The report set, over Q, F2 and F101:

* for every fixture: construct and check;
* for every fixture with d <= 4, also cohomology --degree 2 --basis,
  deform --extend of every Z^2 basis cocycle, and deform --series of each
  cocycle's order-1 series, or of its order-2 series when the extension
  succeeds; cohomology --degree 3 when d <= 3;
* for every fixture with d <= 4, check of up to three failing documents
  (not over F3): the fixture with one more entry in mu, in R or in the unit
  (perturbed_docs), so that witnesses are compared too;
* for one construct --input spec per construction kind (SPECS: the MCQ
  Z/2 u Z/3, the heap rack of Z/2 x Z/2, the adjoint braiding of S3, the
  braided Frobenius algebra of Z/4 and the transposition braiding on
  k[S3]; d = 5 to 16): construct and check;

* for Hopf algebra documents (hopf_docs: k[Z/2], k[Z/3] and k[S3], the
  dual numbers F2[t]/(t^2) with t primitive over F2, and k[Z/3] over Q
  with S = 1, which fails both antipode axioms): check and
  cohomology --degree 2 --max-dim 6;

and, over F3 (where z3_adjoint's private- and shared-target H^3 differ, so
its report carries h3_shared_targets, and its H^2 is 12), the fixture
reports above for every fixture with d <= 3;

plus selftest --trials 20 for primes 2 and 101, with and without
--max-dim 2.  The exit code of every command goes to exit_codes.json, which
is compared too.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import permutations, product
from pathlib import Path

FIELDS = {"Q": ["--field", "q"],
          "F2": ["--field", "prime", "--prime", "2"],
          "F101": ["--field", "prime", "--prime", "101"]}
# Fields whose reports are written for the fixtures with d <= 3 only.
SMALL_FIXTURE_FIELDS = {"F3": ["--field", "prime", "--prime", "3"]}


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# S3 as permutations of (0, 1, 2) in lexicographic order, (pq)(i) = q(p(i))
_S3_ELEMENTS = sorted(permutations(range(3)))
_S3 = [[_S3_ELEMENTS.index(tuple(q[p[i]] for i in range(3))) for q in _S3_ELEMENTS]
       for p in _S3_ELEMENTS]

SPECS = {"mcq": {"construction": "mcq", "components": [_cyclic(2), _cyclic(3)]},
         "heap": {"construction": "heap", "group": [[a ^ b for b in range(4)]
                                                    for a in range(4)]},
         "adjoint": {"construction": "adjoint", "group": _S3},
         "frobenius": {"construction": "frobenius", "group": _cyclic(4)},
         "trivial": {"construction": "trivial", "group": _S3}}


HOPF_GROUPS = {"kZ2": _cyclic(2), "kZ3": _cyclic(3), "kS3": _S3}


def _field_doc(tag: str) -> dict:
    return {"kind": "rational"} if tag == "Q" else {"kind": "prime", "p": int(tag[1:])}


def _group_hopf_doc(table, tag: str, inverse: bool = True) -> dict:
    """k[G] with diagonal coproduct; S is the inversion, or 1 without inverse."""
    n = len(table)
    e = table.index(list(range(n)))
    return {"schema": "ybh/1", "field": _field_doc(tag), "dim": n,
            "mu": [[x, y, table[x][y], "1"] for x in range(n) for y in range(n)],
            "unit": [[e, "1"]], "Delta": [[x, x, x, "1"] for x in range(n)],
            "epsilon": [[x, "1"] for x in range(n)],
            "S": [[x, table[x].index(e) if inverse else x, "1"] for x in range(n)]}


def hopf_docs(fields) -> dict:
    """{stem: Hopf algebra document}: k[G] for each group of HOPF_GROUPS over
    each field tag of fields, the dual numbers when F2 is one of them and
    k[Z/3] with S = 1 when Q is."""
    docs = {f"hopf-{name}-{tag}": _group_hopf_doc(table, tag)
            for tag in fields for name, table in HOPF_GROUPS.items()}
    if "F2" in fields:
        docs["hopf-dual-F2"] = {
            "schema": "ybh/1", "field": _field_doc("F2"), "dim": 2, "basis": ["1", "t"],
            "mu": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]], "unit": [[0, "1"]],
            "Delta": [[0, 0, 0, "1"], [1, 1, 0, "1"], [1, 0, 1, "1"]],
            "epsilon": [[0, "1"]], "S": [[0, 0, "1"], [1, 1, "1"]]}
    if "Q" in fields:
        docs["hopf-kZ3-S1-Q"] = _group_hopf_doc(_cyclic(3), "Q", inverse=False)
    return docs


def perturbed_docs(algebra: dict) -> dict:
    """{key: the braided document with one more entry, of scalar 1, in its
    map key}, for mu, R and the unit when there is one.  The entry goes to
    the first basis tuple (lexicographic) where the map has none.  R of every
    fixture permutes the basis of V ox V, so an entry off its support leaves
    its determinant unchanged and R invertible (a singular R is an input
    error)."""
    d = algebra["dim"]
    out = {}
    for key, slots in (("mu", 3), ("R", 4), ("unit", 1)):
        if key in algebra:
            taken = {tuple(row[:-1]) for row in algebra[key]}
            free = next(t for t in product(range(d), repeat=slots) if t not in taken)
            out[key] = {**algebra, key: algebra[key] + [[*free, "1"]]}
    return out


def write_reports(out: Path, fixture_names=None, fields=FIELDS, selftest=True,
                  specs=SPECS) -> dict:
    """Write the report set of the ybh package on sys.path into out; return
    {file name: exit code}.  fixture_names defaults to every fixture."""
    from ybh import cli, fixtures
    from ybh.serialize import SCHEMA

    out.mkdir(parents=True, exist_ok=True)
    codes = {}

    def run(name, *argv):
        codes[name] = cli.main([*argv, "--out", str(out / name)])
        path = out / name
        return json.loads(path.read_text()) if path.exists() else None

    def put(name, doc):
        (out / name).write_text(json.dumps(doc, sort_keys=True))
        return str(out / name)

    for tag, field_args in fields.items():
        for kind, spec in specs.items():
            stem = f"spec-{kind}-{tag}"
            run(f"{stem}.algebra.json", "construct", "--input",
                put(f"{stem}.spec.json", spec), *field_args)
            run(f"{stem}.check.json", "check", str(out / f"{stem}.algebra.json"))
    for stem, doc in hopf_docs(fields).items():
        path = put(f"{stem}.algebra.json", doc)
        run(f"{stem}.check.json", "check", path)
        run(f"{stem}.cohomology2.json", "cohomology", path, "--degree", "2", "--max-dim", "6")
    def fixture_reports(fx, tag, field_args):
        stem = f"{fx}-{tag}"
        algebra = run(f"{stem}.algebra.json", "construct", "--fixture", fx, *field_args)
        doc = str(out / f"{stem}.algebra.json")
        run(f"{stem}.check.json", "check", doc)
        if fixtures.FIXTURES[fx]["dim"] > 4:
            return
        if tag in fields and algebra:
            for key, broken in perturbed_docs(algebra).items():
                run(f"{stem}.perturbed-{key}.check.json", "check",
                    put(f"{stem}.perturbed-{key}.algebra.json", broken))
        report = run(f"{stem}.cohomology2.json", "cohomology", doc, "--degree", "2", "--basis")
        if fixtures.FIXTURES[fx]["dim"] <= 3:
            run(f"{stem}.cohomology3.json", "cohomology", doc, "--degree", "3")
        for i, c in enumerate(report["z2_basis"] if report else []):
            cocycle = put(f"{stem}.cocycle{i}.json", {"algebra": algebra, **c})
            ext = run(f"{stem}.extend{i}.json", "deform", "--extend", cocycle)
            phis, psis = [c["phi"]], [c["psi"]]
            if ext and ext["ok"]:
                phis.append(ext["phi2"])
                psis.append(ext["psi2"])
            series = put(f"{stem}.series{i}.json", {"schema": SCHEMA, "algebra": algebra,
                                                    "phi_terms": phis, "psi_terms": psis})
            run(f"{stem}.verify{i}.json", "deform", "--series", series)

    for fx in fixture_names or fixtures.fixture_names():
        for tag, field_args in fields.items():
            fixture_reports(fx, tag, field_args)
        if fixtures.FIXTURES[fx]["dim"] <= 3:
            for tag, field_args in SMALL_FIXTURE_FIELDS.items():
                fixture_reports(fx, tag, field_args)
    if selftest:
        for prime in ("2", "101"):
            for extra in ([], ["--max-dim", "2"]):
                run(f"selftest-p{prime}{'-max-dim2' if extra else ''}.json",
                    "selftest", "--trials", "20", "--prime", prime, *extra)
    put("exit_codes.json", codes)
    return codes


def diff_dirs(a: Path, b: Path) -> list:
    """Names of the files that are not byte-identical in a and b, or that
    only one of them has."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


def finish(root: Path) -> int:
    """Compare the report trees root/a and root/b and print the result.
    Remove root and return 0 when every file is byte-identical; keep it,
    print its path and return 1 otherwise."""
    outs = [root / "a", root / "b"]
    differ = diff_dirs(*outs)
    total = len({p.name for o in outs for p in o.iterdir()})
    if not differ:
        shutil.rmtree(root)
        print(f"{total} files: byte-identical")
        return 0
    print(f"{total} files under {root}/a and {root}/b: {len(differ)} differ")
    for name in differ:
        print(f"  differs: {name}")
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_reports.py SRC_A SRC_B", file=sys.stderr)
        return 2
    srcs = [Path(s).resolve() / "src" for s in argv]
    for src in srcs:
        if not (src / "ybh" / "cli.py").is_file():
            print(f"no ybh package under {src}", file=sys.stderr)
            return 2
    root = Path(tempfile.mkdtemp(prefix="compare_reports-"))
    outs = [root / "a", root / "b"]
    here = str(Path(__file__).resolve().parent)
    procs = []
    for src, out in zip(srcs, outs):
        code = (f"import sys; from pathlib import Path; sys.path[:0] = [{str(src)!r}, {here!r}]; "
                f"import compare_reports; compare_reports.write_reports(Path({str(out)!r}))")
        procs.append(subprocess.Popen([sys.executable, "-c", code]))
    failed = [str(src.parent) for src, p in zip(srcs, procs) if p.wait() != 0]
    if failed:
        print(f"writing the reports failed for {', '.join(failed)}; reports kept "
              f"under {root}", file=sys.stderr)
        return 1
    return finish(root)


if __name__ == "__main__":
    sys.exit(main())
