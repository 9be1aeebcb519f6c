"""Seeded mutation fuzz of the CLI's document boundary, in-process.

Each mutation changes one site of a valid fixture document (an algebra, a
2-cocycle or a deformation series) and runs the command that reads it
through cli.main.  Every run must exit 0, 1 or 2 without a traceback, and
every type, shape, bad-scalar or huge-dimension mutation must exit 2.
"""

import contextlib
import copy
import io
import json

from ybh.cli import main
from ybh.cohomology import cocycle_basis
from ybh.deformation import series_from_cocycle
from ybh.fixtures import build_fixture
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ
from ybh.serialize import algebra_to_json, cochain2_to_json, series_to_json

MUTATIONS = 300
# keys the loaders require, by the kind of object that holds them
REQUIRED = {"algebra": {"schema", "field", "dim", "mu", "R"},
            "field": {"kind"},
            "tensor": {"dim", "in_arity", "out_arity", "entries"},
            "cocycle": {"algebra", "phi", "psi"},
            "series": {"algebra"}}
OTHER_TYPES = ["x", 1.5, True, None, [], {}, 7]
BAD_SCALARS = ["abc", "", "1/0", "--1", "1.5", "0x1"]
HUGE = [10 ** 6, 10 ** 12, 2 ** 63]
_DROP = object()


def _documents():
    z2 = build_fixture("z2_adjoint", GF(2))
    cocycle = cocycle_basis(z2)[1]
    dual = build_fixture("dual_trivial", QQ)
    return [("algebra", algebra_to_json(dual), ["check"]),
            ("algebra", algebra_to_json(z2), ["cohomology"]),
            ("cocycle", {"algebra": algebra_to_json(z2), **cochain2_to_json(cocycle)},
             ["deform", "--extend"]),
            ("series", series_to_json(series_from_cocycle(dual, cocycle_basis(dual)[0])),
             ["deform", "--series"])]


def _sites(obj, kind, path=()):
    """(path, kind of the holding object, key, value) for every site the
    loaders read; the free-form provenance block is left out."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "provenance":
                continue
            yield path + (key,), kind, key, value
            child = {"field": "field", "algebra": "algebra", "phi": "tensor",
                     "psi": "tensor"}.get(key, kind)
            yield from _sites(value, child, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            child = "tensor" if kind == "series" else kind
            yield path + (i,), child, i, value
            yield from _sites(value, child, path + (i,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is _DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


def _mutate(doc, kind, rng):
    """One mutated copy of doc and whether it must exit 2."""
    sites = list(_sites(doc, kind))
    while True:
        path, holder, key, value = sites[rng.randrange(len(sites))]
        in_labels = "basis" in path[:-1]
        op = rng.randrange(6)
        if op == 0 and isinstance(key, str):
            new, strict = _DROP, key in REQUIRED[holder]
        elif op == 1 and not in_labels:
            others = [v for v in OTHER_TYPES if type(v) is not type(value)]
            new, strict = others[rng.randrange(len(others))], True
        elif op == 2 and type(value) is int and key != "p":
            new, strict = [value + 5, -1, value + 64][rng.randrange(3)], True
        elif op == 3 and isinstance(value, str) and not in_labels and key != "schema" \
                and "field" not in path:
            new, strict = BAD_SCALARS[rng.randrange(len(BAD_SCALARS))], True
        elif op == 4 and key in ("dim", "in_arity", "out_arity"):
            new, strict = HUGE[rng.randrange(len(HUGE))], True
        elif op == 5 and isinstance(value, str) and not in_labels and key != "schema" \
                and "field" not in path:
            new, strict = str(rng.randint(-3, 3)), False
        else:
            continue
        out = copy.deepcopy(doc)
        _set(out, path, new)
        return out, strict, (path, new)


def test_mutated_documents_exit_cleanly(tmp_path):
    rng = SplitMix64(2024)
    docs = _documents()
    path = tmp_path / "doc.json"
    for _ in range(MUTATIONS):
        kind, doc, argv = docs[rng.randrange(len(docs))]
        mutated, strict, what = _mutate(doc, kind, rng)
        path.write_text(json.dumps(mutated))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
        assert code in (0, 1, 2), (kind, what, code)
        assert "Traceback" not in err.getvalue(), (kind, what)
        if strict:
            assert code == 2, (kind, what, code, err.getvalue())
