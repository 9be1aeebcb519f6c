"""Command-line surface.

Subcommands: check, cohomology, deform, construct, selftest.  Exit codes:
0 when every requested check passes, 1 when a mathematical check fails,
2 on input errors (bad files, bad flags, tripped resource guards).

Reports are canonical JSON (sorted keys, string scalars, `timing` always
null) so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fixtures
from .braided import BraidedAlgebra
# differential_matrix is unused here but stays bound: perfbench's
# test_tracer_wraps_every_binding_and_counts checks that the tracer wraps it.
from .cohomology import (C1, C2, C3, MAX_DIM_DEGREE2, MAX_DIM_DEGREE3, Complex,
                         YBH2Cochain, delta1, delta2, delta3, _guard,
                         differential_matrix)  # noqa: F401
from .constructions import (MCQ, FiniteGroup, from_heap, from_mcq, group_algebra,
                            trivial_braiding)
from .deformation import (extend_to_quadratic, obstruction_is_cocycle,
                          verify_deformation)
from .errors import InputError, ResourceLimitError, YbhError
from .hopf import HopfAlgebra, braided_frobenius, braided_from_hopf, group_hopf
from .rng import SplitMix64
from .scalars import FieldSpec, field_for
from .serialize import (algebra_from_json, algebra_to_json, canonical_json,
                        cochain2_from_json, cochain2_to_json, digest, load_json,
                        series_from_json, tensor_to_json)
from .tensor import random_map

_EXIT_PASS, _EXIT_FAIL, _EXIT_INPUT = 0, 1, 2

# `check` admits every fixture (d <= 9); the adjoint braiding of k[Z/16]
# checks in 0.7 s and 142 MB over Q, k[Z/32] takes 1.8 GB.  `construct`
# shares the bound, since it runs the same axiom suite on its output.
MAX_DIM_CHECK = 16
# `deform --series` admits every fixture too: its checks over
# k[hbar]/(hbar^m) run dense over F_p, where the adjoint braiding of k[Z/9]
# takes 0.7 s and 98 MB at order 1 and k[Z/12] takes 5.1 s and 368 MB
# (GF(101), 2 vCPU Intel Xeon, one BLAS thread).
MAX_DIM_SERIES = 9


def _field_from_args(args):
    """The field of --field and --prime; None when neither is given."""
    if args.prime is not None and args.field not in ("p", "prime"):
        raise InputError("--prime needs --field prime")
    if args.field is None:
        return None
    if args.field in ("q", "rational"):
        return field_for(FieldSpec("rational"))
    if args.field in ("p", "prime"):
        if args.prime is None:
            raise InputError("--field prime needs --prime P")
        return field_for(FieldSpec("prime", args.prime))
    raise InputError(f"unknown field {args.field!r} (use q or prime)")


def _max_dim(args) -> int | None:
    if getattr(args, "max_dim", None) is not None:
        return args.max_dim
    env = os.environ.get("YBH_MAX_DIM")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise InputError(f"YBH_MAX_DIM must be an integer, got {env!r}")


def _guard_document(doc, args, bound: int, what: str) -> None:
    """Resource guard on an algebra document's declared dim, run before the
    document is loaded and its axioms are checked, whose cost grows with d.
    A dim that is not an int is left for loading to reject."""
    dim = doc.get("dim") if isinstance(doc, dict) else None
    if type(dim) is int:
        _guard(dim, _max_dim(args), bound, what)


_REPORT = {"schema": "ybh/report/1", "timing": None}  # every report's base


def _emit(doc: dict, args) -> None:
    """The canonical JSON of a report or document, to --out or to stdout."""
    text = canonical_json(doc)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror}")


def _check_entries(obj) -> list:
    if isinstance(obj, BraidedAlgebra):
        checks = obj.all_checks()
    else:
        checks = obj.check_hopf()
    return [{"name": c.name, "ok": c.ok,
             "witness": list(c.witness) if c.witness else None} for c in checks]


# ---------------------------------------------------------------- commands

def cmd_check(args) -> int:
    doc = load_json(args.file)
    _guard_document(doc, args, MAX_DIM_CHECK, "check command")
    obj = algebra_from_json(doc, validate=False)
    if isinstance(obj, BraidedAlgebra):
        obj.yb.r_inverse  # a singular R is an input error, as on a validated load
    entries = _check_entries(obj)
    report = {**_REPORT, "command": "check",
              "input_digest": digest(doc),
              "kind": "hopf" if isinstance(obj, HopfAlgebra) else "braided",
              "dim": obj.dim, "checks": entries,
              "all_ok": all(e["ok"] for e in entries)}
    if isinstance(obj, HopfAlgebra):
        report["flags"] = obj.flags
    _emit(report, args)
    return _EXIT_PASS if report["all_ok"] else _EXIT_FAIL


def cmd_cohomology(args) -> int:
    doc = load_json(args.file)
    _guard_document(doc, args, MAX_DIM_DEGREE2 if args.degree == 2 else MAX_DIM_DEGREE3,
                    "cohomology command")
    field = _field_from_args(args)
    if field is not None:
        # reinterpret the document's scalar strings over the requested field
        doc = dict(doc)
        doc["field"] = field.spec.to_json()
    obj = algebra_from_json(doc)
    if isinstance(obj, HopfAlgebra):
        obj = braided_from_hopf(obj)
    cx = Complex(obj, max_dim=_max_dim(args))
    dim_c2 = C2.size(obj.dim)
    report = {**_REPORT, "command": "cohomology",
              "input_digest": digest(doc), "degree": args.degree,
              "dim": obj.dim,
              "cochain_dims": {"c1": C1.size(obj.dim), "c2": dim_c2,
                               "c3": C3.size(obj.dim)},
              "rank_d1": cx.rank(1), "rank_d2": cx.rank(2),
              "dim_z2": dim_c2 - cx.rank(2), "dim_b2": cx.rank(1), "h2": cx.dim_h(2)}
    if args.degree == 3:
        report["h3"] = cx.dim_h(3)
        if cx.dim_h(3, shared_targets=True) != report["h3"]:  # ranks are read once
            report["h3_shared_targets"] = cx.dim_h(3, shared_targets=True)
    if args.basis:
        report["z2_basis"] = [cochain2_to_json(c) for c in cx.cocycles()]
    _emit(report, args)
    return _EXIT_PASS


def cmd_deform(args) -> int:
    if bool(args.series) == bool(args.extend):
        raise InputError("deform needs exactly one of --series or --extend")
    doc = load_json(args.series or args.extend)
    algebra = doc.get("algebra") if isinstance(doc, dict) else None
    # --extend assembles D2; --series checks the axioms over k[hbar]/(hbar^m)
    _guard_document(algebra, args, MAX_DIM_SERIES if args.series else MAX_DIM_DEGREE2,
                    "deform command")
    if args.series:
        series = series_from_json(doc)
        result = verify_deformation(series)
        report = {**_REPORT, "command": "deform",
                  "mode": "verify", "input_digest": digest(doc),
                  "order": series.order, "ok": result.ok}
        if not result.ok:
            report["failure"] = {"axiom": result.axiom,
                                 "hbar_degree": result.hbar_degree,
                                 "witness": list(result.witness)}
        _emit(report, args)
        return _EXIT_PASS if result.ok else _EXIT_FAIL
    if algebra is None:
        raise InputError("cocycle document needs an 'algebra' entry")
    base = algebra_from_json(algebra)
    if isinstance(base, HopfAlgebra):
        raise InputError("cocycle document's algebra must be a braided algebra document")
    cocycle = cochain2_from_json(doc, base.field, base.dim)
    result = extend_to_quadratic(base, cocycle)
    report = {**_REPORT, "command": "deform", "mode": "extend",
              "input_digest": digest(doc), "ok": result.success,
              "obstruction_is_cocycle": obstruction_is_cocycle(base, cocycle)}
    if result.success:
        report["phi2"] = tensor_to_json(result.phi2)
        report["psi2"] = tensor_to_json(result.psi2)
    else:
        cert = result.certificate
        report["certificate"] = {"rank": cert.rank,
                                 "rank_augmented": cert.rank_augmented,
                                 "row_index": cert.row_index}
        report["h3_class_nonzero"] = True
    _emit(report, args)
    return _EXIT_PASS if result.success else _EXIT_FAIL


def _table(t, what: str) -> list:
    """A group or star table: a non-empty square list of lists of ints."""
    if not (isinstance(t, list) and t and all(
            isinstance(row, list) and len(row) == len(t)
            and all(type(v) is int for v in row) for row in t)):
        raise InputError(f"construction spec: {what} must be a non-empty square "
                         "list of lists of ints")
    return t


# construction -> (output dimension from the group order, builder)
_GROUP_CONSTRUCTIONS = {
    "heap": (lambda n: n * n, from_heap),
    "adjoint": (lambda n: n, lambda g, field: braided_from_hopf(group_hopf(g, field))),
    "frobenius": (lambda n: n * n,
                  lambda g, field: braided_frobenius(group_hopf(g, field))),
    "trivial": (lambda n: n, lambda g, field: trivial_braiding(group_algebra(g, field))),
}


def _construct_from_spec(spec, field, max_dim: int | None):
    """Validate the spec's shape, guard the output dimension, then build;
    the group and MCQ validators grow like n^3, so the guard runs first."""
    if not isinstance(spec, dict):
        raise InputError("construction spec must be a JSON object")
    kind = spec.get("construction")
    if kind == "mcq":
        components = spec.get("components", [])
        if not isinstance(components, list):
            raise InputError("construction spec: components must be a list of tables")
        tables = [_table(t, "each component") for t in components]
        star = _table(spec["star"], "star") if "star" in spec else None
        _guard(sum(map(len, tables)), max_dim, MAX_DIM_CHECK, "construct command")
        groups = [FiniteGroup(t) for t in tables]
        mcq = MCQ(groups, star) if star is not None else MCQ.trivial_union(groups)
        return from_mcq(mcq, field)
    if kind not in _GROUP_CONSTRUCTIONS:
        raise InputError(f"unknown construction {kind!r} "
                         "(use mcq, heap, adjoint, frobenius, trivial)")
    dim, build = _GROUP_CONSTRUCTIONS[kind]
    table = _table(spec.get("group"), "group")
    _guard(dim(len(table)), max_dim, MAX_DIM_CHECK, "construct command")
    return build(FiniteGroup(table), field)


def cmd_construct(args) -> int:
    field = _field_from_args(args)
    if bool(args.fixture) == bool(args.input):
        raise InputError("construct needs exactly one of --fixture or --input")
    if args.fixture:
        if args.fixture in fixtures.FIXTURES:
            _guard(fixtures.FIXTURES[args.fixture]["dim"], _max_dim(args), MAX_DIM_CHECK,
                   "construct command")
        obj = fixtures.build_fixture(args.fixture, field)
        provenance = {"fixture": args.fixture}
    else:
        spec = load_json(args.input)
        obj = _construct_from_spec(spec, field, _max_dim(args))
        provenance = {"construction": spec.get("construction")}
    _emit(algebra_to_json(obj, provenance=provenance), args)
    return _EXIT_PASS


def cmd_selftest(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    field = field_for(FieldSpec("prime", args.prime))
    rational = field_for(FieldSpec("rational"))
    rng = SplitMix64(args.seed)
    max_dim = _max_dim(args)
    if max_dim is None:
        max_dim = MAX_DIM_DEGREE2
    checks = []

    def record(name, ok, detail=None):
        entry = {"name": name, "ok": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    for name in fixtures.fixture_names():
        if fixtures.FIXTURES[name]["dim"] > max_dim and not args.slow:
            continue
        for fld in (rational, field):
            b = fixtures.build_fixture(name, fld)
            record(f"axioms/{name}/{fld!r}", all(c.ok for c in b.all_checks()))

    for name in fixtures.fixture_names(max_dim=max_dim):
        b = fixtures.build_fixture(name, field)
        cx = Complex(b, max_dim=max_dim)
        record(f"chain-d2d1/{name}", cx.d2d1_zero())
        ok = True
        for _ in range(args.trials):
            f = random_map(field, b.dim, 1, 1, rng)
            ok = ok and delta2(b, delta1(b, f)).is_zero()
        record(f"chain-random/{name}", ok, detail=f"{args.trials} trials")
        if b.dim <= 3:
            ok = cx.d3d2_zero()
            for _ in range(max(1, args.trials // 10)):
                c = YBH2Cochain(random_map(field, b.dim, 2, 2, rng),
                                random_map(field, b.dim, 2, 1, rng))
                ok = ok and delta3(b, delta2(b, c)).is_zero()
            record(f"chain-d3d2/{name}", ok)
            cocycles = cx.cocycles()
            ok = all(obstruction_is_cocycle(b, c) for c in cocycles)
            record(f"obstruction-cocycle/{name}", ok,
                   detail=f"{len(cocycles)} kernel cocycles")

    all_ok = all(c["ok"] for c in checks)
    report = {**_REPORT, "command": "selftest",
              "seed": args.seed, "prime": args.prime, "trials": args.trials,
              "max_dim": max_dim, "checks": checks, "all_ok": all_ok}
    _emit(report, args)
    return _EXIT_PASS if all_ok else _EXIT_FAIL


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybh",
        description="exact braided-algebra axiom checks, cohomology, and deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify every axiom of an algebra file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cohomology", help="ranks and cohomology dimensions")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=2, choices=(2, 3))
    p.add_argument("--basis", action="store_true", help="include a Z^2 basis")
    p.add_argument("--field", default=None,
                   help="reinterpret the file's scalars over this field (q or prime)")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("deform", help="verify a deformation series or extend a cocycle")
    p.add_argument("--series", help="deformation series file")
    p.add_argument("--extend", help="2-cocycle file to extend to order 2")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("construct", help="emit a built-in or user construction")
    p.add_argument("--fixture", help=f"one of: {', '.join(fixtures.FIXTURES)}")
    p.add_argument("--input", help="construction spec file")
    p.add_argument("--field", default="q")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("selftest", help="seeded randomized property suites")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--slow", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except ResourceLimitError as exc:
        # name only the switches this command has
        switches = "--max-dim / YBH_MAX_DIM" if "max_dim" in vars(args) else "YBH_MAX_DIM"
        print(f"resource guard: {exc}; raise {switches} to opt in", file=sys.stderr)
        return _EXIT_INPUT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except YbhError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
