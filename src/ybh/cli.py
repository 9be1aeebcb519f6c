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
from .cohomology import (ComplexSlice, YBH2Cochain, cochain2_sizes,
                         cochain3_sizes, cocycle_basis, delta1, delta2, delta3,
                         _guard, differential_matrix, ensure_dim_allowed,
                         h3_dimension)
from .constructions import MCQ, FiniteGroup, from_heap, from_mcq, trivial_braiding
from .deformation import (extend_to_quadratic, obstruction_is_cocycle,
                          verify_deformation)
from .errors import InputError, ResourceLimitError, YbhError
from .hopf import HopfAlgebra, braided_frobenius, braided_from_hopf, group_hopf
from .rng import SplitMix64
from .scalars import FieldSpec, field_for
from .serialize import (algebra_from_json, algebra_to_json, canonical_json,
                        cochain2_from_json, digest, load_json,
                        series_from_json, tensor_to_json)
from .tensor import random_map

_EXIT_PASS, _EXIT_FAIL, _EXIT_INPUT = 0, 1, 2

# `check` admits every fixture (d <= 9); the adjoint braiding of k[Z/16]
# checks in 0.7 s and 142 MB over Q, k[Z/32] takes 1.8 GB.
MAX_DIM_CHECK = 16


def _field_from_args(args):
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


def _emit(report: dict, args) -> None:
    report.setdefault("timing", None)
    text = canonical_json(report)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    dim = doc.get("dim") if isinstance(doc, dict) else None
    if type(dim) is int:
        _guard(dim, _max_dim(args), MAX_DIM_CHECK, "check command")
    obj = algebra_from_json(doc, validate=False)
    entries = _check_entries(obj)
    report = {"schema": "ybh/report/1", "command": "check",
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
    if args.field is not None:
        # reinterpret the document's scalar strings over the requested field
        doc = dict(doc)
        doc["field"] = _field_from_args(args).spec.to_json()
    obj = algebra_from_json(doc)
    if isinstance(obj, HopfAlgebra):
        obj = braided_from_hopf(obj)
    max_dim = _max_dim(args)
    ensure_dim_allowed(obj.dim, max_dim, args.degree, "cohomology command")
    d1 = differential_matrix(obj, 1)
    d2m = differential_matrix(obj, 2)
    rank1, rank2 = d1.rank(), d2m.rank()
    nphi, npsi = cochain2_sizes(obj.dim)
    report = {"schema": "ybh/report/1", "command": "cohomology",
              "input_digest": digest(doc), "degree": args.degree,
              "dim": obj.dim,
              "cochain_dims": {"c1": obj.dim ** 2, "c2": nphi + npsi,
                               "c3": sum(cochain3_sizes(obj.dim))},
              "rank_d1": rank1, "rank_d2": rank2,
              "dim_z2": nphi + npsi - rank2,
              "dim_b2": rank1,
              "h2": nphi + npsi - rank2 - rank1}
    if args.degree == 3:
        h3 = h3_dimension(obj, max_dim=max_dim)
        h3_shared = h3_dimension(obj, max_dim=max_dim, shared_targets=True)
        report["h3"] = h3
        if h3_shared != h3:
            report["h3_shared_targets"] = h3_shared
    if args.basis:
        basis = cocycle_basis(obj, max_dim=max_dim)
        report["z2_basis"] = [{"phi": tensor_to_json(c.phi),
                               "psi": tensor_to_json(c.psi)} for c in basis]
    _emit(report, args)
    return _EXIT_PASS


def cmd_deform(args) -> int:
    if bool(args.series) == bool(args.extend):
        raise InputError("deform needs exactly one of --series or --extend")
    if args.series:
        doc = load_json(args.series)
        series = series_from_json(doc)
        result = verify_deformation(series)
        report = {"schema": "ybh/report/1", "command": "deform",
                  "mode": "verify", "input_digest": digest(doc),
                  "order": series.order, "ok": result.ok}
        if not result.ok:
            report["failure"] = {"axiom": result.axiom,
                                 "hbar_degree": result.hbar_degree,
                                 "witness": list(result.witness)}
        _emit(report, args)
        return _EXIT_PASS if result.ok else _EXIT_FAIL
    doc = load_json(args.extend)
    if "algebra" not in doc:
        raise InputError("cocycle document needs an 'algebra' entry")
    base = algebra_from_json(doc["algebra"])
    cocycle = cochain2_from_json(doc, base.field)
    result = extend_to_quadratic(base, cocycle)
    report = {"schema": "ybh/report/1", "command": "deform", "mode": "extend",
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


def _construct_from_spec(spec: dict, field):
    kind = spec.get("construction")
    if kind == "mcq":
        groups = [FiniteGroup(t) for t in spec.get("components", [])]
        mcq = MCQ(groups, spec["star"]) if "star" in spec else MCQ.trivial_union(groups)
        return from_mcq(mcq, field)
    if kind == "heap":
        return from_heap(FiniteGroup(spec["group"]), field)
    if kind == "adjoint":
        return braided_from_hopf(group_hopf(FiniteGroup(spec["group"]), field))
    if kind == "frobenius":
        return braided_frobenius(group_hopf(FiniteGroup(spec["group"]), field))
    if kind == "trivial":
        from .constructions import group_algebra
        return trivial_braiding(group_algebra(FiniteGroup(spec["group"]), field))
    raise InputError(f"unknown construction {kind!r} "
                     "(use mcq, heap, adjoint, frobenius, trivial)")


def cmd_construct(args) -> int:
    field = _field_from_args(args)
    if bool(args.fixture) == bool(args.input):
        raise InputError("construct needs exactly one of --fixture or --input")
    if args.fixture:
        obj = fixtures.build_fixture(args.fixture, field)
        provenance = {"fixture": args.fixture}
    else:
        spec = load_json(args.input)
        obj = _construct_from_spec(spec, field)
        provenance = {"construction": spec.get("construction")}
    doc = algebra_to_json(obj, provenance=provenance)
    text = canonical_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_PASS


def cmd_selftest(args) -> int:
    field = field_for(FieldSpec("prime", args.prime))
    rational = field_for(FieldSpec("rational"))
    rng = SplitMix64(args.seed)
    max_dim = _max_dim(args)
    if max_dim is None:
        max_dim = 4
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
        slice_ = ComplexSlice.build(b, check_d3=(b.dim <= 3))
        record(f"chain-d2d1/{name}", slice_.d2.matmul(slice_.d1).is_zero())
        ok = True
        for _ in range(args.trials):
            f = random_map(field, b.dim, 1, 1, rng)
            ok = ok and delta2(b, delta1(b, f)).is_zero()
        record(f"chain-random/{name}", ok, detail=f"{args.trials} trials")
        if b.dim <= 3:
            ok = True
            for _ in range(max(1, args.trials // 10)):
                c = YBH2Cochain(random_map(field, b.dim, 2, 2, rng),
                                random_map(field, b.dim, 2, 1, rng))
                ok = ok and delta3(b, delta2(b, c)).is_zero()
            record(f"chain-d3d2/{name}", ok)
            cocycles = cocycle_basis(b)
            ok = all(obstruction_is_cocycle(b, c) for c in cocycles)
            record(f"obstruction-cocycle/{name}", ok,
                   detail=f"{len(cocycles)} kernel cocycles")

    all_ok = all(c["ok"] for c in checks)
    report = {"schema": "ybh/report/1", "command": "selftest",
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
        print(f"resource guard: {exc}", file=sys.stderr)
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
