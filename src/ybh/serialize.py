"""Canonical JSON file formats ("ybh/1") and report emission.

Scalars are strings (exactness, human-diffable fixtures); structure maps
are sparse index tuples.  Algebra documents:

    {"schema": "ybh/1",
     "field": {"kind": "rational"} | {"kind": "prime", "p": 3},
     "dim": d,
     "basis": ["e", "g", ...],
     "mu": [[i, j, k, "c"], ...],            mu(e_i ox e_j) has c e_k
     "R":  [[i, j, k, l, "c"], ...],         R(e_i ox e_j) has c e_k ox e_l
     "unit": [[i, "c"], ...],                optional
     "Delta": [[i, j, k, "c"], ...],         Delta(e_i) has c e_j ox e_k
     "epsilon": [[i, "c"], ...],
     "S": [[i, j, "c"], ...],                S(e_i) has c e_j
     "provenance": {...}}                    optional, free-form

A document with "Delta" loads as a Hopf algebra (needing unit, epsilon, S);
otherwise it loads as a braided algebra (needing mu, R).  Loading validates
every construction-time invariant and reports the violated axiom with its
witness.

Reports are canonical: sorted keys, string scalars, and a timing field that
stays null unless explicitly requested, so identical inputs and seed give
byte-identical bytes.
"""

from __future__ import annotations

import hashlib
import json

from .braided import BraidedAlgebra, braided_algebra
from .errors import InputError
from .hopf import HopfAlgebra
from .scalars import FieldSpec, field_for
from .tensor import TensorMap, encode_index

SCHEMA = "ybh/1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------- tensor maps

def tensor_to_json(t: TensorMap) -> dict:
    field = t.field
    return {"dim": t.dim, "in_arity": t.in_arity, "out_arity": t.out_arity,
            "entries": [[r, c, field.unparse(v)] for r, c, v in t.entries()]}


def tensor_from_json(obj: dict, field) -> TensorMap:
    try:
        d, n, k = obj["dim"], obj["in_arity"], obj["out_arity"]
        entries = [(r, c, field.parse(s)) for r, c, s in obj["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad tensor map document: {exc}")
    for i in (d, n, k, *(i for e in entries for i in e[:2])):
        if type(i) is not int:
            raise InputError(f"bad tensor map document: {i!r} is not an integer")
    return TensorMap.from_entries(field, d, n, k, entries)


def _structured_entries(t: TensorMap, in_slots: int, out_slots: int) -> list:
    """Entries as basis-index tuples [inputs..., outputs..., scalar]."""
    from .tensor import decode_index
    field = t.field
    out = []
    for r, c, v in t.entries():
        ins = decode_index(c, t.dim, in_slots)
        outs = decode_index(r, t.dim, out_slots)
        out.append(list(ins) + list(outs) + [field.unparse(v)])
    return out


def _map_from_structured(rows, field, d, in_slots, out_slots, what) -> TensorMap:
    if not isinstance(rows, list):
        raise InputError(f"{what} must be a list of entries")
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != in_slots + out_slots + 1:
            raise InputError(f"{what}: entry {row!r} needs "
                             f"{in_slots + out_slots} indices and a scalar")
        idx = row[:-1]
        for i in idx:
            if type(i) is not int or not 0 <= i < d:
                raise InputError(f"{what}: index {i!r} outside 0..{d - 1}")
        col = encode_index(idx[:in_slots], d) if in_slots else 0
        r = encode_index(idx[in_slots:], d) if out_slots else 0
        entries.append((r, col, field.parse(row[-1])))
    return TensorMap.from_entries(field, d, in_slots, out_slots, entries)


# ---------------------------------------------------------------- algebras

def algebra_to_json(obj, provenance: dict | None = None) -> dict:
    if isinstance(obj, BraidedAlgebra):
        doc = {"schema": SCHEMA, "field": obj.field.spec.to_json(), "dim": obj.dim,
               "basis": list(obj.labels),
               "mu": _structured_entries(obj.mu, 2, 1),
               "R": _structured_entries(obj.r, 2, 2)}
        if obj.algebra.unit is not None:
            doc["unit"] = _structured_entries(obj.algebra.unit, 0, 1)
    elif isinstance(obj, HopfAlgebra):
        doc = {"schema": SCHEMA, "field": obj.field.spec.to_json(), "dim": obj.dim,
               "basis": list(obj.labels),
               "mu": _structured_entries(obj.mu, 2, 1),
               "unit": _structured_entries(obj.eta, 0, 1),
               "Delta": _structured_entries(obj.delta, 1, 2),
               "epsilon": _structured_entries(obj.epsilon, 1, 0),
               "S": _structured_entries(obj.antipode, 1, 1)}
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    if provenance:
        doc["provenance"] = provenance
    return doc


def algebra_from_json(doc: dict, validate: bool = True):
    """Braided or Hopf algebra from a document.

    With validate=True (the default) every construction-time invariant runs
    and a violation raises ValidationError with its witness; the check
    command loads with validate=False so it can *report* failing axioms.
    """
    if not isinstance(doc, dict):
        raise InputError("algebra document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unsupported schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("field", "dim"):
        if key not in doc:
            raise InputError(f"algebra document missing {key!r}")
    field = field_for(FieldSpec.from_json(doc["field"]))
    d = doc["dim"]
    if type(d) is not int or d < 1:
        raise InputError(f"bad dimension {d!r}")
    labels = doc.get("basis") or [f"e{i}" for i in range(d)]
    if not isinstance(labels, list) or len(labels) != d:
        raise InputError("basis must be a list with one label per dimension")
    if "mu" not in doc:
        raise InputError("algebra document missing 'mu'")
    mu = _map_from_structured(doc["mu"], field, d, 2, 1, "mu")
    unit = None
    if "unit" in doc:
        unit = _map_from_structured(doc["unit"], field, d, 0, 1, "unit")
    if "Delta" in doc:
        for key in ("unit", "epsilon", "S"):
            if key not in doc:
                raise InputError(f"Hopf document missing {key!r}")
        delta = _map_from_structured(doc["Delta"], field, d, 1, 2, "Delta")
        eps = _map_from_structured(doc["epsilon"], field, d, 1, 0, "epsilon")
        s = _map_from_structured(doc["S"], field, d, 1, 1, "S")
        h = HopfAlgebra(field, d, mu, unit, delta, eps, s, labels=labels)
        return h.require() if validate else h
    if "R" not in doc:
        raise InputError("braided algebra document missing 'R'")
    r = _map_from_structured(doc["R"], field, d, 2, 2, "R")
    return braided_algebra(field, d, mu, r, unit=unit, labels=labels, require=validate)


def load_algebra(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error in {path} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
    return algebra_from_json(doc)


def save_algebra(obj, path: str, provenance: dict | None = None):
    with open(path, "w") as fh:
        fh.write(canonical_json(algebra_to_json(obj, provenance)))


# ---------------------------------------------------------------- cochains and series

def cochain2_to_json(c) -> dict:
    return {"phi": tensor_to_json(c.phi), "psi": tensor_to_json(c.psi)}


def cochain2_from_json(obj: dict, field):
    from .cohomology import YBH2Cochain
    try:
        return YBH2Cochain(phi=tensor_from_json(obj["phi"], field),
                           psi=tensor_from_json(obj["psi"], field))
    except KeyError as exc:
        raise InputError(f"cochain document missing {exc}")


def series_to_json(s) -> dict:
    return {"schema": SCHEMA,
            "algebra": algebra_to_json(s.base),
            "phi_terms": [tensor_to_json(t) for t in s.phi_terms],
            "psi_terms": [tensor_to_json(t) for t in s.psi_terms]}


def series_from_json(doc: dict):
    from .deformation import DeformationSeries
    if not isinstance(doc, dict) or "algebra" not in doc:
        raise InputError("deformation series document needs an 'algebra' entry")
    base = algebra_from_json(doc["algebra"])
    if isinstance(base, HopfAlgebra):
        raise InputError("deformation series base must be a braided algebra document")
    field = base.field
    phis = [tensor_from_json(t, field) for t in doc.get("phi_terms", [])]
    psis = [tensor_from_json(t, field) for t in doc.get("psi_terms", [])]
    return DeformationSeries(base, phis, psis)


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error in {path} at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
