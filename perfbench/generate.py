"""Seeded input generator for the benchmark workloads.

Every input the program sees is a file written here, or an argv naming one.
The seed picks, per workload pass, a permutation of each algebra's basis and
relabels its `ybh/1` document with it.  Relabelling permutes the rows and
columns of every differential matrix, so no pass repeats an earlier input,
while ranks, cohomology dimensions and axiom verdicts stay the same.

Generation runs before any timing and counts toward no metric.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product

from ybh import fixtures
from ybh.cohomology import cocycle_basis
from ybh.deformation import extend_to_quadratic
from ybh.scalars import FieldSpec, field_for
from ybh.serialize import algebra_from_json, algebra_to_json, tensor_to_json

FIELDS = {"Q": FieldSpec("rational"), "F101": FieldSpec("prime", 101),
          "F2": FieldSpec("prime", 2)}
CLI_FIELD = {"Q": ["--field", "q"], "F101": ["--field", "prime", "--prime", "101"]}

# Job lists per workload; README.md says why each was chosen.
H2_ALGEBRAS = [(fx, f) for fx in ("heap_z2", "z2z2_adjoint", "mcq_z2_z2",
                                  "mat2_trivial", "frobenius_z2")
               for f in ("Q", "F101")]
H3_ALGEBRAS = [("z2_adjoint", "Q"), ("dual_trivial", "Q")]
EXTEND_ALGEBRAS = [("heap_z2", "F101"), ("mat2_trivial", "F101")] + \
    [(fx, f) for fx in ("z2_adjoint", "z3_adjoint", "dual_trivial") for f in ("Q", "F2")]
DEFORM_ALGEBRA = ("z2_adjoint", "F2")  # has cocycles that extend and ones that do not
AXIOM_ALGEBRAS = [(fx, f) for fx in fixtures.fixture_names() for f in ("Q", "F101")]

WORKLOADS = ("h2", "h3", "extend", "axioms")
# Upper bound on passes per run; each pass gets its own relabelling.
VARIANTS = {"h2": 12, "h3": 12, "extend": 12, "axioms": 64}
PERTURBED_SHARE = 0.25


def rng_for(seed: int, *tag) -> random.Random:
    """A stream fixed by the seed and a tag (string seeding is hash-stable)."""
    return random.Random("/".join([str(seed), *map(str, tag)]))


class BaseDocuments(dict):
    """Canonical document per "fixture/field" key, built on first use."""

    def __missing__(self, key: str) -> dict:
        fixture, field = key.split("/")
        doc = algebra_to_json(fixtures.build_fixture(fixture, field_for(FIELDS[field])))
        self[key] = doc
        return doc


def relabel(doc: dict, perm: list) -> dict:
    """The same algebra with basis element i renamed perm[i]."""
    out = dict(doc)
    labels = [None] * doc["dim"]
    for i, label in enumerate(doc["basis"]):
        labels[perm[i]] = label
    out["basis"] = labels
    for key in ("mu", "R", "unit"):
        if key in doc:
            out[key] = sorted(([perm[i] for i in row[:-1]] + [row[-1]] for row in doc[key]),
                              key=lambda row: row[:-1])
    return out


def random_relabel(doc: dict, rng: random.Random) -> dict:
    perm = list(range(doc["dim"]))
    rng.shuffle(perm)
    return relabel(doc, perm)


# ---------------------------------------------------------------- perturbed check documents

def _value(s: str, p: int | None):
    v = Fraction(s)
    return v if p is None else v.numerator * pow(v.denominator, -1, p) % p


def _text(v, p: int | None) -> str:
    return str(v % p) if p is not None else str(Fraction(v))


def is_associative(mu_rows: list, dim: int, p: int | None) -> bool:
    """Independent associativity test on the document's own entries."""
    table = {}
    for i, j, k, c in mu_rows:
        table.setdefault((i, j), {})[k] = _value(c, p)

    def mul(x: dict, y: dict) -> dict:
        out = {}
        for (i, a), (j, b) in product(x.items(), y.items()):
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
        return {k: v for k, v in out.items() if (v % p if p else v) != 0}

    def norm(x: dict) -> dict:
        return {k: (v % p if p else v) for k, v in x.items()}

    return all(norm(mul(mul({i: 1}, {j: 1}), {k: 1})) == norm(mul({i: 1}, mul({j: 1}, {k: 1})))
               for i, j, k in product(range(dim), repeat=3))


def perturb(doc: dict, rng: random.Random) -> tuple:
    """(document with one scalar changed, the axiom that change must break).

    Adding 1 to a coefficient of the unit u gives u' = u + e with e u = e != 0,
    so mu(u' ox u) != u and the unit law fails.  A changed product coefficient
    is kept only when the associativity test above says it breaks the law.
    """
    p = doc["field"].get("p")
    if "unit" in doc and rng.random() < 0.5:
        rows = [list(r) for r in doc["unit"]]
        row = rows[rng.randrange(len(rows))]
        row[-1] = _text(_value(row[-1], p) + 1, p)
        return dict(doc, unit=rows), "unit"
    order = list(range(len(doc["mu"])))
    rng.shuffle(order)
    for idx in order:
        rows = [list(r) for r in doc["mu"]]
        new = _value(rows[idx][-1], p) + 1
        if (new % p if p else new) == 0:
            new += 1
        rows[idx][-1] = _text(new, p)
        if not is_associative(rows, doc["dim"], p):
            return dict(doc, mu=rows), "associativity"
    raise ValueError("no single-coefficient change breaks associativity")


# ---------------------------------------------------------------- workloads

class _Writer:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, obj) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path


def _cohomology_jobs(algebras, degree, reference, seed, v, out, bases):
    jobs = []
    for fx, f in algebras:
        key = f"{fx}/{f}"
        doc = random_relabel(bases[key], rng_for(seed, "relabel", v, key))
        path = out.put(f"v{v}-{fx}-{f}.json", doc)
        expect = {k: reference["cohomology"][key].get(k) for k in ("rank_d1", "rank_d2", "h2")}
        if degree == 3:
            expect["h3"] = reference["cohomology"][key]["h3"]
            expect["h3_shared_targets"] = reference["cohomology"][key].get("h3_shared_targets")
        jobs.append({"kind": "cli", "label": f"cohomology {key}",
                     "argv": ["cohomology", path, "--degree", str(degree)],
                     "expect": {"exit": 0, "report": expect}})
    return jobs


def _deform_jobs(reference, seed, v, out, bases):
    """One `deform --extend` job whose cocycle extends, one that is obstructed."""
    fx, f = DEFORM_ALGEBRA
    key = f"{fx}/{f}"
    rng = rng_for(seed, "deform", v)
    doc = random_relabel(bases[key], rng)
    b = algebra_from_json(doc)
    cocycles = cocycle_basis(b)
    results = [extend_to_quadratic(b, c) for c in cocycles]
    jobs = []
    for want in (True, False):
        picks = [i for i, r in enumerate(results) if r.success == want]
        if not picks:
            raise ValueError(f"{key} relabelling {v} has no cocycle with success={want}")
        c = cocycles[rng.choice(picks)]
        path = out.put(f"v{v}-cocycle-{'ok' if want else 'obstructed'}.json",
                       {"algebra": doc, "phi": tensor_to_json(c.phi),
                        "psi": tensor_to_json(c.psi)})
        jobs.append({"kind": "cli", "label": f"deform {key} {'extends' if want else 'obstructed'}",
                     "argv": ["deform", "--extend", path],
                     "expect": {"exit": 0 if want else 1,
                                "rank_d2": reference["cohomology"][key]["rank_d2"]}})
    return jobs


def _extend_jobs(reference, seed, v, out, bases):
    jobs = []
    for fx, f in EXTEND_ALGEBRAS:
        key = f"{fx}/{f}"
        doc = random_relabel(bases[key], rng_for(seed, "relabel", v, key))
        ref = reference["cohomology"][key]
        d = doc["dim"]
        jobs.append({"kind": "extend", "label": f"extend {key}",
                     "path": out.put(f"v{v}-{fx}-{f}.json", doc),
                     "expect": {"rank_d2": ref["rank_d2"],
                                "dim_z2": d ** 4 + d ** 3 - ref["rank_d2"]}})
    return jobs + _deform_jobs(reference, seed, v, out, bases)


def _axioms_jobs(reference, seed, v, out, bases):
    jobs = []
    for fx, f in AXIOM_ALGEBRAS:
        key = f"{fx}/{f}"
        target = os.path.join(out.root, f"built-{fx}-{f}.json")
        jobs.append({"kind": "cli", "label": f"construct {key}",
                     "argv": ["construct", "--fixture", fx, *CLI_FIELD[f], "--out", target],
                     "expect": {"exit": 0, "out": target,
                                "sha256": reference["construct_sha256"][key]}})
        rng = rng_for(seed, "check", v, key)
        doc = random_relabel(bases[key], rng)
        violated = None
        if rng.random() < PERTURBED_SHARE:
            doc, violated = perturb(doc, rng)
        jobs.append({"kind": "cli", "label": f"check {key}",
                     "argv": ["check", out.put(f"v{v}-{fx}-{f}.json", doc)],
                     "expect": {"exit": 1 if violated else 0, "dim": doc["dim"],
                                "violated": violated}})
    return jobs


def generate(workload: str, seed: int, root: str, reference: dict) -> dict:
    """Write the inputs of every pass of `workload` under `root`; return the
    manifest {"workload", "seed", "passes": [[job, ...], ...]}."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    out = _Writer(root)
    bases = BaseDocuments()
    passes = []
    for v in range(VARIANTS[workload]):
        if workload == "h2":
            jobs = _cohomology_jobs(H2_ALGEBRAS, 2, reference, seed, v, out, bases)
        elif workload == "h3":
            jobs = _cohomology_jobs(H3_ALGEBRAS, 3, reference, seed, v, out, bases)
        elif workload == "extend":
            jobs = _extend_jobs(reference, seed, v, out, bases)
        else:
            jobs = _axioms_jobs(reference, seed, v, out, bases)
        passes.append(jobs)
    return {"workload": workload, "seed": seed, "passes": passes}
