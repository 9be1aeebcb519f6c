"""Outside-in tracer: spans around calls into the public functions of `ybh`.

Nothing in `src/ybh` is changed.  Class methods are wrapped once on their
class; a module-level function is replaced in every `ybh` module that binds
it (for example `ybh.cli.differential_matrix` as well as
`ybh.cohomology.differential_matrix`), so calls through any import route are
seen.  A target a later version no longer has is listed in `missing` and
yields zero counts instead of an error.

Each span is [name, start, end, parent index, job id, attrs].  Spans are kept
in memory; the run writes them out when it ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

NAME, START, END, PARENT, JOB, ATTRS = range(6)


def _linalg_attrs(args, result, rank_of):
    m = args[0]
    return {"field": repr(m.field), "rows": m.rows, "cols": m.cols, "nnz": m.nnz(),
            "rank": rank_of(m, result)}


def _solve_rank(m, result):
    return getattr(result, "rank", None)  # a certificate carries it; a solution does not


def _load_json_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _canonical_json_attrs(args, result):
    return {"bytes": len(result.encode())}


def _differential_matrix_attrs(args, result):
    return {"degree": args[1], "matrix": id(result)}


def _delta3_attrs(args, result):
    d = args[0].dim
    return {"algebra": id(args[0]), "c3": d ** 6 + 2 * d ** 5 + d ** 4}


def _extend_attrs(args, result):
    return {"success": bool(result.success)}


# (module, attribute path, span name, attrs(args, result) or None).  Only public
# names the roadmap keeps; never materialize_d3, _delta2_fast or private helpers.
TARGETS = [
    ("ybh.cli", "cmd_check", "cli.check", None),
    ("ybh.cli", "cmd_cohomology", "cli.cohomology", None),
    ("ybh.cli", "cmd_construct", "cli.construct", None),
    ("ybh.cli", "cmd_deform", "cli.deform", None),
    ("ybh.serialize", "load_json", "serialize.load_json", _load_json_attrs),
    ("ybh.serialize", "algebra_from_json", "serialize.algebra_from_json", None),
    ("ybh.serialize", "algebra_to_json", "serialize.algebra_to_json", None),
    ("ybh.serialize", "canonical_json", "serialize.canonical_json", _canonical_json_attrs),
    ("ybh.fixtures", "build_fixture", "fixtures.build_fixture", None),
    ("ybh.braided", "BraidedAlgebra.all_checks", "braided.all_checks", None),
    ("ybh.tensor", "TensorMap.tensor", "tensor.tensor", None),
    ("ybh.tensor", "TensorMap.compose", "tensor.compose", None),
    ("ybh.cohomology", "differential_matrix", "cohomology.differential_matrix",
     _differential_matrix_attrs),
    ("ybh.cohomology", "delta3", "cohomology.delta3", _delta3_attrs),
    ("ybh.cohomology", "h3_dimension", "cohomology.h3_dimension", None),
    ("ybh.cohomology", "cocycle_basis", "cohomology.cocycle_basis", None),
    ("ybh.linalg", "ExactMatrix.rank", "linalg.rank",
     lambda a, r: _linalg_attrs(a, r, lambda m, res: res)),
    ("ybh.linalg", "ExactMatrix.kernel_basis", "linalg.kernel_basis",
     lambda a, r: _linalg_attrs(a, r, lambda m, res: m.cols - len(res))),
    ("ybh.linalg", "ExactMatrix.rref", "linalg.rref",
     lambda a, r: _linalg_attrs(a, r, lambda m, res: res[2])),
    ("ybh.linalg", "ExactMatrix.solve", "linalg.solve",
     lambda a, r: _linalg_attrs(a, r, _solve_rank)),
    ("ybh.deformation", "extend_to_quadratic", "deformation.extend_to_quadratic",
     _extend_attrs),
    ("ybh.deformation", "obstruction_bundle", "deformation.obstruction_bundle", None),
    ("ybh.deformation", "verify_deformation", "deformation.verify_deformation", None),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.job = None
        self.enabled = True
        self.missing: list = []
        self._stack: list = []
        self._pinned: list = []  # objects whose id() an attr recorded, kept alive per job
        self._undo: list = []

    def set_job(self, job) -> None:
        self.job = job
        self._pinned.clear()

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock, pinned = self.spans, self._stack, self.clock, self._pinned

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
                pinned.append((args, result))
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name, attrs in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = None if owner is None else vars(owner).get(attr)
                if fn is None:
                    self.missing.append(f"{module_name}:{path}")
                    continue
                self._replace(owner, attr, fn, self.wrap(name, fn, attrs))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapper = self.wrap(name, fn, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ybh" or mod_name.startswith("ybh.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, fn, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Per span: duration minus the summed durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


LAYER_METRICS = (
    "cohomology.delta3.calls", "cohomology.delta3.s", "cohomology.delta3.calls_per_column",
    "tensor.tensor.calls", "tensor.tensor.self_s", "tensor.compose.calls",
    "tensor.compose.self_s",
    "cohomology.d1_assembly_s", "cohomology.d2_assembly_s",
    "cohomology.differential_matrix.calls", "cohomology.differential_matrix.calls_per_matrix",
    "cohomology.h3_dimension.calls", "cohomology.h3_dimension.s", "cohomology.cocycle_basis.s",
    "linalg.rank.calls", "linalg.rank.self_s", "linalg.kernel_basis.calls",
    "linalg.kernel_basis.self_s", "linalg.rref.calls", "linalg.rref.self_s",
    "linalg.solve.calls", "linalg.solve.self_s",
    "deformation.extend_to_quadratic.calls", "deformation.extend_to_quadratic.s",
    "deformation.obstruction_bundle.s", "deformation.verify_deformation.s",
    "deformation.extend.success_ratio",
    "serialize.algebra_from_json.s", "serialize.algebra_to_json.s",
    "serialize.canonical_json.s", "serialize.bytes_in", "serialize.bytes_out",
    "fixtures.build_fixture.s", "braided.all_checks.calls", "braided.all_checks.s",
    "cli.check.s", "cli.cohomology.s", "cli.construct.s", "cli.deform.s",
)


def layer_metrics(spans: list, passes: int) -> dict:
    """The per-layer metrics, as totals per traced pass (ratios are not divided)."""
    selfs = self_times(spans)
    calls, incl, self_s = {}, {}, {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        self_s[name] = self_s.get(name, 0.0) + own

    def total(name, attr, where=lambda a: True):
        return sum(s[ATTRS][attr] for s in spans
                   if s[NAME] == name and s[ATTRS] is not None and where(s[ATTRS]))

    def assembly(degree):
        return sum(s[END] - s[START] for s in spans
                   if s[NAME] == "cohomology.differential_matrix" and s[ATTRS]
                   and s[ATTRS]["degree"] == degree)

    def distinct(name, key):
        return {(s[JOB], s[ATTRS][key]): s[ATTRS] for s in spans
                if s[NAME] == name and s[ATTRS] is not None}

    def ratio(a, b):
        return a / b if b else 0.0

    columns = sum(a["c3"] for a in distinct("cohomology.delta3", "algebra").values())
    matrices = len(distinct("cohomology.differential_matrix", "matrix"))
    extends = calls.get("deformation.extend_to_quadratic", 0)
    out = {}
    for metric in LAYER_METRICS:
        layer_fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer_fn, 0)
        elif stat == "s":
            out[metric] = incl.get(layer_fn, 0.0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer_fn, 0.0)
    out["cohomology.d1_assembly_s"] = assembly(1)
    out["cohomology.d2_assembly_s"] = assembly(2)
    out["serialize.bytes_in"] = total("serialize.load_json", "bytes")
    out["serialize.bytes_out"] = total("serialize.canonical_json", "bytes")
    for metric in out:
        out[metric] /= passes
    out["cohomology.delta3.calls_per_column"] = ratio(calls.get("cohomology.delta3", 0), columns)
    out["cohomology.differential_matrix.calls_per_matrix"] = ratio(
        calls.get("cohomology.differential_matrix", 0), matrices)
    out["deformation.extend.success_ratio"] = ratio(
        total("deformation.extend_to_quadratic", "success"), extends)
    return out
