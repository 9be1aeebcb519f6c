"""Self-tests of the benchmark: python3 -m pytest perfbench  (add -m slow for the
full reference table, about two minutes)."""

from __future__ import annotations

import copy
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import generate  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import ybh.cli  # noqa: E402
import ybh.cohomology  # noqa: E402
from ybh.cohomology import cohomology_dimension, differential_matrix  # noqa: E402
from ybh.serialize import algebra_from_json  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _contents(root) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["h3", "axioms", "extend"])
def test_generator_is_deterministic_per_seed(tmp_path, monkeypatch, workload):
    monkeypatch.setitem(generate.VARIANTS, workload, 3)
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        generate.generate(workload, seed, str(tmp_path / name), REFERENCE)
    assert _contents(tmp_path / "a") == _contents(tmp_path / "b")
    assert _contents(tmp_path / "a") != _contents(tmp_path / "c")


@pytest.mark.parametrize("key", ["dual_trivial/Q", "z2_adjoint/Q", "dual_trivial/F2"])
def test_relabelling_keeps_invariants(key):
    doc = generate.BaseDocuments()[key]
    relabelled = generate.relabel(doc, [1, 0])
    assert relabelled["mu"] != doc["mu"] or relabelled["R"] != doc["R"]
    ref = REFERENCE["cohomology"][key]
    for d in (doc, relabelled):
        b = algebra_from_json(d)
        got = (differential_matrix(b, 1).rank(), differential_matrix(b, 2).rank(),
               cohomology_dimension(b))
        assert got == (ref["rank_d1"], ref["rank_d2"], ref["h2"])


def _run_one_pass(jobs) -> list:
    loop = worker.Loop([jobs])
    loop.run_pass()
    assert loop.attempted == len(jobs)
    return loop.failures


def test_wrong_reference_value_counts_as_failed_job(tmp_path):
    wrong = copy.deepcopy(REFERENCE)
    wrong["cohomology"]["dual_trivial/Q"]["h2"] += 1
    out, bases = generate._Writer(str(tmp_path)), generate.BaseDocuments()
    for ref, failures in ((REFERENCE, 0), (wrong, 1)):
        jobs = generate._cohomology_jobs([("dual_trivial", "Q"), ("z2_adjoint", "Q")], 2,
                                         ref, 1, 0, out, bases)
        assert len(_run_one_pass(jobs)) == failures


def test_perturbed_document_fails_its_axiom(tmp_path):
    out = generate._Writer(str(tmp_path))
    doc = generate.BaseDocuments()["dual_trivial/Q"]
    jobs = []
    for seed in range(6):
        bad, violated = generate.perturb(doc, generate.rng_for(seed, "test"))
        jobs.append({"kind": "cli", "label": violated,
                     "argv": ["check", out.put(f"{seed}.json", bad)],
                     "expect": {"exit": 1, "dim": 2, "violated": violated}})
    assert {j["label"] for j in jobs} == {"unit", "associativity"}
    assert _run_one_pass(jobs) == []


def test_self_time_on_toy_nested_call():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("inner", lambda: 1)
    outer = t.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    assert [s[tracer.PARENT] for s in t.spans] == [-1, 0, 0]
    assert tracer.self_times(t.spans) == [3, 1, 1]


def test_speed_factor_uses_samples_around_the_measurement():
    s = speed.Speedometer()
    s.samples = [(0.0, 0.006), (1.0, 0.002), (1.1, 0.004), (5.0, 0.006)]
    assert s.factor(1.0, 1.05) == pytest.approx(speed.NOMINAL_S / 0.003)
    assert s.factor(3.0, 3.0) == pytest.approx(speed.NOMINAL_S / 0.004)  # nearest sample
    with s:  # the sampler runs while entered and takes its time out of the job's
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            pass
    assert len(s.samples) >= 6 and s.paused > 0  # the four above and at least two new


def test_missing_public_name_is_reported_not_raised():
    t = tracer.Tracer()
    t.install([("ybh.cohomology", "no_such_function", "a", None),
               ("ybh.linalg", "ExactMatrix.no_such_method", "b", None),
               ("ybh.no_such_module", "f", "c", None)])
    assert len(t.missing) == 3
    t.uninstall()


def test_tracer_wraps_every_binding_and_counts(tmp_path):
    original = ybh.cohomology.differential_matrix
    jobs = generate._cohomology_jobs([("dual_trivial", "Q")], 2, REFERENCE, 1, 0,
                                     generate._Writer(str(tmp_path)), generate.BaseDocuments())
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert ybh.cli.differential_matrix is ybh.cohomology.differential_matrix
        assert ybh.cohomology.differential_matrix is not original
        loop = worker.Loop([jobs], tracer=t)
        loop.run_pass()
    finally:
        t.uninstall()
    assert ybh.cli.differential_matrix is original
    assert loop.failures == []
    layers = tracer.layer_metrics(t.spans, 1)
    assert layers["cohomology.differential_matrix.calls"] == 2
    assert layers["cohomology.differential_matrix.calls_per_matrix"] == 1.0
    assert layers["linalg.rank.calls"] == 2
    assert layers["cli.cohomology.s"] > 0
    assert all(s[tracer.JOB] == 1 for s in t.spans)


@pytest.mark.slow
def test_every_reference_value_matches(tmp_path):
    """Each cohomology entry through the CLI on a relabelled document, including
    the two the timed workloads leave out (s3_adjoint at d=6, degree 3 at d=3)."""
    out, bases = generate._Writer(str(tmp_path)), generate.BaseDocuments()
    jobs = []
    for key, ref in sorted(REFERENCE["cohomology"].items()):
        fx, f = key.split("/")
        jobs += generate._cohomology_jobs([(fx, f)], 3 if "h3" in ref else 2,
                                          REFERENCE, 1, 0, out, bases)
    for job in jobs:
        job["argv"] += ["--max-dim", "6"]
    for fx, f in generate.AXIOM_ALGEBRAS:
        jobs.append({"kind": "cli", "label": f"construct {fx}/{f}",
                     "argv": ["construct", "--fixture", fx, *generate.CLI_FIELD[f],
                              "--out", str(tmp_path / "built.json")],
                     "expect": {"exit": 0, "out": str(tmp_path / "built.json"),
                                "sha256": REFERENCE["construct_sha256"][f"{fx}/{f}"]}})
    assert _run_one_pass(jobs) == []
