"""One benchmark run in a fresh process: a closed loop over a workload's jobs.

One client runs one job at a time; each job starts after the previous one
returns.  A pass is one round over a workload's jobs, on its own relabelled
inputs.  Passes repeat while the next one is expected to end within
`--seconds` (at least one always runs).  Only the calls into the program are
timed; every output is then checked exactly, untimed and untraced.  Job times
are net of the speed sampler (`speed.py`) and reported scaled to nominal
machine speed; the measured seconds stay in the result.

With `--trace 1` the first half of the time runs untraced passes, then the
tracer is installed and the rest runs traced passes; the per-layer numbers
come from the traced passes and the overhead from comparing the two.

Usage: python3 perfbench/worker.py MANIFEST --seconds S --trace 0|1 [--spans FILE]
The last line of stdout is a JSON object with the run's numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import numpy
import ybh
import ybh.cli as cli
from ybh import cohomology, deformation, serialize

import speed
import tracer as tracing


# ---------------------------------------------------------------- running jobs

def run_cli(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
    return code, out.getvalue()


def run_extend(job):
    """A library session: load, Z^2 basis, extend every basis cocycle."""
    b = serialize.algebra_from_json(serialize.load_json(job["path"]))
    cocycles = cohomology.cocycle_basis(b)
    return b, cocycles, [deformation.extend_to_quadratic(b, c) for c in cocycles]


RUNNERS = {"cli": run_cli, "extend": run_extend}


# ---------------------------------------------------------------- exact checks

def check_extension(b, phi2, psi2, bundle) -> str | None:
    """One matvec: D2 (phi2, psi2) must equal minus the obstruction bundle."""
    field = b.field
    d2 = cohomology.differential_matrix(b, 2)
    lhs = d2.matvec(cohomology.flatten2(cohomology.YBH2Cochain(phi2, psi2)))
    rhs = cohomology.flatten3(bundle.as_cochain3())
    for row, value in enumerate(lhs):
        if not field.eq(value, field.neg(rhs.get(row, field.zero))):
            return f"D2 x differs from -bundle at row {row}"
    return None


def check_certificate(rank: int, rank_augmented: int, rank_d2: int) -> str | None:
    """An obstruction's certificate: rank D2, and one more with the bundle added."""
    if rank != rank_d2 or rank_augmented != rank + 1:
        return f"certificate ranks {rank}/{rank_augmented}, expected {rank_d2}/{rank_d2 + 1}"
    return None


def _check_cli(job, outcome) -> str | None:
    code, text = outcome
    expect = job["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    command = job["argv"][0]
    if command == "construct":
        with open(expect["out"], "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        return None if got == expect["sha256"] else f"document sha256 {got} differs"
    report = json.loads(text)
    if command == "cohomology":
        bad = {k: report.get(k) for k, v in expect["report"].items() if report.get(k) != v}
        return f"report differs: {bad}" if bad else None
    if command == "check":
        failing = {c["name"] for c in report["checks"] if not c["ok"]}
        if report["dim"] != expect["dim"] or report["all_ok"] != (expect["violated"] is None):
            return f"check report dim={report['dim']} all_ok={report['all_ok']}"
        if expect["violated"] is not None and expect["violated"] not in failing:
            return f"{expect['violated']} not among failing checks {sorted(failing)}"
        return None
    if command == "deform":
        if report["ok"] != (code == 0):
            return f"report ok={report['ok']} with exit {code}"
        if code == 1:
            cert = report["certificate"]
            return check_certificate(cert["rank"], cert["rank_augmented"], expect["rank_d2"])
        if report["obstruction_is_cocycle"] is not True:
            return "obstruction not reported as a cocycle"
        doc = serialize.load_json(job["argv"][2])
        b = serialize.algebra_from_json(doc["algebra"])
        c = serialize.cochain2_from_json(doc, b.field)
        bundle = deformation.obstruction_bundle(deformation.series_from_cocycle(b, c), 2)
        return check_extension(b, serialize.tensor_from_json(report["phi2"], b.field),
                               serialize.tensor_from_json(report["psi2"], b.field), bundle)
    return f"no check for command {command!r}"


def _check_extend(job, outcome) -> str | None:
    b, cocycles, results = outcome
    expect = job["expect"]
    if len(cocycles) != expect["dim_z2"]:
        return f"{len(cocycles)} cocycles, expected dim Z^2 = {expect['dim_z2']}"
    for i, r in enumerate(results):
        if r.success:
            error = check_extension(b, r.phi2, r.psi2, r.bundle)
        else:
            error = check_certificate(r.certificate.rank, r.certificate.rank_augmented,
                                      expect["rank_d2"])
        if error:
            return f"cocycle {i}: {error}"
    return None


CHECKS = {"cli": _check_cli, "extend": _check_extend}


# ---------------------------------------------------------------- the closed loop

class Loop:
    def __init__(self, passes: list, tracer=None):
        self.passes = passes
        self.tracer = tracer
        self.speed = speed.Speedometer()
        self.next_pass = 0
        self.job_times: list = []  # (pass index, start, end, seconds net of sampling)
        self.by_label: dict = {}
        self.attempted = 0
        self.failures: list = []

    def run_pass(self) -> tuple:
        """Run the next pass; return (its index, timed seconds, wall seconds with checks)."""
        index = self.next_pass
        self.next_pass += 1
        wall = time.perf_counter()
        timed = 0.0
        for job in self.passes[index]:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.set_job(self.attempted)
                self.tracer.enabled = True
            paused, t0 = self.speed.paused, time.perf_counter()
            try:
                outcome, error = RUNNERS[job["kind"]](job), None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                outcome, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            dt = t1 - t0 - (self.speed.paused - paused)
            if self.tracer is not None:
                self.tracer.enabled = False
            if error is None:
                try:
                    error = CHECKS[job["kind"]](job, outcome)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                self.failures.append(f"{job['label']}: {error}")
            self.job_times.append((index, t0, t1, dt))
            self.by_label.setdefault(job["label"], []).append(dt)
            timed += dt
        return index, timed, time.perf_counter() - wall

    def run_for(self, seconds: float) -> list:
        """Passes while the next one is expected to end within `seconds`;
        returns [(pass index, timed seconds)]."""
        start = time.perf_counter()
        timed, walls = [], []
        with self.speed:
            while self.next_pass < len(self.passes):
                if walls and time.perf_counter() - start + statistics.median(walls) > seconds:
                    break
                index, t, w = self.run_pass()
                timed.append((index, t))
                walls.append(w)
        return timed

    def scaled_jobs(self, passes: list) -> list:
        """[(pass index, job seconds at nominal machine speed)] for the given passes."""
        wanted = {index for index, _ in passes}
        return [(index, dt * self.speed.factor(t0, t1))
                for index, t0, t1, dt in self.job_times if index in wanted]

    def scaled_passes(self, passes: list) -> list:
        """Pass times at nominal machine speed: the sums of their scaled job times."""
        sums = {index: 0.0 for index, _ in passes}
        for index, t in self.scaled_jobs(passes):
            sums[index] += t
        return list(sums.values())


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="gzip JSON-lines file for the traced spans")
    args = parser.parse_args(argv)
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    # The harness's own long-lived objects (modules, the manifest) go to the
    # permanent generation, so the collector's full passes during jobs scan
    # only what the jobs allocate, as in a fresh `ybh` process.
    gc.collect()
    gc.freeze()

    loop = Loop(manifest["passes"])
    cpu0 = time.process_time()
    untraced = loop.run_for(args.seconds / 2 if args.trace else args.seconds)
    cpu_per_pass = (time.process_time() - cpu0) / len(untraced)
    jobs = [t for _, t in loop.scaled_jobs(untraced)]
    result = {"attempted": loop.attempted,
              "wall_s": statistics.median(loop.scaled_passes(untraced)),
              "raw_wall_s": statistics.median(t for _, t in untraced),
              "speed_factor": loop.speed.overall(),
              "passes": len(untraced), "pass_s": [t for _, t in untraced],
              "job_samples": len(jobs), "job_p50_s": statistics.median(jobs),
              "job_p90_s": percentile(jobs, 90),
              "cpu_s_per_pass": cpu_per_pass,
              "job_median_s": {k: statistics.median(v) for k, v in loop.by_label.items()},
              "numpy": numpy.__version__, "ybh_file": ybh.__file__}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        loop.tracer = tracer
        traced = loop.run_for(args.seconds / 2)
        tracer.uninstall()
        result.update(traced_passes=len(traced),
                      traced_wall_s=statistics.median(loop.scaled_passes(traced)),
                      layers=tracing.layer_metrics(tracer.spans, len(traced)),
                      missing=tracer.missing, spans=len(tracer.spans))
        if args.spans:
            with gzip.open(args.spans, "wt", compresslevel=1) as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    result.update(attempted=loop.attempted, failed=len(loop.failures),
                  failures=loop.failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
