"""Benchmark launcher: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload h2|h3|extend|axioms --seed N --seconds S --trace 0|1

It generates the seeded inputs, times interpreter start plus `import ybh.cli`
in fresh processes (setup_s), then runs the workload in one fresh
single-threaded worker process.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics for
--trace 0 and the per-layer metrics for --trace 1.  The full record, with the
seed, commit, machine and versions, goes to .perfbench/results/, and the
spans of a traced run to .perfbench/traces/.

The program under test is always `src/ybh` of this checkout; without it the
run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 150


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict:
    """Child processes run single-threaded on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup() -> tuple:
    """(scaled, measured) median wall time of a fresh interpreter that imports
    ybh.cli; scaled to nominal machine speed like every end-to-end time."""
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        loops += [speed.reference_loop() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ybh.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        loops += [speed.reference_loop() for _ in range(3)]
    measured = statistics.median(times)
    return measured * speed.NOMINAL_S / statistics.fmean(loops), measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ybh benchmark: one run of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ybh", "cli.py")):
        print(f"perfbench: no program to measure: {SRC}/ybh/cli.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import generate  # imports ybh from SRC

    if not os.path.abspath(generate.fixtures.__file__).startswith(SRC + os.sep):
        print(f"perfbench: ybh was imported from {generate.fixtures.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in generate.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(generate.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = os.path.join(STATE, "inputs", tag)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    try:
        manifest = generate.generate(args.workload, args.seed, inputs, reference)
        manifest_path = os.path.join(inputs, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        setup_s, raw_setup_s = measure_setup()
        spans = os.path.join(STATE, "traces", f"{tag}.jsonl.gz")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    run = json.loads(lines[-1])

    if args.trace:
        values = dict(run["layers"])
        values["process.cpu_s"] = run["cpu_s_per_pass"]
        values["trace.overhead_ratio"] = run["traced_wall_s"] / run["wall_s"] - 1
        values["failed_ratio"] = run["failed"] / run["attempted"]
    else:
        values = {"wall_s": run["wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": run["peak_rss_mb"],
                  "job_p50_s": run["job_p50_s"], "job_p90_s": run["job_p90_s"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
              "cpu_model": cpu_model(), "python": platform.python_version(),
              "numpy": run["numpy"], "setup_s": setup_s, "raw_setup_s": raw_setup_s,
              "run": run, "metrics": metrics}
    with open(os.path.join(STATE, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "commit", "nproc",
                                              "cpu_model", "python", "numpy")}
                     | {k: run[k] for k in ("passes", "job_samples", "failures")}
                     | ({"missing": run["missing"]} if args.trace else {})))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
