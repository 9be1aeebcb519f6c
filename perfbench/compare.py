"""Summarise benchmark runs, or compare the runs of two commits.

    python3 perfbench/compare.py DIR                # median, quartiles, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR   # NEW against BASE, with the bounds

A DIR holds the records `run.py` writes to .perfbench/results/, one JSON file
per run; untraced runs are read, traced ones skipped.  The spread is the
distance between the first and third quartile as a share of the median.  The
exit code is 1 when a spread exceeds its metric's bound in BENCHMARK.json, or
when NEW's median is worse than BASE's by more than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{workload: {metric: [values]}} of the untraced runs in directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            record = json.load(fh)
        if record["trace"]:
            continue
        for metric, m in record["metrics"].items():
            out.setdefault(record["workload"], {}).setdefault(metric, []).append(m["value"])
    return out


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = [load(d) for d in argv]
    base = runs[0]
    bad = False
    print(f"{'workload':8} {'metric':12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}" + ("  change  verdict" if len(runs) > 1 else ""))
    for workload in sorted(base):
        for metric in spec:
            values = base[workload].get(metric)
            if not values or len(values) < 2:
                continue
            med, q1, q3, spread = summary(values)
            bound = spec[metric]["bound"]
            line = (f"{workload:8} {metric:12} {len(values):3} {med:11.5g} {q1:11.5g} "
                    f"{q3:11.5g} {spread:7.3f} {bound:6.2f}")
            if spread > bound and metric != "setup_s":
                bad = True
                line += "  spread>bound"
            if len(runs) > 1 and len(runs[1].get(workload, {}).get(metric, [])) >= 2:
                new_med = summary(runs[1][workload][metric])[0]
                change = (new_med - med) / med
                worse = change if spec[metric]["better"] == "lower" else -change
                verdict = "worse beyond bound" if worse > bound else "within bound"
                bad = bad or worse > bound
                line += f"  {change:+7.3f}  {verdict}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
