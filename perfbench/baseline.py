"""Run every workload over several seeds and print the medians and spreads.

    python3 perfbench/baseline.py --seeds 10

Run from the root of a kadlib checkout; each run lasts BENCHMARK.json's
run_seconds.  For each workload and end-to-end
metric it prints the median, the quartiles and the spread (quartile distance
over the median, as statistics.quantiles(values, n=4) gives them), then
wrong_share and sampled_share, and the context the numbers depend on: the
line count of src/, the Python and numpy versions and the processor count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        rows = [run(w["name"], seed, seconds) for seed in range(1, args.seeds + 1)]
        if not all(r["correct"] for r in rows):
            print(f"| {w['name']} | incorrect verdicts in {sum(not r['correct'] for r in rows)} runs |||||||")
        values = {k: [r["metrics"][k]["value"] for r in rows] for k in units}
        values["wrong_share"] = [1 - v for v in values["agree_share"]]
        values["sampled_share"] = [1 - v for v in values["exhaustive_share"]]
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w['name']} | {name} | {units.get(name, 'ratio')} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")

    src_lines = sum(sum(1 for _ in open(p)) for p in glob.glob("src/kadlib/*.py"))
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True).stdout.strip()
    print(f"\nsrc/ lines: {src_lines}; Python {platform.python_version()}; numpy {numpy}; nproc {os.cpu_count()}; seeds 1..{args.seeds}; {seconds} s per run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
