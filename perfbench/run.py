"""kadlib benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload graph-queries --seed 1 --seconds 20 --trace 0

Run from the root of a kadlib checkout.  The run generates the workload's
inputs from the seed (workspace JSON under .perfbench_work/), times set-up
in fresh processes, runs the jobs closed-loop in one worker process (one
job at a time, no threads), checks every verdict against an oracle that
does not use kadlib, and prints a summary followed, as the last line, by
one JSON object with the metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics of a traced run.

The two shares are reported as the complements of what users fear, so that
no metric is ever zero: agree_share = 1 - wrong_share and
exhaustive_share = 1 - sampled_share.  The summary lines print wrong_share
and sampled_share as well, and list every wrong verdict by job.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import verdicts  # noqa: E402
import workloads  # noqa: E402

# fresh processes per run whose set-up time is measured: this many before the
# worker, as many after it, and the worker itself, so the median spans the run
SETUP_SAMPLES_EACH_SIDE = 4
TIMEOUT_S = 170


def spawn_worker(root, jobs_path, extra):
    """Start a worker; returns (process, set-up seconds: start to "ready")."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--jobs", jobs_path, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")


def measure(root, workload, seed, seconds, trace, workdir):
    deadline = time.monotonic() + TIMEOUT_S
    plan = workloads.generate(workload, seed, workdir)
    jobs_path = plan.write()

    def setup_only():
        proc, s = spawn_worker(root, jobs_path, ["--setup-only"])
        finish(proc, deadline)
        return s

    setups = [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    out_path = os.path.join(workdir, "result.json")
    extra = ["--out", out_path, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans", os.path.join(spans_dir, f"{workload}.spans.jsonl")]
    proc, s = spawn_worker(root, jobs_path, extra)
    setups.append(s)
    finish(proc, deadline)
    setups += [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    with open(out_path) as fh:
        lines = [json.loads(line) for line in fh]
    return plan, setups, {"passes": lines[:-1], **lines[-1]}


def score(plan, result):
    """Judge every job of every pass; returns counts and the wrong jobs.

    attempted and failed cover every job; the share counts (job runs, wrong
    ones, decisions, sampled ones) leave out the layer probe.
    """
    attempted = failed = runs = wrong = n_decisions = n_sampled = 0
    mismatches: dict = {}
    for p in result["passes"]:
        for job, outcome in zip(plan.jobs, p["outcomes"]):
            attempted += 1
            own = not job.get("probe")
            reason, explained = verdicts.judge(plan.expect[job["id"]], outcome)
            if own:
                d, s = verdicts.decisions(outcome)
                runs += 1
                n_decisions += d
                n_sampled += s
                wrong += reason is not None
            if reason is None:
                continue
            failed += not explained
            entry = mismatches.setdefault(job["id"], [reason, explained, 0])
            entry[2] += 1
    return attempted, failed, runs, wrong, n_decisions, n_sampled, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kadlib", "__init__.py")):
        print("error: run from the root of a kadlib checkout (no src/kadlib here)", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan, setups, result = measure(root, args.workload, args.seed, args.seconds, args.trace, workdir)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, runs, wrong, n_decisions, n_sampled, mismatches = score(plan, result)
    passes = result["passes"]
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    wall = statistics.fmean(untraced)
    setup = statistics.median(setups)
    probes = sum(1 for j in plan.jobs if j.get("probe"))
    print(f"workload {args.workload} seed {args.seed}: {len(plan.jobs) - probes} jobs and {probes} probe jobs per pass, {len(passes)} passes, closed loop, 1 client")
    print(f"  wall_s        {wall:.4f} s   (mean of {len(untraced)} untraced passes: {', '.join(f'{s:.3f}' for s in untraced)})")
    print(f"  setup_s       {setup:.4f} s   (median of {len(setups)} fresh processes)")
    print(f"  peak_rss_mb   {result['peak_rss_mb']:.1f} MB")
    print(f"  wrong_share   {wrong / runs:.4f}     ({wrong} of {runs} job runs)")
    print(f"  sampled_share {n_sampled / n_decisions:.4f}     ({n_sampled} of {n_decisions} decisions)")
    for job_id, (reason, explained, count) in sorted(mismatches.items()):
        tag = "sampled" if explained else "WRONG"
        print(f"  {tag} {job_id} (x{count}): {reason}")

    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["trace.overhead_s"] = result["trace_overhead_s"]
        units = {"busy_s": "s", "self_s": "s", "overhead_s": "s", "evals_per_reached": "ratio"}
        report = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "count")} for k, v in metrics.items()}
    else:
        report = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "agree_share": {"value": 1 - wrong / runs, "unit": "ratio"},
            "exhaustive_share": {"value": 1 - n_sampled / n_decisions, "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
