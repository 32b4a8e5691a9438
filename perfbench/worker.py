"""The process that runs one workload against kadlib.

Run from the parent (run.py); never imported by it.  It imports kadlib from
<root>/src, loads every generated workspace through kadlib.cli.load_workspace,
prints "ready" (the end of set-up), and with --setup-only exits there.
Otherwise it runs the job list in passes, one job at a time, until the time
budget is used, and writes every job's raw outcome to --out as JSON lines:
one per pass, then a summary with the peak resident memory.

Each pass starts from cold kadlib caches, as a fresh `kad` process would.
With --trace 1 passes alternate untraced and traced, so the tracing cost is
measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

# checkers kadlib.cli calls by name; their return values carry the decision
# mode (exhaustive or sampled) that the CLI text does not always show
CAPTURED = (
    "check_isemiring",
    "check_kleene",
    "check_test_algebra",
    "check_domain_axioms",
    "check_domain_calculus",
    "check_converse",
    "converse_duality_check",
    "termination_report",
    "check_triple",
    "validate_proof",
    "reach_naive",
    "reach_efficient",
)


class Capture:
    """Wraps the checkers bound in kadlib.cli to record what they return.

    Each wrapper looks the checker up in its defining module at call time,
    so span wrappers installed there later are still called.
    """

    def __init__(self, cli):
        self.items: list = []
        for name in CAPTURED:
            fn = getattr(cli, name, None)
            if fn is not None:
                setattr(cli, name, self._wrap(sys.modules[fn.__module__], name))

    def _wrap(self, module, name):
        def call(*args, **kwargs):
            result = getattr(module, name)(*args, **kwargs)
            self.items.append(result)
            return result

        return call


def _term(kadlib, t):
    op = t[0]
    if op == "var":
        return kadlib.algebra.var(t[1])
    if op == "zero":
        return kadlib.algebra.zero_term
    if op == "one":
        return kadlib.algebra.one_term
    return kadlib.algebra.Term(op, tuple(_term(kadlib, a) for a in t[1:]))


def make_runner(kadlib, job, workspaces, capture):
    """A no-argument callable running one job; returns (rc, stdout, items)."""
    alg, dom, mod = kadlib.algebra, kadlib.domain, kadlib.models
    kind = job["kind"]

    if kind == "cli":
        argv = job["argv"]

        def run():
            capture.items = []
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = kadlib.cli.main(argv)
                except SystemExit as e:
                    rc = e.code
            return rc, out.getvalue(), capture.items

        return run

    if kind in ("star_preimage", "hoare_rules"):
        n = job["n"]
        # looked up at call time, so span wrappers installed later are called
        module, name = (kadlib.reach, "check_star_preimage_laws") if kind == "star_preimage" else (kadlib.hoare, "check_hoare_rules")

        def run():
            D = dom.compute_predomain(mod.rel_semiring(n), mod.rel_tests(n))
            return None, "", getattr(module, name)(D)

        return run

    if kind == "equation":
        lhs, rhs = _term(kadlib, job["lhs"]), _term(kadlib, job["rhs"])
        n, rel, name = job["n"], job["rel"], job["name"]

        def run():
            return None, "", [alg.check_equation(lhs, rhs, rel, S=mod.rel_semiring(n), name=name)]

        return run

    if kind == "transformers":
        n, laws = job["n"], job["laws"]

        def run():
            mat = mod.materialize(mod.predicate_transformer_model(mod.rel_model(n)))
            return None, "", [(mat.semiring.n, len(mat.tests.members))] + _families(alg, mat, laws)

        return run

    if kind == "matrix":
        base, q = job["base"], job["q"]

        def run():
            mat = mod.materialize(mod.matrix_semiring(mod.conway_model(base), q))
            return None, "", _families(alg, mat, ("isemiring", "kleene"))

        return run

    if kind == "termination":
        ws = workspaces[job["ws"]]
        rel = ws.relations[job["relation"]]

        def run():
            return None, "", [kadlib.termination.termination_report(mod.rel_model(ws.n), rel)]

        return run

    raise ValueError(f"unknown job kind {kind!r}")


def _families(alg, mat, laws):
    out = []
    for fam in laws:
        if fam == "isemiring":
            out.extend(alg.check_isemiring(mat.semiring))
        elif fam == "kleene":
            out.extend(alg.check_kleene(mat.semiring))
        else:
            out.extend(alg.check_test_algebra(mat.tests))
    return out


def _plain(v):
    """JSON form of a witness value."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if v is None or isinstance(v, (str, bool, float)):
        return v
    try:
        return int(v)
    except (TypeError, ValueError):
        return str(v)


def serialize(kadlib, items) -> list:
    """Reports, verdicts and reach results as JSON lists."""
    out = []
    for it in items:
        if isinstance(it, list):
            out.extend(serialize(kadlib, it))
        elif isinstance(it, kadlib.algebra.LawReport):
            out.append(["report", it.name, bool(it.holds), _plain(it.witness), it.note])
        elif isinstance(it, kadlib.algebra.Verdict):
            out.append(["verdict", bool(it.holds), _plain(it.witness), it.note])
        elif isinstance(it, kadlib.termination.TerminationReport):
            out.extend(serialize(kadlib, [it.noetherian, it.well_founded, it.loebian]))
        elif isinstance(it, kadlib.reach.ReachResult):
            out.append(["reach", int(it.result), int(it.preimage_evals)])
        elif isinstance(it, tuple):
            out.append(["sizes", *[int(x) for x in it]])
        else:
            out.append(["other", repr(it)])
    return out


def kadlib_caches(kadlib):
    """Every functools cache in kadlib's modules, found before any patching."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "kadlib" or name.startswith("kadlib."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value not in found:
                    found.append(value)
    return found


def run_pass(jobs, runners, tracer=None):
    """Run every job back to back; returns (seconds, raw outcomes).

    The seconds run from the first job to the last verdict before the layer
    probe, whose jobs come last.
    """
    raw = []
    seconds = None
    start = time.perf_counter()
    for job, run in zip(jobs, runners):
        if seconds is None and job.get("probe"):
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.job = job["id"]
        try:
            rc, out, items = run()
            raw.append((rc, out, items, None))
        except Exception as e:  # a raising job is a wrong verdict, not a crash of the benchmark
            raw.append((None, "", [], f"{type(e).__name__}: {e}"))
    if seconds is None:
        seconds = time.perf_counter() - start
    return seconds, raw


def trace_overhead(order) -> float:
    """Median over traced passes of the pass time minus the mean of the
    untraced passes next to it, which cancels slow drifts in machine speed."""
    diffs = []
    for i, (traced, seconds) in enumerate(order):
        if traced:
            near = [order[j][1] for j in (i - 1, i + 1) if 0 <= j < len(order) and not order[j][0]]
            diffs.append(seconds - statistics.fmean(near))
    return statistics.median(diffs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of the last traced pass")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import kadlib
    import kadlib.cli

    with open(args.jobs) as fh:
        spec = json.load(fh)
    workspaces = {p: kadlib.cli.load_workspace(p) for p in spec["workspaces"]}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    caches = kadlib_caches(kadlib)
    capture = Capture(kadlib.cli)
    jobs = spec["jobs"]
    runners = [make_runner(kadlib, job, workspaces, capture) for job in jobs]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    # passes go to --out as JSON lines as they finish, so the outcomes of
    # earlier passes do not grow the heap that later passes are timed on
    times = {False: [], True: []}
    order = []  # (traced, seconds) per pass, in run order
    longest = 0.0
    began = time.perf_counter()
    with open(args.out, "w") as out:
        while True:
            traced = tracer is not None and len(times[False]) > len(times[True])
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            if traced:
                tracer.start_pass()
            seconds, raw = run_pass(jobs, runners, tracer if traced else None)
            layers = tracer.finish_pass() if traced else None
            outcomes = [{"rc": rc, "out": text, "error": err, "items": serialize(kadlib, items)} for rc, text, items, err in raw]
            del raw
            out.write(json.dumps({"seconds": seconds, "traced": traced, "layers": layers, "outcomes": outcomes}) + "\n")
            del outcomes
            times[traced].append(seconds)
            order.append((traced, seconds))
            longest = max(longest, seconds)
            need_traced = tracer is not None and not times[True]
            if not need_traced and time.perf_counter() - began + longest > args.seconds:
                break

        summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            summary["trace_overhead_s"] = trace_overhead(order)
            if args.spans:
                tracer.write_spans(args.spans)
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
