"""Spans around calls into kadlib's public functions, installed from outside.

A span records name, start, end, parent span and job id.  Spans are kept in
memory for one pass and reduced to per-layer metrics when the pass ends; the
last traced pass can be written out as JSON lines.

Wrappers replace every binding of a target in kadlib's modules, including
the names kadlib/__init__.py and kadlib.cli import from other modules, so a
call through any of those names is traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# layer -> public functions (or Class.method) traced in that layer
TARGETS = {
    "cli": ("main", "load_workspace", "cmd_check", "cmd_reach", "cmd_hoare", "cmd_termination"),
    "models": (
        "rel_semiring",
        "rel_tests",
        "rel_model",
        "conway_model",
        "matrix_semiring",
        "materialize",
        "predicate_transformer_model",
        "RelModel.preimage",
        "RelModel.image",
        "Relation.compose",
        "Relation.star",
    ),
    "algebra": ("check_isemiring", "check_kleene", "check_test_algebra", "check_equation"),
    "domain": (
        "compute_predomain",
        "compute_precodomain",
        "check_domain_axioms",
        "check_domain_calculus",
        "check_converse",
        "converse_duality_check",
        "is_integral",
    ),
    "reach": ("reach_naive", "reach_efficient", "check_star_preimage_laws"),
    "termination": ("termination_report", "is_noetherian", "is_well_founded", "is_loebian"),
    "hoare": ("check_triple", "validate_proof", "denote", "check_hoare_rules"),
}

# per-layer metrics, in the order BENCHMARK.json lists them
BUSY = (
    "algebra.check_kleene",
    "algebra.check_isemiring",
    "algebra.check_test_algebra",
    "algebra.check_equation",
    "domain.compute_predomain",
    "domain.check_domain_axioms",
    "domain.check_domain_calculus",
    "domain.check_converse",
    "reach.check_star_preimage_laws",
    "hoare.check_hoare_rules",
    "models.rel_semiring",
    "models.materialize",
    "models.predicate_transformer_model",
    "models.RelModel.preimage",
    "models.RelModel.image",
    "models.Relation.compose",
    "models.Relation.star",
    "reach.reach_naive",
    "reach.reach_efficient",
    "termination.termination_report",
    "hoare.check_triple",
    "hoare.validate_proof",
    "hoare.denote",
    "cli.load_workspace",
)
CALLS = ("models.RelModel.preimage", "models.RelModel.image", "models.Relation.compose", "models.Relation.star")


def _sampled(reports) -> int:
    return sum(1 for r in reports if str(getattr(r, "note", "")).startswith("sampled"))


def _popcount(x) -> int:
    return bin(int(x)).count("1")


def _equation_instances(fn):
    """Assignments check_equation ranges over: the product of its variables'
    domain sizes (test variables over the tests, the rest over the carrier)."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        names: list = []

        def walk(t):
            if t.op == "var" and t.name not in names:
                names.append(t.name)
            for sub in t.args:
                walk(sub)

        walk(a["lhs"])
        walk(a["rhs"])
        tests = set(a["test_vars"]) if a.get("test_vars") is not None else {v for v in names if v[:1] in "pqr"}
        total = 1
        for v in names:
            total *= len(a["T"].members) if v in tests else a["S"].n
        return total

    return count


# how to read a count from a call: (args, kwargs, result) -> number(s)
EXTRAS = {
    "reach.reach_naive": lambda fn: lambda a, k, r: (r.preimage_evals, _popcount(r.result), r.iterations),
    "reach.reach_efficient": lambda fn: lambda a, k, r: (r.preimage_evals, _popcount(r.result), r.iterations),
    "reach.check_star_preimage_laws": lambda fn: lambda a, k, r: _sampled(r),
    "hoare.check_hoare_rules": lambda fn: lambda a, k, r: _sampled(r),
    "termination.termination_report": lambda fn: lambda a, k, r: _sampled([r.noetherian, r.well_founded, r.loebian]),
    "algebra.check_equation": _equation_instances,
}


class Tracer:
    """Installs span wrappers for one pass at a time; kadlib must be imported."""

    def __init__(self):
        self.modules = [m for n, m in sys.modules.items() if n == "kadlib" or n.startswith("kadlib.")]
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.patches: list = []  # (owner, attribute, original)
        self.wrappers: dict = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"kadlib.{layer}"]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                name = f"{layer}.{dotted}"
                extra = EXTRAS[name](original) if name in EXTRAS else None
                self.wrappers[name] = (owner, attr, original, self._wrap(name, original, extra))

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def start_pass(self):
        del self.spans[:]
        del self.stack[:]
        for owner, attr, original, wrapper in self.wrappers.values():
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self.patches.append((owner, attr, original))
                continue
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.patches.append((module, key, original))

    def finish_pass(self) -> dict:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        del self.patches[:]
        return layer_metrics(self.spans)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def layer_metrics(spans) -> dict:
    """Busy (outermost calls), self time per layer, call counts and counters."""
    n = len(spans)
    child = [0.0] * n
    in_termination = [False] * n
    metrics: dict = {}
    for key in BUSY:
        metrics[f"{key}.busy_s"] = 0.0
    for key in CALLS:
        metrics[f"{key}.calls"] = 0
    for layer in TARGETS:
        metrics[f"{layer}.self_s"] = 0.0
    counts = {"naive": [0, 0, 0], "efficient": [0, 0, 0]}  # evals, atoms reached, iterations
    equation_instances = 0
    star_sampled = hoare_sampled = term_sampled = term_preimage = 0

    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child[parent] += dur
            in_termination[i] = in_termination[parent] or spans[parent][0].startswith("termination.")
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost and f"{name}.busy_s" in metrics:
            metrics[f"{name}.busy_s"] += dur
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] += 1
        if name == "models.RelModel.preimage" and in_termination[i]:
            term_preimage += 1
        if extra is None:
            continue
        if name.startswith("reach.reach_"):
            for k, v in enumerate(extra):
                counts[name[len("reach.reach_"):]][k] += v
        elif name == "algebra.check_equation":
            equation_instances += extra
        elif name == "reach.check_star_preimage_laws":
            star_sampled += extra
        elif name == "hoare.check_hoare_rules":
            hoare_sampled += extra
        elif name == "termination.termination_report":
            term_sampled += extra

    for i, (name, start, end, *_rest) in enumerate(spans):
        metrics[f"{name.split('.')[0]}.self_s"] += (end - start) - child[i]

    metrics["algebra.check_equation.instances"] = equation_instances
    metrics["reach.check_star_preimage_laws.sampled"] = star_sampled
    metrics["hoare.check_hoare_rules.sampled"] = hoare_sampled
    for algo in ("naive", "efficient"):
        metrics[f"reach.reach_{algo}.preimage_evals"] = counts[algo][0]
        metrics[f"reach.reach_{algo}.iterations"] = counts[algo][2]
    eff_evals, eff_reached, _ = counts["efficient"]
    metrics["reach.reach_efficient.evals_per_reached"] = eff_evals / eff_reached if eff_reached else 0.0
    metrics["termination.preimage_calls"] = term_preimage
    metrics["termination.sampled_verdicts"] = term_sampled
    return metrics
