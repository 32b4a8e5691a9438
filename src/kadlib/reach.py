"""Reachability as iterated preimage.

Both algorithms compute the least test x with p + a:x <= x, which in a
Kleene model equals a-star applied backwards to p.  The naive version
re-evaluates the preimage of everything collected so far on every sweep;
the efficient version keeps a worklist of unexpanded atoms so every state
is expanded at most once.  Costs are reported as preimage evaluations at
atom granularity, which is what makes the difference observable.

Works over any object exposing the atom surface (atom_positions,
test_from_positions, preimage_positions): table-backed DomainStructure or
a direct relational model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .algebra import Law, LawReport, compl, dom, eq, leq, one_term, star, var
from .domain import run_laws

__all__ = ["ReachResult", "reach_naive", "reach_efficient", "check_star_preimage_laws", "STAR_PREIMAGE_LAWS"]


@dataclass(frozen=True)
class ReachResult:
    """A reachability fixpoint and what it cost.

    trace, the ascending chain of tests from the target p to the result, is
    built on first read: step i + 1 joins onto p the first _ends[i] of the
    atom positions in _added, the order in which they were reached.
    """

    result: object
    iterations: int
    preimage_evals: int
    _start: object = field(repr=False)
    _added: tuple = field(repr=False)
    _ends: Sequence[int] = field(repr=False)
    _model: object = field(repr=False, compare=False)

    @cached_property
    def trace(self) -> tuple:
        D, x, done = self._model, self._start, 0
        out = [x]
        for end in self._ends:
            x = D.test_join(x, D.test_from_positions(self._added[done:end]))
            out.append(x)
            done = end
        return tuple(out)


def _start(D, p):
    """The positions of p's atoms, and a bytearray marking them among all atoms."""
    ks = D.atom_positions(p)
    seen = bytearray(len(D.atom_positions(D.test_one)))
    for k in ks:
        seen[k] = 1
    return ks, seen


def reach_naive(D, a, p) -> ReachResult:
    """Ascending fixpoint iteration of x -> p + a:x, one full sweep at a time.

    Each sweep evaluates one preimage per atom of the current test, so the
    cost of a sweep grows with what has been collected already.
    """
    x, seen = _start(D, p)
    first, evals, ends = len(x), 0, []
    while True:
        size = len(x)
        evals += size
        for k in x[:size]:
            for j in D.preimage_positions(a, k):
                if not seen[j]:
                    seen[j] = 1
                    x.append(j)
        if len(x) == size:
            break
        ends.append(len(x) - first)
    return ReachResult(D.test_from_positions(x), len(ends) + 1, evals, p, tuple(x[first:]), tuple(ends), D)


def reach_efficient(D, a, p, order: str = "asc", rng=None) -> ReachResult:
    """Worklist reachability: expand each newly discovered atom exactly once.

    Implements the decomposition a*:p = p + (a p')*:(a:p): the iteration
    proceeds only from states not yet known to reach p.  The result does not
    depend on the expansion order; `order` (asc/desc/random) exists so tests
    can demonstrate that.  Requires a local (dloc) model, where the
    decomposition is valid.
    """
    if not D.flags.get("dloc", False):
        raise ValueError("reach_efficient requires locality (dloc); use reach_naive")
    if order not in ("asc", "desc", "random"):
        raise ValueError("order must be asc, desc or random")

    # the frontier holds atom positions, an atom maybe more than once; asc
    # and desc keep it as a heap (of negated positions for desc) and expand
    # the least (greatest) atom first
    frontier: list = []
    if order == "random":
        rng = rng or random.Random(0)
        push = frontier.append

        def pop():
            return frontier.pop(rng.randrange(len(frontier)))

    else:
        # imported here, so that processes which never expand a frontier
        # do not load the extension module
        import heapq

        sign = 1 if order == "asc" else -1

        def push(k):
            heapq.heappush(frontier, sign * k)

        def pop():
            return sign * heapq.heappop(frontier)

    start, seen = _start(D, p)
    expanded = []

    def push_new(k):
        for j in D.preimage_positions(a, k):
            if not seen[j]:
                push(j)

    for k in start:
        push_new(k)
    while frontier:
        k = pop()
        if seen[k]:
            continue
        seen[k] = 1
        expanded.append(k)
        push_new(k)

    n = len(expanded)
    return ReachResult(D.test_join(p, D.test_from_positions(expanded)), n, len(start) + n, p, tuple(expanded), range(1, n + 1), D)


# ---------------------------------------------------------------------------
# the star-preimage law suite


def _star_preimage_laws():
    a, b, c, p, q = var("a"), var("b"), var("c"), var("p"), var("q")
    local = ("dloc",)

    def pre(x, t):
        """x:t, the states from which x can enter t"""
        return dom(x * t)

    return (
        # star of a domain element collapses to the unit
        Law("star-of-domain", "a", eq(star(dom(a)), one_term)),
        # every starred element is total
        Law("domain-of-star", "a", eq(dom(star(a)), one_term)),
        # an invariant of a is an invariant of a*
        Law("invariant-star", "a p", leq(pre(star(a), p), p), leq(pre(a, p), p), tests="p"),
        # b + ac <= c for preimages: a:p + q <= p  =>  a*:q <= p
        Law("preimage-star-induction", "a p q", leq(pre(star(a), q), p), leq(pre(a, p) + q, p), tests="p q", requires=local),
        # a*:p <= p + a*:(p' (a:p))
        Law("frontier-bound", "a p", leq(pre(star(a), p), p + pre(star(a), compl(p) * pre(a, p))), tests="p", requires=local),
        # a*:p = p + (a p')*:(a:p), the worklist decomposition
        Law(
            "frontier-decomposition",
            "a p",
            eq(pre(star(a), p), p + pre(star(a * compl(p)), pre(a, p))),
            tests="p",
            requires=local,
        ),
        # (ac):p + b:q <= c:p  =>  (a*b):q <= c:p
        Law(
            "preimage-horn-induction",
            "a b c p q",
            leq(pre(star(a) * b, q), pre(c, p)),
            leq(pre(a * c, p) + pre(b, q), pre(c, p)),
            tests="p q",
            requires=local,
        ),
    )


STAR_PREIMAGE_LAWS = _star_preimage_laws()


def check_star_preimage_laws(D, samples: int = 1000, rng=None, budget: int = 200_000) -> list[LawReport]:
    """Star/domain interaction laws, exhaustive if the space fits the budget.

    Covers: star of a domain element is the unit, domain of a starred
    element is the full test, invariants transfer to the star, the
    star-induction form for preimages, the frontier decompositions used by
    reach_efficient, and the preimage analogue of star induction.  The laws
    past the invariant rule are stated for local models and are skipped
    without locality.
    """
    return run_laws(STAR_PREIMAGE_LAWS, D, budget, samples, rng)
