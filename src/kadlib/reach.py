"""Reachability as iterated preimage.

Both algorithms compute the least test x with p + a:x <= x, which in a
Kleene model equals a-star applied backwards to p.  The naive version
re-evaluates the preimage of everything collected so far on every sweep;
the efficient version keeps a worklist of unexpanded atoms so every state
is expanded at most once.  Costs are reported as preimage evaluations at
atom granularity, which is what makes the difference observable.

Works over any object exposing the domain surface: table-backed
DomainStructure or a direct relational model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algebra import Law, LawReport, compl, dom, eq, leq, one_term, star, var
from .domain import run_laws

__all__ = ["ReachResult", "reach_naive", "reach_efficient", "check_star_preimage_laws", "STAR_PREIMAGE_LAWS"]


@dataclass(frozen=True)
class ReachResult:
    result: object
    iterations: int
    preimage_evals: int
    trace: tuple


def reach_naive(D, a, p) -> ReachResult:
    """Ascending fixpoint iteration of x -> p + a:x, one full sweep at a time.

    Each sweep decomposes the current test into atoms and evaluates one
    preimage per atom, so the cost of a sweep grows with what has been
    collected already.
    """
    x = p
    evals = 0
    iterations = 0
    trace = [x]
    while True:
        iterations += 1
        y = x
        for atom in D.atoms_below(x):
            y = D.test_join(y, D.preimage(a, atom))
            evals += 1
        if y == x:
            break
        x = y
        trace.append(x)
    return ReachResult(x, iterations, evals, tuple(trace))


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

    # the frontier may hold an atom more than once; asc and desc keep it as
    # a heap (of negated atoms for desc) and expand the least (greatest)
    # atom first
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

        def push(b):
            heapq.heappush(frontier, sign * b)

        def pop():
            return sign * heapq.heappop(frontier)

    reached = p
    evals = 0
    expansions = 0
    trace = [p]

    def push_new(pre):
        for b in D.atoms_below(pre):
            if not D.test_leq(b, reached):
                push(b)

    for atom in D.atoms_below(p):
        evals += 1
        push_new(D.preimage(a, atom))

    while frontier:
        atom = pop()
        if D.test_leq(atom, reached):
            continue
        reached = D.test_join(reached, atom)
        expansions += 1
        evals += 1
        trace.append(reached)
        push_new(D.preimage(a, atom))

    return ReachResult(reached, expansions, evals, tuple(trace))


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
