"""Reachability as iterated preimage.

Both algorithms compute the least test x with p + a:x <= x, which in a
Kleene model equals a-star applied backwards to p.  The naive version
re-evaluates the preimage of everything collected so far on every sweep;
the efficient version grows the result one atom at a time, reading each
atom's preimage once, when it joins.  Costs are reported as preimage
evaluations at atom granularity, which is what makes the difference
observable.

_grow, the counting worklist behind reach_efficient, also computes the
complement of termination's stuck set and each row of Relation.star: all
are least sets of atoms closed under "joins once enough of what feeds it
has joined".

Works over any object exposing the atom surface (atom_positions,
test_from_positions, preimage_rows, whose row k holds the atoms below a:t
for the k-th atom t) whose laws name atomic-preimage: a relational model or a DomainStructure.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .laws import _CERTIFICATES, _ISR, Law, LawReport, _Record, _TABLE_LAWS, _require_tests, compl, dom, eq, leq, one_term, star, var

__all__ = ["ReachResult", "reach_naive", "reach_efficient", "check_star_preimage_laws", "STAR_PREIMAGE_LAWS"]


class ReachResult(_Record):
    """A reachability fixpoint and what it cost.

    trace, the ascending chain of tests from the target p to the result, is
    built on first read: step i + 1 joins onto p the first _ends[i] of the
    atom positions in _added, the order in which they were reached.  _model,
    what trace joins in, is not compared.
    """

    _fields = ("result", "iterations", "preimage_evals")
    _compared = (*_fields, "_start", "_added", "_ends")

    def __init__(self, result, iterations: int, preimage_evals: int, _start, _added: tuple, _ends: Sequence[int], _model):
        self.__dict__.update(zip((*self._compared, "_model"), (result, iterations, preimage_evals, _start, _added, _ends, _model)))

    @cached_property
    def trace(self) -> tuple:
        D, x, done = self._model, self._start, 0
        out = [x]
        for end in self._ends:
            x = D.test_join(x, D.test_from_positions(self._added[done:end]))
            out.append(x)
            done = end
        return tuple(out)


def _grow(start, feeds, need: list) -> list:
    """Atom positions in the order they join: start first, then each j once need[j] of its feeders have.

    Position k feeds the positions in feeds(k), read once, when k joins;
    start joins whatever its need.  need is counted down in place, and a
    position outside start whose need is 0 never joins.
    """
    joined = list(start)
    for k in joined:
        need[k] = 0
    # joined grows while it is walked, a first-in first-out worklist; once
    # a position has joined its need only falls below 0, so it joins once
    for k in joined:
        for j in feeds(k):
            need[j] -= 1
            if need[j] == 0:
                joined.append(j)
    return joined


def reach_naive(D, a, p) -> ReachResult:
    """Ascending fixpoint iteration of x -> p + a:x, one full sweep at a time.

    Each sweep evaluates one preimage per atom of the current test, so the
    cost of a sweep grows with what has been collected already.
    """
    _require_tests(D, ["reach_naive"])
    x, rows = D.atom_positions(p), D.preimage_rows(a)
    seen = bytearray(len(rows))
    for k in x:
        seen[k] = 1
    first, evals, ends = len(x), 0, []
    while True:
        size = len(x)
        evals += size
        for k in x[:size]:
            for j in rows[k]:
                if not seen[j]:
                    seen[j] = 1
                    x.append(j)
        if len(x) == size:
            break
        ends.append(len(x) - first)
    return ReachResult(D.test_from_positions(x), len(ends) + 1, evals, p, tuple(x[first:]), tuple(ends), D)


def reach_efficient(D, a, p) -> ReachResult:
    """Worklist reachability: expand each atom of the result exactly once.

    Implements the decomposition a*:p = p + (a p')*:(a:p): the iteration
    proceeds only from states not yet known to reach p, and a state joins
    on its first step into what has joined.  Requires a local (dloc) model,
    where the decomposition is valid.
    """
    _require_tests(D, ["reach_efficient"])
    if "dloc" not in D.laws:
        raise ValueError("reach_efficient requires locality (dloc); use reach_naive")
    start, rows = D.atom_positions(p), D.preimage_rows(a)
    joined = _grow(start, rows.__getitem__, [1] * len(rows))
    added = tuple(joined[len(start) :])
    n = len(added)
    return ReachResult(D.test_join(p, D.test_from_positions(added)), n, len(joined), p, added, range(1, n + 1), D)


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
_TABLE_LAWS.update((law.name, law) for law in STAR_PREIMAGE_LAWS)

# the certificates of these laws, as in laws._CERTIFICATES (Möller and Struth, "Modal Kleene
# algebra and partial correctness", 2004).  Tests are p, q, a:p is dom(ap), and r = a:p.  A test
# is below 1 (members-below-one), so s <= dom(s)s <= dom(s) by d1; dom is monotone (dom-additive)
# and 1 <= a* (star-left-unfold), so a test s lies below a*:s.
_STAR_DOMAIN = (*_ISR, "star-left-unfold", "d1", "d2", "dom-additive", "members-below-one")
# what the frontier laws use besides: p + p' = 1, and a join of tests is a test
_FRONTIER = (*_STAR_DOMAIN, "dloc", "complement-join-full", "closed-under-join")
_CERTIFICATES.update({
    # subidentity-star's derivation at the test dom(a): dom(a)* <= 1 by induction at b = c = 1
    "star-of-domain": ("star-left-induction", (*_ISR, "star-left-unfold", "members-below-one")),
    # 1 <= a*, so 1 <= dom(1) <= dom(a*) <= 1
    "domain-of-star": ("d1", (*_ISR, "star-left-unfold", "dom-additive", "members-below-one")),
    # from r <= p, ap <= dom(ap)ap <= pap by d1, so p + a(pa*) <= p + pap a* <= p(1 + aa*) <= pa*;
    # induction gives a*p <= pa*, and a*:p <= dom(pa*) <= p by d2
    "invariant-star": ("star-left-induction", _STAR_DOMAIN),
    # r + q <= p gives r <= p and q <= p, so a*:q <= a*:p <= p
    "preimage-star-induction": ("invariant-star", (*_ISR, "dom-additive")),
    # X = p + a*:(p'r) is a test with p <= X and a:X <= X, so a*:p <= X by preimage-star-induction:
    # r = pr + p'r <= p + a*:(p'r), and a:(a*:(p'r)) <= (aa*):(p'r) <= a*:(p'r) by dloc
    "frontier-bound": ("preimage-star-induction", _FRONTIER),
    # <=: with Y = (ap')*:r, X = p + Y is a test with p <= X and r <= Y, and
    # a:Y = a:(pY) + a:(p'Y) <= r + (ap'(ap')*):r <= Y by dloc, so a*:p <= X as above;
    # >=: p <= a*:p, and (ap')*:r <= a*:r <= (a*a):p <= a*:p by dloc, as (ap')* <= a* by
    # star-monotone's derivation and a*a <= a* by induction at b = a, c = a*
    "frontier-decomposition": ("preimage-star-induction", (*_FRONTIER, "star-left-induction")),
    # (ac):p + b:q <= c:p => (a*b):q <= c:p is preimage-star-induction at p := c:p and q := b:q:
    # a:(c:p) <= (ac):p by dloc and associativity, and (a*b):q <= a*:(b:q) by d1, d2 and monotone dom
    "preimage-horn-induction": ("preimage-star-induction", ("dloc", "d1", "d2", "dom-additive", *_ISR)),
})


def check_star_preimage_laws(D, samples: int = 1000, rng=None, budget: int = 200_000) -> list[LawReport]:
    """Star/domain interaction laws: certified, or exhaustive if the space fits the budget.

    Covers: star of a domain element is the unit, domain of a starred
    element is the full test, invariants transfer to the star, the
    star-induction form for preimages, the frontier decompositions used by
    reach_efficient, and the preimage analogue of star induction.  The laws
    past the invariant rule are stated for local models and are skipped
    without locality.  Each law is certified by its derivation
    (_CERTIFICATES above) where D satisfies the laws that uses, as every
    relation model and rel(n) predomain does; elsewhere it is scanned,
    rewritten or sampled.
    """
    from .domain import run_laws

    return run_laws(STAR_PREIMAGE_LAWS, D, budget, samples, rng)
