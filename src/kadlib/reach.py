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

check_star_preimage_laws decides the star/preimage laws behind these
algorithms, which catalogue states with their certificates; it loads the
table layer only when it is called.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .laws import LawReport, _Record, _require_tests

__all__ = ["ReachResult", "reach_naive", "reach_efficient", "check_star_preimage_laws"]


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


def check_star_preimage_laws(D, samples: int = 1000, rng=None, budget: int = 200_000) -> list[LawReport]:
    """Star/domain interaction laws: certified, or exhaustive if the space fits the budget.

    Covers: star of a domain element is the unit, domain of a starred
    element is the full test, invariants transfer to the star, the
    star-induction form for preimages, the frontier decompositions used by
    reach_efficient, and the preimage analogue of star induction.  The laws
    past the invariant rule are stated for local models and are skipped
    without locality.  The laws are catalogue.STAR_PREIMAGE_LAWS.  Each is
    certified by its derivation (catalogue._CERTIFICATES) where D satisfies
    the laws that uses, as every relation model and rel(n) predomain does;
    elsewhere it is scanned, rewritten or sampled.
    """
    from . import catalogue, domain

    return domain.run_laws(catalogue.STAR_PREIMAGE_LAWS, D, budget, samples, rng)
