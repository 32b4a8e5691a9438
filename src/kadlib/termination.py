"""Termination analysis: Noethericity, well-foundedness, the Löb property.

An element is Noetherian when no nonzero test survives stepping backwards
through it (p <= a:p forces p = 0); relationally that is acyclicity.
Well-foundedness is the same condition through the image operator, i.e.
Noethericity of the converse.  The Löb property is the preimage form of
the modal axiom: every step lands in states whose further steps leave the
already-reached part, here p - q means p q'.

How a verdict is decided:

- Past the budget, Noethericity is decided exactly wherever preimage is
  monotone (every relation model, and every structure whose d1 and d2
  flags hold): the greatest test p with p <= a:p, the stuck set, is
  computed by an atom worklist, and a is Noetherian iff it is 0;
  otherwise it is the witness.  Well-foundedness is the same with image
  in place of preimage, where the cd1 and cd2 flags hold.  On relations,
  a is Löbian iff it is transitive and Noetherian, and the Noetherian
  verdict supplies the stuck set.
- Every other verdict is one search for the first failing test over
  domain._instances, the enumerate-or-sample rule that run_laws also
  uses: while the test algebra has at most `budget` members all of them
  are tried in order, and a failing verdict names the first failing
  test; past it, `samples` random tests are tried, and a verdict that
  holds says "sampled".
"""

from __future__ import annotations

from typing import Optional

from .algebra import FiniteSemiring, Verdict
from .domain import _instances
from .models import Relation, RelModel, _bit_positions

__all__ = [
    "TerminationReport",
    "is_noetherian",
    "is_well_founded",
    "is_loebian",
    "stuck_set",
    "transitive_closure",
    "termination_report",
]

ENUM_BUDGET = 4096


class TerminationReport:
    """The three verdicts on one element, headed by its subject.

    subject is a string, or a no-argument callable that formats it when it
    is first read (by .subject, str() or ==), so a report that is never
    printed never formats it.
    """

    __slots__ = ("_subject", "noetherian", "well_founded", "loebian")

    def __init__(self, subject, noetherian: Verdict, well_founded: Verdict, loebian: Verdict):
        self._subject = subject
        self.noetherian, self.well_founded, self.loebian = noetherian, well_founded, loebian

    @property
    def subject(self) -> str:
        if callable(self._subject):
            self._subject = self._subject()
        return self._subject

    def _fields(self) -> tuple:
        return self.subject, self.noetherian, self.well_founded, self.loebian

    def __eq__(self, other):
        if not isinstance(other, TerminationReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        names = ("subject", *self.__slots__[1:])
        return "TerminationReport(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields())) + ")"

    def __str__(self):
        def cell(v: Verdict, label):
            if v.holds:
                return f"{label}=true (sampled)" if v.note == "sampled" else f"{label}=true"
            w = f" (witness {v.note})" if v.note else ""
            return f"{label}=false{w}"

        return (
            f"{self.subject}: "
            + " ".join(
                (
                    cell(self.noetherian, "noetherian"),
                    cell(self.well_founded, "well_founded"),
                    cell(self.loebian, "loebian"),
                )
            )
        )


def _verdict(D, bad_p, exhaustive: bool, what: str) -> Verdict:
    if bad_p is None:
        note = "" if exhaustive else "sampled"
        return Verdict(True, note=note)
    return Verdict(False, witness=bad_p, note=f"{what} at p = {D.test_name(bad_p)}")


def _search(D, bad, budget: int, samples: int, rng, what: str) -> Verdict:
    """The verdict of the first test p with bad(p), over domain._instances."""
    pool, exhaustive = _instances(D, (True,), budget, samples, rng)
    return _verdict(D, next((p for (p,) in pool if bad(p)), None), exhaustive, what)


def stuck_set(D, a, forward: bool = False):
    """The greatest test p with p <= a:p (p <= p:a when forward).

    An atom worklist for the greatest post-fixpoint of x -> x (a:x): every
    atom starts in x, and an atom leaves once no atom left in x steps into
    it.  Each atom's preimage (image when forward) is read once, as atom
    positions, and each atom is removed at most once.  Exact when a:x is
    the join of a:t over the atoms t below x, as in every relation model
    and, by d1 and d2 (cd1 and cd2 for image), in every domain structure.
    """
    m = len(D.atom_positions(D.test_one))
    # atom k keeps alive the atoms in kept[k]
    kept = [D.image_positions(k, a) if forward else D.preimage_positions(a, k) for k in range(m)]
    support = [0] * m  # support[j]: atoms in x that keep atom j alive
    for js in kept:
        for j in js:
            support[j] += 1
    alive = bytearray(b"\x01" * m)
    work = [k for k, c in enumerate(support) if c == 0]
    while work:
        k = work.pop()
        alive[k] = 0
        for j in kept[k]:
            support[j] -= 1
            if support[j] == 0:
                work.append(j)
    return D.test_from_positions(k for k in range(m) if alive[k])


def _terminates(D, a, forward: bool, budget: int, samples: int, rng) -> Verdict:
    """No nonzero test p satisfies p <= a:p (p <= p:a when forward)."""
    what = "p <= p:a" if forward else "p <= a:p"
    monotone = ("cd1", "cd2") if forward else ("d1", "d2")
    if D.test_count() > budget and all(getattr(D, "flags", {}).get(f, False) for f in monotone):
        stuck = stuck_set(D, a, forward)
        return _verdict(D, None if stuck == D.test_zero else stuck, True, what)
    step = (lambda p: D.image(p, a)) if forward else (lambda p: D.preimage(a, p))
    return _search(D, lambda p: p != D.test_zero and D.test_leq(p, step(p)), budget, samples, rng, what)


def is_noetherian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= a:p (no backward-closed cycle)."""
    return _terminates(D, a, False, budget, samples, rng)


def is_well_founded(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= p:a (no forward-closed cycle)."""
    return _terminates(D, a, True, budget, samples, rng)


def _intransitive_step(a: Relation):
    """A test {j,k} for the first i -> j -> k (least i, then j, then k) without i -> k, or None."""
    rows = a.rows
    for row in rows:
        for j in _bit_positions(row):
            missing = rows[j] & ~row
            if missing:
                return (1 << j) | (missing & -missing)
    return None


_LOEB_FAILS = "a:p not below a:(p - a:p)"


def _loeb(D, a, noetherian: Optional[Verdict], budget: int, samples: int, rng) -> Verdict:
    """a:p <= a:(p - a:p) for all tests p, given a's Noetherian verdict if known.

    Past the budget a relation is Löbian iff it is transitive and
    Noetherian, and its Noetherian verdict is exact there, its witness the
    stuck set.  A nonzero stuck set p fails the law (a:p >= p and
    p - a:p = 0); on an acyclic relation so does p = {j,k} for a step
    i -> j -> k without i -> k (p - a:p = {k}, and i lies in a:p but not
    in a:{k}).
    """
    if isinstance(D, RelModel) and D.test_count() > budget:
        if noetherian is None:
            noetherian = is_noetherian(D, a, budget, samples, rng)
        return _verdict(D, noetherian.witness if not noetherian.holds else _intransitive_step(a), True, _LOEB_FAILS)

    def bad(p):
        pre = D.preimage(a, p)
        return not D.test_leq(pre, D.preimage(a, D.test_meet(p, D.test_compl(pre))))

    return _search(D, bad, budget, samples, rng, _LOEB_FAILS)


def is_loebian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """a:p <= a:(p - a:p) for all tests p, with p - q meaning p q'.

    Past the budget a relation is decided exactly, as transitive and
    Noetherian.
    """
    return _loeb(D, a, None, budget, samples, rng)


def transitive_closure(D, a):
    """a+ = a a*, the least transitive element above a."""
    if not isinstance(D, FiniteSemiring):
        return D.mul(a, D.star(a))
    if D.star is None:
        raise ValueError(f"{D.name} has no star operation")
    return int(D.mul[a, D.star[a]])


def termination_report(
    D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None, subject: Optional[str] = None
) -> TerminationReport:
    """The three verdicts on a, reported under subject (default: a's element name, formatted when first read)."""
    # past the budget on a relation, the Noetherian witness is the stuck set the Löb verdict needs
    noetherian = is_noetherian(D, a, budget, samples, rng)
    return TerminationReport(
        subject=(lambda: D.el_name(a)) if subject is None else subject,
        noetherian=noetherian,
        well_founded=is_well_founded(D, a, budget, samples, rng),
        loebian=_loeb(D, a, noetherian, budget, samples, rng),
    )
