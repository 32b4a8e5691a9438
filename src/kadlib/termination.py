"""Termination analysis: Noethericity, well-foundedness, the Löb property.

An element is Noetherian when no nonzero test survives stepping backwards
through it (p <= a:p forces p = 0); relationally that is acyclicity.
Well-foundedness is the same condition through the image operator, i.e.
Noethericity of the converse.  The Löb property is the preimage form of
the modal axiom: every step lands in states whose further steps leave the
already-reached part, here p - q means p q'.

A verdict comes from the first rung of one ladder (_search) that applies:

- Where laws._instances lists the tests (at most `budget` of them; a
  RelModel lists at most 2^16), they are tried in order, and a failing
  verdict names the first failing test.
- Else an exact rung decides, where the verdict has one.  Noethericity
  has one wherever the laws name atomic-preimage (laws._ATOMIC; every
  relation model does): the greatest test p with p <= a:p, the stuck
  set, is the complement of what reach's counting worklist grows from
  the atoms that step nowhere, and a is Noetherian iff it is 0;
  otherwise it is the witness.  Well-foundedness is the same with image
  for preimage, where the laws name atomic-image.  On relations, a is
  Löbian iff it is transitive and Noetherian, and the Noetherian verdict
  supplies the stuck set.
- Else `samples` random tests are tried, and a verdict that holds says
  "sampled".
"""

from __future__ import annotations

from typing import Optional

from .laws import Verdict, _Record, _instances, _require_tests
from .models import RelModel
from .reach import _grow

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


class TerminationReport(_Record):
    """The three verdicts on one element, headed by its subject.

    subject is a string, or a no-argument callable that formats it when it
    is first read (by .subject, str(), repr(), == or hash()), so a report
    that is never printed never formats it.
    """

    _fields = ("subject", "noetherian", "well_founded", "loebian")

    def __init__(self, subject, noetherian: Verdict, well_founded: Verdict, loebian: Verdict):
        self.__dict__.update(_subject=subject, noetherian=noetherian, well_founded=well_founded, loebian=loebian)

    @property
    def subject(self) -> str:
        if callable(self._subject):
            self.__dict__["_subject"] = self._subject()
        return self._subject

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


def _search(D, bad, exact, budget: int, samples: int, rng, what: str) -> Verdict:
    """The verdict of the first test p with bad(p) where laws._instances lists the tests; else exact(), a failing
    test or None, where exact is given (not None); else that of the first sampled test p with bad(p)."""
    pool, listed = _instances(D, (True,), budget, samples, rng)
    bad_p = exact() if not listed and exact is not None else next((p for (p,) in pool if bad(p)), None)
    if bad_p is None:
        return Verdict(True, note="" if listed or exact is not None else "sampled")
    return Verdict(False, witness=bad_p, note=f"{what} at p = {D.test_name(bad_p)}")


def stuck_set(D, a, forward: bool = False):
    """The greatest test p with p <= a:p (p <= p:a when forward).

    Its complement is a least fixpoint, grown by reach's counting worklist
    from the atoms that step nowhere: an atom joins once every atom it
    steps into (is stepped into from, when forward) has joined.  The
    preimage rows (image rows when forward) come from one model call, so D's
    laws must name atomic-preimage (atomic-image when forward).
    """
    # atom k feeds the atoms that step into it (that it steps into, when forward)
    feeds = D.image_rows(a) if forward else D.preimage_rows(a)
    need = [0] * len(feeds)  # need[j]: how many of the rows hold j
    for js in feeds:
        for j in js:
            need[j] += 1
    gone = _grow([k for k, c in enumerate(need) if c == 0], feeds.__getitem__, need)
    return D.test_compl(D.test_from_positions(gone))


def _terminates(D, a, forward: bool, budget: int, samples: int, rng) -> Verdict:
    """No nonzero test p satisfies p <= a:p (p <= p:a when forward)."""
    _require_tests(D, ["is_well_founded" if forward else "is_noetherian"])
    what = "p <= p:a" if forward else "p <= a:p"
    step = (lambda p: D.image(p, a)) if forward else (lambda p: D.preimage(a, p))
    atomic = ("atomic-image" if forward else "atomic-preimage") in D.laws
    # where the atom rows decide the step, the stuck set is the greatest failing test
    exact = (lambda: None if (p := stuck_set(D, a, forward)) == D.test_zero else p) if atomic else None
    return _search(D, lambda p: p != D.test_zero and D.test_leq(p, step(p)), exact, budget, samples, rng, what)


def is_noetherian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= a:p (no backward-closed cycle)."""
    return _terminates(D, a, False, budget, samples, rng)


def is_well_founded(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= p:a (no forward-closed cycle)."""
    return _terminates(D, a, True, budget, samples, rng)


_LOEB_FAILS = "a:p not below a:(p - a:p)"


def _loeb(D, a, noetherian: Optional[Verdict], budget: int, samples: int, rng) -> Verdict:
    """a:p <= a:(p - a:p) for all tests p, given a's Noetherian verdict if known.

    Where _instances does not list the tests, a relation is Löbian iff it
    is transitive and Noetherian, and its Noetherian verdict is exact there,
    its witness the stuck set.  A nonzero stuck set p fails the law
    (a:p >= p and p - a:p = 0); on an acyclic relation so does p = {j,k}
    for a step i -> j -> k without i -> k (p - a:p = {k}, and i lies in
    a:p but not in a:{k}).
    """
    _require_tests(D, ["is_loebian"])

    def bad(p):
        pre = D.preimage(a, p)
        return not D.test_leq(pre, D.preimage(a, D.test_meet(p, D.test_compl(pre))))

    def exact():  # on relations: transitive and Noetherian
        v = is_noetherian(D, a, budget, samples, rng) if noetherian is None else noetherian
        return v.witness if not v.holds else D.intransitive_step(a)

    return _search(D, bad, exact if isinstance(D, RelModel) else None, budget, samples, rng, _LOEB_FAILS)


def is_loebian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """a:p <= a:(p - a:p) for all tests p, with p - q meaning p q'.

    Where _instances does not list the tests (past the budget, or past
    the 2^16 a RelModel lists), a relation is decided exactly, as
    transitive and Noetherian.
    """
    return _loeb(D, a, None, budget, samples, rng)


def transitive_closure(D, a):
    """a+ = a a*, the least transitive element above a: by D's tables where mul is one (a FiniteSemiring)."""
    if callable(D.mul):
        return D.mul(a, D.star(a))
    if D.star is None:
        raise ValueError(f"{D.name} has no star operation")
    return int(D.mul[a, D.star[a]])


def termination_report(
    D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None, subject: Optional[str] = None
) -> TerminationReport:
    """The three verdicts on a, reported under subject (default: a's element name, formatted when first read)."""
    # where the tests are not listed, a relation's Noetherian witness is the stuck set the Löb verdict needs
    noetherian = is_noetherian(D, a, budget, samples, rng)
    return TerminationReport(
        subject=(lambda: D.el_name(a)) if subject is None else subject,
        noetherian=noetherian,
        well_founded=is_well_founded(D, a, budget, samples, rng),
        loebian=_loeb(D, a, noetherian, budget, samples, rng),
    )
