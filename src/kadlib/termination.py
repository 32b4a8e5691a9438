"""Termination analysis: Noethericity, well-foundedness, the Löb property.

An element is Noetherian when no nonzero test survives stepping backwards
through it (p <= a:p forces p = 0); relationally that is acyclicity.
Well-foundedness is the same condition through the image operator, i.e.
Noethericity of the converse.  The Löb property is the preimage form of
the modal axiom: every step lands in states whose further steps leave the
already-reached part, here p - q means p q'.

All checks quantify over the test algebra; they enumerate it exhaustively
while it is small and fall back to random sampling past a budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algebra import FiniteSemiring, Verdict

__all__ = [
    "TerminationReport",
    "is_noetherian",
    "is_well_founded",
    "is_loebian",
    "transitive_closure",
    "termination_report",
]

ENUM_BUDGET = 4096


@dataclass(frozen=True)
class TerminationReport:
    subject: str
    noetherian: Verdict
    well_founded: Verdict
    loebian: Verdict

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


def _tests(D, budget: int, samples: int, rng):
    """All tests if the algebra is small, a random stream otherwise."""
    count = D.test_count()
    if count <= budget:
        return D.test_members(), True
    rng = rng or random.Random(0)
    return (D.sample_test(rng) for _ in range(samples)), False


def _verdict(D, bad_p, exhaustive: bool, what: str) -> Verdict:
    if bad_p is None:
        note = "" if exhaustive else "sampled"
        return Verdict(True, note=note)
    return Verdict(False, witness=bad_p, note=f"{what} at p = {D.test_name(bad_p)}")


def is_noetherian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= a:p (no backward-closed cycle)."""
    pool, exhaustive = _tests(D, budget, samples, rng)
    zero = D.test_zero
    for p in pool:
        if p == zero:
            continue
        if D.test_leq(p, D.preimage(a, p)):
            return _verdict(D, p, exhaustive, "p <= a:p")
    return _verdict(D, None, exhaustive, "")


def is_well_founded(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """No nonzero test p satisfies p <= p:a (no forward-closed cycle)."""
    pool, exhaustive = _tests(D, budget, samples, rng)
    zero = D.test_zero
    for p in pool:
        if p == zero:
            continue
        if D.test_leq(p, D.image(p, a)):
            return _verdict(D, p, exhaustive, "p <= p:a")
    return _verdict(D, None, exhaustive, "")


def is_loebian(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> Verdict:
    """a:p <= a:(p - a:p) for all tests p, with p - q meaning p q'."""
    pool, exhaustive = _tests(D, budget, samples, rng)
    for p in pool:
        pre = D.preimage(a, p)
        rest = D.test_meet(p, D.test_compl(pre))
        if not D.test_leq(pre, D.preimage(a, rest)):
            return _verdict(D, p, exhaustive, "a:p not below a:(p - a:p)")
    return _verdict(D, None, exhaustive, "")


def transitive_closure(D, a):
    """a+ = a a*, the least transitive element above a."""
    if not isinstance(D, FiniteSemiring):
        return D.mul(a, D.star(a))
    if D.star is None:
        raise ValueError(f"{D.name} has no star operation")
    return int(D.mul[a, D.star[a]])


def termination_report(D, a, budget: int = ENUM_BUDGET, samples: int = 2000, rng=None) -> TerminationReport:
    return TerminationReport(
        subject=D.el_name(a),
        noetherian=is_noetherian(D, a, budget, samples, rng),
        well_founded=is_well_founded(D, a, budget, samples, rng),
        loebian=is_loebian(D, a, budget, samples, rng),
    )
