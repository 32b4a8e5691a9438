"""Domain and codomain operators on finite test semirings.

The domain of a is the least test p that preserves a on the left (a <= pa);
codomain is the same computation with the product reversed (a <= ap).  Both
are stored as unary tables inside a DomainStructure, which also exposes the
image and preimage operators and the laws known to hold (d1, d2, locality,
..., atomic-preimage) that downstream reachability and termination analyses key on.

As in algebra, checkers report rather than raise: structures that violate
the axioms (independence proofs, locality counterexamples) are data here.
The laws they check (DOMAIN_AXIOMS, DOMAIN_CALCULUS, CONVERSE_LAWS and
CONVERSE_DUALITY) are stated in catalogue and re-exported here.
"""

from __future__ import annotations

import functools
import random
from typing import Optional

from .algebra import FiniteSemiring, TestAlgebra, _commuting, _decide, _exact, _orbit_least, _Scanner, _Tables, _walk, check_laws, np
from .catalogue import _ADDITIVITY, CONVERSE_DUALITY, CONVERSE_LAWS, DOMAIN_AXIOMS, DOMAIN_CALCULUS
from .laws import Law, LawReport, Verdict, _ISEMIRING_NAMES, _require_tests, _with_atomic

__all__ = [
    "DomainStructure", "compute_predomain", "compute_precodomain", "check_domain_axioms", "check_domain_calculus",
    "check_converse", "converse_duality_check", "is_integral", "run_laws", "DOMAIN_AXIOMS", "DOMAIN_CALCULUS",
    "CONVERSE_LAWS", "CONVERSE_DUALITY",
]


class DomainStructure(_Tables):
    """A semiring with test algebra plus domain and codomain tables.

    delta/rho map each carrier index to a test; they may be any maps (the
    axioms are checked, not assumed).  laws names the laws known to hold on
    every instance: the guards of _decide_axioms, the DOMAIN_AXIOMS that
    held and the owner's star axioms that held (its _star_axiom_reports), all
    decided on construction, and the laws._ATOMIC facts they give.  Its element
    surface (zero, one, add, mul, leq, star and conv, which raise where the
    owner has no column) and test operations are _Tables' over owner and tests.
    """

    def __init__(self, owner: FiniteSemiring, tests: TestAlgebra, delta, rho, name: str = ""):
        if tests.owner is not owner and tests.owner != owner:
            raise ValueError("test algebra belongs to a different semiring")
        super().__init__(owner, tests)
        self.owner = owner
        self.tests = tests
        self.delta = np.asarray(delta, dtype=np.int32)
        self.rho = np.asarray(rho, dtype=np.int32)
        for t, what in ((self.delta, "delta"), (self.rho, "rho")):
            if t.shape != (owner.n,):
                raise ValueError(f"{what} table must have length {owner.n}")
            if t.min() < 0 or t.max() >= owner.n or not tests._member_mask[t].all():
                raise ValueError(f"{what} table must land in the test algebra")
        self.delta.setflags(write=False)
        self.rho.setflags(write=False)
        self.name = name or f"domain({owner.name})"
        # the atoms in ascending element order; an atom's position is its index here
        self._atoms = sorted(tests.atoms())
        self._top = owner.top()
        # the tables are read-only, so the guards and the axioms are decided once, here
        guards, self._axiom_reports = self._decide_axioms()
        self.laws = _with_atomic(guards.union(r.name for r in self._axiom_reports if r.holds))

    def _decide_axioms(self) -> tuple[frozenset, list[LawReport]]:
        """(guards, reports): the guards of algebra._rewrite that hold here, then the DOMAIN_AXIOMS reports behind them.

        The guards are the owner's isemiring laws and star axioms and the
        test-algebra laws that held, dom- and cod-additive (scanned here,
        outside the printed calculus) and atomic-tests: every test is the
        join of the atoms below it.  Once the isemiring laws hold every element is a join of
        join-irreducibles, so a map d is additive iff d(a + j) = d(a) + d(j)
        for every a and every join-irreducible j: the additivity laws are
        scanned with b over those, and the ladder's reductions of dom- and
        cod-additive read these verdicts.  The axioms llp, gla, lrp and gra are
        certified once d1 and d2 (cd1 and cd2) and the laws their
        derivations use have held (their catalogue._CERTIFICATES entries).
        """
        held = {r.name for r in (*self.owner._isemiring_reports, *self.tests._reports) if r.holds}
        if self.owner.star is not None:
            held.update(r.name for r in self.owner._star_axiom_reports if r.holds)
        # made once the isemiring and Kleene scans have ended, so that two scanners' chunk buffers never coexist
        scanner = _Scanner(self.owner, D=self)
        if held.issuperset(_ISEMIRING_NAMES):
            held |= {law.name for law in _ADDITIVITY if scanner.first_failure(law, (None, self.join_irreducibles())) is None}
        if all(self.test_from_positions(self.atom_positions(p)) == p for p in self.tests.members):
            held.add("atomic-tests")
        guards = frozenset(held)
        return guards, _exact(DOMAIN_AXIOMS, scanner, (), guards)

    @functools.cached_property
    def _symmetries(self) -> tuple:
        """The test algebra's symmetries that commute with the domain and codomain tables."""
        return _commuting(self.tests._symmetries, self.delta, self.rho)

    _orbit_least = _orbit_least

    # -- the operators -------------------------------------------------

    def dom(self, a: int) -> int:
        return int(self.delta[a])

    def cod(self, a: int) -> int:
        return int(self.rho[a])

    def preimage(self, a: int, p: int) -> int:
        """a : p, the states from which a can enter p (= dom(a p))."""
        self.tests.require(p)
        return int(self.delta[self.owner.mul[a, p]])

    def image(self, p: int, a: int) -> int:
        """p : a, the states a reaches from p (= cod(p a))."""
        self.tests.require(p)
        return int(self.rho[self.owner.mul[p, a]])

    # -- element surface (the ModelHandle names) -------------------------

    @property
    def has_star(self) -> bool:
        return self.owner.star is not None

    @property
    def top(self) -> Optional[int]:
        return self._top

    def el_name(self, x: int) -> str:
        return self.owner.element_name(x)

    def elements(self) -> range:
        return range(self.owner.n)

    def size(self) -> int:
        return self.owner.n

    def join_irreducibles(self) -> list[int]:
        """The elements other than 0 that are the sum of no two others (FiniteSemiring._join_irreducibles)."""
        return self.owner._join_irreducibles

    def sample(self, rng) -> int:
        return rng.randrange(self.owner.n)

    def embed(self, p: int) -> int:
        self.tests.require(p)
        return p

    # -- test surface ----------------------------------------------------

    def test_members(self) -> list[int]:
        return list(self.tests.members)

    def test_count(self) -> int:
        return len(self.tests.members)

    def sample_test(self, rng) -> int:
        return self.tests.members[rng.randrange(len(self.tests.members))]

    def atoms_below(self, p: int) -> list[int]:
        return [t for t in self._atoms if self.owner.leq(t, p)]

    def atom_positions(self, p: int) -> list[int]:
        return [k for k, t in enumerate(self._atoms) if self.owner.leq(t, p)]

    def test_from_positions(self, ks) -> int:
        return functools.reduce(self.test_join, (self._atoms[k] for k in ks), self.test_zero)

    def preimage_rows(self, a: int) -> list[list[int]]:
        if "atomic-preimage" not in self.laws:
            raise ValueError(f"{self.name} lacks atomic-preimage: atom rows do not give a:p")
        return [self.atom_positions(self.preimage(a, t)) for t in self._atoms]

    def image_rows(self, a: int) -> list[list[int]]:
        if "atomic-image" not in self.laws:
            raise ValueError(f"{self.name} lacks atomic-image: atom rows do not give p:a")
        return [self.atom_positions(self.image(t, a)) for t in self._atoms]

    def test_name(self, p: int) -> str:
        return self.owner.element_name(p)

    def __repr__(self):
        return f"DomainStructure({self.name!r})"


def _least_preservers(S: FiniteSemiring, T: TestAlgebra, M) -> list[int]:
    """For each element a, the least test p with a <= M[p, a].

    M = S.mul gives the domain (a <= p a), M = S.mul.T the codomain
    (a <= a p).  Tests are tried smallest-first, so the first preserver is
    the least one; the meet of all preservers, folded in member order with
    meet M[m, p], must equal it, be a test and preserve a.  The first
    element for which either fails raises.
    """
    members = np.asarray(T.members)
    ar = np.arange(S.n)
    P = M[members]
    preserves = S.add[ar, P] == P
    # smallest-first: by the number of tests below, then by index
    smallest = np.lexsort((members, (S.add[np.ix_(members, members)] == members).sum(axis=0)))
    first = members[smallest][np.argmax(preserves[smallest], axis=0)]
    # -1 until a preserver is met
    meet = np.full(S.n, -1)
    for p, row in zip(members, preserves):
        meet = np.where(row, np.where(meet < 0, p, M[meet, p]), meet)
    Pm = M[meet, ar]
    bad = (meet != first) | ~np.isin(meet, members) | (S.add[ar, Pm] != Pm)
    if bad.any():
        a = int(np.argmax(bad))
        if meet[a] < 0:
            raise ValueError(
                f"{S.element_name(a)!r} has no left-preserving test; "
                "the test algebra is too small or the laws fail"
            )
        raise ValueError(
            f"left preservers of {S.element_name(a)!r} have no least element; "
            "the declared tests do not form a lattice under the semiring order"
        )
    return meet.tolist()


def compute_predomain(S: FiniteSemiring, T: TestAlgebra) -> DomainStructure:
    """Domain and codomain tables for S: least left/right preservers.

    Codomain is the same pass as domain with the product reversed.  The
    structure is built once per semiring and test algebra (its members and
    complements) and kept on S, whose tables are read-only.
    """
    key = (T.members, tuple(sorted(T.compl.items())))
    if key not in S._predomains:
        delta = _least_preservers(S, T, S.mul)
        S._predomains[key] = DomainStructure(S, T, delta, compute_precodomain(S, T), name=S.name)
    return S._predomains[key]


def compute_precodomain(S: FiniteSemiring, T: TestAlgebra) -> list[int]:
    """Just the codomain table: the least right preservers."""
    return _least_preservers(S, T, S.mul.T)


# ---------------------------------------------------------------------------
# axiom and calculus checkers


def check_domain_axioms(D: DomainStructure) -> list[LawReport]:
    """The domain/codomain axioms and their least/greatest characterizations.

    d1: a <= dom(a) a          cd1: a <= a cod(a)
    d2: dom(p a) <= p          cd2: cod(a p) <= p
    dloc: dom(a dom(b)) <= dom(a b)   and cdloc dually
    llp/gla (lrp/gra): dom (cod) is the least preserver / the complement of
    the greatest annihilator, stated as equivalences over all (a, p).
    They are decided once per structure, on construction, by the exact
    ladder (see the algebra module docstring) behind the guards that held
    there, and the reports are kept: d1, d2, dloc and their mirrors are
    rewritten, a and b over 0 and the join-irreducibles and p over 0 and
    the atoms, and llp, gla, lrp and gra certified.
    """
    return list(D._axiom_reports)


def check_domain_calculus(D: DomainStructure) -> list[LawReport]:
    """The derived domain laws and the image/preimage calculus.

    Everything a computed predomain should satisfy: strictness through
    complement commutation, the top-element Galois connection, and the
    preimage exchange/decomposition laws.  Laws that need locality are
    checked only when dloc and cdloc are in D.laws and reported as not
    applicable otherwise.  They are decided by the exact ladder (see the
    algebra module docstring) behind D.laws: every law but dom-additive is
    certified once the laws its derivation uses have held (the
    catalogue._CERTIFICATES entries), and dom-additive is reduced to the
    verdict taken on construction.
    """
    return _exact(DOMAIN_CALCULUS, _Scanner(D.owner, D=D), (), D.laws)


def is_integral(S: FiniteSemiring) -> Verdict:
    """No zero divisors: a b = 0 only if a = 0 or b = 0."""
    M = S.mul
    nz = np.arange(S.n) != S.zero
    bad = (M == S.zero) & nz[:, None] & nz[None, :]
    if not bad.any():
        return Verdict(True)
    i = int(np.argmax(bad.reshape(-1)))
    a, b = divmod(i, S.n)
    return Verdict(
        False,
        witness={"a": a, "b": b},
        note=f"{S.element_name(a)}·{S.element_name(b)} = 0",
    )


# ---------------------------------------------------------------------------
# converse


def check_converse(S: FiniteSemiring) -> list[LawReport]:
    """Involution, additivity, contravariance, subidentity weakening and
    the modular self-embedding a <= a a° a, plus their small consequences."""
    if S.conv is None:
        raise ValueError(f"{S.name} declares no converse table")
    return check_laws(CONVERSE_LAWS, S)


def converse_duality_check(D: DomainStructure) -> list[LawReport]:
    """dom/cod swap under converse: dom(a°) = cod(a) and friends."""
    if D.owner.conv is None:
        return [LawReport("converse-duality", True, None, "not applicable: no converse declared")]
    return check_laws(CONVERSE_DUALITY, D.owner, D=D)


# ---------------------------------------------------------------------------
# laws over the domain surface, exhaustive or sampled


def _uses_tests(law: Law) -> bool:
    """Whether law quantifies over tests or applies dom, cod or complement."""
    return bool(law.tests) or any(u.op in ("dom", "cod", "not") for t in (law.concl, *law.premises) for u in _walk(t))


def run_laws(laws, D, budget: int, samples: int, rng=None) -> list[LawReport]:
    """One report per law, for any model with the domain surface, from algebra._decide's ladder (see the algebra module
    docstring): not applicable, reduction, certified by <law>, exhaustive, reduced (k) or sampled (n).

    The laws held at the start are the model's laws.  A DomainStructure's
    instances are scanned by check_laws' scanner, any other model's are
    checked through its methods, and samples are drawn from rng (default:
    seeded 0).  Witnesses hold element and test names.
    """
    _require_tests(D, (law.name for law in laws if _uses_tests(law)))
    scanner = _Scanner(D.owner, D=D) if isinstance(D, DomainStructure) else None
    reports = _decide(laws, D, scanner, D.laws, (), budget, samples, rng or random.Random(0))

    def named(law: Law, witness: dict) -> dict:
        return {v: D.test_name(x) if v in law.tests else D.el_name(x) for v, x in witness.items()}

    return [r if r.holds else LawReport(r.name, False, named(law, r.witness), r.note) for law, r in zip(laws, reports)]
