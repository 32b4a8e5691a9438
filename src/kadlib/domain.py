"""Domain and codomain operators on finite test semirings.

The domain of a is the least test p that preserves a on the left (a <= pa);
codomain is the same computation in the opposite semiring.  Both are stored
as unary tables inside a DomainStructure, which also exposes the image and
preimage operators and the flags (d1, d2, locality, ...) that downstream
reachability and termination analyses key on.

As in algebra, checkers report rather than raise: structures that violate
the axioms (independence proofs, locality counterexamples) are data here.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .algebra import (
    FiniteSemiring,
    Law,
    LawReport,
    TestAlgebra,
    Verdict,
    check_laws,
    cod,
    compl,
    conv,
    dom,
    eq,
    iff,
    leq,
    one_term,
    opposite,
    top_term,
    var,
    zero_term,
)

__all__ = [
    "DomainStructure",
    "compute_predomain",
    "compute_precodomain",
    "check_domain_axioms",
    "check_domain_calculus",
    "check_converse",
    "converse_duality_check",
    "is_integral",
    "law_runner",
    "DOMAIN_AXIOMS",
    "DOMAIN_CALCULUS",
    "CONVERSE_LAWS",
    "CONVERSE_DUALITY",
]

_FLAG_LAWS = ("d1", "d2", "dloc", "cd1", "cd2", "cdloc")


class DomainStructure:
    """A semiring with test algebra plus domain and codomain tables.

    delta/rho map each carrier index to a test; they may be any maps (the
    axioms are checked, not assumed).  flags caches which axioms hold; pass
    flags=None to have them computed on construction.
    """

    def __init__(
        self,
        owner: FiniteSemiring,
        tests: TestAlgebra,
        delta,
        rho,
        flags: Optional[dict] = None,
        name: str = "",
    ):
        if tests.owner is not owner and tests.owner != owner:
            raise ValueError("test algebra belongs to a different semiring")
        self.owner = owner
        self.tests = tests
        self.delta = np.asarray(delta, dtype=np.int32)
        self.rho = np.asarray(rho, dtype=np.int32)
        for t, what in ((self.delta, "delta"), (self.rho, "rho")):
            if t.shape != (owner.n,):
                raise ValueError(f"{what} table must have length {owner.n}")
            if any(int(v) not in tests.compl for v in t):
                raise ValueError(f"{what} table must land in the test algebra")
        self.delta.setflags(write=False)
        self.rho.setflags(write=False)
        self.name = name or f"domain({owner.name})"
        self._top = owner.top()
        if flags is None:
            reports = check_domain_axioms(self)
            flags = {r.name: r.holds for r in reports if r.name in _FLAG_LAWS}
            flags["integral"] = is_integral(owner).holds
        self.flags = dict(flags)

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

    # -- element surface (shared shape with RelModel) -------------------

    @property
    def has_star(self) -> bool:
        return self.owner.star is not None

    def el_add(self, x: int, y: int) -> int:
        return int(self.owner.add[x, y])

    def el_mul(self, x: int, y: int) -> int:
        return int(self.owner.mul[x, y])

    def el_star(self, x: int) -> int:
        if self.owner.star is None:
            raise ValueError(f"{self.owner.name} has no star operation")
        return int(self.owner.star[x])

    def el_leq(self, x: int, y: int) -> bool:
        return self.owner.leq(x, y)

    @property
    def el_zero(self) -> int:
        return self.owner.zero

    @property
    def el_one(self) -> int:
        return self.owner.one

    @property
    def el_top(self) -> Optional[int]:
        return self._top

    def el_name(self, x: int) -> str:
        return self.owner.element_name(x)

    def elements(self) -> range:
        return range(self.owner.n)

    def size(self) -> int:
        return self.owner.n

    def sample(self, rng) -> int:
        return rng.randrange(self.owner.n)

    def embed(self, p: int) -> int:
        self.tests.require(p)
        return p

    # -- test surface ----------------------------------------------------

    @property
    def test_zero(self) -> int:
        return self.owner.zero

    @property
    def test_one(self) -> int:
        return self.owner.one

    def test_members(self) -> list[int]:
        return list(self.tests.members)

    def test_count(self) -> int:
        return len(self.tests.members)

    def sample_test(self, rng) -> int:
        return self.tests.members[rng.randrange(len(self.tests.members))]

    def test_atoms(self) -> list[int]:
        return self.tests.atoms()

    def atoms_below(self, p: int) -> list[int]:
        return self.tests.atoms_below(p)

    def test_join(self, p: int, q: int) -> int:
        return self.tests.join(p, q)

    def test_meet(self, p: int, q: int) -> int:
        return self.tests.meet(p, q)

    def test_compl(self, p: int) -> int:
        return self.tests.complement(p)

    def test_leq(self, p: int, q: int) -> bool:
        return self.owner.leq(p, q)

    def test_name(self, p: int) -> str:
        return self.owner.element_name(p)

    def __repr__(self):
        return f"DomainStructure({self.name!r})"


def _least_preserver(S: FiniteSemiring, T: TestAlgebra, a: int, ordered) -> int:
    preservers = [p for p in T.members if S.leq(a, int(S.mul[p, a]))]
    if not preservers:
        raise ValueError(
            f"{S.element_name(a)!r} has no left-preserving test; "
            "the test algebra is too small or the laws fail"
        )
    for p in ordered:
        if S.leq(a, int(S.mul[p, a])):
            first = p
            break
    m = preservers[0]
    for p in preservers[1:]:
        m = T.meet(m, p)
    if m != first or m not in T.compl or not S.leq(a, int(S.mul[m, a])):
        raise ValueError(
            f"left preservers of {S.element_name(a)!r} have no least element; "
            "the declared tests do not form a lattice under the semiring order"
        )
    return m


def compute_predomain(S: FiniteSemiring, T: TestAlgebra, name: str = "") -> DomainStructure:
    """Domain and codomain tables for S: least left/right preservers.

    Tests are scanned smallest-first, so the first preserver found is the
    least one; a meet-of-all-preservers cross-check guards the claim.
    Codomain is the same computation with multiplication reversed.
    """
    ordered = sorted(T.members, key=lambda p: (T.lower_size(p), p))
    delta = [_least_preserver(S, T, a, ordered) for a in range(S.n)]
    return DomainStructure(S, T, delta, compute_precodomain(S, T), flags=None, name=name or S.name)


def compute_precodomain(S: FiniteSemiring, T: TestAlgebra) -> list[int]:
    """Just the codomain table: predomain of the opposite semiring."""
    So = opposite(S)
    To = TestAlgebra(So, T.members, T.compl)
    ordered = sorted(To.members, key=lambda p: (To.lower_size(p), p))
    return [_least_preserver(So, To, a, ordered) for a in range(S.n)]


# ---------------------------------------------------------------------------
# axiom and calculus checkers


def _domain_law_tables():
    a, b, p, q = var("a"), var("b"), var("p"), var("q")
    zero, one = zero_term, one_term
    local = ("dloc", "cdloc")
    axioms = (
        Law("d1", "a", leq(a, dom(a) * a)),
        Law("d2", "p a", leq(dom(p * a), p), tests="p"),
        Law("dloc", "a b", leq(dom(a * dom(b)), dom(a * b))),
        Law("llp", "p a", iff(leq(dom(a), p), leq(a, p * a)), tests="p"),
        Law("gla", "p a", iff(leq(dom(a), p), eq(compl(p) * a, zero)), tests="p"),
        Law("cd1", "a", leq(a, a * cod(a))),
        Law("cd2", "p a", leq(cod(a * p), p), tests="p"),
        Law("cdloc", "a b", leq(cod(cod(a) * b), cod(a * b))),
        Law("lrp", "p a", iff(leq(cod(a), p), leq(a, a * p)), tests="p"),
        Law("gra", "p a", iff(leq(cod(a), p), eq(a * compl(p), zero)), tests="p"),
    )
    calculus = (
        Law("dom-strict", "a", iff(leq(dom(a), zero), leq(a, zero))),
        Law("dom-additive", "a b", eq(dom(a + b), dom(a) + dom(b))),
        Law("dom-monotone", "a b", leq(dom(a), dom(b)), leq(a, b)),
        Law("dom-stable-on-tests", "p", eq(dom(p), p), tests="p"),
        Law("dom-idempotent", "a", eq(dom(dom(a)), dom(a))),
        # the equational strengthening of d1
        Law("dom-left-invariant", "a", eq(dom(a) * a, a)),
        Law("dom-export", "p a", eq(dom(p * a), p * dom(a)), tests="p"),
        Law("dom-decompose", "a b", leq(dom(a * b), dom(a * dom(b)))),
        Law("dom-complement", "p", eq(compl(dom(p)), dom(compl(p))), tests="p"),
        Law("dom-top-galois", "p a", iff(leq(dom(a), p), leq(a, p * top_term)), tests="p", requires=("top",)),
        Law("preimage-of-one", "a", eq(dom(a * one), dom(a))),
        Law("image-of-one", "a", eq(cod(one * a), cod(a))),
        # (51)-(55); a:p is dom(a p) and p:a is cod(p a)
        Law("preimage-vs-commutation", "p q a", iff(leq(dom(a * p), q), leq(a * p, q * a)), tests="p q"),
        Law("preimage-vs-annihilation", "p q a", iff(leq(dom(a * p), q), eq((compl(q) * a) * p, zero)), tests="p q"),
        Law("preimage-import-export", "p q a", eq(p * dom(a * q), dom((p * a) * q)), tests="p q"),
        Law("preimage-exchange", "p q a", iff(leq(dom(a * p), q), leq(cod(compl(q) * a), compl(p))), tests="p q"),
        Law("image-preimage-annihilation", "p q a", iff(eq(cod(p * a) * q, zero), eq(p * dom(a * q), zero)), tests="p q"),
        # (56) p:(a b) <= (p:a):b, with equality under locality
        Law("image-compose-bound", "p a b", leq(cod((p * a) * b), cod(cod(p * a) * b)), tests="p"),
        Law("image-compose-exact", "p a b", eq(cod((p * a) * b), cod(cod(p * a) * b)), tests="p", requires=local),
        # (57)/(58): dom(a b) = a:dom(b); cod(a b) = cod(a):b
        Law("dom-compose-local", "a b", eq(dom(a * b), dom(a * dom(b))), requires=local),
        Law("cod-compose-local", "a b", eq(cod(a * b), cod(cod(a) * b)), requires=local),
        # zero-divisor exchange, locality in equational clothing
        Law("annihilation-via-dom-cod", "a b", iff(eq(a * b, zero), eq(cod(a) * dom(b), zero)), requires=local),
    )
    return axioms, calculus


DOMAIN_AXIOMS, DOMAIN_CALCULUS = _domain_law_tables()


def check_domain_axioms(D: DomainStructure) -> list[LawReport]:
    """The domain/codomain axioms and their least/greatest characterizations.

    d1: a <= dom(a) a          cd1: a <= a cod(a)
    d2: dom(p a) <= p          cd2: cod(a p) <= p
    dloc: dom(a dom(b)) <= dom(a b)   and cdloc dually
    llp/gla (lrp/gra): dom (cod) is the least preserver / the complement of
    the greatest annihilator, stated as equivalences over all (a, p).
    """
    return check_laws(DOMAIN_AXIOMS, D.owner, D=D)


def check_domain_calculus(D: DomainStructure) -> list[LawReport]:
    """The derived domain laws and the image/preimage calculus.

    Everything a computed predomain should satisfy: strictness through
    complement commutation, the top-element Galois connection, and the
    preimage exchange/decomposition laws.  Laws that need locality are
    checked only when the dloc and cdloc flags hold and reported as not
    applicable otherwise.
    """
    return check_laws(DOMAIN_CALCULUS, D.owner, D=D)


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


def _converse_law_tables():
    a, b, p = var("a"), var("b"), var("p")
    zero, one = zero_term, one_term
    converse = (
        Law("conv-involutive", "a", eq(conv(conv(a)), a)),
        Law("conv-additive", "a b", eq(conv(a + b), conv(a) + conv(b))),
        Law("conv-contravariant", "a b", eq(conv(a * b), conv(b) * conv(a))),
        Law("conv-shrinks-subidentities", "p", leq(conv(p), p), leq(p, one)),
        Law("conv-self-embedding", "a", leq(a, (a * conv(a)) * a)),
        Law("conv-fixes-one", "a", eq(conv(a), a), eq(a, one)),
        Law("conv-fixes-zero", "a", eq(conv(a), a), eq(a, zero)),
        Law("conv-order-embedding", "a b", iff(leq(a, b), leq(conv(a), conv(b)))),
        Law("conv-fixes-subidentities", "p", eq(conv(p), p), leq(p, one)),
    )
    duality = (
        Law("dom-of-converse", "a", eq(dom(conv(a)), cod(a))),
        Law("cod-of-converse", "a", eq(cod(conv(a)), dom(a))),
        Law("preimage-via-converse", "p a", eq(dom(conv(a) * p), cod(p * a)), tests="p"),
        Law("image-via-converse", "p a", eq(cod(conv(a) * p), dom(p * a)), tests="p"),
    )
    return converse, duality


CONVERSE_LAWS, CONVERSE_DUALITY = _converse_law_tables()


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


def law_runner(D, budget: int, samples: int, rng):
    """run(name, kinds, pred, names) -> LawReport for any model with the domain surface.

    kinds has one letter per argument of pred: e (element) or t (test).
    The law is checked on every assignment when their number is within
    budget and on `samples` random ones drawn from rng otherwise; the note
    says which.  Witnesses map names to the model's element and test names.
    """
    members = D.test_members()
    n_el = D.size() if callable(getattr(D, "size", None)) else None
    if n_el is None:
        n_el = len(list(D.elements()))
    els: list = []

    def elements():
        if not els:
            els.extend(D.elements())
        return els

    def draw(kind):
        if kind == "t":
            return members[rng.randrange(len(members))]
        if hasattr(D, "sample"):
            return D.sample(rng)
        return elements()[rng.randrange(len(elements()))]

    def run(name, kinds, pred, names) -> LawReport:
        if math.prod(n_el if k == "e" else len(members) for k in kinds) <= budget:
            note = "exhaustive"
            combos = itertools.product(*(elements() if k == "e" else members for k in kinds))
        else:
            note = f"sampled ({samples})"
            combos = (tuple(draw(k) for k in kinds) for _ in range(samples))
        for combo in combos:
            if not pred(*combo):
                witness = {
                    nm: D.el_name(v) if k == "e" else D.test_name(v) for nm, k, v in zip(names, kinds, combo)
                }
                return LawReport(name, False, witness, note)
        return LawReport(name, True, None, note)

    return run
