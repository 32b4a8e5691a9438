"""Domain and codomain operators on finite test semirings.

The domain of a is the least test p that preserves a on the left (a <= pa);
codomain is the same computation with the product reversed (a <= ap).  Both
are stored as unary tables inside a DomainStructure, which also exposes the
image and preimage operators and the flags (d1, d2, locality, ...) that
downstream reachability and termination analyses key on.

As in algebra, checkers report rather than raise: structures that violate
the axioms (independence proofs, locality counterexamples) are data here.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Optional

import numpy as np

from .algebra import (
    FiniteSemiring,
    Law,
    LawReport,
    Term,
    TestAlgebra,
    Verdict,
    _check,
    _decided,
    _not_applicable,
    _Scanner,
    check_laws,
    cod,
    compl,
    conv,
    dom,
    eq,
    iff,
    leq,
    one_term,
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
    "run_laws",
    "DOMAIN_AXIOMS",
    "DOMAIN_CALCULUS",
    "CONVERSE_LAWS",
    "CONVERSE_DUALITY",
]

_FLAG_LAWS = ("d1", "d2", "dloc", "cd1", "cd2", "cdloc")


class DomainStructure:
    """A semiring with test algebra plus domain and codomain tables.

    delta/rho map each carrier index to a test; they may be any maps (the
    axioms are checked, not assumed).  flags records which of d1, d2, dloc,
    cd1, cd2 and cdloc hold, from one DOMAIN_AXIOMS scan on construction,
    and whether the semiring is integral.
    """

    def __init__(self, owner: FiniteSemiring, tests: TestAlgebra, delta, rho, name: str = ""):
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
        # the atoms in ascending element order; an atom's position is its index here
        self._atoms = sorted(tests.atoms())
        self._top = owner.top()
        self.flags = {r.name: r.holds for r in self._axiom_reports if r.name in _FLAG_LAWS}
        self.flags["integral"] = is_integral(owner).holds

    @functools.cached_property
    def _axiom_reports(self) -> list[LawReport]:
        """The DOMAIN_AXIOMS reports, scanned once per structure (the tables are read-only)."""
        return check_laws(DOMAIN_AXIOMS, self.owner, D=self)

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

    def add(self, x: int, y: int) -> int:
        return int(self.owner.add[x, y])

    def mul(self, x: int, y: int) -> int:
        return int(self.owner.mul[x, y])

    def star(self, x: int) -> int:
        if self.owner.star is None:
            raise ValueError(f"{self.owner.name} has no star operation")
        return int(self.owner.star[x])

    def leq(self, x: int, y: int) -> bool:
        return self.owner.leq(x, y)

    @property
    def zero(self) -> int:
        return self.owner.zero

    @property
    def one(self) -> int:
        return self.owner.one

    @property
    def top(self) -> Optional[int]:
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

    def atoms_below(self, p: int) -> list[int]:
        return self.tests.atoms_below(p)

    def atom_positions(self, p: int) -> list[int]:
        return [k for k, t in enumerate(self._atoms) if self.owner.leq(t, p)]

    def test_from_positions(self, ks) -> int:
        return functools.reduce(self.test_join, (self._atoms[k] for k in ks), self.test_zero)

    def preimage_positions(self, a: int, k: int) -> list[int]:
        return self.atom_positions(self.preimage(a, self._atoms[k]))

    def image_positions(self, k: int, a: int) -> list[int]:
        return self.atom_positions(self.image(self._atoms[k], a))

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
    The scan is made once per structure and its reports are kept.
    """
    return list(D._axiom_reports)


def check_domain_calculus(D: DomainStructure) -> list[LawReport]:
    """The derived domain laws and the image/preimage calculus.

    Everything a computed predomain should satisfy: strictness through
    complement commutation, the top-element Galois connection, and the
    preimage exchange/decomposition laws.  Laws that need locality are
    checked only when the dloc and cdloc flags hold and reported as not
    applicable otherwise.  A law is first decided in a general form where
    algebra._generalized finds one (image-compose-bound and -exact over
    x = p a), and scanned only if that fails.
    """
    return _check(DOMAIN_CALCULUS, _Scanner(D.owner, D=D), (), _decided)


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


def _kind(t: Term, tests) -> Optional[str]:
    """'t' if t denotes a test, 'e' if an element, None if it is built from 0 and 1 alone."""
    if t.op == "var":
        return "t" if t.name in tests else "e"
    if t.op in ("zero", "one"):
        return None
    if t.op in ("dom", "cod", "not"):
        return "t"
    if t.op in ("add", "mul"):
        kinds = {_kind(x, tests) for x in t.args}
        return "e" if "e" in kinds else ("t" if "t" in kinds else None)
    return "e"


def _uses_tests(law: Law) -> bool:
    """Whether law quantifies over tests or applies dom, cod or complement."""

    def walk(t: Term) -> bool:
        return t.op in ("dom", "cod", "not") or any(walk(x) for x in t.args)

    return bool(law.tests) or any(walk(t) for t in (law.concl, *law.premises))


class _Evaluator:
    """A law compiled to closures over one model's methods; env is a tuple of values.

    Tests stay tests while they meet only tests (join, meet and complement
    of the test algebra) and are embedded when they meet an element.
    dom(x p) is evaluated as preimage(x, p) and cod(p x) as image(p, x).
    """

    def __init__(self, D, law: Law):
        self.D, self.tests = D, set(law.tests)
        self.pos = {v: i for i, v in enumerate(law.vars)}
        self.concl, self.premises = self.atom(law.concl), [self.atom(p) for p in law.premises]

    def __call__(self, env) -> bool:
        """The premises (checked in order, stopping at a false one) imply the conclusion."""
        for p in self.premises:
            if not p(env):
                return True
        return self.concl(env)

    def term(self, t: Term, as_test: bool):
        D, kind = self.D, _kind(t, self.tests)
        if kind == "t" and not as_test:
            f = self.term(t, True)
            return lambda env: D.embed(f(env))
        if kind == "e" and as_test:
            raise ValueError(f"{t} is not a test")
        op = t.op
        if op == "var":
            i = self.pos[t.name]
            return lambda env: env[i]
        if op in ("zero", "one", "top"):
            v = getattr(D, f"test_{op}" if as_test else op)
            return lambda env: v
        if op in ("add", "mul"):
            fl, fr = (self.term(x, as_test) for x in t.args)
            g = getattr(D, {"add": "test_join", "mul": "test_meet"}[op] if as_test else op)
            return lambda env: g(fl(env), fr(env))
        (x,) = t.args
        if op in ("dom", "cod") and x.op == "mul" and _kind(x, self.tests) == "e":
            # the test operand is on the right of dom and on the left of cod
            a, p = x.args if op == "dom" else x.args[::-1]
            if _kind(p, self.tests) == "t":
                fa, fp = self.term(a, False), self.term(p, True)
                if op == "dom":
                    return lambda env: D.preimage(fa(env), fp(env))
                return lambda env: D.image(fp(env), fa(env))
        f = self.term(x, op == "not")
        g = D.test_compl if op == "not" else getattr(D, op)
        return lambda env: g(f(env))

    def atom(self, atom: Term):
        if atom.op == "iff":
            fs = [self.atom(x) for x in atom.args]
            return lambda env: len({f(env) for f in fs}) == 1
        as_test = "e" not in {_kind(x, self.tests) for x in atom.args}
        fl, fr = (self.term(x, as_test) for x in atom.args)
        if atom.op == "eq":
            return lambda env: fl(env) == fr(env)
        le = self.D.test_leq if as_test else self.D.leq
        return lambda env: le(fl(env), fr(env))


def _instances(D, is_test, budget: int, samples: int, rng):
    """(assignments, exhaustive) for variables that are tests where is_test says so.

    While the variables have at most budget joint values (D.test_count() per
    test, D.size() per element) and the model can list them, every
    assignment is listed in lexicographic order over test_members() and
    elements().  Past the budget, over an infinite carrier, or where the
    model refuses to list its tests or elements (a RelModel lists at most
    2^16 of each), `samples` assignments are drawn from rng, one sample_test
    or sample per variable in declared order (rng defaults to one seeded 0).
    """
    sizes = [D.test_count() if t else D.size() for t in is_test]
    if None not in sizes and math.prod(sizes) <= budget:
        try:
            # product lists its factors here, so a model's refusal raises now
            return itertools.product(*(D.test_members() if t else D.elements() for t in is_test)), True
        except ValueError:
            pass
    rng = rng or random.Random(0)
    draws = [D.sample_test if t else D.sample for t in is_test]
    return (tuple(draw(rng) for draw in draws) for _ in range(samples)), False


def run_laws(laws, D, budget: int, samples: int, rng=None) -> list[LawReport]:
    """One report per law, for any model with the domain surface.

    A law's instances come from _instances: when they are all listed, a
    DomainStructure is scanned by check_laws' scanner and any other model is
    checked through its methods; sampled instances are drawn from rng
    (default: seeded 0).  The note says which; witnesses hold element and
    test names.
    """
    if not hasattr(D, "test_members"):
        needy = [law.name for law in laws if _uses_tests(law)]
        if needy:
            raise ValueError(f"{D.name} has no test algebra, which {needy[0]} needs")
    rng = rng or random.Random(0)
    scanner = functools.cache(lambda: _Scanner(D.owner, D=D))
    reports = []
    for law in laws:
        skipped = _not_applicable(law, lambda: D.top, D)
        if skipped is not None:
            reports.append(skipped)
            continue
        is_test = [v in law.tests for v in law.vars]
        envs, exhaustive = _instances(D, is_test, budget, samples, rng)
        if exhaustive and isinstance(D, DomainStructure):
            found = scanner().first_failure(law)
            values = None if found is None else tuple(found.values())
        else:
            holds = _Evaluator(D, law)
            values = next((env for env in envs if not holds(env)), None)
        note = "exhaustive" if exhaustive else f"sampled ({samples})"
        witness = None
        if values is not None:
            witness = {v: D.test_name(x) if t else D.el_name(x) for v, t, x in zip(law.vars, is_test, values)}
        reports.append(LawReport(law.name, witness is None, witness, note))
    return reports
