"""kadlib's value layer: reports, verdicts, terms, laws and the law tables.

Everything here is plain Python, so reach, termination, hoare, the
relation half of models and cli import it without the table layer
(algebra, domain, zoo and catalogue, which load where kad check or a table
model first needs them).  It holds the records every layer returns
(LawReport, Verdict, built on _Record), the term language and Law, and the
isemiring, Kleene and test-algebra law lists with the names the relation
models claim at start-up; every other law suite, and the certificates,
are in catalogue.  _with_atomic names when atom rows decide a:p and p:a,
_instances is the enumerate-or-sample rule that run_laws and termination
share, and TABLE_NAMES lists the table layer's public names once, for the
one hook (table_getattr) through which kadlib, models and cli read them.

kadlib's value classes are _Record subclasses, not dataclasses: importing
dataclasses and generating their methods was the largest start-up cost left
after numpy, which only the table layer loads (algebra binds it lazily).  No
module of the value layer holds numpy or a stand-in for it, so reading their
attributes never loads it.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import attrgetter
from typing import Iterable, Optional


class _Record:
    """A value whose __init__ sets its fields in __dict__, once: == and hash read the type and _compared (by default
    _fields), repr is Name(field=value, ...) over _fields, and assigning or deleting raises AttributeError."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._key = attrgetter("__class__", *getattr(cls, "_compared", cls._fields))

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LawReport(_Record):
    """Outcome of one law check; witness maps variable names to element indices."""

    _fields = ("name", "holds", "witness", "note")

    def __init__(self, name: str, holds: bool, witness: Optional[dict] = None, note: str = ""):
        self.__dict__.update(name=name, holds=holds, witness=witness, note=note)

    def __str__(self):
        if self.holds:
            tag = "holds" if not self.note else f"holds ({self.note})"
            return f"{self.name}: {tag}"
        w = "" if not self.witness else " at " + ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.name}: FAILS{w}"


class Verdict(_Record):
    """A boolean outcome carrying an optional counterexample."""

    _fields = ("holds", "witness", "note")

    def __init__(self, holds: bool, witness: object = None, note: str = ""):
        self.__dict__.update(holds=holds, witness=witness, note=note)

    def __bool__(self):
        return self.holds


def all_hold(reports: Iterable[LawReport]) -> bool:
    return all(r.holds for r in reports)


def failures(reports: Iterable[LawReport]) -> list[LawReport]:
    return [r for r in reports if not r.holds]


# ---------------------------------------------------------------------------
# term language


class Term(_Record):
    """Small term AST over semiring signature plus tests, domain and converse.

    op is one of: var, zero, one, top, add, mul, star, conv, dom, cod, not;
    the atoms of a Law are eq and leq between two terms and iff among two
    or more atoms.
    Variables whose name starts with p, q or r range over test members by
    default in check_equation; others range over the whole carrier.
    """

    _fields = ("op", "args", "name")

    def __init__(self, op: str, args: tuple = (), name: str = ""):
        self.__dict__.update(op=op, args=args, name=name)

    def __add__(self, other):
        return Term("add", (self, _coerce(other)))

    def __mul__(self, other):
        return Term("mul", (self, _coerce(other)))

    def __str__(self):
        if self.op == "var":
            return self.name
        form = _TERM_FORMS.get(self.op)
        return f"{self.op}{self.args}" if form is None else form.format(*self.args)


_TERM_FORMS = {
    **{"zero": "0", "one": "1", "top": "top", "add": "({} + {})", "mul": "({}{})"},
    **{"star": "{}*", "conv": "{}^", "dom": "dom({})", "cod": "cod({})", "not": "{}'"},
}


def _coerce(x):
    if isinstance(x, Term):
        return x
    raise TypeError(f"expected Term, got {type(x).__name__}")


def var(name: str) -> Term:
    return Term("var", (), name)


zero_term = Term("zero")
one_term = Term("one")
top_term = Term("top")


def add(l: Term, r: Term) -> Term:
    return Term("add", (l, r))


def mul(l: Term, r: Term) -> Term:
    return Term("mul", (l, r))


def star(t: Term) -> Term:
    return Term("star", (t,))


def conv(t: Term) -> Term:
    return Term("conv", (t,))


def dom(t: Term) -> Term:
    return Term("dom", (t,))


def cod(t: Term) -> Term:
    return Term("cod", (t,))


def compl(t: Term) -> Term:
    return Term("not", (t,))


# ---------------------------------------------------------------------------
# laws as data


def eq(l: Term, r: Term) -> Term:
    return Term("eq", (l, r))


def leq(l: Term, r: Term) -> Term:
    return Term("leq", (l, r))


def iff(*atoms: Term) -> Term:
    """All the atoms have the same truth value."""
    return Term("iff", atoms)


class Law(_Record):
    """A universally quantified law: the premises imply the conclusion.

    vars lists the quantified variables in scan order; the ones also named
    in tests range over the test members, the others over the carrier
    (both accept a space-separated string).  A law whose requires (top, or
    names in the model's laws) are not all met is reported not applicable.
    """

    _fields = ("name", "vars", "concl", "premises", "tests", "requires")

    def __init__(self, name: str, vars: tuple, concl: Term, premises: tuple = (), tests: tuple = (), requires: tuple = ()):
        premises = (premises,) if isinstance(premises, Term) else premises
        vars, tests = (tuple(x.split()) if isinstance(x, str) else x for x in (vars, tests))
        self.__dict__.update(name=name, vars=vars, concl=concl, premises=premises, tests=tests, requires=requires)


# ---------------------------------------------------------------------------
# law tables


def _law_tables():
    a, b, c, p, q = var("a"), var("b"), var("c"), var("p"), var("q")
    zero, one = zero_term, one_term
    isemiring = (
        Law("add-commutative", "a b", eq(a + b, b + a)),
        Law("add-associative", "a b c", eq((a + b) + c, a + (b + c))),
        Law("add-left-identity", "a", eq(zero + a, a)),
        Law("add-right-identity", "a", eq(a + zero, a)),
        Law("add-idempotent", "a", eq(a + a, a)),
        Law("mul-associative", "a b c", eq((a * b) * c, a * (b * c))),
        Law("mul-left-identity", "a", eq(one * a, a)),
        Law("mul-right-identity", "a", eq(a * one, a)),
        Law("left-distributive", "a b c", eq(a * (b + c), a * b + a * c)),
        Law("right-distributive", "a b c", eq((a + b) * c, a * c + b * c)),
        Law("left-annihilation", "a", eq(zero * a, zero)),
        Law("right-annihilation", "a", eq(a * zero, zero)),
        "zero-not-one",
    )
    kleene = (
        Law("star-left-unfold", "a", leq(one + a * star(a), star(a))),
        Law("star-right-unfold", "a", leq(one + star(a) * a, star(a))),
        Law("star-left-induction", "a b c", leq(star(a) * b, c), leq(b + a * c, c)),
        Law("star-right-induction", "a b c", leq(b * star(a), c), leq(b + c * a, c)),
        # derived laws, kept as regression checks
        Law("one-below-star", "a", leq(one, star(a))),
        Law("star-mul-star", "a", eq(star(a) * star(a), star(a))),
        "powers-below-star",
        Law("star-of-star", "a", eq(star(star(a)), star(a))),
        Law("star-slide", "a b", eq(star(a * b) * a, a * star(b * a))),
        Law("star-denesting", "a b", eq(star(a + b), star(a) * star(b * star(a)))),
        Law("star-unfold-right-product", "a b", eq(star(a) * b, b + (star(a) * a) * b)),
        Law("star-unfold-left-product", "a b", eq(star(a) * b, b + (a * star(a)) * b)),
        Law("subidentity-star", "a", eq(star(a), one), leq(a, one)),
        Law("star-monotone", "a b", leq(star(a), star(b)), leq(a, b)),
        Law("star-left-simulation", "a c b", leq(star(a) * c, c * star(b)), leq(a * c, c * b)),
        Law("star-right-simulation", "a c b", leq(c * star(a), star(b) * c), leq(c * a, b * c)),
    )
    tests = (
        Law("members-below-one", "p", leq(p, one), tests="p"),
        "zero-is-member",
        "one-is-member",
        "closed-under-join",
        "closed-under-meet",
        Law("complement-involutive", "p", eq(compl(compl(p)), p), tests="p"),
        Law("complement-join-full", "p", eq(p + compl(p), one), tests="p"),
        Law("complement-meet-empty", "p", eq(p * compl(p), zero), tests="p"),
        Law("meet-commutative", "p q", eq(p * q, q * p), tests="p q"),
        Law("meet-idempotent", "p", eq(p * p, p), tests="p"),
        "meet-is-greatest-lower-bound",
        # four equivalent ways of saying "a maps p-states into q-states"
        Law(
            "shunting-right",
            "p q a",
            iff(
                leq(p * a, a * q),
                leq(a * compl(q), compl(p) * a),
                eq((p * a) * compl(q), zero),
                eq((p * a) * q, p * a),
            ),
            tests="p q",
        ),
        Law(
            "shunting-left",
            "p q a",
            iff(
                leq(a * p, q * a),
                leq(compl(q) * a, a * compl(p)),
                eq((compl(q) * a) * p, zero),
                eq(q * (a * p), a * p),
            ),
            tests="p q",
        ),
    )
    return isemiring, kleene, tests


ISEMIRING_LAWS, KLEENE_LAWS, TEST_LAWS = _law_tables()

_ISEMIRING_NAMES = tuple(law if isinstance(law, str) else law.name for law in ISEMIRING_LAWS)
_TEST_NAMES = tuple(law if isinstance(law, str) else law.name for law in TEST_LAWS)

# the unfold and induction axioms, left and right
_STAR_AXIOMS = tuple(law.name for law in KLEENE_LAWS[:4])

# When atom rows decide a:p (atomic-preimage): a:p = dom(a (t1 + ... + tr)) for the atoms t below p
# (atomic-tests) is dom(a t1 + ... + a tr) = a:t1 + ... + a:tr (distributivity, dom-additive), and for
# p = 0, dom(a 0) = dom(0 0) <= 0 (annihilation, d2).  So a:_ is additive and fixed by its rows (Jonsson
# and Tarski, "Boolean algebras with operators", 1951), as is every pointwise join and composite of such
# maps.  p:a (atomic-image) is the mirror, by cd2 and cod-additive.
_ATOMIC = (
    ("atomic-preimage", frozenset({*_ISEMIRING_NAMES, "d2", "dom-additive", "atomic-tests"})),
    ("atomic-image", frozenset({*_ISEMIRING_NAMES, "cd2", "cod-additive", "atomic-tests"})),
)


def _with_atomic(held) -> frozenset:
    """held, plus each _ATOMIC fact whose laws are all in held."""
    return frozenset(held).union(fact for fact, needs in _ATOMIC if needs <= held)


# ---------------------------------------------------------------------------
# instances over the domain surface


def _require_tests(D, needs) -> None:
    """Raise ValueError if model D has no test algebra and needs, the names of what would read one, is not empty."""
    if not hasattr(D, "test_members") and (what := next(iter(needs), None)) is not None:
        raise ValueError(f"{D.name} has no test algebra, which {what} needs")


def _sizes(D, is_test, ranges=None) -> list:
    """The number of values of each variable: its range's, else D.test_count() per test and D.size() per element."""
    return [len(r) if r is not None else D.test_count() if t else D.size() for t, r in zip(is_test, ranges or [None] * len(is_test))]


def _instances(D, is_test, budget: int, samples: int, rng, ranges=None):
    """(assignments, exhaustive) for variables that are tests where is_test says so.

    ranges gives, per variable, the values it ranges over, or None for all
    of them: test_members() for a test, elements() for an element.  While
    the variables have at most budget joint values (see _sizes) and the
    model can list them, every assignment is listed in lexicographic order
    over those.  Past the budget, over an infinite carrier, or where the
    model refuses to list its tests or elements (a RelModel lists at most
    2^16 of each), `samples` assignments are drawn from rng, one sample_test
    or sample per variable in declared order (rng defaults to one seeded 0).
    """
    sizes = _sizes(D, is_test, ranges)
    if None not in sizes and math.prod(sizes) <= budget:
        ranges = ranges or [None] * len(is_test)
        try:
            # product lists its factors here, so a model's refusal raises now
            listed = (r if r is not None else D.test_members() if t else D.elements() for t, r in zip(is_test, ranges))
            return itertools.product(*listed), True
        except ValueError:
            pass
    draws = [D.sample_test if t else D.sample for t in is_test]
    def drawn(rng):  # a generator, so that it makes rng at its first draw
        rng = rng or random.Random(0)
        yield from (tuple(draw(rng) for draw in draws) for _ in range(samples))
    return drawn(rng), False


# ---------------------------------------------------------------------------
# the table layer's public names


# home module: (the names kadlib exports, the names it only resolves); kadlib, kadlib.models and kadlib.cli read each
# one from its home on first use (table_getattr), so importing them loads no module of the table layer
_TABLE_LAYER = {
    "algebra": ("FiniteSemiring TestAlgebra check_isemiring check_kleene check_test_algebra check_equation eval_term"
                " opposite", "format_witness"),
    "domain": ("DomainStructure compute_predomain compute_precodomain check_domain_axioms check_domain_calculus"
               " check_converse converse_duality_check is_integral", ""),
    "zoo": ("conway_model conway_names tropical_model maxplus_model bounded_language_model bounded_path_model"
            " matrix_semiring matrix_star predicate_transformer_model materialize",
            "MaterializedModel check_sampled_laws MatrixModel TropicalModel MaxPlusModel LanguageModel PathModel"
            " TransformerModel"),
}
# name: its home module
TABLE_NAMES = {name: home for home, names in _TABLE_LAYER.items() for name in " ".join(names).split()}
# the names kadlib lists in __all__
TABLE_EXPORTS = [name for exported, _ in _TABLE_LAYER.values() for name in exported.split()]


def table_getattr(module: str):
    """The __getattr__ (PEP 562) of module, kadlib or one of its modules: a name of TABLE_NAMES loads the table layer
    and is read from its home, and on kadlib a home's own name imports that home; any other name raises AttributeError
    and loads nothing."""

    # every home at once, as kad check loads them, so that whatever walks the loaded modules after a first read (the
    # bench's tracer does) finds the whole layer; by __import__, as an import statement, which -X importtime reports
    def __getattr__(name):
        if module == __package__ and name in _TABLE_LAYER:
            return __import__(f"{__package__}.{name}", fromlist=[name])
        if name not in TABLE_NAMES:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        for home in _TABLE_LAYER:
            __import__(f"{__package__}.{home}")
        return getattr(__import__(f"{__package__}.{TABLE_NAMES[name]}", fromlist=[name]), name)

    return __getattr__
