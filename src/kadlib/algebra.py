"""Idempotent semirings with tests, presented as finite operation tables.

Elements are indices into an ordered carrier; names are for I/O only.  The
binary operations are dense n-by-n index tables, so every law checker can
enumerate the whole structure.  Checkers return ``LawReport`` lists instead
of raising: deliberately broken structures (counterexample models) are
first-class inputs here.

Laws are data: a ``Law`` quantifies typed variables over equations,
inequations and equivalences between ``Term``s, optionally under Horn
premises.  One scanner (``check_laws``) compiles each law to numpy table
lookups with one broadcast axis per variable, in chunks of at most 2^17
assignments: it loops in Python over the leading variables only while one
value of the first broadcast variable would span more than a chunk, and
no table gather copies more cells than the chunk holds.  The scan is
exhaustive, and a failure's witness is the lexicographically first failing
assignment in the declared variable order.

check_isemiring and check_kleene decide add-commutative and their eight
three-variable laws exactly, each once the laws its guard names have held on
the same tables:

- add-commutative and add-associative: where h(x) = {g in G : g + x = x},
  for the generators G of +, is injective and h(x + y) = h(x) | h(y), +
  embeds in (2^G, union) and so is associative and commutative (Birkhoff,
  Lattice Theory, 1967); elsewhere add-commutative compares + with its
  transpose and add-associative takes Light's test below; no guard.
- mul-associative: Light's test over a set G whose left-normed
  products cover the carrier, grown greedily rarest first by right
  multiplication with G alone (Clifford and Preston, The Algebraic Theory
  of Semigroups I, §1.2): in any magma the g with (xg)y = x(gy) for all
  x, y are closed under the operation; no guard.  Once the law holds,
  every product is left-normed, so G generates the carrier.
- left-/right-distributive: the multiplying element over the generators
  of ·, one summand over those of +; guard: add- and mul-associative.
- star-left-/star-right-induction: a* <= mu(a, 1), where mu(a, b) =
  mu(a, 1) b is the least solution of the premise, iterated from 0;
  guard: the isemiring laws.
- star-left-/star-right-simulation and the other derived star laws of
  check_kleene but powers-below-star: theorems of the star axioms (Kozen
  1994), certified (_CERTIFICATES); guard: the axioms and isemiring laws
  their derivations use.

One ladder (_decide) decides every law but check_laws', which scans each
in full; the first of its rungs that decides a law gives its report:
1. not applicable: a requirement of the law (top, locality) is unmet;
2. reduction: on tables, for the table's own law, once the laws it needs
   have held, a _REDUCTIONS entry: those above, and dom- and cod-additive
   as decided when the domain was built;
3. certified by <law>: _certified, once the laws its derivation uses have
   held (catalogue._CERTIFICATES: the star theorems above, the domain
   calculus and the axiom forms llp, gla, lrp and gra, the star/preimage
   laws and the Hoare rules);
4. exhaustive: every instance, where they fit the budget;
5. reduced (k): past the budget, _rewrite, the one law-rewrite step, makes
   an equivalent law of k instances by Horn elimination and
   join-irreducible ranges (read off the generators of +), behind guard
   laws that held on every instance (the isemiring laws and dom- and
   cod-additivity); a failure there is lifted to an instance of the law;
6. sampled (n): n instances drawn from the caller's rng.
The table checkers ask for exact decisions: they rewrite at budget 0, scan
the law in full where the rewritten law fails or none applies, so every
witness is the scanner's, and print a bare "holds" for what the ladder
decides.

Every law is built from +, ·, *, converse, dom, cod and test complement,
so it fails at (a, b, ...) iff it fails at (pa, pb, ...) for each
automorphism p of the tables (Clarke, Enders, Filkorn and Jha, 1996).  The
candidates come from the model (materialize keeps RelModel.symmetries() on
the FiniteSemiring) and are used once verified, once per table set: a
bijection fixing 0 and 1 that commutes with the star and converse columns,
and with + and · on their generators once add- and mul-associative held
(the isemiring scans run over every value); under tests or a domain it must
also keep the members and commute with complement, dom and cod.  A law of
two or more variables whose first ranges over the whole carrier or all the
tests scans that variable over each orbit's least element, ascending: its
failing values form a union of orbits, so every witness is the plain scan's.

Only the table layer needs numpy; relations, reachability, termination and
Hoare triples work on ints and lists, and importing numpy is most of a `kad`
start-up.  So np is bound lazily here, and domain and zoo import it from
here.  A module __getattr__ never sees a module's own global lookups, so the
first attribute read imports numpy and rebinds np to it in each kadlib module
that holds the stand-in: the table kernels then pay no indirection.  The value
layer (the record base _Record with LawReport and Verdict, Term and its
builders, Law and the law lists) is in laws, which holds no numpy stand-in,
so that reach, termination, hoare, relations and the kad front end load
without this module; it is imported here and re-exported under its old
names, as are _TABLE_LAWS and _CERTIFICATES from catalogue, which states
every other law suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Iterable, Mapping, NamedTuple, Optional

from .catalogue import _CERTIFICATES, _TABLE_LAWS
from .laws import (  # the value layer, re-exported here under its old names
    ISEMIRING_LAWS, KLEENE_LAWS, TEST_LAWS, Law, LawReport, Term, Verdict, _ISEMIRING_NAMES, _STAR_AXIOMS, _TERM_FORMS,
    _instances, _sizes, add, all_hold, cod, compl, conv, dom, eq, failures, iff, leq, mul, one_term, star, top_term, var,
    zero_term,
)


class _LazyNumpy:
    """Stands in for numpy until its first attribute read (see the module docstring)."""

    def __getattr__(self, name):
        import numpy

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(__package__ + ".") and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

__all__ = [
    "FiniteSemiring", "TestAlgebra", "LawReport", "Verdict", "Term", "var", "zero_term", "one_term", "add", "mul",
    "star", "conv", "dom", "cod", "compl", "top_term", "opposite", "Law", "eq", "leq", "iff", "check_laws",
    "ISEMIRING_LAWS", "KLEENE_LAWS", "TEST_LAWS", "check_isemiring", "check_kleene", "check_test_algebra", "eval_term",
    "check_equation", "all_hold", "failures", "format_witness",
]


def _as_table(values, n, what, unary=False):
    """values as a read-only n x n table of element indices (length n when unary)."""
    size = f"have length {n}" if unary else f"be {n}x{n}"
    try:
        t = np.asarray(values, dtype=np.int32)
    except ValueError:
        if unary or len({np.size(row) for row in values}) < 2:
            raise
        raise ValueError(f"{what} table must {size}") from None  # rows of unequal lengths have no shape to report
    if t.shape != ((n,) if unary else (n, n)):
        raise ValueError(f"{what} table must {size}, got {t.shape}")
    if t.min() < 0 or t.max() >= n:
        raise ValueError(f"{what} table entries must be element indices < {n}")
    t.setflags(write=False)
    return t


@functools.cached_property
def _orbit_least(structure):
    """least[x], the least of x's orbit under structure._symmetries (None for none), on FiniteSemiring, TestAlgebra
    and DomainStructure: the fixed point of least[x] = min(least[x], least[p[x]]) over the symmetries p."""
    group, least = structure._symmetries, None
    if group:
        least = np.arange(len(group[0]))
        while not np.array_equal(least, nxt := functools.reduce(np.minimum, (least[p] for p in group), least)):
            least = nxt
    return least


class FiniteSemiring:
    """A finite idempotent semiring given by dense operation tables.

    Only structural sanity is enforced at construction (table shapes, index
    ranges, zero != one).  Whether the tables actually satisfy the semiring
    or Kleene laws is the job of check_isemiring / check_kleene.
    """

    # permutations of the carrier that may be automorphisms (see the module docstring)
    _candidates: tuple = ()

    def __init__(self, carrier, add, mul, zero, one, star=None, conv=None, name=""):
        self.carrier = tuple(str(c) for c in carrier)
        n = len(self.carrier)
        if n < 2:
            raise ValueError("carrier needs at least the two constants 0 and 1")
        if len(set(self.carrier)) != n:
            raise ValueError("carrier names must be unique")
        self.n = n
        self.add = _as_table(add, n, "add")
        self.mul = _as_table(mul, n, "mul")
        self.zero = int(zero)
        self.one = int(one)
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("zero/one must be carrier indices")
        if self.zero == self.one:
            raise ValueError("trivial semiring (0 = 1) is excluded")
        self.star = None if star is None else _as_table(star, n, "star", unary=True)
        self.conv = None if conv is None else _as_table(conv, n, "conv", unary=True)
        self.name = name or f"semiring({n})"

    @functools.cached_property
    def _isemiring_reports(self) -> tuple:
        """check_isemiring's reports, decided once: the tables are read-only.  They are scanned without
        symmetries, whose verification rests on them."""
        zero_not_one = _report("zero-not-one", None if self.zero != self.one else {})
        return tuple(_exact(ISEMIRING_LAWS, _Scanner(self, symmetric=False), [zero_not_one]))

    @functools.cached_property
    def _star_axiom_reports(self) -> tuple:
        """The reports of the star axioms, check_kleene's first four, decided once; DomainStructure reads them."""
        held = [r.name for r in self._isemiring_reports if r.holds]
        return tuple(_exact(KLEENE_LAWS[: len(_STAR_AXIOMS)], _Scanner(self), [], held))

    @functools.cached_property
    def _kleene_reports(self) -> tuple:
        """check_kleene's reports, decided once, as _isemiring_reports are: the star axioms', then the laws after them."""
        powers = _report("powers-below-star", _powers_below_star(self), note=f"powers up to {self.n}")
        held = [r.name for r in (*self._isemiring_reports, *self._star_axiom_reports) if r.holds]
        rest = _exact(KLEENE_LAWS[len(_STAR_AXIOMS) :], _Scanner(self), [powers], held)
        return (*self._star_axiom_reports, *rest)

    @functools.cached_property
    def _terms(self) -> dict:
        """eval_term's compiled terms (see there)."""
        return {}

    @functools.cached_property
    def _order(self):
        """The natural order as an n x n table: a <= b iff a + b = b."""
        return self.add == np.arange(self.n)

    @functools.cached_property
    def _symmetries(self) -> tuple:
        """The _candidates that are automorphisms of these tables, found once add- and mul-associative held (see the module docstring)."""
        if not self._candidates or not {"add-associative", "mul-associative"} <= {r.name for r in self._isemiring_reports if r.holds}:
            return ()
        ar, cols = np.arange(self.n), [c for c in (self.star, self.conv) if c is not None]
        fixing = [p for p in map(np.asarray, self._candidates) if np.array_equal(np.sort(p), ar)
                  and p[[self.zero, self.one]].tolist() == [self.zero, self.one]]
        ops = ((self.add, self._gens["add"]), (self.mul, self._gens["mul"]))
        return tuple(p for p in _commuting(fixing, *cols) if all(np.array_equal(p[X[:, g]], X[np.ix_(p, p[g])]) for X, g in ops))

    _orbit_least = _orbit_least

    @functools.cached_property
    def _predomains(self) -> dict:
        """The domain structures built over these tables, by test algebra (domain.compute_predomain)."""
        return {}

    @functools.cached_property
    def _gens(self) -> dict:
        """_generators of + and ·, for the law reductions: generating sets once add- and mul-associative held."""
        return {"add": _generators(self.add), "mul": _generators(self.mul)}

    @functools.cached_property
    def _add_in_powerset(self) -> bool:
        """Whether + embeds in a powerset under union (_union_embedding), for add-commutative and add-associative."""
        return _union_embedding(self.add, self._gens["add"])

    @functools.cached_property
    def _join_irreducibles(self) -> list[int]:
        """The elements other than 0 that are the sum of no two others, ascending; ValueError unless the isemiring laws held.

        + is then a semilattice with least element 0, and these are its
        join-irreducibles.  Each lies in every generating set of +, and a
        generator g other than 0 is one iff the sum of the generators
        strictly below g is not g, as every element is the sum of the
        generators below it.
        """
        if not all_hold(self._isemiring_reports):
            raise ValueError(f"{self.name}: join-irreducibles are read off + only where the isemiring laws hold")
        A, G = self.add, np.array(self._gens["add"])
        below = (A[np.ix_(G, G)] == G) & (G[:, None] != G)  # below[i, j]: G[i] < G[j]
        sums = np.full(len(G), self.zero)
        for h, row in zip(G, below):
            sums = np.where(row, A[sums, h], sums)
        return G[(sums != G) & (G != self.zero)].tolist()

    # -- basic views -------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self.carrier.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r} in {self.name}") from None

    def element_name(self, i: int) -> str:
        return self.carrier[i]

    def leq(self, a: int, b: int) -> bool:
        """Natural order: a <= b iff a + b = b."""
        return int(self.add[a, b]) == b

    def subidentities(self) -> list[int]:
        return [x for x in range(self.n) if self.leq(x, self.one)]

    def top(self) -> Optional[int]:
        """Greatest element in the natural order, if one exists: the first column t of add == arange true in every row."""
        above = self._order.all(axis=0)
        return int(np.argmax(above)) if above.any() else None

    # -- plumbing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteSemiring):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.zero == other.zero
            and self.one == other.one
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
            and _opt_eq(self.star, other.star)
            and _opt_eq(self.conv, other.conv)
        )

    def __repr__(self):
        return f"FiniteSemiring({self.name!r}, n={self.n})"


def _opt_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


def _commuting(group, *columns) -> tuple:
    """The permutations in group that commute with every column, a map of the carrier as an array."""
    return tuple(p for p in group if all(np.array_equal(c[p], p[c]) for c in columns))


class TestAlgebra:
    """A declared Boolean subalgebra of subidentities of a FiniteSemiring.

    members: carrier indices; compl: complement map on members.  As with
    FiniteSemiring, the constructor checks only shape; check_test_algebra
    verifies the actual Boolean-algebra laws.
    """

    def __init__(self, owner: FiniteSemiring, members: Iterable[int], compl: Mapping[int, int]):
        self.owner = owner
        self.members = tuple(sorted(set(int(m) for m in members)))
        if not self.members:
            raise ValueError("a test algebra needs at least one member")
        for m in self.members:
            if not 0 <= m < owner.n:
                raise ValueError(f"member {m} is not a carrier index")
        self.compl = {int(k): int(v) for k, v in compl.items()}
        if set(self.compl) != set(self.members):
            raise ValueError("compl must be total exactly on members")
        for v in self.compl.values():
            if v not in self.compl:
                raise ValueError("compl must map members to members")

    @classmethod
    def discrete(cls, owner: FiniteSemiring) -> "TestAlgebra":
        """The {0, 1} test algebra every i-semiring admits."""
        return cls(owner, (owner.zero, owner.one), {owner.zero: owner.one, owner.one: owner.zero})

    def require(self, p: int):
        if p not in self.compl:
            raise ValueError(f"{self.owner.element_name(p)!r} is not a declared test")

    def complement(self, p: int) -> int:
        self.require(p)
        return self.compl[p]

    def join(self, p: int, q: int) -> int:
        return int(self.owner.add[p, q])

    def meet(self, p: int, q: int) -> int:
        return int(self.owner.mul[p, q])

    def leq(self, p: int, q: int) -> bool:
        return self.owner.leq(p, q)

    def atoms(self) -> list[int]:
        """Minimal nonzero members: p such that only 0 and p lie below p."""
        zero = self.owner.zero
        return [p for p in self.members if p != zero and not any(q not in (zero, p) and self.leq(q, p) for q in self.members)]

    @functools.cached_property
    def _compl_column(self):
        """The complement as a column over the carrier, mapping each non-member to itself."""
        return np.array([self.compl.get(x, x) for x in range(self.owner.n)])

    @functools.cached_property
    def _member_mask(self):
        return np.isin(np.arange(self.owner.n), self.members)

    @functools.cached_property
    def _symmetries(self) -> tuple:
        """The owner's symmetries that map the members onto themselves and commute with the complement."""
        m = self._member_mask
        return tuple(p for p in _commuting(self.owner._symmetries, self._compl_column) if np.array_equal(m[p], m))

    _orbit_least = _orbit_least

    @functools.cached_property
    def _reports(self) -> tuple:
        """check_test_algebra's reports, decided once: the members, complement and tables are fixed."""
        return tuple(_test_algebra_reports(self))

    def __repr__(self):
        names = ",".join(self.owner.element_name(m) for m in self.members)
        return f"TestAlgebra({{{names}}} over {self.owner.name!r})"


def format_witness(S: FiniteSemiring, witness) -> str:
    """The witness values in parentheses, element indices of S by name ("power" stays a number)."""
    if witness is None:
        return "()"
    if not isinstance(witness, dict):
        return f"({witness})"

    def name(k, v):
        return S.element_name(int(v)) if isinstance(v, (int, np.integer)) and k != "power" and 0 <= int(v) < S.n else str(v)

    return "(" + ", ".join(name(k, v) for k, v in witness.items()) + ")"


def opposite(S: FiniteSemiring) -> FiniteSemiring:
    """Same carrier with multiplication arguments swapped; star/conv carry over."""
    name = S.name[:-3] if S.name.endswith("^op") else S.name + "^op"
    return FiniteSemiring(S.carrier, S.add, S.mul.T, S.zero, S.one, star=S.star, conv=S.conv, name=name)


def eval_term(t: Term, env: Mapping[str, int], S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None) -> int:
    """Evaluate a term to a carrier index under the given variable assignment.

    t is compiled by _Scalar over the tables of S, T and D.  S._terms keeps the last 64 compiled, keyed on the
    identities of t, T and D, which it holds, and the names in env."""
    key, kept = (id(t), id(T), id(D), *env), S._terms
    entry = kept.get(key)
    if entry is None:
        if len(kept) >= 64:
            kept.clear()
        entry = kept[key] = (t, T, D, _Scalar(_Tables(S, T, D), env).term(t))
    return entry[3](list(map(int, env.values())))


class _Tables:
    """The model surface of the tables of S, with the tests T and the domain structure D, for _Scalar and DomainStructure.

    Tests are elements here.  Where S has no star or conv column, the
    surface's star or conv raises _LACKS[op]; where T or D is missing, so
    are their operations, and _Scalar raises _LACKS[op] for a term that
    applies one.
    """

    def __init__(self, S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None):
        self.S, self.zero, self.one, self.add, self.mul, self.leq = S, S.zero, S.one, S.add.item, S.mul.item, S.leq
        self.test_zero, self.test_one, self.test_leq = S.zero, S.one, S.leq
        for op, column in (("star", S.star), ("conv", S.conv)):
            setattr(self, op, functools.partial(_lacks, op) if column is None else column.item)
        if D is not None:
            self.dom, self.cod = D.dom, D.cod
        if T is not None:
            self.test_compl, self.test_join, self.test_meet = T.complement, T.join, T.meet

    @property
    def top(self) -> int:
        top = self.S.top()
        if top is None:
            raise ValueError(_LACKS["top"])
        return top


_LACKS = {
    **{op: f"term uses {what} but the semiring declares none" for op, what in (("star", "star"), ("conv", "converse"))},
    **{op: f"term uses {op} but no domain structure was given" for op in ("dom", "cod")},
    "not": "term uses complement but no test algebra was given",
    "top": "term uses top but the semiring has no greatest element",
}


def _lacks(op: str, *args):
    """Raise _LACKS[op]: the star or conv of _Tables where S has no column."""
    raise ValueError(_LACKS[op])


# the surface's name of a term op over tests, where it is not the op's own
_TEST_OPS = {"zero": "test_zero", "one": "test_one", "add": "test_join", "mul": "test_meet", "not": "test_compl"}


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


class _Scalar:
    """Laws and terms compiled to closures over one model surface; env holds an instance's values of vars, in order.

    The surface is _Tables, or a model's own methods (RelModel, any
    ModelHandle), whose tests are a sort of their own: a test stays a test
    while it meets only tests and is embedded where it meets an element,
    complement of an element is an error, and dom(x p) is evaluated as
    preimage(x, p) and cod(p x) as image(p, x).
    """

    def __init__(self, M, vars, tests=()):
        self.M, self.tests, self.typed = M, set(tests), not isinstance(M, _Tables)
        self.pos = {v: i for i, v in enumerate(vars)}

    def compile(self, law: Law):
        """holds(env): law's premises, evaluated in order up to a false one, imply its conclusion at env."""
        concl, *premises = (self.atom(a) for a in (law.concl, *law.premises))

        def holds(env) -> bool:
            for p in premises:
                if not p(env):
                    return True
            return concl(env)

        return holds

    def atom(self, atom: Term):
        """fn(env), the truth value of an eq, leq or iff atom."""
        if atom.op == "iff":
            fs = [self.atom(x) for x in atom.args]
            return lambda env: len({f(env) for f in fs}) == 1
        as_test = self.typed and "e" not in {_kind(x, self.tests) for x in atom.args}
        fl, fr = (self.term(x, as_test) for x in atom.args)
        if atom.op == "eq":
            return lambda env: fl(env) == fr(env)
        le = getattr(self.M, "test_leq" if as_test else "leq")
        return lambda env: le(fl(env), fr(env))

    def term(self, t: Term, as_test: bool = False):
        """fn(env), the value of t, a test's where as_test is set.  An operation the surface lacks raises here."""
        kind = _kind(t, self.tests) if self.typed else None
        if kind == "t" and not as_test:
            f, embed = self.term(t, True), self.M.embed
            return lambda env: embed(f(env))
        if kind == "e" and as_test:
            raise ValueError(f"{t} is not a test")
        op, args, M = t.op, t.args, self.M
        name = _TEST_OPS.get(op, op) if as_test or op == "not" else op
        if op == "var":
            if t.name not in self.pos:
                raise ValueError(f"unbound variable {t.name!r}")
            i = self.pos[t.name]
            return lambda env: env[i]
        if op in ("zero", "one", "top"):
            v = getattr(M, name)
            return lambda env: v
        if op not in _TERM_FORMS:
            raise ValueError(f"unknown term op {op!r}")
        sorts = [as_test if op in ("add", "mul") else self.typed and op == "not"] * len(args)
        if kind == "t" and op in ("dom", "cod") and args[0].op == "mul" and _kind(args[0], self.tests) == "e":
            # the test operand is on the right of dom and on the left of cod
            a, p = args[0].args if op == "dom" else args[0].args[::-1]
            if _kind(p, self.tests) == "t":
                name, args, sorts = ("preimage", (a, p), (False, True)) if op == "dom" else ("image", (p, a), (True, False))
        fs = [self.term(x, s) for x, s in zip(args, sorts)]
        g = getattr(M, name, None)
        if g is None:
            raise ValueError(_LACKS.get(op, f"{M} has no {name}"))
        if len(fs) == 1:
            (f,) = fs
            return lambda env: g(f(env))
        fl, fr = fs
        return lambda env: g(fl(env), fr(env))


_NOT_APPLICABLE = {"dloc": "no locality", "cdloc": "no locality", "top": "no greatest element"}


def _not_applicable(law: Law, top, model) -> Optional[LawReport]:
    """The report for a law whose requires are unmet (top(), or model.laws; none hold without a model), else None."""
    laws = getattr(model, "laws", ())
    for f in law.requires:
        if (top() is None) if f == "top" else f not in laws:
            return LawReport(law.name, True, None, f"not applicable: {_NOT_APPLICABLE[f]}")
    return None


def _report(name: str, witness: Optional[dict], note: str = "") -> LawReport:
    return LawReport(name, witness is None, witness, note)


def _rows(x):
    """Drop the trailing singleton axis of an operand that does not depend on it."""
    return x[..., 0] if isinstance(x, np.ndarray) else x


# A chunk of a scan holds at most this many assignments.
_CHUNK = 1 << 17


class _Scanner:
    """Compiles laws to numpy over one model's tables and finds first failures.

    A compiled term maps an environment to its values: a prefix of the
    variables is bound to Python ints, the rest are index arrays with one
    broadcast axis each, in declared order.  There is one chunk rule: the
    prefix is the shortest one after which one row of the first broadcast
    axis holds at most _CHUNK assignments (no variable for a law of at most
    _CHUNK assignments per value of its first variable, the first variable
    for a three-variable law over 512 elements), and that axis is cut into
    blocks of rows so that no chunk holds more.  The first False of a
    chunk's mask in C order, in the first chunk that has one, is then the
    lexicographically first failing assignment.

    A lookup X[l, r] picks its gather from the broadcast axes its operands
    read, and no gather copies more cells than it returns.  When r reads
    only the innermost axis and l is the variable of the axis before, it
    takes the columns r from the block's rows of X itself, with no row
    copy; when r is the innermost variable, ranging over the carrier, and
    l does not read it, it slices the rows l of X with all their columns.
    Every other lookup is one flat X.ravel().take(off) with off = l * n + r
    written into one index buffer that the scanner owns and reuses for
    every lookup and chunk, so that take casts nothing and no chunk
    allocates an index array.
    """

    def __init__(self, S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None, symmetric: bool = True):
        self.S, self.D = S, D
        self.T = T = D.tests if T is None and D is not None else T
        self.tables = {"add": S.add, "mul": S.mul, "star": S.star, "conv": S.conv, "leq": S._order}
        if D is not None:
            self.tables.update(dom=D.delta, cod=D.rho)
        if T is not None:
            # complement maps non-members to themselves; member says where it is defined
            self.tables["not"] = T._compl_column
            self.member = T._member_mask
        # the one of S, T and D whose verified symmetries cover every table read here, if it reads those of S
        ctx = D if D is not None else T if T is not None else S
        self._symmetric = ctx if symmetric and getattr(ctx, "owner", S) is S and (D is None or T is D.tests) else None
        self._off = np.empty(_CHUNK, dtype=np.intp)

    @functools.cached_property
    def top(self) -> Optional[int]:
        return self.S.top() if self.D is None else self.D.top

    def _term(self, t: Term):
        """(fn, deps): fn(env) evaluates the term or atom t; deps holds the variable positions it reads."""
        op = t.op
        if op == "var":
            if t.name not in self._pos:
                raise ValueError(f"unbound variable {t.name!r}")
            i = self._pos[t.name]
            return (lambda env: env[i]), {i}
        if op in ("zero", "one", "top"):
            v = self.top if op == "top" else (self.S.zero if op == "zero" else self.S.one)
            if v is None:
                raise ValueError(_LACKS[op])
            return (lambda env: v), set()
        if op in ("add", "mul", "leq"):
            return self._lookup(op, *t.args)
        fs, deps = [], set()
        for a in t.args:
            f, d = self._term(a)
            fs.append(f)
            deps |= d
        if op in ("eq", "iff"):

            def equal(env):
                # all the terms (eq) or atoms (iff) have the same value
                first, *rest = (f(env) for f in fs)
                out = np.equal(first, rest[0])
                for x in rest[1:]:
                    out = out & np.equal(first, x)
                return out

            return equal, deps
        f, U = fs[0], self.tables.get(op)
        if U is None:
            raise ValueError(_LACKS.get(op, f"unknown term op {op!r}"))
        if op != "not":
            return (lambda env: U[f(env)]), deps

        def complement(env):
            x = f(env)
            self._valid.append(self.member[x])
            return U[x]

        return complement, deps

    def _lookup(self, key: str, l: Term, r: Term):
        """X[l, r] for a binary table X (add, mul or the order leq)."""
        (fl, dl), (fr, dr) = self._term(l), self._term(r)
        X, deps, inner = self.tables[key], dl | dr, self._inner
        # the broadcast axes each operand reads
        bl, br = {i for i in dl if i >= self._m}, {i for i in dr if i >= self._m}
        if br == {inner} and inner not in bl:
            # the rows of X that l reads, from which r takes the columns
            if self._is_axis(l, inner - 1):
                return (lambda env: X[self._span(inner - 1)].take(fr(env).ravel(), axis=1)), deps
            if self._is_axis(r, inner):
                return (lambda env: X[_rows(fl(env)), self._span(inner)]), deps
        flat, n = X.ravel(), X.shape[1]

        def lookup(env):
            x, y = fl(env), fr(env)
            if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
                return X[x, y]
            both = np.broadcast(x, y)
            off = self._off[: both.size].reshape(both.shape)
            if np.size(x) < both.size:
                np.add(y, x * n, out=off)
            else:
                np.multiply(x, n, out=off)
                np.add(off, y, out=off)
            return flat.take(off)

        return lookup, deps

    def _is_axis(self, t: Term, i: int) -> bool:
        """t is the variable at position i, on a broadcast axis and ranging over the whole carrier in order."""
        return i >= self._m and t.op == "var" and self._pos[t.name] == i and i in self._carrier

    def _span(self, i: int) -> slice:
        """The part of the carrier that broadcast axis i covers in the current chunk."""
        return self._block if i == self._m else slice(None)

    def first_failure(self, law: Law, ranges=None) -> Optional[dict]:
        """The first failing assignment of law, or None; ranges gives, per variable, its values in scan
        order or None for all of them (the test members or the carrier)."""
        k = len(law.vars)
        if law.tests and self.T is None:
            raise ValueError(f"{law.name} has test variables but no test algebra was given")
        doms = [
            r if r is not None else self.T.members if v in law.tests else range(self.S.n)
            for v, r in zip(law.vars, ranges or [None] * k)
        ]
        symmetric = k > 1 and self._symmetric is not None and all(r is None for r in ranges or ())
        if symmetric and (least := self._symmetric._orbit_least) is not None:
            # the first failing values form a union of orbits, so the least of them is an orbit's least
            first = np.asarray(doms[0])
            doms[0] = first[least[first] == first].tolist()
        m = 0
        while math.prod(len(d) for d in doms[m + 1 :]) > _CHUNK:
            m += 1
        shape = [len(d) for d in doms[m:]]
        size, rows = (shape[0] if shape else 1), _CHUNK // math.prod(shape[1:])
        axes = [
            np.asarray(d, dtype=np.intp).reshape([-1 if j == i else 1 for j in range(k - m)])
            for i, d in enumerate(doms[m:])
        ]
        self._pos = {v: i for i, v in enumerate(law.vars)}
        self._m, self._inner = m, k - 1
        self._carrier = {i for i, d in enumerate(doms) if isinstance(d, range)}
        concl, premises = self._term(law.concl)[0], [self._term(a)[0] for a in law.premises]
        for prefix in itertools.product(*doms[:m]):
            for lo in range(0, size, rows):
                self._block = block = slice(lo, min(lo + rows, size))
                env, self._valid = [*prefix, *axes], []
                if axes:
                    env[m] = axes[0][block]
                ok = concl(env)
                for p in premises:
                    ok = ok | ~p(env)
                for v in self._valid:
                    ok = ok & v
                chunk = (block.stop - lo, *shape[1:])
                if np.shape(ok) != chunk:
                    ok = np.broadcast_to(ok, chunk)
                idx = np.unravel_index(int(np.argmin(ok)), chunk)
                if ok[idx]:
                    continue
                at = (lo + idx[0], *idx[1:])
                witness = dict(zip(law.vars, [*prefix, *(int(d[i]) for d, i in zip(doms[m:], at))]))
                if not all(np.broadcast_to(v, chunk)[idx] for v in self._valid):
                    # complement of a non-test: let the scalar evaluator raise
                    scalar = _Scalar(_Tables(self.S, self.T, self.D), law.vars)
                    for atom in (*law.premises, law.concl):
                        scalar.atom(atom)(list(witness.values()))
                return witness
        return None


def check_laws(laws, S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None, hand=()) -> list[LawReport]:
    """One report per entry of laws, in order.

    A Law is scanned exhaustively over the tables of S (with the tests T and
    the domain structure D where its terms need them).  A plain name stands
    for a law kept hand-written; its report is taken from hand.
    """
    scanner, given = _Scanner(S, T, D), {r.name: r for r in hand}
    return [
        given[law] if isinstance(law, str) else _not_applicable(law, lambda: scanner.top, D) or
        _report(law.name, scanner.first_failure(law)) for law in laws
    ]


def check_equation(
    lhs: Term,
    rhs: Term,
    rel: str = "eq",
    S: FiniteSemiring = None,
    T: Optional[TestAlgebra] = None,
    D=None,
    test_vars: Optional[Iterable[str]] = None,
    name: str = "",
) -> LawReport:
    """Check lhs = rhs (or lhs <= rhs) over all assignments.

    Element variables range over the carrier, test variables over the
    members of T, or of D.tests when T is None.
    Unless test_vars is given, variables named p*, q*, r* count as tests.
    """
    if rel not in ("eq", "leq"):
        raise ValueError("rel must be 'eq' or 'leq'")
    if S is None:
        raise ValueError("a semiring is required")
    vs = list(dict.fromkeys(u.name for side in (lhs, rhs) for u in _walk(side) if u.op == "var"))
    test_vars = {v for v in vs if v[:1] in ("p", "q", "r")} if test_vars is None else set(test_vars)
    name = name or f"{lhs} {'=' if rel == 'eq' else '<='} {rhs}"
    law = Law(name, tuple(vs), Term(rel, (lhs, rhs)), tests=tuple(v for v in vs if v in test_vars))
    return check_laws([law], S, T, D)[0]


# ---------------------------------------------------------------------------
# laws decided by reduction or through the rewrite step


def _row_blocks(n: int, cols: int):
    """Slices of range(n) that cut an n-row grid of cols columns into blocks of at most _CHUNK cells."""
    rows = max(1, _CHUNK // cols)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _generators(X) -> list[int]:
    """A set G whose left-normed products ((g1 g2) ...) gk cover the magma (carrier, X), greedily, rarest first; ascending.

    Candidates are visited by how few cells of X hold them, ties by index:
    an element few products reach is one the others seldom generate.  Each
    candidate not yet covered joins G, and what G covers grows only by right
    multiplication with G: each element meets each generator once, in blocks
    of at most _CHUNK cells.  Where X is associative every product is
    left-normed, so G is the greedy generating set.
    """
    n = len(X)
    counts = sum(np.bincount(X[rows].ravel(), minlength=n) for rows in _row_blocks(n, n))
    inside = np.zeros(n, dtype=bool)
    gens = []
    for g in np.argsort(counts, kind="stable").tolist():
        if inside[g]:
            continue
        gens.append(g)
        hit = np.zeros(n, dtype=bool)
        hit[g] = True
        hit[X[inside, g]] = True
        while (new := np.flatnonzero(hit & ~inside)).size:
            inside[new] = True
            hit[:] = False
            for rows in _row_blocks(len(new), len(gens)):
                hit[X[np.ix_(new[rows], gens)]] = True
    return sorted(gens)


def _associative(X, gens) -> bool:
    """Light's test: (x g) y = x (g y) for all x, y and every g in gens.

    In any magma the g for which this holds are closed under X, as then
    (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y); so gens whose
    left-normed products cover the carrier (_generators) decide the law.
    """
    blocks = _row_blocks(len(X), len(X))
    return all(
        np.array_equal(X[X[rows, g]], X[rows].take(X[g], axis=1)) for g in gens for rows in blocks
    )


def _union_embedding(X, gens) -> bool:
    """Whether h(x) = {g in gens : X[g, x] = x}, as a bit mask, is injective with h(X[x, y]) = h(x) | h(y).

    h then embeds (carrier, X) in (2^gens, union), and an injective
    homomorphism carries associativity, commutativity and idempotence of
    union back to X.  Masks are int64, of at most 63 bits.  X is read in row
    blocks whose intp copy, which the gather h[X[rows]] makes, is at most
    _CHUNK bytes.
    """
    if len(gens) > 63:
        return False
    n = len(X)
    h = np.zeros(n, dtype=np.int64)
    for k, g in enumerate(gens):
        h = np.where(X[g] == np.arange(n), h | 1 << k, h)
    blocks = _row_blocks(n, n * np.dtype(np.intp).itemsize)
    return len(set(h.tolist())) == n and all(np.array_equal(h[X[rows]], h[rows, None] | h) for rows in blocks)


def _distributive(S: FiniteSemiring, left: bool) -> bool:
    """Left (right) distributivity, given add-associative and mul-associative.

    With · associative the a for which a(b + c) = ab + ac for all b, c are
    closed under ·, and with + associative, for a fixed a, so are the b for
    which this holds for all c.  So the law holds iff it holds for a over
    the generators of (carrier, ·), b over those of (carrier, +) and all c.
    The right law is the same with u[x] = xa for u[x] = ax.
    """
    A, b = S.add, np.array(S._gens["add"])
    for g in S._gens["mul"]:
        u = S.mul[g] if left else S.mul[:, g]
        for rows in _row_blocks(len(b), S.n):
            if not np.array_equal(u.take(A[b[rows]]), A[u[b[rows]]].take(u, axis=1)):
                return False
    return True


def _induction(S: FiniteSemiring, left: bool) -> bool:
    """star-left-induction (star-right-induction), given the isemiring laws.

    Then c -> b + ac is monotone on a finite semilattice with least element
    0, so iterating it from 0 reaches mu(a, b), the least c that satisfies
    the premise, and the law holds iff a*b <= mu(a, b) for all a, b.  By
    distributivity and associativity the k-th iterate is mu_k(a, 1) b, so
    mu(a, b) = mu(a, 1) b, and the law holds iff a* <= mu(a, 1) for all a:
    b = 1 is one instance, and right multiplication by b is monotone.  The
    right law is the left one with the arguments of · swapped.
    """
    A, M = S.add, S.mul if left else S.mul.T
    a = np.arange(S.n)
    mu = np.full(S.n, S.zero, dtype=A.dtype)
    for _ in range(S.n):
        nxt = A[S.one, M[a, mu]]
        if np.array_equal(nxt, mu):
            return np.array_equal(A[S.star, mu], mu)
        mu = nxt
    return False


def _walk(t: Term):
    """The subterms of t, t first, in pre-order."""
    yield t
    for x in t.args:
        yield from _walk(x)


def _replace(t: Term, old: Term, new: Term) -> Term:
    """t with each copy of the subterm old replaced by new."""
    return new if t == old else Term(t.op, tuple(_replace(a, old, new) for a in t.args), t.name)


def _occurs(t: Term, v: str) -> bool:
    return any(u.op == "var" and u.name == v for u in _walk(t))


# With the guards of _rewrite these are monotone, and preserve binary joins, in each argument.
_ADDITIVE_OPS = frozenset({"add", "mul", "dom", "cod"})


def _monotone(t: Term, v: str) -> bool:
    """Every subterm of t that contains the variable v applies an operation of _ADDITIVE_OPS."""
    return all(u.op in _ADDITIVE_OPS for u in _walk(t) if u.args and _occurs(u, v))


# law: (the laws that must have held first, the reduction over the semiring S and the domain structure D)
_REDUCTIONS = {
    "add-commutative": ((), lambda S, D: S._add_in_powerset or np.array_equal(S.add, S.add.T)),
    "add-associative": ((), lambda S, D: S._add_in_powerset or _associative(S.add, S._gens["add"])),
    "mul-associative": ((), lambda S, D: _associative(S.mul, S._gens["mul"])),
    "left-distributive": (("add-associative", "mul-associative"), lambda S, D: _distributive(S, True)),
    "right-distributive": (("add-associative", "mul-associative"), lambda S, D: _distributive(S, False)),
    "star-left-induction": (_ISEMIRING_NAMES, lambda S, D: _induction(S, True)),
    "star-right-induction": (_ISEMIRING_NAMES, lambda S, D: _induction(S, False)),
    # the verdicts the domain structure took when it was built, with b over the join-irreducibles (its _decide_axioms)
    **{name: (_ISEMIRING_NAMES, lambda S, D, name=name: name in D.laws) for name in ("dom-additive", "cod-additive")},
}

# With these + is a join and the operations of _ADDITIVE_OPS preserve binary
# joins; cod-additive is dom-additive's mirror, checked outside the printed calculus.
_REWRITE_GUARDS = _ISEMIRING_NAMES + ("dom-additive", "cod-additive")


def _certified(law: Law, held) -> Optional[str]:
    """"certified by <law>" where law is its table's (_TABLE_LAWS) and held names its certificate's laws, else None."""
    by, needs = _CERTIFICATES.get(law.name, (None, ()))
    if by is not None and _TABLE_LAWS.get(law.name) == law and held.issuperset((by, *needs)):
        return f"certified by {by}"
    return None


class _Rewrite(NamedTuple):
    """What _rewrite made of a law."""

    law: Law
    # per variable of law its values in scan order, None for all of them; None if none is narrowed
    ranges: Optional[tuple]
    # (variable, value) for each Horn-eliminated variable, in the order of elimination
    bounds: tuple = ()


def _rewrite(law: Law, model, held, budget: int = 0) -> Optional[_Rewrite]:
    """law rewritten to an equivalent law with fewer instances, or None where no rewrite applies.

    held names the laws known to hold on every instance in model.  Once
    the guards _REWRITE_GUARDS have held, Horn elimination (_eliminated: v := t1 +
    ... + tk) and then join-irreducible ranges (_narrowed) run, each only
    while the law has more instances than budget.  Both are equivalences,
    so a failure of the result is one of law, lifted by giving each
    eliminated variable its bound's value.  A guard is never rewritten, as
    its rewrite would rest on itself.  model has the domain surface (size,
    test_count; join_irreducibles and the atom surface for narrowed
    ranges) and is read only past the guards.
    """
    if law.name in _REWRITE_GUARDS or not held.issuperset(_REWRITE_GUARDS):
        return None
    n = model.size() or math.inf

    def size(v: str, law: Law):
        return model.test_count() if v in law.tests else n

    def space(law: Law):
        return math.prod(size(v, law) for v in law.vars)

    given, bounds, ranges = law, (), None
    if space(law) > budget:
        law, bounds = _eliminated(law)
    if space(law) > budget:
        ranges = _narrowed(law, model, held, size)
    return None if law is given and ranges is None else _Rewrite(law, ranges, bounds)


def _eliminated(law: Law) -> tuple:
    """(law', bounds): law with its Horn test variables eliminated one at a time, and each one's value.

    A test variable v qualifies when it is the bare right side of premises
    t1 <= v, ..., tk <= v whose ti are free of v, and occurs elsewhere only
    where a larger v can only falsify a premise or satisfy the conclusion:
    monotonically on the left of another premise's <=, or on the right of
    the conclusion's.  Then the least v that satisfies those premises,
    t1 + ... + tk, is the one instance that decides law (Kozen 2000), and
    the premises ti <= v go.
    """
    def grows(a: Term, v: str, side: int) -> bool:
        # v is not in a, or a is l <= r with v only in the side given (0: l, 1: r), monotonically
        return not _occurs(a, v) or (a.op == "leq" and not _occurs(a.args[1 - side], v) and _monotone(a.args[side], v))

    bounds = []
    while True:
        for v in law.tests:
            x = var(v)
            below = [a.args[0] for a in law.premises if a.op == "leq" and a.args[1] == x]
            rest = [a for a in law.premises if not (a.op == "leq" and a.args[1] == x)]
            if (
                below
                and not any(_occurs(t, v) for t in below)
                and all(grows(a, v, 0) for a in rest)
                and grows(law.concl, v, 1)
            ):
                t = functools.reduce(add, below)
                law = Law(
                    law.name,
                    tuple(u for u in law.vars if u != v),
                    _replace(law.concl, x, t),
                    tuple(_replace(a, x, t) for a in rest),
                    tuple(u for u in law.tests if u != v),
                    law.requires,
                )
                bounds.append((v, t))
                break
        else:
            return law, tuple(bounds)


def _narrowed(law: Law, model, held, size) -> Optional[tuple]:
    """Per variable of a premise-free f <= g or f = g, 0 and the join-irreducibles where they decide it, else None.

    They decide a variable x that occurs once in f, once in g too for
    f = g (read as f <= g and g <= f), and in f and g only under +, ·, dom
    and cod: f preserves binary joins in x and g is monotone in x, so
    f(x) = f(j1) + ... + f(jk) <= g(j1) + ... + g(jk) <= g(x) for
    x = j1 + ... + jk (Jónsson and Tarski 1951), and each variable can be
    narrowed with the others ranging freely.  The join-irreducibles of the
    carrier are model.join_irreducibles(); those of the tests are the atoms,
    when every test is the join of the atoms below it (atomic-tests).  The
    result is None if no variable is narrowed.
    """
    if law.premises or law.concl.op not in ("leq", "eq") or not hasattr(model, "join_irreducibles"):
        return None
    f, g = law.concl.args
    sides = (f, g) if law.concl.op == "eq" else (f,)
    ranges = []
    for v in law.vars:
        test, values = v in law.tests, None
        if all(sum(u == var(v) for u in _walk(t)) == 1 for t in sides) and _monotone(f, v) and _monotone(g, v):
            if not test:
                values = [model.zero, *model.join_irreducibles()]
            elif "atomic-tests" in held:
                values = [model.test_zero, *(model.test_from_positions((k,)) for k in model.atom_positions(model.test_one))]
        ranges.append(values if values is not None and len(values) < size(v, law) else None)
    return tuple(ranges) if any(r is not None for r in ranges) else None


def _decide(laws, model, scanner: Optional[_Scanner], held, hand=(), budget: int = 0, samples: Optional[int] = None,
            rng=None) -> list[LawReport]:
    """One report per entry of laws, in order, from the first rung of the ladder that decides each (see the module
    docstring); a plain name stands for a hand-written report, taken from hand.

    model has the domain surface, or is None for tables without a domain;
    scanner scans its tables, None where _Scalar reads model's methods.
    _instances lists or draws instances by budget, samples and rng;
    samples=None asks for an exact decision.  held names the laws known to
    hold on every instance, and grows by the hand reports and the table
    laws (_TABLE_LAWS) that held unsampled.  Witnesses map variables to values.
    """
    given, held, reports, exact = {r.name: r for r in hand}, set(held), [], samples is None
    top = (lambda: scanner.top) if scanner is not None else (lambda: model.top)

    def first(law: Law, envs) -> Optional[dict]:
        holds = _Scalar(model, law.vars, law.tests).compile(law)
        return next((dict(zip(law.vars, env)) for env in envs if not holds(env)), None)

    for law in laws:
        table_law = not isinstance(law, str) and _TABLE_LAWS.get(law.name) == law
        needs, reduction = _REDUCTIONS.get(law.name, ((), None)) if table_law and scanner is not None else ((), None)
        report = given[law] if isinstance(law, str) else _not_applicable(law, top, model)
        if report is None and reduction is not None and held.issuperset(needs) and reduction(scanner.S, scanner.D):
            report = LawReport(law.name, True, None, "reduction")
        if report is None and (note := _certified(law, held)) is not None:
            report = LawReport(law.name, True, None, note)
        if report is None:
            is_test = [v in law.tests for v in law.vars]
            envs, listed = ((), False) if exact else _instances(model, is_test, budget, samples, rng)
            rw = None if listed else _rewrite(law, model, held, budget)
            if rw is not None:
                rw_test = [v in rw.law.tests for v in rw.law.vars]
                rw_envs, fits = ((), True) if exact else _instances(model, rw_test, budget, 0, None, rw.ranges)
                if fits:
                    found = scanner.first_failure(rw.law, rw.ranges) if scanner is not None else first(rw.law, rw_envs)
                    if found is None or not exact and (found := _lift(law, rw, model, found)) is not None:
                        report = _report(law.name, found, f"reduced ({math.prod(_sizes(model, rw_test, rw.ranges))})")
            if report is None:
                whole = listed or exact
                found = scanner.first_failure(law) if scanner is not None and whole else first(law, envs)
                report = _report(law.name, found, "exhaustive" if whole else f"sampled ({samples})")
        reports.append(report)
        if report.holds and (isinstance(law, str) or table_law and not report.note.startswith("sampled")):
            held.add(report.name)
    return reports


def _lift(law: Law, rw: _Rewrite, model, found: dict) -> Optional[dict]:
    """The instance of law for found, a failing instance of rw.law, if law fails there; else None."""
    scalar = _Scalar(model, law.vars, law.tests)
    env = [found.get(v) for v in law.vars]
    try:
        # a bound reads only variables that were still there when it was taken
        for v, t in reversed(rw.bounds):
            env[scalar.pos[v]] = scalar.term(t, True)(env)
        return None if scalar.compile(law)(env) else dict(zip(law.vars, env))
    except ValueError:
        return None


def _exact(laws, scanner: _Scanner, hand=(), held=()) -> list[LawReport]:
    """_decide's exact reports over scanner's tables, with a bare note for each law the ladder decided, as the table
    checkers print them."""
    reports = _decide(laws, scanner.D, scanner, held, hand)
    kept = [isinstance(law, str) or r.note.startswith("not applicable") for law, r in zip(laws, reports)]
    return [r if keep else LawReport(r.name, r.holds, r.witness) for r, keep in zip(reports, kept)]


def check_isemiring(S: FiniteSemiring) -> list[LawReport]:
    """All idempotent-semiring laws, each decided exactly: by reduction where one applies, else by a scan."""
    return list(S._isemiring_reports)


def _powers_below_star(S: FiniteSemiring) -> Optional[dict]:
    """First a with a^i not below a*, trying i = 1..n in turn.

    The vector of i-th powers of all elements determines the next one, so
    once it repeats an earlier vector no power after it is new, and the
    search stops.
    """
    ar = np.arange(S.n)
    pw, seen = ar, set()
    for i in range(1, S.n + 1):
        bad = np.flatnonzero(S.add[pw, S.star] != S.star)
        if bad.size:
            return {"a": int(bad[0]), "power": i}
        seen.add(pw.tobytes())
        pw = S.mul[pw, ar]
        if pw.tobytes() in seen:
            return None
    return None


def check_kleene(S: FiniteSemiring) -> list[LawReport]:
    """Kleene star axioms plus the standard derived star laws, decided once per table set (_kleene_reports)."""
    if S.star is None:
        raise ValueError(f"{S.name} declares no star table")
    return list(S._kleene_reports)


def _first_pair(mem, bad) -> Optional[dict]:
    """The first (p, q) in member order at which bad, a members x members mask, is true, or None."""
    i, j = divmod(int(np.argmax(bad)), len(mem))
    return {"p": mem[i], "q": mem[j]} if bad[i, j] else None


def check_test_algebra(T: TestAlgebra) -> list[LawReport]:
    """Boolean-algebra laws for the declared members, plus the four-way
    shunting equivalences that image/preimage reasoning relies on."""
    return list(T._reports)


def _test_algebra_reports(T: TestAlgebra) -> list[LawReport]:
    """check_test_algebra's reports, decided afresh."""
    S, mem, member, O = T.owner, T.members, T._member_mask, T.owner._order
    ix = np.array(mem)
    meets = S.mul[np.ix_(ix, ix)]
    below = O[np.ix_(ix, ix)]  # below[r, p]: r <= p
    # the meet of p and q lies below both, and every member r below both lies below it
    not_glb = ~(O[meets, ix[:, None]] & O[meets, ix])
    for rows in _row_blocks(len(ix), len(ix) ** 2):
        not_glb[rows] |= (below[:, rows, None] & below[:, None, :] & ~O[ix[:, None, None], meets[rows]]).any(axis=0)
    hand = [
        _report("zero-is-member", None if member[S.zero] else {"p": S.zero}),
        _report("one-is-member", None if member[S.one] else {"p": S.one}),
        _report("closed-under-join", _first_pair(mem, ~member[S.add[np.ix_(ix, ix)]])),
        _report("closed-under-meet", _first_pair(mem, ~member[meets])),
        _report("meet-is-greatest-lower-bound", _first_pair(mem, not_glb)),
    ]
    return check_laws(TEST_LAWS, S, T, hand=hand)
