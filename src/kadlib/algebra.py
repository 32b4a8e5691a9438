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

check_isemiring and check_kleene decide their eight three-variable laws
exactly by reduction, each once the laws its guard names have held on the
same tables:

- add-/mul-associative: Light's test over a greedy generating set of
  (carrier, +) or (carrier, ·) (Clifford and Preston, The Algebraic Theory
  of Semigroups I, §1.2); no guard.
- left-/right-distributive: the multiplying element over the generators
  of ·, one summand over those of +; guard: add- and mul-associative.
- star-left-/star-right-induction: a* <= mu(a, 1), where mu(a, b) =
  mu(a, 1) b is the least solution of the premise, iterated from 0;
  guard: the isemiring laws.
- star-left-/star-right-simulation: theorems of the axioms (Kozen 1994);
  guard: the isemiring laws and the matching unfold and induction laws.

A law whose variables occur only inside copies of one subterm is first
decided with that subterm generalized to a fresh variable over the
carrier, where that has fewer instances (_generalized).  A law whose guard
has not held, or that its reduction or general form refutes, is scanned,
so every report and witness is the scanner's.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "FiniteSemiring",
    "TestAlgebra",
    "LawReport",
    "Verdict",
    "Term",
    "var",
    "zero_term",
    "one_term",
    "add",
    "mul",
    "star",
    "conv",
    "dom",
    "cod",
    "compl",
    "top_term",
    "opposite",
    "Law",
    "eq",
    "leq",
    "iff",
    "check_laws",
    "ISEMIRING_LAWS",
    "KLEENE_LAWS",
    "TEST_LAWS",
    "check_isemiring",
    "check_kleene",
    "check_test_algebra",
    "eval_term",
    "check_equation",
    "all_hold",
    "failures",
    "format_witness",
]


def _as_table(values, n, what, unary=False):
    """values as a read-only n x n table of element indices (length n when unary)."""
    t = np.asarray(values, dtype=np.int32)
    if t.shape != ((n,) if unary else (n, n)):
        size = f"have length {n}" if unary else f"be {n}x{n}"
        raise ValueError(f"{what} table must {size}, got {t.shape}")
    if t.min() < 0 or t.max() >= n:
        raise ValueError(f"{what} table entries must be element indices < {n}")
    t.setflags(write=False)
    return t


class FiniteSemiring:
    """A finite idempotent semiring given by dense operation tables.

    Only structural sanity is enforced at construction (table shapes, index
    ranges, zero != one).  Whether the tables actually satisfy the semiring
    or Kleene laws is the job of check_isemiring / check_kleene.
    """

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
        """check_isemiring's reports, decided once: the tables are read-only."""
        zero_not_one = _report("zero-not-one", None if self.zero != self.one else {})
        return tuple(_check(ISEMIRING_LAWS, _Scanner(self), [zero_not_one], _decided))

    @functools.cached_property
    def _predomains(self) -> dict:
        """The domain structures built over these tables, by test algebra (domain.compute_predomain)."""
        return {}

    @functools.cached_property
    def _gens(self) -> dict:
        """Generating sets of (carrier, +) and (carrier, ·), for the law reductions."""
        return {"add": _generators(self.add), "mul": _generators(self.mul)}

    # -- basic views -------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self.carrier.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r} in {self.name}") from None

    def element_name(self, i: int) -> str:
        return self.carrier[i]

    def elements(self) -> range:
        return range(self.n)

    def leq(self, a: int, b: int) -> bool:
        """Natural order: a <= b iff a + b = b."""
        return int(self.add[a, b]) == b

    def subidentities(self) -> list[int]:
        return [x for x in range(self.n) if self.leq(x, self.one)]

    def top(self) -> Optional[int]:
        """Greatest element in the natural order, if one exists."""
        for t in range(self.n):
            if all(self.leq(x, t) for x in range(self.n)):
                return t
        return None

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
        out = []
        for p in self.members:
            if p == zero:
                continue
            below = [q for q in self.members if q not in (zero, p) and self.leq(q, p)]
            if not below:
                out.append(p)
        return out

    def atoms_below(self, p: int) -> list[int]:
        return [q for q in self.atoms() if self.leq(q, p)]

    def lower_size(self, p: int) -> int:
        return sum(1 for q in self.members if self.leq(q, p))

    def __repr__(self):
        names = ",".join(self.owner.element_name(m) for m in self.members)
        return f"TestAlgebra({{{names}}} over {self.owner.name!r})"


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check; witness maps variable names to element indices."""

    name: str
    holds: bool
    witness: Optional[dict] = None
    note: str = ""

    def __str__(self):
        if self.holds:
            tag = "holds" if not self.note else f"holds ({self.note})"
            return f"{self.name}: {tag}"
        w = "" if not self.witness else " at " + ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.name}: FAILS{w}"


@dataclass(frozen=True)
class Verdict:
    """A boolean outcome carrying an optional counterexample."""

    holds: bool
    witness: object = None
    note: str = ""

    def __bool__(self):
        return self.holds


def all_hold(reports: Iterable[LawReport]) -> bool:
    return all(r.holds for r in reports)


def failures(reports: Iterable[LawReport]) -> list[LawReport]:
    return [r for r in reports if not r.holds]


def format_witness(S: FiniteSemiring, witness) -> str:
    """The witness values in parentheses, element indices of S by name ("power" stays a number)."""
    if witness is None:
        return "()"
    if not isinstance(witness, dict):
        return f"({witness})"
    parts = []
    for k, v in witness.items():
        if isinstance(v, (int, np.integer)) and k != "power" and 0 <= int(v) < S.n:
            parts.append(S.element_name(int(v)))
        else:
            parts.append(str(v))
    return "(" + ", ".join(parts) + ")"


def opposite(S: FiniteSemiring) -> FiniteSemiring:
    """Same carrier with multiplication arguments swapped; star/conv carry over."""
    name = S.name[:-3] if S.name.endswith("^op") else S.name + "^op"
    return FiniteSemiring(S.carrier, S.add, S.mul.T, S.zero, S.one, star=S.star, conv=S.conv, name=name)


# ---------------------------------------------------------------------------
# term language


@dataclass(frozen=True)
class Term:
    """Small term AST over semiring signature plus tests, domain and converse.

    op is one of: var, zero, one, top, add, mul, star, conv, dom, cod, not;
    the atoms of a Law are eq and leq between two terms and iff among two
    or more atoms.
    Variables whose name starts with p, q or r range over test members by
    default in check_equation; others range over the whole carrier.
    """

    op: str
    args: tuple = ()
    name: str = ""

    def __add__(self, other):
        return Term("add", (self, _coerce(other)))

    def __mul__(self, other):
        return Term("mul", (self, _coerce(other)))

    def __str__(self):
        if self.op == "var":
            return self.name
        if self.op == "zero":
            return "0"
        if self.op == "one":
            return "1"
        if self.op == "top":
            return "top"
        if self.op == "add":
            return f"({self.args[0]} + {self.args[1]})"
        if self.op == "mul":
            return f"({self.args[0]}{self.args[1]})"
        if self.op == "star":
            return f"{self.args[0]}*"
        if self.op == "conv":
            return f"{self.args[0]}^"
        if self.op == "dom":
            return f"dom({self.args[0]})"
        if self.op == "cod":
            return f"cod({self.args[0]})"
        if self.op == "not":
            return f"{self.args[0]}'"
        return f"{self.op}{self.args}"


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


def eval_term(t: Term, env: Mapping[str, int], S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None) -> int:
    """Evaluate a term to a carrier index under the given variable assignment."""
    op = t.op
    if op == "var":
        try:
            return int(env[t.name])
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    if op == "zero":
        return S.zero
    if op == "one":
        return S.one
    if op == "top":
        top = S.top()
        if top is None:
            raise ValueError("term uses top but the semiring has no greatest element")
        return top
    if op in ("add", "mul"):
        l = eval_term(t.args[0], env, S, T, D)
        r = eval_term(t.args[1], env, S, T, D)
        return int((S.add if op == "add" else S.mul)[l, r])
    x = eval_term(t.args[0], env, S, T, D)
    if op == "star":
        if S.star is None:
            raise ValueError("term uses star but the semiring declares none")
        return int(S.star[x])
    if op == "conv":
        if S.conv is None:
            raise ValueError("term uses converse but the semiring declares none")
        return int(S.conv[x])
    if op == "dom":
        if D is None:
            raise ValueError("term uses dom but no domain structure was given")
        return D.dom(x)
    if op == "cod":
        if D is None:
            raise ValueError("term uses cod but no domain structure was given")
        return D.cod(x)
    if op == "not":
        if T is None:
            raise ValueError("term uses complement but no test algebra was given")
        return T.complement(x)
    raise ValueError(f"unknown term op {op!r}")


def _term_vars(t: Term, acc: list[str]):
    if t.op == "var" and t.name not in acc:
        acc.append(t.name)
    for a in t.args:
        _term_vars(a, acc)


# ---------------------------------------------------------------------------
# laws as data


def eq(l: Term, r: Term) -> Term:
    return Term("eq", (l, r))


def leq(l: Term, r: Term) -> Term:
    return Term("leq", (l, r))


def iff(*atoms: Term) -> Term:
    """All the atoms have the same truth value."""
    return Term("iff", atoms)


@dataclass(frozen=True)
class Law:
    """A universally quantified law: the premises imply the conclusion.

    vars lists the quantified variables in scan order; the ones also named
    in tests range over the test members, the others over the carrier
    (both accept a space-separated string).  A law whose requires flags
    are not all met is reported as not applicable instead of checked.
    """

    name: str
    vars: tuple
    concl: Term
    premises: tuple = ()
    tests: tuple = ()
    requires: tuple = ()

    def __post_init__(self):
        if isinstance(self.premises, Term):
            object.__setattr__(self, "premises", (self.premises,))
        for f in ("vars", "tests"):
            if isinstance(getattr(self, f), str):
                object.__setattr__(self, f, tuple(getattr(self, f).split()))


_NOT_APPLICABLE = {"dloc": "no locality", "cdloc": "no locality", "top": "no greatest element"}


def _not_applicable(law: Law, top, model) -> Optional[LawReport]:
    """The report for a law whose requires flags are unmet (top() or model.flags), else None."""
    flags = getattr(model, "flags", {})
    for f in law.requires:
        if (top() is None) if f == "top" else not flags.get(f):
            return LawReport(law.name, True, None, f"not applicable: {_NOT_APPLICABLE[f]}")
    return None


def _report(name: str, witness: Optional[dict], note: str = "") -> LawReport:
    return LawReport(name, witness is None, witness, note)


def _atom_terms(atom: Term):
    """The terms an atom compares, in evaluation order."""
    for x in atom.args:
        yield from _atom_terms(x) if atom.op == "iff" else (x,)


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
    allocates an index array.  A term or atom that reads no looped-over
    variable is evaluated once per block of the law and reused for every
    prefix, with the complement-validity masks it records.
    """

    def __init__(self, S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None):
        self.S, self.D = S, D
        self.T = T = D.tests if T is None and D is not None else T
        ar = np.arange(S.n)
        self.tables = {"add": S.add, "mul": S.mul, "star": S.star, "conv": S.conv, "leq": S.add == ar}
        if D is not None:
            self.tables.update(dom=D.delta, cod=D.rho)
        if T is not None:
            # complement maps non-members to themselves; member says where it is defined
            self.tables["not"] = np.array([T.compl.get(x, x) for x in range(S.n)])
            self.member = np.isin(ar, T.members)
        self._off = np.empty(_CHUNK, dtype=np.intp)

    @functools.cached_property
    def top(self) -> Optional[int]:
        return self.S.top() if self.D is None else self.D.top

    def _term(self, t: Term, loop: bool = True):
        """(fn, deps): fn(env) evaluates the term or atom t; deps holds the variable positions it reads."""
        op = t.op
        if op == "var":
            i = self._pos[t.name]
            return (lambda env: env[i]), {i}
        if op in ("zero", "one", "top"):
            v = self.top if op == "top" else (self.S.zero if op == "zero" else self.S.one)
            return (lambda env: v), set()
        if loop and self._m:
            vs = []
            _term_vars(t, vs)
            if all(self._pos[v] >= self._m for v in vs):
                return self._hoisted(t)
        if op in ("add", "mul", "leq"):
            return self._lookup(op, *t.args, loop)
        fs, deps = [], set()
        for a in t.args:
            f, d = self._term(a, loop)
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
        f, U = fs[0], self.tables[op]
        if op != "not":
            return (lambda env: U[f(env)]), deps

        def complement(env):
            x = f(env)
            self._valid.append(self.member[x])
            return U[x]

        return complement, deps

    def _hoisted(self, t: Term):
        """t reads no looped-over variable: evaluate it once per block and keep it for the law."""
        f, deps = self._term(t, loop=False)
        blocked, cache = self._m in deps, {}

        def hoisted(env):
            key = self._block.start if blocked else 0
            if key not in cache:
                outer, self._valid = self._valid, []
                cache[key] = f(env), self._valid
                self._valid = outer
            value, valid = cache[key]
            self._valid += valid
            return value

        return hoisted, deps

    def _lookup(self, key: str, l: Term, r: Term, loop: bool):
        """X[l, r] for a binary table X (add, mul or the order leq)."""
        (fl, dl), (fr, dr) = self._term(l, loop), self._term(r, loop)
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
        """t is the variable at position i, on a broadcast axis and ranging over the carrier."""
        return i >= self._m and t.op == "var" and self._pos[t.name] == i and t.name not in self._tests

    def _span(self, i: int) -> slice:
        """The part of the carrier that broadcast axis i covers in the current chunk."""
        return self._block if i == self._m else slice(None)

    def first_failure(self, law: Law) -> Optional[dict]:
        k = len(law.vars)
        doms = [self.T.members if v in law.tests else range(self.S.n) for v in law.vars]
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
        self._m, self._tests, self._inner = m, law.tests, k - 1
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
                    for atom in (*law.premises, law.concl):
                        for t in _atom_terms(atom):
                            eval_term(t, witness, self.S, self.T, self.D)
                return witness
        return None


def check_laws(laws, S: FiniteSemiring, T: Optional[TestAlgebra] = None, D=None, hand=()) -> list[LawReport]:
    """One report per entry of laws, in order.

    A Law is scanned exhaustively over the tables of S (with the tests T and
    the domain structure D where its terms need them).  A plain name stands
    for a law kept hand-written; its report is taken from hand.
    """
    return _check(laws, _Scanner(S, T, D), hand)


def _check(laws, scanner: _Scanner, hand, decided=None, held=()) -> list[LawReport]:
    """check_laws' loop, where a law for which decided(scanner, law, held) is true holds unscanned.

    held holds the names of the laws that have held so far, starting from
    the given ones.
    """
    given = {r.name: r for r in hand}
    held = set(held)
    reports = []
    for law in laws:
        if isinstance(law, str):
            report = given[law]
        else:
            report = _not_applicable(law, lambda: scanner.top, scanner.D)
            if report is None and decided is not None and decided(scanner, law, held):
                report = LawReport(law.name, True)
            if report is None:
                report = _report(law.name, scanner.first_failure(law))
        reports.append(report)
        if report.holds:
            held.add(report.name)
    return reports


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

    Element variables range over the carrier, test variables over T.members.
    Unless test_vars is given, variables named p*, q*, r* count as tests.
    """
    if rel not in ("eq", "leq"):
        raise ValueError("rel must be 'eq' or 'leq'")
    if S is None:
        raise ValueError("a semiring is required")
    vs: list[str] = []
    _term_vars(lhs, vs)
    _term_vars(rhs, vs)
    if test_vars is None:
        test_vars = {v for v in vs if v[:1] in ("p", "q", "r")}
    else:
        test_vars = set(test_vars)
    if test_vars & set(vs) and T is None:
        raise ValueError("equation has test variables but no test algebra was given")
    law = Law(
        name or f"{lhs} {'=' if rel == 'eq' else '<='} {rhs}",
        tuple(vs),
        Term(rel, (lhs, rhs)),
        tests=tuple(v for v in vs if v in test_vars),
    )
    # The first assignment goes through the scalar evaluator, which raises
    # for an operation the model lacks (star, converse, dom/cod, complement).
    first = {v: T.members[0] if v in test_vars else 0 for v in vs}
    eval_term(lhs, first, S, T, D)
    eval_term(rhs, first, S, T, D)
    return check_laws([law], S, T, D)[0]


# ---------------------------------------------------------------------------
# law tables and checkers


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


# ---------------------------------------------------------------------------
# laws decided by reduction or in a general form


def _row_blocks(n: int, cols: int):
    """Slices of range(n) that cut an n-row grid of cols columns into blocks of at most _CHUNK cells."""
    rows = max(1, _CHUNK // cols)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _generators(X) -> list[int]:
    """A generating set of the magma (carrier, X), found greedily.

    Each element in index order that is not yet in the closure of the set
    under X joins it, and the closure grows by the products of its new
    elements with all of it, until it is the whole carrier.
    """
    n = len(X)
    inside = np.zeros(n, dtype=bool)
    gens = []
    for g in range(n):
        if inside[g]:
            continue
        gens.append(g)
        new = np.array([g])
        inside[g] = True
        while new.size:
            hit = np.zeros(n, dtype=bool)
            closure = np.flatnonzero(inside)
            hit[X[np.ix_(new, closure)]] = True
            hit[X[np.ix_(closure, new)]] = True
            new = np.flatnonzero(hit & ~inside)
            inside[new] = True
    return gens


def _associative(X, gens) -> bool:
    """Light's test: (x g) y = x (g y) for all x, y and every generator g.

    The elements g for which this holds are closed under X, so checking it
    for the generators of (carrier, X) decides associativity.
    """
    blocks = _row_blocks(len(X), len(X))
    return all(
        np.array_equal(X[X[rows, g]], X[rows].take(X[g], axis=1)) for g in gens for rows in blocks
    )


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


@functools.lru_cache(maxsize=None)
def _generalized(law: Law, tests: Optional[int], n: int) -> Optional[Law]:
    """law with one subterm t replaced by a fresh variable over the carrier, or None.

    tests and n are the sizes of the test algebra and the carrier.  law
    must take no complement, every variable of t must occur only inside
    copies of t, and t's variables must have more joint values than the
    carrier.  Each instance of law is then an instance of the result, with
    t's value for the fresh variable, so if the result holds so does law.
    Of the subterms that qualify the first in a pre-order walk of the atoms
    is taken; the fresh variable is named after t and takes the place of
    t's first variable in law.vars.
    """
    atoms = (law.concl, *law.premises)
    nodes = [u for a in atoms for u in _walk(a)]
    if any(u.op == "not" for u in nodes):
        return None
    sizes = {v: tests if v in law.tests else n for v in law.vars}
    total = collections.Counter(u.name for u in nodes if u.op == "var")

    def replace(u: Term, x: Term) -> Term:
        return x if u == t else Term(u.op, tuple(replace(a, x) for a in u.args), u.name)

    for t in nodes:
        if t.op in ("var", "eq", "leq", "iff"):
            continue
        inner = collections.Counter(u.name for u in _walk(t) if u.op == "var")
        if math.prod(sizes[v] for v in inner) <= n:
            continue
        # copies of t never nest, so t's variables occur nowhere else iff the counts match
        copies = nodes.count(t)
        if all(total[v] == copies * k for v, k in inner.items()):
            x = var(str(t))
            first = next(v for v in law.vars if v in inner)
            order = tuple(x.name if v == first else v for v in law.vars if v == first or v not in inner)
            tests_left = tuple(v for v in law.tests if v not in inner)
            concl, *premises = (replace(a, x) for a in atoms)
            return Law(law.name, order, concl, tuple(premises), tests_left, law.requires)
    return None


def _walk(t: Term):
    """The subterms of t, t first, in pre-order."""
    yield t
    for x in t.args:
        yield from _walk(x)


_ISEMIRING_NAMES = tuple(law if isinstance(law, str) else law.name for law in ISEMIRING_LAWS)

# law: (the laws that must have held first, the reduction)
_REDUCTIONS = {
    "add-associative": ((), lambda S: _associative(S.add, S._gens["add"])),
    "mul-associative": ((), lambda S: _associative(S.mul, S._gens["mul"])),
    "left-distributive": (("add-associative", "mul-associative"), lambda S: _distributive(S, True)),
    "right-distributive": (("add-associative", "mul-associative"), lambda S: _distributive(S, False)),
    "star-left-induction": (_ISEMIRING_NAMES, lambda S: _induction(S, True)),
    "star-right-induction": (_ISEMIRING_NAMES, lambda S: _induction(S, False)),
    # theorems of the axioms (Kozen 1994): from ac <= cb, star-left-induction
    # with c b* for c gives a*c <= c b*, and the right law is its mirror
    "star-left-simulation": (_ISEMIRING_NAMES + ("star-left-unfold", "star-left-induction"), lambda S: True),
    "star-right-simulation": (_ISEMIRING_NAMES + ("star-right-unfold", "star-right-induction"), lambda S: True),
}


def _decided(scanner: _Scanner, law: Law, held: set) -> bool:
    """Whether law is found true without its own scan.

    A law with a reduction holds if the laws the reduction needs have held
    and the reduction finds it true; any other law holds if _generalized
    finds a general form of it and the scanner finds no failure of that.
    """
    if law.name in _REDUCTIONS:
        needs, holds = _REDUCTIONS[law.name]
        return held.issuperset(needs) and holds(scanner.S)
    T = scanner.T
    general = _generalized(law, None if T is None else len(T.members), scanner.S.n)
    return general is not None and scanner.first_failure(general) is None


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
    """Kleene star axioms plus the standard derived star laws."""
    if S.star is None:
        raise ValueError(f"{S.name} declares no star table")
    powers = _report("powers-below-star", _powers_below_star(S), note=f"powers up to {S.n}")
    held = [r.name for r in S._isemiring_reports if r.holds]
    return _check(KLEENE_LAWS, _Scanner(S), [powers], _decided, held)


def _first_pair(mem, pred) -> Optional[dict]:
    return next(({"p": p, "q": q} for p in mem for q in mem if not pred(p, q)), None)


def check_test_algebra(T: TestAlgebra) -> list[LawReport]:
    """Boolean-algebra laws for the declared members, plus the four-way
    shunting equivalences that image/preimage reasoning relies on."""
    S = T.owner
    mem = T.members
    memset = set(mem)

    def glb(p, q):
        m = int(S.mul[p, q])
        return S.leq(m, p) and S.leq(m, q) and all(S.leq(r, m) for r in mem if S.leq(r, p) and S.leq(r, q))

    hand = [
        _report("zero-is-member", None if S.zero in memset else {"p": S.zero}),
        _report("one-is-member", None if S.one in memset else {"p": S.one}),
        _report("closed-under-join", _first_pair(mem, lambda p, q: int(S.add[p, q]) in memset)),
        _report("closed-under-meet", _first_pair(mem, lambda p, q: int(S.mul[p, q]) in memset)),
        _report("meet-is-greatest-lower-bound", _first_pair(mem, glb)),
    ]
    return check_laws(TEST_LAWS, S, T, hand=hand)
