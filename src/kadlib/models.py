"""Concrete semiring models.

Five small finite semirings given by their printed tables, finite binary
relations (the workhorse model), square matrices over any star semiring,
the tropical and max-plus number models, bounded language and path models,
and an algebra of predicate transformers built from a domain structure.

Finite models can be materialized into dense-table FiniteSemiring values
for exhaustive law checking; infinite ones are checked by sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import _CHUNK, ISEMIRING_LAWS, KLEENE_LAWS, FiniteSemiring, Law, LawReport, TestAlgebra
from .domain import run_laws

__all__ = [
    "StarUnsupportedError",
    "ModelHandle",
    "Relation",
    "RelModel",
    "conway_model",
    "conway_names",
    "rel_model",
    "rel_semiring",
    "rel_tests",
    "tropical_model",
    "maxplus_model",
    "bounded_language_model",
    "bounded_path_model",
    "matrix_semiring",
    "matrix_star",
    "predicate_transformer_model",
    "materialize",
    "MaterializedModel",
    "check_sampled_laws",
]


class StarUnsupportedError(ValueError):
    """The model provides no star operation (its powers are unbounded)."""


# ---------------------------------------------------------------------------
# uniform handle for models that are not (or not yet) dense tables


class ModelHandle:
    """Uniform interface over computable models.

    Subclasses provide add/mul/zero/one and optionally star, top, element
    enumeration (elements, and size, which is None for an infinite model)
    and sampling.  Elements are opaque values; el_name renders them for
    reports.  A model with domain adds the test surface (test_members,
    test_join/meet/compl/leq, test_name, embed), dom/cod/preimage/image
    and the atom surface over atoms numbered 0..m-1 (atom_positions,
    test_from_positions, preimage_positions, image_positions); DomainStructure
    has the same names over its tables, so one checker takes either.
    """

    name = "model"
    has_star = False

    # -- required ops --------------------------------------------------

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def star(self, x):
        raise StarUnsupportedError(f"{self.name} has no star operation")

    def leq(self, x, y) -> bool:
        return self.add(x, y) == y

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    @property
    def top(self):
        return None

    # -- enumeration and naming ----------------------------------------

    def elements(self):
        raise NotImplementedError(f"{self.name} cannot enumerate its elements")

    def size(self) -> Optional[int]:
        return None

    def sample(self, rng):
        raise NotImplementedError

    def el_name(self, x) -> str:
        return str(x)

    def declared_tests(self):
        """(members, compl) in model representation, or None if undeclared."""
        return None

    def index_tables(self):
        """The add and mul tables over the order of elements(), or None to build them from add and mul."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# the five printed finite semirings


def _tables(carrier, add_rows, mul_rows, star_row, zero, one):
    return dict(
        carrier=carrier,
        add=add_rows,
        mul=mul_rows,
        star=star_row,
        zero=zero,
        one=one,
    )


_CONWAY = {
    # two-element Boolean semiring
    "A2": _tables(
        ("0", "1"),
        [[0, 1], [1, 1]],
        [[0, 0], [0, 1]],
        [1, 1],
        zero=0,
        one=1,
    ),
    # three elements ordered 0 <= 1 <= a; a absorbs under +
    "A3_1": _tables(
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [2, 1, 2],
        zero=0,
        one=2,
    ),
    # chain 0 <= a <= 1 with a nilpotent: a.a = 0
    "A3_2": _tables(
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
        [2, 2, 2],
        zero=0,
        one=2,
    ),
    # like A3_2 except a.a = a
    "A3_3": _tables(
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [2, 2, 2],
        zero=0,
        one=2,
    ),
    # chain 0 <= a <= 1 <= b with top b and a.a = 0
    "A4_1": _tables(
        ("0", "a", "1", "b"),
        [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]],
        [2, 2, 2, 3],
        zero=0,
        one=2,
    ),
}


def conway_names() -> tuple[str, ...]:
    return tuple(_CONWAY)


def conway_model(name: str) -> FiniteSemiring:
    """One of the five small builtin semirings, by name (A2, A3_1, ... A4_1)."""
    key = name.strip().upper()
    if key not in _CONWAY:
        raise ValueError(f"unknown builtin model {name!r}; choose from {', '.join(_CONWAY)}")
    t = _CONWAY[key]
    return FiniteSemiring(
        t["carrier"], t["add"], t["mul"], t["zero"], t["one"], star=t["star"], name=key
    )


# ---------------------------------------------------------------------------
# finite binary relations


def _bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first, in time linear in its length.

    Up to 32 bits are stripped one at a time from the top, each strip a
    pass over mask; more are read off its bytes, unpacked by numpy.
    """
    if mask.bit_count() > 32:
        octets = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
        return np.flatnonzero(np.unpackbits(octets, bitorder="little")).tolist()
    out = []
    while mask:
        k = mask.bit_length() - 1
        out.append(k)
        mask ^= 1 << k
    out.reverse()
    return out


@dataclass(frozen=True)
class Relation:
    """Binary relation on {1..n}, stored as per-row successor bitmasks.

    Rows are 0-based internally; the public pair interface is 1-based.
    """

    n: int
    rows: tuple[int, ...]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i},{j}) outside 1..{n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "Relation":
        m = (1 << n) - 1
        return cls(n, (m,) * n)

    def pairs(self) -> frozenset:
        return frozenset((i + 1, j + 1) for i, row in enumerate(self.rows) for j in _bit_positions(row))

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def compose(self, other: "Relation") -> "Relation":
        self._check(other)
        rows = []
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc |= other.rows[low.bit_length() - 1]
                r ^= low
            rows.append(acc)
        return Relation(self.n, tuple(rows))

    def transpose(self) -> "Relation":
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= bit
                row ^= low
        return Relation(self.n, tuple(rows))

    def star(self) -> "Relation":
        """Reflexive-transitive closure by repeated squaring."""
        acc = self.union(Relation.identity(self.n))
        while True:
            nxt = acc.compose(acc)
            if nxt == acc:
                return acc
            acc = nxt

    def leq(self, other: "Relation") -> bool:
        self._check(other)
        return all(a | b == b for a, b in zip(self.rows, other.rows))

    def _check(self, other: "Relation"):
        if self.n != other.n:
            raise ValueError("relations over different base sets")

    def __str__(self):
        # row-major order is sorted order
        return "{" + ",".join(f"({i + 1},{j + 1})" for i, row in enumerate(self.rows) for j in _bit_positions(row)) + "}"


class RelModel(ModelHandle):
    """Relations on {1..n} with union, composition, closure and transpose.

    Doubles as a domain structure: tests are subsets of the base set
    (state bitmasks), with image/preimage computed directly on edges.  The
    atom at position k is state k + 1, the mask 1 << k.
    elements() lists the relations by their n*n-bit row-major adjacency
    mask, so a relation's index in materialize (and rel_semiring) is its
    mask.
    """

    has_star = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("base set must be nonempty")
        self.n = n
        self.name = f"rel({n})"
        self._zero = Relation.empty(n)
        self._top = Relation.full(n)
        self._full_mask = (1 << n) - 1
        # the relation of the last preimage_positions query and its
        # predecessor position lists
        self._transposed_of: Optional[Relation] = None
        self._predecessors: list[list[int]] = []
        # every relation model is a Kleene algebra with a local domain
        self.flags = {
            "d1": True,
            "d2": True,
            "dloc": True,
            "cd1": True,
            "cd2": True,
            "cdloc": True,
            "integral": n == 1,
        }

    # -- semiring ops ---------------------------------------------------

    def add(self, x: Relation, y: Relation) -> Relation:
        return x.union(y)

    def mul(self, x: Relation, y: Relation) -> Relation:
        return x.compose(y)

    def star(self, x: Relation) -> Relation:
        return x.star()

    def conv(self, x: Relation) -> Relation:
        return x.transpose()

    def leq(self, x: Relation, y: Relation) -> bool:
        return x.leq(y)

    @property
    def zero(self) -> Relation:
        return self._zero

    @cached_property
    def one(self) -> Relation:
        return Relation.identity(self.n)

    @property
    def top(self) -> Relation:
        return self._top

    def elements(self):
        if self.n > 4:
            raise ValueError(f"rel({self.n}) has 2^{self.n * self.n} elements; enumerate only n <= 4")
        bits = self.n * self.n
        for mask in range(1 << bits):
            yield self._from_mask(mask)

    def size(self) -> int:
        return 1 << (self.n * self.n)

    def _from_mask(self, mask: int) -> Relation:
        full = self._full_mask
        return Relation(self.n, tuple((mask >> (i * self.n)) & full for i in range(self.n)))

    def sample(self, rng) -> Relation:
        return self._from_mask(rng.getrandbits(self.n * self.n))

    # -- the test algebra: subsets of the base set ----------------------

    @property
    def test_zero(self) -> int:
        return 0

    @property
    def test_one(self) -> int:
        return self._full_mask

    def test_members(self) -> list[int]:
        if self.n > 16:
            raise ValueError(f"2^{self.n} tests is too many to enumerate")
        return list(range(1 << self.n))

    def test_count(self) -> int:
        return 1 << self.n

    def sample_test(self, rng) -> int:
        return rng.randrange(1 << self.n)

    def test_atoms(self) -> list[int]:
        return [1 << i for i in range(self.n)]

    def atoms_below(self, p: int) -> list[int]:
        return [1 << k for k in _bit_positions(p)]

    def atom_positions(self, p: int) -> list[int]:
        return _bit_positions(p)

    def test_from_positions(self, ks: Iterable[int]) -> int:
        bits = bytearray(b"0" * self.n)
        for k in ks:
            bits[~k] = 49  # ord("1"); position k is the k-th digit from the right
        return int(bits, 2)

    def test_join(self, p: int, q: int) -> int:
        return p | q

    def test_meet(self, p: int, q: int) -> int:
        return p & q

    def test_compl(self, p: int) -> int:
        return p ^ self._full_mask

    def test_leq(self, p: int, q: int) -> bool:
        return p | q == q

    def test_name(self, p: int) -> str:
        return "{" + ",".join(str(i + 1) for i in _bit_positions(p)) + "}"

    def test_from_states(self, states: Iterable[int]) -> int:
        mask = 0
        for s in states:
            if not 1 <= s <= self.n:
                raise ValueError(f"state {s} outside 1..{self.n}")
            mask |= 1 << (s - 1)
        return mask

    def test_states(self, p: int) -> list[int]:
        return [i + 1 for i in _bit_positions(p)]

    def embed(self, p: int) -> Relation:
        """The subidentity relation {(i,i) : i in p}."""
        return Relation(self.n, tuple((1 << i) if p >> i & 1 else 0 for i in range(self.n)))

    # -- domain surface --------------------------------------------------

    def dom(self, a: Relation) -> int:
        return self.preimage(a, self._full_mask)

    def cod(self, a: Relation) -> int:
        return self.image(self._full_mask, a)

    def preimage(self, a: Relation, p: int) -> int:
        """States with at least one a-edge into p."""
        mask = 0
        for i, row in enumerate(a.rows):
            if row & p:
                mask |= 1 << i
        return mask

    def image(self, p: int, a: Relation) -> int:
        """States reachable from p by one a-edge."""
        mask = 0
        while p:
            low = p & -p
            mask |= a.rows[low.bit_length() - 1]
            p ^= low
        return mask

    def preimage_positions(self, a: Relation, k: int) -> list[int]:
        """The states with an a-edge into state k + 1, as positions; a shared list, not to be changed.

        The lists of all states are built in one walk of a's rows and kept
        for the last relation asked about.
        """
        if a is not self._transposed_of:
            pred: list[list[int]] = [[] for _ in a.rows]
            for i, row in enumerate(a.rows):
                for j in _bit_positions(row):
                    pred[j].append(i)
            self._transposed_of, self._predecessors = a, pred
        return self._predecessors[k]

    def image_positions(self, k: int, a: Relation) -> list[int]:
        """The states state k + 1 has an a-edge to, as positions: a walk of row k."""
        return _bit_positions(a.rows[k])

    def declared_tests(self):
        masks = self.test_members()
        members = [self.embed(p) for p in masks]
        return members, {self.embed(p): self.embed(self.test_compl(p)) for p in masks}

    def index_tables(self):
        """add and mul over elements(), where an element's index is its adjacency mask.

        add is a bitwise or; row i of x;y is the union of y's rows over x's
        successors of i.  All in int32, the dtype FiniteSemiring keeps, so
        that no table is copied and the 512 x 512 temporaries of rel(3)
        stay at 1 MB each.
        """
        n, size = self.n, self.size()
        masks = np.arange(size, dtype=np.int32)
        # rows[m, i] = successors of state i in relation m
        rows = np.empty((size, n), dtype=np.int32)
        for i in range(n):
            rows[:, i] = (masks >> (i * n)) & self._full_mask
        # ors[m, s] = union of rows[m, j] over j in subset s
        ors = np.zeros((size, 1 << n), dtype=np.int32)
        for s in range(1, 1 << n):
            low = s & -s
            ors[:, s] = ors[:, s ^ low] | rows[:, low.bit_length() - 1]
        mul = np.zeros((size, size), dtype=np.int32)
        for i in range(n):
            part = ors[:, rows[:, i]]
            part <<= i * n
            mul |= part.T
        return np.bitwise_or.outer(masks, masks), mul


def rel_model(n: int) -> RelModel:
    return RelModel(n)


@lru_cache(maxsize=None)
def _rel_materialized(n: int) -> MaterializedModel:
    if not 1 <= n <= 3:
        raise ValueError("rel_semiring materializes 2^(n^2) elements; supported for n <= 3")
    return materialize(RelModel(n))


def rel_semiring(n: int) -> FiniteSemiring:
    """All relations on {1..n} as one dense-table semiring (n <= 3): materialize(RelModel(n))."""
    return _rel_materialized(n).semiring


def rel_tests(n: int) -> TestAlgebra:
    """The full powerset test algebra of rel_semiring(n): subidentities."""
    return _rel_materialized(n).tests


# ---------------------------------------------------------------------------
# matrices over a star semiring


def _mat_add(base: FiniteSemiring, x, y):
    return tuple(tuple(int(base.add[a, b]) for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mat_mul(base: FiniteSemiring, x, y):
    q, r, c = len(x), len(y), len(y[0])
    out = []
    for i in range(q):
        row = []
        for j in range(c):
            acc = base.zero
            for k in range(r):
                acc = int(base.add[acc, base.mul[x[i][k], y[k][j]]])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matrix_star(base: FiniteSemiring, mat, split: Optional[int] = None):
    """Star of a square matrix by 2x2 block recursion.

    The matrix is partitioned into blocks [[a, b], [c, d]] with a square of
    side `split` (default 1); then with f = a + b d* c the star is
    [[f*, f* b d*], [d* c f*, d* + d* c f* b d*]], recursing into the blocks.
    Any split gives the same result; the default makes outputs deterministic.
    """
    if base.star is None:
        raise StarUnsupportedError(f"{base.name} has no star operation")
    mat = tuple(tuple(int(v) for v in row) for row in mat)
    q = len(mat)
    if any(len(row) != q for row in mat):
        raise ValueError("matrix star needs a square matrix")
    if q == 0:
        return ()
    if q == 1:
        return ((int(base.star[mat[0][0]]),),)
    s = 1 if split is None else int(split)
    if not 1 <= s < q:
        raise ValueError(f"split must be in 1..{q - 1}")

    a = tuple(row[:s] for row in mat[:s])
    b = tuple(row[s:] for row in mat[:s])
    c = tuple(row[:s] for row in mat[s:])
    d = tuple(row[s:] for row in mat[s:])

    ds = matrix_star(base, d)
    f = _mat_add(base, a, _mat_mul(base, b, _mat_mul(base, ds, c)))
    fs = matrix_star(base, f)
    top_r = _mat_mul(base, fs, _mat_mul(base, b, ds))
    bot_l = _mat_mul(base, ds, _mat_mul(base, c, fs))
    bot_r = _mat_add(base, ds, _mat_mul(base, bot_l, _mat_mul(base, b, ds)))
    return tuple(
        tuple(fs[i] + top_r[i]) for i in range(s)
    ) + tuple(tuple(bot_l[i - s] + bot_r[i - s]) for i in range(s, q))


class MatrixModel(ModelHandle):
    """q x q matrices over a finite base semiring, as a ModelHandle."""

    def __init__(self, base: FiniteSemiring, q: int):
        if q < 1:
            raise ValueError("need at least 1x1 matrices")
        self.base = base
        self.q = q
        self.name = f"mat({q},{base.name})"
        self.has_star = base.star is not None
        z, o = base.zero, base.one
        self._zero = tuple((z,) * q for _ in range(q))
        self._one = tuple(tuple(o if i == j else z for j in range(q)) for i in range(q))

    def add(self, x, y):
        return _mat_add(self.base, x, y)

    def mul(self, x, y):
        return _mat_mul(self.base, x, y)

    def star(self, x):
        return matrix_star(self.base, x)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def top(self):
        t = self.base.top()
        if t is None:
            return None
        return tuple((t,) * self.q for _ in range(self.q))

    def elements(self):
        cells = self.q * self.q
        if self.base.n ** cells > 1 << 20:
            raise ValueError(f"{self.name} is too large to enumerate")
        for combo in itertools.product(range(self.base.n), repeat=cells):
            yield tuple(combo[i * self.q : (i + 1) * self.q] for i in range(self.q))

    def size(self) -> int:
        return self.base.n ** (self.q * self.q)

    def sample(self, rng):
        return tuple(
            tuple(rng.randrange(self.base.n) for _ in range(self.q)) for _ in range(self.q)
        )

    def el_name(self, x) -> str:
        return "[" + "; ".join(" ".join(self.base.element_name(v) for v in row) for row in x) + "]"


def matrix_semiring(base: FiniteSemiring, q: int) -> MatrixModel:
    return MatrixModel(base, q)


# ---------------------------------------------------------------------------
# numeric models

# the tropical and max-plus models sample their finite values below this
_SAMPLE_BOUND = 10**6


class _NumberModel(ModelHandle):
    """Naturals with one infinite zero; mul = +, one is 0.

    Subclasses give the zero and add (min or max).  Sampled values are the
    zero one time in ten, else a natural below _SAMPLE_BOUND.
    """

    def mul(self, x, y):
        return x + y

    @property
    def one(self):
        return 0

    def sample(self, rng):
        if rng.random() < 0.1:
            return self.zero
        return rng.randrange(_SAMPLE_BOUND)

    def declared_tests(self):
        return [self.zero, 0], {self.zero: 0, 0: self.zero}


class TropicalModel(_NumberModel):
    """Naturals with infinity; add = min, mul = +, star constantly 0.

    The natural order is reversed numeric order: smaller costs are larger
    in the semilattice, infinity is the zero.
    """

    name = "tropical"
    has_star = True
    zero = math.inf
    add = staticmethod(min)

    def __init__(self):
        self.flags = {"d1": True, "d2": True, "dloc": True}

    def star(self, x):
        return 0

    @property
    def top(self):
        return 0

    # closed-form domain: everything except the zero is total
    def dom(self, a):
        return math.inf if a == math.inf else 0

    def cod(self, a):
        return self.dom(a)


class MaxPlusModel(_NumberModel):
    """Naturals with minus infinity; add = max, mul = +; no star exists."""

    name = "maxplus"
    zero = -math.inf
    add = staticmethod(max)

    def star(self, x):
        raise StarUnsupportedError(
            "max-plus has no star: the powers of any positive element are unbounded"
        )


def tropical_model() -> TropicalModel:
    return TropicalModel()


def maxplus_model() -> MaxPlusModel:
    return MaxPlusModel()


# ---------------------------------------------------------------------------
# bounded language and path models


class _SubsetModel(ModelHandle):
    """Subsets of a finite universe under union; star is the stabilized
    union of powers.  Subclasses set universe and give mul and one."""

    has_star = True

    def add(self, x: frozenset, y: frozenset) -> frozenset:
        return x | y

    def star(self, x: frozenset) -> frozenset:
        acc = self.one
        while True:
            nxt = acc | self.mul(acc, x)
            if nxt == acc:
                return acc
            acc = nxt

    def leq(self, x, y) -> bool:
        return x <= y

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return frozenset(self.universe)

    def elements(self):
        if len(self.universe) > 16:
            raise ValueError(f"{self.name} has 2^{len(self.universe)} elements; too many")
        for combo in itertools.chain.from_iterable(
            itertools.combinations(self.universe, k) for k in range(len(self.universe) + 1)
        ):
            yield frozenset(combo)

    def size(self) -> int:
        return 1 << len(self.universe)

    def sample(self, rng) -> frozenset:
        return frozenset(w for w in self.universe if rng.random() < 0.5)


class LanguageModel(_SubsetModel):
    """Sets of words of length <= maxlen; concatenation discards overlong words.

    Truncation is a quotient of the full language semiring, so the finite
    structure still satisfies all i-semiring laws; the true unbounded star
    is not represented, star here is the stabilized union of truncated powers.
    """

    def __init__(self, alphabet: Sequence[str], maxlen: int):
        letters = tuple(str(c) for c in alphabet)
        if any(len(c) != 1 for c in letters):
            raise ValueError("alphabet must consist of single characters")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        if maxlen < 0:
            raise ValueError("maxlen must be >= 0")
        self.alphabet = letters
        self.maxlen = maxlen
        self.name = f"lang({''.join(letters)},{maxlen})"
        self.words = self.universe = tuple(
            "".join(w)
            for k in range(maxlen + 1)
            for w in itertools.product(letters, repeat=k)
        )

    def mul(self, x: frozenset, y: frozenset) -> frozenset:
        return frozenset(u + v for u in x for v in y if len(u) + len(v) <= self.maxlen)

    @property
    def one(self) -> frozenset:
        return frozenset({""})

    def el_name(self, x) -> str:
        return "{" + ",".join("eps" if w == "" else w for w in sorted(x)) + "}"

    def declared_tests(self):
        # the only subidentities are the empty language and {epsilon}
        members = [self.zero, self.one]
        return members, {self.zero: self.one, self.one: self.zero}


def bounded_language_model(alphabet, maxlen: int) -> LanguageModel:
    return LanguageModel(alphabet, maxlen)


class PathModel(_SubsetModel):
    """Sets of vertex sequences of length <= maxlen under the fusion product.

    Fusing s.x with y.t yields s.x.t when x = y and nothing otherwise; the
    empty sequence fuses only with itself.  The unit is all single vertices
    together with the empty sequence.
    """

    def __init__(self, vertices: Sequence[str], maxlen: int):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("vertices must be distinct")
        if not vs:
            raise ValueError("need at least one vertex")
        if maxlen < 1:
            raise ValueError("maxlen must allow single-vertex paths")
        self.vertices = vs
        self.maxlen = maxlen
        self.name = f"path({''.join(vs)},{maxlen})"
        self.paths = self.universe = tuple(
            p for k in range(maxlen + 1) for p in itertools.product(vs, repeat=k)
        )

    def _fuse(self, s: tuple, t: tuple) -> Optional[tuple]:
        if not s and not t:
            return ()
        if not s or not t:
            return None
        if s[-1] != t[0]:
            return None
        out = s + t[1:]
        return out if len(out) <= self.maxlen else None

    def mul(self, x: frozenset, y: frozenset) -> frozenset:
        acc = set()
        for s in x:
            for t in y:
                f = self._fuse(s, t)
                if f is not None:
                    acc.add(f)
        return frozenset(acc)

    @property
    def one(self) -> frozenset:
        return frozenset({()} | {(v,) for v in self.vertices})

    def el_name(self, x) -> str:
        return "{" + ",".join("eps" if not p else ".".join(p) for p in sorted(x)) + "}"

    def declared_tests(self):
        # subidentities: sets of single vertices, optionally with eps
        units = sorted(self.one, key=lambda p: (len(p), p))
        members = [frozenset(c) for k in range(len(units) + 1) for c in itertools.combinations(units, k)]
        compl = {m: self.one - m for m in members}
        return members, compl


def bounded_path_model(vertices, maxlen: int) -> PathModel:
    return PathModel(vertices, maxlen)


# ---------------------------------------------------------------------------
# predicate transformers


class TransformerModel(ModelHandle):
    """The maps p -> (a : p) induced by a domain structure's elements.

    Transformers are stored as tuples over test positions; join is
    pointwise, composition is map composition, star of a transformer is
    the transformer of a star of any source element inducing it.  The
    same maps, one row each, make up the array `table`, from which
    index_tables builds the dense tables.
    """

    has_star = True

    def __init__(self, D):
        if not getattr(D, "has_star", False):
            raise StarUnsupportedError("predicate transformers need a star on the source")
        self.D = D
        self.name = f"transformers({getattr(D, 'name', '')})"
        members = list(D.test_members())
        self.members = members
        pos = {p: i for i, p in enumerate(members)}
        self._pos = pos

        maps: list[tuple[int, ...]] = []
        source: list = []
        seen: dict[tuple[int, ...], int] = {}
        for a in D.elements():
            f = tuple(pos[D.preimage(a, p)] for p in members)
            if f not in seen:
                seen[f] = len(maps)
                maps.append(f)
                source.append(a)
        self.maps = tuple(maps)
        self.source = tuple(source)
        self._index = seen

        t = len(members)
        self._joinpos = tuple(
            tuple(pos[D.test_join(members[i], members[j])] for j in range(t)) for i in range(t)
        )
        self.table = np.array(maps, dtype=np.min_scalar_type(t - 1)).reshape(len(maps), t)

    def transformer_of(self, a) -> tuple[int, ...]:
        pos = self._pos
        return tuple(pos[self.D.preimage(a, p)] for p in self.members)

    def apply(self, f: tuple[int, ...], p: int) -> int:
        return self.members[f[self._pos[p]]]

    def add(self, f, g):
        jp = self._joinpos
        return tuple(jp[a][b] for a, b in zip(f, g))

    def mul(self, f, g):
        return tuple(f[i] for i in g)

    def star(self, f):
        a = self.source[self._index[f]]
        return self.transformer_of(self.D.star(a))

    @property
    def zero(self):
        return self.transformer_of(self.D.zero)

    @property
    def one(self):
        return self.transformer_of(self.D.one)

    def elements(self):
        return iter(self.maps)

    def size(self) -> int:
        return len(self.maps)

    def sample(self, rng):
        return self.maps[rng.randrange(len(self.maps))]

    def el_name(self, f) -> str:
        if f in self._index:
            return f"f[{self.D.el_name(self.source[self._index[f]])}]"
        return "f" + str(f)

    def index_tables(self):
        """add[x, y] is the index of the row joinpos[F[x], F[y]] and mul[x, y] that of F[x][F[y]].

        A map is keyed by its digits in base t (the number of tests), and a
        row goes back to its index through the sorted keys.  The rows are
        built for blocks of x of at most _CHUNK digits; past t = 15 the keys
        would overflow int64 and the tables are left to add and mul.
        """
        F = self.table
        m, t = F.shape
        if t > 15:
            return None
        weights = t ** np.arange(t, dtype=np.int64)
        keys = F @ weights
        order = np.argsort(keys)
        ranked = keys[order]

        def index(rows):
            k = rows @ weights
            found = order[np.minimum(np.searchsorted(ranked, k), m - 1)]
            if not np.array_equal(keys[found], k):
                raise ValueError(f"{self.name} is not closed under + and ·")
            return found

        join = np.array(self._joinpos, dtype=F.dtype).ravel()
        add, mul = np.empty((m, m), dtype=np.int32), np.empty((m, m), dtype=np.int32)
        step = max(1, _CHUNK // (m * t))
        for lo in range(0, m, step):
            Fx = F[lo : lo + step]
            # joinpos[Fx[i, k], F[j, k]] by one flat take, Fx[i, F[j, k]] by a take along the rows
            add[lo : lo + step] = index(join.take(np.add(np.multiply(Fx[:, None], t, dtype=np.intp), F)))
            mul[lo : lo + step] = index(Fx.take(F, axis=1))
        return add, mul

    def declared_tests(self):
        D = self.D
        members = [self.transformer_of(D.embed(p)) for p in self.members]
        compl = {
            self.transformer_of(D.embed(p)): self.transformer_of(D.embed(D.test_compl(p)))
            for p in self.members
        }
        return members, compl

    def as_semiring(self) -> tuple[FiniteSemiring, TestAlgebra, tuple[int, ...]]:
        """Materialize to dense tables; returns (semiring, tests, source map)."""
        mat = materialize(self)
        src = tuple(self.source[i] for i in range(len(self.maps)))
        return mat.semiring, mat.tests, src


def predicate_transformer_model(D) -> TransformerModel:
    return TransformerModel(D)


# ---------------------------------------------------------------------------
# materialization and sampled checking


@dataclass
class MaterializedModel:
    semiring: FiniteSemiring
    tests: Optional[TestAlgebra]
    to_index: dict
    from_index: list


# the most elements materialize builds tables for
_MATERIALIZE_BUDGET = 4096


def materialize(handle: ModelHandle) -> MaterializedModel:
    """Dense-table snapshot of a finite handle, for exhaustive checking."""
    size = handle.size()
    if size is None:
        raise ValueError(f"{handle.name} is infinite; cannot materialize")
    if size > _MATERIALIZE_BUDGET:
        raise ValueError(f"{handle.name} has {size} elements, above the budget of {_MATERIALIZE_BUDGET}")
    elems = list(handle.elements())
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)

    tables = handle.index_tables()
    if tables is None:
        add = [[index[handle.add(x, y)] for y in elems] for x in elems]
        mul = [[index[handle.mul(x, y)] for y in elems] for x in elems]
    else:
        add, mul = tables
    star = None
    if handle.has_star:
        star = [index[handle.star(x)] for x in elems]
    conv = None
    if hasattr(handle, "conv"):
        conv = [index[handle.conv(x)] for x in elems]

    names = []
    used = set()
    for e in elems:
        nm = handle.el_name(e)
        if nm in used:
            nm = f"{nm}#{len(used)}"
        used.add(nm)
        names.append(nm)

    S = FiniteSemiring(
        names,
        add,
        mul,
        zero=index[handle.zero],
        one=index[handle.one],
        star=star,
        conv=conv,
        name=handle.name,
    )
    tests = None
    declared = handle.declared_tests()
    if declared is not None:
        members, compl = declared
        tests = TestAlgebra(S, [index[m] for m in members], {index[k]: index[v] for k, v in compl.items()})
    return MaterializedModel(S, tests, index, elems)


def check_sampled_laws(handle: ModelHandle, samples: int = 1000, rng=None, include_star: bool = False) -> list[LawReport]:
    """The i-semiring laws (and with include_star the two star unfoldings).

    Exhaustive when a law has at most 2^16 instances and the model lists
    its elements, else sampled (see domain._instances): always so on
    infinite models.
    """
    laws = [law for law in ISEMIRING_LAWS if isinstance(law, Law)]
    if include_star and handle.has_star:
        laws += KLEENE_LAWS[:2]  # star-left-unfold, star-right-unfold
    return run_laws(laws, handle, 1 << 16, samples, rng)
