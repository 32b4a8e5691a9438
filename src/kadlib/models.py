"""Relations, the workhorse model, and the interface every model shares.

Finite binary relations with union, composition, closure and converse
(Relation), and RelModel, the relations on {1..n} as a model with domain,
whose tests are state sets: what reach, termination and hoare run on.
rel_semiring and rel_tests are rel(n) as dense tables.  The five printed
semirings, matrices, the number, language and path models, predicate
transformers and materialize are in zoo, with the table layer; they are
read here under their old names on first use, so that a module that imports
this one compiles none of them.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .laws import TABLE_NAMES, _ISEMIRING_NAMES, _Record, _STAR_AXIOMS, _TEST_NAMES, _with_atomic, table_getattr
from .reach import _grow

__all__ = [
    "StarUnsupportedError", "ModelHandle", "Relation", "RelModel", "rel_model", "rel_semiring", "rel_tests",
    *(name for name, home in TABLE_NAMES.items() if home == "zoo"),
]
__getattr__ = table_getattr(__name__)


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
    test_from_positions, and preimage_rows(a) and image_rows(a), whose row
    k holds the atoms below a:t and t:a for atom t at k); DomainStructure
    has the same names over its tables, so one checker takes either.  A
    finite model may offer symmetries(), candidate automorphisms for materialize.
    laws names the laws known to hold on every instance (DomainStructure's
    surface too): none here, the ones that hold by construction in a subclass;
    the rows decide a:p (p:a) only where it names atomic-preimage (atomic-image).
    """

    name = "model"
    has_star = False
    laws = frozenset()

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
        """(add, mul, star, conv) over the order of elements(), or None to build them all from the operations.

        add and mul are the tables; star and conv are the columns of those
        operations where the model has them from its tables, else None, and
        materialize then calls star and conv on each element.
        """
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _power_sums(add, mul, one: int):
    """Every element's sum of powers 1 + x + x^2 + ..., from the add and mul tables: its (1 + x)^(2^k)
    for the first k at which squaring changes no element.

    Where + is a join and · distributes over it, (1 + x)^(2^k) is the sum of
    the powers x^i for i <= 2^k, so each element's value ascends until it
    stays, and in a carrier of n elements within n squarings; where one
    does not, the tables are not a semiring's, and this raises.
    """
    import numpy as np

    s = add[one]
    for _ in range(len(s)):
        nxt = mul[s, s]
        if np.array_equal(nxt, s):
            return s
        s = nxt
    raise ValueError("the powers of some element do not settle: the tables are not those of an idempotent semiring")


# ---------------------------------------------------------------------------
# finite binary relations


# the digits of bin() as the bytes 0 and 1, which itertools.compress reads as flags
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first, in time linear in its length.

    Up to 32 bits are stripped one at a time from the top, each strip a
    pass over mask; more are read off its binary digits, lowest first, as
    one byte per bit, so relations and tests never load numpy.
    """
    if mask.bit_count() > 32:
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return list(itertools.compress(range(len(bits)), bits))
    out = []
    while mask:
        k = mask.bit_length() - 1
        out.append(k)
        mask ^= 1 << k
    out.reverse()
    return out


def _ascending(edges) -> bool:
    """Whether a sequence of (i, j) pairs is strictly ascending; False where its pairs do not compare."""
    try:
        return all(map(operator.lt, edges, itertools.islice(edges, 1, None)))
    except (TypeError, ValueError):
        return False


class Relation(_Record):
    """Binary relation on {1..n}, stored as each state's successor positions.

    Positions are 0-based and each row is ascending without duplicates, so
    equal relations are equal values; the public pair interface is 1-based.
    """

    _fields = ("n", "succ")
    # predecessors, filled on first read or by _relations; a plain slot, as cached_property locks on its first read
    _pred: Optional[Sequence] = None
    # the text of str, kept on the relations that _relations shares
    _text: Optional[str] = None

    def __init__(self, n: int, succ: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, succ=succ)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows: list[list[int]] = [[] for _ in range(n)]
        for i, j in pairs:
            if not all(hasattr(s, "__index__") and type(s) is not bool for s in (i, j)):
                raise ValueError(f"pair ({i!r},{j!r}) has a state that is not an integer")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i},{j}) outside 1..{n}")
            rows[i - 1].append(j - 1)
        return cls._from_rows(n, rows, pairs if isinstance(pairs, (list, tuple)) else None)

    @classmethod
    def _from_rows(cls, n: int, rows: list[list[int]], edges=None) -> "Relation":
        # rows[i] lists positions in 0..n-1 in any order, repeats allowed; a row of
        # at most one entry is already ascending and without repeats, and so is
        # every row where edges, the (i, j) pairs the rows were read from in
        # order, are strictly ascending: one pairwise compare in C tells
        if edges is not None and _ascending(edges):
            return cls(n, tuple(map(tuple, rows)))
        return cls(n, tuple(tuple(row) if len(row) < 2 else tuple(sorted(set(row))) for row in rows))

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, ((),) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "Relation":
        return cls(n, (tuple(range(n)),) * n)

    def pairs(self) -> frozenset:
        return frozenset((i + 1, j + 1) for i, row in enumerate(self.succ) for j in row)

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n, tuple(tuple(sorted({*a, *b})) for a, b in zip(self.succ, other.succ)))

    def compose(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n, tuple(tuple(sorted({j for k in row for j in other.succ[k]})) for row in self.succ))

    def transpose(self) -> "Relation":
        # row j of the transpose is the set of j's predecessors, built ascending
        return Relation(self.n, tuple(map(tuple, self.predecessors)))

    @property
    def predecessors(self) -> Sequence[Sequence[int]]:
        """The states with an edge into each state, as ascending positions, not to be changed: the converse's rows on
        the relations _relations shares, else from one walk of succ."""
        if self._pred is None:
            pred: list[list[int]] = [[] for _ in self.succ]
            for i, row in enumerate(self.succ):
                for j in row:
                    pred[j].append(i)
            object.__setattr__(self, "_pred", pred)
        return self._pred

    def star(self) -> "Relation":
        """Reflexive-transitive closure: row i is what reach's counting worklist grows from i."""
        n, succ = self.n, self.succ
        return Relation(n, tuple(tuple(sorted(_grow([i], succ.__getitem__, [1] * n))) for i in range(n)))

    def leq(self, other: "Relation") -> bool:
        self._check(other)
        return all(set(a).issubset(b) for a, b in zip(self.succ, other.succ))

    def _check(self, other: "Relation"):
        if self.n != other.n:
            raise ValueError("relations over different base sets")

    def __str__(self):
        if self._text is not None:
            return self._text
        # row-major order is sorted order
        return "{" + ",".join(f"({i + 1},{j + 1})" for i, row in enumerate(self.succ) for j in row) + "}"


class RelModel(ModelHandle):
    """Relations on {1..n} with union, composition, closure and transpose.

    Doubles as a domain structure: tests are subsets of the base set
    (state bitmasks), with image/preimage read off each relation's
    successor and predecessor lists.  The atom at position k is state
    k + 1, the mask 1 << k.  elements() lists the relations by their
    n*n-bit row-major adjacency mask, so a relation's index in materialize
    (and rel_semiring) is its mask.
    """

    has_star = True
    # every relation model is a Kleene algebra with a local domain and codomain, whose tests are
    # all the subsets of its states
    laws = _with_atomic({
        *_ISEMIRING_NAMES, *_STAR_AXIOMS, *_TEST_NAMES, "dom-additive", "cod-additive", "atomic-tests",
        "d1", "d2", "dloc", "cd1", "cd2", "cdloc",
    })

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("base set must be nonempty")
        self.n = n
        self.name = f"rel({n})"
        self._zero = Relation.empty(n)
        self._top = Relation.full(n)
        self._full_mask = (1 << n) - 1

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
        yield from _relations(self.n) if self.n <= 3 else map(self._from_mask, range(self.size()))

    def size(self) -> int:
        return 1 << (self.n * self.n)

    def join_irreducibles(self) -> list[Relation]:
        """The single pairs, in the order of their masks."""
        return [self._from_mask(1 << k) for k in range(self.n * self.n)]

    def _from_mask(self, mask: int) -> Relation:
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for k in _bit_positions(mask):
            i, j = divmod(k, self.n)
            rows[i].append(j)
        return Relation(self.n, tuple(map(tuple, rows)))

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

    def atoms_below(self, p: int) -> list[int]:
        return [1 << k for k in _bit_positions(p)]

    def atom_positions(self, p: int) -> list[int]:
        if p < 0 or p.bit_length() > self.n:  # O(1), where p >> n would copy p
            raise ValueError(f"test mask {p} has states outside 1..{self.n}")
        return _bit_positions(p)

    def test_from_positions(self, ks: Iterable[int]) -> int:
        """The test of the states at positions ks (repeats allowed), in time linear in n and the number of ks.

        Or-ing 1 << k into a mask copies the mask, so past a machine word the
        digits are set in one buffer of n characters, read as one int.
        """
        if self.n <= 64:
            mask = 0
            for k in ks:
                mask |= 1 << k
            return mask
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
        members = set(_bit_positions(p))
        return Relation(self.n, tuple((i,) if i in members else () for i in range(self.n)))

    # -- domain surface --------------------------------------------------

    def dom(self, a: Relation) -> int:
        return self.preimage(a, self._full_mask)

    def cod(self, a: Relation) -> int:
        return self.image(self._full_mask, a)

    def preimage(self, a: Relation, p: int) -> int:
        """States with at least one a-edge into p."""
        pred = self.preimage_rows(a)
        return self.test_from_positions(i for k in self.atom_positions(p) for i in pred[k])

    def image(self, p: int, a: Relation) -> int:
        """States reachable from p by one a-edge."""
        succ = self.image_rows(a)
        return self.test_from_positions(j for k in self.atom_positions(p) for j in succ[k])

    def preimage_rows(self, a: Relation) -> Sequence[Sequence[int]]:
        """Row k: the states with an a-edge into state k + 1, as ascending positions; a's own lists, not to be changed."""
        return self._own(a).predecessors

    def image_rows(self, a: Relation) -> tuple[tuple[int, ...], ...]:
        """Row k: the states state k + 1 has an a-edge to, as ascending positions; a's own rows."""
        return self._own(a).succ

    def _own(self, a: Relation) -> Relation:
        """a, refused where it is a relation over another base set."""
        if a.n != self.n:
            raise ValueError(f"relation over 1..{a.n} given to {self.name}")
        return a

    def intransitive_step(self, a: Relation) -> Optional[int]:
        """A test {j,k} for the first i -> j -> k (least i, then j, then k) without i -> k, or None."""
        succ = a.succ
        for row in succ:
            have = set(row)
            for j in row:
                for k in succ[j]:
                    if k not in have:
                        return (1 << j) | (1 << k)
        return None

    def declared_tests(self):
        masks = self.test_members()
        members = [self.embed(p) for p in masks]
        return members, {self.embed(p): self.embed(self.test_compl(p)) for p in masks}

    def index_tables(self):
        """add, mul, star and conv over elements(), where an element's index is its adjacency mask.

        add is a bitwise or; row i of x;y is the union of y's rows over x's
        successors of i.  The star, the reflexive-transitive closure, is the
        sum of the powers (_power_sums); the converse moves the bit of each
        pair (i, j) to that of (j, i).  All in int32, the dtype
        FiniteSemiring keeps, so that no table is copied and the 512 x 512
        temporaries of rel(3) stay at 1 MB each.
        """
        import numpy as np

        n, size = self.n, self.size()
        masks = np.arange(size, dtype=np.int32)
        # rows[m, i] = successors of state i in relation m
        rows = np.empty((size, n), dtype=np.int32)
        for i in range(n):
            rows[:, i] = (masks >> (i * n)) & self._full_mask
        # ors[s, m] = union of rows[m, j] over j in subset s
        ors = np.zeros((1 << n, size), dtype=np.int32)
        for s in range(1, 1 << n):
            low = s & -s
            np.bitwise_or(ors[s ^ low], rows[:, low.bit_length() - 1], out=ors[s])
        # row i of x;y is ors[rows[x, i], y]: one row gather per state, into one reused buffer
        mul, part = ors[rows[:, 0]], None
        for i in range(1, n):
            part = ors.take(rows[:, i], axis=0, out=part)
            part <<= i * n
            mul |= part
        add, identity = np.bitwise_or.outer(masks, masks), sum(1 << (i * n + i) for i in range(n))
        return add, mul, _power_sums(add, mul, identity), self._moved_pairs(lambda i, j: (j, i))

    def symmetries(self):
        """The permutations of the masks that swapping states 1 and 2, and the cycle 1 -> 2 -> ... -> n -> 1,
        induce (one for n = 2, none for n = 1); the two generate every permutation of the states."""
        swap, cycle = (1, 0, *range(2, self.n)), (*range(1, self.n), 0)
        return [self._moved_pairs(lambda i, j, s=s: (s[i], s[j])) for s in dict.fromkeys((swap, cycle)) if self.n > 1]

    def _moved_pairs(self, f):
        """Each mask with the bit of pair (i, j) moved to that of pair f(i, j), over elements()."""
        import numpy as np

        n, masks = self.n, np.arange(self.size(), dtype=np.int32)
        out = np.zeros_like(masks)
        for i, j in itertools.product(range(n), repeat=2):
            a, b = f(i, j)
            out |= ((masks >> (i * n + j)) & 1) << (a * n + b)
        return out


def rel_model(n: int) -> RelModel:
    return RelModel(n)


@lru_cache(maxsize=None)
def _relations(n: int) -> tuple[Relation, ...]:
    """The relations on {1..n} in the order of their masks, shared by every RelModel(n) (n <= 3), built in one pass over
    the masks: rows from the n-bit row masks, text from that of the mask with its top bit, the last pair, cleared, and
    predecessors the rows of the converse, whose mask has the bit of (j, i) for each pair (i, j)."""
    full, pairs = (1 << n) - 1, [f",({i + 1},{j + 1})" for i in range(n) for j in range(n)]
    rows, texts, out, converse = [tuple(_bit_positions(r)) for r in range(full + 1)], [""], [], [0]
    # the bit of pair (j, i) for the bit of each pair (i, j)
    moved = [1 << (j * n + i) for i in range(n) for j in range(n)]
    for m in range(1 << (n * n)):
        if m:  # texts[m] is mask m's pairs in row-major order, each after a comma; converse[m] its converse's mask
            k = m.bit_length() - 1
            texts.append(texts[m ^ (1 << k)] + pairs[k])
            converse.append(converse[m ^ (1 << k)] | moved[k])
        r = Relation(n, tuple(rows[(m >> (i * n)) & full] for i in range(n)))
        object.__setattr__(r, "_text", "{" + texts[m][1:] + "}")
        out.append(r)
    for r, c in zip(out, converse):
        object.__setattr__(r, "_pred", out[c].succ)
    return tuple(out)


@lru_cache(maxsize=None)
def _rel_materialized(n: int) -> MaterializedModel:
    from .zoo import materialize

    if not 1 <= n <= 3:
        raise ValueError("rel_semiring materializes 2^(n^2) elements; supported for n <= 3")
    return materialize(RelModel(n))


def rel_semiring(n: int) -> FiniteSemiring:
    """All relations on {1..n} as one dense-table semiring (n <= 3): materialize(RelModel(n))."""
    return _rel_materialized(n).semiring


def rel_tests(n: int) -> TestAlgebra:
    """The full powerset test algebra of rel_semiring(n): subidentities."""
    return _rel_materialized(n).tests
