"""The table models: the five printed semirings, matrices over a star
semiring, the tropical and max-plus number models, bounded language and path
models, an algebra of predicate transformers built from a domain structure,
and materialize.

Finite models can be materialized into dense-table FiniteSemiring values
for exhaustive law checking; infinite ones are checked by sampling.  The
relations that reach, termination and hoare run on stay in models, which
reads every name here on first use, so that those commands never load the
table layer (algebra, domain and this module).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Optional, Sequence

from .algebra import _CHUNK, _row_blocks, FiniteSemiring, TestAlgebra, np
from .domain import run_laws
from .laws import ISEMIRING_LAWS, KLEENE_LAWS, Law, LawReport, _Record, _require_tests
from .models import ModelHandle, StarUnsupportedError, _power_sums

__all__ = [
    "conway_model", "conway_names", "tropical_model", "maxplus_model", "bounded_language_model", "bounded_path_model",
    "matrix_semiring", "matrix_star", "predicate_transformer_model", "materialize", "MaterializedModel", "check_sampled_laws",
]


# ---------------------------------------------------------------------------
# the five printed finite semirings


_CONWAY = {
    # two-element Boolean semiring
    "A2": dict(
        carrier=("0", "1"),
        add=[[0, 1], [1, 1]],
        mul=[[0, 0], [0, 1]],
        star=[1, 1],
        zero=0,
        one=1,
    ),
    # three elements ordered 0 <= 1 <= a; a absorbs under +
    "A3_1": dict(
        carrier=("0", "a", "1"),
        add=[[0, 1, 2], [1, 1, 1], [2, 1, 2]],
        mul=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        star=[2, 1, 2],
        zero=0,
        one=2,
    ),
    # chain 0 <= a <= 1 with a nilpotent: a.a = 0
    "A3_2": dict(
        carrier=("0", "a", "1"),
        add=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        mul=[[0, 0, 0], [0, 0, 1], [0, 1, 2]],
        star=[2, 2, 2],
        zero=0,
        one=2,
    ),
    # like A3_2 except a.a = a
    "A3_3": dict(
        carrier=("0", "a", "1"),
        add=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        mul=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        star=[2, 2, 2],
        zero=0,
        one=2,
    ),
    # chain 0 <= a <= 1 <= b with top b and a.a = 0
    "A4_1": dict(
        carrier=("0", "a", "1", "b"),
        add=[[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
        mul=[[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]],
        star=[2, 2, 2, 3],
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
    return FiniteSemiring(**_CONWAY[key], name=key)


# ---------------------------------------------------------------------------
# matrices over a star semiring


def _mat_add(base: FiniteSemiring, x, y):
    return tuple(tuple(int(base.add[a, b]) for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mat_mul(base: FiniteSemiring, x, y):
    def dot(row, col):
        return reduce(lambda acc, ab: int(base.add[acc, base.mul[ab]]), zip(row, col), base.zero)

    return tuple(tuple(dot(row, col) for col in zip(*y)) for row in x)


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


class TropicalModel(_NumberModel):
    """Naturals with infinity; add = min, mul = +, star constantly 0.

    The natural order is reversed numeric order: smaller costs are larger
    in the semilattice, infinity is the zero.
    """

    name = "tropical"
    has_star = True
    laws = frozenset({"d1", "d2", "dloc"})
    zero = math.inf
    add = staticmethod(min)

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
        if not s or not t:
            return () if not s and not t else None
        out = s + t[1:]
        return out if s[-1] == t[0] and len(out) <= self.maxlen else None

    def mul(self, x: frozenset, y: frozenset) -> frozenset:
        return frozenset(f for s in x for t in y if (f := self._fuse(s, t)) is not None)

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


# The source laws under which, beyond atomic-preimage, a star's map is the sum of
# the powers of the element's map: then a*:p is the least X >= p with a:X <= X, and
# for an additive map that is p + a:p + a:(a:p) + ... on a finite lattice.  a*:p is such
# an X: 1 <= a* and a a* <= a* (star-left-unfold), so p = dom(p) <= dom(a* p) (d1,
# d2, dom monotone by dom-additive) and a:(a*:p) = dom(a dom(a* p)) <= dom(a a* p)
# <= dom(a* p) (dloc).  It is the least: from dom(a X) <= X, a X <= dom(a X) a X
# <= X a (d1, X <= 1), so X + a (X a*) <= X (1 + a a*) <= X a*, star-left-induction
# gives a* X <= X a*, and with p <= X, dom(a* p) <= dom(X a*) <= X (d2).
_STAR_LAWS = frozenset({"atomic-preimage", "d1", "dloc", "star-left-unfold", "star-left-induction"})


class TransformerModel(ModelHandle):
    """The maps p -> (a : p) = dom(a p) induced by a domain structure's elements.

    Transformers are tuples over test positions, one row each of the array
    `table`; join is pointwise, composition is map composition, and star
    is the transformer of a star of a source element inducing the map.
    Where the source's laws hold atomic-preimage and the t tests over
    m atoms give t^m <= _CHUNK keys, the model is atom-keyed: a map is
    computed from the preimages of the atoms alone and keyed by its values
    there, in base t.  Where they hold _STAR_LAWS too, index_tables gives
    the star column as the sums of powers.  Elsewhere a map is computed at
    every test, index_tables returns None and the name says "not
    atom-keyed".
    """

    has_star = True

    def __init__(self, D):
        _require_tests(D, ["predicate_transformer_model"])
        if not D.has_star:
            raise StarUnsupportedError("predicate transformers need a star on the source")
        self.D = D
        members = self.members = list(D.test_members())
        pos = self._pos = {p: i for i, p in enumerate(members)}
        t = len(members)
        self._joinpos = tuple(tuple(pos[D.test_join(p, q)] for q in members) for p in members)
        # the column of each atom where atom-keyed, else None
        self._atoms = None
        if "atomic-preimage" in D.laws:
            m = len(D.atom_positions(D.test_one))
            if t**m <= _CHUNK:
                self._atoms = [pos[D.test_from_positions([k])] for k in range(m)]
        self._power_star = self._atoms is not None and _STAR_LAWS <= D.laws
        self.name = f"transformers({D.name}{', not atom-keyed' if self._atoms is None else ''})"

        first: dict[tuple[int, ...], object] = {}
        for a in D.elements():
            first.setdefault(self._values(a), a)
        self.source = tuple(first.values())
        F = np.array(list(first), dtype=np.min_scalar_type(t - 1)).reshape(len(first), -1)
        self._by_values = {v: i for i, v in enumerate(first)}
        if self._atoms is not None:
            # a key is the values on the atoms as base-t digits; an unknown key reads len(F), one past the last map
            self._key_of = np.full(t ** len(self._atoms), len(F), dtype=np.int32)
            self._key_of[np.ravel_multi_index(F.T, (t,) * len(self._atoms))] = np.arange(len(F))
            J, cols = np.array(self._joinpos, dtype=F.dtype), []
            for p in members:  # p maps to the join of the values of the atoms below it
                col = np.full(len(F), pos[D.test_zero], dtype=F.dtype)
                for k in D.atom_positions(p):
                    col = J[col, F[:, k]]
                cols.append(col)
            F = np.stack(cols, axis=1)
        self.table = F
        self.maps = tuple(map(tuple, F.tolist()))
        self._index = {f: i for i, f in enumerate(self.maps)}

    def _values(self, a) -> tuple[int, ...]:
        """a's transformer on the atoms where the model is atom-keyed, else at every test."""
        D, pos = self.D, self._pos
        if self._atoms is None:
            return tuple(pos[D.preimage(a, p)] for p in self.members)
        return tuple(pos[D.test_from_positions(row)] for row in D.preimage_rows(a))

    def transformer_of(self, a) -> tuple[int, ...]:
        return self.maps[self._by_values[self._values(a)]]

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
        """add[x, y] is the index of the map with values joinpos[F[x, k], F[y, k]] on the atoms k, mul[x, y] that of F[x, F[y, k]].

        Both maps are additive, so these values fix them: their keys are
        read back through the dense key array.  Each key digit is a row
        gather: the add keys of row x take row F[x, c] of joinpos[:, F[:, c]],
        and the mul keys of column y row F[y, c] of F.T, in blocks of at
        most _CHUNK cells.  The star column is the sums of powers where the source
        holds _STAR_LAWS, else None; there is no converse.  None where the
        model is not atom-keyed.
        """
        if self._atoms is None:
            return None
        F, t, size = self.table, len(self.members), len(self.table)
        J, FT, m = np.array(self._joinpos, dtype=np.int32), F.T.astype(np.int32), len(self._atoms)
        # per atom c, each row v weighted by c's base-t digit (highest first): joinpos[v, F[y, c]] over
        # y for the add keys, F[x, v] over x for the mul keys
        weights = [t ** (m - 1 - i) for i in range(m)]
        adds = [J[:, F[:, c]] * w for c, w in zip(self._atoms, weights)]
        muls = [FT * w for w in weights]
        add, mul = np.empty((size, size), dtype=np.int32), np.empty((size, size), dtype=np.int32)
        for rows in _row_blocks(size, 2 * size * m):
            # the add keys of the rows x in rows, and the mul keys of the columns y in rows, transposed
            at = [F[rows, c] for c in self._atoms]
            keys, keys_t = adds[0][at[0]], muls[0][at[0]]
            for i in range(1, m):
                keys += adds[i][at[i]]
                keys_t += muls[i][at[i]]
            self._key_of.take(keys, out=add[rows])
            found = self._key_of.take(keys_t)
            mul[:, rows] = found.T
            if max(add[rows].max(), found.max()) == size:
                raise ValueError(f"{self.name} is not closed under + and ·")
        return add, mul, _power_sums(add, mul, self._index[self.one]) if self._power_star else None, None

    def declared_tests(self):
        embedded = {p: self.transformer_of(self.D.embed(p)) for p in self.members}
        return list(embedded.values()), {f: embedded[self.D.test_compl(p)] for p, f in embedded.items()}

    def as_semiring(self) -> tuple[FiniteSemiring, TestAlgebra, tuple[int, ...]]:
        """Materialize to dense tables; returns (semiring, tests, source map)."""
        mat = materialize(self)
        return mat.semiring, mat.tests, self.source


def predicate_transformer_model(D) -> TransformerModel:
    return TransformerModel(D)


# ---------------------------------------------------------------------------
# materialization and sampled checking


class MaterializedModel(_Record):
    _fields = ("semiring", "tests", "to_index", "from_index")

    def __init__(self, semiring: FiniteSemiring, tests: Optional[TestAlgebra], to_index: dict, from_index: list):
        self.__dict__.update(semiring=semiring, tests=tests, to_index=to_index, from_index=from_index)


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

    add, mul, star, conv = handle.index_tables() or (None,) * 4
    if add is None:
        add = [[index[handle.add(x, y)] for y in elems] for x in elems]
        mul = [[index[handle.mul(x, y)] for y in elems] for x in elems]
    if star is None and handle.has_star:
        star = [index[handle.star(x)] for x in elems]
    if conv is None and hasattr(handle, "conv"):
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
    S._candidates = tuple(getattr(handle, "symmetries", tuple)())
    tests = None
    declared = handle.declared_tests()
    if declared is not None:
        members, compl = declared
        tests = TestAlgebra(S, [index[m] for m in members], {index[k]: index[v] for k, v in compl.items()})
    return MaterializedModel(S, tests, index, elems)


def check_sampled_laws(handle: ModelHandle, samples: int = 1000, rng=None, include_star: bool = False) -> list[LawReport]:
    """The i-semiring laws (and with include_star the two star unfoldings).

    Exhaustive when a law has at most 2^16 instances and the model lists
    its elements, else sampled (see laws._instances): always so on
    infinite models.
    """
    laws = [law for law in ISEMIRING_LAWS if isinstance(law, Law)]
    if include_star and handle.has_star:
        laws += KLEENE_LAWS[:2]  # star-left-unfold, star-right-unfold
    return run_laws(laws, handle, 1 << 16, samples, rng)
