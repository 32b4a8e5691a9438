"""Model zoo: relations, matrices, tropical/max-plus, languages, paths,
predicate transformers, and the materialization bridge."""

import itertools
import json
import math
import random
import re

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

from kadlib.algebra import (
    FiniteSemiring,
    TestAlgebra,
    all_hold,
    check_isemiring,
    check_kleene,
    check_test_algebra,
    failures,
)
from kadlib.catalogue import STAR_PREIMAGE_LAWS
from kadlib.domain import DomainStructure, compute_predomain, run_laws
from kadlib.hoare import HoareTriple, Prim, ProofTree, TStates, check_hoare_rules, check_triple, validate_proof, wlp
from kadlib.models import (
    Relation,
    RelModel,
    _bit_positions,
    _power_sums,
    _relations,
    StarUnsupportedError,
    bounded_language_model,
    bounded_path_model,
    check_sampled_laws,
    conway_model,
    conway_names,
    materialize,
    matrix_semiring,
    matrix_star,
    maxplus_model,
    predicate_transformer_model,
    rel_model,
    rel_semiring,
    rel_tests,
    tropical_model,
)
from kadlib.reach import check_star_preimage_laws, reach_efficient, reach_naive
from kadlib.termination import is_loebian, is_noetherian, is_well_founded, termination_report, transitive_closure


def _rel_mask(r):
    """The row-major adjacency mask of r, which is its index in rel_semiring(r.n): (i, j) is bit (i-1)*n + j-1."""
    return sum(1 << ((i - 1) * r.n + j - 1) for i, j in r.pairs())


# -- naming and lookup --------------------------------------------------------


def test_builtin_names():
    assert conway_names() == ("A2", "A3_1", "A3_2", "A3_3", "A4_1")
    assert conway_model("a3_2").name == "A3_2"  # case-insensitive
    with pytest.raises(ValueError):
        conway_model("A5")


# -- binary relations ---------------------------------------------------------


def pairs_of(rel):
    return set(rel.pairs())


def compose_oracle(n, x, y):
    return {(i, k) for i, j in x for j2, k in y if j == j2}


def star_oracle(n, x):
    acc = {(i, i) for i in range(1, n + 1)}
    changed = True
    while changed:
        changed = False
        for i, j in list(acc):
            for j2, k in x:
                if j == j2 and (i, k) not in acc:
                    acc.add((i, k))
                    changed = True
    return acc


def random_pairs(rng, n, density=0.3):
    return {
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density
    }


def test_relation_basics():
    r = Relation.from_pairs(3, [(1, 2), (2, 3)])
    assert pairs_of(r) == {(1, 2), (2, 3)}
    assert str(r) == "{(1,2),(2,3)}"
    assert str(Relation.empty(3)) == "{}"
    assert pairs_of(Relation.identity(2)) == {(1, 1), (2, 2)}
    assert len(pairs_of(Relation.full(2))) == 4
    assert r.leq(Relation.full(3)) and not Relation.full(3).leq(r)


def test_relation_bounds_checked():
    with pytest.raises(ValueError):
        Relation.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        Relation.from_pairs(2, [(1, 3)])


def first_intransitive_step(n, xp):
    """{j, k} for the first i -> j -> k without i -> k, least i, then j, then k, or None."""
    for i, j, k in itertools.product(range(1, n + 1), repeat=3):
        if (i, j) in xp and (j, k) in xp and (i, k) not in xp:
            return sorted({j, k})
    return None


def check_relation_against_sets(rng, n, xp, yp):
    D = rel_model(n)
    x, y = Relation.from_pairs(n, xp), Relation.from_pairs(n, yp)
    # one canonical form: the pairs in any order, repeated, give an equal relation with an equal hash
    shuffled = [*xp, *xp]
    rng.shuffle(shuffled)
    again = Relation.from_pairs(n, shuffled)
    assert again == x and hash(again) == hash(x)
    assert x.pairs() == frozenset(xp)
    assert str(x) == "{" + ",".join(f"({i},{j})" for i, j in sorted(xp)) + "}"
    assert x.leq(y) == (xp <= yp)
    assert Relation.from_pairs(n, xp & yp).leq(x) and x.leq(x.union(y))
    assert pairs_of(x.compose(y)) == compose_oracle(n, xp, yp)
    assert pairs_of(x.union(y)) == xp | yp
    assert pairs_of(x.transpose()) == {(j, i) for i, j in xp}
    assert pairs_of(x.star()) == star_oracle(n, xp)
    states = range(1, n + 1)
    for tgt in ({s for s in states if rng.random() < 0.5}, set(states)):
        p = D.test_from_states(tgt)
        assert pairs_of(D.embed(p)) == {(s, s) for s in tgt}
        assert D.test_states(D.preimage(x, p)) == sorted({i for i, j in xp if j in tgt})
        assert D.test_states(D.image(p, x)) == sorted({j for i, j in xp if i in tgt})
    pre, img = D.preimage_rows(x), D.image_rows(x)
    assert len(pre) == len(img) == n
    for k in range(n):
        assert list(pre[k]) == [i - 1 for i in states if (i, k + 1) in xp]
        assert list(img[k]) == [j - 1 for j in states if (k + 1, j) in xp]
    step, want = D.intransitive_step(x), first_intransitive_step(n, xp)
    assert (step is None) if want is None else D.test_states(step) == want


def test_relation_ops_against_set_oracle():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(1, 7)
        check_relation_against_sets(rng, n, random_pairs(rng, n), random_pairs(rng, n))
    # up to 40 states: long chains, cycles, self-loops, rows left empty, and rows
    # of more than 32 successors, whose tests _bit_positions reads off their bytes
    for n in (1, 2, 9, 25, 40):
        chain = {(i, i + 1) for i in range(1, n)}
        shapes = [
            set(),
            chain,
            chain | {(n, 1)},
            {(i, i) for i in range(1, n + 1, 2)} | {(i, i + 2) for i in range(1, n - 1, 3)},
            {(i, rng.randrange(1, n + 1)) for i in range(1, n + 1) if rng.random() < 0.3},
            random_pairs(rng, n, 0.08),
            random_pairs(rng, n, 0.9),
        ]
        for xp in shapes:
            check_relation_against_sets(rng, n, xp, rng.choice(shapes))


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        Relation.identity(2).compose(Relation.identity(3))


# -- the exhaustive relation semirings ---------------------------------------


def test_rel_semiring_tables_match_relation_ops():
    # element index is the row-major adjacency mask, so tables can be
    # cross-checked pointwise against the Relation implementation
    for n in (1, 2):
        S = rel_semiring(n)
        D = rel_model(n)
        rels = list(D.elements())
        for x in rels:
            i = _rel_mask(x)
            assert S.element_name(i) == str(x)
            assert int(S.star[i]) == _rel_mask(x.star())
            assert int(S.conv[i]) == _rel_mask(x.transpose())
            for y in rels:
                j = _rel_mask(y)
                assert int(S.add[i, j]) == _rel_mask(x.union(y))
                assert int(S.mul[i, j]) == _rel_mask(x.compose(y))


def test_rel_semiring_3_spot_checks():
    S = rel_semiring(3)
    rng = random.Random(9)
    D = rel_model(3)
    for _ in range(60):
        x, y = D.sample(rng), D.sample(rng)
        assert int(S.mul[_rel_mask(x), _rel_mask(y)]) == _rel_mask(x.compose(y))
        assert int(S.star[_rel_mask(x)]) == _rel_mask(x.star())


def test_rel_semiring_passes_laws():
    for n in (1, 2):
        S = rel_semiring(n)
        assert all_hold(check_isemiring(S))
        assert all_hold(check_kleene(S))
        assert all_hold(check_test_algebra(rel_tests(n)))


def test_rel_semiring_size_guard():
    with pytest.raises(ValueError):
        rel_semiring(4)


def test_rel_model_surfaces():
    D = rel_model(3)
    r = Relation.from_pairs(3, [(1, 2), (2, 3)])
    assert D.test_name(D.dom(r)) == "{1,2}"
    assert D.test_name(D.cod(r)) == "{2,3}"
    assert D.test_name(D.preimage(r, D.test_from_states([3]))) == "{2}"
    assert D.test_name(D.image(D.test_from_states([1]), r)) == "{2}"
    assert pairs_of(D.embed(D.test_from_states([1, 3]))) == {(1, 1), (3, 3)}
    assert D.test_states(D.test_from_states([2, 3])) == [2, 3]
    # any integer that is not a bool is a state number, as in Relation.from_pairs
    assert D.test_from_states(iter([np.int64(1), 3])) == D.test_from_states([1, 3]) == 0b101
    with pytest.raises(ValueError):
        D.test_from_states([4])


def test_rel_model_dom_cod_oracle():
    rng = random.Random(5)
    D = rel_model(5)
    for _ in range(40):
        ps = random_pairs(rng, 5)
        r = Relation.from_pairs(5, ps)
        assert set(D.test_states(D.dom(r))) == {i for i, _ in ps}
        assert set(D.test_states(D.cod(r))) == {j for _, j in ps}
        tgt = {s for s in range(1, 6) if rng.random() < 0.4}
        pre = D.preimage(r, D.test_from_states(tgt))
        assert set(D.test_states(pre)) == {i for i, j in ps if j in tgt}
        img = D.image(D.test_from_states(tgt), r)
        assert set(D.test_states(img)) == {j for i, j in ps if i in tgt}


def test_rel_model_elements_guard():
    with pytest.raises(ValueError):
        next(rel_model(5).elements())
    assert rel_model(5).size() == 2 ** 25


def test_rel_test_algebra_atoms():
    D = rel_model(3)
    atoms = D.atoms_below(D.test_one)
    assert [D.test_name(a) for a in atoms] == ["{1}", "{2}", "{3}"]
    assert D.atoms_below(D.test_from_states([1, 3])) == [
        D.test_from_states([1]),
        D.test_from_states([3]),
    ]


def bit_loop_test(states):
    """The mask of a set of 1-based states, or-ed in one state at a time."""
    mask = 0
    for s in states:
        mask |= 1 << (s - 1)
    return mask


@pytest.mark.parametrize("n", [3, 64, 65, 100])
def test_positions_of_a_test_encode_back_to_it(n):
    # n = 64 is the last of the or-loop, 65 the first of the buffer
    D, rng = rel_model(n), random.Random(n)
    for p in (0, D.test_one, 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(50))):
        assert D.test_from_positions(D.atom_positions(p)) == p
        states = D.test_states(p)
        assert D.test_from_states(states) == D.test_from_states(reversed(states + states)) == bit_loop_test(states) == p


def per_bit_images(a, p):
    """(a:p, p:a) built one bit at a time from a's pairs."""
    pre = img = 0
    for i, j in a.pairs():
        if p >> (j - 1) & 1:
            pre |= 1 << (i - 1)
        if p >> (i - 1) & 1:
            img |= 1 << (j - 1)
    return pre, img


def test_preimage_and_image_match_the_per_bit_build():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 12)
        D = rel_model(n)
        a = Relation.from_pairs(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n * n))])
        p = rng.getrandbits(n)
        assert (D.preimage(a, p), D.image(p, a)) == per_bit_images(a, p)
    n = 10**5
    D = rel_model(n)
    chain = Relation.from_pairs(n, [(i, i + 1) for i in range(1, n)])
    for p in (D.test_one, D.test_from_states([1, 2, n])):
        assert (D.preimage(chain, p), D.image(p, chain)) == per_bit_images(chain, p)


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 2), (1, 2)],  # a repeated edge, the row's only successor
        [(1, 3), (1, 2), (1, 1), (3, 2)],  # a descending row
        [(2, 2)],  # empty rows around a single entry
        [],
        [(3, 3), (2, 1), (3, 1), (2, 1), (3, 2), (3, 3)],
    ],
)
def test_from_pairs_rows_are_ascending_without_repeats(pairs):
    want = tuple(tuple(sorted({j - 1 for i, j in pairs if i == s})) for s in (1, 2, 3))
    r = Relation.from_pairs(3, pairs)
    assert r.succ == want and r == Relation(3, want) and hash(r) == hash(Relation(3, want))
    assert r.pairs() == frozenset(pairs)


def test_from_pairs_stores_numpy_states_as_python_ints():
    r = Relation.from_pairs(3, np.array([[1, 2], [2, 3]]))
    assert {type(s) for pair in r.pairs() for s in pair} == {int}
    assert json.dumps(sorted(r.pairs())) == "[[1, 2], [2, 3]]"
    assert r == Relation.from_pairs(3, [(1, 2), (2, 3)])


def test_predecessors_leave_equality_hash_and_repr_alone():
    a = Relation.from_pairs(3, [(1, 2), (3, 1)])
    b = Relation.from_pairs(3, [(3, 1), (1, 2), (1, 2)])
    assert repr(b) == "Relation(n=3, succ=((1,), (), (0,)))"
    assert a.predecessors == [[2], [0], []]
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    # the shared rel(3) element, its text kept, is mask 2 + 64: pairs (1,2) and (3,1)
    shared = _relations(3)[66]
    assert shared._text == "{(1,2),(3,1)}" and b._text is None and b._pred is None
    assert shared == a == b and hash(shared) == hash(a) and repr(shared) == repr(a)
    assert a != Relation.from_pairs(3, [(1, 2)]) and a != Relation.from_pairs(4, [(1, 2), (3, 1)])


def test_each_relation_keeps_its_own_predecessor_lists(monkeypatch):
    n = 5
    D = rel_model(n)
    a = Relation.from_pairs(n, [(1, 2), (2, 3), (3, 3), (5, 1), (5, 3)])
    b = Relation.from_pairs(n, [(2, 1), (4, 4), (4, 5), (1, 5)])
    want = {r: [[i - 1 for i, j in sorted(r.pairs()) if j == k + 1] for k in range(n)] for r in (a, b)}
    builds = []
    build = Relation.predecessors.fget

    def counted(r):
        if r._pred is None:
            builds.append(r)
        return build(r)

    monkeypatch.setattr(Relation, "predecessors", property(counted))
    for _ in range(3):
        for k in range(n):
            for r in (a, b):
                assert D.preimage_rows(r)[k] == want[r][k]
    # each relation builds its lists once, however the queries alternate
    assert builds == [a, b]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    strat.integers(0, 3000),
    strat.sampled_from([0.0, 0.002, 0.01, 0.05, 0.5, 1.0]),
    strat.integers(0, 2**32 - 1),
)
def test_bit_positions_and_relation_text_match_bit_by_bit_reads(n, density, seed):
    # densities on both sides of the 32 bits that _bit_positions strips one at a time
    rng = random.Random(seed)
    mask = sum(1 << k for k in range(n) if rng.random() < density)
    assert _bit_positions(mask) == [k for k in range(n) if mask >> k & 1]
    size = min(n, 60) or 1
    pairs = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1) if rng.random() < density]
    rel = Relation.from_pairs(size, pairs)
    assert rel.pairs() == frozenset(pairs)
    assert str(rel) == "{" + ",".join(f"({i},{j})" for i, j in sorted(pairs)) + "}"


# 32 set bits spread over 10^5 positions
SPREAD_32 = sum(1 << k for k in range(0, 10**5, 3125))


@pytest.mark.parametrize(
    "mask",
    [
        (1 << 10**5) - 1,
        sum(1 << k for k in random.Random(1).sample(range(10**5), 1000)),
        1 << 99_999,
        SPREAD_32,
        SPREAD_32 | 1 << 99_999,
    ],
    ids=["full", "one-percent", "bit-99999", "32-bits", "33-bits"],
)
def test_bit_positions_of_10_5_bit_masks_match_bit_by_bit_reads(mask):
    # the widest masks, and both sides of the 32 set bits where the digit walk takes over
    assert _bit_positions(mask) == [k for k in range(10**5) if mask >> k & 1]


# -- matrices ------------------------------------------------------------------


def bool_mat_star_oracle(m, q):
    # union of powers m^0 .. m^q, enough for boolean q x q matrices
    acc = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    cur = [row[:] for row in acc]
    for _ in range(q):
        cur = [
            [max(min(cur[i][k], m[k][j]) for k in range(q)) for j in range(q)]
            for i in range(q)
        ]
        acc = [[max(acc[i][j], cur[i][j]) for j in range(q)] for i in range(q)]
    return acc


def test_matrix_star_against_powers_oracle():
    A2 = conway_model("A2")
    rng = random.Random(11)
    for _ in range(100):
        q = rng.randrange(1, 6)
        m = [[rng.randint(0, 1) for _ in range(q)] for _ in range(q)]
        got = matrix_star(A2, m)
        assert [list(row) for row in got] == bool_mat_star_oracle(m, q)


def test_matrix_star_split_independence():
    A2 = conway_model("A2")
    rng = random.Random(13)
    for _ in range(40):
        m = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
        s1 = matrix_star(A2, m, split=1)
        s2 = matrix_star(A2, m, split=2)
        assert s1 == s2 == matrix_star(A2, m)


@hypothesis.given(strat.lists(strat.lists(strat.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4))
def test_matrix_star_unfolds(rows):
    # m* = I + m m* entrywise over the boolean base
    A2 = conway_model("A2")
    s = matrix_star(A2, rows)
    q = 4
    prod = [
        [max(min(rows[i][k], s[k][j]) for k in range(q)) for j in range(q)]
        for i in range(q)
    ]
    unfold = [
        [max(1 if i == j else 0, prod[i][j]) for j in range(q)] for i in range(q)
    ]
    assert [list(r) for r in s] == unfold


def test_matrix_star_shape_and_capability_errors():
    A2 = conway_model("A2")
    with pytest.raises(ValueError):
        matrix_star(A2, [[0, 1], [1, 0], [0, 0]])
    starless = rel_semiring(1)
    no_star = type(starless)(
        [starless.element_name(i) for i in range(starless.n)],
        starless.add,
        starless.mul,
        starless.zero,
        starless.one,
    )
    with pytest.raises(StarUnsupportedError):
        matrix_star(no_star, [[0]])


def test_matrix_semiring_is_a_kleene_algebra():
    M = matrix_semiring(conway_model("A2"), 2)
    mat = materialize(M)
    assert mat.semiring.n == 16
    assert all_hold(check_isemiring(mat.semiring))
    assert all_hold(check_kleene(mat.semiring))


def test_matrix_star_over_nonboolean_base():
    # base A3_1 has 1 <= a, so the star of [[a]] is a*= a
    S = conway_model("A3_1")
    a = S.index("a")
    assert matrix_star(S, [[a]]) == ((int(S.star[a]),),)


# -- tropical and max-plus ------------------------------------------------------


def test_tropical_basics():
    T = tropical_model()
    inf = math.inf
    assert T.add(3.0, 5.0) == 3.0
    assert T.mul(3.0, 5.0) == 8.0
    assert T.zero == inf and T.one == 0
    assert T.mul(inf, 5.0) == inf  # annihilation
    assert T.star(17.0) == 0 and T.star(0.0) == 0 and T.star(inf) == 0
    assert T.dom(inf) == inf and T.dom(3.0) == 0


def test_tropical_sampled_laws():
    rep = check_sampled_laws(tropical_model(), samples=800, rng=random.Random(2), include_star=True)
    assert all_hold(rep), [str(r) for r in failures(rep)]


def test_tropical_has_no_test_algebra_for_domain_laws():
    T = tropical_model()
    with pytest.raises(ValueError, match="tropical has no test algebra"):
        check_star_preimage_laws(T)
    with pytest.raises(ValueError, match="tropical has no test algebra"):
        check_hoare_rules(T)
    # star-of-domain has no test variable, but dom(a) is a test
    with pytest.raises(ValueError, match="tropical has no test algebra, which star-of-domain needs"):
        run_laws(STAR_PREIMAGE_LAWS[:1], T, budget=10, samples=10)


SKIP = HoareTriple(0, Prim("skip"), 0)
NEEDS_TESTS = {
    "termination_report": lambda M: termination_report(M, M.one),
    "is_noetherian": lambda M: is_noetherian(M, M.one),
    "is_well_founded": lambda M: is_well_founded(M, M.one),
    "is_loebian": lambda M: is_loebian(M, M.one),
    "reach_naive": lambda M: reach_naive(M, M.one, M.zero),
    "reach_efficient": lambda M: reach_efficient(M, M.one, M.zero),
    "check_triple": lambda M: check_triple(SKIP, {}, M),
    "validate_proof": lambda M: validate_proof(ProofTree("axiom", SKIP), {}, M),
    "wlp": lambda M: wlp(M, M.one, M.zero),
    "predicate_transformer_model": predicate_transformer_model,
}


@pytest.mark.parametrize("entry", sorted(NEEDS_TESTS))
@pytest.mark.parametrize("make", [tropical_model, maxplus_model], ids=["tropical", "maxplus"])
def test_a_model_without_tests_is_refused_by_what_reads_them(make, entry):
    """Each entry point that reads tests raises run_laws' ValueError on a model without them: reach_efficient
    before its locality check, which tropical's laws pass, and predicate_transformer_model before maxplus's
    missing star."""
    M = make()
    with pytest.raises(ValueError, match=f"^{M.name} has no test algebra, which "):
        NEEDS_TESTS[entry](M)


# A2 without its star table
NO_STAR = FiniteSemiring(("0", "1"), [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, name="nostar")
REFUSED = {
    # name: (a call with an argument out of its domain, the ValueError's whole message)
    "split-past-the-matrix": (lambda: matrix_star(conway_model("A2"), [[0, 0], [0, 0]], split=2), "split must be in 1..1"),
    "matrices-of-no-rows": (lambda: matrix_semiring(conway_model("A2"), 0), "need at least 1x1 matrices"),
    "letter-of-two-characters": (lambda: bounded_language_model(["ab"], 1), "alphabet must consist of single characters"),
    "letter-repeated": (lambda: bounded_language_model("aa", 1), "alphabet letters must be distinct"),
    "words-of-negative-length": (lambda: bounded_language_model("ab", -1), "maxlen must be >= 0"),
    "vertex-repeated": (lambda: bounded_path_model("xx", 2), "vertices must be distinct"),
    "no-vertex": (lambda: bounded_path_model("", 2), "need at least one vertex"),
    "paths-of-no-vertex": (lambda: bounded_path_model("xy", 0), "maxlen must allow single-vertex paths"),
    "transformers-without-a-star": (
        lambda: predicate_transformer_model(compute_predomain(NO_STAR, TestAlgebra.discrete(NO_STAR))),
        "predicate transformers need a star on the source",
    ),
    "closure-without-a-star": (lambda: transitive_closure(NO_STAR, 1), "nostar has no star operation"),
    # a relation over another base set, or a test with a state past n, is refused by each reader of rel(3)
    "triple-over-another-base-set": (
        lambda: check_triple(HoareTriple(TStates((1,)), Prim("a"), TStates((2,))), {"a": Relation.from_pairs(2, [(1, 2)])}, rel_model(3)),
        "relation over 1..2 given to rel(3)",
    ),
    "termination-over-another-base-set": (
        lambda: termination_report(rel_model(3), Relation.from_pairs(4, [(1, 2)])), "relation over 1..4 given to rel(3)",
    ),
    "reach-from-a-state-past-n": (
        lambda: reach_efficient(rel_model(3), Relation.from_pairs(3, [(1, 2)]), 8), "test mask 8 has states outside 1..3",
    ),
    "preimage-of-another-base-set": (lambda: rel_model(3).preimage(Relation.empty(2), 1), "relation over 1..2 given to rel(3)"),
    "preimage-of-a-state-past-n": (lambda: rel_model(3).preimage(Relation.empty(3), 1 << 70), f"test mask {1 << 70} has states outside 1..3"),
    "image-of-a-negative-mask": (lambda: rel_model(3).image(-1, Relation.empty(3)), "test mask -1 has states outside 1..3"),
    "preimage-rows-of-another-base-set": (lambda: rel_model(3).preimage_rows(Relation.empty(4)), "relation over 1..4 given to rel(3)"),
    "image-rows-of-another-base-set": (lambda: rel_model(3).image_rows(Relation.empty(1)), "relation over 1..1 given to rel(3)"),
    "atoms-of-a-state-past-n": (lambda: rel_model(3).atom_positions(8), "test mask 8 has states outside 1..3"),
    "test-leq-of-a-state-past-n": (lambda: rel_model(3).test_leq(8, 15), "test mask 8 has states outside 1..3"),
    "test-join-of-a-state-past-n": (lambda: rel_model(3).test_join(8, 1), "test mask 8 has states outside 1..3"),
    "test-meet-of-a-negative-mask": (lambda: rel_model(3).test_meet(-1, 5), "test mask -1 has states outside 1..3"),
    # every other reader of a test decodes through atom_positions, or its mask check, and every writer refuses a
    # position past the atoms: rel(n) names its state, a table the position
    **{
        f"{reader}-of-a-state-past-n": (lambda reader=reader: getattr(rel_model(3), reader)(8), "test mask 8 has states outside 1..3")
        for reader in ("test_name", "atoms_below", "test_states", "embed", "test_compl")
    },
    "test-from-a-position-past-n": (lambda: rel_model(3).test_from_positions([5]), "state 6 outside 1..3"),
    "test-from-a-negative-position-in-a-buffer": (lambda: rel_model(100).test_from_positions([3, -1]), "state 0 outside 1..100"),
    "test-from-a-position-past-n-in-a-buffer": (lambda: rel_model(100).test_from_positions([100]), "state 101 outside 1..100"),
    "table-test-from-a-negative-position": (
        lambda: compute_predomain(rel_semiring(2), rel_tests(2)).test_from_positions([-1]), "rel(2) has no atom at position -1",
    ),
    "table-test-from-a-position-past-the-atoms": (
        lambda: compute_predomain(rel_semiring(2), rel_tests(2)).test_from_positions([0, 2]), "rel(2) has no atom at position 2",
    ),
    # a state is an integer: not a float, a string or a bool
    "pair-of-a-float-state": (lambda: Relation.from_pairs(3, [(1, 2.0)]), "pair (1,2.0) has a state that is not an integer"),
    "pair-of-a-fractional-state": (lambda: Relation.from_pairs(3, [(1.5, 2)]), "pair (1.5,2) has a state that is not an integer"),
    "pair-of-a-string-state": (lambda: Relation.from_pairs(3, [("1", 2)]), "pair ('1',2) has a state that is not an integer"),
    "pair-of-a-bool-state": (lambda: Relation.from_pairs(3, [(1, 2), (True, 2)]), "pair (True,2) has a state that is not an integer"),
    "test-from-a-bool-state": (lambda: rel_model(3).test_from_states([True]), "state True is not an integer"),
    "test-from-a-float-state": (lambda: rel_model(3).test_from_states([2, 1.0]), "state 1.0 is not an integer"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_model_arguments_out_of_their_domain_are_refused_by_name(case):
    call, message = REFUSED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_maxplus_has_no_star():
    MP = maxplus_model()
    with pytest.raises(StarUnsupportedError):
        MP.star(1.0)
    assert MP.add(3, 5) == 5 and MP.mul(3, 5) == 8
    assert MP.zero == -math.inf and MP.one == 0


def test_maxplus_sampled_laws():
    rep = check_sampled_laws(maxplus_model(), samples=800, rng=random.Random(4))
    assert all_hold(rep), [str(r) for r in failures(rep)]


# -- bounded languages and paths -------------------------------------------------


def test_language_model_basics():
    L = bounded_language_model("ab", 2)
    assert L.size() == 128  # seven words of length <= 2, all subsets
    assert L.one == frozenset([""])
    assert L.zero == frozenset()
    assert sorted(L.star(frozenset(["a"]))) == ["", "a", "aa"]
    assert L.el_name(L.one) == "{eps}"
    # truncating concatenation drops overlong words
    assert L.mul(frozenset(["ab"]), frozenset(["a"])) == frozenset()


def test_language_model_materialized_laws():
    M = materialize(bounded_language_model("ab", 2))
    assert all_hold(check_isemiring(M.semiring))
    assert all_hold(check_kleene(M.semiring))
    assert all_hold(check_test_algebra(M.tests))


def test_path_model_fusion():
    P = bounded_path_model("xy", 3)
    xy = frozenset([("x", "y")])
    yx = frozenset([("y", "x")])
    assert P.mul(xy, yx) == frozenset([("x", "y", "x")])
    assert P.mul(xy, xy) == frozenset()  # endpoints do not match
    assert P.mul(P.one, xy) == xy and P.mul(xy, P.one) == xy
    # vertex-length bound: fusing two 3-vertex paths would exceed it
    P2 = bounded_path_model("xy", 2)
    assert P2.mul(xy, yx) == frozenset()


def test_path_model_materialized_laws():
    M = materialize(bounded_path_model("xy", 2))
    assert all_hold(check_isemiring(M.semiring))
    assert all_hold(check_test_algebra(M.tests))


# -- predicate transformers -------------------------------------------------------


@pytest.fixture(scope="module")
def transformers3():
    return predicate_transformer_model(rel_model(3))


def test_transformers_are_distinct(transformers3):
    TM = transformers3
    els = list(TM.elements())
    assert len(els) == 512
    assert len(set(els)) == 512  # the source model embeds injectively


def test_transformer_apply_matches_preimage(transformers3):
    TM = transformers3
    D = rel_model(3)
    rng = random.Random(6)
    for _ in range(50):
        a = D.sample(rng)
        f = TM.transformer_of(a)
        for p in D.test_members():
            assert TM.apply(f, p) == D.preimage(a, p)


def test_transformer_join_is_pointwise(transformers3):
    TM = transformers3
    rng = random.Random(7)
    D = rel_model(3)
    for _ in range(30):
        f, g = TM.sample(rng), TM.sample(rng)
        h = TM.add(f, g)
        for p in D.test_members():
            assert TM.apply(h, p) == D.test_join(TM.apply(f, p), TM.apply(g, p))


def test_transformer_mul_is_composition(transformers3):
    TM = transformers3
    rng = random.Random(8)
    D = rel_model(3)
    for _ in range(30):
        f, g = TM.sample(rng), TM.sample(rng)
        h = TM.mul(f, g)
        for p in D.test_members():
            assert TM.apply(h, p) == TM.apply(f, TM.apply(g, p))


def test_transformer_star_agrees_with_source(transformers3):
    TM = transformers3
    D = rel_model(3)
    for a in D.elements():
        assert TM.star(TM.transformer_of(a)) == TM.transformer_of(D.star(a))


def test_transformer_semiring_laws(transformers3):
    S, T, _src = transformers3.as_semiring()
    assert S.n == 512
    assert all_hold(check_isemiring(S))
    assert all_hold(check_test_algebra(T))


# -- materialization and sampled checking -----------------------------------------


def reference_materialize(handle):
    """materialize's tables, names, constants and tests, built by calling the handle on every cell."""
    elems = list(handle.elements())
    index = {e: i for i, e in enumerate(elems)}
    out = {
        "names": [handle.el_name(e) for e in elems],
        "add": [[index[handle.add(x, y)] for y in elems] for x in elems],
        "mul": [[index[handle.mul(x, y)] for y in elems] for x in elems],
        "star": [index[handle.star(x)] for x in elems] if handle.has_star else None,
        "conv": [index[handle.conv(x)] for x in elems] if hasattr(handle, "conv") else None,
        "zero": index[handle.zero],
        "one": index[handle.one],
        "tests": None,
    }
    declared = handle.declared_tests()
    if declared is not None:
        members, compl = declared
        out["tests"] = (sorted(index[m] for m in members), {index[k]: index[v] for k, v in compl.items()})
    return out


def materialized(handle):
    mat = materialize(handle)
    S = mat.semiring
    return {
        "names": list(S.carrier),
        "add": S.add.tolist(),
        "mul": S.mul.tolist(),
        "star": None if S.star is None else S.star.tolist(),
        "conv": None if S.conv is None else S.conv.tolist(),
        "zero": S.zero,
        "one": S.one,
        "tests": None if mat.tests is None else (list(mat.tests.members), mat.tests.compl),
    }


def test_transformers_of_a_source_too_big_to_list_are_refused_before_any_test_join(monkeypatch):
    """rel(9) lists its 512 tests but not its 2^81 elements: the refusal comes before the 512^2 joins of the join table."""
    joins = []
    join = RelModel.test_join
    monkeypatch.setattr(RelModel, "test_join", lambda self, p, q: joins.append((p, q)) or join(self, p, q))
    with pytest.raises(ValueError, match=r"^rel\(9\) has 2\^81 elements"):
        predicate_transformer_model(rel_model(9))
    assert joins == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transformer_tables_match_the_model_cell_for_cell(n):
    TM = predicate_transformer_model(rel_model(n))
    assert TM.index_tables() is not None
    assert materialized(TM) == reference_materialize(TM)


def dom_additive_broken():
    """rel(2)'s tables with dom(a) the states whose one successor is themselves: d2 and atomic-tests hold, dom-additive fails."""
    S, T, R = rel_semiring(2), rel_tests(2), rel_model(2)
    delta = [_rel_mask(R.embed(R.test_from_states(i + 1 for i, row in enumerate(a.succ) if row == (i,)))) for a in R.elements()]
    return DomainStructure(S, T, delta, compute_predomain(S, T).rho)


TRANSFORMER_SOURCES = {
    **{f"rel{n}-table": (lambda n=n: compute_predomain(rel_semiring(n), rel_tests(n))) for n in (2, 3)},
    **{name: (lambda name=name: compute_predomain(conway_model(name), TestAlgebra.discrete(conway_model(name)))) for name in conway_names()},
    "dom-additive-broken": dom_additive_broken,
}


@pytest.mark.parametrize("name", sorted(TRANSFORMER_SOURCES))
def test_transformer_tables_of_domain_structures_match_the_model_cell_for_cell(name):
    D = TRANSFORMER_SOURCES[name]()
    TM = predicate_transformer_model(D)
    atom_keyed = "dom-additive" in D.laws
    assert atom_keyed == (name != "dom-additive-broken")
    assert (TM.index_tables() is not None) == atom_keyed
    assert TM.name.endswith(", not atom-keyed)") != atom_keyed
    assert materialized(TM) == reference_materialize(TM)
    members = D.test_members()
    for a in D.elements():
        assert [TM.apply(TM.transformer_of(a), p) for p in members] == [D.preimage(a, p) for p in members]


STAR_SOURCES = {**{f"rel_model({n})": (lambda n=n: rel_model(n)) for n in (1, 2, 3)}, **TRANSFORMER_SOURCES}


@pytest.mark.parametrize("name", sorted(STAR_SOURCES))
def test_transformer_star_columns_match_the_per_element_star(name):
    """Where the source holds the star laws, index_tables gives the star column as the sums of powers: a
    relation model holds them by construction, and a domain structure once its owner's star axioms and
    its locality have held, as on the rel(n) tables and the local builtins.  Elsewhere it keeps D.star."""
    D = STAR_SOURCES[name]()
    TM = predicate_transformer_model(D)
    want = [TM._index[TM.star(f)] for f in TM.maps]
    tables = TM.index_tables()
    column = None if tables is None else tables[2]
    assert (column is not None) == (name.startswith("rel") or name in ("A2", "A3_1", "A3_3"))
    if column is not None:
        assert column.tolist() == want
    assert materialize(TM).semiring.star.tolist() == want


@pytest.mark.parametrize(
    "make",
    [
        lambda: materialize(bounded_language_model("a", 6)).semiring,
        lambda: materialize(bounded_path_model("xy", 2)).semiring,
        lambda: conway_model("A4_1"),
    ],
    ids=["language", "path", "A4_1"],
)
def test_power_sums_are_the_stars_of_other_models(make):
    """_power_sums over tables whose star column was built element by element: in lang(a,6),
    {a}* = {eps,a,...,a^6} takes three squarings, which no model with a star column needs."""
    S = make()
    assert _power_sums(S.add, S.mul, S.one).tolist() == S.star.tolist()


def test_power_sums_of_tables_whose_powers_cycle_raise():
    # 1 and 2 square to each other, so (1 + x)^(2^k) never settles
    add, mul = np.array([[0, 1, 2], [1, 1, 1], [2, 1, 2]]), np.array([[0, 1, 2], [1, 2, 1], [2, 1, 1]])
    with pytest.raises(ValueError, match="do not settle"):
        _power_sums(add, mul, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_materializing_relations_and_their_transformers_builds_no_closure(monkeypatch, n):
    """The stars of both tables are sums of powers over the index tables, and no Relation.star runs."""
    closures = []
    closure = Relation.star
    monkeypatch.setattr(Relation, "star", lambda r: closures.append(r) or closure(r))
    materialize(rel_model(n))
    materialize(predicate_transformer_model(rel_model(n)))
    assert closures == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transformer_of_is_the_preimage_at_every_test(n):
    D = rel_model(n)
    TM = predicate_transformer_model(D)
    members = D.test_members()
    for a in D.elements():
        f = TM.transformer_of(a)
        assert [TM.apply(f, p) for p in members] == [D.preimage(a, p) for p in members]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_tables_match_the_model_cell_for_cell(n):
    R = rel_model(n)
    assert R.index_tables() is not None
    assert materialized(R) == reference_materialize(R)


@pytest.mark.parametrize(
    "make",
    [
        lambda: matrix_semiring(conway_model("A3_1"), 2),
        lambda: bounded_language_model("ab", 2),
        lambda: bounded_path_model("xy", 2),
    ],
    ids=["matrix", "language", "path"],
)
def test_materialize_of_other_handles_calls_add_and_mul(make):
    handle = make()
    assert handle.index_tables() is None
    assert materialized(handle) == reference_materialize(handle)


def test_materialize_size_guard():
    with pytest.raises(ValueError):
        materialize(rel_model(4))


@pytest.mark.parametrize("make", [tropical_model, maxplus_model])
def test_materialize_refuses_infinite_models(make):
    with pytest.raises(ValueError, match="is infinite; cannot materialize"):
        materialize(make())


def test_materialize_round_trips_operations():
    D = rel_model(2)
    M = materialize(D)
    rng = random.Random(3)
    for _ in range(40):
        x, y = D.sample(rng), D.sample(rng)
        i, j = M.to_index[x], M.to_index[y]
        assert M.from_index[int(M.semiring.add[i, j])] == D.add(x, y)
        assert M.from_index[int(M.semiring.mul[i, j])] == D.mul(x, y)
        assert M.from_index[int(M.semiring.star[i])] == D.star(x)


def test_check_sampled_laws_on_large_relation_model():
    rep = check_sampled_laws(rel_model(6), samples=300, rng=random.Random(1), include_star=True)
    assert all_hold(rep), [str(r) for r in failures(rep)]
