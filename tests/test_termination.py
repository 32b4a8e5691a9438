"""Termination: Noethericity is relational acyclicity, the Löb property,
their implications, and the subtraction laws for preimages.  The exact
fixpoint decisions past the enumeration budget are cross-checked against
enumeration, graph search and the validity of their witnesses, and their
cost is pinned by counting atom preimages and images."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadlib.algebra import FiniteSemiring, TestAlgebra, Verdict
from kadlib.domain import DomainStructure, compute_predomain
from kadlib.cli import _has_cycle
from kadlib.models import (
    Relation,
    RelModel,
    conway_model,
    conway_names,
    rel_model,
    rel_semiring,
    rel_tests,
)
from kadlib.reach import reach_efficient, reach_naive
from kadlib.termination import (
    TerminationReport,
    is_loebian,
    is_noetherian,
    is_well_founded,
    stuck_set,
    termination_report,
    transitive_closure,
)


def _rel_mask(r):
    """The row-major adjacency mask of r, which is its index in rel_semiring(r.n): (i, j) is bit (i-1)*n + j-1."""
    return sum(1 << ((i - 1) * r.n + j - 1) for i, j in r.pairs())


def has_cycle(n, pairs):
    succ = {i: [] for i in range(1, n + 1)}
    for i, j in pairs:
        succ[i].append(j)
    color = {i: 0 for i in range(1, n + 1)}
    for root in range(1, n + 1):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return False


def random_pairs(rng, n, density=0.25):
    return {
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density
    }


@pytest.fixture(scope="module")
def rel_facts():
    """Per relation: Noethericity, the Löb property, closure and star masks."""
    facts = {}
    for n in (1, 2, 3):
        D = rel_model(n)
        rels = list(D.elements())
        noeth, loeb, tc, star, trans = {}, {}, {}, {}, {}
        for r in rels:
            m = _rel_mask(r)
            noeth[m] = is_noetherian(D, r).holds
            loeb[m] = is_loebian(D, r).holds
            tc[m] = _rel_mask(transitive_closure(D, r))
            star[m] = _rel_mask(D.star(r))
            trans[m] = r.compose(r).leq(r)
        facts[n] = dict(D=D, rels=rels, noeth=noeth, loeb=loeb, tc=tc, star=star, trans=trans)
    return facts


# -- the relational reading ------------------------------------------------------


def test_noetherian_is_acyclic():
    rng = random.Random(30)
    for _ in range(100):
        n = rng.randrange(1, 7)
        pairs = random_pairs(rng, n)
        D = rel_model(n)
        a = Relation.from_pairs(n, pairs)
        acyclic = not has_cycle(n, pairs)
        assert is_noetherian(D, a).holds == acyclic
        assert is_well_founded(D, a).holds == acyclic
        # well-foundedness is Noethericity of the transposed relation
        assert is_well_founded(D, a).holds == is_noetherian(D, a.transpose()).holds


def test_self_loop_witness():
    D = rel_model(2)
    a = Relation.from_pairs(2, [(1, 1)])
    v = is_noetherian(D, a)
    assert not v.holds
    assert D.test_name(v.witness) == "{1}"
    assert v.note == "p <= a:p at p = {1}"
    w = is_well_founded(D, a)
    assert not w.holds and w.note == "p <= p:a at p = {1}"


def test_identity_is_not_loebian():
    D = rel_model(2)
    v = is_loebian(D, D.one)
    assert not v.holds
    assert D.test_name(v.witness) == "{1}"
    assert v.note == "a:p not below a:(p - a:p) at p = {1}"


def test_the_closure_on_a_table_semiring_is_read_off_its_tables():
    # a FiniteSemiring's mul and star are tables, not functions: a+ is the entry mul[a, star[a]]
    S, D = rel_semiring(3), rel_model(3)
    for r in (Relation.from_pairs(3, [(1, 2), (2, 3)]), Relation.from_pairs(3, [(3, 1), (1, 3)]), D.one, D.zero):
        assert transitive_closure(S, _rel_mask(r)) == _rel_mask(transitive_closure(D, r))


def test_chain_and_its_closure():
    D = rel_model(3)
    chain = Relation.from_pairs(3, [(1, 2), (2, 3)])
    closure = transitive_closure(D, chain)
    assert set(closure.pairs()) == {(1, 2), (1, 3), (2, 3)}
    assert is_noetherian(D, chain).holds
    # the chain itself is not transitive, so the Löb property can fail
    v = is_loebian(D, chain)
    assert not v.holds and D.test_name(v.witness) == "{2,3}"
    assert is_loebian(D, closure).holds


def test_empty_relation_terminates():
    D = rel_model(3)
    rep = termination_report(D, D.zero)
    assert rep.noetherian.holds and rep.well_founded.holds and rep.loebian.holds
    assert str(rep) == "{}: noetherian=true well_founded=true loebian=true"


def test_report_string_carries_witnesses():
    D = rel_model(2)
    rep = termination_report(D, Relation.from_pairs(2, [(1, 1)]))
    s = str(rep)
    assert s.startswith("{(1,1)}: ")
    assert "noetherian=false (witness p <= a:p at p = {1})" in s
    assert "well_founded=false (witness p <= p:a at p = {1})" in s
    assert "loebian=false" in s


# -- general laws, exhaustively over all small relations -------------------------


def test_zero_is_noetherian_and_tests_are_not(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        D = f["D"]
        assert f["noeth"][0]
        for p in D.test_members():
            if p == D.test_zero:
                continue
            assert not f["noeth"][_rel_mask(D.embed(p))]


def test_noetherian_is_downclosed(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        noeth = f["noeth"]
        for b, ok in noeth.items():
            if not ok:
                continue
            for a in noeth:
                if a | b == b:
                    assert noeth[a]


def test_noetherian_elements_avoid_the_identity(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        id_mask = _rel_mask(f["D"].one)
        for a, ok in f["noeth"].items():
            if ok:
                assert a & id_mask == 0


def test_noetherian_elements_are_not_self_expanding(rel_facts):
    # a nonzero Noetherian element never sits below its own square
    for n in (1, 2, 3):
        f = rel_facts[n]
        D = f["D"]
        for r in f["rels"]:
            a = _rel_mask(r)
            if a == 0 or not f["noeth"][a]:
                continue
            sq = _rel_mask(D.mul(r, r))
            assert a | sq != sq


def test_noetherian_iff_closure_noetherian(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        for a, ok in f["noeth"].items():
            assert ok == f["noeth"][f["tc"][a]]


def test_star_is_never_noetherian(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        for a in f["noeth"]:
            assert not f["noeth"][f["star"][a]]


def test_loebian_implies_noetherian(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        for a, ok in f["loeb"].items():
            if ok:
                assert f["noeth"][a]


def test_noetherian_and_transitive_implies_loebian(rel_facts):
    for n in (1, 2, 3):
        f = rel_facts[n]
        for r in f["rels"]:
            a = _rel_mask(r)
            if f["noeth"][a] and f["trans"][a]:
                assert f["loeb"][a]


def test_loebian_elements_here_are_transitive(rel_facts):
    # not a theorem in general, but true for all relations on up to 3 states
    for n in (1, 2, 3):
        f = rel_facts[n]
        for a, ok in f["loeb"].items():
            if ok and f["noeth"][a]:
                assert f["trans"][a]


def test_noetherian_step_bound(rel_facts):
    # a Noetherian step reaches only states the closure reaches while
    # leaving the already-covered part: a:p <= a+:(p - a:p)
    for n in (1, 2, 3):
        f = rel_facts[n]
        D = f["D"]
        for r in f["rels"]:
            a = _rel_mask(r)
            if not f["noeth"][a]:
                continue
            plus = transitive_closure(D, r)
            for p in D.test_members():
                pre = D.preimage(r, p)
                rest = D.test_meet(p, D.test_compl(pre))
                assert D.test_leq(pre, D.preimage(plus, rest))


# -- preimage subtraction laws on table-backed models -------------------------------


def sub(D, p, q):
    return D.test_meet(p, D.test_compl(q))


def test_preimage_subtraction_bound():
    # a:p - a:q <= a:(p - q)
    targets = [compute_predomain(conway_model(nm), TestAlgebra.discrete(conway_model(nm)))
               for nm in ("A2", "A3_1", "A3_3")]
    targets.append(compute_predomain(rel_semiring(2), rel_tests(2)))
    for D in targets:
        for a in D.elements():
            for p in D.test_members():
                for q in D.test_members():
                    lhs = sub(D, D.preimage(a, p), D.preimage(a, q))
                    assert D.test_leq(lhs, D.preimage(a, sub(D, p, q)))


def test_closure_preimage_unfolds():
    # a+:p = a:(p + a+:p)
    targets = [compute_predomain(conway_model(nm), TestAlgebra.discrete(conway_model(nm)))
               for nm in ("A2", "A3_1", "A3_3")]
    targets.append(compute_predomain(rel_semiring(2), rel_tests(2)))
    for D in targets:
        for a in D.elements():
            plus = transitive_closure(D, a)
            for p in D.test_members():
                lhs = D.preimage(plus, p)
                assert lhs == D.preimage(a, D.test_join(p, lhs))


# -- closure and sampling plumbing ----------------------------------------------------


def test_transitive_closure_is_least_transitive_above():
    rng = random.Random(31)
    D = rel_model(4)
    for _ in range(40):
        r = D.sample(rng)
        tc = transitive_closure(D, r)
        assert r.leq(tc)
        assert tc.compose(tc).leq(tc)
        # anything transitive above r contains the closure
        other = D.add(tc, D.sample(rng))
        if other.compose(other).leq(other) and r.leq(other):
            assert tc.leq(other)


def test_transitive_closure_on_plain_tables():
    S = rel_semiring(2)
    r = S.index("{(1,2)}")
    assert S.element_name(transitive_closure(S, r)) == "{(1,2)}"
    one_step = S.index("{(1,1)}")
    assert S.element_name(transitive_closure(S, one_step)) == "{(1,1)}"
    starless = type(S)(S.carrier, S.add, S.mul, S.zero, S.one)
    with pytest.raises(ValueError, match="no star operation"):
        transitive_closure(starless, r)


def zero_domain():
    """The constant-zero domain on A2: d1 fails, but dom = 0 is additive, so its atom rows decide a:p."""
    A2 = conway_model("A2")
    return DomainStructure(A2, TestAlgebra.discrete(A2), delta=[0, 0], rho=[0, 0])


def nonmonotone_domain():
    """A domain on A3_2 (0 < a < 1) with dom(a) = 1 but dom(1) = 0: dom is not additive, so atom rows decide nothing."""
    S = conway_model("A3_2")
    return DomainStructure(S, TestAlgebra.discrete(S), delta=[0, 2, 0], rho=[0, 2, 0])


def test_sampling_fallback_reports_itself():
    D = nonmonotone_domain()
    assert not {"atomic-preimage", "atomic-image"} & D.laws
    v = is_noetherian(D, D.zero, budget=1, samples=50, rng=random.Random(1))
    assert v.holds and v.note == "sampled"
    w = is_loebian(D, D.zero, budget=1, samples=50, rng=random.Random(1))
    assert w.holds and w.note == "sampled"


def test_sampled_verdicts_say_so_in_the_report():
    D = nonmonotone_domain()
    rep = termination_report(D, D.zero, budget=1, samples=50, rng=random.Random(1))
    assert str(rep) == "0: noetherian=true (sampled) well_founded=true (sampled) loebian=true (sampled)"


def test_an_additive_zero_domain_is_decided_exactly():
    D = zero_domain()
    assert {"atomic-preimage", "atomic-image"} <= D.laws and "d1" not in D.laws
    for check in (is_noetherian, is_well_founded):
        assert check(D, D.one, budget=1) == Verdict(True, note="")


# -- where atom rows decide a:p and p:a: the atomic-preimage and atomic-image facts -----------


def rel2_moved(table, x, y, v):
    """rel(2)'s predomain after add[x, y] or mul[x, y] := v, the cells named by their elements."""
    S, T = rel_semiring(2), rel_tests(2)
    tables = {k: np.array(getattr(S, k)) for k in ("add", "mul")}
    tables[table][S.index(x), S.index(y)] = S.index(v)
    S2 = FiniteSemiring(S.carrier, tables["add"], tables["mul"], S.zero, S.one, S.star, S.conv)
    return compute_predomain(S2, TestAlgebra(S2, T.members, T.compl))


def test_a_moved_mul_cell_is_not_decided_by_its_atom_rows():
    D = rel2_moved("mul", "{(1,2)}", "{(1,1),(2,2)}", "{(1,2),(2,2)}")
    assert {"d1", "d2"} <= D.laws and "atomic-preimage" not in D.laws
    a = D.owner.index("{(1,2)}")
    enumerated = is_noetherian(D, a)
    assert not enumerated.holds and enumerated.note == "p <= a:p at p = {(1,1),(2,2)}"
    assert is_noetherian(D, a, budget=0) == enumerated


def test_a_moved_add_cell_is_not_decided_by_its_atom_rows():
    D = rel2_moved("add", "{(1,1)}", "{(2,2)}", "{(2,1)}")
    a = D.owner.index("{}")
    assert is_noetherian(D, a).holds
    assert is_noetherian(D, a, budget=0).holds


def rel2_sweep(count=60):
    """Seeded single-cell corruptions of rel(2)'s add, mul, delta and rho: count of each that still form a structure."""
    S, T = rel_semiring(2), rel_tests(2)
    D = compute_predomain(S, T)
    rng = random.Random("rel2-cells")
    for table in ("add", "mul", "delta", "rho"):
        made = 0
        while made < count:
            if table in ("add", "mul"):
                x, y = rng.randrange(S.n), rng.randrange(S.n)
                old = int(getattr(S, table)[x, y])
                v = rng.choice([u for u in range(S.n) if u != old])
                try:
                    yield rel2_moved(table, *map(S.element_name, (x, y, v)))
                except ValueError:  # no least preserver: not a structure
                    continue
            else:
                columns = {"delta": np.array(D.delta), "rho": np.array(D.rho)}
                i = rng.randrange(S.n)
                columns[table][i] = rng.choice([p for p in T.members if p != columns[table][i]])
                yield DomainStructure(S, T, columns["delta"], columns["rho"])
            made += 1


def test_exact_verdicts_on_corrupted_rel2_structures_match_enumeration():
    """At budget 0 a verdict is exact (its note not "sampled") where the model's laws name its fact, and then
    it is the enumeration's; reach_naive refuses a structure without atomic-preimage."""
    exact = refused = 0
    for D in rel2_sweep():
        for check, fact in ((is_noetherian, "atomic-preimage"), (is_well_founded, "atomic-image")):
            for a in D.elements():
                fast = check(D, a, budget=0)
                if fact in D.laws:
                    exact += 1
                    assert fast.note != "sampled"
                if fast.note != "sampled":
                    assert fast.holds == check(D, a).holds, (check.__name__, D.el_name(a))
        if "atomic-preimage" not in D.laws:
            refused += 1
            with pytest.raises(ValueError, match="lacks atomic-preimage"):
                reach_naive(D, D.one, D.test_zero)
    assert exact and refused


def builtin_predomain(name):
    S = conway_model(name)
    return compute_predomain(S, TestAlgebra.discrete(S))


REPORT_TARGETS = [
    *((name, lambda name=name: builtin_predomain(name)) for name in conway_names()),
    *((f"rel{n}", lambda n=n: compute_predomain(rel_semiring(n), rel_tests(n))) for n in (2, 3)),
    ("zero-domain", zero_domain),
]


@pytest.mark.parametrize("make", [t[1] for t in REPORT_TARGETS], ids=[t[0] for t in REPORT_TARGETS])
@pytest.mark.parametrize("budget", [1, 4096])
def test_report_equals_its_three_verdicts(make, budget):
    D = make()
    for a in D.elements():
        rep = termination_report(D, a, budget=budget, samples=30)
        verdicts = (check(D, a, budget=budget, samples=30) for check in (is_noetherian, is_well_founded, is_loebian))
        assert rep == TerminationReport(D.el_name(a), *verdicts)


def test_within_the_budget_but_past_what_a_relation_model_lists_is_exact():
    # 2^17 tests fit the budget, but RelModel lists at most 2^16, so the exact rung decides
    D = rel_model(17)
    v = is_loebian(D, D.zero, budget=200_000)
    assert v.holds and v.note == ""


def test_verdicts_past_what_a_relation_model_lists_do_not_depend_on_the_budget():
    """On the chain 1 -> ... -> 17 with a loop at 17, budgets that the 2^17 tests fit give the verdicts, witnesses and
    notes of the default budget, which they exceed: neither lists the tests, so the exact rung decides both."""
    D = rel_model(17)
    a = Relation.from_pairs(17, [*((i, i + 1) for i in range(1, 17)), (17, 17)])
    want = [check(D, a) for check in (is_noetherian, is_well_founded, is_loebian)]
    assert [v.note for v in want] == [
        "p <= a:p at p = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17}", "p <= p:a at p = {17}",
        "a:p not below a:(p - a:p) at p = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17}",
    ]
    for budget in (2**17, 2**20):
        assert [check(D, a, budget=budget) for check in (is_noetherian, is_well_founded, is_loebian)] == want
        assert termination_report(D, a, budget=budget) == termination_report(D, a)


def test_past_the_budget_relations_are_decided_exactly():
    D = rel_model(5)
    for check in (is_noetherian, is_well_founded, is_loebian):
        v = check(D, D.zero, budget=4, samples=50, rng=random.Random(1))
        assert v.holds and v.note == ""


def test_exact_verdicts_read_as_exhaustive_in_the_report():
    D = rel_model(5)
    rep = termination_report(D, D.zero, budget=4, samples=50, rng=random.Random(1))
    assert str(rep) == "{}: noetherian=true well_founded=true loebian=true"


# -- exact decisions past the budget against enumeration and graph search --------------

CHECKS = (is_noetherian, is_well_founded, is_loebian)


def assert_valid_witness(D, check, a, v):
    """A failing verdict's witness is a nonzero test that breaks the law."""
    p = v.witness
    if check is is_loebian:
        pre = D.preimage(a, p)
        assert not D.test_leq(pre, D.preimage(a, D.test_meet(p, D.test_compl(pre))))
        return
    assert p != D.test_zero
    step = D.preimage(a, p) if check is is_noetherian else D.image(p, a)
    assert D.test_leq(p, step)


def assert_exact_matches_enumeration(D, a, checks=CHECKS):
    for check in checks:
        enumerated, exact = check(D, a), check(D, a, budget=1)
        assert enumerated.note != "sampled" and exact.note != "sampled"
        assert exact.holds == enumerated.holds, (check.__name__, D.el_name(a))
        if not exact.holds:
            assert_valid_witness(D, check, a, exact)


@st.composite
def relations(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, random_pairs(random.Random(seed), n, density)


@settings(max_examples=300, deadline=None)
@given(relations())
def test_exact_relation_verdicts_match_enumeration(case):
    n, pairs = case
    assert_exact_matches_enumeration(rel_model(n), Relation.from_pairs(n, pairs))


@pytest.mark.parametrize("name", [*conway_names(), "rel2", "rel3"])
def test_exact_predomain_verdicts_match_enumeration(name):
    if name.startswith("rel"):
        n = int(name[3:])
        D = compute_predomain(rel_semiring(n), rel_tests(n))
    else:
        S = conway_model(name)
        D = compute_predomain(S, TestAlgebra.discrete(S))
    assert {"atomic-preimage", "atomic-image"} <= D.laws
    # the Löb property is decided exactly on relation models only
    for a in D.elements():
        assert_exact_matches_enumeration(D, a, (is_noetherian, is_well_founded))


@settings(max_examples=60, deadline=None)
@given(relations(max_n=200))
def test_exact_noethericity_is_acyclicity(case):
    n, pairs = case
    D = rel_model(n)
    a = Relation.from_pairs(n, pairs)
    acyclic = not has_cycle(n, pairs)
    assert is_noetherian(D, a, budget=1).holds == acyclic
    assert is_well_founded(D, a, budget=1).holds == acyclic
    assert (stuck_set(D, a) == 0) == acyclic


@settings(max_examples=100, deadline=None)
@given(relations(max_n=200))
def test_cli_cycle_oracle_agrees(case):
    n, pairs = case
    assert _has_cycle(rel_model(n), Relation.from_pairs(n, pairs)) == has_cycle(n, pairs)


@settings(max_examples=100, deadline=None)
@given(relations(max_n=40))
def test_exact_loeb_is_transitive_and_noetherian_with_valid_witnesses(case):
    n, drawn = case
    D = rel_model(n)
    # the drawn relation, and its forward edges, which are acyclic
    for pairs in (drawn, {(i, j) for i, j in drawn if i < j}):
        a = Relation.from_pairs(n, pairs)
        transitive = all((i, k) in pairs for i, j in pairs for j2, k in pairs if j == j2)
        v = is_loebian(D, a, budget=1)
        assert v.note != "sampled"
        assert v.holds == (transitive and not has_cycle(n, pairs))
        if not v.holds:
            assert_valid_witness(D, is_loebian, a, v)
        if not (v.holds or has_cycle(n, pairs)):
            # the first i -> j -> k (least i, then j, then k) without i -> k
            i, j, k = min((i, j, k) for i, j in pairs for j2, k in pairs if j == j2 and (i, k) not in pairs)
            assert v.witness == D.test_from_states([j, k])


def stuck_set_by_masks(D, a, forward=False):
    """stuck_set as it was written over atom masks, a dict keyed by atom giving its position."""
    pos = {t: k for k, t in enumerate(D.atoms_below(D.test_one))}
    start, kept = [0], []
    support = [0] * len(pos)
    for t in pos:
        for u in D.atoms_below(D.image(t, a) if forward else D.preimage(a, t)):
            kept.append(pos[u])
            support[pos[u]] += 1
        start.append(len(kept))
    alive = [True] * len(pos)
    work = [k for k, c in enumerate(support) if c == 0]
    while work:
        k = work.pop()
        alive[k] = False
        for i in range(start[k], start[k + 1]):
            j = kept[i]
            support[j] -= 1
            if support[j] == 0:
                work.append(j)
    x = D.test_zero
    for t, live in zip(pos, alive):
        if live:
            x = D.test_join(x, t)
    return x


@settings(max_examples=200, deadline=None)
@given(relations(max_n=30), st.booleans())
def test_stuck_set_matches_the_mask_worklist(case, forward):
    n, pairs = case
    D = rel_model(n)
    a = Relation.from_pairs(n, pairs)
    assert stuck_set(D, a, forward) == stuck_set_by_masks(D, a, forward)


# -- cost of the exact decisions ---------------------------------------------------------


class CountingRows(list):
    """A model's preimage or image rows that count each row read by atom position into the model."""

    def __init__(self, rows, model):
        super().__init__(rows)
        self.model = model

    def __getitem__(self, k):
        self.model.atom_steps += 1
        return super().__getitem__(k)


class CountingRelModel(RelModel):
    """RelModel that counts the row lists it hands out and the single-state rows read from them.

    The fixpoint reads single-state preimages and images as rows, by atom
    position; it must not fall back to the mask-level preimage and image."""

    def __init__(self, n):
        super().__init__(n)
        self.atom_steps = 0
        self.row_lists = 0

    def preimage_rows(self, a):
        self.row_lists += 1
        return CountingRows(super().preimage_rows(a), self)

    def image_rows(self, a):
        self.row_lists += 1
        return CountingRows(super().image_rows(a), self)

    def preimage(self, a, p):
        raise AssertionError("the fixpoint asks only about single states")

    def image(self, p, a):
        raise AssertionError("the fixpoint asks only about single states")


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("check", [is_noetherian, is_well_founded])
def test_exact_decisions_take_at_most_n_atom_steps(check, cyclic):
    n = 2000
    pairs = [(i, i + 1) for i in range(1, n)] + ([(n, n - 1)] if cyclic else [])
    D = CountingRelModel(n)
    v = check(D, Relation.from_pairs(n, pairs))
    assert v.holds == (not cyclic) and v.note != "sampled"
    assert D.row_lists == 1 and D.atom_steps <= n
    # the rows read by position are those of the atoms outside the stuck set, each once
    assert D.atom_steps == n - (len(D.atom_positions(v.witness)) if cyclic else 0)
    if cyclic:
        # every state of the chain reaches the 2-cycle (is reached from it, forwards)
        expect = D.test_one if check is is_noetherian else D.test_from_states([n - 1, n])
        assert v.witness == expect


@pytest.mark.parametrize("cyclic", [False, True])
def test_exact_report_takes_at_most_2n_atom_steps(cyclic):
    # the report shares one stuck set between Noethericity and the Löb property
    n = 2000
    pairs = [(i, i + 1) for i in range(1, n)] + ([(n, n - 1)] if cyclic else [])
    a = Relation.from_pairs(n, pairs)
    D = CountingRelModel(n)
    rep = termination_report(D, a)
    assert D.row_lists == 2 and 0 < D.atom_steps <= 2 * n
    E = RelModel(n)
    assert rep == TerminationReport(E.el_name(a), is_noetherian(E, a), is_well_founded(E, a), is_loebian(E, a))
    assert not rep.loebian.holds


@pytest.mark.parametrize("run", [reach_naive, reach_efficient])
@pytest.mark.parametrize("cyclic", [False, True])
def test_reach_preimage_evals_count_the_preimage_reads(run, cyclic):
    # reach grows its result with the stuck set's worklist; its cost is what it reads
    n = 300
    pairs = [(i, i + 1) for i in range(1, n)] + ([(n, n - 1)] if cyclic else [])
    D = CountingRelModel(n)
    res = run(D, Relation.from_pairs(n, pairs), D.test_from_states([n - 1]))
    assert res.result == (D.test_one if cyclic else D.test_from_states(range(1, n)))
    assert D.row_lists == 1 and res.preimage_evals == D.atom_steps


def test_default_subject_is_formatted_when_first_read(monkeypatch):
    names = []
    monkeypatch.setattr(RelModel, "el_name", lambda self, a: names.append(a) or "R")
    a = Relation.from_pairs(3, [(1, 2), (2, 3)])
    rep = termination_report(rel_model(3), a)
    assert names == []
    assert str(rep) == "R: noetherian=true well_founded=true loebian=false (witness a:p not below a:(p - a:p) at p = {2,3})"
    assert rep.subject == "R" and names == [a]
    assert termination_report(rel_model(3), a, subject="step").subject == "step" and names == [a]


def test_a_long_chain_is_decided_in_memory_linear_in_its_edges():
    # n-bit successor rows took about n^2/16 bytes: 67 MB traced at this size
    n = 30_000
    tracemalloc.start()
    try:
        a = Relation.from_pairs(n, [(i, i + 1) for i in range(1, n)])
        D = rel_model(n)
        rep = termination_report(D, a, subject="R")
        reached = reach_efficient(D, a, D.test_from_states([n]))
        cyclic = _has_cycle(D, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(rep) == "R: noetherian=true well_founded=true loebian=false (witness a:p not below a:(p - a:p) at p = {2,3})"
    assert reached.result == D.test_one and not cyclic
    assert peak < 25 * 2**20
