"""Reachability by iterated preimage: correctness against graph search,
cost accounting, the worklist's trace, and the star-preimage law suite."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kadlib.algebra import TestAlgebra, all_hold, failures
from kadlib.domain import DomainStructure, compute_predomain
from kadlib.models import Relation, conway_model, rel_model, rel_semiring, rel_tests
from kadlib.reach import ReachResult, check_star_preimage_laws, reach_efficient, reach_naive
from test_laws import uncertified


def chain_model(n):
    D = rel_model(n)
    a = Relation.from_pairs(n, [(i, i + 1) for i in range(1, n)])
    return D, a


def reverse_bfs(n, pairs, targets):
    reached = set(targets)
    frontier = list(targets)
    while frontier:
        j = frontier.pop()
        for i, j2 in pairs:
            if j2 == j and i not in reached:
                reached.add(i)
                frontier.append(i)
    return reached


def random_pairs(rng, n, density=0.25):
    return {
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density
    }


# -- correctness ----------------------------------------------------------------


def test_reach_agrees_with_graph_search():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randrange(2, 9)
        pairs = random_pairs(rng, n)
        targets = (
            {rng.randrange(1, n + 1)}
            if rng.random() < 0.5
            else {s for s in range(1, n + 1) if rng.random() < 0.4}
        )
        D = rel_model(n)
        a = Relation.from_pairs(n, pairs)
        p = D.test_from_states(targets)
        want = reverse_bfs(n, pairs, targets)
        naive = reach_naive(D, a, p)
        eff = reach_efficient(D, a, p)
        assert set(D.test_states(naive.result)) == want
        assert eff.result == naive.result
        # both compute the backward star image
        assert naive.result == D.preimage(D.star(a), p)


def test_reach_on_table_backed_domain():
    S = rel_semiring(2)
    D = compute_predomain(S, rel_tests(2))
    a = S.index("{(1,2)}")
    p = S.index("{(2,2)}")
    res = reach_naive(D, a, p)
    assert S.element_name(res.result) == "{(1,1),(2,2)}"
    assert reach_efficient(D, a, p).result == res.result


# -- cost accounting ---------------------------------------------------------------


def test_chain_costs_show_the_quadratic_gap():
    D, a = chain_model(6)
    p = D.test_from_states([6])
    naive = reach_naive(D, a, p)
    eff = reach_efficient(D, a, p)
    assert set(D.test_states(naive.result)) == {1, 2, 3, 4, 5, 6}
    # one sweep per new state, re-evaluating everything collected so far
    assert naive.iterations == 6
    assert naive.preimage_evals == 21
    # the worklist expands each state exactly once
    assert eff.iterations == 5
    assert eff.preimage_evals == 6
    assert eff.preimage_evals < naive.preimage_evals


def test_full_target_needs_no_expansion():
    D, a = chain_model(6)
    p = D.test_one
    eff = reach_efficient(D, a, p)
    assert eff.result == p
    assert eff.iterations == 0
    assert eff.preimage_evals == 6  # one look per target atom


def test_empty_target_stays_empty():
    D, a = chain_model(4)
    res = reach_naive(D, a, D.test_zero)
    assert res.result == D.test_zero
    assert D.test_name(res.result) == "{}"
    assert res.preimage_evals == 0
    eff = reach_efficient(D, a, D.test_zero)
    assert eff.result == D.test_zero and eff.preimage_evals == 0


def test_efficient_never_costs_more():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randrange(2, 8)
        D = rel_model(n)
        a = Relation.from_pairs(n, random_pairs(rng, n))
        p = D.test_from_states({s for s in range(1, n + 1) if rng.random() < 0.3})
        naive = reach_naive(D, a, p)
        eff = reach_efficient(D, a, p)
        assert eff.preimage_evals <= naive.preimage_evals
        if eff.result != p:
            assert eff.preimage_evals < naive.preimage_evals


# -- iteration structure --------------------------------------------------------------


def reach_by_scan(D, a, p, order):
    """reach_efficient as it was written with a list frontier, scanned for
    its first least (asc) or greatest (desc) atom on every step."""
    reached, evals, expansions, frontier = p, 0, 0, []

    def push_new(pre):
        frontier.extend(b for b in D.atoms_below(pre) if not D.test_leq(b, reached))

    for atom in D.atoms_below(p):
        evals += 1
        push_new(D.preimage(a, atom))
    while frontier:
        pick = min if order == "asc" else max
        atom = frontier.pop(pick(range(len(frontier)), key=lambda k: frontier[k]))
        if D.test_leq(atom, reached):
            continue
        reached = D.test_join(reached, atom)
        expansions += 1
        evals += 1
        push_new(D.preimage(a, atom))
    return reached, expansions, evals


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.sampled_from([0.05, 0.15, 0.4]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["asc", "desc"]),
)
def test_heap_frontier_matches_the_scanned_list(n, density, seed, order):
    rng = random.Random(seed)
    D = rel_model(n)
    a = Relation.from_pairs(n, random_pairs(rng, n, density))
    p = D.test_from_states({s for s in range(1, n + 1) if rng.random() < 0.2})
    assert_matches_the_scan(D, a, p, order)


def test_heap_frontier_matches_the_scanned_list_on_tables():
    D = compute_predomain(rel_semiring(2), rel_tests(2))
    for a in D.elements():
        for p in D.test_members():
            for order in ("asc", "desc"):
                assert_matches_the_scan(D, a, p, order)


def assert_matches_the_scan(D, a, p, order):
    """reach_efficient agrees with the scan, whose expansion order does not
    change what it costs, and its trace adds one atom per step from p."""
    res = reach_efficient(D, a, p)
    assert (res.result, res.iterations, res.preimage_evals) == reach_by_scan(D, a, p, order)
    assert res.trace[0] == p and res.trace[-1] == res.result
    for lo, hi in zip(res.trace, res.trace[1:]):
        assert D.test_leq(lo, hi) and len(D.atoms_below(hi)) == len(D.atoms_below(lo)) + 1


def test_trace_is_an_ascending_chain():
    D, a = chain_model(5)
    p = D.test_from_states([5])
    for res in (reach_naive(D, a, p), reach_efficient(D, a, p)):
        for lo, hi in zip(res.trace, res.trace[1:]):
            assert D.test_leq(lo, hi) and lo != hi
        assert res.trace[-1] == res.result


def test_results_print_and_compare_without_their_model():
    D, a = chain_model(3)
    p = D.test_from_states([3])
    r, naive = reach_efficient(D, a, p), reach_naive(D, a, p)
    assert repr(r) == "ReachResult(result=7, iterations=2, preimage_evals=3)"
    assert repr(naive) == "ReachResult(result=7, iterations=3, preimage_evals=6)"
    # the same run over another model object, its trace already read
    other = reach_efficient(rel_model(3), a, p)
    assert other.trace == (4, 6, 7) and other._model is not r._model
    assert other == r and hash(other) == hash(r)
    # the trace's fields are compared though repr leaves them out
    assert ReachResult(7, 2, 3, p, r._added, (2,), D) != r == ReachResult(7, 2, 3, p, r._added, r._ends, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'result'"):
        r.result = 0
    with pytest.raises(AttributeError, match="cannot delete field '_model'"):
        del r._model


def test_result_is_the_least_prefixpoint():
    rng = random.Random(23)
    D = rel_model(5)
    for _ in range(30):
        a = D.sample(rng)
        p = D.sample_test(rng)
        x = reach_naive(D, a, p).result
        assert D.test_leq(p, x)
        assert D.test_leq(D.preimage(a, x), x)
        for q in D.test_members():
            if D.test_leq(p, q) and D.test_leq(D.preimage(a, q), q):
                assert D.test_leq(x, q)


def test_monotone_in_the_target():
    rng = random.Random(24)
    D = rel_model(5)
    for _ in range(30):
        a = D.sample(rng)
        p = D.sample_test(rng)
        q = D.test_join(p, D.sample_test(rng))
        assert D.test_leq(reach_naive(D, a, p).result, reach_naive(D, a, q).result)


# -- guards ------------------------------------------------------------------------------


def test_efficient_requires_locality():
    S = conway_model("A3_2")
    D = compute_predomain(S, TestAlgebra.discrete(S))
    assert "dloc" not in D.laws
    with pytest.raises(ValueError, match="requires locality"):
        reach_efficient(D, S.index("a"), S.one)
    # the naive sweep has no such requirement
    assert reach_naive(D, S.index("a"), S.one).result == S.one


# -- the star-preimage law suite -----------------------------------------------------------


# how each star/preimage law is certified where the laws its derivation uses hold, as on every relation model
CERTIFIED_NOTES = {
    "star-of-domain": "certified by star-left-induction",
    "domain-of-star": "certified by d1",
    "invariant-star": "certified by star-left-induction",
    "preimage-star-induction": "certified by invariant-star",
    "frontier-bound": "certified by preimage-star-induction",
    "frontier-decomposition": "certified by preimage-star-induction",
    "preimage-horn-induction": "certified by preimage-star-induction",
}


def test_star_preimage_laws_exhaustive_on_relations():
    # every law is certified by its derivation before any instance is listed; taken uncertified, each
    # law is scanned in full but the horn law, which keeps its certificate
    for n in (2, 3):
        rep = check_star_preimage_laws(rel_model(n))
        assert all_hold(rep), (n, [str(r) for r in failures(rep)])
        assert {r.name: r.note for r in rep} == CERTIFIED_NOTES
        assert {r.name for r in rep} == {
            "star-of-domain",
            "domain-of-star",
            "invariant-star",
            "preimage-star-induction",
            "frontier-bound",
            "frontier-decomposition",
            "preimage-horn-induction",
        }


def test_horn_induction_on_the_rel3_predomain_is_certified(monkeypatch):
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    rep = check_star_preimage_laws(D)
    assert all_hold(rep)
    assert {r.name: r.note for r in rep} == CERTIFIED_NOTES
    uncertified(monkeypatch)
    rep = check_star_preimage_laws(D)
    assert all_hold(rep)
    assert {r.name: r.note for r in rep if r.note != "exhaustive"} == {
        "preimage-horn-induction": "certified by preimage-star-induction"
    }


def test_star_preimage_laws_gate_on_locality():
    S = conway_model("A3_2")
    D = compute_predomain(S, TestAlgebra.discrete(S))
    rep = {r.name: r for r in check_star_preimage_laws(D)}
    for name in ("star-of-domain", "domain-of-star", "invariant-star"):
        assert rep[name].holds and rep[name].note == CERTIFIED_NOTES[name]
    for name in (
        "preimage-star-induction",
        "frontier-bound",
        "frontier-decomposition",
        "preimage-horn-induction",
    ):
        assert rep[name].holds
        assert rep[name].note == "not applicable: no locality"


def test_star_preimage_laws_catch_a_broken_domain():
    # constantly-zero dom is local but not a domain; the star laws see it
    S = conway_model("A2")
    T = TestAlgebra.discrete(S)
    D = DomainStructure(S, T, delta=[0, 0], rho=[0, 0])
    assert "dloc" in D.laws
    rep = {r.name: r for r in check_star_preimage_laws(D)}
    assert not rep["domain-of-star"].holds
    assert rep["domain-of-star"].witness == {"a": "0"}


def test_a_budget_past_what_a_relation_model_lists_samples(monkeypatch):
    # rel(5) has 2^25 elements; RelModel lists them only for n <= 4; the laws are taken uncertified
    uncertified(monkeypatch)
    rep = check_star_preimage_laws(rel_model(5), budget=10**9)
    assert all_hold(rep)
    assert all(r.note == "sampled (1000)" for r in rep)


def test_small_budget_falls_back_to_sampling(monkeypatch):
    uncertified(monkeypatch)
    rep = check_star_preimage_laws(rel_model(2), samples=50, rng=random.Random(3), budget=4)
    assert all_hold(rep)
    assert all(r.note == "sampled (50)" for r in rep)
