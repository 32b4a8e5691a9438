"""Core algebra layer: dense-table semirings, law checkers, term evaluation."""

import re

import numpy as np
import pytest

from kadlib.algebra import (
    FiniteSemiring,
    Law,
    LawReport,
    TestAlgebra,
    Term,
    Verdict,
    all_hold,
    check_equation,
    check_isemiring,
    check_kleene,
    check_laws,
    check_test_algebra,
    eval_term,
    failures,
    one_term,
    opposite,
    star,
    var,
)
from kadlib.cli import Workspace
from kadlib.domain import DomainStructure, compute_predomain, run_laws
from kadlib.laws import eq
from kadlib.models import conway_model, conway_names, materialize, rel_model, rel_semiring, rel_tests
from kadlib.termination import termination_report


def boolean_semiring():
    return conway_model("A2")


def test_builtin_models_pass_all_laws():
    for name in conway_names():
        S = conway_model(name)
        assert all_hold(check_isemiring(S)), name
        assert all_hold(check_kleene(S)), name
        assert all_hold(check_test_algebra(TestAlgebra.discrete(S))), name


def test_three_element_models_differ_as_printed():
    # the three 3-element models share a carrier but differ in the tables
    a31, a32, a33 = (conway_model(n) for n in ("A3_1", "A3_2", "A3_3"))
    a = a31.index("a")
    one = a31.one
    # first variant: 1 <= a, a absorbs the unit
    assert int(a31.add[a, one]) == a
    assert int(a31.mul[a, a]) == a
    assert int(a31.star[a]) == a
    # second variant: a <= 1 and a is nilpotent
    assert int(a32.add[a, one]) == one
    assert int(a32.mul[a, a]) == a32.zero
    assert int(a32.star[a]) == one
    # third variant: a <= 1 and a is idempotent
    assert int(a33.add[a, one]) == one
    assert int(a33.mul[a, a]) == a
    assert int(a33.star[a]) == one


def test_four_element_model_star_values():
    S = conway_model("A4_1")
    a, b = S.index("a"), S.index("b")
    assert int(S.star[a]) == S.one
    assert int(S.star[b]) == b
    assert int(S.mul[a, b]) == a


def test_natural_order_chain():
    S = conway_model("A3_1")
    zero, a, one = S.index("0"), S.index("a"), S.index("1")
    assert S.leq(zero, one) and S.leq(one, a) and S.leq(zero, a)
    assert not S.leq(a, one) and not S.leq(one, zero)


def test_subidentities_and_top():
    S = conway_model("A3_3")
    subs = [S.element_name(x) for x in S.subidentities()]
    assert subs == ["0", "a", "1"]
    assert S.top() == S.index("1")
    assert conway_model("A3_1").top() == conway_model("A3_1").index("a")


def test_broken_add_idempotence_is_reported():
    # xor instead of or: 1 + 1 = 0
    S = FiniteSemiring(("0", "1"), [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1)
    rep = {r.name: r for r in check_isemiring(S)}
    assert not rep["add-idempotent"].holds
    assert rep["add-idempotent"].witness == {"a": 1}


def test_broken_associativity_is_reported_with_triple():
    base = conway_model("A3_1")
    mul = np.array(base.mul)
    mul[0, 0] = 2  # 0*0 := 1, so (0*0)*a = a while 0*(0*a) = 1
    S = FiniteSemiring(("0", "a", "1"), np.array(base.add), mul, 0, 2)
    rep = {r.name: r for r in check_isemiring(S)}
    assert not rep["mul-associative"].holds
    w = rep["mul-associative"].witness
    assert set(w) == {"a", "b", "c"}
    x, y, z = w["a"], w["b"], w["c"]
    assert int(mul[mul[x, y], z]) != int(mul[x, int(mul[y, z])])


def test_star_axiom_violation_detected():
    # star that forgets the reflexive part: a* := a on the boolean model
    S = FiniteSemiring(("0", "1"), [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, star=[0, 1])
    rep = {r.name: r for r in check_kleene(S)}
    assert not rep["star-left-unfold"].holds or not rep["one-below-star"].holds


def test_zero_equals_one_rejected():
    # the constructor refuses the trivial semiring outright
    with pytest.raises(ValueError):
        FiniteSemiring(("x", "y"), [[0, 1], [1, 1]], [[0, 1], [1, 1]], 0, 0)
    rep = {r.name: r for r in check_isemiring(boolean_semiring())}
    assert rep["zero-not-one"].holds


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteSemiring(("0", "1"), [[0, 1]], [[0, 0], [0, 1]], 0, 1)  # ragged add
    with pytest.raises(ValueError):
        FiniteSemiring(("0", "1"), [[0, 5], [1, 1]], [[0, 0], [0, 1]], 0, 1)  # range
    with pytest.raises(ValueError):
        FiniteSemiring(("0", "0"), [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)  # dup names


A2 = conway_model("A2")
# A2 without its star table
NO_STAR = FiniteSemiring(("0", "1"), [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, name="nostar")
REFUSED = {
    # name: (a call with an argument out of its domain, the ValueError's whole message)
    "carrier-of-one": (lambda: FiniteSemiring(("0",), [[0]], [[0]], 0, 0), "carrier needs at least the two constants 0 and 1"),
    "one-outside-the-carrier": (lambda: FiniteSemiring(("0", "1"), A2.add, A2.mul, 0, 2), "zero/one must be carrier indices"),
    "no-test": (lambda: TestAlgebra(A2, [], {}), "a test algebra needs at least one member"),
    "test-outside-the-carrier": (lambda: TestAlgebra(A2, [0, 5], {0: 5, 5: 0}), "member 5 is not a carrier index"),
    "complement-outside-the-tests": (lambda: TestAlgebra(A2, [0], {0: 1}), "compl must map members to members"),
    "relation-neither-eq-nor-leq": (lambda: check_equation(var("a"), var("a"), "lt", S=A2), "rel must be 'eq' or 'leq'"),
    "equation-without-a-semiring": (lambda: check_equation(var("a"), var("a")), "a semiring is required"),
    "kleene-without-a-star-table": (lambda: check_kleene(NO_STAR), "nostar declares no star table"),
    "tests-of-another-semiring": (
        lambda: DomainStructure(conway_model("A3_1"), TestAlgebra.discrete(A2), [0, 2, 2], [0, 2, 2]),
        "test algebra belongs to a different semiring",
    ),
    "unbound-variable-in-a-table-scan": (lambda: check_laws([Law("x", "a", eq(var("b"), var("a")))], conway_model("A2")), "unbound variable 'b'"),
    # laws checked through a model's own methods
    "unbound-variable": (lambda: run_laws([Law("x", "a", eq(var("b"), var("a")))], rel_model(2), 10**6, 0), "unbound variable 'b'"),
    "unknown-term-op": (lambda: run_laws([Law("x", "a", eq(Term("foo", (var("a"),)), var("a")))], rel_model(2), 10**6, 0), "unknown term op 'foo'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_arguments_out_of_their_domain_are_refused_by_name(case):
    call, message = REFUSED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_tables_are_frozen():
    S = boolean_semiring()
    with pytest.raises(ValueError):
        S.add[0, 0] = 1


def test_opposite_swaps_multiplication():
    S = rel_semiring(2)
    So = opposite(S)
    assert np.array_equal(So.mul, np.asarray(S.mul).T)
    assert np.array_equal(So.add, S.add)
    assert all_hold(check_isemiring(So))
    assert opposite(So) == S


def test_discrete_test_algebra():
    S = conway_model("A3_1")
    T = TestAlgebra.discrete(S)
    assert sorted(T.members) == sorted([S.zero, S.one])
    assert T.complement(S.zero) == S.one
    assert T.atoms() == [S.one]
    assert compute_predomain(S, T).atoms_below(S.zero) == []


def test_relational_test_algebra_atoms():
    T = rel_tests(2)
    atoms = T.atoms()
    assert len(atoms) == 2
    full = T.join(atoms[0], atoms[1])
    assert full == T.one if hasattr(T, "one") else True
    assert sum(T.leq(q, full) for q in T.members) == len(T.members)


def test_check_equation_holds_and_fails():
    S = boolean_semiring()
    T = TestAlgebra.discrete(S)
    a, b, c = var("a"), var("b"), var("c")
    v = check_equation(a * (b + c), a * b + a * c, "eq", S, T)
    assert v.holds
    v = check_equation(a + b, a * b, "eq", S, T)
    assert not v.holds
    assert v.witness  # names the offending pair
    # leq relation form
    v = check_equation(a, a + b, "leq", S, T)
    assert v.holds


def test_check_equation_test_variables_range_over_tests_only():
    S = conway_model("A3_1")
    T = TestAlgebra.discrete(S)
    p = var("p")
    # p * p = p holds for tests; over the full carrier a*a = a happens to
    # hold here too, so contrast on A3_2 where a is nilpotent
    S2 = conway_model("A3_2")
    T2 = TestAlgebra.discrete(S2)
    assert check_equation(p * p, p, "eq", S2, T2).holds
    x = var("x")
    assert not check_equation(x * x, x, "eq", S2, T2).holds
    assert check_equation(p * p, p, "eq", S, T).holds


def test_eval_term_star_and_env():
    S = conway_model("A3_2")
    env = {"x": S.index("a")}
    t = star(var("x"))
    assert eval_term(t, env, S) == S.one


def test_term_repr_is_readable():
    t = star(var("a") * var("b") + var("c"))
    s = str(t)
    assert "a" in s and "*" in s or "star" in s


def test_powers_below_star_witness_shape():
    # break star on a model with a genuinely growing power sequence
    S = rel_semiring(2)
    bad_star = list(range(S.n))  # identity map as a fake star
    S2 = FiniteSemiring(
        [S.element_name(i) for i in range(S.n)], np.array(S.add), np.array(S.mul), S.zero, S.one, star=bad_star
    )
    rep = {r.name: r for r in check_kleene(S2)}
    assert not all_hold(rep.values())


def test_law_report_str():
    S = boolean_semiring()
    rep = check_isemiring(S)
    assert all("holds" in str(r) or "FAILS" in str(r) for r in rep)


def test_shunting_equivalences_on_relations():
    rep = {r.name: r for r in check_test_algebra(rel_tests(2))}
    assert rep["shunting-right"].holds
    assert rep["shunting-left"].holds


def test_value_classes_print_and_compare_as_frozen_dataclasses():
    a = var("a")
    law = Law("x", "a b", a, a, tests="p")
    assert (law.vars, law.premises, law.tests) == (("a", "b"), (a,), ("p",)) and law == Law("x", ("a", "b"), a, (a,), ("p",))
    a_text = "Term(op='var', args=(), name='a')"
    assert repr(law) == f"Law(name='x', vars=('a', 'b'), concl={a_text}, premises=({a_text},), tests=('p',), requires=())"
    assert repr(a * one_term) == f"Term(op='mul', args=({a_text}, Term(op='one', args=(), name='')), name='')"
    assert repr(LawReport("assoc", False, {"a": 1})) == "LawReport(name='assoc', holds=False, witness={'a': 1}, note='')"
    assert repr(Verdict(False, witness=3, note="n")) == "Verdict(holds=False, witness=3, note='n')"
    assert repr(Workspace(n=2)) == (
        "Workspace(semiring=None, tests=None, n=2, relations={}, sets={}, programs={}, env={}, triples={}, proofs={})"
    )
    # equal fields of the same type are equal values with one hash; another type or field is not equal
    assert Term("var", (), "a") == a and hash(Term("var", (), "a")) == hash(a) and a != var("b")
    assert Verdict(True) == Verdict(True, None, "") and hash(Verdict(True)) == hash(Verdict(True, None, ""))
    assert Verdict(True, None, "") != LawReport("", True, None, "") and Verdict(True) != (True, None, "")
    assert Workspace() == Workspace() and Workspace().relations is not Workspace().relations
    report = termination_report(rel_model(1), rel_model(1).zero, subject="0")
    values = [law, a, LawReport("assoc", True), Verdict(True), Workspace(), materialize(rel_model(1)), report]
    for value in values:
        with pytest.raises(AttributeError, match="cannot assign to field 'note'"):
            value.note = "changed"
        with pytest.raises(AttributeError, match="cannot delete field 'name'"):
            del value.name
