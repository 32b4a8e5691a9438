"""Hand-checked cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py

The expected values are worked out by hand; several repeat the pinned
outputs of the kad CLI tests on the same three-state chain.
"""

import oracles as o
import workloads as w

# 1 -> 2 -> 3, and a self-loop on state 1
CHAIN = o.rows_from_edges(3, [(1, 2), (2, 3)])
LOOP = o.rows_from_edges(3, [(1, 1)])
FULL3 = 0b111


def test_sets_and_steps():
    assert o.mask_of([1, 3]) == 0b101
    assert o.states_of(0b110) == [2, 3]
    assert o.image(CHAIN, o.mask_of([1])) == o.mask_of([2])
    assert o.preimage(CHAIN, o.mask_of([3])) == o.mask_of([2])
    assert o.converse(CHAIN) == o.rows_from_edges(3, [(2, 1), (3, 2)])


def test_backward_reach():
    assert o.backward_reach(CHAIN, o.mask_of([3])) == FULL3
    assert o.backward_reach(CHAIN, o.mask_of([2])) == o.mask_of([1, 2])
    assert o.backward_reach(CHAIN, 0) == 0
    assert o.backward_reach(LOOP, o.mask_of([1])) == o.mask_of([1])


def test_termination_truth():
    assert o.termination_truth(CHAIN) == (True, True, False)  # 1 -> 3 is missing
    closed = o.rows_from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert o.termination_truth(closed) == (True, True, True)
    assert o.termination_truth(LOOP) == (False, False, False)
    two_cycle = o.rows_from_edges(3, [(1, 2), (2, 3), (3, 2)])
    assert o.termination_truth(two_cycle) == (False, False, False)


def test_first_termination_witnesses():
    # the CLI tests pin "a:p not below a:(p - a:p) at p = {2,3}" and "p <= a:p at p = {1}"
    assert o.first_termination_witnesses(CHAIN) == (None, None, o.mask_of([2, 3]))
    assert o.first_termination_witnesses(LOOP) == (o.mask_of([1]), o.mask_of([1]), o.mask_of([1]))


def test_while_program_semantics():
    sets = {"atEnd": o.mask_of([3])}
    env = {"step": CHAIN}
    main = ("while", ("not", ("ref", "atEnd")), ("prim", "step"))
    assert o.post(main, FULL3, env, sets, FULL3) == o.mask_of([3])
    assert o.triple_escape(("true",), main, ("ref", "atEnd"), env, sets, FULL3) is None
    # {true} step {atEnd}: state 2 is reached from 1 and is not at the end
    assert o.triple_escape(("true",), ("prim", "step"), ("ref", "atEnd"), env, sets, FULL3) == 2
    cond = ("if", ("ref", "atEnd"), ("skip",), ("abort",))
    assert o.post(cond, FULL3, env, sets, FULL3) == o.mask_of([3])


def test_proof_validation():
    sets = {"atEnd": o.mask_of([3])}
    env = {"step": CHAIN}
    T, step = ("ref", "atEnd"), ("prim", "step")
    main = ("while", ("not", T), step)
    leaf = ("axiom", (("and", ("not", T), ("true",)), step, ("true",)), [])
    good = ("while", (("true",), main, ("and", ("not", ("not", T)), ("true",))), [leaf])
    assert o.first_invalid_node(good, env, sets, FULL3) is None
    bad_leaf = ("axiom", (("true",), step, T), [])
    assert o.first_invalid_node(bad_leaf, env, sets, FULL3) == "root"
    # premise postcondition is not the invariant
    wrong_inv = ("while", (("true",), main, ("and", ("not", ("not", T)), ("true",))), [("axiom", (("and", ("not", T), ("true",)), step, T), [])])
    assert o.first_invalid_node(wrong_inv, env, sets, FULL3) == "root"
    # a valid root over an invalid leaf points at the leaf
    weak = ("weakening", (("false",), main, ("true",)), [good])
    assert o.first_invalid_node(weak, env, sets, FULL3) is None
    broken = ("weakening", (("false",), main, ("true",)), [("while", good[1], [bad_leaf])])
    assert o.first_invalid_node(broken, env, sets, FULL3) == "root.premise[0]"


def test_relation_elements():
    add, mul, star = o.rel_element_ops(2)
    e12, e21 = 0b0010, 0b0100  # bit i*2+j for the edge i+1 -> j+1
    assert mul(e12, e21) == 0b0001  # (1,2);(2,1) = (1,1)
    assert mul(e21, e12) == 0b1000
    assert star(e12) == 0b1011  # identity plus (1,2)
    assert add(e12, e21) == 0b0110


def test_first_equation_failure():
    x, y = ("var", "x"), ("var", "y")
    # x = (1,1), y = (1,2): xy = (1,2) but yx is empty
    assert o.first_equation_failure(("mul", x, y), ("mul", y, x), "eq", 2) == {"x": 1, "y": 2}
    assert o.first_equation_failure(("mul", x, y), ("mul", y, x), "eq", 3) == {"x": 1, "y": 2}
    slide = (("mul", ("star", ("mul", x, y)), x), ("mul", x, ("star", ("mul", y, x))))
    assert o.first_equation_failure(*slide, "eq", 2) is None
    assert o.first_equation_failure(x, ("add", x, y), "leq", 2) is None


def test_law_scans_on_small_tables():
    _, A, M, ST, zero, one = w.BUILTINS["A2"]
    assert all(wit is None for _, wit in o.isemiring_laws(A, M, zero, one))
    assert all(wit is None for _, wit in o.kleene_laws(A, M, ST, zero, one))
    broken_add = [[0, 0], [1, 1]]  # 0 + 1 = 0 but 1 + 0 = 1
    laws = dict(o.isemiring_laws(broken_add, M, zero, one))
    assert laws["add-commutative"] == {"a": 0, "b": 1}
    laws = dict(o.kleene_laws(A, M, [0, 1], zero, one))  # 0* = 0
    assert laws["star-left-unfold"] == {"a": 0}
    assert laws["one-below-star"] == {"a": 0}


def test_rel_tables_match_the_element_ops():
    A, M, ST, zero, one = o.rel_tables(2)
    assert (zero, one) == (0, 0b1001)
    assert all(wit is None for _, wit in o.isemiring_laws(A, M, zero, one))
    assert all(wit is None for _, wit in o.kleene_laws(A, M, ST, zero, one))


def test_generators_are_seeded(tmp_path):
    a = w.generate("laws-small", 3, str(tmp_path))
    (tmp_path / "again").mkdir()
    b = w.generate("laws-small", 3, str(tmp_path / "again"))
    strip = lambda jobs: [{k: v for k, v in j.items() if k != "argv"} for j in jobs]  # noqa: E731
    assert strip(a.jobs) == strip(b.jobs) and a.expect == b.expect
