"""Propositional Hoare logic: program denotations, triple checking,
proof tree validation with a soundness fuzz, and weakest liberal
preconditions."""

import copy
import random

import hypothesis
import hypothesis.strategies as strat
import pytest

from kadlib.algebra import TestAlgebra, all_hold, failures
from kadlib.cli import parse_program, parse_test
from kadlib.domain import compute_predomain
from kadlib.hoare import (
    Cond,
    HoareTriple,
    Prim,
    ProofTree,
    Seq,
    TAnd,
    TFalse,
    TNot,
    TOr,
    TRef,
    TStates,
    TTrue,
    While,
    _Node,
    check_hoare_rules,
    check_triple,
    denote,
    eval_test,
    validate_proof,
    wlp,
)
from kadlib.models import Relation, conway_model, rel_model, rel_semiring, rel_tests
from test_laws import uncertified


@pytest.fixture
def chain3():
    D = rel_model(3)
    env = {"step": Relation.from_pairs(3, [(1, 2), (2, 3)])}
    return D, env


# -- test expressions --------------------------------------------------------


def test_eval_test_connectives():
    D = rel_model(2)
    t1, t2 = D.test_from_states([1]), D.test_from_states([2])
    tenv = {"p": t1, "q": t2}
    assert eval_test(TTrue(), D) == D.test_one
    assert eval_test(TFalse(), D) == D.test_zero
    assert eval_test(TRef("p"), D, tenv) == t1
    assert eval_test(TAnd(TRef("p"), TRef("q")), D, tenv) == D.test_zero
    assert eval_test(TOr(TRef("p"), TRef("q")), D, tenv) == D.test_one
    assert eval_test(TNot(TRef("p")), D, tenv) == t2
    assert eval_test(TStates((1, 2)), D) == D.test_one
    # raw test values pass through untouched
    assert eval_test(t1, D) == t1


def test_eval_test_errors():
    D = rel_model(2)
    with pytest.raises(ValueError, match="unresolved test name"):
        eval_test(TRef("missing"), D, {})
    S = conway_model("A2")
    DS = compute_predomain(S, TestAlgebra.discrete(S))
    with pytest.raises(ValueError, match="relational model"):
        eval_test(TStates((1,)), DS)


# -- denotations ---------------------------------------------------------------


def test_denote_primitives(chain3):
    D, env = chain3
    assert denote(Prim("step"), env, D) == env["step"]
    assert denote(Prim("skip"), env, D) == D.one
    assert denote(Prim("abort"), env, D) == D.zero
    with pytest.raises(ValueError, match="unresolved primitive action"):
        denote(Prim("jump"), env, D)


def test_skip_and_abort_are_1_and_0_whatever_env_binds(chain3):
    D, env = chain3
    rebound = {**env, "skip": env["step"], "abort": env["step"]}
    assert denote(Prim("skip"), rebound, D) == D.one
    assert denote(Prim("abort"), rebound, D) == D.zero
    assert denote(Seq(Prim("step"), Prim("skip")), rebound, D) == env["step"]


def test_denote_composite_forms(chain3):
    D, env = chain3
    two_steps = denote(Seq(Prim("step"), Prim("step")), env, D)
    assert set(two_steps.pairs()) == {(1, 3)}
    # a conditional on a decided test picks one branch
    assert denote(Cond(TTrue(), Prim("step"), Prim("abort")), env, D) == env["step"]
    # while false does nothing; while true on skip never exits
    assert denote(While(TFalse(), Prim("step")), env, D) == D.one
    assert denote(While(TTrue(), Prim("skip")), env, D) == D.zero


def test_denote_loop_runs_to_the_exit(chain3):
    D, env = chain3
    # keep stepping while not at state 3: from anywhere, ends at 3 (or stalls)
    prog = While(TNot(TStates((3,))), Prim("step"))
    a = denote(prog, env, D)
    assert set(a.pairs()) == {(1, 3), (2, 3), (3, 3)}


def test_denote_on_table_backed_model():
    S = conway_model("A3_1")
    D = compute_predomain(S, TestAlgebra.discrete(S))
    env = {"act": S.index("a")}
    assert denote(Prim("act"), env, D) == S.index("a")
    assert denote(Cond(TTrue(), Prim("skip"), Prim("abort")), env, D) == S.one
    assert denote(While(TFalse(), Prim("act")), env, D) == S.one


# -- triples ----------------------------------------------------------------------


def test_check_triple_holds(chain3):
    D, env = chain3
    t = HoareTriple(TStates((1,)), Prim("step"), TStates((2,)))
    assert check_triple(t, env, D).holds


def test_check_triple_failure_names_the_escaping_state(chain3):
    D, env = chain3
    t = HoareTriple(TStates((1, 2)), Prim("step"), TStates((2,)))
    v = check_triple(t, env, D)
    assert not v.holds
    assert D.test_name(v.witness) == "{3}"
    assert v.note == "reachable state {3} escapes the postcondition"


def test_check_triple_through_a_loop(chain3):
    D, env = chain3
    prog = While(TNot(TStates((3,))), Prim("step"))
    assert check_triple(HoareTriple(TTrue(), prog, TStates((3,))), env, D).holds


def test_triple_str_is_readable():
    t = HoareTriple("p", Prim("act"), "q")
    assert str(t) == "{p} Prim(name='act') {q}"
    # fields by position or by name, each exactly once
    assert HoareTriple(pre="p", prog=Prim(name="act"), post="q") == t == HoareTriple("p", Prim("act"), post="q")
    for args, kwargs in [((), {}), (("a", "b"), {}), (("a",), {"name": "b"}), ((), {"label": "a"})]:
        with pytest.raises(TypeError):
            Prim(*args, **kwargs)
    # every tree prints as its dataclass repr would, a one-premise tuple with its comma
    axiom = ProofTree("axiom", HoareTriple(TStates([1]), Prim("act"), 2))
    assert repr(axiom) == (
        "ProofTree(rule='axiom', conclusion=HoareTriple(pre=TStates(states=(1,)), prog=Prim(name='act'), post=2), premises=())"
    )
    assert repr(ProofTree("weakening", axiom.conclusion, [axiom])).endswith(f", premises=({axiom!r},))")
    assert repr(TAnd(TTrue(), TNot(TRef("p")))) == "TAnd(left=TTrue(), right=TNot(arg=TRef(name='p')))"


def test_reprs_of_small_trees_are_pinned():
    pre = TAnd(TRef("p"), TNot(TStates((1, 2))))
    prog = Seq(Prim("a"), Cond(TOr(TTrue(), TFalse()), Prim("b"), While(TRef("q"), Prim("skip"))))
    assert repr(HoareTriple(pre, prog, 5)) == (
        "HoareTriple(pre=TAnd(left=TRef(name='p'), right=TNot(arg=TStates(states=(1, 2)))), "
        "prog=Seq(first=Prim(name='a'), second=Cond(test=TOr(left=TTrue(), right=TFalse()), then=Prim(name='b'), "
        "orelse=While(test=TRef(name='q'), body=Prim(name='skip')))), post=5)"
    )
    axiom = HoareTriple(TStates((1,)), Prim("step"), TStates((2,)))
    axiom_text = "HoareTriple(pre=TStates(states=(1,)), prog=Prim(name='step'), post=TStates(states=(2,)))"
    proof = ProofTree(
        "composition",
        HoareTriple(TTrue(), Seq(Prim("step"), Prim("step")), TFalse()),
        (ProofTree("axiom", axiom), ProofTree("weakening", axiom, (ProofTree("axiom", axiom),))),
    )
    assert repr(proof) == (
        "ProofTree(rule='composition', conclusion=HoareTriple(pre=TTrue(), "
        "prog=Seq(first=Prim(name='step'), second=Prim(name='step')), post=TFalse()), "
        f"premises=(ProofTree(rule='axiom', conclusion={axiom_text}, premises=()), "
        f"ProofTree(rule='weakening', conclusion={axiom_text}, "
        f"premises=(ProofTree(rule='axiom', conclusion={axiom_text}, premises=()),))))"
    )
    assert repr(parse_program("a; b; c")) == (
        "Seq(first=Seq(first=Prim(name='a'), second=Prim(name='b')), second=Prim(name='c'))"
    )


def test_a_long_chain_prints_in_linear_time():
    # each step of a fold that copied its children's text took 20 s here at 3 * 10^4 actions
    n = 3 * 10**4
    text = "Seq(first=" * (n - 1) + "Prim(name='step')" + ", second=Prim(name='step'))" * (n - 1)
    assert repr(parse_program("; ".join(["step"] * n))) == text


def test_triple_reduces_to_annihilation():
    # {p} a {q} holds exactly when p a q' vanishes
    D = rel_model(2)
    rng = random.Random(40)
    for a in D.elements():
        env = {"act": a}
        for p in D.test_members():
            for q in D.test_members():
                holds = check_triple(HoareTriple(p, Prim("act"), q), env, D).holds
                dead = D.mul(D.mul(D.embed(p), a), D.embed(D.test_compl(q)))
                assert holds == (dead == D.zero)


# -- proof validation ----------------------------------------------------------------


def test_valid_proofs_for_every_rule(chain3):
    D, env = chain3
    s1, s2, s3 = (TStates((k,)) for k in (1, 2, 3))
    axiom1 = ProofTree("axiom", HoareTriple(s1, Prim("step"), s2))
    axiom2 = ProofTree("axiom", HoareTriple(s2, Prim("step"), s3))
    seq = ProofTree(
        "composition",
        HoareTriple(s1, Seq(Prim("step"), Prim("step")), s3),
        (axiom1, axiom2),
    )
    assert validate_proof(seq, env, D).holds

    weak = ProofTree("weakening", HoareTriple(s1, Prim("step"), TStates((2, 3))), (axiom1,))
    assert validate_proof(weak, env, D).holds

    guard = TStates((1,))
    cond = Cond(guard, Prim("step"), Prim("skip"))
    then_t = HoareTriple(TAnd(guard, TStates((1, 2))), Prim("step"), TStates((2,)))
    else_t = HoareTriple(TAnd(TNot(guard), TStates((1, 2))), Prim("skip"), TStates((2,)))
    cond_proof = ProofTree(
        "conditional",
        HoareTriple(TStates((1, 2)), cond, TStates((2,))),
        (ProofTree("axiom", then_t), ProofTree("axiom", else_t)),
    )
    assert validate_proof(cond_proof, env, D).holds

    # invariant: the whole state space; exit gives "at 3"
    inv = TTrue()
    guard = TNot(TStates((3,)))
    loop = While(guard, Prim("step"))
    body_t = HoareTriple(TAnd(guard, inv), Prim("step"), inv)
    loop_proof = ProofTree(
        "while",
        HoareTriple(inv, loop, TAnd(TNot(guard), inv)),
        (ProofTree("axiom", body_t),),
    )
    assert validate_proof(loop_proof, env, D).holds


def test_invalid_proofs_carry_a_path(chain3):
    D, env = chain3
    s1, s2 = TStates((1,)), TStates((2,))

    v = validate_proof(ProofTree("induction", HoareTriple(s1, Prim("step"), s2)), env, D)
    assert not v.holds and v.witness == "root"
    assert "unknown rule" in v.note

    v = validate_proof(
        ProofTree("while", HoareTriple(s1, While(TTrue(), Prim("step")), s2)), env, D
    )
    assert not v.holds and "takes 1 premises, got 0" in v.note

    # a failing axiom two levels down is located precisely
    good = ProofTree("axiom", HoareTriple(s1, Prim("step"), s2))
    bad = ProofTree("axiom", HoareTriple(s2, Prim("step"), s2))
    seq = ProofTree(
        "composition",
        HoareTriple(s1, Seq(Prim("step"), Prim("step")), s2),
        (good, bad),
    )
    v = validate_proof(seq, env, D)
    assert not v.holds
    assert v.witness == "root.premise[1]"
    assert "axiom triple does not hold" in v.note

    # weakening must widen, not narrow
    wrong = ProofTree("weakening", HoareTriple(TStates((1, 2)), Prim("step"), s2), (good,))
    v = validate_proof(wrong, env, D)
    assert not v.holds and "precondition is not below" in v.note

    # composition premises must agree on the intermediate test
    mismatched = ProofTree(
        "composition",
        HoareTriple(s1, Seq(Prim("step"), Prim("step")), s2),
        (good, ProofTree("axiom", HoareTriple(TStates((3,)), Prim("step"), s2))),
    )
    v = validate_proof(mismatched, env, D)
    assert not v.holds and "intermediate tests" in v.note


def test_conditional_and_while_side_conditions(chain3):
    D, env = chain3
    guard = TStates((1,))
    cond = Cond(guard, Prim("step"), Prim("skip"))
    bad_then = HoareTriple(TStates((1, 2)), Prim("step"), TStates((2,)))  # not (test and pre)
    ok_else = HoareTriple(TAnd(TNot(guard), TStates((1, 2))), Prim("skip"), TStates((2,)))
    v = validate_proof(
        ProofTree(
            "conditional",
            HoareTriple(TStates((1, 2)), cond, TStates((2,))),
            (ProofTree("axiom", bad_then), ProofTree("axiom", ok_else)),
        ),
        env,
        D,
    )
    assert not v.holds and "then-premise precondition" in v.note

    loop = While(guard, Prim("step"))
    bad_body = HoareTriple(TAnd(guard, TTrue()), Prim("step"), TStates((2, 3)))
    v = validate_proof(
        ProofTree(
            "while",
            HoareTriple(TTrue(), loop, TAnd(TNot(guard), TTrue())),
            (ProofTree("axiom", bad_body),),
        ),
        env,
        D,
    )
    assert not v.holds and "premise postcondition is not the invariant" in v.note


def bad_proofs():
    """One proof per side condition of composition, conditional, while and weakening that no other test breaks:
    the message of its first failing node, and that node's path, over chain3 (step = 1 -> 2 -> 3)."""
    step, skip = Prim("step"), Prim("skip")
    s1, s2, s3, s12, s23 = (TStates(k) for k in ((1,), (2,), (3,), (1, 2), (2, 3)))
    axiom1, axiom2 = ProofTree("axiom", HoareTriple(s1, step, s2)), ProofTree("axiom", HoareTriple(s2, step, s3))
    guard = TStates((1,))
    cond = Cond(guard, step, skip)
    then_t = HoareTriple(TAnd(guard, s12), step, s2)
    else_t = HoareTriple(TAnd(TNot(guard), s12), skip, s2)
    loop_guard = TNot(s3)
    loop = While(loop_guard, step)
    body_t = HoareTriple(TAnd(loop_guard, TTrue()), step, TTrue())
    exit_t = TAnd(TNot(loop_guard), TTrue())

    def composition(pre, prog, post, first=axiom1):
        return ProofTree("composition", HoareTriple(pre, prog, post), (first, axiom2))

    def conditional(pre, prog, then, orelse):
        return ProofTree("conditional", HoareTriple(pre, prog, s2), (ProofTree("axiom", then), ProofTree("axiom", orelse)))

    def loop_rule(prog, body, post=exit_t):
        return ProofTree("while", HoareTriple(TTrue(), prog, post), (ProofTree("axiom", body),))

    # weakening from {1} step {2, 3} to {1} step {2}, under a composition whose own conditions hold
    narrowing = ProofTree("weakening", HoareTriple(s1, step, s2), (ProofTree("axiom", HoareTriple(s1, step, s23)),))
    return {
        "composition concludes a sequence": (composition(s1, step, s3), "root"),
        "first premise precondition differs from the conclusion's": (composition(s12, Seq(step, step), s3), "root"),
        "second premise postcondition differs from the conclusion's": (composition(s1, Seq(step, step), s23), "root"),
        "conditional concludes an if-then-else": (conditional(s12, step, then_t, else_t), "root"),
        "premise programs do not match the branches": (conditional(s12, cond, else_t, then_t), "root"),
        "else-premise precondition is not (not test and pre)": (conditional(s12, cond, then_t, HoareTriple(s12, skip, s2)), "root"),
        "branch postconditions differ from the conclusion's": (conditional(s12, cond, HoareTriple(TAnd(guard, s12), step, s23), else_t), "root"),
        "while rule concludes a loop": (loop_rule(step, body_t), "root"),
        "premise program is not the loop body": (loop_rule(loop, HoareTriple(TAnd(loop_guard, TTrue()), skip, TTrue())), "root"),
        "premise precondition is not (test and invariant)": (loop_rule(loop, HoareTriple(TTrue(), step, TTrue())), "root"),
        "conclusion postcondition is not (not test and invariant)": (loop_rule(loop, body_t, TTrue()), "root"),
        "premise postcondition is not below the conclusion's": (composition(s1, Seq(step, step), s3, narrowing), "root.premise[0]"),
        "weakening does not change the program": (
            ProofTree("weakening", HoareTriple(s1, step, s2), (ProofTree("axiom", HoareTriple(s1, Seq(step, skip), s2)),)),
            "root",
        ),
    }


@pytest.mark.parametrize("msg", list(bad_proofs()))
def test_each_side_condition_names_itself_and_its_node(chain3, msg):
    D, env = chain3
    proof, path = bad_proofs()[msg]
    v = validate_proof(proof, env, D)
    assert not v.holds and v.witness == path and v.note == f"{path}: {msg}"



def random_program(rng, depth):
    """A small program with leaves from two actions, two set names and two raw tests."""
    if depth == 0 or rng.random() < 0.3:
        return Prim(rng.choice("ab"))
    kind = rng.randrange(3)
    test = rng.choice([TRef("p"), TNot(TRef("q")), 1, 2])
    if kind == 0:
        return Seq(random_program(rng, depth - 1), random_program(rng, depth - 1))
    if kind == 1:
        return Cond(test, random_program(rng, depth - 1), random_program(rng, depth - 1))
    return While(test, random_program(rng, depth - 1))


# each node type's fields, in the order of its constructor's arguments
FIELDS = {
    **{Prim: ("name",), Seq: ("first", "second"), Cond: ("test", "then", "orelse"), While: ("test", "body")},
    **{TTrue: (), TFalse: (), TRef: ("name",), TAnd: ("left", "right"), TOr: ("left", "right"), TNot: ("arg",)},
    **{TStates: ("states",), HoareTriple: ("pre", "prog", "post"), ProofTree: ("rule", "conclusion", "premises")},
}


def ref_eq(x, y):
    """The recursive reference for ==, as the dataclass == works: the same type and equal fields."""
    if type(x) in FIELDS or type(y) in FIELDS:
        return type(x) is type(y) and all(ref_eq(getattr(x, f), getattr(y, f)) for f in FIELDS[type(x)])
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(ref_eq, x, y))
    return x == y


def ref_repr(x):
    """The recursive reference for repr, as the dataclass repr works: Name(field=value, ...)."""
    if type(x) in FIELDS:
        return f"{type(x).__qualname__}({', '.join(f'{f}={ref_repr(getattr(x, f))}' for f in FIELDS[type(x)])})"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(ref_repr, x)) + ("," if len(x) == 1 else "") + ")"
    return repr(x)


def test_the_references_recurse_without_the_methods_they_check(monkeypatch):
    assert {cls: cls._fields for cls in FIELDS} == FIELDS
    for method in ("__eq__", "__ne__", "__hash__", "__repr__"):
        monkeypatch.setattr(_Node, method, lambda *args: pytest.fail("a reference called a method it checks"))
    # the same leaves in the same order, grouped differently
    a, b, c = Prim("a"), Prim("b"), Prim("c")
    left, right = Seq(Seq(a, b), c), Seq(a, Seq(b, c))
    assert not ref_eq(left, right) and ref_eq(left, Seq(Seq(Prim("a"), b), c)) and not ref_eq(Prim("a"), TRef("a"))
    assert ref_repr(left) == "Seq(first=Seq(first=Prim(name='a'), second=Prim(name='b')), second=Prim(name='c'))"
    assert ref_repr(ProofTree("axiom", HoareTriple(TTrue(), a, 1))) == (
        "ProofTree(rule='axiom', conclusion=HoareTriple(pre=TTrue(), prog=Prim(name='a'), post=1), premises=())"
    )


def test_programs_are_compared_as_the_dataclass_equality_does():
    rng = random.Random(8)
    programs = [random_program(rng, 3) for _ in range(300)]
    # ; regrouped, and a test moved between a loop and a branch, are different trees
    a, b, c = Prim("a"), Prim("b"), Prim("a")
    programs += [Seq(Seq(a, b), c), Seq(a, Seq(b, c)), While(1, a), Cond(1, a, a)]
    # nodes of different types never compare equal, whatever their fields
    assert Prim("a") != TRef("a") and TAnd(1, 2) != TOr(1, 2) and TTrue() != TFalse()
    seen = set()
    for x in programs:
        for y in rng.sample(programs, 20) + [copy.deepcopy(x)]:
            assert (x == y) == ref_eq(x, y)
            seen.add(x == y)
    assert seen == {True, False}


def test_deep_trees_compare_hash_print_and_validate_without_recursion(chain3, capfd):
    deep = 3000

    def chain_to(last):
        return parse_program("; ".join(["step"] * (deep - 1) + [last]))

    def conj_to(last):
        return parse_test(" and ".join(["{1,2}"] * (deep - 1) + [last]))

    chain, conj = chain_to("step"), conj_to("{1}")
    assert chain == chain_to("step") and hash(chain) == hash(chain_to("step"))
    assert conj == conj_to("{1}") and hash(conj) == hash(conj_to("{1}"))
    # a different last leaf makes a different tree
    assert chain != chain_to("skip") and conj != conj_to("{2}")
    chain_text, conj_text = "Prim(name='step')", "TStates(states=(1, 2))"
    for right in ["TStates(states=(1, 2))"] * (deep - 2) + ["TStates(states=(1,))"]:
        chain_text = f"Seq(first={chain_text}, second=Prim(name='step'))"
        conj_text = f"TAnd(left={conj_text}, right={right})"
    assert str(HoareTriple(conj, chain, conj)) == f"{{{conj_text}}} {chain_text} {{{conj_text}}}"

    D, env = chain3
    s1, s2 = TStates((1,)), TStates((2,))
    for axiom, holds in ((HoareTriple(s1, Prim("step"), s2), True), (HoareTriple(s2, Prim("step"), s2), False)):
        proof = ProofTree("axiom", axiom)
        for _ in range(deep):
            proof = ProofTree("weakening", axiom, (proof,))
        v = validate_proof(proof, env, D)
        assert v.holds == holds
        if not holds:
            assert v.witness == "root" + ".premise[0]" * deep
            assert v.note == f"{v.witness}: axiom triple does not hold: reachable state {{3}} escapes the postcondition"
    assert capfd.readouterr().err == ""


# -- the evaluator against a recursive reference ---------------------------------------------


def ref_eval_test(expr, D, tenv=None):
    """The recursive reference for eval_test: one call per child."""
    if not isinstance(expr, (TTrue, TFalse, TRef, TAnd, TOr, TNot, TStates)):
        return expr
    if isinstance(expr, TTrue):
        return D.test_one
    if isinstance(expr, TFalse):
        return D.test_zero
    if isinstance(expr, TRef):
        if not tenv or expr.name not in tenv:
            raise ValueError(f"unresolved test name {expr.name!r}")
        return tenv[expr.name]
    if isinstance(expr, TAnd):
        return D.test_meet(ref_eval_test(expr.left, D, tenv), ref_eval_test(expr.right, D, tenv))
    if isinstance(expr, TOr):
        return D.test_join(ref_eval_test(expr.left, D, tenv), ref_eval_test(expr.right, D, tenv))
    if isinstance(expr, TNot):
        return D.test_compl(ref_eval_test(expr.arg, D, tenv))
    if isinstance(expr, TStates):
        if not hasattr(D, "test_from_states"):
            raise ValueError("state-set literals need a relational model")
        return D.test_from_states(expr.states)
    raise ValueError(f"unknown test expression {expr!r}")


def ref_denote(prog, env, D, tenv=None):
    """The recursive reference for denote: one call per child, and a loop down a left-nested ; chain."""
    if isinstance(prog, Prim):
        if prog.name in env:
            return env[prog.name]
        if prog.name == "skip":
            return D.one
        if prog.name == "abort":
            return D.zero
        raise ValueError(f"unresolved primitive action {prog.name!r}")
    if isinstance(prog, Seq):
        parts = []
        while isinstance(prog, Seq):
            parts.append(prog.second)
            prog = prog.first
        acc = ref_denote(prog, env, D, tenv)
        for part in reversed(parts):
            acc = D.mul(acc, ref_denote(part, env, D, tenv))
        return acc
    if isinstance(prog, Cond):
        p = D.embed(ref_eval_test(prog.test, D, tenv))
        np_ = D.embed(D.test_compl(ref_eval_test(prog.test, D, tenv)))
        a = ref_denote(prog.then, env, D, tenv)
        b = ref_denote(prog.orelse, env, D, tenv)
        return D.add(D.mul(p, a), D.mul(np_, b))
    if isinstance(prog, While):
        p = ref_eval_test(prog.test, D, tenv)
        body = ref_denote(prog.body, env, D, tenv)
        looped = D.star(D.mul(D.embed(p), body))
        return D.mul(looped, D.embed(D.test_compl(p)))
    raise ValueError(f"not a program node: {prog!r}")


def expressions_up_to(leaves, depth):
    """Tests up to depth connectives deep over the given leaves."""
    if depth == 0:
        return leaves
    sub = expressions_up_to(leaves, depth - 1)
    return strat.one_of(leaves, strat.builds(TAnd, sub, sub), strat.builds(TOr, sub, sub), strat.builds(TNot, sub))


def programs_up_to(prims, tests, depth):
    """Programs up to depth constructs deep over the given actions and tests."""
    if depth == 0:
        return prims
    sub = programs_up_to(prims, tests, depth - 1)
    return strat.one_of(
        prims, strat.builds(Seq, sub, sub), strat.builds(Cond, tests, sub, sub), strat.builds(While, tests, sub)
    )


def trees_up_to(depth):
    """Tests, programs, triples and proofs up to depth deep, over few leaves so that equal trees are often drawn."""
    raw = strat.sampled_from([1, 2])
    leaves = strat.one_of(
        raw, strat.sampled_from([TTrue(), TFalse(), TRef("p")]), strat.builds(TStates, strat.lists(raw, max_size=2))
    )
    tests = expressions_up_to(leaves, depth)
    programs = programs_up_to(strat.sampled_from([Prim("a"), Prim("b")]), tests, depth)
    triples = strat.builds(HoareTriple, tests, programs, tests)
    proofs = strat.builds(ProofTree, strat.sampled_from(["axiom", "weakening"]), triples)
    for _ in range(depth):
        proofs = strat.builds(
            ProofTree, strat.sampled_from(["axiom", "weakening"]), triples, strat.lists(proofs, max_size=2).map(tuple)
        )
    return strat.one_of(tests, programs, triples, proofs)


TREES = trees_up_to(3)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(strat.data())
def test_eq_hash_and_repr_match_the_recursive_ones(data):
    x = data.draw(TREES, label="x")
    y = data.draw(strat.one_of(strat.just(copy.deepcopy(x)), TREES), label="y")
    assert (x == y) == ref_eq(x, y)
    assert (x != y) == (not ref_eq(x, y))
    if ref_eq(x, y):
        assert hash(x) == hash(y)
    assert repr(x) == ref_repr(x)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(strat.data())
def test_evaluator_matches_the_recursive_one(data):
    n = data.draw(strat.sampled_from([0, 1, 2, 3, 4, 5, 6]), label="n (0 for the A4_1 predomain)")
    if n:
        D = rel_model(n)
        relations = strat.lists(strat.tuples(strat.integers(1, n), strat.integers(1, n)), max_size=2 * n)
        actions = [Relation.from_pairs(n, data.draw(relations)) for _ in "ab"]
        raw = [D.test_from_states(data.draw(strat.sets(strat.integers(1, n)))) for _ in range(3)]
        states = [strat.builds(TStates, strat.sets(strat.integers(1, n)).map(sorted))]
    else:
        S = conway_model("A4_1")
        D = compute_predomain(S, TestAlgebra.discrete(S))
        actions = [data.draw(strat.integers(0, S.n - 1)) for _ in "ab"]
        raw, states = D.test_members(), []
    env = dict(zip("ab", actions))
    tenv = {name: data.draw(strat.sampled_from(raw)) for name in "pq"}
    # raw test values stand as leaves of and, or and not, and as the tests of if and while;
    # in half the cases the test name r and the action c, which are never bound, join in
    unbound = data.draw(strat.booleans(), label="unbound names")
    leaves = strat.one_of(
        strat.sampled_from([TTrue(), TFalse(), TRef("p"), TRef("q")] + [TRef("r")] * unbound + raw), *states
    )
    prims = strat.sampled_from([Prim("a"), Prim("b"), Prim("skip"), Prim("abort")] + [Prim("c")] * unbound)
    tests = expressions_up_to(leaves, 3)
    test, prog = data.draw(tests, label="test"), data.draw(programs_up_to(prims, tests, 3), label="program")
    for evaluate, reference, args in ((eval_test, ref_eval_test, (test, D, tenv)), (denote, ref_denote, (prog, env, D, tenv))):
        try:
            want = reference(*args)
        except ValueError:
            # with several unresolved names the two may name different ones
            with pytest.raises(ValueError, match="^unresolved (primitive action 'c'|test name 'r')$"):
                evaluate(*args)
        else:
            assert evaluate(*args) == want


def test_evaluation_never_recurses(chain3):
    D, env = chain3
    deep = 5000
    tests = {"not": TNot(TTrue()), "left-and": TAnd(TTrue(), TTrue()), "right-or": TOr(TFalse(), TFalse())}
    for _ in range(deep):
        tests = {"not": TNot(tests["not"]), "left-and": TAnd(tests["left-and"], TTrue()), "right-or": TOr(TFalse(), tests["right-or"])}
    assert [eval_test(t, D) for t in tests.values()] == [D.test_zero, D.test_one, D.test_zero]
    # a ; chain nested to the right, and loops and branches nested in each other
    prog, nested = Prim("step"), Prim("skip")
    for i in range(deep):
        prog = Seq(Prim("skip"), prog)
        nested = While(TFalse(), nested) if i % 2 else Cond(TTrue(), nested, Prim("abort"))
    assert denote(prog, env, D) == env["step"]
    assert denote(nested, env, D) == D.one


def test_non_programs_in_program_slots_are_refused(chain3):
    D, env = chain3
    for prog in (TTrue(), 1, Seq(Prim("step"), TTrue()), Cond(TTrue(), 1, Prim("step")), While(TFalse(), TRef("p"))):
        with pytest.raises(ValueError, match="not a program node"):
            denote(prog, env, D, {"p": D.test_one})


# -- soundness fuzz -----------------------------------------------------------------


def gen_valid(D, env, rng, pre, depth):
    """A random proof tree with the given precondition that must validate."""
    rules = ("axiom", "weakening", "composition", "conditional", "while")
    rule = rng.choice(rules) if depth > 0 else "axiom"
    names = sorted(env)

    if rule == "axiom":
        prog = Prim(rng.choice(names))
        post = D.test_join(D.image(pre, denote(prog, env, D)), D.sample_test(rng))
        return ProofTree("axiom", HoareTriple(pre, prog, post))

    if rule == "weakening":
        child = gen_valid(D, env, rng, D.test_join(pre, D.sample_test(rng)), depth - 1)
        post = D.test_join(child.conclusion.post, D.sample_test(rng))
        return ProofTree(
            "weakening", HoareTriple(pre, child.conclusion.prog, post), (child,)
        )

    if rule == "composition":
        c1 = gen_valid(D, env, rng, pre, depth - 1)
        c2 = gen_valid(D, env, rng, c1.conclusion.post, depth - 1)
        prog = Seq(c1.conclusion.prog, c2.conclusion.prog)
        return ProofTree("composition", HoareTriple(pre, prog, c2.conclusion.post), (c1, c2))

    if rule == "conditional":
        t = D.sample_test(rng)
        c1 = gen_valid(D, env, rng, D.test_meet(t, pre), depth - 1)
        c2 = gen_valid(D, env, rng, D.test_meet(D.test_compl(t), pre), depth - 1)
        r = D.test_join(c1.conclusion.post, c2.conclusion.post)
        w1 = ProofTree("weakening", HoareTriple(c1.conclusion.pre, c1.conclusion.prog, r), (c1,))
        w2 = ProofTree("weakening", HoareTriple(c2.conclusion.pre, c2.conclusion.prog, r), (c2,))
        prog = Cond(t, c1.conclusion.prog, c2.conclusion.prog)
        return ProofTree("conditional", HoareTriple(pre, prog, r), (w1, w2))

    # while: grow the precondition into an invariant of the guarded body
    t = D.sample_test(rng)
    body = Prim(rng.choice(names))
    a = denote(body, env, D)
    q = pre
    while True:
        grown = D.test_join(q, D.image(D.test_meet(t, q), a))
        if grown == q:
            break
        q = grown
    child = ProofTree("axiom", HoareTriple(D.test_meet(t, q), body, q))
    post = D.test_meet(D.test_compl(t), q)
    node = ProofTree("while", HoareTriple(q, While(t, body), post), (child,))
    return ProofTree("weakening", HoareTriple(pre, While(t, body), post), (node,))


def test_random_valid_proofs_validate_and_are_sound():
    rng = random.Random(41)
    for n in (3, 4):
        D = rel_model(n)
        env = {f"r{k}": D.sample(rng) for k in range(3)}
        for _ in range(50):
            tree = gen_valid(D, env, rng, D.sample_test(rng), depth=3)
            v = validate_proof(tree, env, D)
            assert v.holds, v.note
            assert check_triple(tree.conclusion, env, D).holds


# -- weakest liberal preconditions -----------------------------------------------------


def test_wlp_galois_connection():
    for n in (2, 3):
        D = rel_model(n)
        for a in D.elements():
            for p in D.test_members():
                w = wlp(D, a, p)
                for q in D.test_members():
                    assert D.test_leq(q, w) == D.test_leq(D.image(q, a), p)


def test_wlp_differs_from_complemented_preimage():
    # (a : p)' is NOT the weakest liberal precondition: it drops states
    # with no step into p even when all their steps stay inside p
    D = rel_model(2)
    a = Relation.from_pairs(2, [(1, 2)])
    p = D.test_from_states([2])
    literal = D.test_compl(D.preimage(a, p))
    implemented = wlp(D, a, p)
    assert D.test_name(literal) == "{2}"
    assert D.test_name(implemented) == "{1,2}"
    q = D.test_from_states([1])
    assert D.test_leq(D.image(q, a), p)
    assert not D.test_leq(q, literal)  # the literal reading rejects a sound q
    assert D.test_leq(q, implemented)


def test_wlp_of_loop_free_code(chain3):
    D, env = chain3
    a = denote(Seq(Prim("step"), Prim("step")), env, D)
    # only state 1 can move two steps; everything else stalls and is safe
    assert D.test_name(wlp(D, a, D.test_from_states([3]))) == "{1,2,3}"
    assert D.test_name(wlp(D, a, D.test_zero)) == "{2,3}"


# -- the rule suite ---------------------------------------------------------------------


# how each rule is certified where the laws its derivation uses hold, as on every relation model
CERTIFIED_NOTES = {
    "rule-composition": "certified by cd2",
    "rule-conditional": "certified by cod-additive",
    "rule-while": "certified by star-right-induction",
    "rule-weakening": "certified by cod-additive",
}


def test_hoare_rules_exhaustive_on_relations(monkeypatch):
    # certified by their derivations, and scanned in full when taken uncertified
    rep = check_hoare_rules(rel_model(2))
    assert all_hold(rep), [str(r) for r in failures(rep)]
    assert {r.name: r.note for r in rep} == CERTIFIED_NOTES
    uncertified(monkeypatch)
    rep = check_hoare_rules(rel_model(2))
    assert all_hold(rep), [str(r) for r in failures(rep)]
    assert all(r.note == "exhaustive" for r in rep)


def test_hoare_rules_on_table_backed_models(monkeypatch):
    for nm in ("A2", "A3_1", "A3_3"):
        S = conway_model(nm)
        D = compute_predomain(S, TestAlgebra.discrete(S))
        rep = check_hoare_rules(D)
        assert all_hold(rep), (nm, [str(r) for r in failures(rep)])
        assert {r.name: r.note for r in rep} == CERTIFIED_NOTES
        with monkeypatch.context() as m:
            uncertified(m)
            rep = check_hoare_rules(D)
        assert all_hold(rep), (nm, [str(r) for r in failures(rep)])
        assert all(r.note == "exhaustive" for r in rep)


@pytest.mark.parametrize("table", [True, False], ids=["predomain", "relations"])
def test_hoare_rules_on_rel3_are_decided_exactly(table, monkeypatch):
    D = compute_predomain(rel_semiring(3), rel_tests(3)) if table else rel_model(3)
    assert {r.name: r.note for r in check_hoare_rules(D) if r.holds} == CERTIFIED_NOTES
    uncertified(monkeypatch)
    notes = {r.name: r.note for r in check_hoare_rules(D) if r.holds}
    assert notes == {
        "rule-composition": "reduced (400)",
        "rule-conditional": "reduced (3200)",
        "rule-while": "exhaustive",
        "rule-weakening": "reduced (4096)",
    }


def test_hoare_rules_on_rel10_reduce_composition_and_weakening(monkeypatch):
    uncertified(monkeypatch)
    notes = {r.name: r.note for r in check_hoare_rules(rel_model(10)) if r.holds}
    assert notes["rule-composition"] == "reduced (112211)"  # (10^2 + 1)^2 (10 + 1)
    assert notes["rule-weakening"] == "reduced (1111)"
    # p stays under compl: 101^2 * 2^10 * 11 instances, past the budget
    assert notes["rule-conditional"] == "sampled (1000)"


def test_hoare_rules_fall_back_to_sampling(monkeypatch):
    uncertified(monkeypatch)
    rep = check_hoare_rules(rel_model(2), budget=10, samples=60, rng=random.Random(5))
    assert all_hold(rep)
    assert all(r.note == "sampled (60)" for r in rep)
