"""Propositional Hoare logic over models with domain.

Programs are built from named primitive actions with sequencing,
conditionals and while loops; tests come from a small Boolean expression
grammar.  A program denotes a single element: seq is multiplication, if p
then a else b is pa + p'b, while p do a is (pa)* p'.  Programs and tests are
evaluated in one pass over _preorder, an explicit-stack walk, so chains of
any length need no recursion.  A triple {p} prog {q} is valid when the image
of p under the denotation stays inside q.  There is no assignment rule:
state change is modeled by primitive actions bound in the environment.

Proof trees for the encoded rules (composition, conditional, while,
weakening, plus semantically checked axioms) are validated node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from itertools import zip_longest
from typing import Optional, Union

from .algebra import Law, LawReport, Verdict, cod, compl, leq, star, var
from .domain import run_laws

__all__ = [
    "Prim",
    "Seq",
    "Cond",
    "While",
    "TTrue",
    "TFalse",
    "TRef",
    "TAnd",
    "TOr",
    "TNot",
    "TStates",
    "HoareTriple",
    "ProofTree",
    "eval_test",
    "denote",
    "check_triple",
    "validate_proof",
    "wlp",
    "check_hoare_rules",
    "HOARE_RULES",
]


# -- program syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Prim:
    name: str


@dataclass(frozen=True)
class Seq:
    first: "Program"
    second: "Program"


@dataclass(frozen=True)
class Cond:
    test: "TestExpr"
    then: "Program"
    orelse: "Program"


@dataclass(frozen=True)
class While:
    test: "TestExpr"
    body: "Program"


Program = Union[Prim, Seq, Cond, While]

_PROGRAM_TYPES = (Prim, Seq, Cond, While)
_PROGRAM_SLOTS = {Seq: ("first", "second"), Cond: ("then", "orelse"), While: ("body",)}


# -- test expressions -------------------------------------------------------


@dataclass(frozen=True)
class TTrue:
    pass


@dataclass(frozen=True)
class TFalse:
    pass


@dataclass(frozen=True)
class TRef:
    name: str


@dataclass(frozen=True)
class TAnd:
    left: "TestExpr"
    right: "TestExpr"


@dataclass(frozen=True)
class TOr:
    left: "TestExpr"
    right: "TestExpr"


@dataclass(frozen=True)
class TNot:
    arg: "TestExpr"


@dataclass(frozen=True)
class TStates:
    states: tuple

    def __init__(self, states):
        object.__setattr__(self, "states", tuple(states))


TestExpr = Union[TTrue, TFalse, TRef, TAnd, TOr, TNot, TStates]

_EXPR_TYPES = (TTrue, TFalse, TRef, TAnd, TOr, TNot, TStates)


def _preorder(node):
    """The nodes of a program or test expression, parent before children, left to right."""
    # by an explicit stack: a long ; chain parses as a left-nested Seq as deep as the chain is long
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = [getattr(node, f.name) for f in fields(node)]
        stack.extend(child for child in reversed(children) if is_dataclass(child))


def _same_program(x, y) -> bool:
    """x == y, compared node by node over a pre-order walk of each: the dataclass == recurses once per ;."""
    def label(node):
        # a child stands in as ..., so that the labels in walk order spell out one tree
        return type(node), [... if is_dataclass(v) else v for v in (getattr(node, f.name) for f in fields(node))]

    return all(a == b for a, b in zip_longest(map(label, _preorder(x)), map(label, _preorder(y))))


def eval_test(expr, D, tenv: Optional[dict] = None):
    """Evaluate a test expression to a test of D; raw test values pass through."""
    return _evaluate(expr, D, {}, tenv) if isinstance(expr, _EXPR_TYPES) else expr


def denote(prog: Program, env: dict, D, tenv: Optional[dict] = None):
    """The element a program stands for."""
    if not isinstance(prog, _PROGRAM_TYPES):
        raise ValueError(f"not a program node: {prog!r}")
    return _evaluate(prog, D, env, tenv)


def _evaluate(root, D, env: dict, tenv: Optional[dict]):
    """The value of a program or test expression: one pass over _preorder(root) in reverse.

    Each node follows its children and pops their values left to right; a field
    that is not a node (a raw test, a name, a state tuple) stands for itself.
    """
    values = []
    for node in reversed(list(_preorder(root))):
        args = [values.pop() if is_dataclass(v) else v for v in (getattr(node, f.name) for f in fields(node))]
        for part in (getattr(node, name) for name in _PROGRAM_SLOTS.get(type(node), ())):
            if not isinstance(part, _PROGRAM_TYPES):
                raise ValueError(f"not a program node: {part!r}")
        if isinstance(node, Prim):
            if args[0] not in env and args[0] not in ("skip", "abort"):
                raise ValueError(f"unresolved primitive action {args[0]!r}")
            values.append(env[args[0]] if args[0] in env else D.one if args[0] == "skip" else D.zero)
        elif isinstance(node, Seq):
            values.append(D.mul(*args))
        elif isinstance(node, Cond):
            p, a, b = args
            values.append(D.add(D.mul(D.embed(p), a), D.mul(D.embed(D.test_compl(p)), b)))
        elif isinstance(node, While):
            p, a = args
            values.append(D.mul(D.star(D.mul(D.embed(p), a)), D.embed(D.test_compl(p))))
        elif isinstance(node, (TTrue, TFalse)):
            values.append(D.test_one if isinstance(node, TTrue) else D.test_zero)
        elif isinstance(node, TRef):
            if not tenv or args[0] not in tenv:
                raise ValueError(f"unresolved test name {args[0]!r}")
            values.append(tenv[args[0]])
        elif isinstance(node, (TAnd, TOr)):
            values.append(D.test_meet(*args) if isinstance(node, TAnd) else D.test_join(*args))
        elif isinstance(node, TNot):
            values.append(D.test_compl(*args))
        elif isinstance(node, TStates):
            if not hasattr(D, "test_from_states"):
                raise ValueError("state-set literals need a relational model")
            values.append(D.test_from_states(*args))
        else:
            raise ValueError(f"not a program node: {node!r}")
    return values.pop()


# -- triples and proofs -----------------------------------------------------


@dataclass(frozen=True)
class HoareTriple:
    pre: object
    prog: Program
    post: object

    def __str__(self):
        return f"{{{self.pre}}} {self.prog} {{{self.post}}}"


@dataclass(frozen=True)
class ProofTree:
    rule: str
    conclusion: HoareTriple
    premises: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))


def check_triple(t: HoareTriple, env: dict, D, tenv: Optional[dict] = None) -> Verdict:
    """{p} a {q} holds iff the image of p under a lies in q.

    On failure the witness is a reachable state (an atom) outside the
    postcondition.
    """
    pre = eval_test(t.pre, D, tenv)
    post = eval_test(t.post, D, tenv)
    a = denote(t.prog, env, D, tenv)
    forward = D.image(pre, a)
    if D.test_leq(forward, post):
        return Verdict(True)
    bad = D.test_meet(forward, D.test_compl(post))
    atoms = D.atoms_below(bad)
    w = atoms[0] if atoms else bad
    return Verdict(False, witness=w, note=f"reachable state {D.test_name(w)} escapes the postcondition")


_ARITY = {"axiom": 0, "composition": 2, "conditional": 2, "while": 1, "weakening": 1}


def validate_proof(tree: ProofTree, env: dict, D, tenv: Optional[dict] = None) -> Verdict:
    """Check every node's side conditions; axioms are checked semantically.

    The witness of a failing verdict is the path of the offending node
    (root, root.premise[0], ...).
    """
    problem = _validate(tree, env, D, tenv, "root")
    if problem is None:
        return Verdict(True)
    path, msg = problem
    return Verdict(False, witness=path, note=f"{path}: {msg}")


def _validate(node: ProofTree, env, D, tenv, path):
    rule = node.rule
    if rule not in _ARITY:
        return path, f"unknown rule {rule!r}"
    if len(node.premises) != _ARITY[rule]:
        return path, f"{rule} takes {_ARITY[rule]} premises, got {len(node.premises)}"
    t = node.conclusion

    def ev(x):
        return eval_test(x, D, tenv)

    if rule == "axiom":
        v = check_triple(t, env, D, tenv)
        if not v:
            return path, f"axiom triple does not hold: {v.note}"
        return None

    if rule == "composition":
        t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
        if not isinstance(t.prog, Seq):
            return path, "composition concludes a sequence"
        if not (_same_program(t1.prog, t.prog.first) and _same_program(t2.prog, t.prog.second)):
            return path, "premise programs do not match the sequence parts"
        if ev(t1.pre) != ev(t.pre):
            return path, "first premise precondition differs from the conclusion's"
        if ev(t2.post) != ev(t.post):
            return path, "second premise postcondition differs from the conclusion's"
        if ev(t1.post) != ev(t2.pre):
            return path, "intermediate tests of the premises do not agree"

    elif rule == "conditional":
        t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
        if not isinstance(t.prog, Cond):
            return path, "conditional concludes an if-then-else"
        if not (_same_program(t1.prog, t.prog.then) and _same_program(t2.prog, t.prog.orelse)):
            return path, "premise programs do not match the branches"
        pv, qv, rv = ev(t.prog.test), ev(t.pre), ev(t.post)
        if ev(t1.pre) != D.test_meet(pv, qv):
            return path, "then-premise precondition is not (test and pre)"
        if ev(t2.pre) != D.test_meet(D.test_compl(pv), qv):
            return path, "else-premise precondition is not (not test and pre)"
        if ev(t1.post) != rv or ev(t2.post) != rv:
            return path, "branch postconditions differ from the conclusion's"

    elif rule == "while":
        (t1,) = (node.premises[0].conclusion,)
        if not isinstance(t.prog, While):
            return path, "while rule concludes a loop"
        if not _same_program(t1.prog, t.prog.body):
            return path, "premise program is not the loop body"
        pv, qv = ev(t.prog.test), ev(t.pre)
        if ev(t1.pre) != D.test_meet(pv, qv):
            return path, "premise precondition is not (test and invariant)"
        if ev(t1.post) != qv:
            return path, "premise postcondition is not the invariant"
        if ev(t.post) != D.test_meet(D.test_compl(pv), qv):
            return path, "conclusion postcondition is not (not test and invariant)"

    elif rule == "weakening":
        t1 = node.premises[0].conclusion
        if not _same_program(t1.prog, t.prog):
            return path, "weakening does not change the program"
        if not D.test_leq(ev(t.pre), ev(t1.pre)):
            return path, "conclusion precondition is not below the premise's"
        if not D.test_leq(ev(t1.post), ev(t.post)):
            return path, "premise postcondition is not below the conclusion's"

    for i, child in enumerate(node.premises):
        problem = _validate(child, env, D, tenv, f"{path}.premise[{i}]")
        if problem is not None:
            return problem
    return None


def wlp(D, a, p):
    """Weakest liberal precondition: the largest q with q:a <= p.

    Computed as the complement of the states that can step outside p,
    (a : p')'; relationally, states all of whose a-successors satisfy p.
    """
    return D.test_compl(D.preimage(a, D.test_compl(p)))


# -- the encoded rules as algebraic Horn implications ------------------------


def _hoare_rules():
    a, b, p, q, r, p1, q1 = (var(v) for v in ("a", "b", "p", "q", "r", "p1", "q1"))

    def img(t, x):
        """t:x, the states x reaches from t"""
        return cod(t * x)

    return (
        Law("rule-composition", "a b p q r", leq(img(p, a * b), r), (leq(img(p, a), q), leq(img(q, b), r)), tests="p q r"),
        Law(
            "rule-conditional",
            "a b p q r",
            leq(img(q, p * a + compl(p) * b), r),
            (leq(img(p * q, a), r), leq(img(compl(p) * q, b), r)),
            tests="p q r",
        ),
        Law("rule-while", "a p q", leq(img(q, star(p * a) * compl(p)), compl(p) * q), leq(img(p * q, a), q), tests="p q"),
        Law(
            "rule-weakening",
            "a p1 p q q1",
            leq(img(p1, a), q1),
            (leq(p1, p), leq(img(p, a), q), leq(q, q1)),
            tests="p1 p q q1",
        ),
    )


HOARE_RULES = _hoare_rules()


def check_hoare_rules(D, budget: int = 300_000, samples: int = 1000, rng=None) -> list[LawReport]:
    """Each inference rule, read as an implication between triples.

    composition: p:a <= q and q:b <= r imply p:(ab) <= r
    conditional: (pq):a <= r and (p'q):b <= r imply q:(pa + p'b) <= r
    while:       (pq):a <= q implies q:((pa)* p') <= p'q
    weakening:   p1 <= p, p:a <= q, q <= q1 imply p1:a <= q1
    """
    return run_laws(HOARE_RULES, D, budget, samples, rng)
