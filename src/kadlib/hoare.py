"""Propositional Hoare logic over models with domain.

Programs are built from named primitive actions with sequencing,
conditionals and while loops; tests come from a small Boolean expression
grammar.  A program denotes a single element: seq is multiplication, if p
then a else b is pa + p'b, while p do a is (pa)* p'.  A triple {p} prog {q}
is valid when the image of p under the denotation stays inside q.  There is
no assignment rule: state change is modeled by primitive actions bound in the
environment.

Proof trees for the encoded rules (composition, conditional, while,
weakening, plus semantically checked axioms) are validated node by node.
check_hoare_rules decides the rules themselves, read as implications
between triples, which catalogue states with their certificates; it loads
the table layer only when it is called.

Programs, tests, triples and proofs are walked only by _preorder, an explicit
stack: their ==, hash and repr read it, programs and tests are evaluated in one
fold over it and proofs are validated in its order, so any depth is fine.
"""

from __future__ import annotations

from typing import Optional

from .laws import LawReport, Verdict, _Record, _require_tests

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
]


class _Node(_Record):
    """A program, test, triple or proof node: ==, hash and repr read _preorder and give _Record's results."""

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes each of its fields {self._fields} once")
        self.__dict__.update(values)

    def __eq__(self, other):
        return _labels(self) == _labels(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(_labels(self))

    def __repr__(self):
        # _Record's repr, emitted in pre-order: a node's text up to its first child when it is
        # reached, and the text after each child once that child's subtree is done
        out, tails = [], []
        for node in _preorder(self):
            first, *rest = _segments(node)
            out.append(first)
            tails.append(rest[::-1])
            while tails and not tails[-1]:
                tails.pop()
                if tails:
                    out.append(tails[-1].pop())
        return "".join(out)


class _Cut:
    """Where a child stands in its parent's text: a raw NUL, which the reprs of strings, numbers and tuples never hold."""

    def __repr__(self):
        return "\0"


def _segments(node) -> list:
    """node's _Record repr cut at the children _args finds, which _preorder visits in this order: one piece more than children."""
    args = _args(node, lambda child: _Cut())
    return f"{node.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in zip(node._fields, args))})".split("\0")


def _args(node, child):
    """node's field values, each node among them or in a tuple field replaced by child(node), left to right."""
    def take(v):
        return child(v) if isinstance(v, _Node) else v

    return [tuple(map(take, v)) if isinstance(v, tuple) else take(v) for v in (getattr(node, f) for f in node._fields)]


def _preorder(node):
    """The nodes of a tree, parent before children, left to right; a proof's premises are its children."""
    # by an explicit stack: a long ; chain parses as a left-nested Seq as deep as the chain is long
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = []
        _args(node, children.append)
        stack.extend(reversed(children))


def _labels(root) -> tuple:
    """Each node's type and fields in pre-order, a child standing as _Node: they spell root's tree and no other."""
    return tuple((node.__class__, *_args(node, lambda child: _Node)) for node in _preorder(root))


# -- program syntax ---------------------------------------------------------


class Prim(_Node):
    _fields = ("name",)


class Seq(_Node):
    _fields = ("first", "second")


class Cond(_Node):
    _fields = ("test", "then", "orelse")


class While(_Node):
    _fields = ("test", "body")


Program = Prim | Seq | Cond | While
_PROGRAM_SLOTS = {Seq: ("first", "second"), Cond: ("then", "orelse"), While: ("body",)}


# -- test expressions -------------------------------------------------------


class TTrue(_Node):
    pass


class TFalse(_Node):
    pass


class TRef(_Node):
    _fields = ("name",)


class TAnd(_Node):
    _fields = ("left", "right")


class TOr(_Node):
    _fields = ("left", "right")


class TNot(_Node):
    _fields = ("arg",)


class TStates(_Node):
    _fields = ("states",)

    def __init__(self, states):
        super().__init__(tuple(states))


TestExpr = TTrue | TFalse | TRef | TAnd | TOr | TNot | TStates


def eval_test(expr, D, tenv: Optional[dict] = None):
    """Evaluate a test expression to a test of D; raw test values pass through."""
    return _evaluate(expr, D, {}, tenv) if isinstance(expr, TestExpr) else expr


def denote(prog: Program, env: dict, D, tenv: Optional[dict] = None):
    """The element a program stands for."""
    if not isinstance(prog, Program):
        raise ValueError(f"not a program node: {prog!r}")
    return _evaluate(prog, D, env, tenv)


def _evaluate(root, D, env: dict, tenv: Optional[dict]):
    """The value of a program or test expression; a field that is not a node (a raw test, a name) stands for itself."""
    def step(node, args):
        for part in (getattr(node, name) for name in _PROGRAM_SLOTS.get(type(node), ())):
            if not isinstance(part, Program):
                raise ValueError(f"not a program node: {part!r}")
        if isinstance(node, Prim):
            if args[0] not in env and args[0] not in ("skip", "abort"):
                raise ValueError(f"unresolved primitive action {args[0]!r}")
            return D.one if args[0] == "skip" else D.zero if args[0] == "abort" else env[args[0]]
        if isinstance(node, Seq):
            return D.mul(*args)
        if isinstance(node, Cond):
            p, a, b = args
            return D.add(D.mul(D.embed(p), a), D.mul(D.embed(D.test_compl(p)), b))
        if isinstance(node, While):
            p, a = args
            return D.mul(D.star(D.mul(D.embed(p), a)), D.embed(D.test_compl(p)))
        if isinstance(node, (TTrue, TFalse)):
            return D.test_one if isinstance(node, TTrue) else D.test_zero
        if isinstance(node, TRef):
            if not tenv or args[0] not in tenv:
                raise ValueError(f"unresolved test name {args[0]!r}")
            return tenv[args[0]]
        if isinstance(node, (TAnd, TOr)):
            return D.test_meet(*args) if isinstance(node, TAnd) else D.test_join(*args)
        if isinstance(node, TNot):
            return D.test_compl(*args)
        if isinstance(node, TStates):
            if not hasattr(D, "test_from_states"):
                raise ValueError("state-set literals need a relational model")
            return D.test_from_states(*args)
        raise ValueError(f"not a program node: {node!r}")

    values = []  # children first: each node's children are the last values pushed, popped as its fields
    for node in reversed(list(_preorder(root))):
        values.append(step(node, _args(node, lambda child: values.pop())))
    return values.pop()


# -- triples and proofs -----------------------------------------------------


class HoareTriple(_Node):
    _fields = ("pre", "prog", "post")

    def __str__(self):
        return f"{{{self.pre}}} {self.prog} {{{self.post}}}"


class ProofTree(_Node):
    _fields = ("rule", "conclusion", "premises")

    def __init__(self, rule: str, conclusion: HoareTriple, premises: tuple = ()):
        super().__init__(rule, conclusion, tuple(premises))


def check_triple(t: HoareTriple, env: dict, D, tenv: Optional[dict] = None) -> Verdict:
    """{p} a {q} holds iff the image of p under a lies in q.

    On failure the witness is a reachable state (an atom) outside the
    postcondition.
    """
    _require_tests(D, ["check_triple"])
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
    _require_tests(D, ["validate_proof"])
    # by an explicit (node, path) stack in pre-order: a proof nests as deep as its longest branch
    stack = [(tree, "root")]
    while stack:
        node, path = stack.pop()
        if (msg := _validate(node, env, D, tenv)) is not None:
            return Verdict(False, witness=path, note=f"{path}: {msg}")
        stack.extend((child, f"{path}.premise[{i}]") for i, child in reversed(list(enumerate(node.premises))))
    return Verdict(True)


def _validate(node: ProofTree, env, D, tenv) -> Optional[str]:
    """What is wrong with one proof node's side conditions, or None; its premises are not visited."""
    rule = node.rule
    if rule not in _ARITY:
        return f"unknown rule {rule!r}"
    if len(node.premises) != _ARITY[rule]:
        return f"{rule} takes {_ARITY[rule]} premises, got {len(node.premises)}"
    t = node.conclusion

    def ev(x):
        return eval_test(x, D, tenv)

    if rule == "axiom":
        v = check_triple(t, env, D, tenv)
        if not v:
            return f"axiom triple does not hold: {v.note}"

    elif rule == "composition":
        t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
        if not isinstance(t.prog, Seq):
            return "composition concludes a sequence"
        if t1.prog != t.prog.first or t2.prog != t.prog.second:
            return "premise programs do not match the sequence parts"
        if ev(t1.pre) != ev(t.pre):
            return "first premise precondition differs from the conclusion's"
        if ev(t2.post) != ev(t.post):
            return "second premise postcondition differs from the conclusion's"
        if ev(t1.post) != ev(t2.pre):
            return "intermediate tests of the premises do not agree"

    elif rule == "conditional":
        t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
        if not isinstance(t.prog, Cond):
            return "conditional concludes an if-then-else"
        if t1.prog != t.prog.then or t2.prog != t.prog.orelse:
            return "premise programs do not match the branches"
        pv, qv, rv = ev(t.prog.test), ev(t.pre), ev(t.post)
        if ev(t1.pre) != D.test_meet(pv, qv):
            return "then-premise precondition is not (test and pre)"
        if ev(t2.pre) != D.test_meet(D.test_compl(pv), qv):
            return "else-premise precondition is not (not test and pre)"
        if ev(t1.post) != rv or ev(t2.post) != rv:
            return "branch postconditions differ from the conclusion's"

    elif rule == "while":
        (t1,) = (node.premises[0].conclusion,)
        if not isinstance(t.prog, While):
            return "while rule concludes a loop"
        if t1.prog != t.prog.body:
            return "premise program is not the loop body"
        pv, qv = ev(t.prog.test), ev(t.pre)
        if ev(t1.pre) != D.test_meet(pv, qv):
            return "premise precondition is not (test and invariant)"
        if ev(t1.post) != qv:
            return "premise postcondition is not the invariant"
        if ev(t.post) != D.test_meet(D.test_compl(pv), qv):
            return "conclusion postcondition is not (not test and invariant)"

    elif rule == "weakening":
        t1 = node.premises[0].conclusion
        if t1.prog != t.prog:
            return "weakening does not change the program"
        if not D.test_leq(ev(t.pre), ev(t1.pre)):
            return "conclusion precondition is not below the premise's"
        if not D.test_leq(ev(t1.post), ev(t.post)):
            return "premise postcondition is not below the conclusion's"

    return None


def wlp(D, a, p):
    """Weakest liberal precondition: the largest q with q:a <= p.

    Computed as the complement of the states that can step outside p,
    (a : p')'; relationally, states all of whose a-successors satisfy p.
    """
    _require_tests(D, ["wlp"])
    return D.test_compl(D.preimage(a, D.test_compl(p)))


# -- the encoded rules as algebraic Horn implications ------------------------


def check_hoare_rules(D, budget: int = 300_000, samples: int = 1000, rng=None) -> list[LawReport]:
    """Each inference rule, read as an implication between triples.

    composition: p:a <= q and q:b <= r imply p:(ab) <= r
    conditional: (pq):a <= r and (p'q):b <= r imply q:(pa + p'b) <= r
    while:       (pq):a <= q implies q:((pa)* p') <= p'q
    weakening:   p1 <= p, p:a <= q, q <= q1 imply p1:a <= q1

    The rules are catalogue.HOARE_RULES.  Each is certified by its
    derivation (catalogue._CERTIFICATES) where D satisfies the laws that
    uses, as every relation model and rel(n) predomain does; elsewhere it is
    scanned, rewritten or sampled.
    """
    from . import catalogue, domain

    return domain.run_laws(catalogue.HOARE_RULES, D, budget, samples, rng)
