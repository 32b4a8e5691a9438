"""Command-line front end: load models and programs, run checks, print reports.

Workspace files are JSON with top-level keys:

  semiring   carrier: list of names; add/mul: nested arrays of names;
             zero/one: names; star/conv: optional arrays of names
  tests      members: list of names; compl: map name -> name
  n          number of states for the relational part
  relations  name -> edge list over 1..n, e.g. {"R": [[1, 2], [2, 3]]}
  sets       name -> state list, e.g. {"p": [1, 3]}
  programs   name -> program text
  env        primitive name -> relation name
  triples    name -> {"pre": test text, "prog": program name or text,
                      "post": test text}
  proofs     name -> {"rule": ..., "conclusion": triple name or inline
                      triple, "premises": [...]}

Element names, never indices, appear in files.  Builtin models are
addressable as builtin:NAME and the exhaustive relation models as rel:N.

Program text:  prog ::= atom (';' atom)*
               atom ::= NAME | skip | abort | '(' prog ')'
                      | if test then prog else prog fi
                      | while test do prog od
Test text:     or / and / not / true / false / NAME / '{' states '}' / parens.
There is no assignment statement; ':=' is rejected at parse time.

Exit codes: 0 all checks pass, 1 law or triple failure, 2 parse error,
3 capability missing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from .algebra import (
    FiniteSemiring,
    TestAlgebra,
    check_isemiring,
    check_kleene,
    check_test_algebra,
    format_witness,
)
from .domain import (
    check_converse,
    check_domain_axioms,
    check_domain_calculus,
    compute_predomain,
    converse_duality_check,
)
from .hoare import (
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
    check_triple,
    validate_proof,
)
from .models import Relation, _bit_positions, conway_model, conway_names, rel_model, rel_semiring, rel_tests
from .reach import reach_efficient, reach_naive
from .termination import termination_report

__all__ = [
    "CliParseError",
    "MissingCapability",
    "Workspace",
    "parse_program",
    "parse_test",
    "semiring_to_doc",
    "semiring_from_doc",
    "load_workspace",
    "workspace_from_doc",
    "cmd_check",
    "cmd_reach",
    "cmd_hoare",
    "cmd_termination",
    "main",
]


class CliParseError(Exception):
    """Bad input file or bad program/test text (exit 2)."""


class MissingCapability(Exception):
    """The loaded model lacks a table the command needs (exit 3)."""


# -- program and test parsing -------------------------------------------------

_KEYWORDS = {
    "skip",
    "abort",
    "if",
    "then",
    "else",
    "fi",
    "while",
    "do",
    "od",
    "and",
    "or",
    "not",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<assign>:=)|(?P<sym>[;(){},])|(?P<bad>\S))"
)

_ASSIGN_MSG = (
    "assignment is not part of propositional Hoare logic; "
    "model state change as a primitive action"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.lastgroup is None:
            continue
        val = m.group(m.lastgroup)
        if m.lastgroup == "assign":
            raise CliParseError(_ASSIGN_MSG)
        if m.lastgroup == "bad":
            raise CliParseError(f"unexpected character {val!r}")
        out.append((m.lastgroup, val))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][1] if self.pos < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise CliParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok[1]

    def expect(self, want: str):
        got = self.next()
        if got != want:
            raise CliParseError(f"expected {want!r}, got {got!r} in {self.text!r}")

    def done(self):
        if self.pos < len(self.toks):
            raise CliParseError(f"trailing input from {self.peek()!r} in {self.text!r}")

    # programs

    def program(self):
        node = self.atom()
        while self.peek() == ";":
            self.next()
            node = Seq(node, self.atom())
        return node

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise CliParseError(f"unexpected end of input in {self.text!r}")
        if tok == "(":
            self.next()
            node = self.program()
            self.expect(")")
            return node
        if tok == "if":
            self.next()
            test = self.test()
            self.expect("then")
            then = self.program()
            self.expect("else")
            orelse = self.program()
            self.expect("fi")
            return Cond(test, then, orelse)
        if tok == "while":
            self.next()
            test = self.test()
            self.expect("do")
            body = self.program()
            self.expect("od")
            return While(test, body)
        self.next()
        if tok in _KEYWORDS and tok not in ("skip", "abort"):
            raise CliParseError(f"unexpected keyword {tok!r} in {self.text!r}")
        if not tok[0].isalpha() and tok[0] != "_":
            raise CliParseError(f"expected an action name, got {tok!r}")
        return Prim(tok)

    # tests

    def test(self):
        node = self.test_conj()
        while self.peek() == "or":
            self.next()
            node = TOr(node, self.test_conj())
        return node

    def test_conj(self):
        node = self.test_neg()
        while self.peek() == "and":
            self.next()
            node = TAnd(node, self.test_neg())
        return node

    def test_neg(self):
        if self.peek() == "not":
            self.next()
            return TNot(self.test_neg())
        return self.test_prim()

    def test_prim(self):
        tok = self.next()
        if tok == "true":
            return TTrue()
        if tok == "false":
            return TFalse()
        if tok == "(":
            node = self.test()
            self.expect(")")
            return node
        if tok == "{":
            states = []
            if self.peek() != "}":
                states.append(self._state())
                while self.peek() == ",":
                    self.next()
                    states.append(self._state())
            self.expect("}")
            return TStates(states)
        if tok in _KEYWORDS:
            raise CliParseError(f"unexpected keyword {tok!r} in test {self.text!r}")
        if tok[0].isalpha() or tok[0] == "_":
            return TRef(tok)
        raise CliParseError(f"expected a test, got {tok!r} in {self.text!r}")

    def _state(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise CliParseError(f"expected a state number, got {tok!r}")
        return int(tok)


def parse_program(text: str):
    p = _Parser(text)
    node = p.program()
    p.done()
    return node


def parse_test(text: str):
    p = _Parser(text)
    node = p.test()
    p.done()
    return node


# -- workspace files ----------------------------------------------------------


@dataclass
class Workspace:
    semiring: Optional[FiniteSemiring] = None
    tests: Optional[TestAlgebra] = None
    n: Optional[int] = None
    relations: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    programs: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    triples: dict = field(default_factory=dict)
    proofs: dict = field(default_factory=dict)


def semiring_to_doc(S: FiniteSemiring, T: Optional[TestAlgebra] = None) -> dict:
    """Workspace JSON document for a finite semiring, tables as name arrays."""
    nm = S.element_name
    doc = {
        "semiring": {
            "name": S.name,
            "carrier": [nm(i) for i in range(S.n)],
            "add": [[nm(int(v)) for v in row] for row in S.add],
            "mul": [[nm(int(v)) for v in row] for row in S.mul],
            "zero": nm(S.zero),
            "one": nm(S.one),
        }
    }
    if S.star is not None:
        doc["semiring"]["star"] = [nm(int(v)) for v in S.star]
    if S.conv is not None:
        doc["semiring"]["conv"] = [nm(int(v)) for v in S.conv]
    if T is not None:
        doc["tests"] = {
            "members": [nm(p) for p in T.members],
            "compl": {nm(p): nm(q) for p, q in T.compl.items()},
        }
    return doc


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
}


def _expect(value, kind: type, what: str):
    """value, which must be a JSON object, array or string (kind dict, list or str)."""
    if not isinstance(value, kind):
        got = "null" if value is None else _JSON_TYPES.get(type(value), f"a {type(value).__name__}")
        raise CliParseError(f"{what} must be {_JSON_TYPES[kind]}, not {got}")
    return value


def _is_int(x) -> bool:
    """x is a JSON integer; true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def semiring_from_doc(doc: dict) -> tuple[FiniteSemiring, TestAlgebra]:
    spec = doc.get("semiring")
    if spec is None:
        raise CliParseError("workspace declares no semiring")
    _expect(spec, dict, '"semiring"')
    try:
        carrier = _expect(spec["carrier"], list, "the carrier")
        idx = {nm: i for i, nm in enumerate(carrier)}
        if len(idx) != len(carrier):
            raise CliParseError("carrier names are not distinct")

        def row(names):
            return [idx[x] for x in _expect(names, list, "a table row")]

        S = FiniteSemiring(
            carrier,
            [row(r) for r in _expect(spec["add"], list, "the add table")],
            [row(r) for r in _expect(spec["mul"], list, "the mul table")],
            idx[spec["zero"]],
            idx[spec["one"]],
            star=row(spec["star"]) if spec.get("star") is not None else None,
            conv=row(spec["conv"]) if spec.get("conv") is not None else None,
            name=spec.get("name", ""),
        )
    except KeyError as e:
        raise CliParseError(f"semiring table references unknown name {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise CliParseError(f"bad semiring tables: {e}") from e
    tdoc = doc.get("tests")
    if tdoc is None:
        T = TestAlgebra.discrete(S)
    else:
        _expect(tdoc, dict, '"tests"')
        try:
            members = [idx[x] for x in _expect(tdoc["members"], list, "the test members")]
            compl = {idx[k]: idx[v] for k, v in _expect(tdoc["compl"], dict, "the test complement").items()}
            T = TestAlgebra(S, members, compl)
        except KeyError as e:
            raise CliParseError(f"tests reference unknown name {e.args[0]!r}") from e
        except (TypeError, ValueError) as e:
            raise CliParseError(f"bad test algebra: {e}") from e
    return S, T


def _relation_from_doc(n: int, name: str, edges) -> Relation:
    """The relation of an edge list, in one pass; a malformed edge anywhere is reported before one out of range."""
    _expect(edges, list, f"relation {name!r}")
    rows, outside = [0] * n, None
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
            raise CliParseError(f"relation {name!r} is not an edge list of [i, j] state pairs")
        i, j = e
        if 1 <= i <= n and 1 <= j <= n:
            rows[i - 1] |= 1 << (j - 1)
        else:
            outside = outside or e
    if outside is not None:
        raise CliParseError(f"relation {name!r} has edge ({outside[0]}, {outside[1]}) outside 1..{n}")
    return Relation(n, tuple(rows))


def workspace_from_doc(doc: dict) -> Workspace:
    if not isinstance(doc, dict):
        raise CliParseError("workspace must be a JSON object")
    ws = Workspace()
    if "semiring" in doc:
        ws.semiring, ws.tests = semiring_from_doc(doc)
    relational_keys = [k for k in ("relations", "sets", "programs", "env", "triples", "proofs") if k in doc]
    section = {k: _expect(doc[k], dict, f'"{k}"') for k in relational_keys}
    if "n" in doc:
        if not _is_int(doc["n"]) or doc["n"] < 1:
            raise CliParseError('"n" must be a positive state count')
        ws.n = doc["n"]
    elif relational_keys:
        raise CliParseError(f'workspace uses {relational_keys[0]!r} but declares no "n"')
    if ws.n is None:
        return ws

    D = rel_model(ws.n)
    for name, edges in section.get("relations", {}).items():
        ws.relations[name] = _relation_from_doc(ws.n, name, edges)
    for name, states in section.get("sets", {}).items():
        if not all(map(_is_int, _expect(states, list, f"set {name!r}"))):
            raise CliParseError(f"set {name!r} must list state numbers")
        try:
            ws.sets[name] = D.test_from_states(states)
        except ValueError as e:
            raise CliParseError(f"set {name!r}: {e}") from e
    for name, text in section.get("programs", {}).items():
        ws.programs[name] = parse_program(_expect(text, str, f"program {name!r}"))
    for prim, rel in section.get("env", {}).items():
        if _expect(rel, str, f"env entry {prim!r}") not in ws.relations:
            raise CliParseError(f"env binds {prim!r} to unknown relation {rel!r}")
        ws.env[prim] = ws.relations[rel]
    for name, program in ws.programs.items():
        _check_names(program, ws, f"program {name!r}")
    for name, tdoc in section.get("triples", {}).items():
        ws.triples[name] = _triple_from_doc(tdoc, ws, name)
    for name, pdoc in section.get("proofs", {}).items():
        ws.proofs[name] = _proof_from_doc(pdoc, ws, name)
    return ws


def _check_names(node, ws: Workspace, where: str):
    """Refuse a set, action or state in a test or program that the workspace does not declare."""
    if isinstance(node, TRef) and node.name not in ws.sets:
        raise CliParseError(f"{where}: unknown set {node.name!r}")
    if isinstance(node, Prim) and node.name not in ws.env and node.name not in ("skip", "abort"):
        raise CliParseError(f"{where}: unbound action {node.name!r}")
    if isinstance(node, TStates):
        bad = [s for s in node.states if not 1 <= s <= ws.n]
        if bad:
            raise CliParseError(f"{where}: state {bad[0]} outside 1..{ws.n}")
    for f in fields(node):
        child = getattr(node, f.name)
        if is_dataclass(child):
            _check_names(child, ws, where)


def _triple_from_doc(tdoc, ws: Workspace, where: str) -> HoareTriple:
    if isinstance(tdoc, str):
        if tdoc not in ws.triples:
            raise CliParseError(f"{where}: unknown triple {tdoc!r}")
        return ws.triples[tdoc]
    try:
        pre, prog, post = tdoc["pre"], tdoc["prog"], tdoc["post"]
    except (KeyError, TypeError) as e:
        raise CliParseError(f"{where}: a triple needs pre, prog and post") from e
    if not all(isinstance(x, str) for x in (pre, prog, post)):
        raise CliParseError(f"{where}: a triple's pre, prog and post must be strings")
    program = ws.programs[prog] if prog in ws.programs else parse_program(prog)
    triple = HoareTriple(parse_test(pre), program, parse_test(post))
    for part in (triple.pre, triple.prog, triple.post):
        _check_names(part, ws, where)
    return triple


def _proof_from_doc(pdoc, ws: Workspace, where: str) -> ProofTree:
    try:
        rule = pdoc["rule"].lower()
        conclusion = _triple_from_doc(pdoc["conclusion"], ws, where)
    except (KeyError, TypeError, AttributeError) as e:
        raise CliParseError(f"{where}: a proof node needs rule and conclusion") from e
    premises = tuple(
        _proof_from_doc(sub, ws, f"{where}.premise[{i}]")
        for i, sub in enumerate(_expect(pdoc.get("premises", []), list, f"{where}: premises"))
    )
    return ProofTree(rule, conclusion, premises)


def load_workspace(path: str) -> Workspace:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliParseError(f"{path} is not valid JSON: {e}") from e
    return workspace_from_doc(doc)


def _load_algebra(path: str) -> tuple[FiniteSemiring, TestAlgebra]:
    """Resolve builtin:NAME, rel:N, or a workspace file to tables."""
    if path.startswith("builtin:"):
        name = path[len("builtin:") :]
        try:
            S = conway_model(name)
        except ValueError as e:
            raise CliParseError(str(e)) from e
        return S, TestAlgebra.discrete(S)
    if path.startswith("rel:"):
        try:
            n = int(path[len("rel:") :])
        except ValueError as e:
            raise CliParseError(f"bad relation model spec {path!r}") from e
    else:
        ws = load_workspace(path)
        if ws.semiring is not None:
            return ws.semiring, ws.tests
        if ws.n is None:
            raise CliParseError("workspace declares neither a semiring nor a relational state space")
        n = ws.n
    try:
        return rel_semiring(n), rel_tests(n)
    except ValueError as e:
        raise MissingCapability(str(e)) from e


def _load_relational(path: str, relation: Optional[str] = None):
    """(workspace, rel(n) model, the named relation or None) for a workspace with n states."""
    ws = load_workspace(path)
    if ws.n is None:
        raise MissingCapability("workspace declares no relational state space")
    if relation is not None and relation not in ws.relations:
        raise CliParseError(f"unknown relation {relation!r}")
    return ws, rel_model(ws.n), ws.relations.get(relation)


# -- reports ------------------------------------------------------------------


def _print_reports(S: FiniteSemiring, reports) -> bool:
    ok = True
    for r in reports:
        if r.holds:
            suffix = f"  [{r.note}]" if r.note else ""
            print(f"{r.name} holds{suffix}")
        else:
            ok = False
            print(f"{r.name} FAILS with witness {format_witness(S, r.witness)}")
    return ok


_LAW_CHOICES = ("isemiring", "kleene", "tests", "domain", "converse", "all")


def cmd_check(path: str, laws: str = "all") -> int:
    S, T = _load_algebra(path)
    explicit = laws != "all"
    wanted = [laws] if explicit else ["isemiring", "kleene", "tests", "domain", "converse"]
    ok = True

    def domain_structure():
        """The predomain of S (built once and kept on S), or the ValueError that prevents one."""
        try:
            return compute_predomain(S, T)
        except ValueError as e:
            return e

    for kind in wanted:
        if kind == "isemiring":
            ok &= _print_reports(S, check_isemiring(S))
        elif kind == "kleene":
            if S.star is None:
                if explicit:
                    raise MissingCapability("no star table declared")
                print("skipping kleene laws: no star table", file=sys.stderr)
                continue
            ok &= _print_reports(S, check_kleene(S))
        elif kind == "tests":
            ok &= _print_reports(S, check_test_algebra(T))
        elif kind == "domain":
            D = domain_structure()
            if isinstance(D, ValueError):
                if explicit:
                    raise MissingCapability(str(D)) from D
                print(f"skipping domain laws: {D}", file=sys.stderr)
                continue
            ok &= _print_reports(S, check_domain_axioms(D))
            ok &= _print_reports(S, check_domain_calculus(D))
        elif kind == "converse":
            if S.conv is None:
                if explicit:
                    raise MissingCapability("no converse table declared")
                print("skipping converse laws: no converse table", file=sys.stderr)
                continue
            ok &= _print_reports(S, check_converse(S))
            D = domain_structure()
            if not isinstance(D, ValueError):
                ok &= _print_reports(S, converse_duality_check(D))
    return 0 if ok else 1


def _parse_targets(D, text: str) -> int:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if not body.strip():
        return D.test_zero
    try:
        states = [int(s) for s in body.split(",")]
    except ValueError as e:
        raise CliParseError(f"bad target list {text!r}: {e}") from e
    try:
        return D.test_from_states(states)
    except ValueError as e:
        raise CliParseError(str(e)) from e


def cmd_reach(path: str, relation: str, targets: str = "", algo: str = "both") -> int:
    _, D, a = _load_relational(path, relation)
    p = _parse_targets(D, targets)
    results = {}
    for kind in ("naive", "efficient"):
        if algo not in (kind, "both"):
            continue
        run = reach_naive if kind == "naive" else reach_efficient
        r = run(D, a, p)
        results[kind] = r
        print(
            f"{kind}: {D.test_name(r.result)} "
            f"(iterations={r.iterations}, preimage-evals={r.preimage_evals})"
        )
    if algo == "both":
        if results["naive"].result == results["efficient"].result:
            print("agree")
        else:
            print("DISAGREE: the two algorithms returned different sets")
            return 1
    return 0


def cmd_hoare(path: str, triple: Optional[str] = None, proof: Optional[str] = None) -> int:
    ws, D, _ = _load_relational(path)
    if triple is not None:
        if triple not in ws.triples:
            raise CliParseError(f"unknown triple {triple!r}")
        v = check_triple(ws.triples[triple], ws.env, D, ws.sets)
        if v:
            print(f"triple {triple} holds")
            return 0
        print(f"triple {triple} FAILS: {v.note}")
        return 1
    if proof is not None:
        if proof not in ws.proofs:
            raise CliParseError(f"unknown proof {proof!r}")
        v = validate_proof(ws.proofs[proof], ws.env, D, ws.sets)
        if v:
            print(f"proof {proof} is valid")
            return 0
        print(f"proof {proof} INVALID: {v.note}")
        return 1
    raise CliParseError("hoare needs --triple or --proof")


def _has_cycle(rel: Relation) -> bool:
    """Kahn's algorithm: a cycle remains once no state without predecessors is left."""
    succ = [_bit_positions(row) for row in rel.rows]
    indegree = [0] * rel.n
    for js in succ:
        for j in js:
            indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if d == 0]
    removed = 0
    while ready:
        removed += 1
        for j in succ[ready.pop()]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return removed < rel.n


def cmd_termination(path: str, relation: str) -> int:
    _, D, a = _load_relational(path, relation)
    rep = termination_report(D, a, subject=relation)
    print(rep)
    acyclic = not _has_cycle(a)
    if rep.noetherian.holds == acyclic:
        print("oracle-agree")
        return 0
    print(
        "ORACLE DISAGREEMENT: noetherian="
        f"{str(rep.noetherian.holds).lower()} but cycle search says acyclic={str(acyclic).lower()}"
    )
    return 1


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="kad",
        description="Check Kleene-algebra models, reachability, termination and Hoare triples.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run equational law checkers on a model")
    p.add_argument("path", help="workspace file, builtin:NAME, or rel:N")
    p.add_argument("--laws", choices=_LAW_CHOICES, default="all")

    p = sub.add_parser("reach", help="backward reachability over a workspace relation")
    p.add_argument("path")
    p.add_argument("--relation", required=True)
    p.add_argument("--targets", default="", help='target states, e.g. "3,5" or "{3,5}"')
    p.add_argument("--algo", choices=("naive", "efficient", "both"), default="both")

    p = sub.add_parser("hoare", help="check a triple or validate a proof tree")
    p.add_argument("path")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--triple")
    g.add_argument("--proof")

    p = sub.add_parser("termination", help="termination analysis of a workspace relation")
    p.add_argument("path")
    p.add_argument("--relation", required=True)

    args = ap.parse_args(argv)
    try:
        if args.cmd == "check":
            return cmd_check(args.path, args.laws)
        if args.cmd == "reach":
            return cmd_reach(args.path, args.relation, args.targets, args.algo)
        if args.cmd == "hoare":
            return cmd_hoare(args.path, args.triple, args.proof)
        if args.cmd == "termination":
            return cmd_termination(args.path, args.relation)
    except CliParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MissingCapability as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
