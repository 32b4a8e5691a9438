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
import functools
import json
import re
import sys
from typing import Optional

from .hoare import (
    Cond, HoareTriple, Prim, ProofTree, Seq, TAnd, TFalse, TNot, TOr, TRef, TStates, TTrue, While,
    _preorder, check_triple, validate_proof,
)
from .laws import TABLE_NAMES, _Record, table_getattr
from .models import Relation, rel_model, rel_semiring, rel_tests
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
__getattr__ = table_getattr(__name__)


def _table_layer() -> None:
    """Bind every name of the table layer here, importing it: each one not bound yet, so a wrapper set on a name here is
    what kad check calls.  The other commands never call this, and so never load the table layer."""
    for name in TABLE_NAMES.keys() - globals().keys():
        globals()[name] = __getattr__(name)


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
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>[0-9]+)|(?P<assign>:=)|(?P<sym>[;(){},])|(?P<bad>\S))"
)

_ASSIGN_MSG = (
    "assignment is not part of propositional Hoare logic; "
    "model state change as a primitive action"
)


def _is_number(text: str) -> bool:
    """Whether text is a state number: the digits 0-9, between spaces (int also reads a sign, '_' and every script's
    digits)."""
    return text.strip().isascii() and text.strip().isdigit()


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
        if not _is_number(tok):
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


class Workspace(_Record):
    """A workspace file's contents, each section a new empty dict unless given; _model, the rel(n) its sets are tests of,
    is built on first read."""

    _fields = ("semiring", "tests", "n", "relations", "sets", "programs", "env", "triples", "proofs")

    def __init__(self, semiring=None, tests=None, n=None, relations=None, sets=None, programs=None, env=None, triples=None, proofs=None):
        sections = (relations, sets, programs, env, triples, proofs)
        self.__dict__.update(zip(self._fields, (semiring, tests, n, *({} if x is None else x for x in sections))))

    @functools.cached_property
    def _model(self):
        return rel_model(self.n)


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
    for column in ("star", "conv"):
        if getattr(S, column) is not None:
            doc["semiring"][column] = [nm(int(v)) for v in getattr(S, column)]
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


def _require_keys(spec: dict, what: str, keys) -> None:
    """Raise CliParseError naming the first of keys missing from spec, so that it is not taken for an unknown name."""
    missing = next((k for k in keys if k not in spec), None)
    if missing is not None:
        raise CliParseError(f"{what} no {missing!r}")


def semiring_from_doc(doc: dict) -> tuple[FiniteSemiring, TestAlgebra]:
    _table_layer()
    spec = doc.get("semiring")
    if spec is None:
        raise CliParseError("workspace declares no semiring")
    _expect(spec, dict, '"semiring"')
    _require_keys(spec, "semiring declares", ("carrier", "add", "mul", "zero", "one"))
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
            **{column: row(spec[column]) for column in ("star", "conv") if spec.get(column) is not None},
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
        _require_keys(tdoc, "tests declare", ("members", "compl"))
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
    """The relation of an edge list, read in one pass and sorted only where it is not strictly ascending; a malformed
    edge anywhere is reported before the first one out of range."""
    rows, outside = [[] for _ in range(n)], None
    for e in _expect(edges, list, f"relation {name!r}"):
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise CliParseError(f"relation {name!r} is not an edge list of [i, j] state pairs")
        i, j = e
        if 1 <= i <= n and 1 <= j <= n:
            rows[i - 1].append(j - 1)
        elif outside is None:
            outside = e
    if outside is not None:
        raise CliParseError(f"relation {name!r} has edge ({outside[0]}, {outside[1]}) outside 1..{n}")
    return Relation._from_rows(n, rows, edges)


def workspace_from_doc(doc: dict) -> Workspace:
    if not isinstance(doc, dict):
        raise CliParseError("workspace must be a JSON object")
    semiring, tests = semiring_from_doc(doc) if "semiring" in doc else (None, None)
    relational_keys = [k for k in ("relations", "sets", "programs", "env", "triples", "proofs") if k in doc]
    section = {k: _expect(doc[k], dict, f'"{k}"') for k in relational_keys}
    if "n" in doc:
        if type(doc["n"]) is not int or doc["n"] < 1:
            raise CliParseError('"n" must be a positive state count')
    elif relational_keys:
        raise CliParseError(f'workspace uses {relational_keys[0]!r} but declares no "n"')
    ws = Workspace(semiring, tests, doc.get("n"))
    if ws.n is None:
        return ws

    for name, edges in section.get("relations", {}).items():
        ws.relations[name] = _relation_from_doc(ws.n, name, edges)
    for name, states in section.get("sets", {}).items():
        if name in _KEYWORDS:
            raise CliParseError(f"set {name!r} is a keyword")
        if not all(type(s) is int for s in _expect(states, list, f"set {name!r}")):
            raise CliParseError(f"set {name!r} must list state numbers")
        try:
            ws.sets[name] = ws._model.test_from_states(states)
        except ValueError as e:
            raise CliParseError(f"set {name!r}: {e}") from e
    for name, text in section.get("programs", {}).items():
        ws.programs[name] = parse_program(_expect(text, str, f"program {name!r}"))
    for prim, rel in section.get("env", {}).items():
        if prim in _KEYWORDS:
            raise CliParseError(f"env entry {prim!r} is a keyword")
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
    for node in _preorder(node):
        if isinstance(node, TRef) and node.name not in ws.sets:
            raise CliParseError(f"{where}: unknown set {node.name!r}")
        if isinstance(node, Prim) and node.name not in ws.env and node.name not in ("skip", "abort"):
            raise CliParseError(f"{where}: unbound action {node.name!r}")
        if isinstance(node, TStates):
            bad = [s for s in node.states if not 1 <= s <= ws.n]
            if bad:
                raise CliParseError(f"{where}: state {bad[0]} outside 1..{ws.n}")


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
    # a named program was checked when the programs section loaded
    program = ws.programs[prog] if prog in ws.programs else parse_program(prog)
    triple = HoareTriple(parse_test(pre), program, parse_test(post))
    for part in (triple.pre, triple.post) if prog in ws.programs else (triple.pre, triple.prog, triple.post):
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
        return workspace_from_doc(doc)
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliParseError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise CliParseError("workspace nests too deeply to read") from e


def _load_algebra(path: str) -> tuple[FiniteSemiring, TestAlgebra]:
    """Resolve builtin:NAME, rel:N, or a workspace file to tables."""
    _table_layer()
    if path.startswith("builtin:"):
        name = path[len("builtin:") :]
        try:
            S = conway_model(name)
        except ValueError as e:
            raise CliParseError(str(e)) from e
        return S, TestAlgebra.discrete(S)
    if path.startswith("rel:"):
        spec = path[len("rel:") :]
        if not _is_number(spec) or int(spec) < 1:
            raise CliParseError(f"bad relation model spec {path!r}")
        n = int(spec)
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
    return ws, ws._model, ws.relations.get(relation)


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


# kad check's law families in --laws order: name -> (what the model lacks for the family, as its skip reason and its
# exit-3 message, or None; the call that makes its reports), both functions of S, T and D, where D() is the predomain of
# S or the ValueError that prevents one.  Checkers are read from this module's names at call time, for their wrappers.
_FAMILIES = {
    "isemiring": (lambda S, T, D: None, lambda S, T, D: check_isemiring(S)),
    "kleene": (
        lambda S, T, D: ("no star table", "no star table declared") if S.star is None else None,
        lambda S, T, D: check_kleene(S),
    ),
    "tests": (lambda S, T, D: None, lambda S, T, D: check_test_algebra(T)),
    "domain": (
        lambda S, T, D: (str(D()), str(D())) if isinstance(D(), ValueError) else None,
        lambda S, T, D: [*check_domain_axioms(D()), *check_domain_calculus(D())],
    ),
    "converse": (
        lambda S, T, D: ("no converse table", "no converse table declared") if S.conv is None else None,
        lambda S, T, D: [*check_converse(S), *([] if isinstance(D(), ValueError) else converse_duality_check(D()))],
    ),
}


def cmd_check(path: str, laws: str = "all") -> int:
    if laws not in (*_FAMILIES, "all"):
        raise CliParseError(f"unknown law family {laws!r} (choose from {', '.join(_FAMILIES)} or all)")
    S, T = _load_algebra(path)

    @functools.cache
    def D():
        """The predomain of S (built once and kept on S), or the ValueError that prevents one."""
        try:
            return compute_predomain(S, T)
        except ValueError as e:
            return e

    ok = True
    for family, (lacks, reports) in _FAMILIES.items():
        if laws not in (family, "all"):
            continue
        missing = lacks(S, T, D)
        if missing is None:
            ok &= _print_reports(S, reports(S, T, D))
        elif laws == family:
            raise MissingCapability(missing[1])
        else:
            print(f"skipping {family} laws: {missing[0]}", file=sys.stderr)
    return 0 if ok else 1


def _parse_targets(D, text: str) -> int:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if not body.strip():
        return D.test_zero
    states = body.split(",")
    bad = next((s for s in states if not _is_number(s)), None)
    if bad is not None:
        raise CliParseError(f"bad target list {text!r}: invalid literal for int() with base 10: {bad!r}")
    try:
        return D.test_from_states(map(int, states))
    except ValueError as e:
        raise CliParseError(str(e)) from e


def cmd_reach(path: str, relation: str, targets: str = "", algo: str = "both") -> int:
    if relation is None or algo not in ("naive", "efficient", "both"):
        raise CliParseError("reach needs --relation" if relation is None else f"unknown --algo {algo!r} (naive, efficient or both)")
    _, D, a = _load_relational(path, relation)
    p = _parse_targets(D, targets)
    results = {}
    for kind in ("naive", "efficient"):
        if algo not in (kind, "both"):
            continue
        r = results[kind] = (reach_naive if kind == "naive" else reach_efficient)(D, a, p)
        print(f"{kind}: {D.test_name(r.result)} (iterations={r.iterations}, preimage-evals={r.preimage_evals})")
    if algo != "both":
        return 0
    agree = results["naive"].result == results["efficient"].result
    print("agree" if agree else "DISAGREE: the two algorithms returned different sets")
    return 0 if agree else 1


def cmd_hoare(path: str, triple: Optional[str] = None, proof: Optional[str] = None) -> int:
    if triple is not None and proof is not None:
        raise CliParseError("hoare takes --triple or --proof, not both")
    ws, D, _ = _load_relational(path)
    # the kind asked for, its name, the section naming it, its checker, and the words of a verdict that holds or fails
    kind, name, named, check, holds, fails = (
        ("triple", triple, ws.triples, check_triple, "holds", "FAILS")
        if triple is not None
        else ("proof", proof, ws.proofs, validate_proof, "is valid", "INVALID")
    )
    if name is None:
        raise CliParseError("hoare needs --triple or --proof")
    if name not in named:
        raise CliParseError(f"unknown {kind} {name!r}")
    v = check(named[name], ws.env, D, ws.sets)
    print(f"{kind} {name} {holds}" if v else f"{kind} {name} {fails}: {v.note}")
    return 0 if v else 1


def _has_cycle(D, rel) -> bool:
    """Kahn's algorithm over D's successor rows: a cycle remains once no state without predecessors is left."""
    succ = D.image_rows(rel)
    indegree = [0] * len(succ)
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
    return removed < len(succ)


def cmd_termination(path: str, relation: str) -> int:
    if relation is None:
        raise CliParseError("termination needs --relation")
    _, D, a = _load_relational(path, relation)
    rep = termination_report(D, a, subject=relation)
    print(rep)
    acyclic = not _has_cycle(D, a)
    if rep.noetherian.holds == acyclic:
        print("oracle-agree")
        return 0
    print(
        "ORACLE DISAGREEMENT: noetherian="
        f"{str(rep.noetherian.holds).lower()} but cycle search says acyclic={str(acyclic).lower()}"
    )
    return 1


# -- entry point --------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The kad argument parser, built once: parse_args keeps nothing of a call on it."""
    ap = argparse.ArgumentParser(
        prog="kad",
        description="Check Kleene-algebra models, reachability, termination and Hoare triples.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run equational law checkers on a model")
    p.add_argument("path", help="workspace file, builtin:NAME, or rel:N")
    p.add_argument("--laws", choices=(*_FAMILIES, "all"), default="all")

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
    return ap


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    try:
        # each subcommand's options are the parameters of its cmd_ function, read here at call time
        return globals()[f"cmd_{args.pop('cmd')}"](**args)
    except (CliParseError, MissingCapability) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, CliParseError) else 3


if __name__ == "__main__":
    sys.exit(main())
