"""Command-line front end: the program/test grammar, workspace round-trips,
every exit code, and the printed report formats."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import pytest

import kadlib.cli
from kadlib.algebra import TestAlgebra
from kadlib.cli import (
    _ASSIGN_MSG,
    CliParseError,
    _load_algebra,
    cmd_check,
    load_workspace,
    main,
    parse_program,
    parse_test,
    semiring_to_doc,
    workspace_from_doc,
)
from kadlib.hoare import Cond, Prim, Seq, TAnd, TFalse, TNot, TOr, TRef, TStates, TTrue, While
from kadlib.models import Relation, conway_model, conway_names, rel_semiring, rel_tests


def write_ws(tmp_path, doc, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CHAIN = {
    "n": 3,
    "relations": {"R": [[1, 2], [2, 3]], "Loop": [[1, 1]]},
    "sets": {"atEnd": [3]},
    "programs": {"main": "while not atEnd do step od"},
    "env": {"step": "R"},
    "triples": {
        "good": {"pre": "true", "prog": "main", "post": "atEnd"},
        "bad": {"pre": "true", "prog": "step", "post": "atEnd"},
    },
    "proofs": {
        "pf": {
            "rule": "while",
            "conclusion": {"pre": "true", "prog": "main", "post": "not (not atEnd) and true"},
            "premises": [
                {
                    "rule": "axiom",
                    "conclusion": {"pre": "not atEnd and true", "prog": "step", "post": "true"},
                }
            ],
        },
        "pfbad": {
            "rule": "axiom",
            "conclusion": "bad",
        },
    },
}


# -- the grammar ---------------------------------------------------------------


def test_program_grammar():
    assert parse_program("a; b; c") == Seq(Seq(Prim("a"), Prim("b")), Prim("c"))
    assert parse_program("a; (b; c)") == Seq(Prim("a"), Seq(Prim("b"), Prim("c")))
    assert parse_program("if p then a else skip fi") == Cond(
        TRef("p"), Prim("a"), Prim("skip")
    )
    assert parse_program("while p do a; b od") == While(
        TRef("p"), Seq(Prim("a"), Prim("b"))
    )
    assert parse_program("skip") == Prim("skip")
    assert parse_program("abort") == Prim("abort")


def test_test_grammar_precedence():
    # or is weakest, then and, then not
    assert parse_test("not p and q or r") == TOr(
        TAnd(TNot(TRef("p")), TRef("q")), TRef("r")
    )
    assert parse_test("p or q and r") == TOr(TRef("p"), TAnd(TRef("q"), TRef("r")))
    assert parse_test("not (p or q)") == TNot(TOr(TRef("p"), TRef("q")))
    assert parse_test("{1,2}") == TStates((1, 2))
    assert parse_test("{}") == TStates(())
    assert parse_test("true and false") == TAnd(TTrue(), TFalse())


def test_parse_errors():
    with pytest.raises(CliParseError, match="assignment is not part"):
        parse_program("x := 1")
    with pytest.raises(CliParseError, match="unexpected character"):
        parse_program("a $ b")
    with pytest.raises(CliParseError, match="unexpected keyword"):
        parse_program("a; od")
    with pytest.raises(CliParseError, match="unexpected end of input"):
        parse_program("if p then a")
    with pytest.raises(CliParseError, match="trailing input"):
        parse_program("a b")
    with pytest.raises(CliParseError, match="expected a state number"):
        parse_test("{x}")
    with pytest.raises(CliParseError, match="unexpected keyword"):
        parse_test("p and od")


# -- workspace round-trips ----------------------------------------------------------


def test_builtins_round_trip_through_files(tmp_path):
    for nm in conway_names():
        S = conway_model(nm)
        T = TestAlgebra.discrete(S)
        path = write_ws(tmp_path, semiring_to_doc(S, T), f"{nm}.json")
        S2, T2 = _load_algebra(path)
        assert S2 == S
        assert T2.members == T.members and T2.compl == T.compl


def test_relation_semiring_round_trips_with_converse(tmp_path):
    S = rel_semiring(2)
    T = rel_tests(2)
    path = write_ws(tmp_path, semiring_to_doc(S, T))
    S2, T2 = _load_algebra(path)
    assert S2 == S
    assert T2.members == T.members and T2.compl == T.compl


def test_workspace_requires_n_for_relational_keys(tmp_path):
    path = write_ws(tmp_path, {"relations": {"R": [[1, 1]]}})
    with pytest.raises(CliParseError, match='declares no "n"'):
        load_workspace(path)


def test_workspace_validates_edges_and_sets(tmp_path):
    path = write_ws(tmp_path, {"n": 2, "relations": {"R": [[1, 3]]}})
    with pytest.raises(CliParseError, match="outside 1..2"):
        load_workspace(path)
    path = write_ws(tmp_path, {"n": 2, "sets": {"p": [5]}})
    with pytest.raises(CliParseError, match="set 'p'"):
        load_workspace(path)
    path = write_ws(tmp_path, {"n": 2, "relations": {}, "env": {"a": "missing"}})
    with pytest.raises(CliParseError, match="unknown relation"):
        load_workspace(path)


def test_edge_lists_in_any_order_load_the_relation_of_their_set_of_pairs():
    """Ascending, shuffled, duplicated and descending edge lists give the relation whose
    rows are the sorted set of each state's successors, through the workspace loader and
    through from_pairs (also from a generator, lists of lists, mixed pair types and numpy
    rows, which do not compare as tuples do)."""
    import numpy as np

    rng, n = random.Random(7), 6
    ascending = sorted({(rng.randint(1, n), rng.randint(1, n)) for _ in range(24)})
    shuffled = rng.sample(ascending, len(ascending))
    duplicated = sorted(ascending + ascending[::3])
    for pairs in (ascending, shuffled, duplicated, ascending[::-1], ascending[:1], []):
        want = Relation(n, tuple(tuple(sorted({j - 1 for i, j in pairs if i == s})) for s in range(1, n + 1)))
        lists = [list(p) for p in pairs]
        assert kadlib.cli._relation_from_doc(n, "R", lists) == want
        assert Relation.from_pairs(n, pairs) == Relation.from_pairs(n, iter(pairs)) == Relation.from_pairs(n, lists) == want
        mixed = [p if k % 2 else list(p) for k, p in enumerate(pairs)]
        assert Relation.from_pairs(n, mixed) == Relation.from_pairs(n, list(np.array(lists, dtype=int).reshape(-1, 2))) == want
    with pytest.raises(CliParseError, match=r"has edge \(2, 3\) outside 1..2"):
        kadlib.cli._relation_from_doc(2, "R", [[1, 1], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match=r"pair \(2,3\) outside 1..2"):
        Relation.from_pairs(2, [(1, 1), (1, 2), (2, 3)])


REL = {"n": 2, "relations": {"R": []}}

MALFORMED = {
    "relations-not-an-object": ({"n": 3, "relations": [[1, 2]]}, '"relations" must be an object, not an array'),
    "n-is-a-boolean": ({"n": True, "relations": {"R": [[1, 1]]}}, '"n" must be a positive state count'),
    "edges-not-an-array": ({"n": 2, "relations": {"R": {"12": 0}}}, "relation 'R' must be an array, not an object"),
    "edge-not-a-pair": (
        {"n": 2, "relations": {"R": [[1, 2, 1]]}},
        "relation 'R' is not an edge list of [i, j] state pairs",
    ),
    "edge-out-of-range": (
        {"n": 2, "relations": {"R": [[1, 1], [0, 1], [3, 1]]}},
        "relation 'R' has edge (0, 1) outside 1..2",
    ),
    # a malformed edge is reported whether it comes after or before an edge out of range
    "edge-malformed-after-out-of-range": (
        {"n": 2, "relations": {"R": [[0, 1], "x"]}},
        "relation 'R' is not an edge list of [i, j] state pairs",
    ),
    "edge-malformed-before-out-of-range": (
        {"n": 2, "relations": {"R": [[1, 2], [True, 1], [1, 3]]}},
        "relation 'R' is not an edge list of [i, j] state pairs",
    ),
    "set-not-an-array": ({**REL, "sets": {"p": "12"}}, "set 'p' must be an array, not a string"),
    "program-not-a-string": ({**REL, "programs": {"p": 5}}, "program 'p' must be a string, not a number"),
    "env-not-a-string": ({**REL, "env": {"a": ["R"]}}, "env entry 'a' must be a string, not an array"),
    "program-unbound-action": ({**REL, "programs": {"p": "skip; jump"}}, "program 'p': unbound action 'jump'"),
    "program-unknown-set": (
        {**REL, "programs": {"p": "while nowhere do skip od"}},
        "program 'p': unknown set 'nowhere'",
    ),
    # deeper than the recursive-descent parser can go
    "program-nested-too-deeply": (
        {**REL, "programs": {"p": "(" * 3000 + "skip" + ")" * 3000}},
        "workspace nests too deeply to read",
    ),
    "test-nested-too-deeply": (
        {**REL, "triples": {"t": {"pre": "not " * 3000 + "true", "prog": "skip", "post": "true"}}},
        "workspace nests too deeply to read",
    ),
    "compl-not-an-object": (
        {**semiring_to_doc(conway_model("A2")), "tests": {"members": ["0", "1"], "compl": [["0", "1"]]}},
        "the test complement must be an object, not an array",
    ),
    # relation model specs in place of a workspace path; "n": 0 in a workspace exits 2 too
    "rel-zero": ("rel:0", "bad relation model spec 'rel:0'"),
    "rel-negative": ("rel:-1", "bad relation model spec 'rel:-1'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_is_a_one_line_parse_error(case, tmp_path, capsys):
    doc, message = MALFORMED[case]
    if isinstance(doc, str):
        argv = ["check", doc]
    else:
        path = write_ws(tmp_path, doc)
        argv = ["check", path] if "semiring" in doc else ["termination", path, "--relation", "R"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


WORKSPACE_KEYS = ("n", "relations", "sets", "programs", "env", "triples", "proofs", "semiring", "tests", "R", "t", "p")
json_values = strat.recursive(
    strat.one_of(
        strat.none(),
        strat.booleans(),
        strat.integers(-1, 4),
        strat.sampled_from(["", "R", "t", "0", "1", "a", "x", "step", "{1}", "true", "skip; step", "while {1} do R od"]),
    ),
    lambda kids: strat.one_of(strat.lists(kids, max_size=3), strat.dictionaries(strat.sampled_from(WORKSPACE_KEYS), kids, max_size=3)),
    max_leaves=6,
)


def slots(node):
    """(container, key) for every entry of every object and array in a JSON document."""
    entries = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in entries:
        yield node, k
        yield from slots(v)


# well-formed documents beside MALFORMED, so that mutants reach verdicts too: a
# triple t and a proof p that hold, the same that fail, and a table workspace
# whose laws fail
def step_ws(post):
    triple = {"pre": "{1}", "prog": "step", "post": post}
    return {"n": 2, "relations": {"R": [[1, 2]]}, "env": {"step": "R"}, "triples": {"t": triple}, "proofs": {"p": {"rule": "axiom", "conclusion": "t"}}}


WELL_FORMED = [step_ws("{2}"), step_ws("{1}"), semiring_to_doc(conway_model("A4_1"))]


@strat.composite
def mutated_workspaces(draw):
    """A MALFORMED or WELL_FORMED document with one to three entries replaced, dropped or added."""
    malformed = [doc for doc, _ in MALFORMED.values() if isinstance(doc, dict)]
    doc = copy.deepcopy(draw(strat.one_of(strat.sampled_from(WELL_FORMED), strat.sampled_from(malformed))))
    for _ in range(draw(strat.integers(1, 3))):
        node, key = draw(strat.sampled_from([(doc, draw(strat.sampled_from(WORKSPACE_KEYS))), *slots(doc)]))
        if draw(strat.booleans()) or isinstance(node, list):
            node[key] = draw(json_values)
        else:
            node.pop(key, None)
    return doc


# what a shape-keeping mutant puts in a triple; the last of each does not parse,
# {3} names a state outside 1..2, and jump is an unbound action
TEST_TEXTS = ("{1}", "{2}", "{1,2}", "{}", "true", "false", "not {1}", "{1} or {2}", "{2} and not {1}", "{3}", "{1")
PROGRAM_TEXTS = ("step", "skip", "abort", "step; step", "(step)", "if {1} then step else skip fi", "while not {2} do step od", "jump", "step;")


@strat.composite
def reshaped_relation_seeds(draw):
    """A relation seed of WELL_FORMED with one to three of its pre, prog and post strings and edge endpoints
    replaced: the document keeps its shape, so that most mutants reach a verdict (an endpoint of 0 or 3 is
    outside 1..2)."""
    doc = copy.deepcopy(draw(strat.sampled_from([ws for ws in WELL_FORMED if "relations" in ws])))
    triple = doc["triples"]["t"]
    places = [(triple, "pre", TEST_TEXTS), (triple, "post", TEST_TEXTS), (triple, "prog", PROGRAM_TEXTS)]
    places += [(edge, k, range(4)) for edge in doc["relations"]["R"] for k in (0, 1)]
    for _ in range(draw(strat.integers(1, 3))):
        node, key, values = draw(strat.sampled_from(places))
        node[key] = draw(strat.sampled_from(values))
    return doc


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    strat.one_of(mutated_workspaces(), reshaped_relation_seeds()),
    strat.sampled_from(
        [["check"], ["reach", "--relation", "R", "--targets", "1"], ["termination", "--relation", "R"], ["hoare", "--triple", "t"], ["hoare", "--proof", "p"]]
    ),
)
def test_mutated_workspaces_end_in_an_exit_code_never_a_traceback(tmp_path_factory, doc, command):
    """Exit 2 or 3 with a one-line message, or a verdict: exit 1 only where one failed."""
    path = write_ws(tmp_path_factory.getbasetemp(), doc, "mutated.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert any(word in out.getvalue() for word in ("FAILS", "DISAGREE", "INVALID")), out.getvalue()
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_json_nested_too_deeply_is_a_one_line_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["hoare", str(path), "--triple", "t"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: workspace nests too deeply to read\n")


# in a plain interpreter the recursive-descent parser loads a program nested in up to 495 parentheses, a test in up to
# 247 and a chain of up to 988 not; these depths, a fifth below each, load under pytest's deeper stack too
NESTINGS = {
    "program-parentheses": (400, lambda k: {"programs": {"p": "(" * k + "skip" + ")" * k}}),
    "test-parentheses": (200, lambda k: {"triples": {"t": {"pre": "(" * k + "true" + ")" * k, "prog": "skip", "post": "true"}}}),
    "not-chain": (800, lambda k: {"triples": {"t": {"pre": "not " * k + "true", "prog": "skip", "post": "true"}}}),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_the_parser_keeps_its_nesting_capacity(kind, tmp_path, capsys):
    depth, nest = NESTINGS[kind]
    ws = workspace_from_doc({**REL, **nest(depth)})
    assert len(ws.programs) + len(ws.triples) == 1
    assert main(["termination", write_ws(tmp_path, {**REL, **nest(3000)}), "--relation", "R"]) == 2
    assert capsys.readouterr() == ("", "error: workspace nests too deeply to read\n")


# -- check command -------------------------------------------------------------------


def test_check_builtin_all_green(capsys):
    assert main(["check", "builtin:A2"]) == 0
    out, err = capsys.readouterr()
    assert "FAILS" not in out
    assert "add-commutative holds" in out
    assert "star-left-induction holds" in out
    assert "d1 holds" in out
    assert "skipping converse laws: no converse table" in err


def test_check_reports_locality_failure(capsys):
    assert main(["check", "builtin:A3_2", "--laws", "domain"]) == 1
    out, _ = capsys.readouterr()
    assert "dloc FAILS with witness (a, a)" in out
    assert "cdloc FAILS with witness (a, a)" in out
    assert "d1 holds" in out and "d2 holds" in out
    assert "[not applicable: no locality]" in out


def test_check_relational_model_with_converse(capsys):
    assert main(["check", "rel:2"]) == 0
    out, _ = capsys.readouterr()
    assert "conv-involutive holds" in out
    assert "dom-of-converse holds" in out
    assert "FAILS" not in out


def test_check_catches_broken_tables(tmp_path, capsys):
    doc = semiring_to_doc(conway_model("A3_1"))
    doc["semiring"]["mul"][0][0] = "1"
    path = write_ws(tmp_path, doc)
    assert main(["check", path, "--laws", "isemiring"]) == 1
    out, _ = capsys.readouterr()
    assert "mul-associative FAILS with witness" in out


def test_check_exit_codes_for_bad_input(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ not json")
    assert main(["check", str(garbage)]) == 2
    assert main(["check", "builtin:A9"]) == 2
    assert main(["check", "rel:4"]) == 3
    assert main(["check", "builtin:A2", "--laws", "converse"]) == 3
    _, err = capsys.readouterr()
    assert "error:" in err


A2_DOC = semiring_to_doc(conway_model("A2"))
# A2 with 1·1 = 0: no test p has 1 <= p·1, so there is no predomain; the identity converse keeps its laws unskipped
NO_PREDOMAIN = {"semiring": {**A2_DOC["semiring"], "mul": [["0", "0"], ["0", "0"]], "conv": ["0", "1"]}}
STEP = {**REL, "env": {"step": "R"}}
ONE_LINE_ERRORS = {
    # name: (workspace document, or a path spec in place of a file; the command and its options; exit code; message)
    "semiring-null": ({"semiring": None}, ["check"], 2, "workspace declares no semiring"),
    "carrier-repeated": ({"semiring": {**A2_DOC["semiring"], "carrier": ["0", "0"]}}, ["check"], 2, "carrier names are not distinct"),
    "test-outside-the-carrier": (
        {**A2_DOC, "tests": {"members": ["0", "x"], "compl": {"0": "x", "x": "0"}}}, ["check"], 2, "tests reference unknown name 'x'",
    ),
    "semiring-without-mul": (
        {"semiring": {k: v for k, v in A2_DOC["semiring"].items() if k != "mul"}}, ["check"], 2, "semiring declares no 'mul'",
    ),
    "tests-without-members": ({**A2_DOC, "tests": {"compl": {"0": "1", "1": "0"}}}, ["check"], 2, "tests declare no 'members'"),
    "add-row-ragged": (
        {"semiring": {**A2_DOC["semiring"], "add": [["0", "1"], ["1"]]}}, ["check"], 2, "bad semiring tables: add table must be 2x2",
    ),
    "complement-not-total": (
        {**A2_DOC, "tests": {"members": ["0", "1"], "compl": {"0": "1"}}},
        ["check"],
        2,
        "bad test algebra: compl must be total exactly on members",
    ),
    "rel-not-a-number": ("rel:abc", ["check"], 2, "bad relation model spec 'rel:abc'"),
    "neither-semiring-nor-n": ({}, ["check"], 2, "workspace declares neither a semiring nor a relational state space"),
    "unknown-triple": ({**STEP, "proofs": {"p": {"rule": "axiom", "conclusion": "zzz"}}}, ["hoare", "--proof", "p"], 2, "p: unknown triple 'zzz'"),
    "triple-without-post": (
        {**STEP, "triples": {"t": {"pre": "true", "prog": "step"}}}, ["hoare", "--triple", "t"], 2, "t: a triple needs pre, prog and post",
    ),
    "triple-part-not-a-string": (
        {**STEP, "triples": {"t": {"pre": "true", "prog": "step", "post": 3}}},
        ["hoare", "--triple", "t"],
        2,
        "t: a triple's pre, prog and post must be strings",
    ),
    "proof-node-without-rule": (
        {**STEP, "proofs": {"p": {"conclusion": {"pre": "true", "prog": "step", "post": "true"}}}},
        ["hoare", "--proof", "p"],
        2,
        "p: a proof node needs rule and conclusion",
    ),
    "unreadable-path": (None, ["check"], 2, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "no-predomain": (NO_PREDOMAIN, ["check", "--laws", "domain"], 3, "'1' has no left-preserving test; the test algebra is too small or the laws fail"),
    "workspace-not-an-object": ([], ["check"], 2, "workspace must be a JSON object"),
    "zero-not-in-the-carrier": ({"semiring": {**A2_DOC["semiring"], "zero": "z"}}, ["check"], 2, "semiring table references unknown name 'z'"),
    "set-of-names": ({**REL, "sets": {"p": ["1"]}}, ["check"], 2, "set 'p' must list state numbers"),
    "if-without-else": ({**REL, "programs": {"p": "if true then skip fi"}}, ["check"], 2, "expected 'else', got 'fi' in 'if true then skip fi'"),
    "program-ends-in-a-semicolon": ({**REL, "programs": {"p": "skip;"}}, ["check"], 2, "unexpected end of input in 'skip;'"),
    "action-a-number": ({**REL, "programs": {"p": "3"}}, ["check"], 2, "expected an action name, got '3'"),
    "test-a-comma": ({**REL, "programs": {"p": "while , do skip od"}}, ["check"], 2, "expected a test, got ',' in 'while , do skip od'"),
    # skip and abort are the constants 1 and 0, and a set named by a keyword could never be referenced
    "env-binds-skip": (
        {"n": 3, "relations": {"Z": []}, "env": {"skip": "Z"}, "triples": {"t": {"pre": "{1}", "prog": "skip", "post": "false"}}},
        ["hoare", "--triple", "t"],
        2,
        "env entry 'skip' is a keyword",
    ),
    "env-binds-abort": ({**STEP, "env": {"abort": "R"}}, ["termination", "--relation", "R"], 2, "env entry 'abort' is a keyword"),
    "set-named-true": ({**REL, "sets": {"true": [1]}}, ["check"], 2, "set 'true' is a keyword"),
    # a state number or rel:N is the digits 0-9, between spaces: no other script's digits, no sign and no '_'
    "state-in-devanagari-digits": ({**REL, "programs": {"p": "while {२} do skip od"}}, ["check"], 2, "unexpected character '२'"),
    "target-in-fullwidth-digits": (
        REL, ["reach", "--relation", "R", "--targets", "３"], 2, "bad target list '３': invalid literal for int() with base 10: '３'",
    ),
    "target-with-an-underscore": (
        REL, ["reach", "--relation", "R", "--targets", "1_0"], 2, "bad target list '1_0': invalid literal for int() with base 10: '1_0'",
    ),
    "target-with-a-sign": (
        REL, ["reach", "--relation", "R", "--targets", "1, +2"], 2, "bad target list '1, +2': invalid literal for int() with base 10: ' +2'",
    ),
    "rel-in-arabic-indic-digits": ("rel:٣", ["check"], 2, "bad relation model spec 'rel:٣'"),
    "rel-with-an-underscore": ("rel:0_1", ["check"], 2, "bad relation model spec 'rel:0_1'"),
}


@pytest.mark.parametrize("case", sorted(ONE_LINE_ERRORS))
def test_bad_input_ends_in_one_stderr_line(case, tmp_path, capsys):
    doc, (cmd, *options), code, message = ONE_LINE_ERRORS[case]
    path = doc if isinstance(doc, str) else str(tmp_path / "missing.json") if doc is None else write_ws(tmp_path, doc)
    assert main([cmd, path, *options]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message.format(path=path)}\n")


def test_check_all_skips_the_domain_laws_in_one_stderr_line(tmp_path, capsys):
    path = write_ws(tmp_path, NO_PREDOMAIN)
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert "mul-left-identity FAILS" in out
    assert err == "skipping domain laws: '1' has no left-preserving test; the test algebra is too small or the laws fail\n"


def test_check_missing_star_is_a_capability_error(tmp_path, capsys):
    doc = semiring_to_doc(conway_model("A2"))
    del doc["semiring"]["star"]
    path = write_ws(tmp_path, doc)
    assert main(["check", path, "--laws", "kleene"]) == 3
    _, err = capsys.readouterr()
    assert "no star table declared" in err
    # under --laws all the same model just skips the section
    assert main(["check", path]) == 0
    _, err = capsys.readouterr()
    assert "skipping kleene laws" in err


# each law family named with --laws and run under all, on builtin:A2 (no converse table), A2 without its star table
# and NO_PREDOMAIN: the pinned stdout, stderr and exit code of each
FAMILIES = Path(__file__).parent / "data" / "families"
FAMILY_CASES = json.loads((FAMILIES / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_each_law_family_reports_skips_or_exits_3_as_pinned(case, capsys):
    spec = FAMILY_CASES[case]
    target = spec["target"] if spec["target"].startswith("builtin:") else str(FAMILIES / spec["target"])
    assert main(["check", target, "--laws", spec["laws"]]) == spec["exit"]
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((FAMILIES / f"{case}.stdout").read_bytes(), spec["stderr"])


def test_cmd_check_refuses_a_name_that_is_no_law_family(capsys):
    # argparse's --laws choices keep the CLI from it; a library caller gets the same choices named
    with pytest.raises(CliParseError, match=r"^unknown law family 'bogus' \(choose from isemiring, kleene, tests, domain, converse or all\)$"):
        cmd_check("builtin:A2", "bogus")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("case", ["kad_help", "kad_check_help"])
def test_help_text_is_unchanged(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"] if case == "kad_help" else ["check", "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((FAMILIES / f"{case}.stdout").read_bytes(), "")


def test_assignment_is_rejected_at_load_time(tmp_path, capsys):
    doc = {"n": 2, "programs": {"p": "x := 1"}}
    assert main(["check", write_ws(tmp_path, doc)]) == 2
    _, err = capsys.readouterr()
    assert _ASSIGN_MSG in err


# -- reach command ----------------------------------------------------------------------


def test_reach_chain_output(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["reach", path, "--relation", "R", "--targets", "3"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == [
        "naive: {1,2,3} (iterations=3, preimage-evals=6)",
        "efficient: {1,2,3} (iterations=2, preimage-evals=3)",
        "agree",
    ]


def test_reach_accepts_braced_targets_and_single_algo(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["reach", path, "--relation", "R", "--targets", "{2,3}", "--algo", "naive"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == ["naive: {1,2,3} (iterations=2, preimage-evals=5)"]


def test_reach_empty_targets(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["reach", path, "--relation", "R", "--targets", ""]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == [
        "naive: {} (iterations=1, preimage-evals=0)",
        "efficient: {} (iterations=0, preimage-evals=0)",
        "agree",
    ]


def test_reach_on_a_large_random_graph(tmp_path, capsys):
    rng = random.Random(50)
    n = 100
    edges = [[rng.randrange(1, n + 1), rng.randrange(1, n + 1)] for _ in range(300)]
    doc = {"n": n, "relations": {"G": edges}}
    path = write_ws(tmp_path, doc)
    assert main(["reach", path, "--relation", "G", "--targets", "7"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[-1] == "agree"


def test_reach_error_paths(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["reach", path, "--relation", "missing", "--targets", "1"]) == 2
    assert main(["reach", path, "--relation", "R", "--targets", "1,x"]) == 2
    assert main(["reach", path, "--relation", "R", "--targets", "9"]) == 2
    only_semiring = write_ws(tmp_path, semiring_to_doc(conway_model("A2")), "s.json")
    assert main(["reach", only_semiring, "--relation", "R"]) == 3
    capsys.readouterr()


def test_reach_both_reports_when_the_two_algorithms_disagree(tmp_path, monkeypatch, capsys):
    # an efficient search that ignores its targets
    efficient = kadlib.cli.reach_efficient
    monkeypatch.setattr(kadlib.cli, "reach_efficient", lambda D, a, p: efficient(D, a, D.test_zero))
    assert main(["reach", write_ws(tmp_path, CHAIN), "--relation", "R", "--targets", "3"]) == 1
    assert capsys.readouterr() == (
        "naive: {1,2,3} (iterations=3, preimage-evals=6)\n"
        "efficient: {} (iterations=0, preimage-evals=0)\n"
        "DISAGREE: the two algorithms returned different sets\n",
        "",
    )


# -- termination command -------------------------------------------------------------------


def test_termination_acyclic_chain(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["termination", path, "--relation", "R"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].startswith("R: noetherian=true well_founded=true loebian=false")
    assert "a:p not below a:(p - a:p) at p = {2,3}" in lines[0]
    assert lines[1] == "oracle-agree"


def test_termination_self_loop(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["termination", path, "--relation", "Loop"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].startswith("Loop: noetherian=false (witness p <= a:p at p = {1})")
    assert lines[1] == "oracle-agree"


def test_termination_unknown_relation(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["termination", path, "--relation", "zzz"]) == 2
    capsys.readouterr()


def test_termination_reports_when_the_cycle_search_disagrees(tmp_path, monkeypatch, capsys):
    # a cycle search that finds a cycle in the acyclic chain R
    monkeypatch.setattr(kadlib.cli, "_has_cycle", lambda D, rel: True)
    assert main(["termination", write_ws(tmp_path, CHAIN), "--relation", "R"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["ORACLE DISAGREEMENT: noetherian=true but cycle search says acyclic=false"] and err == ""


def test_termination_past_the_budget_is_exact(tmp_path, capsys):
    # 20 states: past the enumeration budget; the chain ends in a 2-cycle
    n = 20
    edges = [[i, i + 1] for i in range(1, n)] + [[n, n - 1]]
    path = write_ws(tmp_path, {"n": n, "relations": {"R": edges}})
    assert main(["termination", path, "--relation", "R"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    everything = "{" + ",".join(str(i) for i in range(1, n + 1)) + "}"
    assert lines[0].startswith(f"R: noetherian=false (witness p <= a:p at p = {everything})")
    assert "well_founded=false (witness p <= p:a at p = {19,20})" in lines[0]
    assert "sampled" not in lines[0]
    assert lines[1] == "oracle-agree"


# golden stdout and exit codes of kad termination, kad reach --algo both and
# kad hoare on small workspaces, where the tests are enumerated and the text
# must not move; each case's workspace and stdout sit in its cases.json's directory
DATA = Path(__file__).parent / "data"
GOLDEN_CASES = {
    case: (where, spec)
    for where in (DATA / "graphs", DATA / "hoare")
    for case, spec in json.loads((where / "cases.json").read_text()).items()
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_graph_command_output_is_unchanged(case, capsys):
    where, spec = GOLDEN_CASES[case]
    argv = list(spec["argv"])
    argv[1] = str(where / argv[1])
    assert main(argv) == spec["exit"]
    out, _ = capsys.readouterr()
    assert out.encode() == (where / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("case", sorted(c for c, (_, spec) in GOLDEN_CASES.items() if spec["argv"][0] == "termination"))
def test_termination_never_formats_the_relation(case, monkeypatch, capsys):
    # the report is printed under the relation's workspace name, so its text is never needed
    def refuse(self):
        raise AssertionError("kad termination formatted the whole relation")

    monkeypatch.setattr(Relation, "__str__", refuse)
    test_graph_command_output_is_unchanged(case, capsys)


def test_one_parser_serves_every_call_and_keeps_nothing(capsys):
    """Two rounds of every golden case through one process's parser, each case followed by
    kad check builtin:A2 and a usage error, give every golden stdout and exit code every time."""
    kadlib.cli._parser.cache_clear()
    check_out = (DATA / "check" / "builtin_A2.stdout").read_bytes()
    usage_err = None
    for _ in range(2):
        for case in sorted(GOLDEN_CASES):
            where, spec = GOLDEN_CASES[case]
            argv = list(spec["argv"])
            argv[1] = str(where / argv[1])
            assert main(argv) == spec["exit"]
            assert capsys.readouterr().out.encode() == (where / f"{case}.stdout").read_bytes()
            assert main(["check", "builtin:A2"]) == 0
            assert capsys.readouterr().out.encode() == check_out
            with pytest.raises(SystemExit) as exit_:
                main(["reach"])
            assert exit_.value.code == 2
            out, err = capsys.readouterr()
            usage_err = usage_err or err
            assert out == "" and err.startswith("usage: kad reach") and err == usage_err
    assert kadlib.cli._parser.cache_info().misses == 1


# -- numpy and the table layer only for kad check, dataclasses and inspect for none -----------------

TABLE_LAYER = {"kadlib.algebra", "kadlib.catalogue", "kadlib.domain", "kadlib.zoo"}


def kad_fresh(argv):
    """kad in a fresh interpreter: exit code, stdout, and which of numpy, dataclasses, inspect and the table layer's
    modules it imported."""
    probe = (
        "import sys; from kadlib.cli import main; code = main(sys.argv[1:]); "
        f"print(*sorted({{'numpy', 'dataclasses', 'inspect', *{sorted(TABLE_LAYER)}}} & sys.modules.keys()), file=sys.stderr); "
        "sys.exit(code)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kadlib.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


# a 2,000-state chain, whose reach result is a mask past the 32 bits _bit_positions strips one by one
CHAIN_2000 = {**CHAIN, "n": 2000, "relations": {"R": [[i, i + 1] for i in range(1, 2000)]}, "sets": {"atEnd": [2000]}}
CHAIN_2000_RUNS = {
    "chain2000_reach": ["reach", "--relation", "R", "--targets", "2000", "--algo", "both"],
    "chain2000_termination": ["termination", "--relation", "R"],
    "chain2000_triple": ["hoare", "--triple", "good"],
    "chain2000_proof": ["hoare", "--proof", "pf"],
}


@pytest.mark.parametrize("case", [*sorted(GOLDEN_CASES), *CHAIN_2000_RUNS])
def test_reach_termination_and_hoare_never_load_numpy(case, tmp_path, capsys):
    """Nor dataclasses, inspect or the table layer: the same exit code and stdout as in this process, with none of them
    imported."""
    if case in GOLDEN_CASES:
        where, spec = GOLDEN_CASES[case]
        argv = [spec["argv"][0], str(where / spec["argv"][1]), *spec["argv"][2:]]
    else:
        command, *rest = CHAIN_2000_RUNS[case]
        argv = [command, write_ws(tmp_path, CHAIN_2000), *rest]
    assert kad_fresh(argv) == (main(argv), capsys.readouterr().out, set())


def test_kad_check_loads_numpy_for_its_tables():
    # numpy imports inspect itself, so only dataclasses is kadlib's to leave out here
    code, out, imported = kad_fresh(["check", "rel:1"])
    assert (code, out) == (0, (DATA / "check" / "rel_1.stdout").read_text())
    assert {"numpy", *TABLE_LAYER} <= imported and "dataclasses" not in imported


# -- hoare command ------------------------------------------------------------------------------


def test_hoare_triples(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["hoare", path, "--triple", "good"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "triple good holds"

    assert main(["hoare", path, "--triple", "bad"]) == 1
    out, _ = capsys.readouterr()
    assert out.strip() == "triple bad FAILS: reachable state {2} escapes the postcondition"


def test_hoare_proofs(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["hoare", path, "--proof", "pf"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "proof pf is valid"

    assert main(["hoare", path, "--proof", "pfbad"]) == 1
    out, _ = capsys.readouterr()
    assert out.strip().startswith("proof pfbad INVALID: root: axiom triple does not hold")


def test_an_invalid_loop_proof_names_its_side_condition(tmp_path, capsys):
    loop = copy.deepcopy(CHAIN["proofs"]["pf"])
    loop["conclusion"]["post"] = "true"
    path = write_ws(tmp_path, {**CHAIN, "proofs": {"wbad": loop}})
    assert main(["hoare", path, "--proof", "wbad"]) == 1
    out, _ = capsys.readouterr()
    assert out == "proof wbad INVALID: root: conclusion postcondition is not (not test and invariant)\n"


def test_hoare_unknown_names(tmp_path, capsys):
    path = write_ws(tmp_path, CHAIN)
    assert main(["hoare", path, "--triple", "zzz"]) == 2
    assert main(["hoare", path, "--proof", "zzz"]) == 2
    capsys.readouterr()


def test_hoare_without_a_triple_or_a_proof_is_a_parse_error(tmp_path):
    # the parser requires one of the two, but a library call may name neither: exit 2 under main
    with pytest.raises(CliParseError, match="^hoare needs --triple or --proof$"):
        kadlib.cli.cmd_hoare(write_ws(tmp_path, CHAIN))


UNRESOLVED = {
    "undeclared-set": ({"pre": "undeclared", "prog": "step", "post": "atEnd"}, "unknown set 'undeclared'"),
    "set-in-the-program": (
        {"pre": "true", "prog": "while nowhere do step od", "post": "true"},
        "unknown set 'nowhere'",
    ),
    "unbound-action": ({"pre": "true", "prog": "jump", "post": "true"}, "unbound action 'jump'"),
    "state-out-of-range": ({"pre": "{4}", "prog": "step", "post": "true"}, "state 4 outside 1..3"),
}


@pytest.mark.parametrize("case", sorted(UNRESOLVED))
def test_hoare_names_are_resolved_when_the_workspace_loads(case, tmp_path, capsys):
    triple, message = UNRESOLVED[case]
    doc = {**CHAIN, "triples": {"t": triple}, "proofs": {}}
    path = write_ws(tmp_path, doc)
    assert main(["hoare", path, "--triple", "t"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: t: {message}\n")


def test_each_named_program_is_checked_once(tmp_path, monkeypatch):
    checked = []
    check_names = kadlib.cli._check_names
    monkeypatch.setattr(kadlib.cli, "_check_names", lambda node, *rest: checked.append(node) or check_names(node, *rest))
    more = {f"t{i}": {"pre": "true", "prog": "main", "post": "atEnd"} for i in range(3)}
    ws = load_workspace(write_ws(tmp_path, {**CHAIN, "triples": {**CHAIN["triples"], **more}}))
    # main, named by four triples and a proof, is checked with the programs section only
    assert sum(node is ws.programs["main"] for node in checked) == 1
    # step is inline in the triple bad and in pf's premise
    assert sum(node == Prim("step") for node in checked) == 2


@pytest.mark.parametrize("count", [1000, 3000])
def test_straight_line_programs_of_any_length_load_and_check(count, tmp_path, capsys):
    # a ; chain parses as a left-nested Seq as deep as the chain is long, though it nests nothing
    prog = "; ".join(["rot"] * count)
    end = count % 3 + 1  # rot steps 1 -> 2 -> 3 -> 1
    doc = {
        "n": 3,
        "relations": {"R": [[1, 2], [2, 3], [3, 1]]},
        "env": {"rot": "R"},
        "triples": {
            "lands": {"pre": "{1}", "prog": prog, "post": f"{{{end}}}"},
            "misses": {"pre": "{1}", "prog": prog, "post": f"{{{end % 3 + 1}}}"},
        },
    }
    path = write_ws(tmp_path, doc)
    assert main(["hoare", path, "--triple", "lands"]) == 0
    assert main(["hoare", path, "--triple", "misses"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == f"triple lands holds\ntriple misses FAILS: reachable state {{{end}}} escapes the postcondition\n"


@pytest.mark.parametrize("count", [1000, 3000])
def test_composition_proofs_over_long_programs_are_checked(count, tmp_path, capsys):
    # the premise programs are compared with the sequence parts node by node, never by recursion
    mid, end = (count - 1) % 3 + 1, count % 3 + 1

    def proof(first):
        return {
            "rule": "composition",
            "conclusion": {"pre": "{1}", "prog": "; ".join(["rot"] * count), "post": f"{{{end}}}"},
            "premises": [
                {"rule": "axiom", "conclusion": {"pre": "{1}", "prog": first, "post": f"{{{mid}}}"}},
                {"rule": "axiom", "conclusion": {"pre": f"{{{mid}}}", "prog": "rot", "post": f"{{{end}}}"}},
            ],
        }

    doc = {
        "n": 3,
        "relations": {"R": [[1, 2], [2, 3], [3, 1]]},
        "env": {"rot": "R"},
        "proofs": {
            "good": proof("; ".join(["rot"] * (count - 1))),
            "lastDiffers": proof("; ".join(["rot"] * (count - 2) + ["skip"])),
        },
    }
    path = write_ws(tmp_path, doc)
    assert main(["hoare", path, "--proof", "good"]) == 0
    assert main(["hoare", path, "--proof", "lastDiffers"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "proof good is valid\nproof lastDiffers INVALID: root: premise programs do not match the sequence parts\n"


def long_test(connective, count):
    """A test of count terms joined by connective that holds exactly at state 1."""
    filler = "{1,2}" if connective == "and" else "{}"
    return f" {connective} ".join([filler] * (count - 1) + ["{1}"])


# where the test stands: a triple that holds and one that fails, with TEST for the test
LONG_TEST_PLACES = {
    "precondition": (("TEST", "rot", "{2}"), ("TEST", "rot", "{3}")),
    "postcondition": (("{3}", "rot", "TEST"), ("{1}", "rot", "TEST")),
    "if-test": (("{1,2}", "if TEST then rot else skip fi", "{2}"), ("{1,2}", "if TEST then rot else skip fi", "{1}")),
    "while-test": (("true", "while TEST do rot od", "{2,3}"), ("true", "while TEST do rot od", "{3}")),
}


@pytest.mark.parametrize("count", [1000, 3000])
@pytest.mark.parametrize("connective", ["and", "or"])
@pytest.mark.parametrize("place", sorted(LONG_TEST_PLACES))
def test_long_and_or_chains_are_evaluated_wherever_a_test_stands(place, connective, count, tmp_path, capsys):
    # an and or an or chain parses as a left-nested TAnd or TOr as deep as the chain is long
    test = long_test(connective, count)
    holds, fails = ({k: x.replace("TEST", test) for k, x in zip(("pre", "prog", "post"), t)} for t in LONG_TEST_PLACES[place])
    doc = {"n": 3, "relations": {"R": [[1, 2], [2, 3], [3, 1]]}, "env": {"rot": "R"}, "triples": {"holds": holds, "fails": fails}}
    path = write_ws(tmp_path, doc)
    assert main(["hoare", path, "--triple", "holds"]) == 0
    assert main(["hoare", path, "--triple", "fails"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "triple holds holds\ntriple fails FAILS: reachable state {2} escapes the postcondition\n"


# -- dispatch ------------------------------------------------------------------------------------

# the checkers each command reaches through a name bound in kadlib.cli; code
# that rebinds those names (to time or record them) must see every call
CLI_CHECKERS = (
    "check_isemiring",
    "check_kleene",
    "check_test_algebra",
    "check_domain_axioms",
    "check_domain_calculus",
    "check_converse",
    "converse_duality_check",
    "reach_naive",
    "reach_efficient",
    "check_triple",
    "validate_proof",
    "termination_report",
)


def test_commands_call_checkers_through_the_names_cli_binds(tmp_path, monkeypatch, capsys):
    calls = dict.fromkeys(CLI_CHECKERS, 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in CLI_CHECKERS:
        monkeypatch.setattr(kadlib.cli, name, counting(name, getattr(kadlib.cli, name)))
    path = write_ws(tmp_path, CHAIN)
    assert main(["check", "rel:2"]) == 0
    assert main(["reach", path, "--relation", "R", "--targets", "3"]) == 0
    assert main(["hoare", path, "--triple", "good"]) == 0
    assert main(["hoare", path, "--proof", "pf"]) == 0
    assert main(["termination", path, "--relation", "R"]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(CLI_CHECKERS, 1)


# -- installed entry point -----------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kadlib.cli", "check", "builtin:A2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "add-commutative holds" in proc.stdout
