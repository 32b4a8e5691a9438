"""The compiled law scanner against brute force, and kad check against golden output.

Every table law is re-checked by a scalar scan: eval_term over
itertools.product of the law's variable domains in declared order, so the
first failing assignment is the lexicographically first one.  The scanner
must agree on (name, holds, witness, note) for the five builtins, rel(1)
and rel(2), their predomains, and seeded single-cell corruptions of the
add, mul, star and conv tables and of the domain tables.

check_isemiring and check_kleene decide their three-variable laws by
reduction where the laws a reduction needs have held; on every model here,
including the corrupted ones, their reports must equal the scanner's.

The shortcuts are checked against the forms they replace: the one-variable
induction test against the two-variable mu(a, b) iteration, the
early-stopping powers-below-star search against the full n-step loop, and
check_domain_calculus, which decides some laws in a rewritten form first,
against the plain scan.  Laws certified by the laws their derivations use
(algebra._CERTIFICATES) are checked against the plain scan where those held
and, for each certificate, where one of them failed; add-commutative and
add-associative, decided by a powerset representation of +, where it applies
and where it falls back to the transpose compare and Light's test.

The golden files under data/check hold the stdout and exit code of
`kad check` as printed by the hand-written checkers the scanner replaced.

The star/preimage laws and the Hoare rules are checked against the
per-law predicates they were written as before they became Law tables,
run by the exhaustive-or-sampled loop that ran them then (same budget
test, draw order, notes and witnesses), except that a law may now be
certified by run_laws before any instance, or, where the reference
samples it, decided exactly by the rewrite step.  With their certificates
taken out, both suites give the reports of the scans, rewrites and samples
that decided them without.  The rewrite step,
algebra._rewrite, is checked against the full scan of every law it
rewrites, and each failure it lifts against eval_term.  check_sampled_laws
is checked against check_isemiring/check_kleene on the same finite model.

eval_term and run_laws, past the scanner, share one scalar evaluator,
algebra._Scalar.  On a DomainStructure it reads the tables as eval_term
does, so a law with converse, a complement of an element variable, or a
test join that leaves the declared tests is decided alike with or without
the scanner.
"""

import ast
import collections
import functools
import itertools
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kadlib.algebra import (
    ISEMIRING_LAWS,
    KLEENE_LAWS,
    TEST_LAWS,
    FiniteSemiring,
    Law,
    LawReport,
    Term,
    TestAlgebra,
    all_hold,
    check_equation,
    check_laws,
    check_test_algebra,
    compl,
    conv,
    cod,
    dom,
    eq,
    eval_term,
    leq,
    one_term,
    opposite,
    star,
    top_term,
    var,
)
import kadlib.algebra
import kadlib.domain
import kadlib.models
from kadlib.cli import load_workspace, main
from kadlib.laws import _ATOMIC
from kadlib.domain import (
    CONVERSE_DUALITY,
    CONVERSE_LAWS,
    DOMAIN_AXIOMS,
    DOMAIN_CALCULUS,
    DomainStructure,
    check_converse,
    check_domain_axioms,
    check_domain_calculus,
    compute_predomain,
    converse_duality_check,
    run_laws,
)
from kadlib.algebra import check_isemiring, check_kleene
from kadlib.catalogue import HOARE_RULES, STAR_PREIMAGE_LAWS
from kadlib.hoare import check_hoare_rules
from kadlib.models import (
    ModelHandle,
    Relation,
    bounded_language_model,
    check_sampled_laws,
    materialize,
    matrix_semiring,
    conway_model,
    predicate_transformer_model,
    conway_names,
    rel_model,
    rel_semiring,
    rel_tests,
)
from kadlib.reach import check_star_preimage_laws

NOT_APPLICABLE = {"dloc": "no locality", "cdloc": "no locality", "top": "no greatest element"}


def holds(atom, env, S, T, D):
    if atom.op == "iff":
        first, *rest = (holds(a, env, S, T, D) for a in atom.args)
        return all(first == r for r in rest)
    l, r = (eval_term(t, env, S, T, D) for t in atom.args)
    return l == r if atom.op == "eq" else S.leq(l, r)


def brute_force(law, S, T, D):
    for req in law.requires:
        met = S.top() is not None if req == "top" else req in D.laws
        if not met:
            return LawReport(law.name, True, None, f"not applicable: {NOT_APPLICABLE[req]}")
    doms = [T.members if v in law.tests else range(S.n) for v in law.vars]
    for values in itertools.product(*doms):
        env = dict(zip(law.vars, values))
        if all(holds(p, env, S, T, D) for p in law.premises) and not holds(law.concl, env, S, T, D):
            return LawReport(law.name, False, env)
    return LawReport(law.name, True, None)


def compare(laws, S, T=None, D=None):
    laws = [law for law in laws if isinstance(law, Law)]
    got = check_laws(laws, S, T, D)
    want = [brute_force(law, S, T if T is not None or D is None else D.tests, D) for law in laws]
    assert [(r.name, r.holds, r.witness, r.note) for r in got] == [
        (r.name, r.holds, r.witness, r.note) for r in want
    ]
    return got


def compare_all(S, T):
    reports = compare(ISEMIRING_LAWS, S)
    if S.star is not None:
        reports += compare(KLEENE_LAWS, S)
    assert decided(S) == [(r.name, r.holds, r.witness, r.note) for r in reports]
    compare(TEST_LAWS, S, T)
    if S.conv is not None:
        compare(CONVERSE_LAWS, S)
    try:
        D = compute_predomain(S, T)
    except ValueError:
        return None
    compare_domain(D)
    return D


LAW_NAMES = {law.name for law in ISEMIRING_LAWS + KLEENE_LAWS if isinstance(law, Law)}


def decided(S):
    """check_isemiring's and check_kleene's reports on the Law entries, for a fresh copy of S.

    The copy makes the reductions run again: check_isemiring keeps its
    reports on the semiring.
    """
    S = FiniteSemiring(S.carrier, S.add, S.mul, S.zero, S.one, S.star, S.conv, S.name)
    reports = check_isemiring(S) + (check_kleene(S) if S.star is not None else [])
    return [(r.name, r.holds, r.witness, r.note) for r in reports if r.name in LAW_NAMES]


def scanned(S):
    """check_laws' reports on the isemiring and Kleene Law entries."""
    laws = [law for law in ISEMIRING_LAWS + (KLEENE_LAWS if S.star is not None else ()) if isinstance(law, Law)]
    return [(r.name, r.holds, r.witness, r.note) for r in check_laws(laws, S)]


def compare_domain(D):
    """check_laws against brute force on D's families, and check_domain_axioms and check_domain_calculus,
    which certify laws, against check_laws."""
    axioms, calculus = compare(DOMAIN_AXIOMS, D.owner, D=D), compare(DOMAIN_CALCULUS, D.owner, D=D)
    assert rows(check_domain_axioms(D)) == rows(axioms) and rows(check_domain_calculus(D)) == rows(calculus)
    if D.owner.conv is not None:
        compare(CONVERSE_DUALITY, D.owner, D=D)


def models():
    for name in conway_names():
        S = conway_model(name)
        yield name, S, TestAlgebra.discrete(S)
    for n in (1, 2):
        yield f"rel{n}", rel_semiring(n), rel_tests(n)


MODELS = list(models())


@pytest.mark.parametrize("name,S,T", MODELS, ids=[m[0] for m in MODELS])
def test_scanner_matches_brute_force(name, S, T):
    D = compare_all(S, T)
    assert D is not None


def corrupt_semiring(S, table, rng):
    tables = {k: None if getattr(S, k) is None else np.array(getattr(S, k)) for k in ("add", "mul", "star", "conv")}
    t = tables[table]
    cell = tuple(rng.randrange(S.n) for _ in range(t.ndim))
    t[cell] = rng.choice([v for v in range(S.n) if v != t[cell]])
    return FiniteSemiring(S.carrier, tables["add"], tables["mul"], S.zero, S.one, tables["star"], tables["conv"])


CORRUPTIONS = [
    (name, table, seed)
    for name, S, _ in MODELS
    for table in ("add", "mul", "star", "conv")
    if getattr(S, table) is not None
    for seed in range(3 if S.n < 16 else 1)
]


def corrupted(name, table, seed):
    """A CORRUPTIONS entry: the model with one cell of one table changed, and its tests."""
    _, S, T = next(m for m in MODELS if m[0] == name)
    S2 = corrupt_semiring(S, table, random.Random(f"{name}:{table}:{seed}"))
    return S2, TestAlgebra(S2, T.members, T.compl)


@pytest.mark.parametrize("name,table,seed", CORRUPTIONS, ids=[f"{n}-{t}-{s}" for n, t, s in CORRUPTIONS])
def test_scanner_matches_brute_force_on_corrupted_tables(name, table, seed):
    compare_all(*corrupted(name, table, seed))


DOMAIN_CORRUPTIONS = ["A3_2", "A4_1", "rel2"]


def corrupted_domains(name):
    """Four predomains of a MODELS entry, each with one cell of delta or rho changed."""
    _, S, T = next(m for m in MODELS if m[0] == name)
    D = compute_predomain(S, T)
    rng = random.Random(name)
    for _ in range(4):
        delta, rho = np.array(D.delta), np.array(D.rho)
        t = delta if rng.random() < 0.5 else rho
        i = rng.randrange(S.n)
        t[i] = rng.choice([p for p in T.members if p != t[i]])
        yield DomainStructure(S, T, delta, rho)


@pytest.mark.parametrize("name", DOMAIN_CORRUPTIONS)
def test_scanner_matches_brute_force_on_corrupted_domain_tables(name):
    for D in corrupted_domains(name):
        compare_domain(D)


# -- the least-preserver pass against a per-element search ----------------------------


def least_preserver(S, T, a, ordered):
    """The smallest-first least preserver of a, cross-checked by the meet of all preservers."""
    preservers = [p for p in T.members if S.leq(a, int(S.mul[p, a]))]
    if not preservers:
        raise ValueError(
            f"{S.element_name(a)!r} has no left-preserving test; "
            "the test algebra is too small or the laws fail"
        )
    first = next(p for p in ordered if S.leq(a, int(S.mul[p, a])))
    m = preservers[0]
    for p in preservers[1:]:
        m = T.meet(m, p)
    if m != first or m not in T.compl or not S.leq(a, int(S.mul[m, a])):
        raise ValueError(
            f"left preservers of {S.element_name(a)!r} have no least element; "
            "the declared tests do not form a lattice under the semiring order"
        )
    return m


def reference_predomain(S, T):
    """delta, then rho as the predomain of opposite(S), element by element."""

    def least(S, T):
        ordered = sorted(T.members, key=lambda p: (sum(T.leq(q, p) for q in T.members), p))
        return [least_preserver(S, T, a, ordered) for a in range(S.n)]

    So = opposite(S)
    return least(S, T), least(So, TestAlgebra(So, T.members, T.compl))


def predomain_or_error(find, S, T):
    try:
        return find(S, T)
    except ValueError as e:
        return str(e)


def predomain_tables(S, T):
    D = compute_predomain(S, T)
    return D.delta.tolist(), D.rho.tolist()


PREDOMAIN_CASES = [(name, lambda S=S, T=T: (S, T)) for name, S, T in MODELS] + [
    ("rel3", lambda: (rel_semiring(3), rel_tests(3)))
] + [(f"{n}-{t}-{s}", lambda c=(n, t, s): corrupted(*c)) for n, t, s in CORRUPTIONS]


@pytest.mark.parametrize("name,make", PREDOMAIN_CASES, ids=[c[0] for c in PREDOMAIN_CASES])
def test_predomain_matches_a_per_element_least_preserver_search(name, make):
    S, T = make()
    assert predomain_or_error(predomain_tables, S, T) == predomain_or_error(reference_predomain, S, T)


# -- chunks of at most _CHUNK assignments -------------------------------------------

# No model above reaches the default _CHUNK of 2^17 assignments, so these rerun
# the cross-checks with it lowered.  At 2^5 rel(2)'s three-variable laws run
# in eight blocks of two rows and its "p q a" laws in two blocks, for each
# value of the first variable, and its two-variable laws, which loop over no
# variable, in eight blocks of two rows; at 2^2 the three-variable laws of
# the builtins on three and four elements run in blocks of one row, and
# rel(2)'s one-variable laws in four blocks.

SMALL_CHUNKS = [1 << 2, 1 << 5]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("name,S,T", MODELS, ids=[m[0] for m in MODELS])
def test_scanner_matches_brute_force_in_small_chunks(monkeypatch, chunk, name, S, T):
    monkeypatch.setattr(kadlib.algebra, "_CHUNK", chunk)
    assert compare_all(S, T) is not None


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("name,table,seed", CORRUPTIONS, ids=[f"{n}-{t}-{s}" for n, t, s in CORRUPTIONS])
def test_scanner_matches_brute_force_on_corrupted_tables_in_small_chunks(monkeypatch, chunk, name, table, seed):
    monkeypatch.setattr(kadlib.algebra, "_CHUNK", chunk)
    test_scanner_matches_brute_force_on_corrupted_tables(name, table, seed)


def fresh_predomain(D):
    """compute_predomain over D's tables in a new semiring, so that the isemiring reports, generating sets,
    join-irreducibles, guards and axioms are all found afresh."""
    S = D.owner
    S = FiniteSemiring(S.carrier, S.add, S.mul, S.zero, S.one, star=S.star, conv=S.conv, name=S.name)
    return compute_predomain(S, TestAlgebra(S, D.tests.members, D.tests.compl))


@pytest.mark.parametrize(
    "check",
    [check_star_preimage_laws, check_hoare_rules, check_domain_calculus, lambda D: check_converse(D.owner), fresh_predomain],
    ids=["star-preimage", "hoare-rules", "domain-calculus", "converse", "predomain"],
)
def test_scans_of_the_rel3_predomain_stay_within_a_few_chunks(check):
    """No gather copies more than a chunk: a chunk of 2^17 int32 cells is 0.5 MB, its index buffer 1 MB.

    The predomain case builds the structure itself: its isemiring, additivity and axiom scans.
    """
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    tracemalloc.start()
    try:
        check(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def reference_first_failure(law, S):
    """First failure of a law in two or more carrier variables, by a plain scan.

    One grid of the other variables' values per value of the first
    variable, every binary table read by fancy indexing X[x, y].
    """
    n = S.n
    tables = {"add": S.add, "mul": S.mul, "leq": S.add == np.arange(n)}
    first, *rest = law.vars
    grid, shape = dict(zip(rest, np.ix_(*[range(n)] * len(rest)))), (n,) * len(rest)

    def ev(t, env):
        if t.op == "var":
            return env[t.name]
        if t.op in ("zero", "one"):
            return S.zero if t.op == "zero" else S.one
        args = [ev(a, env) for a in t.args]
        if t.op in ("star", "conv"):
            return getattr(S, t.op)[args[0]]
        if t.op in ("eq", "iff"):
            return functools.reduce(np.logical_and, [np.equal(args[0], x) for x in args[1:]])
        return tables[t.op][args[0], args[1]]

    for x in range(n):
        env = {first: x, **grid}
        ok = ev(law.concl, env)
        for p in law.premises:
            ok = ok | ~ev(p, env)
        ok = np.broadcast_to(ok, shape)
        if not ok.all():
            at = np.unravel_index(int(np.argmin(ok)), shape)
            return {first: x, **{v: int(i) for v, i in zip(rest, at)}}
    return None


REL3 = rel_semiring(3)
REL3_LAWS = {law.name: law for law in ISEMIRING_LAWS + KLEENE_LAWS if isinstance(law, Law)}

# One cell of rel(3)'s add or mul table moved to the next element, and the
# three-variable laws that this breaks.  rel(3)'s 512 x 512 chunks are cut
# into two blocks of 256 rows of the second variable, and the witnesses
# marked * lie in the second block.
REL3_CORRUPTIONS = {
    ("mul", 300, 400): ["mul-associative*", "left-distributive", "right-distributive*", "star-left-simulation*"],
    ("add", 5, 480): ["add-associative", "left-distributive", "right-distributive", "star-left-induction"],
    ("mul", 0, 511): ["mul-associative", "left-distributive", "right-distributive", "star-right-induction"],
    ("add", 260, 3): ["add-associative*", "left-distributive*", "star-left-induction*", "star-right-induction*"],
}


def rel3_corrupted(table, i, j):
    """rel(3)'s tables with the REL3_CORRUPTIONS cell moved."""
    tables = {"add": np.array(REL3.add), "mul": np.array(REL3.mul)}
    tables[table][i, j] = (tables[table][i, j] + 1) % REL3.n
    return FiniteSemiring(REL3.carrier, tables["add"], tables["mul"], REL3.zero, REL3.one, REL3.star, REL3.conv)


@pytest.mark.parametrize("table,i,j", sorted(REL3_CORRUPTIONS), ids=str)
def test_rel3_witnesses_match_a_plain_scan(table, i, j):
    """The scanner's witnesses against the plain scan, and the reductions' reports against the scanner's."""
    S = rel3_corrupted(table, i, j)
    want = scanned(S)
    witnesses = {name: witness for name, _, witness, _ in want}
    for name in REL3_CORRUPTIONS[table, i, j]:
        law = REL3_LAWS[name.rstrip("*")]
        got = witnesses[law.name]
        assert got is not None and got == reference_first_failure(law, S), name
        assert (got[law.vars[1]] >= 256) == name.endswith("*"), name
    assert decided(S) == want


@pytest.mark.parametrize("table,i,j", sorted(REL3_CORRUPTIONS), ids=str)
def test_rel3_corrupted_domain_reports_match_the_plain_scan(table, i, j):
    """The domain axioms and calculus of the corrupted tables, under rel(3)'s predomain tables."""
    S, T = rel3_corrupted(table, i, j), rel_tests(3)
    P = compute_predomain(REL3, T)
    D = DomainStructure(S, TestAlgebra(S, T.members, T.compl), P.delta, P.rho)
    assert rows(check_domain_axioms(D)) == rows(check_laws(DOMAIN_AXIOMS, S, D=D))
    assert rows(check_domain_calculus(D)) == rows(check_laws(DOMAIN_CALCULUS, S, D=D))


# -- the reductions of check_isemiring and check_kleene -----------------------------


def transformer_semiring(n):
    return materialize(predicate_transformer_model(rel_model(n))).semiring


LARGE_MODELS = {
    "rel3": lambda: REL3,
    "transformers-rel2": lambda: transformer_semiring(2),
    "transformers-rel3": lambda: transformer_semiring(3),
}


@pytest.mark.parametrize("name", sorted(LARGE_MODELS))
def test_reductions_match_the_scanner(name):
    """Where every law holds; MODELS and CORRUPTIONS are cross-checked in compare_all."""
    S = LARGE_MODELS[name]()
    want = scanned(S)
    assert all(holds for _, holds, _, _ in want)
    assert decided(S) == want


# One mul cell of a builtin changed so that exactly one law fails, a law
# that some reductions need: the laws it guards are left to the scanner,
# and hold.
GUARD_CORRUPTIONS = {
    ("A4_1", 1, 3, 2): ("mul-associative", ["left-distributive", "right-distributive"]),
    ("A3_1", 0, 1, 1): (
        "left-annihilation",
        ["star-left-induction", "star-right-induction", "star-left-simulation", "star-right-simulation"],
    ),
}


@pytest.mark.parametrize("name,i,j,v", sorted(GUARD_CORRUPTIONS), ids=str)
def test_a_failed_guard_leaves_its_laws_to_the_scanner(monkeypatch, name, i, j, v):
    S = conway_model(name)
    mul = np.array(S.mul)
    mul[i, j] = v
    S2 = FiniteSemiring(S.carrier, S.add, mul, S.zero, S.one, S.star)
    broken, guarded = GUARD_CORRUPTIONS[name, i, j, v]
    want = scanned(S2)
    assert [law for law, holds, _, _ in want if not holds] == [broken]
    scans = []
    scan = kadlib.algebra._Scanner.first_failure

    def counting(self, law):
        scans.append(law.name)
        return scan(self, law)

    monkeypatch.setattr(kadlib.algebra._Scanner, "first_failure", counting)
    assert decided(S2) == want
    assert set(guarded) <= set(scans)


def test_check_kleene_reads_the_isemiring_reports_kept_on_the_semiring(monkeypatch):
    S = rel_semiring(2)
    S = FiniteSemiring(S.carrier, S.add, S.mul, S.zero, S.one, S.star, S.conv, S.name)
    scans = []
    scan = kadlib.algebra._Scanner.first_failure

    def counting(self, law):
        scans.append(law.name)
        return scan(self, law)

    monkeypatch.setattr(kadlib.algebra._Scanner, "first_failure", counting)
    check_kleene(S)
    check_isemiring(S)
    check_kleene(S)
    reduced = set(kadlib.algebra._REDUCTIONS | kadlib.algebra._CERTIFICATES)
    # the isemiring laws and the Kleene laws once each, for the first check_kleene
    laws = [law.name for law in ISEMIRING_LAWS + KLEENE_LAWS if isinstance(law, Law)]
    assert scans == [name for name in laws if name not in reduced]


def closure(X, gens):
    """The closure of gens under the table X, by squaring the set until it stops growing."""
    inside = sorted(set(gens))
    while True:
        grown = sorted(set(inside) | set(np.asarray(X)[np.ix_(inside, inside)].ravel().tolist()))
        if grown == inside:
            return inside
        inside = grown


def left_normed_closure(X, gens):
    """The left-normed products ((g1 g2) ...) gk of gens under the table X, ascending."""
    inside, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for y in np.asarray(X)[x, gens].tolist():
            if y not in inside:
                inside.add(y)
                todo.append(y)
    return sorted(inside)


def two_sided_generators(X):
    """The greedy generating set, rarest first, whose closure grows by the products of its new
    elements with all of it on both sides: _generators' reference on associative tables."""
    n = len(X)
    counts = np.bincount(np.asarray(X).ravel(), minlength=n)
    inside = np.zeros(n, dtype=bool)
    gens = []
    for g in np.argsort(counts, kind="stable").tolist():
        if inside[g]:
            continue
        gens.append(g)
        new = np.array([g])
        inside[g] = True
        while new.size:
            hit = np.zeros(n, dtype=bool)
            closure = np.flatnonzero(inside)
            hit[X[np.ix_(new, closure)]] = True
            hit[X[np.ix_(closure, new)]] = True
            new = np.flatnonzero(hit & ~inside)
            inside[new] = True
    return sorted(gens)


def non_associative_rel3_add():
    add = np.array(REL3.add)
    add[260, 3] = (add[260, 3] + 1) % REL3.n
    return add


def non_associative_rel3_mul():
    mul = np.array(REL3.mul)
    mul[300, 400] = (mul[300, 400] + 1) % REL3.n
    return mul


GENERATED = {
    **{f"{name}-{op}": (lambda S=S, op=op: getattr(S, op)) for name, S, _ in MODELS for op in ("add", "mul")},
    **{f"rel3-{op}": (lambda op=op: getattr(REL3, op)) for op in ("add", "mul")},
    "rel3-corrupted-add": non_associative_rel3_add,
    "rel3-corrupted-mul": non_associative_rel3_mul,
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_greedy_generators_generate_the_carrier(name):
    X = GENERATED[name]()
    gens = kadlib.algebra._generators(X)
    assert gens == sorted(set(gens))
    assert left_normed_closure(X, gens) == list(range(len(X)))


def test_lights_test_refutes_a_non_associative_table():
    for X in (non_associative_rel3_add(), non_associative_rel3_mul()):
        assert not kadlib.algebra._associative(X, kadlib.algebra._generators(X))


def associative_tables():
    """(name, S) for the semirings whose + and · are associative: rel(1..3), the builtins, the
    rel(2) and rel(3) transformer tables and a matrix semiring."""
    yield from ((f"rel{n}", rel_semiring(n)) for n in (1, 2, 3))
    yield from ((name, conway_model(name)) for name in conway_names())
    yield from ((f"transformers-rel{n}", transformer_semiring(n)) for n in (2, 3))
    yield "matrix-A3_1", materialize(matrix_semiring(conway_model("A3_1"), 2)).semiring


@pytest.mark.parametrize("name,S", list(associative_tables()), ids=str)
def test_generators_are_the_two_sided_greedy_sets_on_associative_tables(name, S):
    assert {"add-associative", "mul-associative"} <= {r.name for r in check_isemiring(S) if r.holds}
    assert S._gens == {op: two_sided_generators(getattr(S, op)) for op in ("add", "mul")}


def test_add_commutative_of_an_asymmetric_cell_is_the_scanners_report():
    add = np.array(REL3.add)
    add[5, 480] = 0
    S = plain(REL3, add=add)
    law = REL3_LAWS["add-commutative"]
    got = {r.name: r for r in check_isemiring(S)}[law.name]
    assert got == check_laws([law], S)[0] == LawReport(law.name, False, {"a": 5, "b": 480})


# -- + decided by its powerset representation ---------------------------------------


def lattice_semiring(name, covers):
    """The five-element lattice with bottom 0 and top 4 whose order the pairs u < v of covers generate,
    with join as + and meet as ·."""
    n = 5
    le = np.eye(n, dtype=bool)
    for u, v in covers:
        le[u, v] = True
    for k in range(n):
        le |= le[:, [k]] & le[[k], :]

    def bound(u, v, up):
        common = [w for w in range(n) if (le[u, w] and le[v, w] if up else le[w, u] and le[w, v])]
        return next(w for w in common if all(le[w, x] if up else le[x, w] for x in common))

    join, meet = ([[bound(u, v, up) for v in range(n)] for u in range(n)] for up in (True, False))
    return FiniteSemiring(["0", "x", "y", "z", "1"], join, meet, 0, 4, name=name)


# the two non-distributive five-element lattices: three atoms, and a pentagon
NON_DISTRIBUTIVE = {
    "M3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    "N5": [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
}


def counting_lights_tests(monkeypatch):
    """A list of the tables that Light's test reads from now on."""
    tables = []
    light = kadlib.algebra._associative
    monkeypatch.setattr(kadlib.algebra, "_associative", lambda X, gens: tables.append(X) or light(X, gens))
    return tables


def test_add_is_decided_by_its_powerset_representation(monkeypatch):
    """On rel(1..3), the five builtins (all chains), the rel(2) and rel(3) transformer tables and
    matrix_semiring(A3_1, 2), + embeds in (2^G, union): add-commutative and add-associative hold,
    and Light's test never reads +."""
    lights = counting_lights_tests(monkeypatch)
    fired = []
    for name, S in associative_tables():
        S = plain(S)
        reports = {r.name: r for r in check_isemiring(S)}
        assert reports["add-commutative"].holds and reports["add-associative"].holds, name
        assert not any(X is S.add for X in lights), name
        if S._add_in_powerset:
            fired.append(name)
    assert fired == [name for name, _ in associative_tables()]
    assert {"A2", "A3_1", "A3_2", "A3_3", "A4_1"} <= set(fired)


def fallback_tables():
    """(name, S): tables whose + has no such representation: rel(3) with each add cell of
    REL3_CORRUPTIONS moved, and the join tables of M3 and N5, which are associative."""
    for table, i, j in sorted(REL3_CORRUPTIONS):
        if table == "add":
            add = np.array(REL3.add)
            add[i, j] = (add[i, j] + 1) % REL3.n
            yield f"rel3-add-{i}-{j}", FiniteSemiring(REL3.carrier, add, REL3.mul, REL3.zero, REL3.one, REL3.star, REL3.conv)
    for name, covers in NON_DISTRIBUTIVE.items():
        yield name, lattice_semiring(name, covers)


@pytest.mark.parametrize("name,S", list(fallback_tables()), ids=str)
def test_add_without_a_powerset_representation_falls_back_to_the_transpose_and_lights_test(monkeypatch, name, S):
    lights = counting_lights_tests(monkeypatch)
    laws = [REL3_LAWS["add-commutative"], REL3_LAWS["add-associative"]]
    got = [r for r in check_isemiring(S) if r.name in {law.name for law in laws}]
    assert not S._add_in_powerset
    assert any(X is S.add for X in lights)
    assert rows(got) == rows(check_laws(laws, S))
    if name in NON_DISTRIBUTIVE:
        assert all_hold(got) and not all_hold(check_isemiring(S))


def test_join_irreducibles_are_refused_where_the_isemiring_laws_fail():
    S = plain(REL3, add=non_associative_rel3_add())
    with pytest.raises(ValueError, match="isemiring laws"):
        S._join_irreducibles


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_relations_are_the_masks_relations_with_their_text(n):
    """Each shared relation is its mask's, with its text, and its predecessors, set from the converse's rows,
    are those a walk of succ builds."""
    M = rel_model(n)
    for m, r in enumerate(kadlib.models._relations(n)):
        assert r == M._from_mask(m)
        assert str(r) == str(M._from_mask(m)) == "{" + ",".join(f"({i},{j})" for i, j in sorted(r.pairs())) + "}"
        assert list(map(list, r.predecessors)) == M._from_mask(m).predecessors


def test_rel3_mul_generators_are_few_and_generate_the_carrier():
    # rarest first: the greedy pass over index order took 37
    gens = kadlib.algebra._generators(REL3.mul)
    assert len(gens) <= 8
    assert closure(REL3.mul, gens) == list(range(REL3.n))


def test_rel3_add_generators_are_zero_and_the_single_pairs():
    # an element's index is its adjacency mask, so a single pair is a power of two
    assert kadlib.algebra._generators(REL3.add) == [0] + [1 << k for k in range(9)]


def reference_test_hand(T):
    """check_test_algebra's hand-written reports by the per-pair loops over the members."""
    S, mem = T.owner, T.members
    memset = set(mem)

    def first_pair(pred):
        return next(({"p": p, "q": q} for p in mem for q in mem if not pred(p, q)), None)

    def glb(p, q):
        m = int(S.mul[p, q])
        return S.leq(m, p) and S.leq(m, q) and all(S.leq(r, m) for r in mem if S.leq(r, p) and S.leq(r, q))

    return [
        LawReport("zero-is-member", S.zero in memset, None if S.zero in memset else {"p": S.zero}),
        LawReport("one-is-member", S.one in memset, None if S.one in memset else {"p": S.one}),
        *(
            LawReport(name, w is None, w)
            for name, w in (
                ("closed-under-join", first_pair(lambda p, q: int(S.add[p, q]) in memset)),
                ("closed-under-meet", first_pair(lambda p, q: int(S.mul[p, q]) in memset)),
                ("meet-is-greatest-lower-bound", first_pair(glb)),
            )
        ),
    ]


# A cell of rel(3)'s · table at two tests, given a new value: a test below the
# meet, a non-test, and a test above it; and a cell of + given a non-test.
TEST_CELL_CORRUPTIONS = {
    ("mul", 273, 17, 1): ["meet-is-greatest-lower-bound"],
    ("mul", 17, 16, 2): ["closed-under-meet", "meet-is-greatest-lower-bound"],
    ("mul", 16, 1, 17): ["meet-is-greatest-lower-bound"],
    ("add", 256, 1, 3): ["closed-under-join"],
}


@pytest.mark.parametrize("table,i,j,v", sorted(TEST_CELL_CORRUPTIONS), ids=str)
def test_test_algebra_pairs_of_a_corrupted_cell_match_the_per_pair_loops(table, i, j, v):
    X = np.array(getattr(REL3, table))
    X[i, j] = v
    S = plain(REL3, **{table: X})
    T = TestAlgebra(S, rel_tests(3).members, rel_tests(3).compl)
    want = reference_test_hand(T)
    got = [r for r in check_test_algebra(T) if r.name in {x.name for x in want}]
    assert got == want
    assert [r.name for r in got if not r.holds] == TEST_CELL_CORRUPTIONS[table, i, j, v]


@pytest.mark.parametrize("name,S,T", MODELS, ids=[m[0] for m in MODELS])
def test_test_algebra_pairs_match_the_per_pair_loops(name, S, T):
    want = reference_test_hand(T)
    assert [r for r in check_test_algebra(T) if r.name in {x.name for x in want}] == want


@pytest.mark.parametrize("chunk", [None, 1 << 10])
@pytest.mark.parametrize("p,q", [(272, 256), (16, 272)])
def test_rel3_shunting_with_a_corrupted_complement(monkeypatch, chunk, p, q):
    """The shunting laws where the complement of test p is the wrong test q give the first witness,
    scanned in one chunk and, at _CHUNK = 1 << 10, in a scan that loops over their first variable."""
    if chunk is not None:
        monkeypatch.setattr(kadlib.algebra, "_CHUNK", chunk)  # four blocks of two q rows
    T = rel_tests(3)
    T2 = TestAlgebra(REL3, T.members, {**T.compl, p: q})
    laws = [law for law in TEST_LAWS if isinstance(law, Law) and law.name.startswith("shunting")]
    got = compare(laws, REL3, T2)
    assert [r.witness for r in got] == [{"p": 1, "q": p, "a": 1}] * 2


# -- the shortcuts against the forms they replace ------------------------------------


def two_variable_induction(S, left):
    """star-left-induction (star-right-induction) as a*b <= mu(a, b) (b a* <= mu) for all a, b.

    mu(a, b) is iterated from 0 by c <- b + ac (c <- b + ca) for every pair.
    """
    A, M, n = S.add, S.mul if left else S.mul.T, S.n
    a, b = np.arange(n)[:, None], np.arange(n)
    mu = np.full((n, n), S.zero)
    for _ in range(n):
        nxt = A[b, M[a, mu]]
        if np.array_equal(nxt, mu):
            return bool(np.array_equal(A[M[S.star[a], b], mu], mu))
        mu = nxt
    return False


def all_powers_below_star(S):
    """First a with a^i not below a*, for i = 1..n with no early stop."""
    ar = np.arange(S.n)
    pw = ar
    for i in range(1, S.n + 1):
        bad = np.flatnonzero(S.add[pw, S.star] != S.star)
        if bad.size:
            return {"a": int(bad[0]), "power": i}
        pw = S.mul[pw, ar]
    return None


def shortcut_cases():
    """The MODELS, every CORRUPTIONS entry, rel(3) and the broken_A3_3_star workspace: (name, S, T)."""
    yield from MODELS
    for c in CORRUPTIONS:
        yield ("-".join(map(str, c)), *corrupted(*c))
    yield "rel3", REL3, rel_tests(3)
    ws = load_workspace(str(GOLDEN / "broken_A3_3_star.json"))
    yield "broken_A3_3_star", ws.semiring, ws.tests


def test_one_variable_induction_matches_the_two_variable_form():
    """Wherever the guard of the reduction (every isemiring law) holds."""
    outcomes = set()
    for name, S, _ in shortcut_cases():
        if S.star is None or not all(r.holds for r in check_isemiring(S)):
            continue
        for left in (True, False):
            got = kadlib.algebra._induction(S, left)
            assert got == two_variable_induction(S, left), (name, left)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_powers_below_star_stops_early_with_the_full_loops_verdict():
    witnesses = []
    for name, S, _ in shortcut_cases():
        if S.star is not None:
            want = all_powers_below_star(S)
            assert kadlib.algebra._powers_below_star(S) == want, name
            witnesses.append((name, want))
    assert ("broken_A3_3_star", {"a": 2, "power": 1}) in witnesses  # the element 1
    assert sum(w is None for _, w in witnesses) > len(witnesses) // 2


def predomain_cases():
    """Predomains of the MODELS and of the CORRUPTIONS that have one, and the corrupted domain tables."""
    for name, S, T in shortcut_cases():
        if name not in ("rel3", "broken_A3_3_star"):
            try:
                yield name, compute_predomain(S, T)
            except ValueError:
                pass
    for name in DOMAIN_CORRUPTIONS:
        for k, D in enumerate(corrupted_domains(name)):
            yield f"{name}-domain-{k}", D


def counting_scans(monkeypatch):
    """A list that records (law name, the number of values of each variable or None for a plain scan,
    first failure) for each scan from now on."""
    scans = []
    scan = kadlib.algebra._Scanner.first_failure

    def counting(self, law, ranges=None):
        found = scan(self, law, ranges)
        scans.append((law.name, ranges and [None if r is None else len(r) for r in ranges], found))
        return found

    monkeypatch.setattr(kadlib.algebra._Scanner, "first_failure", counting)
    return scans


def test_the_domain_calculus_matches_the_plain_scan(monkeypatch):
    """check_domain_calculus, which certifies a law or decides it in its rewritten form
    first, gives the plain scan's reports.  With the domain axioms absent from the laws
    known to hold, so that only the rewrites run, the random additive domains refute
    rewritten laws, which then fall back to the scan of the law itself."""
    cases = [
        *predomain_cases(),
        *((f"rel2-additive-{seed}", random_additive_domain(seed)) for seed in range(8)),
        ("rel3", compute_predomain(rel_semiring(3), rel_tests(3))),
    ]
    scans = counting_scans(monkeypatch)
    for axioms in (set(), {law.name for law in DOMAIN_AXIOMS}):
        scans.clear()
        for name, D in cases:
            monkeypatch.setattr(D, "laws", D.laws - axioms)
            got = [(r.name, r.holds, r.witness, r.note) for r in check_domain_calculus(D)]
            want = [(r.name, r.holds, r.witness, r.note) for r in check_laws(DOMAIN_CALCULUS, D.owner, D=D)]
            assert got == want, name
    rewritten = [found for _, sizes, found in scans if sizes]
    assert len(rewritten) > 24 and sum(found is not None for found in rewritten) == 24


def test_the_domain_axioms_match_the_plain_scan(monkeypatch):
    """The axiom reports, decided on construction behind the guards that held there, are the
    plain scan's: on the transformer sources (the rel(2) and rel(3) tables, the builtins and
    dom-additive-broken, where the guards fail), the rel(1) tables, and the domain structures
    of rewrite_targets, whose swapped and random additive domains refute rewritten axioms,
    which then fall back to the scan of the axiom itself."""
    from test_models import TRANSFORMER_SOURCES

    scans = counting_scans(monkeypatch)
    cases = [
        *((name, make()) for name, make in sorted(TRANSFORMER_SOURCES.items())),
        ("rel1-table", compute_predomain(rel_semiring(1), rel_tests(1))),
        *((name, D) for name, D in rewrite_targets() if isinstance(D, DomainStructure)),
    ]
    rewritten = [(name, found) for name, sizes, found in scans if sizes and name in {law.name for law in DOMAIN_AXIOMS}]
    for name, D in cases:
        got = [(r.name, r.holds, r.witness, r.note) for r in check_domain_axioms(D)]
        want = [(r.name, r.holds, r.witness, r.note) for r in check_laws(DOMAIN_AXIOMS, D.owner, D=D)]
        assert got == want, name
    assert {"d1", "d2", "dloc", "cd1", "cd2", "cdloc"} <= {name for name, _ in rewritten}
    assert any(found is not None for _, found in rewritten)


def test_rel3_locality_is_decided_by_100_instances(monkeypatch):
    """On the rel(3) predomain dloc and cdloc each scan a and b over 0 and the nine single pairs,
    never the 512 * 512 of the axiom itself."""
    scans = counting_scans(monkeypatch)
    fresh_predomain(compute_predomain(rel_semiring(3), rel_tests(3)))
    local = [(name, sizes, found) for name, sizes, found in scans if name in ("dloc", "cdloc")]
    assert local == [("dloc", [10, 10], None), ("cdloc", [10, 10], None)]


def cell_changed(name, table, i, p):
    """The predomain of a MODELS entry with delta[i] or rho[i] (table) set to the test p."""
    _, S, T = next(m for m in MODELS if m[0] == name)
    D = compute_predomain(S, T)
    tables = {"delta": np.array(D.delta), "rho": np.array(D.rho)}
    tables[table][i] = p
    return DomainStructure(S, T, tables["delta"], tables["rho"])


def identity_changed(name, cell, v):
    """The predomain tables of a MODELS entry over its · with one cell (a, 1) or (1, a) set to v."""
    _, S, T = next(m for m in MODELS if m[0] == name)
    D = compute_predomain(S, T)
    mul = np.array(S.mul)
    mul[cell] = v
    S2 = plain(S, mul=mul)
    return DomainStructure(S2, TestAlgebra(S2, T.members, T.compl), D.delta, D.rho)


def prerequisite_cases():
    """(name, S, D or None), built when iterated: structures where laws that certificates list fail.

    Corrupted star columns break the star axioms, under their predomains where
    they have one; corrupted and random additive domain tables and single moved
    cells break d1, d2, cd1 or cd2, some with dloc and cdloc still holding, and
    corrupt_domain(5) cod-additive; A3_2's predomain is not local; moved identity cells of
    · break mul-left- or mul-right-identity under intact domain tables; and rel(2)'s
    predomain tables over test algebras that break test-algebra laws while every
    domain axiom holds (AXIOMS_HOLD).
    """
    for c in CORRUPTIONS:
        if c[1] == "star":
            S, T = corrupted(*c)
            D = predomain_or_error(compute_predomain, S, T)
            yield "-".join(map(str, c)), S, D if isinstance(D, DomainStructure) else None
    for name in DOMAIN_CORRUPTIONS:
        for k, D in enumerate(corrupted_domains(name)):
            yield f"{name}-domain-{k}", D.owner, D
    for seed in range(8):
        D = random_additive_domain(seed)
        yield f"rel2-additive-{seed}", D.owner, D
    D = corrupt_domain(5)
    yield "rel2-corrupt-5", D.owner, D
    for name, table, i, p in [("A3_1", "delta", 2, 0), ("A3_1", "rho", 2, 0), ("A2", "delta", 0, 1), ("A2", "rho", 0, 1)]:
        D = cell_changed(name, table, i, p)
        yield f"{name}-{table}[{i}]={p}", D.owner, D
    D = compute_predomain(*next(m[1:] for m in MODELS if m[0] == "A3_2"))
    yield "A3_2", D.owner, D
    for cell in ((0, 1), (1, 0)):
        D = identity_changed("A2", cell, 1)
        yield f"A2-mul{cell}=1", D.owner, D
    S, T = rel_semiring(2), rel_tests(2)
    P = compute_predomain(S, T)
    T2 = TestAlgebra(S, T.members, {0: 9, 9: 0, 1: 1, 8: 8})
    yield "rel2-fixed-complement", S, DomainStructure(S, T2, P.delta, P.rho)
    T3 = TestAlgebra(S, (*T.members, S.top()), {**T.compl, S.top(): S.top()})
    yield "rel2-top-test", S, DomainStructure(S, T3, P.delta, P.rho)


# structures of prerequisite_cases where every domain axiom holds, and laws there whose
# certificates also list test-algebra laws, which fail: the complement fixes {(1,1)} and
# {(2,2)}; the full relation is a test, its own complement, and not below 1
AXIOMS_HOLD = {
    "rel2-fixed-complement": {"gla", "gra", "preimage-vs-annihilation", "preimage-exchange"},
    "rel2-top-test": {"dom-stable-on-tests", "dom-complement", "dom-export", "preimage-vs-commutation", "preimage-import-export"},
}

SUITES = STAR_PREIMAGE_LAWS + HOARE_RULES
CERTIFIED_FAMILIES = {law.name for law in KLEENE_LAWS + DOMAIN_AXIOMS + DOMAIN_CALCULUS + SUITES if isinstance(law, Law)}


def test_every_name_a_certificate_lists_is_one_the_ladder_can_hold():
    """A certificate fires only for a table law, and only once every law it lists is held: a misspelt name would
    withhold it silently, and the table checkers would still print a bare "holds" from the scan.  A name can be held as
    a table law, a hand-checked report of the three base tables, atomic-tests or an _ATOMIC fact."""
    reported = {law for law in ISEMIRING_LAWS + KLEENE_LAWS + TEST_LAWS if isinstance(law, str)}
    holdable = {*kadlib.algebra._TABLE_LAWS, *reported, "atomic-tests", *(fact for fact, _ in _ATOMIC)}
    assert set(kadlib.algebra._CERTIFICATES) <= set(kadlib.algebra._TABLE_LAWS)
    unknown = {law: {by, *needs} - holdable for law, (by, needs) in kadlib.algebra._CERTIFICATES.items()}
    assert {law: names for law, names in unknown.items() if names} == {}


def test_a_certificate_whose_prerequisite_failed_leaves_its_law_to_the_scanner(monkeypatch):
    """For each certificate of check_kleene, check_domain_axioms, check_domain_calculus,
    check_star_preimage_laws and check_hoare_rules, a structure where one of the laws it lists
    failed: the law is reported not applicable, or is scanned (in its rewritten form first where a
    rewrite applies), and every report is the plain scan's.  Each such law fails on at least one of
    these structures, where a certificate that fired would have reported it holding.  The two
    suites read the laws held as run_laws does: D.laws and those of the run decided exactly."""
    certificates = {law: (by, *needs) for law, (by, needs) in kadlib.algebra._CERTIFICATES.items() if law in CERTIFIED_FAMILIES}
    scans = counting_scans(monkeypatch)
    withheld, refuted = collections.Counter(), set()
    for name, S, D in prerequisite_cases():
        reports, suite, exact = [*check_isemiring(S), *(check_kleene(S) if S.star is not None else ())], [], set()
        if D is not None:
            reports += [*D.tests._reports, *check_domain_axioms(D), *check_domain_calculus(D)]
            assert rows(check_domain_axioms(D)) == rows(check_laws(DOMAIN_AXIOMS, D.owner, D=D)), name
            assert rows(check_domain_calculus(D)) == rows(check_laws(DOMAIN_CALCULUS, D.owner, D=D)), name
            suite = [*check_star_preimage_laws(D), *check_hoare_rules(D)]
            exact = D.laws | {r.name for r in suite if r.holds and not r.note.startswith(("sampled", "not applicable"))}
        if S.star is not None:
            assert decided(S) == scanned(S), name
        held = {r.name for r in reports if r.holds}
        scanned_names = {law for law, _, _ in scans}
        for r, known in [*((r, held) for r in reports), *((r, exact) for r in suite)]:
            if r.name in certificates and not known.issuperset(certificates[r.name]):
                assert r.note.startswith("not applicable") or r.name in scanned_names, (name, r.name)
                withheld[r.name] += 1
                if not r.holds:
                    refuted.add(r.name)
        scans.clear()
        if name in AXIOMS_HOLD:
            # certificates resting on the domain axioms alone would be wrong here
            assert held.issuperset(("d1", "d2", "dloc", "cd1", "cd2", "cdloc")), name
            assert AXIOMS_HOLD[name] <= {r.name for r in reports if not r.holds}, name
    assert set(withheld) == set(certificates) == refuted


def test_a_user_law_borrows_no_certificate_by_its_name():
    """A law certified by a table law's derivation is that table law: a law of another content
    under the name dom-strict is sampled, and fails, on the rel(3) predomain, where the table's
    dom-strict is certified by d2 at the same budget."""
    D, a, b = compute_predomain(rel_semiring(3), rel_tests(3)), var("a"), var("b")
    table = next(law for law in DOMAIN_CALCULUS if law.name == "dom-strict")
    assert run_laws([table], D, budget=100, samples=10)[0].note == "certified by d2"
    got = run_laws([Law("dom-strict", "a b", eq(a, b))], D, budget=100, samples=10)[0]
    assert not got.holds and got.note == "sampled (10)"


def test_a_user_law_that_holds_vouches_for_no_table_law_of_its_name():
    """d2 fails on corrupt_domain(18).  A law a = a named d2 holds there, but no certificate takes it
    for d2: dom-monotone, which d2 would certify, is reported as it is without that law, and its
    exhaustive scan fails."""
    D, a = corrupt_domain(18), var("a")
    assert "d2" not in D.laws
    monotone = next(law for law in DOMAIN_CALCULUS if law.name == "dom-monotone")
    got = run_laws([Law("d2", "a", eq(a, a)), monotone], D, budget=16, samples=0)
    assert got == [LawReport("d2", True, None, "exhaustive"), *run_laws([monotone], D, budget=16, samples=0)]
    assert got[1].note == "sampled (0)"
    witness = {"a": "{(1,1)}", "b": "{(1,1),(1,2)}"}
    assert run_laws([monotone], D, budget=256, samples=0) == [LawReport("dom-monotone", False, witness, "exhaustive")]


def test_a_refuted_rewrite_falls_back_to_the_scan(monkeypatch):
    """image-compose-bound on an additive rel(2) domain is scanned first with p over 0
    and the atoms, a and b over 0 and the single pairs; that fails, and the scan of the
    law itself gives the witness."""
    D = random_additive_domain(5)
    scans = counting_scans(monkeypatch)
    reports = {r.name: r for r in check_domain_calculus(D)}
    witness = {"p": 1, "a": 2, "b": 8}
    assert reports["image-compose-bound"] == LawReport("image-compose-bound", False, witness)
    compose = [(sizes, found) for name, sizes, found in scans if name == "image-compose-bound"]
    assert compose == [([3, 5, 5], witness), (None, witness)]


def test_rel3_image_compose_laws_are_decided_by_400_instances(monkeypatch):
    """On the rel(3) predomain image-compose-bound and -exact are certified by cd2 and
    cdloc.  Without cd1, which both derivations use, each scans 4 * 10 * 10 instances,
    never the 8 * 512 * 512 of the law itself."""
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    laws = [law for law in DOMAIN_CALCULUS if law.name.startswith("image-compose")]
    modes = [kadlib.algebra._certified(law, D.laws) for law in laws]
    assert modes == ["certified by cd2", "certified by cdloc"]
    monkeypatch.setattr(D, "laws", D.laws - {"cd1"})
    scans = counting_scans(monkeypatch)
    assert all_hold(check_domain_calculus(D))
    compose = [(name, sizes, found) for name, sizes, found in scans if name.startswith("image-compose")]
    assert compose == [("image-compose-bound", [4, 10, 10], None), ("image-compose-exact", [4, 10, 10], None)]


def test_the_rel3_predomain_is_built_once_per_cold_start(monkeypatch, capsys):
    """kad check rel:3, then the star/preimage laws and the Hoare rules on the rel(3) predomain."""
    kadlib.models._rel_materialized.cache_clear()
    built = []
    init = DomainStructure.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DomainStructure, "__init__", counting)
    assert main(["check", "rel:3"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "rel_3.stdout").read_bytes()
    assert all_hold(check_star_preimage_laws(compute_predomain(rel_semiring(3), rel_tests(3))))
    assert all_hold(check_hoare_rules(compute_predomain(rel_semiring(3), rel_tests(3))))
    assert len(built) == 1


# -- check_equation ---------------------------------------------------------------


def term_vars(t, acc):
    if t.op == "var" and t.name not in acc:
        acc.append(t.name)
    for a in t.args:
        term_vars(a, acc)
    return acc


def scalar_equation(lhs, rhs, rel, S, T, D=None):
    """(holds, witness) by one eval_term per assignment, or the error it raises."""
    vs = term_vars(rhs, term_vars(lhs, []))
    doms = [T.members if v[:1] in "pqr" else range(S.n) for v in vs]
    try:
        for values in itertools.product(*doms):
            env = dict(zip(vs, values))
            l, r = eval_term(lhs, env, S, T, D), eval_term(rhs, env, S, T, D)
            if not (l == r if rel == "eq" else S.leq(l, r)):
                return False, env
    except ValueError as e:
        return "raises", str(e)
    return True, None


def compiled_equation(lhs, rhs, rel, S, T, D=None):
    try:
        r = check_equation(lhs, rhs, rel, S, T, D)
    except ValueError as e:
        return "raises", str(e)
    return r.holds, r.witness


def random_term(rng, depth, names):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([var(v) for v in names] + [one_term])
    op = rng.choice(["add", "mul", "star", "not", "dom", "cod", "conv"])
    if op in ("add", "mul"):
        l, r = random_term(rng, depth - 1, names), random_term(rng, depth - 1, names)
        return l + r if op == "add" else l * r
    return {"star": star, "not": compl, "dom": dom, "cod": cod, "conv": conv}[op](random_term(rng, depth - 1, names))


def test_check_equation_matches_the_scalar_scan():
    """Complement of a non-test raises only if it comes before the first failure."""
    rng = random.Random(5)
    raised = failed = 0
    for name, S, T in MODELS:
        D = compute_predomain(S, T)
        for _ in range(60):
            lhs, rhs = random_term(rng, 3, "xyp"), random_term(rng, 3, "xyp")
            rel = rng.choice(["eq", "leq"])
            want = scalar_equation(lhs, rhs, rel, S, T, D)
            assert compiled_equation(lhs, rhs, rel, S, T, D) == want, (name, str(lhs), rel, str(rhs))
            raised += want[0] == "raises"
            failed += want[0] is False
    assert raised and failed


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_check_equation_matches_the_scalar_scan_in_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(kadlib.algebra, "_CHUNK", chunk)
    test_check_equation_matches_the_scalar_scan()


def test_check_equation_complement_of_a_non_test():
    S = conway_model("A3_1")  # carrier 0, a, 1; the discrete tests are 0 and 1
    T = TestAlgebra.discrete(S)
    x = var("x")
    # fails at x = 0, before x = a would take a complement
    assert compiled_equation(compl(x), x, "eq", S, T) == (False, {"x": 0})
    # holds at x = 0, then x = a is not a test
    with pytest.raises(ValueError, match="'a' is not a declared test"):
        check_equation(compl(compl(x)), x, "eq", S, T)


def test_check_equation_static_errors():
    S = conway_model("A2")
    bare = FiniteSemiring(S.carrier, S.add, S.mul, S.zero, S.one)
    x = var("x")
    with pytest.raises(ValueError, match="term uses star but the semiring declares none"):
        check_equation(star(x), x, S=bare)
    with pytest.raises(ValueError, match="term uses converse but the semiring declares none"):
        check_equation(conv(x), x, S=S)
    with pytest.raises(ValueError, match="term uses dom but no domain structure was given"):
        check_equation(dom(x), x, S=S)
    with pytest.raises(ValueError, match="term uses cod but no domain structure was given"):
        check_equation(x, cod(x), S=S)
    with pytest.raises(ValueError, match="term uses complement but no test algebra was given"):
        check_equation(compl(x), x, S=S)


def test_check_equation_reads_the_tests_of_the_domain_structure():
    """With no T given, the test variables of check_equation range over D.tests, as they do in check_laws;
    with neither, the scan's error names the equation."""
    D, a, p = compute_predomain(rel_semiring(2), rel_tests(2)), var("a"), var("p")
    got = check_equation(p * a, a * p, S=D.owner, D=D)
    assert got == check_equation(p * a, a * p, S=D.owner, T=D.tests) == LawReport(got.name, False, {"p": 1, "a": 2})
    with pytest.raises(ValueError, match=f"^{re.escape(got.name)} has test variables but no test algebra was given$"):
        check_equation(p * a, a * p, S=D.owner)


def test_check_laws_names_what_the_tables_lack():
    """A scan raises check_equation's message for an operation the tables lack, and says so for
    test variables with no test algebra or an unknown op, where it raised KeyError, AttributeError or
    scanned a top of None."""
    S, a, p = conway_model("A3_1"), var("a"), var("p")
    xor = FiniteSemiring(["0", "1"], [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1)
    assert xor.top() is None
    with pytest.raises(ValueError, match="term uses dom but no domain structure was given"):
        check_laws([Law("x", "a", eq(dom(a), a))], S)
    with pytest.raises(ValueError, match="term uses complement but no test algebra was given"):
        check_laws([Law("x", "a", eq(compl(a), a))], S)
    with pytest.raises(ValueError, match="term uses top but the semiring has no greatest element"):
        check_laws([Law("x", "a", leq(a, top_term))], xor)
    with pytest.raises(ValueError, match="x has test variables but no test algebra was given"):
        check_laws([Law("x", "p", leq(p, one_term), tests="p")], S)
    with pytest.raises(ValueError, match="unknown term op 'foo'"):
        check_laws([Law("x", "a", eq(Term("foo", (a,)), a))], S)


# -- golden kad check output -------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "check"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_kad_check_output_is_unchanged(case, capsys):
    target = CASES[case]["target"]
    if target.endswith(".json"):
        target = str(GOLDEN / target)
    assert main(["check", target]) == CASES[case]["exit"]
    out, _ = capsys.readouterr()
    assert out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()


def test_kad_check_scans_the_domain_axioms_once(monkeypatch, capsys):
    # from cold caches: a predomain built by an earlier test is kept on its semiring
    kadlib.models._rel_materialized.cache_clear()
    scans = []
    scan = kadlib.domain._exact

    def counting(laws, *args, **kwargs):
        scans.append(laws is DOMAIN_AXIOMS)
        return scan(laws, *args, **kwargs)

    # the axioms are decided by the exact ladder, as the calculus is
    monkeypatch.setattr(kadlib.domain, "_exact", counting)
    assert main(["check", "rel:2"]) == 0
    assert "d1 holds" in capsys.readouterr().out
    assert sum(scans) == 1


# -- star/preimage laws and Hoare rules against their per-law predicates -----------


# the laws of both suites that the tests of the scan, rewrite and sampled routes take uncertified;
# preimage-horn-induction keeps its certificate, from preimage-star-induction however that was
# decided, as no scan budget fits its 512^3 * 8^2 instances on rel(3)
SCAN_ROUTES = [law.name for law in SUITES if law.name != "preimage-horn-induction"]


def uncertified(monkeypatch, names=SCAN_ROUTES):
    """Take the certificates of the laws named out of algebra._CERTIFICATES until the test ends, so
    that run_laws decides those laws by scan, rewrite or samples."""
    for name in names:
        monkeypatch.delitem(kadlib.algebra._CERTIFICATES, name)


def suite_reports(D):
    return [*check_star_preimage_laws(D), *check_hoare_rules(D)]


def reference_runner(D, budget, samples, rng):
    """run(name, kinds, pred, names): kinds has one letter per argument, e (element) or t (test)."""
    members = D.test_members()
    n_el = D.size()
    els = []

    def elements():
        if not els:
            els.extend(D.elements())
        return els

    def draw(kind):
        return members[rng.randrange(len(members))] if kind == "t" else D.sample(rng)

    def run(name, kinds, pred, names):
        if math.prod(n_el if k == "e" else len(members) for k in kinds) <= budget:
            note = "exhaustive"
            combos = itertools.product(*(elements() if k == "e" else members for k in kinds))
        else:
            note = f"sampled ({samples})"
            combos = (tuple(draw(k) for k in kinds) for _ in range(samples))
        for combo in combos:
            if not pred(*combo):
                witness = {nm: D.el_name(v) if k == "e" else D.test_name(v) for nm, k, v in zip(names, kinds, combo)}
                return LawReport(name, False, witness, note)
        return LawReport(name, True, None, note)

    return run


def reference_star_preimage(D, samples=1000, rng=None, budget=200_000):
    run = reference_runner(D, budget, samples, rng or random.Random(0))
    pre, star, mul, embed = D.preimage, D.star, D.mul, D.embed
    join, meet, compl, leq = D.test_join, D.test_meet, D.test_compl, D.test_leq
    reports = [
        run("star-of-domain", "e", lambda a: star(embed(D.dom(a))) == D.one, ("a",)),
        run("domain-of-star", "e", lambda a: D.dom(star(a)) == D.test_one, ("a",)),
        run(
            "invariant-star",
            "et",
            lambda a, p: not leq(pre(a, p), p) or leq(pre(star(a), p), p),
            ("a", "p"),
        ),
    ]
    if "dloc" not in D.laws:
        note = "not applicable: no locality"
        for name in ("preimage-star-induction", "frontier-bound", "frontier-decomposition", "preimage-horn-induction"):
            reports.append(LawReport(name, True, None, note))
        return reports
    return reports + [
        run(
            "preimage-star-induction",
            "ett",
            lambda a, p, q: not leq(join(pre(a, p), q), p) or leq(pre(star(a), q), p),
            ("a", "p", "q"),
        ),
        run(
            "frontier-bound",
            "et",
            lambda a, p: leq(pre(star(a), p), join(p, pre(star(a), meet(compl(p), pre(a, p))))),
            ("a", "p"),
        ),
        run(
            "frontier-decomposition",
            "et",
            lambda a, p: pre(star(a), p) == join(p, pre(star(mul(a, embed(compl(p)))), pre(a, p))),
            ("a", "p"),
        ),
        run(
            "preimage-horn-induction",
            "eeett",
            lambda a, b, c, p, q: not leq(join(pre(mul(a, c), p), pre(b, q)), pre(c, p))
            or leq(pre(mul(star(a), b), q), pre(c, p)),
            ("a", "b", "c", "p", "q"),
        ),
    ]


def reference_hoare_rules(D, budget=300_000, samples=1000, rng=None):
    run = reference_runner(D, budget, samples, rng or random.Random(0))
    img, embed = D.image, D.embed
    meet, compl, leq = D.test_meet, D.test_compl, D.test_leq
    return [
        run(
            "rule-composition",
            "eettt",
            lambda a, b, p, q, r: not (leq(img(p, a), q) and leq(img(q, b), r)) or leq(img(p, D.mul(a, b)), r),
            ("a", "b", "p", "q", "r"),
        ),
        run(
            "rule-conditional",
            "eettt",
            lambda a, b, p, q, r: not (leq(img(meet(p, q), a), r) and leq(img(meet(compl(p), q), b), r))
            or leq(img(q, D.add(D.mul(embed(p), a), D.mul(embed(compl(p)), b))), r),
            ("a", "b", "p", "q", "r"),
        ),
        run(
            "rule-while",
            "ett",
            lambda a, p, q: not leq(img(meet(p, q), a), q)
            or leq(img(q, D.mul(D.star(D.mul(embed(p), a)), embed(compl(p)))), meet(compl(p), q)),
            ("a", "p", "q"),
        ),
        run(
            "rule-weakening",
            "etttt",
            lambda a, p1, p, q, q1: not (leq(p1, p) and leq(img(p, a), q) and leq(q, q1)) or leq(img(p1, a), q1),
            ("a", "p1", "p", "q", "q1"),
        ),
    ]


def rows(reports):
    return [(r.name, r.holds, r.witness, r.note) for r in reports]


def assert_rows_agree(got, want):
    """got's rows equal the reference's, except where run_laws certifies a law, which then
    holds by the reference too, or decides exactly through algebra._rewrite a law that the
    reference samples: there, the verdicts are equal and the note says reduced."""
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(rows(got), rows(want)):
        if g[3].startswith("certified by "):
            assert w[1] and g[:3] == w[:3], (g, w)
        elif w[3].startswith("sampled") and not g[3].startswith("sampled"):
            assert g[3].startswith("reduced (") and g[1] == w[1], (g, w)
        else:
            assert g == w


def domain_targets():
    for n in (1, 2, 3):
        yield f"rel_model({n})", lambda n=n: rel_model(n)
    for name in conway_names():
        S = conway_model(name)
        yield f"predomain-{name}", lambda S=S: compute_predomain(S, TestAlgebra.discrete(S))
    for n in (2, 3):
        yield f"rel{n}-table", lambda n=n: compute_predomain(rel_semiring(n), rel_tests(n))
    A2 = conway_model("A2")
    yield "zero-domain", lambda: DomainStructure(A2, TestAlgebra.discrete(A2), delta=[0, 0], rho=[0, 0])
    for seed in range(6):
        yield f"rel2-corrupt-{seed}", lambda seed=seed: corrupt_domain(seed)


def corrupt_domain(seed):
    """rel(2)'s predomain with one cell of delta or rho moved to another test."""
    S, T = rel_semiring(2), rel_tests(2)
    D = compute_predomain(S, T)
    rng = random.Random(f"rel2-domain:{seed}")
    delta, rho = np.array(D.delta), np.array(D.rho)
    t = delta if rng.random() < 0.5 else rho
    i = rng.randrange(S.n)
    t[i] = rng.choice([p for p in T.members if p != t[i]])
    return DomainStructure(S, T, delta, rho)


TARGETS = list(domain_targets())


@pytest.mark.parametrize("make", [t[1] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_law_tables_match_the_per_law_predicates(make):
    D = make()
    assert_rows_agree(check_star_preimage_laws(D), reference_star_preimage(D))
    assert_rows_agree(check_hoare_rules(D), reference_hoare_rules(D))


PLAIN_TARGETS = [t for t in TARGETS if not t[0].startswith(("predomain-", "zero-"))]


@pytest.mark.parametrize("make", [t[1] for t in PLAIN_TARGETS], ids=[t[0] for t in PLAIN_TARGETS])
def test_certified_suites_report_what_they_report_uncertified(make, monkeypatch):
    """On rel(1..3), the rel(2) and rel(3) predomains and the corrupted rel(2) domains, both suites
    with every certificate taken out, each law then scanned, rewritten or sampled, give the same
    (name, holds, witness) as with their certificates."""
    D = make()
    got = suite_reports(D)
    uncertified(monkeypatch, [law.name for law in SUITES])
    plain = suite_reports(D)
    assert [r[:3] for r in rows(got)] == [r[:3] for r in rows(plain)]
    assert not any(r.note.startswith("certified") for r in plain)


@pytest.mark.parametrize("n", [4, 10, 30])
def test_no_law_of_either_suite_is_sampled_on_relations(n):
    """On relation models past what a scan lists, every law of both suites is certified."""
    rep = suite_reports(rel_model(n))
    assert all_hold(rep) and all(r.note.startswith("certified by ") for r in rep)


HORN = "certified by preimage-star-induction"
REL3_UNCERTIFIED = [*["exhaustive"] * 6, HORN, "reduced (400)", "reduced (3200)", "exhaustive", "reduced (4096)"]
SCAN_ROUTE_NOTES = {"rel_model(2)": [*["exhaustive"] * 6, HORN, *["exhaustive"] * 4], "rel_model(3)": REL3_UNCERTIFIED, "rel3-table": REL3_UNCERTIFIED}


@pytest.mark.parametrize("name", sorted(SCAN_ROUTE_NOTES))
def test_uncertified_suites_are_decided_by_their_scans_and_rewrites(name, monkeypatch):
    """Without the certificates of SCAN_ROUTES, each of those laws is decided by an exhaustive scan or
    through the rewrite step, and its report is the certified one's."""
    D = dict(TARGETS)[name]()
    got = suite_reports(D)
    assert all(r.holds and r.note.startswith("certified by ") for r in got)
    uncertified(monkeypatch)
    plain = suite_reports(D)
    assert [r.note for r in plain] == SCAN_ROUTE_NOTES[name]
    assert [r[:3] for r in rows(got)] == [r[:3] for r in rows(plain)]


# -- the rewrite step against the full scan ----------------------------------------


def rewrite_targets():
    """rel(1) and rel(2) as relations, the predomains of predomain_cases (the
    builtins, the rel(1) and rel(2) tables, every seeded corruption that has one and
    the corrupted domain tables), the corrupted rel(2) domains of domain_targets, and
    each intact predomain with its dom and cod swapped: both stay additive, so the
    rewrites run there, and the image laws fail."""
    for n in (1, 2):
        yield f"rel_model({n})", rel_model(n)
    yield from predomain_cases()
    for seed in range(6):
        yield f"rel2-corrupt-{seed}", corrupt_domain(seed)
    for name, S, T in MODELS:
        D = compute_predomain(S, T)
        yield f"{name}-swapped", DomainStructure(S, T, D.rho, D.delta)
    for seed in range(8):
        yield f"rel2-additive-{seed}", random_additive_domain(seed)


def random_additive_domain(seed):
    """rel(2)'s predomain with dom or cod replaced by a random additive map: the join
    of random tests, one for each single pair of the element (its mask's bits)."""
    S, T = rel_semiring(2), rel_tests(2)
    D = compute_predomain(S, T)
    rng = random.Random(f"rel2-additive:{seed}")
    at = [rng.choice(T.members) for _ in range(4)]
    table = [functools.reduce(lambda x, k: int(S.add[x, at[k]]), (k for k in range(4) if x >> k & 1), S.zero) for x in range(S.n)]
    return DomainStructure(S, T, D.delta, table) if seed % 2 else DomainStructure(S, T, table, D.rho)


def witness_values(D, law, witness):
    """The values a report's witness names, in law.vars order."""
    if isinstance(D, DomainStructure):
        return [D.owner.index(witness[v]) for v in law.vars]
    # a RelModel names a test {1,3} and a relation {(1,2),(2,3)}
    listed = {v: ast.literal_eval("[" + witness[v][1:-1] + "]") for v in law.vars}
    return [D.test_from_states(listed[v]) if v in law.tests else Relation.from_pairs(D.n, listed[v]) for v in law.vars]


def fails_at(D, law, values):
    """law fails at values: by eval_term on tables, by the scalar evaluator over the model's methods otherwise."""
    if not isinstance(D, DomainStructure):
        return not kadlib.algebra._Scalar(D, law.vars, law.tests).compile(law)(values)
    env = dict(zip(law.vars, values))
    return all(holds(p, env, D.owner, D.tests, D) for p in law.premises) and not holds(law.concl, env, D.owner, D.tests, D)


def test_rewrites_give_the_full_scans_verdicts(monkeypatch):
    """Each Hoare rule and star/preimage law that algebra._rewrite rewrites (with no
    budget, so with every rewrite that applies) has the verdict of its full scan, and a
    failure it finds is lifted to an instance at which the law itself fails.  The full
    scans take every law uncertified; a law whose certificate applies holds by its full scan.
    The rewrites are decided by algebra._decide at the budget that just fits the rewritten
    law, with no samples, so that a failure that does not lift leaves the law "sampled (0)"."""
    seen = collections.Counter()
    for name, D in rewrite_targets():
        scanner = kadlib.algebra._Scanner(D.owner, D=D) if isinstance(D, DomainStructure) else None
        for suite in (HOARE_RULES, STAR_PREIMAGE_LAWS):
            with monkeypatch.context() as scan_only:
                uncertified(scan_only, [law.name for law in SUITES])
                full = run_laws(suite, D, budget=10**9, samples=0)
            held = {r.name for r in full if r.holds and r.note == "exhaustive"} | D.laws
            for law, want in zip(suite, full):
                if want.note != "exhaustive":
                    continue
                if (mode := kadlib.algebra._certified(law, held)) is not None:
                    # a certificate, which run_laws tries before the rewrite step
                    assert want.holds, (name, law.name, mode)
                    seen["certified", True] += 1
                    continue
                rw = kadlib.algebra._rewrite(law, D, held)
                if rw is None:
                    continue
                is_test = [v in rw.law.tests for v in rw.law.vars]
                k = math.prod(kadlib.algebra._sizes(D, is_test, rw.ranges))
                got = kadlib.algebra._decide([law], D, scanner, held, (), k, 0, random.Random(0))[0]
                if got.note == "sampled (0)":
                    # only a failure that does not lift falls back to the samples
                    assert not want.holds, (name, law.name)
                    seen["fallback"] += 1
                    continue
                assert got.holds == want.holds, (name, law.name, got, want)
                assert got.note == f"reduced ({k})"
                if not got.holds:
                    assert fails_at(D, law, [got.witness[v] for v in law.vars]), (name, got)
                seen["reduced", got.holds] += 1
    assert seen["reduced", True] and seen["reduced", False] and seen["certified", True], seen


def test_a_rewritten_law_takes_no_draws(monkeypatch):
    """A law decided through the rewrite step takes no draws from the run's rng, so
    the laws sampled after it draw what they would draw without it: here rule-while's
    failing sample differs from the one found when rule-composition was sampled too.
    rel(2)'s predomain with dom and cod swapped fails both rules.  Uncertified, as
    rule-conditional and rule-weakening hold there by their certificates, which take
    no draws either."""
    P = compute_predomain(rel_semiring(2), rel_tests(2))
    D = DomainStructure(P.owner, P.tests, P.rho, P.delta)
    assert [r.note for r in run_laws(HOARE_RULES, D, budget=100, samples=40, rng=random.Random(1))] == [
        "reduced (75)", "certified by cod-additive", "sampled (40)", "certified by cod-additive"]
    uncertified(monkeypatch)
    got = run_laws(HOARE_RULES, D, budget=100, samples=40, rng=random.Random(1))
    assert [r.note for r in got] == ["reduced (75)", "sampled (40)", "sampled (40)", "reduced (64)"]
    assert got[0].witness == {"a": "{(1,2)}", "b": "{(2,1)}", "p": "{(1,1)}", "q": "{(1,1)}", "r": "{}"}
    assert got[2].witness == {"a": "{(1,2),(2,1)}", "p": "{(2,2)}", "q": "{(2,2)}"}
    assert got[1:3] == run_laws(HOARE_RULES[1:3], D, budget=100, samples=40, rng=random.Random(1))
    sampled_all = reference_hoare_rules(D, budget=100, samples=40, rng=random.Random(1))
    assert sampled_all[2].witness == {"a": "{(2,1)}", "p": "{(2,2)}", "q": "{(1,1),(2,2)}"}


def test_each_rung_of_the_ladder_gives_its_note(monkeypatch):
    """algebra._decide takes each law to the first rung that decides it: not applicable,
    reduction (on tables only, for the table's own law), certified, exhaustive, reduced (k),
    holding or lifted from a failure of the rewritten law, and sampled (n).  The rel(2)
    predomain is scanned; rel_model(2) and rel_model(5) are read through _Scalar."""
    a, b = var("a"), var("b")
    # dom(a + b) = dom(a) + dom(b) under another name, which the rewrite narrows to a and b over 0 and the single pairs
    additive = Law("dom-of-a-sum", "a b", eq(dom(a + b), dom(a) + dom(b)))
    crossed = Law("dom-of-a-sum-by-cods", "a b", eq(dom(a + b), cod(a) + cod(b)))
    # narrowed in a alone
    below = Law("dom-below-a-sum", "a b", leq(dom(a), dom(a + b)))
    local = Law("reflexive-where-local", "a", leq(a, a), requires=("dloc",))
    table = {name: kadlib.algebra._TABLE_LAWS[name] for name in ("mul-associative", "dom-additive", "dom-strict")}
    D = compute_predomain(rel_semiring(2), rel_tests(2))
    models = [(D, kadlib.algebra._Scanner(D.owner, D=D)), (rel_model(2), None), (rel_model(5), None)]

    def decide(law, M, scanner, budget, samples=5):
        (report,) = kadlib.algebra._decide([law], M, scanner, M.laws, (), budget, samples, random.Random(0))
        # a failure's witness, lifted or found, is an instance at which law itself fails
        assert report.holds == (report.witness is None)
        assert report.holds or fails_at(M, law, [report.witness[v] for v in law.vars])
        return report.holds, report.note

    for M, scanner in models:
        n, on_tables = M.size(), scanner is not None
        k = (1 + n.bit_length() - 1) ** 2  # 0 and the single pairs, for a and for b
        assert decide(table["dom-strict"], M, scanner, 0) == (True, "certified by d2")
        listed = "exhaustive" if n <= 256 else "sampled (5)"
        assert decide(table["mul-associative"], M, scanner, 1 << 16) == (True, "reduction" if on_tables else listed)
        assert decide(table["dom-additive"], M, scanner, 0) == (True, "reduction" if on_tables else "sampled (5)")
        assert decide(additive, M, scanner, k) == (True, f"reduced ({k})")
        assert decide(crossed, M, scanner, k) == (False, f"reduced ({k})")
        assert decide(below, M, scanner, k) == (True, "sampled (5)")
        if n <= 256:
            assert decide(additive, M, scanner, n * n) == (True, "exhaustive")
            assert decide(crossed, M, scanner, n * n) == (False, "exhaustive")
        # a user law under a name of the tables' gets neither that law's reduction nor its certificate
        commutes, below_one = Law("mul-associative", "a b", eq(a * b, b * a)), Law("dom-strict", "a", leq(dom(a), one_term))
        assert not decide(commutes, M, scanner, 1 << 16)[0] and decide(below_one, M, scanner, 1 << 16)[0]
        assert {decide(law, M, scanner, 1 << 16)[1] for law in (commutes, below_one)}.isdisjoint({"reduction", "certified by d2"})
        with monkeypatch.context() as unlocal:
            unlocal.setattr(M, "laws", M.laws - {"dloc"})
            assert decide(local, M, scanner, 0) == (True, "not applicable: no locality")
    # exact, as the table checkers ask: the rewritten law first, then where it fails the plain scan's witness
    scanner = models[0][1]
    exact = kadlib.algebra._decide([additive, crossed], D, scanner, D.laws)
    assert [(r.holds, r.note) for r in exact] == [(True, "reduced (25)"), (False, "exhaustive")]
    assert exact[1].witness == check_laws([crossed], D.owner, D=D)[0].witness


def test_run_laws_and_the_table_checkers_give_the_same_verdicts():
    """run_laws and check_domain_axioms with check_domain_calculus share one ladder: on every
    structure where laws that certificates list fail, they agree on each law's verdict and witness."""
    seen = 0
    for name, _, D in prerequisite_cases():
        if D is None:
            continue
        got = run_laws(DOMAIN_AXIOMS + DOMAIN_CALCULUS, D, 10**9, 0)
        want = check_domain_axioms(D) + check_domain_calculus(D)
        named = [r.witness and {v: D.owner.element_name(x) for v, x in r.witness.items()} for r in want]
        assert [(r.name, r.holds, r.witness) for r in got] == [(r.name, r.holds, w) for r, w in zip(want, named)], name
        seen += not all_hold(want)
    assert seen


def test_an_equation_is_narrowed_only_where_both_sides_are_additive():
    """f = g is narrowed in a variable that occurs once on each side, under only +, ·, dom and cod."""
    D = compute_predomain(rel_semiring(2), rel_tests(2))
    a, p = var("a"), var("p")

    def narrowed(law):
        return kadlib.algebra._rewrite(law, D, D.laws) is not None

    assert narrowed(Law("once-on-each-side", "a", eq(dom(a), dom(a * one_term))))
    assert not narrowed(Law("twice-on-the-right", "a", eq(dom(a), dom(a) * dom(a))))
    assert not narrowed(Law("under-complement-on-the-right", "p", eq(p, compl(compl(p))), tests="p"))


def test_join_irreducibles_are_what_the_order_says():
    """Each element other than 0 that is not the join of the elements strictly below it."""
    for name, S, _ in [*MODELS, ("rel3", REL3, None)]:
        leq = S.add == np.arange(S.n)
        want = []
        for j in range(S.n):
            below = (x for x in np.flatnonzero(leq[:, j]) if x != j)
            if j != S.zero and functools.reduce(lambda x, y: int(S.add[x, y]), below, S.zero) != j:
                want.append(j)
        assert S._join_irreducibles == want, name
    for n in (1, 2, 3):
        S = rel_semiring(n)
        assert [str(r) for r in rel_model(n).join_irreducibles()] == [S.element_name(j) for j in S._join_irreducibles]


def test_additivity_guards_match_their_full_scans():
    """DomainStructure.laws holds dom- and cod-additivity as scanned with b over the join-irreducibles only."""
    failed = 0
    for name, D in rewrite_targets():
        if isinstance(D, DomainStructure) and D.laws.issuperset(kadlib.algebra._ISEMIRING_NAMES):
            full = {r.name for r in check_laws(kadlib.domain._ADDITIVITY, D.owner, D=D) if r.holds}
            assert D.laws & {"dom-additive", "cod-additive"} == full, name
            failed += len(full) < 2
    assert failed


def failing_claims(laws, D) -> set:
    """The names in laws that name a law of ISEMIRING_LAWS, TEST_LAWS, KLEENE_LAWS, DOMAIN_AXIOMS or the
    additivity laws and fail on the tables of D: a Law by check_laws' scan, a hand-written law by its
    checker; atomic-tests if a test is not the join of the atoms below it; and atomic-preimage (atomic-image)
    if some a:p (p:a) is not the join of the atoms in the rows of D.preimage_rows(a) (image_rows) at p's positions."""
    S, T = D.owner, D.tests
    families = (*ISEMIRING_LAWS, *TEST_LAWS, *KLEENE_LAWS, *DOMAIN_AXIOMS, *kadlib.domain._ADDITIVITY)
    claimed = [law for law in families if (law if isinstance(law, str) else law.name) in laws]
    reports = check_laws(claimed, S, T, D, hand=[*check_isemiring(S), *check_test_algebra(T)])
    failing = {r.name for r in reports if not r.holds}
    if "atomic-tests" in laws:
        atoms = T.atoms()
        for p in T.members:
            if functools.reduce(lambda x, t: int(S.add[x, t]), (t for t in atoms if S.leq(t, p)), S.zero) != p:
                failing.add("atomic-tests")
    for fact, rows, step in (("atomic-preimage", D.preimage_rows, D.preimage), ("atomic-image", D.image_rows, lambda a, p: D.image(p, a))):
        if fact in laws and any(
            D.test_from_positions(k for j in D.atom_positions(p) for k in row[j]) != step(a, p)
            for a, row in ((a, rows(a)) for a in D.elements()) for p in T.members
        ):
            failing.add(fact)
    return failing


def test_a_structures_laws_claim_only_what_holds():
    """What a structure's laws name of the law families holds by a plain scan (failing_claims), and a
    domain structure's laws name every domain axiom that held.  rel_model(n) is read against the
    tables of rel(n) and its predomain; the domain structures are the rel(2) and rel(3) predomains,
    the builtins' discrete predomains and the corrupted rel(2) domains."""
    tables = {n: compute_predomain(rel_semiring(n), rel_tests(n)) for n in (1, 2, 3)}
    for n, D in tables.items():
        assert not failing_claims(rel_model(n).laws, D), n
    domains = [(f"rel{n}-table", tables[n]) for n in (2, 3)]
    domains += [(f"predomain-{name}", compute_predomain(S, TestAlgebra.discrete(S))) for name, S in
                ((name, conway_model(name)) for name in conway_names())]
    domains += [(f"rel2-corrupt-{seed}", corrupt_domain(seed)) for seed in range(6)]
    # dom = cod = 1 is additive but fails d2, so a:0 is not the empty join of its rows; and A3_3's chain 0 < a < 1,
    # declared as tests, is not the join of its one atom a
    S2, T2, A3 = rel_semiring(2), rel_tests(2), conway_model("A3_3")
    domains += [("rel2-constant-one", DomainStructure(S2, T2, [S2.one] * S2.n, [S2.one] * S2.n))]
    domains += [("A3_3-chain-tests", compute_predomain(A3, TestAlgebra(A3, [0, 1, 2], {0: 2, 1: 1, 2: 0})))]
    local = []
    for name, D in domains:
        assert not failing_claims(D.laws, D), name
        held = {r.name for r in check_laws(DOMAIN_AXIOMS, D.owner, D=D) if r.holds}
        assert held <= D.laws, name
        local.append("dloc" in held)
    assert not all(local)


def test_rel3_weakening_rewrite_matches_its_full_scan(monkeypatch):
    """The one full-cube rel(3) cross-check: rule-weakening, 512 * 8^4 instances, and its rewrite, uncertified."""
    uncertified(monkeypatch)
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    weakening = next(law for law in HOARE_RULES if law.name == "rule-weakening")
    assert kadlib.algebra._Scanner(D.owner, D=D).first_failure(weakening) is None
    assert run_laws([weakening], D, budget=300_000, samples=0) == [LawReport("rule-weakening", True, None, "reduced (4096)")]


def test_corruptions_are_seen():
    domains = [corrupt_domain(seed) for seed in range(6)]
    assert not all(r.holds for D in domains for r in check_star_preimage_laws(D) + check_hoare_rules(D))


@pytest.mark.parametrize("D", [rel_model(2), rel_model(3), corrupt_domain(0)], ids=["rel2", "rel3", "corrupt0"])
def test_small_budget_sampling_matches_the_per_law_predicates(D, monkeypatch):
    uncertified(monkeypatch)
    got = check_star_preimage_laws(D, samples=40, rng=random.Random(3), budget=30)
    assert rows(got) == rows(reference_star_preimage(D, samples=40, rng=random.Random(3), budget=30))
    assert {r.note for r in got} >= {"sampled (40)"}
    # budget 14 is below every Hoare rule's reduced space here (rel(2)'s rule-weakening has 15), so all four still sample
    got = check_hoare_rules(D, samples=40, rng=random.Random(4), budget=14)
    assert rows(got) == rows(reference_hoare_rules(D, samples=40, rng=random.Random(4), budget=14))
    assert {r.note for r in got} == {"sampled (40)"}


@pytest.mark.parametrize("check", [check_star_preimage_laws, check_hoare_rules])
def test_law_suites_sample_past_the_enumerable_tests(check, monkeypatch):
    # rel(17) has 2^17 tests, more than RelModel lists; uncertified, only rule-weakening's
    # rewrite, over 17^2 + 1 relations and 17 + 1 tests, needs no list of them
    uncertified(monkeypatch)
    reports = check(rel_model(17), samples=20, rng=random.Random(5))
    assert len(reports) > 1
    exact = {"rule-weakening": "reduced (5220)"}
    assert all(r.holds and r.note == exact.get(r.name, "sampled (20)") for r in reports)


SAMPLED_TEST_MODELS = [(f"rel_model({n})", lambda n=n: rel_model(n)) for n in range(1, 9)] + [
    (f"rel{n}-table", lambda n=n: compute_predomain(rel_semiring(n), rel_tests(n))) for n in (2, 3)
]


@pytest.mark.parametrize("make", [m[1] for m in SAMPLED_TEST_MODELS], ids=[m[0] for m in SAMPLED_TEST_MODELS])
def test_sample_test_is_the_reference_runners_draw(make):
    D = make()
    members = D.test_members()
    for seed in range(4):
        got, want = random.Random(seed), random.Random(seed)
        assert [D.sample_test(got) for _ in range(50)] == [members[want.randrange(len(members))] for _ in range(50)]


# -- check_sampled_laws against the table checkers ----------------------------------


class TableHandle(ModelHandle):
    """A FiniteSemiring seen through the handle surface, elements in carrier order."""

    def __init__(self, S):
        self.S, self.name, self.has_star = S, S.name, S.star is not None

    def add(self, x, y):
        return int(self.S.add[x, y])

    def mul(self, x, y):
        return int(self.S.mul[x, y])

    def star(self, x):
        return int(self.S.star[x])

    @property
    def zero(self):
        return self.S.zero

    @property
    def one(self):
        return self.S.one

    def elements(self):
        return range(self.S.n)

    def size(self):
        return self.S.n

    def el_name(self, x):
        return self.S.element_name(x)


HANDLE_LAWS = {law.name for law in ISEMIRING_LAWS + KLEENE_LAWS[:2] if isinstance(law, Law)}


def table_rows(S, reports):
    """Rows of table-checker reports with witnesses named, for the laws check_sampled_laws checks."""
    return [
        (r.name, r.holds, None if r.witness is None else {k: S.element_name(v) for k, v in r.witness.items()})
        for r in reports
        if r.name in HANDLE_LAWS
    ]


def test_sampled_laws_agree_with_check_isemiring_on_rel2():
    got = check_sampled_laws(rel_model(2), include_star=True)
    S = materialize(rel_model(2)).semiring
    want = table_rows(S, check_isemiring(S) + check_kleene(S))
    assert [(r.name, r.holds, r.witness) for r in got] == want
    assert {r.note for r in got} == {"exhaustive"}


@pytest.mark.parametrize("name,table,seed", CORRUPTIONS, ids=[f"{n}-{t}-{s}" for n, t, s in CORRUPTIONS])
def test_sampled_laws_agree_with_check_isemiring_on_corrupted_tables(name, table, seed):
    _, S, _ = next(m for m in MODELS if m[0] == name)
    S2 = corrupt_semiring(S, table, random.Random(f"{name}:{table}:{seed}"))
    handle = TableHandle(S2)
    got = check_sampled_laws(handle, include_star=True)
    want = table_rows(S2, check_isemiring(S2) + (check_kleene(S2) if S2.star is not None else []))
    assert [(r.name, r.holds, r.witness) for r in got] == want
    assert {r.note for r in got} == {"exhaustive"}


@pytest.mark.parametrize("n", [3, 5, 10])
def test_the_isemiring_laws_of_a_relation_model_are_not_rewritten(n):
    """RelModel.laws asserts the isemiring laws, which guard the rewrite step; a
    guard is never rewritten, as that would rest on itself, so every law past the 2^16
    budget is sampled: on rel(3) each law of two or three variables."""
    laws = [law for law in ISEMIRING_LAWS if isinstance(law, Law)] + list(KLEENE_LAWS[:2])
    got = check_sampled_laws(rel_model(n), include_star=True)
    assert [r.name for r in got] == [law.name for law in laws]
    assert [r.note for r in got] == ["exhaustive" if n == 3 and len(law.vars) == 1 else "sampled (1000)" for law in laws]


def test_sampled_laws_enumerate_only_what_a_handle_can():
    small = check_sampled_laws(bounded_language_model("ab", 1), include_star=True)
    assert all(r.holds and r.note == "exhaustive" for r in small)
    # 17 words: 2^17 languages, past what the subset model enumerates
    big = check_sampled_laws(bounded_language_model("abcdefghijklmnop", 1), samples=20)
    assert all(r.holds and r.note == "sampled (20)" for r in big)


# -- the scalar evaluator on a DomainStructure past its budget ----------------------


def test_a_law_with_converse_on_a_domain_structure_reads_the_owners_column():
    """Exhaustive or sampled, converse is the owner's conv column; without one, both raise."""
    a = var("a")
    law = Law("ci", "a", eq(conv(conv(a)), a))
    D = compute_predomain(rel_semiring(2), rel_tests(2))
    assert run_laws([law], D, 10**6, 50) == [LawReport("ci", True, None, "exhaustive")]
    assert run_laws([law], D, 1, 50) == [LawReport("ci", True, None, "sampled (50)")]
    A2 = conway_model("A2")
    bare = compute_predomain(A2, TestAlgebra.discrete(A2))
    for budget in (10**6, 1):
        with pytest.raises(ValueError, match="term uses converse but the semiring declares none"):
            run_laws([law], bare, budget, 50)


def test_complement_of_an_element_raises_only_at_a_non_test_on_tables():
    """On tables a complement raises where it meets a non-test, exhaustive or sampled; on a RelModel,
    whose tests are not relations, complement of an element is an error before any instance."""
    a = var("a")
    law = Law("nt", "a", eq(compl(a), a))
    A2 = conway_model("A2")
    D = compute_predomain(A2, TestAlgebra.discrete(A2))  # every element of A2 is a test
    assert run_laws([law], D, 100, 10) == [LawReport("nt", False, {"a": "0"}, "exhaustive")]
    first = A2.element_name(random.Random(0).randrange(A2.n))
    assert run_laws([law], D, 0, 10) == [LawReport("nt", False, {"a": first}, "sampled (10)")]
    A3 = conway_model("A3_1")
    D3 = compute_predomain(A3, TestAlgebra.discrete(A3))
    for budget in (100, 0):
        with pytest.raises(ValueError, match="'a' is not a declared test"):
            run_laws([Law("nt", "a", eq(compl(compl(a)), a))], D3, budget, 50)
    with pytest.raises(ValueError, match="^a is not a test$"):
        run_laws([law], rel_model(2), 100, 10)


def test_a_test_join_that_leaves_the_declared_tests_is_decided_alike_sampled_or_scanned():
    """Declared tests {0, p0, p1} of rel(2) are not closed under +: p0 + p1 is the identity.  The scalar
    evaluator reads the join off the tables, as the scanner does, where it once raised at embedding it."""
    S, full = rel_semiring(2), rel_tests(2)
    p0, p1 = (m for m in full.members if m not in (S.zero, S.one))
    T = TestAlgebra(S, [S.zero, p0, p1], {S.zero: S.zero, p0: p1, p1: p0})
    D = DomainStructure(S, T, [S.zero] * S.n, [S.zero] * S.n)
    a, p, q = var("a"), var("p"), var("q")
    law = Law("join-distributes", "a p q", eq((p + q) * a, p * a + q * a), tests="p q")
    assert run_laws([law], D, 10**6, 50) == [LawReport(law.name, True, None, "exhaustive")]
    assert run_laws([law], D, 0, 50) == [LawReport(law.name, True, None, "sampled (50)")]


# -- scans over the orbits of rel(n)'s state symmetries ------------------------------

# materialize keeps RelModel's candidate symmetries on the FiniteSemiring; the
# same tables in a new FiniteSemiring have none, and every scan runs over every
# value.  Reports must not depend on which of the two is scanned.


def plain(S, **tables):
    """S's tables, with the ones given replaced, in a new FiniteSemiring: one with no candidates."""
    t = {k: getattr(S, k) for k in ("add", "mul", "star", "conv")} | tables
    return FiniteSemiring(S.carrier, t["add"], t["mul"], S.zero, S.one, t["star"], t["conv"], S.name)


def with_candidates(S, candidates, **tables):
    S2 = plain(S, **tables)
    S2._candidates = tuple(candidates)
    return S2


def laws_rel3_equations():
    """The eight equations of the laws-rel3 benchmark, by name: (lhs, rhs, rel)."""
    x, y = var("x"), var("y")
    return {
        "slide": (star(x * y) * x, x * star(y * x), "eq"),
        "denesting": (star(x + y), star(x) * star(y * star(x)), "eq"),
        "sum-star": (star(x + y), star(star(x) * star(y)), "eq"),
        "star-product-below": (star(x) * star(y), star(x + y), "leq"),
        "commute": (x * y, y * x, "eq"),
        "star-of-sum-splits": (star(x + y), star(x) + star(y), "eq"),
        "star-of-product-splits": (star(x * y), star(x) * star(y), "eq"),
        "stars-commute": (star(x) * star(y), star(y) * star(x), "eq"),
    }


def all_family_rows(S, T, D=None):
    """The rows of every family kad check prints, the star/preimage laws, the Hoare rules and the
    laws-rel3 equations, on S, T and D (by default the predomain of S and T)."""
    D = D or compute_predomain(S, T)
    reports = [
        *check_isemiring(S),
        *check_kleene(S),
        *check_test_algebra(T),
        *check_domain_axioms(D),
        *check_domain_calculus(D),
        *check_converse(S),
        *converse_duality_check(D),
        *check_star_preimage_laws(D),
        *check_hoare_rules(D),
    ]
    reports += [check_equation(lhs, rhs, rel, S=S, name=name) for name, (lhs, rhs, rel) in laws_rel3_equations().items()]
    return rows(reports)


def plain_rows(S, T, D=None):
    """all_family_rows on copies of S, T and D with no candidates."""
    P = plain(S)
    TP = TestAlgebra(P, T.members, T.compl)
    return all_family_rows(P, TP, D and DomainStructure(P, TP, D.delta, D.rho))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_scans_give_the_plain_scans_reports(n):
    S, T = rel_semiring(n), rel_tests(n)
    assert len(compute_predomain(S, T)._symmetries) == len(S._candidates) == [0, 1, 2][n - 1]
    assert all_family_rows(S, T) == plain_rows(S, T)


def orbit(S, x):
    """x's orbit under the group that S's candidates generate, ascending."""
    seen, todo = {x}, [x]
    while todo:
        x = todo.pop()
        for y in (int(p[x]) for p in S._candidates):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


# one relation of rel(n) by mask: {(1,2)} on two states, the path {(1,2),(2,3)} on three
ORBIT_CORRUPTIONS = {2: 2, 3: 34}


def orbit_corrupted(n):
    """rel(n)'s tables with rel(n)'s candidates, corrupted on the orbit of ORBIT_CORRUPTIONS[n]: there each
    relation's star is the full relation, its converse itself and its domain its codomain.  Each new
    value is the old function of a relation that commutes with the symmetries, so they still verify."""
    S, T = rel_semiring(n), rel_tests(n)
    D = compute_predomain(S, T)
    cells = orbit(S, ORBIT_CORRUPTIONS[n])
    stars, convs, delta = np.array(S.star), np.array(S.conv), np.array(D.delta)
    stars[cells], convs[cells], delta[cells] = S.top(), cells, D.rho[cells]
    S2 = with_candidates(S, S._candidates, star=stars, conv=convs)
    T2 = TestAlgebra(S2, T.members, T.compl)
    return S2, T2, DomainStructure(S2, T2, delta, D.rho)


@pytest.mark.parametrize("n", sorted(ORBIT_CORRUPTIONS))
def test_orbit_scans_of_tables_corrupted_on_an_orbit(n):
    """Every witness is the plain scan's; a law of two or three carrier variables fails first at its reference."""
    S, T, D = orbit_corrupted(n)
    assert len(D._symmetries) == len(S._candidates) == n - 1
    got = all_family_rows(S, T, D)
    assert got == plain_rows(S, T, D)
    failed = {name: witness for name, holds, witness, _ in got if not holds}
    laws = [law for law in KLEENE_LAWS + CONVERSE_LAWS if isinstance(law, Law) and len(law.vars) > 1 and law.name in failed]
    assert len(laws) >= 6
    for law in laws:
        assert failed[law.name] == reference_first_failure(law, S), law.name
    assert any(failed[law.name][law.vars[0]] != 0 for law in laws)
    assert not all_hold(check_domain_axioms(D))
    if n == 2:
        compare_all(S, T)
        compare_domain(D)


def refused_candidates():
    """(name, S, D): rel(3)'s tables where a candidate is refused on S, or on D alone."""
    S, T = rel_semiring(3), rel_tests(3)
    swap, cycle = S._candidates
    stars = np.array(S.star)
    stars[34] = S.top()  # one relation of a six-relation orbit
    yield "one-star-cell", with_candidates(S, (swap, cycle), star=stars), None
    squashed = swap.copy()
    squashed[1] = squashed[2]
    yield "not-a-bijection", with_candidates(S, [squashed]), None
    for name, fixed in (("moves-zero", S.zero), ("moves-one", S.one)):
        moved = swap.copy()
        moved[[fixed, 34]] = moved[[34, fixed]]
        yield name, with_candidates(S, [moved]), None
    S2 = with_candidates(S, (swap, cycle))
    D = compute_predomain(S, T)
    delta = np.array(D.delta)
    delta[34] = S.one  # dom({(1,2),(2,3)}) is {1,2}
    yield "one-delta-cell", S2, DomainStructure(S2, TestAlgebra(S2, T.members, T.compl), delta, D.rho)


REFUSED = list(refused_candidates())


@pytest.mark.parametrize("name,S,D", REFUSED, ids=[name for name, _, _ in REFUSED])
def test_refused_candidates_leave_the_plain_scan(name, S, D):
    T = D.tests if D is not None else TestAlgebra(S, rel_tests(3).members, rel_tests(3).compl)
    if D is None:
        assert S._symmetries == () and S._orbit_least is None
    else:
        assert len(S._symmetries) == len(T._symmetries) == 2 and D._symmetries == () and D._orbit_least is None
    assert all_family_rows(S, T, D) == plain_rows(S, T, D)


def test_rel3_verifies_two_symmetries_with_104_relation_and_4_test_orbits():
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    assert [len(X._symmetries) for X in (D.owner, D.tests, D)] == [2, 2, 2]
    least = D._orbit_least
    assert np.array_equal(least, D.owner._orbit_least) and np.array_equal(least, D.tests._orbit_least)
    assert np.count_nonzero(least == np.arange(512)) == 104
    assert [p for p in D.tests.members if least[p] == p] == [0, 1, 17, 273]
    # a larger generating set of + or ·, or more join-irreducibles, would show only as lost speed
    assert D.owner._gens == {"add": [0] + [1 << k for k in range(9)], "mul": [10, 84, 85, 98, 238]}
    assert D.owner._join_irreducibles == [1 << k for k in range(9)]


def test_kad_check_rel3_scans_only_what_it_must(monkeypatch, capsys):
    """On rel(3) check_kleene and check_domain_calculus scan no certified law, and Light's test never
    reads + of a plain copy of rel(3), which embeds in a powerset.  No scan of kad check rel:3 from a
    cold start loops over a prefix of its variables, where every subterm is evaluated once per prefix.
    None of these changes any output, so a lost certificate, a representation that no longer fires or
    a looped scan would show only as lost speed."""
    kadlib.models._rel_materialized.cache_clear()
    looped, scan = [], kadlib.algebra._Scanner.first_failure

    def recording(self, law, ranges=None):
        found = scan(self, law, ranges)
        if self._m:
            looped.append(law.name)
        return found

    monkeypatch.setattr(kadlib.algebra._Scanner, "first_failure", recording)
    assert main(["check", "rel:3"]) == 0
    capsys.readouterr()
    assert looped == []
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    scans, lights = counting_scans(monkeypatch), counting_lights_tests(monkeypatch)
    assert all_hold(check_kleene(D.owner) + check_domain_calculus(D))
    assert not {name for name, _, _ in scans} & kadlib.algebra._CERTIFICATES.keys()
    S = plain(rel_semiring(3))
    assert all_hold(check_isemiring(S))
    assert S._add_in_powerset and not any(X is S.add for X in lights)


def test_scanners_share_the_tables_kept_on_the_structures():
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    a, b = kadlib.algebra._Scanner(D.owner, D=D), kadlib.algebra._Scanner(D.owner, D=D)
    assert a.tables["leq"] is b.tables["leq"] is D.owner._order
    assert a.tables["not"] is b.tables["not"] is D.tests._compl_column and a.member is b.member


def test_relations_are_enumerated_once_per_n():
    assert all(x is y for x, y in zip(rel_model(3).elements(), rel_model(3).elements()))
    assert [str(r) for r in rel_model(2).elements()] == [str(rel_model(2)._from_mask(m)) for m in range(16)]


def test_dom_additive_is_read_off_the_guards(monkeypatch):
    """The rel(3) predomain decided dom-additive with b over the join-irreducibles; the calculus does not scan it again."""
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    scans = counting_scans(monkeypatch)
    assert {r.name: r for r in check_domain_calculus(D)}["dom-additive"] == LawReport("dom-additive", True)
    assert "dom-additive" not in {name for name, _, _ in scans}
