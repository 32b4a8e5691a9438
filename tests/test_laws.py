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
check_domain_calculus, which decides some laws in a general form first,
against the plain scan.

The golden files under data/check hold the stdout and exit code of
`kad check` as printed by the hand-written checkers the scanner replaced.

The star/preimage laws and the Hoare rules are checked against the
per-law predicates they were written as before they became Law tables,
run by the exhaustive-or-sampled loop that ran them then (same budget
test, draw order, notes and witnesses).  check_sampled_laws is checked
against check_isemiring/check_kleene on the same finite model.
"""

import itertools
import json
import math
import random
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
    TestAlgebra,
    all_hold,
    check_equation,
    check_laws,
    compl,
    conv,
    cod,
    dom,
    eval_term,
    one_term,
    opposite,
    star,
    var,
)
import kadlib.algebra
import kadlib.domain
import kadlib.models
from kadlib.cli import load_workspace, main
from kadlib.domain import (
    CONVERSE_DUALITY,
    CONVERSE_LAWS,
    DOMAIN_AXIOMS,
    DOMAIN_CALCULUS,
    DomainStructure,
    check_converse,
    check_domain_calculus,
    compute_predomain,
)
from kadlib.algebra import check_isemiring, check_kleene
from kadlib.hoare import check_hoare_rules
from kadlib.models import (
    ModelHandle,
    bounded_language_model,
    check_sampled_laws,
    materialize,
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
        met = S.top() is not None if req == "top" else D.flags.get(req)
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
    compare(DOMAIN_AXIOMS, D.owner, D=D)
    compare(DOMAIN_CALCULUS, D.owner, D=D)
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
        ordered = sorted(T.members, key=lambda p: (T.lower_size(p), p))
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


@pytest.mark.parametrize(
    "check",
    [check_star_preimage_laws, check_hoare_rules, check_domain_calculus, lambda D: check_converse(D.owner)],
    ids=["star-preimage", "hoare-rules", "domain-calculus", "converse"],
)
def test_scans_of_the_rel3_predomain_stay_within_a_few_chunks(check):
    """No gather copies more than a chunk: a chunk of 2^17 int32 cells is 0.5 MB, its index buffer 1 MB."""
    D = compute_predomain(rel_semiring(3), rel_tests(3))
    tracemalloc.start()
    try:
        check(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def reference_first_failure(law, S):
    """First failure of a law in three carrier variables, by a plain scan.

    One n-by-n grid of (second, third) values per value of the first
    variable, every binary table read by fancy indexing X[x, y].
    """
    n = S.n
    tables = {"add": S.add, "mul": S.mul, "leq": S.add == np.arange(n)}
    first, *rest = law.vars
    grid = dict(zip(rest, np.ix_(range(n), range(n))))

    def ev(t, env):
        if t.op == "var":
            return env[t.name]
        if t.op in ("zero", "one"):
            return S.zero if t.op == "zero" else S.one
        args = [ev(a, env) for a in t.args]
        if t.op == "star":
            return S.star[args[0]]
        if t.op == "eq":
            return np.equal(*args)
        return tables[t.op][args[0], args[1]]

    for x in range(n):
        env = {first: x, **grid}
        ok = ev(law.concl, env)
        for p in law.premises:
            ok = ok | ~ev(p, env)
        ok = np.broadcast_to(ok, (n, n))
        if not ok.all():
            i, j = np.unravel_index(int(np.argmin(ok)), (n, n))
            return {first: x, rest[0]: int(i), rest[1]: int(j)}
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


@pytest.mark.parametrize("table,i,j", sorted(REL3_CORRUPTIONS), ids=str)
def test_rel3_witnesses_match_a_plain_scan(table, i, j):
    """The scanner's witnesses against the plain scan, and the reductions' reports against the scanner's."""
    tables = {"add": np.array(REL3.add), "mul": np.array(REL3.mul)}
    tables[table][i, j] = (tables[table][i, j] + 1) % REL3.n
    S = FiniteSemiring(REL3.carrier, tables["add"], tables["mul"], REL3.zero, REL3.one, REL3.star, REL3.conv)
    want = scanned(S)
    witnesses = {name: witness for name, _, witness, _ in want}
    for name in REL3_CORRUPTIONS[table, i, j]:
        law = REL3_LAWS[name.rstrip("*")]
        got = witnesses[law.name]
        assert got is not None and got == reference_first_failure(law, S), name
        assert (got[law.vars[1]] >= 256) == name.endswith("*"), name
    assert decided(S) == want


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
    reduced = set(kadlib.algebra._REDUCTIONS)
    # the isemiring laws once, for the first check_kleene; the Kleene laws twice
    laws = [law.name for law in ISEMIRING_LAWS + KLEENE_LAWS + KLEENE_LAWS if isinstance(law, Law)]
    assert scans == [name for name in laws if name not in reduced]


def closure(X, gens):
    """The closure of gens under the table X, by squaring the set until it stops growing."""
    inside = sorted(set(gens))
    while True:
        grown = sorted(set(inside) | set(np.asarray(X)[np.ix_(inside, inside)].ravel().tolist()))
        if grown == inside:
            return inside
        inside = grown


def non_associative_rel3_add():
    add = np.array(REL3.add)
    add[260, 3] = (add[260, 3] + 1) % REL3.n
    return add


GENERATED = {
    **{f"{name}-{op}": (lambda S=S, op=op: getattr(S, op)) for name, S, _ in MODELS for op in ("add", "mul")},
    **{f"rel3-{op}": (lambda op=op: getattr(REL3, op)) for op in ("add", "mul")},
    "rel3-corrupted-add": non_associative_rel3_add,
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_greedy_generators_generate_the_carrier(name):
    X = GENERATED[name]()
    gens = kadlib.algebra._generators(X)
    assert gens == sorted(set(gens))
    assert closure(X, gens) == list(range(len(X)))


def test_lights_test_refutes_a_non_associative_table():
    X = non_associative_rel3_add()
    assert not kadlib.algebra._associative(X, kadlib.algebra._generators(X))


def test_rel3_add_generators_are_zero_and_the_single_pairs():
    # an element's index is its adjacency mask, so a single pair is a power of two
    assert kadlib.algebra._generators(REL3.add) == [0] + [1 << k for k in range(9)]


@pytest.mark.parametrize("chunk", [None, 1 << 10])
@pytest.mark.parametrize("p,q", [(272, 256), (16, 272)])
def test_rel3_shunting_with_a_corrupted_complement(monkeypatch, chunk, p, q):
    """The complemented terms a(q') and (q')a read no looped-over variable and are evaluated once per law."""
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


def generalization_cases():
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


def test_generalized_domain_laws_match_the_plain_scan():
    generalized = 0
    for name, D in generalization_cases():
        sizes = len(D.tests.members), D.owner.n
        generalized += sum(kadlib.algebra._generalized(law, *sizes) is not None for law in DOMAIN_CALCULUS)
        got = [(r.name, r.holds, r.witness, r.note) for r in check_domain_calculus(D)]
        want = [(r.name, r.holds, r.witness, r.note) for r in check_laws(DOMAIN_CALCULUS, D.owner, D=D)]
        assert got == want, name
    assert generalized


def test_a_failing_general_form_falls_back_to_the_scan(monkeypatch):
    """With one a test and 1 a = a every element is some p a, so the general
    form of image-compose-bound fails only where the law does.  Here one mul
    cell sets 1 a = 0 in A3_1, over the domain tables of the intact model:
    x = a is no p a, and the general form fails at x = a while the law
    holds, which only the scan of the law itself can tell."""
    S = conway_model("A3_1")
    D = compute_predomain(S, TestAlgebra.discrete(S))
    mul = np.array(S.mul)
    mul[S.one, S.index("a")] = S.zero
    S2 = FiniteSemiring(S.carrier, S.add, mul, S.zero, S.one, S.star)
    D2 = DomainStructure(S2, TestAlgebra.discrete(S2), D.delta, D.rho)
    scans = []
    scan = kadlib.algebra._Scanner.first_failure

    def counting(self, law):
        found = scan(self, law)
        scans.append((law.name, law.vars, found))
        return found

    monkeypatch.setattr(kadlib.algebra._Scanner, "first_failure", counting)
    reports = {r.name: r for r in check_domain_calculus(D2)}
    assert reports["image-compose-bound"] == LawReport("image-compose-bound", True)
    compose = [(vs, found) for name, vs, found in scans if name == "image-compose-bound"]
    assert compose == [(("(pa)", "b"), {"(pa)": S.index("a"), "b": S.index("a")}), (("p", "a", "b"), None)]


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
    scan = kadlib.domain.check_laws

    def counting(laws, *args, **kwargs):
        scans.append(laws is DOMAIN_AXIOMS)
        return scan(laws, *args, **kwargs)

    monkeypatch.setattr(kadlib.domain, "check_laws", counting)
    assert main(["check", "rel:2"]) == 0
    assert "d1 holds" in capsys.readouterr().out
    assert sum(scans) == 1


# -- star/preimage laws and Hoare rules against their per-law predicates -----------


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
    if not D.flags.get("dloc", False):
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
    assert rows(check_star_preimage_laws(D)) == rows(reference_star_preimage(D))
    assert rows(check_hoare_rules(D)) == rows(reference_hoare_rules(D))


def test_corruptions_are_seen():
    domains = [corrupt_domain(seed) for seed in range(6)]
    assert not all(r.holds for D in domains for r in check_star_preimage_laws(D) + check_hoare_rules(D))


@pytest.mark.parametrize("D", [rel_model(2), rel_model(3), corrupt_domain(0)], ids=["rel2", "rel3", "corrupt0"])
def test_small_budget_sampling_matches_the_per_law_predicates(D):
    got = check_star_preimage_laws(D, samples=40, rng=random.Random(3), budget=30)
    assert rows(got) == rows(reference_star_preimage(D, samples=40, rng=random.Random(3), budget=30))
    assert {r.note for r in got} >= {"sampled (40)"}
    got = check_hoare_rules(D, samples=40, rng=random.Random(4), budget=30)
    assert rows(got) == rows(reference_hoare_rules(D, samples=40, rng=random.Random(4), budget=30))


@pytest.mark.parametrize("check", [check_star_preimage_laws, check_hoare_rules])
def test_law_suites_sample_past_the_enumerable_tests(check):
    # rel(17) has 2^17 tests, more than RelModel lists
    reports = check(rel_model(17), samples=20, rng=random.Random(5))
    assert len(reports) > 1
    assert all(r.holds and r.note == "sampled (20)" for r in reports)


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


def test_sampled_laws_enumerate_only_what_a_handle_can():
    small = check_sampled_laws(bounded_language_model("ab", 1), include_star=True)
    assert all(r.holds and r.note == "exhaustive" for r in small)
    # 17 words: 2^17 languages, past what the subset model enumerates
    big = check_sampled_laws(bounded_language_model("abcdefghijklmnop", 1), samples=20)
    assert all(r.holds and r.note == "sampled (20)" for r in big)
