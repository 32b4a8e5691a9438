"""The compiled law scanner against brute force, and kad check against golden output.

Every table law is re-checked by a scalar scan: eval_term over
itertools.product of the law's variable domains in declared order, so the
first failing assignment is the lexicographically first one.  The scanner
must agree on (name, holds, witness, note) for the five builtins, rel(1)
and rel(2), their predomains, and seeded single-cell corruptions of the
add, mul, star and conv tables and of the domain tables.

The golden files under data/check hold the stdout and exit code of
`kad check` as printed by the hand-written checkers the scanner replaced.
"""

import itertools
import json
import random
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
    check_equation,
    check_laws,
    compl,
    conv,
    cod,
    dom,
    eval_term,
    one_term,
    star,
    var,
)
from kadlib.cli import main
from kadlib.domain import (
    CONVERSE_DUALITY,
    CONVERSE_LAWS,
    DOMAIN_AXIOMS,
    DOMAIN_CALCULUS,
    DomainStructure,
    compute_predomain,
)
from kadlib.models import conway_model, conway_names, rel_semiring, rel_tests

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
    compare(ISEMIRING_LAWS, S)
    if S.star is not None:
        compare(KLEENE_LAWS, S)
    compare(TEST_LAWS, S, T)
    if S.conv is not None:
        compare(CONVERSE_LAWS, S)
    try:
        D = compute_predomain(S, T)
    except ValueError:
        return None
    compare_domain(D)
    return D


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


@pytest.mark.parametrize("name,table,seed", CORRUPTIONS, ids=[f"{n}-{t}-{s}" for n, t, s in CORRUPTIONS])
def test_scanner_matches_brute_force_on_corrupted_tables(name, table, seed):
    _, S, T = next(m for m in MODELS if m[0] == name)
    S2 = corrupt_semiring(S, table, random.Random(f"{name}:{table}:{seed}"))
    T2 = TestAlgebra(S2, T.members, T.compl)
    compare_all(S2, T2)


@pytest.mark.parametrize("name", ["A3_2", "A4_1", "rel2"])
def test_scanner_matches_brute_force_on_corrupted_domain_tables(name):
    _, S, T = next(m for m in MODELS if m[0] == name)
    D = compute_predomain(S, T)
    rng = random.Random(name)
    for _ in range(4):
        delta, rho = np.array(D.delta), np.array(D.rho)
        t = delta if rng.random() < 0.5 else rho
        i = rng.randrange(S.n)
        t[i] = rng.choice([p for p in T.members if p != t[i]])
        compare_domain(DomainStructure(S, T, delta, rho))


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
