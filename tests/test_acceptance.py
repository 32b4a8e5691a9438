"""The acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines; every check here is also covered in more detail by the per-module
test files."""

import itertools
import math
import random
import time

import pytest

from kadlib.algebra import (
    FiniteSemiring,
    TestAlgebra,
    all_hold,
    check_isemiring,
    check_kleene,
    check_test_algebra,
    failures,
)
from kadlib.domain import (
    DomainStructure,
    check_converse,
    check_domain_axioms,
    check_domain_calculus,
    compute_predomain,
    converse_duality_check,
    is_integral,
)
from kadlib.hoare import check_hoare_rules, check_triple, denote, validate_proof, wlp
from kadlib.models import (
    Relation,
    StarUnsupportedError,
    check_sampled_laws,
    conway_model,
    conway_names,
    matrix_star,
    maxplus_model,
    predicate_transformer_model,
    rel_model,
    rel_semiring,
    rel_tests,
    tropical_model,
)
from kadlib.reach import check_star_preimage_laws, reach_efficient, reach_naive
from kadlib.termination import is_loebian, is_noetherian, is_well_founded, transitive_closure


def _rel_mask(r):
    """The row-major adjacency mask of r, which is its index in rel_semiring(r.n): (i, j) is bit (i-1)*n + j-1."""
    return sum(1 << ((i - 1) * r.n + j - 1) for i, j in r.pairs())


KAD_BUILTINS = ("A2", "A3_1", "A3_3")  # the builtins whose predomain is local


def report(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not problems, problems


def predomain_of(name):
    S = conway_model(name)
    return S, compute_predomain(S, TestAlgebra.discrete(S))


def test_criterion_01_model_zoo_soundness():
    problems = []
    start = time.perf_counter()
    for nm in conway_names():
        S = conway_model(nm)
        for rep in (check_isemiring(S), check_kleene(S)):
            problems += [f"{nm}: {r}" for r in failures(rep)]
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"law checks took {elapsed:.2f}s, budget is 1s")
    report(1, "model-zoo-soundness", problems)


def test_criterion_02_domain_axiom_independence():
    problems = []
    S = conway_model("A2")
    T = TestAlgebra.discrete(S)
    top = DomainStructure(S, T, delta=[1, 1], rho=[1, 1])
    bot = DomainStructure(S, T, delta=[0, 0], rho=[0, 0])
    rep_top = {r.name: r for r in check_domain_axioms(top)}
    rep_bot = {r.name: r for r in check_domain_axioms(bot)}
    if not (rep_top["d1"].holds and not rep_top["d2"].holds):
        problems.append("constant-one map should satisfy d1 only")
    if not (rep_bot["d2"].holds and not rep_bot["d1"].holds):
        problems.append("constant-zero map should satisfy d2 only")
    # the specific failing instances: dom(0 1) = 1 is not below 0,
    # and 1 is not below dom(1) 1 = 0
    if S.leq(int(top.delta[int(S.mul[S.zero, S.one])]), S.zero):
        problems.append("constant-one map unexpectedly satisfies the d2 instance")
    if rep_bot["d1"].witness != {"a": S.one}:
        problems.append(f"d1 witness should be the unit, got {rep_bot['d1'].witness}")
    report(2, "domain-axiom-independence", problems)


def test_criterion_03_locality_counterexample():
    problems = []
    S2, D2 = predomain_of("A3_2")
    S3, D3 = predomain_of("A3_3")
    rep2 = {r.name: r for r in check_domain_axioms(D2)}
    a = S2.index("a")
    if not (rep2["d1"].holds and rep2["d2"].holds):
        problems.append("A3_2 predomain should satisfy d1 and d2")
    if rep2["dloc"].holds or rep2["dloc"].witness != {"a": a, "b": a}:
        problems.append(f"A3_2 dloc should fail at (a, a), got {rep2['dloc'].witness}")
    if not all(r.holds for r in check_domain_axioms(D3)):
        problems.append("A3_3 predomain should satisfy every axiom")
    v2, v3 = is_integral(S2), is_integral(S3)
    if v2.holds or v2.witness != {"a": a, "b": a}:
        problems.append("A3_2 should have the zero divisor (a, a)")
    if not v3.holds:
        problems.append("A3_3 should be integral")
    report(3, "locality-counterexample", problems)


def test_criterion_04_discrete_domain_uniqueness():
    problems = []
    for nm in conway_names():
        S, D = predomain_of(nm)
        mem = (S.zero, S.one)
        good = [
            cand
            for cand in itertools.product(mem, repeat=S.n)
            if all(S.leq(x, int(S.mul[cand[x], x])) for x in range(S.n))
            and all(S.leq(cand[int(S.mul[p, x])], p) for p in mem for x in range(S.n))
        ]
        if good != [tuple(int(v) for v in D.delta)]:
            problems.append(f"{nm}: expected exactly the computed map, got {good}")
    report(4, "discrete-domain-uniqueness", problems)


def test_criterion_05_predomain_calculus():
    problems = []
    start = time.perf_counter()
    targets = [predomain_of(nm)[1] for nm in conway_names()]
    targets += [compute_predomain(rel_semiring(n), rel_tests(n)) for n in (1, 2, 3)]
    for D in targets:
        problems += [f"{D.name}: {r}" for r in failures(check_domain_calculus(D))]
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"calculus checks took {elapsed:.1f}s, budget is 60s")
    report(5, "predomain-calculus", problems)


def test_criterion_06_converse_duality():
    problems = []
    for n in (1, 2, 3):
        S = rel_semiring(n)
        D = compute_predomain(S, rel_tests(n))
        problems += [f"rel({n}): {r}" for r in failures(check_converse(S))]
        problems += [f"rel({n}): {r}" for r in failures(converse_duality_check(D))]
    for nm in conway_names():
        _, D = predomain_of(nm)
        if ("dloc" in D.laws) != ("cdloc" in D.laws):
            problems.append(f"{nm}: dloc and cdloc disagree")
    report(6, "converse-duality", problems)


def test_criterion_07_reachability():
    problems = []
    rng = random.Random(70)

    def bfs(n, pairs, targets):
        reached = set(targets)
        frontier = list(targets)
        while frontier:
            j = frontier.pop()
            for i, j2 in pairs:
                if j2 == j and i not in reached:
                    reached.add(i)
                    frontier.append(i)
        return reached

    for case in range(100):
        n = rng.randrange(2, 9)
        pairs = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.25
        }
        targets = (
            {rng.randrange(1, n + 1)}
            if case % 2
            else {s for s in range(1, n + 1) if rng.random() < 0.4}
        )
        D = rel_model(n)
        a = Relation.from_pairs(n, pairs)
        p = D.test_from_states(targets)
        res_n = reach_naive(D, a, p)
        res_e = reach_efficient(D, a, p)
        if set(D.test_states(res_n.result)) != bfs(n, pairs, targets):
            problems.append(f"case {case}: naive disagrees with graph search")
        if res_e.result != res_n.result:
            problems.append(f"case {case}: the two algorithms disagree")

    D = rel_model(6)
    chain = Relation.from_pairs(6, [(i, i + 1) for i in range(1, 6)])
    p = D.test_from_states([6])
    cost_n = reach_naive(D, chain, p).preimage_evals
    cost_e = reach_efficient(D, chain, p).preimage_evals
    if not cost_e < cost_n:
        problems.append(f"chain-6: efficient {cost_e} not below naive {cost_n}")
    report(7, "reachability", problems)


def test_criterion_08_star_preimage_laws(monkeypatch):
    """Each law certified on rel(3) and rel(4); then, with every certificate taken out, scanned on
    rel(2) and the Conway predomains and checked at 1000 sampled instances on rel(3) and rel(4)."""
    from test_laws import SUITES, uncertified

    problems = []
    exhaustive_targets = [rel_model(2)] + [predomain_of(nm)[1] for nm in conway_names()]

    def check(exact, sampled):
        for D in exhaustive_targets:
            rep = check_star_preimage_laws(D)
            problems.extend(f"{D.name}: {r}" for r in failures(rep))
            if not all(exact(r.note) or r.note.startswith("not applicable") for r in rep):
                problems.append(f"{D.name}: expected exhaustive checks")
        for n in (3, 4):
            rep = check_star_preimage_laws(
                rel_model(n), samples=1000, rng=random.Random(80 + n), budget=1
            )
            problems.extend(f"rel({n}): {r}" for r in failures(rep))
            if not all(sampled(r.note) for r in rep):
                problems.append(f"rel({n}): unexpected notes {[r.note for r in rep]}")

    check(lambda note: True, lambda note: note.startswith("certified by "))
    uncertified(monkeypatch, [law.name for law in SUITES])
    check(lambda note: note == "exhaustive", lambda note: note == "sampled (1000)")
    report(8, "star-preimage-laws", problems)


def test_criterion_09_predicate_transformers():
    problems = []
    D = rel_model(3)
    TM = predicate_transformer_model(D)
    S, T, _src = TM.as_semiring()
    problems += [str(r) for r in failures(check_isemiring(S))]
    problems += [str(r) for r in failures(check_test_algebra(T))]
    problems += [str(r) for r in failures(check_kleene(S))]

    members = D.test_members()
    rels = list(D.elements())
    trans = [TM.transformer_of(r) for r in rels]
    # relations are canonical values, so a transformer is looked up by its source relation;
    # a union of sources is looked up by mask, each element's mask computed once
    by_rel = dict(zip(rels, trans))
    masks = [_rel_mask(r) for r in rels]
    by_mask = dict(zip(masks, trans))
    for r, f in zip(rels, trans):
        if any(TM.apply(f, p) != D.preimage(r, p) for p in members):
            problems.append(f"{D.el_name(r)}: transformer does not apply as preimage")
            break
        if TM.star(f) != by_rel[D.star(r)]:
            problems.append(f"{D.el_name(r)}: star does not commute with the embedding")
            break
    for (x, mx, fx), (y, my, fy) in itertools.product(zip(rels, masks, trans), repeat=2):
        if TM.add(fx, fy) != by_mask[mx | my]:
            problems.append("join does not track union of sources")
            break
        if TM.mul(fx, fy) != by_rel[x.compose(y)]:
            problems.append("composition does not track relational composition")
            break

    # the induction rule needs composition, not join, in its conclusion:
    # with a = b = c = the bottom transformer the join form is refuted
    TM2 = predicate_transformer_model(rel_model(2))
    z = TM2.zero
    sz = TM2.star(z)
    premise = TM2.leq(TM2.add(z, TM2.mul(z, z)), z)
    join_form = TM2.leq(TM2.add(sz, z), z)
    mul_form = TM2.leq(TM2.mul(sz, z), z)
    if (premise, join_form, mul_form) != (True, False, True):
        problems.append(
            f"induction-form pin: expected (True, False, True), got {(premise, join_form, mul_form)}"
        )
    report(9, "predicate-transformers", problems)


def test_criterion_10_termination():
    problems = []
    rng = random.Random(100)

    def has_cycle(n, pairs):
        succ = {i: [j for i2, j in pairs if i2 == i] for i in range(1, n + 1)}
        color = {i: 0 for i in range(1, n + 1)}
        for root in range(1, n + 1):
            if color[root]:
                continue
            stack = [(root, iter(succ[root]))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if color[nxt] == 1:
                        return True
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(succ[nxt])))
                        break
                else:
                    color[node] = 2
                    stack.pop()
        return False

    for case in range(100):
        n = rng.randrange(1, 7)
        pairs = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.25
        }
        D = rel_model(n)
        a = Relation.from_pairs(n, pairs)
        if is_noetherian(D, a).holds != (not has_cycle(n, pairs)):
            problems.append(f"case {case}: Noethericity disagrees with cycle search")

    # structural laws, exhaustively over every relation on up to 3 states
    for n in (1, 2, 3):
        D = rel_model(n)
        rels = list(D.elements())
        noeth, loeb, tc_mask, star_mask, trans = {}, {}, {}, {}, {}
        for r in rels:
            m = _rel_mask(r)
            noeth[m] = is_noetherian(D, r).holds
            loeb[m] = is_loebian(D, r).holds
            tc_mask[m] = _rel_mask(transitive_closure(D, r))
            star_mask[m] = _rel_mask(D.star(r))
            trans[m] = r.compose(r).leq(r)
        id_mask = _rel_mask(D.one)
        if not noeth[0]:
            problems.append(f"rel({n}): the empty relation should be Noetherian")
        for p in D.test_members():
            if p != D.test_zero and noeth[_rel_mask(D.embed(p))]:
                problems.append(f"rel({n}): a nonzero test cannot be Noetherian")
        for b, ok in noeth.items():
            if ok and any(not noeth[a] for a in noeth if a | b == b):
                problems.append(f"rel({n}): Noethericity is not down-closed at {b}")
        for m, ok in noeth.items():
            sq = _rel_mask(D.mul(D._from_mask(m), D._from_mask(m)))
            if ok and m & id_mask:
                problems.append(f"rel({n}): a Noetherian element meets the identity")
            if ok and m and (m | sq) == sq:
                problems.append(f"rel({n}): a Noetherian element sits below its square")
            if ok != noeth[tc_mask[m]]:
                problems.append(f"rel({n}): Noethericity differs across the closure at {m}")
            if noeth[star_mask[m]]:
                problems.append(f"rel({n}): a starred element cannot be Noetherian")
            if loeb[m] and not noeth[m]:
                problems.append(f"rel({n}): a Loebian element must be Noetherian")
            if noeth[m] and trans[m] and not loeb[m]:
                problems.append(f"rel({n}): Noetherian+transitive must be Loebian")
        for r in rels:
            if not noeth[_rel_mask(r)]:
                continue
            plus = transitive_closure(D, r)
            for p in D.test_members():
                pre = D.preimage(r, p)
                rest = D.test_meet(p, D.test_compl(pre))
                if not D.test_leq(pre, D.preimage(plus, rest)):
                    problems.append(f"rel({n}): step bound fails at {_rel_mask(r)}")
                    break

    # preimage subtraction laws on the table-backed local builtins
    for nm in KAD_BUILTINS:
        _, D = predomain_of(nm)
        for a in D.elements():
            plus = transitive_closure(D, a)
            for p in D.test_members():
                lhs = D.preimage(plus, p)
                if lhs != D.preimage(a, D.test_join(p, lhs)):
                    problems.append(f"{nm}: closure preimage does not unfold")
                for q in D.test_members():
                    diff = D.test_meet(D.preimage(a, p), D.test_compl(D.preimage(a, q)))
                    if not D.test_leq(diff, D.preimage(a, D.test_meet(p, D.test_compl(q)))):
                        problems.append(f"{nm}: preimage subtraction bound fails")
    report(10, "termination", problems)


def test_criterion_11_hoare_logic(monkeypatch):
    from test_laws import SUITES, uncertified

    problems = []
    targets = [rel_model(2)] + [predomain_of(nm)[1] for nm in KAD_BUILTINS]
    for D in targets:
        rep = check_hoare_rules(D)
        problems += [str(r) for r in failures(rep)]
        if not all(r.note == "exhaustive" or r.note.startswith("certified by ") for r in rep):
            problems.append("rule check was not exact")
    with monkeypatch.context() as scan_only:
        uncertified(scan_only, [law.name for law in SUITES])
        for D in targets:
            rep = check_hoare_rules(D)
            problems += [str(r) for r in failures(rep)]
            if not all(r.note == "exhaustive" for r in rep):
                problems.append("uncertified rule check was not exhaustive")

    from test_hoare import gen_valid

    rng = random.Random(110)
    count = 0
    for n in (3, 4):
        D = rel_model(n)
        env = {f"r{k}": D.sample(rng) for k in range(3)}
        for _ in range(50):
            tree = gen_valid(D, env, rng, D.sample_test(rng), depth=3)
            count += 1
            if not validate_proof(tree, env, D).holds:
                problems.append(f"generated proof {count} does not validate")
            elif not check_triple(tree.conclusion, env, D).holds:
                problems.append(f"generated proof {count} has a false conclusion")
    if count != 100:
        problems.append(f"expected 100 generated proofs, got {count}")

    for n in (2, 3):
        D = rel_model(n)
        for a in D.elements():
            for p in D.test_members():
                w = wlp(D, a, p)
                if any(
                    D.test_leq(q, w) != D.test_leq(D.image(q, a), p)
                    for q in D.test_members()
                ):
                    problems.append(f"rel({n}): wlp adjunction fails at {D.el_name(a)}")
    report(11, "hoare-logic", problems)


def test_criterion_12_infinite_models():
    problems = []
    rng = random.Random(120)
    T = tropical_model()
    for _ in range(1000):
        x = math.inf if rng.random() < 0.1 else float(rng.randrange(10**6))
        if T.star(x) != 0:
            problems.append(f"tropical star({x}) is not the unit")
            break
    MP = maxplus_model()
    try:
        MP.star(1.0)
        problems.append("max-plus star should be unsupported")
    except StarUnsupportedError:
        pass
    for handle, with_star in ((T, True), (MP, False)):
        rep = check_sampled_laws(handle, samples=1000, rng=rng, include_star=with_star)
        problems += [f"{handle.name}: {r}" for r in failures(rep)]
        if not all(r.note == "sampled (1000)" for r in rep):
            problems.append(f"{handle.name}: expected 1000 samples")
    report(12, "infinite-models", problems)


def test_criterion_13_matrix_star():
    problems = []
    A2 = conway_model("A2")
    rng = random.Random(130)

    def powers_oracle(m, q):
        acc = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
        cur = [row[:] for row in acc]
        for _ in range(q):
            cur = [
                [max(min(cur[i][k], m[k][j]) for k in range(q)) for j in range(q)]
                for i in range(q)
            ]
            acc = [[max(acc[i][j], cur[i][j]) for j in range(q)] for i in range(q)]
        return acc

    for case in range(100):
        q = rng.randrange(1, 6)
        m = [[rng.randint(0, 1) for _ in range(q)] for _ in range(q)]
        if [list(r) for r in matrix_star(A2, m)] != powers_oracle(m, q):
            problems.append(f"case {case}: star disagrees with the powers oracle")
    for case in range(50):
        m = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
        if matrix_star(A2, m, split=1) != matrix_star(A2, m, split=2):
            problems.append(f"case {case}: star depends on the split point")
    report(13, "matrix-star", problems)
