"""Seeded workload generators.

Each generator writes ordinary `kad` workspace JSON under a work directory
and returns a Plan: the jobs the worker runs (all kadlib sees) and, per job,
the expected verdict computed by the oracles in oracles.py.  The same seed
gives the same files, jobs and expectations.

Job counts and sizes are fixed per workload; the seed varies only the
contents (edges, labels, corrupted cells, sets), so the work per pass and
the number of known-wrong verdicts stay the same from seed to seed.
"""

from __future__ import annotations

import json
import os
import random

import oracles

# The five printed finite semirings: carrier, add, mul, star, zero, one.
BUILTINS = {
    "A2": (("0", "1"), [[0, 1], [1, 1]], [[0, 0], [0, 1]], [1, 1], 0, 1),
    "A3_1": (
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [2, 1, 2],
        0,
        2,
    ),
    "A3_2": (
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
        [2, 2, 2],
        0,
        2,
    ),
    "A3_3": (
        ("0", "a", "1"),
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [2, 2, 2],
        0,
        2,
    ),
    "A4_1": (
        ("0", "a", "1", "b"),
        [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]],
        [2, 2, 2, 3],
        0,
        2,
    ),
}


class Plan:
    """Jobs for the worker, expectations for the checker, files to preload."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []
        self.expect: dict[str, dict] = {}
        self.workspaces: list[str] = []

    def workspace(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.workspaces.append(path)
        return path

    def add(self, label: str, job: dict, expect: dict):
        job_id = f"{len(self.jobs):03d}-{label}"
        self.jobs.append({"id": job_id, **job})
        self.expect[job_id] = expect

    def write(self) -> str:
        path = os.path.join(self.workdir, "jobs.json")
        with open(path, "w") as fh:
            json.dump({"workspaces": self.workspaces, "jobs": self.jobs}, fh)
        return path


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


# every report holds: through the CLI (exit 0), or from a library call
ALL_HOLD = {"type": "laws", "rc": 0, "all_hold": True}
HOLDS = {"type": "laws", "all_hold": True}


def laws_expect(pairs, cli=True) -> dict:
    """Expected reports as [name, witness-or-None]; through the CLI, exit 1
    iff one fails."""
    pairs = [[name, w] for name, w in pairs]
    rc = (1 if any(w is not None for _, w in pairs) else 0) if cli else None
    return {"type": "laws", "rc": rc, "laws": pairs}


def edges_of(rows):
    return [[i + 1, j] for i, row in enumerate(rows) for j in oracles.states_of(row)]


def set_text(mask) -> str:
    return "{" + ",".join(str(s) for s in oracles.states_of(mask)) + "}"


# -- graphs ---------------------------------------------------------------------


def chain(n, rng, back_edge=False):
    """A path through all n states in a random order; optionally the last
    two states form a 2-cycle.  Returns (rows, last state)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    if back_edge:
        edges.append((order[-1], order[-2]))
    return oracles.rows_from_edges(n, edges), order[-1]


def random_graph(n, rng, out_degree, acyclic):
    """Each state gets out_degree random successors; acyclic graphs only
    point forward in a random topological order, so its last state is the
    only sink.  Returns (rows, sink or None)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for _ in range(out_degree):
            if acyclic:
                if i == n - 1:
                    break
                j = rng.randrange(i + 1, n)
            else:
                j = rng.randrange(n)
            edges.append((order[i], order[j]))
    return oracles.rows_from_edges(n, edges), (order[-1] if acyclic else None)


def transitive_dag(n, rng, density=0.3):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    rows = list(oracles.rows_from_edges(n, edges))
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            closed = row | oracles.image(rows, row)
            if closed != row:
                rows[i] = closed
                changed = True
    return tuple(rows)


def reach_expect(rows, targets, algos) -> dict:
    result = oracles.backward_reach(rows, targets)
    return {"type": "reach", "rc": 0, "sets": {a: result for a in algos}}


def termination_expect(rows, rc, exhaustive) -> dict:
    exp = {"type": "termination", "rc": rc, "truth": list(oracles.termination_truth(rows))}
    if exhaustive:
        exp["witnesses"] = list(oracles.first_termination_witnesses(rows))
    return exp


# -- laws-rel3 ---------------------------------------------------------------------

# Two-variable laws over the relations on three states.  Theorems of Kleene
# algebra hold in every relation model; the others fail and the oracle
# finds their first counterexample.


def V(name):
    return ("var", name)


def _mul(x, y):
    return ("mul", x, y)


def _add(x, y):
    return ("add", x, y)


def _star(x):
    return ("star", x)


THEOREMS = {
    "slide": lambda x, y: (_mul(_star(_mul(x, y)), x), _mul(x, _star(_mul(y, x))), "eq"),
    "denesting": lambda x, y: (_star(_add(x, y)), _mul(_star(x), _star(_mul(y, _star(x)))), "eq"),
    "sum-star": lambda x, y: (_star(_add(x, y)), _star(_mul(_star(x), _star(y))), "eq"),
    "star-product-below": lambda x, y: (_mul(_star(x), _star(y)), _star(_add(x, y)), "leq"),
}

NON_THEOREMS = {
    "commute": lambda x, y: (_mul(x, y), _mul(y, x), "eq"),
    "star-of-sum-splits": lambda x, y: (_star(_add(x, y)), _add(_star(x), _star(y)), "eq"),
    "star-of-product-splits": lambda x, y: (_star(_mul(x, y)), _mul(_star(x), _star(y)), "eq"),
    "stars-commute": lambda x, y: (_mul(_star(x), _star(y)), _mul(_star(y), _star(x)), "eq"),
}

VAR_NAMES = (("x", "y"), ("a", "b"), ("u", "v"), ("s", "t"))


def gen_laws_rel3(plan: Plan, rng: random.Random):
    plan.add("check-rel3", cli("check", "rel:3"), ALL_HOLD)
    plan.add("star-preimage-rel3", {"kind": "star_preimage", "n": 3}, HOLDS)
    plan.add("hoare-rules-rel3", {"kind": "hoare_rules", "n": 3}, HOLDS)
    for pool, count in ((THEOREMS, 2), (NON_THEOREMS, 2)):
        for name in rng.sample(sorted(pool), count):
            x, y = rng.choice(VAR_NAMES)
            if rng.random() < 0.5:
                x, y = y, x
            lhs, rhs, rel = pool[name](V(x), V(y))
            witness = None if pool is THEOREMS else oracles.first_equation_failure(lhs, rhs, rel, 3)
            job = {"kind": "equation", "n": 3, "lhs": lhs, "rhs": rhs, "rel": rel, "name": name}
            plan.add("equation-" + name, job, laws_expect([(name, witness)], cli=False))
    plan.add(
        "transformers-rel3",
        {"kind": "transformers", "n": 3, "laws": ["tests"]},
        {**HOLDS, "sizes": [512, 8]},
    )


# -- laws-small ---------------------------------------------------------------------


def table_doc(name, carrier, A, M, ST, zero, one) -> dict:
    nm = lambda i: carrier[i]  # noqa: E731
    return {
        "semiring": {
            "name": name,
            "carrier": list(carrier),
            "add": [[nm(v) for v in row] for row in A],
            "mul": [[nm(v) for v in row] for row in M],
            "zero": nm(zero),
            "one": nm(one),
            "star": [nm(v) for v in ST],
        }
    }


def small_tables():
    """The five builtins plus all relations on two states."""
    tables = {k: (list(c), [r[:] for r in A], [r[:] for r in M], list(ST), z, o) for k, (c, A, M, ST, z, o) in BUILTINS.items()}
    A, M, ST, z, o = oracles.rel_tables(2)
    tables["rel2"] = ([f"r{i}" for i in range(16)], A, M, ST, z, o)
    return tables


def small_law_expect(family, A, M, ST, zero, one) -> dict:
    if family == "isemiring":
        return laws_expect(oracles.isemiring_laws(A, M, zero, one))
    return laws_expect(oracles.kleene_laws(A, M, ST, zero, one))


def gen_laws_small(plan: Plan, rng: random.Random):
    tables = small_tables()
    for name in BUILTINS:
        carrier, A, M, ST, z, o = tables[name]
        for family in ("isemiring", "kleene"):
            plan.add(f"check-{name}-{family}", cli("check", f"builtin:{name}", "--laws", family), small_law_expect(family, A, M, ST, z, o))
    for spec in ("builtin:A2", "rel:1", "rel:2"):
        plan.add("check-" + spec.replace(":", ""), cli("check", spec), ALL_HOLD)

    # single-cell corruptions; rel2 has most cells, so it comes up most.  The
    # mix of tables is fixed and the seed picks the cells, so the work per
    # pass does not swing with the seed.
    bases = ["A2", "A3_1", "A3_2", "A3_3", "A4_1"] + ["rel2"] * 3
    for k in range(64):
        base = bases[k % len(bases)]
        carrier, A, M, ST, z, o = tables[base]
        A, M, ST = [r[:] for r in A], [r[:] for r in M], ST[:]
        n = len(carrier)
        which = ("add", "mul", "star")[k // len(bases) % 3]
        i, j = rng.randrange(n), rng.randrange(n)
        if which == "star":
            ST[i] = rng.choice([v for v in range(n) if v != ST[i]])
        else:
            T = A if which == "add" else M
            T[i][j] = rng.choice([v for v in range(n) if v != T[i][j]])
        path = plan.workspace(f"corrupt{k:02d}", table_doc(f"{base}-corrupt{k}", carrier, A, M, ST, z, o))
        for family in ("isemiring", "kleene"):
            plan.add(f"corrupt{k:02d}-{base}-{which}-{family}", cli("check", path, "--laws", family), small_law_expect(family, A, M, ST, z, o))

    for base in ("A2", "A3_1", "A3_2", "A3_3"):
        plan.add(f"matrix2-{base}", {"kind": "matrix", "base": base, "q": 2}, HOLDS)
    plan.add("transformers-rel2", {"kind": "transformers", "n": 2, "laws": ["isemiring", "kleene", "tests"]}, {**HOLDS, "sizes": [16, 4]})
    plan.add("star-preimage-rel2", {"kind": "star_preimage", "n": 2}, HOLDS)
    plan.add("hoare-rules-rel2", {"kind": "hoare_rules", "n": 2}, HOLDS)

    # relational workspaces within the exhaustive termination budget (n <= 12)
    for k in range(20):
        n = 4 + k % 9
        shape = ("chain", "cyclic", "dag", "transitive")[k % 4]
        variant = k // 4 % 2
        if shape == "chain":
            rows = chain(n, rng, back_edge=variant == 1)[0]
        elif shape == "transitive":
            rows = transitive_dag(n, rng)
        else:
            rows = random_graph(n, rng, 1 + variant, acyclic=shape == "dag")[0]
        full = (1 << n) - 1
        targets = rng.getrandbits(n) & full or 1
        pre = rng.getrandbits(n) & full
        goal = rng.getrandbits(n) & full
        prog = ("while", ("not", ("ref", "goal")), ("prim", "step"))
        env = {"step": rows}
        sets = {"pre": pre, "goal": goal}
        reached = oracles.post(prog, pre, env, sets, full)
        post = reached if rng.random() < 0.5 else reached & ~(reached & -reached)
        sets["post"] = post
        doc = {
            "n": n,
            "relations": {"R": edges_of(rows)},
            "sets": {s: oracles.states_of(m) for s, m in sets.items()},
            "programs": {"main": render_prog(prog)},
            "env": {"step": "R"},
            "triples": {"t": {"pre": "pre", "prog": "main", "post": "post"}},
        }
        path = plan.workspace(f"small{k:02d}-{shape}{n}", doc)
        label = f"small{k:02d}-{shape}{n}"
        plan.add(label + "-reach", cli("reach", path, "--relation", "R", "--targets", set_text(targets), "--algo", "both"), reach_expect(rows, targets, ("naive", "efficient")))
        plan.add(label + "-termination", cli("termination", path, "--relation", "R"), termination_expect(rows, 0, exhaustive=True))
        esc = oracles.triple_escape(("ref", "pre"), prog, ("ref", "post"), env, sets, full)
        plan.add(label + "-triple", cli("hoare", path, "--triple", "t"), {"type": "triple", "escape": esc})


# -- graph-queries ------------------------------------------------------------------


def gen_graph_queries(plan: Plan, rng: random.Random):
    def graph_ws(name, rows):
        return plan.workspace(name, {"n": len(rows), "relations": {"G": edges_of(rows)}})

    rows, last = chain(2000, rng)
    path = graph_ws("chain2000", rows)
    plan.add("reach-chain2000", cli("reach", path, "--relation", "G", "--targets", last, "--algo", "efficient"), reach_expect(rows, 1 << (last - 1), ("efficient",)))

    cyc, _ = random_graph(1000, rng, 2, acyclic=False)
    cyc_path = graph_ws("cyclic1000", cyc)
    # the state with most predecessors, so the backward search covers the
    # large strongly connected part rather than a state nothing reaches
    preds = oracles.converse(cyc)
    target = max(range(1000), key=lambda i: (bin(preds[i]).count("1"), -i)) + 1
    plan.add("reach-cyclic1000", cli("reach", cyc_path, "--relation", "G", "--targets", target, "--algo", "efficient"), reach_expect(cyc, 1 << (target - 1), ("efficient",)))

    dag, sink = random_graph(1500, rng, 2, acyclic=True)
    path = graph_ws("dag1500", dag)
    plan.add("reach-dag1500", cli("reach", path, "--relation", "G", "--targets", sink, "--algo", "efficient"), reach_expect(dag, 1 << (sink - 1), ("efficient",)))

    rows, last = chain(300, rng)
    path = graph_ws("chain300", rows)
    plan.add("reach-both-chain300", cli("reach", path, "--relation", "G", "--targets", last, "--algo", "both"), reach_expect(rows, 1 << (last - 1), ("naive", "efficient")))

    plan.add("termination-report-cyclic1000", {"kind": "termination", "ws": cyc_path, "relation": "G"}, termination_expect(cyc, None, exhaustive=False))

    dag, _ = random_graph(1500, rng, 2, acyclic=True)
    path = graph_ws("dag1500b", dag)
    plan.add("termination-dag1500", cli("termination", path, "--relation", "G"), termination_expect(dag, 0, exhaustive=False))

    rows, _ = chain(300, rng, back_edge=True)
    path = graph_ws("chain300cycle", rows)
    plan.add("termination-chain300-2cycle", cli("termination", path, "--relation", "G"), termination_expect(rows, 0, exhaustive=False))


# -- while-programs -------------------------------------------------------------------


def render_test(t) -> str:
    op = t[0]
    if op == "ref":
        return t[1]
    if op in ("true", "false"):
        return op
    if op == "not":
        return "not " + _paren_test(t[1])
    return f"{_paren_test(t[1])} {op} {_paren_test(t[2])}"


def _paren_test(t) -> str:
    return render_test(t) if t[0] in ("ref", "true", "false") else f"({render_test(t)})"


def render_prog(p) -> str:
    op = p[0]
    if op == "prim":
        return p[1]
    if op in ("skip", "abort"):
        return op
    if op == "seq":
        return f"{_paren_prog(p[1])} ; {_paren_prog(p[2])}"
    if op == "if":
        return f"if {render_test(p[1])} then {render_prog(p[2])} else {render_prog(p[3])} fi"
    return f"while {render_test(p[1])} do {render_prog(p[2])} od"


def _paren_prog(p) -> str:
    return f"({render_prog(p)})" if p[0] == "seq" else render_prog(p)


def _triple_doc(t) -> dict:
    pre, prog, post = t
    return {"pre": render_test(pre), "prog": render_prog(prog), "post": render_test(post)}


def _proof_doc(node) -> dict:
    rule, concl, premises = node
    doc = {"rule": rule, "conclusion": _triple_doc(concl)}
    if premises:
        doc["premises"] = [_proof_doc(p) for p in premises]
    return doc


def random_step(n, rng, out_degree):
    """A sparse relation where most states have out_degree successors."""
    edges = [(i, rng.randrange(1, n + 1)) for i in range(1, n + 1) for _ in range(out_degree) if rng.random() < 0.9]
    return oracles.rows_from_edges(n, edges)


def chain_steps(n, length, rng):
    """States laid out as n/length chains under random labels.

    Returns (a1, a3, ends): a1 steps along each chain, a3 jumps to the same
    position on another chain (a random permutation of the chains), ends
    are the last states.  Loops guarded by "not at an end" then run exactly
    length-1 steps, so the closures they build have the same shape, and
    cost, for every seed; only the labels change.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    chains = [labels[c * length : (c + 1) * length] for c in range(n // length)]
    target = list(range(len(chains)))
    rng.shuffle(target)
    a1 = [(ch[i], ch[i + 1]) for ch in chains for i in range(length - 1)]
    a3 = [(ch[i], chains[target[c]][i]) for c, ch in enumerate(chains) for i in range(length)]
    ends = oracles.mask_of(ch[-1] for ch in chains)
    return oracles.rows_from_edges(n, a1), oracles.rows_from_edges(n, a3), ends


def random_set(n, rng, share) -> int:
    return oracles.mask_of(s for s in range(1, n + 1) if rng.random() < share)


def while_workspace(plan: Plan, rng: random.Random, n: int, length: int, tag: str):
    full = (1 << n) - 1
    a1_rows, a3_rows, ends = chain_steps(n, length, rng)
    env = {"a1": a1_rows, "a2": random_step(n, rng, 2), "a3": a3_rows}
    sets = {"t": full & ~ends, "u": random_set(n, rng, 0.5), "P": random_set(n, rng, 0.05)}
    T, U, P = ("ref", "t"), ("ref", "u"), ("ref", "P")
    a1, a2, a3 = ("prim", "a1"), ("prim", "a2"), ("prim", "a3")
    body2 = ("seq", a1, a3)
    loop1 = ("while", T, a1)
    loop2 = ("while", T, body2)
    progs = {"L1": loop1, "L2": ("seq", a2, loop2), "C1": ("seq", ("if", U, a1, a2), a3)}

    triples = {}
    for name, prog in progs.items():
        reached = oracles.post(prog, sets["P"], env, sets, full)
        sets[f"Q{name}"] = reached | random_set(n, rng, 0.02)
        sets[f"R{name}"] = reached & ~oracles.mask_of([rng.choice(oracles.states_of(reached))]) if reached else full
        triples[f"{name}-holds"] = (P, prog, ("ref", f"Q{name}"))
        triples[f"{name}-fails"] = (P, prog, ("ref", f"R{name}"))

    def loop_proof(pre_set, loop, body, drop_state):
        """weakening(while(axiom)) with the loop's reachable set as invariant;
        drop_state removes a reached state so the axiom leaf fails."""
        inv = pre_set
        frontier = pre_set
        while frontier:
            step = oracles.post(body, frontier & sets["t"], env, sets, full)
            frontier = step & ~inv
            inv |= step
        if drop_state:
            extra = oracles.states_of(inv & ~pre_set)
            if extra:
                inv &= ~oracles.mask_of([rng.choice(extra)])
        inv_name = f"I{len(sets)}"
        sets[inv_name] = inv
        I = ("ref", inv_name)
        leaf = ("axiom", (("and", T, I), body, I), [])
        return ("while", (I, loop, ("and", ("not", T), I)), [leaf])

    proofs = {}
    post_l1 = oracles.post(loop1, sets["P"], env, sets, full)
    sets["W1"] = post_l1 | random_set(n, rng, 0.02)
    for name, drop in (("L1-valid", False), ("L1-broken", True)):
        wh = loop_proof(sets["P"], loop1, a1, drop)
        proofs[name] = ("weakening", (P, loop1, ("ref", "W1")), [wh])

    mid = oracles.image(env["a2"], sets["P"])
    sets["M"] = mid
    post_l2 = oracles.post(loop2, mid, env, sets, full)
    sets["W2"] = post_l2 | random_set(n, rng, 0.02)
    wh = loop_proof(mid, loop2, body2, False)
    proofs["L2-valid"] = (
        "composition",
        (P, progs["L2"], ("ref", "W2")),
        [("axiom", (P, a2, ("ref", "M")), []), ("weakening", (("ref", "M"), loop2, ("ref", "W2")), [wh])],
    )

    doc = {
        "n": n,
        "relations": {k: edges_of(v) for k, v in env.items()},
        "sets": {k: oracles.states_of(v) for k, v in sets.items()},
        "programs": {k: render_prog(v) for k, v in progs.items()},
        "env": {k: k for k in env},
        "triples": {k: _triple_doc(t) for k, t in triples.items()},
        "proofs": {k: _proof_doc(p) for k, p in proofs.items()},
    }
    path = plan.workspace(f"while{n}-{tag}", doc)
    for name, (pre, prog, post) in triples.items():
        esc = oracles.triple_escape(pre, prog, post, env, sets, full)
        plan.add(f"triple{n}-{name}", cli("hoare", path, "--triple", name), {"type": "triple", "escape": esc})
    for name, tree in proofs.items():
        bad = oracles.first_invalid_node(tree, env, sets, full)
        plan.add(f"proof{n}-{name}", cli("hoare", path, "--proof", name), {"type": "proof", "path": bad})


def gen_while_programs(plan: Plan, rng: random.Random):
    while_workspace(plan, rng, 1000, 20, "a")
    while_workspace(plan, rng, 300, 20, "a")
    while_workspace(plan, rng, 300, 20, "b")


def add_layer_probe(plan: Plan):
    """A fixed handful of tiny jobs that call every traced function once.

    They keep every per-layer metric measured, not absent or constant, in
    every workload.  They run after the workload's jobs in every pass and
    their verdicts are checked, but they are left out of wall_s and of the
    two shares, which describe the workload's own jobs.
    """
    first = len(plan.jobs)
    plan.add("probe-check-rel1", cli("check", "rel:1"), ALL_HOLD)
    x, y = V("x"), V("y")
    lhs, rhs, rel = THEOREMS["slide"](x, y)
    plan.add("probe-equation-rel1", {"kind": "equation", "n": 1, "lhs": lhs, "rhs": rhs, "rel": rel, "name": "slide"}, laws_expect([("slide", None)], cli=False))
    plan.add("probe-star-preimage-rel1", {"kind": "star_preimage", "n": 1}, HOLDS)
    plan.add("probe-hoare-rules-rel1", {"kind": "hoare_rules", "n": 1}, HOLDS)
    plan.add("probe-transformers-rel1", {"kind": "transformers", "n": 1, "laws": ["tests"]}, {**HOLDS, "sizes": [2, 2]})

    rows = oracles.rows_from_edges(3, [(1, 2), (2, 3)])
    full = 0b111
    at_end = ("ref", "atEnd")
    main = ("while", ("not", at_end), ("prim", "step"))
    env, sets = {"step": rows}, {"atEnd": 0b100}
    leaf = ("axiom", (("and", ("not", at_end), ("true",)), ("prim", "step"), ("true",)), [])
    proof = ("while", (("true",), main, ("and", ("not", ("not", at_end)), ("true",))), [leaf])
    doc = {
        "n": 3,
        "relations": {"R": edges_of(rows)},
        "sets": {"atEnd": [3]},
        "programs": {"main": render_prog(main)},
        "env": {"step": "R"},
        "triples": {"good": {"pre": "true", "prog": "main", "post": "atEnd"}},
        "proofs": {"pf": _proof_doc(proof)},
    }
    path = plan.workspace("probe-chain3", doc)
    plan.add("probe-reach", cli("reach", path, "--relation", "R", "--targets", "3", "--algo", "both"), reach_expect(rows, 0b100, ("naive", "efficient")))
    plan.add("probe-termination", cli("termination", path, "--relation", "R"), termination_expect(rows, 0, exhaustive=True))
    esc = oracles.triple_escape(("true",), main, at_end, env, sets, full)
    plan.add("probe-triple", cli("hoare", path, "--triple", "good"), {"type": "triple", "escape": esc})
    plan.add("probe-proof", cli("hoare", path, "--proof", "pf"), {"type": "proof", "path": oracles.first_invalid_node(proof, env, sets, full)})
    for job in plan.jobs[first:]:
        job["probe"] = True


GENERATORS = {
    "laws-rel3": gen_laws_rel3,
    "laws-small": gen_laws_small,
    "graph-queries": gen_graph_queries,
    "while-programs": gen_while_programs,
}


def generate(workload: str, seed: int, workdir: str) -> Plan:
    plan = Plan(workdir)
    GENERATORS[workload](plan, random.Random(f"{workload}:{seed}"))
    add_layer_probe(plan)
    return plan
