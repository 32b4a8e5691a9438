"""Reference decisions computed without kadlib.

Everything here is plain Python over integer bitmasks, so a verdict that
kadlib gets wrong cannot be reproduced by sharing its code.

Conventions:
  * a relation on states 1..n is a tuple of successor masks: bit j of
    rows[i] means an edge from state i+1 to state j+1;
  * a set of states is a mask with bit i for state i+1;
  * a relation on n <= 3 states used as a semiring element is the n*n-bit
    adjacency mask, row-major (bit i*n+j for the edge i+1 -> j+1);
  * programs and tests are tuples: ("prim", name), ("skip",), ("abort",),
    ("seq", p, q), ("if", t, p, q), ("while", t, p); ("ref", name),
    ("true",), ("false",), ("not", t), ("and", s, t), ("or", s, t).
"""

from __future__ import annotations

import itertools

# -- relations and sets --------------------------------------------------------


def rows_from_edges(n, edges):
    rows = [0] * n
    for i, j in edges:
        rows[i - 1] |= 1 << (j - 1)
    return tuple(rows)


def mask_of(states):
    m = 0
    for s in states:
        m |= 1 << (s - 1)
    return m


def states_of(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i + 1)
        mask >>= 1
        i += 1
    return out


def converse(rows):
    n = len(rows)
    out = [0] * n
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return tuple(out)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(rows, p):
    """States reachable from p in one step."""
    out = 0
    for i in _bits(p):
        out |= rows[i]
    return out


def preimage(rows, p):
    """States with a step into p."""
    out = 0
    for i, row in enumerate(rows):
        if row & p:
            out |= 1 << i
    return out


def backward_reach(rows, targets):
    """States from which some path (possibly empty) enters targets: BFS."""
    preds = converse(rows)
    seen = targets
    queue = list(_bits(targets))
    while queue:
        v = queue.pop()
        new = preds[v] & ~seen
        seen |= new
        queue.extend(_bits(new))
    return seen


def is_acyclic(rows):
    """Kahn's algorithm: repeatedly remove states with no incoming edges."""
    n = len(rows)
    indeg = [0] * n
    for row in rows:
        for j in _bits(row):
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for j in _bits(rows[v]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return removed == n


def is_transitive(rows):
    return all(image(rows, row) & ~row == 0 for row in rows)


def termination_truth(rows):
    """(noetherian, well_founded, loebian) for a finite relation.

    Noetherian means no infinite forward path, i.e. the relation is
    acyclic; well-founded is the same for the converse; on relations the
    Loeb property holds iff the relation is transitive and Noetherian.
    """
    noetherian = is_acyclic(rows)
    well_founded = is_acyclic(converse(rows))
    return noetherian, well_founded, noetherian and is_transitive(rows)


def first_termination_witnesses(rows):
    """First failing test of each termination law in numeric mask order.

    This is the enumeration order of an exhaustive scan over all 2^n tests,
    so it pins the witnesses reported for small n.  None where the law holds.
    """
    full = (1 << len(rows)) - 1
    noeth = wf = loeb = None
    for p in range(full + 1):
        pre = preimage(rows, p)
        if noeth is None and p and p & ~pre == 0:
            noeth = p
        if wf is None and p and p & ~image(rows, p) == 0:
            wf = p
        if loeb is None and pre & ~preimage(rows, p & ~pre):
            loeb = p
    return noeth, wf, loeb


# -- while programs ------------------------------------------------------------


def eval_test(t, sets, full):
    op = t[0]
    if op == "ref":
        return sets[t[1]]
    if op == "true":
        return full
    if op == "false":
        return 0
    if op == "not":
        return full & ~eval_test(t[1], sets, full)
    left, right = eval_test(t[1], sets, full), eval_test(t[2], sets, full)
    return left & right if op == "and" else left | right


def post(prog, start, env, sets, full):
    """Final states of prog from the initial states start (set semantics)."""
    op = prog[0]
    if op == "prim":
        return image(env[prog[1]], start)
    if op == "skip":
        return start
    if op == "abort":
        return 0
    if op == "seq":
        return post(prog[2], post(prog[1], start, env, sets, full), env, sets, full)
    if op == "if":
        t = eval_test(prog[1], sets, full)
        return post(prog[2], start & t, env, sets, full) | post(prog[3], start & ~t, env, sets, full)
    if op == "while":
        t = eval_test(prog[1], sets, full)
        seen = start
        frontier = start
        while frontier:
            step = post(prog[2], frontier & t, env, sets, full)
            frontier = step & ~seen
            seen |= step
        return seen & ~t
    raise ValueError(f"unknown program node {prog!r}")


def triple_escape(pre, prog, postcond, env, sets, full):
    """None if {pre} prog {post} holds, else the least escaping state."""
    bad = post(prog, eval_test(pre, sets, full), env, sets, full) & ~eval_test(postcond, sets, full)
    return None if not bad else (bad & -bad).bit_length()


_ARITY = {"axiom": 0, "composition": 2, "conditional": 2, "while": 1, "weakening": 1}


def first_invalid_node(node, env, sets, full, path="root"):
    """Path of the first proof node, in pre-order, whose rule is misapplied.

    node = (rule, (pre, prog, post), [premises]).
    """
    rule, (pre, prog, postc), premises = node

    def ev(t):
        return eval_test(t, sets, full)

    if rule not in _ARITY or len(premises) != _ARITY[rule]:
        return path
    if rule == "axiom":
        return path if triple_escape(pre, prog, postc, env, sets, full) is not None else None
    concl = [p[1] for p in premises]
    if rule == "composition":
        (p1, c1, q1), (p2, c2, q2) = concl
        if prog[0] != "seq" or (c1, c2) != (prog[1], prog[2]):
            return path
        if ev(p1) != ev(pre) or ev(q2) != ev(postc) or ev(q1) != ev(p2):
            return path
    elif rule == "conditional":
        (p1, c1, q1), (p2, c2, q2) = concl
        if prog[0] != "if" or (c1, c2) != (prog[2], prog[3]):
            return path
        t, q, r = ev(prog[1]), ev(pre), ev(postc)
        if ev(p1) != t & q or ev(p2) != full & ~t & q or ev(q1) != r or ev(q2) != r:
            return path
    elif rule == "while":
        ((p1, c1, q1),) = concl
        if prog[0] != "while" or c1 != prog[2]:
            return path
        t, q = ev(prog[1]), ev(pre)
        if ev(p1) != t & q or ev(q1) != q or ev(postc) != full & ~t & q:
            return path
    elif rule == "weakening":
        ((p1, c1, q1),) = concl
        if c1 != prog or ev(pre) & ~ev(p1) or ev(q1) & ~ev(postc):
            return path
    for i, child in enumerate(premises):
        bad = first_invalid_node(child, env, sets, full, f"{path}.premise[{i}]")
        if bad is not None:
            return bad
    return None


# -- relations on n <= 3 states as semiring elements ---------------------------


def rel_element_ops(n):
    """add, mul and star of the all-relations semiring on n states, on masks."""
    full_row = (1 << n) - 1

    def rows(m):
        return [(m >> (i * n)) & full_row for i in range(n)]

    def pack(rs):
        return sum(r << (i * n) for i, r in enumerate(rs))

    def mul(x, y):
        ry = rows(y)
        return pack([image(ry, row) for row in rows(x)])

    def star(x):
        acc = x | pack([1 << i for i in range(n)])
        while True:
            nxt = mul(acc, acc)
            if nxt == acc:
                return acc
            acc = nxt

    return (lambda x, y: x | y), mul, star


def rel_tables(n):
    """Dense add/mul/star tables of the all-relations semiring on n states."""
    add, mul, star = rel_element_ops(n)
    size = 1 << (n * n)
    els = range(size)
    return (
        [[add(x, y) for y in els] for x in els],
        [[mul(x, y) for y in els] for x in els],
        [star(x) for x in els],
        0,
        sum(1 << (i * n + i) for i in range(n)),
    )


def term_vars(t, acc=None):
    """Variables of a term in pre-order of first occurrence."""
    acc = [] if acc is None else acc
    if t[0] == "var" and t[1] not in acc:
        acc.append(t[1])
    for sub in t[1:]:
        if isinstance(sub, tuple):
            term_vars(sub, acc)
    return acc


def first_equation_failure(lhs, rhs, rel, n):
    """First assignment, lexicographic over the variables, refuting the law."""
    add, mul, star = rel_element_ops(n)
    one = sum(1 << (i * n + i) for i in range(n))

    def ev(t, env):
        op = t[0]
        if op == "var":
            return env[t[1]]
        if op == "zero":
            return 0
        if op == "one":
            return one
        if op == "star":
            return star(ev(t[1], env))
        left, right = ev(t[1], env), ev(t[2], env)
        return add(left, right) if op == "add" else mul(left, right)

    names = term_vars(lhs)
    term_vars(rhs, names)
    for combo in itertools.product(range(1 << (n * n)), repeat=len(names)):
        env = dict(zip(names, combo))
        lv, rv = ev(lhs, env), ev(rhs, env)
        if (lv != rv) if rel == "eq" else (lv | rv != rv):
            return env
    return None


# -- law scans over small dense tables -------------------------------------------


def isemiring_laws(A, M, zero, one):
    """(name, witness or None) for each idempotent-semiring law, report order."""
    n = len(A)
    el = range(n)

    def first(pred, names):
        for combo in itertools.product(el, repeat=len(names)):
            if not pred(*combo):
                return dict(zip(names, combo))
        return None

    return [
        ("add-commutative", first(lambda a, b: A[a][b] == A[b][a], "ab")),
        ("add-associative", first(lambda a, b, c: A[A[a][b]][c] == A[a][A[b][c]], "abc")),
        ("add-left-identity", first(lambda a: A[zero][a] == a, "a")),
        ("add-right-identity", first(lambda a: A[a][zero] == a, "a")),
        ("add-idempotent", first(lambda a: A[a][a] == a, "a")),
        ("mul-associative", first(lambda a, b, c: M[M[a][b]][c] == M[a][M[b][c]], "abc")),
        ("mul-left-identity", first(lambda a: M[one][a] == a, "a")),
        ("mul-right-identity", first(lambda a: M[a][one] == a, "a")),
        ("left-distributive", first(lambda a, b, c: M[a][A[b][c]] == A[M[a][b]][M[a][c]], "abc")),
        ("right-distributive", first(lambda a, b, c: M[A[a][b]][c] == A[M[a][c]][M[b][c]], "abc")),
        ("left-annihilation", first(lambda a: M[zero][a] == zero, "a")),
        ("right-annihilation", first(lambda a: M[a][zero] == zero, "a")),
        ("zero-not-one", None if zero != one else {}),
    ]


def kleene_laws(A, M, ST, zero, one):
    """(name, witness or None) for each star law, report order.

    Witness variable order follows the quantifier order of each law as
    stated: the simulation laws quantify a, c, b.
    """
    n = len(A)
    el = range(n)

    def leq(x, y):
        return A[x][y] == y

    def first(pred, names):
        for combo in itertools.product(el, repeat=len(names)):
            if not pred(*combo):
                return dict(zip(names, combo))
        return None

    powers = None
    for i in range(1, n + 1):
        for a in el:
            pw = a
            for _ in range(i - 1):
                pw = M[pw][a]
            if not leq(pw, ST[a]):
                powers = {"a": a, "power": i}
                break
        if powers:
            break

    return [
        ("star-left-unfold", first(lambda a: leq(A[one][M[a][ST[a]]], ST[a]), "a")),
        ("star-right-unfold", first(lambda a: leq(A[one][M[ST[a]][a]], ST[a]), "a")),
        ("star-left-induction", first(lambda a, b, c: not leq(A[b][M[a][c]], c) or leq(M[ST[a]][b], c), "abc")),
        ("star-right-induction", first(lambda a, b, c: not leq(A[b][M[c][a]], c) or leq(M[b][ST[a]], c), "abc")),
        ("one-below-star", first(lambda a: leq(one, ST[a]), "a")),
        ("star-mul-star", first(lambda a: M[ST[a]][ST[a]] == ST[a], "a")),
        ("powers-below-star", powers),
        ("star-of-star", first(lambda a: ST[ST[a]] == ST[a], "a")),
        ("star-slide", first(lambda a, b: M[ST[M[a][b]]][a] == M[a][ST[M[b][a]]], "ab")),
        ("star-denesting", first(lambda a, b: ST[A[a][b]] == M[ST[a]][ST[M[b][ST[a]]]], "ab")),
        ("star-unfold-right-product", first(lambda a, b: M[ST[a]][b] == A[b][M[M[ST[a]][a]][b]], "ab")),
        ("star-unfold-left-product", first(lambda a, b: M[ST[a]][b] == A[b][M[M[a][ST[a]]][b]], "ab")),
        ("subidentity-star", first(lambda a: not leq(a, one) or ST[a] == one, "a")),
        ("star-monotone", first(lambda a, b: not leq(a, b) or leq(ST[a], ST[b]), "ab")),
        ("star-left-simulation", first(lambda a, c, b: not leq(M[a][c], M[c][b]) or leq(M[ST[a]][c], M[c][ST[b]]), "acb")),
        ("star-right-simulation", first(lambda a, c, b: not leq(M[c][a], M[b][c]) or leq(M[c][ST[a]], M[ST[b]][c]), "acb")),
    ]
