"""kadlib's law catalogue: the law suites of the table layer and of the paper's applications, and their certificates.

One body of KAD theorems, stated once: the domain axioms and the calculus
derived from them, the dom-/cod-additive pair the ladder's rewrites rest
on, the converse laws, and the suites of the paper's two applications, the
star/preimage laws behind reachability and Noethericity and the Hoare rules
read as implications between triples.  Beside them are the two dicts the
decision ladder (algebra._decide) reads: _TABLE_LAWS, the one law of each
name, which a certificate speaks of and a held name stands for, and
_CERTIFICATES, the derivation each certified law uses.  The isemiring,
Kleene and test-algebra tables stay in laws, whose names the relation
models need at start-up.

Only the table layer (algebra, domain) and check_star_preimage_laws and
check_hoare_rules, where they run, import this module, so kad reach,
termination and hoare never compile it.
"""

from __future__ import annotations

from .laws import (
    ISEMIRING_LAWS, KLEENE_LAWS, TEST_LAWS, Law, _ISEMIRING_NAMES as _ISR, _TEST_NAMES, cod, compl, conv, dom, eq, iff,
    leq, one_term, star, top_term, var, zero_term,
)


def _suites():
    a, b, c, p, q, r, p1, q1 = (var(v) for v in ("a", "b", "c", "p", "q", "r", "p1", "q1"))
    zero, one = zero_term, one_term
    local, left_local = ("dloc", "cdloc"), ("dloc",)

    def pre(x, t):
        """x:t, the states from which x can enter t"""
        return dom(x * t)

    def img(t, x):
        """t:x, the states x reaches from t"""
        return cod(t * x)

    axioms = (
        Law("d1", "a", leq(a, dom(a) * a)),
        Law("d2", "p a", leq(dom(p * a), p), tests="p"),
        Law("dloc", "a b", leq(dom(a * dom(b)), dom(a * b))),
        Law("llp", "p a", iff(leq(dom(a), p), leq(a, p * a)), tests="p"),
        Law("gla", "p a", iff(leq(dom(a), p), eq(compl(p) * a, zero)), tests="p"),
        Law("cd1", "a", leq(a, a * cod(a))),
        Law("cd2", "p a", leq(cod(a * p), p), tests="p"),
        Law("cdloc", "a b", leq(cod(cod(a) * b), cod(a * b))),
        Law("lrp", "p a", iff(leq(cod(a), p), leq(a, a * p)), tests="p"),
        Law("gra", "p a", iff(leq(cod(a), p), eq(a * compl(p), zero)), tests="p"),
    )
    dom_additive = Law("dom-additive", "a b", eq(dom(a + b), dom(a) + dom(b)))
    calculus = (
        Law("dom-strict", "a", iff(leq(dom(a), zero), leq(a, zero))),
        dom_additive,
        Law("dom-monotone", "a b", leq(dom(a), dom(b)), leq(a, b)),
        Law("dom-stable-on-tests", "p", eq(dom(p), p), tests="p"),
        Law("dom-idempotent", "a", eq(dom(dom(a)), dom(a))),
        # the equational strengthening of d1
        Law("dom-left-invariant", "a", eq(dom(a) * a, a)),
        Law("dom-export", "p a", eq(dom(p * a), p * dom(a)), tests="p"),
        Law("dom-decompose", "a b", leq(dom(a * b), dom(a * dom(b)))),
        Law("dom-complement", "p", eq(compl(dom(p)), dom(compl(p))), tests="p"),
        Law("dom-top-galois", "p a", iff(leq(dom(a), p), leq(a, p * top_term)), tests="p", requires=("top",)),
        Law("preimage-of-one", "a", eq(dom(a * one), dom(a))),
        Law("image-of-one", "a", eq(cod(one * a), cod(a))),
        # (51)-(55); a:p is dom(a p) and p:a is cod(p a)
        Law("preimage-vs-commutation", "p q a", iff(leq(dom(a * p), q), leq(a * p, q * a)), tests="p q"),
        Law("preimage-vs-annihilation", "p q a", iff(leq(dom(a * p), q), eq((compl(q) * a) * p, zero)), tests="p q"),
        Law("preimage-import-export", "p q a", eq(p * dom(a * q), dom((p * a) * q)), tests="p q"),
        Law("preimage-exchange", "p q a", iff(leq(dom(a * p), q), leq(cod(compl(q) * a), compl(p))), tests="p q"),
        Law("image-preimage-annihilation", "p q a", iff(eq(cod(p * a) * q, zero), eq(p * dom(a * q), zero)), tests="p q"),
        # (56) p:(a b) <= (p:a):b, with equality under locality
        Law("image-compose-bound", "p a b", leq(cod((p * a) * b), cod(cod(p * a) * b)), tests="p"),
        Law("image-compose-exact", "p a b", eq(cod((p * a) * b), cod(cod(p * a) * b)), tests="p", requires=local),
        # (57)/(58): dom(a b) = a:dom(b); cod(a b) = cod(a):b
        Law("dom-compose-local", "a b", eq(dom(a * b), dom(a * dom(b))), requires=local),
        Law("cod-compose-local", "a b", eq(cod(a * b), cod(cod(a) * b)), requires=local),
        # zero-divisor exchange, locality in equational clothing
        Law("annihilation-via-dom-cod", "a b", iff(eq(a * b, zero), eq(cod(a) * dom(b), zero)), requires=local),
    )
    # guards of algebra._rewrite; cod-additive stays out of the printed calculus
    additivity = (dom_additive, Law("cod-additive", "a b", eq(cod(a + b), cod(a) + cod(b))))
    converse = (
        Law("conv-involutive", "a", eq(conv(conv(a)), a)),
        Law("conv-additive", "a b", eq(conv(a + b), conv(a) + conv(b))),
        Law("conv-contravariant", "a b", eq(conv(a * b), conv(b) * conv(a))),
        Law("conv-shrinks-subidentities", "p", leq(conv(p), p), leq(p, one)),
        Law("conv-self-embedding", "a", leq(a, (a * conv(a)) * a)),
        Law("conv-fixes-one", "a", eq(conv(a), a), eq(a, one)),
        Law("conv-fixes-zero", "a", eq(conv(a), a), eq(a, zero)),
        Law("conv-order-embedding", "a b", iff(leq(a, b), leq(conv(a), conv(b)))),
        Law("conv-fixes-subidentities", "p", eq(conv(p), p), leq(p, one)),
    )
    duality = (
        Law("dom-of-converse", "a", eq(dom(conv(a)), cod(a))),
        Law("cod-of-converse", "a", eq(cod(conv(a)), dom(a))),
        Law("preimage-via-converse", "p a", eq(dom(conv(a) * p), cod(p * a)), tests="p"),
        Law("image-via-converse", "p a", eq(cod(conv(a) * p), dom(p * a)), tests="p"),
    )
    star_preimage = (
        # star of a domain element collapses to the unit
        Law("star-of-domain", "a", eq(star(dom(a)), one)),
        # every starred element is total
        Law("domain-of-star", "a", eq(dom(star(a)), one)),
        # an invariant of a is an invariant of a*
        Law("invariant-star", "a p", leq(pre(star(a), p), p), leq(pre(a, p), p), tests="p"),
        # b + ac <= c for preimages: a:p + q <= p  =>  a*:q <= p
        Law("preimage-star-induction", "a p q", leq(pre(star(a), q), p), leq(pre(a, p) + q, p), tests="p q", requires=left_local),
        # a*:p <= p + a*:(p' (a:p))
        Law("frontier-bound", "a p", leq(pre(star(a), p), p + pre(star(a), compl(p) * pre(a, p))), tests="p", requires=left_local),
        # a*:p = p + (a p')*:(a:p), the worklist decomposition
        Law(
            "frontier-decomposition",
            "a p",
            eq(pre(star(a), p), p + pre(star(a * compl(p)), pre(a, p))),
            tests="p",
            requires=left_local,
        ),
        # (ac):p + b:q <= c:p  =>  (a*b):q <= c:p
        Law(
            "preimage-horn-induction",
            "a b c p q",
            leq(pre(star(a) * b, q), pre(c, p)),
            leq(pre(a * c, p) + pre(b, q), pre(c, p)),
            tests="p q",
            requires=left_local,
        ),
    )
    hoare = (
        Law("rule-composition", "a b p q r", leq(img(p, a * b), r), (leq(img(p, a), q), leq(img(q, b), r)), tests="p q r"),
        Law(
            "rule-conditional",
            "a b p q r",
            leq(img(q, p * a + compl(p) * b), r),
            (leq(img(p * q, a), r), leq(img(compl(p) * q, b), r)),
            tests="p q r",
        ),
        Law("rule-while", "a p q", leq(img(q, star(p * a) * compl(p)), compl(p) * q), leq(img(p * q, a), q), tests="p q"),
        Law(
            "rule-weakening",
            "a p1 p q q1",
            leq(img(p1, a), q1),
            (leq(p1, p), leq(img(p, a), q), leq(q, q1)),
            tests="p1 p q q1",
        ),
    )
    return axioms, calculus, additivity, converse, duality, star_preimage, hoare


DOMAIN_AXIOMS, DOMAIN_CALCULUS, _ADDITIVITY, CONVERSE_LAWS, CONVERSE_DUALITY, STAR_PREIMAGE_LAWS, HOARE_RULES = _suites()

# name: law, for every law of a table; a certificate speaks of, and a held name stands for, the law of that name here
# and no other.  The converse laws are scanned, never certified, so they are not here.
_TABLE_LAWS = {
    law.name: law
    for law in (*ISEMIRING_LAWS, *KLEENE_LAWS, *TEST_LAWS, *DOMAIN_AXIOMS, *DOMAIN_CALCULUS, *_ADDITIVITY,
                *STAR_PREIMAGE_LAWS, *HOARE_RULES)
    if isinstance(law, Law)
}

# what gla's derivation uses besides d1 and d2, as in dom-monotone below
_GLA = ("complement-join-full", "complement-meet-empty", "meet-commutative")
# for the star/preimage laws: a test is below 1 (members-below-one), so s <= dom(s)s <= dom(s) by d1; dom is monotone
# (dom-additive) and 1 <= a* (star-left-unfold), so a test s lies below a*:s.
_STAR_DOMAIN = (*_ISR, "star-left-unfold", "d1", "d2", "dom-additive", "members-below-one")
# what the frontier laws use besides: p + p' = 1, and a join of tests is a test
_FRONTIER = (*_STAR_DOMAIN, "dloc", "complement-join-full", "closed-under-join")

# law: (the law that certifies it, the other laws that must have held).  Tests are p, q, r; dom(a) and
# cod(a) are tests by construction, and so is the complement of one; a:p is dom(ap) and p:a is cod(pa).
_CERTIFICATES = {
    # theorems of the star axioms (Kozen 1994); "induction at b, c" is
    # star-left-induction's b + ac <= c => a*b <= c for those b and c
    # 1 <= 1 + a a* <= a*
    "one-below-star": ("star-left-unfold", _ISR),
    # a*a* <= a*: induction at b = c = a*; a* = a* 1 <= a*a*
    "star-mul-star": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # (a*)* <= a*: induction with a* for a at b = 1, c = a*, as 1 + a*a* <= a*; a* <= (a*)* by the unfold
    "star-of-star": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # (ab)*a <= a(ba)*: induction at b = a, c = a(ba)*; a(ba)* <= (ab)*a: star-right-induction
    # with ba for a at b = a, c = (ab)*a
    "star-slide": ("star-left-induction", (*_ISR, "star-left-unfold", "star-right-unfold", "star-right-induction")),
    # (a+b)* <= a*(ba*)*: induction with a + b for a at b = 1; the converse from
    # star-monotone, star-of-star and star-mul-star, which need only the left laws
    "star-denesting": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # a* = 1 + a*a: star-right-induction at b = 1, c = 1 + a*a
    "star-unfold-right-product": ("star-right-induction", (*_ISR, "star-right-unfold")),
    # a* = 1 + aa*: induction at b = 1, c = 1 + aa*
    "star-unfold-left-product": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # a <= 1: a* <= 1 by induction at b = c = 1; 1 <= a*
    "subidentity-star": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # a <= b: a* <= b* by induction at b = 1, c = b*, as 1 + ab* <= 1 + bb* <= b*
    "star-monotone": ("star-left-induction", (*_ISR, "star-left-unfold")),
    # from ac <= cb, induction at c, c b* gives a*c <= c b*; the right law is its mirror
    "star-left-simulation": ("star-left-induction", (*_ISR, "star-left-unfold")),
    "star-right-simulation": ("star-right-induction", (*_ISR, "star-right-unfold")),
    # the equivalent axiom forms of the paper's basic calculus: if dom(a) <= p
    # then a <= dom(a)a <= pa; if a <= pa then a = pa, as p <= 1, and dom(a) = dom(pa) <= p
    "llp": ("d2", ("d1", *_ISR, "members-below-one")),
    # if dom(a) <= p then p'a <= p'dom(a)a <= p'pa = 0; if p'a = 0 then a = (p + p')a = pa, and llp
    "gla": ("d2", ("d1", *_ISR, *_GLA)),
    # the mirrors of llp and gla, where ap' = 0 needs no commuted meet
    "lrp": ("cd2", ("cd1", *_ISR, "members-below-one")),
    "gra": ("cd2", ("cd1", *_ISR, "complement-join-full", "complement-meet-empty")),
    # the laws of the paper's basic calculus, each from the axioms its derivation uses
    # dom(0) = dom(0 0) <= 0; if dom(a) = 0 then a <= dom(a)a = 0
    "dom-strict": ("d2", ("d1", *_ISR, "zero-is-member")),
    # a <= b: with p = dom(b), p'a <= p'b = 0 by gla, so dom(a) <= p by gla
    "dom-monotone": ("d2", ("d1", *_ISR, *_GLA)),
    # dom(p) = dom(p 1) <= p; p <= dom(p)p <= dom(p)
    "dom-stable-on-tests": ("d2", ("d1", *_ISR, "members-below-one")),
    # dom-stable-on-tests at p = dom(a)
    "dom-idempotent": ("d2", ("d1", *_ISR, "members-below-one")),
    # dom(a)a <= a as dom(a) <= 1, and d1
    "dom-left-invariant": ("d1", (*_ISR, "members-below-one")),
    # dom(pa) <= p dom(a) by d2, monotone dom and meets; with q = dom(pa), q'pa = 0 by
    # gla, so dom(a) <= (q'p)' = q + p' by gla, and p dom(a) <= pq <= q
    "dom-export": ("d2", ("d1", *_ISR, *_TEST_NAMES)),
    # with p = dom(a dom(b)): ab <= a dom(b)b <= p a dom(b)b <= pab, so dom(ab) <= p by llp
    "dom-decompose": ("d2", ("d1", *_ISR, "members-below-one")),
    # dom-stable-on-tests at p and p'
    "dom-complement": ("d2", ("d1", *_ISR, "members-below-one")),
    # a <= dom(a)a <= pa <= p top; if a <= p top then p'a <= p'p top = 0, and gla
    "dom-top-galois": ("d2", ("d1", *_ISR, *_GLA)),
    # a 1 = a and 1 a = a
    "preimage-of-one": ("mul-right-identity", ()),
    "image-of-one": ("mul-left-identity", ()),
    # (51)-(55): llp at ap, with ap = app <= qap; gla at ap; dom-export at aq; gla and gra;
    # both sides say paq = 0, by gra and gla, as rq = 0 iff r <= q' for tests
    "preimage-vs-commutation": ("d2", ("d1", *_ISR, "members-below-one", "meet-idempotent")),
    "preimage-vs-annihilation": ("d2", ("d1", *_ISR, *_GLA)),
    "preimage-import-export": ("d2", ("d1", *_ISR, *_TEST_NAMES)),
    "preimage-exchange": ("d2", ("d1", "cd1", "cd2", *_ISR, *_GLA, "complement-involutive")),
    "image-preimage-annihilation": ("cd2", ("cd1", "d1", "d2", *_ISR, *_TEST_NAMES)),
    # (56)-(58): dom-decompose and its mirror at pa, equalities by dloc and cdloc
    "image-compose-bound": ("cd2", ("cd1", *_ISR, "members-below-one")),
    "image-compose-exact": ("cdloc", ("cd1", "cd2", *_ISR, "members-below-one")),
    "dom-compose-local": ("dloc", ("d1", "d2", *_ISR, "members-below-one")),
    "cod-compose-local": ("cdloc", ("cd1", "cd2", *_ISR, "members-below-one")),
    # ab = 0 => dom(a dom(b)) <= dom(ab) = 0 => a dom(b) = 0 => cod(cod(a)dom(b)) <= cod(a dom(b)) = 0
    # => cod(a)dom(b) = 0, by dom-strict and its mirror; conversely ab <= a cod(a)dom(b)b
    "annihilation-via-dom-cod": ("dloc", ("d1", "d2", "cd1", "cd2", "cdloc", *_ISR, "zero-is-member")),
    # the star/preimage laws (Möller and Struth, "Modal Kleene algebra and partial correctness", 2004),
    # with r = a:p.  subidentity-star's derivation at the test dom(a): dom(a)* <= 1 by induction at b = c = 1
    "star-of-domain": ("star-left-induction", (*_ISR, "star-left-unfold", "members-below-one")),
    # 1 <= a*, so 1 <= dom(1) <= dom(a*) <= 1
    "domain-of-star": ("d1", (*_ISR, "star-left-unfold", "dom-additive", "members-below-one")),
    # from r <= p, ap <= dom(ap)ap <= pap by d1, so p + a(pa*) <= p + pap a* <= p(1 + aa*) <= pa*;
    # induction gives a*p <= pa*, and a*:p <= dom(pa*) <= p by d2
    "invariant-star": ("star-left-induction", _STAR_DOMAIN),
    # r + q <= p gives r <= p and q <= p, so a*:q <= a*:p <= p
    "preimage-star-induction": ("invariant-star", (*_ISR, "dom-additive")),
    # X = p + a*:(p'r) is a test with p <= X and a:X <= X, so a*:p <= X by preimage-star-induction:
    # r = pr + p'r <= p + a*:(p'r), and a:(a*:(p'r)) <= (aa*):(p'r) <= a*:(p'r) by dloc
    "frontier-bound": ("preimage-star-induction", _FRONTIER),
    # <=: with Y = (ap')*:r, X = p + Y is a test with p <= X and r <= Y, and
    # a:Y = a:(pY) + a:(p'Y) <= r + (ap'(ap')*):r <= Y by dloc, so a*:p <= X as above;
    # >=: p <= a*:p, and (ap')*:r <= a*:r <= (a*a):p <= a*:p by dloc, as (ap')* <= a* by
    # star-monotone's derivation and a*a <= a* by induction at b = a, c = a*
    "frontier-decomposition": ("preimage-star-induction", (*_FRONTIER, "star-left-induction")),
    # (ac):p + b:q <= c:p => (a*b):q <= c:p is preimage-star-induction at p := c:p and q := b:q:
    # a:(c:p) <= (ac):p by dloc and associativity, and (a*b):q <= a*:(b:q) by d1, d2 and monotone dom
    "preimage-horn-induction": ("preimage-star-induction", ("dloc", "d1", "d2", "dom-additive", *_ISR)),
    # the Hoare rules (Kozen, "On Hoare logic and Kleene algebra with tests", 2000; Möller and
    # Struth 2004), where cod is monotone (cod-additive).  p:(ab) <= (p:a):b by
    # image-compose-bound's derivation, and (p:a):b <= q:b <= r
    "rule-composition": ("cd2", (*_ISR, "cd1", "cod-additive", "members-below-one")),
    # q(pa + p'b) = (pq)a + (p'q)b, and cod is additive
    "rule-conditional": ("cod-additive", (*_ISR, "meet-commutative")),
    # with x = pa, qx <= qx cod(qx) <= qxq by cd1, as cod(qx) = (pq):a <= q, so q + x*qx <= q + x*xq <= x*q
    # by the right unfold, and star-right-induction gives qx* <= x*q; then q:(x*p') <= cod(x*qp') <= qp'
    # by cd2 at the test qp', and qp' = p'q
    "rule-while": ("star-right-induction", (*_ISR, "star-right-unfold", "cd1", "cd2", "cod-additive",
                                            "members-below-one", "closed-under-meet", "meet-commutative")),
    # cod(p1 a) <= cod(pa) <= q <= q1
    "rule-weakening": ("cod-additive", _ISR),
}
