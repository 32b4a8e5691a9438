#!/usr/bin/env python3
"""Domain, codomain, and where locality can fail.

dom(a) is the least test p with a <= p a: the set of states where a is
enabled.  Over a finite test algebra it can be computed by scanning the
tests, and the axioms then checked after the fact.  Locality
(dom(a dom(b)) <= dom(a b)) is NOT implied by the other axioms; two of
the bundled models refute it.
"""

from kadlib.algebra import TestAlgebra, failures
from kadlib.domain import (
    check_domain_axioms,
    check_domain_calculus,
    compute_predomain,
    is_integral,
)
from kadlib.models import conway_model, conway_names, rel_semiring, rel_tests

for name in conway_names():
    S = conway_model(name)
    D = compute_predomain(S, TestAlgebra.discrete(S))
    delta = " ".join(
        f"dom({S.element_name(x)})={S.element_name(D.dom(x))}" for x in range(S.n)
    )
    print(f"{name:5s}  {delta}")

print()
for name in ("A3_2", "A3_3"):
    S = conway_model(name)
    D = compute_predomain(S, TestAlgebra.discrete(S))
    bad = failures(check_domain_axioms(D))
    verdict = is_integral(S)
    integ = "integral" if verdict.holds else f"zero divisors ({verdict.note})"
    if bad:
        print(f"{name}: {integ}; fails " + ", ".join(r.name for r in bad))
        for r in bad:
            print(f"       witness {r.witness}")
    else:
        print(f"{name}: {integ}; every domain axiom holds")

# the induced operators satisfy a stack of derived laws; over relations
# the checker runs them against all 512 relations on 3 states
D = compute_predomain(rel_semiring(3), rel_tests(3))
reports = check_domain_calculus(D)
print()
print(f"{D.name}: {len(reports)} derived laws,",
      f"{sum(r.holds for r in reports)} hold, {len(failures(reports))} fail")

# preimage a:p = dom(a p) in action: which relations can reach state 2?
S = D.owner
ab = S.index("{(1,2),(2,2)}")
p = S.index("{(2,2)}")
print(f"a = {S.element_name(ab)},  p = {S.element_name(p)},  a:p = "
      f"{S.element_name(D.preimage(ab, p))}")
