"""Domain and codomain: computed least preservers, axiom independence,
the derived calculus, integrality, and converse duality."""

import itertools

import pytest

from kadlib.algebra import FiniteSemiring, TestAlgebra, all_hold, failures
from kadlib.domain import (
    DomainStructure,
    check_converse,
    check_domain_axioms,
    check_domain_calculus,
    compute_precodomain,
    compute_predomain,
    converse_duality_check,
    is_integral,
)
from kadlib.models import conway_model, conway_names, rel_model, rel_semiring, rel_tests

LOCAL = {"A2", "A3_1", "A3_3"}


def predomain_of(name):
    S = conway_model(name)
    return S, compute_predomain(S, TestAlgebra.discrete(S))


def by_name(reports):
    return {r.name: r for r in reports}


# -- computed tables -----------------------------------------------------------


def test_computed_deltas_on_builtins():
    # discrete tests force dom(a) = 1 for every nonzero a
    expected = {
        "A2": ["0", "1"],
        "A3_1": ["0", "1", "1"],
        "A3_2": ["0", "1", "1"],
        "A3_3": ["0", "1", "1"],
        "A4_1": ["0", "1", "1", "1"],
    }
    for nm in conway_names():
        S, D = predomain_of(nm)
        assert [S.element_name(int(v)) for v in D.delta] == expected[nm]
        assert [S.element_name(int(v)) for v in D.rho] == expected[nm]
        assert compute_precodomain(S, TestAlgebra.discrete(S)) == list(D.rho)


def test_relational_delta_reads_off_edge_endpoints():
    S = rel_semiring(2)
    D = compute_predomain(S, rel_tests(2))
    r = S.index("{(1,2)}")
    assert S.element_name(int(D.delta[r])) == "{(1,1)}"
    assert S.element_name(int(D.rho[r])) == "{(2,2)}"
    assert S.element_name(D.preimage(r, S.index("{(2,2)}"))) == "{(1,1)}"
    assert S.element_name(D.image(S.index("{(1,1)}"), r)) == "{(2,2)}"


def test_predomain_axioms_hold_where_expected():
    for nm in conway_names():
        _, D = predomain_of(nm)
        rep = by_name(check_domain_axioms(D))
        # d1/d2 and their characterizations always hold for the computed tables
        for law in ("d1", "d2", "llp", "gla", "cd1", "cd2", "lrp", "gra"):
            assert rep[law].holds, (nm, law)
        assert rep["dloc"].holds == (nm in LOCAL), nm
        assert rep["cdloc"].holds == (nm in LOCAL), nm


def test_locality_fails_with_the_same_witness_on_both_sides():
    for nm in ("A3_2", "A4_1"):
        S, D = predomain_of(nm)
        rep = by_name(check_domain_axioms(D))
        a = S.index("a")
        assert rep["dloc"].witness == {"a": a, "b": a}
        assert rep["cdloc"].witness == {"a": a, "b": a}
        # dom(a dom(a)) = dom(a) = 1 but dom(a a) = dom(0) = 0
        assert int(S.mul[a, a]) == S.zero


def test_flags_mirror_axiom_reports():
    for nm in conway_names():
        _, D = predomain_of(nm)
        local = nm in LOCAL
        assert ("dloc" in D.laws) == ("cdloc" in D.laws) == local
        assert {"d1", "d2"} <= D.laws
        assert is_integral(D.owner).holds == (nm in ("A2", "A3_1", "A3_3"))


# -- axiom independence ----------------------------------------------------------


def test_constant_one_satisfies_d1_but_not_d2():
    S = conway_model("A2")
    T = TestAlgebra.discrete(S)
    D = DomainStructure(S, T, delta=[1, 1], rho=[1, 1])
    rep = by_name(check_domain_axioms(D))
    assert rep["d1"].holds  # a <= 1 a by neutrality
    assert not rep["d2"].holds
    assert rep["d2"].witness["p"] == S.zero
    # the failing instance: dom(0 * 1) = 1 is not below 0
    assert not S.leq(1, S.zero)


def test_constant_zero_satisfies_d2_but_not_d1():
    S = conway_model("A2")
    T = TestAlgebra.discrete(S)
    D = DomainStructure(S, T, delta=[0, 0], rho=[0, 0])
    rep = by_name(check_domain_axioms(D))
    assert rep["d2"].holds  # dom is constantly the least test
    assert not rep["d1"].holds
    assert rep["d1"].witness == {"a": S.one}  # 1 <= 0 * 1 = 0 fails


def test_discrete_predomain_is_the_unique_solution():
    # enumerate every map from the carrier into {0, 1}: exactly one
    # satisfies both d1 and d2, and it is the computed one
    for nm in conway_names():
        S, D = predomain_of(nm)
        mem = (S.zero, S.one)
        good = []
        for cand in itertools.product(mem, repeat=S.n):
            d1 = all(S.leq(a, int(S.mul[cand[a], a])) for a in range(S.n))
            d2 = all(
                S.leq(cand[int(S.mul[p, a])], p) for p in mem for a in range(S.n)
            )
            if d1 and d2:
                good.append(cand)
        assert good == [tuple(int(v) for v in D.delta)], nm


# -- derived calculus --------------------------------------------------------------


def test_calculus_holds_on_all_builtins():
    for nm in conway_names():
        _, D = predomain_of(nm)
        rep = check_domain_calculus(D)
        assert all_hold(rep), (nm, [str(r) for r in failures(rep)])


def test_calculus_holds_on_relations():
    for n in (1, 2, 3):
        D = compute_predomain(rel_semiring(n), rel_tests(n))
        for rep in (check_domain_axioms(D), check_domain_calculus(D)):
            assert all_hold(rep), (n, [str(r) for r in failures(rep)])
        # relations are local, so nothing is skipped
        assert not [r for r in check_domain_calculus(D) if r.note]


def test_locality_gated_laws_are_skipped_without_dloc():
    for nm in ("A3_2", "A4_1"):
        _, D = predomain_of(nm)
        rep = by_name(check_domain_calculus(D))
        gated = (
            "image-compose-exact",
            "dom-compose-local",
            "cod-compose-local",
            "annihilation-via-dom-cod",
        )
        for law in gated:
            assert rep[law].holds
            assert rep[law].note == "not applicable: no locality"
        ungated = set(rep) - set(gated)
        assert all(rep[law].holds and not rep[law].note for law in ungated), nm


# -- integrality ---------------------------------------------------------------------


def test_integrality_split():
    for nm in conway_names():
        S = conway_model(nm)
        v = is_integral(S)
        if nm in ("A3_2", "A4_1"):
            a = S.index("a")
            assert not v.holds
            assert v.witness == {"a": a, "b": a}
            assert "a·a = 0" in v.note or "a·a = 0" in v.note
        else:
            assert v.holds


# -- converse --------------------------------------------------------------------------


def test_relational_converse_laws():
    for n in (1, 2, 3):
        rep = check_converse(rel_semiring(n))
        assert all_hold(rep), (n, [str(r) for r in failures(rep)])


def test_identity_converse_needs_a_modular_embedding():
    # taking a° = a is lawful exactly when every element sits below a a a
    for nm in conway_names():
        S = conway_model(nm)
        S2 = FiniteSemiring(
            S.carrier, S.add, S.mul, S.zero, S.one, star=S.star,
            conv=list(range(S.n)), name=nm,
        )
        rep = by_name(check_converse(S2))
        bad = [r.name for r in rep.values() if not r.holds]
        if nm in ("A3_2", "A4_1"):
            # a a a = 0 a = 0 cannot dominate a
            assert bad == ["conv-self-embedding"]
            assert rep["conv-self-embedding"].witness == {"a": S.index("a")}
        else:
            assert bad == []


def test_converse_requires_a_declared_table():
    with pytest.raises(ValueError):
        check_converse(conway_model("A2"))


def test_domain_codomain_swap_under_converse():
    for n in (1, 2, 3):
        D = compute_predomain(rel_semiring(n), rel_tests(n))
        rep = converse_duality_check(D)
        assert all_hold(rep)
        assert {r.name for r in rep} == {
            "dom-of-converse",
            "cod-of-converse",
            "preimage-via-converse",
            "image-via-converse",
        }


def test_duality_check_degrades_without_converse():
    _, D = predomain_of("A2")
    rep = converse_duality_check(D)
    assert len(rep) == 1
    assert rep[0].holds
    assert rep[0].note == "not applicable: no converse declared"


# -- construction guards -------------------------------------------------------------


def test_delta_table_is_validated():
    S = conway_model("A3_1")
    T = TestAlgebra.discrete(S)
    with pytest.raises(ValueError, match="length"):
        DomainStructure(S, T, delta=[0, 2], rho=[0, 2, 2])
    # index 1 is "a", not a member of the discrete test algebra
    with pytest.raises(ValueError, match="land in the test algebra"):
        DomainStructure(S, T, delta=[0, 1, 2], rho=[0, 2, 2])
    # values that are no carrier index at all, -1 among them, which would wrap as an array index
    for bad in ([0, 2, -1], [0, 2, 3]):
        with pytest.raises(ValueError, match="rho table must land in the test algebra"):
            DomainStructure(S, T, delta=[0, 2, 2], rho=bad)


def test_no_preserving_test_is_reported():
    S = conway_model("A2")
    T = TestAlgebra(S, [S.zero], {S.zero: S.zero})
    with pytest.raises(ValueError, match="no left-preserving test"):
        compute_predomain(S, T)


def test_preservers_without_least_element_are_reported():
    # drop 0 from the test set and pair the two atoms as fake complements:
    # every test preserves the empty relation but their meet leaves the set
    S = rel_semiring(2)
    e1, e2 = S.index("{(1,1)}"), S.index("{(2,2)}")
    full_t = S.index("{(1,1),(2,2)}")
    T = TestAlgebra(S, [e1, e2, full_t], {e1: e2, e2: e1, full_t: full_t})
    with pytest.raises(ValueError, match="no least element"):
        compute_predomain(S, T)


# -- the atom surface ------------------------------------------------------------------


def assert_atom_surface_agrees(D):
    """atom_positions, test_from_positions, and the rows of preimage_rows and image_rows,
    name by position the atoms that atoms_below, preimage and image give."""
    atoms = D.atoms_below(D.test_one)
    assert [D.test_from_positions([k]) for k in range(len(atoms))] == atoms
    assert D.test_from_positions([]) == D.test_zero
    for p in D.test_members():
        ks = D.atom_positions(p)
        assert [atoms[k] for k in ks] == D.atoms_below(p)
        assert D.test_from_positions(ks) == p
    for a in D.elements():
        pre, img = D.preimage_rows(a), D.image_rows(a)
        assert len(pre) == len(img) == len(atoms)
        for k, t in enumerate(atoms):
            assert [atoms[j] for j in pre[k]] == D.atoms_below(D.preimage(a, t))
            assert [atoms[j] for j in img[k]] == D.atoms_below(D.image(t, a))


def test_relations_and_the_builtin_predomains_carry_both_atomic_facts():
    structures = [rel_model(n) for n in (1, 2, 3)]
    structures += [compute_predomain(rel_semiring(n), rel_tests(n)) for n in (1, 2, 3)]
    structures += [predomain_of(name)[1] for name in conway_names()]
    for D in structures:
        assert {"atomic-preimage", "atomic-image"} <= D.laws, D.name


def test_atom_rows_need_their_fact():
    # dom(a) = 1 but dom(1) = 0 on A3_2 (0 < a < 1): dom is not additive, nor is cod
    S = conway_model("A3_2")
    D = DomainStructure(S, TestAlgebra.discrete(S), delta=[0, 2, 0], rho=[0, 2, 0])
    with pytest.raises(ValueError, match=r"^domain\(A3_2\) lacks atomic-preimage: atom rows do not give a:p$"):
        D.preimage_rows(S.one)
    with pytest.raises(ValueError, match=r"^domain\(A3_2\) lacks atomic-image: atom rows do not give p:a$"):
        D.image_rows(S.one)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_atom_surface_on_every_relation(n):
    D = rel_model(n)
    assert_atom_surface_agrees(D)
    # the rows are the relation's own lists, handed over without a copy
    for a in D.elements():
        assert D.preimage_rows(a) is a.predecessors and D.image_rows(a) is a.succ


@pytest.mark.parametrize("name", [*conway_names(), "rel2", "rel3"])
def test_atom_surface_on_predomains(name):
    if name.startswith("rel"):
        n = int(name[3:])
        D = compute_predomain(rel_semiring(n), rel_tests(n))
    else:
        _, D = predomain_of(name)
    assert_atom_surface_agrees(D)
