"""Kleene algebra with domain over finite and parameterized models.

The package is organized around dense-table semirings (algebra), a zoo of
concrete models (models), domain/codomain and image/preimage operators
(domain), generic reachability (reach), termination analysis (termination)
and a propositional Hoare-logic checker (hoare).  The ``kad`` console entry
point in cli exposes the same machinery on workspaces stored as JSON.
"""

from .algebra import (
    FiniteSemiring,
    TestAlgebra,
    LawReport,
    Verdict,
    Term,
    var,
    check_isemiring,
    check_kleene,
    check_test_algebra,
    check_equation,
    eval_term,
    opposite,
    all_hold,
    failures,
)
from .models import (
    StarUnsupportedError,
    ModelHandle,
    Relation,
    RelModel,
    conway_model,
    conway_names,
    rel_model,
    rel_semiring,
    tropical_model,
    maxplus_model,
    bounded_language_model,
    bounded_path_model,
    matrix_semiring,
    matrix_star,
    predicate_transformer_model,
    materialize,
)
from .domain import (
    DomainStructure,
    compute_predomain,
    compute_precodomain,
    check_domain_axioms,
    check_domain_calculus,
    check_converse,
    converse_duality_check,
    is_integral,
)
from .reach import ReachResult, reach_naive, reach_efficient, check_star_preimage_laws
from .termination import (
    TerminationReport,
    is_noetherian,
    is_well_founded,
    is_loebian,
    transitive_closure,
    termination_report,
)
from .hoare import (
    Prim,
    Seq,
    Cond,
    While,
    HoareTriple,
    ProofTree,
    denote,
    check_triple,
    validate_proof,
    wlp,
    check_hoare_rules,
)

__version__ = "0.1.0"
