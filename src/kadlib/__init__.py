"""Kleene algebra with domain over finite and parameterized models.

The package is organized around a value layer of reports, terms and laws
(laws), relations and the model interface (models), generic reachability
(reach), termination analysis (termination) and a propositional Hoare-logic
checker (hoare), and a table layer: dense-table semirings and their law
scanner (algebra), domain/codomain and the law runner (domain), and the
other concrete models (zoo).  The ``kad`` console entry point in cli exposes
the same machinery on workspaces stored as JSON.

Importing kadlib loads the value layer only; each name of the table layer
imports its module on first read (PEP 562).
"""

import importlib

from .laws import LawReport, Term, Verdict, all_hold, failures, var
from .models import ModelHandle, Relation, RelModel, StarUnsupportedError, rel_model, rel_semiring
from .reach import ReachResult, check_star_preimage_laws, reach_efficient, reach_naive
from .termination import TerminationReport, is_loebian, is_noetherian, is_well_founded, termination_report, transitive_closure
from .hoare import Cond, HoareTriple, Prim, ProofTree, Seq, While, check_hoare_rules, check_triple, denote, validate_proof, wlp

# name: the module of the table layer that defines it
_LAZY = {
    **dict.fromkeys(
        "FiniteSemiring TestAlgebra check_isemiring check_kleene check_test_algebra check_equation eval_term opposite".split(),
        "algebra",
    ),
    **dict.fromkeys(
        "DomainStructure compute_predomain compute_precodomain check_domain_axioms check_domain_calculus check_converse"
        " converse_duality_check is_integral".split(),
        "domain",
    ),
    **dict.fromkeys(
        "conway_model conway_names tropical_model maxplus_model bounded_language_model bounded_path_model matrix_semiring"
        " matrix_star predicate_transformer_model materialize".split(),
        "zoo",
    ),
}

__all__ = [
    *"LawReport Term Verdict all_hold failures var ModelHandle Relation RelModel StarUnsupportedError rel_model".split(),
    *"rel_semiring ReachResult check_star_preimage_laws reach_efficient reach_naive TerminationReport is_loebian".split(),
    *"is_noetherian is_well_founded termination_report transitive_closure Cond HoareTriple Prim ProofTree Seq While".split(),
    *"check_hoare_rules check_triple denote validate_proof wlp".split(),
    *_LAZY,
]


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
