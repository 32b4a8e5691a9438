"""Kleene algebra with domain over finite and parameterized models.

The package is organized around a value layer of reports, terms and laws
(laws), relations and the model interface (models), generic reachability
(reach), termination analysis (termination) and a propositional Hoare-logic
checker (hoare), and a table layer: dense-table semirings and their law
scanner (algebra), domain/codomain and the law runner (domain), and the
other concrete models (zoo).  The ``kad`` console entry point in cli exposes
the same machinery on workspaces stored as JSON.

Importing kadlib loads the value layer only; the first read of a name of
the table layer, listed once in laws.TABLE_NAMES, loads that layer (PEP 562),
and kadlib.algebra, kadlib.domain and kadlib.zoo load on first read.
"""

from . import laws
from .laws import LawReport, Term, Verdict, all_hold, failures, var
from .models import ModelHandle, Relation, RelModel, StarUnsupportedError, rel_model, rel_semiring
from .reach import ReachResult, check_star_preimage_laws, reach_efficient, reach_naive
from .termination import TerminationReport, is_loebian, is_noetherian, is_well_founded, termination_report, transitive_closure
from .hoare import Cond, HoareTriple, Prim, ProofTree, Seq, While, check_hoare_rules, check_triple, denote, validate_proof, wlp

__all__ = [
    *"LawReport Term Verdict all_hold failures var ModelHandle Relation RelModel StarUnsupportedError rel_model".split(),
    *"rel_semiring ReachResult check_star_preimage_laws reach_efficient reach_naive TerminationReport is_loebian".split(),
    *"is_noetherian is_well_founded termination_report transitive_closure Cond HoareTriple Prim ProofTree Seq While".split(),
    *"check_hoare_rules check_triple denote validate_proof wlp".split(),
    *laws.TABLE_EXPORTS,
]
__getattr__ = laws.table_getattr(__name__)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
