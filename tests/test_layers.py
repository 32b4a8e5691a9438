"""The split between the value layer and the table layer, as the package, the benchmark and users see it.

kadlib's value layer (laws, models' relations, reach, termination, hoare and
cli) loads on import; the table layer (algebra, domain, zoo) loads where a
name of it is first read.  These tests pin what that must not change: every
public name, the names cli and the benchmark read, and where the caches live.
The structural checks read the sources themselves: one ladder decides every
law, only the catalogue writes the law registries, only models.py reads row
masks, termination leaves listing to laws._instances, and no module imports a
name it never uses.  Each is also shown to flag the violations planted in it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import kadlib

ROOT = Path(kadlib.__file__).parents[2]

# every name kadlib/__init__.py imported, by the module it imported it from, before the table layer loaded lazily
PUBLIC = {
    "algebra": "FiniteSemiring TestAlgebra LawReport Verdict Term var check_isemiring check_kleene check_test_algebra"
    " check_equation eval_term opposite all_hold failures",
    "models": "StarUnsupportedError ModelHandle Relation RelModel conway_model conway_names rel_model rel_semiring"
    " tropical_model maxplus_model bounded_language_model bounded_path_model matrix_semiring matrix_star"
    " predicate_transformer_model materialize",
    "domain": "DomainStructure compute_predomain compute_precodomain check_domain_axioms check_domain_calculus"
    " check_converse converse_duality_check is_integral",
    "reach": "ReachResult reach_naive reach_efficient check_star_preimage_laws",
    "termination": "TerminationReport is_noetherian is_well_founded is_loebian transitive_closure termination_report",
    "hoare": "Prim Seq Cond While HoareTriple ProofTree denote check_triple validate_proof wlp check_hoare_rules",
}

# the names the tests, demos and the benchmark read from models and algebra, and every name cli imported
OLD_HOMES = {
    "cli": "FiniteSemiring TestAlgebra _Record check_isemiring check_kleene check_test_algebra format_witness"
    " check_converse check_domain_axioms check_domain_calculus compute_predomain converse_duality_check Cond HoareTriple"
    " Prim ProofTree Seq TAnd TFalse TNot TOr TRef TStates TTrue While _preorder check_triple validate_proof Relation"
    " conway_model rel_model rel_semiring rel_tests reach_efficient reach_naive termination_report",
    "models": "ModelHandle Relation RelModel StarUnsupportedError bounded_language_model bounded_path_model"
    " check_sampled_laws conway_model conway_names materialize matrix_semiring matrix_star maxplus_model"
    " predicate_transformer_model rel_model rel_semiring rel_tests tropical_model _bit_positions _power_sums _relations"
    " _rel_materialized",
    "algebra": "FiniteSemiring Law LawReport TestAlgebra Term Verdict all_hold check_equation check_isemiring check_kleene"
    " check_test_algebra eval_term failures one_term zero_term top_term opposite star var ISEMIRING_LAWS KLEENE_LAWS"
    " TEST_LAWS check_laws compl conv cod dom eq leq format_witness _Scanner _Scalar _generators _associative _CHUNK"
    " _CERTIFICATES _TABLE_LAWS _ISEMIRING_NAMES _REDUCTIONS _rewrite _certified _powers_below_star _induction",
}


def test_every_public_name_is_reachable_four_ways():
    star: dict = {}
    exec("from kadlib import *", star)
    listed = dir(kadlib)
    for module, names in PUBLIC.items():
        for name in names.split():
            value = getattr(kadlib, name)
            exec(f"from kadlib import {name} as imported", star)
            assert star.pop("imported") is value, name
            assert getattr(importlib.import_module(f"kadlib.{module}"), name) is value, name
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert star.get(name) is value, name
            assert name in listed, name


def test_names_read_from_models_algebra_and_cli_still_import():
    for module, names in OLD_HOMES.items():
        home = importlib.import_module(f"kadlib.{module}")
        for name in names.split():
            exec(f"from kadlib.{module} import {name} as imported", {})
            assert getattr(home, name) is not None, (module, name)


# kadlib.__all__, pinned in order: where the table layer's names are listed must not change what kadlib exports
PARENT_ALL = (
    "LawReport Term Verdict all_hold failures var ModelHandle Relation RelModel StarUnsupportedError rel_model rel_semiring"
    " ReachResult check_star_preimage_laws reach_efficient reach_naive TerminationReport is_loebian is_noetherian"
    " is_well_founded termination_report transitive_closure Cond HoareTriple Prim ProofTree Seq While check_hoare_rules"
    " check_triple denote validate_proof wlp FiniteSemiring TestAlgebra check_isemiring check_kleene check_test_algebra"
    " check_equation eval_term opposite DomainStructure compute_predomain compute_precodomain check_domain_axioms"
    " check_domain_calculus check_converse converse_duality_check is_integral conway_model conway_names tropical_model"
    " maxplus_model bounded_language_model bounded_path_model matrix_semiring matrix_star predicate_transformer_model"
    " materialize"
).split()
TABLE_MODULES = ("kadlib.algebra", "kadlib.catalogue", "kadlib.domain", "kadlib.zoo")


def test_every_table_name_reads_as_its_home_modules_object():
    import kadlib.cli
    import kadlib.models
    from kadlib.laws import TABLE_NAMES

    for name, home in TABLE_NAMES.items():
        value = getattr(importlib.import_module(f"kadlib.{home}"), name)
        assert value.__module__ == f"kadlib.{home}", name
        for module in (kadlib, kadlib.models, kadlib.cli):
            assert getattr(module, name) is value, (module.__name__, name)
    for home in set(TABLE_NAMES.values()):
        assert getattr(kadlib, home) is sys.modules[f"kadlib.{home}"]


def test_kadlibs_listed_names_are_unchanged():
    assert kadlib.__all__ == PARENT_ALL
    # dir also names the value layer's modules, which import kadlib binds; nothing else
    listed = fresh("import json, kadlib; print(json.dumps(dir(kadlib)))")
    assert [name for name in listed if not name.startswith("_")] == sorted(
        [*PARENT_ALL, "hoare", "laws", "models", "reach", "termination"]
    )


def test_a_table_module_read_on_kadlib_loads_on_first_read():
    found = fresh("import json, sys, kadlib; print(json.dumps([kadlib.zoo is sys.modules['kadlib.zoo'], kadlib.domain.__name__]))")
    assert found == [True, "kadlib.domain"]


UNLISTED_PROBE = """
import json, sys
import kadlib, kadlib.cli, kadlib.models
refused = []
for module in (kadlib, kadlib.models, kadlib.cli):
    for name in ("no_such_name", "catalogue", "np", "cache_clear", "__wrapped__", "zoo", "run_laws", "_CERTIFICATES"):
        if module is kadlib and name == "zoo":
            continue
        try:
            getattr(module, name)
        except AttributeError as e:
            refused.append(str(e))
def loaded():
    return sorted(name for name in sys.modules if name in {*TABLE_MODULES, "numpy"})
before = loaded()
kadlib.FiniteSemiring
print(json.dumps({"refused": refused, "loaded": before, "after_a_listed_name": loaded()}))
"""


def test_a_name_outside_the_table_layers_list_is_refused_and_loads_nothing():
    found = fresh(f"TABLE_MODULES = {TABLE_MODULES!r}" + UNLISTED_PROBE)
    assert found["loaded"] == []
    # a listed name loads the whole layer, as kad check does, so the bench's tracer finds zoo's functions to wrap
    assert found["after_a_listed_name"] == sorted(TABLE_MODULES)
    assert len(found["refused"]) == 3 * 8 - 1
    assert "module 'kadlib.models' has no attribute 'zoo'" in found["refused"]
    assert "module 'kadlib.cli' has no attribute 'no_such_name'" in found["refused"]


def test_the_transitive_closure_of_a_relation_loads_no_table_module():
    code = (
        "import json, sys\n"
        "from kadlib.models import Relation, rel_model\n"
        "from kadlib.termination import transitive_closure\n"
        "plus = transitive_closure(rel_model(3), Relation.from_pairs(3, [(1, 2), (2, 3)]))\n"
        f"print(json.dumps([sorted(plus.pairs()), sorted(set(sys.modules) & {{*{TABLE_MODULES!r}, 'numpy'}})]))"
    )
    assert fresh(code) == [[[1, 2], [1, 3], [2, 3]], []]


def test_the_moved_names_are_their_defining_modules_objects():
    # algebra re-exports the catalogue's registries and models the table models: the same objects, so patching one
    # patches both
    import kadlib.algebra
    import kadlib.catalogue
    import kadlib.models
    import kadlib.zoo

    assert kadlib.algebra._CERTIFICATES is kadlib.catalogue._CERTIFICATES
    assert kadlib.algebra._TABLE_LAWS is kadlib.catalogue._TABLE_LAWS
    assert kadlib.models.materialize is kadlib.zoo.materialize
    assert kadlib.models.conway_model is kadlib.zoo.conway_model


# -- structural checks: each reads the library's sources, and flags every violation planted in it --------------------

SRC = ROOT / "src" / "kadlib"


def sources(*skip: str) -> dict[str, str]:
    """The source of every library module, by file name, but those named in skip."""
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name not in skip}


def name_of(node) -> str | None:
    """The name a bare-name or an attribute node stands for; None for any other node."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def reads(source: str, names: set, inside=()) -> list[int]:
    """The lines of source that read one of names (a bare name or an attribute) or import it, outside the functions
    named in inside.  A def, a binding, a docstring and a comment are not reads."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in inside for node in ast.walk(fn)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed
        and (isinstance(getattr(node, "ctx", None), ast.Load) and name_of(node) in names
             or isinstance(node, (ast.Import, ast.ImportFrom)) and any(alias.name in names for alias in node.names))
    )


def unused_imports(source: str) -> list[str]:
    """The names source imports (the first part of a dotted import) that it never reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        const.value for node in ast.walk(tree) if isinstance(node, ast.Assign) and "__all__" in map(name_of, node.targets)
        for const in ast.walk(node.value) if isinstance(const, ast.Constant)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_library_module_imports_a_name_it_never_uses():
    """An unused import is a leftover of removed code; __init__.py imports only to re-export."""
    assert {name: found for name, source in sources("__init__.py").items() if (found := unused_imports(source))} == {}
    planted = ["import math", "import os.path", "from .laws import Law as L\nLaw = 1", "from typing import Optional\n__all__ = ['Iterable']"]
    assert [source for source in planted if not unused_imports(source)] == []
    used = "from __future__ import annotations\nimport os.path\nfrom typing import Optional as O\nx: O[int] = os.sep\nfrom . import y\n__all__ = ['y']"
    assert unused_imports(used) == []


RUNGS = {"_certified", "_rewrite", "_REDUCTIONS"}


def test_one_ladder_decides_every_law():
    """The rungs _certified, _rewrite and _REDUCTIONS are read only inside algebra._decide, so that no caller decides a
    law by a ladder of its own."""
    assert {name: lines for name, source in sources().items() if (lines := reads(source, RUNGS, {"_decide"}))} == {}
    planted = [
        "def check(law, model, held):\n    return _rewrite(law, model, held)", "note = algebra._certified(law, held)",
        "needs, reduction = _REDUCTIONS[law.name]", "from .algebra import _REDUCTIONS as reductions",
        "def _decide_again(law):\n    return _certified(law, {})",
    ]
    assert [source for source in planted if not reads(source, RUNGS, {"_decide"})] == []
    ladder = "_REDUCTIONS = {}\ndef _rewrite(law):\n    'not _certified'  # nor _REDUCTIONS\ndef _decide(law):\n    return _rewrite(law) or _REDUCTIONS"
    assert reads(ladder, RUNGS, {"_decide"}) == []


REGISTRIES = {"_TABLE_LAWS", "_CERTIFICATES"}
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def registry_writes(source: str) -> list[int]:
    """The lines of source that bind, item-assign, delete from or call a mutating method of _TABLE_LAWS or
    _CERTIFICATES (a bare name or an attribute), or import either from elsewhere than catalogue."""
    found = []
    for node in ast.walk(ast.parse(source)):
        stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        written = stored and (name_of(node) in REGISTRIES or isinstance(node, ast.Subscript) and name_of(node.value) in REGISTRIES)
        written |= isinstance(node, ast.Attribute) and node.attr in MUTATORS and name_of(node.value) in REGISTRIES
        imported = {alias.asname or alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else set()
        written |= bool(imported & REGISTRIES) and node.module not in ("catalogue", "kadlib.catalogue")
        if written:
            found.append(node.lineno)
    return found


def test_only_the_catalogue_writes_the_law_registries():
    """Each registry is bound once, in catalogue.py, so which certificates exist never depends on which modules
    loaded; elsewhere they are imported from there and read."""
    assert {name: lines for name, source in sources("catalogue.py").items() if (lines := registry_writes(source))} == {}
    planted = [
        "_CERTIFICATES.update({})", "_TABLE_LAWS['x'] = 1", "del _CERTIFICATES['x']", "_TABLE_LAWS = {}",
        "_CERTIFICATES |= {}", "kadlib.algebra._TABLE_LAWS.setdefault('x', 1)", "from .laws import _CERTIFICATES",
    ]
    assert [line for line in planted if not registry_writes(line)] == []
    assert registry_writes("from .catalogue import _CERTIFICATES\n_CERTIFICATES.get('x')") == []


# the functions of models.py that may read the bit walker: atom_positions, the checked decoder of a test, and the two
# that walk a relation's mask
WALKER_READERS = {"atom_positions", "_from_mask", "_relations"}


def row_reads(source: str) -> list[int]:
    """The lines of source that read the bit walker _bit_positions or touch a .rows field."""
    fields = [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and node.attr == "rows"]
    return sorted({*reads(source, {"_bit_positions"}), *fields})


def test_every_test_mask_is_decoded_through_atom_positions():
    """No module but models.py reads the bit walker or a .rows field, so relations and tests can change representation
    there alone; inside it only atom_positions, _from_mask and _relations read the walker, so every reader of a test
    mask decodes it through atom_positions and its range check."""
    assert {name: lines for name, source in sources("models.py").items() if (lines := row_reads(source))} == {}
    assert reads(sources()["models.py"], {"_bit_positions"}, WALKER_READERS) == []
    planted = [
        "def test_name(self, p):\n    return _bit_positions(p)",
        "class RelModel:\n    def embed(self, p):\n        return set(_bit_positions(p))",
        "def atoms_below(self, p):\n    return [1 << k for k in models._bit_positions(p)]",
        "walk = _bit_positions",
    ]
    assert [source for source in planted if not reads(source, {"_bit_positions"}, WALKER_READERS)] == []
    walker = "def atom_positions(self, p):\n    return _bit_positions(self._mask(p))\ndef _bit_positions(mask): pass"
    assert reads(walker, {"_bit_positions"}, WALKER_READERS) == []
    elsewhere = [
        "succ = [list(row) for row in a.rows]", "a.rows = ()", "from .models import _bit_positions",
        "from . import models\nstates = models._bit_positions(p)",
    ]
    assert [source for source in elsewhere if not row_reads(source)] == []
    assert row_reads("rows = D.preimage_rows(a)\nfor j in rows[k]:\n    pass") == []


def listing_decisions(source: str) -> list[int]:
    """The lines of source that read test_count (a bare name or an attribute) or compare anything with budget."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if name_of(node) == "test_count"
        or isinstance(node, ast.Compare) and any(name_of(sub) == "budget" for side in (node.left, *node.comparators) for sub in ast.walk(side))
    )


def test_termination_leaves_listing_to_instances():
    """termination.py reads no test_count and compares nothing with budget, so laws._instances alone decides whether a
    verdict searches the listed tests."""
    assert listing_decisions(sources()["termination.py"]) == []
    planted = [
        "if D.test_count() > budget:\n    pass", "big = budget < D.test_count()", "fits = 1 << D.n <= budget",
        "exact = self.budget == 0", "count = D.test_count",
    ]
    assert [source for source in planted if not listing_decisions(source)] == []
    assert listing_decisions("pool, listed = _instances(D, (True,), budget, samples, rng)") == []


def fresh(code: str):
    """The JSON that code prints in a fresh interpreter that imports kadlib from this checkout and the bench's modules."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


BENCH_PROBE = """
import json, sys
import kadlib, kadlib.cli
loaded = sorted(name for name in sys.modules if name.startswith("kadlib"))
import tracing, worker

def caches():
    return sorted(f"{c.__module__.rpartition('.')[2]}.{c.__qualname__}" for c in worker.kadlib_caches(kadlib))

first = caches()
walked = sorted(name for name in sys.modules if name.startswith(("kadlib", "numpy")))
checkers = {}
for name in worker.CAPTURED:
    fn = getattr(kadlib.cli, name)
    checkers[name] = [fn.__module__, fn.__name__, getattr(sys.modules[fn.__module__], name) is fn]
layers = {layer: getattr(kadlib, layer) is sys.modules[f"kadlib.{layer}"] for layer in tracing.TARGETS}
print(json.dumps({"loaded": loaded, "walked": walked, "caches": first, "checkers": checkers, "layers": layers, "all_caches": caches()}))
"""


def test_the_benchmark_finds_its_caches_checkers_and_layers():
    """The worker clears the caches it finds right after import, before it reads a checker through cli; so every cache
    lives in a module that import kadlib, kadlib.cli loads, and every checker and traced layer resolves from there."""
    found = fresh(BENCH_PROBE)
    assert found["loaded"] == [f"kadlib{m}" for m in ("", ".cli", ".hoare", ".laws", ".models", ".reach", ".termination")]
    # the walk reads every value of every kadlib module and loads nothing, numpy included: no module of the value
    # layer holds numpy or its stand-in, so the table layer compiles before numpy loads, as at a kad check start
    assert found["walked"] == found["loaded"]
    caches = ["cli._parser", "models._rel_materialized", "models._relations"]
    assert found["caches"] == caches
    # nothing the checkers loaded holds a cache the worker would not clear
    assert found["all_caches"] == caches
    homes = {"algebra": "check_isemiring check_kleene check_test_algebra", "reach": "reach_naive reach_efficient",
             "domain": "check_domain_axioms check_domain_calculus check_converse converse_duality_check",
             "termination": "termination_report", "hoare": "check_triple validate_proof"}
    want = {name: [f"kadlib.{module}", name, True] for module, names in homes.items() for name in names.split()}
    assert found["checkers"] == want
    assert found["layers"] == dict.fromkeys(["cli", "models", "algebra", "domain", "reach", "termination", "hoare"], True)
