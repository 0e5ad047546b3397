"""The runtime is standard-library only: every module of the package imports
nothing but the standard library and the package itself.  The package
exports its public names lazily, and each CLI verb loads only the modules it
runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnagraph

PACKAGE = Path(dnagraph.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the imports in source that are neither standard
    library nor dnagraph; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [top for top in (m.split(".")[0] for m in modules)
                  if top not in sys.stdlib_module_names and top != "dnagraph"]
    return found


def test_guard_flags_a_foreign_import():
    source = "import os\nimport numpy as np\nfrom scipy.sparse import csr_matrix\nfrom . import digraph\n"
    assert foreign_imports(source) == ["numpy", "scipy"]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_package_parses_at_the_oldest_supported_python():
    # pyproject.toml requires Python >= 3.10: no module may use later syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))


EXPORTS = [
    "BUDGET_EXCEEDED", "CHORDED_STRINGS", "CONSTRUCTIONS", "ConjectureRow", "ConstructionFailure",
    "ConstructionResult", "Digraph", "DnaGraphError", "FAMILIES", "InvalidInputError",
    "InvalidParameterError", "Label", "Labeling", "NUCLEOTIDES",
    "ResourceLimitError", "SAT", "SearchConfig", "SearchOutcome", "UNSAT",
    "UnsupportedParameterError", "WALK_SEP", "check_middle_vertex_lemma",
    "count_eulerian_paths", "eulerian_path", "explore_conjecture", "find_dna_violation",
    "find_full_violation", "find_labeling", "find_quasi_violation", "format_digraph_text",
    "format_label", "format_labeling", "hamiltonian_path", "isomorphic",
    "label_chorded_cycle", "label_double_cycle", "label_infinity_c3", "label_infinity_even",
    "label_infinity_odd", "label_propeller", "label_windmill", "lift_m", "lift_once",
    "line_digraph", "make_chorded_cycle", "make_dicycle", "make_dipath", "make_infinity",
    "make_ladder", "make_propeller3", "make_windmill", "overlap_merge", "parse_digraph_text",
    "parse_labeling", "sample_pevzner_graph", "spell_eulerian", "to_dot",
    "to_nucleotides",
]


def test_export_table_keeps_the_public_names():
    assert sorted(dnagraph.__all__) == EXPORTS


def test_each_export_is_its_home_modules_object():
    for name in dnagraph.__all__:
        home = importlib.import_module(f"dnagraph.{dnagraph._HOME[name]}")
        assert getattr(dnagraph, name) is vars(home)[name], name


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from dnagraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS


def test_submodules_import_from_the_package():
    from dnagraph import cli
    assert cli is sys.modules["dnagraph.cli"]


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(dnagraph))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dnagraph.no_such_name
    assert not hasattr(dnagraph, "DEFAULT_NODE_BUDGET")


# Runs each argv through cli.main in a fresh interpreter and prints the
# package modules loaded by the import, then those each call added.
LOADS = """
import io, json, sys
from dnagraph import cli

def loaded():
    return {m.rpartition(".")[2] for m in sys.modules if m.split(".")[0] == "dnagraph"}

seen = [sorted(loaded())]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv, io.StringIO(), io.StringIO()) == 0, argv
    seen.append(sorted(loaded() - {m for step in seen for m in step}))
print(json.dumps(seen))
"""
CLI_MODULES = ["cli", "constructions", "digraph", "dnagraph", "errors", "labeling", "lift"]


def modules_loaded(tmp_path, *calls):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", LOADS, json.dumps(calls)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


LABEL = ["label", "--construction", "chorded-cycle", "--n", "6",
         "--out-digraph", "d.txt", "--out-labeling", "l.txt"]


def test_cli_import_loads_only_what_lift_and_verify_run(tmp_path):
    lift = ["lift", "--m", "2", "--digraph", "d.txt", "--labeling", "l.txt",
            "--out-digraph", "d2.txt", "--out-labeling", "l2.txt"]
    verify = ["verify", "--mode", "dna", "--digraph", "d2.txt", "--labeling", "l2.txt"]
    assert modules_loaded(tmp_path, LABEL, lift, verify) == [CLI_MODULES, [], [], []]


def test_search_loads_only_search(tmp_path):
    search = ["search", "--alpha", "4", "--k", "3", "--digraph", "d.txt"]
    assert modules_loaded(tmp_path, LABEL, search) == [CLI_MODULES, [], ["search"]]


def test_acceptance_loads_every_module(tmp_path):
    imported, added = modules_loaded(tmp_path, ["acceptance", "--only", "small-chain"])
    assert (imported, added) == (CLI_MODULES, ["acceptance", "search", "sequencing"])
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} | {"dnagraph"}
    assert set(imported + added) == modules and len(modules) == 10
