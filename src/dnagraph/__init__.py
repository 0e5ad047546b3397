"""dnagraph: certify digraph families as DNA graphs via overlap labelings.

The library builds the glued-cycle digraph families (chorded dicycles,
two- and three-cycle gluings, ladders), emits their closed-form
quasi-(alpha,k)-labelings, lifts those through iterated line digraphs into
full labelings over the four-letter nucleotide alphabet, verifies every
certificate mechanically, and cross-checks the constructions against an
independent backtracking search oracle.

Each public name below is imported from its module on first use (PEP 562),
so ``import dnagraph`` loads no module and a CLI verb loads only those it
runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {name: module for module, names in (
    ("constructions", "CHORDED_STRINGS CONSTRUCTIONS ConstructionResult label_chorded_cycle "
                      "label_double_cycle label_infinity_c3 label_infinity_even "
                      "label_infinity_odd label_propeller label_windmill"),
    ("digraph", "FAMILIES Digraph WALK_SEP format_digraph_text isomorphic "
                "line_digraph make_chorded_cycle make_dicycle make_dipath make_infinity "
                "make_ladder make_propeller3 make_windmill parse_digraph_text to_dot"),
    ("errors", "ConstructionFailure DnaGraphError InvalidInputError InvalidParameterError "
               "ResourceLimitError UnsupportedParameterError"),
    ("labeling", "Label Labeling find_dna_violation find_full_violation find_quasi_violation "
                 "format_label format_labeling overlap_merge parse_labeling"),
    ("lift", "lift_m lift_once"),
    ("search", "BUDGET_EXCEEDED ConjectureRow SAT SearchConfig SearchOutcome UNSAT "
               "check_middle_vertex_lemma explore_conjecture find_labeling"),
    ("sequencing", "NUCLEOTIDES count_eulerian_paths eulerian_path hamiltonian_path "
                   "sample_pevzner_graph spell_eulerian to_nucleotides"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
