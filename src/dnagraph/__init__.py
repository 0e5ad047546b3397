"""dnagraph: certify digraph families as DNA graphs via overlap labelings.

The library builds the glued-cycle digraph families (chorded dicycles,
two- and three-cycle gluings, ladders), emits their closed-form
quasi-(alpha,k)-labelings, lifts those through iterated line digraphs into
full labelings over the four-letter nucleotide alphabet, verifies every
certificate mechanically, and cross-checks the constructions against an
independent backtracking search oracle.
"""

from .constructions import (CHORDED_STRINGS, CONSTRUCTIONS, ConstructionResult,
                            label_chorded_cycle, label_double_cycle, label_infinity_c3,
                            label_infinity_even, label_infinity_odd, label_propeller,
                            label_windmill)
from .digraph import (FAMILIES, Digraph, chords_of, format_digraph_text, isomorphic,
                      line_digraph, make_chorded_cycle, make_dicycle, make_dipath,
                      make_infinity, make_ladder, make_propeller3, make_windmill,
                      parse_digraph_text, to_dot, WALK_SEP)
from .errors import (ConstructionFailure, DnaGraphError, InvalidInputError,
                     InvalidParameterError, ResourceLimitError, UnsupportedParameterError)
from .labeling import (Label, Labeling, find_dna_violation, find_full_violation,
                       find_quasi_violation, format_label, format_labeling, overlap_merge,
                       parse_labeling)
from .lift import LiftedLabeling, lift_m, lift_once
from .search import (BUDGET_EXCEEDED, ConjectureRow, SAT, SearchConfig, SearchOutcome,
                     UNSAT, check_middle_vertex_lemma, explore_conjecture, find_labeling)
from .sequencing import (NUCLEOTIDES, count_eulerian_paths, eulerian_path, hamiltonian_path,
                         pevzner_arc_labels, sample_pevzner_graph, spell_eulerian, to_nucleotides)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_EXCEEDED", "CHORDED_STRINGS", "CONSTRUCTIONS", "ConjectureRow", "ConstructionFailure",
    "ConstructionResult", "Digraph", "DnaGraphError", "FAMILIES", "InvalidInputError",
    "InvalidParameterError", "Label", "Labeling", "LiftedLabeling", "NUCLEOTIDES",
    "ResourceLimitError", "SAT", "SearchConfig", "SearchOutcome", "UNSAT",
    "UnsupportedParameterError", "WALK_SEP", "check_middle_vertex_lemma", "chords_of",
    "count_eulerian_paths", "eulerian_path", "explore_conjecture", "find_dna_violation",
    "find_full_violation", "find_labeling", "find_quasi_violation", "format_digraph_text",
    "format_label", "format_labeling", "hamiltonian_path", "isomorphic",
    "label_chorded_cycle", "label_double_cycle", "label_infinity_c3", "label_infinity_even",
    "label_infinity_odd", "label_propeller", "label_windmill", "lift_m", "lift_once",
    "line_digraph", "make_chorded_cycle", "make_dicycle", "make_dipath", "make_infinity",
    "make_ladder", "make_propeller3", "make_windmill", "overlap_merge", "parse_digraph_text",
    "parse_labeling", "pevzner_arc_labels", "sample_pevzner_graph", "spell_eulerian", "to_dot",
    "to_nucleotides",
]
