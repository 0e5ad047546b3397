"""Sequencing-by-hybridization pipeline on labeled digraphs.

Numeric labels translate to nucleotide strings (1, 2, 3, 4 -> A, C, G, T).
In the Pevzner view the k-mers sit on vertices and the target string is
spelled by an Eulerian path; its line digraph is the Lysov view, where the
merged (k+1)-mers sit on vertices and the same string is spelled by the
corresponding Hamiltonian path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .digraph import Digraph, _walk_join
from .errors import InvalidInputError
from .labeling import Label, Labeling, find_quasi_violation, overlap_merge

NUCLEOTIDES = {1: "A", 2: "C", 3: "G", 4: "T"}

# count_eulerian_paths stops here; a count that reaches it is a lower bound
PATH_COUNT_CAP = 64


def nucleotide_string(label: Label) -> str:
    return "".join(NUCLEOTIDES[s] for s in label)


def to_nucleotides(lab: Labeling) -> dict[str, str]:
    """Render every vertex label as a nucleotide string (needs alpha <= 4)."""
    if lab.alpha > 4:
        raise InvalidInputError(f"nucleotide rendering needs alpha <= 4, got {lab.alpha}")
    return {v: nucleotide_string(label) for v, label in lab.assignment.items()}


def pevzner_arc_labels(d: Digraph, lab: Labeling) -> dict[tuple[str, str], str]:
    """Label every arc with the (k+1)-mer merging its endpoint labels."""
    bad = find_quasi_violation(d, lab)
    if bad is not None:
        raise InvalidInputError(f"arc labels need a quasi-valid labeling: {bad}")
    labels = lab.assignment
    return {
        (tail, head): nucleotide_string(overlap_merge(labels[tail], labels[head]))
        for tail, head in d.arcs
    }


# ---------------------------------------------------------------------------
# Eulerian path (cycle splicing) and the Hamiltonian correspondence
# ---------------------------------------------------------------------------

def eulerian_path(d: Digraph, start: str | None = None) -> tuple[tuple[str, str], ...] | None:
    """An arc sequence using every arc exactly once, or None.

    Deterministic: out-arcs are consumed in insertion order, so a fixed
    digraph plus a fixed start vertex always spells the same string.  When
    the degree imbalance forces a start vertex, a conflicting explicit
    start returns None rather than a path from somewhere else.
    """
    if d.arc_count == 0:
        return None
    if start is not None and not d.has_vertex(start):
        return None
    plus = [v for v in d.vertices if d.out_degree(v) - d.in_degree(v) == 1]
    minus = [v for v in d.vertices if d.in_degree(v) - d.out_degree(v) == 1]
    balanced = all(abs(d.out_degree(v) - d.in_degree(v)) <= 1 for v in d.vertices)
    if not balanced or len(plus) > 1 or len(minus) > 1 or len(plus) != len(minus):
        return None
    if plus:
        forced = plus[0]
        if start is not None and start != forced:
            return None
        begin = forced
    else:
        begin = start if start is not None else next(v for v in d.vertices if d.out_degree(v) > 0)
        if d.out_degree(begin) == 0:
            return None

    cursor = {v: 0 for v in d.vertices}
    stack: list[tuple[str, tuple[str, str] | None]] = [(begin, None)]
    trail: list[tuple[str, str]] = []
    while stack:
        v, via = stack[-1]
        heads = d.out_neighbors(v)
        if cursor[v] < len(heads):
            w = heads[cursor[v]]
            cursor[v] += 1
            stack.append((w, (v, w)))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    if len(trail) != d.arc_count:
        return None  # arcs not mutually reachable
    trail.reverse()
    return tuple(trail)


def count_eulerian_paths(d: Digraph, path: tuple[tuple[str, str], ...]) -> int:
    """Number of distinct Eulerian arc sequences that start where path starts,
    counted by exhaustive backtracking and truncated at PATH_COUNT_CAP.

    path is an Eulerian arc sequence of d, as eulerian_path returns it.
    Reconstruction ambiguity is reported, not resolved: spelling functions
    always follow the given (deterministic) path.
    """
    used: set[tuple[str, str]] = set()
    trail: list[tuple[str, str]] = []
    # choices[i] yields the untried out-arcs at the end of trail[:i]; an
    # explicit stack, because a trail can be longer than the recursion limit
    start = path[0][0]
    choices = [zip(repeat(start), d.out_neighbors(start))]
    count = 0
    while choices and count < PATH_COUNT_CAP:
        arc = next((a for a in choices[-1] if a not in used), None)
        if arc is None:
            choices.pop()
            if trail:
                used.remove(trail.pop())
        elif len(trail) + 1 == d.arc_count:
            count += 1
        else:
            used.add(arc)
            trail.append(arc)
            choices.append(zip(repeat(arc[1]), d.out_neighbors(arc[1])))
    return count


@dataclass(frozen=True)
class Spectrum:
    """A reconstructed nucleotide string and the vertex walk that spelled it."""

    sequence: str
    source_path: tuple[str, ...]


def spell_eulerian(lab: Labeling, path: tuple[tuple[str, str], ...]) -> str:
    """Overlap-concatenate the vertex k-mers along an Eulerian arc sequence."""
    first = lab.label_of(path[0][0])
    out = nucleotide_string(first)
    for _, head in path:
        out += NUCLEOTIDES[lab.label_of(head)[-1]]
    return out


def hamiltonian_via_line(arc_labels: dict[tuple[str, str], str],
                         path: tuple[tuple[str, str], ...]) -> Spectrum:
    """Map an Eulerian arc sequence onto the Hamiltonian vertex sequence of
    the line digraph and spell the spectrum from the (k+1)-mers that
    pevzner_arc_labels put on those arcs."""
    vertices = tuple(_walk_join(tail, head) for tail, head in path)
    sequence = arc_labels[path[0]] + "".join(arc_labels[arc][-1] for arc in path[1:])
    return Spectrum(sequence=sequence, source_path=vertices)


# ---------------------------------------------------------------------------
# bundled demo instance
# ---------------------------------------------------------------------------

def sample_pevzner_graph() -> tuple[Digraph, Labeling]:
    """Five dinucleotide probes whose Eulerian walk from TA spells TACGACTA.

    Vertices are named by their own nucleotide rendering, so the numeric
    (4,2)-labeling and the display names tell the same story.
    """
    d = Digraph(
        ["TA", "AC", "CG", "CT", "GA"],
        [("TA", "AC"), ("AC", "CG"), ("AC", "CT"), ("CG", "GA"), ("GA", "AC"), ("CT", "TA")],
    )
    lab = Labeling(4, 2, {
        "TA": (4, 1),
        "AC": (1, 2),
        "CG": (2, 3),
        "CT": (2, 4),
        "GA": (3, 1),
    })
    return d, lab
