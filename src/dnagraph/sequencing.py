"""Sequencing-by-hybridization pipeline on labeled digraphs.

Numeric labels translate to nucleotide strings (1, 2, 3, 4 -> A, C, G, T).
In the Pevzner view the k-mers sit on vertices and the target string is
spelled by an Eulerian path; its line digraph is the Lysov view, where the
merged (k+1)-mers sit on vertices and the same string is spelled by the
corresponding Hamiltonian path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .digraph import Digraph, _out_arcs, _walk_join
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
    names, tail, head = d.vertices, d._tail, d._head
    if not tail or (start is not None and start not in names):
        return None
    outs, ins = Counter(tail), Counter(head)  # degrees, by vertex index
    excess = [outs[v] - ins[v] for v in range(len(names))]
    plus = [v for v, e in enumerate(excess) if e == 1]
    # the excesses sum to zero, so when each is within 1, every +1 has its -1
    if len(plus) > 1 or any(abs(e) > 1 for e in excess):
        return None
    if plus:
        begin = plus[0]
        if start is not None and start != names[begin]:
            return None
    else:
        # the first vertex with an out-arc is the least tail index
        begin = names.index(start) if start is not None else min(tail)
        if outs[begin] == 0:
            return None

    leaving = list(map(iter, _out_arcs(d)))
    # each entry: a vertex of the walk and the arc id that reached it
    stack: list[tuple[int, int | None]] = [(begin, None)]
    trail: list[int] = []
    while stack:
        v, via = stack[-1]
        arc = next(leaving[v], None)
        if arc is not None:
            stack.append((head[arc], arc))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    if len(trail) != len(tail):
        return None  # arcs not mutually reachable
    return tuple(map(d.arcs.__getitem__, reversed(trail)))


def count_eulerian_paths(d: Digraph, path: tuple[tuple[str, str], ...]) -> int:
    """Number of distinct Eulerian arc sequences that start where path starts,
    counted by exhaustive backtracking and truncated at PATH_COUNT_CAP.

    path is an Eulerian arc sequence of d, as eulerian_path returns it.
    Reconstruction ambiguity is reported, not resolved: spelling functions
    always follow the given (deterministic) path.
    """
    head, leaving = d._head, _out_arcs(d)
    used: set[int] = set()
    trail: list[int] = []
    # choices[i] yields the untried out-arcs at the end of trail[:i]; an
    # explicit stack, because a trail can be longer than the recursion limit
    choices = [iter(leaving[d.vertices.index(path[0][0])])]
    count = 0
    while choices and count < PATH_COUNT_CAP:
        arc = next((a for a in choices[-1] if a not in used), None)
        if arc is None:
            choices.pop()
            if trail:
                used.remove(trail.pop())
        elif len(trail) + 1 == len(head):
            count += 1
        else:
            used.add(arc)
            trail.append(arc)
            choices.append(iter(leaving[head[arc]]))
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
