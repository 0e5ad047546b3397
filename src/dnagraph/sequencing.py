"""Sequencing-by-hybridization pipeline on labeled digraphs.

Numeric labels translate to nucleotide strings (1, 2, 3, 4 -> A, C, G, T).
In the Pevzner view the k-mers sit on vertices and the target string is
spelled by an Eulerian path; its line digraph is the Lysov view, where the
merged (k+1)-mers sit on vertices and the same string is spelled by the
corresponding Hamiltonian path.  lift.lift_once builds that view: the
(k+1)-mer on each arc is the label the lift gives its line vertex.
"""

from __future__ import annotations

from collections import Counter

from .digraph import Digraph, _out_arcs
from .errors import InvalidInputError
from .labeling import Label, Labeling

NUCLEOTIDES = {1: "A", 2: "C", 3: "G", 4: "T"}

# count_eulerian_paths stops here; a count that reaches it is a lower bound
PATH_COUNT_CAP = 64


def nucleotide_string(label: Label) -> str:
    """Render one label, whose symbols must lie in 1..4."""
    try:
        return "".join(map(NUCLEOTIDES.__getitem__, label))
    except KeyError as exc:
        raise InvalidInputError(f"nucleotide rendering needs symbols 1..4, got {exc}") from None


def to_nucleotides(lab: Labeling) -> dict[str, str]:
    """Render every vertex label as a nucleotide string (needs alpha <= 4)."""
    if lab.alpha > 4:
        raise InvalidInputError(f"nucleotide rendering needs alpha <= 4, got {lab.alpha}")
    return {v: nucleotide_string(label) for v, label in lab.assignment.items()}


# ---------------------------------------------------------------------------
# Eulerian path (cycle splicing) and the Hamiltonian correspondence
# ---------------------------------------------------------------------------

def eulerian_path(d: Digraph, start: str | None = None) -> tuple[tuple[str, str], ...] | None:
    """An arc sequence using every arc exactly once, or None.

    Cycle splicing (Hierholzer), in time linear in the arcs.  Deterministic:
    out-arcs are consumed in arc order, so a fixed digraph plus a fixed
    start vertex always spells the same string.  When the degree imbalance
    forces a start vertex, a conflicting explicit start returns None rather
    than a path from somewhere else.  The arcs are d's name pairs, and
    hamiltonian_path reads the vertices of L(d) at their positions.
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
    counted by backtracking and truncated at PATH_COUNT_CAP.

    path is an Eulerian arc sequence of d, as eulerian_path returns it.
    Out-arcs are tried in arc order, and an arc u -> v is taken only when u
    has no other unused out-arc or v can still reach u over unused arcs; any
    other arc would strand u's remaining out-arcs.  So no branch ends in a
    dead end: each path counted costs at most one reachability search per
    arc, and the count stops at the cap.
    Reconstruction ambiguity is reported, not resolved: spelling functions
    always follow the given (deterministic) path.
    """
    tail, head, leaving = d._tail, d._head, _out_arcs(d)
    used = bytearray(len(head))

    def reaches(source: int, target: int) -> bool:
        """Whether target can be reached from source over unused arcs."""
        seen, stack = {source}, [source]
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for a in leaving[v]:
                if not used[a] and head[a] not in seen:
                    seen.add(head[a])
                    stack.append(head[a])
        return False

    trail: list[int] = []
    # choices[i] yields the untried out-arcs at the end of trail[:i]; an
    # explicit stack, because a trail can be longer than the recursion limit
    choices = [iter(leaving[d.vertices.index(path[0][0])])]
    count = 0
    while choices and count < PATH_COUNT_CAP:
        arc = None
        for a in choices[-1]:
            if not used[a]:
                used[a] = 1
                if all(map(used.__getitem__, leaving[tail[a]])) or reaches(head[a], tail[a]):
                    arc = a
                    break
                used[a] = 0
        if arc is None:
            choices.pop()
            if trail:
                used[trail.pop()] = 0
        elif len(trail) + 1 == len(head):
            count += 1
            used[arc] = 0
        else:
            trail.append(arc)
            choices.append(iter(leaving[head[arc]]))
    return count


def spell_eulerian(lab: Labeling, path: tuple[tuple[str, str], ...]) -> str:
    """Overlap-concatenate the vertex k-mers along an Eulerian arc sequence."""
    first = lab.label_of(path[0][0])
    return nucleotide_string(first + tuple(lab.label_of(head)[-1] for _, head in path))


def hamiltonian_path(d: Digraph, line: Digraph,
                     path: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
    """The vertices of line = L(d) at the positions of path's arcs in d: a
    Hamiltonian path of L(d) when path is an Eulerian path of d."""
    walk = dict(zip(d.arcs, line.vertices))
    return tuple(map(walk.__getitem__, path))


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
