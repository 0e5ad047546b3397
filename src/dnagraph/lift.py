"""Transport a quasi-labeling through the line digraph.

If D carries a quasi-(alpha, k)-labeling then L(D) carries a *full*
(alpha, k+1)-labeling: the arc u->v becomes the vertex labeled by the
overlap-merge of l(u) and l(v), which is Pevzner's label of that arc.
Iterating certifies every L^m(D) with alpha <= 4 as a DNA graph.  The
output is re-verified on every step even though the construction is
guaranteed; a failure here is a library bug, which makes the guarantee
itself a permanent regression check.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mod, mul

from .digraph import Digraph, line_digraph
from .errors import ConstructionFailure, InvalidInputError, InvalidParameterError, ResourceLimitError
from .labeling import Labeling, _quasi, find_full_violation

LINE_VERTEX_CAP = 100_000


def _check_quasi(d: Digraph, lab: Labeling) -> list[int]:
    """The codes of lab in d's vertex order, if lab is quasi-valid on d."""
    bad, codes = _quasi(d, lab)
    if bad is not None:
        raise InvalidInputError(f"lift needs a quasi-valid labeling: {bad}")
    return codes


def lift_once(d: Digraph, lab: Labeling) -> tuple[Digraph, Labeling]:
    """One lift step: quasi-(alpha, k) on d -> full (alpha, k+1) on L(d), its
    vertex i labeled by the tail label of arc i of d, then the last symbol of
    the head label."""
    codes = _check_quasi(d, lab)
    lifted = line_digraph(d)
    last = list(map(mod, codes, repeat(lab.alpha)))
    merged = map(add, map(mul, map(codes.__getitem__, d._tail), repeat(lab.alpha)),
                 map(last.__getitem__, d._head))
    lifted_lab = Labeling._trusted(lab.alpha, lab.k + 1, dict(zip(lifted.vertices, merged)))
    del codes, last  # the self-check needs the room
    bad = find_full_violation(lifted, lifted_lab)
    if bad is not None:
        raise ConstructionFailure(f"lifted labeling is not full (library bug): {bad}")
    return lifted, lifted_lab


def line_vertex_counts(d: Digraph, m: int) -> list[int]:
    """|V(L^j d)| for j = 1..m, up to the first count over LINE_VERTEX_CAP.

    L^j(d) has a vertex for each walk of j arcs in d, so its count is
    1^T A^j 1 for the adjacency matrix A: each step adds, for every arc
    t -> h, the walks from h to those from t, in O(|A|)."""
    walks = [1] * d.vertex_count  # walks of j arcs from each vertex, j = 0 first
    counts: list[int] = []
    for _ in range(m):
        longer = [0] * d.vertex_count
        for t, h in zip(d._tail, d._head):
            longer[t] += walks[h]
        walks = longer
        counts.append(sum(walks))
        if counts[-1] > LINE_VERTEX_CAP:
            break
    return counts


def lift_m(d: Digraph, lab: Labeling, m: int) -> tuple[Digraph, Labeling]:
    """Apply lift_once m times (m >= 1).  A lift that would build more than
    LINE_VERTEX_CAP vertices at some step is refused before any step is
    built; each built step's vertex count is checked against the count
    predicted for it."""
    if m < 1:
        raise InvalidParameterError("lift count m must be >= 1")
    counts = line_vertex_counts(d, m)
    if counts[-1] > LINE_VERTEX_CAP:
        _check_quasi(d, lab)  # a bad labeling is reported before the cap
        raise ResourceLimitError(
            f"next lift would create {counts[-1]} vertices, cap is {LINE_VERTEX_CAP}")
    for count in counts:
        d, lab = lift_once(d, lab)
        if d.vertex_count != count:
            raise ConstructionFailure(
                f"lift built {d.vertex_count} vertices, {count} predicted (library bug)")
    return d, lab
