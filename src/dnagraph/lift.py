"""Transport a quasi-labeling through the line digraph.

If D carries a quasi-(alpha, k)-labeling then L(D) carries a *full*
(alpha, k+1)-labeling: the arc u->v becomes the vertex labeled by the
overlap-merge of l(u) and l(v).  Iterating certifies every L^m(D) with
alpha <= 4 as a DNA graph.  The output is re-verified on every step even
though the construction is guaranteed; a failure here is a library bug,
which makes the guarantee itself a permanent regression check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mod, mul

from .digraph import Digraph, line_digraph
from .errors import ConstructionFailure, InvalidInputError, InvalidParameterError, ResourceLimitError
from .labeling import Labeling, _quasi, find_full_violation

LINE_VERTEX_CAP = 100_000


@dataclass(frozen=True)
class LiftedLabeling:
    """The final pair of m lift steps.

    vertex_counts records |V| of every stage (base first), so growth claims
    can be checked without retaining the intermediate digraphs.
    """

    result_digraph: Digraph
    result_labeling: Labeling
    vertex_counts: tuple[int, ...]


def _merge_line(d: Digraph, lab: Labeling, codes: list[int]) -> tuple[Digraph, Labeling]:
    """L(d), its vertex i labeled by the tail label of arc i of d, then the last symbol
    of the head label; codes are lab's in vertex order, checked to overlap on every arc."""
    lifted = line_digraph(d)
    shifted = list(map(mul, codes, repeat(lab.alpha)))
    last = list(map(mod, codes, repeat(lab.alpha)))
    merged = map(add, map(shifted.__getitem__, d._tail), map(last.__getitem__, d._head))
    return lifted, Labeling._trusted(lab.alpha, lab.k + 1, dict(zip(lifted.vertices, merged)))


def lift_once(d: Digraph, lab: Labeling) -> tuple[Digraph, Labeling]:
    """One lift step: quasi-(alpha, k) on d -> full (alpha, k+1) on L(d)."""
    bad, codes = _quasi(d, lab)
    if bad is not None:
        raise InvalidInputError(f"lift needs a quasi-valid labeling: {bad}")
    lifted, lifted_lab = _merge_line(d, lab, codes)
    bad = find_full_violation(lifted, lifted_lab)
    if bad is not None:
        raise ConstructionFailure(f"lifted labeling is not full (library bug): {bad}")
    return lifted, lifted_lab


def lift_m(d: Digraph, lab: Labeling, m: int) -> LiftedLabeling:
    """Apply lift_once m times (m >= 1), refusing a step that would build more
    than LINE_VERTEX_CAP vertices."""
    if m < 1:
        raise InvalidParameterError("lift count m must be >= 1")
    counts = [d.vertex_count]
    cur_d, cur_lab = d, lab
    for _ in range(m):
        if cur_d.arc_count > LINE_VERTEX_CAP:
            raise ResourceLimitError(
                f"next lift would create {cur_d.arc_count} vertices, cap is {LINE_VERTEX_CAP}")
        cur_d, cur_lab = lift_once(cur_d, cur_lab)
        counts.append(cur_d.vertex_count)
    return LiftedLabeling(result_digraph=cur_d, result_labeling=cur_lab,
                          vertex_counts=tuple(counts))
