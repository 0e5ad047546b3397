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


def lift_once(d: Digraph, lab: Labeling) -> tuple[Digraph, Labeling]:
    """One lift step: quasi-(alpha, k) on d -> full (alpha, k+1) on L(d), its
    vertex i labeled by the tail label of arc i of d, then the last symbol of
    the head label."""
    bad, codes = _quasi(d, lab)
    if bad is not None:
        raise InvalidInputError(f"lift needs a quasi-valid labeling: {bad}")
    lifted = line_digraph(d)
    shifted = list(map(mul, codes, repeat(lab.alpha)))
    last = list(map(mod, codes, repeat(lab.alpha)))
    merged = map(add, map(shifted.__getitem__, d._tail), map(last.__getitem__, d._head))
    lifted_lab = Labeling._trusted(lab.alpha, lab.k + 1, dict(zip(lifted.vertices, merged)))
    bad = find_full_violation(lifted, lifted_lab)
    if bad is not None:
        raise ConstructionFailure(f"lifted labeling is not full (library bug): {bad}")
    return lifted, lifted_lab


def lift_m(d: Digraph, lab: Labeling, m: int) -> tuple[Digraph, Labeling]:
    """Apply lift_once m times (m >= 1), refusing a step that would build more
    than LINE_VERTEX_CAP vertices."""
    if m < 1:
        raise InvalidParameterError("lift count m must be >= 1")
    for _ in range(m):
        if d.arc_count > LINE_VERTEX_CAP:
            raise ResourceLimitError(
                f"next lift would create {d.arc_count} vertices, cap is {LINE_VERTEX_CAP}")
        d, lab = lift_once(d, lab)
    return d, lab
