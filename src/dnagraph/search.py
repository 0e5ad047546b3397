"""Backtracking oracle for (quasi-)(alpha,k)-labelings of small digraphs.

Finding such a labeling for an arbitrary digraph is NP-complete, so this
is an exhaustive desk-scale tool: it validates the closed-form
constructions independently, certifies small negative results, and settles
the ladder family at desk scale.  Vertices are decided in maximum-cardinality
order (Tarjan & Yannakakis, SIAM J. Comput. 1984): the next vertex is the
undecided one with the most decided in- and out-neighbors, so a new vertex
usually has its prefix and suffix pinned by decided labels and short cycles
such as the squares of a ladder close, and get refuted, as early as possible.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .digraph import Digraph, make_ladder, middle_vertices
from .errors import ConstructionFailure, InvalidParameterError, ResourceLimitError
from .labeling import Labeling, find_full_violation, find_quasi_violation

DEFAULT_NODE_BUDGET = 10 ** 8
SEARCH_SIZE_CAP = 40

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass(frozen=True)
class SearchConfig:
    alpha: int
    k: int
    mode: str = "quasi"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.alpha < 2:
            raise InvalidParameterError("search needs alpha >= 2")
        if self.k < 2:
            raise InvalidParameterError("search needs k >= 2")
        if self.mode not in ("quasi", "full"):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if self.node_budget <= 0:
            raise InvalidParameterError("node budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    certificate: Labeling | None
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


def _vertex_order(d: Digraph) -> list[str]:
    """Decision order: start at the first vertex of maximum out-degree, then
    take the undecided vertex with the most decided in- and out-neighbors,
    ties going to the vertex whose count rose last, then to vertex order."""
    weight = dict.fromkeys(d.vertices, 0)  # undecided vertices, in vertex order
    touched = dict.fromkeys(d.vertices, -1)
    v = max(d.vertices, key=d.out_degree)
    order: list[str] = []
    for step in range(d.vertex_count):
        if step:
            v = max(weight, key=lambda u: (weight[u], touched[u]))  # first of equals wins
        order.append(v)
        del weight[v]
        for w in (*d.out_neighbors(v), *d.in_neighbors(v)):
            if w in weight:
                weight[w] += 1
                touched[w] = step
    return order


def _canonical_first_labels(alpha: int, k: int) -> Iterator[int]:
    """Codes of the labels whose symbols appear in first-occurrence order
    1, 2, 3, ..., in increasing order, made one at a time.

    Labelings are closed under alphabet permutation, so restricting the
    first decided vertex to these patterns divides the tree by up to
    alpha! without losing completeness.
    """
    def extend(code: int, used: int, left: int) -> Iterator[int]:
        # code holds the symbols made so far, used of them distinct; left more to come
        if not left:
            yield code
            return
        for z in range(min(alpha, used + 1)):
            yield from extend(code * alpha + z, max(used, z + 1), left - 1)

    return extend(0, 1, k - 1)


def find_labeling(d: Digraph, cfg: SearchConfig) -> SearchOutcome:
    """Exhaustive (up to budget) search for a quasi or full (alpha,k)-labeling.

    SAT always comes with a certificate that has been re-checked by the
    matching verifier; UNSAT is only reported after the whole tree was
    exhausted, never on budget exhaustion.
    """
    if d.vertex_count > SEARCH_SIZE_CAP:
        raise ResourceLimitError(f"search capped at {SEARCH_SIZE_CAP} vertices")
    if d.vertex_count == 0:
        return SearchOutcome(SAT, Labeling(cfg.alpha, cfg.k, {}), 0)
    order = _vertex_order(d)
    alpha, k, full = cfg.alpha, cfg.k, cfg.mode == "full"
    window = alpha ** (k - 1)  # labels are codes: prefix c // alpha, suffix c % window
    assigned: dict[str, int] = {}
    owner: dict[int, str] = {}  # the decided vertex that carries each label in use
    nodes = 0

    def candidates(v: str, first: bool):
        # every decided in-neighbour's suffix pins the prefix of v, and every
        # decided out-neighbour's prefix pins its suffix
        prefix = None
        for u in d.in_neighbors(v):
            if u in assigned:
                if prefix is None:
                    prefix = assigned[u] % window
                elif prefix != assigned[u] % window:
                    return ()
        suffix = None
        for w in d.out_neighbors(v):
            if w in assigned:
                if suffix is None:
                    suffix = assigned[w] // alpha
                elif suffix != assigned[w] // alpha:
                    return ()
        if prefix is not None and suffix is not None:
            cand = prefix * alpha + suffix % alpha
            return (cand,) if cand % window == suffix else ()
        if prefix is not None:
            return range(prefix * alpha, prefix * alpha + alpha)
        if suffix is not None:
            return range(suffix, alpha * window, window)
        if first:
            return _canonical_first_labels(alpha, k)
        return range(alpha * window)

    def admissible(v: str, lab: int, loop: bool) -> bool:
        if lab in owner:
            return False
        prefix, suffix = lab // alpha, lab % window
        if not full:
            return not loop or prefix == suffix
        if loop != (prefix == suffix):
            return False
        # a decided x overlaps into v iff it carries (z,) + prefix, and v
        # overlaps into a decided y iff y carries suffix + (z,)
        for z in range(alpha):
            x = owner.get(z * window + prefix)
            if x is not None and not d.has_arc(x, v):
                return False
            y = owner.get(suffix * alpha + z)
            if y is not None and not d.has_arc(v, y):
                return False
        return True

    def extend(i: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        loop = d.has_arc(v, v)
        for lab in candidates(v, i == 0):
            if not admissible(v, lab, loop):
                continue
            if nodes >= cfg.node_budget:
                raise _BudgetExhausted
            nodes += 1
            assigned[v] = lab
            owner[lab] = v
            if extend(i + 1):
                return True
            del assigned[v]
            del owner[lab]
        return False

    try:
        found = extend(0)
    except _BudgetExhausted:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchOutcome(UNSAT, None, nodes)
    certificate = Labeling._trusted(alpha, k, dict(assigned))
    check = find_full_violation if full else find_quasi_violation
    bad = check(d, certificate)
    if bad is not None:
        raise ConstructionFailure(f"search returned an invalid certificate: {bad}")
    return SearchOutcome(SAT, certificate, nodes)


def check_middle_vertex_lemma(d: Digraph, lab: Labeling) -> bool:
    """True iff every vertex sitting inside a chord span has a constant label.

    For any arc t -> h that closes a directed 2-path t -> b -> h, a quasi
    labeling forces l(b) to repeat one symbol; this is the structural fact
    behind the impossibility bound for chorded cycles, checked here
    directly on a given labeling.
    """
    return all(len(set(lab.label_of(mid))) == 1
               for tail, head in d.arcs for mid in middle_vertices(d, tail, head))


# ---------------------------------------------------------------------------
# ladder conjecture explorer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureRow:
    n: int
    alpha: int
    k: int
    verdict: str
    nodes: int


def explore_conjecture(n_values, node_budget: int = DEFAULT_NODE_BUDGET) -> list[ConjectureRow]:
    """Probe ladders P2 x Pn for full labelings at alpha in {3,4}, k = 4,
    falling back to k = 5 whenever k = 4 does not come back SAT."""
    rows: list[ConjectureRow] = []
    for n in n_values:
        ladder = make_ladder(n)
        for alpha in (3, 4):
            outcome = find_labeling(ladder, SearchConfig(alpha, 4, "full", node_budget))
            rows.append(ConjectureRow(n, alpha, 4, outcome.verdict, outcome.nodes_explored))
            if outcome.verdict != SAT:
                outcome = find_labeling(ladder, SearchConfig(alpha, 5, "full", node_budget))
                rows.append(ConjectureRow(n, alpha, 5, outcome.verdict, outcome.nodes_explored))
    return rows
