"""Backtracking oracle for (quasi-)(alpha,k)-labelings of small digraphs.

Finding such a labeling for an arbitrary digraph is NP-complete, so this
is an exhaustive desk-scale tool: it validates the closed-form
constructions independently, certifies small negative results, and settles
the ladder family at desk scale.  Vertices are decided in maximum-cardinality
order (Tarjan & Yannakakis, SIAM J. Comput. 1984): the next vertex is the
undecided one with the most decided in- and out-neighbors, so a new vertex
usually has its prefix and suffix pinned by decided labels and short cycles
such as the squares of a ladder close, and get refuted, as early as possible.
The search names each vertex by its decision position, so the decided
vertices at depth i are positions 0..i-1 and every neighbour test is a
precomputed list of earlier positions.  Full mode admits a candidate by
counting: no other decided label overlaps it iff the decided labels with
its prefix as suffix, and with its suffix as prefix, are exactly as many
as its decided in- and out-neighbours.
"""

from __future__ import annotations

from collections import defaultdict
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
    n = d.vertex_count
    near: list[list[int]] = [[] for _ in range(n)]  # in- and out-neighbours, by index
    for t, h in zip(d._tail, d._head):
        near[t].append(h)
        near[h].append(t)
    # an undecided vertex scores weight * (n + 1) + the 1-based step of its
    # last rise (0 before any), so one integer orders (weight, last rise);
    # score keeps the undecided vertices in vertex order
    base = n + 1
    score = dict.fromkeys(range(n), 0)
    v = max(range(n), key=d._tail.count)
    order: list[str] = []
    for step in range(1, base):
        order.append(d.vertices[v])
        del score[v]
        for w in near[v]:
            if w in score:
                score[w] = (score[w] // base + 1) * base + step
        if score:
            v = max(score, key=score.__getitem__)  # first of equals wins
    return order


def _canonical_first_labels(alpha: int, k: int) -> Iterator[int]:
    """Codes of the labels whose symbols appear in first-occurrence order
    1, 2, 3, ..., in increasing order, made one at a time.

    Labelings are closed under alphabet permutation, so restricting the
    first decided vertex to these patterns divides the tree by up to
    alpha! without losing completeness.  k >= 2, as SearchConfig requires.
    """
    # each entry: the code of the symbols made so far, how many of them are
    # distinct, and how many more to come; the smallest next symbol is on top
    stack = [(0, 1, k - 1)]
    while stack:
        code, used, left = stack.pop()
        top = min(alpha, used + 1)
        if left == 1:
            yield from range(code * alpha, code * alpha + top)
        else:
            stack += [(code * alpha + z, max(used, z + 1), left - 1) for z in reversed(range(top))]


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
    n = len(order)
    alpha, k, full = cfg.alpha, cfg.k, cfg.mode == "full"
    window = alpha ** (k - 1)  # labels are codes: prefix c // alpha, suffix c % window
    # vertices are named by decision position: at depth i, the decided
    # vertices are exactly positions 0..i-1
    rank = dict(zip(order, range(n)))
    at = [rank[v] for v in d.vertices]
    into: list[list[int]] = [[] for _ in range(n)]  # earlier positions with an arc into i
    out_of: list[list[int]] = [[] for _ in range(n)]  # earlier positions i has an arc into
    loop = [False] * n
    for t, h in zip(d._tail, d._head):
        t, h = at[t], at[h]
        if t < h:
            into[h].append(t)
        elif h < t:
            out_of[t].append(h)
        else:
            loop[t] = True
    labels = [0] * n
    used: set[int] = set()
    # how many decided labels have each (k-1)-window as suffix, and as prefix
    suffix_count: defaultdict[int, int] = defaultdict(int)
    prefix_count: defaultdict[int, int] = defaultdict(int)
    nodes = 0

    def candidates(i: int):
        # every decided in-neighbour's suffix pins the prefix of i, and every
        # decided out-neighbour's prefix pins its suffix
        prefix = None
        for j in into[i]:
            if prefix is None:
                prefix = labels[j] % window
            elif prefix != labels[j] % window:
                return ()
        suffix = None
        for j in out_of[i]:
            if suffix is None:
                suffix = labels[j] // alpha
            elif suffix != labels[j] // alpha:
                return ()
        if prefix is not None and suffix is not None:
            cand = prefix * alpha + suffix % alpha
            return (cand,) if cand % window == suffix else ()
        if prefix is not None:
            return range(prefix * alpha, prefix * alpha + alpha)
        if suffix is not None:
            return range(suffix, alpha * window, window)
        if i == 0:
            return _canonical_first_labels(alpha, k)
        return range(alpha * window)

    def extend(i: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        loop_i, n_into, n_out_of = loop[i], len(into[i]), len(out_of[i])
        for lab in candidates(i):
            if lab in used:
                continue
            prefix, suffix = lab // alpha, lab % window
            if full:
                # the candidates already overlap every decided neighbour, so
                # no other decided label overlaps lab iff the counts match
                if (loop_i != (prefix == suffix) or suffix_count[prefix] != n_into
                        or prefix_count[suffix] != n_out_of):
                    continue
            elif loop_i and prefix != suffix:
                continue
            if nodes >= cfg.node_budget:
                raise _BudgetExhausted
            nodes += 1
            labels[i] = lab
            used.add(lab)
            suffix_count[suffix] += 1
            prefix_count[prefix] += 1
            if extend(i + 1):
                return True
            used.remove(lab)
            suffix_count[suffix] -= 1
            prefix_count[prefix] -= 1
        return False

    try:
        found = extend(0)
    except _BudgetExhausted:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes)
    if not found:
        return SearchOutcome(UNSAT, None, nodes)
    certificate = Labeling._trusted(alpha, k, dict(zip(order, labels)))
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
    names = d.vertices
    return all(len(set(lab.label_of(names[mid]))) == 1
               for middle in middle_vertices(d) for mid in middle)


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


def explore_conjecture(n_values) -> list[ConjectureRow]:
    """Probe ladders P2 x Pn for full labelings at alpha in {3,4}, k = 4,
    falling back to k = 5 whenever k = 4 does not come back SAT."""
    rows: list[ConjectureRow] = []
    for n in n_values:
        ladder = make_ladder(n)
        for alpha in (3, 4):
            outcome = find_labeling(ladder, SearchConfig(alpha, 4, "full"))
            rows.append(ConjectureRow(n, alpha, 4, outcome.verdict, outcome.nodes_explored))
            if outcome.verdict != SAT:
                outcome = find_labeling(ladder, SearchConfig(alpha, 5, "full"))
                rows.append(ConjectureRow(n, alpha, 5, outcome.verdict, outcome.nodes_explored))
    return rows
