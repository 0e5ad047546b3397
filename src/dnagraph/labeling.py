"""Fixed-length overlap labels and the labeling verifiers.

A labeling assigns every vertex a k-tuple over {1..alpha}.  Two nested
properties matter here:

* quasi      -- no two vertices share a tuple, and every arc x->y overlaps:
                suffix(x) = prefix(y);
* full       -- quasi, and conversely every overlapping ordered pair is an arc
                (the deBruijn property, both directions).

A digraph carrying a full labeling with alpha <= 4 is a DNA graph: symbols
1..4 stand for the nucleotides A, C, G, T.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import eq, getitem

from .digraph import Digraph, _check_names
from .errors import InvalidInputError

Label = tuple[int, ...]

# a label's (k-1)-suffix and (k-1)-prefix, as slices
_SUFFIX = slice(1, None)
_PREFIX = slice(None, -1)


def format_label(label: Label) -> str:
    """Compact display form, e.g. (1, 2, 3) -> '123'."""
    return "".join(str(s) for s in label)


@dataclass(frozen=True)
class Labeling:
    """Total vertex -> label association with its declared (alpha, k).

    alpha is stored, not inferred from the symbols actually used: a labeling
    over three symbols can still be declared with alpha = 4, and that
    distinction decides DNA-graph certification.
    """

    alpha: int
    k: int
    assignment: dict[str, Label]

    def __post_init__(self):
        if self.alpha < 1:
            raise InvalidInputError("alpha must be a positive integer")
        if self.k < 2:
            raise InvalidInputError("label length k must be greater than 1")
        _check_names(tuple(self.assignment))
        symbols = frozenset(range(1, self.alpha + 1))
        labels = list(self.assignment.values())
        # merged labels arrive as int tuples already; parsed ones as strings
        if not (set(map(type, labels)) <= {tuple}
                and set(map(type, chain.from_iterable(labels))) <= {int}):
            try:
                labels = list(map(tuple, map(map, repeat(int), labels)))
            except (TypeError, ValueError):
                labels = None
        if (labels is None or not {self.k}.issuperset(map(len, labels))
                or not symbols.issuperset(chain.from_iterable(labels))):
            self._first_label_error(symbols)
        object.__setattr__(self, "assignment", dict(zip(self.assignment, labels)))

    def _first_label_error(self, symbols: frozenset[int]) -> None:
        """Raise the error of the first bad label, in assignment order."""
        for v, raw in self.assignment.items():
            label = tuple(map(int, raw))
            if len(label) != self.k:
                raise InvalidInputError(f"label for {v} has length {len(label)}, expected k={self.k}")
            if not symbols.issuperset(label):
                raise InvalidInputError(f"label for {v} uses symbols outside 1..{self.alpha}")

    def label_of(self, v: str) -> Label:
        return self.assignment[v]

    def relabeled(self, permutation: dict[int, int]) -> "Labeling":
        """Apply one alphabet permutation uniformly to every label."""
        moved = {v: tuple(permutation[s] for s in lab) for v, lab in self.assignment.items()}
        return Labeling(self.alpha, self.k, moved)


def overlap_merge(a: Label, b: Label) -> Label:
    """Merge two overlapping labels into one of length k+1."""
    if a[1:] != b[:-1]:
        raise InvalidInputError(f"labels {format_label(a)} and {format_label(b)} do not overlap")
    return a + (b[-1],)


def _aligned(d: Digraph, lab: Labeling) -> list[Label]:
    """The labels in vertex order; lab must label exactly the vertices of d."""
    labels = lab.assignment
    if len(labels) == d.vertex_count:
        try:
            return list(map(labels.__getitem__, d.vertices))
        except KeyError:
            pass
    want = set(d.vertices)
    have = set(labels)
    missing = sorted(want - have)
    extra = sorted(have - want)
    raise InvalidInputError(
        f"labeling is not total over the digraph (missing={missing[:3]}, extra={extra[:3]})")


def _quasi(d: Digraph, lab: Labeling) -> tuple[str | None, list[Label]]:
    """(first quasi violation or None, the labels in vertex order)."""
    labels = _aligned(d, lab)
    if len(set(labels)) != len(labels):
        seen: dict[Label, str] = {}
        for v, label in zip(d.vertices, labels):
            if label in seen:
                return f"vertices {seen[label]} and {v} share label {format_label(label)}", labels
            seen[label] = v
    tail, head = d._tail, d._head
    if not all(map(eq, map(getitem, map(labels.__getitem__, tail), repeat(_SUFFIX)),
                   map(getitem, map(labels.__getitem__, head), repeat(_PREFIX)))):
        names = d.vertices
        for t, h in zip(tail, head):
            suffix, prefix = labels[t][1:], labels[h][:-1]
            if suffix != prefix:
                return (f"arc {names[t]} -> {names[h]}: suffix {format_label(suffix)} "
                        f"does not match prefix {format_label(prefix)}"), labels
    return None, labels


def find_quasi_violation(d: Digraph, lab: Labeling) -> str | None:
    """First violation of the quasi property, or None.

    Symbol bounds are enforced by the Labeling constructor, so only
    distinctness and the arc shift condition are checked here.
    """
    return _quasi(d, lab)[0]


def find_full_violation(d: Digraph, lab: Labeling) -> str | None:
    """First violation of the full deBruijn property, or None."""
    bad, labels = _quasi(d, lab)
    if bad is not None:
        return bad
    # Quasi holds, so every arc x -> y is an overlapping ordered pair
    # (suffix(x) = prefix(y), x = y included), and arcs are distinct: the arc
    # set is a subset of the overlap pairs, and equals it iff the two counts
    # agree.  Labels are distinct, so counting by label counts vertex pairs.
    prefix_count = Counter(map(getitem, labels, repeat(_PREFIX)))
    if sum(map(prefix_count.get, map(getitem, labels, repeat(_SUFFIX)), repeat(0))) == d.arc_count:
        return None
    by_prefix: dict[Label, list[str]] = {}
    for v, label in zip(d.vertices, labels):
        by_prefix.setdefault(label[:-1], []).append(v)
    for x, label in zip(d.vertices, labels):
        suffix = label[1:]
        for y in by_prefix.get(suffix, ()):
            if not d.has_arc(x, y):
                return (f"overlap pair {x}, {y} (shared window {format_label(suffix)}) "
                        f"is not an arc")
    return None


def find_dna_violation(d: Digraph, lab: Labeling) -> str | None:
    """First reason lab does not certify d as a DNA graph, or None: the full
    violation if there is one, else an alphabet larger than four."""
    bad = find_full_violation(d, lab)
    if bad is None and lab.alpha > 4:
        return f"alphabet size {lab.alpha} exceeds the four nucleotides"
    return bad


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def format_labeling(lab: Labeling) -> str:
    """Header ``alpha k`` then one ``vertex<TAB>s1 s2 ... sk`` line per vertex,
    ordered by vertex name."""
    labels = lab.assignment
    names = sorted(labels)
    row = "\t" + " ".join(["%d"] * lab.k) + "\n"
    pieces = [f"{lab.alpha} {lab.k}\n"]
    pieces += chain.from_iterable(zip(names, map(row.__mod__, map(labels.__getitem__, names))))
    return "".join(pieces)


def parse_labeling(text: str) -> Labeling:
    # a row is a name then its symbols, read as parse_digraph_text reads rows
    rows = filter(None, map(str.split, text.splitlines()))
    header = next(rows, None)
    if header is None:
        raise InvalidInputError("empty labeling text")
    if len(header) != 2:
        raise InvalidInputError("labeling text must start with a header line 'alpha k'")
    alpha, k = int(header[0]), int(header[1])
    # symbols stay strings here, Labeling converts them all at once
    assignment: dict[str, list[str]] = {}
    for name, *symbols in rows:
        if name in assignment:
            raise InvalidInputError(f"vertex {name} labeled twice")
        assignment[name] = symbols
    return Labeling(alpha, k, assignment)
