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
from itertools import chain, islice, repeat
from operator import eq, floordiv, itemgetter, mod

from .digraph import _BLOCK_ROWS, Digraph, _check_names, _join_rows, _lines
from .errors import InvalidInputError

Label = tuple[int, ...]

# int(word, alpha) reads a code from the digits s - 1 of its symbols s.  This
# table maps the text digits '1'..'9' to those digits, and all else to '!',
# which no base accepts: int() rejects symbols outside 1..alpha.
_DIGIT_OF_TEXT = b"!" * 49 + b"012345678" + b"!" * 198


def format_label(label: Label) -> str:
    """Compact display form, e.g. (1, 2, 3) -> '123'."""
    return "".join(str(s) for s in label)


def _decode(code: int, alpha: int, k: int) -> Label:
    """The k symbols whose code is code."""
    symbols = []
    for _ in range(k):
        symbols.append(code % alpha + 1)
        code //= alpha
    symbols.reverse()
    return tuple(symbols)


@dataclass(frozen=True, init=False)
class Labeling:
    """Total vertex -> label association with its declared (alpha, k).

    alpha is stored, not inferred from the symbols actually used: a labeling
    over three symbols can still be declared with alpha = 4, and that
    distinction decides DNA-graph certification.  codes maps every vertex
    to its label's code c, the base-alpha number of its symbols less one: the
    (k-1)-prefix is c // alpha, the (k-1)-suffix c % alpha**(k-1), and x merged
    with y is c_x * alpha + c_y % alpha.  The constructor takes the symbols;
    label_of decodes the one label asked for, and assignment decodes them all
    on each request.
    """

    alpha: int
    k: int
    codes: dict[str, int]

    def __init__(self, alpha: int, k: int, assignment):
        if alpha < 1:
            raise InvalidInputError("alpha must be a positive integer")
        if k < 2:
            raise InvalidInputError("label length k must be greater than 1")
        _check_names(tuple(assignment))
        codes: dict[str, int] = {}
        for v, raw in assignment.items():
            label = tuple(map(int, raw))
            # a tuple of ints is its own label; other input is checked symbol by symbol
            if label != raw and any(s != c and not isinstance(s, str) for s, c in zip(raw, label)):
                raise InvalidInputError(f"label for {v} uses a symbol that is not an integer")
            if len(label) != k:
                raise InvalidInputError(f"label for {v} has length {len(label)}, expected k={k}")
            code = 0
            for s in label:
                if not 1 <= s <= alpha:
                    raise InvalidInputError(f"label for {v} uses symbols outside 1..{alpha}")
                code = code * alpha + s - 1
            codes[v] = code
        vars(self).update(alpha=alpha, k=k, codes=codes)

    @classmethod
    def _trusted(cls, alpha: int, k: int, codes: dict[str, int]) -> "Labeling":
        """The labeling of codes that this package built, over checked names."""
        lab = cls.__new__(cls)
        vars(lab).update(alpha=alpha, k=k, codes=codes)
        return lab

    @property
    def assignment(self) -> dict[str, Label]:
        """vertex -> label, every label decoded."""
        return {v: _decode(c, self.alpha, self.k) for v, c in self.codes.items()}

    def label_of(self, v: str) -> Label:
        return _decode(self.codes[v], self.alpha, self.k)

    def relabeled(self, permutation: dict[int, int]) -> "Labeling":
        """Apply one alphabet permutation uniformly to every label."""
        alpha = self.alpha
        images = [permutation[s] for s in range(1, alpha + 1)]
        if any(type(s) is not int for s in images) or sorted(images) != list(range(1, alpha + 1)):
            raise InvalidInputError(f"relabeling needs a permutation of 1..{alpha}")
        places = [alpha ** i for i in reversed(range(self.k))]
        return Labeling._trusted(alpha, self.k, {
            v: sum((images[c // p % alpha] - 1) * p for p in places) for v, c in self.codes.items()})


def overlap_merge(a: Label, b: Label) -> Label:
    """Merge two overlapping labels into one of length k+1."""
    if a[1:] != b[:-1]:
        raise InvalidInputError(f"labels {format_label(a)} and {format_label(b)} do not overlap")
    return a + (b[-1],)


def _quasi(d: Digraph, lab: Labeling) -> tuple[str | None, list[int]]:
    """(first quasi violation or None, the codes in vertex order); lab must
    label exactly d's vertices."""
    codes = list(map(lab.codes.get, d.vertices))
    if len(lab.codes) != d.vertex_count or None in codes:
        missing = sorted(set(d.vertices) - set(lab.codes))
        extra = sorted(set(lab.codes) - set(d.vertices))
        raise InvalidInputError(
            f"labeling is not total over the digraph (missing={missing[:3]}, extra={extra[:3]})")
    alpha, k = lab.alpha, lab.k
    window = alpha ** (k - 1)
    bad = None
    # sorted, repeated codes sit side by side, in a third of a set's memory
    ordered = sorted(codes)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        first: dict[int, str] = {}  # code -> the first vertex carrying it
        v, code = next((v, c) for v, c in zip(d.vertices, codes) if first.setdefault(c, v) != v)
        bad = f"vertices {first[code]} and {v} share label {format_label(_decode(code, alpha, k))}"
    else:
        for t, h in zip(d._tail, d._head):
            if codes[t] % window != codes[h] // alpha:
                out, into = (format_label(_decode(c, alpha, k - 1))
                             for c in (codes[t] % window, codes[h] // alpha))
                bad = (f"arc {d.vertices[t]} -> {d.vertices[h]}: "
                       f"suffix {out} does not match prefix {into}")
                break
    return bad, codes


def find_quasi_violation(d: Digraph, lab: Labeling) -> str | None:
    """First violation of the quasi property, or None.

    Symbol bounds are enforced by the Labeling constructor, so only
    distinctness and the arc shift condition are checked here.
    """
    return _quasi(d, lab)[0]


def find_full_violation(d: Digraph, lab: Labeling) -> str | None:
    """First violation of the full deBruijn property, or None."""
    bad, codes = _quasi(d, lab)
    if bad is not None:
        return bad
    alpha, window = lab.alpha, lab.alpha ** (lab.k - 1)
    # Quasi holds, so every arc x -> y is an overlapping ordered pair
    # (suffix(x) = prefix(y), x = y included), and arcs are distinct: the arc
    # set is a subset of the overlap pairs, and equals it iff the two counts
    # agree.  Labels are distinct, so counting by label counts vertex pairs.
    prefix_count = Counter(map(floordiv, codes, repeat(alpha)))
    if sum(map(prefix_count.get, map(mod, codes, repeat(window)), repeat(0))) == d.arc_count:
        return None
    # the prefix index and the arc set are built only to name the first missing pair
    by_prefix: dict[int, list[int]] = {}
    for v, p in enumerate(map(floordiv, codes, repeat(alpha))):
        by_prefix.setdefault(p, []).append(v)
    arcs = set(zip(d._tail, d._head))
    x, y, s = next((x, y, s) for x, s in enumerate(map(mod, codes, repeat(window)))
                   for y in by_prefix.get(s, ()) if (x, y) not in arcs)
    shared = format_label(_decode(s, alpha, lab.k - 1))
    return f"overlap pair {d.vertices[x]}, {d.vertices[y]} (shared window {shared}) is not an arc"


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

def format_labeling(lab: Labeling, out=None) -> str | None:
    """Header ``alpha k`` then one ``vertex<TAB>s1 s2 ... sk`` line per vertex,
    ordered by vertex name.  Returned, or written to the text file out."""
    alpha, k = lab.alpha, lab.k
    names = sorted(lab.codes)
    codes = list(map(lab.codes.__getitem__, names))
    # a row is its name, then the text of its high k - k // 2 symbols and of
    # its low k // 2, each text built once per value that occurs
    split = alpha ** (k // 2)
    high = list(map(floordiv, codes, repeat(split)))
    low = list(map(mod, codes, repeat(split)))
    high_text = {c: "\t%s " % " ".join(map(str, _decode(c, alpha, k - k // 2))) for c in set(high)}
    low_text = {c: "%s\n" % " ".join(map(str, _decode(c, alpha, k // 2))) for c in set(low)}
    rows = chain([(f"{alpha} {k}\n",)],
                 zip(names, map(high_text.__getitem__, high), map(low_text.__getitem__, low)))
    return _join_rows(rows, out)


def _row_codes(rows: list[list[str]], alpha: int, k: int, own: dict[str, str]):
    """(name, code) of each row (a name then its symbols), in row order, a
    name that is a key of own given as own's string; or the error of the
    first bad row.  alpha >= 1 and k >= 2; a name repeated within the rows
    may come once."""
    # k symbols a row: if every symbol is one ASCII character, the k bytes of
    # a row's symbols joined and translated are its code
    if {k + 1}.issuperset(map(len, rows)):
        words = map(str.encode, map("".join, map(itemgetter(slice(1, None)), rows)))
        try:
            words = list(map(bytes.translate, words, repeat(_DIGIT_OF_TEXT)))
            if {k}.issuperset(map(len, words)):
                names, codes = list(map(itemgetter(0), rows)), list(map(int, words, repeat(alpha)))
                return zip(map(own.get, names, names), codes)
        except ValueError:  # a symbol that is no digit 1..alpha, or alpha outside 2..36
            pass
    # otherwise (symbols of several characters, or an error) read row by row
    codes = Labeling(alpha, k, {name: symbols for name, *symbols in rows}).codes
    return zip(map(own.get, codes, codes), codes.values())


def parse_labeling(text, names=()) -> Labeling:
    """The labeling of a text in the format above: a str, or an open text file.

    A vertex whose name is among names is keyed by that string of names, so
    a labeling read for a digraph holds the digraph's names, not a copy.  The
    first bad or repeated row is raised, before a later block is read."""
    # rows are read as parse_digraph_text reads them, and turned into codes
    # _BLOCK_ROWS at a time: no row outlives its block
    own = dict(zip(names, names))
    rows = filter(None, map(str.split, _lines(text)))
    header = next(rows, None)
    if header is None:
        raise InvalidInputError("empty labeling text")
    if len(header) != 2:
        raise InvalidInputError("labeling text must start with a header line 'alpha k'")
    alpha, k = int(header[0]), int(header[1])
    Labeling(alpha, k, {})  # raises on a bad alpha or k
    codes: dict[str, int] = {}
    while block := list(islice(rows, _BLOCK_ROWS)):
        size = len(codes)
        try:
            codes.update(_row_codes(block, alpha, k, own))
        except ValueError:
            pass
        if len(codes) != size + len(block):
            seen = set(islice(codes, size))  # the names of earlier blocks
            for name, *symbols in block:
                if name in seen:
                    raise InvalidInputError(f"vertex {name} labeled twice")
                seen.add(name)
                Labeling(alpha, k, {name: symbols})
        del block  # two blocks of rows are never held at once
    return Labeling._trusted(alpha, k, codes)
