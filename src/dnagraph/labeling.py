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
from operator import floordiv, itemgetter, mod

from .digraph import Digraph, _check_names, _join_rows, _lines
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
        moved = {v: tuple(permutation[s] for s in lab) for v, lab in self.assignment.items()}
        return Labeling(self.alpha, self.k, moved)


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
    if len(set(codes)) != len(codes):
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
    prefix = list(map(floordiv, codes, repeat(lab.alpha)))
    suffix = list(map(mod, codes, repeat(lab.alpha ** (lab.k - 1))))
    # Quasi holds, so every arc x -> y is an overlapping ordered pair
    # (suffix(x) = prefix(y), x = y included), and arcs are distinct: the arc
    # set is a subset of the overlap pairs, and equals it iff the two counts
    # agree.  Labels are distinct, so counting by label counts vertex pairs.
    prefix_count = Counter(prefix)
    if sum(map(prefix_count.get, suffix, repeat(0))) == d.arc_count:
        return None
    by_prefix: dict[int, list[int]] = {}
    for v, p in enumerate(prefix):
        by_prefix.setdefault(p, []).append(v)
    arcs = set(zip(d._tail, d._head))
    x, y, s = next((x, y, s) for x, s in enumerate(suffix)
                   for y in by_prefix.get(s, ()) if (x, y) not in arcs)
    window = format_label(_decode(s, lab.alpha, lab.k - 1))
    return f"overlap pair {d.vertices[x]}, {d.vertices[y]} (shared window {window}) is not an arc"


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


def parse_labeling(text) -> Labeling:
    """The labeling of a text in the format above: a str, or an open text file."""
    # a row is a name then its symbols, read as parse_digraph_text reads rows
    rows = list(filter(None, map(str.split, _lines(text))))
    if not rows:
        raise InvalidInputError("empty labeling text")
    if len(rows[0]) != 2:
        raise InvalidInputError("labeling text must start with a header line 'alpha k'")
    alpha, k = int(rows[0][0]), int(rows[0][1])
    del rows[0]
    names = list(map(itemgetter(0), rows))
    # distinct names, k symbols a row: if every symbol is one ASCII character,
    # the k bytes of a row's symbols joined and translated are its code
    if (alpha >= 1 and k >= 2 and len(set(names)) == len(names)
            and {k + 1}.issuperset(map(len, rows))):
        words = map(str.encode, map("".join, map(itemgetter(slice(1, None)), rows)))
        try:
            words = list(map(bytes.translate, words, repeat(_DIGIT_OF_TEXT)))
            if {k}.issuperset(map(len, words)):
                return Labeling._trusted(alpha, k, dict(zip(names, map(int, words, repeat(alpha)))))
        except ValueError:  # a symbol that is no digit 1..alpha, or alpha outside 2..36
            pass
    # otherwise (symbols of several characters, or an error) read row by row
    assignment: dict[str, list[str]] = {}
    for name, *symbols in rows:
        if name in assignment:
            raise InvalidInputError(f"vertex {name} labeled twice")
        assignment[name] = symbols
    return Labeling(alpha, k, assignment)
