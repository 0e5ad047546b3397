"""Finite simple digraphs, the family generators, and line-digraph machinery.

Vertices are plain strings: non-empty, without whitespace, so that every
name is one token of the text formats.  Vertices created by the line-digraph
operator are walk names: the arc u->v becomes the vertex ``u→v``, so the
m-th iterate names its vertices by length-(m+1) walks of the base digraph
and every label stays auditable against the generating walk.  Digraphs are
immutable after construction and iteration order is fixed, which keeps file
exports, searches, and golden tests deterministic.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, count, islice, repeat
from operator import add, eq, mul

from .errors import InvalidParameterError, ResourceLimitError

WALK_SEP = "→"

ISO_SIZE_CAP = 12


def _check_names(names: tuple[str, ...]) -> None:
    """Reject a name the text formats cannot carry: empty, or holding whitespace."""
    joined = "".join(names)
    if not names or (all(names) and joined.split(None, 1) == [joined]):
        return
    bad = next(v for v in names if v.split() != [v])
    raise InvalidParameterError(f"vertex name {bad!r} is empty or contains whitespace")


def _first_arc_error(names: tuple[str, ...], arcs) -> None:
    """Raise the error of the first bad arc, in arc order."""
    vset = frozenset(names)
    seen = set()
    for arc in arcs:
        if len(arc) != 2:
            raise InvalidParameterError(f"arc {arc!r} is not a (tail, head) pair")
        tail, head = arc
        if tail not in vset or head not in vset:
            raise InvalidParameterError(f"arc endpoint outside vertex set: {tail} -> {head}")
        if arc in seen:
            # every catalogued family is a simple digraph; duplicates are caller bugs
            raise InvalidParameterError(f"duplicate arc {tail} -> {head}")
        seen.add(arc)


def _check_repeats(names: tuple[str, ...], tail: list[int], head: list[int]) -> None:
    """Raise the first bad arc's error if an arc of tail[i] -> head[i] repeats."""
    # arc t -> h has the code t*n + h, so a repeated arc is a repeated code;
    # sorted, repeats sit side by side, in a third of a set's memory
    codes = sorted(map(add, map(mul, tail, repeat(len(names))), head))
    if any(map(eq, codes, islice(codes, 1, None))):
        _first_arc_error(names, zip(map(names.__getitem__, tail), map(names.__getitem__, head)))


class Digraph:
    """Immutable digraph with ordered vertex set and ordered simple arc set.

    The arcs are one store, two index lists into the vertex tuple, arc i
    being tail[i] -> head[i]: every constructor sets them, and every
    traversal works on them.  The one view is ``arcs``, the name pairs, a
    ``cached_property`` built on first request.
    """

    def __init__(self, vertices, arcs):
        self.vertices = names = tuple(vertices)
        index = {v: i for i, v in enumerate(names)}
        if len(index) != len(names):
            raise InvalidParameterError("duplicate vertex name in vertex set")
        _check_names(names)
        self.arcs = arcs = tuple(map(tuple, arcs))
        try:
            self._tail = [index[t] for t, _ in arcs]
            self._head = [index[h] for _, h in arcs]
        except (KeyError, ValueError):
            _first_arc_error(names, arcs)
        _check_repeats(names, self._tail, self._head)

    @classmethod
    def _from_indices(cls, vertices: tuple[str, ...], tail: list[int], head: list[int]) -> "Digraph":
        """Digraph whose arc i is vertices[tail[i]] -> vertices[head[i]].

        The caller guarantees what __init__ would check: names distinct and
        valid, indices in range, no arc twice.
        """
        d = cls.__new__(cls)
        d.vertices, d._tail, d._head = vertices, tail, head
        return d

    @cached_property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        names = self.vertices
        return tuple(zip(map(names.__getitem__, self._tail), map(names.__getitem__, self._head)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def arc_count(self) -> int:
        return len(self._tail)

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        # equal vertex tuples index alike, so equal index lists mean equal arcs
        return (self.vertices == other.vertices and self._tail == other._tail
                and self._head == other._head)

    def __hash__(self):
        return hash((self.vertices, tuple(self._tail), tuple(self._head)))

    def __repr__(self):
        return f"Digraph(|V|={self.vertex_count}, |A|={self.arc_count})"


def _out_arcs(d: Digraph) -> list[list[int]]:
    """The arcs leaving each vertex, by vertex index, in arc order."""
    leaving: list[list[int]] = [[] for _ in d.vertices]
    for arc, t in enumerate(d._tail):
        leaving[t].append(arc)
    return leaving


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def make_dipath(n: int) -> Digraph:
    """Directed path v1 -> v2 -> ... -> vn."""
    if n < 2:
        raise InvalidParameterError("dipath needs n >= 2")
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Digraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def _glued_cycles(*lengths: int, chords=()) -> Digraph:
    """Dicycles of the given lengths glued at the second vertex of each, with
    the chords v_i -> v_j for each (i, j) in chords.

    The cycles are v1..vn, then u1..up and w1..wq, where the second vertex of
    every cycle is the shared v2; vertices are listed in that order, each once.
    """
    cycles = [[f"{prefix}{i}" if i != 2 else "v2" for i in range(1, length + 1)]
              for prefix, length in zip("vuw", lengths)]
    arcs = [arc for names in cycles for arc in zip(names, names[1:] + names[:1])]
    arcs += [(f"v{i}", f"v{j}") for i, j in chords]
    return Digraph(dict.fromkeys(chain.from_iterable(cycles)), arcs)


def make_dicycle(n: int) -> Digraph:
    """Directed cycle v1 -> v2 -> ... -> vn -> v1."""
    if n < 2:
        raise InvalidParameterError("dicycle needs n >= 2")
    return _glued_cycles(n)


def make_chorded_cycle(n: int) -> Digraph:
    """Dicycle on n vertices plus floor(n/3) chords of cycle-distance two.

    The chords are v_{i-2} -> v_i for i in {3, 6, 9, ..., n - (n mod 3)}:
    stepping i by three is the only reading that yields floor(n/3) chords
    each spanning exactly two cycle arcs.
    """
    if n < 4:
        raise InvalidParameterError("chorded cycle needs n >= 4")
    return _glued_cycles(n, chords=[(i - 2, i) for i in range(3, n - n % 3 + 1, 3)])


def middle_vertices(d: Digraph) -> list[list[int]]:
    """For each arc t -> h, in arc order, the vertex indices b other than t
    and h on a directed 2-path t -> b -> h, in the arc order of t -> b."""
    tail, head = d._tail, d._head
    arcs = set(zip(tail, head))
    leaving = _out_arcs(d)
    return [[b for b in map(head.__getitem__, leaving[t]) if b != t and b != h and (b, h) in arcs]
            for t, h in zip(tail, head)]


def chords_of(d: Digraph) -> tuple[tuple[str, str], ...]:
    """Arcs of d whose endpoints are joined by a directed 2-path (the chords)."""
    return tuple(arc for arc, middle in zip(d.arcs, middle_vertices(d)) if middle)


def make_infinity(n: int, p: int) -> Digraph:
    """Two dicycles C_n and C_p glued at one vertex (the second of each).

    Vertices are v1..vn and u1, u3..up; the shared vertex keeps the name v2.
    """
    if n < 3 or p < 3:
        raise InvalidParameterError("infinity digraph needs n >= 3 and p >= 3")
    return _glued_cycles(n, p)


def make_propeller3(n: int, p: int, q: int) -> Digraph:
    """Three dicycles of lengths n, p, q glued at one shared vertex.

    Blade one is v1..vn, blades two and three are u*/w* with their second
    vertex identified with v2.  The shared vertex has in- and out-degree 3.
    """
    if min(n, p, q) < 3:
        raise InvalidParameterError("every blade needs length >= 3")
    return _glued_cycles(n, p, q)


def make_windmill(n: int) -> Digraph:
    """Three blades of equal length n sharing one vertex."""
    return make_propeller3(n, n, n)


def make_ladder(n: int) -> Digraph:
    """Oriented 2 x n grid: top row rightward, bottom row leftward,
    rung at column c upward (bottom->top) for even c, downward for odd c."""
    if n < 2:
        raise InvalidParameterError("ladder needs n >= 2")
    top = [f"t{c}" for c in range(n)]
    bot = [f"b{c}" for c in range(n)]
    arcs = [(top[c], top[c + 1]) for c in range(n - 1)]
    arcs += [(bot[c + 1], bot[c]) for c in range(n - 1)]
    for c in range(n):
        arcs.append((bot[c], top[c]) if c % 2 == 0 else (top[c], bot[c]))
    return Digraph(top + bot, arcs)


# family name -> (parameters make_* takes, in order; make_*)
FAMILIES = {
    "dipath": (("n",), make_dipath),
    "dicycle": (("n",), make_dicycle),
    "chorded-cycle": (("n",), make_chorded_cycle),
    "infinity": (("n", "p"), make_infinity),
    "propeller3": (("n", "p", "q"), make_propeller3),
    "windmill": (("n",), make_windmill),
    "ladder": (("n",), make_ladder),
}


# ---------------------------------------------------------------------------
# line digraph
# ---------------------------------------------------------------------------

def _walk_join(tail: str, head: str) -> str:
    """Name of the arc tail -> head: its walk, where two walks that overlap in
    all but their end vertices share that overlap once."""
    _, tail_sep, tail_rest = tail.partition(WALK_SEP)
    head_init, head_sep, head_last = head.rpartition(WALK_SEP)
    if tail_sep == head_sep and tail_rest == head_init:
        return tail + WALK_SEP + head_last
    return tail + WALK_SEP + head


def line_digraph(d: Digraph) -> Digraph:
    """Digraph on the arcs of d; x -> y present iff head(x) = tail(y).

    Vertex i of L(d) is arc i of d, and its out-arcs are those to the arcs
    leaving head(i), in arc order."""
    tail, head = d._tail, d._head
    names = d.vertices
    walks = tuple([_walk_join(names[t], names[h]) for t, h in zip(tail, head)])
    if len(set(walks)) != len(walks):
        # only names holding WALK_SEP can make two walks read alike
        raise InvalidParameterError("duplicate vertex name in vertex set")
    leaving = _out_arcs(d)
    line_tail: list[int] = []
    line_head: list[int] = []
    for arc, h in enumerate(head):
        successors = leaving[h]
        line_tail += [arc] * len(successors)
        line_head += successors
    return Digraph._from_indices(walks, line_tail, line_head)


# ---------------------------------------------------------------------------
# isomorphism (desk scale)
# ---------------------------------------------------------------------------

def isomorphic(a: Digraph, b: Digraph) -> bool:
    """Decide whether an arc-preserving vertex bijection a -> b exists.

    Plain backtracking over in/out-degree-compatible assignments; all
    instances this library needs are tiny, so no canonical-form machinery.
    """
    if a.vertex_count > ISO_SIZE_CAP or b.vertex_count > ISO_SIZE_CAP:
        raise ResourceLimitError(f"isomorphism check capped at {ISO_SIZE_CAP} vertices")

    def degrees(g: Digraph) -> list[tuple[int, int]]:
        out, into = Counter(g._tail), Counter(g._head)
        return [(out[v], into[v]) for v in range(g.vertex_count)]

    a_degrees, b_degrees = degrees(a), degrees(b)
    if sorted(a_degrees) != sorted(b_degrees):
        return False
    a_arcs, b_arcs = set(zip(a._tail, a._head)), set(zip(b._tail, b._head))

    # high-degree vertices first so contradictions surface early; ties keep vertex order
    order = sorted(range(a.vertex_count), key=lambda v: -sum(a_degrees[v]))
    mapping: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        want = (a_degrees[v], (v, v) in a_arcs)
        for w in range(b.vertex_count):
            if w in mapping.values() or (b_degrees[w], (w, w) in b_arcs) != want:
                continue
            if all(((v, u) in a_arcs) == ((w, x) in b_arcs)
                   and ((u, v) in a_arcs) == ((x, w) in b_arcs) for u, x in mapping.items()):
                mapping[v] = w
                if extend(i + 1):
                    return True
                del mapping[v]
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # rows a streamed write joins into one string


def _lines(source):
    """The lines of a str, or of an open text file read some 16K characters
    of whole lines at a time; both end a line wherever str.splitlines does."""
    if isinstance(source, str):
        return source.splitlines()
    # one split of a block of lines builds fewer objects than one split per line
    blocks = iter(lambda: "".join(source.readlines(1 << 14)), "")
    return chain.from_iterable(map(str.splitlines, blocks))


def _join_rows(rows, out=None) -> str | None:
    """The text of rows, each a tuple of strings; or, given the text file
    out, write it there _BLOCK_ROWS rows at a time and return None."""
    if out is None:
        return "".join(chain.from_iterable(rows))
    while block := "".join(chain.from_iterable(islice(rows, _BLOCK_ROWS))):
        out.write(block)
    return None


def format_digraph_text(d: Digraph, out=None) -> str | None:
    """Plain-text format: header ``n m``, one ``tail head`` line per arc, then
    one line per isolated vertex holding just its name.  Returned, or
    written to the text file out."""
    tail, head = d._tail, d._head
    names = d.vertices
    spaced = [v + " " for v in names]
    isolated = sorted(set(range(len(names))).difference(tail, head))
    # a row is the names themselves and a line end: no per-line string is ever built
    rows = chain([(f"{len(names)} {len(tail)}\n",)],
                 zip(map(spaced.__getitem__, tail), map(names.__getitem__, head), repeat("\n")),
                 zip(map(names.__getitem__, isolated), repeat("\n")))
    return _join_rows(rows, out)


def parse_digraph_text(text) -> Digraph:
    """The digraph of a text in the format above: a str, or an open text file."""
    # one row at a time, each name numbered on first sight: no row is kept,
    # and every arc is two indices from the start
    rows = filter(None, map(str.split, _lines(text)))
    header = next(rows, None)
    if header is None or len(header) != 2:
        raise InvalidParameterError("digraph text must start with a header line 'n m'")
    n, m = (int(x) for x in header)
    index: defaultdict[str, int] = defaultdict(count().__next__)
    tail: list[int] = []
    head: list[int] = []
    add_tail, add_head = tail.append, head.append
    isolated = []
    for row in rows:
        if len(row) == 2:
            t, h = row
            add_tail(index[t])
            add_head(index[h])
        elif len(row) == 1:
            isolated.append(row[0])
        else:
            raise InvalidParameterError(f"malformed arc line: {' '.join(row)!r}")
    if len(tail) != m:
        raise InvalidParameterError(f"expected {m} arc lines, found {len(tail)}")
    for name in isolated:
        if name in index:
            raise InvalidParameterError(f"vertex line {name!r} names a vertex already in the file")
        index[name]  # numbers the isolated vertex after every arc endpoint
    if len(index) != n:
        raise InvalidParameterError(f"header says {n} vertices, file names {len(index)}")
    vertices = tuple(index)
    _check_repeats(vertices, tail, head)
    return Digraph._from_indices(vertices, tail, head)


def to_dot(d: Digraph, labeling=None) -> str:
    """DOT export, vertex label carries the walk name and the k-mer when given."""
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph dnagraph {"]
    for v in d.vertices:
        label = esc(v)
        if labeling is not None:
            kmer = "".join(str(s) for s in labeling.label_of(v))
            label = f"{label}\\n{kmer}"
        lines.append(f'  "{esc(v)}" [label="{label}"];')
    for t, h in d.arcs:
        lines.append(f'  "{esc(t)}" -> "{esc(h)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
