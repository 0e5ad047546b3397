"""Differential tests: the set- and count-based checks against plain loops.

Each reference below is the straightforward per-element loop: split walk
names, read the text one row of name pairs at a time, probe every arc, probe
every overlap pair.  The library's versions must give the same names, the
same digraphs, the same labelings and the same first-error messages, None
included.
"""

import itertools
import random
from itertools import chain

import pytest

from dnagraph import (Digraph, InvalidInputError, InvalidParameterError, Labeling, WALK_SEP,
                      find_full_violation, find_quasi_violation, format_label, line_digraph,
                      parse_digraph_text, parse_labeling)
from dnagraph import labeling
from dnagraph.acceptance import _random_quasi_instance
from dnagraph.digraph import _walk_join


def reference_walk_join(tail, head):
    tt = tail.split(WALK_SEP)
    hh = head.split(WALK_SEP)
    if tt[1:] == hh[:-1]:
        return WALK_SEP.join(tt + [hh[-1]])
    return WALK_SEP.join(tt + hh)


def reference_arc_error(vertices, arcs):
    vset = set(vertices)
    seen = set()
    for tail, head in arcs:
        if tail not in vset or head not in vset:
            return f"arc endpoint outside vertex set: {tail} -> {head}"
        if (tail, head) in seen:
            return f"duplicate arc {tail} -> {head}"
        seen.add((tail, head))
    return None


def reference_parse_digraph_text(text):
    rows = filter(None, map(str.split, text.splitlines()))
    header = next(rows, None)
    if header is None or len(header) != 2:
        raise InvalidParameterError("digraph text must start with a header line 'n m'")
    n, m = (int(x) for x in header)
    arcs = []
    isolated = []
    for row in rows:
        if len(row) == 2:
            arcs.append((row[0], row[1]))
        elif len(row) == 1:
            isolated.append(row[0])
        else:
            raise InvalidParameterError(f"malformed arc line: {' '.join(row)!r}")
    if len(arcs) != m:
        raise InvalidParameterError(f"expected {m} arc lines, found {len(arcs)}")
    vertices = dict.fromkeys(chain.from_iterable(arcs))
    for name in isolated:
        if name in vertices:
            raise InvalidParameterError(f"vertex line {name!r} names a vertex already in the file")
        vertices[name] = None
    if len(vertices) != n:
        raise InvalidParameterError(f"header says {n} vertices, file names {len(vertices)}")
    return Digraph(vertices, arcs)


def reference_parse_labeling(text):
    """The row reader that split each row at its first tab: the name before it,
    the symbols after it, and whitespace splitting only for a row without one."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise InvalidInputError("empty labeling text")
    header = rows[0].split()
    if len(header) != 2:
        raise InvalidInputError("labeling text must start with a header line 'alpha k'")
    alpha, k = int(header[0]), int(header[1])
    Labeling(alpha, k, {})
    assignment = {}
    for row in rows[1:]:
        name, _, symbols = row.partition("\t")
        if not symbols:
            parts = row.split()
            name, symbols = parts[0], " ".join(parts[1:])
        name = name.strip()
        if name in assignment:
            raise InvalidInputError(f"vertex {name} labeled twice")
        assignment[name] = symbols.split()
        Labeling(alpha, k, {name: assignment[name]})
    return Labeling(alpha, k, assignment)


def reference_distinct(d, lab):
    seen = {}
    for v in d.vertices:
        label = lab.label_of(v)
        if label in seen:
            return f"vertices {seen[label]} and {v} share label {format_label(label)}"
        seen[label] = v
    return None


def reference_quasi(d, lab):
    dup = reference_distinct(d, lab)
    if dup is not None:
        return dup
    for tail, head in d.arcs:
        lt = lab.label_of(tail)
        lh = lab.label_of(head)
        if lt[1:] != lh[:-1]:
            return (f"arc {tail} -> {head}: suffix {format_label(lt[1:])} "
                    f"does not match prefix {format_label(lh[:-1])}")
    return None


def reference_full(d, lab):
    bad = reference_quasi(d, lab)
    if bad is not None:
        return bad
    arcs = set(d.arcs)
    for x in d.vertices:
        suffix = lab.label_of(x)[1:]
        for y in d.vertices:
            if lab.label_of(y)[:-1] == suffix and (x, y) not in arcs:
                return (f"overlap pair {x}, {y} (shared window {format_label(suffix)}) "
                        f"is not an arc")
    return None


def test_walk_join_matches_split_reference():
    names = ["".join(p) for n in range(5)
             for p in itertools.product(("a", "b", WALK_SEP), repeat=n)]
    assert len(names) == 121  # the empty name included
    for tail, head in itertools.product(names, repeat=2):
        assert _walk_join(tail, head) == reference_walk_join(tail, head), (tail, head)


@pytest.mark.parametrize("arcs", [
    [("a", "b"), ("a", "c"), ("a", "b")],   # outside endpoint before the duplicate
    [("a", "b"), ("a", "b"), ("a", "c")],   # duplicate before the outside endpoint
    [("c", "a"), ("a", "b"), ("a", "b")],
])
def test_digraph_first_arc_error_matches_reference(arcs):
    with pytest.raises(InvalidParameterError) as exc:
        Digraph(["a", "b"], arcs)
    assert str(exc.value) == reference_arc_error(["a", "b"], arcs)


def corruptions(rng, d, lab):
    """The instance itself, then one corrupted copy of each kind that applies."""
    yield d, lab
    labels = dict(lab.assignment)
    names = list(d.vertices)
    if len(names) >= 2:
        x, y = rng.sample(names, 2)
        swapped = dict(labels)
        swapped[x], swapped[y] = labels[y], labels[x]
        yield d, Labeling(lab.alpha, lab.k, swapped)
        duplicated = dict(labels)
        duplicated[y] = labels[x]
        yield d, Labeling(lab.alpha, lab.k, duplicated)
    if d.arc_count:
        dropped = list(d.arcs)
        del dropped[rng.randrange(len(dropped))]
        yield Digraph(names, dropped), lab
    non_overlap = [(x, y) for x in names for y in names
                   if labels[x][1:] != labels[y][:-1] and (x, y) not in d.arcs]
    if non_overlap:
        extra = list(d.arcs)
        extra.insert(rng.randrange(len(extra) + 1), rng.choice(non_overlap))
        yield Digraph(names, extra), lab


def test_verifiers_match_reference_on_corrupted_instances():
    rng = random.Random(31337)
    outcomes = set()
    for _ in range(300):
        for d, lab in corruptions(rng, *_random_quasi_instance(rng)):
            assert find_quasi_violation(d, lab) == reference_quasi(d, lab)
            full = find_full_violation(d, lab)
            assert full == reference_full(d, lab)
            outcomes.add(full.split()[0] if full else None)
    # every kind of first violation, and none, occurred
    assert outcomes == {None, "vertices", "arc", "overlap"}


def random_digraph_text(rng):
    """Digraph text with isolated-vertex lines anywhere, blank lines, tabs and
    runs of spaces; some texts carry a wrong header count, a repeated arc, a
    three-token line or a vertex line naming an arc endpoint."""
    names = [f"x{i}" for i in range(rng.randint(1, 7))] + [f"x0{WALK_SEP}x1"]
    arcs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 9))]
    if rng.random() < 0.7:
        arcs = list(dict.fromkeys(arcs))
    on_arcs = set(chain.from_iterable(arcs))
    isolated = [v for v in names if v not in on_arcs and rng.random() < 0.6]
    if on_arcs and rng.random() < 0.1:
        isolated.append(rng.choice(sorted(on_arcs)))
    rows = [[t, h] for t, h in arcs] + [[v] for v in isolated]
    if rng.random() < 0.1:
        rows.append(rng.sample(names, 2) + ["x9"])
    rng.shuffle(rows)
    n = len(on_arcs | set(isolated)) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    m = len(arcs) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    rows.insert(0, rng.choice(([str(n), str(m)], [str(n), str(m)], [str(n)], [str(n), "m"])))
    gaps = (" ", " ", "  ", "\t", " \t ")
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(("", " ", "\t", "  \t ")))
        lead, inner, trail = (rng.choice(gaps) for _ in range(3))
        lines.append(lead * rng.randint(0, 1) + inner.join(row) + trail * rng.randint(0, 1))
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


def seeded_texts(make, seed, count=3000):
    """count texts of make, drawn from one generator seeded with seed."""
    rng = random.Random(seed)
    return [make(rng) for _ in range(count)]


def parse_outcome(parse, text):
    try:
        d = parse(text)
    except ValueError as exc:  # InvalidParameterError, or int() on a bad header
        return type(exc).__name__, str(exc)
    return d


def test_parse_matches_reference_on_random_texts(random_texts):
    kinds = set()
    for text in random_texts["digraph"]:
        got = parse_outcome(parse_digraph_text, text)
        want = parse_outcome(reference_parse_digraph_text, text)
        if isinstance(want, Digraph):
            assert isinstance(got, Digraph), (text, got)
            assert (got.vertices, got.arcs) == (want.vertices, want.arcs), text
            assert got == want and hash(got) == hash(want)
            kinds.add("ok")
        else:
            assert got == want, text
            kinds.add(want[1].split()[0])
    # a digraph and every kind of first error occurred
    assert kinds == {"ok", "digraph", "invalid", "malformed", "expected", "vertex", "header",
                     "duplicate"}


def test_line_digraph_from_indices_equals_one_from_name_pairs():
    for text in seeded_texts(random_digraph_text, 99, 300):
        if not isinstance(parse_outcome(reference_parse_digraph_text, text), Digraph):
            continue
        for d in (parse_digraph_text(text), reference_parse_digraph_text(text)):
            ld = line_digraph(d)
            rebuilt = Digraph(ld.vertices, ld.arcs)
            assert ld == rebuilt and rebuilt == ld
            assert hash(ld) == hash(rebuilt)


def random_labeling_text(rng):
    """Labeling text with token names, blank lines, and spaces or tabs between
    a name and its symbols; some texts carry a bad header, a repeated name, a
    label of the wrong length, a symbol out of range or not an integer, or a
    name with no symbols.  The first tab of a row, if any, is the gap after
    its name or ends the row: there both readers split a row alike."""
    alpha, k = rng.randint(0, 4), rng.randint(1, 4)
    header = rng.choice(([alpha, k], [alpha, k], [alpha, k], [alpha], [alpha, k, 1], [alpha, "k"]))
    names = [f"x{i}" for i in range(6)] + [f"x0{WALK_SEP}x1"]
    rows = []
    for name in rng.sample(names, rng.randint(0, len(names))):
        symbols = [rng.randint(1, max(alpha, 1)) for _ in range(k + rng.choice((0, 0, 0, 0, -1, 1)))]
        if symbols and rng.random() < 0.1:
            symbols[rng.randrange(len(symbols))] = rng.choice((0, alpha + 1, "a"))
        rows.append([name, *map(str, symbols)])
    if rows and rng.random() < 0.1:
        rows.append([rows[0][0], *rows[-1][1:]])
    lines = [" ".join(map(str, header))] if rng.random() < 0.97 else []
    for name, *symbols in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(("", " ", "\t", "  \t ")))
        lead = rng.choice(("", "", " ", "  "))
        gap = rng.choice(("\t", "\t", " ", "  ", " \t ", "\t  "))
        trail = rng.choice(("", "", " ", "\t"))
        lines.append(lead + name + (gap + rng.choice((" ", "  ")).join(symbols) if symbols else "")
                     + trail)
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


# a labeling and every kind of first error
LABELING_OUTCOMES = {"ok", "empty", "labeling", "invalid", "vertex", "alpha", "label"}


def parse_labeling_kinds(texts) -> set[str]:
    """The outcomes of the texts, each checked against the reference: "ok",
    or the first word of the first error."""
    kinds = set()
    for text in texts:
        got = parse_outcome(parse_labeling, text)
        want = parse_outcome(reference_parse_labeling, text)
        if isinstance(want, Labeling):
            assert isinstance(got, Labeling), (text, got)
            assert got == want and list(got.assignment) == list(want.assignment), text
            kinds.add("ok")
        else:
            assert got == want, text
            kinds.add(want[1].split()[0])
    return kinds


def test_parse_labeling_matches_reference_on_random_texts(random_texts):
    assert parse_labeling_kinds(random_texts["labeling"]) == LABELING_OUTCOMES


@pytest.mark.parametrize("rows", (labeling._BLOCK_ROWS, 1))
def test_parse_labeling_with_names_matches_the_plain_parse(monkeypatch, random_texts, rows):
    # names built at run time, one of them in no text; a key that is a name
    # is that name's string, and the labeling and every error are unchanged,
    # also when every row is a block of its own
    monkeypatch.setattr(labeling, "_BLOCK_ROWS", rows)
    names = [f"x{i}" for i in range(7)] + [f"x0{WALK_SEP}x1"]
    given_string = dict(zip(names, names))
    shared = 0
    for text in random_texts["labeling"]:
        got = parse_outcome(lambda text: parse_labeling(text, names=names), text)
        assert got == parse_outcome(parse_labeling, text), text
        if isinstance(got, Labeling):
            assert all(v is given_string[v] for v in got.codes), text
            shared += len(got.codes)
    assert shared > 300


@pytest.mark.parametrize("rows", (1, 2, 3))
def test_parse_labeling_in_blocks_matches_reference(monkeypatch, rows):
    # the first bad or repeated row in text order is reported, also when a
    # later block holds the other fault
    monkeypatch.setattr(labeling, "_BLOCK_ROWS", rows)
    assert parse_labeling_kinds(seeded_texts(random_labeling_text, rows)) == LABELING_OUTCOMES


def test_parse_labeling_reads_a_row_that_starts_with_a_tab_by_its_tokens():
    # the one intended difference: the reference took the empty text before
    # the row's first tab as the name
    text = "2 2\n\tx\t1 2\n"
    assert parse_labeling(text) == Labeling(2, 2, {"x": (1, 2)})
    with pytest.raises(InvalidParameterError, match="vertex name '' is empty"):
        reference_parse_labeling(text)
