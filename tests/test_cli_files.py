"""The CLI's file edge: reads and writes go a block of lines at a time.

Pinned here: the exit code and stderr of a file the CLI cannot read, that
a verb writes all its output files or none, that
a streamed read parses a file as the whole text parses, that a block write
gives the bytes of the whole text, that a lift and a verify stay within
a few times the bytes of their files, and that the digraph writer and the
verifiers hold little beyond their inputs.
"""

import argparse
import io
import itertools
import operator
import os
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import dnagraph
import dnagraph.lift
from dnagraph import (Digraph, Labeling, cli, find_full_violation, find_quasi_violation,
                      format_digraph_text, format_labeling, line_digraph, make_dicycle,
                      parse_digraph_text, parse_labeling, to_dot)
from dnagraph.digraph import _BLOCK_ROWS, _lines
from dnagraph.lift import lift_m, line_vertex_counts

from test_fast_paths import parse_outcome

GOOD = {"good.digraph": "3 3\nx y\ny z\nz x\n", "good.labeling": "3 2\nx\t1 2\ny\t2 3\nz\t3 1\n"}
# a bad line, then a byte that is no UTF-8: a whole-file read reports the byte
LATE = {"late.digraph": b"3 3\nx y z\ny z\nz x\n\xff\n",
        "late.labeling": b"3 2\nx\t1 2 3\ny\t2 3\nz\t3 1\n\xff\n"}
# a byte that is no UTF-8, in the fourth 8 KiB chunk
DEEP = {"deep.digraph": GOOD["good.digraph"].encode() + b" \n" * 13_995 + b"\xff\n",
        "deep.labeling": GOOD["good.labeling"].encode() + b"\t\n" * 13_991 + b"\xfe\n"}

DECODE = "'utf-8' codec can't decode byte 0x{:x} in position {}: invalid start byte"
ERRORS = {
    "late.digraph": DECODE.format(0xFF, 18),
    "late.labeling": DECODE.format(0xFF, 24),
    "deep.digraph": DECODE.format(0xFF, 28_006),
    "deep.labeling": DECODE.format(0xFE, 28_004),
    "missing.txt": "[Errno 2] No such file or directory: 'missing.txt'",
    "folder": "[Errno 21] Is a directory: 'folder'",
}


def error_cases():
    """(argv, the bad file) for every verb that reads a digraph or labeling file."""
    for bad in ("late.digraph", "deep.digraph", "missing.txt", "folder"):
        yield ["verify", "--digraph", bad, "--labeling", "good.labeling"], bad
        yield ["lift", "--m", "1", "--digraph", bad, "--labeling", "good.labeling",
               "--out-digraph", "out.digraph"], bad
        yield ["search", "--alpha", "3", "--k", "2", "--digraph", bad], bad
        yield ["iso", "--first", bad, "--second", "good.digraph"], bad
        yield ["iso", "--first", "good.digraph", "--second", bad], bad
    for bad in ("late.labeling", "deep.labeling", "missing.txt", "folder"):
        yield ["verify", "--mode", "dna", "--digraph", "good.digraph", "--labeling", bad], bad
        yield ["lift", "--m", "1", "--digraph", "good.digraph", "--labeling", bad,
               "--out-labeling", "out.labeling"], bad


@pytest.mark.parametrize("argv, bad", list(error_cases()))
def test_unreadable_file_is_one_line_and_exit_2(tmp_path, monkeypatch, argv, bad):
    monkeypatch.chdir(tmp_path)
    for name, text in GOOD.items():
        Path(name).write_text(text, encoding="utf-8")
    for name, data in {**LATE, **DEEP}.items():
        Path(name).write_bytes(data)
    Path("folder").mkdir()
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {ERRORS[bad]}\n")
    assert not any(Path(name).exists() for name in ("out.digraph", "out.labeling"))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
@pytest.mark.parametrize("flag, data, want", [
    ("--digraph", GOOD["good.digraph"].encode(), (0, "ok: labeling is quasi-valid\n", "")),
    ("--digraph", LATE["late.digraph"], (2, "", f"error: {ERRORS['late.digraph']}\n")),
    ("--labeling", LATE["late.labeling"], (2, "", f"error: {ERRORS['late.labeling']}\n")),
], ids=("good", "late-digraph", "late-labeling"))
def test_a_pipe_is_read_once(tmp_path, monkeypatch, flag, data, want):
    # a pipe cannot be read a second time to report the whole-file error
    monkeypatch.chdir(tmp_path)
    for name, text in GOOD.items():
        Path(name).write_text(text, encoding="utf-8")
    files = {"--digraph": "good.digraph", "--labeling": "good.labeling"}
    read, write = os.pipe()
    try:
        os.write(write, data)
        os.close(write)
        files[flag] = f"/dev/fd/{read}"
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["verify", "--digraph", files["--digraph"],
                         "--labeling", files["--labeling"]], out=out, err=err)
    finally:
        os.close(read)
    assert (code, out.getvalue(), err.getvalue()) == want


# ---------------------------------------------------------------------------
# a verb writes all its files or none
# ---------------------------------------------------------------------------

def all_or_nothing_cases():
    """(argv, the output file it can open, or None) for each verb that writes
    a file, where a later output's path cannot be opened."""
    label = ["label", "--construction", "double-cycle", "--n", "5"]
    yield ["gen", "--family", "dicycle", "--n", "5", "--out", "d.txt", "--dot", "no/d.dot"], "d.txt"
    yield ["gen", "--family", "dicycle", "--n", "5", "--dot", "no/d.dot"], None
    yield label + ["--out-digraph", "g.txt", "--out-labeling", "no/l.txt"], "g.txt"
    yield label + ["--out-digraph", "g.txt", "--dot", "no/g.dot"], "g.txt"
    yield ["lift", "--m", "1", "--digraph", "good.digraph", "--labeling", "good.labeling",
           "--out-digraph", "l1.digraph", "--out-labeling", "no/l1.labeling"], "l1.digraph"
    yield ["sequence", "--demo", "--start", "TA", "--dot", "no/s.dot"], None
    yield ["search", "--alpha", "3", "--k", "2", "--digraph", "good.digraph",
           "--out-labeling", "no/s.labeling"], None


@pytest.mark.parametrize("argv, good, existing", [
    (argv, good, existing) for argv, good in all_or_nothing_cases()
    for existing in ((False, True) if good else (False,))],
    ids=("gen-new", "gen-existing", "gen-stdout", "label-new", "label-existing", "label-dot-new",
         "label-dot-existing", "lift-new", "lift-existing", "sequence", "search"))
def test_a_verb_writes_all_its_files_or_none(tmp_path, monkeypatch, argv, good, existing):
    monkeypatch.chdir(tmp_path)
    for name, text in GOOD.items():
        Path(name).write_text(text, encoding="utf-8")
    if good and existing:
        Path(good).write_bytes(b"kept bytes\n" * 100)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    missing = argv[-1]
    want = f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert (code, out.getvalue(), err.getvalue()) == (2, "", want)
    if good:
        assert Path(good).exists() == existing
        assert not existing or Path(good).read_bytes() == b"kept bytes\n" * 100


def test_an_existing_file_is_replaced_whole(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("d.txt").write_text("x" * 10_000, encoding="utf-8")
    assert cli.main(["gen", "--family", "dicycle", "--n", "3", "--out", "d.txt"]) == 0
    assert Path("d.txt").read_text(encoding="utf-8") == format_digraph_text(make_dicycle(3))


def test_a_path_named_twice_holds_the_last_write(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--family", "dicycle", "--n", "30", "--out", "x", "--dot", "x"]) == 0
    assert Path("x").read_text(encoding="utf-8") == to_dot(make_dicycle(30))
    # the shorter text written second leaves nothing of the longer one
    assert cli.main(["label", "--construction", "double-cycle", "--n", "5",
                     "--dot", "y", "--out-labeling", "y"]) == 0
    res = dnagraph.label_double_cycle(5)
    assert Path("y").read_text(encoding="utf-8") == format_labeling(res.labeling)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs the null device")
def test_a_special_file_takes_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert cli.main(["label", "--construction", "double-cycle", "--n", "5",
                     "--out-digraph", os.devnull, "--out-labeling", os.devnull], out=out) == 0
    assert out.getvalue() == "" and list(tmp_path.iterdir()) == []


def test_a_failed_write_removes_the_files_it_created(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def full_disk(lab, out=None):
        out.write("partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "format_labeling", full_disk)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["label", "--construction", "double-cycle", "--n", "5", "--out-digraph",
                     "g.txt", "--out-labeling", "l.txt"], out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: [Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# streamed reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parse, kind", ((parse_digraph_text, "digraph"),
                                         (parse_labeling, "labeling")), ids=("digraph", "labeling"))
def test_file_reader_matches_whole_text_parse(tmp_path, random_texts, parse, kind):
    # each text goes to the file as is, its line ends untranslated, in place:
    # truncating a file to nothing and rewriting it costs far more
    path = tmp_path / "input.txt"
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        for text in random_texts[kind]:
            for end in ("\n", "\r\n", "\r"):
                written = text.replace("\n", end)
                data = written.encode()
                os.pwrite(fd, data, 0)
                os.ftruncate(fd, len(data))
                want = parse_outcome(parse, written)
                got = parse_outcome(lambda p: cli._parse_file(parse, p), path)
                assert got == want, written
                if isinstance(want, Digraph):
                    assert got.vertices == want.vertices
                elif isinstance(want, Labeling):
                    assert list(got.codes) == list(want.codes)
    finally:
        os.close(fd)


LINE_ENDS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("end", LINE_ENDS, ids=map(ascii, LINE_ENDS))
def test_every_splitlines_separator_ends_a_line(tmp_path, end):
    path = tmp_path / "input.txt"
    for parse, rows, want in (
            (parse_digraph_text, ("4 3", "x y", "y z", "z x", "w"),
             Digraph("xyzw", [("x", "y"), ("y", "z"), ("z", "x")])),
            (parse_labeling, ("3 2", "x\t1 2", "y 2 3"), Labeling(3, 2, {"x": (1, 2), "y": (2, 3)}))):
        text = end.join(rows) + end
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            assert list(_lines(fh)) == path.read_text(encoding="utf-8").splitlines() == list(rows)
        assert parse(text) == cli._parse_file(parse, path) == want


@pytest.mark.parametrize("split", ("\r\n", "→"))
def test_a_character_split_across_the_chunk_boundary_reads_once(tmp_path, split):
    # the reader decodes 8,192 bytes at a time: the first byte of split ends
    # the first chunk, the rest of it starts the second
    head = "4 3\r\nx y\r\ny z\r\nz x\r\n"
    text = head + " " * (8191 - len(head)) + split + "w\r\n"
    assert text.encode()[8191:].startswith(split.encode())
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        assert fh._CHUNK_SIZE == 8192
        assert list(_lines(fh)) == path.read_text(encoding="utf-8").splitlines() == text.splitlines()
    assert cli._parse_file(parse_digraph_text, path) == parse_digraph_text(text)


# ---------------------------------------------------------------------------
# block writes
# ---------------------------------------------------------------------------

def digraph_with(arcs: int, isolated: int) -> Digraph:
    """A digraph with the given number of arcs among about sqrt(arcs)
    vertices, and the given number of vertices on no arc."""
    side = 1
    while side * side < arcs:
        side += 1
    names = [f"v{i}" for i in range(side)]
    pairs = list(itertools.islice(itertools.product(names, repeat=2), arcs))
    return Digraph(names + [f"w→{i}" for i in range(isolated)], pairs)


EDGES = (0, 1, _BLOCK_ROWS - 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)


@pytest.mark.parametrize("rows", EDGES)
def test_written_file_is_the_whole_text(tmp_path, rows):
    # rows arcs or labeled vertices, after a header row: the header plus
    # _BLOCK_ROWS - 1 rows fill the first block exactly
    path = tmp_path / "out.txt"
    for d in (digraph_with(rows, 0), digraph_with(rows, 3), digraph_with(0, rows)):
        with open(path, "w", encoding="utf-8") as fh:
            assert format_digraph_text(d, fh) is None
        assert path.read_bytes() == format_digraph_text(d).encode()
    lab = Labeling(10, 5, {f"v→{i}": [int(s) + 1 for s in f"{i:05d}"] for i in range(rows)})
    with open(path, "w", encoding="utf-8") as fh:
        assert format_labeling(lab, fh) is None
    assert path.read_bytes() == format_labeling(lab).encode()
    stdout = io.StringIO()
    format_labeling(lab, stdout)
    assert stdout.getvalue() == format_labeling(lab)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def de_bruijn_subdigraph():
    """A seeded spanning subdigraph of the loop-free B(4,3), named and
    labeled by its 3-mers."""
    rng = random.Random(1)
    words = ["".join(w) for w in itertools.product("1234", repeat=3)]
    arcs = [(u, u[1:] + z) for u in words for z in "1234"
            if u[1:] + z != u and rng.random() < 0.8]
    return (f"{len(words)} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs),
            "4 3\n" + "".join(f"{w}\t{' '.join(w)}\n" for w in words))


def traced_peak(call) -> tuple:
    """call()'s result, and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_peak(argv) -> int:
    out = io.StringIO()
    code, peak = traced_peak(lambda: cli.main(argv, out=out))
    assert code == 0, out.getvalue()
    return peak


def test_lift_and_verify_peak_near_the_bytes_of_their_files(tmp_path, monkeypatch):
    # reading or writing a whole file as one string peaks at over 4x the
    # bytes of the files (lift 4.2x, verify 4.6x at m = 4); streamed,
    # 2.5-2.7x and 2.2-2.4x on Python 3.10-3.13, and verify read 2.6-2.9x
    # while the labeling parse kept every row's tokens until the end of the
    # file.  At m = 4 the verify peak is the labeling parse.  At m = 5 a
    # writer that copied every name and verifiers that kept a set of every
    # code read 2.29x and 1.96x on Python 3.11; writing from the names and
    # sorting the codes, 1.57-1.67x and 1.54-1.69x on Python 3.10-3.13.  A
    # labeling keyed by the digraph's names, read one block at a time, and
    # a lift that keeps one int per arc id, read 1.43-1.49x and 1.25-1.39x
    monkeypatch.chdir(tmp_path)
    digraph, labeling = de_bruijn_subdigraph()
    Path("base.digraph").write_text(digraph, encoding="utf-8")
    Path("base.labeling").write_text(labeling, encoding="utf-8")
    cli.build_parser()
    for m, lift_bound, verify_bound in ((4, 3, 2.5), (5, 1.55, 1.45)):
        lifted = (f"l{m}.digraph", f"l{m}.labeling")
        lift = cli_peak(["lift", "--m", str(m), "--digraph", "base.digraph",
                         "--labeling", "base.labeling", "--out-digraph", lifted[0],
                         "--out-labeling", lifted[1]])
        verify = cli_peak(["verify", "--mode", "dna", "--digraph", lifted[0],
                           "--labeling", lifted[1]])
        files = sum(Path(name).stat().st_size for name in lifted)
        assert files > 1_000_000
        assert lift <= lift_bound * files, (m, lift, files)
        assert verify <= verify_bound * files, (m, verify, files)


def test_verify_keys_the_labeling_by_the_digraph_names(tmp_path):
    digraph, labeling = de_bruijn_subdigraph()
    paths = tmp_path / "base.digraph", tmp_path / "base.labeling"
    paths[0].write_text(digraph, encoding="utf-8")
    paths[1].write_text(labeling, encoding="utf-8")
    d, lab = cli._load_pair(argparse.Namespace(digraph=str(paths[0]), labeling=str(paths[1])))
    assert lab == parse_labeling(labeling) and d.vertex_count == 64
    assert all(map(operator.is_, lab.codes, sorted(d.vertices)))


def test_over_cap_lift_is_refused_before_anything_is_built(tmp_path, monkeypatch):
    # the seventh lift of the subdigraph would have 201,749 vertices
    monkeypatch.chdir(tmp_path)
    digraph, labeling = de_bruijn_subdigraph()
    Path("base.digraph").write_text(digraph, encoding="utf-8")
    Path("base.labeling").write_text(labeling, encoding="utf-8")
    # vertex 112 takes the label of 111: a repeated label
    Path("bad.labeling").write_text(labeling.replace("112\t1 1 2", "112\t1 1 1"),
                                    encoding="utf-8")

    def refuse(d):
        raise AssertionError("a line digraph was built")

    monkeypatch.setattr(dnagraph.lift, "line_digraph", refuse)
    argv = ["lift", "--m", "7", "--digraph", "base.digraph", "--out-digraph", "l7.digraph",
            "--out-labeling", "l7.labeling", "--labeling"]
    bad = find_quasi_violation(parse_digraph_text(digraph), parse_labeling(
        Path("bad.labeling").read_text(encoding="utf-8")))
    for labels, want in (("base.labeling", (1, "", "error: next lift would create 201749 "
                                                    "vertices, cap is 100000\n")),
                         ("bad.labeling", (2, "", f"error: lift needs a quasi-valid labeling: "
                                                  f"{bad}\n"))):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv + [labels], out=out, err=err)
        assert (code, out.getvalue(), err.getvalue()) == want
    assert bad.startswith("vertices 111 and 112 share label 111")
    assert not any(Path(name).exists() for name in ("l7.digraph", "l7.labeling"))


def test_a_bad_labeling_comes_before_the_cap_of_the_first_level(tmp_path, monkeypatch):
    # L(C3) has 3 vertices, over a cap of 2; y and z share a label
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dnagraph.lift, "LINE_VERTEX_CAP", 2)
    Path("c3.digraph").write_text(GOOD["good.digraph"], encoding="utf-8")
    Path("c3.labeling").write_text("3 2\nx\t1 2\ny\t2 3\nz\t2 3\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["lift", "--m", "1", "--digraph", "c3.digraph", "--labeling", "c3.labeling",
                     "--out-digraph", "l1.digraph", "--out-labeling", "l1.labeling"],
                    out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "error: lift needs a quasi-valid labeling: vertices y and z share label 23\n")
    assert not any(Path(name).exists() for name in ("l1.digraph", "l1.labeling"))


def test_predicted_vertex_counts_on_the_subdigraph():
    d = parse_digraph_text(de_bruijn_subdigraph()[0])
    predicted = line_vertex_counts(d, 9)
    built = []
    for _ in range(5):
        d = line_digraph(d)
        built.append(d.vertex_count)
    assert predicted[:5] == built and built[-1] == 20_073
    # the count stops at the first level over the cap
    assert predicted[5:] == [63_643, 201_749]


@pytest.fixture(scope="module")
def lifted_five_times() -> tuple[Digraph, Labeling]:
    digraph, labeling = de_bruijn_subdigraph()
    d, lab = lift_m(parse_digraph_text(digraph), parse_labeling(labeling), 5)
    assert (d.vertex_count, d.arc_count) == (20_073, 63_643)
    return d, lab


@pytest.mark.parametrize("verify, bound", ((find_full_violation, 64), (find_quasi_violation, 48)),
                         ids=("full", "quasi"))
def test_verifier_peaks_at_a_few_bytes_a_vertex(lifted_five_times, verify, bound):
    # a set of every code, and a prefix and a suffix list, peaked at 139
    # bytes a vertex in both verifiers; the sorted codes and streamed counts
    # peak at 39 (full) and 17 (quasi) on Python 3.11
    d, lab = lifted_five_times
    bad, peak = traced_peak(lambda: verify(d, lab))
    assert bad is None
    assert peak <= bound * d.vertex_count, peak / d.vertex_count


def test_digraph_writer_peaks_below_twice_its_names(lifted_five_times, tmp_path):
    # copying every name with a space after it, and a set of every vertex
    # index, peaked at 2.66x the bytes of the names; writing from the names
    # themselves, 1.09x on Python 3.11
    d, _ = lifted_five_times
    path = tmp_path / "out.digraph"
    with open(path, "w", encoding="utf-8") as fh:
        written, peak = traced_peak(lambda: format_digraph_text(d, fh))
    assert written is None
    assert path.read_bytes() == format_digraph_text(d).encode()
    names = sum(map(sys.getsizeof, d.vertices))
    assert peak <= 2 * names, peak / names


def test_to_dot_streams_below_half_its_bytes(tmp_path):
    # built as one string, this cycle's DOT text peaked at 5.3 MB for its
    # 1.02 MB; streamed, at 0.41 MB
    d = make_dicycle(20_000)
    lab = Labeling(4, 8, {v: [1 + i // 4 ** j % 4 for j in range(8)]
                          for i, v in enumerate(d.vertices)})
    plain, labeled = tmp_path / "plain.dot", tmp_path / "labeled.dot"
    with open(plain, "w", encoding="utf-8") as fh:
        written, peak = traced_peak(lambda: to_dot(d, None, fh))
        assert written is None
    with open(labeled, "w", encoding="utf-8") as fh:
        to_dot(d, lab, fh)
    assert peak < plain.stat().st_size / 2, peak
    assert to_dot(d) == plain.read_text(encoding="utf-8")
    assert to_dot(d, lab) == labeled.read_text(encoding="utf-8")
