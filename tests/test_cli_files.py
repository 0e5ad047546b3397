"""The CLI's file edge: reads and writes go a block of lines at a time.

Pinned here: the exit code and stderr of a file the CLI cannot read, that
a streamed read parses a file as the whole text parses, that a block write
gives the bytes of the whole text, and that a lift and a verify stay within
a few times the bytes of their files.
"""

import io
import itertools
import os
import random
import tracemalloc
from pathlib import Path

import pytest

from dnagraph import (Digraph, Labeling, cli, format_digraph_text, format_labeling,
                      parse_digraph_text, parse_labeling)
from dnagraph.digraph import _BLOCK_ROWS, _lines

from test_fast_paths import parse_outcome, random_digraph_text, random_labeling_text

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
# streamed reads
# ---------------------------------------------------------------------------

PARSERS = ((parse_digraph_text, random_digraph_text, 2024),
           (parse_labeling, random_labeling_text, 4242))


@pytest.mark.parametrize("parse, texts, seed", PARSERS, ids=("digraph", "labeling"))
def test_file_reader_matches_whole_text_parse(tmp_path, parse, texts, seed):
    # each text goes to the file as is, its line ends untranslated, in place:
    # truncating a file to nothing and rewriting it costs far more
    rng = random.Random(seed)
    path = tmp_path / "input.txt"
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        for _ in range(3000):
            text = texts(rng)
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


def traced_peak(argv) -> int:
    out = io.StringIO()
    tracemalloc.start()
    try:
        assert cli.main(argv, out=out) == 0, out.getvalue()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lift_and_verify_peak_near_the_bytes_of_their_files(tmp_path, monkeypatch):
    # reading or writing a whole file as one string peaks at over 4x the
    # bytes of the files (lift 4.2x, verify 4.6x); streamed, 2.6x and 2.8x
    monkeypatch.chdir(tmp_path)
    digraph, labeling = de_bruijn_subdigraph()
    Path("base.digraph").write_text(digraph, encoding="utf-8")
    Path("base.labeling").write_text(labeling, encoding="utf-8")
    cli.build_parser()
    lift = traced_peak(["lift", "--m", "4", "--digraph", "base.digraph",
                        "--labeling", "base.labeling", "--out-digraph", "l4.digraph",
                        "--out-labeling", "l4.labeling"])
    verify = traced_peak(["verify", "--mode", "dna", "--digraph", "l4.digraph",
                          "--labeling", "l4.labeling"])
    files = Path("l4.digraph").stat().st_size + Path("l4.labeling").stat().st_size
    assert files > 1_000_000
    assert lift <= 3 * files and verify <= 3 * files, (lift, verify, files)
