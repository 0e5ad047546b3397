"""Pin the bytes of a fixed list of CLI invocations.

Every invocation runs through ``cli.main`` in-process, in one directory, in
a fixed order.  One sha256 covers each call's argv, exit code, stdout and
stderr, and the contents of every file it writes.  The list reaches every
error of ``parse_digraph_text``, ``parse_labeling`` and ``Labeling`` that a
file can raise, each verifier's violations, ``gen`` and ``label`` with their
file outputs, a small ``lift``, ``search``, ``iso`` and ``sequence --demo``.
A change that is meant to keep the CLI's behaviour keeps this digest.
A second digest covers ``sequence`` alone, on inputs whose Eulerian paths
range from one to past the count's cap.
"""

import hashlib
import io
import itertools
from pathlib import Path

from dnagraph import Digraph, Labeling, cli, format_digraph_text, format_labeling

DIGRAPHS = {
    "cycle": "3 3\nx y\ny z\nz x\n",
    "cycle-spaced": "3 3\n\nx\ty\n  y   z \n\tz x\n\n",
    "isolated": "4 3\nx y\ny z\nz x\nw\n",
    "loop": "2 2\nx x\nx y\n",
    # each text below is refused by parse_digraph_text
    "empty": "",
    "blank": "\n  \n\t\n",
    "short-header": "3\nx y\n",
    "long-header": "3 3 3\nx y\n",
    "word-header": "3 m\nx y\n",
    "three-tokens": "3 3\nx y z\ny z\nz x\n",
    "arc-count": "3 4\nx y\ny z\nz x\n",
    "vertex-line": "3 3\nx y\ny z\nz x\nx\n",
    "vertex-count": "4 3\nx y\ny z\nz x\n",
    "repeated-arc": "3 4\nx y\ny z\nz x\nx y\n",
}

LABELINGS = {
    "full3": "3 2\nx\t1 2\ny\t2 3\nz\t3 1\n",
    "full5": "5 2\nx\t1 2\ny\t2 3\nz\t3 1\n",
    "spaced": "3 2\n\n  x 1 2\ny\t 2   3\nz\t3 1  \n\n",
    "quasi2": "2 2\nx\t1 2\ny\t2 1\nz\t1 1\n",
    "shared": "3 2\nx\t1 2\ny\t1 2\nz\t3 1\n",
    "mismatch": "3 2\nx\t1 2\ny\t3 3\nz\t3 1\n",
    "missing": "3 2\nx\t1 2\ny\t2 3\n",
    "with-w": "3 2\nw\t3 3\nx\t1 2\ny\t2 3\nz\t3 1\n",
    "loop": "2 2\nx\t1 1\ny\t1 2\n",
    # each text below is refused by parse_labeling or Labeling
    "empty": "",
    "blank": " \n\n",
    "short-header": "3\nx\t1 2\n",
    "word-header": "3 k\nx\t1 2\n",
    "twice": "3 2\nx\t1 2\nx\t2 3\n",
    "alpha0": "0 2\nx\t1 1\n",
    "k1": "3 1\nx\t1\n",
    "name-only": "3 2\nx\n",
    "length": "3 2\nx\t1 2 3\n",
    "alphabet": "3 2\nx\t1 4\n",
    "word-symbol": "3 2\nx\t1 a\n",
    "length-then-word": "3 2\nx\t1 2 3\ny\t1 a\n",
    "word-then-length": "3 2\nx\t1 a\ny\t1 2 3\n",
    "alphabet-then-length": "3 2\nx\t1 4\ny\t1 2 3\n",
    "length-then-alphabet": "3 2\nx\t1\ny\t4 4\n",
}
# (digraph, labeling) pairs that both parse
PAIRS = (("cycle", "full3"), ("cycle", "full5"), ("cycle-spaced", "spaced"), ("cycle", "quasi2"),
         ("cycle", "shared"), ("cycle", "mismatch"), ("cycle", "missing"), ("cycle", "with-w"),
         ("isolated", "with-w"), ("isolated", "full3"), ("loop", "loop"))


def cases():
    """(argv, files the call writes), in the order they run."""
    parsed = {name for pair in PAIRS for name in pair}
    for name in DIGRAPHS:
        if name not in parsed:
            yield ["verify", "--digraph", f"d-{name}.txt", "--labeling", "l-full3.txt"], ()
    for name in LABELINGS:
        if name not in parsed:
            files = ["--digraph", "d-cycle.txt", "--labeling", f"l-{name}.txt"]
            yield ["verify", *files], ()
            yield ["lift", "--m", "1", *files], ()
    for d, lab in PAIRS:
        files = ["--digraph", f"d-{d}.txt", "--labeling", f"l-{lab}.txt"]
        for mode in ("quasi", "full", "dna"):
            yield ["verify", "--mode", mode, *files], ()
        yield ["lift", "--m", "1", *files], ()
    yield ["gen", "--family", "chorded-cycle", "--n", "7", "--out", "gen.txt",
           "--dot", "gen.dot"], ("gen.txt", "gen.dot")
    yield ["gen", "--family", "ladder", "--n", "3"], ()
    yield ["gen", "--family", "dicycle", "--n", "1"], ()
    yield ["label", "--construction", "chorded-cycle", "--n", "12", "--out-digraph", "c.txt",
           "--out-labeling", "c.lab", "--dot", "c.dot"], ("c.txt", "c.lab", "c.dot")
    yield ["label", "--construction", "infinity-even", "--n", "4", "--p", "6"], ()
    yield ["label", "--construction", "chorded-cycle", "--n", "5"], ()
    yield ["lift", "--m", "2", "--digraph", "c.txt", "--labeling", "c.lab",
           "--out-digraph", "c2.txt", "--out-labeling", "c2.lab"], ("c2.txt", "c2.lab")
    for mode in ("quasi", "full", "dna"):
        yield ["verify", "--mode", mode, "--digraph", "c2.txt", "--labeling", "c2.lab"], ()
    yield ["lift", "--m", "0", "--digraph", "c.txt", "--labeling", "c.lab"], ()
    for mode, alpha, k, verdict in (("quasi", 2, 2, "SAT"), ("quasi", 2, 3, "SAT"),
                                    ("full", 3, 2, "SAT"), ("full", 2, 2, "UNSAT")):
        lab = f"s-{mode}-{alpha}-{k}.lab"
        yield (["search", "--mode", mode, "--alpha", str(alpha), "--k", str(k),
                "--digraph", "d-cycle.txt", "--out-labeling", lab],
               (lab,) if verdict == "SAT" else ())
    yield ["search", "--alpha", "4", "--k", "4", "--digraph", "c.txt", "--budget", "3"], ()
    yield ["search", "--alpha", "1", "--k", "3", "--digraph", "d-cycle.txt"], ()
    yield ["iso", "--first", "d-cycle.txt", "--second", "d-cycle-spaced.txt"], ()
    yield ["iso", "--first", "d-cycle.txt", "--second", "d-isolated.txt"], ()
    yield ["iso", "--first", "d-cycle.txt", "--second", "d-repeated-arc.txt"], ()
    yield ["sequence", "--demo", "--dot", "seq.dot"], ("seq.dot",)
    yield ["sequence", "--digraph", "d-cycle.txt", "--labeling", "l-full3.txt", "--start", "y"], ()
    yield ["sequence", "--digraph", "d-cycle.txt", "--labeling", "l-full5.txt"], ()


def test_cli_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for prefix, texts in (("d", DIGRAPHS), ("l", LABELINGS)):
        for name, text in texts.items():
            Path(f"{prefix}-{name}.txt").write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    calls = 0
    for argv, written in cases():
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, out=out, err=err)
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        for path in written:
            digest.update(repr((path, Path(path).read_text(encoding="utf-8"))).encode())
        calls += 1
    assert calls == 107
    assert digest.hexdigest() == "93c8792aa8a78a493002482c9ac8e695e5094e1b9d086d0579374698b4347186"


def sequence_inputs():
    """(digraph file, labeling file) for every pinned sequence call, each pair
    written into the working directory before it is yielded."""
    def setup(argv):
        assert cli.main(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv

    for n in range(6, 15):
        setup(["label", "--construction", "chorded-cycle", "--n", str(n),
               "--out-digraph", f"c{n}.txt", "--out-labeling", f"c{n}.lab"])
        setup(["lift", "--m", "1", "--digraph", f"c{n}.txt", "--labeling", f"c{n}.lab",
               "--out-digraph", f"c{n}-1.txt", "--out-labeling", f"c{n}-1.lab"])
        yield f"c{n}-1.txt", f"c{n}-1.lab"
    for name, params in (("infinity-even", ["--n", "4", "--p", "5"]), ("windmill", ["--n", "4"])):
        setup(["label", "--construction", name, *params,
               "--out-digraph", f"{name}.txt", "--out-labeling", f"{name}.lab"])
        yield f"{name}.txt", f"{name}.lab"
    # the complete B(2,4): 4096 eulerian paths, far above the count's cap
    words = ["".join(w) for w in itertools.product("12", repeat=4)]
    Path("b24.txt").write_text(format_digraph_text(
        Digraph(words, [(w, w[1:] + c) for w in words for c in "12"])), encoding="utf-8")
    Path("b24.lab").write_text(format_labeling(
        Labeling(2, 4, {w: tuple(map(int, w)) for w in words})), encoding="utf-8")
    yield "b24.txt", "b24.lab"


def test_sequence_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = [["--demo"]] + [["--demo", "--start", v] for v in ("TA", "AC", "CG", "CT", "GA")]
    calls += [["--digraph", g, "--labeling", lab] for g, lab in sequence_inputs()]
    digest = hashlib.sha256()
    for args in calls:
        argv = ["sequence", *args, "--dot", "seq.dot"]
        Path("seq.dot").write_text("", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, out=out, err=err)
        dot = Path("seq.dot").read_text(encoding="utf-8")
        digest.update(repr((argv, code, out.getvalue(), err.getvalue(), dot)).encode())
    assert len(calls) == 18
    assert digest.hexdigest() == "fa4b6958a6ed1e1cb99eb740a8a14836ea3667eb5ac394e0d9a21253b52f7b5e"
