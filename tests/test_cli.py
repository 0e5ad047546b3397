import contextlib
import io
import itertools
import os
import subprocess
import sys

import pytest

import dnagraph.labeling
import dnagraph.lift
from dnagraph import (CONSTRUCTIONS, FAMILIES, Digraph, Labeling, cli, format_digraph_text,
                      format_labeling, line_digraph, sample_pevzner_graph)
from test_cli_usage import VERBS


def run_with_err(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run(argv):
    code, out, _ = run_with_err(argv)
    return code, out


def test_gen_writes_digraph_text(tmp_path):
    path = tmp_path / "g.txt"
    dot = tmp_path / "g.dot"
    code, _ = run(["gen", "--family", "chorded-cycle", "--n", "12",
                   "--out", str(path), "--dot", str(dot)])
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "12 16"
    assert dot.read_text().startswith("digraph")


def test_gen_stdout_deterministic():
    code1, out1 = run(["gen", "--family", "ladder", "--n", "3"])
    code2, out2 = run(["gen", "--family", "ladder", "--n", "3"])
    assert code1 == code2 == 0 and out1 == out2
    assert out1.splitlines()[0] == "6 7"


def test_gen_invalid_parameter_is_usage_error():
    code, out, err = run_with_err(["gen", "--family", "dicycle", "--n", "1"])
    assert code == 2 and "error" in err and out == ""


# the smallest valid member of every catalogue entry
SMALLEST_FAMILIES = {
    "dipath": {"n": 2}, "dicycle": {"n": 2}, "chorded-cycle": {"n": 4},
    "infinity": {"n": 3, "p": 3}, "propeller3": {"n": 3, "p": 3, "q": 3},
    "windmill": {"n": 3}, "ladder": {"n": 2},
}
SMALLEST_CONSTRUCTIONS = {
    "chorded-cycle": {"n": 6}, "infinity-even": {"n": 4, "p": 4},
    "infinity-odd": {"n": 5, "p": 5}, "infinity-c3": {"p": 4}, "double-cycle": {"n": 3},
    "windmill": {"n": 3}, "propeller3": {"n": 4, "p": 4, "q": 4},
}


def test_catalogue_tables_build_through_cli():
    for verb, flag, table, smallest, render in (
            ("gen", "family", FAMILIES, SMALLEST_FAMILIES, format_digraph_text),
            ("label", "construction", CONSTRUCTIONS, SMALLEST_CONSTRUCTIONS,
             lambda result: format_labeling(result.labeling))):
        assert set(smallest) == set(table)
        for name, params in smallest.items():
            required, make = table[name]
            assert required == tuple(params)
            argv = [verb, f"--{flag}", name]
            for param, value in params.items():
                argv += [f"--{param}", str(value)]
            code, out, err = run_with_err(argv)
            assert code == 0 and err == "", (argv, err)
            assert out == render(make(*params.values()))
    for argv, flag in ((["gen", "--family", "infinity", "--n", "4"], "--family infinity"),
                       (["label", "--construction", "infinity-c3"], "--construction infinity-c3")):
        code, out, err = run_with_err(argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} needs --p\n"


def test_label_missing_parameter_is_usage_error():
    code, out, err = run_with_err(["label", "--construction", "infinity-c3"])
    assert code == 2 and "--p" in err and out == ""


def test_label_out_of_catalogue_is_usage_error():
    code, out, err = run_with_err(["label", "--construction", "chorded-cycle", "--n", "15"])
    assert code == 2 and "error" in err and out == ""


def test_label_verify_lift_round_trip(tmp_path):
    g = tmp_path / "g.txt"
    l = tmp_path / "l.txt"
    code, _ = run(["label", "--construction", "infinity-even", "--n", "4", "--p", "5",
                   "--out-digraph", str(g), "--out-labeling", str(l)])
    assert code == 0

    code, out = run(["verify", "--mode", "quasi", "--digraph", str(g), "--labeling", str(l)])
    assert code == 0 and out.startswith("ok")

    g2 = tmp_path / "lifted_g.txt"
    l2 = tmp_path / "lifted_l.txt"
    code, _ = run(["lift", "--m", "1", "--digraph", str(g), "--labeling", str(l),
                   "--out-digraph", str(g2), "--out-labeling", str(l2)])
    assert code == 0
    code, out = run(["verify", "--mode", "dna", "--digraph", str(g2), "--labeling", str(l2)])
    assert code == 0


def test_lifted_isolated_vertex_is_readable(tmp_path):
    # L(P2) is one vertex and no arc; verify must read the file lift writes
    g = tmp_path / "p2.txt"
    l = tmp_path / "p2.labeling"
    run(["gen", "--family", "dipath", "--n", "2", "--out", str(g)])
    l.write_text("2 2\nv1\t1 2\nv2\t2 1\n")
    g2 = tmp_path / "lifted.txt"
    l2 = tmp_path / "lifted.labeling"
    code, _ = run(["lift", "--m", "1", "--digraph", str(g), "--labeling", str(l),
                   "--out-digraph", str(g2), "--out-labeling", str(l2)])
    assert code == 0
    assert g2.read_text() == "1 0\nv1→v2\n"
    code, out = run(["verify", "--mode", "full", "--digraph", str(g2), "--labeling", str(l2)])
    assert code == 0 and out == "ok: labeling is full-valid\n"


def _dicycle_labeling(tmp_path, labeling_text):
    g = tmp_path / "g.txt"
    l = tmp_path / "l.txt"
    run(["gen", "--family", "dicycle", "--n", str(labeling_text.count("\n") - 1),
         "--out", str(g)])
    l.write_text(labeling_text)
    return str(g), str(l)


@pytest.mark.parametrize("labeling, line", [
    # full, but over five symbols
    ("5 2\nv1\t1 2\nv2\t2 1\n", "violation: alphabet size 5 exceeds the four nucleotides\n"),
    # quasi-valid, not full (v1 overlaps itself), and over five symbols: the full violation wins
    ("5 2\nv1\t1 1\nv2\t1 2\nv3\t2 1\n",
     "violation: overlap pair v1, v1 (shared window 1) is not an arc\n"),
], ids=["full-over-five-symbols", "breaks-both-rules"])
def test_verify_dna_stdout(tmp_path, labeling, line):
    g, l = _dicycle_labeling(tmp_path, labeling)
    assert run(["verify", "--mode", "dna", "--digraph", g, "--labeling", l]) == (1, line)


def test_non_integer_symbol_is_usage_error(tmp_path):
    g, l = _dicycle_labeling(tmp_path, "2 2\nv1\t1 x\nv2\t2 1\n")
    code, out, err = run_with_err(["verify", "--digraph", g, "--labeling", l])
    assert code == 2 and out == ""
    assert err == "error: invalid literal for int() with base 10: 'x'\n"


def test_refused_file_exits_2_and_violation_exits_1(tmp_path):
    # a labeling file the format refuses is bad input, like a non-integer symbol
    g, l = _dicycle_labeling(tmp_path, "3 2\nv1\t1 4\nv2\t2 1\n")
    for verb in (["verify"], ["lift", "--m", "1"]):
        code, out, err = run_with_err([*verb, "--digraph", g, "--labeling", l])
        assert (code, out, err) == (2, "", "error: label for v1 uses symbols outside 1..3\n")
    # quasi but not full: v3 = 1 1 overlaps itself and C3 has no loop
    g, l = _dicycle_labeling(tmp_path, "2 2\nv1\t1 2\nv2\t2 1\nv3\t1 1\n")
    code, out, err = run_with_err(["verify", "--mode", "full", "--digraph", g, "--labeling", l])
    assert code == 1 and out.startswith("violation:") and err == ""


def test_verify_reports_first_violation(tmp_path):
    g = tmp_path / "g.txt"
    l = tmp_path / "l.txt"
    run(["label", "--construction", "chorded-cycle", "--n", "6",
         "--out-digraph", str(g), "--out-labeling", str(l)])
    code, out = run(["verify", "--mode", "full", "--digraph", str(g), "--labeling", str(l)])
    assert code == 1
    assert out.startswith("violation:")


def test_label_stdout_contains_header():
    code, out = run(["label", "--construction", "double-cycle", "--n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "3 2"


def test_search_reports_verdict_line(tmp_path):
    g = tmp_path / "g.txt"
    run(["gen", "--family", "chorded-cycle", "--n", "9", "--out", str(g)])
    cert = tmp_path / "cert.txt"
    code, out = run(["search", "--alpha", "4", "--k", "3", "--digraph", str(g),
                     "--out-labeling", str(cert)])
    assert code == 0
    fields = out.split()
    assert fields[:4] == ["9", "4", "3", "SAT"]
    code, out = run(["verify", "--digraph", str(g), "--labeling", str(cert)])
    assert code == 0


def test_iso_exit_codes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    run(["gen", "--family", "dicycle", "--n", "4", "--out", str(a)])
    run(["gen", "--family", "dicycle", "--n", "4", "--out", str(b)])
    run(["gen", "--family", "dicycle", "--n", "5", "--out", str(c)])
    assert run(["iso", "--first", str(a), "--second", str(b)])[0] == 0
    code, out = run(["iso", "--first", str(a), "--second", str(c)])
    assert code == 1 and "not isomorphic" in out


def test_sequence_demo_spells_target():
    code, out = run(["sequence", "--demo", "--start", "TA"])
    assert code == 0
    assert "spectrum (eulerian): TACGACTA" in out
    assert "spectrum (line digraph): TACGACTA" in out


def test_sequence_checks_the_labeling_once(monkeypatch):
    # every quasi check runs _quasi: the lift's input check is the one check
    # of D, and the lift's full self-check reads L(D)
    calls = []
    check = dnagraph.labeling._quasi

    def counting(d, lab):
        calls.append(d)
        return check(d, lab)

    for module in (dnagraph.labeling, dnagraph.lift):
        monkeypatch.setattr(module, "_quasi", counting)
    code, out = run(["sequence", "--demo", "--start", "TA"])
    assert code == 0 and "spectrum (line digraph): TACGACTA" in out
    d, _ = sample_pevzner_graph()
    assert calls == [d, line_digraph(d)]


def test_sequence_checks_the_lifted_labels(corrupt_trusted_labelings):
    code, out, err = run_with_err(["sequence", "--demo", "--start", "TA"])
    assert (code, out) == (1, "")
    assert err.startswith("error: lifted labeling is not full (library bug):")
    assert err.count("\n") == 1


def test_label_runs_the_construction_self_check(corrupt_trusted_labelings):
    code, out, err = run_with_err(["label", "--construction", "chorded-cycle", "--n", "9"])
    assert (code, out) == (1, "")
    assert err.startswith("error: chorded-cycle construction failed self-verification: ")
    assert err.count("\n") == 1


def test_sequence_requires_input():
    code, out, err = run_with_err(["sequence"])
    assert code == 2 and out == ""
    assert err.startswith("error: sequence needs --demo") and err.count("\n") == 1


def test_sequence_unknown_start_is_usage_error():
    code, out, err = run_with_err(["sequence", "--demo", "--start", "ZZ"])
    assert code == 2 and out == ""
    assert err == "error: start vertex ZZ is not in the digraph\n"


@pytest.mark.parametrize("labels, error", [
    ("x\t1 2\ny\t2 3\n", "labeling is not total over the digraph (missing=['z'], extra=[])"),
    ("x\t1 2\ny\t2 3\nz\t3 1\nw\t4 4\n",
     "labeling is not total over the digraph (missing=[], extra=['w'])"),
    ("x\t1 2\ny\t2 3\nz\t3 4\n",
     "lift needs a quasi-valid labeling: arc z -> x: suffix 4 does not match prefix 1"),
])
def test_sequence_bad_labeling_writes_nothing(tmp_path, labels, error):
    g = tmp_path / "cycle.txt"
    l = tmp_path / "cycle.lab"
    g.write_text("3 3\nx y\ny z\nz x\n")
    l.write_text("4 2\n" + labels)
    code, out, err = run_with_err(["sequence", "--digraph", str(g), "--labeling", str(l)])
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("dot", [[], ["--dot", "seq.dot"]])
def test_sequence_repeated_walk_name_writes_nothing(tmp_path, monkeypatch, dot):
    # arcs a -> b→c and a→b -> c would both name their walk a→b→c in L(D)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("4 3\na b→c\nb→c a→b\na→b c\n", encoding="utf-8")
    (tmp_path / "l.txt").write_text("4 2\na\t1 2\nb→c\t2 3\na→b\t3 4\nc\t4 1\n",
                                    encoding="utf-8")
    code, out, err = run_with_err(["sequence", "--digraph", "g.txt", "--labeling", "l.txt", *dot])
    assert (code, out, err) == (2, "", "error: duplicate vertex name in vertex set\n")
    assert not (tmp_path / "seq.dot").exists()


def test_conjecture_table():
    code, out = run(["conjecture", "--n-min", "2", "--n-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "alpha", "k", "verdict", "nodes"]
    assert any("SAT" in line for line in lines[1:])


def test_acceptance_single_criterion():
    code, out = run(["acceptance", "--only", "sbh-pipeline"])
    assert code == 0
    assert out.startswith("PASS  sbh-pipeline")


def test_acceptance_unknown_criterion():
    code, out, err = run_with_err(["acceptance", "--only", "no-such-check"])
    assert code == 2 and "error" in err and out == ""


def test_sequence_reports_path_count():
    code, out = run(["sequence", "--demo", "--start", "TA"])
    assert code == 0
    assert "distinct eulerian paths from this start: 1" in out


def test_sequence_marks_capped_count(tmp_path):
    # B(2,4): 4096 eulerian paths from 1111, far above the count's cap
    words = ["".join(w) for w in itertools.product("12", repeat=4)]
    d = Digraph(words, [(w, w[1:] + c) for w in words for c in "12"])
    lab = Labeling(2, 4, {w: tuple(map(int, w)) for w in words})
    g = tmp_path / "b24.txt"
    l = tmp_path / "b24.lab"
    g.write_text(format_digraph_text(d))
    l.write_text(format_labeling(lab))
    code, out = run(["sequence", "--digraph", str(g), "--labeling", str(l), "--start", "1111"])
    assert code == 0
    assert out.endswith("distinct eulerian paths from this start: at least 64\n")


def test_search_budget_flag(tmp_path):
    g = tmp_path / "g.txt"
    run(["gen", "--family", "chorded-cycle", "--n", "15", "--out", str(g)])
    code, out = run(["search", "--alpha", "4", "--k", "3", "--budget", "5", "--digraph", str(g)])
    assert code == 0
    assert out.split()[3] == "BUDGET_EXCEEDED"


def test_nonpositive_budget_is_usage_error(tmp_path):
    g = tmp_path / "g.txt"
    run(["gen", "--family", "ladder", "--n", "3", "--out", str(g)])
    argv = ["search", "--alpha", "3", "--k", "4", "--budget", "0", "--digraph", str(g)]
    code, out, err = run_with_err(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--family", "nonsense", "--n", "3"], out=io.StringIO())
    assert exc.value.code == 2


def test_missing_file_exit_2(tmp_path):
    code, out = run(["verify", "--digraph", str(tmp_path / "nope.txt"),
                     "--labeling", str(tmp_path / "nope2.txt")])
    assert code == 2


def test_directory_path_exit_2(tmp_path):
    code, out, err = run_with_err(["verify", "--digraph", str(tmp_path),
                                   "--labeling", str(tmp_path / "x")])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_one_parser_serves_interleaved_calls(tmp_path, capsys):
    # a usage error, then a search, then a lift, all through the parser built
    # once per process, print what each prints through a freshly built parser
    digraph, labeling = tmp_path / "d.txt", tmp_path / "l.txt"
    digraph.write_text("3 3\nx y\ny z\nz x\n")
    labeling.write_text("3 2\nx\t1 2\ny\t2 3\nz\t3 1\n")
    calls = (["search", "--alpha"],
             ["search", "--alpha", "2", "--k", "2", "--digraph", str(digraph)],
             ["lift", "--m", "1", "--digraph", str(digraph), "--labeling", str(labeling)])

    def call(argv):
        try:
            result = run_with_err(argv)
        except SystemExit as exc:  # argparse prints usage errors to sys.stderr
            result = exc.code
        return result, capsys.readouterr()

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert cli.build_parser() is cli.build_parser()
    assert fresh[0][0] == 2 and "usage: dnagraph search" in fresh[0][1].err


def test_caps_exit_1_with_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for n in (13, 41):
        run(["gen", "--family", "dicycle", "--n", str(n), "--out", f"c{n}.txt"])
    run(["label", "--construction", "chorded-cycle", "--n", "12",
         "--out-digraph", "c12.txt", "--out-labeling", "c12.lab"])
    monkeypatch.setattr(dnagraph.lift, "LINE_VERTEX_CAP", 20)
    calls = {
        ("iso", "--first", "c13.txt", "--second", "c13.txt"):
            "isomorphism check capped at 12 vertices",
        ("search", "--alpha", "4", "--k", "3", "--digraph", "c41.txt"):
            "search capped at 40 vertices",
        ("lift", "--m", "3", "--digraph", "c12.txt", "--labeling", "c12.lab",
         "--out-digraph", "l3.txt", "--out-labeling", "l3.lab"):
            "next lift would create 28 vertices, cap is 20",
    }
    for argv, error in calls.items():
        assert run_with_err(list(argv)) == (1, "", f"error: {error}\n")
    assert not (tmp_path / "l3.txt").exists() and not (tmp_path / "l3.lab").exists()


def test_sequence_without_eulerian_path(tmp_path):
    # two disjoint 2-cycles: every vertex is balanced, but no walk spans both
    g = tmp_path / "g.txt"
    l = tmp_path / "l.txt"
    g.write_text("4 4\nx y\ny x\nz w\nw z\n")
    l.write_text("4 2\nx\t1 2\ny\t2 1\nz\t3 4\nw\t4 3\n")
    code, out, err = run_with_err(["sequence", "--digraph", str(g), "--labeling", str(l)])
    assert (code, err) == (1, "")
    assert out == ("vertices:\n  x\tAC\n  y\tCA\n  z\tGT\n  w\tTG\n"
                   "arcs:\n  x y\tACA\n  y x\tCAC\n  z w\tGTG\n  w z\tTGT\n"
                   "no eulerian path\n")


def test_search_on_the_empty_digraph(tmp_path):
    g = tmp_path / "g.txt"
    l = tmp_path / "l.txt"
    g.write_text("0 0\n")
    argv = ["search", "--alpha", "4", "--k", "3", "--digraph", str(g), "--out-labeling", str(l)]
    assert run_with_err(argv) == (0, "0 4 3 SAT 0\n", "")
    assert l.read_text() == "4 3\n"


# one call per verb, each writing to stdout; the files are made by the label call
STDOUT_CALLS = {
    "gen": ["gen", "--family", "dicycle", "--n", "4"],
    "label": ["label", "--construction", "chorded-cycle", "--n", "6"],
    "lift": ["lift", "--m", "1", "--digraph", "g.txt", "--labeling", "l.txt"],
    "verify": ["verify", "--digraph", "g.txt", "--labeling", "l.txt"],
    "search": ["search", "--alpha", "4", "--k", "3", "--digraph", "g.txt"],
    "iso": ["iso", "--first", "g.txt", "--second", "g.txt"],
    "sequence": ["sequence", "--demo", "--start", "TA"],
    "conjecture": ["conjecture", "--n-min", "2", "--n-max", "2"],
    "acceptance": ["acceptance", "--only", "sbh-pipeline"],
}


@pytest.fixture(scope="module")
def closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    yield write
    os.close(write)


def test_every_verb_writes_to_stdout():
    assert tuple(STDOUT_CALLS) == VERBS


@pytest.mark.parametrize("verb", STDOUT_CALLS)
def test_closed_reader_is_not_an_error(tmp_path, monkeypatch, closed_pipe, verb):
    monkeypatch.chdir(tmp_path)
    assert run(["label", "--construction", "chorded-cycle", "--n", "6",
                "--out-digraph", "g.txt", "--out-labeling", "l.txt"]) == (0, "")
    out = open(closed_pipe, "w", encoding="utf-8", closefd=False)
    err = io.StringIO()
    code = cli.main(STDOUT_CALLS[verb], out=out, err=err)
    with contextlib.suppress(BrokenPipeError):
        out.close()  # the text the pipe refused is still buffered
    assert (code, err.getvalue()) == (141, "")


# calls main on a real stdout, then writes to it once more
LATER_WRITE = """
import sys
from dnagraph import cli
code = cli.main(sys.argv[1:])
print("after main")
sys.exit(code)
"""


def test_closed_stdout_is_not_an_error(tmp_path):
    # sys.stdout is a pipe only in a process of its own; once main has met the
    # closed reader, later writes to stdout, such as the flush at exit, go nowhere
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-c", LATER_WRITE, "gen", "--family", "dicycle", "--n", "50000"]
    with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"50000 50000\n"
        proc.stdout.close()
        assert (proc.wait(), proc.stderr.read()) == (141, b"")
