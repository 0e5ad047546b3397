import io
import itertools
import random
import sys
import time

import pytest

import dnagraph.sequencing
from dnagraph import (Digraph, InvalidInputError, Labeling, WALK_SEP, cli,
                      count_eulerian_paths, eulerian_path, format_digraph_text, format_labeling,
                      hamiltonian_path, lift_once, line_digraph, make_dicycle,
                      sample_pevzner_graph, spell_eulerian, to_nucleotides)
from dnagraph.digraph import _out_arcs
from dnagraph.sequencing import PATH_COUNT_CAP, nucleotide_string


@pytest.fixture
def demo():
    return sample_pevzner_graph()


class TestNucleotides:
    def test_vertex_translation(self, demo):
        d, lab = demo
        names = to_nucleotides(lab)
        assert names["TA"] == "TA" and names["AC"] == "AC"

    def test_constant_tuple(self):
        d = Digraph(["x"], [])
        lab = Labeling(4, 3, {"x": (1, 1, 1)})
        assert to_nucleotides(lab)["x"] == "AAA"

    def test_alphabet_bound(self):
        d = Digraph(["x"], [])
        lab = Labeling(5, 2, {"x": (5, 1)})
        with pytest.raises(InvalidInputError):
            to_nucleotides(lab)

    def test_injective_on_demo(self, demo):
        _, lab = demo
        rendered = to_nucleotides(lab)
        assert len(set(rendered.values())) == len(rendered)

    def test_commutes_with_overlap_merge(self):
        from dnagraph import overlap_merge
        a, b = (4, 1, 2), (1, 2, 3)
        merged = nucleotide_string(overlap_merge(a, b))
        assert merged == nucleotide_string(a) + nucleotide_string(b)[-1] == "TACG"

    def test_symbol_past_four_is_bad_input(self):
        # a valid quasi-(5,2) labeling that uses the symbol 5
        d = make_dicycle(3)
        lab = Labeling(5, 2, {"v1": (1, 5), "v2": (5, 2), "v3": (2, 1)})
        line, line_lab = lift_once(d, lab)
        with pytest.raises(InvalidInputError, match="needs symbols 1..4, got 5"):
            nucleotide_string((1, 5))
        with pytest.raises(InvalidInputError, match="got 5"):
            spell_eulerian(lab, eulerian_path(d))
        with pytest.raises(InvalidInputError, match="alpha <= 4, got 5"):
            to_nucleotides(line_lab)


class TestArcLabels:
    def test_demo_arc_merges(self, demo):
        d, lab = demo
        line, line_lab = lift_once(d, lab)
        merged = to_nucleotides(line_lab)
        arcs = {arc: merged[walk] for arc, walk in zip(d.arcs, line.vertices)}
        assert arcs[("TA", "AC")] == "TAC"
        assert arcs[("AC", "CT")] == "ACT"
        assert arcs[("CT", "TA")] == "CTA"

    def test_requires_quasi(self):
        d = make_dicycle(3)
        broken = Labeling(2, 2, {"v1": (1, 1), "v2": (2, 2), "v3": (2, 1)})
        with pytest.raises(InvalidInputError, match="lift needs a quasi-valid labeling"):
            lift_once(d, broken)


class TestEulerianPath:
    def test_demo_spells_target(self, demo):
        d, lab = demo
        path = eulerian_path(d, start="TA")
        assert path is not None and len(path) == d.arc_count
        assert spell_eulerian(lab, path) == "TACGACTA"

    def test_each_arc_used_once(self, demo):
        d, _ = demo
        path = eulerian_path(d, start="TA")
        assert sorted(path) == sorted(d.arcs)

    def test_dicycle_circuit(self):
        d = make_dicycle(4)
        path = eulerian_path(d)
        assert len(path) == 4 and path[0][0] == path[-1][1]

    def test_out_arcs_taken_in_arc_order(self):
        d = Digraph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")])
        assert eulerian_path(d) == (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"))
        assert eulerian_path(d, "b") == (("b", "a"), ("a", "c"), ("c", "a"), ("a", "b"))

    def test_degree_condition_rejected(self):
        star = Digraph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
        assert eulerian_path(star) is None

    def test_disconnected_arcs_rejected(self):
        two = Digraph(["a", "b", "c", "d"],
                      [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        assert eulerian_path(two) is None

    def test_forced_start_conflict(self):
        d = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert eulerian_path(d, start="b") is None
        assert eulerian_path(d, start="a") is not None


def sequence_lines(argv):
    """The lines of a successful sequence call, by their heading."""
    out = io.StringIO()
    assert cli.main(["sequence", *argv], out=out) == 0
    return dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)


def demo_walks(d, lab):
    line, _ = lift_once(d, lab)
    return line, hamiltonian_path(d, line, eulerian_path(d, start="TA"))


class TestHamiltonianViaLine:
    def test_demo_vertex_sequence(self, demo):
        d, lab = demo
        _, walks = demo_walks(d, lab)
        sep = WALK_SEP
        assert walks == (
            f"TA{sep}AC", f"AC{sep}CG", f"CG{sep}GA",
            f"GA{sep}AC", f"AC{sep}CT", f"CT{sep}TA")
        lines = sequence_lines(["--demo", "--start", "TA"])
        assert lines["hamiltonian path"] == " ".join(walks)
        assert lines["spectrum (line digraph)"] == "TACGACTA"

    def test_visits_every_line_vertex_once(self, demo):
        d, lab = demo
        line, walks = demo_walks(d, lab)
        assert line == line_digraph(d)
        assert sorted(walks) == sorted(line.vertices)

    def test_walks_are_line_arcs(self, demo):
        d, lab = demo
        line, walks = demo_walks(d, lab)
        for a, b in zip(walks, walks[1:]):
            assert (a, b) in line.arcs

    def test_length_arithmetic(self, demo):
        # merged 3-mers overlap pairwise on two bases: 3 + (arcs - 1)
        d, lab = demo
        spectrum = sequence_lines(["--demo", "--start", "TA"])["spectrum (line digraph)"]
        assert len(spectrum) == (lab.k + 1) + d.arc_count - 1 == 8

    def test_dicycle_round_trip(self, tmp_path):
        d = make_dicycle(3)
        lab = Labeling(3, 2, {"v1": (1, 2), "v2": (2, 3), "v3": (3, 1)})
        (tmp_path / "d.txt").write_text(format_digraph_text(d))
        (tmp_path / "d.lab").write_text(format_labeling(lab))
        lines = sequence_lines(["--digraph", str(tmp_path / "d.txt"),
                                "--labeling", str(tmp_path / "d.lab"), "--start", "v1"])
        path = eulerian_path(d, "v1")
        assert lines["spectrum (line digraph)"] == spell_eulerian(lab, path) == "ACGAC"
        assert lines["spectrum (eulerian)"] == "ACGAC"


def count_from(d, start):
    return count_eulerian_paths(d, eulerian_path(d, start))


def backtracking_count(d, path):
    """The reference count: plain backtracking over every unused out-arc,
    dead ends included, truncated at the same cap."""
    head, leaving = d._head, _out_arcs(d)
    used: set[int] = set()
    trail: list[int] = []
    choices = [iter(leaving[d.vertices.index(path[0][0])])]
    count = 0
    while choices and count < PATH_COUNT_CAP:
        arc = next((a for a in choices[-1] if a not in used), None)
        if arc is None:
            choices.pop()
            if trail:
                used.remove(trail.pop())
        elif len(trail) + 1 == len(head):
            count += 1
        else:
            used.add(arc)
            trail.append(arc)
            choices.append(iter(leaving[head[arc]]))
    return count


def detour_spectrum(r, k=12):
    """The k-mer digraph of a string in which r k-mers each occur twice, the
    two copies closing a detour: one Eulerian path.  Arcs are listed sorted,
    as a spectrum is, and at each repeated k-mer the arc that skips its
    detour sorts first."""
    rng = random.Random(r)

    def word(length, first, last):
        return [first] + [rng.randint(1, 4) for _ in range(length - 2)] + [last]

    text = word(8, 1, 2)
    for _ in range(r):
        repeat = word(k, rng.randint(1, 4), rng.randint(1, 4))
        text += repeat + word(8, 4, 3) + repeat + word(8, 1, 2)
    kmers = ["".join(map(str, text[i:i + k])) for i in range(len(text) - k + 1)]
    assert len(set(kmers)) == len(kmers) - r  # only the planted repeats
    return Digraph(dict.fromkeys(kmers), sorted(set(zip(kmers, kmers[1:]))))


class TestPathCounting:
    def test_demo_is_unambiguous_from_ta(self):
        d, _ = sample_pevzner_graph()
        assert count_from(d, "TA") == 1

    def test_dicycle_single_circuit(self):
        assert count_from(make_dicycle(5), "v1") == 1

    def test_trail_longer_than_recursion_limit(self):
        assert count_from(make_dicycle(sys.getrecursionlimit() + 1), "v1") == 1

    def test_ambiguous_instance(self):
        # two interleaved 2-cycles through a hub: two circuits from the hub
        d = Digraph(["h", "a", "b"],
                    [("h", "a"), ("a", "h"), ("h", "b"), ("b", "h")])
        assert count_from(d, "h") == 2

    def test_cap_truncates(self, monkeypatch):
        monkeypatch.setattr(dnagraph.sequencing, "PATH_COUNT_CAP", 1)
        d = Digraph(["h", "a", "b"],
                    [("h", "a"), ("a", "h"), ("h", "b"), ("b", "h")])
        assert count_from(d, "h") == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_backtracking_reference(self, seed):
        rng = random.Random(seed)
        pairs = 0
        for _ in range(250):
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            density = rng.random()
            d = Digraph(names, [arc for arc in itertools.product(names, repeat=2)
                                if rng.random() < density])
            for start in names:
                path = eulerian_path(d, start)
                if path is not None:
                    assert count_eulerian_paths(d, path) == backtracking_count(d, path), d.arcs
                    pairs += 1
        assert pairs > 100

    def test_detours_match_backtracking_reference(self):
        d = detour_spectrum(6)
        path = eulerian_path(d)
        assert count_eulerian_paths(d, path) == backtracking_count(d, path) == 1

    def test_repeated_kmers_count_without_dead_ends(self):
        # plain backtracking about doubles its time with each planted repeat
        d = detour_spectrum(24)
        assert (d.vertex_count, d.arc_count) == (933, 956)
        path = eulerian_path(d)
        start = time.perf_counter()
        assert count_eulerian_paths(d, path) == 1
        assert time.perf_counter() - start < 1.0
