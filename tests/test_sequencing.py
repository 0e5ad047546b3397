import sys

import pytest

import dnagraph.sequencing
from dnagraph import (Digraph, InvalidInputError, Labeling, WALK_SEP,
                      count_eulerian_paths, eulerian_path, hamiltonian_via_line,
                      line_digraph, make_dicycle, pevzner_arc_labels,
                      sample_pevzner_graph, spell_eulerian, to_nucleotides)


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
        from dnagraph.sequencing import nucleotide_string
        a, b = (4, 1, 2), (1, 2, 3)
        merged = nucleotide_string(overlap_merge(a, b))
        assert merged == nucleotide_string(a) + nucleotide_string(b)[-1] == "TACG"


class TestArcLabels:
    def test_demo_arc_merges(self, demo):
        d, lab = demo
        arcs = pevzner_arc_labels(d, lab)
        assert arcs[("TA", "AC")] == "TAC"
        assert arcs[("AC", "CT")] == "ACT"
        assert arcs[("CT", "TA")] == "CTA"

    def test_requires_quasi(self):
        d = make_dicycle(3)
        broken = Labeling(2, 2, {"v1": (1, 1), "v2": (2, 2), "v3": (2, 1)})
        with pytest.raises(InvalidInputError):
            pevzner_arc_labels(d, broken)


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


def demo_spectrum(d, lab):
    return hamiltonian_via_line(pevzner_arc_labels(d, lab), eulerian_path(d, start="TA"))


class TestHamiltonianViaLine:
    def test_demo_vertex_sequence(self, demo):
        d, lab = demo
        spectrum = demo_spectrum(d, lab)
        assert spectrum.sequence == "TACGACTA"
        sep = WALK_SEP
        assert spectrum.source_path == (
            f"TA{sep}AC", f"AC{sep}CG", f"CG{sep}GA",
            f"GA{sep}AC", f"AC{sep}CT", f"CT{sep}TA")

    def test_visits_every_line_vertex_once(self, demo):
        d, lab = demo
        spectrum = demo_spectrum(d, lab)
        lysov = line_digraph(d)
        assert sorted(spectrum.source_path) == sorted(lysov.vertices)

    def test_walks_are_line_arcs(self, demo):
        d, lab = demo
        spectrum = demo_spectrum(d, lab)
        lysov = line_digraph(d)
        for a, b in zip(spectrum.source_path, spectrum.source_path[1:]):
            assert (a, b) in lysov.arcs

    def test_length_arithmetic(self, demo):
        # merged 3-mers overlap pairwise on two bases: 3 + (arcs - 1)
        d, lab = demo
        spectrum = demo_spectrum(d, lab)
        assert len(spectrum.sequence) == (lab.k + 1) + d.arc_count - 1 == 8

    def test_dicycle_round_trip(self):
        d = make_dicycle(3)
        lab = Labeling(3, 2, {"v1": (1, 2), "v2": (2, 3), "v3": (3, 1)})
        path = eulerian_path(d, "v1")
        spectrum = hamiltonian_via_line(pevzner_arc_labels(d, lab), path)
        assert spectrum.sequence == spell_eulerian(lab, path)


def count_from(d, start):
    return count_eulerian_paths(d, eulerian_path(d, start))


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
