import pytest

import dnagraph.lift
from dnagraph import (ConstructionFailure, InvalidInputError, InvalidParameterError,
                      Labeling, ResourceLimitError, WALK_SEP, find_dna_violation,
                      find_full_violation, find_quasi_violation, format_label,
                      label_chorded_cycle, label_infinity_even, lift_m, lift_once,
                      line_digraph, make_dicycle)


def test_single_arc_merge():
    # in the glued-square pair the arc 211 -> 111 lifts to 2111
    res = label_infinity_even(4, 4)
    lifted, lab = lift_once(res.digraph, res.labeling)
    assert lab.label_of(f"v4{WALK_SEP}v1") == (2, 1, 1, 1)


def test_lift_is_full():
    for n in (6, 9, 12):
        res = label_chorded_cycle(n)
        lifted, lab = lift_once(res.digraph, res.labeling)
        assert lab.k == 4
        assert find_full_violation(lifted, lab) is None


def test_chorded_12_lift_labels():
    # derived by overlap-merging the catalogue row along each arc
    res = label_chorded_cycle(12)
    _, lab = lift_once(res.digraph, res.labeling)
    got = {format_label(label) for label in lab.assignment.values()}
    assert got == {
        "4111", "1112", "1122", "1222", "2223", "2233", "2333", "3334",
        "3344", "3444", "4441", "4411", "4112", "1223", "2334", "3441"}


def test_dicycle_full_labeling_lifts_to_dicycle():
    d = make_dicycle(4)
    lab = Labeling(3, 3, {"v1": (1, 1, 2), "v2": (1, 2, 3), "v3": (2, 3, 1), "v4": (3, 1, 1)})
    assert find_full_violation(d, lab) is None
    lifted, lifted_lab = lift_once(d, lab)
    assert lifted.vertex_count == 4
    assert find_full_violation(lifted, lifted_lab) is None


def test_prefix_suffix_law():
    res = label_chorded_cycle(8)
    d, base = res.digraph, res.labeling
    _, lab = lift_once(d, base)
    for tail, head in d.arcs:
        lifted_label = lab.label_of(f"{tail}{WALK_SEP}{head}")
        assert lifted_label[:3] == base.label_of(tail)
        assert lifted_label[-3:] == base.label_of(head)


def test_rejects_non_quasi_input():
    d = make_dicycle(3)
    broken = Labeling(2, 2, {"v1": (1, 1), "v2": (2, 2), "v3": (2, 1)})
    with pytest.raises(InvalidInputError):
        lift_once(d, broken)


def test_lift_m_one_equals_lift_once():
    res = label_infinity_even(4, 5)
    once = lift_once(res.digraph, res.labeling)
    out = lift_m(res.digraph, res.labeling, 1)
    assert out.result_digraph == once[0]
    assert out.result_labeling == once[1]


def test_lift_m_three_certifies():
    res = label_chorded_cycle(12)
    out = lift_m(res.digraph, res.labeling, 3)
    assert out.result_labeling.k == 6
    assert out.vertex_counts == (12, 16, 20, 28)
    assert find_dna_violation(out.result_digraph, out.result_labeling) is None


def test_lift_m_zero_rejected():
    res = label_chorded_cycle(6)
    with pytest.raises(InvalidParameterError):
        lift_m(res.digraph, res.labeling, 0)


def test_lift_m_vertex_cap(monkeypatch):
    monkeypatch.setattr(dnagraph.lift, "LINE_VERTEX_CAP", 10)
    res = label_chorded_cycle(12)
    with pytest.raises(ResourceLimitError):
        lift_m(res.digraph, res.labeling, 3)


def test_lift_m_is_repeated_lift_once():
    res = label_chorded_cycle(6)
    first_d, first_lab = lift_once(res.digraph, res.labeling)
    assert first_d == line_digraph(res.digraph)
    assert find_quasi_violation(first_d, first_lab) is None
    second = lift_once(first_d, first_lab)
    out = lift_m(res.digraph, res.labeling, 2)
    assert (out.result_digraph, out.result_labeling) == second


def test_stage_vertex_count_equals_predecessor_arc_count():
    res = label_chorded_cycle(9)
    stages = [(res.digraph, res.labeling)]
    for _ in range(3):
        stages.append(lift_once(*stages[-1]))
    for (before, _), (after, _) in zip(stages, stages[1:]):
        assert after.vertex_count == before.arc_count
    out = lift_m(res.digraph, res.labeling, 3)
    assert out.vertex_counts == tuple(d.vertex_count for d, _ in stages)
    assert out.result_labeling.k == res.labeling.k + 3


def test_full_implies_quasi_on_lift_output():
    res = label_chorded_cycle(7)
    lifted, lab = lift_once(res.digraph, res.labeling)
    assert find_full_violation(lifted, lab) is None and find_quasi_violation(lifted, lab) is None
