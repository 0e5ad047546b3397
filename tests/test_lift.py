import hashlib
import io
import itertools
import random

import pytest

import dnagraph.lift
from dnagraph import (CONSTRUCTIONS, ConstructionFailure, Digraph, InvalidInputError,
                      InvalidParameterError, Labeling, ResourceLimitError,
                      UnsupportedParameterError, WALK_SEP, find_dna_violation,
                      find_full_violation, find_quasi_violation, format_label,
                      label_chorded_cycle, label_infinity_even, lift_m, lift_once,
                      line_digraph, make_chorded_cycle, make_dicycle, overlap_merge)
from dnagraph.acceptance import _random_quasi_instance, _small_fixtures
from dnagraph.cli import main
from dnagraph.lift import line_vertex_counts


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
    assert lift_m(res.digraph, res.labeling, 1) == lift_once(res.digraph, res.labeling)


def test_lift_m_three_certifies():
    res = label_chorded_cycle(12)
    lifted, lab = lift_m(res.digraph, res.labeling, 3)
    assert lab.k == 6
    assert (res.digraph.vertex_count, lifted.vertex_count) == (12, 28)
    assert find_dna_violation(lifted, lab) is None


def test_lift_m_zero_rejected():
    res = label_chorded_cycle(6)
    with pytest.raises(InvalidParameterError):
        lift_m(res.digraph, res.labeling, 0)


def test_lift_m_vertex_cap(monkeypatch):
    monkeypatch.setattr(dnagraph.lift, "LINE_VERTEX_CAP", 10)
    res = label_chorded_cycle(12)
    with pytest.raises(ResourceLimitError):
        lift_m(res.digraph, res.labeling, 3)


def catalogue_results():
    """Every catalogue construction whose parameters each lie in 3..9."""
    for required, make in CONSTRUCTIONS.values():
        for params in itertools.product(range(3, 10), repeat=len(required)):
            try:
                yield make(*params)
            except (InvalidParameterError, UnsupportedParameterError):
                pass


def test_predicted_vertex_counts_equal_the_built_ones():
    tags = set()
    for res in catalogue_results():
        d, built = res.digraph, []
        for _ in range(3):
            d = line_digraph(d)
            built.append(d.vertex_count)
        assert line_vertex_counts(res.digraph, 3) == built, res
        tags.add(res.tag)
    assert tags == set(CONSTRUCTIONS)


def test_chorded_cycle_counts_follow_their_closed_form():
    # a chord every third vertex: 4n/3 arcs, then 5n/3 and 7n/3 walks
    for n in range(6, 61, 3):
        assert line_vertex_counts(make_chorded_cycle(n), 3) == [4 * n // 3, 5 * n // 3,
                                                                 7 * n // 3], n


def test_over_cap_refusal_comes_before_walk_names(monkeypatch):
    # two arcs of this digraph would both be named a→b→c in L(d), which
    # level one would refuse; level two is over the cap, so no level is built
    monkeypatch.setattr(dnagraph.lift, "LINE_VERTEX_CAP", 6)
    d = Digraph(["a", "b→c", "a→b", "c", "d"],
                [("a", "b→c"), ("a→b", "c"), ("c", "a"), ("b→c", "a→b"), ("a", "d"),
                 ("d", "b→c")])
    lab = Labeling(4, 2, {"a": (1, 2), "b→c": (2, 3), "a→b": (3, 4), "c": (4, 1), "d": (2, 2)})
    with pytest.raises(InvalidParameterError, match="duplicate vertex name"):
        line_digraph(d)
    with pytest.raises(ResourceLimitError, match="^next lift would create 7 vertices, cap is 6$"):
        lift_m(d, lab, 2)


def test_lift_m_checks_each_count_against_the_prediction(monkeypatch):
    monkeypatch.setattr(dnagraph.lift, "line_vertex_counts",
                        lambda d, m: [count + 1 for count in line_vertex_counts(d, m)])
    res = label_chorded_cycle(12)
    with pytest.raises(ConstructionFailure,
                       match=r"^lift built 16 vertices, 17 predicted \(library bug\)$"):
        lift_m(res.digraph, res.labeling, 2)


def test_lift_m_is_repeated_lift_once():
    res = label_chorded_cycle(6)
    first_d, first_lab = lift_once(res.digraph, res.labeling)
    assert first_d == line_digraph(res.digraph)
    assert find_quasi_violation(first_d, first_lab) is None
    second = lift_once(first_d, first_lab)
    assert lift_m(res.digraph, res.labeling, 2) == second


def test_stage_vertex_count_equals_predecessor_arc_count():
    res = label_chorded_cycle(9)
    stages = [(res.digraph, res.labeling)]
    for _ in range(3):
        stages.append(lift_once(*stages[-1]))
    for (before, _), (after, _) in zip(stages, stages[1:]):
        assert after.vertex_count == before.arc_count
    assert lift_m(res.digraph, res.labeling, 3) == stages[-1]
    assert stages[-1][1].k == res.labeling.k + 3


def test_full_implies_quasi_on_lift_output():
    res = label_chorded_cycle(7)
    lifted, lab = lift_once(res.digraph, res.labeling)
    assert find_full_violation(lifted, lab) is None and find_quasi_violation(lifted, lab) is None


def replayed_lift(d, lab):
    """One lift step composed from the public calls: line digraph, one overlap
    merge per arc, Labeling construction."""
    lifted = line_digraph(d)
    assignment = {name: overlap_merge(lab.label_of(tail), lab.label_of(head))
                  for name, (tail, head) in zip(lifted.vertices, d.arcs)}
    return lifted, Labeling(lab.alpha, lab.k + 1, assignment)


def test_lift_once_equals_its_public_replay():
    rng = random.Random(8)
    instances = [(r.digraph, r.labeling) for r in _small_fixtures()]
    instances += [_random_quasi_instance(rng) for _ in range(200)]
    assert len(instances) == 408
    for d, lab in instances:
        lifted, lifted_lab = lift_once(d, lab)
        replay_d, replay_lab = replayed_lift(d, lab)
        assert lifted == replay_d and lifted.vertices == replay_d.vertices
        assert lifted.arcs == replay_d.arcs and lifted_lab == replay_lab
        assert find_full_violation(replay_d, replay_lab) is None


def test_lift_cli_bytes_pinned(tmp_path):
    # vertex order, arc order and labeling order of a four-step lift, 36 vertices
    base_d, base_l = tmp_path / "base.digraph", tmp_path / "base.labeling"
    out_d, out_l = tmp_path / "lifted.digraph", tmp_path / "lifted.labeling"
    assert main(["label", "--construction", "chorded-cycle", "--n", "12",
                 "--out-digraph", str(base_d), "--out-labeling", str(base_l)], io.StringIO()) == 0
    assert main(["lift", "--m", "4", "--digraph", str(base_d), "--labeling", str(base_l),
                 "--out-digraph", str(out_d), "--out-labeling", str(out_l)], io.StringIO()) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out_d, out_l)]
    assert digests == ["881376c9dbeb3a296e9959bd0a951b56129a24d1cf709fc6e2f7f17a75a203a9",
                       "f540974cf3f4aa80605e963ad11f1722616ca337ceb716637b32762b22a798b7"]


def test_lift_checks_a_corrupt_merge(request):
    # the lifted labeling skips the constructor's checks, not the full check;
    # the input is built before the corruption, which its own self-check catches
    res = label_chorded_cycle(9)
    request.getfixturevalue("corrupt_trusted_labelings")
    with pytest.raises(ConstructionFailure, match="lifted labeling is not full"):
        lift_once(res.digraph, res.labeling)
