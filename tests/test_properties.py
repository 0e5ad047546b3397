"""Randomized structural invariants over small digraphs.

The acceptance suite runs the full thousand-case sweep; these are the same
generators exercised at smaller scale plus a few invariants that only make
sense at unit level (renaming, permutation), isomorphic checked against a
brute force over vertex permutations, and line_digraph, isomorphic and
eulerian_path checked against networkx where it is installed.
"""

import itertools
import random
from collections import Counter

import pytest

from dnagraph import (Digraph, Labeling, eulerian_path, find_full_violation,
                      find_quasi_violation, isomorphic, lift_once, line_digraph)
from dnagraph.acceptance import _random_digraph, _random_quasi_instance
from dnagraph.digraph import _walk_join


@pytest.fixture
def rng():
    return random.Random(1729)


def _loopy_digraph(rng):
    """Random digraph on 1..7 vertices, self-loops included."""
    names = [f"x{i}" for i in range(rng.randint(1, 7))]
    return Digraph(names, [(a, b) for a in names for b in names if rng.random() < 0.3])


def _nx_digraph(nx, d):
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices)
    g.add_edges_from(d.arcs)
    return g


def test_line_digraph_counts(rng):
    for _ in range(300):
        d = _random_digraph(rng)
        ld = line_digraph(d)
        assert ld.vertex_count == d.arc_count
        outs, ins = Counter(t for t, _ in d.arcs), Counter(h for _, h in d.arcs)
        assert ld.arc_count == sum(ins[v] * outs[v] for v in d.vertices)


def test_line_digraph_matches_networkx(rng):
    nx = pytest.importorskip("networkx")

    def expected(d):
        lg = nx.line_graph(_nx_digraph(nx, d))
        return ({_walk_join(*arc) for arc in lg.nodes},
                {(_walk_join(*x), _walk_join(*y)) for x, y in lg.edges})

    for _ in range(200):
        d = _loopy_digraph(rng)
        # the second round feeds walk-named vertices back in, as a lift does
        for cur in (d, line_digraph(d)):
            ld = line_digraph(cur)
            assert (set(ld.vertices), set(ld.arcs)) == expected(cur)


def test_random_quasi_instances_lift_full(rng):
    lifted_any = 0
    for _ in range(300):
        d, lab = _random_quasi_instance(rng)
        assert find_quasi_violation(d, lab) is None
        if d.arc_count == 0:
            continue
        ld, llab = lift_once(d, lab)
        assert find_full_violation(ld, llab) is None
        assert llab.k == lab.k + 1
        lifted_any += 1
    assert lifted_any > 100


def test_alphabet_permutation_preserves_quasi(rng):
    for _ in range(200):
        d, lab = _random_quasi_instance(rng)
        perm = list(range(1, lab.alpha + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(lab.alpha)}
        assert find_quasi_violation(d, lab.relabeled(mapping)) is None


def test_iso_invariant_under_renaming(rng):
    for _ in range(50):
        d = _random_digraph(rng)
        if d.vertex_count > 8:
            continue
        names = list(d.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        renamed = Digraph([rename[v] for v in d.vertices],
                          [(rename[t], rename[h]) for t, h in d.arcs])
        assert isomorphic(d, renamed)


def test_full_verifier_invariant_under_renaming(rng):
    for _ in range(100):
        d, lab = _random_quasi_instance(rng)
        was_full = find_full_violation(d, lab) is None
        rename = {v: f"r_{i}" for i, v in enumerate(d.vertices)}
        renamed = Digraph([rename[v] for v in d.vertices],
                          [(rename[t], rename[h]) for t, h in d.arcs])
        relab = Labeling(lab.alpha, lab.k, {rename[v]: lab.label_of(v) for v in d.vertices})
        assert (find_full_violation(renamed, relab) is None) == was_full


def _brute_force_isomorphic(a, b):
    """Some bijection maps every arc of a onto an arc of b; with equal arc
    counts that makes it arc-preserving both ways."""
    if a.vertex_count != b.vertex_count or a.arc_count != b.arc_count:
        return False
    arcs = set(b.arcs)
    for images in itertools.permutations(b.vertices):
        image = dict(zip(a.vertices, images))
        if all((image[t], image[h]) in arcs for t, h in a.arcs):
            return True
    return False


def _check_isomorphic(a, b):
    got = isomorphic(a, b)
    assert got == _brute_force_isomorphic(a, b), (a.arcs, b.arcs)
    return got


def test_isomorphic_matches_brute_force(rng):
    verdicts = Counter()
    for _ in range(300):
        names = [f"x{i}" for i in range(rng.randint(1, 6))]
        a = Digraph(names, [(s, t) for s in names for t in names if rng.random() < 0.3])
        # a relabelled copy, its vertices listed in another order
        renamed = [f"y{i}" for i in range(len(names))]
        rng.shuffle(renamed)
        rename = dict(zip(names, renamed))
        arcs = [(rename[t], rename[h]) for t, h in a.arcs]
        assert _check_isomorphic(a, Digraph(sorted(renamed), arcs)), a.arcs
        # one arc moved to a free pair, loops included: the arc count stays
        free = [(s, t) for s in renamed for t in renamed if (s, t) not in arcs]
        if arcs and free:
            moved = arcs[:]
            moved[rng.randrange(len(arcs))] = rng.choice(free)
            verdicts["moved", _check_isomorphic(a, Digraph(renamed, moved))] += 1
        # two heads swapped: every in- and out-degree stays, so only the
        # backtracking can tell
        if len(arcs) >= 2:
            i, j = rng.sample(range(len(arcs)), 2)
            (s, t), (u, v) = arcs[i], arcs[j]
            if (s, v) not in arcs and (u, t) not in arcs:
                arcs[i], arcs[j] = (s, v), (u, t)
                verdicts["swapped", _check_isomorphic(a, Digraph(renamed, arcs))] += 1
    # a swap is rarely an isomorphism, but same degrees and not isomorphic is
    # the case only the backtracking decides
    assert min(verdicts["moved", True], verdicts["moved", False],
               verdicts["swapped", False]) >= 10, verdicts


def test_isomorphic_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    verdicts = set()
    for _ in range(1000):
        a = _loopy_digraph(rng)
        names = list(a.vertices)
        rng.shuffle(names)
        rename = dict(zip(a.vertices, names))
        arcs = [(rename[t], rename[h]) for t, h in a.arcs]
        for _ in range(rng.randint(0, 3)):
            # swap the heads of two arcs: every in- and out-degree stays
            if len(arcs) >= 2:
                i, j = rng.sample(range(len(arcs)), 2)
                (s, t), (u, v) = arcs[i], arcs[j]
                if (s, v) not in arcs and (u, t) not in arcs:
                    arcs[i], arcs[j] = (s, v), (u, t)
        b = Digraph(names, arcs)
        got = isomorphic(a, b)
        assert got == nx.is_isomorphic(_nx_digraph(nx, a), _nx_digraph(nx, b)), (a.arcs, b.arcs)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_eulerian_path_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    verdicts = []
    while len(verdicts) < 300:
        d = _loopy_digraph(rng)
        if d.arc_count == 0:
            continue
        g = _nx_digraph(nx, d)
        g.remove_nodes_from(list(nx.isolates(g)))
        expected = nx.has_eulerian_path(g)
        assert (eulerian_path(d) is not None) == expected, d.arcs
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)
