import itertools
import random

import pytest

from dnagraph import (BUDGET_EXCEEDED, ConstructionFailure, Digraph, InvalidParameterError,
                      Labeling, ResourceLimitError, SAT, SearchConfig, UNSAT,
                      check_middle_vertex_lemma, eulerian_path, explore_conjecture,
                      find_full_violation, find_labeling, find_quasi_violation,
                      format_digraph_text, isomorphic, label_chorded_cycle, make_chorded_cycle,
                      make_dicycle, make_dipath, make_ladder, parse_digraph_text,
                      sample_pevzner_graph, search)
from dnagraph.labeling import _decode
from test_digraph import chords_of


def both_orders(d, cfg):
    """Outcomes of the search under its decision order and under the
    reference order that decides the vertices as the digraph lists them."""
    decided = find_labeling(d, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_vertex_order", lambda g: list(range(g.vertex_count)))
        given = find_labeling(d, cfg)
    return decided, given


def brute_force_verdict(d, alpha, k, mode):
    """SAT iff some injective assignment of the alpha^k words to the vertices
    is a quasi labeling (every arc overlaps) or a full one (arcs are exactly
    the overlapping ordered pairs, a vertex with itself included)."""
    words = list(itertools.product(range(1, alpha + 1), repeat=k))
    overlap = {(x, y) for x in words for y in words if x[1:] == y[:-1]}
    n = d.vertex_count
    index = {v: i for i, v in enumerate(d.vertices)}
    arcs = {(index[t], index[h]) for t, h in d.arcs}
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for labels in itertools.permutations(words, n):
        if mode == "quasi":
            ok = all((labels[i], labels[j]) in overlap for i, j in arcs)
        else:
            ok = all(((labels[i], labels[j]) in overlap) == ((i, j) in arcs) for i, j in pairs)
        if ok:
            return SAT
    return UNSAT


def canonical_first_labels_reference(alpha, k):
    """Depth-first enumeration of the first-occurrence-ordered labels."""
    out = []

    def rec(prefix, top):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for z in range(1, min(alpha, top + 1) + 1):
            prefix.append(z)
            rec(prefix, max(top, z))
            prefix.pop()

    rec([1], 1)
    return out


def name_adjacency(d):
    """Out- and in-neighbours of every vertex, by name, in arc order, read
    from the name pairs of d."""
    out = {v: [] for v in d.vertices}
    into = {v: [] for v in d.vertices}
    for t, h in d.arcs:
        out[t].append(h)
        into[h].append(t)
    return out, into


def reference_vertex_order(d):
    """The decision order over vertex names: a dict of weights and a dict of
    last rises, compared as pairs."""
    out, into = name_adjacency(d)
    weight = dict.fromkeys(d.vertices, 0)  # undecided vertices, in vertex order
    touched = dict.fromkeys(d.vertices, -1)
    v = max(d.vertices, key=lambda u: len(out[u]))
    order = []
    for step in range(d.vertex_count):
        if step:
            v = max(weight, key=lambda u: (weight[u], touched[u]))  # first of equals wins
        order.append(v)
        del weight[v]
        for w in (*out[v], *into[v]):
            if w in weight:
                weight[w] += 1
                touched[w] = step
    return order


class BudgetHit(Exception):
    pass


def reference_find_labeling(d, cfg):
    """The search over vertex names: decided labels in a name -> code dict,
    the label -> vertex map of the labels in use, and, in full mode, one arc
    lookup for every decided vertex whose label overlaps a candidate."""
    order = reference_vertex_order(d)
    out, into = name_adjacency(d)
    arcs = set(d.arcs)
    alpha, k, full = cfg.alpha, cfg.k, cfg.mode == "full"
    window = alpha ** (k - 1)
    first_labels = [int("".join(str(s - 1) for s in lab), alpha)
                    for lab in canonical_first_labels_reference(alpha, k)]
    assigned = {}
    owner = {}
    nodes = 0

    def candidates(v, first):
        prefix = None
        for u in into[v]:
            if u in assigned:
                if prefix is None:
                    prefix = assigned[u] % window
                elif prefix != assigned[u] % window:
                    return ()
        suffix = None
        for w in out[v]:
            if w in assigned:
                if suffix is None:
                    suffix = assigned[w] // alpha
                elif suffix != assigned[w] // alpha:
                    return ()
        if prefix is not None and suffix is not None:
            cand = prefix * alpha + suffix % alpha
            return (cand,) if cand % window == suffix else ()
        if prefix is not None:
            return range(prefix * alpha, prefix * alpha + alpha)
        if suffix is not None:
            return range(suffix, alpha * window, window)
        if first:
            return first_labels
        return range(alpha * window)

    def admissible(v, lab, loop):
        if lab in owner:
            return False
        prefix, suffix = lab // alpha, lab % window
        if not full:
            return not loop or prefix == suffix
        if loop != (prefix == suffix):
            return False
        for z in range(alpha):
            x = owner.get(z * window + prefix)
            if x is not None and (x, v) not in arcs:
                return False
            y = owner.get(suffix * alpha + z)
            if y is not None and (v, y) not in arcs:
                return False
        return True

    def extend(i):
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        loop = (v, v) in arcs
        for lab in candidates(v, i == 0):
            if not admissible(v, lab, loop):
                continue
            if nodes >= cfg.node_budget:
                raise BudgetHit
            nodes += 1
            assigned[v] = lab
            owner[lab] = v
            if extend(i + 1):
                return True
            del assigned[v]
            del owner[lab]
        return False

    try:
        found = extend(0)
    except BudgetHit:
        return BUDGET_EXCEEDED, nodes, None
    return (SAT, nodes, list(assigned.items())) if found else (UNSAT, nodes, None)


def random_digraph(rng, max_vertices):
    """Up to max_vertices vertices, arcs drawn with one random density, so
    loops, 2-cycles and isolated vertices all occur, in shuffled arc order."""
    names = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    density = rng.uniform(0.05, 0.6)
    arcs = [(u, w) for u in names for w in names if rng.random() < density]
    rng.shuffle(arcs)
    return Digraph(names, arcs)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1, k=3), dict(alpha=2, k=1),
        dict(alpha=2, k=2, mode="weird"), dict(alpha=2, k=2, node_budget=0),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SearchConfig(**kwargs)


class TestFindLabeling:
    def test_triangle_sat_with_canonical_certificate(self):
        out = find_labeling(make_dicycle(3), SearchConfig(2, 2, "quasi"))
        assert out.verdict == SAT
        labels = [out.certificate.label_of(v) for v in ("v1", "v2", "v3")]
        assert labels == [(1, 1), (1, 2), (2, 1)]

    def test_certificate_always_verifies(self):
        for mode, check in (("quasi", find_quasi_violation), ("full", find_full_violation)):
            out = find_labeling(make_ladder(3), SearchConfig(3, 4, mode))
            assert out.verdict == SAT
            assert check(make_ladder(3), out.certificate) is None

    def test_ladder_full_sat(self):
        out = find_labeling(make_ladder(4), SearchConfig(3, 4, "full"))
        assert out.verdict == SAT

    def test_small_full_unsat_both_orders(self):
        # a full (2,2)-labeling of C4 would need all four words incl. the
        # constant ones, whose self-overlap demands a loop
        for out in both_orders(make_dicycle(4), SearchConfig(2, 2, "full")):
            assert out.verdict == UNSAT

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", range(15, search.SEARCH_SIZE_CAP + 1))
    def test_chorded_beyond_14_unsat_exhaustively(self, n, k):
        out = find_labeling(make_chorded_cycle(n), SearchConfig(4, k, "quasi"))
        assert out.verdict == UNSAT
        assert out.nodes_explored < 10 ** 5

    def test_budget_never_reported_unsat(self):
        out = find_labeling(make_chorded_cycle(15), SearchConfig(4, 3, "quasi", node_budget=5))
        assert out.verdict == BUDGET_EXCEEDED
        assert out.certificate is None
        assert out.nodes_explored == 5

    def test_deterministic(self):
        cfg = SearchConfig(4, 3, "quasi")
        a = find_labeling(make_chorded_cycle(9), cfg)
        b = find_labeling(make_chorded_cycle(9), cfg)
        assert a == b

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            find_labeling(make_dicycle(search.SEARCH_SIZE_CAP + 1), SearchConfig(2, 2))

    def test_verdict_independent_of_order(self):
        rng = random.Random(2018)
        checks = {"quasi": find_quasi_violation, "full": find_full_violation}
        node_counts_differ = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            names = [f"v{i}" for i in range(n)]
            arcs = [(u, w) for u in names for w in names if rng.random() < 0.25]
            d = Digraph(names, arcs)
            alpha, k, mode = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice(tuple(checks))
            outcomes = both_orders(d, SearchConfig(alpha, k, mode))
            for out in outcomes:
                if out.verdict == SAT:
                    assert checks[mode](d, out.certificate) is None
            verdicts = {out.verdict for out in outcomes}
            assert len(verdicts) == 1, (arcs, alpha, k, mode, verdicts)
            node_counts_differ += len({out.nodes_explored for out in outcomes}) > 1
        # the reference order really was in use
        assert node_counts_differ > 0

    def test_verdict_matches_brute_force(self):
        rng = random.Random(1999)
        verdicts = dict.fromkeys(itertools.product(("quasi", "full"), (SAT, UNSAT)), 0)
        for _ in range(300):
            names = [f"v{i}" for i in range(rng.randint(1, 4))]
            d = Digraph(names, [(u, w) for u in names for w in names if rng.random() < 0.35])
            alpha, k = rng.choice(((2, 2), (2, 3), (3, 2)))
            mode = rng.choice(("quasi", "full"))
            got = find_labeling(d, SearchConfig(alpha, k, mode)).verdict
            assert got == brute_force_verdict(d, alpha, k, mode), (d.arcs, alpha, k, mode)
            verdicts[mode, got] += 1
        # both verdicts, in both modes, are well represented
        assert min(verdicts.values()) >= 40, verdicts

    def test_matches_name_based_reference(self):
        rng = random.Random(2026)
        verdicts = dict.fromkeys(
            itertools.product(("quasi", "full"), (SAT, UNSAT, BUDGET_EXCEEDED)), 0)
        for _ in range(2000):
            d = random_digraph(rng, 9)
            cfg = SearchConfig(rng.randint(2, 4), rng.randint(2, 4), rng.choice(("quasi", "full")),
                               rng.choice((1, 3, 10, 30, 100, 300)))
            out = find_labeling(d, cfg)
            got = (out.verdict, out.nodes_explored,
                   None if out.certificate is None else list(out.certificate.codes.items()))
            assert got == reference_find_labeling(d, cfg), (d.arcs, cfg)
            verdicts[cfg.mode, out.verdict] += 1
        assert min(verdicts.values()) >= 40, verdicts

    def test_vertex_order_matches_name_based_reference(self):
        rng = random.Random(14)
        for _ in range(2000):
            d = random_digraph(rng, 14)
            want = list(map(d.vertices.index, reference_vertex_order(d)))
            assert search._vertex_order(d) == want, d.arcs

    @pytest.mark.parametrize("mode", ["quasi", "full"])
    def test_search_reads_no_name_view(self, mode):
        # a parsed digraph is its arc store and every traversal reads the
        # index lists; naming arcs may build the one view, arcs, and no other
        store = {"vertices", "_tail", "_head"}
        demo, demo_lab = sample_pevzner_graph()
        d = parse_digraph_text(format_digraph_text(demo))
        chorded = parse_digraph_text(format_digraph_text(make_chorded_cycle(6)))
        assert find_labeling(d, SearchConfig(4, 2, mode)).verdict == SAT
        quasi = find_labeling(chorded, SearchConfig(4, 3, "quasi")).certificate
        assert isomorphic(d, demo)
        assert find_full_violation(d, demo_lab) is None
        assert check_middle_vertex_lemma(chorded, quasi)
        assert set(vars(d)) == set(vars(chorded)) == store
        assert len(chords_of(chorded)) == 2 and eulerian_path(d) is not None
        assert set(vars(d)) <= store | {"arcs"} and set(vars(chorded)) <= store | {"arcs"}

    def test_canonical_first_labels_match_reference(self):
        for alpha in range(2, 7):
            for k in range(2, 9):
                codes = search._canonical_first_labels(alpha, k)
                assert ([_decode(code, alpha, k) for code in codes]
                        == canonical_first_labels_reference(alpha, k)), (alpha, k)

    def test_canonical_first_labels_are_made_lazily(self):
        # about 4**40 / 24 canonical labels at k = 40: only the ones asked for are made
        assert list(itertools.islice(search._canonical_first_labels(4, 40), 3)) == [0, 1, 4]
        outcome = find_labeling(make_dipath(2), SearchConfig(4, 40, "quasi"))
        assert (outcome.verdict, outcome.nodes_explored) == (SAT, 2)

    @pytest.mark.parametrize("mode", ["quasi", "full"])
    def test_corrupt_certificate_is_caught(self, corrupt_trusted_labelings, mode):
        # the certificate skips the constructor's checks, not its re-check
        with pytest.raises(ConstructionFailure, match="search returned an invalid certificate"):
            find_labeling(make_ladder(3), SearchConfig(3, 4, mode))

    def test_oracle_agrees_with_catalogue(self):
        for n in (6, 11, 14):
            out = find_labeling(make_chorded_cycle(n), SearchConfig(4, 3, "quasi"))
            assert out.verdict == SAT


class TestMiddleVertexLemma:
    def test_catalogue_row_9(self):
        res = label_chorded_cycle(9)
        assert res.labeling.label_of("v2") == (1, 1, 1)
        assert res.labeling.label_of("v5") == (2, 2, 2)
        assert res.labeling.label_of("v8") == (3, 3, 3)
        assert check_middle_vertex_lemma(res.digraph, res.labeling)

    def test_non_constant_middle_fails(self):
        d = make_chorded_cycle(6)
        # force v2 (inside the v1 -> v3 chord span) onto a mixed label
        fake = Labeling(4, 3, {
            "v1": (2, 1, 1), "v2": (1, 2, 1), "v3": (1, 1, 2),
            "v4": (1, 2, 2), "v5": (2, 2, 2), "v6": (2, 2, 1),
        })
        assert not check_middle_vertex_lemma(d, fake)
        assert find_quasi_violation(d, fake) is not None

    def test_all_oracle_certificates_satisfy_it(self):
        for n in range(6, 10):
            d = make_chorded_cycle(n)
            out = find_labeling(d, SearchConfig(4, 3, "quasi"))
            assert out.verdict == SAT
            assert check_middle_vertex_lemma(d, out.certificate)


class TestConjectureExplorer:
    def test_small_ladders_sat(self):
        rows = explore_conjecture(range(2, 5))
        by_key = {(r.n, r.alpha, r.k): r.verdict for r in rows}
        for n in (2, 3, 4):
            assert by_key[(n, 3, 4)] == SAT
            assert by_key[(n, 4, 4)] == SAT

    def test_ladder_verdict_table(self):
        rows = [(r.n, r.alpha, r.k, r.verdict) for r in explore_conjecture(range(10, 17))]
        expected = []
        for n in range(10, 17):
            for alpha, last_sat in ((3, 11), (4, 15)):
                if n <= last_sat:
                    expected.append((n, alpha, 4, SAT))
                else:
                    expected += [(n, alpha, 4, UNSAT), (n, alpha, 5, UNSAT)]
        assert rows == expected

    def test_ladder_search_node_counts(self):
        # the candidate order decides these counts, not only the verdicts
        counts = [(n, alpha, find_labeling(make_ladder(n), SearchConfig(alpha, 4, "full")))
                  for n, alpha in ((10, 3), (10, 4), (11, 3), (11, 4), (12, 3))]
        assert [(n, alpha, out.verdict, out.nodes_explored) for n, alpha, out in counts] == [
            (10, 3, SAT, 27), (10, 4, SAT, 29), (11, 3, SAT, 29), (11, 4, SAT, 31),
            (12, 3, UNSAT, 898)]
