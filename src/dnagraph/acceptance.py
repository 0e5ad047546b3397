"""Executable acceptance suite: one check per contract the library must honor.

Each criterion is a zero-argument callable that returns a human-readable
detail string on success and raises AssertionError with a diagnosis on
failure.  The golden fixtures here (catalogue rows, pinned label sets, the
printed ladder labelings) are restated independently of the construction
code so the checks stay two-sided.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .constructions import (label_chorded_cycle, label_double_cycle, label_infinity_c3,
                            label_infinity_even, label_infinity_odd, label_propeller,
                            label_windmill)
from .digraph import (Digraph, _walk_join, isomorphic, line_digraph, make_chorded_cycle,
                      make_infinity, make_ladder)
from .errors import DnaGraphError
from .labeling import (Labeling, find_dna_violation, find_full_violation,
                       find_quasi_violation, format_label)
from .lift import lift_m, lift_once
from .search import (SAT, UNSAT, SearchConfig, check_middle_vertex_lemma, explore_conjecture,
                     find_labeling)
from .sequencing import eulerian_path, hamiltonian_path, sample_pevzner_graph, spell_eulerian


# golden rows restated independently of the constructions module
EXPECTED_CHORDED_ROWS = {
    6:  "211,111,112,122,222,221",
    7:  "311,111,112,122,222,223,231",
    8:  "311,111,112,122,222,223,233,331",
    9:  "311,111,112,122,222,223,233,333,331",
    10: "211,111,112,122,222,223,233,333,332,321",
    11: "211,111,112,122,222,223,233,333,332,322,221",
    12: "411,111,112,122,222,223,233,333,334,344,444,441",
    13: "211,111,112,122,222,223,233,333,334,344,444,442,421",
    14: "211,111,112,122,222,223,233,333,334,344,444,442,422,221",
}

# golden label sets for the small glued-cycle chain C4.C5 and its two lifts
GOLDEN_C4C5 = {"111", "112", "121", "211", "311", "123", "233", "331"}
GOLDEN_LIFT1_C4C5 = {"1112", "1121", "1211", "2111", "3112", "1123", "1233", "2331", "3311"}
GOLDEN_LIFT2_C4C5 = {"11121", "11123", "11211", "12111", "21112", "31121", "31123",
                     "11233", "12331", "23311", "33112"}

# golden label multisets for the two mixed propellers
GOLDEN_PROPELLER_556 = {"111", "112", "122", "221", "211", "311", "123", "233", "331",
                        "411", "124", "244", "444", "441"}
GOLDEN_PROPELLER_567 = {"1112", "1122", "1221", "2211", "2111", "3111", "1123", "1233",
                        "2331", "3311", "4111", "1124", "1244", "2444", "4441", "4411"}

# printed full (3,4)-labelings of the two small ladders
LADDER3_LABELS = {"t0": (2, 1, 1, 1), "t1": (1, 1, 1, 2), "t2": (1, 1, 2, 3),
                  "b0": (1, 2, 1, 1), "b1": (1, 1, 2, 1), "b2": (3, 1, 1, 2)}
LADDER5_LABELS = {"t0": (2, 1, 3, 1), "t1": (1, 3, 1, 2), "t2": (3, 1, 2, 3),
                  "t3": (1, 2, 3, 3), "t4": (2, 3, 3, 3),
                  "b0": (1, 2, 1, 3), "b1": (3, 1, 2, 1), "b2": (3, 3, 1, 2),
                  "b3": (2, 3, 3, 1), "b4": (2, 2, 3, 3)}


def _check(ok: bool, *diagnosis) -> None:
    """Raise AssertionError(*diagnosis) unless ok; unlike assert, it runs under -O."""
    if not ok:
        raise AssertionError(*diagnosis)


def _row_string(result) -> str:
    n = sum(1 for v in result.digraph.vertices if v.startswith("v"))
    return ",".join(format_label(result.labeling.label_of(f"v{i}")) for i in range(1, n + 1))


def _label_set(lab: Labeling) -> set[str]:
    return {format_label(label) for label in lab.assignment.values()}


def criterion_chorded_rows() -> str:
    """Chorded-cycle labelings match the catalogue rows and are quasi-(4,3)."""
    for n in range(6, 15):
        res = label_chorded_cycle(n)
        _check(_row_string(res) == EXPECTED_CHORDED_ROWS[n], f"row mismatch at n={n}")
        _check(res.labeling.alpha == 4 and res.labeling.k == 3)
        _check(find_quasi_violation(res.digraph, res.labeling) is None, f"quasi fails at n={n}")
    return "9 rows exact, all quasi-(4,3)"


def criterion_chorded_lift() -> str:
    """One lift of every chorded fixture is a full labeling; n=12 gives 16 vertices."""
    for n in range(6, 15):
        res = label_chorded_cycle(n)
        lifted, lifted_lab = lift_once(res.digraph, res.labeling)
        _check(find_full_violation(lifted, lifted_lab) is None, f"full fails after lift at n={n}")
        if n == 12:
            _check(lifted.vertex_count == 16, lifted.vertex_count)
    return "9 lifts full; n=12 lift has 16 vertices"


def criterion_chorded_triple_lift() -> str:
    """Three lifts of the n=12 fixture certify a DNA graph with k=6, growing each step."""
    res = label_chorded_cycle(12)
    stages = [(res.digraph, res.labeling)]
    for _ in range(3):
        stages.append(lift_once(*stages[-1]))
    _check(lift_m(res.digraph, res.labeling, 3) == stages[-1])
    lifted, lifted_lab = stages[-1]
    _check(lifted_lab.k == 6, lifted_lab.k)
    _check(find_dna_violation(lifted, lifted_lab) is None)
    counts = tuple(d.vertex_count for d, _ in stages)
    _check(all(a < b for a, b in zip(counts, counts[1:])), counts)
    return f"vertex counts {counts}, k=6, certified"


def criterion_infinity_even() -> str:
    """Even glued cycles: every (n, p) in range is quasi with the right k and shared label."""
    checked = 0
    for n in (4, 6, 8, 10):
        k = n // 2 + 1
        for p in range(n, 5 * n // 2 + 4):
            res = label_infinity_even(n, p)
            _check(res.labeling.k == k, (n, p))
            _check(find_quasi_violation(res.digraph, res.labeling) is None, (n, p))
            _check(res.labeling.label_of("v2") == (1,) * (k - 1) + (2,), (n, p))
            _check(res.digraph.vertex_count == n + p - 1)
            checked += 1
    return f"{checked} (n, p) pairs verified"


def criterion_infinity_odd() -> str:
    """Odd glued cycles: every (n, p) in range is quasi with k = ceil(n/2)+1."""
    checked = 0
    for n in (5, 7, 9):
        k = (n + 1) // 2 + 1
        for p in range(n, 5 * ((n + 1) // 2) + 4):
            res = label_infinity_odd(n, p)
            _check(res.labeling.k == k, (n, p))
            _check(find_quasi_violation(res.digraph, res.labeling) is None, (n, p))
            _check(res.labeling.label_of("v2") == (1,) * (k - 1) + (2,), (n, p))
            checked += 1
    return f"{checked} (n, p) pairs verified"


def criterion_infinity_c3() -> str:
    """Triangle gluings: quasi for p in 4..13 and DNA-certified after one lift."""
    for p in range(4, 14):
        res = label_infinity_c3(p)
        _check(find_quasi_violation(res.digraph, res.labeling) is None, p)
        lifted, lifted_lab = lift_once(res.digraph, res.labeling)
        _check(find_dna_violation(lifted, lifted_lab) is None, p)
    return "10 values of p verified and lift-certified"


def criterion_double_cycle() -> str:
    """Double cycles: quasi-(3, ceil(n/2)) for n in 3..15; n=3 equals the seed labels."""
    for n in range(3, 16):
        res = label_double_cycle(n)
        _check(res.labeling.alpha == 3 and res.labeling.k == (n + 1) // 2, n)
        _check(find_quasi_violation(res.digraph, res.labeling) is None, n)
    res3 = label_double_cycle(3)
    lab = res3.labeling
    _check([lab.label_of(v) for v in ("v1", "v2", "v3")] == [(1, 1), (1, 2), (2, 1)])
    _check([lab.label_of(v) for v in ("u1", "v2", "u3")] == [(3, 1), (1, 2), (2, 3)])
    return "n in 3..15 verified, n=3 labels exact"


def criterion_windmill_propeller() -> str:
    """Windmills n in 3..15 and propellers n in 4..9 are quasi; the two
    golden mixed propellers match their label sets exactly."""
    for n in range(3, 16):
        res = label_windmill(n)
        _check(res.labeling.alpha == 4 and res.labeling.k == (n + 1) // 2, n)
        _check(find_quasi_violation(res.digraph, res.labeling) is None, n)
    combos = 0
    for n in range(4, 10):
        for p in (n, n + 1, n + 2):
            for q in (n, n + 1, n + 2):
                res = label_propeller(n, p, q)
                _check(find_quasi_violation(res.digraph, res.labeling) is None, (n, p, q))
                _check(res.labeling.k in ((n + 1) // 2, (n + 1) // 2 + 1), (n, p, q))
                combos += 1
    _check(_label_set(label_propeller(5, 5, 6).labeling) == GOLDEN_PROPELLER_556)
    _check(_label_set(label_propeller(5, 6, 7).labeling) == GOLDEN_PROPELLER_567)
    return f"13 windmills and {combos} propellers verified, both golden sets exact"


def criterion_small_chain() -> str:
    """The C4.C5 chain reproduces the golden base, first-lift, and
    second-lift label sets, with both lifts full."""
    res = label_infinity_even(4, 5)
    _check(_label_set(res.labeling) == GOLDEN_C4C5)
    one, one_lab = lift_m(res.digraph, res.labeling, 1)
    _check(_label_set(one_lab) == GOLDEN_LIFT1_C4C5)
    _check(find_full_violation(one, one_lab) is None)
    two, two_lab = lift_m(res.digraph, res.labeling, 2)
    _check(_label_set(two_lab) == GOLDEN_LIFT2_C4C5)
    _check(find_full_violation(two, two_lab) is None)
    return f"base 8, lift 9, double lift {two.vertex_count} labels, all exact"


def criterion_ladder_iso() -> str:
    """The lift of the glued square pair is the 2x4 ladder."""
    lifted = line_digraph(make_infinity(4, 4))
    _check(isomorphic(lifted, make_ladder(4)))
    return "line digraph of C4.C4 is the 2x4 ladder"


def criterion_ladder_fixtures() -> str:
    """The printed (3,4)-labelings of the 2x3 and 2x5 ladders are full, and
    the explorer finds (3,4) labelings for n in 2..6."""
    for n, fixture in ((3, LADDER3_LABELS), (5, LADDER5_LABELS)):
        ladder = make_ladder(n)
        lab = Labeling(3, 4, dict(fixture))
        _check(find_full_violation(ladder, lab) is None, n)
    rows = explore_conjecture(range(2, 7))
    for n in range(2, 7):
        row = next(r for r in rows if r.n == n and r.alpha == 3 and r.k == 4)
        _check(row.verdict == SAT, row)
    return "fixtures full, explorer SAT for n in 2..6 at (3,4)"


def criterion_negative_bound() -> str:
    """No quasi-(4,3)-labeling of the 15-vertex chorded cycle exists, and all
    small positive certificates satisfy the constant-middle-vertex fact."""
    cfg = SearchConfig(4, 3, "quasi")
    outcome = find_labeling(make_chorded_cycle(15), cfg)
    _check(outcome.verdict == UNSAT, outcome.verdict)
    for n in range(6, 10):
        sat = find_labeling(make_chorded_cycle(n), cfg)
        _check(sat.verdict == SAT, (n, sat.verdict))
        _check(check_middle_vertex_lemma(make_chorded_cycle(n), sat.certificate), n)
    return f"n=15 UNSAT after {outcome.nodes_explored} nodes; lemma holds on n=6..9 certificates"


def _small_fixtures():
    for n in range(6, 15):
        yield label_chorded_cycle(n)
    for n in (4, 6, 8, 10):
        for p in range(n, 5 * n // 2 + 4):
            yield label_infinity_even(n, p)
    for n in (5, 7, 9):
        for p in range(n, 5 * ((n + 1) // 2) + 4):
            yield label_infinity_odd(n, p)
    for p in range(4, 14):
        yield label_infinity_c3(p)
    for n in range(3, 16):
        yield label_double_cycle(n)
        yield label_windmill(n)
    for n in range(4, 10):
        for p in (n, n + 1, n + 2):
            for q in (n, n + 1, n + 2):
                yield label_propeller(n, p, q)


def criterion_oracle_agreement() -> str:
    """The search oracle independently finds a labeling wherever a compact
    construction fixture exists (up to 20 vertices, k up to 4)."""
    ran = 0
    for res in _small_fixtures():
        if res.digraph.vertex_count > 20 or res.labeling.k > 4:
            continue
        cfg = SearchConfig(res.labeling.alpha, res.labeling.k, "quasi")
        outcome = find_labeling(res.digraph, cfg)
        _check(outcome.verdict == SAT, (res.tag, res.digraph.vertex_count, outcome.verdict))
        ran += 1
    return f"{ran} fixtures re-derived SAT by the oracle"


def criterion_sbh_pipeline() -> str:
    """Both spellings of the demo spectrum give TACGACTA and the two graph
    views are line-digraph related."""
    d, lab = sample_pevzner_graph()
    path = eulerian_path(d, start="TA")
    _check(path is not None)
    _check(spell_eulerian(lab, path) == "TACGACTA")
    line, line_lab = lift_once(d, lab)
    walks = hamiltonian_path(d, line, path)
    # the walk names restated from the path's arcs, not read off L(d)
    _check(walks == tuple(_walk_join(tail, head) for tail, head in path))
    _check(spell_eulerian(line_lab, tuple(zip(walks, walks[1:]))) == "TACGACTA")
    lysov = line_digraph(d)
    _check(sorted(walks) == sorted(lysov.vertices))
    expected_lysov = Digraph(
        ["TAC", "ACG", "ACT", "CGA", "GAC", "CTA"],
        [("TAC", "ACG"), ("TAC", "ACT"), ("ACG", "CGA"), ("CGA", "GAC"),
         ("GAC", "ACT"), ("GAC", "ACG"), ("ACT", "CTA"), ("CTA", "TAC")],
    )
    _check(isomorphic(lysov, expected_lysov))
    return "both paths spell TACGACTA; views are line-digraph related"


def _random_digraph(rng: random.Random) -> Digraph:
    n = rng.randint(1, 8)
    names = [f"x{i}" for i in range(n)]
    arcs = [(a, b) for a in names for b in names if a != b and rng.random() < 0.3]
    return Digraph(names, arcs)


def _random_quasi_instance(rng: random.Random):
    alpha = rng.randint(2, 4)
    k = rng.randint(2, 4)
    pool = set()
    for _ in range(rng.randint(2, 8)):
        pool.add(tuple(rng.randint(1, alpha) for _ in range(k)))
    labels = sorted(pool)
    names = [f"x{i}" for i in range(len(labels))]
    arcs = [(names[i], names[j])
            for i, a in enumerate(labels) for j, b in enumerate(labels)
            if i != j and a[1:] == b[:-1] and rng.random() < 0.8]
    d = Digraph(names, arcs)
    lab = Labeling(alpha, k, dict(zip(names, labels)))
    return d, lab


def criterion_structural_properties() -> str:
    """Randomized structural invariants: line-digraph counts, the lift
    prefix/suffix law, and alphabet-permutation invariance (1000+ cases)."""
    rng = random.Random(20260808)
    cases = 1000
    for _ in range(cases):
        d = _random_digraph(rng)
        ld = line_digraph(d)
        _check(ld.vertex_count == d.arc_count)
        # degrees from the name pairs, independent of the index lists line_digraph reads
        outs, ins = Counter(t for t, _ in d.arcs), Counter(h for _, h in d.arcs)
        _check(ld.arc_count == sum(ins[v] * outs[v] for v in d.vertices))

        d2, lab = _random_quasi_instance(rng)
        _check(find_quasi_violation(d2, lab) is None)
        perm = list(range(1, lab.alpha + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(lab.alpha)}
        _check(find_quasi_violation(d2, lab.relabeled(mapping)) is None)
        if d2.arc_count == 0:
            continue
        lifted, lifted_lab = lift_once(d2, lab)
        _check(lifted_lab.k == lab.k + 1)
        for tail, head in d2.arcs:
            got = lifted_lab.label_of(_walk_join(tail, head))
            _check(got[:lab.k] == lab.label_of(tail))
            _check(got[-lab.k:] == lab.label_of(head))
    return f"{cases} randomized cases, zero failures"


@dataclass(frozen=True)
class Criterion:
    ident: str
    summary: str
    run: Callable[[], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion("chorded-rows", "chorded-cycle catalogue rows exact and quasi-(4,3)", criterion_chorded_rows),
    Criterion("chorded-lift", "one lift of each chorded fixture is full", criterion_chorded_lift),
    Criterion("chorded-triple-lift", "triple lift of n=12 certifies a DNA graph", criterion_chorded_triple_lift),
    Criterion("infinity-even-sweep", "even glued-cycle sweep is quasi with shared label", criterion_infinity_even),
    Criterion("infinity-odd-sweep", "odd glued-cycle sweep is quasi", criterion_infinity_odd),
    Criterion("infinity-c3", "triangle gluings quasi and lift-certified", criterion_infinity_c3),
    Criterion("double-cycle", "double cycles quasi-(3,ceil(n/2)), n=3 exact", criterion_double_cycle),
    Criterion("windmill-propeller", "windmill and propeller sweeps, golden sets exact", criterion_windmill_propeller),
    Criterion("small-chain", "C4.C5 lift chain matches the golden label sets", criterion_small_chain),
    Criterion("ladder-iso", "lift of C4.C4 is the 2x4 ladder", criterion_ladder_iso),
    Criterion("ladder-fixtures", "printed ladder labelings full; explorer SAT", criterion_ladder_fixtures),
    Criterion("negative-bound", "15-vertex chorded cycle has no quasi-(4,3) labeling", criterion_negative_bound),
    Criterion("oracle-agreement", "oracle re-derives every compact fixture", criterion_oracle_agreement),
    Criterion("sbh-pipeline", "demo spectrum spelled both ways", criterion_sbh_pipeline),
    Criterion("structural-properties", "randomized invariants over 1000 digraphs", criterion_structural_properties),
)


def run_all(write=print, only: str | None = None) -> bool:
    """Run the acceptance suite, printing one PASS/FAIL line per criterion."""
    selected = [c for c in CRITERIA if only is None or c.ident == only]
    if only is not None and not selected:
        raise ValueError(f"unknown criterion {only!r}")
    all_ok = True
    for crit in selected:
        try:
            detail = crit.run()
        except (AssertionError, DnaGraphError) as exc:
            all_ok = False
            write(f"FAIL  {crit.ident:24s}  {crit.summary} [{exc}]")
        else:
            write(f"PASS  {crit.ident:24s}  {crit.summary} ({detail})")
    return all_ok
