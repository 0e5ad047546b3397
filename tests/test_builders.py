"""The catalogue builders against the name-pair and tuple code they replace.

The family generators build index lists, the constructions roll window
codes, and ``Labeling.relabeled`` moves the digits of codes.  Each is
pinned here against a reference that spells the same object out of names
and tuples and hands it to the checking public constructors.
"""

import itertools
import random

import pytest

import dnagraph.constructions
import dnagraph.digraph
from dnagraph import (FAMILIES, ConstructionFailure, Digraph, InvalidInputError,
                      InvalidParameterError, Labeling, make_infinity)
from dnagraph.acceptance import _small_fixtures
from dnagraph.constructions import _label_cycles


# ---------------------------------------------------------------------------
# references: the name-pair and tuple bodies the builders had before
# ---------------------------------------------------------------------------

def ref_dipath(n):
    if n < 2:
        raise InvalidParameterError("dipath needs n >= 2")
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Digraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def ref_glued_cycles(*lengths, chords=()):
    cycles = [[f"{prefix}{i}" if i != 2 else "v2" for i in range(1, length + 1)]
              for prefix, length in zip("vuw", lengths)]
    arcs = [arc for names in cycles for arc in zip(names, names[1:] + names[:1])]
    arcs += [(f"v{i}", f"v{j}") for i, j in chords]
    return Digraph(dict.fromkeys(itertools.chain.from_iterable(cycles)), arcs)


def ref_ladder(n):
    if n < 2:
        raise InvalidParameterError("ladder needs n >= 2")
    top = [f"t{c}" for c in range(n)]
    bot = [f"b{c}" for c in range(n)]
    arcs = [(top[c], top[c + 1]) for c in range(n - 1)]
    arcs += [(bot[c + 1], bot[c]) for c in range(n - 1)]
    for c in range(n):
        arcs.append((bot[c], top[c]) if c % 2 == 0 else (top[c], bot[c]))
    return Digraph(top + bot, arcs)


def ref_label_cycles(d, strings, alpha, k, tag):
    assignment = {}
    for prefix, s in zip("vuw", strings):
        ring = s * (k // len(s) + 2)
        labels = [ring[i:i + k] for i in range(len(s))]
        if assignment.setdefault("v2", labels[1]) != labels[1]:
            raise ConstructionFailure(f"{tag}: cycles disagree on the shared vertex label")
        assignment.update((f"{prefix}{i}", label)
                          for i, label in enumerate(labels, start=1) if i != 2)
    labeling = Labeling(alpha, k, assignment)
    bad = dnagraph.constructions.find_quasi_violation(d, labeling)
    if bad is not None:
        raise ConstructionFailure(f"{tag} construction failed self-verification: {bad}")
    return dnagraph.constructions.ConstructionResult(d, labeling, tag)


def ref_relabeled(lab, permutation):
    moved = {v: tuple(permutation[s] for s in label) for v, label in lab.assignment.items()}
    return Labeling(lab.alpha, lab.k, moved)


def outcome(call, *args):
    """What call(*args) returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # every outcome is compared, a raise included
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def family_parameters(params):
    """n up to 40; p, q up to 42: every p for infinity, and for propeller3
    the blade lengths the constructions use besides the refused ones."""
    for n in range(-1, 41):
        if params == ("n",):
            yield (n,)
        elif params == ("n", "p"):
            yield from ((n, p) for p in range(-1, 43))
        else:
            lengths = sorted({-1, 0, 2, 3, 4, n, n + 1, n + 2})
            yield from ((n, p, q) for p in lengths for q in lengths)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generator_matches_the_name_pair_reference(family, monkeypatch):
    params, make = FAMILIES[family]
    reference = {"dipath": ref_dipath, "ladder": ref_ladder}.get(family, make)
    members = list(family_parameters(params))
    got = [outcome(make, *values) for values in members]
    # the glued families reach the reference body through the module global
    monkeypatch.setattr(dnagraph.digraph, "_glued_cycles", ref_glued_cycles)
    want = [outcome(reference, *values) for values in members]
    built = 0
    for values, d, ref in zip(members, got, want):
        if isinstance(ref, tuple):
            assert d == ref, values  # a refusal keeps its type and message
            continue
        assert d.vertices == ref.vertices and d._tail == ref._tail and d._head == ref._head, values
        assert Digraph(d.vertices, d.arcs) == d, values  # names valid, arcs simple
        built += 1
    assert built > 0


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_constructions_match_the_tuple_reference(monkeypatch):
    got = list(_small_fixtures())
    monkeypatch.setattr(dnagraph.constructions, "_label_cycles", ref_label_cycles)
    want = list(_small_fixtures())
    assert len(got) == len(want) == 208
    for r, ref in zip(got, want):
        assert (r.tag, r.digraph, r.labeling) == (ref.tag, ref.digraph, ref.labeling)
        assert list(r.labeling.codes) == list(ref.labeling.codes)  # the same key order


@pytest.mark.parametrize("strings", [((1, 1, 1, 5), (1, 1, 1, 2)), ((1, 1, 1, 2), (0, 1, 1, 1))])
def test_a_symbol_outside_the_alphabet_fails_the_construction(strings):
    with pytest.raises(ConstructionFailure, match=r"infinity-even: a cycle string uses symbols outside 1\.\.4"):
        _label_cycles(make_infinity(4, 4), strings, 4, 3, "infinity-even")


def test_windows_longer_than_their_cycle_wrap_around():
    # at k = 5 the windows of the triangle read its string more than once
    args = (make_infinity(3, 8), ((1, 1, 2), (3, 1, 2, 1, 1, 2, 3, 4)), 4, 5, "infinity-c3")
    res, ref = _label_cycles(*args), ref_label_cycles(*args)
    assert res == ref and list(res.labeling.codes) == list(ref.labeling.codes)


def test_label_cycles_matches_the_reference_on_random_strings():
    # most of these fail: the failure and its message must match too
    rng = random.Random(7)
    for _ in range(500):
        n, p, alpha, k = rng.randint(3, 6), rng.randint(3, 9), rng.randint(2, 4), rng.randint(2, 8)
        strings = tuple(tuple(rng.randint(1, alpha) for _ in range(length)) for length in (n, p))
        args = (make_infinity(n, p), strings, alpha, k, "infinity-c3")
        assert outcome(_label_cycles, *args) == outcome(ref_label_cycles, *args), args


# ---------------------------------------------------------------------------
# relabeled
# ---------------------------------------------------------------------------

def random_labeling(rng):
    alpha, k = rng.randint(1, 5), rng.randint(2, 6)
    symbols = rng.sample(range(1, alpha + 1), rng.randint(1, alpha))  # some may go unused
    return Labeling(alpha, k, {f"x{i}": tuple(rng.choice(symbols) for _ in range(k))
                               for i in range(rng.randint(0, 8))})


def test_relabeled_matches_the_decode_and_construct_reference():
    rng = random.Random(2026)
    for _ in range(400):
        lab = random_labeling(rng)
        images = list(range(1, lab.alpha + 1))
        rng.shuffle(images)
        permutation = dict(zip(range(1, lab.alpha + 1), images))
        got, want = lab.relabeled(permutation), ref_relabeled(lab, permutation)
        assert got == want and list(got.codes) == list(want.codes), (lab, permutation)


def test_relabeled_on_codes_skips_the_constructor(monkeypatch):
    lab = Labeling(4, 3, {"a": (1, 2, 3), "b": (4, 4, 1)})
    monkeypatch.setattr(Labeling, "__init__", None)
    moved = lab.relabeled({1: 2, 2: 3, 3: 4, 4: 1})
    assert moved.assignment == {"a": (2, 3, 4), "b": (1, 1, 2)}


@pytest.mark.parametrize("images", [
    {1: 2, 2: 2, 3: 3},  # not injective
    {1: 0, 2: 1, 3: 3},
    {1: 5, 2: 1, 3: 3},
    {1: 2.0, 2: 1, 3: 3},
    {1: "2", 2: 1, 3: 3},
    {1: True, 2: 2, 3: 3},
])
def test_relabeled_needs_a_permutation_of_the_alphabet(images):
    lab = Labeling(4, 2, {"a": (1, 2), "b": (2, 3)})
    with pytest.raises(InvalidInputError, match=r"relabeling needs a permutation of 1\.\.4"):
        lab.relabeled({**images, 4: 4})


def test_relabeled_reads_no_image_past_the_alphabet():
    lab = Labeling(3, 2, {"a": (1, 2), "b": (2, 3)})
    assert lab.relabeled({1: 2, 2: 1, 3: 3, 4: 9}).assignment == {"a": (2, 1), "b": (1, 3)}


def test_relabeled_needs_an_image_for_every_symbol():
    # an unused symbol needs one too: the digits are moved through a table
    with pytest.raises(KeyError):
        Labeling(3, 2, {"a": (1, 2)}).relabeled({1: 2, 2: 1})
