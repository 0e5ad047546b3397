"""Round trips of both text formats, on inputs drawn by hypothesis."""

import pytest

from dnagraph import (Digraph, Labeling, format_digraph_text, format_labeling,
                      parse_digraph_text, parse_labeling)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# both formats separate fields by whitespace, so a name is one whitespace-free token
names = st.text(min_size=1, max_size=5).filter(lambda s: s.split() == [s])
settings = hypothesis.settings(derandomize=True, deadline=None)


@st.composite
def digraphs(draw):
    vertices = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    pairs = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    # few arcs among up to eight vertices, so most draws leave some vertex isolated
    return Digraph(vertices, draw(st.lists(pairs, max_size=10, unique=True)))


@st.composite
def labelings(draw):
    alpha = draw(st.integers(1, 12))
    k = draw(st.integers(2, 5))
    label = st.lists(st.integers(1, alpha), min_size=k, max_size=k).map(tuple)
    return Labeling(alpha, k, draw(st.dictionaries(names, label, max_size=8)))


@settings
@hypothesis.given(digraphs())
def test_digraph_text_round_trip(d):
    text = format_digraph_text(d)
    back = parse_digraph_text(text)
    assert format_digraph_text(back) == text
    assert back.arcs == d.arcs
    assert set(back.vertices) == set(d.vertices)


@settings
@hypothesis.given(labelings())
def test_labeling_text_round_trip(lab):
    assert parse_labeling(format_labeling(lab)) == lab
