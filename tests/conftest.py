import pytest

from dnagraph import Labeling


@pytest.fixture
def corrupt_trusted_labelings(monkeypatch):
    """Make every labeling the package builds from its own codes carry each
    label's first symbol in place of its last one."""
    trusted = Labeling._trusted

    def corrupt(cls, alpha, k, codes):
        first = alpha ** (k - 1)
        return trusted(alpha, k, {v: c - c % alpha + c // first for v, c in codes.items()})

    monkeypatch.setattr(Labeling, "_trusted", classmethod(corrupt))


@pytest.fixture(scope="session")
def random_texts():
    """The 3,000 seeded random digraph texts and labeling texts that both the
    reference comparisons and the file-reader comparisons parse, built once
    a session: kind -> texts."""
    from test_fast_paths import random_digraph_text, random_labeling_text, seeded_texts

    return {"digraph": seeded_texts(random_digraph_text, 2024),
            "labeling": seeded_texts(random_labeling_text, 4242)}
