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
