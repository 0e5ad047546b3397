"""Closed-form quasi-labelings for every digraph family in the catalogue.

Every construction here emits a quasi-(alpha, k)-labeling with alpha <= 4,
which is exactly what the lift module needs to certify the line-digraph
iterates as DNA graphs.

Every labeling below is the cyclic k-windows of one short symbol string
per cycle: a cycle labeled by consecutive windows of a cyclic string
satisfies the shift condition by construction, so only distinctness (and
non-collision between glued cycles) has to be arranged.  Chorded cycles
use catalogued strings; every glued family's strings are one formula
(c = ceil(n/2), blade length L):

- C_n . C_p at k = c + 1: the small cycle 1^(c+1) 2^(n-c-1) (211 for n = 3);
  the big cycle the anchor 3 1^c 2 and then the first p - c - 2 symbols of
  R = 3^c 4^(c+1) 3^c 2^c, in reverse order when n < 6.  This is the
  paper's vertex merging down from the longest cycle, p = 5c + 3.
- blade j of a glued cycle at k = max ceil(L/2): 1^k 2^(L-k) for blade 1 at
  k = ceil(L/2), else (j+1) 1^(k-1) 2 (j+1)^(L-k-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

from .digraph import Digraph, make_chorded_cycle, make_infinity, make_propeller3
from .errors import ConstructionFailure, InvalidParameterError, UnsupportedParameterError
from .labeling import Labeling, find_quasi_violation

@dataclass(frozen=True)
class ConstructionResult:
    """A digraph together with the quasi-labeling certifying it."""

    digraph: Digraph
    labeling: Labeling
    tag: str

    def __post_init__(self):
        if self.tag not in CONSTRUCTIONS:
            raise InvalidParameterError(f"unknown construction tag {self.tag!r}")


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def _label_cycles(d: Digraph, strings: tuple[tuple[int, ...], ...], alpha: int, k: int,
                  tag: str) -> ConstructionResult:
    """Label the cycles of d, whose vertices are listed as _glued_cycles lists
    them, by the cyclic k-windows of strings[0], strings[1], ..., each window's
    code rolled from the one before.  The second window of every cycle sits on
    the shared vertex v2, so all must agree on it; v2 is the first key."""
    if not all(1 <= s <= alpha for s in chain.from_iterable(strings)):
        raise ConstructionFailure(f"{tag}: a cycle string uses symbols outside 1..{alpha}")
    window = alpha ** (k - 1)
    flat: list[int] = []  # the codes in d's vertex order
    for s in strings:
        ring = (s * (k // len(s) + 2))[:k + len(s) - 1]
        codes = list(accumulate(ring, lambda c, x: c % window * alpha + x - 1, initial=0))[k:]
        if flat and flat[1] != codes[1]:
            raise ConstructionFailure(f"{tag}: cycles disagree on the shared vertex label")
        flat += codes[:1] + codes[2:] if flat else codes  # a later cycle's second vertex is v2
    labeling = Labeling._trusted(alpha, k, {d.vertices[1]: flat[1], **dict(zip(d.vertices, flat))})
    bad = find_quasi_violation(d, labeling)
    if bad is not None:
        raise ConstructionFailure(f"{tag} construction failed self-verification: {bad}")
    return ConstructionResult(d, labeling, tag)


# ---------------------------------------------------------------------------
# chorded dicycles: catalogued quasi-(4,3) strings
# ---------------------------------------------------------------------------

# Fixed golden strings for 6 <= n <= 14: v1..vn carry their cyclic 3-windows.
# Outside this range the family admits no such labeling (a chord forces its
# middle vertex onto a constant label, and only four constant labels exist),
# except for the single-chord cases n in {4, 5} handled by earlier work and
# left out here.
CHORDED_STRINGS: dict[int, str] = {
    6:  "211122",
    7:  "3111222",
    8:  "31112223",
    9:  "311122233",
    10: "2111222333",
    11: "21112223332",
    12: "411122233344",
    13: "2111222333444",
    14: "21112223334442",
}


def label_chorded_cycle(n: int) -> ConstructionResult:
    """Quasi-(4,3)-labeling of the chorded dicycle *Cn, 6 <= n <= 14."""
    if n not in CHORDED_STRINGS:
        raise UnsupportedParameterError(
            f"chorded-cycle labelings are catalogued for 6 <= n <= 14 only, got n={n}")
    return _label_cycles(make_chorded_cycle(n), (tuple(map(int, CHORDED_STRINGS[n])),), 4, 3,
                         "chorded-cycle")


# ---------------------------------------------------------------------------
# blade strings shared by the double-cycle, windmill, and propeller families
# ---------------------------------------------------------------------------

def _blade(length: int, j: int, k: int) -> tuple[int, ...]:
    """Cycle string of blade j of the given length, read at k.  Blade j >= 2
    uses {1, 2, j+1}, so distinct blades can only meet at the shared window
    (1,...,1,2)."""
    if j == 1 and k == _ceil_half(length):
        return (1,) * k + (2,) * (length - k)
    return (j + 1,) + (1,) * (k - 1) + (2,) + (j + 1,) * (length - k - 1)


def _label_blades(d: Digraph, lengths: tuple[int, ...], alpha: int,
                  tag: str) -> ConstructionResult:
    """Label the blades v, u, w (in that order) of a glued digraph at one k.

    Every blade is labeled at ceil(L/2) or at ceil(L/2)+1, and all blades
    must agree, so k = max over blades of ceil(L/2).
    """
    k = max(_ceil_half(length) for length in lengths)
    strings = tuple(_blade(length, j, k) for j, length in enumerate(lengths, start=1))
    return _label_cycles(d, strings, alpha, k, tag)


def label_double_cycle(n: int) -> ConstructionResult:
    """Quasi-(3, ceil(n/2))-labeling of the glued double cycle C_n . C_n."""
    if n < 3:
        raise InvalidParameterError("double cycle needs n >= 3")
    return _label_blades(make_infinity(n, n), (n, n), 3, "double-cycle")


def label_windmill(n: int) -> ConstructionResult:
    """Quasi-(4, ceil(n/2))-labeling of the three-blade windmill of blade length n."""
    if n < 3:
        raise InvalidParameterError("windmill needs n >= 3")
    return _label_blades(make_propeller3(n, n, n), (n, n, n), 4, "windmill")


def label_propeller(n: int, p: int, q: int) -> ConstructionResult:
    """Quasi-(4,k)-labeling of the three-blade propeller C_n . C_p . C_q.

    Blade lengths must come from {n, n+1, n+2}; k = max over blades of
    ceil(L/2).
    """
    if n < 4:
        raise InvalidParameterError("propeller needs n >= 4")
    for value, name in ((p, "p"), (q, "q")):
        if value not in (n, n + 1, n + 2):
            raise InvalidParameterError(f"{name} must lie in {{n, n+1, n+2}}, got {value}")
    return _label_blades(make_propeller3(n, p, q), (n, p, q), 4, "propeller3")


# ---------------------------------------------------------------------------
# infinity digraphs C_n . C_p
# ---------------------------------------------------------------------------

def _infinity_build(n: int, p: int, v_string: tuple[int, ...], tag: str) -> ConstructionResult:
    """Label C_n . C_p: the small cycle by the windows of v_string, and the big
    cycle by the module's formula.  For n >= 6 every big-cycle window other
    than the shared one carries a 3 or a 4."""
    c = _ceil_half(n)
    run = (3,) * c + (4,) * (c + 1) + (3,) * c + (2,) * c
    p_min, p_max = max(n, 4), c + 2 + len(run)
    if not p_min <= p <= p_max:
        raise InvalidParameterError(f"p must satisfy {p_min} <= p <= {p_max}, got {p}")
    body = run[:p - c - 2]
    u_string = (3,) + (1,) * c + (2,) + (body if n >= 6 else body[::-1])
    return _label_cycles(make_infinity(n, p), (v_string, u_string), 4, c + 1, tag)


def _infinity_v_string(n: int) -> tuple[int, ...]:
    """Small-cycle string 1^(c+1) 2^(n-c-1), c = ceil(n/2), read at k = c + 1."""
    return (1,) * (_ceil_half(n) + 1) + (2,) * (n // 2 - 1)


def label_infinity_even(n: int, p: int) -> ConstructionResult:
    """Quasi-(4, n/2 + 1)-labeling of C_n . C_p for even n >= 4, n <= p <= 5n/2 + 3."""
    if n < 4 or n % 2 != 0:
        raise InvalidParameterError("this construction needs even n >= 4")
    return _infinity_build(n, p, _infinity_v_string(n), "infinity-even")


def label_infinity_odd(n: int, p: int) -> ConstructionResult:
    """Quasi-(4, ceil(n/2) + 1)-labeling of C_n . C_p for odd n >= 5,
    n <= p <= 5*ceil(n/2) + 3."""
    if n < 5 or n % 2 == 0:
        raise InvalidParameterError("this construction needs odd n >= 5")
    return _infinity_build(n, p, _infinity_v_string(n), "infinity-odd")


def label_infinity_c3(p: int) -> ConstructionResult:
    """Quasi-(4,3)-labeling of C_3 . C_p for 4 <= p <= 13.

    The triangle is labeled by the windows of 211 (211, 112, 121) and the big
    cycle is the n = 3 case of the shared formula: k = 3, and at p = 13 the
    string is 3112 22 33 444 33.
    """
    return _infinity_build(3, p, (2, 1, 1), "infinity-c3")


# construction tag -> (parameters label_* takes, in order; label_*)
CONSTRUCTIONS = {
    "chorded-cycle": (("n",), label_chorded_cycle),
    "infinity-even": (("n", "p"), label_infinity_even),
    "infinity-odd": (("n", "p"), label_infinity_odd),
    "infinity-c3": (("p",), label_infinity_c3),
    "double-cycle": (("n",), label_double_cycle),
    "windmill": (("n",), label_windmill),
    "propeller3": (("n", "p", "q"), label_propeller),
}
