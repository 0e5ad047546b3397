"""Seeded inputs, CLI passes and the independent output checker.

A workload is a list of CLI calls (one *pass*) over files this module
writes.  The program sees only those files.  Nothing here imports dnagraph:
run.py times that import as part of set-up, and the checker below must not
lean on dnagraph's own verifiers.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Passed to every search explicitly, so a DNAGRAPH_BUDGET in the caller's
# environment cannot turn the exhaustive UNSAT row into BUDGET_EXCEEDED.
BUDGET = 10 ** 8

# The spanning subdigraph of B(4,3) is drawn once with this seed, so every
# --seed lifts the same structure (27,452 vertices after five lifts) and the
# work per pass does not depend on the seed.  --seed changes the alphabet
# permutation, the vertex names and the order of the arc lines.
BASE_STRUCTURE_SEED = 1
BASE_KEEP = 0.85

LADDER_ROWS = ((10, 3, "SAT"), (10, 4, "SAT"), (11, 3, "SAT"), (11, 4, "SAT"), (12, 3, "UNSAT"))
TOY_LADDER_ROWS = ((4, 3, "SAT"), (5, 4, "SAT"), (5, 2, "UNSAT"))

CRITERIA = ("chorded-rows", "chorded-lift", "chorded-triple-lift", "infinity-even-sweep",
            "infinity-odd-sweep", "infinity-c3", "double-cycle", "windmill-propeller",
            "small-chain", "ladder-iso", "ladder-fixtures", "negative-bound",
            "oracle-agreement", "sbh-pipeline", "structural-properties")
TOY_CRITERIA = ("small-chain",)

WORKLOADS = ("lift-chain", "ladder-search", "acceptance")

# The verb of each call; run.py reports one timing per verb.
VERBS = ("lift", "verify", "search", "acceptance")

_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass
class Call:
    """One CLI invocation and the check of what it produced.

    check(exit_code, stdout) returns a problem description or None.
    """

    verb: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    calls: list[Call]
    facts: dict = field(default_factory=dict)

    def clear_outputs(self) -> None:
        """Delete the files the previous pass wrote, so no stale file passes a check."""
        for call in self.calls:
            for path in call.outputs:
                if os.path.exists(path):
                    os.remove(path)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    """count distinct names of one fixed length, so byte sizes do not depend on the seed."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(_NAME_CHARS) for _ in range(5))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _contents(*paths: str) -> tuple[bytes, ...] | None:
    try:
        return tuple(Path(path).read_bytes() for path in paths)
    except OSError:
        return None


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def base_subdigraph() -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Random spanning subdigraph of the loop-free de Bruijn digraph B(4,3)."""
    rng = random.Random(BASE_STRUCTURE_SEED)
    words = list(itertools.product(range(1, 5), repeat=3))
    arcs = []
    for u in words:
        for z in range(1, 5):
            v = u[1:] + (z,)
            if v != u and rng.random() < BASE_KEEP:
                arcs.append((u, v))
    return words, arcs


def walk_count(vertices, arcs, m: int) -> int:
    """Number of m-arc walks, 1^T A^m 1: the vertex count of the m-th line digraph."""
    index = {v: i for i, v in enumerate(vertices)}
    ends = [1] * len(vertices)
    for _ in range(m):
        nxt = [0] * len(vertices)
        for u, v in arcs:
            nxt[index[u]] += ends[index[v]]
        ends = nxt
    return sum(ends)


def _lift_chain(seed: int, workdir: str, toy: bool) -> Workload:
    m = 2 if toy else 5
    words, arcs = base_subdigraph()
    rng = random.Random(seed)
    perm = [1, 2, 3, 4]
    rng.shuffle(perm)
    name = dict(zip(words, _names(rng, len(words), "v")))
    order = list(arcs)
    rng.shuffle(order)
    base_d = os.path.join(workdir, "base.digraph")
    base_l = os.path.join(workdir, "base.labeling")
    _write(base_d, [f"{len(words)} {len(arcs)}"] + [f"{name[u]} {name[v]}" for u, v in order])
    _write(base_l, ["4 3"] + [name[w] + "\t" + " ".join(str(perm[s - 1]) for s in w)
                              for w in words])
    expected = walk_count(words, arcs, m)
    out_d = os.path.join(workdir, "lifted.digraph")
    out_l = os.path.join(workdir, "lifted.labeling")

    checked: list[tuple[bytes, ...]] = []

    def check_lift(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"lift exited {code}: {stdout.strip()[:200]}"
        # files byte-identical to an output that passed the full check pass it too;
        # comparing bytes costs a tenth of the check and leaves more of the run to measure
        contents = _contents(out_d, out_l)
        if contents is not None and contents in checked:
            return None
        problem = de_bruijn_problem(out_d, out_l, alpha=4, k=3 + m, vertices=expected)
        if problem is None:
            checked[:] = [contents]
        return problem

    def check_verify(code: int, stdout: str) -> str | None:
        if code != 0 or stdout != "ok: labeling is dna-valid\n":
            return f"verify exited {code}: {stdout.strip()[:200]}"
        return None

    calls = [
        Call("lift", ["lift", "--m", str(m), "--digraph", base_d, "--labeling", base_l,
                      "--out-digraph", out_d, "--out-labeling", out_l],
             check_lift, (out_d, out_l)),
        Call("verify", ["verify", "--mode", "dna", "--digraph", out_d, "--labeling", out_l],
             check_verify),
    ]
    return Workload("lift-chain", calls,
                    {"m": m, "base_vertices": len(words), "base_arcs": len(arcs),
                     "lifted_vertices": expected})


def ladder_arcs(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Oriented 2 x n grid in the vertex and arc order the CLI's ``gen`` writes:
    top row rightward, bottom row leftward, rung upward at even columns."""
    top = [f"t{c}" for c in range(n)]
    bot = [f"b{c}" for c in range(n)]
    arcs = [(top[c], top[c + 1]) for c in range(n - 1)]
    arcs += [(bot[c + 1], bot[c]) for c in range(n - 1)]
    arcs += [(bot[c], top[c]) if c % 2 == 0 else (top[c], bot[c]) for c in range(n)]
    return top + bot, arcs


def _ladder_search(seed: int, workdir: str, toy: bool) -> Workload:
    rng = random.Random(seed)
    calls = []
    for n, alpha, verdict in TOY_LADDER_ROWS if toy else LADDER_ROWS:
        vertices, arcs = ladder_arcs(n)
        # renaming keeps the arc order, so the search order and node count stay fixed
        rename = dict(zip(vertices, _names(rng, len(vertices), "q")))
        path = os.path.join(workdir, f"ladder{n}.digraph")
        _write(path, [f"{len(vertices)} {len(arcs)}"] + [f"{rename[t]} {rename[h]}" for t, h in arcs])
        cert = os.path.join(workdir, f"ladder{n}-a{alpha}.labeling")
        argv = ["search", "--mode", "full", "--alpha", str(alpha), "--k", "4",
                "--budget", str(BUDGET), "--digraph", path, "--out-labeling", cert]
        calls.append(Call("search", argv, _search_check(2 * n, alpha, verdict, path, cert),
                          (cert,)))
    return Workload("ladder-search", calls, {"rows": len(calls)})


def _search_check(vertices: int, alpha: int, verdict: str, digraph: str, cert: str):
    def check(code: int, stdout: str) -> str | None:
        fields = stdout.split()
        if code != 0 or len(fields) != 5:
            return f"search exited {code}: {stdout.strip()[:200]}"
        if fields[:4] != [str(vertices), str(alpha), "4", verdict]:
            return f"expected {vertices} {alpha} 4 {verdict}, got {stdout.strip()}"
        if verdict == "SAT":
            return de_bruijn_problem(digraph, cert, alpha=alpha, k=4, vertices=vertices)
        if os.path.exists(cert):
            return "UNSAT row wrote a certificate"
        return None
    return check


def search_nodes(stdout: str) -> int:
    """Node count from a search verdict line ``n alpha k verdict nodes``."""
    return int(stdout.split()[4])


def _acceptance(seed: int, workdir: str, toy: bool) -> Workload:
    del seed, workdir  # the suite's inputs are fixed inside the program
    wanted = TOY_CRITERIA if toy else CRITERIA
    argv = ["acceptance"] + (["--only", wanted[0]] if toy else [])

    def check(code: int, stdout: str) -> str | None:
        lines = [line for line in stdout.splitlines() if line.strip()]
        passed = {line.split()[1] for line in lines if line.startswith("PASS ")}
        failed = [line for line in lines if not line.startswith("PASS ")]
        missing = [c for c in wanted if c not in passed]
        if code != 0 or failed or missing:
            return f"acceptance exited {code}; not passed: {failed[:2]}, missing: {missing}"
        return None

    return Workload("acceptance", [Call("acceptance", argv, check)], {"criteria": len(wanted)})


def prepare(workload: str, seed: int, workdir: str, toy: bool = False) -> Workload:
    """Write the inputs of one workload into workdir and return its pass."""
    builders = {"lift-chain": _lift_chain, "ladder-search": _ladder_search,
                "acceptance": _acceptance}
    return builders[workload](seed, workdir, toy)


# ---------------------------------------------------------------------------
# independent checker
# ---------------------------------------------------------------------------

def read_digraph(path: str) -> tuple[int, list[tuple[str, str]]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    n, m = int(rows[0][0]), int(rows[0][1])
    arcs = [(row[0], row[1]) for row in rows[1:]]
    if len(arcs) != m or any(len(row) != 2 for row in rows[1:]):
        raise ValueError(f"{path}: header promises {m} arcs, found {len(arcs)}")
    return n, arcs


def read_labeling(path: str) -> tuple[int, int, dict[str, tuple[int, ...]]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    alpha, k = (int(x) for x in rows[0].split())
    labels: dict[str, tuple[int, ...]] = {}
    for row in rows[1:]:
        name, _, symbols = row.partition("\t")
        if name in labels:
            raise ValueError(f"{path}: {name} labeled twice")
        labels[name] = tuple(int(s) for s in symbols.split())
    return alpha, k, labels


def de_bruijn_problem(digraph_path: str, labeling_path: str, alpha: int, k: int,
                      vertices: int) -> str | None:
    """Check the full de Bruijn property directly on the written files.

    Labels are distinct k-tuples over 1..alpha, every arc x->y has
    suffix(x) == prefix(y), and the number of overlapping ordered pairs
    equals the number of arcs, so conversely every overlap is an arc.
    """
    try:
        n, arcs = read_digraph(digraph_path)
        lab_alpha, lab_k, labels = read_labeling(labeling_path)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if (lab_alpha, lab_k) != (alpha, k):
        return f"header alpha={lab_alpha} k={lab_k}, expected alpha={alpha} k={k}"
    if n != vertices or len(labels) != vertices:
        return f"{n} vertices in the digraph, {len(labels)} labeled, expected {vertices}"
    named = {v for arc in arcs for v in arc}
    if not named <= labels.keys():
        return f"{len(named - labels.keys())} arc endpoints carry no label"
    if len(named) != n:
        return f"header says {n} vertices, arcs mention {len(named)}"
    if len(set(labels.values())) != len(labels):
        return "two vertices share a label"
    for v, label in labels.items():
        if len(label) != k or not all(1 <= s <= alpha for s in label):
            return f"label of {v} is not a {k}-tuple over 1..{alpha}"
    if len(set(arcs)) != len(arcs):
        return "repeated arc"
    for x, y in arcs:
        if labels[x][1:] != labels[y][:-1]:
            return f"arc {x} -> {y} does not overlap"
    prefixes: dict[tuple[int, ...], int] = {}
    for label in labels.values():
        prefixes[label[:-1]] = prefixes.get(label[:-1], 0) + 1
    overlaps = sum(prefixes.get(label[1:], 0) for label in labels.values())
    if overlaps != len(arcs):
        return f"{overlaps} overlapping pairs but {len(arcs)} arcs"
    return None
