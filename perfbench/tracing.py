"""Per-layer spans and counts, taken from outside the program.

The source modules carry no instrumentation.  While a traced pass runs, the
public functions each verb calls are replaced, at their call sites in
dnagraph.cli, dnagraph.lift, dnagraph.search and dnagraph.acceptance, by
wrappers that time the call and count its work; the defining modules are
left alone, so a layer's calls into itself are not split into spans.

Each ``lift_once`` step is recorded and, after the pass, replayed through
the public calls it is made of (quasi check, line digraph, overlap merge,
Labeling construction, full check).  The replay must rebuild exactly what
``lift_once`` returned, so a faster replay cannot time a different program.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter

import dnagraph.acceptance
import dnagraph.cli
import dnagraph.constructions
import dnagraph.lift
import dnagraph.search
from dnagraph.digraph import line_digraph
from dnagraph.labeling import Labeling, find_full_violation, find_quasi_violation, overlap_merge

_REPLAY_SPANS = ("labeling.quasi_verify_s", "digraph.line_digraph_s", "labeling.merge_s",
                 "labeling.construct_s", "labeling.full_verify_s")


class Tracer:
    """Spans and counts of one traced pass; ``metrics()`` gives the per-layer values."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.steps: list[tuple] = []
        self.call = 0          # index of the CLI call running now
        self.mismatched: set[int] = set()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, metric: str, count=None):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.total[metric] += perf_counter() - start
            if count is not None:
                count(result, *args)
            return result
        return wrapper

    def _lift_once(self, fn):
        def wrapper(d, lab):
            start = perf_counter()
            lifted, lifted_lab = fn(d, lab)
            self.total["lift.step_s"] += perf_counter() - start
            self.total["lift.steps"] += 1
            self.steps.append((self.call, d, lab, lifted, lifted_lab))
            return lifted, lifted_lab
        return wrapper

    def _count_line(self, result, *args) -> None:
        self.total["digraph.line_vertices"] += result.vertex_count
        self.total["digraph.line_arcs"] += result.arc_count

    def _count_verified(self, result, d, *args) -> None:
        self.total["labeling.verified_vertices"] += d.vertex_count

    def _count_search(self, outcome, d, *args) -> None:
        self.total["search.nodes"] += outcome.nodes_explored
        if outcome.verdict == "SAT":
            self.total["search.sat_nodes"] += outcome.nodes_explored
            self.total["search.sat_vertices"] += d.vertex_count
        elif outcome.verdict == "UNSAT":
            self.total["search.unsat_nodes"] += outcome.nodes_explored

    def _count_fixture(self, result, *args) -> None:
        self.total["constructions.fixtures"] += 1

    def _wrappers(self):
        """(module, attribute) -> wrapper, for every call site that exists."""
        cli, lift, search, acc = (dnagraph.cli, dnagraph.lift, dnagraph.search,
                                  dnagraph.acceptance)
        table = {
            (cli, "parse_digraph_text"): ("digraph.parse_s", None),
            (cli, "parse_labeling"): ("labeling.parse_s", None),
            (cli, "format_digraph_text"): ("digraph.format_s", None),
            (cli, "format_labeling"): ("labeling.format_s", None),
            (cli, "find_full_violation"): ("labeling.full_verify_s", self._count_verified),
            (cli, "find_labeling"): ("search.s", self._count_search),
            (search, "find_labeling"): ("search.s", self._count_search),
            (acc, "find_labeling"): ("search.s", self._count_search),
            (acc, "line_digraph"): ("digraph.line_digraph_s", self._count_line),
            (acc, "verify_quasi"): ("labeling.quasi_verify_s", None),
            (acc, "verify_full"): ("labeling.full_verify_s", self._count_verified),
            (acc, "is_dna_certificate"): ("labeling.full_verify_s", self._count_verified),
        }
        for name, value in vars(dnagraph.constructions).items():
            if name.startswith("label_") and callable(value):
                table[(acc, name)] = ("constructions.build_s", self._count_fixture)
        out = {}
        for (module, name), (metric, count) in table.items():
            if hasattr(module, name):
                out[(module, name)] = self._timed(getattr(module, name), metric, count)
        for module in (lift, acc):
            if hasattr(module, "lift_once"):
                out[(module, "lift_once")] = self._lift_once(getattr(module, "lift_once"))
        return out

    def _criteria(self, criteria):
        return tuple(dataclasses.replace(c, run=self._timed(c.run, f"acceptance.{c.ident}_s"))
                     for c in criteria)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of one traced pass."""
        wrappers = self._wrappers()
        saved = [(module, name, getattr(module, name)) for module, name in wrappers]
        saved.append((dnagraph.acceptance, "CRITERIA", dnagraph.acceptance.CRITERIA))
        try:
            for (module, name), wrapper in wrappers.items():
                setattr(module, name, wrapper)
            dnagraph.acceptance.CRITERIA = self._criteria(dnagraph.acceptance.CRITERIA)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    # -- replay ------------------------------------------------------------

    def replay(self) -> None:
        """Re-run every recorded lift step through its public calls and time each."""
        total = self.total
        for call, d, lab, lifted, lifted_lab in self.steps:
            t0 = perf_counter()
            quasi = find_quasi_violation(d, lab)
            t1 = perf_counter()
            ld = line_digraph(d)
            t2 = perf_counter()
            assignment = {name: overlap_merge(lab.label_of(tail), lab.label_of(head))
                          for name, (tail, head) in zip(ld.vertices, d.arcs)}
            t3 = perf_counter()
            new_lab = Labeling(lab.alpha, lab.k + 1, assignment)
            t4 = perf_counter()
            full = find_full_violation(ld, new_lab)
            t5 = perf_counter()
            for metric, span in zip(_REPLAY_SPANS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                total[metric] += span
            total["lift.replayed_s"] += t5 - t0
            total["digraph.line_vertices"] += ld.vertex_count
            total["digraph.line_arcs"] += ld.arc_count
            total["labeling.verified_vertices"] += ld.vertex_count
            if quasi is not None or full is not None or ld != lifted or new_lab != lifted_lab:
                self.mismatched.add(call)
        self.steps.clear()

    def metrics(self, criteria) -> dict[str, float]:
        """Per-layer values of this pass (trace.overhead_s and cli.* are added by run.py)."""
        t = self.total
        out: dict[str, float] = {name: t[name] for name in (
            "digraph.line_digraph_s", "labeling.merge_s", "labeling.construct_s",
            "labeling.quasi_verify_s", "lift.step_s", "labeling.full_verify_s",
            "digraph.parse_s", "labeling.parse_s", "digraph.format_s", "labeling.format_s",
            "constructions.build_s")}
        out.update({name: int(t[name]) for name in (
            "digraph.line_vertices", "digraph.line_arcs", "lift.steps",
            "labeling.verified_vertices", "search.nodes", "search.sat_nodes",
            "search.unsat_nodes", "constructions.fixtures")})
        out["lift.replay_coverage"] = t["lift.replayed_s"] / t["lift.step_s"] if t["lift.step_s"] else 0.0
        out["search.nodes_per_s"] = t["search.nodes"] / t["search.s"] if t["search.s"] else 0.0
        out["search.useful_ratio"] = (t["search.sat_vertices"] / t["search.sat_nodes"]
                                      if t["search.sat_nodes"] else 0.0)
        for ident in criteria:
            out[f"acceptance.{ident}_s"] = t[f"acceptance.{ident}_s"]
        return out
