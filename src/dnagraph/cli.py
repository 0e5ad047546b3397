"""Command-line entry point: generation, labeling, lifting, verification,
search, isomorphism, sequencing, the ladder explorer, and the acceptance
suite.  Every verb is a thin adapter over the library; identical invocations
produce identical bytes."""

from __future__ import annotations

import argparse
import functools
import sys

from . import acceptance
from .constructions import CONSTRUCTIONS
from .digraph import FAMILIES, format_digraph_text, isomorphic, parse_digraph_text, to_dot
from .errors import DnaGraphError, InvalidParameterError
from .labeling import (find_dna_violation, find_full_violation, find_quasi_violation,
                       format_labeling, parse_labeling)
from .lift import lift_m
from .search import DEFAULT_NODE_BUDGET, SAT, SearchConfig, explore_conjecture, find_labeling
from .sequencing import (PATH_COUNT_CAP, count_eulerian_paths, eulerian_path, hamiltonian_path,
                         pevzner_arc_labels, sample_pevzner_graph, spell_eulerian, to_nucleotides)

VERIFIERS = {"quasi": find_quasi_violation, "full": find_full_violation, "dna": find_dna_violation}


def _parse_file(parse, path: str):
    """parse applied to the file at path, streamed if the file can seek."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.seekable():  # a pipe cannot be read a second time
            try:
                return parse(fh)
            except ValueError:
                # a streamed read can meet a bad line before a bad byte, and
                # counts a bad byte's position within its chunk: the whole
                # text gives the error a whole-file read reports
                fh.seek(0)
        return parse(fh.read())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(fmt, value, path: str | None, out) -> None:
    """fmt's text of value, written to the file at path, or else to out."""
    if path is None:
        return fmt(value, out)
    with open(path, "w", encoding="utf-8") as fh:
        fmt(value, fh)


def _load_pair(args):
    return (_parse_file(parse_digraph_text, args.digraph),
            _parse_file(parse_labeling, args.labeling))


def _build(table: dict, flag: str, args):
    """Call the table entry args.<flag> names with the parameters it needs."""
    name = getattr(args, flag)
    required, make = table[name]
    missing = [p for p in required if getattr(args, p) is None]
    if missing:
        raise InvalidParameterError(f"--{flag} {name} needs --" + " --".join(missing))
    return make(*(getattr(args, p) for p in required))


def _cmd_gen(args, out) -> int:
    d = _build(FAMILIES, "family", args)
    _emit(format_digraph_text, d, args.out, out)
    if args.dot:
        _write(args.dot, to_dot(d))
    return 0


def _cmd_label(args, out) -> int:
    result = _build(CONSTRUCTIONS, "construction", args)
    if args.out_digraph:
        _emit(format_digraph_text, result.digraph, args.out_digraph, out)
    if args.dot:
        _write(args.dot, to_dot(result.digraph, result.labeling))
    _emit(format_labeling, result.labeling, args.out_labeling, out)
    return 0


def _cmd_lift(args, out) -> int:
    d, lab = _load_pair(args)
    res = lift_m(d, lab, args.m)
    if args.out_digraph:
        _emit(format_digraph_text, res.result_digraph, args.out_digraph, out)
    _emit(format_labeling, res.result_labeling, args.out_labeling, out)
    return 0


def _cmd_verify(args, out) -> int:
    d, lab = _load_pair(args)
    bad = VERIFIERS[args.mode](d, lab)
    if bad is None:
        out.write(f"ok: labeling is {args.mode}-valid\n")
        return 0
    out.write(f"violation: {bad}\n")
    return 1


def _cmd_search(args, out) -> int:
    d = _parse_file(parse_digraph_text, args.digraph)
    cfg = SearchConfig(args.alpha, args.k, args.mode, args.budget)
    outcome = find_labeling(d, cfg)
    out.write(f"{d.vertex_count} {args.alpha} {args.k} {outcome.verdict} {outcome.nodes_explored}\n")
    if outcome.verdict == SAT and args.out_labeling:
        _emit(format_labeling, outcome.certificate, args.out_labeling, out)
    return 0


def _cmd_iso(args, out) -> int:
    a = _parse_file(parse_digraph_text, args.first)
    b = _parse_file(parse_digraph_text, args.second)
    result = isomorphic(a, b)
    out.write("isomorphic\n" if result else "not isomorphic\n")
    return 0 if result else 1


def _cmd_sequence(args, out) -> int:
    if args.demo:
        d, lab = sample_pevzner_graph()
    else:
        if not (args.digraph and args.labeling):
            raise InvalidParameterError("sequence needs --demo or both --digraph and --labeling")
        d, lab = _load_pair(args)
    if args.start is not None and args.start not in d.vertices:
        raise InvalidParameterError(f"start vertex {args.start} is not in the digraph")
    # these raise on bad input, so they run before anything is written
    names = to_nucleotides(lab)
    line, line_lab = pevzner_arc_labels(d, lab)
    merged = to_nucleotides(line_lab)
    out.write("vertices:\n")
    for v in d.vertices:
        out.write(f"  {v}\t{names[v]}\n")
    out.write("arcs:\n")
    for (tail, head), walk in zip(d.arcs, line.vertices):
        out.write(f"  {tail} {head}\t{merged[walk]}\n")
    path = eulerian_path(d, args.start)
    if path is None:
        out.write("no eulerian path\n")
        return 1
    out.write("eulerian path: " + " ".join(f"{t}>{h}" for t, h in path) + "\n")
    walks = hamiltonian_path(d, line, path)
    out.write("hamiltonian path: " + " ".join(walks) + "\n")
    out.write(f"spectrum (eulerian): {spell_eulerian(lab, path)}\n")
    spectrum = merged[walks[0]] + "".join(merged[w][-1] for w in walks[1:])
    out.write(f"spectrum (line digraph): {spectrum}\n")
    paths = count_eulerian_paths(d, path)
    bound = "at least " if paths >= PATH_COUNT_CAP else ""
    out.write(f"distinct eulerian paths from this start: {bound}{paths}\n")
    if args.dot:
        _write(args.dot, to_dot(line))
    return 0


def _cmd_conjecture(args, out) -> int:
    rows = explore_conjecture(range(args.n_min, args.n_max + 1))
    out.write(f"{'n':>3} {'alpha':>5} {'k':>3} {'verdict':<15} {'nodes':>10}\n")
    for row in rows:
        out.write(f"{row.n:>3} {row.alpha:>5} {row.k:>3} {row.verdict:<15} {row.nodes:>10}\n")
    return 0


def _cmd_acceptance(args, out) -> int:
    ok = acceptance.run_all(write=lambda line: out.write(line + "\n"), only=args.only)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnagraph",
        description="construct, label, lift, verify, and search DNA-graph families",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a digraph family member")
    gen.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in ("n", "p", "q"):
        gen.add_argument(f"--{name}", type=int)
    gen.add_argument("--out", help="write digraph text here instead of stdout")
    gen.add_argument("--dot", help="also write a DOT rendering")
    gen.set_defaults(func=_cmd_gen)

    lab = sub.add_parser("label", help="emit a catalogued quasi-labeling")
    lab.add_argument("--construction", required=True, choices=sorted(CONSTRUCTIONS))
    for name in ("n", "p", "q"):
        lab.add_argument(f"--{name}", type=int)
    lab.add_argument("--out-digraph")
    lab.add_argument("--out-labeling")
    lab.add_argument("--dot")
    lab.set_defaults(func=_cmd_label)

    lift = sub.add_parser("lift", help="lift a quasi-labeling through line digraphs")
    lift.add_argument("--m", type=int, required=True)
    lift.add_argument("--digraph", required=True)
    lift.add_argument("--labeling", required=True)
    lift.add_argument("--out-digraph")
    lift.add_argument("--out-labeling")
    lift.set_defaults(func=_cmd_lift)

    ver = sub.add_parser("verify", help="verify a labeling against a digraph")
    ver.add_argument("--mode", choices=tuple(VERIFIERS), default="quasi")
    ver.add_argument("--digraph", required=True)
    ver.add_argument("--labeling", required=True)
    ver.set_defaults(func=_cmd_verify)

    sea = sub.add_parser("search", help="backtracking labeling oracle")
    sea.add_argument("--alpha", type=int, required=True)
    sea.add_argument("--k", type=int, required=True)
    sea.add_argument("--mode", choices=("quasi", "full"), default="quasi")
    sea.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    sea.add_argument("--digraph", required=True)
    sea.add_argument("--out-labeling")
    sea.set_defaults(func=_cmd_search)

    iso = sub.add_parser("iso", help="decide digraph isomorphism")
    iso.add_argument("--first", required=True)
    iso.add_argument("--second", required=True)
    iso.set_defaults(func=_cmd_iso)

    seq = sub.add_parser("sequence", help="spell the spectrum of a labeled digraph")
    seq.add_argument("--digraph")
    seq.add_argument("--labeling")
    seq.add_argument("--start")
    seq.add_argument("--dot")
    seq.add_argument("--demo", action="store_true", help="use the bundled TACGACTA instance")
    seq.set_defaults(func=_cmd_sequence)

    con = sub.add_parser("conjecture", help="settle ladders for full labelings")
    con.add_argument("--n-min", type=int, default=2)
    con.add_argument("--n-max", type=int, default=6)
    con.set_defaults(func=_cmd_conjecture)

    acc = sub.add_parser("acceptance", help="run the acceptance suite")
    acc.add_argument("--only", help="run a single criterion by identifier")
    acc.set_defaults(func=_cmd_acceptance)

    return parser


def main(argv=None, out=None, err=None) -> int:
    """Run one verb; results go to out, each error as one line to err."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except (OSError, ValueError) as exc:  # bad input, InvalidInputError included
        err.write(f"error: {exc}\n")
        return 2
    except DnaGraphError as exc:  # a cap, or a library bug
        err.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
