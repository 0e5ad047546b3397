"""Command-line entry point: generation, labeling, lifting, verification,
search, isomorphism, sequencing, the ladder explorer, and the acceptance
suite.  Every verb is a thin adapter over the library; identical invocations
produce identical bytes.  The search, sequencing and acceptance modules are
imported by the verbs that run them, so the other verbs never load them."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .constructions import CONSTRUCTIONS
from .digraph import FAMILIES, format_digraph_text, isomorphic, parse_digraph_text, to_dot
from .errors import DnaGraphError, InvalidInputError, InvalidParameterError
from .labeling import (find_dna_violation, find_full_violation, find_quasi_violation,
                       format_labeling, parse_labeling)
from .lift import lift_m, lift_once

VERIFIERS = {"quasi": find_quasi_violation, "full": find_full_violation, "dna": find_dna_violation}


def _parse_file(parse, path: str):
    """parse applied to the file at path, a regular file or a pipe, streamed
    once: the first fault in read order is raised, and the read stops there.
    A byte that is not UTF-8 is met when the ~8 KiB chunk holding it is
    decoded, so its error names no position."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _emit(out, *writes) -> None:
    """Write fmt's text of values for each (path, fmt, *values) of writes, falsy ones skipped,
    to the file at path, or out if None; all files open first, a failure removes those it made."""
    writes, files, written = [w for w in writes if w], [], False
    try:
        for path, *_ in writes:
            try:
                files.append(out if path is None else open(path, "x", encoding="utf-8"))
            except FileExistsError:
                files.append(open(path, "a", encoding="utf-8"))
        for fh, (_, fmt, *values) in zip(files, writes):
            if fh is not out and fh.mode == "a" and os.path.isfile(fh.name):
                fh.truncate(0)  # an existing file, emptied only now; not /dev/null or a pipe
            fmt(*values, out=fh)
            fh.flush()  # before a later file, maybe this same one, is emptied
        written = True
    finally:
        for fh in files:
            if fh is not out:
                fh.close()
                if not written and fh.mode == "x":  # a file this call created
                    os.remove(fh.name)


def _load_pair(args):
    """The digraph and the labeling the files name; the labeling's keys are
    the digraph's own name strings."""
    d = _parse_file(parse_digraph_text, args.digraph)
    return d, _parse_file(functools.partial(parse_labeling, names=d.vertices), args.labeling)


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
    _emit(out, (args.out, format_digraph_text, d), args.dot and (args.dot, to_dot, d))
    return 0


def _cmd_label(args, out) -> int:
    result = _build(CONSTRUCTIONS, "construction", args)
    d, lab = result.digraph, result.labeling
    _emit(out, args.out_digraph and (args.out_digraph, format_digraph_text, d),
          args.dot and (args.dot, to_dot, d, lab), (args.out_labeling, format_labeling, lab))
    return 0


def _cmd_lift(args, out) -> int:
    d, lab = _load_pair(args)
    lifted, lifted_lab = lift_m(d, lab, args.m)
    _emit(out, args.out_digraph and (args.out_digraph, format_digraph_text, lifted),
          (args.out_labeling, format_labeling, lifted_lab))
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
    from .search import SAT, SearchConfig, find_labeling
    d = _parse_file(parse_digraph_text, args.digraph)
    # without --budget, SearchConfig's own default applies
    budget = {"node_budget": args.budget} if "budget" in args else {}
    cfg = SearchConfig(args.alpha, args.k, args.mode, **budget)
    outcome = find_labeling(d, cfg)
    if outcome.verdict == SAT and args.out_labeling:  # the file first, so a refusal prints nothing
        _emit(out, (args.out_labeling, format_labeling, outcome.certificate))
    out.write(f"{d.vertex_count} {args.alpha} {args.k} {outcome.verdict} {outcome.nodes_explored}\n")
    return 0


def _cmd_iso(args, out) -> int:
    a = _parse_file(parse_digraph_text, args.first)
    b = _parse_file(parse_digraph_text, args.second)
    result = isomorphic(a, b)
    out.write("isomorphic\n" if result else "not isomorphic\n")
    return 0 if result else 1


def _cmd_sequence(args, out) -> int:
    from .sequencing import (PATH_COUNT_CAP, count_eulerian_paths, eulerian_path,
                             hamiltonian_path, sample_pevzner_graph, spell_eulerian,
                             to_nucleotides)
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
    line, line_lab = lift_once(d, lab)
    merged = to_nucleotides(line_lab)
    report = ["vertices:\n", *(f"  {v}\t{names[v]}\n" for v in d.vertices), "arcs:\n",
              *(f"  {t} {h}\t{merged[w]}\n" for (t, h), w in zip(d.arcs, line.vertices))]
    path = eulerian_path(d, args.start)
    if path is None:
        out.write("".join(report) + "no eulerian path\n")
        return 1
    walks = hamiltonian_path(d, line, path)
    spectrum = merged[walks[0]] + "".join(merged[w][-1] for w in walks[1:])
    paths = count_eulerian_paths(d, path)
    bound = "at least " if paths >= PATH_COUNT_CAP else ""
    report += ["eulerian path: " + " ".join(f"{t}>{h}" for t, h in path) + "\n",
               "hamiltonian path: " + " ".join(walks) + "\n",
               f"spectrum (eulerian): {spell_eulerian(lab, path)}\n",
               f"spectrum (line digraph): {spectrum}\n",
               f"distinct eulerian paths from this start: {bound}{paths}\n"]
    _emit(out, args.dot and (args.dot, to_dot, line))  # the file first, so a refusal prints nothing
    out.write("".join(report))
    return 0


def _cmd_conjecture(args, out) -> int:
    from .search import explore_conjecture
    rows = explore_conjecture(range(args.n_min, args.n_max + 1))
    out.write(f"{'n':>3} {'alpha':>5} {'k':>3} {'verdict':<15} {'nodes':>10}\n")
    for row in rows:
        out.write(f"{row.n:>3} {row.alpha:>5} {row.k:>3} {row.verdict:<15} {row.nodes:>10}\n")
    return 0


def _cmd_acceptance(args, out) -> int:
    from . import acceptance
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
    sea.add_argument("--budget", type=int, default=argparse.SUPPRESS)
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
    """Run one verb; results go to out, each error as one line to err.  A
    reader that closes out early gets no error line and exit code 141."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, out)
        out.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early, so nothing is wrong
        if out is sys.stdout:
            # later writes to stdout, the flush at exit among them, go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed
    except (OSError, ValueError) as exc:  # bad input, InvalidInputError included
        err.write(f"error: {exc}\n")
        return 2
    except DnaGraphError as exc:  # a cap, or a library bug
        err.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
