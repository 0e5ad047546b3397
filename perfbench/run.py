"""Benchmark of the dnagraph CLI, driven in-process through ``dnagraph.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload lift-chain --seed 1 --seconds 35 --trace 0

One run writes the seeded inputs of one workload, then repeats passes of the
workload's CLI calls for --seconds, checking every output with the
benchmark's own checker.  With --trace 0 it reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  A human-readable summary comes first;
the last line of standard output is one JSON object.  Each run also writes
a result file under perfbench/out/results/ for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from io import StringIO
from pathlib import Path
from time import perf_counter

from compare import summary
from workloads import BUDGET, CRITERIA, VERBS, WORKLOADS, prepare, search_nodes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, used by the smoke tests")
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def run_call(cli_main, call) -> tuple[float, int | None, str]:
    out = StringIO()
    start = perf_counter()
    try:
        code = cli_main(call.argv, out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback from the program is a failed call, not a crash
        code = None
        out.write(traceback.format_exc(limit=2))
    return perf_counter() - start, code, out.getvalue()


def run_calls(workload, cli_main, tracer=None) -> list[tuple[float, int | None, str]]:
    """Run the workload's calls once, timing each."""
    workload.clear_outputs()
    gc.collect()
    raw = []
    for i, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.call = i
        raw.append(run_call(cli_main, call))
    return raw


def check_calls(workload, raw) -> list[dict]:
    """Check what each call of one pass produced."""
    records = []
    for call, (seconds, code, stdout) in zip(workload.calls, raw):
        if code is None:
            problem = "raised: " + stdout.strip().splitlines()[-1]
        else:
            problem = call.check(code, stdout)
        record = {"verb": call.verb, "s": seconds, "problem": problem}
        if call.verb == "search" and problem is None:
            record["nodes"] = search_nodes(stdout)
        records.append(record)
    return records


def run_pass(workload, cli_main, tracer=None) -> list[dict]:
    return check_calls(workload, run_calls(workload, cli_main, tracer))


def pass_seconds(records) -> float:
    return sum(r["s"] for r in records)


def verb_seconds(records, verb) -> float:
    return sum(r["s"] for r in records if r["verb"] == verb)


# ---------------------------------------------------------------------------
# probes: fresh processes for set-up time and peak memory
# ---------------------------------------------------------------------------

def probe(args, workdir: str) -> int:
    start = perf_counter()
    from dnagraph.cli import main as cli_main
    workload = prepare(args.workload, args.seed, workdir, args.toy)
    report = {"setup_s": perf_counter() - start, "calls": []}
    if args.probe == "rss":
        raw = run_calls(workload, cli_main)
        # read before the checks run, so the checker's memory is not counted
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["calls"] = check_calls(workload, raw)
    print(json.dumps(report))
    return 0


def run_probe(args, kind: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0"] + (["--toy"] if args.toy else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_passes(args, workload, cli_main, between=None):
    """Repeat passes for args.seconds; with tracing, each untraced pass is
    followed by a traced one and its lift replay.  between() runs after
    each pass, outside the timed calls."""
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    layers: list[dict] = []
    if args.trace:
        from tracing import Tracer
    deadline = perf_counter() + args.seconds
    while True:
        plain.append(run_pass(workload, cli_main))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                records = run_pass(workload, cli_main, tracer)
            tracer.replay()
            for i in tracer.mismatched:
                records[i]["problem"] = "lift replay differs from lift_once"
            traced.append(records)
            layers.append(tracer.metrics(CRITERIA))
        if between is not None:
            between()
        if perf_counter() >= deadline:
            return plain, traced, layers


def median_of(series):
    """Median; for counts, the lower middle value, so a count stays a whole number."""
    if all(isinstance(v, int) for v in series):
        return statistics.median_low(series)
    return statistics.median(series)


def print_summary(args, plain, calls, failed, verbs, pass_s) -> None:
    print(f"{args.workload} seed={args.seed} trace={args.trace} budget={BUDGET}: "
          f"{len(plain)} untraced passes, {len(calls)} calls, {failed} failed "
          f"(failed_ratio {failed / len(calls):.4f})")
    for verb, series in list(verbs.items()) + [("pass", pass_s)]:
        q1, q2, q3 = summary(series)
        line = f"  {verb + '_s':<14} median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
        if len(series) >= 100:  # ten samples beyond the 90th percentile
            line += f"  p90 {statistics.quantiles(series, n=10)[-1]:.4f}"
        print(line + f"  n={len(series)}")
    nodes = {sum(r.get("nodes", 0) for r in p) for p in plain}
    if any(nodes):
        print(f"  search nodes per pass: {sorted(nodes)}")
    for r in calls:
        if r["problem"] is not None:
            print(f"  FAILED {r['verb']}: {r['problem']}")
            break


def measure(args, workdir: str) -> dict:
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "budget": BUDGET,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    calls: list[dict] = []
    values: dict[str, float] = {}
    setups: list[float] = []
    if args.trace == 0:
        rss = run_probe(args, "rss")
        calls += rss["calls"]
        values["peak_rss_mb"] = rss["peak_rss_mb"]

    from dnagraph.cli import main as cli_main
    workload = prepare(args.workload, args.seed, workdir, args.toy)
    meta["facts"] = workload.facts
    start = perf_counter()

    def due_setup_probes() -> None:
        # spread over the run, so set-up is timed on the same machine state as the passes
        while (len(setups) < SETUP_PROBES
               and perf_counter() >= start + len(setups) * args.seconds / SETUP_PROBES):
            setups.append(run_probe(args, "setup")["setup_s"])

    plain, traced, layers = run_passes(args, workload, cli_main,
                                       due_setup_probes if args.trace == 0 else None)
    if args.trace == 0:
        setups += [run_probe(args, "setup")["setup_s"] for _ in range(SETUP_PROBES - len(setups))]
        values["setup_s"] = statistics.median(setups)
    calls += [r for p in plain + traced for r in p]
    failed = sum(1 for r in calls if r["problem"] is not None)
    pass_s = [pass_seconds(p) for p in plain]
    verbs = {verb: [verb_seconds(p, verb) for p in plain] for verb in VERBS
             if any(r["verb"] == verb for r in plain[0])}
    if args.trace == 0:
        values["pass_s"] = statistics.median(pass_s)
    else:
        for name in layers[0]:
            values[name] = median_of([layer[name] for layer in layers])
        values["trace.overhead_s"] = (statistics.median(pass_seconds(p) for p in traced)
                                      - statistics.median(pass_s))
        for verb in VERBS:
            values[f"cli.{verb}_s"] = statistics.median(verbs[verb]) if verb in verbs else 0.0
        values["cli.failed_ratio"] = failed / len(calls)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print_summary(args, plain, calls, failed, verbs, pass_s)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps({"meta": meta, "setup_s": setups, "pass_s": pass_s,
                                "verbs": verbs, "result": result}, indent=1))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dnagraph" / "cli.py").is_file():
        print(f"error: no dnagraph sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("DNAGRAPH_BUDGET", None)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.probe:
            return probe(args, workdir)
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
