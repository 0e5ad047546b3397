"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by run.py (one per run).  For
every (workload, metric) pair the script prints each set's median, first
and third quartile and run count.  With two sets it flags an end-to-end
metric whose median got worse by more than its bound in BENCHMARK.json as
REGRESSED, and as unresolved where either set's quartile spread is wider
than the bound.  It exits 1 if any pair regressed.  With one set it prints
the spread, as a share of the median, that the bounds are checked against.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per result file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        workload = data["meta"]["workload"]
        for name, metric in data["result"]["metrics"].items():
            values[(workload, name)].append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [load(d) for d in argv]
    keys = sorted(set().union(*sets), key=lambda k: (k[0], k[1] not in bounds, k[1]))
    regressed = 0
    for workload, name in keys:
        cells = []
        for values in sets:
            got = values.get((workload, name))
            if got:
                q1, median, q3 = summary(got)
                cells.append(f"{median:12.5g} [{q1:.5g}, {q3:.5g}] n={len(got)}")
            else:
                cells.append(f"{'-':>12}")
        line = f"{workload:<14} {name:<34} " + "   ".join(cells)
        bound = bounds.get(name)
        base = sets[0].get((workload, name))
        new = sets[-1].get((workload, name))
        if len(sets) == 1 and base:
            line += f"   spread {spread(base):.3f}" + (f" (bound {bound})" if bound else "")
        elif bound is not None and base and new:
            old_m, new_m = summary(base)[1], summary(new)[1]
            lower = declared[name]["better"] == "lower"
            worse = (new_m - old_m if lower else old_m - new_m) / old_m
            if worse > bound:
                line += f"   REGRESSED {worse:+.1%} > {bound:.0%}"
                regressed += 1
            elif max(spread(base), spread(new)) > bound:
                line += f"   unresolved (spread > {bound:.0%})"
            else:
                line += f"   ok {worse:+.1%}"
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
