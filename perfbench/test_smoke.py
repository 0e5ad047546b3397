"""Smoke tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, de_bruijn_problem, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _declared(section: str) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[section]]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_at_toy_size(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == _declared(section)


def test_same_seed_gives_same_inputs(tmp_path):
    for seed_dir in ("a", "b"):
        (tmp_path / seed_dir).mkdir()
        for workload in WORKLOADS:
            prepare(workload, 7, str(tmp_path / seed_dir), toy=True)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_checker_rejects_one_flipped_symbol(tmp_path):
    from dnagraph.cli import main as cli_main

    workload = prepare("lift-chain", 5, str(tmp_path), toy=True)
    lift = workload.calls[0]
    assert cli_main(lift.argv, None) == 0
    assert lift.check(0, "") is None
    out_d, out_l = lift.outputs
    lines = Path(out_l).read_text().splitlines()
    alpha, k = (int(x) for x in lines[0].split())
    name, symbols = lines[1].split("\t")
    flipped = symbols.split()
    flipped[1] = str(int(flipped[1]) % alpha + 1)  # breaks this vertex's in- and out-arcs
    lines[1] = name + "\t" + " ".join(flipped)
    Path(out_l).write_text("\n".join(lines) + "\n")
    vertices = workload.facts["lifted_vertices"]
    assert de_bruijn_problem(out_d, out_l, alpha, k, vertices) is not None
    assert lift.check(0, "") is not None


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "acceptance", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
