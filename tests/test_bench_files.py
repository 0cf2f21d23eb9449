"""Format of the committed benchmark deltas (`BENCH_*.json` at the repo root).

A speed claim rests on one of these files, so each must parse and carry
the parent-against-change record the claim is read from.  Only the JSON
files are read; no benchmark is run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_format(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"what", "machine", "claim", "holdout", "summary", "runs"} <= set(bench)
    assert set(bench["summary"]) == WORKLOADS
    assert bench["runs"]
    for run in bench["runs"]:
        assert {"pair", "side", "workload", "result"} <= set(run), run
        assert run["side"] in ("parent", "change"), run["side"]
        assert run["workload"] in WORKLOADS, run["workload"]
