"""Checks of the benchmark itself; the package's own suite is under tests/.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests start the benchmark the way users do, two runs per
workload, and take about a minute and a half together.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, MatchWorkload, sweep_config  # noqa: E402

from coarsecops import engine, generators, graphs, haven, lab  # noqa: E402


def _acceptance_sweep_config() -> dict:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "SWEEP_CONFIG" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("SWEEP_CONFIG not found in tests/test_acceptance.py")


def test_default_seed_reproduces_the_acceptance_sweep():
    assert sweep_config(0) == _acceptance_sweep_config()


def test_seed_shifts_only_the_random_cop_seeds():
    base, shifted = sweep_config(0), sweep_config(3)
    random_seeds = [e["seeds"] for e in shifted["sweep"]["cops"] if "seeds" in e]
    assert random_seeds == [[15, 16, 17, 18, 19]]
    for cfg in (base, shifted):
        for entry in cfg["sweep"]["cops"]:
            entry.pop("seeds", None)
    assert base == shifted


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER


def test_tail_leaves_ten_samples_beyond():
    assert measure.tail(range(100)) == (89, 90.0, 10)
    assert measure.tail(range(8)) == (5, 75.0, 2)


def test_install_wraps_every_namespace_and_uninstall_restores_them():
    namespaces = (engine, generators, graphs, haven, lab, graphs.GraphOracle)
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = Tracer()
    tracer.install()
    try:
        assert haven.annulus_connect_radius is graphs.annulus_connect_radius
        assert lab.run_match is engine.run_match
        assert lab.make_generator is generators.make_generator
        assert hasattr(haven.annulus_connect_radius, "__wrapped__")
    finally:
        tracer.uninstall()
    assert [dict(vars(ns)) for ns in namespaces] == before


def test_a_lost_wrapper_fails_the_span_check(tmp_path):
    small = {"generator": "grid", "k": 1, "s_c": 1, "rho": 1, "horizon": 20,
             "cops": {"kind": "greedy"}}
    workload = MatchWorkload(lab, small, tmp_path)
    assert workload.run_pass().failed == 0
    flagged = {}
    for lose_one in (False, True):
        tracer = Tracer()
        tracer.install()
        try:
            if lose_one:  # haven keeps calling the original it imported by name
                haven.annulus_connect_radius = graphs.annulus_connect_radius.__wrapped__
            assert workload.run_pass().failed == 0
        finally:
            tracer.uninstall()
        flagged[lose_one] = set(measure.span_problems("sweep", [tracer.snapshot()]))
    assert haven.annulus_connect_radius is graphs.annulus_connect_radius
    assert flagged[True] - flagged[False] == {
        "span graphs.annulus_connect_radius recorded no call; its wrapper was not reached"
    }


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_counts(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {m: result["metrics"][m]["value"] for m in measure.DETERMINISTIC}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_fixed_seed(name):
    first = _traced_counts(name, seed=2)
    assert first["generators.neighbors.calls"] > 0
    assert _traced_counts(name, seed=2) == first
