"""The benchmark's workloads: inputs made from a seed, one timed pass each,
and the correctness checks every pass must meet.

A workload is a closed loop with a single client: a pass starts only
after the previous one ends.  Every match builds its own `GraphOracle`,
so game caches start cold in each match, as they do for users.
"""

import copy
import csv
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# The acceptance sweep (tests/test_acceptance.py, SWEEP_CONFIG); seed 0
# reproduces it exactly.
SWEEP_CONFIG = {
    "generator": "grid",
    "variant": "weak",
    "robber": "haven",
    "horizon": 200,
    "visit_quota": 100,
    "seeds": [0],
    "sweep": {
        "k": [1, 2, 3],
        "s_c": [1, 2],
        "rho": [0, 1],
        "cops": [
            {"kind": "stationary"},
            {"kind": "greedy"},
            {"kind": "perimeter"},
            {"kind": "random", "seeds": [0, 1, 2, 3, 4]},
        ],
    },
}

# One large grid cell: R_0=153, R_N=285, s_r=163,021.  No random player,
# so it is the same for every seed.
DEEP_CONFIG = {
    "generator": "grid",
    "variant": "weak",
    "robber": "haven",
    "k": 5,
    "s_c": 3,
    "rho": 2,
    "horizon": 200,
    "visit_quota": 100,
    "seeds": [0],
    "sweep": {"cops": [{"kind": "greedy"}, {"kind": "perimeter"}]},
}

WORKLOADS = {
    "sweep": "the acceptance sweep on one worker: many short matches at small radii, "
    "where rule checks, trace writes, cop baselines and 96 precomputes take a visible share",
    "deep": "two long matches at k=5, s_c=3, rho=2, where ball materialisation and "
    "annulus_connect_radius dominate and trace I/O is about 0",
    "verify": "verify_trace_file over the sweep's 96 traces: trace parsing and rule "
    "replay, with no haven strategy and no precompute",
}


def sweep_config(seed: int) -> dict:
    """SWEEP_CONFIG with the five random-cop seeds shifted to 5*seed .. 5*seed+4."""
    cfg = copy.deepcopy(SWEEP_CONFIG)
    for entry in cfg["sweep"]["cops"]:
        if "seeds" in entry:
            entry["seeds"] = [5 * seed + i for i in range(5)]
    return cfg


@dataclass
class PassResult:
    wall_s: float
    rounds: int  # game rounds simulated or replayed
    samples_ms: list  # per match, or per verify_trace_file call
    attempted: int
    failed: int
    problems: list = field(default_factory=list)  # why the failures failed
    trace_bytes: int = 0
    path_slack: float = 0.0  # max over matches of max_path_len / s_r


def _digest(out_dir: Path) -> str:
    """sha256 over every output file except the wall-clock sidecar."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "timings.csv":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _row_problems(rows, horizon: int) -> list:
    bad = []
    for row in rows:
        if row["outcome"] != "robber_survives" or row["visits"] != horizon or row["error"]:
            bad.append(f"match {row['trace'] or row['cell']}: {row['outcome']} "
                       f"visits={row['visits']} {row['error']}".rstrip())
    return bad


def _path_slack(rows) -> float:
    return max(
        (int(r["max_path_len"]) / int(r["s_r"]) for r in rows if r["s_r"] not in ("", None)),
        default=0.0,
    )


class MatchWorkload:
    """`lab.run_experiment` on one config and one worker; a pass is one
    full experiment."""

    def __init__(self, lab, raw_config: dict, work_dir: Path):
        self.lab = lab
        self.config = lab.config_from_dict(raw_config)
        self.out_root = work_dir / "runs"
        self.expected = len(lab.expand_jobs(self.config))
        self._first_digest = None

    def run_pass(self) -> PassResult:
        lab = self.lab
        shutil.rmtree(self.out_root, ignore_errors=True)
        started = time.perf_counter()
        result = lab.run_experiment(self.config, output_root=self.out_root, workers=1)
        wall = time.perf_counter() - started

        rows = result.rows
        with open(result.out_dir / "timings.csv", encoding="utf-8", newline="") as fh:
            samples = [float(r["wall_ms"]) for r in csv.DictReader(fh)]
        bad_rows = _row_problems(rows, self.config.horizon)
        problems = []  # pass-level: each fails every match of the pass
        if result.exit_code != 0:
            problems.append(f"exit_code {result.exit_code}")
        if len(rows) != self.expected or len(samples) != self.expected:
            problems.append(f"{len(rows)} rows, {len(samples)} timings, expected {self.expected}")
        digest = _digest(result.out_dir)
        if self._first_digest is None:
            self._first_digest = digest
            for name, found in lab.verify_dir(result.out_dir).items():
                problems.extend(f"verify {name}: {p}" for p in found)
        elif digest != self._first_digest:
            problems.append("summary.csv or trace bytes differ from the first pass")
        attempted = max(len(rows), self.expected)
        return PassResult(
            wall_s=wall,
            rounds=sum(int(r["rounds"] or 0) for r in rows),
            samples_ms=samples,
            attempted=attempted,
            failed=attempted if problems else len(bad_rows),
            problems=bad_rows + problems,
            trace_bytes=sum(p.stat().st_size for p in result.out_dir.glob("*.jsonl")),
            path_slack=_path_slack(rows),
        )


class VerifyWorkload:
    """`lab.verify_trace_file` over the traces of the seed's sweep, which
    set-up produces; a pass verifies every trace once."""

    def __init__(self, lab, seed: int, work_dir: Path):
        self.lab = lab
        producer = MatchWorkload(lab, sweep_config(seed), work_dir)
        made = producer.run_pass()
        if made.failed:
            raise RuntimeError("set-up sweep failed: " + "; ".join(made.problems[:5]))
        trace_dir = producer.out_root / producer.config.config_hash()
        self.traces = sorted(trace_dir.glob("*.jsonl"))
        self.expected = producer.expected
        self.rounds = made.rounds
        self.trace_bytes = made.trace_bytes
        self.path_slack = made.path_slack

    def run_pass(self) -> PassResult:
        verify = self.lab.verify_trace_file
        samples = []
        problems = []
        failed = 0
        started = time.perf_counter()
        for path in self.traces:
            t0 = time.perf_counter()
            try:
                found = verify(path)
            except Exception as exc:  # a trace that cannot be read fails too
                found = [f"unreadable: {exc}"]
            samples.append((time.perf_counter() - t0) * 1000.0)
            if found:
                failed += 1
                problems.extend(f"verify {path.name}: {p}" for p in found)
        wall = time.perf_counter() - started
        if len(self.traces) != self.expected:
            problems.append(f"{len(self.traces)} traces, expected {self.expected}")
            failed = max(len(self.traces), self.expected)
        return PassResult(
            wall_s=wall,
            rounds=self.rounds,
            samples_ms=samples,
            attempted=max(len(self.traces), self.expected),
            failed=failed,
            problems=problems,
            trace_bytes=self.trace_bytes,
            path_slack=self.path_slack,
        )


def make_workload(lab, name: str, seed: int, work_dir: Path):
    if name == "sweep":
        return MatchWorkload(lab, sweep_config(seed), work_dir)
    if name == "deep":
        return MatchWorkload(lab, DEEP_CONFIG, work_dir)
    if name == "verify":
        return VerifyWorkload(lab, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
