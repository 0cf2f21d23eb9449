"""Batch experiment runner: sweeps, traces, summaries, ASCII snapshots.

One experiment = one declarative JSON config file.  Sweep axes (k, s_c,
rho, cop strategies) expand to cells in a fixed order, each cell runs once
per seed, and every match writes one JSONL trace into a directory named by
the config hash, with a CSV summary at the directory root.  Re-running the
same config reproduces every byte; wall-clock timings go to a separate
sidecar so they cannot spoil that guarantee.
"""

import csv
import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .baselines import BaselineCops, CopStrategyConfig
from .engine import negotiate, read_trace, replay_trace, run_match, write_trace
from .errors import (
    CoarseCopsError,
    ConfigError,
    IllegalMoveError,
    ImpossibleStateError,
    NegotiationError,
    NoThickEndWitnessError,
    BrokenWitnessError,
    SearchBudgetExceeded,
    UnsupportedGeneratorError,
)
from .generators import GENERATORS, make_generator
from .graphs import GraphOracle, Memo
from .haven import HavenRobber

ENV_OUTPUT_ROOT = "COARSECOPS_OUTPUT_ROOT"
ENV_WORKERS = "COARSECOPS_WORKERS"

_CSV_COLUMNS = (
    "cell",
    "seed",
    "config_hash",
    "generator",
    "variant",
    "k",
    "s_c",
    "rho",
    "cop_kind",
    "cop_seed",
    "robber",
    "outcome",
    "error",
    "rounds",
    "visits",
    "max_path_len",
    "R0",
    "s_r",
    "trace",
)


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str
    variant: str = "weak"
    k: int = 1
    s_c: int = 1
    rho: int = 1
    cops: dict = field(default_factory=lambda: {"kind": "stationary"})
    robber: str = "haven"
    horizon: int = 200
    visit_quota: int | None = None  # defaults to horizon // 2
    seeds: tuple = (0,)
    sweep: dict = field(default_factory=dict)
    output_root: str | None = None

    @property
    def quota(self) -> int:
        return self.visit_quota if self.visit_quota is not None else self.horizon // 2

    def canonical(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["visit_quota"] = self.quota
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; parse errors keep line diagnostics."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw, source=str(path))


# Lower bounds of the int settings; a swept k, s_c or rho has its field's bound.
_INT_MINIMA = {"k": 1, "s_c": 0, "rho": 0, "horizon": 1, "visit_quota": 1}


def _check_int(name: str, value, low: int | None = None) -> None:
    if type(value) is not int or (low is not None and value < low):
        bound = f" >= {low}" if low is not None else ""
        raise ConfigError(f"{name} must be an int{bound}, got {value!r}")


def _check_list(name: str, value) -> None:
    if type(value) is not list or not value:
        raise ConfigError(f"{name} must be a nonempty list, got {value!r}")


def _check_fields(raw: dict) -> None:
    """Types and ranges of the int, list and object fields present in `raw`
    and of every sweep value; bools and floats are not ints, and no
    top-level seed repeats.  Absent fields take the `ExperimentConfig`
    defaults, which need no check."""
    for name, low in _INT_MINIMA.items():
        if name in raw and (name != "visit_quota" or raw[name] is not None):
            _check_int(name, raw[name], low)
    if "seeds" in raw:
        _check_list("seeds", raw["seeds"])
        for seed in raw["seeds"]:
            _check_int("seed", seed)
        if len(set(raw["seeds"])) < len(raw["seeds"]):
            raise ConfigError(f"seeds must not repeat, got {raw['seeds']!r}")
    if "cops" in raw and type(raw["cops"]) is not dict:
        raise ConfigError(f"cops must be an object, got {raw['cops']!r}")
    if "sweep" in raw:
        sweep = raw["sweep"]
        if type(sweep) is not dict:
            raise ConfigError(f"sweep must be an object, got {sweep!r}")
        bad_axes = set(sweep) - {"k", "s_c", "rho", "cops"}
        if bad_axes:
            raise ConfigError(f"unknown sweep axes {sorted(bad_axes)}")
        for axis, values in sweep.items():
            _check_list(f"sweep axis {axis}", values)
            for value in values:
                if axis != "cops":
                    _check_int(f"sweep value of {axis}", value, _INT_MINIMA[axis])
                elif type(value) is not dict:
                    raise ConfigError(f"sweep cop entry must be an object, got {value!r}")
    root = raw.get("output_root")
    if root is not None and type(root) is not str:
        raise ConfigError(f"output_root must be a string, got {root!r}")


def config_from_dict(raw: dict, source: str = "<config>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    if "generator" not in raw:
        raise ConfigError(f"{source}: missing required key 'generator'")
    try:
        _check_fields(raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    cfg = ExperimentConfig(**raw)
    cfg = replace(cfg, cops=dict(cfg.cops), seeds=tuple(cfg.seeds), sweep=dict(cfg.sweep))
    if cfg.generator not in GENERATORS:
        raise ConfigError(f"{source}: unknown generator {cfg.generator!r}")
    if cfg.variant not in ("weak", "strong"):
        raise ConfigError(f"{source}: variant must be 'weak' or 'strong'")
    if cfg.robber != "haven":
        raise ConfigError(f"{source}: unknown robber strategy {cfg.robber!r}")
    if cfg.quota < 1:
        raise ConfigError(f"{source}: horizon 1 needs a visit_quota (horizon // 2 is 0)")
    g, _ = make_generator(cfg.generator)
    ks = cfg.sweep.get("k", [cfg.k])
    try:
        for entry in _expand_cop_axis([cfg.cops] + list(cfg.sweep.get("cops", []))):
            start = CopStrategyConfig.from_dict(entry, g).start
            if start is not None and any(len(start) != k for k in ks):
                raise ConfigError(f"{len(start)} start positions for k in {list(ks)}")
    except (ConfigError, ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: cop entry: {exc}") from exc
    return cfg


def _expand_cop_axis(entries) -> list[dict]:
    out = []
    for entry in entries:
        if "seeds" in entry:
            _check_list("cop seeds", entry["seeds"])
            base = {key: val for key, val in entry.items() if key != "seeds"}
            for s in entry["seeds"]:
                _check_int("cop seed", s)
                out.append({**base, "seed": s})
        else:
            out.append(dict(entry))
    return out


def expand_jobs(config: ExperimentConfig) -> list[dict]:
    """Deterministic, ordered expansion: (k, s_c, rho, cop) cells x seeds."""
    ks = config.sweep.get("k", [config.k])
    s_cs = config.sweep.get("s_c", [config.s_c])
    rhos = config.sweep.get("rho", [config.rho])
    cop_entries = _expand_cop_axis(config.sweep.get("cops", [config.cops]))
    jobs = []
    cells = itertools.product(ks, s_cs, rhos, cop_entries)
    for cell_index, (k, s_c, rho, cop_cfg) in enumerate(cells):
        for seed in config.seeds:
            jobs.append(
                {
                    "cell": cell_index,
                    "seed": seed,
                    "generator": config.generator,
                    "variant": config.variant,
                    "k": k,
                    "s_c": s_c,
                    "rho": rho,
                    "cops": dict(cop_cfg),
                    "robber": config.robber,
                    "horizon": config.horizon,
                    "visit_quota": config.quota,
                    "trace": f"match_{cell_index:04d}_s{seed}.jsonl",
                }
            )
    return jobs


# StrategyTables of the current run, keyed by (generator, k, s_c, rho);
# `run_experiment` empties it, so no run reuses another run's tables.
_TABLES_MEMO: dict = {}


def run_match_job(job: dict, out_dir: str) -> dict:
    """Run one match and return its summary row.

    Row `outcome` is the game outcome, or `precompute_failed` when the
    robber cannot even negotiate on this generator (e.g. no thick-end
    witness), or `aborted` on an illegal move / impossible-state
    assertion, or `error` on any other CoarseCopsError (e.g.
    SearchBudgetExceeded); `aborted` and `error` make the whole
    experiment exit 2, and the row keeps the summary complete.  The job's
    cop entry was already checked by `config_from_dict`, so a malformed
    cop setting cannot fail here mid-match.
    """
    row = dict.fromkeys(_CSV_COLUMNS, "")
    for key in ("cell", "seed", "generator", "variant", "k", "s_c", "rho", "robber"):
        row[key] = job[key]
    row["cop_kind"] = job["cops"].get("kind")
    row["cop_seed"] = job["cops"].get("seed", job["seed"])
    started = time.perf_counter()
    try:
        g, witness = make_generator(job["generator"])
        cop_cfg = CopStrategyConfig.from_dict(
            {**job["cops"], "seed": row["cop_seed"]}, g
        )
        cops = BaselineCops(g, cop_cfg, job["s_c"], job["rho"])
        robber = HavenRobber(g, witness, memo=_TABLES_MEMO)
        try:
            params = negotiate(
                job["variant"],
                cops.commit,
                robber.commit,
                k=job["k"],
                v0=g.origin,
                horizon=job["horizon"],
                visit_quota=job["visit_quota"],
            )
        except (NoThickEndWitnessError, BrokenWitnessError, NegotiationError) as exc:
            row["outcome"] = "precompute_failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row
        tables = robber.tables
        row["R0"] = tables.reach
        row["s_r"] = tables.s_r
        extras = {
            "cop_strategy": {"kind": cop_cfg.kind, "seed": cop_cfg.seed},
            "robber_strategy": job["robber"],
            "tables": {"radii": list(tables.radii), "n_annuli": tables.n_annuli},
        }
        outcome, trace = run_match(g, params, cops, robber, extras=extras)
        row["outcome"] = outcome["status"]
        row["rounds"] = outcome["round"]
        row["visits"] = outcome["visits"]
        row["max_path_len"] = max(len(r.robber_path) - 1 for r in trace.rounds)
        row["trace"] = job["trace"]
        write_trace(Path(out_dir) / job["trace"], g, trace)
    except (IllegalMoveError, ImpossibleStateError) as exc:
        row["outcome"] = "aborted"
        row["error"] = f"{type(exc).__name__}: {exc}"
    except CoarseCopsError as exc:
        row["outcome"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        row["wall_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return row


@dataclass
class ExperimentResult:
    out_dir: Path
    rows: list
    exit_code: int

    @property
    def csv_path(self) -> Path:
        return self.out_dir / "summary.csv"


def _resolve_output_root(config: ExperimentConfig, override) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get(ENV_OUTPUT_ROOT)
    if env:
        return Path(env)
    return Path(config.output_root or "runs")


def _resolve_workers(override) -> int:
    """`override`, else COARSECOPS_WORKERS, else the CPU count (at most 4);
    a given count must be an int >= 1."""
    if override is not None:
        _check_int("workers", override, 1)
        return override
    env = os.environ.get(ENV_WORKERS)
    if not env:
        return min(os.cpu_count() or 1, 4)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"{ENV_WORKERS} must be an int >= 1, got {env!r}")
    return int(env)


def run_experiment(
    config: ExperimentConfig, output_root=None, workers=None
) -> ExperimentResult:
    """Execute every sweep cell x seed; write traces, summary.csv, timings.csv.

    Exit code 0 unless some match aborted on an illegal move or an
    impossible-state assertion, or ended in another package error (then
    2).  The summary CSV is deterministic: rows in expansion order,
    timings kept out of it.
    """
    jobs = expand_jobs(config)
    n_workers = _resolve_workers(workers)
    out_dir = _resolve_output_root(config, output_root) / config.config_hash()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(config.canonical(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    _TABLES_MEMO.clear()  # pool workers start from this empty memo
    if n_workers > 1 and len(jobs) > 1:
        # Imported here so that one-worker runs, verify and replay never
        # load multiprocessing and pay its start-up time and memory.
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts every worker at the first submit: no more than jobs
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            rows = list(pool.map(run_match_job, jobs, itertools.repeat(str(out_dir))))
    else:
        rows = [run_match_job(job, str(out_dir)) for job in jobs]

    config_hash = config.config_hash()
    for row in rows:
        row["config_hash"] = config_hash
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=_CSV_COLUMNS, lineterminator="\n", extrasaction="ignore"
        )
        writer.writeheader()
        writer.writerows(rows)
    with open(out_dir / "timings.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "seed", "wall_ms"])
        for row in rows:
            writer.writerow([row["cell"], row["seed"], row["wall_ms"]])
    exit_code = 2 if any(row["outcome"] in ("aborted", "error") for row in rows) else 0
    return ExperimentResult(out_dir=out_dir, rows=rows, exit_code=exit_code)


# -- trace verification -------------------------------------------------------


def haven_path_checks(g: GraphOracle, header: dict, rounds: list[dict]) -> list[str]:
    """Strategy-level path contracts, checkable from the trace alone:
    simple paths that never leave B(R_N, v0).  A haven trace must carry
    the `tables` these checks read.  Each distinct recorded path, keyed by
    the tuple of its strings, is checked once per call; its problems are
    reported on every round that recorded it, in round order."""
    tables = header.get("tables")
    if not tables:
        if header.get("robber_strategy") == "haven":
            return ["haven trace has no tables: its path contracts cannot be checked"]
        return []
    v0 = g.decode(header["v0"])
    containment = tables["radii"][-1]

    def contract_problems(strings: tuple) -> list[str]:
        path = list(map(g.decode, strings))
        found = []
        if len(set(path)) != len(path):
            found.append("robber path is not simple")
        for v in path:
            if g.distance(v0, v) > containment:
                found.append(f"{v!r} outside B({containment}, v0)")
                break
        return found

    checked = Memo(contract_problems)
    problems = []
    for rec in rounds:
        for problem in checked[tuple(rec["robber_path"])]:
            problems.append(f"round {rec['round']}: {problem}")
    return problems


def verify_trace_file(path) -> list[str]:
    """Legality replay plus strategy path contracts, both on one oracle of
    the trace's generator; a broken trace is one problem, and so is one
    whose replay asks for a ball or sphere past the oracle's search budget
    (an over-budget rho, say)."""
    try:
        header, rounds, outcome = read_trace(path)
        g, _ = make_generator(header["generator"])
        return replay_trace(g, header, rounds, outcome) + haven_path_checks(g, header, rounds)
    except (
        AttributeError,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
        UnsupportedGeneratorError,
    ) as exc:
        return [f"malformed trace: {type(exc).__name__}: {exc}"]
    except SearchBudgetExceeded as exc:
        return [f"unverifiable: SearchBudgetExceeded: {exc}"]


def verify_dir(trace_dir) -> dict:
    """Verify every *.jsonl under a directory; {filename: problems}."""
    trace_dir = Path(trace_dir)
    results = {}
    for path in sorted(trace_dir.glob("*.jsonl")):
        try:
            results[path.name] = verify_trace_file(path)
        except Exception as exc:  # unreadable/corrupt file is a failure too
            results[path.name] = [f"unreadable: {exc}"]
    return results


# -- ASCII rendering ----------------------------------------------------------


def render_snapshot(
    g: GraphOracle, header: dict, rounds: list[dict], round_index: int, window
) -> str:
    """Character-grid picture of one round of a grid trace, read on the
    grid oracle `g`.

    Legend: 'O' the fixed center v0, '+' the boundary sphere S(R, v0),
    'C' cops, 'R' the robber ('X' when that round captured it), '.'
    background.  `window` is (x0, y0, x1, y1) inclusive; the y axis points
    up.  Pieces outside the window are simply not shown.
    """
    if header["generator"] != "grid":
        raise UnsupportedGeneratorError("snapshots are only defined for grid traces")
    by_round = {rec["round"]: rec for rec in rounds}
    if round_index not in by_round:
        raise ValueError(
            f"round {round_index} out of range 0..{max(by_round)} for this trace"
        )
    rec = by_round[round_index]
    v0 = g.decode(header["v0"])
    reach = header["R"]
    x0, y0, x1, y1 = window
    if x0 > x1 or y0 > y1:
        raise ValueError(f"degenerate window {window!r}")

    cops = set(map(g.decode, rec["cops"]))
    path = list(map(g.decode, rec["robber_path"]))
    robber = path[-1]
    robber_glyph = "X" if rec["status"] == "captured" else "R"

    lines = []
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            v = (x, y)
            if v == robber:
                row.append(robber_glyph)
            elif v in cops:
                row.append("C")
            elif v == v0:
                row.append("O")
            elif g.distance(v0, v) == reach:
                row.append("+")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines)
