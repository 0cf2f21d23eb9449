"""Experiment runner: configs, sweeps, determinism, verification, rendering."""

import collections
import csv
import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coarsecops import (
    ConfigError,
    UnsupportedGeneratorError,
    make_generator,
    negotiate,
    read_trace,
    render_snapshot,
    run_match,
    verify_dir,
    verify_trace_file,
    write_trace,
)
from coarsecops.engine import trace_lines
from coarsecops.lab import (
    ExperimentConfig,
    config_from_dict,
    expand_jobs,
    load_config,
    run_experiment,
)
import coarsecops.generators as generators_mod
import coarsecops.haven as haven_mod
import coarsecops.lab as lab_mod
from coarsecops import cli
from coarsecops.graphs import GraphOracle


BASE = {
    "generator": "grid",
    "k": 1,
    "s_c": 1,
    "rho": 1,
    "cops": {"kind": "greedy"},
    "horizon": 12,
    "seeds": [0],
}


# -- config --------------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(BASE))
    cfg = load_config(path)
    assert cfg.generator == "grid" and cfg.horizon == 12
    assert cfg.quota == 6  # defaults to horizon // 2


def test_load_config_parse_error_has_line_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "generator": "grid",\n  oops\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "patch",
    [
        {"generator": "moebius"},
        {"robber": "psychic"},
        {"cops": {"kind": "swat"}},
        {"sweep": {"speed": [1]}},
        {"horizon": 0},
        {"seeds": []},
        {"variant": "medium"},
        {"typo_key": 1},
    ],
)
def test_config_validation_rejects(patch):
    with pytest.raises(ConfigError):
        config_from_dict({**BASE, **patch})


def test_config_defaults_come_from_the_dataclass():
    assert config_from_dict({"generator": "grid"}) == ExperimentConfig(generator="grid")



# Cop entries that used to pass loading and then crash the run with a raw
# ValueError before summary.csv was written.
BAD_COP_ENTRIES = {
    "random-seed-not-int": {"cops": {"kind": "random", "seed": "z"}},
    "seeds-not-ints": {"sweep": {"cops": [{"kind": "random", "seeds": "ab"}]}},
    "negative-perimeter-radius": {"cops": {"kind": "perimeter", "perimeter_radius": -3}},
    "undecodable-start": {"cops": {"kind": "stationary", "start": ["bogus"]}},
    "start-count-not-k": {
        "cops": {"kind": "stationary", "start": ["(1,1)"]},
        "sweep": {"k": [1, 2]},
    },
    # an unknown key entered the config hash while the run ignored it
    "unknown-key": {"cops": {"kind": "perimeter", "perimiter_radius": 3}},
    "unknown-key-in-sweep": {
        "sweep": {"cops": [{"kind": "perimeter", "perimiter_radius": 3}]}
    },
    # a start entry must be an encoded vertex: 5 crashed the grid decoder
    # mid-run, and true on the line was silently read as vertex 1
    "start-not-a-string": {"cops": {"kind": "stationary", "start": [5]}},
    "start-bool": {"generator": "line", "cops": {"kind": "stationary", "start": [True]}},
    # a spelling of (0,0) that `encode` never writes was read as (0,0)
    "start-not-canonical": {"cops": {"kind": "stationary", "start": ["(0, 0)"]}},
    # a start that is not a list was iterated: an object by its keys, a
    # string character by character (cops at 1 and 2 on the line)
    "start-an-object": {"cops": {"kind": "stationary", "start": {"(3,3)": 1}}},
    "start-a-string": {
        "generator": "line",
        "k": 2,
        "cops": {"kind": "stationary", "start": "12"},
    },
}


def assert_config_error_everywhere(raw, tmp_path, capsys):
    """`config_from_dict` refuses `raw`, and `coarsecops run` exits 1 with a
    config error, no traceback and no output directory."""
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--output-root", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", list(BAD_COP_ENTRIES))
def test_bad_cop_entry_is_a_config_error(name, tmp_path, capsys):
    assert_config_error_everywhere({**BASE, **BAD_COP_ENTRIES[name]}, tmp_path, capsys)


# Field values that used to escape as a raw TypeError/ValueError, run a
# rounded or coerced setting, or fail only as a precompute_failed row.
BAD_VALUES = {
    "quota-not-int": {"visit_quota": "abc"},
    "quota-zero": {"visit_quota": 0},
    "k-not-int": {"k": "x"},
    "k-bool": {"k": True},
    "swept-k-float": {"sweep": {"k": [1.5]}},
    "swept-k-string": {"sweep": {"k": "12"}},
    "swept-s_c-not-int": {"sweep": {"s_c": ["x"]}},
    "seed-float": {"seeds": [1.7]},
    "seeds-repeated": {"seeds": [3, 3]},
    "cops-not-object": {"cops": 3},
    "horizon-one-without-quota": {"horizon": 1},
    "output-root-not-a-string": {"output_root": 5},
    "sweep-cop-entry-not-object": {"sweep": {"cops": [3]}},
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_malformed_value_is_a_config_error(name, tmp_path, capsys):
    assert_config_error_everywhere({**BASE, **BAD_VALUES[name]}, tmp_path, capsys)


@pytest.mark.parametrize(
    "raw",
    [[BASE], {key: value for key, value in BASE.items() if key != "generator"}],
    ids=["top-level-a-list", "no-generator"],
)
def test_config_shape_is_a_config_error(raw, tmp_path, capsys):
    assert_config_error_everywhere(raw, tmp_path, capsys)


# Config fuzzing: a config of in-range values with up to two keys
# overwritten by arbitrary JSON-like values.
_SMALL = st.integers(0, 3)
_POSITIVE = st.integers(1, 3)
_PLAUSIBLE = {
    "variant": st.sampled_from(["weak", "strong"]),
    "k": _POSITIVE,
    "s_c": _SMALL,
    "rho": _SMALL,
    "cops": st.fixed_dictionaries(
        {"kind": st.sampled_from(["stationary", "greedy", "perimeter", "random"])},
        optional={"seeds": st.lists(_SMALL, min_size=1, max_size=2)},
    ),
    "robber": st.just("haven"),
    "horizon": st.integers(2, 4),
    "visit_quota": st.one_of(st.none(), _POSITIVE),
    "seeds": st.lists(_SMALL, min_size=1, max_size=3),
    "sweep": st.dictionaries(
        st.sampled_from(["s_c", "rho"]), st.lists(_SMALL, min_size=1, max_size=3), max_size=2
    ),
}
_JUNK_SCALARS = st.one_of(
    st.integers(-2, 4),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.sampled_from(["grid", "weak", "haven", "greedy", "(1,1)", "12"]),
)
_JUNK = st.one_of(
    _JUNK_SCALARS,
    st.lists(_JUNK_SCALARS, max_size=3),
    st.recursive(
        _JUNK_SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(
                st.sampled_from(["k", "s_c", "rho", "cops", "kind", "seed", "seeds"]),
                inner,
                max_size=3,
            ),
        ),
        max_leaves=6,
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries({"generator": st.just("grid")}, optional=_PLAUSIBLE),
    st.dictionaries(st.sampled_from(sorted(lab_mod._CONFIG_KEYS)), _JUNK, max_size=2),
)
def test_config_loading_fuzz(plausible, junk):
    try:
        cfg = config_from_dict({**plausible, **junk})
    except ConfigError:
        return
    jobs = expand_jobs(cfg)
    assert jobs
    minima = {"k": 1, "s_c": 0, "rho": 0, "seed": None, "horizon": 1, "visit_quota": 1}
    for job in jobs:
        for key, low in minima.items():
            assert type(job[key]) is int, (key, job[key])
            assert low is None or job[key] >= low, (key, job[key])
    cfg.config_hash()


def test_sweep_expansion_counts_and_order():
    cfg = config_from_dict(
        {
            **BASE,
            "sweep": {
                "k": [1, 2],
                "cops": [{"kind": "greedy"}, {"kind": "random", "seeds": [7, 8, 9]}],
            },
        }
    )
    jobs = expand_jobs(cfg)
    assert len(jobs) == 8  # 2 k-values x (1 greedy + 3 seeded random)
    assert [j["cell"] for j in jobs] == list(range(8))
    assert [j["k"] for j in jobs] == [1, 1, 1, 1, 2, 2, 2, 2]
    kinds = [(j["cops"]["kind"], j["cops"].get("seed")) for j in jobs[:4]]
    assert kinds == [("greedy", None), ("random", 7), ("random", 8), ("random", 9)]


def test_seeds_cross_every_cell():
    cfg = config_from_dict({**BASE, "seeds": [3, 4], "sweep": {"rho": [0, 1]}})
    jobs = expand_jobs(cfg)
    assert [(j["cell"], j["seed"]) for j in jobs] == [(0, 3), (0, 4), (1, 3), (1, 4)]


# -- running --------------------------------------------------------------------


def test_run_experiment_writes_everything(tmp_path):
    cfg = config_from_dict(BASE)
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    assert res.exit_code == 0
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row["outcome"] == "robber_survives"
    assert row["visits"] == 12
    assert row["R0"] == 7 and row["s_r"] == 761
    assert (res.out_dir / row["trace"]).exists()
    assert (res.out_dir / "config.json").exists()
    assert (res.out_dir / "timings.csv").exists()
    with open(res.csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["outcome"] == "robber_survives"
    assert rows[0]["config_hash"] == cfg.config_hash()
    assert "wall_ms" not in rows[0]  # timings live in the sidecar


def test_summary_header_is_the_csv_columns(tmp_path):
    res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
    header = res.csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(lab_mod._CSV_COLUMNS)


def test_rerun_is_byte_identical(tmp_path):
    cfg = config_from_dict({**BASE, "sweep": {"rho": [0, 1]}, "seeds": [0, 1]})

    def snapshot(root):
        res = run_experiment(cfg, output_root=root, workers=1)
        files = {
            p.name: p.read_bytes()
            for p in sorted(res.out_dir.iterdir())
            if p.name != "timings.csv"
        }
        return files

    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")


def test_worker_pool_matches_sequential(tmp_path):
    cfg = config_from_dict({**BASE, "sweep": {"k": [1, 2]}})
    seq = run_experiment(cfg, output_root=tmp_path / "s", workers=1)
    par = run_experiment(cfg, output_root=tmp_path / "p", workers=2)
    assert seq.csv_path.read_bytes() == par.csv_path.read_bytes()
    for row in seq.rows:
        a = (seq.out_dir / row["trace"]).read_bytes()
        b = (par.out_dir / row["trace"]).read_bytes()
        assert a == b


def test_pool_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # A fork pool starts all its workers at the first submit, so the size
    # asked for is the number of processes forked; the fake forks none.
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = config_from_dict({**BASE, "sweep": {"k": [1, 2]}})
    res = run_experiment(cfg, output_root=tmp_path, workers=3)
    assert sizes == [2]
    assert [row["outcome"] for row in res.rows] == ["robber_survives"] * 2


def test_tables_are_computed_once_per_setting_in_each_run(tmp_path, monkeypatch):
    calls = []
    real = haven_mod.precompute_tables

    def counting(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(haven_mod, "precompute_tables", counting)
    cops = [{"kind": "stationary"}, {"kind": "greedy"}, {"kind": "perimeter"}]
    cfg = config_from_dict({**BASE, "sweep": {"k": [1, 2], "cops": cops}})
    first = run_experiment(cfg, output_root=tmp_path / "a", workers=1)
    assert [row["outcome"] for row in first.rows] == ["robber_survives"] * 6
    assert calls == [(1, 1, 1), (2, 1, 1)]
    # a second run recomputes: the memo does not outlive its run
    second = run_experiment(cfg, output_root=tmp_path / "b", workers=1)
    assert len(calls) == 4
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()


def test_thin_end_generator_surfaces_in_summary(tmp_path):
    cfg = config_from_dict({"generator": "line", "horizon": 5})
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    assert res.exit_code == 0  # a refused precompute is not an assertion failure
    assert res.rows[0]["outcome"] == "precompute_failed"
    assert "NoThickEndWitness" in res.rows[0]["error"]
    with open(res.csv_path) as fh:
        assert "NoThickEndWitness" in fh.read()


@pytest.mark.parametrize("name, k", [("tree4", 3), ("tree3", 5)])
def test_thin_end_generator_at_a_larger_k_is_a_precompute_failed_row(name, k, tmp_path):
    # At these k the search budget refuses the sphere pass's S(R_0 + N)
    # for the k a thick end would need, but the thin end is the reason the
    # robber cannot negotiate, and it is reported first.
    cfg = config_from_dict({**BASE, "generator": name, "k": k})
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    assert res.exit_code == 0
    assert [row["outcome"] for row in res.rows] == ["precompute_failed"]
    assert res.rows[0]["error"].startswith("NoThickEndWitnessError: ")


def test_aborted_match_drives_exit_code_two(tmp_path, monkeypatch):
    cfg = config_from_dict(BASE)
    real = lab_mod.run_match_job

    def sabotage(job, out_dir):
        row = real(job, out_dir)
        row["outcome"] = "aborted"
        row["error"] = "ImpossibleStateError: injected"
        return row

    monkeypatch.setattr(lab_mod, "run_match_job", sabotage)
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    assert res.exit_code == 2


def test_search_budget_error_keeps_the_summary(tmp_path, capsys, monkeypatch):
    # A package error other than an illegal move used to propagate out of
    # run_experiment and leave the run directory without summary.csv.
    monkeypatch.setattr(GraphOracle, "expansion_budget", 50)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(BASE, seeds=[0, 1])))
    out_root = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-root", str(out_root), "--workers", "1"]) == 2
    (run_dir,) = out_root.iterdir()
    with open(run_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["outcome"] for row in rows] == ["error", "error"]
    assert all(row["error"].startswith("SearchBudgetExceeded: ") for row in rows)


def test_over_budget_perimeter_radius_ends_as_an_error_row(tmp_path, capsys):
    # The perimeter cop's S(10**7) is refused by the closed-form ball size
    # before it is built, so the match ends as an error row, not in a
    # MemoryError, and the summary is written in full.
    cops = {"kind": "perimeter", "perimeter_radius": 10_000_000}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(BASE, cops=cops, seeds=[0, 1])))
    out_root = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-root", str(out_root), "--workers", "1"]) == 2
    (run_dir,) = out_root.iterdir()
    with open(run_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["seed"], row["outcome"]) for row in rows] == [("0", "error"), ("1", "error")]
    assert all(row["error"].startswith("SearchBudgetExceeded: ") for row in rows)
    # the refusal names the sphere it refused and claims no expansion
    assert all("S(10000000)" in row["error"] for row in rows)
    assert not any("expanded" in row["error"] for row in rows)
    assert all(None not in row and None not in row.values() for row in rows)


# Worker counts that used to fail after the run directory existed, or
# silently became one worker.
@pytest.mark.parametrize(
    "env, flag", [("abc", None), ("0", None), ("-3", None), (None, "0")]
)
def test_bad_worker_count_is_a_config_error(env, flag, tmp_path, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("COARSECOPS_WORKERS", env)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(BASE))
    argv = ["run", str(path), "--output-root", str(tmp_path / "out")]
    if flag is not None:
        argv += ["--workers", flag]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert ("COARSECOPS_WORKERS" if env is not None else "workers") in err
    assert not (tmp_path / "out").exists()


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COARSECOPS_OUTPUT_ROOT", str(tmp_path / "envroot"))
    cfg = config_from_dict(BASE)
    res = run_experiment(cfg, workers=1)
    assert res.out_dir.parent == tmp_path / "envroot"


# -- verification ------------------------------------------------------------------


def test_verify_dir_accepts_fresh_traces(tmp_path):
    cfg = config_from_dict({**BASE, "sweep": {"cops": [{"kind": "greedy"}, {"kind": "random"}]}})
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    results = verify_dir(res.out_dir)
    assert len(results) == 2
    assert all(problems == [] for problems in results.values())


def test_verify_catches_edited_trace(tmp_path):
    cfg = config_from_dict(BASE)
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    lines = trace_path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["robber_path"] = ["(40,40)"]
    lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    trace_path.write_text("\n".join(lines) + "\n")
    assert verify_trace_file(trace_path)


def _respell(v: str) -> str:
    """A grid vertex string "(x,y)" as "((x, y))", which names the same pair."""
    return "(" + v.replace(",", ", ") + ")"


# (generator of the recorded trace, edit that breaks a round line's
# structure rather than a game rule)
MALFORMED_ROUNDS = {
    "empty-placement-path": ("grid", lambda rounds: rounds[0].update(robber_path=[])),
    "undecodable-cop": ("grid", lambda rounds: rounds[1].update(cops=["not-a-vertex"])),
    "missing-visits-key": ("grid", lambda rounds: rounds[1].pop("visits")),
    "cop-not-a-string": ("grid", lambda rounds: rounds[1].update(cops=[3])),
    # the recorded vertices spelt as `encode` never writes them; each of
    # these once replayed clean
    "cop-without-parentheses": (
        "grid",
        lambda rounds: rounds[1].update(cops=[c.strip("()") for c in rounds[1]["cops"]]),
    ),
    "path-vertex-respelt": (
        "grid",
        lambda rounds: rounds[1].update(robber_path=list(map(_respell, rounds[1]["robber_path"]))),
    ),
    "line-cop-true": ("line", lambda rounds: rounds[0].update(cops=[True])),
    "line-cop-float": ("line", lambda rounds: rounds[1].update(cops=[5.9])),
}

# header edits that used to raise out of verify_trace_file, or to pass it
MALFORMED_HEADERS = {
    "unknown-generator": ("grid", lambda header: header.update(generator="moebius")),
    "v0-not-a-string": ("grid", lambda header: header.update(v0=5)),
    # grid vertices read as ladder vertices: (x, 2) is on no rail, and a
    # search for it once grew until the expansion budget ran out
    "other-generator": ("grid", lambda header: header.update(generator="ladder")),
    "line-v0-padded": ("line", lambda header: header.update(v0=" 7 ")),
}


# line orders other than params, rounds, outcome; each once verified clean
MISORDERED_LINES = {
    "outcome-duplicated": lambda objs: objs.append(objs[-1]),
    "params-moved-last": lambda objs: objs.append(objs.pop(0)),
    "params-duplicated": lambda objs: objs.insert(1, objs[0]),
    "outcome-moved-first": lambda objs: objs.insert(0, objs.pop()),
}


def recorded_objs(generator, tmp_path) -> list:
    """The line objects of a trace that verifies clean: a BASE match on the
    grid, or a scripted match on the line (v0 7, the cop at 1 and then 5,
    the robber staying at 7)."""
    if generator == "grid":
        res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
        header, rounds, outcome = read_trace(res.out_dir / res.rows[0]["trace"])
        return [header, *rounds, outcome]
    from test_engine import ScriptedCops, ScriptedRobber

    g, _ = make_generator("line")
    cops = ScriptedCops(s_c=4, rho=0, start=(1,), moves=[[5]])
    robber = ScriptedRobber(s_r=1, reach=2, start=7)
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=7, horizon=2, visit_quota=1
    )
    trace = run_match(g, params, cops, robber)
    return [json.loads(line) for line in trace_lines(g, trace)]


def assert_one_malformed_problem(generator, edit, tmp_path):
    """Record a match on `generator`, apply `edit(objs)` to the list of its
    trace's line objects, and check that the trace verified clean before
    the edit and that the edited trace gives one malformed-trace problem."""
    objs = recorded_objs(generator, tmp_path)
    trace_path = tmp_path / "edited.jsonl"

    def verify():
        trace_path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        return verify_trace_file(trace_path)

    assert verify() == []
    edit(objs)
    problems = verify()
    assert len(problems) == 1 and problems[0].startswith("malformed trace: ")


@pytest.mark.parametrize("name", list(MALFORMED_ROUNDS))
def test_verify_reports_malformed_round_line(name, tmp_path):
    generator, edit = MALFORMED_ROUNDS[name]
    assert_one_malformed_problem(generator, lambda objs: edit(objs[1:-1]), tmp_path)


@pytest.mark.parametrize("name", list(MALFORMED_HEADERS))
def test_verify_reports_malformed_header(name, tmp_path):
    generator, edit = MALFORMED_HEADERS[name]
    assert_one_malformed_problem(generator, lambda objs: edit(objs[0]), tmp_path)


@pytest.mark.parametrize("name", list(MISORDERED_LINES))
def test_verify_reports_misordered_lines(name, tmp_path):
    assert_one_malformed_problem("grid", MISORDERED_LINES[name], tmp_path)


def test_read_trace_skips_blank_lines(tmp_path):
    header, rounds, outcome = _small_trace(tmp_path)
    path = tmp_path / "blank.jsonl"
    path.write_text("\n".join(json.dumps(obj) + "\n" for obj in (header, *rounds, outcome)))
    assert read_trace(path) == (header, rounds, outcome)


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """The JSON objects of one recorded grid trace, and a scratch file path."""
    root = tmp_path_factory.mktemp("fuzz")
    res = run_experiment(config_from_dict(BASE), output_root=root, workers=1)
    header, rounds, outcome = read_trace(res.out_dir / res.rows[0]["trace"])
    return [header, *rounds, outcome], root / "corrupt.jsonl"


# Values put into a trace stay small, so no search around them can grow far.
_TRACE_JUNK = st.one_of(
    st.integers(-2, 4),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 4), max_size=2),
    st.dictionaries(st.sampled_from(["radii", "n_annuli"]), st.integers(-2, 4), max_size=1),
)
_BAD_VERTICES = st.one_of(
    st.sampled_from(["", "x", "()", "(1)", "(1,2,3)", "(a,b)", "(,)"]),
    st.builds("({},{})".format, st.integers(-2, 4), st.integers(-2, 4)),
    st.integers(-2, 4),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_trace_fuzz(recorded_trace, data):
    objs, path = recorded_trace
    objs = json.loads(json.dumps(objs))
    kind = data.draw(
        st.sampled_from(["truncate", "drop", "add", "swap", "vertex", "generator"])
    )
    line = data.draw(st.sampled_from(objs))
    if kind == "drop":
        line.pop(data.draw(st.sampled_from(sorted(line))))
    elif kind == "add":  # a key besides the six a round line holds
        rec = data.draw(st.sampled_from(objs[1:-1]))
        rec[data.draw(st.text(max_size=4).filter(lambda key: key not in rec))] = data.draw(
            _TRACE_JUNK
        )
    elif kind == "swap":
        line[data.draw(st.sampled_from(sorted(line)))] = data.draw(_TRACE_JUNK)
    elif kind == "vertex":
        rec = data.draw(st.sampled_from(objs[1:-1]))
        vertices = rec[data.draw(st.sampled_from(["cops", "robber_path"]))]
        vertices[data.draw(st.integers(0, len(vertices) - 1))] = data.draw(_BAD_VERTICES)
    elif kind == "generator":
        objs[0]["generator"] = data.draw(
            st.sampled_from(["moebius", "", "ladder", "line", "tree3"])
        )
    text = "".join(json.dumps(obj) + "\n" for obj in objs)
    if kind == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 2))]  # cuts into "}\n"
    path.write_text(text)
    problems = verify_trace_file(path)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    # a header key may be an echo that verify does not certify
    if kind in ("truncate", "generator", "add") or (kind == "drop" and line is not objs[0]):
        assert problems


def test_haven_checks_catch_non_simple_path(tmp_path, grid_oracle):
    cfg = config_from_dict(BASE)
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    header, rounds, outcome = read_trace(trace_path)
    moving = next(r for r in rounds if len(r["robber_path"]) > 2)
    moving["robber_path"] = moving["robber_path"] + moving["robber_path"][-2:-1]
    from coarsecops.lab import haven_path_checks

    assert any("not simple" in p for p in haven_path_checks(grid_oracle, header, rounds))


def test_haven_checks_report_a_repeated_path_on_every_round(tmp_path, grid_oracle, monkeypatch):
    """Each distinct path is checked once per call, and its problems are
    reported on every round that recorded it, in round order."""
    from coarsecops.lab import haven_path_checks

    res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
    header, rounds, outcome = read_trace(res.out_dir / res.rows[0]["trace"])
    loop = ["(0,0)", "(1,0)", "(0,0)"]
    far = ["(0,0)", "(900,0)"]
    for i, path in ((2, loop), (4, far), (5, loop), (7, list(far))):
        rounds[i]["robber_path"] = path
    bound = header["tables"]["radii"][-1]
    assert haven_path_checks(grid_oracle, header, rounds) == [
        "round 2: robber path is not simple",
        f"round 4: (900, 0) outside B({bound}, v0)",
        "round 5: robber path is not simple",
        f"round 7: (900, 0) outside B({bound}, v0)",
    ]
    measured = []
    distance = grid_oracle.distance
    monkeypatch.setattr(grid_oracle, "distance", lambda u, v: measured.append(v) or distance(u, v))
    haven_path_checks(grid_oracle, header, rounds)
    once = len(measured)
    haven_path_checks(grid_oracle, header, rounds + rounds)
    assert 0 < once == len(measured) - once


def test_verify_reports_an_over_budget_rho_as_unverifiable(tmp_path):
    """A rho whose balls a search could not build within the budget ends
    as one problem, from verify_trace_file and verify_dir alike."""
    res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    header, rounds, outcome = read_trace(trace_path)
    header.update(rho=5000, R=5001)
    for entry in header["negotiation"]:
        entry[2] = {"rho": 5000, "R": 5001}.get(entry[1], entry[2])
    trace_path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *rounds, outcome)))
    problems = verify_trace_file(trace_path)
    assert len(problems) == 1
    assert problems[0].startswith("unverifiable: SearchBudgetExceeded: grid: S(5000) around ")
    assert verify_dir(res.out_dir)[trace_path.name] == problems


def test_verify_frees_its_oracle_without_the_cyclic_gc(tmp_path, monkeypatch):
    res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
    refs = []
    make = lab_mod.make_generator

    def recording_make(name):
        built = make(name)
        refs.append(weakref.ref(built[0]))
        return built

    monkeypatch.setattr(lab_mod, "make_generator", recording_make)
    gc.disable()
    try:
        assert verify_trace_file(res.out_dir / res.rows[0]["trace"]) == []
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("tables", ["deleted", {}, None], ids=["deleted", "empty", "null"])
def test_verify_reports_a_haven_trace_without_tables(tables, tmp_path):
    res = run_experiment(config_from_dict(BASE), output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    header, rounds, outcome = read_trace(trace_path)
    assert header["robber_strategy"] == "haven" and verify_trace_file(trace_path) == []
    if tables == "deleted":
        del header["tables"]
    else:
        header["tables"] = tables
    trace_path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *rounds, outcome)))
    assert verify_trace_file(trace_path) == [
        "haven trace has no tables: its path contracts cannot be checked"
    ]


def test_verify_decodes_each_vertex_string_once_per_pass(tmp_path, monkeypatch):
    """A verify_trace_file call builds one oracle, replay and the path checks
    share it, so each distinct vertex string is parsed once; no memo of
    parsed vertices outlives the call."""
    cfg = config_from_dict({**BASE, "horizon": 200})
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    assert len(read_trace(trace_path)[1]) == 201
    decoded = collections.Counter()
    decode_pair = generators_mod._decode_pair
    built = []
    make = lab_mod.make_generator

    def counting(s):
        decoded[s] += 1
        return decode_pair(s)

    def counting_make(name):
        built.append(name)
        return make(name)

    monkeypatch.setattr(generators_mod, "_decode_pair", counting)
    monkeypatch.setattr(lab_mod, "make_generator", counting_make)
    assert verify_trace_file(trace_path) == []
    first = decoded.copy()
    assert max(first.values()) == 1
    assert built == ["grid"]
    decoded.clear()
    assert verify_trace_file(trace_path) == []
    assert decoded == first
    assert built == ["grid", "grid"]


# -- rendering ---------------------------------------------------------------------


def _small_trace(tmp_path, start=((40, 40),), horizon=6):
    from coarsecops.baselines import BaselineCops, CopStrategyConfig
    from coarsecops.haven import HavenRobber

    g, rays = make_generator("grid")
    cops = BaselineCops(g, CopStrategyConfig(kind="stationary", start=start), 1, 1)
    robber = HavenRobber(g, rays)
    params = negotiate(
        "weak", cops.commit, robber.commit, k=len(start), v0=(0, 0),
        horizon=horizon, visit_quota=1,
    )
    trace = run_match(g, params, cops, robber)
    path = tmp_path / "render.jsonl"
    write_trace(path, g, trace)
    return read_trace(path)


def test_render_marks_all_pieces(tmp_path, grid_oracle):
    header, rounds, outcome = _small_trace(tmp_path, start=((5, 5),))
    block = render_snapshot(grid_oracle, header, rounds, 0, (-8, -8, 8, 8))
    lines = block.splitlines()
    assert len(lines) == 17 and all(len(l) == 17 for l in lines)

    def glyph_at(x, y):
        return lines[8 - y][x + 8]

    assert glyph_at(0, 0) == "O"
    assert glyph_at(5, 5) == "C"
    assert glyph_at(-7, 0) == "R"
    assert glyph_at(7, 0) == "+" and glyph_at(0, -7) == "+"  # S(R) boundary


def test_render_empty_window_is_background(tmp_path, grid_oracle):
    header, rounds, outcome = _small_trace(tmp_path)
    block = render_snapshot(grid_oracle, header, rounds, 0, (20, 20, 24, 24))
    assert set(block) == {".", "\n"}


def test_render_captured_round_shows_x(tmp_path):
    from test_engine import ScriptedCops, ScriptedRobber

    g, _ = make_generator("grid")
    cops = ScriptedCops(s_c=1, rho=1, start=((0, 3),), moves=[[(0, 2)]])
    robber = ScriptedRobber(s_r=2, reach=5, start=(0, 0), paths=[[(0, 0), (0, 1)]])
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=3, visit_quota=1
    )
    trace = run_match(g, params, cops, robber)
    assert trace.outcome["status"] == "captured"
    path = tmp_path / "cap.jsonl"
    write_trace(path, g, trace)
    header, rounds, final = read_trace(path)
    block = render_snapshot(g, header, rounds, final["round"], (-3, -3, 3, 3))
    assert "X" in block and "R" not in block


def test_render_round_out_of_range(tmp_path, grid_oracle):
    header, rounds, outcome = _small_trace(tmp_path)
    with pytest.raises(ValueError):
        render_snapshot(grid_oracle, header, rounds, 99, (-5, -5, 5, 5))


def test_render_refuses_non_grid():
    header = {"generator": "tree3"}
    with pytest.raises(UnsupportedGeneratorError):
        render_snapshot(make_generator("tree3")[0], header, [], 0, (-2, -2, 2, 2))


# -- CLI ---------------------------------------------------------------------------


def test_cli_run_replay_verify(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(BASE))
    out_root = tmp_path / "out"
    assert cli.main(["run", str(config_path), "--output-root", str(out_root), "--workers", "1"]) == 0
    printed = capsys.readouterr().out
    assert "robber_survives" in printed

    run_dir = next(p for p in out_root.iterdir() if p.is_dir())
    trace = next(iter(sorted(run_dir.glob("*.jsonl"))))
    assert cli.main(["replay", str(trace), "--round", "2", "--window=-9,-9,9,9"]) == 0
    assert "R" in capsys.readouterr().out

    assert cli.main(["verify", str(run_dir)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_replay_without_generator_is_an_error(tmp_path, capsys):
    header, rounds, outcome = _small_trace(tmp_path)
    del header["generator"]
    path = tmp_path / "nogen.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *rounds, outcome)))
    assert cli.main(["replay", str(path)]) == 1
    assert "error" in capsys.readouterr().err


# Values the replay verb reads from the params line, a round line and the
# outcome line; a missing key (value None) or a v0 that is not a string
# used to end in a traceback.
@pytest.mark.parametrize(
    "line, key, value",
    [("header", "R", None), ("round", "status", None), ("outcome", "round", None),
     ("header", "v0", 5)],
)
def test_cli_replay_malformed_trace_is_an_error(line, key, value, tmp_path, capsys):
    header, rounds, outcome = _small_trace(tmp_path)
    target = {"header": header, "round": rounds[-1], "outcome": outcome}[line]
    if value is None:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "malformed.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *rounds, outcome)))
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed trace: ")
    assert captured.out == ""


def test_cli_replay_non_object_line_is_an_error(tmp_path, capsys):
    path = tmp_path / "list.jsonl"
    path.write_text('{"type":"params"}\n[1]\n')
    assert cli.main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "line 2" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_replay_short_window_is_a_config_error(tmp_path, capsys):
    _small_trace(tmp_path)
    assert cli.main(["replay", str(tmp_path / "render.jsonl"), "--window=1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: window must be x0,y0,x1,y1")


def test_cli_verify_without_traces_is_an_error(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path)]) == 1
    assert "no traces found" in capsys.readouterr().err


def test_verify_dir_reports_an_unreadable_trace(tmp_path):
    (tmp_path / "x.jsonl").mkdir()
    [problem] = verify_dir(tmp_path)["x.jsonl"]
    assert problem.startswith("unreadable: [Errno 21] Is a directory: ")


def test_cli_config_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    assert cli.main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


# Usage errors that argparse ended with exit 2, the code of an illegal move.
@pytest.mark.parametrize(
    "argv",
    [["run", "c.json", "--workers", "abc"], ["replay", "t.jsonl", "--round", "x"], []],
    ids=["workers-not-int", "round-not-int", "no-command"],
)
def test_cli_usage_error_exit_one(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and "usage: coarsecops" in capsys.readouterr().out


def test_cli_verify_flags_tampering(tmp_path, capsys):
    cfg = config_from_dict(BASE)
    res = run_experiment(cfg, output_root=tmp_path, workers=1)
    trace_path = res.out_dir / res.rows[0]["trace"]
    lines = trace_path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["cops"] = ["(30,30)"]
    lines[2] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    trace_path.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", str(res.out_dir)]) == 2
    assert "FAIL" in capsys.readouterr().out


# Paths the OS refuses to open as asked; each ended in a traceback.
@pytest.mark.parametrize("verb", ["run-a-directory", "replay-a-directory", "output-root-a-file"])
def test_cli_os_error_is_an_error(verb, tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(BASE))
    argv = {
        "run-a-directory": ["run", str(tmp_path)],
        "replay-a-directory": ["replay", str(tmp_path)],
        "output-root-a-file": ["run", str(config_path), "--output-root", str(config_path)],
    }[verb]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_single_process_commands_do_not_load_the_process_pool(tmp_path):
    """A one-worker run, `verify_dir` and the replay verb, in a fresh
    interpreter, leave the process pool and multiprocessing unimported."""
    child = textwrap.dedent(
        f"""
        import json, sys
        from coarsecops import cli
        from coarsecops.lab import config_from_dict, run_experiment, verify_dir

        cfg = config_from_dict({BASE!r})
        res = run_experiment(cfg, output_root={str(tmp_path)!r}, workers=1)
        assert all(problems == [] for problems in verify_dir(res.out_dir).values())
        assert cli.main(["replay", str(res.out_dir / res.rows[0]["trace"])]) == 0
        pool = ("concurrent.futures.process", "multiprocessing")
        print(json.dumps([name for name in pool if name in sys.modules]))
        """
    )
    src = str(Path(lab_mod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
