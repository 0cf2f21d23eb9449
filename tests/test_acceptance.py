"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every expected constant asserted here was first reproduced by the
brute-force oracles in bruteforce.py (independent BFS, enumeration,
component checks) inside the tests themselves.
"""

import csv
import hashlib
import random
import time
from itertools import islice

import pytest

import bruteforce as bf
from coarsecops import (
    NoThickEndWitnessError,
    annulus_connect_radius,
    find_haven,
    make_generator,
    open_annulus_index,
    precompute_tables,
    read_trace,
    replay_trace,
    safety_map,
)
from coarsecops.lab import config_from_dict, run_experiment

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


# sha256 of the sweep's output files (see `sweep_digest`); a change that
# alters any trace or summary byte updates this and says why.
SWEEP_DIGEST = "212d4f18749bbaf22645de10aef3d9717d82c5ddf12b6f8a607a6273f01935e0"

# One large grid cell, the benchmark's `deep` workload: R_0 = 153, 66
# annuli to R_N = 285, s_r = 163,021.  Its output sha256 on one worker is
# pinned like the sweep's.
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
DEEP_DIGEST = "2c5416befb626e92111ae3a8bbeea432c8fe8a5bbf05c4bf038085f07b1c02cc"


def sweep_digest(out_dir):
    """sha256 over every output file but the wall-clock `timings.csv`, in
    name order, each as name, NUL, bytes."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "timings.csv":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    config = config_from_dict(SWEEP_CONFIG)
    started = time.perf_counter()
    result = run_experiment(config, output_root=root, workers=2)
    elapsed = time.perf_counter() - started
    return config, result, elapsed


def test_criterion_1_evasion_sweep(sweep):
    config, result, elapsed = sweep
    ok = (
        len(result.rows) == 96
        and result.exit_code == 0
        and all(r["outcome"] == "robber_survives" for r in result.rows)
        and all(r["visits"] == 200 for r in result.rows)
        and all(r["error"] == "" for r in result.rows)
        and elapsed < 300
    )
    report(
        1,
        ok,
        f"{len(result.rows)} matches, all robber_survives with visits=200, "
        f"no captures/illegal moves/assertions, {elapsed:.1f}s",
    )


def test_criterion_2_strategy_constants():
    g, rays = make_generator("grid")
    neighbors = g.neighbors

    # brute-force ball sizes drive the expected counts
    b1 = len(bf.bfs_ball(neighbors, (0, 0), 1))
    b2 = len(bf.bfs_ball(neighbors, (0, 0), 2))
    assert (b1, b2) == (5, 13)
    expected_n = 1 * b1 + 1  # k*b(rho)+1
    need = 1 * b2 + 1  # k*b(s_c+rho)+1 disjoint rays

    tables = precompute_tables(g, rays, 1, 1, 1)

    # disjoint-ray enumeration oracle
    prefixes = [{ray(t) for t in range(200 + 1)} for ray in tables.family]
    assert len(prefixes) >= need
    assert all(
        not (prefixes[i] & prefixes[j])
        for i in range(len(prefixes))
        for j in range(i + 1, len(prefixes))
    )
    dist0 = bf.bfs_distances(neighbors, (0, 0), tables.radii[0])
    assert all(ray(0) in dist0 for ray in tables.family)

    # annulus-connectivity oracle: each radius is minimal
    for i in range(tables.n_annuli):
        r_lo, r_hi = tables.radii[i], tables.radii[i + 1]
        crossers = bf.bfs_sphere(neighbors, (0, 0), r_lo + 1)
        dist = bf.bfs_distances(neighbors, (0, 0), r_hi + 1)
        annulus = {v for v, d in dist.items() if r_lo < d <= r_hi}
        shrunk = {v for v, d in dist.items() if r_lo < d <= r_hi - 1}
        assert bf.all_in_one_component(neighbors, annulus, crossers)
        assert not bf.all_in_one_component(neighbors, shrunk, crossers)

    # ball BFS oracle for the speed
    brute_speed = len(bf.bfs_ball(neighbors, (0, 0), tables.radii[-1]))

    ok = (
        tables.n_annuli == expected_n == 6
        and tables.radii[0] == 7
        and tables.radii[-1] == 19
        and tables.s_r == brute_speed == 761
    )
    report(2, ok, f"N={tables.n_annuli}, R_0={tables.radii[0]}, "
                  f"R_N={tables.radii[-1]}, s_r={tables.s_r}, all oracle-confirmed")


def _random_cops(rng, radius, k):
    cops = []
    while len(cops) < k:
        v = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        if abs(v[0]) + abs(v[1]) <= radius:
            cops.append(v)
    return cops


@pytest.fixture(scope="session")
def haven_sweep_results():
    g, rays = make_generator("grid")
    results = []
    for k in (1, 2, 3):
        tables = precompute_tables(g, rays, k, 1, 1)
        rng = random.Random(20260811 + k)
        for _ in range(1000):
            cops = _random_cops(rng, 2 * tables.containment, k)
            haven = find_haven(g, tables, cops)
            annulus = open_annulus_index(g, tables, safety_map(g, tables, cops))
            results.append((k, tables, cops, haven, annulus))
    return g, results


def test_criterion_3_haven_existence(haven_sweep_results):
    g, results = haven_sweep_results
    failures = 0
    for k, tables, cops, ray, _ in results:
        source = ray(0)
        if abs(source[0]) + abs(source[1]) > tables.radii[0]:
            failures += 1
    report(3, failures == 0, f"find_haven succeeded on all {len(results)} "
                             "placements (k in 1..3, 1000 each)")


def test_criterion_4_open_annulus(haven_sweep_results):
    g, results = haven_sweep_results
    bad = sum(
        1
        for k, tables, cops, _, annulus in results
        if not (1 <= annulus <= k * g.ball_size(tables.rho) + 1)
    )
    report(4, bad == 0, f"open_annulus_index <= k*b(rho)+1 on all {len(results)} placements")


def test_criterion_5_path_contract(sweep):
    config, result, _ = sweep
    checked_paths = 0
    problems = []
    for row in result.rows:
        header, rounds, outcome = read_trace(result.out_dir / row["trace"])
        g, _ = make_generator(header["generator"])
        problems.extend(replay_trace(g, header, rounds, outcome))
        radii = header["tables"]["radii"]
        containment, rho, s_r = radii[-1], header["rho"], header["s_r"]
        for rec in rounds:
            path = [g.decode(v) for v in rec["robber_path"]]
            cops = [g.decode(c) for c in rec["cops"]]
            checked_paths += 1
            if len(set(path)) != len(path):
                problems.append(f"{row['trace']} round {rec['round']}: not simple")
            if len(path) - 1 > s_r:
                problems.append(f"{row['trace']} round {rec['round']}: too long")
            for v in path:
                if abs(v[0]) + abs(v[1]) > containment:
                    problems.append(
                        f"{row['trace']} round {rec['round']}: left B({containment})"
                    )
                # independent capture-distance check: Manhattan metric
                if any(
                    abs(v[0] - c[0]) + abs(v[1] - c[1]) <= rho for c in cops
                ):
                    problems.append(
                        f"{row['trace']} round {rec['round']}: within rho of a cop"
                    )
    report(
        5,
        not problems,
        f"{checked_paths} recorded paths: simple, <= s_r, inside B(R_N), "
        f"always > rho from cops ({problems[:3] or 'no violations'})",
    )


def test_criterion_6_ball_size_and_annulus_oracle():
    g, _ = make_generator("grid")
    dist = bf.bfs_distances(g.neighbors, (0, 0), 50)
    sizes = {}
    for v, d in dist.items():
        sizes[d] = sizes.get(d, 0) + 1
    running = 0
    ok = True
    for r in range(51):
        running += sizes[r]
        if not (g.ball_size(r) == running == bf.grid_ball_size(r)):
            ok = False
    for r_lo in range(1, 31):
        sphere = g.sphere((0, 0), r_lo + 1)
        band = islice(enumerate(g.spheres((0, 0))), r_lo + 1, None)
        if annulus_connect_radius(g, sphere, band) != r_lo + 2:
            ok = False
        members_two = {v for v, d in dist.items() if r_lo < d <= r_lo + 2}
        members_one = {v for v, d in dist.items() if r_lo < d <= r_lo + 1}
        if not bf.all_in_one_component(g.neighbors, members_two, sphere):
            ok = False
        if bf.all_in_one_component(g.neighbors, members_one, sphere):
            ok = False
    report(6, ok, "ball_size(r)=2r^2+2r+1 for r<=50; annulus radius r_lo+2 "
                  "for r_lo<=30, both against brute-force BFS")


def test_criterion_7_thin_end_failure():
    refused = []
    for name in ("line", "ladder", "tree3"):
        g, rays = make_generator(name)
        try:
            precompute_tables(g, rays, 1, 1, 1)
        except NoThickEndWitnessError:
            refused.append(name)
    report(7, refused == ["line", "ladder", "tree3"],
           f"no-thick-end-witness raised on {refused}")


def test_criterion_8_determinism(sweep, tmp_path_factory):
    config, first, _ = sweep
    rerun_root = tmp_path_factory.mktemp("rerun")
    second = run_experiment(config, output_root=rerun_root, workers=1)
    same_csv = first.csv_path.read_bytes() == second.csv_path.read_bytes()
    same_traces = all(
        (first.out_dir / row["trace"]).read_bytes()
        == (second.out_dir / row["trace"]).read_bytes()
        for row in first.rows
    )
    digests = {sweep_digest(first.out_dir), sweep_digest(second.out_dir)}
    report(8, same_csv and same_traces and digests == {SWEEP_DIGEST},
           f"re-run of {len(first.rows)} matches byte-identical (CSV and traces), "
           f"even across different worker counts; output sha256 {sorted(digests)}")


def test_deep_output_bytes_are_pinned(tmp_path):
    result = run_experiment(config_from_dict(DEEP_CONFIG), output_root=tmp_path, workers=1)
    assert [row["outcome"] for row in result.rows] == ["robber_survives"] * 2
    assert sweep_digest(result.out_dir) == DEEP_DIGEST
