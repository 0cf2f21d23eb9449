"""Run one workload in this process: set-up, a READY line, timed passes.

    python3 perfbench/measure.py --root DIR --work DIR --workload NAME \
        --seed N --seconds S --trace 0|1 [--setup-only]

Imports coarsecops from `<root>/src`, builds the workload, prints READY
(the caller times set-up up to that line), then, unless --setup-only,
runs passes until --seconds have elapsed (at least one) and prints one
JSON line with the counts of attempted and failed matches and the
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1, untraced and traced passes alternate and the metrics are the
per-layer ones.  `perfbench/run.py` is the command to use; this is its
child.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, make_workload

_SPAN_STATS = {
    "graphs.ball": ("calls", "self_s"),
    "graphs.sphere": ("calls", "self_s"),
    "graphs.distance": ("calls", "self_s"),
    "graphs.distance_at_most": ("calls", "self_s"),
    "graphs.annulus_connect_radius": ("calls", "self_s", "total_s"),
    "graphs.annulus_path": ("calls", "self_s"),
    "graphs.ray_cross": ("calls",),
    "generators.make_generator": ("calls",),
    "engine.negotiate": ("total_s",),
    "engine.run_match": ("calls", "self_s", "total_s"),
    "engine.legal_cop_move": ("calls", "self_s"),
    "engine.apply_robber_path": ("calls", "self_s"),
    "engine.write_trace": ("calls", "self_s"),
    "engine.read_trace": ("calls", "self_s"),
    "engine.replay_trace": ("calls", "self_s"),
    "haven.precompute_tables": ("calls", "self_s", "total_s"),
    "haven.safety_map": ("calls", "self_s"),
    "haven.find_haven": ("calls", "self_s"),
    "haven.open_annulus_index": ("calls", "self_s"),
    "haven.plan_move": ("calls", "self_s", "total_s"),
    "baselines.BaselineCops.step": ("calls", "self_s", "total_s"),
    "baselines.greedy_step": ("self_s",),
    "baselines.perimeter_step": ("self_s",),
    "lab.run_match_job": ("calls", "self_s"),
    "lab.verify_trace_file": ("calls", "self_s"),
    "lab.haven_path_checks": ("calls", "self_s"),
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "match_ms_p50": "ms",
    "match_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{
        f"{span}.{stat}": _STAT_UNITS[stat]
        for span, stats in _SPAN_STATS.items()
        for stat in stats
    },
    "graphs.ball.vertices_returned": "count",
    "generators.neighbors.calls": "count",
    "engine.trace_bytes": "bytes",
    "haven.precompute_tables.useful_ratio": "ratio",
    "haven.plan_move.relocation_ratio": "ratio",
    "haven.path_slack": "ratio",
    "lab.pool.busy_s": "s",
    "lab.pool.utilization": "ratio",
    "lab.trace_overhead_frac": "ratio",
}

# Per-layer metrics that must repeat exactly for a fixed seed.
DETERMINISTIC = sorted(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes")
    or name in ("haven.precompute_tables.useful_ratio", "haven.plan_move.relocation_ratio",
                "haven.path_slack")
)

# Spans each workload calls in the reference traced run; a traced run in
# which one of them records no call has lost a wrapper.
_GAME_SPANS = {
    "graphs.ball", "graphs.sphere", "graphs.distance", "graphs.distance_at_most",
    "graphs.annulus_connect_radius", "graphs.annulus_path", "graphs.ray_cross",
    "generators.make_generator", "engine.negotiate", "engine.run_match",
    "engine.legal_cop_move", "engine.apply_robber_path", "engine.write_trace",
    "haven.precompute_tables", "haven.safety_map", "haven.find_haven",
    "haven.open_annulus_index", "haven.plan_move", "baselines.BaselineCops.step",
    "baselines.greedy_step", "baselines.perimeter_step", "lab.run_match_job",
}
EXPECTED_SPANS = {
    "sweep": _GAME_SPANS,
    "deep": _GAME_SPANS,
    "verify": {
        "graphs.ball", "graphs.distance", "graphs.distance_at_most",
        "generators.make_generator", "engine.read_trace", "engine.replay_trace",
        "lab.verify_trace_file", "lab.haven_path_checks",
    },
}


def tail(samples) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or a quarter of the samples when fewer
    than 40 were taken."""
    xs = sorted(samples)
    beyond = min(10, len(xs) // 4)
    i = len(xs) - 1 - beyond
    return xs[i], 100.0 * (i + 1) / len(xs), beyond


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def layer_metrics(snap: dict, p) -> dict:
    """Per-layer metrics of one traced pass, from the tracer's aggregates."""
    stats, counts = snap["stats"], snap["counts"]
    out = {}
    for span, wanted in _SPAN_STATS.items():
        calls, self_s, total_s = stats[span]
        values = {"calls": calls, "self_s": self_s, "total_s": total_s}
        out.update({f"{span}.{stat}": values[stat] for stat in wanted})
    precomputes = stats["haven.precompute_tables"][0]
    plans = stats["haven.plan_move"][0]
    out["graphs.ball.vertices_returned"] = counts["ball_vertices"]
    out["generators.neighbors.calls"] = counts["neighbors"]
    out["engine.trace_bytes"] = p.trace_bytes
    out["haven.precompute_tables.useful_ratio"] = (
        snap["settings"] / precomputes if precomputes else 0.0
    )
    out["haven.plan_move.relocation_ratio"] = counts["relocations"] / plans if plans else 0.0
    out["haven.path_slack"] = p.path_slack
    return out


def count_problems(per_pass: list) -> list:
    """Deterministic per-layer metrics that differ between traced passes."""
    problems = []
    for metric in DETERMINISTIC:
        values = {m[metric] for m in per_pass}
        if len(values) > 1:
            problems.append(f"{metric} differs between traced passes: {sorted(values)}")
    return problems


def span_problems(name: str, snaps: list) -> list:
    """Spans the workload must call that some traced pass recorded no call for."""
    return [
        f"span {span} recorded no call; its wrapper was not reached"
        for span in sorted(EXPECTED_SPANS[name])
        if any(snap["stats"][span][0] == 0 for snap in snaps)
    ]


def repeat(run_once, seconds: float) -> list:
    """Call `run_once` until `seconds` have passed (at least once), starting
    no call that the previous one's duration says would end later."""
    results = []
    started = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        results.append(run_once())
        last = time.perf_counter() - t0
    return results


def untraced_run(workload, seconds: float) -> tuple:
    """End-to-end metrics.  Other processes on the machine can only slow a
    match down, so throughput and the median use each match's (trace's)
    fastest time over the passes.  The tail is taken over every match time
    of the run: among 96 per-match values, the tenth from the top of the
    sweep falls in a gap between cost clusters."""
    passes = repeat(workload.run_pass, seconds)
    best_ms = [min(times) for times in zip(*(p.samples_ms for p in passes))]
    all_ms = [ms for p in passes for ms in p.samples_ms]
    tail_ms, tail_pct, beyond = tail(all_ms)
    metrics = {
        "rounds_per_s": 1000.0 * passes[0].rounds / sum(best_ms),
        "match_ms_p50": statistics.median(best_ms),
        "match_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "passes": len(passes),
        "match_ms_p50": f"median of {len(best_ms)} fastest repeats",
        "match_ms_tail": f"p{tail_pct:.2f} of {len(all_ms)} samples, {beyond} beyond",
    }
    return passes, metrics, info


def traced_run(workload, name: str, seconds: float, spans_out: Path) -> tuple:
    """Per-layer metrics.  Untraced and traced passes alternate; counts come
    from the traced passes and must agree between them, times are medians."""
    tracer = Tracer()

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            p = workload.run_pass()
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        return p, snap, layer_metrics(snap, p)

    pairs = repeat(lambda: (workload.run_pass(), traced_pass()), seconds)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    per_pass = [m for _, _, m in traced]
    metrics = {}
    for metric in per_pass[0]:
        values = [m[metric] for m in per_pass]
        metrics[metric] = values[0] if metric in DETERMINISTIC else statistics.median(values)
    problems = count_problems(per_pass) + span_problems(name, [snap for _, snap, _ in traced])

    busy = [sum(p.samples_ms) / 1000.0 for p in untraced]
    metrics["lab.pool.busy_s"] = statistics.median(busy)
    metrics["lab.pool.utilization"] = statistics.median(
        b / p.wall_s for b, p in zip(busy, untraced)
    )
    metrics["lab.trace_overhead_frac"] = (
        statistics.median(p.wall_s for p, _, _ in traced)
        / statistics.median(p.wall_s for p in untraced)
        - 1.0
    )
    n_spans = tracer.write_spans(spans_out)
    info = {"passes": len(untraced), "traced_passes": len(traced), "spans_logged": n_spans}
    return untraced + [p for p, _, _ in traced], metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    from coarsecops import lab

    if not Path(lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported coarsecops from {lab.__file__}, not from {src}")
    args.work.mkdir(parents=True, exist_ok=True)
    workload = make_workload(lab, args.workload, args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        spans_out = args.root / ".perfbench" / f"spans-{args.workload}.csv"
        passes, metrics, info, problems = traced_run(
            workload, args.workload, args.seconds, spans_out
        )
    else:
        passes, metrics, info = untraced_run(workload, args.seconds)
        problems = []
    attempted = sum(p.attempted for p in passes)
    # A run-level problem (lost span, counts that do not repeat) fails it all.
    failed = attempted if problems else sum(p.failed for p in passes)
    for p in passes:
        problems.extend(p.problems)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "info": {**info, "seed": args.seed, "machine": machine()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
