"""coarsecops benchmark: one command, one workload (or all of them).

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py                   # every workload, untraced

Run from anywhere; the package is imported from `src/` next to this
directory, and all output goes to `.perfbench/` at the repository root.
Untraced, set-up is timed three times, each in a fresh interpreter, from
process start until the workload is ready: once before the process that
runs the timed passes, in that process, and once after it.  The machine's
speed drifts over seconds, so samples spread over the run agree better.

The last line printed for a workload is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
carries the seed, sample counts, machine and any problems found.  The
exit code is 0 only when every check passed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIMEOUT_S = 170.0


def _measure(args: list, work: Path, setup_only: bool, deadline: float) -> tuple:
    """Run measure.py; return (set-up seconds, its last output line).

    The child is killed if it is still running at `deadline`."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--root", str(ROOT), "--work", str(work)]
    cmd += args + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} failed (exit {proc.returncode})")
    return setup_s, (out.strip().splitlines() or [""])[-1]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = ROOT / ".perfbench" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    deadline = time.perf_counter() + TIMEOUT_S
    try:
        setups = []
        if not trace:
            setups.append(_measure(args, work / "before", True, deadline)[0])
        setup_s, line = _measure(args, work / "run", False, deadline)
        setups.append(setup_s)
        if not trace:
            setups.append(_measure(args, work / "after", True, deadline)[0])
        result = json.loads(line)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    units = PER_LAYER if trace else END_TO_END
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
        result["info"]["failed_frac"] = result["failed"] / result["attempted"]
    result["metrics"] = {m: {"value": metrics[m], "unit": units[m]} for m in units}
    result["info"].update(workload=name, why=WORKLOADS[name])
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def _report(result: dict) -> None:
    info = dict(result["info"], problems=result["problems"])
    for metric, m in result["metrics"].items():
        print(f"{info['workload']:>10}  {metric:<44} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    if "failed_frac" in info:
        print(f"{info['workload']:>10}  {'failed_frac':<44} {info['failed_frac']:>14.6g} ratio",
              file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coarsecops benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coarsecops" / "__init__.py").is_file():
        print(f"error: no coarsecops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _report(result)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
