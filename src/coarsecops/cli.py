"""Command line interface.

    coarsecops run <config.json> [--output-root DIR] [--workers N]
    coarsecops replay <trace.jsonl> [--round N] [--window x0,y0,x1,y1]
    coarsecops verify <trace-dir>

Exit codes: 0 success, 1 config/usage error or malformed trace, 2 an
illegal move or impossible-state assertion was detected (in a run or in
verification), or a match ended in another package error such as an
exhausted search budget (its summary row has outcome `error`).
A trace must keep its written line order: one params line, the round
lines, one outcome line.
Environment: COARSECOPS_OUTPUT_ROOT and COARSECOPS_WORKERS override the
defaults where no flag is given.
"""

import argparse
import sys

from .engine import read_trace
from .errors import CoarseCopsError, ConfigError
from .generators import make_generator
from .lab import load_config, render_snapshot, run_experiment, verify_dir


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, output_root=args.output_root, workers=args.workers)
    for row in result.rows:
        note = f" [{row['error']}]" if row["error"] else ""
        print(
            f"cell {row['cell']:>3} seed {row['seed']:>3} "
            f"k={row['k']} s_c={row['s_c']} rho={row['rho']} cop={row['cop_kind']}: "
            f"{row['outcome']} visits={row['visits']}{note}"
        )
    print(f"summary: {result.csv_path}")
    return result.exit_code


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"window must be x0,y0,x1,y1 (got {text!r})")
    return tuple(int(p) for p in parts)


def _cmd_replay(args) -> int:
    header, rounds, outcome = read_trace(args.trace)
    if header.get("generator") != "grid":
        print("error: replay rendering is only defined for grid traces", file=sys.stderr)
        return 1
    g, _ = make_generator("grid")
    try:
        round_index = args.round if args.round is not None else rounds[-1]["round"]
        if args.window:
            window = _parse_window(args.window)
        else:
            x, y = g.decode(header["v0"])
            pad = header["R"] + 2
            window = (x - pad, y - pad, x + pad, y + pad)
        snapshot = render_snapshot(g, header, rounds, round_index, window)
        rec = next(r for r in rounds if r["round"] == round_index)
        status = (
            f"round {round_index}/{outcome['round']} status={rec['status']} "
            f"visits={rec['visits']} outcome={outcome['status']}"
        )
    except (AttributeError, KeyError, IndexError, TypeError) as exc:
        print(f"error: malformed trace: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(snapshot)
    print(status)
    return 0


def _cmd_verify(args) -> int:
    results = verify_dir(args.trace_dir)
    if not results:
        print(f"no traces found under {args.trace_dir}", file=sys.stderr)
        return 1
    bad = 0
    for name, problems in results.items():
        if problems:
            bad += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"OK   {name}")
    print(f"{len(results) - bad}/{len(results)} traces verified clean")
    return 2 if bad else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1), in subparsers too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="coarsecops",
        description="Cops-and-robber matches on lazily generated infinite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all matches of an experiment config")
    p_run.add_argument("config", help="path to the experiment JSON file")
    p_run.add_argument("--output-root", default=None, help="directory for result dirs")
    p_run.add_argument("--workers", type=int, default=None, help="worker process count")
    p_run.set_defaults(fn=_cmd_run)

    p_replay = sub.add_parser("replay", help="render one round of a trace as ASCII")
    p_replay.add_argument("trace", help="path to a .jsonl trace")
    p_replay.add_argument("--round", type=int, default=None)
    p_replay.add_argument("--window", default=None, help="x0,y0,x1,y1 (inclusive)")
    p_replay.set_defaults(fn=_cmd_replay)

    p_verify = sub.add_parser("verify", help="re-check legality of recorded traces")
    p_verify.add_argument("trace_dir", help="directory containing .jsonl traces")
    p_verify.set_defaults(fn=_cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CoarseCopsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
