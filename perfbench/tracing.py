"""Span tracer for the coarsecops layers, installed from outside the package.

`Tracer.install()` replaces the public functions of each package module
with wrappers that record one span per call (name, start, end, parent
span) and aggregate, per span name, the call count, self time and total
time.  Self time is a span's duration minus the durations of its child
spans; calls are nested on one thread, so children never overlap.

The package imports functions by name (`haven` holds its own reference to
`graphs.annulus_connect_radius`, `lab` to `engine.run_match`, ...), so a
wrapper that rebinds only the defining module would record nothing.
`install()` therefore rebinds every `coarsecops` namespace that holds the
original object, and `uninstall()` restores them all.  Spans are recorded
in the calling process only, so a traced run must not use `lab`'s pool.
"""

import functools
import sys
import time
from array import array

# (span name, module, attribute) -- span names are "<layer>.<function>".
SPANS = (
    ("graphs.ball", "graphs", "GraphOracle.ball"),
    ("graphs.sphere", "graphs", "GraphOracle.sphere"),
    ("graphs.distance", "graphs", "GraphOracle.distance"),
    ("graphs.distance_at_most", "graphs", "GraphOracle.distance_at_most"),
    ("graphs.annulus_connect_radius", "graphs", "annulus_connect_radius"),
    ("graphs.annulus_path", "graphs", "annulus_path"),
    ("graphs.ray_cross", "graphs", "ray_cross"),
    ("generators.make_generator", "generators", "make_generator"),
    ("engine.negotiate", "engine", "negotiate"),
    ("engine.run_match", "engine", "run_match"),
    ("engine.legal_cop_move", "engine", "legal_cop_move"),
    ("engine.apply_robber_path", "engine", "apply_robber_path"),
    ("engine.write_trace", "engine", "write_trace"),
    ("engine.read_trace", "engine", "read_trace"),
    ("engine.replay_trace", "engine", "replay_trace"),
    ("haven.precompute_tables", "haven", "precompute_tables"),
    ("haven.safety_map", "haven", "safety_map"),
    ("haven.find_haven", "haven", "find_haven"),
    ("haven.open_annulus_index", "haven", "open_annulus_index"),
    ("haven.plan_move", "haven", "plan_move"),
    ("baselines.BaselineCops.step", "baselines", "BaselineCops.step"),
    ("baselines.greedy_step", "baselines", "greedy_step"),
    ("baselines.perimeter_step", "baselines", "perimeter_step"),
    ("lab.run_match_job", "lab", "run_match_job"),
    ("lab.verify_trace_file", "lab", "verify_trace_file"),
    ("lab.haven_path_checks", "lab", "haven_path_checks"),
)

# Counts gathered by the observers below, besides the per-span ones.
COUNTS = ("neighbors", "ball_vertices", "relocations")

PACKAGE = "coarsecops"


class Tracer:
    """In-memory spans and per-span aggregates for one process."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        # name -> [calls, self_s, total_s]; mutated in place by the wrappers
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}
        self.counts = {name: 0 for name in COUNTS}
        self.settings: set = set()  # distinct (k, s_c, rho) given to precompute
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span id, time covered by children]
        self._patched: list = []  # (namespace, attribute, original)

    def reset(self) -> None:
        """Forget every span and count (containers are cleared in place)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self.settings.clear()
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack.clear()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        name_id = self.names.index(name)
        entry = self.stats[name]
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[span_id] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def ball(result):
            counts["ball_vertices"] += len(result)

        def make_generator(result):
            g = result[0]
            inner = g.neighbors

            def neighbors(v):
                counts["neighbors"] += 1
                return inner(v)

            g.neighbors = neighbors

        def precompute_tables(result):
            self.settings.add((result.k, result.s_c, result.rho))

        def plan_move(result):
            if len(result) > 1:
                counts["relocations"] += 1

        return {
            "graphs.ball": ball,
            "generators.make_generator": make_generator,
            "haven.precompute_tables": precompute_tables,
            "haven.plan_move": plan_move,
        }

    def install(self) -> None:
        """Wrap every span in SPANS, in every namespace that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        observers = self._observers()
        for name, module, attr in SPANS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, observers.get(name))
            if outer:  # a method: the class is its only namespace
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "counts": dict(self.counts),
            "settings": len(self.settings),
        }

    def write_spans(self, path) -> int:
        """Write the in-memory span log as CSV; times relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name_id, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(
                    f"{i},{parent},{self.names[name_id]},{start - t0:.9f},{end - t0:.9f}\n"
                )
        return len(self.span_start)
