"""Game state machine: negotiation, move legality, capture, trace recording.

The game: the cop player controls k cops of speed s_c with capture radius
rho; the robber has speed s_r and tries to end its turns inside the ball
of radius R around the fixed vertex v0 while always staying at distance
> rho from every cop, including at interior vertices of its paths.  Cop
moves are ball jumps (any vertex within s_c); only the robber walks an
edge path.  "Visits the ball infinitely often" is not finitely decidable,
so a match runs a fixed horizon T and certifies the robber's win by
`visits >= M` after T uncaptured rounds; `horizon_reached` is reported
when the quota is missed, never as a cop win claim.

Negotiation order is part of the game definition: in the weak variant the
cops commit (s_c, rho) before the robber commits (s_r, R); in the strong
variant the order is s_c, s_r, rho, R.  Every later commitment sees all
earlier ones.

Paths are vertex lists that include the start vertex; the length of a
path is its edge count, so "stay" is the single-vertex path of length 0.

One loop plays and replays a match: `replay_trace` re-runs `run_match`
with two players that make a trace's recorded moves, and reports the
first line that the re-run writes differently.  It stops at the trace's
last round, a third end besides capture and the horizon.
"""

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from .errors import IllegalMoveError, NegotiationError
from .graphs import GraphOracle, Memo, Vertex

WEAK = "weak"
STRONG = "strong"

RUNNING = "running"
CAPTURED = "captured"
ROBBER_SURVIVES = "robber_survives"
HORIZON_REACHED = "horizon_reached"

# (party, field) commitment order per variant
_ORDERS = {
    WEAK: (("cops", "s_c"), ("cops", "rho"), ("robber", "s_r"), ("robber", "R")),
    STRONG: (("cops", "s_c"), ("robber", "s_r"), ("cops", "rho"), ("robber", "R")),
}

Chooser = Callable[[str, Mapping[str, Any]], int]


@dataclass(frozen=True)
class GameParams:
    variant: str
    k: int
    s_c: int
    rho: int
    s_r: int
    reach: int  # R, the radius of the ball around v0 the robber must revisit
    v0: Vertex
    horizon: int  # T, number of move rounds after placement
    visit_quota: int  # M, visits needed for robber_survives
    negotiation: tuple = ()  # ((party, field, value), ...) in commit order


@dataclass
class GameState:
    round: int
    cops: tuple
    robber: Vertex
    visits: int = 0
    status: str = RUNNING


@dataclass
class Trace:
    params: GameParams
    extras: dict = field(default_factory=dict)
    # one (round, cops after the cop move, attempted robber path with its
    # start, visits, status) per round, in `trace_lines`'s order: exact
    # tuples, which the cyclic GC untracks, as it never does a NamedTuple
    rounds: list = field(default_factory=list)
    outcome: dict = field(default_factory=dict)


def negotiate(
    variant: str,
    cop_choices: Chooser,
    robber_choices: Chooser,
    *,
    k: int,
    v0: Vertex,
    horizon: int,
    visit_quota: int,
) -> GameParams:
    """Run the variant's commitment sequence and validate the result.

    Each chooser is called as chooser(field, committed) where `committed`
    maps every earlier commitment (plus k, v0, variant) to its value --
    the game has perfect information once a parameter is committed.
    """
    if variant not in _ORDERS:
        raise NegotiationError(f"unknown variant {variant!r}")
    for name, value in (("k", k), ("horizon", horizon), ("visit_quota", visit_quota)):
        if type(value) is not int or value < 1:
            raise NegotiationError(f"{name}={value!r}, not an int >= 1")
    committed: dict = {"variant": variant, "k": k, "v0": v0}
    record = []
    for party, fieldname in _ORDERS[variant]:
        chooser = cop_choices if party == "cops" else robber_choices
        value = chooser(fieldname, dict(committed))
        if type(value) is not int or value < 0:
            raise NegotiationError(f"{party} committed {fieldname}={value!r}, not an int >= 0")
        committed[fieldname] = value
        record.append((party, fieldname, value))
    if committed["R"] <= committed["rho"]:
        raise NegotiationError(
            f"R={committed['R']} <= rho={committed['rho']} is a trivial cop win; rejected"
        )
    return GameParams(
        variant=variant,
        k=k,
        s_c=committed["s_c"],
        rho=committed["rho"],
        s_r=committed["s_r"],
        reach=committed["R"],
        v0=v0,
        horizon=horizon,
        visit_quota=visit_quota,
        negotiation=tuple(record),
    )


def legal_cop_move(
    g: GraphOracle, params: GameParams, state: GameState, new_positions: Sequence
) -> bool:
    """True iff there are k cops and every cop's displacement is at most s_c.

    The move only: `run_match` asks only while the match is running.
    Cops jump within balls: they are not constrained to open vertices, may
    coincide, and move simultaneously.
    """
    if len(new_positions) != params.k:
        return False
    s_c = params.s_c
    for old, new in zip(state.cops, new_positions):
        if g.distance_at_most(old, new, s_c) is None:
            return False
    return True


def closed_set(g: GraphOracle, rho: int, cops) -> set:
    """The closed set: the union of the cops' rho-balls, whose vertices capture."""
    closed: set = set()
    for c in cops:
        closed |= g.ball(c, rho)
    return closed


def _caught_at(closed: set, walk: Sequence) -> Vertex | None:
    """The capture rule: the first vertex of `walk` in `closed`, the
    cops' closed set (`closed_set`), or None."""
    for v in walk:
        if v in closed:
            return v
    return None


def _check_path_shape(g, params, state, path) -> None:
    if not path or path[0] != state.robber:
        raise IllegalMoveError("robber", state.round, f"path must start at {state.robber!r}")
    if len(path) - 1 > params.s_r:
        raise IllegalMoveError(
            "robber", state.round, f"path length {len(path) - 1} exceeds s_r={params.s_r}"
        )
    for a, b in zip(path, path[1:]):
        if b not in g.neighbors(a):
            raise IllegalMoveError("robber", state.round, f"{a!r} -> {b!r} is not an edge")


def apply_robber_path(
    g: GraphOracle, params: GameParams, state: GameState, path: Sequence, closed: set
) -> GameState:
    """Walk the robber along `path`, mutating and returning `state`.

    `closed` is `closed_set(g, params.rho, state.cops)`, which the caller
    builds once per round.  If any path vertex (start and end included)
    lies in it, the status becomes captured and the robber stops at the
    first such vertex.  Otherwise the robber ends at the last vertex and
    `visits` increments when that vertex lies in B(R, v0).  Malformed
    paths raise IllegalMoveError -- a strategy bug, distinct from capture.
    """
    _check_path_shape(g, params, state, path)
    caught = _caught_at(closed, path)
    if caught is not None:
        state.robber = caught
        state.status = CAPTURED
        return state
    state.robber = path[-1]
    if g.distance_at_most(params.v0, state.robber, params.reach) is not None:
        state.visits += 1
    return state


def run_match(
    g: GraphOracle,
    params: GameParams,
    cop_player,
    robber_player,
    extras: dict | None = None,
) -> Trace:
    """Play one match to completion and return its trace.

    Round 0 places the cops and then the robber (the robber placement is
    checked against the capture predicate immediately); rounds 1..T
    alternate a cop ball-jump with a robber path.  Each round builds the
    cops' closed set once, after their move: a robber already in it is
    not asked to move and records the stay path, and the same set tests
    the robber's path in `apply_robber_path`.  An uncaptured robber
    survives iff it met the visit quota.  Strategy moves that break the
    rules raise IllegalMoveError attributed to the offender.
    A player is any object with `commit(field, committed)`, `place(g,
    params)` (the robber's also takes the cop positions) and `step(g,
    params, state)`, as `BaselineCops` and `HavenRobber` have.
    """
    trace = Trace(params, dict(extras or {}))

    cops = tuple(cop_player.place(g, params))
    if len(cops) != params.k:
        raise IllegalMoveError("cops", 0, f"placed {len(cops)} cops, expected {params.k}")
    robber = robber_player.place(g, params, cops)
    state = GameState(round=0, cops=cops, robber=robber)
    if robber in closed_set(g, params.rho, cops):
        state.status = CAPTURED
    trace.rounds.append((0, cops, (robber,), state.visits, state.status))

    while state.status == RUNNING and state.round < params.horizon:
        state.round += 1
        new_cops = tuple(cop_player.step(g, params, state))
        if not legal_cop_move(g, params, state, new_cops):
            raise IllegalMoveError(
                "cops", state.round, f"move {new_cops!r} exceeds s_c or wrong count"
            )
        state.cops = new_cops
        closed = closed_set(g, params.rho, new_cops)
        if state.robber in closed:
            path = (state.robber,)  # already caught: the stay path records it
        else:
            path = tuple(robber_player.step(g, params, state))
        apply_robber_path(g, params, state, path, closed)
        trace.rounds.append((state.round, new_cops, path, state.visits, state.status))

    if state.status == RUNNING:
        quota_met = state.visits >= params.visit_quota
        state.status = ROBBER_SURVIVES if quota_met else HORIZON_REACHED
    trace.outcome = {
        "status": state.status,
        "round": state.round,
        "visits": state.visits,
    }
    return trace


# -- trace serialization -----------------------------------------------------


_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The JSON literal of a str: what `_dump` returns for one
_quote = json.encoder.encode_basestring_ascii


def trace_lines(g: GraphOracle, trace: Trace):
    """Yield the JSONL lines of a trace: params echo, rounds, outcome.

    The header and outcome lines are `_dump` of their dicts; the header
    puts the params and `g.name`, the generator, over the extras.  A round
    line is one f-string that writes the keys in the order `_dump` sorts
    them and each string as `_quote` of it, so it is the same bytes as
    `_dump` of the round's dict.  Each distinct vertex's JSON literal is
    encoded once per trace."""
    p = trace.params
    header = {
        **trace.extras,
        "type": "params",
        "generator": g.name,
        "variant": p.variant,
        "k": p.k,
        "s_c": p.s_c,
        "rho": p.rho,
        "s_r": p.s_r,
        "R": p.reach,
        "v0": g.encode(p.v0),
        "horizon": p.horizon,
        "visit_quota": p.visit_quota,
        "negotiation": [list(entry) for entry in p.negotiation],
    }
    yield _dump(header)
    literal = Memo(lambda v: _quote(g.encode(v))).__getitem__
    for rnd, cops, path, visits, status in trace.rounds:
        yield (
            f'{{"cops":[{",".join(map(literal, cops))}],'
            f'"robber_path":[{",".join(map(literal, path))}],'
            f'"round":{rnd},"status":{_quote(status)},"type":"round","visits":{visits}}}'
        )
    yield _dump({"type": "outcome", **trace.outcome})


def write_trace(path, g: GraphOracle, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_lines(g, trace):
            fh.write(line + "\n")


# Parses one JSON value at the start of a string: (value, index past it).
_decode_value = json.JSONDecoder().raw_decode


def read_trace(path) -> tuple[dict, list[dict], dict]:
    """Load a JSONL trace into (params echo, round dicts, outcome dict).

    The lines must keep the order `trace_lines` writes them in: one params
    line, one or more round lines, one outcome line.  Blank lines are
    skipped; a line that breaks that order, or is not a JSON object, is a
    ValueError naming its line number.  Each stripped line is parsed by
    one `raw_decode` call; the two checks `json.loads` adds around that
    call (no UTF-8 BOM, nothing after the value) are made here, with its
    messages."""
    header = None
    rounds = []
    outcome = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line[0] == "\ufeff":
                    raise json.JSONDecodeError(
                        "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                    )
                obj, end = _decode_value(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace {path} line {lineno}: {exc.msg}") from exc
            if type(obj) is not dict:
                raise ValueError(f"trace {path} line {lineno} is not a JSON object")
            kind = obj.get("type")
            if kind == "params" and header is None:
                header = obj
            elif kind == "round" and header is not None and outcome is None:
                rounds.append(obj)
            elif kind == "outcome" and rounds and outcome is None:
                outcome = obj
            else:
                raise ValueError(
                    f"trace {path} line {lineno}: type {kind!r} is out of place "
                    "(expected params, rounds, outcome)"
                )
    if outcome is None:
        raise ValueError(f"trace {path} is incomplete")
    return header, rounds, outcome


class _Recorded:
    """A player that commits a trace header's values and makes one party's
    recorded `moves`: each round's cops, or each round's robber path (the
    robber is placed at the last vertex of round 0's)."""

    def __init__(self, header: dict, moves: list):
        self.header, self.moves = header, moves

    def commit(self, fieldname, committed):
        return self.header[fieldname]

    def place(self, g, params, cops=None):
        return self.moves[0] if cops is None else self.moves[0][-1]

    def step(self, g, params, state):
        return self.moves[state.round]


def _differing_line(g, trace: Trace, index: int, recorded: dict) -> list[str]:
    """The problem of a replay whose line `index` (0 is the header) is
    not the `recorded` object; only that line of the re-run is written."""
    written = next(itertools.islice(trace_lines(g, trace), index, None))
    return [f"line {index + 1} differs: recorded {_dump(recorded)}, replay writes {written}"]


def replay_trace(g: GraphOracle, header: dict, rounds: list[dict], outcome: dict) -> list[str]:
    """Re-run a recorded match with `run_match` and report the first line
    that the re-run writes differently, or the illegal move or rejected
    negotiation that ends it; an empty list means a clean replay.

    Two `_Recorded` players commit the header's values and make the
    recorded moves.  The header line is compared before the re-run, which
    plays only the recorded rounds, so a round line can differ only in its
    round number, status, visits, a key besides the six written, or a
    robber path that `run_match` writes itself: the placement's one
    vertex, or the stay path of a robber caught by the cop move.  A
    recorded number matches only an int of the same value (JSON `true` is
    not 1, and `2.0` is not 2).  Then an uncaptured trace that stops
    before the horizon is reported.  The header and outcome lines are
    compared as `_dump` bytes.  `g` is the oracle of the trace's
    generator; its `decode` reads each distinct recorded move once.
    """
    decoded = Memo(lambda strings: tuple(map(g.decode, strings)))
    cop_moves = [decoded[tuple(rec["cops"])] for rec in rounds]
    paths = [decoded[tuple(rec["robber_path"])] for rec in rounds]
    cops = _Recorded(header, cop_moves)
    robber = _Recorded(header, paths)
    try:
        params = negotiate(
            header["variant"], cops.commit, robber.commit, k=header["k"],
            v0=g.decode(header["v0"]), horizon=header["horizon"],
            visit_quota=header["visit_quota"],
        )
    except NegotiationError as exc:
        return [f"negotiation: {exc}"]
    header_trace = Trace(params, header)
    if _dump(header) != next(trace_lines(g, header_trace)):
        return _differing_line(g, header_trace, 0, header)
    capped = replace(params, horizon=min(params.horizon, len(rounds) - 1))
    try:
        trace = run_match(g, capped, cops, robber)
    except IllegalMoveError as exc:
        return [str(exc)]
    for i, (rec, path, replayed) in enumerate(zip(rounds, paths, trace.rounds), 1):
        number, visits = rec["round"], rec["visits"]
        rnd, _, replayed_path, replayed_visits, status = replayed
        if (
            type(number) is not int or number != rnd
            or type(visits) is not int or visits != replayed_visits
            or rec["status"] != status or path != replayed_path or len(rec) != 6
        ):
            return _differing_line(g, trace, i, rec)
    stop = trace.outcome["round"]
    if trace.outcome["status"] != CAPTURED and stop < params.horizon:
        return [f"uncaptured trace stops at round {stop} before horizon {params.horizon}"]
    # the re-run's outcome line, against a recorded round past its end
    n = len(trace.rounds)
    recorded = rounds[n] if len(rounds) > n else outcome
    if _dump(recorded) != _dump({"type": "outcome", **trace.outcome}):
        return _differing_line(g, trace, n + 1, recorded)
    return []
