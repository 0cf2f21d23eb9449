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
"""

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .errors import IllegalMoveError, NegotiationError
from .graphs import GraphOracle, Vertex

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


@dataclass(frozen=True)
class RoundRecord:
    round: int
    cops: tuple  # positions after the cop move of this round
    robber_path: tuple  # attempted robber path, start vertex included
    visits: int
    status: str


@dataclass
class Trace:
    params: GameParams
    generator: str
    extras: dict = field(default_factory=dict)
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
    """True iff every cop's displacement is at most s_c.

    Cops jump within balls: they are not constrained to open vertices, may
    coincide, and move simultaneously.
    """
    if state.status != RUNNING or len(new_positions) != params.k:
        return False
    return all(
        g.distance_at_most(old, new, params.s_c) is not None
        for old, new in zip(state.cops, new_positions)
    )


def _caught_at(g: GraphOracle, rho: int, cops: Sequence, walk: Sequence) -> Vertex | None:
    """The capture rule: the first vertex of `walk` in some cop's rho-ball, or None."""
    closed: set = set()
    for c in cops:
        closed |= g.ball(c, rho)
    for v in walk:
        if v in closed:
            return v
    return None


def _check_path_shape(g, params, state, path) -> None:
    if not path or path[0] != state.robber:
        raise IllegalMoveError("robber", f"path must start at {state.robber!r}")
    if len(path) - 1 > params.s_r:
        raise IllegalMoveError(
            "robber", f"path length {len(path) - 1} exceeds s_r={params.s_r}"
        )
    for a, b in zip(path, path[1:]):
        if b not in g.neighbors(a):
            raise IllegalMoveError("robber", f"{a!r} -> {b!r} is not an edge")


def apply_robber_path(
    g: GraphOracle, params: GameParams, state: GameState, path: Sequence
) -> GameState:
    """Walk the robber along `path`, mutating and returning `state`.

    If any path vertex (start and end included) is within rho of a cop the
    status becomes captured and the robber stops at the first such vertex.
    Otherwise the robber ends at the last vertex and `visits` increments
    when that vertex lies in B(R, v0).  Malformed paths raise
    IllegalMoveError -- a strategy bug, distinct from capture.
    """
    path = list(path)
    _check_path_shape(g, params, state, path)
    caught = _caught_at(g, params.rho, state.cops, path)
    if caught is not None:
        state.robber = caught
        state.status = CAPTURED
        return state
    state.robber = path[-1]
    if g.distance_at_most(params.v0, state.robber, params.reach) is not None:
        state.visits += 1
    return state


def _final_status(params: GameParams, state: GameState) -> str:
    """The outcome of a match that stops in `state`: its status once
    terminal, else survival iff the visit quota was met."""
    if state.status != RUNNING:
        return state.status
    return ROBBER_SURVIVES if state.visits >= params.visit_quota else HORIZON_REACHED


def run_match(
    g: GraphOracle,
    params: GameParams,
    cop_player,
    robber_player,
    extras: dict | None = None,
) -> tuple[dict, Trace]:
    """Play one match to completion and record its trace.

    Round 0 places the cops and then the robber (the robber placement is
    checked against the capture predicate immediately); rounds 1..T
    alternate a cop ball-jump with a robber path.  Strategy moves that
    break the rules raise IllegalMoveError attributed to the offender.
    A player is any object with `commit(field, committed)`, `place(g,
    params)` (the robber's also takes the cop positions) and `step(g,
    params, state)`, as `BaselineCops` and `HavenRobber` have.
    """
    trace = Trace(params=params, generator=g.name, extras=dict(extras or {}))

    cops = tuple(cop_player.place(g, params))
    if len(cops) != params.k:
        raise IllegalMoveError("cops", f"placed {len(cops)} cops, expected {params.k}")
    robber = robber_player.place(g, params, cops)
    state = GameState(round=0, cops=cops, robber=robber)
    if _caught_at(g, params.rho, cops, [robber]) is not None:
        state.status = CAPTURED
    trace.rounds.append(
        RoundRecord(0, cops, (robber,), state.visits, state.status)
    )

    while state.status == RUNNING and state.round < params.horizon:
        state.round += 1
        new_cops = tuple(cop_player.step(g, params, state))
        if not legal_cop_move(g, params, state, new_cops):
            raise IllegalMoveError(
                "cops", f"round {state.round}: move {new_cops!r} exceeds s_c or wrong count"
            )
        state.cops = new_cops
        if _caught_at(g, params.rho, new_cops, [state.robber]) is not None:
            path = [state.robber]  # already caught: the stay path records it
        else:
            path = list(robber_player.step(g, params, state))
        apply_robber_path(g, params, state, path)
        trace.rounds.append(
            RoundRecord(state.round, new_cops, tuple(path), state.visits, state.status)
        )

    state.status = _final_status(params, state)
    trace.outcome = {
        "status": state.status,
        "round": state.round,
        "visits": state.visits,
    }
    return trace.outcome, trace


# -- trace serialization -----------------------------------------------------


_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def trace_lines(g: GraphOracle, trace: Trace):
    """Yield the JSONL lines of a trace: params echo, rounds, outcome.

    Each distinct vertex is encoded once per trace."""
    p = trace.params
    encode = functools.cache(g.encode)
    header = {
        "type": "params",
        "generator": trace.generator,
        "variant": p.variant,
        "k": p.k,
        "s_c": p.s_c,
        "rho": p.rho,
        "s_r": p.s_r,
        "R": p.reach,
        "v0": encode(p.v0),
        "horizon": p.horizon,
        "visit_quota": p.visit_quota,
        "negotiation": [list(entry) for entry in p.negotiation],
    }
    header.update(trace.extras)
    yield _dump(header)
    for rec in trace.rounds:
        yield _dump(
            {
                "type": "round",
                "round": rec.round,
                "cops": [encode(c) for c in rec.cops],
                "robber_path": [encode(v) for v in rec.robber_path],
                "visits": rec.visits,
                "status": rec.status,
            }
        )
    yield _dump({"type": "outcome", **trace.outcome})


def write_trace(path, g: GraphOracle, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_lines(g, trace):
            fh.write(line + "\n")


def read_trace(path) -> tuple[dict, list[dict], dict]:
    """Load a JSONL trace into (params echo, round dicts, outcome dict).

    The lines must keep the order `trace_lines` writes them in: one params
    line, one or more round lines, one outcome line.  Blank lines are
    skipped; a line that breaks that order, or is not a JSON object, is a
    ValueError naming its line number."""
    header = None
    rounds = []
    outcome = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
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


def replay_trace(g: GraphOracle, header: dict, rounds: list[dict], outcome: dict) -> list[str]:
    """Re-play a recorded match on `g` through the engine's own rule functions.

    The parameters come from `negotiate`, with the header's values as both
    players' commitments, so they meet the rules of a live match, and the
    recorded negotiation must be the record that `negotiate` returns.  The
    i-th round line must be numbered i.  Round 0 is checked as a placement
    (k cops, a one-vertex robber path, capture when the robber starts
    within rho); every later round goes through `legal_cop_move` and
    `apply_robber_path`, exactly as `run_match` plays it, a robber caught
    at the start of its path must have the stay path, and the recorded
    status and visits must match the replayed state.  A rejected
    negotiation, the first misnumbered round or an illegal move ends the
    replay.  `g` is the oracle of the trace's generator, and its `decode`
    reads every vertex string.  Returns the violation messages; an empty
    list means the trace replays cleanly.
    """
    def commit(fieldname, committed):
        return header[fieldname]

    try:
        params = negotiate(
            header["variant"], commit, commit, k=header["k"], v0=g.decode(header["v0"]),
            horizon=header["horizon"], visit_quota=header["visit_quota"],
        )
    except NegotiationError as exc:
        return [f"negotiation: {exc}"]
    problems: list[str] = []
    negotiation = [list(entry) for entry in params.negotiation]
    if header["negotiation"] != negotiation:
        problems.append(
            f"recorded negotiation {header['negotiation']!r}, replay says {negotiation!r}"
        )

    def check(rec: dict, state: GameState) -> None:
        for key, value in (("status", state.status), ("visits", state.visits)):
            if rec[key] != value:
                problems.append(
                    f"round {rec['round']}: recorded {key} {rec[key]!r}, replay says {value!r}"
                )

    placed = rounds[0]
    if placed["round"] != 0:
        problems.append(f"round line 0 is numbered {placed['round']!r}, expected 0")
        return problems
    cops = tuple(g.decode(c) for c in placed["cops"])
    state = GameState(round=0, cops=cops, robber=g.decode(placed["robber_path"][-1]))
    if len(placed["robber_path"]) != 1:
        problems.append(
            f"round 0: placement path has {len(placed['robber_path'])} vertices, expected 1"
        )
    if len(cops) != params.k:
        problems.append(f"round 0: {len(cops)} cops, expected {params.k}")
    if _caught_at(g, params.rho, cops, [state.robber]) is not None:
        state.status = CAPTURED
    check(placed, state)

    for rnd, rec in enumerate(rounds[1:], 1):
        if rec["round"] != rnd:
            problems.append(f"round line {rnd} is numbered {rec['round']!r}, expected {rnd}")
            return problems
        if state.status != RUNNING:
            problems.append(f"round {rnd}: activity after terminal status {state.status}")
            return problems
        cops = tuple(g.decode(c) for c in rec["cops"])
        if not legal_cop_move(g, params, state, cops):
            problems.append(
                f"round {rnd}: cop move {state.cops!r}->{cops!r}: wrong count "
                f"or a cop beyond s_c={params.s_c}"
            )
            return problems
        state.cops = cops
        path = [g.decode(v) for v in rec["robber_path"]]
        try:
            apply_robber_path(g, params, state, path)
        except IllegalMoveError as exc:
            problems.append(f"round {rnd}: {exc}")
            return problems
        if state.status == CAPTURED and state.robber == path[0] and len(path) > 1:
            problems.append(f"round {rnd}: robber path goes on after capture at its start")
        check(rec, state)

    last = rounds[-1]["round"]
    if state.status == RUNNING and last != params.horizon:
        problems.append(
            f"uncaptured trace stops at round {last} before horizon {params.horizon}"
        )
    expected = _final_status(params, state)
    for key, value in (("status", expected), ("round", last), ("visits", state.visits)):
        if outcome.get(key) != value:
            problems.append(f"outcome {key} {outcome.get(key)!r}, replay says {value!r}")
    return problems
