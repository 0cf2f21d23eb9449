"""Game engine: negotiation order, legality, capture, traces, replay."""

import json

import pytest

from coarsecops import (
    CAPTURED,
    GENERATORS,
    HORIZON_REACHED,
    ROBBER_SURVIVES,
    GameParams,
    GameState,
    IllegalMoveError,
    NegotiationError,
    apply_robber_path,
    legal_cop_move,
    make_generator,
    negotiate,
    read_trace,
    replay_trace,
    run_match,
    write_trace,
)
from coarsecops.baselines import BaselineCops, CopStrategyConfig
from coarsecops.engine import RoundRecord, Trace, _dump, closed_set, trace_lines
from coarsecops.haven import HavenRobber


class ScriptedCops:
    def __init__(self, s_c=1, rho=1, start=((0, 0),), moves=None):
        self.s_c, self.rho, self.start = s_c, rho, start
        self.moves = list(moves or [])
        self.seen = []

    def commit(self, fieldname, committed):
        self.seen.append((fieldname, dict(committed)))
        return self.s_c if fieldname == "s_c" else self.rho

    def place(self, g, params):
        return self.start

    def step(self, g, params, state):
        if self.moves:
            return self.moves.pop(0)
        return state.cops


class ScriptedRobber:
    def __init__(self, s_r=3, reach=5, start=(0, 0), paths=None):
        self.s_r, self.reach, self.start = s_r, reach, start
        self.paths = list(paths or [])
        self.seen = []

    def commit(self, fieldname, committed):
        self.seen.append((fieldname, dict(committed)))
        return self.s_r if fieldname == "s_r" else self.reach

    def place(self, g, params, cops):
        return self.start

    def step(self, g, params, state):
        if self.paths:
            return self.paths.pop(0)
        return [state.robber]


def mk_params(**kw):
    defaults = dict(
        variant="weak",
        k=1,
        s_c=1,
        rho=1,
        s_r=3,
        reach=5,
        v0=(0, 0),
        horizon=10,
        visit_quota=5,
    )
    defaults.update(kw)
    return GameParams(**defaults)


# -- negotiate ---------------------------------------------------------------


def test_negotiate_weak_with_haven_commitments(grid_tables_111):
    g, rays, _ = grid_tables_111
    cops = ScriptedCops(s_c=1, rho=1)
    robber = HavenRobber(g, rays)
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=200, visit_quota=100
    )
    assert (params.s_r, params.reach) == (761, 7)
    assert [entry[:2] for entry in params.negotiation] == [
        ("cops", "s_c"),
        ("cops", "rho"),
        ("robber", "s_r"),
        ("robber", "R"),
    ]


def test_negotiate_rejects_reach_at_most_rho():
    cops = ScriptedCops(s_c=1, rho=2)
    robber = ScriptedRobber(s_r=10, reach=2)
    with pytest.raises(NegotiationError):
        negotiate("weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=5, visit_quota=1)


def test_negotiate_strong_order_and_visibility():
    cops = ScriptedCops(s_c=2, rho=1)
    robber = ScriptedRobber(s_r=7, reach=9)
    params = negotiate(
        "strong", cops.commit, robber.commit, k=2, v0=(0, 0), horizon=5, visit_quota=1
    )
    assert [entry[:2] for entry in params.negotiation] == [
        ("cops", "s_c"),
        ("robber", "s_r"),
        ("cops", "rho"),
        ("robber", "R"),
    ]
    # rho was committed after s_r: the robber did not see it, the cops saw s_r
    s_r_view = robber.seen[0][1]
    assert "rho" not in s_r_view and s_r_view["s_c"] == 2
    rho_view = cops.seen[1][1]
    assert rho_view["s_r"] == 7


def test_negotiate_rejects_zero_cops():
    with pytest.raises(NegotiationError):
        negotiate(
            "weak",
            ScriptedCops().commit,
            ScriptedRobber().commit,
            k=0,
            v0=(0, 0),
            horizon=5,
            visit_quota=1,
        )


def test_negotiate_haven_refuses_strong_variant(grid_tables_111):
    g, rays, _ = grid_tables_111
    with pytest.raises(NegotiationError):
        negotiate(
            "strong",
            ScriptedCops().commit,
            HavenRobber(g, rays).commit,
            k=1,
            v0=(0, 0),
            horizon=5,
            visit_quota=1,
        )


# -- move legality -------------------------------------------------------------


def test_legal_cop_move_examples(grid_oracle):
    state = GameState(round=1, cops=((0, 0),), robber=(9, 9))
    assert legal_cop_move(grid_oracle, mk_params(s_c=2), state, [(1, 1)])
    assert not legal_cop_move(grid_oracle, mk_params(s_c=1), state, [(1, 1)])
    assert legal_cop_move(grid_oracle, mk_params(s_c=0), state, [(0, 0)])
    assert not legal_cop_move(grid_oracle, mk_params(s_c=2), state, [(1, 1), (0, 0)])


def test_apply_robber_path_moves_and_counts_visits(grid_oracle):
    state = GameState(round=1, cops=((5, 5),), robber=(0, 0))
    closed = closed_set(grid_oracle, 1, state.cops)
    out = apply_robber_path(grid_oracle, mk_params(rho=1), state, [(0, 0), (0, 1)], closed)
    assert out.status == "running" and out.robber == (0, 1) and out.visits == 1


def test_apply_robber_path_interior_capture(grid_oracle):
    state = GameState(round=1, cops=((0, 2),), robber=(0, 0))
    closed = closed_set(grid_oracle, 1, state.cops)
    out = apply_robber_path(
        grid_oracle, mk_params(rho=1), state, [(0, 0), (0, 1), (1, 1)], closed
    )
    assert out.status == CAPTURED
    assert out.robber == (0, 1)  # the interior vertex at distance 1


def test_apply_robber_path_rejects_overlength(grid_oracle):
    state = GameState(round=1, cops=((9, 9),), robber=(0, 0))
    path = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]
    closed = closed_set(grid_oracle, 1, state.cops)
    with pytest.raises(IllegalMoveError) as err:
        apply_robber_path(grid_oracle, mk_params(s_r=3), state, path, closed)
    assert err.value.offender == "robber"


def test_apply_robber_path_rejects_bad_shape(grid_oracle):
    state = GameState(round=1, cops=((9, 9),), robber=(0, 0))
    closed = closed_set(grid_oracle, 1, state.cops)
    with pytest.raises(IllegalMoveError):
        apply_robber_path(grid_oracle, mk_params(), state, [(1, 0)], closed)
    with pytest.raises(IllegalMoveError):
        apply_robber_path(grid_oracle, mk_params(), state, [(0, 0), (2, 0)], closed)


# -- full matches ----------------------------------------------------------------


def haven_match(kind="stationary", k=1, s_c=1, rho=1, T=50, M=25, start=None, seed=0):
    g, rays = make_generator("grid")
    cops = BaselineCops(
        g, CopStrategyConfig(kind=kind, seed=seed, start=start), s_c, rho
    )
    robber = HavenRobber(g, rays)
    params = negotiate(
        "weak", cops.commit, robber.commit, k=k, v0=(0, 0), horizon=T, visit_quota=M
    )
    outcome, trace = run_match(g, params, cops, robber)
    return g, params, outcome, trace


def test_run_match_stationary_far_cop_survives():
    g, params, outcome, trace = haven_match(T=50, M=50, start=((40, 40),))
    assert outcome["status"] == ROBBER_SURVIVES
    assert outcome["visits"] == 50


def test_run_match_greedy_walks_into_stationary_robber(grid_oracle):
    cops = ScriptedCops(s_c=1, rho=0)

    class Greedy(ScriptedCops):
        def step(self, g, params, state):
            return [
                min(
                    sorted(g.ball(state.cops[0], params.s_c)),
                    key=lambda c: (g.distance(state.robber, c), c),
                )
            ]

    cops = Greedy(s_c=1, rho=0)
    robber = ScriptedRobber(s_r=0, reach=5, start=(5, 0))
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=10, visit_quota=1
    )
    g, _ = make_generator("grid")
    outcome, trace = run_match(g, params, cops, robber)
    assert outcome["status"] == CAPTURED
    assert outcome["round"] == 5  # distance walked at speed 1


def test_run_match_capture_at_placement(grid_oracle):
    cops = ScriptedCops(s_c=1, rho=1, start=((0, 1),))
    robber = ScriptedRobber(s_r=2, reach=5, start=(0, 0))  # within rho of the cop
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=5, visit_quota=1
    )
    g, _ = make_generator("grid")
    outcome, trace = run_match(g, params, cops, robber)
    assert outcome["status"] == CAPTURED and outcome["round"] == 0
    assert trace.rounds[0].status == CAPTURED


def test_run_match_horizon_reached_without_quota(grid_oracle):
    cops = ScriptedCops(s_c=0, rho=1, start=((30, 30),))
    robber = ScriptedRobber(s_r=1, reach=5, start=(20, 20))  # never visits B(5)
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=4, visit_quota=2
    )
    g, _ = make_generator("grid")
    outcome, _ = run_match(g, params, cops, robber)
    assert outcome["status"] == HORIZON_REACHED and outcome["visits"] == 0


def test_run_match_attributes_illegal_cop_move(grid_oracle):
    cops = ScriptedCops(s_c=1, rho=0, start=((0, 0),), moves=[[(5, 5)]])
    robber = ScriptedRobber(s_r=1, reach=3, start=(10, 0))
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=5, visit_quota=1
    )
    g, _ = make_generator("grid")
    with pytest.raises(IllegalMoveError) as err:
        run_match(g, params, cops, robber)
    assert err.value.offender == "cops"


# -- traces -------------------------------------------------------------------------


def test_trace_replays_clean_and_serializes(tmp_path):
    g, params, outcome, trace = haven_match(kind="greedy", T=40, M=20)
    lines = list(trace_lines(g, trace))
    header = json.loads(lines[0])
    rounds = [json.loads(l) for l in lines[1:-1]]
    final = json.loads(lines[-1])
    assert set(rounds[0]) == {"type", "round", "cops", "robber_path", "visits", "status"}
    assert all(isinstance(c, str) for c in rounds[0]["cops"])
    assert final["status"] == ROBBER_SURVIVES
    assert replay_trace(g, header, rounds, final) == []

    path = tmp_path / "match.jsonl"
    write_trace(path, g, trace)
    header2, rounds2, final2 = read_trace(path)
    assert (header2, final2) == (header, final)
    assert rounds2 == rounds


# A bad second line of a trace, and the message `json.loads` gives for it;
# read_trace parses with `raw_decode` and must keep every one of them.
READ_TRACE_ERRORS = {
    "trailing-text": ('{"type":"round"} x', "line 2: Extra data"),
    "two-objects": ('{"type":"round"}{"type":"round"}', "line 2: Extra data"),
    "comma-joined": ('{"type":"round"},{"type":"round"}', "line 2: Extra data"),
    "truncated": ('{"type":"round","round":0', "line 2: Expecting ',' delimiter"),
    "not-json": ("xyz", "line 2: Expecting value"),
    "bad-escape": ('{"type":"r\\q"}', "line 2: Invalid \\escape"),
    "array": ("[1,2]", "line 2 is not a JSON object"),
}


@pytest.mark.parametrize("line, message", READ_TRACE_ERRORS.values(), ids=READ_TRACE_ERRORS.keys())
def test_read_trace_error_texts(line, message, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"params"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == f"trace {path} {message}"


def test_read_trace_refuses_a_bom_and_reads_spaced_lines(tmp_path):
    objs = [{"type": "params", "k": 1}, {"type": "round", "round": 0}, {"type": "outcome"}]
    path = tmp_path / "t.jsonl"
    path.write_text("\ufeff" + "".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == (
        f"trace {path} line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )
    expected = (objs[0], [objs[1]], objs[2])
    for text in (
        "".join(f" \t{_dump(o)}  \n" for o in objs),  # padded
        "".join(_dump(o) + "\r\n" for o in objs),  # CRLF
        "".join(json.dumps(o) + "\n" for o in objs),  # ", " and ": " separators
    ):
        path.write_bytes(text.encode("utf-8"))
        assert read_trace(path) == expected


# generator -> (two cop vertices, a robber walk) for a hand-built trace: the
# tree root () encodes as "", and a line vertex may be negative
HAND_BUILT = {
    "grid": (((0, 0), (-3, 12)), ((1, -1), (1, 0), (2, 0))),
    "line": ((-7, 0), (-12, -11, -10)),
    "ladder": (((-2, 0), (5, 1)), ((3, 0), (3, 1), (4, 1))),
    "tree3": (((), (0, 1)), ((2,), ())),
    "tree4": (((), (2, 2, 2)), ((1, 0), (1,), ())),
}


@pytest.mark.parametrize("name", GENERATORS)
def test_round_lines_are_the_generic_encoding(name):
    g, _ = make_generator(name)
    cops, walk = HAND_BUILT[name]
    params = mk_params(k=2, v0=g.origin)
    trace = Trace(params=params, generator=name)
    trace.rounds = [
        RoundRecord(0, cops, walk[:1], 0, "running"),
        RoundRecord(1, cops, walk, 1, "running"),
        RoundRecord(2, cops[::-1], walk[-1:], 1, CAPTURED),
    ]
    trace.outcome = {"status": CAPTURED, "round": 2, "visits": 1}
    expected = [
        _dump(
            {
                "type": "round",
                "round": rec.round,
                "cops": [g.encode(c) for c in rec.cops],
                "robber_path": [g.encode(v) for v in rec.robber_path],
                "visits": rec.visits,
                "status": rec.status,
            }
        )
        for rec in trace.rounds
    ]
    assert list(trace_lines(g, trace))[1:-1] == expected


def test_one_closed_set_per_round():
    """k balls at placement and k per round: the robber's vertex after the
    cop move and its path are tested against one closed set."""
    g, _ = make_generator("grid")
    balls = []
    ball = g.ball
    g.ball = lambda c, r: balls.append(c) or ball(c, r)
    cops = ScriptedCops(rho=1, start=((5, 0), (0, 5)))
    robber = ScriptedRobber(start=(0, 0))
    params = negotiate(
        "weak", cops.commit, robber.commit, k=2, v0=(0, 0), horizon=6, visit_quota=1
    )
    outcome, _ = run_match(g, params, cops, robber)
    assert outcome["status"] == ROBBER_SURVIVES and outcome["round"] == 6
    assert len(balls) == 2 + 2 * 6


def recorded(g, trace):
    """The (header, rounds, outcome) dicts that read_trace returns for a trace."""
    lines = [json.loads(line) for line in trace_lines(g, trace)]
    return lines[0], lines[1:-1], lines[-1]


def scripted_match(cops, robber, horizon=5):
    g, _ = make_generator("grid")
    params = negotiate(
        "weak", cops.commit, robber.commit, k=1, v0=(0, 0), horizon=horizon, visit_quota=1
    )
    outcome, trace = run_match(g, params, cops, robber)
    return g, outcome, trace


# name -> (fresh scripted players, round of the capture)
CAPTURES = {
    "at-placement": (
        lambda: (ScriptedCops(rho=1, start=((0, 1),)), ScriptedRobber(start=(0, 0))),
        0,
    ),
    "after-cop-move": (
        lambda: (
            ScriptedCops(s_c=2, rho=1, start=((3, 0),), moves=[[(1, 0)]]),
            ScriptedRobber(start=(0, 0)),
        ),
        1,
    ),
    "interior-vertex": (
        lambda: (
            ScriptedCops(rho=1, start=((0, 3),)),
            ScriptedRobber(start=(0, 0), paths=[[(0, 0), (0, 1), (0, 2), (1, 2)]]),
        ),
        1,
    ),
}


@pytest.mark.parametrize("name", list(CAPTURES))
def test_captured_match_replays_clean(name):
    players, capture_round = CAPTURES[name]
    g, outcome, trace = scripted_match(*players())
    assert outcome["status"] == CAPTURED and outcome["round"] == capture_round
    assert replay_trace(g, *recorded(g, trace)) == []


def _overlong_path(g, header, rounds, final):
    """A back-and-forth walk of real edges from the robber, longer than s_r."""
    start = rounds[10]["robber_path"][0]
    step = g.encode(g.neighbors(g.decode(start))[0])
    rounds[10]["robber_path"] = [start, step] * (header["s_r"] // 2 + 2)


def _renumber_rounds(g, header, rounds, final):
    """Stretch the round numbers 7x so the moves claim 7x the survived rounds."""
    for i, rec in enumerate(rounds):
        rec["round"] = 7 * i
    header["horizon"] = final["round"] = rounds[-1]["round"]


def _cut_before_horizon(g, header, rounds, final):
    """Drop an uncaptured trace's last rounds and renumber its outcome to match."""
    del rounds[25:]
    final["round"] = rounds[-1]["round"]


def _false_capture_claim(g, header, rounds, final):
    """Cut an uncaptured trace after round 25 and claim a capture there."""
    del rounds[26:]
    rounds[25]["status"] = final["status"] = CAPTURED
    final["round"] = 25


def _greedy_survival():
    g, _, _, trace = haven_match(kind="greedy", T=30, M=15)
    return g, trace


def _captured_after_cop_move():
    g, _, trace = scripted_match(*CAPTURES["after-cop-move"][0]())
    return g, trace


# (recorded match, tampering applied to its dicts, expected problem text)
TAMPERINGS = [
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[10].update(cops=["(25,25)"]),
        "round 10: illegal move by cops: move ((25, 25),) exceeds s_c",
        id="teleporting-cop",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[10].update(cops=rounds[10]["cops"] * 2),
        "wrong count",
        id="wrong-cop-count",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[10].update(robber_path=["(40,40)"]),
        "must start at",
        id="path-not-from-robber",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[10].update(
            robber_path=[rounds[10]["robber_path"][0], "(40,40)"]
        ),
        "is not an edge",
        id="step-not-an-edge",
    ),
    pytest.param(_greedy_survival, _overlong_path, "exceeds s_r", id="path-beyond-s_r"),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[10].update(status=CAPTURED),
        "line 12 differs",
        id="flipped-status",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[-1].update(visits=rounds[-1]["visits"] + 1),
        "line 32 differs",
        id="extra-visit",
    ),
    pytest.param(
        _captured_after_cop_move,
        lambda g, h, rounds, f: rounds.append({**rounds[-1], "round": rounds[-1]["round"] + 1}),
        'line 4 differs: recorded {"cops":["(1,0)"],"robber_path":["(0,0)"],"round":2,',
        id="round-after-capture",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, final: final.update(status=HORIZON_REACHED),
        'line 33 differs: recorded {"round":30,"status":"horizon_reached",',
        id="outcome-disagrees",
    ),
    pytest.param(
        _greedy_survival,
        _renumber_rounds,
        "line 3 differs",
        id="renumbered-rounds",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[0].update(
            robber_path=["(5,5)", rounds[0]["robber_path"][0]]
        ),
        "line 2 differs",
        id="placement-path-walks",
    ),
    pytest.param(
        _captured_after_cop_move,
        lambda g, h, rounds, f: rounds[1].update(robber_path=["(0,0)", "(0,1)", "(0,2)"]),
        'line 3 differs: recorded {"cops":["(1,0)"],"robber_path":["(0,0)","(0,1)","(0,2)"]',
        id="moves-after-capture",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(variant="strong"),
        "line 1 differs",
        id="variant-flipped",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header["negotiation"].reverse(),
        "line 1 differs",
        id="negotiation-reordered",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(s_c=1.5),
        "s_c=1.5, not an int",
        id="s_c-not-an-int",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(k=1.0),
        "k=1.0, not an int",
        id="k-a-float",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(k=True),
        "k=True, not an int",
        id="k-a-bool",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, final: header.update(horizon=float(final["round"])),
        "horizon=30.0, not an int",
        id="horizon-a-float",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(visit_quota=header["visit_quota"] - 0.5),
        "visit_quota=14.5, not an int",
        id="visit_quota-a-float",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[1].update(round=True),
        "line 3 differs",
        id="round-number-a-bool",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[0].update(round=False),
        "line 2 differs",
        id="placement-number-a-bool",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[2].update(visits=float(rounds[2]["visits"])),
        "line 4 differs",
        id="visits-a-float",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, r, final: final.update(round=float(final["round"])),
        'line 33 differs: recorded {"round":30.0,',
        id="outcome-round-a-float",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header["negotiation"][0].__setitem__(2, True),
        "line 1 differs",
        id="negotiated-value-a-bool",
    ),
    # the two places where the re-run does not ask the recorded robber:
    # a round past the end of the record, and a robber caught by the cop move
    pytest.param(
        _greedy_survival,
        _cut_before_horizon,
        "uncaptured trace stops at round 24 before horizon 30",
        id="cut-before-horizon",
    ),
    pytest.param(
        _captured_after_cop_move,
        lambda g, h, rounds, f: rounds[1].update(robber_path=["(0,1)"]),
        "line 3 differs",
        id="stay-path-elsewhere",
    ),
    # a cut trace whose last round claims a capture: its status line differs
    # before the re-run's missing rounds would be noticed
    pytest.param(
        _greedy_survival, _false_capture_claim, "line 27 differs", id="false-capture-claim"
    ),
    pytest.param(
        _greedy_survival,
        lambda g, h, rounds, f: rounds[0].update(cops=rounds[0]["cops"] * 2),
        "round 0: illegal move by cops: placed 2 cops, expected 1",
        id="placement-count",
    ),
    pytest.param(
        _greedy_survival,
        lambda g, header, r, f: header.update(variant="medium"),
        "unknown variant",
        id="variant-unknown",
    ),
]


@pytest.mark.parametrize("match, tamper, expected", TAMPERINGS)
def test_replay_detects_tampering(match, tamper, expected):
    g, trace = match()
    header, rounds, final = recorded(g, trace)
    assert replay_trace(g, header, rounds, final) == []
    tamper(g, header, rounds, final)
    assert any(expected in p for p in replay_trace(g, header, rounds, final))


def test_survival_outcome_consistency():
    g, params, outcome, trace = haven_match(kind="random", T=60, M=30, seed=3)
    assert outcome["status"] == ROBBER_SURVIVES
    assert outcome["visits"] >= params.visit_quota
    assert all(rec.status != CAPTURED for rec in trace.rounds)
    # visits recomputable from the trace
    home = g.ball(params.v0, params.reach)
    recount = sum(
        1 for rec in trace.rounds if rec.round > 0 and rec.robber_path[-1] in home
    )
    assert recount == outcome["visits"]


def test_matches_with_same_seed_are_bit_identical():
    a = haven_match(kind="random", T=50, M=25, seed=11)
    b = haven_match(kind="random", T=50, M=25, seed=11)
    assert list(trace_lines(a[0], a[3])) == list(trace_lines(b[0], b[3]))
    c = haven_match(kind="random", T=50, M=25, seed=12)
    assert list(trace_lines(a[0], a[3])) != list(trace_lines(c[0], c[3]))
