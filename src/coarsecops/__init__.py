"""Cops-and-robber matches on lazily generated locally finite graphs.

The package centers on an executable robber evasion strategy for graphs
with a thick-end witness: precompute a disjoint monotone ray family and a
ladder of annulus radii, then perpetually relocate between havens along
fully open paths.  Around it: a graph kernel with lazy BFS queries, a
turn-based game engine with replayable JSONL traces, adversarial cop
baselines, and a batch experiment runner.
"""

from .baselines import (
    BaselineCops,
    CopStrategyConfig,
    greedy_step,
    perimeter_stations,
    perimeter_step,
)
from .engine import (
    CAPTURED,
    HORIZON_REACHED,
    ROBBER_SURVIVES,
    RUNNING,
    GameParams,
    GameState,
    Trace,
    apply_robber_path,
    legal_cop_move,
    negotiate,
    read_trace,
    replay_trace,
    run_match,
    write_trace,
)
from .errors import (
    BrokenWitnessError,
    CoarseCopsError,
    ConfigError,
    DisconnectedAnnulusError,
    IllegalMoveError,
    ImpossibleStateError,
    NegotiationError,
    NoThickEndWitnessError,
    RayContractError,
    SearchBudgetExceeded,
    UnsupportedGeneratorError,
)
from .generators import GENERATORS, make_generator
from .graphs import (
    GraphOracle,
    Ray,
    RaySystem,
    annulus_connect_radius,
    annulus_path,
    ray_cross,
)
from .haven import (
    HavenRobber,
    SafetyMap,
    StrategyTables,
    choose_start,
    erase_cycles,
    find_haven,
    open_annulus_index,
    plan_move,
    precompute_tables,
    safety_map,
)
from .lab import (
    ExperimentConfig,
    expand_jobs,
    load_config,
    render_snapshot,
    run_experiment,
    verify_dir,
    verify_trace_file,
)

__version__ = "0.1.0"
