"""Best-response dynamics laboratory for congestion games."""

from .core import (
    Evaluation,
    Game,
    GameError,
    InvalidProfileError,
    Profile,
    SocialCostKind,
    UnsupportedModelError,
)
from .engine import (
    CycleDetected,
    DeviatorRule,
    LocalRule,
    LowestIdRule,
    Move,
    StateBudgetExceeded,
    StepBudgetExceeded,
    Trace,
    check_iip,
    reachable_by_rule,
    run_brd,
    run_scripted,
)
from .networks import (
    Edge,
    Network,
    NetworkFormationGame,
    NfgStateVector,
    PlayerSpec,
    Topology,
    classify,
    compose_parallel,
    compose_series,
    enumerate_paths,
    extend_with_edge,
    is_ep,
    is_spp,
    single_edge,
)
from .oracle import (
    InefficiencyReport,
    best_reachable,
    game_inefficiency,
    optimal_sequence,
    reachable_ne,
    rule_inefficiency,
)
from .rules import (
    RULES,
    longest_job,
    make_rule,
    max_cost,
    max_improvement,
    min_path,
    random_rule,
    round_robin,
    s_opt_rule,
)
from .scheduling import (
    SchedStateVector,
    SchedulingGame,
    l_star,
    max_active_machines,
    s_opt_choose,
    stays_active,
)
from .sppdp import (
    SppInstance,
    SppPlayer,
    SppEdge,
    dp_proper_intervals,
    dp_single_source,
    from_network_game,
    is_proper_intervals,
    resolved_segments,
)

__all__ = [name for name in dir() if not name.startswith("_")]
