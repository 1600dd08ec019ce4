"""The deviator rules under study.

Local rules are preorders over state vectors (see `engine.LocalRule`).  Each
comes with two keys: a vector key, the rule's definition, which the locality
audits score, and a cell key, which runs and searches score.  The cell key
reads the evaluation's integer cells (on linear scheduling games, max-cost's
and max-improvement's read the load map alone) and equals the vector key
times the game's cost (or load) unit on every suboptimal player, so it keeps
every order and every tie.  Round-robin and the seeded random rule are global
rules carrying explicit, replayable state.  `RULES` maps the stable
command-line identifiers to factories.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .core import Evaluation, Game
from .engine import DeviatorRule, EngineError, LocalRule
from .networks import NetworkFormationGame, NfgStateVector
from .scheduling import SchedStateVector, SchedulingGame, l_star

StateVector = NfgStateVector | SchedStateVector


def _own_load(v: SchedStateVector) -> Fraction:
    return v.loads[v.machine - 1]


def _own_cost(ev: Evaluation):
    """A position's current cost, from its cell."""
    profile = ev.profile
    return lambda pos: ev.cell(pos).costs[profile[pos]]


def _improvement(ev: Evaluation):
    """A position's cost minus its best-response cost, from its cell.  For a
    scheduling job that is suboptimal, the best response is another machine,
    so this is the vector key's drop to the cheapest other machine."""
    profile = ev.profile

    def key(pos: int):
        costs, br = ev.cell(pos)
        return costs[profile[pos]] - costs[br[0]]

    return key


def _is_linear(game: Game) -> bool:
    return isinstance(game, SchedulingGame) and not game.is_conflicting


def _machine_load(ev: Evaluation):
    """A linear scheduling job's current cost: her machine's load, read
    from the load map without a cell."""
    loads, profile = ev.loads, ev.profile
    return lambda pos: loads[profile[pos] + 1]


def _load_drop(ev: Evaluation):
    """A suboptimal linear scheduling job's improvement, from the loads: her
    best response joins a least-loaded machine, which is not hers, so the
    drop is L_a - least - w."""
    game, loads, profile = ev.game, ev.loads, ev.profile
    least, weights = game._least_load(ev), game._load_weights
    return lambda pos: loads[profile[pos] + 1] - least - weights[pos]


def max_cost() -> LocalRule:
    """Highest current cost first."""

    def build(game: Game):
        if isinstance(game, SchedulingGame):
            return lambda v: game.job_cost_at_load(_own_load(v))
        return lambda v: v.current_cost

    return LocalRule("max-cost", build,
                     cell_key=lambda game: _machine_load if _is_linear(game) else _own_cost)


def min_path() -> LocalRule:
    """Cheapest best-response path first (network games only)."""

    def cell_key(game: NetworkFormationGame):
        def bind(ev: Evaluation):
            # the vector's br_path_cost: the lex-smallest tied path's cost
            return lambda pos: -game._path_costs[game._class_ids[pos]][min(ev.cell(pos).br)]

        return bind

    return LocalRule(
        "min-path",
        lambda game: lambda v: -v.br_path_cost,
        accepts=lambda g: isinstance(g, NetworkFormationGame),
        cell_key=cell_key,
    )


def max_improvement() -> LocalRule:
    """Largest cost decrease from a best response first."""

    def build(game: Game):
        if not isinstance(game, SchedulingGame):
            return lambda v: v.current_cost - v.br_cost
        cost = game.job_cost_at_load

        def key(v: SchedStateVector) -> Fraction:
            others = [
                load + v.length
                for m, load in enumerate(v.loads, start=1)
                if m != v.machine
            ]
            return cost(_own_load(v)) - min(cost(x) for x in others)

        return key

    return LocalRule("max-improvement", build,
                     cell_key=lambda game: _load_drop if _is_linear(game) else _improvement)


def longest_job() -> LocalRule:
    def cell_key(game: Game):
        weights = game._load_weights
        return lambda ev: weights.__getitem__

    return LocalRule(
        "longest-job",
        lambda game: lambda v: v.length,
        accepts=lambda g: isinstance(g, SchedulingGame),
        cell_key=cell_key,
    )


class RoundRobinRule(DeviatorRule):
    """Cyclic scan from the last chosen id; the cursor is run state."""

    name = "round-robin"
    is_stateless = False

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self, game: Game) -> None:
        self._cursor = 0

    def choose(self, ev, suboptimal):
        above = [i for i in suboptimal if i > self._cursor]
        pick = min(above) if above else min(suboptimal)
        self._cursor = pick
        return (pick,)


class RandomRule(DeviatorRule):
    """Uniform choice over the suboptimal set under an explicit seed, so a
    run is replay-deterministic."""

    name = "random"
    is_stateless = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self, game: Game) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, ev, suboptimal):
        return (self._rng.choice(sorted(suboptimal)),)


def round_robin() -> RoundRobinRule:
    return RoundRobinRule()


def random_rule(seed: int = 0) -> RandomRule:
    return RandomRule(seed)


def _s_opt_rank(machine: int, top: int, bottom: int, top_is_high: bool) -> int:
    if machine == top and top_is_high:
        return 2
    if machine == bottom:
        return 1
    return 0


def s_opt_vector_key(activation_cost: Fraction | int | str):
    """Preorder form of the optimal conflicting-model rule: rank jobs on the
    top machine (when it is high) above jobs on the bottom machine, above
    everything else.  Evaluated per vector, using only its fields and the
    public activation cost."""
    star = l_star(activation_cost)

    def key(v: StateVector) -> int:
        assert isinstance(v, SchedStateVector)
        active = [m for m in range(1, len(v.loads) + 1) if v.loads[m - 1] > 0]
        top = max(active, key=lambda m: (v.loads[m - 1], m))
        bottom = min(active, key=lambda m: (v.loads[m - 1], m))
        return _s_opt_rank(v.machine, top, bottom, v.loads[top - 1] >= star)

    return key


def s_opt_rule() -> LocalRule:
    """The optimal local deviator rule for conflicting congestion effects.

    The engine only consults rules when suboptimal players exist, so the
    rule's equilibrium signal is the engine's own Nash test.
    """

    def activation_cost(game: Game) -> Fraction:
        if not (isinstance(game, SchedulingGame) and game.is_conflicting):
            raise EngineError("s-opt applies to the conflicting model only")
        assert game.activation_cost is not None
        return game.activation_cost

    def cell_key(game: Game):
        star = l_star(activation_cost(game))

        def bind(ev: Evaluation):
            # the active machines are the load map's keys; unit jobs make
            # the load unit 1, so loads compare with l* as they are
            loads, profile = ev.loads, ev.profile
            top = max(loads, key=lambda m: (loads[m], m))
            bottom = min(loads, key=lambda m: (loads[m], m))
            high = loads[top] >= star
            return lambda pos: _s_opt_rank(profile[pos] + 1, top, bottom, high)

        return bind

    return LocalRule(
        "s-opt",
        lambda game: s_opt_vector_key(activation_cost(game)),
        accepts=lambda g: isinstance(g, SchedulingGame) and g.is_conflicting,
        cell_key=cell_key,
    )


RULES: Mapping[str, object] = {
    "max-cost": max_cost,
    "min-path": min_path,
    "max-improvement": max_improvement,
    "longest-job": longest_job,
    "round-robin": round_robin,
    "random": random_rule,
    "s-opt": s_opt_rule,
}


def make_rule(name: str, seed: int = 0) -> DeviatorRule:
    if name not in RULES:
        raise EngineError(f"unknown rule {name!r}; known: {', '.join(sorted(RULES))}")
    if name == "random":
        return random_rule(seed)
    factory = RULES[name]
    return factory()  # type: ignore[operator]
