"""The deviator rules under study.

Local rules are preorders over state vectors (see `engine.LocalRule`);
round-robin and the seeded random rule are global rules carrying explicit,
replayable state.  `RULES` maps the stable command-line identifiers to
factories.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .core import Game
from .engine import (
    DeviatorRule,
    EngineError,
    LocalRule,
    StateVector,
)
from .networks import NetworkFormationGame, NfgStateVector
from .scheduling import SchedStateVector, SchedulingGame, l_star


def _own_load(v: SchedStateVector) -> Fraction:
    return v.loads[v.machine - 1]


def max_cost() -> LocalRule:
    """Highest current cost first."""

    def build(game: Game | None):
        def key(v: StateVector) -> Fraction:
            if isinstance(v, NfgStateVector):
                return v.current_cost
            load = _own_load(v)
            if game is not None and isinstance(game, SchedulingGame):
                return game.job_cost_at_load(load)
            return load

        return key

    return LocalRule("max-cost", build)


def min_path() -> LocalRule:
    """Cheapest best-response path first (network games only)."""

    def build(game: Game | None):
        def key(v: StateVector) -> Fraction:
            assert isinstance(v, NfgStateVector)
            return -v.br_path_cost

        return key

    return LocalRule(
        "min-path", build, accepts=lambda g: isinstance(g, NetworkFormationGame)
    )


def max_improvement() -> LocalRule:
    """Largest cost decrease from a best response first."""

    def build(game: Game | None):
        def key(v: StateVector) -> Fraction:
            if isinstance(v, NfgStateVector):
                return v.current_cost - v.br_cost
            own = _own_load(v)
            others = [
                load + v.length
                for m, load in enumerate(v.loads, start=1)
                if m != v.machine
            ]
            if game is not None and isinstance(game, SchedulingGame):
                best = min(game.job_cost_at_load(x) for x in others)
                return game.job_cost_at_load(own) - best
            return own - min(others)

        return key

    return LocalRule("max-improvement", build)


def longest_job() -> LocalRule:
    def build(game: Game | None):
        def key(v: StateVector) -> Fraction:
            assert isinstance(v, SchedStateVector)
            return v.length

        return key

    return LocalRule(
        "longest-job", build, accepts=lambda g: isinstance(g, SchedulingGame)
    )


class RoundRobinRule(DeviatorRule):
    """Cyclic scan from the last chosen id; the cursor is run state."""

    name = "round-robin"
    is_stateless = False

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self, game: Game) -> None:
        self._cursor = 0

    def choose(self, game, profile, suboptimal, vectors):
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

    def choose(self, game, profile, suboptimal, vectors):
        return (self._rng.choice(sorted(suboptimal)),)


def round_robin() -> RoundRobinRule:
    return RoundRobinRule()


def random_rule(seed: int = 0) -> RandomRule:
    return RandomRule(seed)


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
        if v.machine == top and v.loads[top - 1] >= star:
            return 2
        if v.machine == bottom:
            return 1
        return 0

    return key


def s_opt_rule() -> LocalRule:
    """The optimal local deviator rule for conflicting congestion effects.

    The engine only consults rules when suboptimal players exist, so the
    rule's equilibrium signal is the engine's own Nash test.
    """

    def build(game: Game | None):
        if game is None:
            raise EngineError("s-opt needs the activation cost; score with "
                              "s_opt_vector_key(B) for bare-vector audits")
        if not (isinstance(game, SchedulingGame) and game.is_conflicting):
            raise EngineError("s-opt applies to the conflicting model only")
        assert game.activation_cost is not None
        return s_opt_vector_key(game.activation_cost)

    return LocalRule(
        "s-opt",
        build,
        accepts=lambda g: isinstance(g, SchedulingGame) and g.is_conflicting,
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
