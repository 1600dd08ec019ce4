"""Core congestion-game model.

A game holds an ordered set of players, a finite strategy space per player
(each strategy is a tuple of resource ids), and one of four closed resource
cost models.  All arithmetic is exact (`fractions.Fraction`); the instances
this package studies hinge on epsilon-perturbations and exact ties, which
floating point would corrupt.

Strategy profiles are immutable and hashable; every operation here is a pure
function of (game, profile), so games and profiles can be shared freely
across concurrent evaluations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

PlayerId = int
ResourceId = int
Strategy = tuple[ResourceId, ...]
Cost = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# the largest strategy space a game materializes: network games list their
# paths and scheduling games their machines up front
STRATEGY_CAP = 10_000


class SocialCostKind(Enum):
    SUM = "sum"
    MAKESPAN = "makespan"


class GameError(ValueError):
    """Invalid game construction or use of an operation outside its model."""


class UnsupportedModelError(GameError):
    """Operation applied to a cost model it is not defined for."""


class InvalidProfileError(GameError):
    """Profile inconsistent with the game it is evaluated against."""


@dataclass(frozen=True)
class Profile:
    """One strategy index per player, ordered by player id.

    Indices refer into each player's strategy space, which keeps profiles
    cheap to hash and compare during state-space search.  Use
    `Game.strategy_of` to recover the actual resource tuple.
    """

    choices: tuple[int, ...]

    def choice(self, game: "Game", player: PlayerId) -> int:
        return self.choices[game.position_of(player)]

    def with_choice(self, game: "Game", player: PlayerId, index: int) -> "Profile":
        pos = game.position_of(player)
        c = list(self.choices)
        c[pos] = index
        return Profile(tuple(c))


@dataclass(frozen=True)
class PlayerClass:
    """A maximal set of interchangeable players (same weight, same space)."""

    positions: tuple[int, ...]


class Game(ABC):
    """Abstract congestion game over a fixed player list 1..n.

    Subclasses fix the resource model by implementing `_cost_against`:
    the cost a player incurs by playing `strategy` against the weighted
    loads of everyone else (the loads exclude the player herself).
    """

    def __init__(
        self,
        spaces: Sequence[Sequence[Strategy]],
        weights: Sequence[Fraction],
        social_cost_kind: SocialCostKind,
    ) -> None:
        if not spaces:
            raise GameError("a game needs at least one player")
        if len(spaces) != len(weights):
            raise GameError("one weight per player required")
        for space in spaces:
            if not space:
                raise GameError("every player needs a non-empty strategy space")
            for strategy in space:
                if not strategy:
                    raise GameError("strategies must use at least one resource")
        for w in weights:
            if w <= 0:
                raise GameError(f"weights must be positive, got {w}")
        self._spaces: tuple[tuple[Strategy, ...], ...] = tuple(
            tuple(tuple(s) for s in space) for space in spaces
        )
        self._weights = tuple(Fraction(w) for w in weights)
        self._kind = social_cost_kind
        self._classes: tuple[PlayerClass, ...] | None = None

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._spaces)

    @property
    def players(self) -> tuple[PlayerId, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def social_cost_kind(self) -> SocialCostKind:
        return self._kind

    def position_of(self, player: PlayerId) -> int:
        if not 1 <= player <= self.n:
            raise InvalidProfileError(f"unknown player id {player}")
        return player - 1

    def strategy_space(self, player: PlayerId) -> tuple[Strategy, ...]:
        return self._spaces[self.position_of(player)]

    def weight(self, player: PlayerId) -> Fraction:
        return self._weights[self.position_of(player)]

    @property
    def is_unweighted(self) -> bool:
        return all(w == 1 for w in self._weights)

    def strategy_of(self, profile: Profile, player: PlayerId) -> Strategy:
        return self.strategy_space(player)[profile.choice(self, player)]

    def profile_from_strategies(
        self, assignment: Mapping[PlayerId, Strategy] | Iterable[Strategy]
    ) -> Profile:
        if isinstance(assignment, Mapping):
            ordered = [assignment[i] for i in self.players]
        else:
            ordered = [tuple(s) for s in assignment]
        if len(ordered) != self.n:
            raise InvalidProfileError("profile must assign every player")
        indices = []
        for player, strategy in zip(self.players, ordered):
            space = self.strategy_space(player)
            try:
                indices.append(space.index(tuple(strategy)))
            except ValueError:
                raise InvalidProfileError(
                    f"player {player} assigned a strategy outside her space: {strategy}"
                ) from None
        return Profile(tuple(indices))

    def validate_profile(self, profile: Profile) -> None:
        if len(profile.choices) != self.n:
            raise InvalidProfileError("profile length does not match player count")
        for player in self.players:
            idx = profile.choices[player - 1]
            if not 0 <= idx < len(self.strategy_space(player)):
                raise InvalidProfileError(
                    f"player {player} holds strategy index {idx} outside her space"
                )

    # -- loads and costs ----------------------------------------------------

    def _full_loads(self, profile: Profile) -> dict[ResourceId, Fraction]:
        """Weighted load of every used resource."""
        loads: dict[ResourceId, Fraction] = {}
        for space, w, idx in zip(self._spaces, self._weights, profile.choices, strict=True):
            for e in space[idx]:
                loads[e] = loads.get(e, ZERO) + w
        return loads

    def _without(
        self, full: Mapping[ResourceId, Fraction], profile: Profile, player: PlayerId
    ) -> dict[ResourceId, Fraction]:
        loads = dict(full)
        pos = player - 1
        w = self._weights[pos]
        for e in self._spaces[pos][profile.choices[pos]]:
            loads[e] -= w
        return loads

    def _loads_excluding(self, profile: Profile, player: PlayerId) -> dict[ResourceId, Fraction]:
        return self._without(self._full_loads(profile), profile, player)

    @abstractmethod
    def _cost_against(
        self, player: PlayerId, strategy: Strategy, loads: Mapping[ResourceId, Fraction]
    ) -> Fraction:
        """Cost of `strategy` for `player` given everyone else's weighted loads."""

    def player_cost(self, profile: Profile, player: PlayerId) -> Cost:
        self.validate_profile(profile)
        self.position_of(player)
        loads = self._loads_excluding(profile, player)
        return self._cost_against(player, self.strategy_of(profile, player), loads)

    def social_cost(self, profile: Profile) -> Cost:
        self.validate_profile(profile)
        full = self._full_loads(profile)
        costs = [
            self._cost_against(i, self.strategy_of(profile, i), self._without(full, profile, i))
            for i in self.players
        ]
        if self._kind is SocialCostKind.SUM:
            return sum(costs, ZERO)
        return max(costs)

    # -- best responses -----------------------------------------------------

    def best_response(self, profile: Profile, player: PlayerId) -> tuple[int, ...]:
        """All strategy indices attaining the player's minimum cost.

        Each candidate is evaluated with the player removed from her current
        strategy first, so the full argmin set (including possibly her
        current strategy) is returned.
        """
        self.validate_profile(profile)
        self.position_of(player)
        return self._br_against(player, self._loads_excluding(profile, player))[0]

    def _br_against(
        self, player: PlayerId, loads: Mapping[ResourceId, Fraction]
    ) -> tuple[tuple[int, ...], Fraction]:
        best: Fraction | None = None
        winners: list[int] = []
        for idx, strategy in enumerate(self.strategy_space(player)):
            c = self._cost_against(player, strategy, loads)
            if best is None or c < best:
                best = c
                winners = [idx]
            elif c == best:
                winners.append(idx)
        assert best is not None
        return tuple(winners), best

    def is_suboptimal(self, profile: Profile, player: PlayerId) -> bool:
        """Strict-improvement semantics: an indifferent player never moves."""
        self.position_of(player)
        br, _ = self._br_against(player, self._loads_excluding(profile, player))
        return profile.choice(self, player) not in br

    def suboptimal_players(self, profile: Profile) -> tuple[PlayerId, ...]:
        self.validate_profile(profile)
        full = self._full_loads(profile)
        out = []
        for player in self.players:
            br, _ = self._br_against(player, self._without(full, profile, player))
            if profile.choice(self, player) not in br:
                out.append(player)
        return tuple(out)

    def is_nash(self, profile: Profile) -> bool:
        return not self.suboptimal_players(profile)

    def canonical_br_pick(self, profile: Profile, player: PlayerId) -> int:
        """Deterministic member of the best-response set (lowest index)."""
        return min(self.best_response(profile, player))

    # -- potential ----------------------------------------------------------

    def _unit_resource_cost(self, resource: ResourceId, multiplicity: int) -> Fraction:
        raise UnsupportedModelError(
            f"{type(self).__name__} does not define a unit resource cost"
        )

    def rosenthal_potential(self, profile: Profile) -> Cost:
        """Exact potential for unit-weight games: any unilateral move changes
        the potential by exactly the mover's cost change."""
        if not self.is_unweighted:
            raise UnsupportedModelError("potential is defined for unit weights only")
        self.validate_profile(profile)
        total = ZERO
        for e, load in self._full_loads(profile).items():
            # unit weights: the load is the number of users
            for k in range(1, int(load) + 1):
                total += self._unit_resource_cost(e, k)
        return total

    # -- symmetry -----------------------------------------------------------

    def player_classes(self) -> tuple[PlayerClass, ...]:
        """Groups of players sharing weight and strategy space.

        Members of a class are interchangeable: permuting them maps legal
        best-response sequences to legal ones and preserves social cost,
        which lets searches quotient the profile space.
        """
        if self._classes is None:
            by_sig: dict[tuple, list[int]] = {}
            for pos in range(self.n):
                sig = (self._weights[pos], self._spaces[pos])
                by_sig.setdefault(sig, []).append(pos)
            self._classes = tuple(
                PlayerClass(tuple(group)) for group in by_sig.values()
            )
        return self._classes
