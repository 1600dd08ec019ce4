"""Core congestion-game model.

A game holds an ordered set of players, a finite strategy space per player
(each strategy is a tuple of resource ids), and one of four closed resource
cost models.  All arithmetic is exact (`fractions.Fraction`); the instances
this package studies hinge on epsilon-perturbations and exact ties, which
floating point would corrupt.

Strategy profiles are immutable and hashable; every operation here is a pure
function of (game, profile), so games and profiles can be shared freely
across concurrent evaluations.

Every cost and best-response reader answers from one `Evaluation` of the
profile: its weighted load map, built once, and per (player class,
strategy) a lazily computed `Cell` holding the cost of every strategy
against everyone else's loads.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

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
        return Profile(self.choices[:pos] + (index,) + self.choices[pos + 1:])


@dataclass(frozen=True)
class PlayerClass:
    """A maximal set of interchangeable players (same weight, same space)."""

    positions: tuple[int, ...]


class Cell(NamedTuple):
    """One position's view of a profile: the cost of each of its strategies
    against everyone else's loads, its best responses and their cost."""

    costs: tuple[Cost, ...]
    br: tuple[int, ...]
    br_cost: Cost


class Evaluation:
    """One profile's weighted load map, and each position's `Cell` on first
    request.  A cell depends only on the position's class and strategy, so
    clones on one strategy share it, and so do relabelings of the profile
    (see `relabeled`)."""

    def __init__(self, game: "Game", profile: Profile) -> None:
        self.game = game
        self.profile = profile
        self.loads = game._full_loads(profile)
        self._cells: dict[tuple[int, int], Cell] = {}

    def relabeled(self, profile: Profile) -> "Evaluation":
        """An evaluation of `profile`, a permutation of this profile among
        interchangeable players: it has the same loads and cells."""
        ev = copy.copy(self)
        ev.profile = profile
        return ev

    def others(self, pos: int) -> dict[ResourceId, Fraction]:
        """Everyone else's weighted loads: the full map without `pos`."""
        loads = dict(self.loads)
        w, space = self.game._weights[pos], self.game._spaces[pos]
        for e in space[self.profile.choices[pos]]:
            loads[e] -= w
        return loads

    def cell(self, pos: int) -> Cell:
        key = (self.game._class_ids[pos], self.profile.choices[pos])
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self.game._br_against(pos + 1, self.others(pos))
        return cell

    def cost(self, pos: int) -> Cost:
        return self.cell(pos).costs[self.profile.choices[pos]]

    def cost_to(self, pos: int, idx: int) -> Cost:
        """The position's cost once it has moved to strategy `idx`."""
        return self.cell(pos).costs[idx]

    def is_suboptimal(self, pos: int) -> bool:
        return self.profile.choices[pos] not in self.cell(pos).br


class Game(ABC):
    """Abstract congestion game over a fixed player list 1..n.

    Subclasses fix the resource model by implementing `_cost_against`:
    the cost a player incurs by playing `strategy` against the weighted
    loads of everyone else (the loads exclude the player herself).
    """

    # what `evaluate` builds; a game may add projections of its own
    _evaluation_type: type[Evaluation] = Evaluation

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

    @cached_property
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
        for player, (idx, space) in enumerate(zip(profile.choices, self._spaces), start=1):
            if not 0 <= idx < len(space):
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

    @abstractmethod
    def _cost_against(
        self, player: PlayerId, strategy: Strategy, loads: Mapping[ResourceId, Fraction]
    ) -> Fraction:
        """Cost of `strategy` for `player` given everyone else's weighted loads."""

    def _br_against(self, player: PlayerId, loads: Mapping[ResourceId, Fraction]) -> Cell:
        """The player's cell against everyone else's `loads`; the best
        responses are every strategy attaining the minimum, the player's
        current one included."""
        costs = tuple(self._cost_against(player, s, loads) for s in self.strategy_space(player))
        best = min(costs)
        return Cell(costs, tuple(i for i, c in enumerate(costs) if c == best), best)

    def evaluate(self, at: "Profile | Evaluation") -> Evaluation:
        """The evaluation every cost and best-response reader goes through;
        an evaluation passes through unchanged, so readers take either."""
        if isinstance(at, Evaluation):
            return at
        self.validate_profile(at)
        return self._evaluation_type(self, at)

    def player_cost(self, at: Profile | Evaluation, player: PlayerId) -> Cost:
        return self.evaluate(at).cost(self.position_of(player))

    def social_cost(self, at: Profile | Evaluation) -> Cost:
        ev = self.evaluate(at)
        costs = [ev.cost(pos) for pos in range(self.n)]
        if self._kind is SocialCostKind.SUM:
            return sum(costs, ZERO)
        return max(costs)

    # -- best responses -----------------------------------------------------

    def best_response(self, at: Profile | Evaluation, player: PlayerId) -> tuple[int, ...]:
        """All strategy indices attaining the player's minimum cost, her
        current one included."""
        return self.evaluate(at).cell(self.position_of(player)).br

    def is_suboptimal(self, at: Profile | Evaluation, player: PlayerId) -> bool:
        """Strict-improvement semantics: an indifferent player never moves."""
        return self.evaluate(at).is_suboptimal(self.position_of(player))

    def suboptimal_players(self, at: Profile | Evaluation) -> tuple[PlayerId, ...]:
        ev = self.evaluate(at)
        return tuple(pos + 1 for pos in range(self.n) if ev.is_suboptimal(pos))

    def is_nash(self, at: Profile | Evaluation) -> bool:
        return not self.suboptimal_players(at)

    def canonical_br_pick(self, at: Profile | Evaluation, player: PlayerId) -> int:
        """Deterministic member of the best-response set (lowest index)."""
        return min(self.evaluate(at).cell(self.position_of(player)).br)

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
        groups: dict[int, list[int]] = {}
        for pos, first in enumerate(self._class_ids):
            groups.setdefault(first, []).append(pos)
        return tuple(PlayerClass(tuple(group)) for group in groups.values())

    @cached_property
    def _class_ids(self) -> tuple[int, ...]:
        """Each position's class, named by its first position."""
        first: dict[tuple, int] = {}
        return tuple(
            first.setdefault((w, space), pos)
            for pos, (w, space) in enumerate(zip(self._weights, self._spaces))
        )
