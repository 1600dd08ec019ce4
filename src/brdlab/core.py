"""Core congestion-game model.

A game holds an ordered set of players, a finite strategy space per player
(each strategy is a tuple of resource ids), and one of four closed resource
cost models.  All arithmetic is exact: the instances this package studies
hinge on epsilon-perturbations and exact ties, which floating point would
corrupt.  Loads are integers in a per-game load unit and costs integers in
a per-game cost unit, in which `share_unit` makes every share of a load
exact; every public cost, load and state-vector field is a `Fraction`,
built where it is read.

A strategy profile is the plain tuple of each player's strategy index, so it
is immutable and hashable, and searches key their states by it directly;
`strategy_index` maps a resource tuple back to its index through one dict
per strategy space.
Every operation here is a pure function of (game, profile), so games and
profiles can be shared freely across concurrent evaluations.

Every cost and best-response reader answers from one `Evaluation` of the
profile: its integer load map, built once, and per (player class, strategy)
a lazily computed `Cell` holding the cost of every strategy against
everyone else's loads.  A walk evaluates its first profile and derives each
later one from its parent with `Evaluation.child`, which patches a copy of
the loads on the mover's old and new resources and carries nothing else, so
every cell is computed one way, by `Game._cell`.  Searches evaluate every
profile they visit afresh, and the oracle's searches build a state past the
start without validating it again, since it is the child of a move.
Who is suboptimal, and where each suboptimal (class, strategy) may move, is
each model's one verdict per profile, `_moving_groups`, which
`suboptimal_players` and the oracle's moves read: by default one cell per
occupied (class, strategy), while scheduling games, where a job's cost is a
function of her machine's load, decide it from the loads alone and build
no cell, and identical jobs from machine counts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

PlayerId = int
ResourceId = int
Strategy = tuple[ResourceId, ...]
Cost = Fraction

ZERO = Fraction(0)

# the largest strategy space a game materializes: network games list their
# paths and scheduling games their machines up front
STRATEGY_CAP = 10_000

# the largest total load whose share unit lcm(1..W) a game builds: at the
# cap the unit has 94,449 bits and takes seconds to compute
SHARE_CAP = 65_536


class SocialCostKind(Enum):
    SUM = "sum"
    MAKESPAN = "makespan"


class GameError(ValueError):
    """Invalid game construction or use of an operation outside its model."""


class UnsupportedModelError(GameError):
    """Operation applied to a cost model it is not defined for."""


class InvalidProfileError(GameError):
    """Profile inconsistent with the game it is evaluated against."""


def share_unit(total_load: int) -> int:
    """lcm(1..W) for a total load W, which every load a player can join
    divides: the product of each prime's largest power up to W."""
    if total_load > SHARE_CAP:
        raise GameError(f"total load {total_load} in the load unit passes the share cap {SHARE_CAP}")
    composite = bytearray(total_load + 1)
    unit = 1
    for p in range(2, total_load + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, total_load + 1, p))
            power = p
            while power * p <= total_load:
                power *= p
            unit *= power
    return unit


def as_fraction(x: Fraction | int | str) -> Fraction:
    """`x` as a `Fraction`, converted only when it is not one already, so
    a weight read from a document is converted once."""
    return x if isinstance(x, Fraction) else Fraction(x)


# one strategy index per player, ordered by player id: indices into each
# player's strategy space keep profiles cheap to hash and compare during
# state-space search; `Game.strategy_of` recovers the resource tuple
Profile = tuple[int, ...]


class Cell(NamedTuple):
    """One position's view of a profile: the cost of each of its strategies
    against everyone else's loads, integers in the game's cost unit, and its
    best responses."""

    costs: tuple[int, ...]
    br: tuple[int, ...]


class Evaluation:
    """One profile's load map, integers in the game's load unit, and each
    position's `Cell` on first request.  A cell depends only on the
    position's class and strategy, so clones on one strategy share it, and
    so do relabelings of the profile (see `relabeled`).  Nothing is
    carried from the evaluation a `child` came from but its loads."""

    def __init__(self, game: "Game", profile: Profile) -> None:
        self.game = game
        self.profile = profile
        self.loads = game._full_loads(profile)
        self._cells: dict[tuple[int, int], Cell] = {}
        self._groups: list[tuple[int, tuple[int, ...]]] | None = None

    def _derived(self, profile: Profile, loads: dict[ResourceId, int],
                 cells: dict) -> "Evaluation":
        """An evaluation of the same game built field by field, without
        `__init__`'s load pass: searches and walks make one per state."""
        ev = object.__new__(Evaluation)
        ev.game, ev.profile, ev.loads, ev._cells = self.game, profile, loads, cells
        ev._groups = None
        return ev

    def relabeled(self, profile: Profile) -> "Evaluation":
        """An evaluation of `profile`, a permutation of this profile among
        interchangeable players: it has the same loads and cells."""
        return self._derived(profile, self.loads, self._cells)

    def child(self, pos: int, idx: int) -> "Evaluation":
        """The evaluation after the position moves to strategy `idx`: a copy
        of the loads patched on her old and new resources, with no cells
        yet."""
        game, profile = self.game, self.profile
        space, w = game._spaces[pos], game._load_weights[pos]
        old, new = space[profile[pos]], space[idx]
        loads = dict(self.loads)
        for e in old:
            loads[e] -= w
            if not loads[e]:
                # the keys are the used resources: s-opt reads them as the
                # active machines
                del loads[e]
        for e in new:
            loads[e] = loads.get(e, 0) + w
        return self._derived(game.with_choice(profile, pos + 1, idx), loads, {})

    def cell(self, pos: int) -> Cell:
        key = (self.game._class_ids[pos], self.profile[pos])
        return self._cells.get(key) or self._fill(key)

    def _fill(self, key: tuple[int, int]) -> Cell:
        """Compute and keep the cell of a (class, strategy) key that some
        position holds."""
        cell = self._cells[key] = self.game._cell(key, self.loads)
        return cell

    def cost(self, pos: int) -> Cost:
        return self.cost_to(pos, self.profile[pos])

    def cost_to(self, pos: int, idx: int) -> Cost:
        """The position's cost once it has moved to strategy `idx`: the one
        place a cell cost becomes a `Fraction`."""
        return Fraction(self.cell(pos).costs[idx], self.game._cost_unit)

    def is_suboptimal(self, pos: int) -> bool:
        return self.profile[pos] not in self.cell(pos).br

    def moving_groups(self) -> list[tuple[int, tuple[int, ...]]]:
        """The game's `_moving_groups` verdict on this profile, computed on
        first request: the oracle's moves, the suboptimal players and a
        rule's choice at a state all read it."""
        if self._groups is None:
            self._groups = self.game._moving_groups(self)
        return self._groups


def _ranked(costs: list[int]) -> Cell:
    """The cell of these costs: its best responses are every strategy
    attaining the minimum."""
    best = min(costs)
    if costs.count(best) == 1:
        return Cell(tuple(costs), (costs.index(best),))
    return Cell(tuple(costs), tuple(i for i, c in enumerate(costs) if c == best))


class Game(ABC):
    """Abstract congestion game over a fixed player list 1..n.

    Subclasses fix the resource model by implementing `_costs_against`:
    the cost to a position of moving to each of its strategies, read from
    the full load map and the strategy it holds, in multiples of
    1/`_cost_unit`.
    """

    # costs count in multiples of 1/_cost_unit, which each model fixes
    _cost_unit: int = 1

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
        # players handed one space object share one tuple of it
        shared: dict[int, tuple[Strategy, ...]] = {}
        for space in spaces:
            if id(space) in shared:
                continue
            if not space:
                raise GameError("every player needs a non-empty strategy space")
            for strategy in space:
                if not strategy:
                    raise GameError("strategies must use at least one resource")
            shared[id(space)] = tuple(tuple(s) for s in space)
        self._spaces: tuple[tuple[Strategy, ...], ...] = tuple(shared[id(s)] for s in spaces)
        self._weights = tuple(map(as_fraction, weights))
        for w in self._weights:
            if w.numerator <= 0:
                raise GameError(f"weights must be positive, got {w}")
        self._kind = social_cost_kind
        # loads count in multiples of 1/_load_unit, so every weight is an integer
        u = self._load_unit = math.lcm(*(w.denominator for w in self._weights))
        self._load_weights = tuple(w.numerator * (u // w.denominator) for w in self._weights)

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._spaces)

    @property
    def players(self) -> tuple[PlayerId, ...]:
        return tuple(range(1, self.n + 1))

    def position_of(self, player: PlayerId) -> int:
        if not 1 <= player <= len(self._spaces):
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
        pos = self.position_of(player)
        return self._spaces[pos][profile[pos]]

    def with_choice(self, profile: Profile, player: PlayerId, index: int) -> Profile:
        """`profile` with the player moved to strategy `index`."""
        pos = self.position_of(player)
        return profile[:pos] + (index,) + profile[pos + 1:]

    def profile_from_strategies(
        self, assignment: Mapping[PlayerId, Strategy] | Iterable[Strategy]
    ) -> Profile:
        if isinstance(assignment, Mapping):
            ordered = [assignment[i] for i in self.players]
        else:
            ordered = [tuple(s) for s in assignment]
        if len(ordered) != self.n:
            raise InvalidProfileError("profile must assign every player")
        return tuple(map(self.strategy_index, self.players, ordered))

    def strategy_index(self, player: PlayerId, strategy: Iterable[ResourceId]) -> int:
        """The index of the strategy with these resources in the player's
        space, from one map per space."""
        index = self._indices[id(self._spaces[self.position_of(player)])]
        key = tuple(strategy)
        try:
            return index[key]
        except (KeyError, TypeError):  # an unhashable strategy is unknown too
            raise InvalidProfileError(
                f"player {player} assigned a strategy outside her space: {strategy}"
            ) from None

    @cached_property
    def _indices(self) -> dict[int, dict[Strategy, int]]:
        """Per strategy space, keyed by its id, each strategy's first index."""
        indices: dict[int, dict[Strategy, int]] = {}
        for space in self._spaces:
            if id(space) not in indices:
                index = indices[id(space)] = {}
                for i, strategy in enumerate(space):
                    index.setdefault(strategy, i)
        return indices

    def validate_profile(self, profile: Profile) -> None:
        if len(profile) != self.n:
            raise InvalidProfileError("profile length does not match player count")
        for player, (idx, space) in enumerate(zip(profile, self._spaces), start=1):
            if not 0 <= idx < len(space):
                raise InvalidProfileError(
                    f"player {player} holds strategy index {idx} outside her space"
                )

    # -- loads and costs ----------------------------------------------------

    def _full_loads(self, profile: Profile) -> dict[ResourceId, int]:
        """Load of every used resource, in the load unit."""
        loads: dict[ResourceId, int] = {}
        for space, w, idx in zip(self._spaces, self._load_weights, profile, strict=True):
            for e in space[idx]:
                loads[e] = loads.get(e, 0) + w
        return loads

    @abstractmethod
    def _costs_against(
        self, pos: int, own: int, loads: Mapping[ResourceId, int]
    ) -> list[int]:
        """The cost to the position, holding strategy `own` in the full
        `loads`, of each of her strategies once she has moved to it, in
        multiples of 1/_cost_unit."""

    def _cell(self, key: tuple[int, int], loads: Mapping[ResourceId, int]) -> Cell:
        """The cell of a (class, strategy) key in `loads`; the class is
        named by its first position."""
        return _ranked(self._costs_against(*key, loads))

    def evaluate(self, at: "Profile | Evaluation") -> Evaluation:
        """The evaluation every cost and best-response reader goes through;
        an evaluation passes through unchanged, so readers take either."""
        if isinstance(at, Evaluation):
            return at
        self.validate_profile(at)
        return Evaluation(self, at)

    def player_cost(self, at: Profile | Evaluation, player: PlayerId) -> Cost:
        return self.evaluate(at).cost(self.position_of(player))

    def social_cost(self, at: Profile | Evaluation) -> Cost:
        return Fraction(self._social_units(self.evaluate(at)), self._cost_unit)

    def _social_units(self, ev: Evaluation) -> int:
        """The social cost in multiples of 1/_cost_unit."""
        costs = [ev.cell(pos).costs[idx] for pos, idx in enumerate(ev.profile)]
        return sum(costs) if self._kind is SocialCostKind.SUM else max(costs)

    # -- best responses -----------------------------------------------------

    def best_response(self, at: Profile | Evaluation, player: PlayerId) -> tuple[int, ...]:
        """All strategy indices attaining the player's minimum cost, her
        current one included."""
        return self.evaluate(at).cell(self.position_of(player)).br

    def is_suboptimal(self, at: Profile | Evaluation, player: PlayerId) -> bool:
        """Strict-improvement semantics: an indifferent player never moves."""
        return self.evaluate(at).is_suboptimal(self.position_of(player))

    def suboptimal_players(self, at: Profile | Evaluation) -> tuple[PlayerId, ...]:
        """Ascending ids, from the model's `_moving_groups` verdict: one
        cell per occupied (class, strategy), or for scheduling the loads
        alone."""
        return self._suboptimal(self.evaluate(at))

    def _suboptimal(self, ev: Evaluation) -> tuple[PlayerId, ...]:
        """The suboptimal players' ids, ascending: every holder of a moving
        group."""
        class_ids, profile = self._class_ids, ev.profile
        moving = {(class_ids[pos], profile[pos]) for pos, _ in ev.moving_groups()}
        if not moving:
            return ()
        return tuple(pos + 1 for pos, key in enumerate(zip(class_ids, profile)) if key in moving)

    def _moving_groups(self, ev: Evaluation) -> list[tuple[int, tuple[int, ...]]]:
        """Each occupied (class, strategy) whose holders are suboptimal, as
        its first position and its best responses, in `_heads` order: the
        one best-response verdict per profile that `suboptimal_players` and
        the oracle's moves read.  Clones on one strategy share a cell, so
        one cell per occupied (class, strategy) decides for all of them."""
        profile, cells, fill, class_ids = ev.profile, ev._cells, ev._fill, self._class_ids
        groups = []
        for pos in self._heads(profile):
            key = (class_ids[pos], profile[pos])
            br = (cells.get(key) or fill(key)).br
            if key[1] not in br:
                groups.append((pos, br))
        return groups

    def _heads(self, profile: Profile) -> list[int]:
        """The first position on each occupied (class, strategy), class by
        class and then by first holder: the order of the oracle's moves,
        which fixes its parent links and witnesses."""
        first: dict[tuple[int, int], int] = {}
        for pos, key in enumerate(zip(self._class_ids, profile)):
            if key not in first:
                first[key] = pos
        # a stable sort keeps each class's first holders in position order
        return sorted(first.values(), key=self._class_ids.__getitem__)

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
            for k in range(1, load + 1):
                total += self._unit_resource_cost(e, k)
        return total

    # -- symmetry -----------------------------------------------------------

    def player_classes(self) -> tuple[tuple[int, ...], ...]:
        """The positions of each group of players sharing weight and
        strategy space.

        Members of a class are interchangeable: permuting them maps legal
        best-response sequences to legal ones and preserves social cost,
        which lets searches quotient the profile space.
        """
        groups: dict[int, list[int]] = {}
        for pos, first in enumerate(self._class_ids):
            groups.setdefault(first, []).append(pos)
        return tuple(tuple(group) for group in groups.values())

    @cached_property
    def _class_ids(self) -> tuple[int, ...]:
        """Each position's class, named by its first position.  Weights
        compare as their integer load weights, which the one load unit
        makes equal exactly when the weights are."""
        first: dict[tuple, int] = {}
        return tuple(
            first.setdefault((w, space), pos)
            for pos, (w, space) in enumerate(zip(self._load_weights, self._spaces))
        )
