"""Best-response dynamics engine.

Runs deviator rules over games, records traces, and checks the locality
condition (independence of irrelevant players) for rules expressed over
state vectors.

A deviator rule maps (game, profile, suboptimal players, their state
vectors) to a non-empty choice set of suboptimal players.  Local rules are
total preorders over state vectors, which makes the locality condition hold
by construction; arbitrary rules can be audited with `check_iip`.

Tie semantics: the engine breaks rule ties by lowest player id, and a chosen
player's tied best responses by the game's canonical pick.  Branching over
best-response ties (the "breaking ties arbitrarily" in the move, not the
rule) is what `reachable_by_rule` explores to compute the full set of
equilibria a rule can reach.  `rule_successors` is the one definition of a
rule's moves; runs and searches all go through it.

`parent_search` is the one depth-first reachability search with parent
links, and `replay_links` the one witness replay over those links: both
`reachable_by_rule` here and `oracle.reachable_ne` run on them, over the
rule's moves and over every best-response move respectively.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from .core import Cost, Evaluation, Game, GameError, PlayerId, Profile, Strategy
from .networks import NfgStateVector
from .scheduling import SchedStateVector

StateVector = NfgStateVector | SchedStateVector


class EngineError(GameError):
    pass


class StepBudgetExceeded(EngineError):
    pass


class StateBudgetExceeded(EngineError):
    pass


class CycleDetected(EngineError):
    """A best-response cycle outside the potential-guaranteed models."""


class RuleViolation(EngineError):
    """A rule chose a player outside the suboptimal set, or no player."""


class ScriptError(EngineError):
    """A forced move is not a legal strict-improvement best response."""


def profile_digest(profile: Profile) -> str:
    data = ",".join(str(c) for c in profile.choices).encode()
    return hashlib.sha1(data).hexdigest()[:12]


@dataclass(frozen=True)
class Move:
    step: int
    player: PlayerId
    old_strategy: Strategy
    new_strategy: Strategy
    cost_before: Cost
    cost_after: Cost
    profile_digest: str


@dataclass(frozen=True)
class Trace:
    initial: Profile
    moves: tuple[Move, ...]
    terminal: Profile
    terminal_is_ne: bool

    def deviator_order(self) -> tuple[PlayerId, ...]:
        return tuple(m.player for m in self.moves)


def state_vector(game: Game, at: Profile | Evaluation, player: PlayerId) -> StateVector:
    return game.state_vector(at, player)


def state_vectors(game: Game, at: Profile | Evaluation,
                  players: Sequence[PlayerId]) -> dict[PlayerId, StateVector]:
    ev = game.evaluate(at)
    return {i: game.state_vector(ev, i) for i in players}


# -- rules ---------------------------------------------------------------------


class DeviatorRule(ABC):
    """Selects the next deviating player among the suboptimal ones."""

    name: str = "rule"
    # False for rules that carry run state (a cursor, a seeded generator)
    is_stateless: bool = True

    def reset(self, game: Game) -> None:
        """Called once per run; stateful rules rebuild cursor/seed state."""

    def accepts(self, game: Game) -> bool:
        return True

    @abstractmethod
    def choose(
        self,
        game: Game,
        profile: Profile,
        suboptimal: tuple[PlayerId, ...],
        vectors: Mapping[PlayerId, StateVector],
    ) -> tuple[PlayerId, ...]:
        """Non-empty choice set, a subset of `suboptimal`."""


class LocalRule(DeviatorRule):
    """A total preorder over state vectors; the choice set is the owners of
    the maximal vectors.  `key_builder(game)` returns the scoring function,
    letting rules close over public game parameters (e.g. the activation
    cost); pass `game=None` to score bare vectors in locality audits.
    """

    def __init__(
        self,
        name: str,
        key_builder: Callable[[Game | None], Callable[[StateVector], object]],
        accepts: Callable[[Game], bool] | None = None,
    ) -> None:
        self.name = name
        self._key_builder = key_builder
        self._accepts = accepts

    def accepts(self, game: Game) -> bool:
        return self._accepts(game) if self._accepts else True

    def choose(self, game, profile, suboptimal, vectors):
        chosen = self.vector_chooser(game)([vectors[i] for i in suboptimal])
        return tuple(suboptimal[k] for k in chosen)

    def vector_chooser(
        self, game: Game | None = None
    ) -> Callable[[Sequence[StateVector]], tuple[int, ...]]:
        """Choice-set function over bare vector profiles, for IIP audits."""
        key = self._key_builder(game)

        def choose(vectors: Sequence[StateVector]) -> tuple[int, ...]:
            keys = [key(v) for v in vectors]
            best = max(keys)
            return tuple(i for i, k in enumerate(keys) if k == best)

        return choose


class LowestIdRule(DeviatorRule):
    """Baseline: the whole suboptimal set, which the engine's tie-break
    collapses to the lowest id.  Useful for cleanup phases and tests."""

    name = "lowest-id"

    def choose(self, game, profile, suboptimal, vectors):
        return suboptimal


def _check_rule_output(
    choice: tuple[PlayerId, ...], suboptimal: tuple[PlayerId, ...], rule: DeviatorRule
) -> None:
    if not choice:
        raise RuleViolation(f"rule {rule.name} returned an empty choice set")
    bad = set(choice) - set(suboptimal)
    if bad:
        raise RuleViolation(
            f"rule {rule.name} chose non-suboptimal players {sorted(bad)}"
        )


# -- running dynamics -----------------------------------------------------------


RuleMove = tuple[PlayerId, int, Profile]


def rule_successors(
    ev: Evaluation, rule: DeviatorRule, branch_all: bool = False
) -> tuple[RuleMove, ...]:
    """The moves `rule` allows out of the evaluated profile, as (player,
    strategy index, resulting profile); empty exactly at an equilibrium.

    The lowest-id member of the rule's choice set moves, to the canonical
    best response or, with `branch_all`, to every best response.
    """
    game, profile = ev.game, ev.profile
    suboptimal = game.suboptimal_players(ev)
    if not suboptimal:
        return ()
    vectors = state_vectors(game, ev, suboptimal)
    choice = tuple(rule.choose(game, profile, suboptimal, vectors))
    _check_rule_output(choice, suboptimal, rule)
    player = min(choice)
    if branch_all:
        targets = game.best_response(ev, player)
    else:
        targets = (game.canonical_br_pick(ev, player),)
    return tuple((player, idx, profile.with_choice(game, player, idx)) for idx in targets)


def _apply_move(
    ev: Evaluation, player: PlayerId, new_index: int, step: int
) -> tuple[Profile, Move]:
    """Move `player` to strategy `new_index`; a move leaves everyone else's
    loads as they were, so the evaluation gives both of her costs."""
    game, profile = ev.game, ev.profile
    cost_before, cost_after = game.player_cost(ev, player), ev.cost_to(player - 1, new_index)
    if cost_after >= cost_before:
        raise ScriptError(
            f"move of player {player} does not strictly improve "
            f"({cost_before} -> {cost_after})"
        )
    after = profile.with_choice(game, player, new_index)
    move = Move(
        step=step,
        player=player,
        old_strategy=game.strategy_of(profile, player),
        new_strategy=game.strategy_of(after, player),
        cost_before=cost_before,
        cost_after=cost_after,
        profile_digest=profile_digest(after),
    )
    return after, move


def run_brd(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    max_steps: int = 10_000,
) -> Trace:
    """Run best-response dynamics from `p0` under `rule` until a Nash
    equilibrium; errors on step exhaustion or (for weighted games, which sit
    outside the potential guarantee) on a revisited profile."""
    if not rule.accepts(game):
        raise EngineError(f"rule {rule.name} does not accept this game class")
    game.validate_profile(p0)
    rule.reset(game)
    profile = p0
    moves: list[Move] = []
    seen: set[tuple[int, ...]] = {p0.choices} if not game.is_unweighted else set()
    for step in range(max_steps):
        ev = game.evaluate(profile)
        successors = rule_successors(ev, rule)
        if not successors:
            return Trace(p0, tuple(moves), profile, True)
        ((player, new_index, _),) = successors
        profile, move = _apply_move(ev, player, new_index, step)
        moves.append(move)
        if not game.is_unweighted:
            if profile.choices in seen:
                raise CycleDetected(f"profile revisited after step {step}")
            seen.add(profile.choices)
    raise StepBudgetExceeded(f"no equilibrium within {max_steps} steps")


ScriptMove = tuple[PlayerId, Strategy | None]


def run_scripted(
    game: Game,
    p0: Profile,
    script: Sequence[ScriptMove],
    continue_rule: DeviatorRule | None = None,
    max_steps: int = 10_000,
) -> Trace:
    """Replay a forced deviator order, then optionally run `continue_rule`
    to an equilibrium.

    Each scripted entry names the deviator and optionally a strategy; a
    `None` strategy means her canonical best response.  A forced strategy
    must be a member of the player's best-response set; when the player is
    not suboptimal (her current strategy already ties it) the entry is
    skipped, since an indifferent player cannot legally move.
    """
    game.validate_profile(p0)
    profile = p0
    moves: list[Move] = []
    step = 0
    for player, forced in script:
        ev = game.evaluate(profile)
        if forced is None:
            if not game.is_suboptimal(ev, player):
                raise ScriptError(f"scripted player {player} is not suboptimal")
            idx = game.canonical_br_pick(ev, player)
        else:
            space = game.strategy_space(player)
            try:
                idx = space.index(tuple(forced))
            except ValueError:
                raise ScriptError(
                    f"scripted strategy {forced} outside player {player}'s space"
                ) from None
            if idx not in game.best_response(ev, player):
                raise ScriptError(
                    f"scripted strategy {forced} is not a best response of {player}"
                )
            if not game.is_suboptimal(ev, player):
                continue
        profile, move = _apply_move(ev, player, idx, step)
        moves.append(move)
        step += 1
    if continue_rule is not None:
        tail = run_brd(game, profile, continue_rule, max_steps=max_steps)
        shifted = tuple(replace(m, step=step + m.step) for m in tail.moves)
        return Trace(p0, tuple(moves) + shifted, tail.terminal, tail.terminal_is_ne)
    return Trace(p0, tuple(moves), profile, game.is_nash(profile))


# -- reachability search ----------------------------------------------------------


Choices = tuple[int, ...]
# how a search first reached a state: (parent, mover's position, new index)
Link = tuple[Choices, int, int]
Parents = dict[Choices, Link | None]


def parent_search(
    root: Choices,
    successors: Callable[[Choices], Sequence[tuple[int, int, Choices]]],
    state_limit: int,
) -> tuple[Parents, tuple[Choices, ...]]:
    """Depth-first search from `root`; `successors(state)` lists the
    (position, strategy index, child) moves out of a state.  Returns the
    parent link of every visited state (None at the root) and the sorted
    terminals, the states without moves.  The last pushed state is expanded
    first and a state's first discovery sets its link, so visit counts and
    witnesses are deterministic.  Raises StateBudgetExceeded rather than
    visit more than `state_limit` states."""
    parents: Parents = {root: None}
    terminals: list[Choices] = []
    stack = [root]
    while stack:
        state = stack.pop()
        moves = successors(state)
        if not moves:
            terminals.append(state)
        for pos, idx, child in moves:
            if child in parents:
                continue
            if len(parents) >= state_limit:
                raise StateBudgetExceeded(f"search exceeded the {state_limit}-state budget")
            parents[child] = (state, pos, idx)
            stack.append(child)
    return parents, tuple(sorted(terminals))


def replay_links(
    game: Game,
    initial: Profile,
    parents: Parents,
    state: Choices,
    mover: Callable[[Profile, Link], PlayerId],
) -> Trace:
    """The best-response sequence from `initial` to the visited `state`,
    rebuilt from the parent links; `mover(profile, link)` names the player
    who makes the linked move in the current `profile`."""
    chain: list[Link] = []
    while (link := parents[state]) is not None:
        chain.append(link)
        state = link[0]
    profile, moves = initial, []
    for step, link in enumerate(reversed(chain)):
        profile, move = _apply_move(game.evaluate(profile), mover(profile, link), link[2], step)
        moves.append(move)
    return Trace(initial, tuple(moves), profile, game.is_nash(profile))


@dataclass
class RuleReach:
    """All equilibria a rule can reach from one initial profile."""

    terminals: tuple[Profile, ...]
    visited: int
    initial: Profile
    _parents: Parents = field(repr=False)

    def witness(self, game: Game, terminal: Profile) -> Trace:
        # the rule search runs over raw profiles: the mover is the position's owner
        return replay_links(
            game, self.initial, self._parents, terminal.choices, lambda _, link: link[1] + 1
        )


def reachable_by_rule(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    state_limit: int = 200_000,
) -> RuleReach:
    """Exact set of equilibria reachable when `rule` picks deviators and the
    chosen player may move to any of her tied best responses.  Requires a
    stateless rule."""
    if not rule.is_stateless:
        raise EngineError(
            f"rule {rule.name} carries run state; enumerate via run_brd instead"
        )
    if not rule.accepts(game):
        raise EngineError(f"rule {rule.name} does not accept this game class")
    game.validate_profile(p0)
    rule.reset(game)

    def successors(choices: Choices) -> list[tuple[int, int, Choices]]:
        moves = rule_successors(game.evaluate(Profile(choices)), rule, branch_all=True)
        return [(player - 1, idx, child.choices) for player, idx, child in moves]

    parents, terminals = parent_search(p0.choices, successors, state_limit)
    return RuleReach(tuple(map(Profile, terminals)), len(parents), p0, parents)


# -- independence of irrelevant players --------------------------------------------


@dataclass(frozen=True)
class IipViolation:
    preferred: StateVector
    rejected: StateVector
    profile_a: int
    profile_b: int


def check_iip(
    choose: Callable[[Sequence[StateVector]], Sequence[int]],
    vector_profiles: Sequence[Sequence[StateVector]],
) -> list[IipViolation]:
    """Report every pair of state vectors whose pairwise preference flips
    across the given vector profiles.

    A profile in which vector `a` is chosen while `b` is present and not
    chosen records the preference a > b; a violation is a pair recorded in
    both directions.  Preorder-based rules can never violate.
    """
    first_seen: dict[tuple[StateVector, StateVector], int] = {}
    violations: list[IipViolation] = []
    for pidx, vectors in enumerate(vector_profiles):
        chosen = set(choose(vectors))
        if not chosen:
            continue
        losers = [v for i, v in enumerate(vectors) if i not in chosen]
        for ci in chosen:
            winner = vectors[ci]
            for loser in losers:
                pair = (winner, loser)
                if pair not in first_seen:
                    first_seen[pair] = pidx
                reverse = (loser, winner)
                if reverse in first_seen:
                    violations.append(
                        IipViolation(winner, loser, first_seen[reverse], pidx)
                    )
    return violations
