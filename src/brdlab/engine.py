"""Best-response dynamics engine.

Runs deviator rules over games, records traces, and checks the locality
condition (independence of irrelevant players) for rules expressed over
state vectors.  The engine reads games only through `core`: it imports no
game model.

A deviator rule maps the evaluated profile and its suboptimal players to a
non-empty choice set of suboptimal players.  Local rules are total preorders
over state vectors, so the locality condition holds by construction;
arbitrary rules can be audited with `check_iip`.  Runs and searches score a
local rule's players from the evaluation's cells, in the game's integer unit,
through a key that orders them as their vectors do; the audits score the
vectors themselves.

Tie semantics: the engine breaks rule ties by lowest player id, and a chosen
player's tied best responses by the game's canonical pick.  Branching over
best-response ties (the "breaking ties arbitrarily" in the move, not the
rule) is what `reachable_by_rule` explores to compute the full set of
equilibria a rule can reach.  `rule_choice` is the one checked reading of
a rule's choice set, and `rule_successors` the rule's moves out of one
evaluated profile, in the one `SearchMove` shape the oracle's moves share.
Walks ask a rule for players; the oracle's searches ask a stateless rule
for moving groups (`DeviatorRule._choose_groups`), once per canonical
profile.

`walk` is the one trace loop, with one step budget for the whole walk:
runs, scripts, witness replays and the SPP cleanup are movers over it.  Its
`_apply_move` is the one legality check of a move (the mover must be
suboptimal and move to one of her best responses), which `serde.verify_trace`
shares so as to compare each replayed move with the recorded one.  Both
evaluate the first profile only: each move yields the child evaluation
(`Evaluation.child`) that the next step reads.

`parent_search` is the one depth-first reachability search with parent
links, and `replay_links` the one witness replay over those links: both
`reachable_by_rule` here and `oracle.reachable_ne` run on them, over the
rule's moves and over every best-response move respectively.  Their states
are profiles, the plain index tuples of `core.Profile`, so a search keys,
moves and reports them as they are.  `fold` walks the same moves once for
many roots: one post-order pass that values every state it finishes by
combining the leaf values of the states without moves that it reaches,
with a memo shared across roots; `oracle.game_inefficiency` runs all its
passes on it.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Sequence, TypeVar

from .core import Cost, Evaluation, Game, GameError, PlayerId, Profile, Strategy


class EngineError(GameError):
    pass


class StepBudgetExceeded(EngineError):
    pass


class StateBudgetExceeded(EngineError):
    pass


class CycleDetected(EngineError):
    """A best-response cycle outside the potential-guaranteed models."""


class RuleViolation(EngineError):
    """A rule chose a player outside the suboptimal set, or no player, or
    (being stateless) only some of the interchangeable players on one
    strategy."""


class ScriptError(EngineError):
    """A move is not a legal best-response move."""


class _Digits(dict):
    """Each strategy index's decimal digits, made on first request: at most
    `core.STRATEGY_CAP` entries."""

    def __missing__(self, idx: int) -> str:
        digits = self[idx] = str(idx)
        return digits


_DIGITS = _Digits()


def profile_digest(profile: Profile) -> str:
    data = ",".join(map(_DIGITS.__getitem__, profile)).encode()
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


def state_vectors(game: Game, at: Profile | Evaluation,
                  players: Sequence[PlayerId]) -> dict[PlayerId, Hashable]:
    ev = game.evaluate(at)
    return {i: game.state_vector(ev, i) for i in players}


# -- rules ---------------------------------------------------------------------


# a profile's moving groups, as `Evaluation.moving_groups()` gives them: per
# (class, strategy) whose holders are suboptimal, its first position and its
# best responses
Groups = list[tuple[int, tuple[int, ...]]]


class DeviatorRule(ABC):
    """Selects the next deviating player among the suboptimal ones.

    A stateless rule must treat interchangeable players (one weight, one
    strategy space) on one strategy alike, whatever their labels: it
    chooses all or none of them.  Local rules do, as state vectors carry no
    label.  So the oracle's searches ask it once per canonical profile,
    over the profile's moving groups (`_choose_groups`), and raise
    RuleViolation on a choice that splits such a group.  Walks ask
    `choose`, over players."""

    name: str = "rule"
    # False for rules that carry run state (a cursor, a seeded generator)
    is_stateless: bool = True

    def reset(self, game: Game) -> None:
        """Called once per run; stateful rules rebuild cursor/seed state."""

    def accepts(self, game: Game) -> bool:
        return True

    @abstractmethod
    def choose(self, ev: Evaluation, suboptimal: tuple[PlayerId, ...]) -> tuple[PlayerId, ...]:
        """Non-empty choice set, a subset of `suboptimal`."""

    def _choose_groups(self, ev: Evaluation, groups: Groups) -> Groups:
        """The entries of `groups`, the evaluation's `moving_groups()`,
        whose holders the rule chooses, in their order; empty exactly when
        `groups` is.  By default the checked player choice (`rule_choice`)
        read back onto the groups: a choice that takes some but not all of
        a group's holders raises RuleViolation, since the engine's lowest
        id among them would hang on their labels."""
        players = rule_choice(ev, self)
        class_ids, profile = ev.game._class_ids, ev.profile
        chosen = {(class_ids[p - 1], profile[p - 1]) for p in players}
        members = sum(1 for group in zip(class_ids, profile) if group in chosen)
        if members != len(set(players)):
            raise RuleViolation(f"rule {self.name} chose some but not all of the "
                                "interchangeable players on one strategy")
        return [entry for entry in groups if (class_ids[entry[0]], profile[entry[0]]) in chosen]


class LocalRule(DeviatorRule):
    """A total preorder over state vectors; the choice set is the owners of
    the maximal vectors.  `key_builder(game)` returns the scoring function,
    letting rules close over public game parameters (e.g. the activation
    cost); locality audits score bare vectors with the game they came from.

    `choose` scores positions through `cell_key` instead: built once per
    game, bound once per evaluation, then read per position.  It reads the
    evaluation's cells and must order any one evaluation's suboptimal
    players exactly as their vectors' keys do, ties included (the shipped
    rules read integers in the game's cost unit).  Without it, `choose`
    builds each player's vector and scores that.  Clones on one strategy
    have one vector, so they score alike: `_choose_groups` scores each
    moving group's first position only, and keeps the groups at the
    maximum.
    """

    def __init__(
        self,
        name: str,
        key_builder: Callable[[Game], Callable[[Hashable], object]],
        accepts: Callable[[Game], bool] | None = None,
        cell_key: Callable[[Game], Callable[[Evaluation], Callable[[int], object]]] | None = None,
    ) -> None:
        self.name = name
        self._key_builder = key_builder
        self._accepts = accepts
        self._cell_key = cell_key or self._vector_cell_key
        # the last game's built cell key: a cache, not run state
        self._scorer: tuple[Game, Callable[[Evaluation], Callable[[int], object]]] | None = None

    def accepts(self, game: Game) -> bool:
        return self._accepts(game) if self._accepts else True

    def _vector_cell_key(self, game: Game) -> Callable[[Evaluation], Callable[[int], object]]:
        key = self._key_builder(game)
        return lambda ev: lambda pos: key(game.state_vector(ev, pos + 1))

    def _bound(self, ev: Evaluation) -> Callable[[int], object]:
        """The cell key, built once per game, bound to `ev`."""
        game = ev.game
        if self._scorer is None or self._scorer[0] is not game:
            self._scorer = (game, self._cell_key(game))
        return self._scorer[1](ev)

    def choose(self, ev, suboptimal):
        key = self._bound(ev)
        keys = [key(i - 1) for i in suboptimal]
        best = max(keys)
        return tuple(i for i, k in zip(suboptimal, keys) if k == best)

    def _choose_groups(self, ev, groups):
        if not groups:
            return groups
        key = self._bound(ev)
        keys = [key(pos) for pos, _ in groups]
        best = max(keys)
        return [entry for entry, k in zip(groups, keys) if k == best]

    def vector_chooser(self, game: Game) -> Callable[[Sequence[Hashable]], tuple[int, ...]]:
        """Choice-set function over bare vector profiles of `game`: the
        rule's definition, which the IIP audits score through."""
        key = self._key_builder(game)

        def choose(vectors: Sequence[Hashable]) -> tuple[int, ...]:
            keys = [key(v) for v in vectors]
            best = max(keys)
            return tuple(i for i, k in enumerate(keys) if k == best)

        return choose


class LowestIdRule(DeviatorRule):
    """Baseline: the whole suboptimal set, which the engine's tie-break
    collapses to the lowest id.  Useful for cleanup phases and tests."""

    name = "lowest-id"

    def choose(self, ev, suboptimal):
        return suboptimal

    def _choose_groups(self, ev, groups):
        return groups


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


# one best-response move: (mover's position, new strategy index, child profile)
SearchMove = tuple[int, int, Profile]


def rule_choice(ev: Evaluation, rule: DeviatorRule) -> tuple[PlayerId, ...]:
    """`rule`'s choice set at the evaluated profile, checked against its
    suboptimal players; empty exactly at an equilibrium."""
    suboptimal = ev.game.suboptimal_players(ev)
    if not suboptimal:
        return ()
    choice = tuple(rule.choose(ev, suboptimal))
    _check_rule_output(choice, suboptimal, rule)
    return choice


def rule_successors(
    ev: Evaluation, rule: DeviatorRule, branch_all: bool = False
) -> tuple[SearchMove, ...]:
    """The moves `rule` allows out of the evaluated profile; empty exactly
    at an equilibrium.

    The lowest-id member of the rule's choice set moves, to the canonical
    best response or, with `branch_all`, to every best response.
    """
    choice = rule_choice(ev, rule)
    if not choice:
        return ()
    game, player = ev.game, min(choice)
    if branch_all:
        targets = game.best_response(ev, player)
    else:
        targets = (game.canonical_br_pick(ev, player),)
    return tuple((player - 1, idx, game.with_choice(ev.profile, player, idx)) for idx in targets)


def _apply_move(
    ev: Evaluation, player: PlayerId, new_index: int, step: int
) -> tuple[Evaluation, Move]:
    """Move `player` to strategy `new_index`: the one legal best-response
    move, which yields the child evaluation.  She must be suboptimal and
    `new_index` one of her best responses, which makes the move a strict
    improvement; a move leaves everyone else's loads as they were, so her
    cell gives both of her costs."""
    game, profile = ev.game, ev.profile
    pos = game.position_of(player)
    if not ev.is_suboptimal(pos):
        raise ScriptError(f"player {player} is not suboptimal")
    if new_index not in ev.cell(pos).br:
        raise ScriptError(f"strategy index {new_index} is not a best response of player {player}")
    after = ev.child(pos, new_index)
    move = Move(
        step=step,
        player=player,
        old_strategy=game.strategy_of(profile, player),
        new_strategy=game.strategy_of(after.profile, player),
        cost_before=ev.cost(pos),
        cost_after=ev.cost_to(pos, new_index),
        profile_digest=profile_digest(after.profile),
    )
    return after, move


# the default move budget of a walk, and state budget of a search
DEFAULT_MAX_STEPS = 10_000
DEFAULT_STATE_LIMIT = 5_000_000

if TYPE_CHECKING:
    # names the next move out of the evaluated profile at a step, or None to
    # stop; at run time typing's cache would keep every import's classes alive
    Mover = Callable[[Evaluation, int], tuple[PlayerId, int] | None]


def walk(game: Game, p0: Profile, mover: Mover, max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """The one trace loop: evaluate `p0`, ask `mover(ev, step)` for the next
    (player, strategy index) and apply it through `_apply_move`, whose child
    evaluation is the next step's, until the mover stops; errors rather than
    make more than `max_steps`."""
    ev, moves = game.evaluate(p0), []
    while True:
        move = mover(ev, len(moves))
        if move is None:
            return Trace(p0, tuple(moves), ev.profile, game.is_nash(ev))
        if len(moves) >= max_steps:
            raise StepBudgetExceeded(f"no equilibrium within {max_steps} steps")
        ev, record = _apply_move(ev, *move, len(moves))
        moves.append(record)


def _rule_mover(game: Game, rule: DeviatorRule) -> Mover:
    """`rule`'s moves to an equilibrium; a revisited profile is a cycle in
    weighted games, which sit outside the potential guarantee."""
    if not rule.accepts(game):
        raise EngineError(f"rule {rule.name} does not accept this game class")
    rule.reset(game)
    seen: set[Profile] = set()

    def mover(ev: Evaluation, step: int) -> tuple[PlayerId, int] | None:
        if not game.is_unweighted:
            if ev.profile in seen:
                raise CycleDetected(f"profile revisited after step {step - 1}")
            seen.add(ev.profile)
        moves = rule_successors(ev, rule)
        return (moves[0][0] + 1, moves[0][1]) if moves else None

    return mover


def run_brd(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trace:
    """Run best-response dynamics from `p0` under `rule` until a Nash
    equilibrium; errors when an equilibrium takes more than `max_steps`
    moves or (for weighted games) on a revisited profile."""
    return walk(game, p0, _rule_mover(game, rule), max_steps)


ScriptMove = tuple[PlayerId, Strategy | None]


def script_mover(script: Sequence[ScriptMove], then: Mover | None = None) -> Mover:
    """The scripted moves, then `then`'s.  A `None` strategy is the
    deviator's canonical best response; a forced best response of an
    indifferent player is skipped, since she cannot legally move."""
    entries = iter(script)

    def mover(ev: Evaluation, step: int) -> tuple[PlayerId, int] | None:
        game = ev.game
        for player, forced in entries:
            if forced is None:
                return player, game.canonical_br_pick(ev, player)
            try:
                idx = game.strategy_index(player, forced)
            except ValueError:  # an unknown player, too
                raise ScriptError(
                    f"scripted strategy {forced} outside player {player}'s space"
                ) from None
            if game.is_suboptimal(ev, player) or idx not in game.best_response(ev, player):
                return player, idx
        return then(ev, step) if then else None

    return mover


def run_scripted(
    game: Game,
    p0: Profile,
    script: Sequence[ScriptMove],
    continue_rule: DeviatorRule | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trace:
    """Replay a forced deviator order of (player, strategy or None) entries,
    each a legal move, then optionally run `continue_rule` to an equilibrium;
    `max_steps` bounds the whole walk."""
    then = _rule_mover(game, continue_rule) if continue_rule is not None else None
    return walk(game, p0, script_mover(script, then), max_steps)


# -- reachability search ----------------------------------------------------------


# how a search first reached a state: (parent, mover's position, new index)
Link = tuple[Profile, int, int]
Parents = dict[Profile, Link | None]
# a fold's value per state
V = TypeVar("V")


def parent_search(
    root: Profile,
    successors: Callable[[Profile], Sequence[SearchMove]],
    state_limit: int,
) -> tuple[Parents, tuple[Profile, ...]]:
    """Depth-first search from `root`; `successors(state)` lists the
    (position, strategy index, child) moves out of a state.  Returns the
    parent link of every visited state (None at the root) and the sorted
    terminals, the states without moves.  The last pushed state is expanded
    first and a state's first discovery sets its link, so visit counts and
    witnesses are deterministic.  Raises StateBudgetExceeded rather than
    visit more than `state_limit` states."""
    parents: Parents = {root: None}
    terminals: list[Profile] = []
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


def fold(
    root: Profile,
    successors: Callable[[Profile], Sequence[SearchMove]],
    leaf: Callable[[Profile], V | None],
    combine: Callable[[V, V], V],
    values: dict[Profile, V | None],
    state_limit: int,
) -> V | None:
    """The `combine` of the `leaf` values of the states without moves that
    `root` reaches, or None where it reaches none (a `leaf` of None counts
    as none).

    One iterative Tarjan pass: the members of a strongly connected component
    reach the same states, so they share one value, which a state's frame
    gathers from its finished children and hands to its parent.  So
    `combine` must be order-free: commutative, associative and idempotent,
    as a (min, max) span is.  Each finished state's value goes into
    `values`, which a caller shares across roots: a later pass reads a
    finished state there instead of opening it.  `successors` is called
    once per opened state, in depth-first order, so a stateful rule's
    single-move pass is its run.  Raises StateBudgetExceeded rather than
    open more than `state_limit` states in one pass."""
    if root in values:
        return values[root]
    # opened states by discovery order; opened and unfinished ones also sit
    # on `component`, awaiting the root of their component
    index = {root: 0}
    component = [root]

    def frame(state: Profile) -> list:
        # [state, its moves left, its low link, the value gathered so far]
        moves = successors(state)
        if moves:
            return [state, iter(moves), index[state], None]
        return [state, iter(()), index[state], leaf(state)]

    frames = [frame(root)]
    while frames:
        top = frames[-1]
        for _, _, child in top[1]:
            if child in values:
                value = values[child]
                if value is not None:
                    top[3] = value if top[3] is None else combine(top[3], value)
            elif child in index:
                # still open, so in this state's component
                top[2] = min(top[2], index[child])
            else:
                if len(index) >= state_limit:
                    raise StateBudgetExceeded(f"search exceeded the {state_limit}-state budget")
                index[child] = len(index)
                component.append(child)
                frames.append(frame(child))
                break
        else:
            frames.pop()
            state, _, low, value = top
            if low == index[state]:
                while True:
                    member = component.pop()
                    values[member] = value
                    if member is state:
                        break
            if frames:
                parent = frames[-1]
                parent[2] = min(parent[2], low)
                if value is not None:
                    parent[3] = value if parent[3] is None else combine(parent[3], value)
    return values[root]


def replay_links(
    game: Game,
    initial: Profile,
    parents: Parents,
    state: Profile,
    mover: Callable[[Profile, Link], PlayerId],
) -> Trace:
    """The best-response sequence from `initial` to the visited `state`,
    rebuilt from the parent links; `mover(profile, link)` names the player
    who makes the linked move in the current `profile`."""
    chain: list[Link] = []
    while (link := parents[state]) is not None:
        chain.append(link)
        state = link[0]

    def link_mover(ev: Evaluation, step: int) -> tuple[PlayerId, int] | None:
        if not chain:
            return None
        link = chain.pop()
        return mover(ev.profile, link), link[2]

    return walk(game, initial, link_mover, len(chain))


@dataclass
class RuleReach:
    """All equilibria a rule can reach from one initial profile."""

    terminals: tuple[Profile, ...]
    visited: int
    initial: Profile
    _parents: Parents = field(repr=False)

    def witness(self, game: Game, terminal: Profile) -> Trace:
        # the rule search runs over raw profiles: the mover is the position's owner
        return replay_links(game, self.initial, self._parents, terminal,
                            lambda _, link: link[1] + 1)


def reachable_by_rule(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    state_limit: int = DEFAULT_STATE_LIMIT,
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

    def successors(profile: Profile) -> tuple[SearchMove, ...]:
        return rule_successors(game.evaluate(profile), rule, branch_all=True)

    parents, terminals = parent_search(p0, successors, state_limit)
    return RuleReach(terminals, len(parents), p0, parents)


# -- independence of irrelevant players --------------------------------------------


@dataclass(frozen=True)
class IipViolation:
    preferred: Hashable
    rejected: Hashable
    profile_a: int
    profile_b: int


def check_iip(
    choose: Callable[[Sequence[Hashable]], Sequence[int]],
    vector_profiles: Sequence[Sequence[Hashable]],
) -> list[IipViolation]:
    """Report every pair of state vectors whose pairwise preference flips
    across the given vector profiles.

    A profile in which vector `a` is chosen while `b` is present and not
    chosen records the preference a > b; a violation is a pair recorded in
    both directions.  Preorder-based rules can never violate.
    """
    first_seen: dict[tuple[Hashable, Hashable], int] = {}
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
