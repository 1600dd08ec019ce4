"""Exhaustive ground truth for best-response reachability.

`reachable_ne` enumerates every Nash equilibrium reachable from an initial
profile by branching over every suboptimal player and every member of her
best-response set.  The traversal is memoized on canonical profile encodings
and quotiented by player equivalence classes (players with identical weight
and strategy space are interchangeable: permuting them maps legal
best-response sequences to legal ones and preserves social cost), which is
what makes instances with many clone players enumerable at desk scale.
The search and the witness replay are the engine's `parent_search` and
`replay_links`, the same ones `engine.reachable_by_rule` runs on.

`rule_inefficiency` and `game_inefficiency` share one per-start routine:
it searches the oracle's moves and the rule's, checks every rule move
against the oracle's, and asserts the 1 <= alpha <= worst/best envelope.
A stateful rule's search has one move per state, so it is the rule's run.
The oracle's moves and a stateless rule's are memoized per call, so
`game_inefficiency` expands each state once however many starts reach it,
and a raw rule state reads the evaluation of its canonical profile.

Budgets are hard: exceeding the state limit raises; partial searches are
never reported as results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .core import Cost, Evaluation, Game, PlayerId, Profile
from .engine import (
    Choices,
    CycleDetected,
    DeviatorRule,
    EngineError,
    Link,
    Parents,
    RuleReach,
    StateBudgetExceeded,
    Trace,
    parent_search,
    replay_links,
    rule_successors,
)

DEFAULT_STATE_LIMIT = 5_000_000


class _Quotient:
    """Canonical encodings of profiles modulo interchangeable players."""

    def __init__(self, game: Game) -> None:
        self.classes = game.player_classes()

    def canonical(self, choices: Choices) -> Choices:
        out = list(choices)
        for cls in self.classes:
            if len(cls.positions) == 1:
                continue
            values = sorted(choices[p] for p in cls.positions)
            for pos, value in zip(cls.positions, values):
                out[pos] = value
        return tuple(out)

    def successors(self, ev: Evaluation) -> list[tuple[int, int, Choices]]:
        """Every oracle move out of the evaluated canonical profile, as
        (position, strategy index, canonical child): one representative
        mover per (class, strategy) whose holder is suboptimal, to each of
        her best responses.  Empty exactly at equilibria."""
        choices = ev.profile.choices
        moves = []
        for cls in self.classes:
            seen: set[int] = set()
            for pos in cls.positions:
                idx = choices[pos]
                if idx in seen:
                    continue
                seen.add(idx)
                br = ev.cell(pos).br
                if idx in br:
                    continue
                for target in br:
                    child = list(choices)
                    child[pos] = target
                    moves.append((pos, target, self.canonical(tuple(child))))
        return moves

    @cached_property
    def _class_of(self) -> dict[int, tuple[int, ...]]:
        return {pos: cls.positions for cls in self.classes for pos in cls.positions}

    def mover(self, profile: Profile, link: Link) -> PlayerId:
        """Who makes the canonical move `link` in the raw `profile`: the
        lowest-id member of the mover's class currently on the strategy
        the move leaves."""
        parent, pos, _ = link
        return 1 + min(p for p in self._class_of[pos] if profile.choices[p] == parent[pos])


@dataclass(frozen=True)
class SearchStats:
    visited: int


@dataclass
class ReachableSet:
    """The set NE(p0): every equilibrium reachable from p0, canonically
    encoded, together with traversal parent links for witness extraction."""

    game: Game
    initial: Profile
    ne_profiles: tuple[Profile, ...]
    stats: SearchStats
    _quotient: _Quotient
    _parents: Parents

    @cached_property
    def _ranked(self) -> tuple[tuple[Cost, Choices], ...]:
        """(social cost, encoding) of every equilibrium, ascending."""
        return tuple(sorted((self.game.social_cost(p), p.choices) for p in self.ne_profiles))

    @cached_property
    def _ne_keys(self) -> frozenset[Choices]:
        return frozenset(p.choices for p in self.ne_profiles)

    @property
    def social_costs(self) -> tuple[Cost, ...]:
        return tuple(cost for cost, _ in self._ranked)

    def best(self) -> tuple[Profile, Cost]:
        """Minimum-social-cost equilibrium, ties broken by encoding."""
        cost, choices = self._ranked[0]
        return Profile(choices), cost

    def contains(self, profile: Profile) -> bool:
        return self._quotient.canonical(profile.choices) in self._ne_keys

    def witness(self, target: Profile) -> Trace:
        """A best-response sequence from the initial profile to `target`,
        replayed in raw player space from the search's parent links."""
        key = self._quotient.canonical(target.choices)
        if key not in self._parents:
            raise KeyError("target was not visited")
        trace = replay_links(self.game, self.initial, self._parents, key, self._quotient.mover)
        assert self._quotient.canonical(trace.terminal.choices) == key
        return trace


def reachable_ne(
    game: Game, p0: Profile, state_limit: int = DEFAULT_STATE_LIMIT
) -> ReachableSet:
    """Exact NE(p0) by memoized depth-first search over the quotient of the
    reachable profile space."""
    game.validate_profile(p0)
    quotient = _Quotient(game)
    root = quotient.canonical(p0.choices)
    parents, ne_keys = parent_search(
        root, lambda choices: quotient.successors(game.evaluate(Profile(choices))), state_limit
    )
    return ReachableSet(game, p0, tuple(map(Profile, ne_keys)),
                        SearchStats(len(parents)), quotient, parents)


def best_reachable(
    game: Game, p0: Profile, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[Profile, Cost]:
    return reachable_ne(game, p0, state_limit).best()


def optimal_sequence(
    game: Game, p0: Profile, state_limit: int = DEFAULT_STATE_LIMIT
) -> Trace:
    """A best-response sequence ending in the best reachable equilibrium."""
    reach = reachable_ne(game, p0, state_limit)
    target, _ = reach.best()
    return reach.witness(target)


@dataclass(frozen=True)
class InefficiencyReport:
    """How badly a rule's worst reachable equilibrium compares with the best
    equilibrium reachable at all from the same initial profile."""

    game_id: str
    rule_id: str
    initial: Profile
    worst_rule_cost: Cost
    best_cost: Cost
    alpha: Fraction
    ne_costs: tuple[Cost, ...]
    rule_ne_costs: tuple[Cost, ...]
    rule_witness: Trace
    optimal_witness: Trace
    oracle_visited: int
    rule_visited: int


SearchMove = tuple[int, int, Choices]


@dataclass
class _Start:
    """The searches from one start profile: the oracle's over canonical
    profiles, and the rule's over raw ones (the run of a stateful rule)."""

    parents: Parents
    ne_keys: tuple[Choices, ...]
    rule_links: Parents
    rule_terminals: tuple[Choices, ...]
    alpha: Fraction


class _Searches:
    """One game's best-response moves, memoized across start profiles: the
    oracle's moves and evaluation for each canonical profile, and a
    stateless rule's moves for each raw profile (the engine's lowest-id
    tie-break need not commute with relabeling interchangeable players).
    Every rule move is checked to be an oracle move and every rule terminal
    an oracle sink, which puts NE_S(p0) within NE(p0).  `state_limit`
    bounds each search and the states each memo holds."""

    def __init__(self, game: Game, rule: DeviatorRule, state_limit: int) -> None:
        self.game = game
        self.rule = rule
        self.state_limit = state_limit
        self.quotient = _Quotient(game)
        # canonical state -> (its oracle moves, their canonical children, its evaluation)
        self._oracle: dict[Choices, tuple[list[SearchMove], frozenset[Choices], Evaluation]] = {}
        self._rule: dict[Choices, list[SearchMove]] = {}
        self.ne_cost: dict[Choices, Cost] = {}

    def _grow(self, memo: dict) -> None:
        if len(memo) >= self.state_limit:
            raise StateBudgetExceeded(f"search exceeded the {self.state_limit}-state budget")

    def _expand(self, key: Choices) -> tuple[list[SearchMove], frozenset[Choices], Evaluation]:
        entry = self._oracle.get(key)
        if entry is None:
            self._grow(self._oracle)
            ev = self.game.evaluate(Profile(key))
            moves = self.quotient.successors(ev)
            if not moves:
                self.ne_cost[key] = self.game.social_cost(ev)
            entry = self._oracle[key] = (moves, frozenset(child for _, _, child in moves), ev)
        return entry

    def oracle_moves(self, key: Choices) -> list[SearchMove]:
        return self._expand(key)[0]

    def rule_moves(self, choices: Choices) -> list[SearchMove]:
        """The rule's moves out of the raw state `choices`, read from its
        canonical profile's evaluation: to every best response for a
        stateless rule, memoized, and to the canonical one for a stateful
        rule, whose search is then its run.  Each child must be the child of
        an oracle move, and a state without moves an oracle sink."""
        moves = self._rule.get(choices)
        if moves is None:
            canonical, stateless = self.quotient.canonical, self.rule.is_stateless
            _, kids, ev = self._expand(canonical(choices))
            found = rule_successors(ev.relabeled(Profile(choices)), self.rule,
                                    branch_all=stateless)
            moves = [(p - 1, idx, child.choices) for p, idx, child in found]
            if (kids and not moves) or any(canonical(child) not in kids for _, _, child in moves):
                raise AssertionError("rule reached an equilibrium outside NE(p0)")
            if stateless:
                self._grow(self._rule)
                self._rule[choices] = moves
        return moves

    def cost(self, choices: Choices) -> Cost:
        """Social cost of an equilibrium the oracle has searched."""
        return self.ne_cost[self.quotient.canonical(choices)]

    def start(self, p0: Profile) -> _Start:
        """Search the oracle's and the rule's moves from the valid `p0`;
        asserts the 1 <= alpha <= (worst/best over NE(p0)) envelope."""
        game, rule = self.game, self.rule
        root = self.quotient.canonical(p0.choices)
        parents, ne_keys = parent_search(root, self.oracle_moves, self.state_limit)
        if not rule.accepts(game):
            raise EngineError(f"rule {rule.name} does not accept this game class")
        rule.reset(game)
        links, terminals = parent_search(p0.choices, self.rule_moves, self.state_limit)
        if not ne_keys or not terminals:
            raise CycleDetected("a best-response cycle reaches no equilibrium")
        ne_costs = [self.ne_cost[key] for key in ne_keys]
        best = min(ne_costs)
        alpha = max(map(self.cost, terminals)) / best
        envelope = max(ne_costs) / best
        if not 1 <= alpha <= envelope:
            raise AssertionError(f"inefficiency {alpha} outside [1, {envelope}]")
        return _Start(parents, ne_keys, links, terminals, alpha)


def rule_inefficiency(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    game_id: str = "",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> InefficiencyReport:
    """alpha = worst SC over NE_S(p0) divided by SC of the best equilibrium
    in NE(p0), from the checked searches `game_inefficiency` runs per
    start; `state_limit` bounds each of its searches."""
    game.validate_profile(p0)
    searches = _Searches(game, rule, state_limit)
    start = searches.start(p0)
    ne_costs = sorted((searches.ne_cost[key], key) for key in start.ne_keys)
    rule_costs = sorted((searches.cost(t), t) for t in start.rule_terminals)
    reach = ReachableSet(game, p0, tuple(map(Profile, start.ne_keys)),
                         SearchStats(len(start.parents)), searches.quotient,
                         start.parents)
    rule_reach = RuleReach(tuple(map(Profile, start.rule_terminals)), len(start.rule_links),
                           p0, start.rule_links)
    return InefficiencyReport(
        game_id=game_id,
        rule_id=rule.name,
        initial=p0,
        worst_rule_cost=rule_costs[-1][0],
        best_cost=ne_costs[0][0],
        alpha=start.alpha,
        ne_costs=tuple(cost for cost, _ in ne_costs),
        rule_ne_costs=tuple(cost for cost, _ in rule_costs),
        rule_witness=rule_reach.witness(game, Profile(rule_costs[-1][1])),
        optimal_witness=reach.witness(Profile(ne_costs[0][1])),
        oracle_visited=reach.stats.visited,
        rule_visited=rule_reach.visited,
    )


def all_profiles(game: Game, cap: int = 100_000) -> Iterator[Profile]:
    """Every profile of a tiny game, guarded by a count cap."""
    sizes = [len(game.strategy_space(i)) for i in game.players]
    total = 1
    for size in sizes:
        total *= size
        if total > cap:
            raise StateBudgetExceeded(
                f"profile enumeration exceeds the {cap}-profile guard"
            )
    yield from map(Profile, itertools.product(*map(range, sizes)))


def game_inefficiency(
    game: Game,
    rule: DeviatorRule,
    profile_source: Iterable[Profile] | None = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Fraction:
    """Worst-case rule inefficiency over the supplied initial profiles, or
    over every profile of a tiny game when no source is given.

    Each start runs the searches of `rule_inefficiency`, over moves memoized
    once per call: the oracle's for each canonical profile, a stateless
    rule's for each raw profile.  A stateful rule gets one run per start.
    `state_limit` bounds the distinct states each memo holds, summed over
    all starts.
    """
    profiles = profile_source if profile_source is not None else all_profiles(game)
    searches = _Searches(game, rule, state_limit)
    worst: Fraction | None = None
    for p0 in profiles:
        game.validate_profile(p0)
        alpha = searches.start(p0).alpha
        worst = alpha if worst is None else max(worst, alpha)
    if worst is None:
        raise ValueError("profile source was empty")
    return worst
