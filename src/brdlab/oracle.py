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

`game_inefficiency` answers every initial profile of a game from one
memoized best-response graph: the best and worst equilibrium cost reachable
from each state is a min/max dynamic program over that graph.

Budgets are hard: exceeding the state limit raises; partial searches are
never reported as results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .core import Cost, Game, PlayerId, Profile
from .engine import (
    BrTie,
    Choices,
    CycleDetected,
    DeviatorRule,
    EngineError,
    Link,
    Parents,
    StateBudgetExceeded,
    Trace,
    parent_search,
    reachable_by_rule,
    replay_links,
    rule_successors,
    run_brd,
)

DEFAULT_STATE_LIMIT = 5_000_000

Node = TypeVar("Node", bound=Hashable)
Extremes = tuple[Cost, Cost]


class _Quotient:
    """Canonical encodings of profiles modulo interchangeable players."""

    def __init__(self, game: Game) -> None:
        self.game = game
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

    def successors(self, choices: Choices) -> list[tuple[int, int, Choices]]:
        """Every oracle move out of the canonical profile `choices`, as
        (position, strategy index, canonical child): one representative
        mover per (class, strategy) whose holder is suboptimal, to each of
        her best responses.  Empty exactly at equilibria."""
        game = self.game
        profile = Profile(choices)
        full = game._full_loads(profile)
        moves = []
        for cls in self.classes:
            seen: set[int] = set()
            for pos in cls.positions:
                idx = choices[pos]
                if idx in seen:
                    continue
                seen.add(idx)
                counts, weights = game._without(full, profile, pos + 1)
                br, _ = game._br_against(pos + 1, counts, weights)
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
    state_limit: int


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

    def worst_cost(self) -> Cost:
        return self._ranked[-1][0]

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
    parents, ne_keys = parent_search(root, quotient.successors, state_limit)
    return ReachableSet(
        game=game,
        initial=p0,
        ne_profiles=tuple(map(Profile, ne_keys)),
        stats=SearchStats(visited=len(parents), state_limit=state_limit),
        _quotient=quotient,
        _parents=parents,
    )


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


_OUTSIDE_NE = "rule reached an equilibrium outside NE(p0)"


def rule_inefficiency(
    game: Game,
    p0: Profile,
    rule: DeviatorRule,
    game_id: str = "",
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> InefficiencyReport:
    """alpha = worst SC over NE_S(p0) divided by SC of the best equilibrium
    in NE(p0); asserts the containment NE_S(p0) within NE(p0) and the
    1 <= alpha <= (worst/best over NE(p0)) envelope on every report."""
    reach = reachable_ne(game, p0, state_limit)
    best_profile, best_cost = reach.best()
    if rule.is_stateless:
        rr = reachable_by_rule(game, p0, rule, state_limit=state_limit)
        rule_terminals = rr.terminals
        rule_visited = rr.visited
        witness_of = rr.witness
    else:
        trace = run_brd(game, p0, rule)
        rule_terminals = (trace.terminal,)
        rule_visited = len(trace.moves) + 1

        def witness_of(g: Game, terminal: Profile) -> Trace:
            return trace

    for terminal in rule_terminals:
        if not reach.contains(terminal):
            raise AssertionError(_OUTSIDE_NE)
    rule_costs = [(game.social_cost(t), t) for t in rule_terminals]
    worst_cost, worst_terminal = max(rule_costs, key=lambda x: (x[0], x[1].choices))
    alpha = worst_cost / best_cost
    envelope = reach.worst_cost() / best_cost
    if not 1 <= alpha <= envelope:
        raise AssertionError(f"inefficiency {alpha} outside [1, {envelope}]")
    return InefficiencyReport(
        game_id=game_id,
        rule_id=rule.name,
        initial=p0,
        worst_rule_cost=worst_cost,
        best_cost=best_cost,
        alpha=alpha,
        ne_costs=reach.social_costs,
        rule_ne_costs=tuple(sorted(cost for cost, _ in rule_costs)),
        rule_witness=witness_of(game, worst_terminal),
        optimal_witness=reach.witness(best_profile),
        oracle_visited=reach.stats.visited,
        rule_visited=rule_visited,
    )


def all_profiles(game: Game, cap: int = 100_000) -> Iterator[Profile]:
    """Every profile of a tiny game, guarded by a count cap."""
    total = 1
    for i in game.players:
        total *= len(game.strategy_space(i))
        if total > cap:
            raise StateBudgetExceeded(
                f"profile enumeration exceeds the {cap}-profile guard"
            )
    sizes = [len(game.strategy_space(i)) for i in game.players]
    indices = [0] * len(sizes)
    while True:
        yield Profile(tuple(indices))
        for k in range(len(sizes) - 1, -1, -1):
            indices[k] += 1
            if indices[k] < sizes[k]:
                break
            indices[k] = 0
        else:
            return


def _widen(have: Extremes | None, value: Extremes | None) -> Extremes | None:
    if have is None or value is None:
        return value if have is None else have
    return min(have[0], value[0]), max(have[1], value[1])


def reachable_extremes(
    root: Node,
    successors: Callable[[Node], Iterable[Node]],
    terminal_cost: Callable[[Node], Cost],
    solved: dict[Node, Extremes | None],
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Extremes:
    """(min, max) of `terminal_cost` over the terminals reachable from
    `root`, a terminal being a node without successors.

    `solved` memoizes the answer of every node the search has finished, and
    callers share it across roots, so each node is expanded once.  The
    search is an iterative Tarjan: the nodes of one strongly connected
    component share one answer, which keeps it exact on cyclic graphs.
    Raises StateBudgetExceeded rather than let `solved` and the nodes in
    progress exceed `state_limit`, and CycleDetected when `root` reaches no
    terminal (`solved` holds None for such nodes).
    """
    if root not in solved:
        _solve(root, successors, terminal_cost, solved, state_limit)
    extremes = solved[root]
    if extremes is None:
        raise CycleDetected("a best-response cycle reaches no equilibrium")
    return extremes


def _solve(
    root: Node,
    successors: Callable[[Node], Iterable[Node]],
    terminal_cost: Callable[[Node], Cost],
    solved: dict[Node, Extremes | None],
    state_limit: int,
) -> None:
    """Fill `solved` for every node reachable from `root`."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    # the extremes over a node's own terminal and its finished successors
    partial: dict[Node, Extremes | None] = {}
    component: list[Node] = []
    frames: list[tuple[Node, Iterator[Node]]] = []

    def enter(node: Node) -> None:
        if len(solved) + len(component) >= state_limit:
            raise StateBudgetExceeded(f"search exceeded the {state_limit}-state budget")
        index[node] = low[node] = len(index)
        component.append(node)
        kids = tuple(successors(node))
        if kids:
            partial[node] = None
        else:
            cost = terminal_cost(node)
            partial[node] = (cost, cost)
        frames.append((node, iter(kids)))

    enter(root)
    while frames:
        node, kids = frames[-1]
        for kid in kids:
            if kid in solved:
                partial[node] = _widen(partial[node], solved[kid])
            elif kid in index:  # on the component stack: same component
                low[node] = min(low[node], index[kid])
            else:
                enter(kid)
                break
        else:
            frames.pop()
            if low[node] == index[node]:
                members: list[Node] = []
                value: Extremes | None = None
                member = None
                while member != node:
                    member = component.pop()
                    members.append(member)
                    value = _widen(value, partial[member])
                for member in members:
                    solved[member] = value
            if frames:
                parent = frames[-1][0]
                if node in solved:
                    partial[parent] = _widen(partial[parent], solved[node])
                else:
                    low[parent] = min(low[parent], low[node])


def game_inefficiency(
    game: Game,
    rule: DeviatorRule,
    profile_source: Iterable[Profile] | None = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
    profile_cap: int = 100_000,
) -> Fraction:
    """Worst-case rule inefficiency over the supplied initial profiles, or
    over every profile of a tiny game when no source is given.

    Every start is answered from one memoized best-response graph per call:
    the oracle's over canonical profiles, and a stateless rule's over raw
    profiles (the engine's lowest-id tie-break need not commute with
    relabeling interchangeable players).  A stateful rule gets one run per
    start.  `state_limit` bounds the distinct states of each graph.  Every
    rule move is checked to be an oracle move and every rule terminal an
    oracle equilibrium, so NE_S(p0) lies within NE(p0) for every start.
    """
    profiles = profile_source if profile_source is not None else all_profiles(game, profile_cap)
    if not rule.accepts(game):
        raise EngineError(f"rule {rule.name} does not accept this game class")
    rule.reset(game)
    quotient = _Quotient(game)
    oracle_children: dict[Choices, frozenset[Choices]] = {}
    oracle_solved: dict[Choices, Extremes | None] = {}
    rule_solved: dict[Choices, Extremes | None] = {}

    def children(key: Choices) -> frozenset[Choices]:
        kids = oracle_children.get(key)
        if kids is None:
            kids = frozenset(child for _, _, child in quotient.successors(key))
            oracle_children[key] = kids
        return kids

    def checked_step(key: Choices, child: Choices) -> Choices:
        child_key = quotient.canonical(child)
        if child_key not in children(key):
            raise AssertionError(_OUTSIDE_NE)
        return child_key

    def check_terminal(key: Choices) -> None:
        if children(key):
            raise AssertionError(_OUTSIDE_NE)

    def rule_children(choices: Choices) -> list[Choices]:
        key = quotient.canonical(choices)
        moves = rule_successors(game, Profile(choices), rule, BrTie.BRANCH_ALL)
        if not moves:
            check_terminal(key)
        kids = [child.choices for _, _, child in moves]
        for kid in kids:
            checked_step(key, kid)
        return kids

    def rule_terminal_cost(choices: Choices) -> Cost:
        return oracle_solved[quotient.canonical(choices)][0]

    # vector-based rules are equivariant under interchangeable-player
    # relabelings, so equivalent initial profiles yield the same alpha
    dedupe = rule.is_local
    seen_keys: set[Choices] = set()
    worst: Fraction | None = None
    for p0 in profiles:
        game.validate_profile(p0)
        root = quotient.canonical(p0.choices)
        if dedupe:
            if root in seen_keys:
                continue
            seen_keys.add(root)
        best_cost, worst_ne = reachable_extremes(
            root, children, lambda key: game.social_cost(Profile(key)), oracle_solved, state_limit
        )
        if rule.is_stateless:
            _, worst_cost = reachable_extremes(
                p0.choices, rule_children, rule_terminal_cost, rule_solved, state_limit
            )
        else:
            trace = run_brd(game, p0, rule)
            key, profile = root, p0
            for move in trace.moves:
                idx = game.strategy_space(move.player).index(move.new_strategy)
                profile = profile.with_choice(game, move.player, idx)
                key = checked_step(key, profile.choices)
            check_terminal(key)
            worst_cost = oracle_solved[key][0]
        alpha = worst_cost / best_cost
        envelope = worst_ne / best_cost
        if not 1 <= alpha <= envelope:
            raise AssertionError(f"inefficiency {alpha} outside [1, {envelope}]")
        worst = alpha if worst is None else max(worst, alpha)
    if worst is None:
        raise ValueError("profile source was empty")
    return worst
