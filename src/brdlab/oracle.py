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

`rule_inefficiency` runs one per-start routine: it searches the oracle's
moves and the rule's, checks every rule move against the oracle's, and
asserts the 1 <= alpha <= worst/best envelope.  It returns what it
searched, NE(p0) as a `ReachableSet` and NE_S(p0) as a `RuleReach`, each
ranked by (social cost, profile), with alpha; the report is read off those
two.  A stateful rule's search has one move per state, so it is the rule's
run.

`game_inefficiency` needs only the extremes of those sets, so it values
states instead of listing them, on the engine's one `fold` over the same
checked moves: its span combine gives every state the cheapest and
dearest equilibrium it reaches, and a start reads the oracle's pair at its
canonical profile and the rule's worst.  A stateless rule is asked once
per canonical profile, over its moving groups, and its worst is read on
canonical profiles too wherever its choice ignores labels: where it
chooses one (class, strategy) group or none at every state a start
reaches, every relabeling of the start reaches the same canonical states.
Elsewhere the engine's lowest-id tie-break among several chosen groups
hangs on labels, and the start's raw profiles are searched, their moves
read off the chosen groups (see `_Searches.rule_moves`).  So over every
profile of a tiny game a label-free start is checked once, at its
canonical profile, and only the relabelings of the others are searched.
Every value, and the oracle's moves, are memoized per call, so each state
is expanded and valued once however many starts reach it.

Budgets are hard: exceeding the state limit raises; partial searches are
never reported as results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .core import Cost, Evaluation, Game, PlayerId, Profile
from .engine import (
    DEFAULT_STATE_LIMIT,
    CycleDetected,
    DeviatorRule,
    EngineError,
    Link,
    Parents,
    RuleReach,
    SearchMove,
    StateBudgetExceeded,
    Trace,
    fold,
    parent_search,
    replay_links,
    rule_successors,
)


class _Quotient:
    """Canonical encodings of profiles modulo interchangeable players."""

    def __init__(self, game: Game) -> None:
        self.classes = game.player_classes()
        self.canonical = self._canonicalizer()

    def _canonicalizer(self) -> Callable[[Profile], Profile]:
        """The canonical encoding, built once per game: each class's
        strategy indices sorted over its positions."""
        multi = [(cls, itemgetter(*cls)) for cls in self.classes if len(cls) > 1]
        if not multi:
            return tuple
        if len(self.classes) == 1:
            # one class holds every player, in position order
            return lambda profile: tuple(sorted(profile))

        def canonical(profile: Profile) -> Profile:
            out = list(profile)
            for cls, get in multi:
                for pos, value in zip(cls, sorted(get(profile))):
                    out[pos] = value
            return tuple(out)

        return canonical

    def successors(self, ev: Evaluation) -> list[SearchMove]:
        """Every oracle move out of the evaluated canonical profile, as
        (position, strategy index, canonical child): one representative
        mover per (class, strategy) whose holder is suboptimal, to each of
        her best responses, read off the game's `_moving_groups`.  Empty
        exactly at equilibria."""
        profile, canonical = ev.profile, self.canonical
        moves = []
        for pos, br in ev.moving_groups():
            for target in br:
                child = list(profile)
                child[pos] = target
                moves.append((pos, target, canonical(tuple(child))))
        return moves

    @cached_property
    def _class_of(self) -> dict[int, tuple[int, ...]]:
        return {pos: cls for cls in self.classes for pos in cls}

    def mover(self, profile: Profile, link: Link) -> PlayerId:
        """Who makes the canonical move `link` in the raw `profile`: the
        lowest-id member of the mover's class currently on the strategy
        the move leaves."""
        parent, pos, _ = link
        return 1 + min(p for p in self._class_of[pos] if profile[p] == parent[pos])


@dataclass(frozen=True)
class SearchStats:
    visited: int


@dataclass
class ReachableSet:
    """The set NE(p0): every equilibrium reachable from p0, canonically
    encoded and ranked by (social cost, profile), together with traversal
    parent links for witness extraction."""

    game: Game
    initial: Profile
    ne_profiles: tuple[Profile, ...]
    social_costs: tuple[Cost, ...]
    stats: SearchStats
    _quotient: _Quotient
    _parents: Parents

    def best(self) -> tuple[Profile, Cost]:
        """Minimum-social-cost equilibrium, ties broken by encoding."""
        return self.ne_profiles[0], self.social_costs[0]

    def contains(self, profile: Profile) -> bool:
        return self._quotient.canonical(profile) in self.ne_profiles

    def witness(self, target: Profile) -> Trace:
        """A best-response sequence from the initial profile to `target`,
        replayed in raw player space from the search's parent links."""
        key = self._quotient.canonical(target)
        if key not in self._parents:
            raise KeyError("target was not visited")
        trace = replay_links(self.game, self.initial, self._parents, key, self._quotient.mover)
        assert self._quotient.canonical(trace.terminal) == key
        return trace


def _reachable_set(game: Game, p0: Profile, quotient: _Quotient, parents: Parents,
                   ne_keys: tuple[Profile, ...], cost: Callable[[Profile], Cost]) -> ReachableSet:
    """NE(p0) ranked by (`cost`, profile); raises CycleDetected when it is empty."""
    if not ne_keys:
        raise CycleDetected("a best-response cycle reaches no equilibrium")
    costs, profiles = zip(*sorted(zip(map(cost, ne_keys), ne_keys)))
    return ReachableSet(game, p0, profiles, costs, SearchStats(len(parents)), quotient, parents)


def reachable_ne(
    game: Game, p0: Profile, state_limit: int = DEFAULT_STATE_LIMIT
) -> ReachableSet:
    """Exact NE(p0) by memoized depth-first search over the quotient of the
    reachable profile space; raises CycleDetected when it is empty."""
    game.validate_profile(p0)
    quotient = _Quotient(game)
    # every state past the start is the child of a move, so valid as it is
    parents, ne_keys = parent_search(
        quotient.canonical(p0), lambda p: quotient.successors(Evaluation(game, p)), state_limit
    )
    return _reachable_set(game, p0, quotient, parents, ne_keys, game.social_cost)


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


# a stateless rule's choice at a canonical state: each chosen (class,
# strategy) group -> that group's best responses
Choice = dict[tuple[int, int], tuple[int, ...]]

# the least and greatest social cost, in the game's cost unit, of the
# equilibria a state reaches; None for none
Extremes = tuple[int, int] | None
# a stateless rule's value at a canonical state: its span, and whether
# every relabeling of the state reaches that span (see `game_inefficiency`)
CanonicalValue = tuple[Extremes, bool]


def _span(a: Extremes, b: Extremes) -> Extremes:
    """The span of two spans: the oracle's and the rule's combine."""
    if a is None or a is b:
        return b
    if b is None:
        return a
    return (a[0] if a[0] <= b[0] else b[0], a[1] if a[1] >= b[1] else b[1])


def _canonical_span(a: CanonicalValue, b: CanonicalValue) -> CanonicalValue:
    return _span(a[0], b[0]), a[1] and b[1]


def _outside() -> None:
    """A rule move that is no oracle move, or a rule terminal that is no
    oracle sink."""
    raise AssertionError("rule reached an equilibrium outside NE(p0)")


class _Searches:
    """One game's best-response moves: the oracle's moves and evaluation
    for each canonical profile, memoized across start profiles, and a
    rule's moves out of each raw profile (the engine's lowest-id tie-break
    need not commute with relabeling interchangeable players).  Both read
    the game's one verdict per canonical profile, `Game._moving_groups`,
    which on scheduling games builds no cell.  A canonical profile is
    evaluated without validation: the start is validated by the caller,
    and every other one is the child of a move.  A stateless rule is asked
    once per canonical profile, over that verdict's moving groups
    (`DeviatorRule._choose_groups`), and the chosen groups with their best
    responses are memoized next to its oracle entry; raw profiles are only
    counted.  Where that choice is one group or none, its moves
    are also given canonically (`canonical_rule_moves`), each the oracle's
    move with the same position and target.  Every rule move is checked to
    be an oracle move, a raw one by its canonical child, and every rule
    terminal an oracle sink, which puts NE_S(p0) within NE(p0).  A raw
    child is canonicalized once, in its check, and that key is kept for
    the child's own moves and value.  `start` searches both move relations
    from one start, for `rule_inefficiency`; `game_inefficiency` values
    their states with `engine.fold` instead, reading each equilibrium's
    cost off `ne_units`.  `state_limit` bounds each search, the oracle's
    memo and the raw states a stateless rule's moves are read for.  The
    rule must accept the game, which is checked once, before any search."""

    def __init__(self, game: Game, rule: DeviatorRule, state_limit: int) -> None:
        if not rule.accepts(game):
            raise EngineError(f"rule {rule.name} does not accept this game class")
        self.game = game
        self.rule = rule
        self.state_limit = state_limit
        self.quotient = _Quotient(game)
        # canonical state -> (its oracle moves, their canonical children, its evaluation)
        self._oracle: dict[Profile, tuple[list[SearchMove], frozenset[Profile], Evaluation]] = {}
        # canonical state -> a stateless rule's choice there
        self._chosen: dict[Profile, Choice] = {}
        # the raw states a stateless rule's moves were read for
        self._rule_states = 0
        # canonical equilibrium -> its social cost, in the game's cost unit
        self.ne_units: dict[Profile, int] = {}

    def _grow(self, size: int) -> None:
        if size >= self.state_limit:
            raise StateBudgetExceeded(f"search exceeded the {self.state_limit}-state budget")

    def _expand(self, key: Profile) -> tuple[list[SearchMove], frozenset[Profile], Evaluation]:
        entry = self._oracle.get(key)
        if entry is None:
            self._grow(len(self._oracle))
            # a start is validated by the caller, and every other state is
            # the child of a move
            ev = Evaluation(self.game, key)
            moves = self.quotient.successors(ev)
            if not moves:
                self.ne_units[key] = self.game._social_units(ev)
            entry = self._oracle[key] = (moves, frozenset(child for _, _, child in moves), ev)
        return entry

    def oracle_moves(self, key: Profile) -> list[SearchMove]:
        return self._expand(key)[0]

    def _choice(self, key: Profile, ev: Evaluation) -> Choice:
        """The stateless rule's choice among the moving groups of the
        canonical state `key`, with evaluation `ev` (`_choose_groups`,
        which checks it), memoized."""
        choice = self._chosen.get(key)
        if choice is None:
            class_ids = self.game._class_ids
            choice = self._chosen[key] = {
                (class_ids[pos], key[pos]): br
                for pos, br in self.rule._choose_groups(ev, ev.moving_groups())}
        return choice

    def _lifted(self, profile: Profile, choice: Choice) -> tuple[SearchMove, ...]:
        """The moves a stateless rule's `choice` gives out of `profile`,
        which may be raw: the lowest position in a chosen (class, strategy)
        group moves to each of the group's best responses."""
        game = self.game
        for pos, group in enumerate(zip(game._class_ids, profile)):
            targets = choice.get(group)
            if targets is not None:
                return tuple((pos, idx, game.with_choice(profile, pos + 1, idx))
                             for idx in targets)
        return ()

    def _checked(self, moves: tuple[SearchMove, ...], kids: frozenset[Profile],
                 keys: dict[Profile, Profile]) -> tuple[SearchMove, ...]:
        """`moves`, each of whose children must be the child of an oracle
        move (`kids`); no moves must mean an oracle sink.  Each child is
        canonicalized once, here, and its key kept in `keys`."""
        if kids and not moves:
            _outside()
        canonical = self.quotient.canonical
        for _, _, child in moves:
            key = keys[child] = canonical(child)
            if key not in kids:
                _outside()
        return moves

    def rule_moves(self, profile: Profile,
                   keys: dict[Profile, Profile]) -> tuple[SearchMove, ...]:
        """The rule's checked moves out of the raw state `profile`, read
        from its canonical profile's oracle entry.  A stateless rule's are
        its choice there, lifted: the moves
        `rule_successors(ev.relabeled(profile), rule, branch_all=True)`
        gives, as the choice relabels with the clones; each such raw state
        counts against the state limit.  A stateful rule makes its
        canonical move, so its search is its run.  `keys` maps raw states
        to their canonical profiles: the profile's is read there, and each
        child's written there by its check."""
        key = keys[profile]
        _, kids, ev = self._expand(key)
        if not self.rule.is_stateless:
            return self._checked(rule_successors(ev.relabeled(profile), self.rule), kids, keys)
        moves = self._checked(self._lifted(profile, self._choice(key, ev)), kids, keys)
        self._grow(self._rule_states)
        self._rule_states += 1
        return moves

    def canonical_rule_moves(self, key: Profile) -> tuple[SearchMove, ...]:
        """A stateless rule's checked moves out of the canonical state
        `key`, to canonical children, where it chooses one (class,
        strategy) group: every relabeling of `key` makes these moves, up
        to relabeling.  Each must be the oracle's move with the same
        position and target, whose child it takes.  No moves where it
        chooses several groups, since the engine's lowest id picks among
        them by label."""
        oracle, _, ev = self._expand(key)
        choice = self._choice(key, ev)
        if len(choice) > 1:
            return ()
        moves: tuple[SearchMove, ...] = ()
        for pos, group in enumerate(zip(self.game._class_ids, key)):
            targets = choice.get(group)
            if targets is not None:
                children = {idx: child for mover, idx, child in oracle if mover == pos}
                if any(idx not in children for idx in targets):
                    _outside()
                moves = tuple((pos, idx, children[idx]) for idx in targets)
                break
        if oracle and not moves:
            _outside()
        return moves

    def canonical_rule_leaf(self, key: Profile) -> CanonicalValue:
        """The value of a canonical state without `canonical_rule_moves`:
        an equilibrium's span, or, where the rule chooses several groups,
        no span and not label-free."""
        if self._chosen[key]:
            return None, False
        return self.span(key), True

    def span(self, key: Profile) -> Extremes:
        """The span of a canonical profile the oracle found to be an
        equilibrium: its social cost twice, in the game's cost unit."""
        units = self.ne_units[key]
        return units, units

    def cost(self, profile: Profile) -> Cost:
        """Social cost of an equilibrium the oracle has searched."""
        units = self.ne_units[self.quotient.canonical(profile)]
        return Fraction(units, self.game._cost_unit)

    def start(self, p0: Profile) -> tuple[ReachableSet, RuleReach, Fraction]:
        """Search the oracle's and the rule's moves from the valid `p0`:
        NE(p0) and NE_S(p0), each ranked by (social cost, profile), and
        alpha, asserting the 1 <= alpha <= (worst/best over NE(p0)) envelope."""
        game, rule = self.game, self.rule
        keys = {p0: self.quotient.canonical(p0)}
        parents, ne_keys = parent_search(keys[p0], self.oracle_moves, self.state_limit)
        rule.reset(game)
        links, terminals = parent_search(p0, lambda p: self.rule_moves(p, keys),
                                         self.state_limit)
        reach = _reachable_set(game, p0, self.quotient, parents, ne_keys, self.cost)
        if not terminals:
            raise CycleDetected("a best-response cycle reaches no equilibrium")
        rule_costs, terminals = zip(*sorted(zip(map(self.cost, terminals), terminals)))
        costs = reach.social_costs
        _check_envelope(costs[0], rule_costs[-1], costs[-1])
        return reach, RuleReach(terminals, len(links), p0, links), rule_costs[-1] / costs[0]


def _check_envelope(best: Cost | int, rule_worst: Cost | int, worst: Cost | int) -> None:
    """1 <= alpha <= worst/best over NE(p0), for alpha = rule_worst/best."""
    if not best <= rule_worst <= worst:
        raise AssertionError(f"inefficiency {Fraction(rule_worst) / best} "
                             f"outside [1, {Fraction(worst) / best}]")


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
    reach, rule_reach, alpha = searches.start(p0)
    best, best_cost = reach.best()
    rule_costs = tuple(map(searches.cost, rule_reach.terminals))
    return InefficiencyReport(
        game_id=game_id,
        rule_id=rule.name,
        initial=p0,
        worst_rule_cost=rule_costs[-1],
        best_cost=best_cost,
        alpha=alpha,
        ne_costs=reach.social_costs,
        rule_ne_costs=rule_costs,
        rule_witness=rule_reach.witness(game, rule_reach.terminals[-1]),
        optimal_witness=reach.witness(best),
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
    yield from itertools.product(*map(range, sizes))


def game_inefficiency(
    game: Game,
    rule: DeviatorRule,
    profile_source: Iterable[Profile] | None = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Fraction:
    """Worst-case rule inefficiency over the supplied initial profiles, or
    over every profile of a tiny game when no source is given.

    Each start reads the oracle's cheapest and dearest equilibrium at its
    canonical profile, and the rule's dearest, off passes of `engine.fold`
    with the span combine.  A stateful rule's pass is its run from the
    start.  A stateless rule is first folded over canonical profiles, each
    valued (span, label-free): no chosen group is an equilibrium, one
    chosen group moves to its best responses as every relabeling does, and
    several make a leaf that is not label-free, since the engine's lowest
    id picks among them by label; label-freedom ANDs over every state
    reached.  A label-free start reads the rule's worst there; any other is
    searched over raw profiles, where a raw state whose canonical profile
    is label-free is a leaf valued from the canonical pass.  So the rule is
    asked at the same canonical states as a raw search of every start
    would ask it.  The checks are those of `rule_inefficiency`'s searches;
    a raw state is canonicalized once, at its start or where the move to
    it is checked.
    Every value but a stateful rule's is kept across starts, so each state
    is valued once however many starts reach it, and a stateless rule's
    start whose canonical profile is label-free and already checked is
    skipped: its value and its check are those of the first such start.
    So over every profile of a tiny game, in `all_profiles`' order, where
    a canonical profile comes before its relabelings, a label-free one is
    checked once, and the relabelings of any other are searched raw.
    `state_limit` bounds the states one pass opens, the oracle's memo of
    moves, and the raw states a stateless rule's moves are read for, each
    summed over all starts.  A supplied start is validated; the profiles
    of a tiny game are valid as enumerated.
    """
    profiles = profile_source if profile_source is not None else all_profiles(game)
    searches = _Searches(game, rule, state_limit)
    canonical, span = searches.quotient.canonical, searches.span
    oracle_values: dict[Profile, Extremes] = {}
    canonical_values: dict[Profile, CanonicalValue | None] = {}
    rule_values: dict[Profile, Extremes] = {}
    # raw state -> its canonical profile, from its start or its move's check
    keys: dict[Profile, Profile] = {}
    # the label-free canonical profiles whose start was checked
    checked: set[Profile] = set()

    def canonical_value(key: Profile) -> CanonicalValue | None:
        # a stateless rule's canonical pass; its memo is read first, as the
        # oracle's is below
        return canonical_values.get(key) or fold(
            key, searches.canonical_rule_moves, searches.canonical_rule_leaf, _canonical_span,
            canonical_values, state_limit)

    def raw_moves(profile: Profile) -> tuple[SearchMove, ...]:
        # a raw state whose canonical profile is label-free is a leaf
        value = canonical_value(keys[profile])
        return () if value is None or value[1] else searches.rule_moves(profile, keys)

    def raw_leaf(profile: Profile) -> Extremes:
        value = canonical_values[keys[profile]]
        return value and value[0]

    # the largest alpha so far, as (the rule's worst, the best) in the cost unit
    alpha: tuple[int, int] | None = None
    for p0 in profiles:
        if profile_source is not None:
            # `all_profiles` yields valid profiles only
            game.validate_profile(p0)
        key = canonical(p0)
        if key in checked:
            continue
        # a memo is read first; its None falls through to the fold, which returns it
        envelope = oracle_values.get(key) or fold(key, searches.oracle_moves, span, _span,
                                                  oracle_values, state_limit)
        rule.reset(game)
        if not rule.is_stateless:
            # a run keeps nothing across starts
            run = {p0: key}
            reach = fold(p0, lambda p: searches.rule_moves(p, run), lambda p: span(run[p]),
                         _span, {}, state_limit)
        elif (value := canonical_value(key)) is None or value[1]:
            reach = value and value[0]
            checked.add(key)
        else:
            keys[p0] = key
            reach = rule_values.get(p0) or fold(p0, raw_moves, raw_leaf, _span, rule_values,
                                                state_limit)
        if envelope is None or reach is None:
            raise CycleDetected("a best-response cycle reaches no equilibrium")
        (best, worst), rule_worst = envelope, reach[1]
        _check_envelope(best, rule_worst, worst)
        if alpha is None or rule_worst * alpha[1] > alpha[0] * best:
            alpha = (rule_worst, best)
    if alpha is None:
        raise ValueError("profile source was empty")
    return Fraction(*alpha)

