"""Shared instance generators for the test suite.

All generators take an explicit random.Random so suites stay reproducible;
cost distributions use modest numerators/denominators, which keeps Fraction
arithmetic fast while still exercising non-trivial share arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from brdlab.core import Game, Profile, SocialCostKind
from brdlab.networks import Edge, Network, NetworkFormationGame, PlayerSpec
from brdlab.scheduling import SchedulingGame
from brdlab.sppdp import SppEdge, SppInstance, SppPlayer


def rand_cost(rng: random.Random, hi: int = 999_983, den: int = 9) -> F:
    """Generic costs: the wide numerator range makes exact marginal-share
    coincidences (cost_a / k == cost_b / l) vanishingly rare, keeping the
    random pools inside the tie-free regime the optimality statements
    assume.  Degenerate ties are exercised separately via `tie_heavy`."""
    return F(rng.randint(1, hi), rng.randint(1, den))


def parallel_network(costs) -> Network:
    return Network(
        tuple(Edge(i, 0, 1, F(c)) for i, c in enumerate(costs, start=1)),
        source=0,
        sink=1,
    )


def random_symmetric_game(rng: random.Random, tie_heavy: bool = False) -> NetworkFormationGame:
    """A symmetric network formation game with at most 4 players and at
    most 6 paths: either parallel edges or a two-segment chain.  With
    `tie_heavy` the edge costs are drawn from {1, 2, 4}, so equal shares
    and tied best responses are common."""

    def cost() -> F:
        return F(rng.choice((1, 2, 4))) if tie_heavy else rand_cost(rng)

    n = rng.randint(2, 4)
    if rng.random() < 0.7:
        k = rng.randint(2, 6)
        net = parallel_network([cost() for _ in range(k)])
        target = 1
    else:
        a, b = rng.choice([(2, 2), (2, 3), (3, 2)])
        edges = [Edge(i, 0, 1, cost()) for i in range(1, a + 1)]
        edges += [Edge(a + i, 1, 2, cost()) for i in range(1, b + 1)]
        net = Network(tuple(edges), source=0, sink=2)
        target = 2
    return NetworkFormationGame(net, [PlayerSpec(0, target)] * n)


def random_profile(rng: random.Random, game) -> Profile:
    return Profile(
        tuple(rng.randrange(len(game.strategy_space(i))) for i in game.players)
    )


def _segment_blocks(rng: random.Random, m: int, max_edges: int, tie_heavy: bool):
    segments = []
    eid = 1
    for _ in range(m):
        k = rng.randint(1, max_edges)
        block = []
        for _ in range(k):
            cost = F(rng.randint(1, 6)) if tie_heavy else rand_cost(rng)
            block.append(SppEdge(eid, cost))
            eid += 1
        segments.append(tuple(block))
    return tuple(segments)


def random_single_source_instance(
    rng: random.Random,
    max_n: int = 5,
    max_m: int = 4,
    max_edges: int = 3,
    tie_heavy: bool = False,
) -> SppInstance:
    m = rng.randint(1, max_m)
    segments = _segment_blocks(rng, m, max_edges, tie_heavy)
    n = rng.randint(1, max_n)
    targets = [m] + [rng.randint(1, m) for _ in range(n - 1)]
    players = []
    for t in targets:
        initial = tuple(rng.choice(segments[s]).id for s in range(t))
        players.append(SppPlayer(0, t, initial))
    return SppInstance(segments, tuple(players))


def random_proper_instance(
    rng: random.Random,
    max_n: int = 5,
    max_m: int = 4,
    max_edges: int = 3,
    tie_heavy: bool = False,
) -> SppInstance:
    m = rng.randint(1, max_m)
    segments = _segment_blocks(rng, m, max_edges, tie_heavy)
    n = rng.randint(1, max_n)
    while True:
        sources = sorted(rng.randint(0, m - 1) for _ in range(n))
        targets = sorted(rng.randint(1, m) for _ in range(n))
        if any(t <= s for s, t in zip(sources, targets)):
            continue
        covered = set()
        for s, t in zip(sources, targets):
            covered |= set(range(s + 1, t + 1))
        if covered == set(range(1, m + 1)):
            break
    players = []
    for s, t in zip(sources, targets):
        initial = tuple(rng.choice(segments[j]).id for j in range(s, t))
        players.append(SppPlayer(s, t, initial))
    return SppInstance(segments, tuple(players))


def random_coco_game(
    rng: random.Random, max_n: int = 30, max_m: int = 6, generic_b: bool = False
) -> tuple[SchedulingGame, Profile]:
    """Conflicting-congestion instance with B in [4, 25].

    With `generic_b` the activation cost is a half-integer, so no two
    integer loads x, y can satisfy x*y = B: the per-load costs c(x) are
    then all distinct, the tie-free regime in which the optimal machine
    rule's guarantees hold.
    """
    m = rng.randint(2, max_m)
    n = rng.randint(m, max_n)
    if generic_b:
        b = F(2 * rng.randint(4, 24) + 1, 2)
    else:
        b = F(rng.randint(4, 25))
    game = SchedulingGame(m, [F(1)] * n, activation_cost=b)
    p0 = Profile(tuple(rng.randrange(m) for _ in range(n)))
    return game, p0


def random_weighted_game(rng: random.Random) -> NetworkFormationGame:
    """A weighted network formation game on parallel edges or a 2×2 chain
    (the topologies weighted games admit), with weights drawn from a small
    set so that some players are interchangeable."""
    n = rng.randint(2, 4)
    weights = [rng.choice((F(1), F(3, 2), F(2))) for _ in range(n)]
    if rng.random() < 0.6:
        net = parallel_network([rand_cost(rng) for _ in range(rng.randint(2, 4))])
        target = 1
    else:
        edges = [Edge(i, 0, 1, rand_cost(rng)) for i in (1, 2)]
        edges += [Edge(i, 1, 2, rand_cost(rng)) for i in (3, 4)]
        net = Network(tuple(edges), source=0, sink=2)
        target = 2
    return NetworkFormationGame(net, [PlayerSpec(0, target, w) for w in weights])


def random_linear_game(rng: random.Random) -> tuple[SchedulingGame, Profile]:
    """Linear-model scheduling on 2-5 machines with up to 10 jobs, lengths
    drawn from a small set so that equal jobs occur."""
    m = rng.randint(2, 5)
    lengths = [rng.choice((F(1), F(2), F(5, 2), F(7, 3))) for _ in range(rng.randint(2, 10))]
    game = SchedulingGame(m, lengths)
    return game, random_profile(rng, game)


# -- plain-Fraction reference for the SPP programs --------------------------------


def short_replay_chain() -> SppInstance:
    """The smallest proper-interval chain whose program claims an optimum
    (5) below the oracle's best (6).  Its skeleton moves player 3 onto
    edge 3, then player 2 onto edges (2, 3); but with player 3 beside her
    on edge 3, player 2's two paths both cost 3, so she never moves and the
    replay ends at 6."""
    return SppInstance(
        ((SppEdge(1, F(2)), SppEdge(2, F(1))), (SppEdge(3, F(4)), SppEdge(4, F(5)))),
        (SppPlayer(0, 1, (1,)), SppPlayer(0, 2, (1, 3)), SppPlayer(1, 2, (4,))),
    )


def _reference_counts(inst: SppInstance) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in inst.players:
        for e in p.initial:
            counts[e] = counts.get(e, 0) + 1
    return counts


def reference_sub_chain_program(inst: SppInstance, sub_chains) -> tuple[dict, dict, tuple]:
    """The chain DP in plain `Fraction` arithmetic: (opt, first_mover,
    skeleton) over `sub_chains`, shorter ones first, ending with (0, m).

    A player's pick in a segment is the edge of least marginal share against
    the initial loads with herself removed (then the cheaper edge, then the
    lower id); only players with a strict improvement somewhere may move
    first.  The skeleton is the recursive pre-order walk of the first
    movers, left sub-chain before right."""
    counts = _reference_counts(inst)
    pick, pick_cost, movable = {}, {}, []
    for pos, p in enumerate(inst.players):

        def marginal(e: SppEdge) -> F:
            return e.cost / (counts.get(e.id, 0) - (e.id in p.initial) + 1)

        strict = False
        for seg, current in zip(range(p.source + 1, p.target + 1), p.initial):
            block = inst.segments[seg - 1]
            best = min(block, key=lambda e: (marginal(e), e.cost, e.id))
            own = next(e for e in block if e.id == current)
            strict = strict or marginal(best) < marginal(own)
            pick[pos, seg], pick_cost[pos, seg] = best.id, best.cost
        movable.append(strict)

    opt: dict[tuple[int, int], F] = {}
    first: dict[tuple[int, int], int | None] = {}
    for s, t in sub_chains:
        best = None
        for pos, p in enumerate(inst.players):
            if p.source >= t or p.target <= s or not movable[pos]:
                continue
            value = sum(
                (pick_cost[pos, seg] for seg in range(max(s, p.source) + 1, min(t, p.target) + 1)),
                F(0),
            )
            if p.source > s:
                value += opt[s, p.source]
            if p.target < t:
                value += opt[p.target, t]
            if best is None or (value, pos) < best:
                best = (value, pos)
        if best is None:
            opt[s, t] = sum(
                (e.cost for block in inst.segments[s:t] for e in block if counts.get(e.id, 0)),
                F(0),
            )
            first[s, t] = None
        else:
            opt[s, t], first[s, t] = best

    resolved: dict[int, int] = {}
    skeleton = []

    def walk(s: int, t: int) -> None:
        pos = first[s, t]
        if pos is None:
            return
        p = inst.players[pos]
        segs = range(p.source + 1, p.target + 1)
        skeleton.append((pos + 1, tuple(resolved.get(seg, pick[pos, seg]) for seg in segs)))
        for seg in segs:
            resolved.setdefault(seg, pick[pos, seg])
        if p.source > s:
            walk(s, p.source)
        if p.target < t:
            walk(p.target, t)

    walk(0, inst.m)
    return opt, first, tuple(skeleton)


def reference_resolved_segments(inst: SppInstance, prefix=()) -> dict[int, int]:
    """`resolved_segments(inst, prefix)` in plain `Fraction` arithmetic:
    the segments whose covering players all pick the same edge by (marginal
    share, id), then each deviator's segments pinned to her edges."""
    counts = _reference_counts(inst)
    resolved = {}
    for seg in range(1, inst.m + 1):
        choices = {
            min(
                inst.segments[seg - 1],
                key=lambda e: (e.cost / (counts.get(e.id, 0) - (e.id in p.initial) + 1), e.id),
            ).id
            for p in inst.players
            if p.source < seg <= p.target
        }
        if len(choices) == 1:
            resolved[seg] = choices.pop()
    for player, strategy in prefix:
        p = inst.players[player - 1]
        for seg, edge in zip(range(p.source + 1, p.target + 1), strategy):
            resolved[seg] = edge
    return dict(sorted(resolved.items()))


def reference_costs_against(game, pos, own, loads) -> list[int]:
    """`NetworkFormationGame._costs_against` as each path's sum of its
    edges' shares, in the game's cost unit: an edge of the position's own
    path holds her already."""
    w, cost, space = game._load_weights[pos], game._scaled_cost, game._spaces[pos]
    mine = set(space[own])
    return [sum(cost[e] * w // (loads.get(e, 0) + (0 if e in mine else w)) for e in path)
            for path in space]


class MatchingPennies(Game):
    """Two players on two resources, weights 1 and 2: player 1 pays 0 on
    the other player's resource and 1 elsewhere, player 2 the opposite.  A
    weighted game without a potential: from every profile, best responses
    cycle through all four profiles and reach no equilibrium."""

    def __init__(self) -> None:
        super().__init__([[(0,), (1,)]] * 2, [F(1), F(2)], SocialCostKind.SUM)

    def _costs_against(self, pos, own, loads):
        # a resource holds the other player when it carries more than her own load
        space, w = self._spaces[pos], self._load_weights[pos]
        mine = space[own][0]
        return [int((loads.get(e, 0) - (w if e == mine else 0) > 0) == (pos == 1))
                for (e,) in space]


class EscapablePennies(Game):
    """Matching pennies with two exits, weights 1 and 2; each resource
    costs each player one amount free of the other player and another
    beside her.  Player 1 takes A = {0, 2} or B = {1, 3} and wants to
    meet player 2 on 0 or 1; player 2 takes X = {2}, Y = {3}, C = {0} or
    D = {1} and wants to avoid her on 0 and 1 but meet her on 2 and 3.

    Best responses cycle (A, C) -> (A, D) -> (B, D) -> (B, C) -> (A, C),
    and player 2 can leave the cycle whenever she moves: to X from (A, C)
    and to Y from (B, D).  The equilibria are (A, X) at cost 5 and (B, Y)
    at cost 3, and every start reaches (A, X), the cycle or (B, Y).  The
    exits come first in player 2's space, so her canonical pick leaves the
    cycle at once."""

    # per position and resource: (its cost free of the other player, beside her)
    COSTS = ({0: (1, 0), 1: (3, 0), 2: (2, 4), 3: (2, 0)},
             {0: (0, 1), 1: (0, 1), 2: (2, 0), 3: (2, 0)})

    def __init__(self) -> None:
        super().__init__([[(0, 2), (1, 3)], [(2,), (3,), (0,), (1,)]], [F(1), F(2)],
                         SocialCostKind.SUM)

    def _costs_against(self, pos, own, loads):
        space, w, costs = self._spaces[pos], self._load_weights[pos], self.COSTS[pos]
        mine = space[own]
        # a resource holds the other player when it carries more than her own load
        return [sum(costs[e][loads.get(e, 0) - (w if e in mine else 0) > 0] for e in strategy)
                for strategy in space]


def _chain(*blocks) -> tuple[tuple[SppEdge, ...], ...]:
    """Segments from (edge id, cost) pairs."""
    return tuple(tuple(SppEdge(e, F(c)) for e, c in block) for block in blocks)


def flock_current_edge_chain() -> SppInstance:
    """A single-source chain whose cleanup keeps a flocking player on her
    current edge, in a segment whose resolved edge is not among her tied
    best edges.  Program optimum, oracle best and replay terminal are all
    5."""
    return SppInstance(
        _chain([(1, 1), (2, 1)], [(3, 2), (4, 1)], [(5, 1), (6, 6)], [(7, 2), (8, 5)]),
        (SppPlayer(0, 4, (1, 3, 5, 7)), SppPlayer(0, 3, (2, 3, 6)), SppPlayer(0, 1, (1,))),
    )


def flock_cheapest_edge_chain() -> SppInstance:
    """A proper-interval chain whose cleanup moves a flocking player to the
    cheapest of her tied best edges, in a segment where these include
    neither the resolved edge nor her current one.  Program optimum, oracle
    best and replay terminal are all 4."""
    return SppInstance(
        _chain([(1, 6), (2, 1), (3, 1)], [(4, 3), (5, 3)]),
        (SppPlayer(0, 1, (2,)), SppPlayer(0, 1, (2,)), SppPlayer(0, 2, (3, 5)),
         SppPlayer(0, 2, (3, 4)), SppPlayer(1, 2, (5,))),
    )
