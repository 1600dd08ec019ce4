"""Shared instance generators for the test suite.

All generators take an explicit random.Random so suites stay reproducible;
cost distributions use modest numerators/denominators, which keeps Fraction
arithmetic fast while still exercising non-trivial share arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from brdlab.core import Profile
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


def random_symmetric_game(rng: random.Random) -> NetworkFormationGame:
    """A symmetric network formation game with at most 4 players and at
    most 6 paths: either parallel edges or a two-segment chain."""
    n = rng.randint(2, 4)
    if rng.random() < 0.7:
        k = rng.randint(2, 6)
        net = parallel_network([rand_cost(rng) for _ in range(k)])
        target = 1
    else:
        a, b = rng.choice([(2, 2), (2, 3), (3, 2)])
        edges = [Edge(i, 0, 1, rand_cost(rng)) for i in range(1, a + 1)]
        edges += [Edge(a + i, 1, 2, rand_cost(rng)) for i in range(1, b + 1)]
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
