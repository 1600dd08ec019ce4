"""Optimal-sequence dynamic programs for series-of-parallel-paths networks.

An SPP instance is a chain of parallel-edge segments with interval players:
player i walks segments s_i+1 .. t_i and her strategy picks one edge per
segment.  Because a deviation fixes the edge every later mover uses in each
segment it touches, the first few migrations determine the equilibrium, and
the best reachable equilibrium decomposes over sub-chains.  One program
fills opt[(s, t)], the best cost of the sub-chain of segments s+1 .. t, by
trying every first mover there; the two public programs differ only in the
sub-chains they pass it, shorter ones first:

* single source: the m suffixes (s, m), O(n*m) values;
* proper intervals (sources and targets sorted consistently): every
  sub-chain, by increasing length.

The programs count in one integer unit per instance, U = lcm(edge-cost
denominators) * lcm(1..n), the unit `NetworkFormationGame` uses for unit
weights (`networks.unit_edge_costs` at total load n): every marginal share
(c_e * U) // k is exact.  Each player's pick costs are prefix-summed, so one
(sub-chain, first mover) value costs O(1).  `DpTable.opt` and `optimum` are
`Fraction`s, built once per table.

Both key `opt` and `first_mover` by (s, t).  Each DP returns its value table
together with a forced deviator skeleton; `replay` walks the skeleton and
then the cleanup moves through the engine's one trace loop, which checks
that every move is a legal best-response move, so the claimed optimum can be
checked against the realized equilibrium exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .core import Evaluation, GameError, PlayerId, Profile, ResourceId, Strategy
from .engine import DEFAULT_MAX_STEPS, ScriptMove, Trace, script_mover, walk
from .networks import Edge, Network, NetworkFormationGame, PlayerSpec, unit_edge_costs


class SppError(GameError):
    pass


@dataclass(frozen=True)
class SppEdge:
    id: ResourceId
    cost: Fraction


@dataclass(frozen=True)
class SppPlayer:
    source: int
    target: int
    initial: tuple[ResourceId, ...]  # one edge per segment source+1 .. target


@dataclass(frozen=True)
class SppInstance:
    segments: tuple[tuple[SppEdge, ...], ...]
    players: tuple[SppPlayer, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise SppError("a chain needs at least one segment")
        ids = [e.id for seg in self.segments for e in seg]
        if len(ids) != len(set(ids)):
            raise SppError("edge ids must be unique across segments")
        for p in self.players:
            if not 0 <= p.source < p.target <= self.m:
                raise SppError(f"interval ({p.source}, {p.target}] out of range")
            if len(p.initial) != p.target - p.source:
                raise SppError("initial strategy must pick one edge per segment")
            for seg, e in zip(range(p.source + 1, p.target + 1), p.initial):
                if e not in {edge.id for edge in self.segments[seg - 1]}:
                    raise SppError(f"edge {e} is not in segment {seg}")
        for seg in range(1, self.m + 1):
            if not any(p.source < seg <= p.target for p in self.players):
                raise SppError(f"segment {seg} has no potential user")

    @property
    def m(self) -> int:
        return len(self.segments)

    @property
    def n(self) -> int:
        return len(self.players)

    def to_game(self) -> tuple[NetworkFormationGame, Profile]:
        edges = tuple(
            Edge(e.id, seg - 1, seg, e.cost)
            for seg, block in enumerate(self.segments, start=1)
            for e in block
        )
        net = Network(edges, source=0, sink=self.m)
        game = NetworkFormationGame(
            net, [PlayerSpec(p.source, p.target) for p in self.players]
        )
        p0 = game.profile_from_strategies([p.initial for p in self.players])
        return game, p0


def from_network_game(game: NetworkFormationGame, p0: Profile) -> SppInstance:
    """Reinterpret an unweighted network formation game on an SPP network,
    with its initial profile, as an SPP instance."""
    from .networks import spp_decomposition

    if not game.is_unweighted:
        raise SppError("the optimal-sequence programs assume unit weights")
    decomposition = spp_decomposition(game.network)
    if decomposition is None:
        raise SppError("network is not a series of parallel-edge segments")
    vertices, blocks = decomposition
    position = {v: i for i, v in enumerate(vertices)}
    segments = tuple(
        tuple(SppEdge(e.id, e.cost) for e in block) for block in blocks
    )
    players = []
    for player, spec in zip(game.players, game.specs):
        if spec.source not in position or spec.target not in position:
            raise SppError(f"player {player} terminals are off the chain")
        players.append(
            SppPlayer(
                position[spec.source],
                position[spec.target],
                game.strategy_of(p0, player),
            )
        )
    return SppInstance(segments, tuple(players))


def is_proper_intervals(instance: SppInstance) -> bool:
    """Sources and targets sorted consistently: an earlier source never pairs
    with a strictly later target."""
    ps = instance.players
    return all(
        p1.target <= p2.target
        for p1 in ps
        for p2 in ps
        if p1.source < p2.source
    )


# -- per-segment best-response picks against initial loads -----------------------


def _initial_counts(instance: SppInstance) -> dict[ResourceId, int]:
    counts: dict[ResourceId, int] = {}
    for p in instance.players:
        for e in p.initial:
            counts[e] = counts.get(e, 0) + 1
    return counts


def _segment_shares(
    instance: SppInstance, cost: Mapping[ResourceId, int]
) -> Iterator[tuple[int, int, ResourceId, dict[ResourceId, int]]]:
    """(player position, segment, current edge, shares) for every covered
    segment: `shares` maps each edge of the segment to the player's marginal
    share there, in the unit of `cost`, against the initial loads with
    herself removed."""
    counts = _initial_counts(instance)
    for pos, p in enumerate(instance.players):
        for seg, current in zip(range(p.source + 1, p.target + 1), p.initial):
            # edge ids are unique across segments: only `current` is hers here
            yield pos, seg, current, {
                e.id: cost[e.id] // (counts.get(e.id, 0) - (e.id == current) + 1)
                for e in instance.segments[seg - 1]
            }


def _segment_picks(
    instance: SppInstance, cost: Mapping[ResourceId, int]
) -> tuple[list[list[ResourceId]], list[list[int]], list[bool]]:
    """For every player position, the edge she would set in each of her
    segments in order, judged by marginal share against the initial loads
    with herself removed; marginal ties resolve to the cheaper edge, then the
    lower id (a mover may take any tied member, and cheaper is never worse
    for the resolved total).

    Also returns the prefix sums of those edges' costs (in the unit of
    `cost`), so any run of her segments costs O(1), and which players are
    movable at all: only a player with a strict per-segment improvement
    somewhere is suboptimal initially, and only such players can open a
    best-response sequence."""
    picks: list[list[ResourceId]] = [[] for _ in instance.players]
    sums = [[0] for _ in instance.players]
    movable = [False] * instance.n
    for pos, _, current, shares in _segment_shares(instance, cost):
        best = min(shares, key=lambda e: (shares[e], cost[e], e))
        movable[pos] = movable[pos] or shares[best] < shares[current]
        picks[pos].append(best)
        sums[pos].append(sums[pos][-1] + cost[best])
    return picks, sums, movable


def _frozen_costs(instance: SppInstance, cost: Mapping[ResourceId, int]) -> list[int]:
    """frozen[j]: the total cost (in the unit of `cost`) of the initially
    utilized edges in segments 1..j, so frozen[t] - frozen[s] is what the
    sub-chain s+1 .. t costs if nobody covering it ever migrates."""
    used = _initial_counts(instance)
    frozen = [0]
    for block in instance.segments:
        frozen.append(frozen[-1] + sum(cost[e.id] for e in block if e.id in used))
    return frozen


@dataclass
class DpTable:
    """Computed optimum values, first movers, and the deviator skeleton.

    `opt` and `first_mover` are keyed by the (s, t) sub-chain of segments
    s+1 .. t in both modes; the single-source program fills only the
    suffixes (s, m).  `skeleton` lists the forced (player id, full
    strategy) moves realizing `optimum`, and `resolved` maps each segment
    a skeleton move sets to the edge its first mover there picks.
    """

    mode: str
    optimum: Fraction
    opt: dict
    first_mover: dict
    skeleton: tuple[ScriptMove, ...]
    resolved: dict[int, ResourceId]


def dp_single_source(instance: SppInstance) -> DpTable:
    """Best reachable equilibrium cost when all players share the source.

    The sub-chain program restricted to the suffixes (s, m): the first mover
    of a suffix has her target inside it, and her deviation leaves a
    shorter suffix, so the program stays O(n*m).
    """
    if any(p.source != 0 for p in instance.players):
        raise SppError("single-source program needs every source at vertex 0")
    m = instance.m
    return _sub_chain_program(
        instance, "single-source", [(s, m) for s in range(m - 1, -1, -1)]
    )


def dp_proper_intervals(instance: SppInstance) -> DpTable:
    """Best reachable equilibrium cost for proper-interval players: the
    sub-chain program over every sub-chain, by increasing length."""
    if not is_proper_intervals(instance):
        raise SppError("instance does not have proper intervals")
    m = instance.m
    return _sub_chain_program(
        instance,
        "proper-intervals",
        [(s, s + length) for length in range(1, m + 1) for s in range(m - length + 1)],
    )


def _sub_chain_program(
    instance: SppInstance, mode: str, sub_chains: Iterable[tuple[int, int]]
) -> DpTable:
    """opt[(s, t)] solves the sub-chain of segments s+1 .. t, for each of
    `sub_chains`, shorter ones first, ending with (0, m).

    The first mover i there pays her picks inside the sub-chain; what she
    leaves uncovered on either side is a strictly shorter sub-chain, which
    proper intervals make independent of her.  The skeleton is the
    pre-order walk of the first movers, left sub-chain before right.
    """
    m = instance.m
    u, cost = unit_edge_costs((e for block in instance.segments for e in block), instance.n)
    picks, sums, movable = _segment_picks(instance, cost)
    frozen = _frozen_costs(instance, cost)
    movers = [
        (pos, p.source, p.target, sums[pos])
        for pos, p in enumerate(instance.players)
        if movable[pos]
    ]
    # values in the unit u: scaling keeps their order, so the first movers
    # (the lowest value, then the lowest position) are those of the exact
    # rationals
    opt: dict[tuple[int, int], int] = {}
    first: dict[tuple[int, int], int | None] = {}
    for s, t in sub_chains:
        best_value, best_pos = 0, None
        for pos, source, target, prefix in movers:
            if source >= t or target <= s:
                continue
            value = prefix[min(t, target) - source] - prefix[max(s, source) - source]
            if source > s:
                value += opt[(s, source)]
            if target < t:
                value += opt[(target, t)]
            # positions rise, so a tie keeps the earlier one
            if best_pos is None or value < best_value:
                best_value, best_pos = value, pos
        if best_pos is None:
            # nobody covering the sub-chain can migrate: it keeps its initial edges
            best_value = frozen[t] - frozen[s]
        opt[(s, t)], first[(s, t)] = best_value, best_pos

    resolved: dict[int, ResourceId] = {}
    skeleton: list[ScriptMove] = []
    pending = [(0, m)]
    while pending:
        s, t = pending.pop()
        pos = first[(s, t)]
        if pos is None:
            continue
        p = instance.players[pos]
        segs = range(p.source + 1, p.target + 1)
        skeleton.append(
            (pos + 1, tuple(resolved.get(seg, e) for seg, e in zip(segs, picks[pos])))
        )
        for seg, e in zip(segs, picks[pos]):
            resolved.setdefault(seg, e)
        # the right sub-chain goes on the stack first, so the left one is walked first
        if p.target < t:
            pending.append((p.target, t))
        if p.source > s:
            pending.append((s, p.source))
    values = {key: Fraction(v, u) for key, v in opt.items()}
    return DpTable(mode, values[(0, m)], values, first, tuple(skeleton), resolved)


def replay(instance: SppInstance, table: DpTable, game: NetworkFormationGame) -> Trace:
    """Execute the skeleton through the engine on `game`, the instance's
    network game, from the instance's initial edges; then let every
    remaining suboptimal player flock, breaking best-response ties toward
    the resolved edge of each segment (and toward her current edge
    elsewhere, so untouched sub-chains stay put).  Callers assert the
    terminal's social cost against `table.optimum`."""
    p0 = game.profile_from_strategies([p.initial for p in instance.players])

    def flock(ev: Evaluation, step: int) -> tuple[PlayerId, int] | None:
        # the lowest-id suboptimal player, building no cell past hers
        player = next((pos + 1 for pos in range(game.n) if ev.is_suboptimal(pos)), None)
        if player is None:
            return None
        strategy = _flock_strategy(instance, ev, player, table.resolved)
        return player, game.strategy_index(player, strategy)

    return walk(game, p0, script_mover(table.skeleton, flock), DEFAULT_MAX_STEPS)


def _flock_strategy(
    instance: SppInstance,
    ev: Evaluation,
    player: PlayerId,
    resolved: Mapping[int, ResourceId],
) -> Strategy:
    """The player's best response at the evaluated profile, one segment at
    a time, preferring the resolved edge among marginal ties, then her
    current edge, then the cheapest.  A path's cost is the sum of its
    segments' marginal shares, so her best paths combine per-segment ties
    freely, and the edges her best paths use in a segment are its ties."""
    game = ev.game
    pos = player - 1
    space = game.strategy_space(player)
    best = [space[idx] for idx in ev.cell(pos).br]
    current = space[ev.profile[pos]]
    p = instance.players[pos]
    out = []
    for k, seg in enumerate(range(p.source + 1, p.target + 1)):
        ties = {path[k] for path in best}
        if resolved.get(seg) in ties:
            out.append(resolved[seg])
        elif current[k] in ties:
            out.append(current[k])
        else:
            out.append(min(ties, key=lambda e: (game.edge_cost(e), e)))
    return tuple(out)


# -- resolution bookkeeping -------------------------------------------------------


def resolved_segments(
    instance: SppInstance,
    prefix: Iterable[tuple[PlayerId, Strategy]] = (),
) -> dict[int, ResourceId]:
    """Resolution state after a trace prefix of (deviator, new strategy)
    moves, as {segment: edge} in segment order: segments where every
    potential user already agrees on the edge she would set, plus every
    segment in a deviator's interval, pinned to the edge she chose.

    Agreement uses the engine's deterministic selection (marginal share,
    then lowest edge id), so the initially agreed edge is exactly what the
    first mover through the segment would take."""
    _, cost = unit_edge_costs((e for block in instance.segments for e in block), instance.n)
    choices: dict[int, set[ResourceId]] = {}
    for _, seg, _, shares in _segment_shares(instance, cost):
        choices.setdefault(seg, set()).add(min(shares, key=lambda e: (shares[e], e)))
    resolved = {seg: edges.pop() for seg, edges in choices.items() if len(edges) == 1}
    for player, strategy in prefix:
        p = instance.players[player - 1]
        for seg, edge in zip(range(p.source + 1, p.target + 1), strategy):
            resolved[seg] = edge
    return dict(sorted(resolved.items()))
