"""Network formation games: graphs, topology grammar, paths, state vectors.

Networks are finite directed graphs with strictly positive edge costs.  The
composition operations (series, parallel, single-edge extension) mirror the
grammar that defines the extension-parallel (EP) and series-of-parallel-paths
(SPP) topology classes; `classify` recognizes membership structurally so the
two directions can be cross-checked.

A `NetworkFormationGame` materializes each player's strategy space as an
explicit list of simple source-to-target paths (capped, since the exhaustive
oracle needs explicit spaces) and counts every cost, weighted or not, as an
integer in one per-game unit, while `br_path` recomputes best responses as a
cheapest-path problem under `Fraction` marginal-share edge weights so the
two routes can validate each other.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    STRATEGY_CAP,
    Evaluation,
    Game,
    GameError,
    PlayerId,
    Profile,
    ResourceId,
    SocialCostKind,
    Strategy,
    ZERO,
    share_unit,
)

NodeId = int


class NetworkError(GameError):
    """Malformed network or composition with mismatched terminals."""


class PathCapExceeded(NetworkError):
    """Simple-path enumeration hit the oracle-scale guard."""


@dataclass(frozen=True)
class Edge:
    id: ResourceId
    tail: NodeId
    head: NodeId
    cost: Fraction

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise NetworkError(f"edge {self.id} needs a positive cost, got {self.cost}")


@dataclass(frozen=True)
class Network:
    """Directed graph with optional designated source/sink terminals."""

    edges: tuple[Edge, ...]
    source: NodeId | None = None
    sink: NodeId | None = None

    def __post_init__(self) -> None:
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise NetworkError(f"duplicate edge id {e.id}")
            seen.add(e.id)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        out: set[NodeId] = set()
        for e in self.edges:
            out.add(e.tail)
            out.add(e.head)
        if self.source is not None:
            out.add(self.source)
        if self.sink is not None:
            out.add(self.sink)
        return tuple(sorted(out))

    @cached_property
    def _incidence(self) -> dict[tuple[str, NodeId], tuple[Edge, ...]]:
        """("out", v) and ("in", v) to v's out- and in-edges, by edge id."""
        index: dict[tuple[str, NodeId], list[Edge]] = {}
        for e in sorted(self.edges, key=lambda e: e.id):
            index.setdefault(("out", e.tail), []).append(e)
            index.setdefault(("in", e.head), []).append(e)
        return {key: tuple(edges) for key, edges in index.items()}

    def out_edges(self, node: NodeId) -> tuple[Edge, ...]:
        return self._incidence.get(("out", node), ())

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        return self._incidence.get(("in", node), ())

    def _require_terminals(self) -> tuple[NodeId, NodeId]:
        if self.source is None or self.sink is None:
            raise NetworkError("operation needs designated source and sink")
        return self.source, self.sink


def single_edge(edge_id: ResourceId, cost: Fraction | int | str, tail: NodeId = 0, head: NodeId = 1) -> Network:
    return Network((Edge(edge_id, tail, head, Fraction(cost)),), source=tail, sink=head)


def _relabel(net: Network, mapping: Mapping[NodeId, NodeId]) -> tuple[Edge, ...]:
    return tuple(
        Edge(e.id, mapping.get(e.tail, e.tail), mapping.get(e.head, e.head), e.cost)
        for e in net.edges
    )


def _fresh_nodes(a: Network, b: Network) -> Mapping[NodeId, NodeId]:
    taken = set(a.nodes)
    all_nodes = taken | set(b.nodes)
    mapping: dict[NodeId, NodeId] = {}
    next_id = max(all_nodes) + 1 if all_nodes else 0
    for v in b.nodes:
        if v in taken:
            mapping[v] = next_id
            next_id += 1
    return mapping


def compose_series(g1: Network, g2: Network) -> Network:
    """Identify g1's sink with g2's source; terminals become (s1, t2)."""
    s1, t1 = g1._require_terminals()
    s2, t2 = g2._require_terminals()
    mapping = dict(_fresh_nodes(g1, g2))
    mapping[s2] = t1
    # a shared edge id fails Network's duplicate-id check
    return Network(g1.edges + _relabel(g2, mapping), source=s1, sink=mapping.get(t2, t2))


def compose_parallel(g1: Network, g2: Network) -> Network:
    """Identify the two sources and the two sinks."""
    s1, t1 = g1._require_terminals()
    s2, t2 = g2._require_terminals()
    mapping = dict(_fresh_nodes(g1, g2))
    mapping[s2] = s1
    mapping[t2] = t1
    return Network(g1.edges + _relabel(g2, mapping), source=s1, sink=t1)


def extend_with_edge(g: Network, edge_id: ResourceId, cost: Fraction | int | str, side: str) -> Network:
    """EP extension: a single new edge in series, before or after `g`."""
    s, t = g._require_terminals()
    new_node = max(g.nodes) + 1
    if side == "after":
        return Network(
            g.edges + (Edge(edge_id, t, new_node, Fraction(cost)),), source=s, sink=new_node
        )
    if side == "before":
        return Network(
            g.edges + (Edge(edge_id, new_node, s, Fraction(cost)),), source=new_node, sink=t
        )
    raise NetworkError(f"side must be 'before' or 'after', got {side!r}")


# -- topology recognition ----------------------------------------------------


class Topology(Enum):
    PARALLEL_EDGE = "parallel-edge"
    SPP = "spp"
    EP = "ep"
    GENERAL = "general"


def spp_decomposition(
    net: Network,
) -> tuple[tuple[NodeId, ...], tuple[tuple[Edge, ...], ...]] | None:
    """Chain vertices and segment blocks if the network is a series of
    parallel-edge blocks between its terminals, else None."""
    if net.source is None or net.sink is None or not net.edges:
        return None
    segments: list[tuple[Edge, ...]] = []
    vertices: list[NodeId] = [net.source]
    current = net.source
    seen_nodes = {current}
    remaining = set(e.id for e in net.edges)
    while current != net.sink:
        block = net.out_edges(current)
        if not block:
            return None
        heads = {e.head for e in block}
        if len(heads) != 1:
            return None
        head = heads.pop()
        if head in seen_nodes:
            return None
        # all traffic into the next vertex must come from this block
        if set(net.in_edges(head)) != set(block):
            return None
        segments.append(block)
        remaining -= {e.id for e in block}
        seen_nodes.add(head)
        vertices.append(head)
        current = head
    if remaining:
        return None
    return tuple(vertices), tuple(segments)


def spp_segments(net: Network) -> tuple[tuple[Edge, ...], ...] | None:
    decomposition = spp_decomposition(net)
    return None if decomposition is None else decomposition[1]


def is_spp(net: Network) -> bool:
    return spp_segments(net) is not None


def is_ep(net: Network) -> bool:
    """Membership in the extension-parallel grammar: a single edge, a
    parallel composition of EP networks, or an EP network extended by one
    edge in series."""
    if net.source is None or net.sink is None:
        return False
    return _is_ep(net.edges, net.source, net.sink)


def _is_ep(edges: tuple[Edge, ...], s: NodeId, t: NodeId) -> bool:
    # every pending (edges, s, t) sub-network must itself be EP; a worklist
    # rather than recursion, since peeling a long series chain nests deeply
    pending = [(edges, s, t)]
    while pending:
        edges, s, t = pending.pop()
        if not edges:
            return False
        if len(edges) == 1:
            if edges[0].tail == s and edges[0].head == t:
                continue
            return False
        blocks = _parallel_blocks(edges, s, t)
        if len(blocks) > 1:
            pending.extend((tuple(block), s, t) for block in blocks)
            continue
        # single block: peel the series run of single edges off each terminal
        out: dict[NodeId, list[Edge]] = {}
        into: dict[NodeId, list[Edge]] = {}
        for e in edges:
            out.setdefault(e.tail, []).append(e)
            into.setdefault(e.head, []).append(e)
        peeled: set[ResourceId] = set()
        while s not in into and len(out.get(s, ())) == 1:
            e = out[s][0]
            if e.head == t or len(into[e.head]) != 1:
                break
            del out[s], into[e.head]
            peeled.add(e.id)
            s = e.head
        while t not in out and len(into.get(t, ())) == 1:
            e = into[t][0]
            if e.tail == s or len(out[e.tail]) != 1:
                break
            del into[t], out[e.tail]
            peeled.add(e.id)
            t = e.tail
        if not peeled:
            return False
        pending.append((tuple(e for e in edges if e.id not in peeled), s, t))
    return True


def _parallel_blocks(edges: tuple[Edge, ...], s: NodeId, t: NodeId) -> list[list[Edge]]:
    """Partition into components attached only at {s, t}; a component that
    avoids both terminals is a block of its own, which is not EP."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for e in edges:
        tail = ("n", e.tail) if e.tail not in (s, t) else ("e", e.id)
        head = ("n", e.head) if e.head not in (s, t) else ("e", e.id)
        union(("e", e.id), tail)
        union(("e", e.id), head)
    groups: dict = {}
    for e in edges:
        groups.setdefault(find(("e", e.id)), []).append(e)
    return [sorted(g, key=lambda e: e.id) for g in groups.values()]


def classify(net: Network) -> Topology:
    segs = spp_segments(net)
    if segs is not None and len(segs) == 1:
        return Topology.PARALLEL_EDGE
    if segs is not None:
        return Topology.SPP
    if is_ep(net):
        return Topology.EP
    return Topology.GENERAL


# -- paths --------------------------------------------------------------------

def enumerate_paths(
    net: Network, s: NodeId, t: NodeId, cap: int = STRATEGY_CAP
) -> tuple[Strategy, ...]:
    """All simple directed s-t paths as edge-id tuples, in lexicographic
    order of the edge-id sequence.  Raises PathCapExceeded beyond `cap`."""
    paths: list[Strategy] = []

    # depth-first with an explicit stack: one frame per node of the current
    # path, so path length never meets the interpreter's recursion limit
    acc: list[ResourceId] = []
    visited = {s}
    frames: list[tuple[NodeId, Iterator[Edge]]] = []
    if s == t:
        paths.append(())
    else:
        frames.append((s, iter(net.out_edges(s))))
    while frames:
        node, edges = frames[-1]
        for e in edges:
            if e.head in visited:
                continue
            if e.head == t:
                paths.append((*acc, e.id))
                if len(paths) > cap:
                    raise PathCapExceeded(f"more than {cap} simple paths from {s} to {t}")
                continue
            acc.append(e.id)
            visited.add(e.head)
            frames.append((e.head, iter(net.out_edges(e.head))))
            break
        else:
            frames.pop()
            visited.discard(node)
            if frames:
                acc.pop()
    if not paths:
        raise NetworkError(f"no path from {s} to {t}")
    return tuple(sorted(paths))


def product_blocks(space: Sequence[Strategy]) -> tuple[tuple[ResourceId, ...], ...] | None:
    """The per-position edge blocks of a path space, each sorted by edge
    id, where the space equals their product in lexicographic order (every
    parallel-edge and SPP space does), else None."""
    columns = tuple(tuple(sorted(set(column))) for column in zip(*space))
    # the count first, so that no product larger than the space is built
    if (any(len(path) != len(columns) for path in space)
            or math.prod(map(len, columns)) != len(space)):
        return None
    return columns if tuple(itertools.product(*columns)) == tuple(space) else None


# -- the game -----------------------------------------------------------------


def unit_edge_costs(edges: Iterable[Edge], total_load: int) -> tuple[int, dict[ResourceId, int]]:
    """The cost unit U = lcm(edge-cost denominators) * lcm(1..W) of players
    whose total load is W in the load unit, and each edge's cost as an
    integer in it: a share (c_e * U) * w // (L + w) is exact, as L + w <= W
    divides U.  Anything with an `id` and a `cost` serves as an edge."""
    edges = tuple(edges)
    u = share_unit(total_load) * math.lcm(*(e.cost.denominator for e in edges))
    return u, {e.id: e.cost.numerator * (u // e.cost.denominator) for e in edges}


@dataclass(frozen=True)
class PlayerSpec:
    source: NodeId
    target: NodeId
    weight: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise NetworkError(f"player weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class NfgStateVector:
    """The local information a deviator rule may see about one player."""

    current_cost: Fraction
    current_path_cost: Fraction
    br_cost: Fraction
    br_path_cost: Fraction
    weight: Fraction | None = None


class NetworkFormationGame(Game):
    """Fair-share network formation game; weighted variants share each edge
    cost proportionally to weight.

    Weighted games are only admitted on parallel-edge and 1-2 segment SPP
    topologies, the settings where best-response dynamics is known to
    converge; anything else is rejected at construction.

    Costs are integers in U = lcm(edge-cost denominators) * lcm(1..W), W
    the total load in the load unit (n for unit weights): a player of load
    w joining load L on edge e pays (c_e * U) * w // (L + w), exact as
    L + w <= W divides U (`unit_edge_costs`, capped by `core.SHARE_CAP`).
    A cell computes each edge's share once; a strategy space that is the
    product of its per-position edge blocks (`product_blocks`: every
    parallel-edge and SPP space) then costs its paths as the outer sums of
    the blocks' shares, and any other space, such as an EP one, sums each
    path's shares.
    """

    def __init__(
        self,
        network: Network,
        players: Sequence[PlayerSpec],
    ) -> None:
        self.network = network
        self.specs = tuple(players)
        weights = [p.weight for p in self.specs]
        self._edge_cost = {e.id: e.cost for e in network.edges}
        segs = spp_segments(network) if any(w != 1 for w in weights) else ()
        if segs is None or len(segs) > 2:
            raise NetworkError("weighted players are restricted to parallel-edge and "
                               "2-segment SPP networks")
        # one enumeration per terminal pair, shared by the players with it
        by_pair: dict[tuple[NodeId, NodeId], tuple[Strategy, ...]] = {}
        for p in self.specs:
            if (p.source, p.target) not in by_pair:
                by_pair[p.source, p.target] = enumerate_paths(network, p.source, p.target)
        spaces = [by_pair[p.source, p.target] for p in self.specs]
        used = {e for space in by_pair.values() for path in space for e in path}
        unused = {e.id for e in network.edges} - used
        if unused:
            raise NetworkError(
                f"edges {sorted(unused)} lie on no player's source-target path"
            )
        super().__init__(spaces, weights, SocialCostKind.SUM)
        self._cost_unit, self._scaled_cost = unit_edge_costs(network.edges, sum(self._load_weights))

    def edge_cost(self, edge_id: ResourceId) -> Fraction:
        return self._edge_cost[edge_id]

    @cached_property
    def _path_costs(self) -> dict[int, tuple[int, ...]]:
        """Each class's path costs by strategy index, in the cost unit,
        built on first use."""
        cost = self._scaled_cost
        return {c: tuple(sum(cost[e] for e in path) for path in self._spaces[c])
                for c in set(self._class_ids)}

    @cached_property
    def _space_blocks(self) -> dict[int, tuple[tuple[ResourceId, ...], ...] | None]:
        """Per strategy space, keyed by its id, its per-position edge blocks
        where the space is their product, else None."""
        spaces = {id(space): space for space in self._spaces}
        return {key: product_blocks(space) for key, space in spaces.items()}

    @cached_property
    def _space_edges(self) -> dict[int, frozenset[ResourceId]]:
        """Per strategy space, keyed by its id, the edges its paths use."""
        spaces = {id(space): space for space in self._spaces}
        return {key: frozenset(e for path in space for e in path) for key, space in spaces.items()}

    def _costs_against(self, pos, own, loads):
        # each edge's share once; an edge of her own path holds her already
        w, cost, space = self._load_weights[pos], self._scaled_cost, self._spaces[pos]
        blocks = self._space_blocks[id(space)]
        if blocks is None:
            # then each path's sum of shares
            share = {e: cost[e] * w // (loads.get(e, 0) + w) for e in self._space_edges[id(space)]}
            for e in space[own]:
                share[e] = cost[e] * w // loads[e]
            get = share.__getitem__
            return [sum(map(get, path)) for path in space]
        # then the outer sums of the blocks' shares, in the product's order
        costs: list[int] = []
        for block, mine in zip(blocks, space[own]):
            shares = [cost[e] * w // (loads.get(e, 0) + w) for e in block]
            shares[block.index(mine)] = cost[mine] * w // loads[mine]
            costs = [c + s for c in costs for s in shares] if costs else shares
        return costs

    def _social_units(self, ev: Evaluation) -> int:
        # the fair shares on an edge sum exactly to its cost in the cost
        # unit, so the players' costs sum to the used edges' costs
        return sum(map(self._scaled_cost.__getitem__, ev.loads))

    def _unit_resource_cost(self, resource: ResourceId, multiplicity: int) -> Fraction:
        return self._edge_cost[resource] / multiplicity

    # strategy spaces are stored in lexicographic edge-id order, so the
    # inherited lowest-index tie-break picks the lex-smallest tied path

    # -- marginal-cost shortest paths -----------------------------------

    def br_path(self, profile: Profile, player: PlayerId) -> tuple[Strategy, ...]:
        """Best-response paths recomputed as cheapest paths under marginal
        share weights (the player's cost of joining each edge, herself
        excluded).  Must agree with `best_response`; the test suite
        cross-checks the two on every enumerable game."""
        pos = self.position_of(player)
        spec = self.specs[pos]
        ev = self.evaluate(profile)
        loads, own = ev.loads, self._spaces[pos][ev.profile[pos]]
        w = self._load_weights[pos]

        def marginal(e: Edge) -> Fraction:
            # an edge of her own path holds her already
            return e.cost * w / (loads.get(e.id, 0) + (0 if e.id in own else w))

        dist: dict[NodeId, Fraction] = {spec.source: ZERO}
        done: set[NodeId] = set()
        queue: list[tuple[Fraction, NodeId]] = [(ZERO, spec.source)]
        while queue:
            d, node = heapq.heappop(queue)
            if node in done:
                continue
            done.add(node)
            for e in self.network.out_edges(node):
                nd = d + marginal(e)
                if e.head not in dist or nd < dist[e.head]:
                    dist[e.head] = nd
                    heapq.heappush(queue, (nd, e.head))
        if spec.target not in dist:
            raise NetworkError(f"no path for player {player}")
        # expand every path that is tight at each hop
        paths: list[Strategy] = []
        stack: list[tuple[NodeId, Strategy, Fraction]] = [
            (spec.source, (), dist[spec.target] - dist[spec.source])
        ]
        while stack:
            node, acc, remaining = stack.pop()
            if node == spec.target and remaining == 0:
                paths.append(acc)
                continue
            for e in self.network.out_edges(node):
                m = marginal(e)
                if e.head in dist and dist[node] + m == dist[e.head] and m <= remaining:
                    stack.append((e.head, acc + (e.id,), remaining - m))
        return tuple(sorted(paths))

    def state_vector(self, at: Profile | Evaluation, player: PlayerId) -> NfgStateVector:
        """Four local fields (five when weighted); the best-response fields
        use the lexicographically smallest tied path."""
        ev = self.evaluate(at)
        pos = self.position_of(player)
        path_costs, idx = self._path_costs[self._class_ids[pos]], ev.profile[pos]
        br, u = ev.cell(pos).br, self._cost_unit
        return NfgStateVector(
            current_cost=ev.cost(pos),
            current_path_cost=Fraction(path_costs[idx], u),
            br_cost=ev.cost_to(pos, br[0]),
            br_path_cost=Fraction(path_costs[min(br)], u),
            weight=None if self.is_unweighted else self._weights[pos],
        )
