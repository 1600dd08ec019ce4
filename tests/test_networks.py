"""Networks: composition grammar, classifiers, paths, marginal-cost BR."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from brdlab import networks
from brdlab.fixtures import fig3_minpath_chain
from brdlab.networks import (
    Edge,
    Network,
    NetworkError,
    NetworkFormationGame,
    PathCapExceeded,
    PlayerSpec,
    Topology,
    classify,
    compose_parallel,
    compose_series,
    enumerate_paths,
    extend_with_edge,
    is_ep,
    is_spp,
    single_edge,
    spp_segments,
)
from helpers import parallel_network, random_profile, random_symmetric_game


def parallel_block(first_id: int, costs) -> Network:
    net = single_edge(first_id, costs[0])
    for offset, c in enumerate(costs[1:], start=1):
        net = compose_parallel(net, single_edge(first_id + offset, c))
    return net


class TestCompositions:
    def test_series_of_single_edges_is_a_path(self):
        net = compose_series(single_edge(1, 3), single_edge(2, 4))
        assert len(net.edges) == 2
        assert enumerate_paths(net, net.source, net.sink) == ((1, 2),)

    def test_series_of_parallel_blocks_is_spp(self):
        net = compose_series(parallel_block(1, [2, 3]), parallel_block(3, [4, 5]))
        segs = spp_segments(net)
        assert segs is not None and len(segs) == 2
        assert len(net.edges) == 4

    def test_chained_blocks_give_one_segment_each(self):
        net = parallel_block(1, [1, 2])
        for k in range(2, 5):
            net = compose_series(net, parallel_block(2 * k - 1, [1, 2]))
            segs = spp_segments(net)
            assert segs is not None and len(segs) == k

    def test_parallel_edges(self):
        net = compose_parallel(single_edge(1, 1), single_edge(2, 2))
        assert classify(net) == Topology.PARALLEL_EDGE

    def test_ep_by_construction(self):
        inner = compose_parallel(single_edge(1, 1), single_edge(2, 2))
        extended = extend_with_edge(inner, 3, 5, side="after")
        net = compose_parallel(extended, single_edge(4, 7))
        assert is_ep(net)
        assert classify(net) == Topology.EP

    def test_spp_parallel_spp_is_general(self):
        a = compose_series(parallel_block(1, [1, 2]), parallel_block(3, [3, 4]))
        b = compose_series(parallel_block(5, [5, 6]), parallel_block(7, [7, 8]))
        assert classify(compose_parallel(a, b)) == Topology.GENERAL

    def test_parallel_of_single_segments_stays_parallel(self):
        merged = compose_parallel(parallel_block(1, [1, 2]), parallel_block(3, [3]))
        assert classify(merged) == Topology.PARALLEL_EDGE

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(NetworkError):
            compose_series(single_edge(1, 1), single_edge(1, 2))

    def test_terminal_required(self):
        bare = Network((Edge(1, 0, 1, F(1)),))
        with pytest.raises(NetworkError):
            compose_series(bare, single_edge(2, 1))


def random_ep(rng: random.Random, next_id: list[int], depth: int = 0) -> tuple[Network, int]:
    """A network from the extension-parallel grammar, together with its
    source-sink path count as derived from the composition tree."""
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        eid = next_id[0]
        next_id[0] += 1
        return single_edge(eid, F(rng.randint(1, 9))), 1
    if roll < 0.7:
        left, nl = random_ep(rng, next_id, depth + 1)
        right, nr = random_ep(rng, next_id, depth + 1)
        return compose_parallel(left, right), nl + nr
    eid = next_id[0]
    next_id[0] += 1
    side = "after" if rng.random() < 0.5 else "before"
    inner, count = random_ep(rng, next_id, depth + 1)
    return extend_with_edge(inner, eid, rng.randint(1, 9), side), count


def random_spp(rng: random.Random) -> Network:
    net = parallel_block(1, [rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
    eid = len(net.edges) + 1
    for _ in range(rng.randint(0, 3)):
        block = parallel_block(eid, [rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        eid += len(block.edges)
        net = compose_series(net, block)
    return net


class TestClassifierRoundTrips:
    def test_generated_ep_classified_ep(self):
        rng = random.Random(23)
        for _ in range(60):
            net, _ = random_ep(rng, [1])
            assert is_ep(net), net

    def test_ep_path_count_matches_composition_tree(self):
        rng = random.Random(101)
        for _ in range(40):
            net, expected = random_ep(rng, [1])
            assert len(enumerate_paths(net, net.source, net.sink)) == expected

    def test_generated_spp_classified_spp(self):
        rng = random.Random(29)
        for _ in range(60):
            net = random_spp(rng)
            assert is_spp(net), net

    def test_diamond_with_chord_is_general(self):
        edges = (
            Edge(1, 0, 1, F(1)),
            Edge(2, 0, 2, F(1)),
            Edge(3, 1, 3, F(1)),
            Edge(4, 2, 3, F(1)),
            Edge(5, 1, 2, F(1)),
        )
        net = Network(edges, source=0, sink=3)
        assert classify(net) == Topology.GENERAL

    def test_two_segment_chain_is_not_ep(self):
        # two parallel-edge blocks in series: series composition of
        # non-single-edge parts falls outside the extension grammar
        net = compose_series(parallel_block(1, [1, 2]), parallel_block(3, [3, 4]))
        assert not is_ep(net)
        assert is_spp(net)


class TestPaths:
    def test_three_parallel(self):
        net = parallel_network(["1", "2", "3"])
        assert enumerate_paths(net, 0, 1) == ((1,), (2,), (3,))

    def test_two_segment_product(self):
        net = compose_series(parallel_block(1, [1, 2]), parallel_block(3, [3, 4]))
        paths = enumerate_paths(net, net.source, net.sink)
        assert len(paths) == 4
        assert paths == tuple(sorted(paths))  # lexicographic by edge ids

    def test_cap_guard(self):
        net = parallel_block(1, [1, 2])
        for k in range(2, 8):
            net = compose_series(net, parallel_block(2 * k - 1, [1, 2]))
        with pytest.raises(PathCapExceeded):
            enumerate_paths(net, net.source, net.sink, cap=100)

    def test_no_path_error(self):
        net = Network((Edge(1, 0, 1, F(1)),), source=0, sink=1)
        with pytest.raises(NetworkError):
            enumerate_paths(net, 1, 0)

    def test_series_chain_longer_than_the_recursion_limit(self):
        m = 1200
        net = Network(tuple(Edge(i, i - 1, i, F(1)) for i in range(1, m + 1)), source=0, sink=m)
        assert enumerate_paths(net, 0, m) == (tuple(range(1, m + 1)),)
        assert is_ep(net)

    def test_series_chain_is_peeled_in_one_pass(self, monkeypatch):
        # a series run is peeled in one pass: one block partition per chain
        m = 1200
        net = Network(tuple(Edge(i, i - 1, i, F(1)) for i in range(1, m + 1)), source=0, sink=m)
        calls = []
        blocks = networks._parallel_blocks

        def counted(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(networks, "_parallel_blocks", counted)
        assert is_ep(net)
        assert len(calls) == 1


class TestGameConstruction:
    def test_zero_cost_edge_rejected(self):
        with pytest.raises(NetworkError):
            Edge(1, 0, 1, F(0))

    def test_weighted_needs_short_chain(self):
        net = compose_series(
            compose_series(parallel_block(1, [1, 2]), parallel_block(3, [3, 4])),
            parallel_block(5, [5]),
        )
        assert len(spp_segments(net)) == 3
        with pytest.raises(NetworkError):
            NetworkFormationGame(net, [PlayerSpec(net.source, net.sink, F(2))])
        # two segments are fine
        short = compose_series(parallel_block(1, [1, 2]), parallel_block(3, [3, 4]))
        NetworkFormationGame(short, [PlayerSpec(short.source, short.sink, F(2))])

    def test_unused_edge_rejected(self):
        edges = (Edge(1, 0, 1, F(1)), Edge(2, 1, 2, F(1)), Edge(3, 2, 3, F(1)))
        net = Network(edges, source=0, sink=3)
        with pytest.raises(NetworkError):
            NetworkFormationGame(net, [PlayerSpec(0, 1)])


class TestBrPath:
    def test_agrees_with_enumeration_everywhere(self):
        rng = random.Random(31)
        for _ in range(40):
            game = _random_multi_target_game(rng)
            p = random_profile(rng, game)
            for i in game.players:
                via_paths = {
                    game.strategy_space(i)[k] for k in game.best_response(p, i)
                }
                assert set(game.br_path(p, i)) == via_paths

    def test_lone_player(self):
        net = parallel_network(["1", "2"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)])
        p = game.profile_from_strategies([(2,)])
        assert game.br_path(p, 1) == ((1,),)

    def test_path_longer_than_the_recursion_limit(self):
        # two parallel edges, then a series chain: 1501 edges in all
        m = 1500
        edges = [Edge(1, 0, 1, F(1)), Edge(2, 0, 1, F(2))]
        edges += [Edge(i, i - 2, i - 1, F(1)) for i in range(3, m + 2)]
        game = NetworkFormationGame(Network(tuple(edges), source=0, sink=m), [PlayerSpec(0, m)])
        tail = tuple(range(3, m + 2))
        p = game.profile_from_strategies([(2,) + tail])
        assert game.br_path(p, 1) == ((1,) + tail,)
        assert [game.strategy_space(1)[k] for k in game.best_response(p, 1)] == [(1,) + tail]


def _random_multi_target_game(rng: random.Random) -> NetworkFormationGame:
    """Small layered digraph with random player terminals (possibly
    asymmetric), every edge reachable by someone."""
    edges = []
    eid = 1
    layers = [0, 1, 2]
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        for _ in range(rng.randint(1, 2)):
            edges.append(Edge(eid, a, b, F(rng.randint(1, 30), rng.randint(1, 3))))
            eid += 1
    net = Network(tuple(edges), source=0, sink=2)
    specs = [PlayerSpec(0, 2) for _ in range(rng.randint(1, 3))]
    specs.append(PlayerSpec(0, 1))
    specs.append(PlayerSpec(1, 2))
    return NetworkFormationGame(net, specs)


class TestFollowTheLeader:
    def test_every_sequence_follows_the_first_deviator(self):
        # symmetric games: whatever path the first deviator takes, every
        # later deviation lands on the same path, in every branch of the
        # reachability traversal
        rng = random.Random(83)
        from helpers import random_profile, random_symmetric_game

        def walk(game, profile, leader_path, seen):
            key = (profile.choices, leader_path)
            if key in seen:
                return
            seen.add(key)
            suboptimal = game.suboptimal_players(profile)
            for player in suboptimal:
                for idx in game.best_response(profile, player):
                    path = game.strategy_space(player)[idx]
                    if leader_path is not None:
                        assert path == leader_path
                    walk(game, profile.with_choice(game, player, idx), path, seen)

        for _ in range(20):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            walk(game, p0, None, set())


class TestStateVector:
    def test_fields_and_lex_tie_break(self):
        # two tied best responses; the vector reports the lex-smaller path
        net = parallel_network(["4", "2", "2"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)])
        p = game.profile_from_strategies([(1,)])
        v = game.state_vector(p, 1)
        assert (v.current_cost, v.current_path_cost) == (4, 4)
        assert (v.br_cost, v.br_path_cost) == (2, 2)
        assert v.weight is None

    def test_weighted_vector_carries_weight(self):
        net = parallel_network(["4", "2"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1, F(3))])
        p = game.profile_from_strategies([(1,)])
        assert game.state_vector(p, 1).weight == 3

    def test_br_fields_bounded_by_current(self):
        rng = random.Random(37)
        for _ in range(30):
            game = _random_multi_target_game(rng)
            p = random_profile(rng, game)
            for i in game.players:
                v = game.state_vector(p, i)
                assert v.br_cost <= v.current_cost
                assert (v.br_cost == v.current_cost) == (not game.is_suboptimal(p, i))


class TestIncidence:
    def test_indexed_edges_match_a_scan(self):
        rng = random.Random(11)
        nets = [fig3_minpath_chain(m=4).game.network]
        nets += [random_symmetric_game(rng).network for _ in range(20)]
        for net in nets:
            for v in net.nodes:
                assert net.out_edges(v) == tuple(
                    sorted((e for e in net.edges if e.tail == v), key=lambda e: e.id))
                assert net.in_edges(v) == tuple(
                    sorted((e for e in net.edges if e.head == v), key=lambda e: e.id))
            assert net.out_edges(max(net.nodes) + 1) == net.in_edges(-1) == ()
