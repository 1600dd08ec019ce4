"""SPP optimal-sequence programs against the exhaustive oracle."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction as F

import pytest

from brdlab.core import GameError
from brdlab.engine import DEFAULT_MAX_STEPS, script_mover, walk
from brdlab.fixtures import fig3_minpath_chain, fig4_minpath_exp, fig8_weighted_minpath
from brdlab.oracle import reachable_ne
from brdlab.rules import min_path
from brdlab.serde import dumps, trace_to_doc, verify_trace
from brdlab.sppdp import (
    SppEdge,
    SppError,
    SppInstance,
    SppPlayer,
    _flock_strategy,
    dp_proper_intervals,
    dp_single_source,
    from_network_game,
    is_proper_intervals,
    replay,
    resolved_segments,
)
from helpers import (
    flock_cheapest_edge_chain,
    flock_current_edge_chain,
    random_proper_instance,
    random_single_source_instance,
    reference_resolved_segments,
    reference_sub_chain_program,
    short_replay_chain,
)


def check_instance(inst, table):
    game, p0 = inst.to_game()
    reach = reachable_ne(game, p0, state_limit=400_000)
    best = reach.best()[1]
    trace = replay(inst, table, game)
    assert trace.terminal_is_ne
    assert table.optimum == best == game.social_cost(trace.terminal)
    verify_trace(game, trace)


class TestSingleSource:
    def test_symmetric_base_case(self):
        # one segment: the optimum is the cheapest first-mover resolution
        inst = SppInstance(
            ((SppEdge(1, F(6)), SppEdge(2, F(14))),),
            (SppPlayer(0, 1, (2,)), SppPlayer(0, 1, (2,))),
        )
        table = dp_single_source(inst)
        assert table.optimum == 6
        check_instance(inst, table)

    def test_frozen_when_nobody_can_move(self):
        # both players are content (14/2 = 7 beats 8): the chain keeps its
        # initial edge and the optimum is the frozen cost
        inst = SppInstance(
            ((SppEdge(1, F(8)), SppEdge(2, F(14))),),
            (SppPlayer(0, 1, (2,)), SppPlayer(0, 1, (2,))),
        )
        table = dp_single_source(inst)
        assert table.optimum == 14
        assert table.skeleton == ()
        check_instance(inst, table)

    def test_chain_fixture(self):
        fx = fig3_minpath_chain()
        inst = from_network_game(fx.game, fx.initial)
        table = dp_single_source(inst)
        assert table.optimum == fx.expected["best_sc"]
        check_instance(inst, table)

    def test_random_equivalence(self):
        rng = random.Random(47)
        for _ in range(120):
            inst = random_single_source_instance(rng, tie_heavy=rng.random() < 0.4)
            check_instance(inst, dp_single_source(inst))

    def test_rejects_an_empty_chain(self):
        with pytest.raises(SppError):
            SppInstance((), ())

    def test_rejects_other_sources(self):
        inst = SppInstance(
            ((SppEdge(1, F(1)),), (SppEdge(2, F(1)),)),
            (SppPlayer(0, 2, (1, 2)), SppPlayer(1, 2, (2,))),
        )
        with pytest.raises(SppError):
            dp_single_source(inst)


class TestProperIntervals:
    @staticmethod
    def _make(ivals):
        segments = tuple((SppEdge(j, F(1)),) for j in range(1, 4))
        return SppInstance(
            segments,
            tuple(SppPlayer(s, t, tuple(range(s + 1, t + 1))) for s, t in ivals),
        )

    def test_definition(self):
        assert is_proper_intervals(self._make([(0, 3), (0, 1), (1, 3), (2, 3)]))
        # an earlier source paired with a strictly later target crosses
        assert not is_proper_intervals(self._make([(0, 3), (1, 2), (2, 3)]))

    def test_single_source_is_proper(self):
        rng = random.Random(49)
        for _ in range(20):
            inst = random_single_source_instance(rng)
            assert is_proper_intervals(inst)

    def test_chain_fixture_multi_target_is_proper(self):
        fx = fig3_minpath_chain()
        inst = from_network_game(fx.game, fx.initial)
        assert is_proper_intervals(inst)
        table = dp_proper_intervals(inst)
        assert table.optimum == fx.expected["best_sc"]

    def test_doubling_fixture_is_not_proper_at_three_segments(self):
        fx = fig4_minpath_exp(m=3)
        inst = from_network_game(fx.game, fx.initial)
        # the full-span pack strictly contains the middle per-segment
        # interval, so the proper-interval program refuses it
        assert not is_proper_intervals(inst)
        with pytest.raises(SppError):
            dp_proper_intervals(inst)

    def test_doubling_fixture_proper_at_two_segments(self):
        fx = fig4_minpath_exp(m=2)
        inst = from_network_game(fx.game, fx.initial)
        assert is_proper_intervals(inst)
        table = dp_proper_intervals(inst)
        assert table.optimum == fx.expected["best_sc"]
        check_instance(inst, table)

    def test_random_equivalence(self):
        rng = random.Random(53)
        for _ in range(120):
            inst = random_proper_instance(rng, tie_heavy=rng.random() < 0.4)
            check_instance(inst, dp_proper_intervals(inst))

    def test_agrees_with_single_source_program(self):
        rng = random.Random(59)
        for _ in range(60):
            inst = random_single_source_instance(rng)
            assert dp_proper_intervals(inst).optimum == dp_single_source(inst).optimum

    def test_single_source_table_is_the_suffix_part(self):
        # on a single-source instance the proper-interval program reaches
        # the suffixes with the same values and first movers, and so walks
        # the same skeleton
        rng = random.Random(61)
        for _ in range(60):
            inst = random_single_source_instance(rng, tie_heavy=rng.random() < 0.5)
            single = dp_single_source(inst)
            proper = dp_proper_intervals(inst)
            suffixes = {(s, inst.m) for s in range(inst.m)}
            assert set(single.opt) == set(single.first_mover) == suffixes
            assert single.opt == {k: proper.opt[k] for k in suffixes}
            assert single.first_mover == {k: proper.first_mover[k] for k in suffixes}
            assert single.skeleton == proper.skeleton

    def test_skeleton_walk_deeper_than_the_recursion_limit(self):
        # 80 segments, one player per segment on the dear edge: the first
        # movers nest one sub-chain per segment
        m = 80
        segments = tuple((SppEdge(2 * j + 1, F(1)), SppEdge(2 * j + 2, F(2))) for j in range(m))
        inst = SppInstance(
            segments, tuple(SppPlayer(j, j + 1, (2 * j + 2,)) for j in range(m))
        )
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            table = dp_proper_intervals(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert table.optimum == m
        assert table.skeleton == tuple((j + 1, (2 * j + 1,)) for j in range(m))

    @pytest.mark.xfail(strict=True, reason="open defect: the proper-interval program can "
                       "claim an optimum below every reachable equilibrium")
    def test_optimum_of_a_short_replay_chain(self):
        inst = short_replay_chain()
        game, p0 = inst.to_game()
        assert dp_proper_intervals(inst).optimum == reachable_ne(game, p0).best()[1]

    def test_rejects_improper(self):
        inst = SppInstance(
            ((SppEdge(1, F(1)),), (SppEdge(2, F(1)),), (SppEdge(3, F(1)),)),
            (SppPlayer(0, 3, (1, 2, 3)), SppPlayer(1, 2, (2,))),
        )
        # interval (1,2] sits strictly inside (0,3] with a later source
        assert not is_proper_intervals(inst)
        with pytest.raises(SppError):
            dp_proper_intervals(inst)


class TestFlockTieBreaks:
    """The cleanup's per-segment tie-breaks past the resolved edge, each
    pinned by a chain where the program, the oracle and the replay agree."""

    def test_current_edge_kept(self):
        inst = flock_current_edge_chain()
        table = dp_single_source(inst)
        assert table.optimum == 5
        check_instance(inst, table)

    def test_cheapest_edge_taken(self):
        inst = flock_cheapest_edge_chain()
        table = dp_proper_intervals(inst)
        assert table.optimum == 4
        check_instance(inst, table)


def reference_replay(instance, table, game):
    """`replay` with its cleanup mover taken from `suboptimal_players`:
    every suboptimal player found, the lowest id moved."""
    p0 = game.profile_from_strategies([p.initial for p in instance.players])

    def flock(ev, step):
        suboptimal = game.suboptimal_players(ev)
        if not suboptimal:
            return None
        player = suboptimal[0]
        strategy = _flock_strategy(instance, ev, player, table.resolved)
        return player, game.strategy_index(player, strategy)

    return walk(game, p0, script_mover(table.skeleton, flock), DEFAULT_MAX_STEPS)


def replay_outcome(run, instance, table, game):
    """The trace document's text, or the error's type and message."""
    try:
        return dumps(trace_to_doc(game, run(instance, table, game)))
    except GameError as exc:
        return type(exc).__name__, str(exc)


def flock_cases():
    """(instance, table) pairs: seeded random chains under each program that
    takes them, each table also with its skeleton reversed, which often
    forces a move that is no best response; then the tie-break chains."""
    rng = random.Random(252)
    for k in range(240):
        if k % 2:
            inst = random_proper_instance(rng, max_n=8, max_m=6, tie_heavy=True)
            programs = (dp_proper_intervals,)
        else:
            inst = random_single_source_instance(rng, max_n=8, max_m=6, tie_heavy=k % 4 == 0)
            programs = (dp_single_source, dp_proper_intervals)
        for program in programs:
            table = program(inst)
            yield inst, table
            yield inst, dataclasses.replace(table, skeleton=table.skeleton[::-1])
    yield flock_current_edge_chain(), dp_single_source(flock_current_edge_chain())
    yield flock_cheapest_edge_chain(), dp_proper_intervals(flock_cheapest_edge_chain())


class TestFlockFirstMover:
    """The cleanup moves the first suboptimal player in id order, found
    without building a cell past hers: byte for byte the traces, and the
    errors, of moving the head of `suboptimal_players`."""

    def test_matches_the_reference_cleanup(self):
        cleanup = errors = 0
        for inst, table in flock_cases():
            game, _ = inst.to_game()
            got = replay_outcome(replay, inst, table, game)
            assert got == replay_outcome(reference_replay, inst, table, game), inst
            if isinstance(got, tuple):
                errors += 1
            else:
                cleanup += len(json.loads(got)["moves"]) - len(table.skeleton)
        assert cleanup >= 100 and errors >= 10, (cleanup, errors)


class TestFromNetworkGame:
    def test_weighted_rejected(self):
        fx = fig8_weighted_minpath()
        with pytest.raises(SppError):
            from_network_game(fx.game, fx.initial)

    def test_non_chain_rejected(self):
        from brdlab.networks import Edge, Network, NetworkFormationGame, PlayerSpec

        edges = (
            Edge(1, 0, 1, F(1)), Edge(2, 0, 2, F(1)),
            Edge(3, 1, 3, F(1)), Edge(4, 2, 3, F(1)),
        )
        net = Network(edges, source=0, sink=3)
        game = NetworkFormationGame(net, [PlayerSpec(0, 3)])
        p0 = game.profile_from_strategies([(1, 3)])
        with pytest.raises(SppError):
            from_network_game(game, p0)


class TestResolvedSegments:
    def test_agreed_initial_segments(self):
        # single edge per segment: everything is resolved from the start
        inst = SppInstance(
            ((SppEdge(1, F(2)),), (SppEdge(2, F(3)),)),
            (SppPlayer(0, 2, (1, 2)),),
        )
        resolved = resolved_segments(inst)
        assert resolved == {1: 1, 2: 2}

    def test_chain_first_move_resolves_first_segment(self):
        fx = fig3_minpath_chain()
        inst = from_network_game(fx.game, fx.initial)
        from brdlab.engine import run_brd

        trace = run_brd(fx.game, fx.initial, min_path())
        first = trace.moves[0]
        resolved = resolved_segments(inst, [(first.player, first.new_strategy)])
        assert resolved[1] == first.new_strategy[0] == 1  # the upper edge

    def test_monotone_and_final_along_traces(self):
        rng = random.Random(61)
        from brdlab.engine import LowestIdRule, run_brd

        for _ in range(25):
            inst = random_single_source_instance(rng)
            game, p0 = inst.to_game()
            trace = run_brd(game, p0, LowestIdRule())
            prefix = []
            prior = resolved_segments(inst, prefix)
            for m in trace.moves:
                prefix.append((m.player, m.new_strategy))
                now = resolved_segments(inst, prefix)
                # resolution only grows, and a resolved edge is final: later
                # deviators through the segment flock to the same edge
                assert set(prior) <= set(now)
                for seg, edge in prior.items():
                    assert now[seg] == edge
                prior = now


class TestMinPathResolutionBound:
    def test_each_min_path_move_resolves_at_most_optimum(self):
        # along min-path runs on single-source instances, the freshly
        # resolved segment cost per move never exceeds the optimum
        rng = random.Random(67)
        from brdlab.engine import run_brd

        checked = 0
        for _ in range(30):
            inst = random_single_source_instance(rng)
            table = dp_single_source(inst)
            game, p0 = inst.to_game()
            trace = run_brd(game, p0, min_path())
            prefix = []
            prior = set(resolved_segments(inst, prefix))
            edge_cost = {e.id: e.cost for block in inst.segments for e in block}
            for m in trace.moves:
                prefix.append((m.player, m.new_strategy))
                now = resolved_segments(inst, prefix)
                fresh = {seg: e for seg, e in now.items() if seg not in prior}
                fresh_cost = sum((edge_cost[e] for e in fresh.values()), F(0))
                assert fresh_cost <= table.optimum
                prior = set(now)
                checked += 1
        assert checked > 20


def wide_unit_instance(rng: random.Random, single_source: bool) -> SppInstance:
    """A 10-segment chain with 24-30 players whose edge costs have prime
    denominators 17..31, so the integer unit lcm(dens) * lcm(1..n) is wide."""
    m = 10
    ids = iter(range(1, 3 * m + 1))
    segments = tuple(
        tuple(
            SppEdge(next(ids), F(rng.randint(1, 999), rng.choice((17, 19, 23, 29, 31))))
            for _ in range(rng.randint(2, 3))
        )
        for _ in range(m)
    )
    n = rng.randint(24, 30)
    if single_source:
        intervals = [(0, m)] + [(0, rng.randint(1, m)) for _ in range(n - 1)]
    else:
        # sorted sources and targets keep the intervals proper; redraw until
        # every segment is covered
        while True:
            sources = sorted(rng.randint(0, m - 1) for _ in range(n))
            targets = sorted(rng.randint(1, m) for _ in range(n))
            intervals = [(s, max(s + 1, t)) for s, t in zip(sources, targets)]
            if set(range(1, m + 1)) <= {j for s, t in intervals for j in range(s + 1, t + 1)}:
                break
    players = tuple(
        SppPlayer(s, t, tuple(rng.choice(segments[j]).id for j in range(s, t)))
        for s, t in intervals
    )
    return SppInstance(segments, players)


class TestIntegerProgramsMatchFractionReference:
    """The integer-unit programs against a plain-`Fraction` copy of the
    recurrence: same values, first movers, skeletons and resolved edges."""

    @staticmethod
    def assert_matches(inst):
        m = inst.m
        programs = [
            (dp_proper_intervals, [(s, s + k) for k in range(1, m + 1) for s in range(m - k + 1)])
        ]
        if all(p.source == 0 for p in inst.players):
            programs.append((dp_single_source, [(s, m) for s in range(m - 1, -1, -1)]))
        for program, sub_chains in programs:
            table = program(inst)
            opt, first, skeleton = reference_sub_chain_program(inst, sub_chains)
            assert table.opt == opt
            assert table.first_mover == first
            assert table.skeleton == skeleton
            assert table.optimum == opt[(0, m)]
            assert type(table.optimum) is F
            assert all(type(v) is F for v in table.opt.values())
            assert (resolved_segments(inst, skeleton)
                    == reference_resolved_segments(inst, skeleton))
        assert resolved_segments(inst) == reference_resolved_segments(inst)

    @pytest.mark.parametrize("tie_heavy", [False, True], ids=["mixed-denominators", "tie-heavy"])
    def test_random_single_source(self, tie_heavy):
        rng = random.Random(71 + tie_heavy)
        for _ in range(150):
            self.assert_matches(random_single_source_instance(
                rng, max_n=8, max_m=6, tie_heavy=tie_heavy))

    @pytest.mark.parametrize("tie_heavy", [False, True], ids=["mixed-denominators", "tie-heavy"])
    def test_random_proper_intervals(self, tie_heavy):
        rng = random.Random(73 + tie_heavy)
        for _ in range(150):
            self.assert_matches(random_proper_instance(
                rng, max_n=8, max_m=6, tie_heavy=tie_heavy))

    @pytest.mark.parametrize("single_source", [True, False], ids=["single-source", "proper"])
    def test_wide_unit_chain(self, single_source):
        rng = random.Random(79 + single_source)
        for _ in range(5):
            inst = wide_unit_instance(rng, single_source)
            assert inst.n >= 24 and is_proper_intervals(inst)
            self.assert_matches(inst)
