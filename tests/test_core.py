"""Core model: costs, best responses, equilibrium tests, potential."""

from __future__ import annotations

import copy
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from brdlab import core
from brdlab.core import (
    SHARE_CAP,
    Evaluation,
    Game,
    GameError,
    InvalidProfileError,
    Profile,
    UnsupportedModelError,
    share_unit,
)
from brdlab.engine import LowestIdRule, run_brd
from brdlab.fixtures import (
    appB_coco,
    fig2_maxcost,
    fig3_minpath_chain,
    fig4_minpath_exp,
    fig5_ep_pair,
    fig6_weighted_partition,
    fig7_weighted_local_pair,
    fig8_weighted_minpath,
    fig9_sched_pair,
)
from brdlab.networks import Edge, Network, NetworkFormationGame, PlayerSpec
from brdlab.rules import RULES, make_rule
from brdlab.scheduling import SchedulingGame
from brdlab.serde import verify_trace
from brdlab.sppdp import dp_proper_intervals, dp_single_source, replay
from helpers import (
    parallel_network,
    rand_cost,
    random_coco_game,
    random_linear_game,
    random_profile,
    random_proper_instance,
    random_single_source_instance,
    random_symmetric_game,
    random_weighted_game,
)


def two_edge_game(costs=("1", "2"), n=1):
    net = parallel_network(costs)
    return NetworkFormationGame(net, [PlayerSpec(0, 1)] * n)


class TestPlayerCost:
    def test_fair_share_even_split(self):
        game = two_edge_game(("6", "50"), n=2)
        p = game.profile_from_strategies([(1,), (1,)])
        assert game.player_cost(p, 1) == 3
        assert game.player_cost(p, 2) == 3

    def test_weighted_share(self):
        # an edge of cost 9+eps carrying six unit players and one of weight 2
        eps = F(1, 1000)
        net = parallel_network([9 + eps, 100])
        specs = [PlayerSpec(0, 1, F(2))] + [PlayerSpec(0, 1)] * 6
        game = NetworkFormationGame(net, specs)
        p = game.profile_from_strategies([(1,)] * 7)
        assert game.player_cost(p, 1) == 2 * (9 + eps) / 8

    def test_conflicting_congestion(self):
        game = SchedulingGame(2, [1] * 9, activation_cost=27)
        p = game.profile_from_strategies([(1,)] * 9)
        assert game.player_cost(p, 1) == 9 + F(27, 9)

    def test_unknown_player(self):
        game = two_edge_game()
        p = game.profile_from_strategies([(1,)])
        with pytest.raises(InvalidProfileError):
            game.player_cost(p, 5)

    @pytest.mark.parametrize("player", [0, -1, 5, 99])
    def test_player_id_checked_before_indexing(self, player):
        game = two_edge_game(n=2)
        p = game.profile_from_strategies([(1,), (2,)])
        for method in (game.best_response, game.is_suboptimal, game.br_path,
                       game.state_vector, game.canonical_br_pick):
            with pytest.raises(InvalidProfileError):
                method(p, player)

    def test_profile_outside_space(self):
        game = two_edge_game()
        with pytest.raises(InvalidProfileError):
            game.profile_from_strategies([(9,)])
        with pytest.raises(InvalidProfileError):
            game.validate_profile(Profile((7,)))


class TestSocialCost:
    def test_sum_equals_utilized_edge_costs(self):
        rng = random.Random(5)
        for _ in range(30):
            game = random_symmetric_game(rng)
            p = random_profile(rng, game)
            used = {e for i in game.players for e in game.strategy_of(p, i)}
            assert game.social_cost(p) == sum(game.edge_cost(e) for e in used)

    def test_makespan(self):
        game = SchedulingGame(2, [5, 3])
        p = game.profile_from_strategies([(1,), (2,)])
        assert game.social_cost(p) == 5


class TestBestResponse:
    def test_lone_player_picks_cheapest(self):
        game = two_edge_game(("1", "2"))
        p = game.profile_from_strategies([(2,)])
        assert game.best_response(p, 1) == (0,)  # index of the cost-1 edge

    def test_full_argmin_set_on_tie(self):
        game = two_edge_game(("2", "2"))
        p = game.profile_from_strategies([(1,)])
        assert game.best_response(p, 1) == (0, 1)

    def test_conflicting_br_targets(self):
        game = SchedulingGame(4, [1] * 36, activation_cost=27)
        assign = [(1,)] * 3 + [(2,)] * 3 + [(3,)] * 3 + [(4,)] * 27
        p = game.profile_from_strategies(assign)
        # a job on the load-27 machine: any load-3 machine, at cost c(4)
        br = game.best_response(p, 36)
        assert br == (0, 1, 2)
        target = game.with_choice(p, 36, 0)
        assert game.player_cost(target, 36) == 4 + F(27, 4)

    def test_evaluates_with_self_removed(self):
        # the player's own weight must not count against a candidate edge
        game = two_edge_game(("4", "3"), n=1)
        p = game.profile_from_strategies([(1,)])
        assert game.best_response(p, 1) == (1,)


class TestEquilibrium:
    def test_suboptimal_is_strict(self):
        game = two_edge_game(("2", "2"))
        p = game.profile_from_strategies([(1,)])
        assert not game.is_suboptimal(p, 1)

    def test_single_edge_is_nash(self):
        net = parallel_network(["7"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 3)
        p = game.profile_from_strategies([(1,)] * 3)
        assert game.is_nash(p)

    def test_balanced_conflicting_schedule_is_nash(self):
        game = SchedulingGame(4, [1] * 36, activation_cost=27)
        p = game.profile_from_strategies([(1 + i % 4,) for i in range(36)])
        assert game.is_nash(p)

    def test_nash_iff_no_player_gains(self):
        rng = random.Random(9)
        for _ in range(25):
            game = random_symmetric_game(rng)
            p = random_profile(rng, game)
            explicit = all(
                game.player_cost(p, i)
                <= min(
                    game.player_cost(game.with_choice(p, i, k), i)
                    for k in range(len(game.strategy_space(i)))
                )
                for i in game.players
            )
            assert game.is_nash(p) == explicit


class TestPotential:
    def test_single_fair_share_edge(self):
        game = two_edge_game(("6", "50"), n=2)
        p = game.profile_from_strategies([(1,), (1,)])
        assert game.rosenthal_potential(p) == 9  # 6 * (1 + 1/2)

    def test_linear_scheduling(self):
        game = SchedulingGame(2, [1, 1, 1])
        p = game.profile_from_strategies([(1,), (1,), (2,)])
        assert game.rosenthal_potential(p) == (1 + 2) + 1

    def test_weighted_unsupported(self):
        net = parallel_network(["3", "4"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1, F(2))])
        p = game.profile_from_strategies([(1,)])
        with pytest.raises(UnsupportedModelError):
            game.rosenthal_potential(p)

    def test_mirrors_cost_change_exactly(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            game = random_symmetric_game(rng)
            p = random_profile(rng, game)
            for i in game.players:
                if not game.is_suboptimal(p, i):
                    continue
                q = game.with_choice(p, i, game.canonical_br_pick(p, i))
                delta_phi = game.rosenthal_potential(q) - game.rosenthal_potential(p)
                delta_cost = game.player_cost(q, i) - game.player_cost(p, i)
                assert delta_phi == delta_cost
                checked += 1
        assert checked > 30


class TestPlayerClasses:
    def test_groups_by_weight_and_space(self):
        net = parallel_network(["3", "4"])
        specs = [PlayerSpec(0, 1), PlayerSpec(0, 1, F(2)), PlayerSpec(0, 1)]
        game = NetworkFormationGame(net, specs)
        groups = sorted(game.player_classes())
        assert groups == [(0, 2), (1,)]

    def test_load_weights_give_the_partition_of_the_weights(self):
        """Classes compare integer load weights; the reference groups the
        `Fraction` weights themselves."""
        rng = random.Random(29)
        games = []
        for _ in range(40):
            games.append(random_weighted_game(rng))
            lengths = [rng.choice((1, 2, F(1, 2), F(2, 4), F(3, 2), F(7, 3), F(14, 6)))
                       for _ in range(rng.randint(1, 9))]
            games.append(SchedulingGame(rng.randint(1, 4), lengths))
        merged = 0
        for game in games:
            reference: dict = {}
            for pos, (w, space) in enumerate(zip(game._weights, game._spaces)):
                reference.setdefault((w, space), []).append(pos)
            assert game.player_classes() == tuple(map(tuple, reference.values()))
            merged += len(reference) < game.n
        assert merged > 30


class TestStrategyIndex:
    """One map per strategy space replaces the linear search of the space."""

    def pool(self):
        rng = random.Random(31)
        for _ in range(20):
            yield random_symmetric_game(rng)
            yield random_weighted_game(rng)
            yield random_linear_game(rng)[0]

    def test_matches_the_linear_search(self):
        for game in self.pool():
            for player in game.players:
                space = game.strategy_space(player)
                for strategy in space:
                    assert game.strategy_index(player, strategy) == space.index(strategy)
                    assert game.strategy_index(player, list(strategy)) == space.index(strategy)
                for outside in ((), (0,), (10**6,), tuple(reversed(space[-1])) + (10**6,)):
                    assert outside not in space
                    with pytest.raises(InvalidProfileError):
                        game.strategy_index(player, outside)

    def test_unknown_and_unhashable_strategies(self):
        game = two_edge_game(n=2)
        assert game.profile_from_strategies({1: [2], 2: (1,)}) == (1, 0)
        for strategy in ([9], [[1]], [{1: 2}]):
            # an unhashable member once ended in the linear search's ValueError
            with pytest.raises(InvalidProfileError, match="outside her space"):
                game.profile_from_strategies([strategy, (1,)])
            with pytest.raises(InvalidProfileError, match="outside her space"):
                game.profile_from_strategies({1: (1,), 2: strategy})
        with pytest.raises(InvalidProfileError, match="unknown player id 3"):
            game.strategy_index(3, (1,))


class TestSharedSpaces:
    """Players handed one strategy-space object share one tuple of it."""

    def test_scheduling_jobs_share_the_machine_list(self):
        tracemalloc.start()
        try:
            game = SchedulingGame(10_000, [1] * 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(space is game._spaces[0] for space in game._spaces)
        assert len(game._spaces[0]) == 10_000
        assert peak < 2_000_000

    def test_network_players_share_their_pair_paths(self):
        # two segments of two parallel edges: 0 -> 1 -> 2
        net = Network(tuple(Edge(e, (e - 1) // 2, (e + 1) // 2, F(e)) for e in range(1, 5)),
                      source=0, sink=2)
        specs = [PlayerSpec(0, 2), PlayerSpec(0, 1), PlayerSpec(0, 2, F(2)), PlayerSpec(0, 1)]
        game = NetworkFormationGame(net, specs)
        assert game._spaces[0] is game._spaces[2] and game._spaces[1] is game._spaces[3]
        assert game._spaces[0] is not game._spaces[1]
        assert len(game._spaces[0]) == 4 and len(game._spaces[1]) == 2


def _is_linear(game: Game) -> bool:
    return isinstance(game, SchedulingGame) and not game.is_conflicting


def evaluation_pool(seed: int, rounds: int = 25):
    """(game, profile) pairs: symmetric network games, plain and tie-heavy,
    weighted network games, SPP chains, linear scheduling games (some with
    job-length denominators mixed over 1..9), conflicting games (some with
    B = 6, where c(2) = 2 + 6/2 = 3 + 6/3 = c(3) ties exactly, some with
    B's denominator over 1..9 and loads up to 12), and two games whose
    integer cost unit is wide: 41 unit players on parallel edges with prime
    cost denominators, and 56 unit jobs under a half-integer B.  Some
    weighted network games draw weight denominators over 1..9, so that the
    load unit and the total load W in it vary."""
    rng, more, heavy = random.Random(seed), random.Random(-seed), random.Random(2 * seed)
    for _ in range(rounds):
        for make in (random_symmetric_game, random_weighted_game):
            game = make(rng)
            yield game, random_profile(rng, game)
        weights = [F(heavy.randint(1, 9), heavy.randint(1, 9)) for _ in range(heavy.randint(2, 3))]
        net = parallel_network([rand_cost(heavy) for _ in range(heavy.randint(2, 4))])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1, w) for w in weights])
        yield game, random_profile(heavy, game)
        yield random_linear_game(rng)
        yield random_coco_game(rng, max_n=12, max_m=4)
        game = random_symmetric_game(more, tie_heavy=True)
        yield game, random_profile(more, game)
        for make in (random_single_source_instance, random_proper_instance):
            yield make(more, tie_heavy=more.random() < 0.5).to_game()
        lengths = [F(more.randint(1, 20), more.randint(1, 9)) for _ in range(more.randint(2, 10))]
        game = SchedulingGame(more.randint(2, 5), lengths)
        yield game, random_profile(more, game)
        m = more.randint(2, 4)
        game = SchedulingGame(m, [1] * more.randint(m, 12), activation_cost=6)
        yield game, random_profile(more, game)
        b = F(more.randint(4, 60), more.randint(1, 9))
        game = SchedulingGame(2, [1] * more.randint(8, 12), activation_cost=b)
        yield game, random_profile(more, game)
    costs = [F(p * more.randint(4, 9) + more.randint(1, p - 1), p) for p in (17, 19, 23, 29, 31)]
    game = NetworkFormationGame(parallel_network(costs), [PlayerSpec(0, 1)] * 41)
    yield game, random_profile(more, game)
    game = SchedulingGame(8, [1] * 56, activation_cost=F(2 * more.randint(10, 40) + 1, 2))
    yield game, random_profile(more, game)


def reference_costs(game, profile, player):
    """The cost of each of the player's strategies against everyone else,
    with the loads summed by hand from the other players' strategies."""
    others = {}
    for j in game.players:
        if j != player:
            for e in game.strategy_of(profile, j):
                others[e] = others.get(e, 0) + game.weight(j)
    w = game.weight(player)
    costs = []
    for strategy in game.strategy_space(player):
        if isinstance(game, SchedulingGame):
            load = others.get(strategy[0], 0) + w
            b = game.activation_cost
            costs.append(load if b is None else load + b / load)
        else:
            costs.append(sum(w * game.edge_cost(e) / (others.get(e, 0) + w) for e in strategy))
    return costs


class TestEvaluation:
    def test_cells_match_a_from_scratch_reference(self):
        for game, p in evaluation_pool(seed=61):
            ev = game.evaluate(p)
            sub = []
            for player in game.players:
                pos = player - 1
                costs = reference_costs(game, p, player)
                best = min(costs)
                cell = ev.cell(pos)
                assert ev.cost(pos) == costs[p[pos]] == game.player_cost(p, player)
                assert cell.br == tuple(i for i, c in enumerate(costs) if c == best)
                assert ev.cost_to(pos, cell.br[0]) == best
                if p[pos] not in cell.br:
                    sub.append(player)
            assert game.suboptimal_players(ev) == game.suboptimal_players(p) == tuple(sub)
            own = [reference_costs(game, p, i)[p[i - 1]] for i in game.players]
            expected = sum(own) if isinstance(game, NetworkFormationGame) else max(own)
            assert game.social_cost(ev) == game.social_cost(p) == expected

    def test_public_costs_are_fractions(self):
        for game, p in evaluation_pool(seed=65, rounds=5):
            ev = game.evaluate(p)
            values = [game.social_cost(ev), game.social_cost(p)]
            if isinstance(game, SchedulingGame):
                values += game.loads(ev)
            for player in game.players:
                pos = player - 1
                values.append(game.player_cost(ev, player))
                values += [ev.cost_to(pos, idx) for idx in range(len(game.strategy_space(player)))]
                v = game.state_vector(ev, player)
                if isinstance(game, SchedulingGame):
                    values += [v.length, *v.loads]
                else:
                    values += [v.current_cost, v.current_path_cost, v.br_cost, v.br_path_cost]
            assert values and all(type(x) is F for x in values), game

    def test_cost_to_is_the_cost_after_the_move(self):
        for game, p in evaluation_pool(seed=62, rounds=15):
            ev = game.evaluate(p)
            for player in game.players:
                for idx in range(len(game.strategy_space(player))):
                    moved = game.with_choice(p, player, idx)
                    assert ev.cost_to(player - 1, idx) == game.player_cost(moved, player)

    def test_clones_on_one_strategy_share_one_cell(self):
        shared = 0
        for game, p in evaluation_pool(seed=63):
            calls = []
            fresh_cell = game._cell

            def counted(key, loads, fresh_cell=fresh_cell, calls=calls):
                calls.append(key)
                return fresh_cell(key, loads)

            game._cell = counted
            ev = game.evaluate(p)
            assert calls == []  # cells are computed on first request only
            game.suboptimal_players(ev)
            keys = {(game._class_ids[pos], idx) for pos, idx in enumerate(p)}
            # scheduling decides from the loads and builds no cell
            assert len(calls) == (0 if isinstance(game, SchedulingGame) else len(keys))
            for cls in game.player_classes():
                for a in cls:
                    for b in cls:
                        if a < b and p[a] == p[b]:
                            assert ev.cell(a) is ev.cell(b)
                            shared += 1
            for pos in range(game.n):
                ev.cell(pos)
            assert len(calls) == len(keys)
        assert shared > 50

    def test_suboptimal_players_test_one_member_per_occupied_strategy(self, monkeypatch):
        calls = []
        fill = Evaluation._fill

        def counted(ev, key):
            calls.append(key)
            return fill(ev, key)

        monkeypatch.setattr(Evaluation, "_fill", counted)
        rng = random.Random(66)
        pools = [random_coco_game(rng, max_n=40) for _ in range(30)]
        pools += list(evaluation_pool(seed=66, rounds=5))
        linear = coco = 0
        for game, p in pools:
            ref = game.evaluate(p)
            brute = tuple(i for i in game.players if p[i - 1] not in ref.cell(i - 1).br)
            calls.clear()
            assert game.suboptimal_players(game.evaluate(p)) == brute
            occupied = {(game._class_ids[pos], idx) for pos, idx in enumerate(p)}
            if isinstance(game, SchedulingGame):
                # a job's cost is a function of her machine's load: the
                # loads decide
                linear += not game.is_conflicting
                coco += game.is_conflicting
                assert calls == []
                continue
            assert len(calls) == len(occupied)
        assert linear >= 10 and coco >= 30

    def test_relabeled_evaluation_reads_like_a_fresh_one(self):
        rng = random.Random(64)
        for game, p in evaluation_pool(seed=64):
            choices = list(p)
            for cls in game.player_classes():
                values = [choices[pos] for pos in cls]
                rng.shuffle(values)
                for pos, value in zip(cls, values):
                    choices[pos] = value
            raw = Profile(tuple(choices))
            ev = game.evaluate(p)
            game.suboptimal_players(ev)  # cells computed before the relabeling
            relabeled, fresh = ev.relabeled(raw), game.evaluate(raw)
            assert relabeled.profile == raw and ev.profile == p
            for player in game.players:
                pos = player - 1
                assert relabeled.cell(pos) == fresh.cell(pos)
                assert relabeled.cost(pos) == fresh.cost(pos)
                for idx in range(len(game.strategy_space(player))):
                    assert relabeled.cost_to(pos, idx) == fresh.cost_to(pos, idx)
                assert game.state_vector(relabeled, player) == game.state_vector(fresh, player)


class TestChildEvaluation:
    """A walk derives each step's evaluation from its parent's; it must read
    exactly as a fresh evaluation of the same profile."""

    def check(self, ev, stats):
        game = ev.game
        fresh = game.evaluate(ev.profile)
        assert ev.profile == fresh.profile and ev.loads == fresh.loads
        held = {key: pos for pos, key in enumerate(zip(game._class_ids, ev.profile))}
        # the cells the walk read
        for key, cell in ev._cells.items():
            assert cell == fresh.cell(held[key])
        # every other cell, on a copy, so the walk's own reads stay as they were
        probe = copy.copy(ev)
        probe._cells = dict(ev._cells)
        assert game.suboptimal_players(probe) == game.suboptimal_players(fresh)
        assert game.social_cost(probe) == game.social_cost(fresh)
        for pos in range(game.n):
            assert probe.cell(pos) == fresh.cell(pos)

    @pytest.fixture
    def stats(self, monkeypatch):
        """Check each evaluation a walk leaves for its child, and each one
        tested for equilibrium, against a fresh one; count the moves into a
        (class, strategy) that an earlier move of the same walk emptied."""
        stats = {"steps": 0, "reentered": 0}
        child, is_nash = Evaluation.child, Game.is_nash

        def checked_child(ev, pos, idx):
            kid = child(ev, pos, idx)
            self.check(ev, stats)
            game = ev.game
            held = set(zip(game._class_ids, ev.profile))
            emptied = getattr(ev, "emptied", set()) | (held - set(zip(game._class_ids, kid.profile)))
            if (game._class_ids[pos], idx) in emptied:
                stats["reentered"] += 1
            kid.emptied = emptied - {(game._class_ids[pos], idx)}
            stats["steps"] += 1
            return kid

        def checked_is_nash(game, at):
            if isinstance(at, Evaluation):
                self.check(at, stats)
            return is_nash(game, at)

        monkeypatch.setattr(Evaluation, "child", checked_child)
        monkeypatch.setattr(Game, "is_nash", checked_is_nash)
        return stats

    def run_every_rule(self, game, p0, seed):
        for name in RULES:
            rule = make_rule(name, seed=seed)
            if not rule.accepts(game):
                continue
            trace = run_brd(game, p0, rule)
            verify_trace(game, trace)

    def test_child_matches_a_fresh_evaluation(self, stats):
        games = {"linear": 0, "coco": 0, "network": 0, "weighted": 0}
        for k, (game, p) in enumerate(evaluation_pool(seed=67, rounds=6)):
            self.run_every_rule(game, p, seed=k)
            if isinstance(game, SchedulingGame):
                games["coco" if game.is_conflicting else "linear"] += 1
            else:
                games["network" if game.is_unweighted else "weighted"] += 1
        assert min(games.values()) > 0
        assert stats["steps"] > 1000

    def test_a_move_into_an_emptied_strategy(self, stats):
        # B = 17/2: job 1 leaves machine 1 empty for machine 3, which fills
        # up until a job from the crowded machine 2 re-enters machine 1
        game = SchedulingGame(3, [1] * 17, activation_cost=F(17, 2))
        p0 = (0, 2, 2) + (1,) * 14
        trace = run_brd(game, p0, LowestIdRule())
        assert trace.moves[0].old_strategy == (1,) and stats["reentered"] > 0
        verify_trace(game, trace)
        self.run_every_rule(game, p0, seed=0)

    def test_fixture_scripts(self, stats):
        # each fixture runs its scripts while it validates itself
        fixtures = [fig2_maxcost(), fig3_minpath_chain(), fig4_minpath_exp(), *fig5_ep_pair(),
                    fig6_weighted_partition(), *fig7_weighted_local_pair(), fig8_weighted_minpath(k=4),
                    *fig9_sched_pair(), appB_coco(B=64)]
        for k, fixture in enumerate(fixtures):
            for key in fixture.scripts:
                verify_trace(fixture.game, fixture.run_script(key))
            self.run_every_rule(fixture.game, fixture.initial, seed=k)
        assert stats["steps"] > 1000

    def test_spp_replays(self, stats):
        rng = random.Random(68)
        for k in range(40):
            make = (random_single_source_instance, random_proper_instance)[k % 2]
            program = (dp_single_source, dp_proper_intervals)[k % 2]
            inst = make(rng)
            game, _ = inst.to_game()
            verify_trace(game, replay(inst, program(inst), game))
        assert stats["steps"] > 100


class TestShareCap:
    """Network and coco games count in lcm(1..W), W the total load in the
    load unit; past `SHARE_CAP` construction fails before that lcm."""

    @pytest.fixture
    def no_wide_lcm(self, monkeypatch):
        # share_unit sieves 0..W: a sieve past the cap is the unit being built
        def guarded(size):
            assert size <= SHARE_CAP + 1, "lcm(1..W) computed past the cap"
            return bytearray(size)

        monkeypatch.setattr(core, "bytearray", guarded, raising=False)

    def test_share_unit_is_lcm_of_one_to_w(self):
        unit = 1
        for w in range(1, 2001):
            unit = math.lcm(unit, w)
            assert share_unit(w) == unit

    def test_the_cap_itself_is_admitted(self):
        assert share_unit(SHARE_CAP) == math.lcm(*range(1, SHARE_CAP + 1))

    def test_weighted_network_game_past_the_cap(self, no_wide_lcm):
        # load unit 65,536: weights 65,536 and 1 in it
        specs = [PlayerSpec(0, 1), PlayerSpec(0, 1, F(1, SHARE_CAP))]
        with pytest.raises(GameError, match="share cap"):
            NetworkFormationGame(parallel_network(["1", "2"]), specs)

    def test_unit_network_game_past_the_cap(self, no_wide_lcm):
        specs = [PlayerSpec(0, 1)] * (SHARE_CAP + 1)
        with pytest.raises(GameError, match="share cap"):
            NetworkFormationGame(parallel_network(["1", "2"]), specs)

    def test_coco_game_past_the_cap(self, no_wide_lcm):
        with pytest.raises(GameError, match="share cap"):
            SchedulingGame(2, [1] * (SHARE_CAP + 1), activation_cost=F(7, 2))

    def test_weighted_game_at_w_19502_builds_exactly(self):
        # W = 19,501 + 1 in the load unit 19,501, above fig8's largest W
        # (19,109 at k = 97); shares are checked against plain Fractions
        light = F(1, 19_501)
        net = parallel_network([F(7, 3), F(5, 2)])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1), PlayerSpec(0, 1, light)])
        assert sum(game._load_weights) == 19_502
        assert game._cost_unit == 6 * share_unit(19_502)
        for p in ((0, 0), (0, 1), (1, 0)):
            for player in game.players:
                assert game.player_cost(p, player) == reference_costs(game, p, player)[p[player - 1]]
        assert game.best_response((1, 0), 2) == (1,)  # the light player joins player 1
