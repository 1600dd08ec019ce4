"""Core model: costs, best responses, equilibrium tests, potential."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from brdlab.core import (
    SHARE_CAP,
    GameError,
    InvalidProfileError,
    Profile,
    UnsupportedModelError,
    share_unit,
)
from brdlab.networks import NetworkFormationGame, PlayerSpec
from brdlab.scheduling import SchedulingGame
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
            br_against = game._br_against

            def counted(player, loads, br_against=br_against, calls=calls):
                calls.append(player)
                return br_against(player, loads)

            game._br_against = counted
            ev = game.evaluate(p)
            assert calls == []  # cells are computed on first request only
            game.suboptimal_players(ev)
            keys = {(game._class_ids[pos], idx) for pos, idx in enumerate(p)}
            assert len(calls) == len(keys)
            for cls in game.player_classes():
                for a in cls:
                    for b in cls:
                        if a < b and p[a] == p[b]:
                            assert ev.cell(a) is ev.cell(b)
                            shared += 1
            assert len(calls) == len(keys)
        assert shared > 50

    def test_suboptimal_players_test_one_member_per_occupied_strategy(self, monkeypatch):
        from brdlab.core import Evaluation

        calls = []
        is_suboptimal = Evaluation.is_suboptimal

        def counted(ev, pos):
            calls.append(pos)
            return is_suboptimal(ev, pos)

        monkeypatch.setattr(Evaluation, "is_suboptimal", counted)
        rng = random.Random(66)
        pools = [random_coco_game(rng, max_n=40) for _ in range(30)]
        pools += list(evaluation_pool(seed=66, rounds=5))
        for game, p in pools:
            ev = game.evaluate(p)
            brute = tuple(i for i in game.players if p[i - 1] not in ev.cell(i - 1).br)
            calls.clear()
            assert game.suboptimal_players(ev) == brute
            occupied = {(game._class_ids[pos], idx) for pos, idx in enumerate(p)}
            assert len(calls) == len(occupied)
            if isinstance(game, SchedulingGame) and game.is_conflicting:
                # unit jobs form one class: one test per occupied machine
                assert len(calls) == len(set(p))

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


class TestShareCap:
    """Network and coco games count in lcm(1..W), W the total load in the
    load unit; past `SHARE_CAP` construction fails before that lcm."""

    @pytest.fixture
    def no_wide_lcm(self, monkeypatch):
        # the lcm of any argument past the cap is the share unit being built
        lcm = math.lcm

        def guarded(*args):
            assert max(args, default=0) <= SHARE_CAP, "lcm(1..W) computed past the cap"
            return lcm(*args)

        monkeypatch.setattr(math, "lcm", guarded)

    def test_the_cap_itself_is_admitted(self, monkeypatch):
        # count the lcm's arguments instead of computing it
        monkeypatch.setattr(math, "lcm", lambda *args: len(args))
        assert share_unit(SHARE_CAP) == SHARE_CAP

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
