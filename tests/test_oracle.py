"""Exhaustive oracle: reachable equilibria, witnesses, inefficiency reports."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from brdlab.core import Profile
from brdlab.engine import LowestIdRule, StateBudgetExceeded, reachable_by_rule, run_brd
from brdlab.fixtures import fig2_maxcost, fig6_weighted_partition, fig7_weighted_local_pair
from brdlab.networks import NetworkFormationGame, PlayerSpec
from brdlab.oracle import (
    all_profiles,
    best_reachable,
    game_inefficiency,
    optimal_sequence,
    reachable_ne,
    rule_inefficiency,
)
from brdlab.rules import max_cost, min_path, random_rule, round_robin
from brdlab.serde import report_to_doc, dumps, verify_trace
from helpers import parallel_network, random_profile, random_symmetric_game


def brute_force_ne_costs(game, p0):
    """Independent ground truth: breadth-first search over raw profiles,
    no player-class quotient, branching every suboptimal player times every
    best-response member."""
    seen = {p0.choices}
    frontier = [p0]
    ne_costs = set()
    while frontier:
        profile = frontier.pop()
        suboptimal = game.suboptimal_players(profile)
        if not suboptimal:
            ne_costs.add(game.social_cost(profile))
            continue
        for player in suboptimal:
            for idx in game.best_response(profile, player):
                child = profile.with_choice(game, player, idx)
                if child.choices not in seen:
                    seen.add(child.choices)
                    frontier.append(child)
    return ne_costs


class TestReachableNe:
    def test_equilibrium_start_is_singleton(self):
        net = parallel_network(["3"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 2)
        p0 = game.profile_from_strategies([(1,), (1,)])
        reach = reachable_ne(game, p0)
        assert reach.ne_profiles == (p0,)

    def test_crowd_game_equilibria(self):
        fx = fig2_maxcost()
        reach = reachable_ne(fx.game, fx.initial)
        assert sorted(set(reach.social_costs)) == [F(1, 5), F(99, 100)]

    def test_quotient_agrees_with_brute_force(self):
        rng = random.Random(13)
        for _ in range(25):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            reach = reachable_ne(game, p0, state_limit=100_000)
            assert set(reach.social_costs) == brute_force_ne_costs(game, p0)

    def test_every_terminal_is_nash_and_witnessed(self):
        rng = random.Random(15)
        for _ in range(10):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            reach = reachable_ne(game, p0, state_limit=100_000)
            for ne in reach.ne_profiles:
                assert game.is_nash(ne)
                trace = reach.witness(ne)
                verify_trace(game, trace)
                assert game.social_cost(trace.terminal) == game.social_cost(ne)

    def test_budget_is_a_hard_error(self):
        fx = fig2_maxcost()
        with pytest.raises(StateBudgetExceeded):
            reachable_ne(fx.game, fx.initial, state_limit=3)


class TestBestAndWitness:
    def test_best_reachable(self):
        fx = fig2_maxcost()
        profile, cost = best_reachable(fx.game, fx.initial)
        assert cost == F(1, 5)

    def test_optimal_sequence_starts_with_crowd(self):
        fx = fig2_maxcost()
        trace = optimal_sequence(fx.game, fx.initial)
        assert trace.moves[0].player >= 2  # a bottom-edge player first
        assert fx.game.social_cost(trace.terminal) == F(1, 5)
        verify_trace(fx.game, trace)

    def test_equilibrium_start_empty_witness(self):
        net = parallel_network(["3"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)])
        p0 = game.profile_from_strategies([(1,)])
        assert optimal_sequence(game, p0).moves == ()


class TestRuleInefficiency:
    def test_max_cost_on_crowd_game(self):
        fx = fig2_maxcost()
        report = rule_inefficiency(fx.game, fx.initial, max_cost())
        assert report.alpha == F(99, 20)
        assert report.worst_rule_cost == F(99, 100)
        assert report.best_cost == F(1, 5)

    def test_min_path_on_crowd_game_is_optimal(self):
        fx = fig2_maxcost()
        report = rule_inefficiency(fx.game, fx.initial, min_path())
        assert report.alpha == 1

    def test_rule_equilibria_within_reachable_set(self):
        rng = random.Random(21)
        for _ in range(15):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            reach = reachable_ne(game, p0, state_limit=100_000)
            report = rule_inefficiency(game, p0, max_cost())
            assert report.alpha == reference_alpha(game, max_cost(), p0)
            assert set(report.rule_ne_costs) <= set(reach.social_costs)
            verify_trace(game, report.rule_witness)
            verify_trace(game, report.optimal_witness)

    def test_stateful_rule_uses_single_run(self):
        fx = fig2_maxcost()
        report = rule_inefficiency(fx.game, fx.initial, random_rule(seed=3))
        assert len(report.rule_ne_costs) == 1

    def test_deterministic_reports(self):
        fx = fig2_maxcost()
        a = report_to_doc(fx.game, rule_inefficiency(fx.game, fx.initial, max_cost()))
        b = report_to_doc(fx.game, rule_inefficiency(fx.game, fx.initial, max_cost()))
        assert dumps(a) == dumps(b)


# min-path and max-cost are local; lowest-id is stateless but not equivariant
# under relabeling interchangeable players; round-robin carries run state
RULE_FACTORIES = [min_path, max_cost, LowestIdRule, round_robin]


def reference_alpha(game, rule, p0):
    """alpha from the public searches, outside the inefficiency code: NE(p0)
    from `reachable_ne`, NE_S(p0) from `reachable_by_rule`, or from one run
    for a rule that carries run state."""
    reach = reachable_ne(game, p0)
    if rule.is_stateless:
        terminals = reachable_by_rule(game, p0, rule).terminals
    else:
        terminals = (run_brd(game, p0, rule).terminal,)
    assert all(reach.contains(t) for t in terminals)
    return max(map(game.social_cost, terminals)) / reach.best()[1]


def per_start_alpha(game, factory, starts):
    """The reference: its own searches, with a fresh rule, per start."""
    return max(reference_alpha(game, factory(), p0) for p0 in starts)


class TestGameInefficiency:
    @pytest.mark.parametrize("factory", RULE_FACTORIES, ids=lambda f: f.__name__)
    def test_shared_graph_matches_per_start_reports(self, factory):
        rng = random.Random(33)
        for _ in range(25):
            game = random_symmetric_game(rng)
            profiles = list(all_profiles(game))
            starts = rng.sample(profiles, min(len(profiles), 12))
            alpha = game_inefficiency(game, factory(), starts)
            assert alpha == per_start_alpha(game, factory, starts)
        # tied shares make the rule's lowest-id pick depend on how clones
        # are labelled, so every start counts, not one per canonical profile
        rng = random.Random(36)
        for _ in range(20):
            game = random_symmetric_game(rng, tie_heavy=True)
            profiles = list(all_profiles(game))
            if len(profiles) > 256:
                continue  # the reference searches each start from scratch
            alpha = game_inefficiency(game, factory())
            assert alpha == per_start_alpha(game, factory, profiles)

    @pytest.mark.parametrize("factory", RULE_FACTORIES, ids=lambda f: f.__name__)
    def test_fig2_over_every_profile(self, factory):
        game = fig2_maxcost().game
        alpha = game_inefficiency(game, factory())
        assert alpha == per_start_alpha(game, factory, all_profiles(game))

    @pytest.mark.parametrize("factory", RULE_FACTORIES, ids=lambda f: f.__name__)
    def test_weighted_fixtures_from_their_initial_profile(self, factory):
        for fx in (fig6_weighted_partition(), *fig7_weighted_local_pair()):
            alpha = game_inefficiency(fx.game, factory(), [fx.initial])
            assert alpha == per_start_alpha(fx.game, factory, [fx.initial])

    def test_state_limit_bounds_the_shared_graph(self):
        fx = fig2_maxcost()
        with pytest.raises(StateBudgetExceeded):
            game_inefficiency(fx.game, max_cost(), state_limit=3)
        # the limit counts the states of all starts together: no start's own
        # search visits more than 12 states, the rule's memo ends at 243
        with pytest.raises(StateBudgetExceeded):
            game_inefficiency(fx.game, max_cost(), state_limit=242)
        assert game_inefficiency(fx.game, max_cost(), state_limit=243) == 5

    def test_single_profile_source_reduces(self):
        fx = fig2_maxcost()
        alpha = game_inefficiency(fx.game, max_cost(), [fx.initial])
        assert alpha == rule_inefficiency(fx.game, fx.initial, max_cost()).alpha

    def test_three_edge_symmetric_min_path_optimal(self):
        rng = random.Random(27)
        for _ in range(8):
            net = parallel_network([F(rng.randint(1, 30), rng.randint(1, 3))
                                    for _ in range(3)])
            game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 3)
            assert game_inefficiency(game, min_path()) == 1

    def test_max_cost_can_be_inefficient(self):
        fx = fig2_maxcost()
        assert game_inefficiency(fx.game, max_cost()) >= F(99, 20)

    def test_enumeration_guard(self):
        fx = fig2_maxcost()
        with pytest.raises(StateBudgetExceeded):
            list(all_profiles(fx.game, cap=10))

    def test_enumeration_order(self):
        game = NetworkFormationGame(parallel_network([1, 2, 3]), [PlayerSpec(0, 1)] * 2)
        choices = [p.choices for p in all_profiles(game)]
        assert choices == [(a, b) for a in range(3) for b in range(3)]

    def test_max_cost_starts_are_not_interchangeable(self):
        # costs 4, 2, 2: from (1, 0, 0) max-cost can end at alpha 2, from the
        # equivalent (0, 0, 1) only at alpha 1, and only the latter is searched
        game = NetworkFormationGame(parallel_network([4, 2, 2]), [PlayerSpec(0, 1)] * 3)
        assert rule_inefficiency(game, Profile((1, 0, 0)), max_cost()).alpha == 2
        assert rule_inefficiency(game, Profile((0, 0, 1)), max_cost()).alpha == 1
        assert game_inefficiency(game, max_cost()) == 2

