"""The shipped deviator rules on their defining examples."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from brdlab.engine import EngineError, run_brd, state_vectors
from brdlab.fixtures import fig2_maxcost, fig9_sched_pair
from brdlab.rules import (
    RULES,
    longest_job,
    make_rule,
    max_cost,
    max_improvement,
    min_path,
    random_rule,
    round_robin,
    s_opt_rule,
)
from brdlab.scheduling import s_opt_choose
from helpers import random_coco_game


def choice_of(rule, game, profile):
    ev = game.evaluate(profile)
    return rule.choose(ev, game.suboptimal_players(ev))


class TestMaxCost:
    def test_picks_crowd_game_top_player(self):
        fx = fig2_maxcost()
        assert choice_of(max_cost(), fx.game, fx.initial) == (1,)

    def test_equal_costs_whole_set(self):
        from brdlab.networks import NetworkFormationGame, PlayerSpec
        from helpers import parallel_network

        net = parallel_network(["2", "6"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 2)
        p0 = game.profile_from_strategies([(2,), (2,)])
        assert choice_of(max_cost(), game, p0) == (1, 2)

    def test_scheduling_prefers_long_machine(self):
        fa, _ = fig9_sched_pair()
        # v' (load 2m-eps) beats v'' (load m+eps/2)
        choice = choice_of(max_cost(), fa.game, fa.initial)
        assert set(choice) == {1, 2, 3}  # all jobs on machine 1


class TestMinPath:
    def test_crowd_game_reaches_cheap_edge(self):
        fx = fig2_maxcost()
        choice = choice_of(min_path(), fx.game, fx.initial)
        assert set(choice) == set(range(2, fx.game.n + 1))  # the crowd
        trace = run_brd(fx.game, fx.initial, min_path())
        assert fx.game.social_cost(trace.terminal) == F(1, 5)

    def test_rejects_scheduling(self):
        game, p0 = random_coco_game(random.Random(0), max_n=6, max_m=3)
        with pytest.raises(EngineError):
            run_brd(game, p0, min_path())


class TestMaxImprovement:
    def test_prefers_biggest_drop(self):
        fx = fig2_maxcost()
        # top player improves by 1 - (1-eps)/n, crowd members by less
        assert choice_of(max_improvement(), fx.game, fx.initial) == (1,)


class TestLongestJob:
    def test_picks_length_m_job(self):
        _, fb = fig9_sched_pair()
        assert choice_of(longest_job(), fb.game, fb.initial) == (1,)

    def test_rejects_networks(self):
        fx = fig2_maxcost()
        with pytest.raises(EngineError):
            run_brd(fx.game, fx.initial, longest_job())


class TestGlobalRules:
    def test_round_robin_and_random_run(self):
        fx = fig2_maxcost()
        for rule in (round_robin(), random_rule(seed=5)):
            trace = run_brd(fx.game, fx.initial, rule)
            assert trace.terminal_is_ne

    def test_registry_names(self):
        assert set(RULES) == {
            "max-cost", "min-path", "max-improvement", "longest-job",
            "round-robin", "random", "s-opt",
        }
        for name in RULES:
            make_rule(name, seed=1)
        with pytest.raises(EngineError):
            make_rule("nope")


class TestSOptRule:
    def test_matches_machine_choice_along_traces(self):
        rng = random.Random(19)
        rule = s_opt_rule()
        for _ in range(25):
            game, p0 = random_coco_game(rng, max_n=14, max_m=4)
            profile = p0
            for _ in range(200):
                suboptimal = game.suboptimal_players(profile)
                if not suboptimal:
                    break
                machine = s_opt_choose(game, profile)
                assert machine is not None
                choice = choice_of(rule, game, profile)
                assert all(game.machine_of(profile, j) == machine for j in choice)
                mover = min(choice)
                profile = profile.with_choice(
                    game, mover, game.canonical_br_pick(profile, mover)
                )
            else:
                pytest.fail("no equilibrium within 200 steps")

    def test_rejects_linear_model(self):
        fa, _ = fig9_sched_pair()
        with pytest.raises(EngineError):
            run_brd(fa.game, fa.initial, s_opt_rule())


class TestLocality:
    def test_choice_follows_vector_permutation(self):
        fx = fig2_maxcost()
        game, p0 = fx.game, fx.initial
        suboptimal = game.suboptimal_players(p0)
        vectors = state_vectors(game, p0, suboptimal)
        ordered = [vectors[i] for i in suboptimal]
        for rule in (max_cost(), min_path(), max_improvement()):
            choose = rule.vector_chooser(game)
            base = set(choose(ordered))
            # vector k moves to position k + 1 (cyclically)
            permuted = ordered[-1:] + ordered[:-1]
            relabeled = set(choose(permuted))
            assert relabeled == {(k + 1) % len(ordered) for k in base}
