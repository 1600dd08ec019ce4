"""Benchmark fixtures: construction, self-validation, quoted quantities."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from brdlab import fixtures
from brdlab.core import GameError
from brdlab.engine import run_brd
from brdlab.fixtures import (
    FixtureError,
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
from brdlab.networks import is_ep
from brdlab.oracle import reachable_ne
from brdlab.rules import max_cost, min_path
from brdlab.scheduling import max_active_machines


class TestFig2:
    def test_quoted_values(self):
        fx = fig2_maxcost(n=5, eps=F(1, 100))
        assert fx.expected["alpha_max_cost"] == F(99, 20)
        assert fx.expected["ne_costs"] == (F(1, 5), F(99, 100))

    def test_two_players(self):
        fx = fig2_maxcost(n=2, eps=F(1, 10))
        assert fx.expected["alpha_max_cost"] == 2 * (1 - F(1, 10))

    def test_parameter_range(self):
        with pytest.raises(FixtureError):
            fig2_maxcost(n=5, eps=F(1, 4))  # eps must be below 1/n
        with pytest.raises(FixtureError):
            fig2_maxcost(n=1)


class TestFig3:
    def test_quoted_values(self):
        fx = fig3_minpath_chain(m=4, eps=F(1, 100))
        assert fx.expected["minpath_sc"] == F(701, 100)
        assert fx.expected["all_lower_sc"] == F(101, 25)
        assert fx.expected["all_lower_ratio"] == F(701, 404)
        assert fx.expected["best_sc"] == F(403, 100)

    def test_small_chain(self):
        fx = fig3_minpath_chain(m=2, eps=F(1, 100))
        assert fx.expected["minpath_sc"] == 2 + F(1, 100)

    def test_growth_rate_is_about_half_m(self):
        # the fixture family's inefficiency grows linearly at slope ~ 1/2
        lo = fig3_minpath_chain(m=3).expected["alpha_min_path"]
        hi = fig3_minpath_chain(m=6).expected["alpha_min_path"]
        assert (hi - lo) / 3 > F(1, 3)


class TestFig4:
    def test_quoted_values(self):
        fx = fig4_minpath_exp(m=3)
        assert fx.expected["minpath_sc"] == 56  # sum of the upper edges
        assert fx.expected["best_sc"] == 14
        assert fx.expected["alpha_min_path"] == 4
        assert fx.expected["minpath_order"] == (1, 2, 3)

    def test_gap_doubles_with_m(self):
        assert fig4_minpath_exp(m=2).expected["alpha_min_path"] == 2
        assert fig4_minpath_exp(m=4).expected["alpha_min_path"] == 8


class TestFig5:
    def test_vectors_and_outcomes(self):
        fa, fb = fig5_ep_pair(n=6)
        assert fa.reconstructed and fb.reconstructed
        assert is_ep(fa.game.network) and is_ep(fb.game.network)
        assert fa.expected["worst_sc"] == F(344, 5)
        assert fa.expected["best_sc"] == 34 + F(1, 20)
        assert fb.expected["worst_sc"] == 47
        assert fb.expected["best_sc"] == 30 + F(1, 20)

    def test_optimum_requires_opposite_first_movers(self):
        fa, fb = fig5_ep_pair(n=6)
        for fx in (fa, fb):
            game, p0 = fx.game, fx.initial
            best = fx.expected["best_sc"]
            good = set()
            for player in game.suboptimal_players(p0):
                for idx in game.best_response(p0, player):
                    child = game.with_choice(p0, player, idx)
                    reach = reachable_ne(game, child, state_limit=200_000)
                    if best in reach.social_costs:
                        good.add(player)
            assert good == set(fx.expected["optimal_first_movers"])

    def test_bystander_scaling(self):
        fa, _ = fig5_ep_pair(n=8)
        assert fa.expected["worst_sc"] == 54 + F(37, 5) * 4


class TestFig6:
    def test_partition_script(self):
        fx = fig6_weighted_partition(a=(F(1, 2), F(1, 2)), eps=F(1, 1000))
        assert fx.expected["scripted_sc"] == 2

    def test_paper_shape_second_best(self):
        fx = fig6_weighted_partition(a=(F(1), F(1)), eps=F(1, 1000))
        assert fx.expected["second_best"] == 3 + F(1, 1000)

    def test_no_subset_keeps_cost_high(self):
        fx = fig6_weighted_partition(a=(F(2, 3), F(2, 3), F(2, 3)))
        assert not fx.expected["has_unit_subset"]
        assert min(fx.expected["ne_costs"]) >= 3


class TestFig7:
    def test_vectors(self):
        fa, fb = fig7_weighted_local_pair(r=4)
        v1, v2 = fa.expected["v1"], fa.expected["v2"]
        assert (v1.current_cost, v1.br_cost, v1.weight) == (100, F(2, 6), 2)
        assert (v2.current_cost, v2.br_cost, v2.weight) == (F(1, 4), F(4, 21), 1)
        assert fb.expected["v1"] == v1 and fb.expected["v2"] == v2

    def test_outcome_split(self):
        fa, fb = fig7_weighted_local_pair(r=4, eps=F(1, 100))
        assert fa.expected["best_sc"] == 1
        assert fa.expected["v2_first_sc"] == 4
        assert fb.expected["best_sc"] == F(1, 2) + F(1, 100)
        assert fb.expected["v1_first_sc"] == 1

    def test_eps_must_lie_below_the_bound_for_r(self):
        # once a unit player has left edge 2, the stranded player must prefer
        # the cheap edge: eps < 2(r-3)/(r(r^2 + r + 3)), 1/106 at r = 12
        with pytest.raises(FixtureError, match=r"eps = 1/100 is not in \(0, 1/106\) for r = 12"):
            fig7_weighted_local_pair(r=12)
        for r in range(5, 12):
            fa, fb = fig7_weighted_local_pair(r=r)
            assert fb.expected["best_sc"] == F(2, r) + F(1, 100)

    def test_requires_r_above_three(self):
        with pytest.raises(FixtureError):
            fig7_weighted_local_pair(r=3)

    def test_past_the_share_cap_fails_before_any_script(self, monkeypatch):
        # the light player's weight 4/41 makes the load unit 41 and fig7b's
        # total load 72,369 in it, past the share cap
        monkeypatch.setattr(fixtures, "run_scripted", lambda *args: pytest.fail("a script ran"))
        with pytest.raises(GameError, match="share cap"):
            fig7_weighted_local_pair(r=41, eps=F(1, 100_000), big_cost=400)


class TestFig8:
    def test_quoted_values(self):
        fx = fig8_weighted_minpath(k=10, eps=F(1, 100))
        assert fx.expected["minpath_sc"] == 144 + F(1, 100)
        assert fx.expected["best_sc"] == 48
        assert fx.expected["alpha_min_path"] > F(10, 4)
        assert fx.expected["weight_ratio"] == F(6, 5)

    def test_weight_ratio_tends_to_one(self):
        assert fig8_weighted_minpath(k=20).expected["weight_ratio"] == F(11, 10)


class TestFig9:
    def test_loads_match_between_scenarios(self):
        fa, fb = fig9_sched_pair(m=4, eps=F(1, 10))
        assert fa.game.loads(fa.initial) == fb.game.loads(fb.initial)
        assert fa.expected["bad_makespan"] == F(39, 5)
        assert fb.expected["bad_makespan"] == F(77, 10)

    def test_integrality_guard(self):
        with pytest.raises(FixtureError):
            fig9_sched_pair(m=4, eps=F(1, 3))


class TestAppB:
    def test_quoted_values(self):
        fx = appB_coco(B=27)
        assert fx.expected["drained_makespan"] == F(39, 2)
        assert fx.expected["best_makespan"] == 12
        assert fx.expected["ratio"] == F(13, 8)
        assert fx.expected["max_active"] == 4
        assert max_active_machines(fx.game, fx.initial) == 4

    def test_small_cube(self):
        fx = appB_coco(B=8)
        assert fx.expected["ratio"] >= 1
        assert fx.expected["max_active"] == 3

    def test_rejects_non_cube(self):
        with pytest.raises(FixtureError):
            appB_coco(B=20)

    def test_rejects_more_jobs_than_the_strategy_cap(self):
        # c**2 + B unit jobs: 266,240 at B = 64**3, about 1e120 at (1e40)**3
        for b in (64**3, (10**40) ** 3):
            with pytest.raises(FixtureError, match="jobs, more than"):
                appB_coco(B=b)


class TestCrossFixtureDynamics:
    def test_max_cost_locks_crowd_game(self):
        fx = fig2_maxcost()
        trace = run_brd(fx.game, fx.initial, max_cost())
        assert trace.moves[0].player == 1
        assert fx.game.social_cost(trace.terminal) == fx.expected["worst_sc"]

    def test_min_path_order_on_doubling_chain(self):
        fx = fig4_minpath_exp(m=4)
        trace = run_brd(fx.game, fx.initial, min_path())
        assert trace.deviator_order() == (1, 2, 3, 4)
