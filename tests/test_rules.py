"""The shipped deviator rules on their defining examples."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdlab.core import Evaluation
from brdlab.engine import (
    DeviatorRule,
    EngineError,
    LowestIdRule,
    RuleViolation,
    rule_choice,
    run_brd,
    state_vectors,
)
from brdlab.fixtures import fig2_maxcost, fig9_sched_pair
from brdlab.networks import NetworkFormationGame, PlayerSpec
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
from helpers import (
    parallel_network,
    random_coco_game,
    random_linear_game,
    random_profile,
    random_symmetric_game,
    random_weighted_game,
)

SHIPPED_LOCAL_RULES = (max_cost, min_path, max_improvement, longest_job, s_opt_rule)


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
                profile = game.with_choice(profile, mover, game.canonical_br_pick(profile, mover))
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


def differential_pool(seed: int, rounds: int):
    """(game, profile) pairs from every random pool a local rule runs on:
    symmetric network games, generic and tie-heavy, weighted network games,
    linear scheduling games, and conflicting games with integer B, whose
    per-load costs tie (c(x) = c(y) when x * y = B)."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for tie_heavy in (False, True):
            game = random_symmetric_game(rng, tie_heavy=tie_heavy)
            yield game, random_profile(rng, game)
        game = random_weighted_game(rng)
        yield game, random_profile(rng, game)
        yield random_linear_game(rng)
        yield random_coco_game(rng, max_n=14, max_m=5, generic_b=False)


class TestCellKeys:
    def test_choose_ranks_players_as_the_vector_keys_do(self):
        """`choose` scores the evaluation's cells, the audits score state
        vectors: on every reached profile both must give the same choice
        set, and again after peeling off each choice set in turn, so the
        whole preorder over the suboptimal players agrees, ties included."""
        checked, tied = {}, 0
        for game, p0 in differential_pool(seed=12, rounds=50):
            profile = p0
            for _ in range(6):
                ev = game.evaluate(profile)
                suboptimal = game.suboptimal_players(ev)
                if not suboptimal:
                    break
                vectors = state_vectors(game, ev, suboptimal)
                for factory in SHIPPED_LOCAL_RULES:
                    rule = factory()
                    if not rule.accepts(game):
                        continue
                    by_vectors = rule.vector_chooser(game)
                    rest = suboptimal
                    while rest:
                        chosen = rule.choose(ev, rest)
                        picks = by_vectors([vectors[i] for i in rest])
                        assert chosen == tuple(rest[k] for k in picks), (rule.name, game, profile)
                        tied += 1 < len(chosen) < len(rest)
                        rest = tuple(i for i in rest if i not in chosen)
                    checked[rule.name] = checked.get(rule.name, 0) + 1
                mover = suboptimal[-1]
                profile = game.with_choice(profile, mover, game.canonical_br_pick(ev, mover))
        assert set(checked) == {f().name for f in SHIPPED_LOCAL_RULES}
        assert min(checked.values()) >= 100 and tied >= 100, (checked, tied)


def reference_choose_groups(rule, ev):
    """The route `_choose_groups` replaces in the searches: the checked
    player choice, read back onto the moving groups, which must take all
    or none of each group's holders."""
    players = rule_choice(ev, rule)
    class_ids, profile = ev.game._class_ids, ev.profile
    chosen = {(class_ids[p - 1], profile[p - 1]) for p in players}
    choice = [(pos, br) for pos, br in ev.moving_groups()
              if (class_ids[pos], profile[pos]) in chosen]
    groups = {(class_ids[pos], profile[pos]) for pos, _ in choice}
    if sum(1 for group in zip(class_ids, profile) if group in groups) != len(set(players)):
        raise RuleViolation(f"rule {rule.name} chose some but not all of the "
                            "interchangeable players on one strategy")
    return choice


# every shipped stateless rule, and the baseline
STATELESS_RULES = SHIPPED_LOCAL_RULES + (LowestIdRule,)


def group_choices(game, profile):
    """Per stateless rule that accepts `game`: its `_choose_groups` at
    `profile`, the default route's and the reference's, each on a fresh
    evaluation."""
    out = {}
    for factory in STATELESS_RULES:
        rule = factory()
        if not rule.accepts(game):
            continue
        ev = Evaluation(game, profile)
        default = Evaluation(game, profile)
        out[rule.name] = (rule._choose_groups(ev, ev.moving_groups()),
                          DeviatorRule._choose_groups(rule, default, default.moving_groups()),
                          reference_choose_groups(rule, game.evaluate(profile)))
    return out


@st.composite
def clone_games(draw):
    """Unit and weighted players on 2-4 parallel links of cost 1, 2 or 4:
    clones share strategies and tied groups are common."""
    costs = draw(st.lists(st.sampled_from((1, 2, 4)), min_size=2, max_size=4))
    weights = draw(st.lists(st.sampled_from((F(1), F(1), F(2))), min_size=2, max_size=5))
    game = NetworkFormationGame(parallel_network(costs), [PlayerSpec(0, 1, w) for w in weights])
    profile = tuple(draw(st.integers(0, len(costs) - 1)) for _ in weights)
    return game, profile


class TestGroupChoice:
    """The searches ask a stateless rule once per canonical profile, over
    its moving groups; `LocalRule` scores each group's first position and
    `LowestIdRule` takes every group.  Both must give the groups, in the
    same order, that the checked player choice maps onto."""

    def test_matches_the_player_choice_on_every_pool(self):
        checked, several = {}, 0
        for game, p0 in differential_pool(seed=24, rounds=40):
            profile = p0
            for _ in range(6):
                for name, (groups, default, reference) in group_choices(game, profile).items():
                    assert groups == default == reference, (name, game, profile)
                    checked[name] = checked.get(name, 0) + 1
                    several += len(groups) > 1
                ev = game.evaluate(profile)
                suboptimal = game.suboptimal_players(ev)
                if not suboptimal:
                    break
                mover = suboptimal[-1]
                profile = game.with_choice(profile, mover, game.canonical_br_pick(ev, mover))
        assert set(checked) == {f().name for f in STATELESS_RULES}
        assert min(checked.values()) >= 100 and several >= 100, (checked, several)

    @given(clone_games())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_player_choice_on_clone_games(self, drawn):
        game, profile = drawn
        for name, (groups, default, reference) in group_choices(game, profile).items():
            assert groups == default == reference, name

    def test_an_equilibrium_has_no_choice(self):
        fx = fig2_maxcost()
        terminal = run_brd(fx.game, fx.initial, max_cost()).terminal
        choices = group_choices(fx.game, terminal)
        assert choices and all(c == ([], [], []) for c in choices.values())
