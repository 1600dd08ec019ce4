"""Dynamics engine: runs, traces, scripted replays, reachability, locality."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from brdlab.engine import (
    EngineError,
    LowestIdRule,
    RuleViolation,
    ScriptError,
    StateBudgetExceeded,
    StepBudgetExceeded,
    check_iip,
    reachable_by_rule,
    run_brd,
    run_scripted,
    state_vector,
)
from brdlab.networks import NetworkFormationGame, NfgStateVector, PlayerSpec
from brdlab.rules import max_cost, min_path, random_rule, round_robin
from brdlab.scheduling import SchedStateVector
from brdlab.serde import verify_trace
from helpers import parallel_network, random_profile, random_symmetric_game


def crowd_game(n=5, eps=F(1, 100)):
    net = parallel_network([1, F(1, n), 1 - eps])
    game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * n)
    p0 = game.profile_from_strategies([(1,)] + [(3,)] * (n - 1))
    return game, p0


class TestRunBrd:
    def test_equilibrium_start_gives_empty_trace(self):
        net = parallel_network(["5"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 2)
        p0 = game.profile_from_strategies([(1,), (1,)])
        trace = run_brd(game, p0, LowestIdRule())
        assert trace.moves == () and trace.terminal_is_ne

    def test_moves_strictly_improve_and_replay(self):
        rng = random.Random(3)
        for _ in range(25):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            trace = run_brd(game, p0, LowestIdRule())
            assert trace.terminal_is_ne
            for m in trace.moves:
                assert m.cost_after < m.cost_before
            verify_trace(game, trace)

    def test_potential_strictly_decreases(self):
        rng = random.Random(7)
        for _ in range(15):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            trace = run_brd(game, p0, max_cost())
            phi = game.rosenthal_potential(p0)
            profile = p0
            for m in trace.moves:
                idx = game.strategy_space(m.player).index(m.new_strategy)
                profile = profile.with_choice(game, m.player, idx)
                nxt = game.rosenthal_potential(profile)
                assert nxt < phi
                assert phi - nxt == m.cost_before - m.cost_after
                phi = nxt

    def test_step_budget(self):
        game, p0 = crowd_game()
        with pytest.raises(StepBudgetExceeded):
            run_brd(game, p0, LowestIdRule(), max_steps=1)

    def test_rule_violation_detected(self):
        class Bogus(LowestIdRule):
            def choose(self, game, profile, suboptimal, vectors):
                return (99,)

        class Mute(LowestIdRule):
            def choose(self, game, profile, suboptimal, vectors):
                return ()

        game, p0 = crowd_game()
        with pytest.raises(RuleViolation):
            run_brd(game, p0, Bogus())
        with pytest.raises(RuleViolation):
            run_brd(game, p0, Mute())


class TestRunScripted:
    def test_forced_non_best_response_rejected(self):
        game, p0 = crowd_game()
        with pytest.raises(ScriptError):
            run_scripted(game, p0, [(1, (2,))])  # top player's BR is bottom

    def test_indifferent_entry_skipped(self):
        net = parallel_network(["2", "2"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)])
        p0 = game.profile_from_strategies([(1,)])
        trace = run_scripted(game, p0, [(1, (2,))])
        assert trace.moves == ()

    def test_continuation_reaches_equilibrium(self):
        game, p0 = crowd_game()
        trace = run_scripted(game, p0, [(2, (2,))], continue_rule=LowestIdRule())
        assert trace.terminal_is_ne
        assert game.social_cost(trace.terminal) == F(1, 5)


class TestReachableByRule:
    def test_deterministic_rule_matches_run(self):
        game, p0 = crowd_game()
        rr = reachable_by_rule(game, p0, max_cost())
        run = run_brd(game, p0, max_cost())
        assert rr.terminals == (run.terminal,)
        witness = rr.witness(game, run.terminal)
        verify_trace(game, witness)

    def test_branches_over_br_ties(self):
        net = parallel_network(["2", "4", "4"])
        game = NetworkFormationGame(net, [PlayerSpec(0, 1)] * 2)
        p0 = game.profile_from_strategies([(2,), (3,)])
        # player 1 ties between the cheap edge and joining player 2; the
        # branches settle at social cost 2 and 4 respectively
        rr = reachable_by_rule(game, p0, LowestIdRule())
        costs = sorted(game.social_cost(t) for t in rr.terminals)
        assert costs == [2, 4]
        for terminal in rr.terminals:
            witness = rr.witness(game, terminal)
            verify_trace(game, witness)
            assert witness.initial == p0 and witness.terminal == terminal
        # a run keeps only the lex-smallest branch
        run = run_brd(game, p0, LowestIdRule())
        assert game.social_cost(run.terminal) == 2

    def test_stateful_rule_rejected(self):
        game, p0 = crowd_game()
        with pytest.raises(EngineError):
            reachable_by_rule(game, p0, round_robin())

    def test_state_budget(self):
        game, p0 = crowd_game()
        with pytest.raises(StateBudgetExceeded):
            reachable_by_rule(game, p0, LowestIdRule(), state_limit=1)


class TestStatefulRules:
    def test_round_robin_cycles(self):
        game, p0 = crowd_game()
        trace = run_brd(game, p0, round_robin())
        assert trace.terminal_is_ne
        order = trace.deviator_order()
        assert order == tuple(sorted(order))  # one sweep suffices here

    def test_random_rule_replays_deterministically(self):
        game, p0 = crowd_game()
        a = run_brd(game, p0, random_rule(seed=42))
        b = run_brd(game, p0, random_rule(seed=42))
        assert a == b


class TestCheckIip:
    @staticmethod
    def _vectors(rng, count):
        out = []
        for _ in range(count):
            br = F(rng.randint(1, 50), rng.randint(1, 4))
            cur = br + F(rng.randint(0, 50), rng.randint(1, 4))
            out.append(
                NfgStateVector(cur, cur + rng.randint(0, 10), br, br + rng.randint(0, 10))
            )
        return out

    def test_preorder_rules_are_clean(self):
        rng = random.Random(11)
        profiles = [self._vectors(rng, rng.randint(2, 6)) for _ in range(300)]
        for rule in (max_cost(), min_path()):
            chooser = rule.vector_chooser(game=None)
            assert check_iip(chooser, profiles) == []

    def test_second_highest_rule_violates(self):
        def second_highest(vectors):
            ranked = sorted(range(len(vectors)), key=lambda i: vectors[i].current_cost)
            return (ranked[-2],)

        def vec(c):
            return NfgStateVector(F(c), F(c), F(0), F(0))

        profiles = [[vec(10), vec(5)], [vec(10), vec(5), vec(20)]]
        violations = check_iip(second_highest, profiles)
        assert violations
        flipped = {(v.preferred.current_cost, v.rejected.current_cost) for v in violations}
        assert (F(10), F(5)) in flipped or (F(5), F(10)) in flipped


class TestStateVectors:
    def test_dispatch(self):
        game, p0 = crowd_game()
        assert isinstance(state_vector(game, p0, 1), NfgStateVector)
        from brdlab.scheduling import SchedulingGame

        sg = SchedulingGame(2, [1, 1])
        sp = sg.profile_from_strategies([(1,), (1,)])
        assert isinstance(state_vector(sg, sp, 1), SchedStateVector)
