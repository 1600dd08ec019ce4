"""Dynamics engine: runs, traces, scripted replays, reachability, locality."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import pytest

from brdlab.core import STRATEGY_CAP, InvalidProfileError, Profile
from brdlab.engine import (
    CycleDetected,
    EngineError,
    LowestIdRule,
    RuleViolation,
    ScriptError,
    StateBudgetExceeded,
    StepBudgetExceeded,
    _apply_move,
    check_iip,
    parent_search,
    profile_digest,
    reachable_by_rule,
    run_brd,
    fold,
    run_scripted,
)
from brdlab.fixtures import fig2_maxcost
from brdlab.networks import NetworkFormationGame, NfgStateVector, PlayerSpec
from brdlab.oracle import _span
from brdlab.rules import max_cost, min_path, random_rule, round_robin
from brdlab.scheduling import SchedStateVector, SchedulingGame
from brdlab.serde import verify_trace
from helpers import MatchingPennies, parallel_network, random_profile, random_symmetric_game


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
                profile = game.with_choice(profile, m.player, idx)
                nxt = game.rosenthal_potential(profile)
                assert nxt < phi
                assert phi - nxt == m.cost_before - m.cost_after
                phi = nxt

    def test_step_budget(self):
        game, p0 = crowd_game()  # one move from an equilibrium
        with pytest.raises(StepBudgetExceeded):
            run_brd(game, p0, LowestIdRule(), max_steps=0)

    def test_step_budget_counts_moves(self):
        rng = random.Random(11)
        for _ in range(15):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            trace = run_brd(game, p0, LowestIdRule())
            # a run whose last allowed move lands on an equilibrium returns
            assert run_brd(game, p0, LowestIdRule(), max_steps=len(trace.moves)) == trace
            assert run_brd(game, trace.terminal, LowestIdRule(), max_steps=0).moves == ()
            if trace.moves:
                with pytest.raises(StepBudgetExceeded):
                    run_brd(game, p0, LowestIdRule(), max_steps=len(trace.moves) - 1)

    def test_rule_violation_detected(self):
        class Bogus(LowestIdRule):
            def choose(self, ev, suboptimal):
                return (99,)

        class Mute(LowestIdRule):
            def choose(self, ev, suboptimal):
                return ()

        game, p0 = crowd_game()
        with pytest.raises(RuleViolation):
            run_brd(game, p0, Bogus())
        with pytest.raises(RuleViolation):
            run_brd(game, p0, Mute())


class TestApplyMove:
    """`_apply_move` is the one legality check of a move."""

    def lone_player(self, costs):
        game = NetworkFormationGame(parallel_network(costs), [PlayerSpec(0, 1)])
        return game, game.evaluate(game.profile_from_strategies([(1,)]))

    def test_rejects_an_indifferent_mover(self):
        game, ev = self.lone_player(["2", "2"])
        assert game.best_response(ev, 1) == (0, 1)
        with pytest.raises(ScriptError):
            _apply_move(ev, 1, 1, 0)

    def test_rejects_an_improving_move_that_is_not_a_best_response(self):
        game, ev = self.lone_player(["3", "2", "1"])
        with pytest.raises(ScriptError):
            _apply_move(ev, 1, 1, 0)  # 3 -> 2, while her best response costs 1
        after, move = _apply_move(ev, 1, 2, 0)
        assert after.profile == Profile((2,))
        assert (move.old_strategy, move.new_strategy) == ((1,), (3,))
        assert (move.cost_before, move.cost_after) == (3, 1)


def test_profile_digest_is_the_sha1_of_the_decimal_indices():
    rng = random.Random(24)
    for _ in range(300):
        profile = tuple(rng.randrange(rng.choice((3, 40, STRATEGY_CAP)))
                        for _ in range(rng.randint(1, 40)))
        text = ",".join(str(i) for i in profile)
        assert profile_digest(profile) == hashlib.sha1(text.encode()).hexdigest()[:12]


class TestRunScripted:
    def test_forced_non_best_response_rejected(self):
        game, p0 = crowd_game()
        with pytest.raises(ScriptError):
            run_scripted(game, p0, [(1, (2,))])  # top player's BR is bottom

    def test_illegal_entries_rejected(self):
        game = NetworkFormationGame(parallel_network(["2", "2", "3"]), [PlayerSpec(0, 1)])
        p0 = game.profile_from_strategies([(1,)])
        for script in ([(1, None)], [(1, (3,))], [(1, (9,))], [(1, ([1],))], [(1, [[3]])]):
            with pytest.raises(ScriptError):
                run_scripted(game, p0, script)
        with pytest.raises(InvalidProfileError):
            run_scripted(game, p0, [(2, None)])

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

    def test_step_budget_covers_script_and_continuation(self):
        game, p0 = crowd_game()
        trace = run_scripted(game, p0, [(2, (2,))], continue_rule=LowestIdRule())
        assert len(trace.moves) > 1
        assert [m.step for m in trace.moves] == list(range(len(trace.moves)))
        budget = len(trace.moves)
        assert run_scripted(game, p0, [(2, (2,))], LowestIdRule(), max_steps=budget) == trace
        with pytest.raises(StepBudgetExceeded):
            run_scripted(game, p0, [(2, (2,))], LowestIdRule(), max_steps=budget - 1)
        with pytest.raises(StepBudgetExceeded):
            run_scripted(game, p0, [(2, (2,))], max_steps=0)


class TestCycleGuard:
    """Weighted games sit outside the potential guarantee: a revisited
    profile ends a walk with CycleDetected, its step counted from the start
    of the walk."""

    def test_runs_stop_on_the_revisit(self):
        game = MatchingPennies()
        p0 = Profile((0, 0))  # only player 2 is suboptimal; four moves close the cycle
        for rule in (LowestIdRule(), round_robin()):
            with pytest.raises(CycleDetected, match="profile revisited after step 3$"):
                run_brd(game, p0, rule)

    def test_scripted_continuation_stops_on_the_revisit(self):
        game = MatchingPennies()
        with pytest.raises(CycleDetected, match="profile revisited after step 4$"):
            run_scripted(game, Profile((0, 0)), [(2, None)], continue_rule=LowestIdRule())


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

    def test_rule_outside_its_game_class_rejected(self):
        game = SchedulingGame(2, [1, 1])
        p0 = game.profile_from_strategies([(1,), (1,)])
        with pytest.raises(EngineError, match="does not accept"):
            reachable_by_rule(game, p0, min_path())


def search_graph(graph):
    """`parent_search` moves over a plain graph {node: [successor, ...]}."""
    return lambda node: [(0, 0, kid) for kid in graph[node]]


class TestParentSearch:
    def test_agrees_with_plain_reachability_on_random_cyclic_graphs(self):
        rng = random.Random(41)
        for _ in range(200):
            nodes = range(rng.randint(1, 12))
            graph = {v: [w for w in nodes if rng.random() < 0.2] for v in nodes}
            for v in nodes:
                if rng.random() < 0.3:
                    graph[v] = []
            for root in nodes:
                seen, stack = {root}, [root]
                while stack:
                    for w in graph[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                parents, terminals = parent_search(root, search_graph(graph), 100)
                assert set(parents) == seen
                # empty where the root reaches only closed cycles
                assert terminals == tuple(sorted(v for v in seen if not graph[v]))
                for node, link in parents.items():
                    assert (link is None) == (node == root)
                    assert link is None or node in graph[link[0]]

    def test_state_limit(self):
        graph = {"a": "b", "b": "cx", "c": "ad", "d": "y", "x": "", "y": ""}
        assert len(parent_search("a", search_graph(graph), 6)[0]) == 6
        with pytest.raises(StateBudgetExceeded):
            parent_search("a", search_graph(graph), 5)


def terminal_extremes(root, successors, cost, values, state_limit):
    """The oracle's use of the fold: the least and greatest `cost` over the
    terminals `root` reaches."""
    return fold(root, successors, lambda v: (cost(v), cost(v)), _span, values, state_limit)


def reachable(graph, root):
    seen, stack = {root}, [root]
    while stack:
        for w in graph[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class TestFold:
    def test_a_custom_leaf_and_combine(self):
        # the set of terminals reached, by union, with the odd ones left out
        # by a leaf of None
        rng = random.Random(47)
        for _ in range(200):
            nodes = list(range(rng.randint(1, 12)))
            graph = {v: [w for w in nodes if rng.random() < 0.2] for v in nodes}
            for v in nodes:
                if rng.random() < 0.3:
                    graph[v] = []

            def leaf(v):
                return None if v % 2 else frozenset({v})

            values = {}
            for root in rng.sample(nodes, len(nodes)):
                even = frozenset(v for v in reachable(graph, root) if not graph[v] and not v % 2)
                got = fold(root, search_graph(graph), leaf, frozenset.union, values, 100)
                assert got == (even or None)

    def test_a_component_shares_one_value(self):
        # a -> b -> c -> a with exits b -> x and c -> y, and d -> c from outside
        graph = {"a": "b", "b": "cx", "c": "ay", "d": "c", "x": "", "y": ""}
        values = {}
        leaf = {"x": (1,), "y": (2,)}.__getitem__
        assert fold("a", search_graph(graph), leaf, lambda a, b: tuple(sorted({*a, *b})),
                    values, 10) == (1, 2)
        assert values["a"] is values["b"] is values["c"]
        # a later root reads the component's one value
        assert fold("d", search_graph(graph), leaf, None, values, 10) is values["a"]

    def test_the_memo_is_reused_across_roots(self):
        graph = {"a": "bc", "b": "d", "c": "d", "d": "e", "e": "", "f": "ae"}
        opened = []

        def successors(v):
            opened.append(v)
            return search_graph(graph)(v)

        values = {}
        leaf = {"e": 1}.__getitem__
        assert fold("b", successors, leaf, max, values, 10) == 1
        assert opened == ["b", "d", "e"]
        assert fold("f", successors, leaf, max, values, 10) == 1
        assert opened == ["b", "d", "e", "f", "a", "c"]
        # a finished root is read, not opened
        assert fold("a", successors, leaf, max, values, 1) == 1
        assert len(opened) == 6

    def test_the_budget_raises_at_the_exact_count(self):
        # a chain of 50 states, then a diamond of 4
        graph = {i: [i + 1] for i in range(49)}
        graph.update({49: [50, 51], 50: [52], 51: [52], 52: []})
        leaf = {52: 0}.__getitem__
        assert fold(0, search_graph(graph), leaf, max, {}, 53) == 0
        with pytest.raises(StateBudgetExceeded):
            fold(0, search_graph(graph), leaf, max, {}, 52)
        # the budget counts the states one pass opens, not those it reads
        values = {}
        assert fold(40, search_graph(graph), leaf, max, values, 13) == 0
        assert fold(0, search_graph(graph), leaf, max, values, 40) == 0
        with pytest.raises(StateBudgetExceeded):
            fold(0, search_graph(graph), leaf, max, {40: 0}, 39)

    def test_a_long_path_folds_without_recursion(self):
        n = 200_000

        def successors(i):
            return [(0, 0, i + 1)] if i < n else []

        values = {}
        assert fold(0, successors, lambda i: (i, i), _span, values, n + 1) == (n, n)
        assert len(values) == n + 1


class TestTerminalExtremes:
    """The oracle's span, one use of the fold."""

    def test_agrees_with_plain_reachability_on_random_cyclic_graphs(self):
        rng = random.Random(43)
        for _ in range(200):
            nodes = list(range(rng.randint(1, 12)))
            graph = {v: [w for w in nodes if rng.random() < 0.2] for v in nodes}
            for v in nodes:
                if rng.random() < 0.3:
                    graph[v] = []
            cost = {v: rng.randint(1, 5) for v in nodes if not graph[v]}
            opened = []

            def successors(v):
                opened.append(v)
                return search_graph(graph)(v)

            # one memo per graph, shared by every root: a later root may
            # land in a component an earlier one finished
            values = {}
            rng.shuffle(nodes)
            for root in nodes:
                seen, stack = {root}, [root]
                while stack:
                    for w in graph[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                reached = [cost[v] for v in seen if not graph[v]]
                expected = (min(reached), max(reached)) if reached else None
                assert terminal_extremes(root, successors, cost.__getitem__, values, 100) == expected
                assert values[root] == expected
            # every state is opened once, over all the roots together
            assert sorted(opened) == sorted(nodes)

    def test_a_component_shares_its_value(self):
        # a -> b -> c -> a, and b -> x, c -> y: every member reaches both exits
        graph = {"a": "b", "b": "cx", "c": "ay", "x": "", "y": ""}
        values = {}
        cost = {"x": 3, "y": 7}.__getitem__
        assert terminal_extremes("a", search_graph(graph), cost, values, 10) == (3, 7)
        assert values == {"a": (3, 7), "b": (3, 7), "c": (3, 7), "x": (3, 3), "y": (7, 7)}

    def test_closed_cycles_give_none(self):
        graph = {"a": "b", "b": "a", "c": "a"}
        values = {}
        assert terminal_extremes("c", search_graph(graph), None, values, 10) is None
        assert values == {"a": None, "b": None, "c": None}

    def test_state_limit(self):
        graph = {"a": "b", "b": "cx", "c": "ad", "d": "y", "x": "", "y": ""}
        cost = {"x": 1, "y": 2}.__getitem__
        assert terminal_extremes("a", search_graph(graph), cost, {}, 6) == (1, 2)
        with pytest.raises(StateBudgetExceeded):
            terminal_extremes("a", search_graph(graph), cost, {}, 5)
        # the limit counts the states one pass opens, not those it reads:
        # with d and y valued, a's pass opens a, b, c and x
        values = {}
        assert terminal_extremes("d", search_graph(graph), cost, values, 2) == (2, 2)
        assert terminal_extremes("a", search_graph(graph), cost, values, 4) == (1, 2)
        with pytest.raises(StateBudgetExceeded):
            terminal_extremes("a", search_graph(graph), cost, {"d": (2, 2)}, 3)


class TestStatefulRules:
    def test_round_robin_cycles(self):
        game, p0 = crowd_game()
        trace = run_brd(game, p0, round_robin())
        assert trace.terminal_is_ne
        order = trace.deviator_order()
        assert order == tuple(sorted(order))  # one sweep suffices here

    def test_rules_without_vectors_build_none(self, monkeypatch):
        from brdlab.scheduling import SchedulingGame

        def refuse(self, at, player):
            raise AssertionError("a rule that reads no vectors built one")

        monkeypatch.setattr(NetworkFormationGame, "state_vector", refuse)
        monkeypatch.setattr(SchedulingGame, "state_vector", refuse)
        sg = SchedulingGame(3, [1, 2, 3, 1])
        sp = sg.profile_from_strategies([(1,)] * 4)
        for game, p0 in (crowd_game(), (sg, sp)):
            for rule in (round_robin(), random_rule(seed=3), LowestIdRule()):
                assert run_brd(game, p0, rule).terminal_is_ne

    def test_local_rules_build_no_vectors(self, monkeypatch):
        """Runs and searches score local rules from the evaluation's cells:
        with vectors and per-load scheduling costs refused, every shipped
        local rule gives the same traces, equilibrium sets and alphas."""
        from brdlab.oracle import game_inefficiency
        from brdlab.rules import longest_job, max_improvement, s_opt_rule
        from brdlab.scheduling import SchedulingGame

        linear = SchedulingGame(3, [1, 2, 3, 1])
        coco = SchedulingGame(3, [1] * 5, activation_cost=4)
        cases = [
            crowd_game(),
            (linear, linear.profile_from_strategies([(1,)] * 4)),
            (coco, coco.profile_from_strategies([(1,), (1,), (1,), (2,), (3,)])),
        ]
        rules = (max_cost, min_path, max_improvement, longest_job, s_opt_rule)

        def results():
            out = []
            for game, p0 in cases:
                for factory in rules:
                    if factory().accepts(game):
                        reach = reachable_by_rule(game, p0, factory())
                        out.append((
                            run_brd(game, p0, factory()),
                            reach.terminals,
                            reach.visited,
                            game_inefficiency(game, factory()),
                        ))
            return out

        expected = results()
        assert len(expected) == 10

        def refuse(*args):
            raise AssertionError("a local rule built a vector or a per-load cost")

        monkeypatch.setattr(NetworkFormationGame, "state_vector", refuse)
        monkeypatch.setattr(SchedulingGame, "state_vector", refuse)
        monkeypatch.setattr(SchedulingGame, "job_cost_at_load", refuse)
        assert results() == expected

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
            chooser = rule.vector_chooser(fig2_maxcost().game)
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
        assert isinstance(game.state_vector(p0, 1), NfgStateVector)
        from brdlab.scheduling import SchedulingGame

        sg = SchedulingGame(2, [1, 1])
        sp = sg.profile_from_strategies([(1,), (1,)])
        assert isinstance(sg.state_vector(sp, 1), SchedStateVector)
