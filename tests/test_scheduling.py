"""Scheduling games: cost structure, stay-active analysis, the optimal rule."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brdlab.core import Evaluation, Game, UnsupportedModelError
from brdlab.engine import run_brd, state_vectors
from brdlab.fixtures import appB_coco, fig9_sched_pair
from brdlab.oracle import reachable_ne, rule_inefficiency
from brdlab.rules import RULES, make_rule
from brdlab.scheduling import (
    SchedulingError,
    SchedulingGame,
    l_star,
    max_active_machines,
    s_opt_choose,
    stays_active,
)


class TestLStar:
    def test_perfect_square(self):
        assert l_star(4) == 2

    def test_tie_prefers_lower(self):
        assert l_star(6) == 2  # c(2) = c(3) = 5

    def test_between(self):
        assert l_star(10) == 3  # 19/3 < 13/2

    def test_tiny_activation(self):
        assert l_star(F(1, 2)) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(SchedulingError):
            l_star(0)

    @given(num=st.integers(1, 4000), den=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_minimizes_over_all_integer_loads(self, num, den):
        b = F(num, den)
        star = l_star(b)
        best = star + b / star
        for load in range(1, 70):
            assert best <= load + b / load
            if load < star and load + b / load == best:
                pytest.fail("tie must resolve to the lower load")


class TestStaysActive:
    def test_top_machine_always(self):
        assert stays_active([1, 5], 2, 6, 12)

    def test_appendix_instance(self):
        assert stays_active([3, 3, 3, 27], 1, 36, 27)  # 33/3 > 27/4

    def test_doomed_machine(self):
        assert not stays_active([1, 5], 1, 6, 12)  # 5 > 6 fails

    def test_rejects_unsorted(self):
        with pytest.raises(SchedulingError):
            stays_active([5, 1], 1, 6, 12)


def coco(m, loads, b):
    n = sum(loads)
    game = SchedulingGame(m, [F(1)] * n, activation_cost=b)
    assign = []
    for machine, load in enumerate(loads, start=1):
        assign += [(machine,)] * load
    return game, game.profile_from_strategies(assign)


class TestMaxActive:
    def test_appendix_instance(self):
        game, p0 = coco(4, [3, 3, 3, 27], 27)
        assert max_active_machines(game, p0) == 4

    def test_single_machine(self):
        game, p0 = coco(1, [5], 9)
        assert max_active_machines(game, p0) == 1

    def test_doomed_low_machine(self):
        game, p0 = coco(2, [1, 5], 12)
        assert max_active_machines(game, p0) == 1

    def test_high_machine_survives_despite_formula(self):
        # loads (2, 2) with B = 6: both machines sit at l* and the profile
        # is already an equilibrium, though the stay-active inequality is
        # tight rather than strict
        game, p0 = coco(2, [2, 2], 6)
        assert game.is_nash(p0)
        assert max_active_machines(game, p0) == 2

    def test_linear_model_rejected(self):
        game = SchedulingGame(2, [1, 2])
        p0 = game.profile_from_strategies([(1,), (2,)])
        with pytest.raises(UnsupportedModelError):
            max_active_machines(game, p0)


class TestSOptChoose:
    def test_overloaded_machine_first(self):
        game, p0 = coco(4, [3, 3, 3, 27], 27)
        assert s_opt_choose(game, p0) == 4

    def test_equilibrium_signals_none(self):
        game, p0 = coco(4, [9, 9, 9, 9], 27)
        assert s_opt_choose(game, p0) is None

    def test_all_low_drains_lowest(self):
        game, p0 = coco(2, [2, 2], 27)
        # c(2) = 15.5 > c(3) = 11: both low, the lowest-index machine moves
        assert s_opt_choose(game, p0) == 1

    def test_model_mismatch(self):
        game = SchedulingGame(2, [1, 1])
        p0 = game.profile_from_strategies([(1,), (2,)])
        with pytest.raises(UnsupportedModelError):
            s_opt_choose(game, p0)


class TestVectorsAndTieBreaks:
    def test_state_vector_fields(self):
        game = SchedulingGame(3, [F(2), F(1)])
        p = game.profile_from_strategies([(1,), (2,)])
        v = game.state_vector(p, 1)
        assert (v.length, v.machine) == (2, 1)
        assert v.loads == (2, 1, 0)
        assert v.sorted_loads == (0, 1, 2)

    def test_unit_job_alone(self):
        game = SchedulingGame(2, [F(1)])
        p = game.profile_from_strategies([(2,)])
        v = game.state_vector(p, 1)
        assert (v.length, v.machine, v.loads) == (1, 2, (0, 1))

    def test_conflicting_pick_joins_highest_index(self):
        game, p0 = coco(4, [3, 3, 3, 27], 27)
        idx = game.canonical_br_pick(p0, 36)  # a job on the load-27 machine
        assert game.strategy_space(36)[idx] == (3,)

    def test_linear_pick_joins_lowest_index(self):
        game = SchedulingGame(3, [F(3), F(1)])
        p = game.profile_from_strategies([(1,), (1,)])
        idx = game.canonical_br_pick(p, 2)
        assert game.strategy_space(2)[idx] == (2,)


class TestMigrationConvention:
    def test_joins_highest_index_among_tied_loads(self):
        # along engine traces in the conflicting model, a migrant's target
        # carries the highest index among best-response machines of its load
        import random

        from brdlab.engine import LowestIdRule, run_brd
        from helpers import random_coco_game

        rng = random.Random(97)
        checked = 0
        for _ in range(25):
            game, p0 = random_coco_game(rng, max_n=14, max_m=5)
            profile = p0
            trace = run_brd(game, p0, LowestIdRule())
            for move in trace.moves:
                br = game.best_response(profile, move.player)
                loads = game.loads(profile)
                target = move.new_strategy[0]
                same_load = [
                    game.strategy_space(move.player)[idx][0]
                    for idx in br
                    if loads[game.strategy_space(move.player)[idx][0] - 1]
                    == loads[target - 1]
                ]
                assert target == max(same_load)
                idx = game.strategy_space(move.player).index(move.new_strategy)
                profile = game.with_choice(profile, move.player, idx)
                checked += 1
        assert checked > 40


class TestCostShape:
    def test_decreasing_then_increasing_around_root(self):
        rng = random.Random(41)
        for _ in range(20):
            b = F(rng.randint(2, 400), rng.randint(1, 4))
            game = SchedulingGame(1, [1], activation_cost=b)
            samples = sorted(
                {F(rng.randint(1, 800), rng.randint(1, 8)) for _ in range(30)}
            )
            below = [x for x in samples if x * x < b]
            above = [x for x in samples if x * x > b]
            for a, c in zip(below, below[1:]):
                assert game.job_cost_at_load(a) > game.job_cost_at_load(c)
            for a, c in zip(above, above[1:]):
                assert game.job_cost_at_load(a) < game.job_cost_at_load(c)

    def test_br_is_most_loaded_low_or_least_loaded_high(self):
        rng = random.Random(43)
        from brdlab.scheduling import l_star as ls
        from helpers import random_coco_game

        for _ in range(40):
            game, p0 = random_coco_game(rng, max_n=16, max_m=5)
            star = ls(game.activation_cost)
            loads = game.loads(p0)
            for job in game.players:
                br = game.best_response(p0, job)
                machine = game.machine_of(p0, job)
                others = {
                    m: loads[m - 1] + (0 if m != machine else 0)
                    for m in range(1, game.machine_count + 1)
                }
                others[machine] -= 1
                low = [m for m, l in others.items() if 0 < l < star and m != machine]
                high = [m for m, l in others.items() if l >= star and m != machine]
                allowed = set()
                if low:
                    top_low = max(l for m, l in others.items() if m in low)
                    allowed |= {m for m in low if others[m] == top_low}
                if high:
                    bottom_high = min(l for m, l in others.items() if m in high)
                    allowed |= {m for m in high if others[m] == bottom_high}
                allowed.add(machine)  # staying put
                empties = {m for m, l in others.items() if l == 0}
                for idx in br:
                    target = game.strategy_space(job)[idx][0]
                    assert target in allowed | empties


class TestMachineGuard:
    def test_machine_count_shares_the_strategy_cap(self):
        from brdlab.core import STRATEGY_CAP

        assert SchedulingGame(STRATEGY_CAP, [1, 1]).machine_count == STRATEGY_CAP
        with pytest.raises(SchedulingError):
            SchedulingGame(STRATEGY_CAP + 1, [1, 1])
        with pytest.raises(SchedulingError):
            SchedulingGame(1_000_000_000, [1])


def _cell_verdict(game: SchedulingGame, profile) -> tuple[int, ...]:
    """The default verdict: each job's cell in a fresh evaluation."""
    ev = Evaluation(game, profile)
    return tuple(i for i in game.players if profile[i - 1] not in ev.cell(i - 1).br)


def tie_heavy_linear_pool(seed: int, rounds: int = 400):
    """Linear games on 1-5 machines with small lengths, so that a job's
    load on another machine often equals her own (L_j + w == L_a), and
    profiles drawn over a subset of the machines, so that some stay empty."""
    rng = random.Random(seed)
    for _ in range(rounds):
        m = rng.randint(1, 5)
        lengths = [rng.choice((1, 1, 2, 3, F(1, 2), F(3, 2))) for _ in range(rng.randint(1, 9))]
        game = SchedulingGame(m, lengths)
        used = rng.sample(range(m), rng.randint(1, m))
        yield game, tuple(rng.choice(used) for _ in lengths)


class TestLinearVerdict:
    def test_loads_decide_as_the_cells_do_under_ties(self):
        ties = single = empty = suboptimal = 0
        for game, p in tie_heavy_linear_pool(seed=191):
            ev = game.evaluate(p)
            sub = game.suboptimal_players(ev)
            assert not ev._cells  # decided from the loads alone
            assert sub == _cell_verdict(game, p)
            loads = game.loads(ev)
            for player in game.players:
                own = game.machine_of(p, player)
                others = [x for j, x in enumerate(loads, 1) if j != own]
                if others and min(others) + game.weight(player) == loads[own - 1]:
                    ties += 1
            single += game.machine_count == 1
            empty += 0 in loads
            suboptimal += bool(sub)
        assert ties > 100 and single > 30 and empty > 100 and suboptimal > 100

    def test_load_keys_rank_as_the_vector_keys_do_under_ties(self):
        """max-cost and max-improvement score a linear game's jobs from the
        loads alone: each job's key is its vector key in the load unit, and
        peeling off each choice set in turn gives the vector keys' preorder
        over the suboptimal jobs, ties included."""
        rules = ("max-cost", "max-improvement")
        tied = dict.fromkeys(rules, 0)
        for game, p in tie_heavy_linear_pool(seed=195):
            ev = game.evaluate(p)
            suboptimal = game.suboptimal_players(ev)
            if not suboptimal:
                continue
            vectors = state_vectors(game, ev, suboptimal)
            for name in rules:
                rule = make_rule(name)
                key, vector_key = rule._cell_key(game)(ev), rule._key_builder(game)
                for i in suboptimal:
                    assert key(i - 1) == vector_key(vectors[i]) * game._load_unit
                by_vectors = rule.vector_chooser(game)
                rest = suboptimal
                while rest:
                    chosen = rule.choose(ev, rest)
                    picks = by_vectors([vectors[i] for i in rest])
                    assert chosen == tuple(rest[k] for k in picks), (name, game, p)
                    tied[name] += 1 < len(chosen) < len(rest)
                    rest = tuple(i for i in rest if i not in chosen)
            assert not ev._cells  # scored from the loads alone
        assert min(tied.values()) > 50, tied

    def test_every_step_of_a_linear_run_decides_as_the_cells_do(self, monkeypatch):
        decide, child = SchedulingGame._suboptimal, Evaluation.child
        derived = []

        def checked(game, ev):
            sub = decide(game, ev)
            assert sub == _cell_verdict(game, ev.profile)
            assert ev.loads == Evaluation(game, ev.profile).loads
            derived.append(getattr(ev, "is_child", False))
            return sub

        def marked_child(ev, pos, idx):
            kid = child(ev, pos, idx)
            kid.is_child = True
            return kid

        monkeypatch.setattr(SchedulingGame, "_suboptimal", checked)
        monkeypatch.setattr(Evaluation, "child", marked_child)
        rng = random.Random(192)
        ran = set()
        for _ in range(30):
            m = rng.randint(1, 8)
            lengths = [rng.choice((1, 1, 2, 3, F(1, 2), F(7, 3)))
                       for _ in range(rng.randint(1, 25))]
            game = SchedulingGame(m, lengths)
            # jobs start on at most half the machines, so runs are long
            p0 = tuple(rng.randrange((m + 1) // 2) for _ in lengths)
            for name in RULES:
                rule = make_rule(name, seed=rng.randrange(1000))
                if rule.accepts(game):
                    ran.add(name)
                    assert run_brd(game, p0, rule).terminal_is_ne
        assert ran == {"max-cost", "max-improvement", "longest-job", "round-robin", "random"}
        assert sum(derived) > 500

    def test_children_that_empty_a_machine_decide_as_the_cells_do(self):
        # a best-response move never empties a linear machine: a job alone
        # already pays the least she can pay anywhere.  Arbitrary moves do,
        # and their children drop the emptied machine's load
        rng = random.Random(193)
        emptied = 0
        for game, p in tie_heavy_linear_pool(seed=194, rounds=100):
            ev = game.evaluate(p)
            for _ in range(10):
                pos, idx = rng.randrange(game.n), rng.randrange(game.machine_count)
                child = ev.child(pos, idx)
                emptied += len(child.loads) < len(ev.loads)
                ev = child
                assert game.suboptimal_players(ev) == _cell_verdict(game, ev.profile)
                assert not ev._cells
        assert emptied > 50


def tie_heavy_coco_pool(seed: int, rounds: int = 300):
    """Conflicting games on 1-6 machines, half with an integer B, where
    c(x) = c(y) whenever x * y = B, and half with a half-integer B, and
    profiles drawn over a subset of the machines, so that some stay empty."""
    rng = random.Random(seed)
    for _ in range(rounds):
        m = rng.randint(1, 6)
        b = F(rng.randint(1, 30)) if rng.random() < 0.5 else F(2 * rng.randint(1, 30) + 1, 2)
        game = SchedulingGame(m, [1] * rng.randint(1, 14), activation_cost=b)
        used = rng.sample(range(m), rng.randint(1, m))
        yield game, tuple(rng.choice(used) for _ in range(game.n))


def _cell_groups(game: SchedulingGame, profile):
    """The default verdict's moving groups, from the cells of a fresh
    evaluation."""
    return Game._moving_groups(game, Evaluation(game, profile))


def _join_cost(game: SchedulingGame, loads, machine: int) -> F:
    """What one more unit job would pay on the machine."""
    return game.job_cost_at_load(loads[machine - 1] + 1)


class TestMovingGroups:
    """`SchedulingGame._moving_groups` decides from the loads what the cell
    verdict decides: the same groups, best responses and order."""

    def test_groups_equal_the_cell_groups_under_ties(self):
        # own_least: a unit job leaves a machine whose join cost is least
        counts = dict.fromkeys(("single", "empty", "tied", "own_least", "moving"), 0)
        pools = [tie_heavy_linear_pool(seed=196), tie_heavy_coco_pool(seed=197)]
        for game, p in (item for pool in pools for item in pool):
            ev = Evaluation(game, p)
            groups = game._moving_groups(ev)
            assert not ev._cells  # decided from the loads alone
            assert groups == _cell_groups(game, p), (game.activation_cost, p)
            assert game.suboptimal_players(ev) == Game._suboptimal(game, Evaluation(game, p))
            loads = game.loads(ev)
            for pos, br in groups:
                counts["own_least"] += game.is_conflicting and (
                    _join_cost(game, loads, p[pos] + 1) <= _join_cost(game, loads, br[0] + 1))
                counts["tied"] += len(br) > 1
            counts["single"] += game.machine_count == 1
            counts["empty"] += 0 in loads
            counts["moving"] += bool(groups)
        assert min(counts.values()) > 20, counts

    def test_suboptimal_jobs_ignore_memoized_groups(self):
        # with the groups memoized, as the searches leave them, the jobs are
        # the same
        pools = [tie_heavy_linear_pool(seed=196), tie_heavy_coco_pool(seed=197)]
        items = [item for pool in pools for item in pool]
        fresh = [game.suboptimal_players(Evaluation(game, p)) for game, p in items]
        memoized = []
        for game, p in items:
            ev = Evaluation(game, p)
            ev.moving_groups()
            memoized.append(game.suboptimal_players(ev))
        assert memoized == fresh
        assert sum(map(bool, fresh)) > 20

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 30), st.booleans(),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_coco_groups_equal_the_cell_groups(self, m, b, half, machines):
        game = SchedulingGame(m, [1] * len(machines),
                              activation_cost=F(2 * b + 1, 2) if half else F(b))
        p = tuple(x % m for x in machines)
        ev = Evaluation(game, p)
        assert list(ev.loads.items()) == list(Game._full_loads(game, p).items())
        assert game._moving_groups(ev) == _cell_groups(game, p)
        assert game._social_units(ev) == Game._social_units(game, Evaluation(game, p))
        assert not ev._cells

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2),
                                                 st.integers(0, 5)), min_size=1, max_size=12))
    def test_linear_groups_equal_the_cell_groups(self, m, jobs):
        # lengths over a few values, so that jobs share classes and loads tie
        game = SchedulingGame(m, [F(num, den) for num, den, _ in jobs])
        p = tuple(x % m for _, _, x in jobs)
        ev = Evaluation(game, p)
        assert list(ev.loads.items()) == list(Game._full_loads(game, p).items())
        assert game._moving_groups(ev) == _cell_groups(game, p)
        assert game._social_units(ev) == Game._social_units(game, Evaluation(game, p))
        assert not ev._cells

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 4), st.booleans(),
           st.lists(st.integers(0, 5), min_size=1, max_size=20))
    @example(1, 5, 2, False, [0, 3, 1])
    @example(4, 7, 3, True, [2, 0, 1, 3])
    def test_equal_length_linear_groups_equal_the_cell_groups(self, m, num, den, stacked, machines):
        # one length per game makes one class, decided from machine counts;
        # `stacked` puts every job on the first job's machine
        game = SchedulingGame(m, [F(num, den)] * len(machines))
        p = tuple((machines[0] if stacked else x) % m for x in machines)
        ev = Evaluation(game, p)
        assert list(ev.loads.items()) == list(Game._full_loads(game, p).items())
        assert game._moving_groups(ev) == _cell_groups(game, p)
        assert game._social_units(ev) == Game._social_units(game, Evaluation(game, p))
        assert game.suboptimal_players(ev) == Game._suboptimal(game, Evaluation(game, p))
        assert not ev._cells
        # a walk's child patches its parent's loads, so their order need not
        # be the order of the machines' first jobs
        child = ev.child(0, (p[0] + 1) % m)
        assert child.moving_groups() == _cell_groups(game, child.profile)

    def test_job_costs_are_kept_on_demand(self):
        # at 20,000 unit jobs the cost unit has about 28,800 bits, so a
        # table of c(L) for every load 0..n + 1 would take about 72 MB;
        # building the game and deciding its first profile stays under 8 MB
        n = 20_000
        tracemalloc.start()
        try:
            game = SchedulingGame(3, [1] * n, activation_cost=27)
            p = (0,) * (n // 2) + (1,) * (n // 4) + (2,) * (n // 4)
            groups = Evaluation(game, p).moving_groups()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        # the loaded machine's jobs join either light one
        assert groups == _cell_groups(game, p) == [(0, (1, 2))]

    def test_a_walk_keeps_few_job_costs(self):
        # a walk from every job on one machine reads c(L) at about two new
        # loads a step, about 14 MB over 2,000 steps at 20,000 unit jobs if
        # every cost were kept
        n = 20_000
        game = SchedulingGame(3, [1] * n, activation_cost=27)
        ev = Evaluation(game, (0,) * n)
        tracemalloc.start()
        try:
            for _ in range(2_000):
                pos, br = ev.moving_groups()[0]
                ev = ev.child(pos, br[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert sum(ev.loads.values()) == n and ev.loads[1] < n - 1_900
        assert ev.moving_groups() == _cell_groups(game, ev.profile)

    def test_coco_jobs_leave_at_a_gap_of_one_cost_unit(self):
        # B = 1: staying on a load of 2 costs 5/2 against c(1) = 2, a gap of
        # one cost unit, the same number as a unit job's load weight
        game = SchedulingGame(2, [1, 1], activation_cost=1)
        ev = Evaluation(game, (0, 0))
        assert game._load_verdict(ev)[0] == [(0, 1)]
        assert game.suboptimal_players(ev) == Game._suboptimal(game, Evaluation(game, (0, 0)))
        assert game.suboptimal_players(ev) == (1, 2)


def _through_cells(monkeypatch):
    """Send scheduling games down the default cell-based verdict."""
    monkeypatch.setattr(SchedulingGame, "_moving_groups", Game._moving_groups)
    monkeypatch.setattr(SchedulingGame, "_suboptimal", Game._suboptimal)
    monkeypatch.setattr(SchedulingGame, "_social_units", Game._social_units)


def _searched(game, p0):
    reach = reachable_ne(game, p0)
    witnesses = [reach.witness(target) for target in reach.ne_profiles]
    return reach._parents, reach.ne_profiles, reach.social_costs, reach.stats, witnesses


class TestSearchesThroughBothVerdicts:
    """The oracle's searches visit, link and witness the same states
    whether the loads or the cells decide."""

    def _instances(self, max_n: int = 10):
        fa, fb = fig9_sched_pair()
        fixtures = [(spec.game, spec.initial) for spec in (fa, fb, appB_coco())]
        pools = [*tie_heavy_linear_pool(seed=198, rounds=60),
                 *tie_heavy_coco_pool(seed=199, rounds=60)]
        return fixtures + [(game, p) for game, p in pools if game.n <= max_n]

    def test_reachable_ne_is_the_same(self, monkeypatch):
        instances = self._instances()
        kernel = [_searched(game, p0) for game, p0 in instances]
        _through_cells(monkeypatch)
        cells = [_searched(game, p0) for game, p0 in instances]
        assert kernel == cells
        assert sum(len(parents) > 20 for parents, *_ in kernel) > 15

    def test_rule_inefficiency_is_the_same(self, monkeypatch):
        instances = [(game, p0, name) for game, p0 in self._instances(max_n=6)
                     for name in ("s-opt", "max-cost", "longest-job")
                     if make_rule(name).accepts(game)]
        kernel = [rule_inefficiency(game, p0, make_rule(name)) for game, p0, name in instances]
        _through_cells(monkeypatch)
        cells = [rule_inefficiency(game, p0, make_rule(name)) for game, p0, name in instances]
        assert kernel == cells
        assert {name for *_, name in instances} == {"s-opt", "max-cost", "longest-job"}

    def test_the_oracle_builds_no_cell(self, monkeypatch):
        def refused(ev, key):
            raise AssertionError("a cell was built")

        instances = self._instances()
        monkeypatch.setattr(Evaluation, "_fill", refused)
        for game, p0 in instances:
            reach = reachable_ne(game, p0)
            assert all(game.is_nash(profile) for profile in reach.ne_profiles)
