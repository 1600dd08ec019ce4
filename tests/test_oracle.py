"""Exhaustive oracle: reachable equilibria, witnesses, inefficiency reports."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from brdlab.core import InvalidProfileError, Profile
from brdlab.engine import (
    CycleDetected,
    DeviatorRule,
    EngineError,
    LowestIdRule,
    RuleViolation,
    StateBudgetExceeded,
    reachable_by_rule,
    rule_successors,
    run_brd,
)
from brdlab.fixtures import fig2_maxcost, fig6_weighted_partition, fig7_weighted_local_pair
from brdlab.networks import NetworkFormationGame, PlayerSpec
from brdlab import oracle
from brdlab.oracle import (
    DEFAULT_STATE_LIMIT,
    _Quotient,
    _Searches,
    all_profiles,
    best_reachable,
    game_inefficiency,
    optimal_sequence,
    reachable_ne,
    rule_inefficiency,
)
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
from brdlab.scheduling import SchedulingGame
from brdlab.serde import report_to_doc, dumps, verify_trace
from helpers import (
    EscapablePennies,
    MatchingPennies,
    parallel_network,
    random_coco_game,
    random_linear_game,
    random_profile,
    random_symmetric_game,
    random_weighted_game,
    rand_cost,
)


def brute_force_ne_costs(game, p0):
    """Independent ground truth: breadth-first search over raw profiles,
    no player-class quotient, branching every suboptimal player times every
    best-response member."""
    seen = {p0}
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
                child = game.with_choice(profile, player, idx)
                if child not in seen:
                    seen.add(child)
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

    def test_moves_come_in_the_class_by_class_order(self):
        """The moves out of a profile, order included, are those of a loop
        over each class's first holder of each strategy, reading her cell:
        the order fixes the parent links, the visit counts and the
        witnesses.  Weighted and linear games interleave their classes."""
        rng = random.Random(17)
        interleaved = 0
        for _ in range(150):
            game = rng.choice((random_weighted_game, random_symmetric_game))(rng)
            pools = [(game, random_profile(rng, game)), random_linear_game(rng),
                     random_coco_game(rng, max_n=10, max_m=4)]
            for game, p in pools:
                quotient = _Quotient(game)
                for profile in (p, quotient.canonical(p)):
                    ev = game.evaluate(profile)
                    assert quotient.successors(ev) == reference_successors(quotient, ev)
                ids = game._class_ids
                interleaved += list(ids) != sorted(ids)
        assert interleaved > 50


def reference_successors(quotient, ev):
    """The oracle's moves as a loop over the classes, each strategy's first
    holder in position order, reading each holder's cell."""
    profile, moves = ev.profile, []
    for cls in quotient.classes:
        seen = set()
        for pos in cls:
            idx = profile[pos]
            if idx in seen:
                continue
            seen.add(idx)
            br = ev.cell(pos).br
            if idx not in br:
                for target in br:
                    child = list(profile)
                    child[pos] = target
                    moves.append((pos, target, quotient.canonical(tuple(child))))
    return moves


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

    def test_witness_of_an_unvisited_target_raises(self):
        # both players sharing the cheap edge is an equilibrium: nothing moves
        game = NetworkFormationGame(parallel_network(["3", "4"]), [PlayerSpec(0, 1)] * 2)
        reach = reachable_ne(game, game.profile_from_strategies([(1,), (1,)]))
        with pytest.raises(KeyError):
            reach.witness(game.profile_from_strategies([(2,), (2,)]))


class TestNoReachableEquilibrium:
    """Where best responses cycle and reach no equilibrium, the searches
    raise CycleDetected rather than answer from an empty NE(p0)."""

    def test_reachable_ne_raises(self):
        game = MatchingPennies()
        for p0 in all_profiles(game):
            with pytest.raises(CycleDetected):
                reachable_ne(game, p0)

    def test_inefficiency_raises(self):
        game = MatchingPennies()
        for rule in (LowestIdRule(), round_robin()):
            with pytest.raises(CycleDetected):
                rule_inefficiency(game, Profile((0, 0)), rule)
            with pytest.raises(CycleDetected):
                game_inefficiency(game, rule)


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


# min-path, max-cost and max-improvement are local; lowest-id is stateless
# but its pick is not equivariant under relabeling interchangeable players;
# round-robin carries run state
RULE_FACTORIES = [min_path, max_cost, max_improvement, LowestIdRule, round_robin]


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

    @pytest.mark.parametrize("bad, message", [
        ((0, 0), "length"),
        ((0, 0, 0, 0, 3), "player 5 holds strategy index 3"),
        # the canonical profile would move the index to player 1
        ((0, 0, 0, 0, -1), "player 5 holds strategy index -1"),
    ])
    def test_a_supplied_start_is_validated_as_given(self, bad, message):
        fx = fig2_maxcost()
        with pytest.raises(InvalidProfileError, match=message):
            game_inefficiency(fx.game, max_cost(), [fx.initial, bad])

    def test_state_limit_bounds_the_shared_graph(self):
        fx = fig2_maxcost()
        with pytest.raises(StateBudgetExceeded):
            game_inefficiency(fx.game, max_cost(), state_limit=3)
        # the limit counts the states of all starts together: the oracle's
        # memo holds all 21 canonical profiles of fig2, though no start's own
        # search visits more than 12 states; max-cost's choice there is one
        # group or none, so its pass runs on those 21 too and reads no raw
        # state of the 243 starts
        with pytest.raises(StateBudgetExceeded):
            game_inefficiency(fx.game, max_cost(), state_limit=20)
        assert game_inefficiency(fx.game, max_cost(), state_limit=21) == 5

    def test_empty_profile_source_raises(self):
        fx = fig2_maxcost()
        with pytest.raises(ValueError, match="profile source was empty"):
            game_inefficiency(fx.game, max_cost(), [])

    def test_rejected_rule_raises_before_any_start(self):
        fx = fig2_maxcost()
        for source in ([], None, [fx.initial]):
            with pytest.raises(EngineError, match="does not accept"):
                game_inefficiency(fx.game, s_opt_rule(), source)

    @pytest.mark.parametrize("factory", [LowestIdRule, round_robin], ids=lambda f: f.__name__)
    def test_cycles_that_escape_share_one_value(self, factory, monkeypatch):
        # every start off the two equilibria reaches a best-response cycle
        # with exits to both, which the oracle's pass values as one component;
        # one player at most moves at a time, so lowest-id's canonical pass
        # values it too, and no raw state is read
        read = count_raw_states(monkeypatch)
        game = EscapablePennies()
        profiles = list(all_profiles(game))
        for p0 in profiles:
            assert set(reachable_ne(game, p0).social_costs) <= {3, 5}
        alpha = game_inefficiency(game, factory())
        assert alpha == per_start_alpha(game, factory, profiles) == F(5, 3)
        # a later start reads values an earlier one's pass left, mid-cycle
        # states included, in every order
        for pair in itertools.product(profiles, repeat=2):
            assert game_inefficiency(game, factory(), pair) == per_start_alpha(game, factory, pair)
        assert bool(read) == (factory is round_robin)

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
        choices = list(all_profiles(game))
        assert choices == [(a, b) for a in range(3) for b in range(3)]

    def test_max_cost_starts_are_not_interchangeable(self):
        # costs 4, 2, 2: from (1, 0, 0) max-cost can end at alpha 2, from the
        # equivalent (0, 0, 1) only at alpha 1, and only the latter is searched
        game = NetworkFormationGame(parallel_network([4, 2, 2]), [PlayerSpec(0, 1)] * 3)
        assert rule_inefficiency(game, Profile((1, 0, 0)), max_cost()).alpha == 2
        assert rule_inefficiency(game, Profile((0, 0, 1)), max_cost()).alpha == 1
        assert game_inefficiency(game, max_cost()) == 2

    def test_label_free_starts_read_no_raw_state(self, monkeypatch):
        # generic costs: on parallel links max-cost's most expensive holders
        # sit on one edge, so its choice is one group everywhere
        read = count_raw_states(monkeypatch)
        rng = random.Random(51)
        for _ in range(12):
            costs = [rand_cost(rng) for _ in range(rng.randint(2, 3))]
            game = NetworkFormationGame(parallel_network(costs),
                                        [PlayerSpec(0, 1)] * rng.randint(2, 4))
            profiles = list(all_profiles(game))
            assert game_inefficiency(game, max_cost()) == \
                per_start_alpha(game, max_cost, profiles)
        assert read == []

    def test_labelled_clones_still_read_raw_states(self, monkeypatch):
        # costs 4, 2, 2: the clones on the dear edge and the one on a cheap
        # edge are chosen together from (1, 0, 0), whose canonical (0, 0, 1)
        # moves by label; every relabeling of it is searched raw
        read = count_raw_states(monkeypatch)
        game = NetworkFormationGame(parallel_network([4, 2, 2]), [PlayerSpec(0, 1)] * 3)
        assert game_inefficiency(game, max_cost()) == 2
        assert Profile((1, 0, 0)) in read
        for rule, alpha in ((min_path, 1), (max_improvement, 1)):
            assert game_inefficiency(game, rule()) == alpha == \
                per_start_alpha(game, rule, all_profiles(game))


def count_raw_states(monkeypatch):
    """The raw states whose rule moves the inefficiency searches read, in
    the order they read them."""
    read = []
    rule_moves = _Searches.rule_moves

    def counted(self, profile, keys):
        read.append(profile)
        return rule_moves(self, profile, keys)

    monkeypatch.setattr(_Searches, "rule_moves", counted)
    return read


def symmetric_pool(rng):
    return random_symmetric_game(rng, tie_heavy=rng.random() < 0.5)


def coco_pool(rng):
    return random_coco_game(rng, max_n=6, max_m=3)[0]


def linear_pool(rng):
    """Linear scheduling with 3-6 jobs of lengths 1, 2 or 5/2 on 2-3
    machines: repeated lengths make classes of several jobs."""
    lengths = [rng.choice((F(1), F(2), F(5, 2))) for _ in range(rng.randint(3, 6))]
    return SchedulingGame(rng.randint(2, 3), lengths)


def weighted_pool(rng):
    """Weighted games, whose best responses may cycle."""
    return random_weighted_game(rng)


# every shipped stateless rule on each pool it applies to
LIFT_CASES = [
    (symmetric_pool, min_path), (symmetric_pool, max_cost),
    (symmetric_pool, max_improvement), (symmetric_pool, LowestIdRule),
    (weighted_pool, min_path), (weighted_pool, max_cost),
    (weighted_pool, max_improvement), (weighted_pool, LowestIdRule),
    (coco_pool, s_opt_rule), (coco_pool, max_cost),
    (coco_pool, max_improvement), (coco_pool, LowestIdRule),
    (linear_pool, longest_job), (linear_pool, max_cost), (linear_pool, max_improvement),
]


class TestStatelessChoiceLift:
    """A stateless rule chooses once per canonical profile, and each raw
    profile's moves are read off that choice.  Both inefficiency entry
    points must agree with the raw-profile reference, `reachable_by_rule`,
    which evaluates and asks the rule at every raw profile afresh."""

    @pytest.mark.parametrize("pool, factory", LIFT_CASES,
                             ids=lambda f: f.__name__)
    def test_matches_the_raw_profile_reference(self, pool, factory):
        rng = random.Random(41)
        for _ in range(6):
            game = pool(rng)
            rule = factory()
            searches = _Searches(game, rule, DEFAULT_STATE_LIMIT)
            canonical = searches.quotient.canonical
            for p in [random_profile(rng, game) for _ in range(20)]:
                # the same moves in the same order, so searches visit alike
                moves = rule_successors(game.evaluate(p), rule, branch_all=True)
                assert searches.rule_moves(p, {p: canonical(p)}) == moves
                # where the choice is one group or none, every relabeling
                # moves to the canonical pass's children
                lifted = searches.canonical_rule_moves(canonical(p))
                if len(searches._chosen[canonical(p)]) <= 1:
                    assert [child for _, _, child in lifted] == \
                        [canonical(child) for _, _, child in moves]
                else:
                    assert lifted == ()
            starts = [random_profile(rng, game) for _ in range(6)]
            assert game_inefficiency(game, factory(), starts) == \
                per_start_alpha(game, factory, starts)
            for p0 in starts:
                report = rule_inefficiency(game, p0, factory())
                reach = reachable_by_rule(game, p0, factory())
                costs, terminals = zip(*sorted(zip(map(game.social_cost, reach.terminals),
                                                   reach.terminals)))
                assert report.rule_visited == reach.visited
                assert report.rule_ne_costs == costs
                assert report.rule_witness == reach.witness(game, terminals[-1])

    @pytest.mark.parametrize("factory", [min_path, max_cost, LowestIdRule],
                             ids=lambda f: f.__name__)
    def test_the_rule_is_asked_where_a_raw_search_would_ask_it(self, factory, monkeypatch):
        # the canonical pass stops where the choice hangs on labels, and the
        # raw pass where it does not: together they ask the rule at the
        # canonical profile of every raw state a search of every start visits
        made, init = [], _Searches.__init__

        def recorded(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(_Searches, "__init__", recorded)
        rng = random.Random(53)
        for _ in range(12):
            game = symmetric_pool(rng)
            profiles = list(all_profiles(game))[:120]
            game_inefficiency(game, factory(), profiles)
            canonical = made[-1].quotient.canonical
            asked = {canonical(state) for p0 in profiles
                     for state in reachable_by_rule(game, p0, factory())._parents}
            assert set(made[-1]._chosen) == asked

    @pytest.mark.parametrize("pool, factory", LIFT_CASES,
                             ids=lambda f: f.__name__)
    def test_the_searches_ask_shipped_rules_by_group_only(self, pool, factory, monkeypatch):
        # local rules and the baseline choose among moving groups: neither
        # inefficiency entry point asks them for players
        def refused(self, ev, suboptimal):
            raise AssertionError(f"{self.name}: choose called")

        monkeypatch.setattr(type(factory()), "choose", refused)
        rng, moving = random.Random(67), []
        for _ in range(4):
            game = pool(rng)
            starts = [random_profile(rng, game) for _ in range(4)]
            game_inefficiency(game, factory(), starts)
            for p0 in starts:
                rule_inefficiency(game, p0, factory())
            moving += [(game, p0) for p0 in starts if not game.is_nash(p0)]
        # walks still ask for players
        with pytest.raises(AssertionError, match="choose called"):
            run_brd(*moving[0], factory())

    def test_a_choice_that_splits_clones_on_one_strategy_is_rejected(self):
        class LowestOnly(DeviatorRule):
            """The lowest suboptimal id alone, whatever her clones do."""

            name = "lowest-only"

            def choose(self, ev, suboptimal):
                return (min(suboptimal),)

        # costs 4, 2, 2: players 1 and 2 share the dear edge and are both
        # suboptimal, and the rule chooses player 1 alone
        game = NetworkFormationGame(parallel_network([4, 2, 2]), [PlayerSpec(0, 1)] * 3)
        with pytest.raises(RuleViolation, match="interchangeable"):
            rule_inefficiency(game, Profile((0, 0, 1)), LowestOnly())
        with pytest.raises(RuleViolation, match="interchangeable"):
            game_inefficiency(game, LowestOnly())


def coco_game(rng):
    return random_coco_game(rng, max_n=5, max_m=3)[0]


def tie_heavy_game(rng):
    return random_symmetric_game(rng, tie_heavy=True)


# multi-class (linear scheduling with repeated lengths, weighted networks),
# tie-heavy and identical-job pools
START_POOLS = [linear_pool, weighted_pool, tie_heavy_game, coco_game]
# each shipped rule on each pool whose games it accepts
START_CASES = [(pool, name) for pool in START_POOLS for name in sorted(RULES)
               if make_rule(name).accepts(pool(random.Random(0)))]


class StaysPut(DeviatorRule):
    """Chooses the first moving group, or with `every` each of them, and
    moves it to the strategy it holds: a target outside its best
    responses."""

    name = "stays-put"

    def __init__(self, every: bool) -> None:
        self.every = every

    def choose(self, ev, suboptimal):
        return suboptimal

    def _choose_groups(self, ev, groups):
        return [(pos, (ev.profile[pos],)) for pos, _ in (groups if self.every else groups[:1])]


class TestCanonicalStarts:
    """A stateless rule checks a label-free start once, at the first start
    with its canonical profile, and searches the relabelings of the others."""

    @pytest.mark.parametrize("pool", START_POOLS, ids=lambda f: f.__name__)
    def test_all_profiles_reaches_each_canonical_profile_before_its_relabelings(
            self, pool):
        rng = random.Random(71)
        for _ in range(25):
            game = pool(rng)
            canonical, seen = _Quotient(game).canonical, set()
            for p in all_profiles(game):
                key = canonical(p)
                assert key in seen or key == p
                seen.add(key)

    @pytest.mark.parametrize("factory", RULE_FACTORIES, ids=lambda f: f.__name__)
    def test_the_enumeration_guard_holds_for_every_rule(self, factory):
        # 2^17 profiles, past the guard, but only 18 canonical ones
        game = NetworkFormationGame(parallel_network([1, 2]), [PlayerSpec(0, 1)] * 17)
        with pytest.raises(StateBudgetExceeded, match="100000-profile guard"):
            game_inefficiency(game, factory())

    @pytest.mark.parametrize("pool, name", START_CASES,
                             ids=lambda case: getattr(case, "__name__", case))
    def test_every_shipped_rule_over_every_profile(self, pool, name):
        rng, compared = random.Random(73), 0
        for _ in range(8):
            game = pool(rng)
            profiles = list(all_profiles(game))
            if len(profiles) > 200:
                continue  # the reference searches each start from scratch
            try:
                expected = per_start_alpha(game, lambda: make_rule(name), profiles)
            except CycleDetected:
                with pytest.raises(CycleDetected):
                    game_inefficiency(game, make_rule(name))
                continue
            assert game_inefficiency(game, make_rule(name)) == expected
            compared += 1
        assert compared >= 4

    def test_a_label_free_rule_opens_exactly_the_canonical_starts(self, monkeypatch):
        # generic costs on parallel links: max-cost's choice is one group
        # everywhere, so every start is checked once, at its canonical profile
        read, checked = count_raw_states(monkeypatch), []
        check = oracle._check_envelope
        monkeypatch.setattr(oracle, "_check_envelope",
                            lambda *args: checked.append(args) or check(*args))
        rng = random.Random(75)
        for _ in range(10):
            costs = [rand_cost(rng) for _ in range(rng.randint(2, 4))]
            game = NetworkFormationGame(parallel_network(costs),
                                        [PlayerSpec(0, 1)] * rng.randint(2, 4))
            profiles = list(all_profiles(game))
            keys = set(map(_Quotient(game).canonical, profiles))
            expected = per_start_alpha(game, max_cost, profiles)
            del checked[:]
            assert game_inefficiency(game, max_cost()) == expected
            assert len(checked) == len(keys) < len(profiles)
            # in any order, and however often a start repeats
            del checked[:]
            assert game_inefficiency(game, max_cost(), profiles[::-1] * 2) == expected
            assert len(checked) == len(keys)
        assert read == []

    def test_starts_that_hang_on_labels_open_every_relabeling(self, monkeypatch):
        # costs 4, 2, 2: max-cost's choice hangs on labels from (0, 0, 1),
        # whose three relabelings are searched raw, (0, 0, 1) first
        read = count_raw_states(monkeypatch)
        game = NetworkFormationGame(parallel_network([4, 2, 2]), [PlayerSpec(0, 1)] * 3)
        assert game_inefficiency(game, max_cost()) == 2
        starts = [p for p in read if sorted(p) == [0, 0, 1]]
        assert starts[:1] == [(0, 0, 1)] and set(starts) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_a_target_outside_the_best_responses_raises_in_the_canonical_pass(
            self, monkeypatch):
        # one chosen group, so the canonical pass takes its move, and finds
        # no oracle move with that position and target
        read = count_raw_states(monkeypatch)
        game = NetworkFormationGame(parallel_network([10, 9, 1]), [PlayerSpec(0, 1)] * 3)
        for source in (None, [(0, 1, 2)]):
            with pytest.raises(AssertionError, match="outside NE"):
                game_inefficiency(game, StaysPut(every=False), source)
        assert read == []

    def test_a_target_outside_the_best_responses_raises_in_the_raw_pass(self, monkeypatch):
        # from (0, 1, 2) both crowded edges' holders move, so the canonical
        # pass stops there, and the raw pass lifts the move and checks it
        read = count_raw_states(monkeypatch)
        game = NetworkFormationGame(parallel_network([10, 9, 1]), [PlayerSpec(0, 1)] * 3)
        with pytest.raises(AssertionError, match="outside NE"):
            game_inefficiency(game, StaysPut(every=True), [(0, 1, 2)])
        assert read == [(0, 1, 2)]
        with pytest.raises(AssertionError, match="outside NE"):
            rule_inefficiency(game, (0, 1, 2), StaysPut(every=True))
