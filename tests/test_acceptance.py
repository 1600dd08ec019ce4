"""Acceptance suite: one test per criterion, each printing a pass line.

Exact rational arithmetic throughout; asymptotic statements are checked at
the fixed desk-scale parameters the criteria name.  Where the source
derivations round a value (noted inline), the suite asserts the exact
simulated quantity and additionally pins the quoted approximation to
within the stated epsilon.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from brdlab.engine import (
    LocalRule,
    LowestIdRule,
    check_iip,
    reachable_by_rule,
    run_brd,
)
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
from brdlab.networks import NfgStateVector
from brdlab.oracle import game_inefficiency, reachable_ne, rule_inefficiency
from brdlab.rules import max_cost, max_improvement, min_path, s_opt_rule
from brdlab.scheduling import SchedStateVector, max_active_machines
from brdlab.serde import verify_trace
from helpers import (
    random_coco_game,
    random_profile,
    random_single_source_instance,
    random_proper_instance,
    random_symmetric_game,
)

SHIPPED_LOCAL_NFG_RULES = (max_cost, min_path, max_improvement)


def report_pass(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion:2d}: {message}")


def active_count(game, profile):
    return sum(1 for load in game.loads(profile) if load > 0)


def test_c01_max_cost_inefficiency_on_three_edges():
    fx = fig2_maxcost(n=5, eps=F(1, 100))
    reach = reachable_ne(fx.game, fx.initial)
    assert tuple(sorted(set(reach.social_costs))) == (F(1, 5), F(99, 100))
    report = rule_inefficiency(fx.game, fx.initial, max_cost())
    assert report.alpha == F(99, 20)
    report_pass(1, "max-cost alpha = 99/20 exactly; equilibria {1/5, 99/100}")


def test_c02_min_path_optimal_on_random_symmetric_games():
    rng = random.Random(202)
    games = [random_symmetric_game(rng) for _ in range(200)]
    max_cost_beaten = 0
    for game in games:
        assert game_inefficiency(game, min_path()) == 1
        if game_inefficiency(game, max_cost()) > 1:
            max_cost_beaten += 1
    assert max_cost_beaten >= 1
    report_pass(
        2,
        f"min-path alpha = 1 on 200 symmetric games x all profiles; "
        f"max-cost suboptimal on {max_cost_beaten} of them",
    )


def test_c03_single_source_chain_values():
    fx = fig3_minpath_chain(m=4, eps=F(1, 100))
    game, p0 = fx.game, fx.initial
    rr = reachable_by_rule(game, p0, min_path())
    minpath_costs = {game.social_cost(t) for t in rr.terminals}
    assert minpath_costs == {F(701, 100)}
    reach = reachable_ne(game, p0)
    # the quoted optimum n(1+eps) is the all-lower equilibrium; it is
    # reachable and the quoted ratio against it is exact
    assert F(101, 25) in reach.social_costs
    assert F(701, 100) / F(101, 25) == F(701, 404)
    # the true optimum is a notch cheaper: segment m-1's upper edge costs
    # 1 < 1+eps and can end up shared, so the realized gap is even wider
    assert reach.best()[1] == F(403, 100)
    assert rule_inefficiency(game, p0, min_path()).alpha == F(701, 403) >= F(701, 404)
    report_pass(
        3,
        "chain: min-path 701/100; all-lower equilibrium 101/25 reachable "
        "(ratio 701/404); true optimum 403/100",
    )


def test_c04_doubling_chain_values():
    fx = fig4_minpath_exp(m=3)
    game, p0 = fx.game, fx.initial
    trace = run_brd(game, p0, min_path())
    assert trace.deviator_order() == (1, 2, 3)
    minpath_sc = game.social_cost(trace.terminal)
    # terminal uses exactly the upper edges: sum_j 2^(m+j-1) = 8+16+32
    assert minpath_sc == sum(F(2 ** (3 + j - 1)) for j in (1, 2, 3)) == 56
    # the 2^(2m) - 2^(m-1) = 60 closed form quoted for this sum carries an
    # off-by-one (sum 2^j = 2^(m+1) - 2, not -1); the instance pins 56
    assert minpath_sc == 2**6 - 2**3 != 2**6 - 2**2
    reach = reachable_ne(game, p0)
    assert reach.best()[1] == 14
    assert rule_inefficiency(game, p0, min_path()).alpha == F(56, 14) == 4
    report_pass(
        4,
        "doubling chain: min-path order (1,2,3), terminal 56 = sum of upper "
        "edges, optimum 14, alpha 4 (quoted 60 rests on a sum slip)",
    )


def test_c05_dynamic_programs_match_oracle():
    from brdlab.sppdp import dp_proper_intervals, dp_single_source, replay

    rng = random.Random(505)
    for count, generator, program in (
        (300, random_single_source_instance, dp_single_source),
        (300, random_proper_instance, dp_proper_intervals),
    ):
        for _ in range(count):
            instance = generator(rng, tie_heavy=rng.random() < 0.3)
            table = program(instance)
            game, p0 = instance.to_game()
            best = reachable_ne(game, p0, state_limit=400_000).best()[1]
            trace = replay(instance, table, game)
            assert table.optimum == best == game.social_cost(trace.terminal)
            assert trace.terminal_is_ne
            verify_trace(game, trace)
    report_pass(5, "both programs equal the oracle on 300+300 random "
                   "instances; emitted traces replay-verify")


def test_c06_extension_parallel_impossibility():
    fa, fb = fig5_ep_pair(n=6)
    v2, v3 = fa.expected["v2"], fa.expected["v3"]
    assert fb.expected["v2"] == v2 and fb.expected["v3"] == v3

    outcomes = {}
    for fx in (fa, fb):
        game, p0 = fx.game, fx.initial
        reach = reachable_ne(game, p0)
        best = reach.best()[1]
        assert {best, fx.expected["worst_sc"]} == set(reach.social_costs)
        good_first = set()
        for player in game.suboptimal_players(p0):
            for idx in game.best_response(p0, player):
                child = game.with_choice(p0, player, idx)
                if best in reachable_ne(game, child).social_costs:
                    good_first.add(player)
        assert good_first == set(fx.expected["optimal_first_movers"])
        outcomes[fx.name] = (best, fx.expected["worst_sc"])

    # scenario (a) rewards the (15,30,13,34) holders, scenario (b) the
    # (22,34,10,30) holders: the same two vectors, opposite preference
    assert set(fa.expected["v3_players"]) == set(fa.expected["optimal_first_movers"])
    assert set(fb.expected["v2_players"]) == set(fb.expected["optimal_first_movers"])

    gap_a = outcomes["fig5a"][1] / outcomes["fig5a"][0]
    gap_b = outcomes["fig5b"][1] / outcomes["fig5b"][0]
    floor = min(gap_a, gap_b)
    assert floor > F(3, 2)
    for factory in SHIPPED_LOCAL_NFG_RULES:
        alphas = [
            rule_inefficiency(fx.game, fx.initial, factory()).alpha for fx in (fa, fb)
        ]
        assert max(alphas) >= floor
    report_pass(
        6,
        f"EP pair imposes opposite preferences over (22,34,10,30) vs "
        f"(15,30,13,34); every shipped local rule suffers alpha >= {floor}",
    )


def test_c07_weighted_parallel_conflict():
    r, eps = 4, F(1, 100)
    fa, fb = fig7_weighted_local_pair(r=r, eps=eps)

    game_a, p0_a = fa.game, fa.initial
    reach_a = reachable_ne(game_a, p0_a)
    assert set(reach_a.social_costs) == {F(1), F(r)}
    # exhaustive over first moves: only the stranded weight-2 player opens
    # the path to the cheap pooling equilibrium
    for player in game_a.suboptimal_players(p0_a):
        for idx in game_a.best_response(p0_a, player):
            child = game_a.with_choice(p0_a, player, idx)
            reachable = reachable_ne(game_a, child).social_costs
            assert (1 in reachable) == (player == 1)

    game_b, p0_b = fb.game, fb.initial
    reach_b = reachable_ne(game_b, p0_b)
    best_b = F(2, r) + eps
    assert reach_b.best()[1] == best_b
    v2_owners = set(fb.expected["optimal_first_movers"])
    for player in game_b.suboptimal_players(p0_b):
        for idx in game_b.best_response(p0_b, player):
            child = game_b.with_choice(p0_b, player, idx)
            reachable = reachable_ne(game_b, child).social_costs
            assert (best_b in reachable) == (player in v2_owners)

    # any fixed preorder over the shared vectors loses r/2 (up to the
    # eps the cheap edge carries) on one of the two games
    v1_pref = LocalRule("prefer-stranded", lambda g: lambda v: v.weight)
    v2_pref = LocalRule("prefer-middle", lambda g: lambda v: -v.current_cost)
    slack_floor = F(r, 2) / (1 + 2 * eps)  # = r/(2 + r eps) with eps's drag
    alpha_v1 = max(
        rule_inefficiency(game_a, p0_a, v1_pref).alpha,
        rule_inefficiency(game_b, p0_b, v1_pref).alpha,
    )
    alpha_v2 = max(
        rule_inefficiency(game_a, p0_a, v2_pref).alpha,
        rule_inefficiency(game_b, p0_b, v2_pref).alpha,
    )
    assert alpha_v1 == F(1) / best_b == F(100, 51) >= slack_floor
    assert alpha_v2 >= F(r) >= F(r, 2)
    for factory in SHIPPED_LOCAL_NFG_RULES:
        alphas = [
            rule_inefficiency(game_a, p0_a, factory()).alpha,
            rule_inefficiency(game_b, p0_b, factory()).alpha,
        ]
        assert max(alphas) >= slack_floor
    report_pass(
        7,
        "weighted pair: pooling optimum needs the weight-2 player first, "
        "extension optimum needs a middle player first; fixed preorders "
        "lose >= r/(2 + r*eps) = 100/51",
    )


def test_c08_weighted_two_segment_chain():
    k, eps = 10, F(1, 100)
    r = k + 2
    fx = fig8_weighted_minpath(k=k, eps=eps)
    game, p0 = fx.game, fx.initial
    rr = reachable_by_rule(game, p0, min_path())
    minpath_costs = {game.social_cost(t) for t in rr.terminals}
    assert minpath_costs == {F(r * r) + eps}
    # every profile pays at least the cheapest edge of each segment, and
    # the scripted sequence attains exactly that floor
    floor = fx.expected["segment_floor"]
    assert floor == 2 * r + 2 * r == 48
    trace = fx.run_script("optimal")
    assert game.social_cost(trace.terminal) == floor
    verify_trace(game, trace)
    alpha = (F(r * r) + eps) / floor
    assert alpha > F(k, 4)
    assert fx.expected["weight_ratio"] == F(6, 5)
    report_pass(
        8,
        f"two-segment weighted chain: min-path {F(r*r)+eps}, optimum 48, "
        f"alpha {alpha} > k/4; weight ratio 6/5",
    )


def test_c09_scheduling_pair():
    m, eps = 4, F(1, 10)
    fa, fb = fig9_sched_pair(m=m, eps=eps)
    game_a, p0_a = fa.game, fa.initial
    game_b, p0_b = fb.game, fb.initial
    bad = 2 * m - 2 * eps

    def branch_makespans(game, p0, player):
        child = game.with_choice(p0, player, game.canonical_br_pick(p0, player))
        return set(reachable_ne(game, child).social_costs)

    # scenario (a): choosing v'' or the tiny job locks makespan 2m - 2eps;
    # choosing v' spreads the dust for makespan m + 1 (the quoted
    # m + 1 - 5eps/2m sits below the job-size grid)
    assert bad == F(39, 5)
    assert branch_makespans(game_a, p0_a, 5) == {F(39, 5)}
    assert branch_makespans(game_a, p0_a, 3) == {F(39, 5)}
    good_a = branch_makespans(game_a, p0_a, 1)
    assert good_a == {F(5)}
    quoted_good = fa.expected["continuous_good_makespan"]  # 79/16
    assert abs(F(5) - quoted_good) <= F(5, 2) * eps / m

    # scenario (b): the machine-1 jobs lock 2m - 3eps; v'' reaches m + 1
    assert branch_makespans(game_b, p0_b, 1) == {2 * m - 3 * eps}
    assert branch_makespans(game_b, p0_b, 2) == {2 * m - 3 * eps}
    assert branch_makespans(game_b, p0_b, 3) == {F(5)}

    # opposite preferences over the same pair (v', v'')
    assert fa.expected["v_prime"] == fb.expected["v_prime"]
    assert fa.expected["v_dprime"] == fb.expected["v_dprime"]

    ratio = bad / F(5)
    poa = F(2 * m, m + 1)
    assert ratio == F(39, 25)
    assert abs(ratio - poa) <= eps
    assert abs(F(39, 5) / quoted_good - ratio) <= eps  # quoted 624/395 chain
    report_pass(
        9,
        "scheduling pair: bad branches 39/5 and 77/10, good branches 5; "
        "preferences reverse over (v', v''); ratio 39/25 within eps of 8/5",
    )


def test_c10_s_opt_optimality_on_random_instances():
    # half-integer activation costs keep the instances tie-free; at integer
    # B with reachable loads x, y satisfying x*y = B the rule's top-first
    # step can provably strand a salvageable machine (see decisions ledger)
    rng = random.Random(1010)
    balanced_checked = 0
    for _ in range(300):
        game, p0 = random_coco_game(rng, max_n=30, max_m=6, generic_b=True)
        reach = reachable_ne(game, p0, state_limit=500_000)
        best_cost = reach.best()[1]
        best_actives = {
            active_count(game, ne)
            for ne in reach.ne_profiles
            if game.social_cost(ne) == best_cost
        }
        trace = run_brd(game, p0, s_opt_rule())
        assert game.social_cost(trace.terminal) == best_cost
        assert active_count(game, trace.terminal) in best_actives
        assert max_active_machines(game, p0) in best_actives
        for ne in reach.ne_profiles:
            loads = [l for l in game.loads(ne) if l > 0]
            n_over_k = F(game.n, len(loads))
            for load in loads:
                assert load.denominator == 1
                assert abs(load - n_over_k) < 1
            balanced_checked += 1
    assert balanced_checked >= 300
    report_pass(
        10,
        f"s-opt reaches the oracle optimum on 300 random instances; "
        f"{balanced_checked} enumerated equilibria all balanced",
    )


def test_c11_cube_activation_instance():
    fx = appB_coco(B=27)
    game, p0 = fx.game, fx.initial
    reach = reachable_ne(game, p0)
    costs = set(reach.social_costs)
    assert F(39, 2) in costs and F(12) in costs
    assert reach.best()[1] == 12
    assert F(39, 2) / 12 == F(13, 8) >= F(3, 2)
    trace = run_brd(game, p0, s_opt_rule())
    assert game.social_cost(trace.terminal) == 12
    assert active_count(game, trace.terminal) == 4 == max_active_machines(game, p0)
    drained = fx.run_script("drain")
    assert game.social_cost(drained.terminal) == F(39, 2)
    report_pass(
        11,
        "cube instance: terminals at 39/2 and 12 (ratio 13/8 >= 3/2); "
        "s-opt keeps all 4 machines active",
    )


def _random_nfg_vector_profiles(rng, count):
    profiles = []
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(2, 6)):
            br = F(rng.randint(1, 60), rng.randint(1, 4))
            cur = br + F(rng.randint(0, 60), rng.randint(1, 4))
            vectors.append(
                NfgStateVector(cur, cur + rng.randint(0, 9), br, br + rng.randint(0, 9))
            )
        profiles.append(vectors)
    return profiles


def _random_sched_vector_profiles(rng, count):
    profiles = []
    for _ in range(count):
        machines = rng.randint(2, 5)
        loads = [F(rng.randint(0, 9)) for _ in range(machines)]
        vectors = []
        for _ in range(rng.randint(2, 6)):
            machine = rng.randint(1, machines)
            length = F(rng.randint(1, 5), rng.randint(1, 2))
            loads_v = list(loads)
            loads_v[machine - 1] = max(loads_v[machine - 1], length)
            vectors.append(SchedStateVector(length, machine, tuple(loads_v)))
        profiles.append(vectors)
    return profiles


def test_c12_property_suites():
    # potential strictly decreases along every engine trace on the
    # unit-weight fixtures
    rng = random.Random(1212)
    checked_moves = 0
    for fx in (fig2_maxcost(), fig3_minpath_chain(), fig4_minpath_exp(), appB_coco()):
        game, p0 = fx.game, fx.initial
        for rule in (max_cost(), LowestIdRule()):
            if not rule.accepts(game):
                continue
            trace = run_brd(game, p0, rule)
            profile = p0
            phi = game.rosenthal_potential(profile)
            for move in trace.moves:
                idx = game.strategy_space(move.player).index(move.new_strategy)
                profile = game.with_choice(profile, move.player, idx)
                phi_next = game.rosenthal_potential(profile)
                assert phi_next < phi
                phi = phi_next
                checked_moves += 1
    assert checked_moves > 30

    # every report satisfies the reachable-set containment and 1 <= alpha
    reports = 0
    for _ in range(40):
        game = random_symmetric_game(rng)
        p0 = random_profile(rng, game)
        reach = reachable_ne(game, p0)
        for factory in SHIPPED_LOCAL_NFG_RULES:
            report = rule_inefficiency(game, p0, factory())
            assert 1 <= report.alpha
            assert set(report.rule_ne_costs) <= set(reach.social_costs)
            reports += 1
    assert reports == 120

    # locality audits: 1000 random vector profiles per rule, no flips
    nfg_profiles = _random_nfg_vector_profiles(rng, 1000)
    nfg_game = fig2_maxcost().game
    for factory in SHIPPED_LOCAL_NFG_RULES:
        assert check_iip(factory().vector_chooser(nfg_game), nfg_profiles) == []
    sched_profiles = _random_sched_vector_profiles(rng, 1000)
    from brdlab.rules import longest_job, s_opt_vector_key
    from brdlab.scheduling import SchedulingGame

    linear, coco = SchedulingGame(2, [1]), SchedulingGame(2, [1], activation_cost=16)
    for chooser in (
        max_cost().vector_chooser(linear),
        longest_job().vector_chooser(linear),
        max_improvement().vector_chooser(linear),
        max_cost().vector_chooser(coco),
        max_improvement().vector_chooser(coco),
        s_opt_rule().vector_chooser(coco),
    ):
        assert check_iip(chooser, sched_profiles) == []

    def s_opt_chooser(vectors):
        key = s_opt_vector_key(F(16))
        best = max(key(v) for v in vectors)
        return tuple(i for i, v in enumerate(vectors) if key(v) == best)

    assert check_iip(s_opt_chooser, sched_profiles) == []
    report_pass(
        12,
        f"potential monotone on {checked_moves} fixture moves; {reports} "
        "reports obey containment and alpha >= 1; all local rules pass "
        "1000-profile locality audits",
    )


def test_c13_partition_gadget():
    fx = fig6_weighted_partition(a=(F(1, 2), F(1, 2)), eps=F(1, 1000))
    game, p0 = fx.game, fx.initial
    trace = fx.run_script("partition")
    assert trace.terminal_is_ne
    assert game.social_cost(trace.terminal) == 2
    reach = reachable_ne(game, p0)
    others = [c for c in reach.social_costs if c != 2]
    assert all(c >= 3 for c in others)
    # the two-sided dichotomy at the reduction's own shape: with weights
    # (1,1) the second-best equilibrium costs exactly 3 + eps, and with no
    # unit subset the cheap equilibrium is unreachable
    ones = fig6_weighted_partition(a=(F(1), F(1)), eps=F(1, 1000))
    assert ones.expected["second_best"] == 3 + F(1, 1000)
    thirds = fig6_weighted_partition(a=(F(2, 3), F(2, 3), F(2, 3)))
    assert 2 not in thirds.expected["ne_costs"]
    assert min(thirds.expected["ne_costs"]) >= 3
    report_pass(
        13,
        "partition gadget: scripted run ends at cost 2; every other "
        "terminal costs >= 3; dichotomy holds on the (1,1) and thirds shapes",
    )
