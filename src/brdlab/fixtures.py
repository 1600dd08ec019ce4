"""Benchmark instances with known best/worst reachable equilibria.

Each constructor builds (game, initial profile) plus a dictionary of
expected quantities and self-validates at construction: state vectors,
suboptimal sets, and (where the instance is small enough to enumerate)
oracle-computed equilibrium costs must match, else construction fails
loudly.

Two families are reconstructions rather than verbatim instances: the
three-edge max-cost gadget (the empty middle edge's cost is pinned only by
the cheap equilibrium it must produce) and the extension-parallel pair
(three of the six edge costs and the exact target placement are pinned only
indirectly, through the quoted state vectors, per-player shares and the
scenario outcomes).  Those fixtures carry `reconstructed=True` and validate
every pinned quantity; see each docstring for what is derived versus free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import STRATEGY_CAP, Game, Profile, Strategy
from .engine import LowestIdRule, ScriptMove, Trace, run_brd, run_scripted
from .networks import Edge, Network, NetworkFormationGame, NfgStateVector, PlayerSpec, is_ep
from .oracle import reachable_ne
from .rules import max_cost, min_path
from .scheduling import SchedStateVector, SchedulingGame

F = Fraction


class FixtureError(ValueError):
    """Self-validation failed: the constructed instance does not reproduce
    the quantities it is supposed to."""


@dataclass
class FixtureSpec:
    name: str
    game: Game
    initial: Profile
    expected: dict[str, object]
    reconstructed: bool = False
    scripts: dict[str, tuple[ScriptMove, ...]] = field(default_factory=dict)

    def run_script(self, key: str) -> Trace:
        """The scripted moves, then lowest-id dynamics to an equilibrium."""
        return run_scripted(self.game, self.initial, self.scripts[key], LowestIdRule())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FixtureError(message)


def _shown(value: object) -> str:
    """A parameter value as the command line writes it: a list as its
    comma-separated items, a list of one with a trailing comma."""
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value)) + ("," if len(value) == 1 else "")
    return str(value)


def _integer(value: object, name: str) -> int:
    """An integer parameter, checked before any arithmetic reads it; a
    `Fraction` such as 4/1 is one."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    _require(isinstance(value, int), f"{name} must be an integer, got {_shown(value)}")
    return value  # type: ignore[return-value]


def _rational(value: object, name: str) -> Fraction:
    """A rational parameter: a `Fraction`, an integer or a string such as
    "1/100"."""
    _require(isinstance(value, (int, Fraction, str)),
             f"{name} must be a rational number, got {_shown(value)}")
    return F(value)  # type: ignore[arg-type]


def _require_capped(count: int, what: str) -> None:
    """A fixture's player, edge or machine count stays within the strategy
    cap; checked before any list of that size is built."""
    _require(count <= STRATEGY_CAP, f"{count} {what}, more than {STRATEGY_CAP}")


def _parallel_network(costs: Sequence[tuple[int, Fraction]]) -> Network:
    return Network(tuple(Edge(i, 0, 1, c) for i, c in costs), source=0, sink=1)


# ---------------------------------------------------------------------------
# Three parallel edges: worst case for the max-cost rule
# ---------------------------------------------------------------------------


def fig2_maxcost(n: int = 5, eps: Fraction | str = F(1, 100)) -> FixtureSpec:
    """One expensive occupied edge, a crowd on a slightly cheaper edge, and
    an empty edge of cost 1/n.

    Choosing the highest-cost player locks the crowd in place (social cost
    1 - eps); letting the crowd move first drains everyone onto the empty
    edge (social cost 1/n).  The middle-edge cost is reconstructed: the text
    pins only the resulting equilibrium costs.
    """
    n, eps = _integer(n, "n"), _rational(eps, "eps")
    _require(n >= 2, "need at least two players")
    _require(0 < eps < F(1, n), "need 0 < eps < 1/n for the crowd to be mobile")
    _require_capped(n, "players")
    top, middle, bottom = F(1), F(1, n), 1 - eps
    net = _parallel_network([(1, top), (2, middle), (3, bottom)])
    specs = [PlayerSpec(0, 1)] * n
    game = NetworkFormationGame(net, specs)
    p0 = game.profile_from_strategies([(1,)] + [(3,)] * (n - 1))
    best, worst = middle, bottom
    expected = {
        "best_sc": best,
        "worst_sc": worst,
        "alpha_max_cost": worst / best,
        "ne_costs": (best, worst),
    }
    _require(set(game.suboptimal_players(p0)) == set(game.players),
             "every player should start suboptimal")
    reach = reachable_ne(game, p0, state_limit=200_000)
    costs = tuple(sorted(set(reach.social_costs)))
    if n >= 3:
        _require(costs == (best, worst),
                 f"equilibrium costs {costs} != {(best, worst)}")
    else:
        # n = 2 admits a tied third equilibrium on the expensive edge
        _require(costs[0] == best and {best, worst} <= set(costs),
                 f"equilibrium costs {costs} must bracket {(best, worst)}")
    trace = run_brd(game, p0, max_cost())
    _require(game.social_cost(trace.terminal) == worst,
             "max-cost should reach the expensive equilibrium")
    return FixtureSpec("fig2", game, p0, expected, reconstructed=True)


# ---------------------------------------------------------------------------
# Single-source chain: min-path pays ~n/2 times the optimum
# ---------------------------------------------------------------------------


def fig3_minpath_chain(m: int = 4, eps: Fraction | str = F(1, 100)) -> FixtureSpec:
    """m players on an m-segment chain, player i targeting vertex i.

    Segment j < m holds an upper edge of cost m-j (carrying players
    j+1..m) and a lower edge of cost 1+eps (carrying player j alone); the
    last segment has only the lower edge.  Min-path peels players 1, 2, ...
    onto the upper edges for a total of m(m-1)/2 + 1 + eps, while letting
    player m move first drains everyone onto the lower edges for m(1+eps).

    The all-lower equilibrium is reachable but not quite optimal: segment
    m-1's upper edge costs 1 < 1+eps, and players m-1 and m can end up
    sharing it, for (m-1)(1+eps) + 1 total.  Both costs are recorded; the
    m/2 inefficiency gap only widens against the true optimum.
    """
    m, eps = _integer(m, "m"), _rational(eps, "eps")
    _require(m >= 2, "need at least two segments")
    _require(0 < eps < 1, "need 0 < eps < 1")
    _require_capped(2 * m - 1, "edges")
    n = m
    edges = []
    for j in range(1, m):
        edges.append(Edge(2 * j - 1, j - 1, j, F(n - j)))
        edges.append(Edge(2 * j, j - 1, j, 1 + eps))
    edges.append(Edge(2 * m - 1, m - 1, m, 1 + eps))
    net = Network(tuple(edges), source=0, sink=m)
    game = NetworkFormationGame(net, [PlayerSpec(0, i) for i in range(1, n + 1)])

    def initial(i: int) -> Strategy:
        uppers = tuple(2 * j - 1 for j in range(1, i))
        last = 2 * i if i < m else 2 * m - 1
        return uppers + (last,)

    p0 = game.profile_from_strategies([initial(i) for i in range(1, n + 1)])
    minpath_sc = F(m * (m - 1), 2) + 1 + eps
    all_lower = m * (1 + eps)
    best = (m - 1) * (1 + eps) + 1
    expected = {
        "minpath_sc": minpath_sc,
        "all_lower_sc": all_lower,
        "best_sc": best,
        "alpha_min_path": minpath_sc / best,
        "all_lower_ratio": minpath_sc / all_lower,
        "minpath_order": tuple(range(1, m)),
    }
    for i in game.players:
        _require(game.player_cost(p0, i) == i + eps, f"initial cost of player {i}")
    reach = reachable_ne(game, p0, state_limit=500_000)
    _require(reach.best()[1] == best, f"oracle best {reach.best()[1]} != {best}")
    _require(all_lower in reach.social_costs, "all-lower equilibrium must be reachable")
    trace = run_brd(game, p0, min_path())
    _require(game.social_cost(trace.terminal) == minpath_sc, "min-path terminal cost")
    _require(trace.deviator_order() == expected["minpath_order"], "min-path order")
    return FixtureSpec("fig3", game, p0, expected)


# ---------------------------------------------------------------------------
# Multi-source chain with doubling costs: min-path pays ~2^m times optimum
# ---------------------------------------------------------------------------


def fig4_minpath_exp(m: int = 3) -> FixtureSpec:
    """Per-segment players on cheap lower edges (cost 2^j), a pack of
    2^(m-1) full-span players on dear upper edges (cost 2^(m+j-1)).

    Min-path walks the per-segment players onto the upper edges in order
    1..m, freezing the pack in place at total cost
    sum_j 2^(m+j-1) = 2^(2m) - 2^m; one pack member moving first settles
    everyone on the lower chain at 2^(m+1) - 2, so the gap is 2^(m-1).
    """
    m = _integer(m, "m")
    _require(m >= 2, "need at least two segments")
    # 2^(m-1) <= STRATEGY_CAP, so the m + 2^(m-1) players fit under the cap
    _require(m <= STRATEGY_CAP.bit_length(),
             f"m={m} needs 2^{m - 1} pack players, more than {STRATEGY_CAP}")
    edges = []
    for j in range(1, m + 1):
        edges.append(Edge(j, j - 1, j, F(2**j)))              # lower
        edges.append(Edge(m + j, j - 1, j, F(2 ** (m + j - 1))))  # upper
    net = Network(tuple(edges), source=0, sink=m)
    pack = 2 ** (m - 1)
    specs = [PlayerSpec(j - 1, j) for j in range(1, m + 1)]
    specs += [PlayerSpec(0, m)] * pack
    game = NetworkFormationGame(net, specs)
    uppers = tuple(range(m + 1, 2 * m + 1))
    p0 = game.profile_from_strategies(
        [(j,) for j in range(1, m + 1)] + [uppers] * pack
    )
    minpath_sc = sum(F(2 ** (m + j - 1)) for j in range(1, m + 1))
    assert minpath_sc == 2 ** (2 * m) - 2**m
    best = F(2 ** (m + 1) - 2)
    expected = {
        "minpath_sc": minpath_sc,
        "best_sc": best,
        "alpha_min_path": minpath_sc / best,
        "minpath_order": tuple(range(1, m + 1)),
    }
    reach = reachable_ne(game, p0, state_limit=500_000)
    _require(reach.best()[1] == best, f"oracle best {reach.best()[1]} != {best}")
    trace = run_brd(game, p0, min_path())
    _require(game.social_cost(trace.terminal) == minpath_sc, "min-path terminal cost")
    _require(trace.deviator_order() == expected["minpath_order"], "min-path order")
    return FixtureSpec("fig4", game, p0, expected)


# ---------------------------------------------------------------------------
# Extension-parallel pair: no local rule gets both scenarios right
# ---------------------------------------------------------------------------

V2 = NfgStateVector(F(22), F(34), F(10), F(30))
V3 = NfgStateVector(F(15), F(30), F(13), F(34))


def fig5_ep_pair(
    n: int = 6, delta: Fraction | str = F(1, 20)
) -> tuple[FixtureSpec, FixtureSpec]:
    """Two single-source EP scenarios exposing the same pair of state
    vectors, (22,34,10,30) and (15,30,13,34), with opposite optimal
    first choices.

    Reconstruction notes: the vectors pin e1=24, e2=10, e3=30 and the
    suboptimal sets; the bystander edge carries cost 7.4 (scenario a) or
    6.5 (scenario b) per bystander, matching the quoted per-player shares.
    The bystanders' target is a separate sink behind a cheap connector edge
    of cost `delta` (0 < delta < 1/10): with the quoted costs the bystanders
    must be able to reach the main sink in the good branch yet must not
    attract the expensive-equilibrium players in the bad branch, which
    forces the extra hop; the quoted terminal costs 34 and 30 are realized
    as 34+delta and 30+delta exactly.
    """
    n, delta = _integer(n, "n"), _rational(delta, "delta")
    _require(n >= 5, "need at least one bystander")
    _require(0 < delta < F(1, 10), "connector cost must sit below 1/10")
    _require_capped(n, "players")
    bystanders = n - 4

    def build(edge_list, inits, targets) -> tuple[NetworkFormationGame, Profile]:
        net = Network(tuple(edge_list), source=0, sink=3)
        _require(is_ep(net), "scenario network must be extension-parallel")
        game = NetworkFormationGame(net, [PlayerSpec(0, t) for t in targets])
        return game, game.profile_from_strategies(inits)

    # scenario (a): nodes 0=s, 1, 2, 3=t
    game_a, p0_a = build(
        [
            Edge(1, 0, 1, F(24)),
            Edge(2, 1, 2, F(10)),
            Edge(3, 0, 2, F(30)),
            Edge(4, 2, 3, delta),
            Edge(5, 0, 3, F(37, 5) * bystanders),
        ],
        [(1,), (1, 2), (3,), (3,)] + [(5,)] * bystanders,
        [1, 2, 2, 2] + [3] * bystanders,
    )
    worst_a = 54 + F(37, 5) * bystanders
    best_a = 34 + delta
    expected_a = {
        "v2": V2, "v2_players": (2,),
        "v3": V3, "v3_players": (3, 4),
        "suboptimal": (2, 3, 4),
        "best_sc": best_a, "worst_sc": worst_a,
        "optimal_first_movers": (3, 4),
    }

    # scenario (b): players 1 and 2 both carry the first vector
    game_b, p0_b = build(
        [
            Edge(1, 0, 1, F(24)),
            Edge(2, 1, 2, F(10)),
            Edge(3, 0, 2, F(30)),
            Edge(4, 2, 3, delta),
            Edge(5, 0, 3, F(13, 2) * bystanders),
            Edge(6, 1, 2, F(10)),
        ],
        [(1, 2), (1, 6), (3,), (3,)] + [(5,)] * bystanders,
        [2, 2, 2, 2] + [3] * bystanders,
    )
    worst_b = 34 + F(13, 2) * bystanders
    best_b = 30 + delta
    expected_b = {
        "v2": V2, "v2_players": (1, 2),
        "v3": V3, "v3_players": (3, 4),
        "suboptimal": (1, 2, 3, 4),
        "best_sc": best_b, "worst_sc": worst_b,
        "optimal_first_movers": (1, 2),
    }

    out = []
    for label, game, p0, expected in (
        ("fig5a", game_a, p0_a, expected_a),
        ("fig5b", game_b, p0_b, expected_b),
    ):
        for holder in expected["v2_players"]:
            _require(game.state_vector(p0, holder) == V2, f"{label}: v2 of {holder}")
        for holder in expected["v3_players"]:
            _require(game.state_vector(p0, holder) == V3, f"{label}: v3 of {holder}")
        _require(game.suboptimal_players(p0) == expected["suboptimal"],
                 f"{label}: suboptimal set")
        if n <= 8:
            reach = reachable_ne(game, p0, state_limit=500_000)
            costs = tuple(sorted(set(reach.social_costs)))
            _require(costs == (expected["best_sc"], expected["worst_sc"]),
                     f"{label}: equilibrium costs {costs}")
        out.append(FixtureSpec(label, game, p0, expected, reconstructed=True))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Weighted parallel edges: reaching the cheap equilibrium solves Partition
# ---------------------------------------------------------------------------


# the most partition weights fig6 takes: it tries all 2^k subsets
PARTITION_CAP = 16


def fig6_weighted_partition(
    a: Sequence[Fraction | str] = (F(1, 2), F(1, 2)),
    eps: Fraction | str = F(1, 1000),
    big_cost: Fraction | str = F(100),
) -> FixtureSpec:
    """Four parallel edges: a weight-2 player stranded on a huge edge, the
    partition multiset on cost 3+eps, six unit players on cost 9+eps, and
    an empty edge of cost 2.

    The weight-2 player's move to the empty edge becomes beneficial exactly
    when players of total weight 1 have migrated off her alternatives;
    finding the social-cost-2 equilibrium therefore encodes Partition.
    """
    eps, big = _rational(eps, "eps"), _rational(big_cost, "big_cost")
    _require(isinstance(a, Sequence), f"a takes a list of weights; write one weight as a={a},")
    _require(len(a) <= PARTITION_CAP,
             f"{len(a)} partition weights, more than {PARTITION_CAP}: every subset is tried")
    weights = [_rational(x, "a") for x in a]
    _require(all(0 < w <= 1 for w in weights), "partition weights must lie in (0, 1]")
    _require(sum(weights) <= 2, "partition weights must total at most 2")
    _require(0 < eps < F(1, 100), "eps must be small")
    _require(big >= 20, "the stranding edge must dwarf every alternative")
    k = len(weights)
    net = _parallel_network([(1, big), (2, 3 + eps), (3, 9 + eps), (4, F(2))])
    specs = [PlayerSpec(0, 1, F(2))]
    specs += [PlayerSpec(0, 1, w) for w in weights]
    specs += [PlayerSpec(0, 1)] * 6
    game = NetworkFormationGame(net, specs)
    p0 = game.profile_from_strategies([(1,)] + [(2,)] * k + [(3,)] * 6)

    subset = _subset_summing_to_one(weights)
    expected: dict[str, object] = {
        "has_unit_subset": subset is not None,
        "scripted_sc": F(2) if subset is not None else None,
        "second_best_floor": F(3),
    }
    scripts: dict[str, tuple[ScriptMove, ...]] = {}
    if subset is not None:
        moves: list[ScriptMove] = [(2 + i, (3,)) for i in subset]
        moves.append((1, (4,)))
        scripts["partition"] = tuple(moves)
    fixture = FixtureSpec("fig6", game, p0, expected, scripts=scripts)
    if subset is not None:
        trace = fixture.run_script("partition")
        _require(trace.terminal_is_ne, "scripted run must end in an equilibrium")
        _require(game.social_cost(trace.terminal) == 2, "scripted terminal cost")
    if k <= 3:
        reach = reachable_ne(game, p0, state_limit=500_000)
        costs = set(reach.social_costs)
        others = {c for c in costs if c != 2}
        _require(not others or min(others) >= 3,
                 f"non-optimal equilibria must cost >= 3: {sorted(costs)}")
        if subset is not None:
            _require(2 in costs, "the partition equilibrium must be reachable")
        else:
            _require(2 not in costs, "no unit subset, so cost 2 must be unreachable")
        expected["ne_costs"] = tuple(sorted(costs))
        expected["second_best"] = min(others) if others else None
    return fixture


def _subset_summing_to_one(weights: Sequence[Fraction]) -> tuple[int, ...] | None:
    n = len(weights)
    for mask in range(1, 1 << n):
        total = sum((weights[i] for i in range(n) if mask >> i & 1), F(0))
        if total == 1:
            return tuple(i for i in range(n) if mask >> i & 1)
    return None


# ---------------------------------------------------------------------------
# Weighted parallel edges: the local-rule dilemma pair
# ---------------------------------------------------------------------------


def fig7_weighted_local_pair(
    r: int = 4,
    eps: Fraction | str = F(1, 100),
    big_cost: Fraction | str = F(100),
) -> tuple[FixtureSpec, FixtureSpec]:
    """Two games sharing the vectors v1 (a stranded weight-2 player) and v2
    (a unit player on the middle edge), with opposite optimal first moves.

    In the first game the stranded player must move first (everyone then
    pools on the cost-1 edge); in the second, extended by a cheap edge of
    cost 2/r + eps holding a weight-4/r player, a unit player must move
    first so the stranded player's best response becomes the cheap edge.
    """
    r, eps, big = _integer(r, "r"), _rational(eps, "eps"), _rational(big_cost, "big_cost")
    # once a unit player has left edge 2 for edge 3, the stranded player's
    # share of the cheap edge, 2(2/r + eps)/(4/r + 2), must undercut her
    # share 2r/(r^2 + r + 3) of edge 3: r > 3 and eps < 2(r-3)/(r(r^2 + r + 3))
    _require(r > 3, "need r > 3 for the extension game to reward the cheap edge")
    bound = F(2 * (r - 3), r * (r * r + r + 3))
    _require(0 < eps < bound, f"eps = {eps} is not in (0, {bound}) for r = {r}")
    _require(big >= 4 * r, "the stranding edge must dwarf every alternative")
    crowd = r * r + r
    _require_capped(crowd + r + 2, "players")

    v1 = NfgStateVector(big, big, F(2, r + 2), F(1), F(2))
    v2 = NfgStateVector(F(1, r), F(1), F(r, r * r + r + 1), F(r), F(1))

    def validate_common(label: str, game: NetworkFormationGame, p0: Profile,
                        expected_sub: tuple[int, ...]) -> None:
        _require(game.state_vector(p0, 1) == v1, f"{label}: v1")
        _require(game.state_vector(p0, 2) == v2, f"{label}: v2")
        _require(game.suboptimal_players(p0) == expected_sub, f"{label}: suboptimal set")

    # game (a): three parallel edges
    net_a = _parallel_network([(1, big), (2, F(1)), (3, F(r))])
    specs_a = [PlayerSpec(0, 1, F(2))] + [PlayerSpec(0, 1)] * (r + crowd)
    game_a = NetworkFormationGame(net_a, specs_a)
    # game (b): a fourth cheap edge with its own light player, built before
    # either script runs, as its weight 4/r may put it past the share cap
    net_b = _parallel_network(
        [(1, big), (2, F(1)), (3, F(r)), (4, F(2, r) + eps)]
    )
    specs_b = specs_a + [PlayerSpec(0, 1, F(4, r))]
    game_b = NetworkFormationGame(net_b, specs_b)
    p0_a = game_a.profile_from_strategies([(1,)] + [(2,)] * r + [(3,)] * crowd)
    validate_common("fig7a", game_a, p0_a, tuple(range(1, r + 2)))
    scripts_a = {"optimal": ((1, (2,)),)}
    fix_a = FixtureSpec(
        "fig7a", game_a, p0_a,
        {
            "v1": v1, "v2": v2,
            "suboptimal": tuple(range(1, r + 2)),
            "best_sc": F(1),
            "v2_first_sc": F(r),
            "optimal_first_movers": (1,),
        },
        scripts=scripts_a,
    )
    trace = fix_a.run_script("optimal")
    _require(trace.terminal_is_ne and game_a.social_cost(trace.terminal) == 1,
             "fig7a: stranded-player-first run must reach social cost 1")

    p0_b = game_b.profile_from_strategies(
        [(1,)] + [(2,)] * r + [(3,)] * crowd + [(4,)]
    )
    last = r * r + 2 * r + 2
    validate_common("fig7b", game_b, p0_b, tuple(range(1, r + 2)) + (last,))
    scripts_b = {
        "optimal": ((2, (3,)), (1, (4,))),
        "v1_first": ((1, (2,)),),
    }
    fix_b = FixtureSpec(
        "fig7b", game_b, p0_b,
        {
            "v1": v1, "v2": v2,
            "suboptimal": tuple(range(1, r + 2)) + (last,),
            "best_sc": F(2, r) + eps,
            "v1_first_sc": F(1),
            "optimal_first_movers": tuple(range(2, r + 2)),
        },
        scripts=scripts_b,
    )
    trace = fix_b.run_script("optimal")
    _require(trace.terminal_is_ne and game_b.social_cost(trace.terminal) == F(2, r) + eps,
             "fig7b: unit-first run must reach the cheap edge")
    trace = fix_b.run_script("v1_first")
    _require(game_b.social_cost(trace.terminal) == 1,
             "fig7b: stranded-player-first run must strand the cheap edge")
    return fix_a, fix_b


# ---------------------------------------------------------------------------
# Weighted two-segment chain: min-path with near-unit weights
# ---------------------------------------------------------------------------


def fig8_weighted_minpath(k: int = 10, eps: Fraction | str = F(1, 100)) -> FixtureSpec:
    """Two segments; k players of weight 1 + 2/k each alone on a cost-2r
    first-segment edge and pooled on the cost-r^2 upper second-segment edge;
    r-1 unit players pooled on the first segment's cost r(r-2)+eps edge and
    alone on cost-2r second-segment edges (r = k+2).

    The heavy players' best-response path costs r^2 + eps, the unit
    players' r^2 + 2r, so min-path moves a heavy player first and everyone
    follows her onto the expensive pair.  Letting one unit player move
    first instead funnels everyone through a single cost-2r edge per
    segment for 4r total.
    """
    k, eps = _integer(k, "k"), _rational(eps, "eps")
    _require(k > 2, "need k > 2")
    _require_capped(2 * k + 3, "edges")
    r = k + 2
    heavy = F(k + 2, k)  # 1 + 2/k
    _require(0 < eps < 1, "eps must be small")
    edges = []
    for i in range(1, k + 1):
        edges.append(Edge(i, 0, 1, F(2 * r)))
    edges.append(Edge(k + 1, 0, 1, F(r * (r - 2)) + eps))
    edges.append(Edge(k + 2, 1, 2, F(r * r)))
    for j in range(1, r):
        edges.append(Edge(k + 2 + j, 1, 2, F(2 * r)))
    net = Network(tuple(edges), source=0, sink=2)
    specs = [PlayerSpec(0, 2, heavy)] * k + [PlayerSpec(0, 2)] * (r - 1)
    game = NetworkFormationGame(net, specs)
    inits = [(i, k + 2) for i in range(1, k + 1)]
    inits += [(k + 1, k + 2 + j) for j in range(1, r)]
    p0 = game.profile_from_strategies(inits)

    minpath_sc = F(r * r) + eps
    best = F(4 * r)
    expected = {
        "minpath_sc": minpath_sc,
        "best_sc": best,
        "alpha_min_path": minpath_sc / best,
        "weight_ratio": heavy,
        "segment_floor": best,  # every profile uses one edge per segment
    }
    for i in range(1, k + 1):
        _require(game.state_vector(p0, i).br_path_cost == minpath_sc,
                 "heavy player's best-response path cost")
    for j in range(k + 1, k + r):
        _require(game.state_vector(p0, j).br_path_cost == F(r * r + 2 * r),
                 "unit player's best-response path cost")
    first_unit = k + 1
    scripts = {
        "optimal": ((first_unit, (1, k + 2)),)
        + tuple((i, None) for i in range(2, k + 1)),
    }
    fixture = FixtureSpec("fig8", game, p0, expected, scripts=scripts)
    trace = fixture.run_script("optimal")
    _require(trace.terminal_is_ne and game.social_cost(trace.terminal) == best,
             "fig8: unit-first run must cost 4r")
    trace = run_brd(game, p0, min_path())
    _require(game.social_cost(trace.terminal) == minpath_sc, "fig8: min-path cost")
    return fixture


# ---------------------------------------------------------------------------
# Scheduling pair: every local rule hits the makespan price of anarchy
# ---------------------------------------------------------------------------


def fig9_sched_pair(
    m: int = 4, eps: Fraction | str = F(1, 10)
) -> tuple[FixtureSpec, FixtureSpec]:
    """Two linear-model schedules with identical load vectors
    (2m-eps, m+eps/2, m-2eps, m, ..., m) and reversed correct choices
    between the vectors v' (a long job on the overloaded machine) and v''
    (a short job on the second machine).
    """
    m, eps = _integer(m, "m"), _rational(eps, "eps")
    _require(m >= 3, "need at least three machines")
    _require(0 < eps < F(1, 2), "eps must be small")
    short_count = (m + eps / 2) / (eps * F(3, 2))
    tiny_count = (m - 2 * eps) / eps
    _require(short_count.denominator == 1, "(m + eps/2)/(3 eps/2) must be integral")
    _require(tiny_count.denominator == 1, "(m - 2 eps)/eps must be integral")
    _require_capped(m, "machines")
    _require_capped(m + 2 + max(tiny_count, short_count), "jobs")

    fillers = [F(m)] * (m - 3)
    filler_assign = list(range(4, m + 1))

    # (a): long jobs crowd machine 1; machine 3 is a dust heap
    lengths_a = [m - eps, m - eps, eps, m - eps, eps * F(3, 2)]
    assign_a = [1, 1, 1, 2, 2]
    lengths_a += [eps] * int(tiny_count)
    assign_a += [3] * int(tiny_count)
    lengths_a += fillers
    assign_a += filler_assign
    game_a = SchedulingGame(m, lengths_a)
    p0_a = game_a.profile_from_strategies([(x,) for x in assign_a])

    # (b): machine 2 holds the dust, machine 3 one medium job
    lengths_b = [F(m), m - eps]
    assign_b = [1, 1]
    lengths_b += [eps * F(3, 2)] * int(short_count)
    assign_b += [2] * int(short_count)
    lengths_b += [m - 2 * eps]
    assign_b += [3]
    lengths_b += fillers
    assign_b += filler_assign
    game_b = SchedulingGame(m, lengths_b)
    p0_b = game_b.profile_from_strategies([(x,) for x in assign_b])

    loads = (2 * m - eps, m + eps / 2, m - 2 * eps) + tuple(F(m) for _ in range(m - 3))
    _require(game_a.loads(p0_a) == loads, "scenario (a) load vector")
    _require(game_b.loads(p0_b) == loads, "scenario (b) load vector")

    v_prime = SchedStateVector(m - eps, 1, loads)
    v_hat = SchedStateVector(eps, 1, loads)
    v_dprime = SchedStateVector(eps * F(3, 2), 2, loads)

    _require(game_a.state_vector(p0_a, 1) == v_prime, "(a) v'")
    _require(game_a.state_vector(p0_a, 3) == v_hat, "(a) v-hat")
    _require(game_a.state_vector(p0_a, 5) == v_dprime, "(a) v''")
    _require(game_a.suboptimal_players(p0_a) == (1, 2, 3, 5), "(a) suboptimal set")

    _require(game_b.state_vector(p0_b, 1) == SchedStateVector(F(m), 1, loads), "(b) long")
    _require(game_b.state_vector(p0_b, 2) == v_prime, "(b) v'")
    _require(game_b.state_vector(p0_b, 3) == v_dprime, "(b) v''")
    _require(
        game_b.suboptimal_players(p0_b) == (1, 2) + tuple(range(3, 3 + int(short_count))),
        "(b) suboptimal set",
    )

    bad = 2 * m - 2 * eps
    expected_a = {
        "v_prime": v_prime, "v_hat": v_hat, "v_dprime": v_dprime,
        "bad_makespan": bad,             # after choosing v'' or v-hat
        "good_first_movers": (1, 2),     # the v' jobs
        "continuous_good_makespan": m + 1 - F(5, 2) * eps / m,
        "poa_ratio": F(2 * m, m + 1),
    }
    expected_b = {
        "v_prime": v_prime, "v_dprime": v_dprime,
        "bad_makespan": 2 * m - 3 * eps,  # after choosing either machine-1 job
        "good_first_movers": tuple(range(3, 3 + int(short_count))),
        "continuous_good_makespan": m + 1 - F(5, 2) * eps / m,
        "poa_ratio": F(2 * m, m + 1),
    }
    return (
        FixtureSpec("fig9a", game_a, p0_a, expected_a),
        FixtureSpec("fig9b", game_b, p0_b, expected_b),
    )


# ---------------------------------------------------------------------------
# Conflicting congestion: draining ascending wrecks the activation sharing
# ---------------------------------------------------------------------------


def _cube_root(n: int) -> int:
    """The largest c with c**3 <= n, for n >= 1, by Newton's method on integers."""
    c = 1 << -(-n.bit_length() // 3)  # a start above the root
    while (d := (2 * c + n // (c * c)) // 3) < c:
        c = d
    return c


def appB_coco(B: int = 27) -> FixtureSpec:
    """cbrt(B)+1 machines, the first cbrt(B) holding cbrt(B) unit jobs each
    and the last holding B.  Every machine can stay active (best makespan
    c(B^(2/3))), but draining the light machines in ascending order leaves
    two active machines and makespan c(n/2)."""
    B = _integer(B, "B")
    c = _cube_root(B) if B >= 8 else 0
    _require(c**3 == B and c >= 2, "B must be a perfect cube of an integer >= 2")
    machines = c + 1
    n = c * c + B
    _require(n <= STRATEGY_CAP, f"B={B} needs {n} jobs, more than {STRATEGY_CAP}")
    lengths = [F(1)] * n
    game = SchedulingGame(machines, lengths, activation_cost=B)
    assign = []
    for j in range(1, c + 1):
        assign += [j] * c
    assign += [machines] * B
    p0 = game.profile_from_strategies([(x,) for x in assign])
    best = game.job_cost_at_load(F(n, machines))
    drained = game.job_cost_at_load(F(n, 2))
    expected = {
        "best_makespan": best,
        "drained_makespan": drained,
        "ratio": drained / best,
        "ratio_floor": F(c, 2),
        "max_active": machines,
    }
    drain: list[ScriptMove] = []
    job = 1
    for j in range(1, c):  # drain machines 1 .. cbrt(B)-1
        for _ in range(c):
            drain.append((job, None))
            job += 1
    fixture = FixtureSpec("appB", game, p0, expected, scripts={"drain": tuple(drain)})
    trace = fixture.run_script("drain")
    _require(trace.terminal_is_ne, "drain run must end in an equilibrium")
    _require(game.social_cost(trace.terminal) == drained,
             f"drain makespan {game.social_cost(trace.terminal)} != {drained}")
    _require(expected["ratio"] >= expected["ratio_floor"], "ratio floor")
    return fixture


