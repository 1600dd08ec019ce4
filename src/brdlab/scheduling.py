"""Job scheduling games on identical machines.

Two models share one class.  In the linear model each job has a length and
pays the total load of its machine.  In the conflicting-congestion model all
jobs are unit length, machines carry an activation cost B shared equally, and
a job on a machine with load L pays c(L) = L + B/L, so congestion both hurts
(load) and helps (smaller activation share).

Both models decide best responses from the machine loads alone, in one
machine-level verdict (`SchedulingGame._load_verdict`), so
`suboptimal_players`, the oracle's moves and an equilibrium's makespan
build no cell.  Identical jobs (one job length, so every conflicting game)
are decided from machine counts: the loads are counted from the profile,
each leaving machine's group is headed by its first job, and the verdict
visits the used machines only, reading c(L) from a per-game memo filled
on demand.

The structural theory for the conflicting model lives here too: the optimal
per-load cost l*, the stay-active criterion for a machine, the count of
active machines in a best reachable equilibrium, and the machine-choosing
optimal deviator step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import lt
from typing import Sequence

from .core import (
    STRATEGY_CAP,
    Evaluation,
    Game,
    GameError,
    PlayerId,
    Profile,
    ResourceId,
    SocialCostKind,
    UnsupportedModelError,
    as_fraction,
    share_unit,
)
from .engine import DEFAULT_STATE_LIMIT
from .oracle import reachable_ne

MachineId = int


class SchedulingError(GameError):
    pass


@dataclass(frozen=True)
class SchedStateVector:
    """What a local rule may see about a job: its length, its machine, and
    the machine-indexed load vector (shared by all jobs in a profile)."""

    length: Fraction
    machine: MachineId
    loads: tuple[Fraction, ...]

    @property
    def sorted_loads(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.loads))


class _JobCosts(dict):
    """c(L) = L * U + (B * U) // L of a conflicting-model job on a machine of
    load L, in the cost unit U, computed on first request: at
    `core.SHARE_CAP` jobs U has 94,449 bits, so a table of every load
    would hold hundreds of megabytes.  A walk moves the loads through most
    values up to n, so the memo is emptied once it holds more than `keep`
    costs, a few times what one profile reads."""

    def __init__(self, unit: int, scaled_b: int, keep: int) -> None:
        super().__init__()
        self._unit, self._scaled_b, self._keep = unit, scaled_b, keep

    def __missing__(self, load: int) -> int:
        if len(self) > self._keep:
            self.clear()
        cost = self[load] = load * self._unit + self._scaled_b // load
        return cost


class SchedulingGame(Game):
    """Identical machines 1..m; strategy of a job is a single machine.

    `activation_cost` switches on the conflicting-congestion model, which
    requires unit job lengths.  Social cost is always the makespan.

    Linear costs are loads, integers in the load unit.  Conflicting costs
    are integers in U = den(B) * lcm(1..n), where c(k) = k * U + (B * U) // k
    is exact as a load k <= n divides U, for n up to `core.SHARE_CAP`.
    """

    def __init__(
        self,
        machine_count: int,
        job_lengths: Sequence[Fraction | int | str],
        activation_cost: Fraction | int | str | None = None,
    ) -> None:
        if machine_count < 1:
            raise SchedulingError("need at least one machine")
        if machine_count > STRATEGY_CAP:
            raise SchedulingError(f"more than {STRATEGY_CAP} machines")
        lengths = [as_fraction(x) for x in job_lengths]
        if not lengths:
            raise SchedulingError("need at least one job")
        if any(x.numerator <= 0 for x in lengths):
            raise SchedulingError("job lengths must be positive")
        self.machine_count = machine_count
        self.activation_cost: Fraction | None = (
            None if activation_cost is None else Fraction(activation_cost)
        )
        if self.activation_cost is not None:
            if self.activation_cost <= 0:
                raise SchedulingError("activation cost must be positive")
            if any(x != 1 for x in lengths):
                raise SchedulingError(
                    "the conflicting-congestion model requires unit jobs"
                )
        # the conflicting unit over the n unit jobs' total load n, capped
        # before the strategy lists are built; c(L) in it is kept per load
        # on first request (`_JobCosts`), since the unit has O(n) bits
        b = self.activation_cost
        u = None if b is None else b.denominator * share_unit(len(lengths))
        spaces = [[(m,) for m in range(1, machine_count + 1)]] * len(lengths)
        super().__init__(spaces, lengths, SocialCostKind.MAKESPAN)
        self._cost_unit = self._load_unit if u is None else u
        # a profile reads c(1), c(L) and c(L + 1) for each distinct used
        # load L, and d distinct loads need at least d(d + 1) / 2 jobs
        keep = 4 * min(machine_count, math.isqrt(2 * len(lengths))) + 4
        self._costs = None if u is None else _JobCosts(u, b.numerator * (u // b.denominator), keep)
        weights = set(self._load_weights)
        # one job weight makes one player class, decided from machine counts
        self._job_weight = next(iter(weights)) if len(weights) == 1 else None
        # the least gap at which some job leaves a machine (see _load_verdict)
        self._leave_floor = min(weights) if u is None else 0

    @property
    def is_conflicting(self) -> bool:
        return self.activation_cost is not None

    def machine_of(self, profile: Profile, player: PlayerId) -> MachineId:
        return self.strategy_of(profile, player)[0]

    def loads(self, at: Profile | Evaluation) -> tuple[Fraction, ...]:
        """Load of each machine 1..m."""
        loads, u = self.evaluate(at).loads, self._load_unit
        return tuple(Fraction(loads.get(m, 0), u) for m in range(1, self.machine_count + 1))

    def job_cost_at_load(self, load: Fraction) -> Fraction:
        """c(x) = x + B/x in the conflicting model, x itself otherwise."""
        if load <= 0:
            raise SchedulingError("cost is defined for positive load only")
        if self.activation_cost is None:
            return load
        return load + self.activation_cost / load

    def _full_loads(self, profile: Profile) -> dict[ResourceId, int]:
        """Load of every used machine, in the order of its first job.  With
        one job weight the loads are machine counts, counted at C level."""
        w = self._job_weight
        if w is not None:
            return {idx + 1: count * w for idx, count in Counter(profile).items()}
        # strategy i is machine i + 1 alone
        loads: dict[ResourceId, int] = {}
        get = loads.get
        for w, idx in zip(self._load_weights, profile, strict=True):
            loads[idx + 1] = get(idx + 1, 0) + w
        return loads

    def _costs_against(self, pos, own, loads):
        # strategy i is machine i + 1, and her own machine's load holds her
        w, get = self._load_weights[pos], loads.get
        joined = [get(i + 1, 0) + w if i != own else loads[i + 1] for i in range(self.machine_count)]
        return joined if self._costs is None else list(map(self._costs.__getitem__, joined))

    def _load_verdict(
        self, ev: Evaluation
    ) -> tuple[list[tuple[int, int]], list[int], int, int]:
        """The used machines that a job of the least weight leaves, in the
        load map's order, each as (its strategy index, its gap), every
        machine's join rank and the two least ranks, from the loads alone.

        A job on machine a moves exactly when joining her cheapest other
        machine costs less than staying.  Joining ranks the machines alike
        for every job: by load L_i in the linear model, where a job of
        weight w pays L_i + w, and by c(L_i + 1) in the conflicting one,
        whose jobs are all unit jobs.  So the two least ranks decide every
        job's cheapest other machine, in one pass over the used machines.
        The gap is staying's cost less the cheapest other rank: a job of
        weight w leaves when w < gap in the linear model, and every job
        leaves when 0 < gap in the conflicting one."""
        loads, cost = ev.loads, self._costs
        # an unused machine ranks as load 0
        if cost is None:
            rank = [0] * self.machine_count
            for a, load in loads.items():
                rank[a - 1] = load
        else:
            rank = [cost[1]] * self.machine_count
            for a, load in loads.items():
                rank[a - 1] = cost[load + 1]
        if len(rank) == 1:
            return [], rank, rank[0], rank[0]
        least, second = sorted(rank)[:2]
        leaving, floor = [], self._leave_floor
        for a, load in loads.items():
            # her cheapest other machine ranks second when hers ranks least
            stay = load if cost is None else cost[load]
            gap = stay - (second if rank[a - 1] == least else least)
            if gap > floor:
                leaving.append((a - 1, gap))
        return leaving, rank, least, second

    def _suboptimal(self, ev: Evaluation) -> tuple[PlayerId, ...]:
        # testing every job costs less than finding the moving groups
        leaving = self._load_verdict(ev)[0]
        if not leaving:
            return ()
        # every job on a machine the verdict names leaves in the conflicting
        # model, and in the linear one a job whose weight is below its gap
        gaps = [0] * self.machine_count
        for idx, gap in leaving:
            gaps[idx] = gap
        profile = ev.profile
        leaves = map(gaps.__getitem__, profile)
        if self._costs is None:
            leaves = map(lt, self._load_weights, leaves)
        return tuple(compress(range(1, len(profile) + 1), leaves))

    def _moving_groups(self, ev: Evaluation) -> list[tuple[int, tuple[int, ...]]]:
        """`Game._moving_groups` from the machine-level verdict.  With one
        class each leaving machine's group is headed by its first job, found
        by a C-level scan, and sorting the heads gives `_heads` order
        whatever the load map's order.  With several classes a head leaves
        when her weight is below her machine's gap.  A leaver joins one of
        the least-ranked machines, or, from one of them, the other machines
        of the second rank."""
        leaving, rank, least, second = self._load_verdict(ev)
        if not leaving:
            return []
        profile = ev.profile
        if self._job_weight is not None:
            index = profile.index
            heads = sorted([index(idx) for idx, _ in leaving])
        else:
            gaps, weights = dict(leaving), self._load_weights
            heads = [pos for pos in self._heads(profile)
                     if weights[pos] < gaps.get(profile[pos], 0)]
        groups, lowest = [], None
        for pos in heads:
            idx = profile[pos]
            if rank[idx] == least:
                others = tuple(i for i, r in enumerate(rank) if r == second and i != idx)
                groups.append((pos, others))
                continue
            if lowest is None:
                lowest = tuple(i for i, r in enumerate(rank) if r == least)
            groups.append((pos, lowest))
        return groups

    def _social_units(self, ev: Evaluation) -> int:
        # the makespan: the dearest used machine's cost, which its jobs pay
        loads = ev.loads.values()
        return max(loads) if self._costs is None else max(map(self._costs.__getitem__, loads))

    def _least_load(self, ev: Evaluation) -> int:
        """The least machine load, in the load unit."""
        loads = ev.loads
        # the keys are the used machines: an unused one has load 0
        return min(loads.values()) if len(loads) == self.machine_count else 0

    def _unit_resource_cost(self, resource: ResourceId, multiplicity: int) -> Fraction:
        return self.job_cost_at_load(Fraction(multiplicity))

    def canonical_br_pick(self, at: Profile | Evaluation, player: PlayerId) -> int:
        """Deterministic best-response target.

        Conflicting model: prefer the least loaded tied target (joining a
        light machine is what keeps it alive), and among equal loads the
        highest index, the convention that keeps the load-sorted relabeling
        fixed along the dynamics.  Linear model: lowest machine index.
        """
        ev = self.evaluate(at)
        br = ev.cell(self.position_of(player)).br
        if not self.is_conflicting:
            return min(br)
        loads = ev.loads
        return min(br, key=lambda idx: (loads.get(idx + 1, 0), -idx))

    def state_vector(self, at: Profile | Evaluation, player: PlayerId) -> SchedStateVector:
        ev = self.evaluate(at)
        pos = self.position_of(player)
        return SchedStateVector(
            length=self._weights[pos],
            machine=self._spaces[pos][ev.profile[pos]][0],
            loads=self.loads(ev),
        )


# -- conflicting-model structure ------------------------------------------------


def l_star(activation_cost: Fraction | int | str) -> int:
    """Integer load minimizing c(l) = l + B/l, checking the two integers
    around sqrt(B) and preferring the lower on a tie; at least 1."""
    b = Fraction(activation_cost)
    if b <= 0:
        raise SchedulingError("activation cost must be positive")
    root = math.isqrt(math.floor(b))
    lo = max(root, 1)
    hi = root + 1
    c_lo = lo + b / lo
    c_hi = hi + b / hi
    return lo if c_lo <= c_hi else hi


def stays_active(
    sorted_loads: Sequence[Fraction | int],
    j: int,
    n: int,
    activation_cost: Fraction | int | str,
) -> bool:
    """Whether machine j (1-based into the ascending initial load vector) can
    remain active in some reachable equilibrium: always for the top machine,
    otherwise iff (n - l_j) / (m - j) > B / (l_j + 1)."""
    loads = [Fraction(x) for x in sorted_loads]
    if any(loads[i] > loads[i + 1] for i in range(len(loads) - 1)):
        raise SchedulingError("loads must be sorted ascending")
    m = len(loads)
    if not 1 <= j <= m:
        raise SchedulingError(f"machine index {j} out of range 1..{m}")
    b = Fraction(activation_cost)
    if j == m:
        return True
    lj = loads[j - 1]
    return Fraction(n - lj, m - j) > b / (lj + 1)


def max_active_machines(
    game: SchedulingGame, profile: Profile, state_limit: int = DEFAULT_STATE_LIMIT
) -> int:
    """Number of active machines in a best reachable equilibrium.

    Computed over the reachable equilibria themselves (the unit jobs make
    the load-vector quotient small); the stay-active criterion alone can
    misjudge boundary instances.
    """
    if not game.is_conflicting:
        raise UnsupportedModelError("active-machine analysis needs the conflicting model")
    best_profile, _ = reachable_ne(game, profile, state_limit=state_limit).best()
    return sum(1 for load in game.loads(best_profile) if load > 0)


def machine_is_suboptimal(game: SchedulingGame, profile: Profile, machine: MachineId) -> bool:
    """A machine is suboptimal when the jobs it processes are; unit jobs on
    one machine all agree, so testing one of them suffices."""
    for player in game.players:
        if game.machine_of(profile, player) == machine:
            return game.is_suboptimal(profile, player)
    return False


def s_opt_choose(game: SchedulingGame, profile: Profile) -> MachineId | None:
    """One step of the optimal local deviator rule for the conflicting model.

    Return the highest-loaded active machine when it is high and suboptimal,
    else the lowest-loaded active machine when that is suboptimal, else None
    to signal an equilibrium.  Load ties resolve to the highest index at the
    top and the lowest index at the bottom, consistent with the fixed
    load-order relabeling.
    """
    if not game.is_conflicting:
        raise UnsupportedModelError("the optimal rule is for the conflicting model")
    assert game.activation_cost is not None
    loads = game.loads(profile)
    active = [m for m in range(1, game.machine_count + 1) if loads[m - 1] > 0]
    star = l_star(game.activation_cost)
    top = max(active, key=lambda m: (loads[m - 1], m))
    if loads[top - 1] >= star and machine_is_suboptimal(game, profile, top):
        return top
    bottom = min(active, key=lambda m: (loads[m - 1], m))
    if machine_is_suboptimal(game, profile, bottom):
        return bottom
    return None
