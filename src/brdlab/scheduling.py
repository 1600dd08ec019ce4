"""Job scheduling games on identical machines.

Two models share one class.  In the linear model each job has a length and
pays the total load of its machine.  In the conflicting-congestion model all
jobs are unit length, machines carry an activation cost B shared equally, and
a job on a machine with load L pays c(L) = L + B/L, so congestion both hurts
(load) and helps (smaller activation share).

Both models decide best responses from the machine loads alone, in one
verdict (`SchedulingGame._load_verdict`), so `suboptimal_players`, the
oracle's moves and an equilibrium's makespan build no cell.

The structural theory for the conflicting model lives here too: the optimal
per-load cost l*, the stay-active criterion for a machine, the count of
active machines in a best reachable equilibrium, and the machine-choosing
optimal deviator step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
        # before the strategy lists are built; B in it needs no per-load
        # table, since the unit has O(n) bits
        b = self.activation_cost
        u = None if b is None else b.denominator * share_unit(len(lengths))
        spaces = [[(m,) for m in range(1, machine_count + 1)]] * len(lengths)
        super().__init__(spaces, lengths, SocialCostKind.MAKESPAN)
        self._cost_unit = self._load_unit if u is None else u
        self._scaled_b = None if u is None else b.numerator * (u // b.denominator)

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
        return joined if self._scaled_b is None else list(map(self._unit_cost, joined))

    def _load_verdict(
        self, ev: Evaluation, positions: Iterable[int]
    ) -> tuple[list[int], list[int]]:
        """The suboptimal jobs among `positions`, in their order, and each
        machine's join rank, from the loads alone.

        A job on machine a moves exactly when joining her cheapest other
        machine costs less than staying.  Joining ranks the machines alike
        for every job: by load L_i in the linear model, where a job of
        weight w pays L_i + w, and by c(L_i + 1) in the conflicting one,
        whose jobs are all unit jobs.  So the two least ranks decide every
        job's cheapest other machine, in O(m) per profile."""
        loads, profile, linear = ev.loads, ev.profile, self._scaled_b is None
        load = [loads.get(i, 0) for i in range(1, self.machine_count + 1)]
        rank = load if linear else [self._unit_cost(k + 1) for k in load]
        if len(rank) == 1:
            return [], rank
        least, second = sorted(rank)[:2]
        # per used machine, the cost of staying less the cheapest other rank
        stay = loads if linear else {a: self._unit_cost(L) for a, L in loads.items()}
        gap = {a - 1: cost - (second if rank[a - 1] == least else least)
               for a, cost in stay.items()}
        if linear:
            weights = self._load_weights
            return [pos for pos in positions if weights[pos] < gap[profile[pos]]], rank
        return [pos for pos in positions if gap[profile[pos]] > 0], rank

    def _suboptimal(self, ev: Evaluation) -> tuple[PlayerId, ...]:
        # testing every job costs less than finding the moving groups
        movers, _ = self._load_verdict(ev, range(len(ev.profile)))
        return tuple(pos + 1 for pos in movers)

    def _moving_groups(self, ev: Evaluation) -> list[tuple[int, tuple[int, ...]]]:
        profile = ev.profile
        movers, rank = self._load_verdict(ev, self._heads(profile))
        groups, lowest, least = [], None, min(rank)
        for pos in movers:
            idx = profile[pos]
            if rank[idx] != least:
                # a mover off the least-ranked machines joins one of them
                lowest = lowest or tuple(i for i, r in enumerate(rank) if r == least)
                groups.append((pos, lowest))
            else:
                best = min(r for i, r in enumerate(rank) if i != idx)
                groups.append((pos, tuple(i for i, r in enumerate(rank) if r == best and i != idx)))
        return groups

    def _unit_cost(self, load: int) -> int:
        """c(L) of a conflicting-model job on a machine of load L > 0."""
        return load * self._cost_unit + self._scaled_b // load

    def _social_units(self, ev: Evaluation) -> int:
        # the makespan: the dearest used machine's cost, which its jobs pay
        loads = ev.loads.values()
        return max(loads) if self._scaled_b is None else max(map(self._unit_cost, loads))

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
