"""Job scheduling games on identical machines.

Two models share one class.  In the linear model each job has a length and
pays the total load of its machine.  In the conflicting-congestion model all
jobs are unit length, machines carry an activation cost B shared equally, and
a job on a machine with load L pays c(L) = L + B/L, so congestion both hurts
(load) and helps (smaller activation share).

The structural theory for the conflicting model lives here too: the optimal
per-load cost l*, the stay-active criterion for a machine, the count of
active machines in a best reachable equilibrium, and the machine-choosing
optimal deviator step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Game,
    GameError,
    PlayerId,
    Profile,
    ResourceId,
    SocialCostKind,
    UnsupportedModelError,
    ZERO,
)

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
    """

    def __init__(
        self,
        machine_count: int,
        job_lengths: Sequence[Fraction | int | str],
        activation_cost: Fraction | int | str | None = None,
    ) -> None:
        if machine_count < 1:
            raise SchedulingError("need at least one machine")
        lengths = [Fraction(x) for x in job_lengths]
        if not lengths:
            raise SchedulingError("need at least one job")
        if any(x <= 0 for x in lengths):
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
        spaces = [[(m,) for m in range(1, machine_count + 1)]] * len(lengths)
        super().__init__(spaces, lengths, SocialCostKind.MAKESPAN)

    @property
    def is_conflicting(self) -> bool:
        return self.activation_cost is not None

    def machine_of(self, profile: Profile, player: PlayerId) -> MachineId:
        return self.strategy_of(profile, player)[0]

    def loads(self, profile: Profile) -> tuple[Fraction, ...]:
        _, weights = self._full_loads(profile)
        return tuple(weights.get(m, ZERO) for m in range(1, self.machine_count + 1))

    def job_cost_at_load(self, load: Fraction) -> Fraction:
        """c(x) = x + B/x in the conflicting model, x itself otherwise."""
        if load <= 0:
            raise SchedulingError("cost is defined for positive load only")
        if self.activation_cost is None:
            return load
        return load + self.activation_cost / load

    def _cost_against(self, player, strategy, counts, weights):
        machine = strategy[0]
        load = weights.get(machine, ZERO) + self.weight(player)
        return self.job_cost_at_load(load)

    def _unit_resource_cost(self, resource: ResourceId, multiplicity: int) -> Fraction:
        return self.job_cost_at_load(Fraction(multiplicity))

    def canonical_br_pick(self, profile: Profile, player: PlayerId) -> int:
        """Deterministic best-response target.

        Conflicting model: prefer the least loaded tied target (joining a
        light machine is what keeps it alive), and among equal loads the
        highest index, the convention that keeps the load-sorted relabeling
        fixed along the dynamics.  Linear model: lowest machine index.
        """
        br = self.best_response(profile, player)
        if not self.is_conflicting:
            return min(br)
        loads = self.loads(profile)
        return min(br, key=lambda idx: (loads[idx], -idx))

    def state_vector(self, profile: Profile, player: PlayerId) -> SchedStateVector:
        return SchedStateVector(
            length=self.weight(player),
            machine=self.machine_of(profile, player),
            loads=self.loads(profile),
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
    game: SchedulingGame, profile: Profile, state_limit: int = 5_000_000
) -> int:
    """Number of active machines in a best reachable equilibrium.

    Computed over the reachable equilibria themselves (the unit jobs make
    the load-vector quotient small); the stay-active criterion alone can
    misjudge boundary instances.
    """
    if not game.is_conflicting:
        raise UnsupportedModelError("active-machine analysis needs the conflicting model")
    from .oracle import reachable_ne

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
