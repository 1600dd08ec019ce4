"""The benchmark's four workloads: seeded inputs, one op each, answer gates.

`WORKLOADS[name](rng, work)` builds a workload's inputs from `rng` (writing
any instance files under `work`) and returns its ops in the order the client
cycles through them.  The shapes (player, machine and segment counts) are
fixed and interleaved, so a run's mix of cheap and dear ops does not depend
on the seed; the seed draws costs, job lengths, activation costs, interval
lengths and initial profiles.

An op's `run` is the timed part and touches brdlab only through its public
functions.  Its `check` runs outside the timed span: it reads the answer
fields from the output and raises `GateFailed` when an answer is wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb, floor, isqrt
from pathlib import Path
from typing import Any, Callable

# Fields that carry the answer of an op.  The digest leaves out search
# statistics (`visited`, `oracle_visited`, `rule_visited`) and witness move
# lists, which may change while the answers stay exact.
ANSWER_FIELDS = (
    "alpha", "ne_costs", "best_cost", "ne_count", "optimum", "terminal_cost", "run_trace",
)


class GateFailed(Exception):
    """An op returned, but its answer is wrong."""


class OpFailed(Exception):
    """A command exited non-zero."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    # canonical start profiles searched by the oracle, for `oracle.states_per_start`
    starts: int = 0


def answer_digest(answers: list[dict]) -> str:
    """sha256 over the answer fields of each op, in op order."""
    kept = [{k: a[k] for k in ANSWER_FIELDS if k in a} for a in answers]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def _cost(rng: random.Random) -> F:
    # generic costs, as in the c02/c05 pools: exact marginal-share ties vanish
    return F(rng.randint(1, 999_983), rng.randint(1, 9))


def _write(work: Path, name: str, game, profile) -> str:
    from brdlab import serde

    path = work / name
    path.write_text(serde.dumps(serde.instance_to_doc(game, profile)))
    return str(path)


def _cli(argv: list[str]) -> None:
    from brdlab import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"brdlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def _read(path: str) -> dict:
    return json.loads(Path(path).read_text())


# -- sweep -----------------------------------------------------------------------

# c02-shaped: 2-4 players on 2-6 parallel edges or a two-segment chain
SWEEP_TOPOLOGIES = (2, 3, 4, 5, 6, (2, 2), (2, 3), (3, 2))
SWEEP_PLAYERS = (2, 3, 4)
SWEEP_COPIES = 7
# Games with more canonical start profiles (4 players on 6 paths, ~1.3 s per
# op) are left out, so that a run holds at least 100 ops.
SWEEP_MAX_STARTS = 70


def sweep(rng: random.Random, work: Path) -> list[Op]:
    """`oracle.game_inefficiency` over every start profile of symmetric
    games, for min-path (alpha = 1, the c02 theorem) and max-cost."""
    from brdlab import networks, oracle, rules

    ops = []
    for copy in range(SWEEP_COPIES):
        for topology in SWEEP_TOPOLOGIES:
            for n in SWEEP_PLAYERS:
                if isinstance(topology, int):
                    edges = [networks.Edge(i, 0, 1, _cost(rng)) for i in range(1, topology + 1)]
                    sink, paths = 1, topology
                else:
                    a, b = topology
                    edges = [networks.Edge(i, 0, 1, _cost(rng)) for i in range(1, a + 1)]
                    edges += [networks.Edge(a + i, 1, 2, _cost(rng)) for i in range(1, b + 1)]
                    sink, paths = 2, a * b
                starts = comb(paths + n - 1, n)
                if starts > SWEEP_MAX_STARTS:
                    continue
                game = networks.NetworkFormationGame(
                    networks.Network(tuple(edges), source=0, sink=sink),
                    [networks.PlayerSpec(0, sink)] * n,
                )
                label = f"sweep n={n} topology={topology} copy={copy}"
                for rule_name in ("min-path", "max-cost"):
                    ops.append(Op(
                        f"{label} rule={rule_name}",
                        _sweep_run(oracle, game, rules.make_rule(rule_name)),
                        _sweep_check(rule_name),
                        starts=starts,
                    ))
    return ops


def _sweep_run(oracle, game, rule):
    return lambda: oracle.game_inefficiency(game, rule)


def _sweep_check(rule_name: str):
    def check(alpha: F) -> dict:
        if alpha < 1:
            raise GateFailed(f"alpha {alpha} < 1")
        if rule_name == "min-path" and alpha != 1:
            raise GateFailed(f"min-path alpha {alpha} != 1")
        return {"alpha": str(alpha)}

    return check


# -- query -----------------------------------------------------------------------

# c10-shaped conflicting-congestion instances: m machines and n jobs, n at
# the quarter points of m..20, B in 4.5..24.5; the initial profile is drawn
QUERY_MACHINES = (2, 3, 4, 5, 6)
QUERY_JOB_STRATA = 4
QUERY_MAX_JOBS = 20
QUERY_ACTIVATION = tuple(F(2 * b + 1, 2) for b in range(4, 25))
QUERY_COPIES = 5
# Each instance keeps one of QUERY_POOL seeded draws of its initial profile,
# chosen by search size (see _stratified_coco).  The oracle's cost varies by
# two orders of magnitude with the initial profile, so plain draws left
# op_p90_ms and ops_per_s up to the few heaviest draws of a seed.
QUERY_POOL = 160
QUERY_SCORED = 9
# An s-opt search state costs about 7 oracle states (fitted on op latencies)
QUERY_RULE_WEIGHT = 7
# The fixture queries join the first copy of every QUERY_FIXTURE_EVERY, here
# once per pass: each is one fixed latency, and as a large share of the ops
# they would make op_p90_ms jump between them.
QUERY_FIXTURE_EVERY = 5

# CLI fixtures at default parameters.  fig8 is left out: its oracle runs for
# minutes.  fig9a and appB get `oracle`, because max-cost's rule-reachable
# set on them takes over 20 s per query.
QUERY_FIXTURES = (
    ("fig2", "fig2_maxcost", 0, "ineff"),
    ("fig3", "fig3_minpath_chain", 0, "ineff"),
    ("fig4", "fig4_minpath_exp", 0, "ineff"),
    ("fig5a", "fig5_ep_pair", 0, "ineff"),
    ("fig5b", "fig5_ep_pair", 1, "ineff"),
    ("fig6", "fig6_weighted_partition", 0, "ineff"),
    ("fig7a", "fig7_weighted_local_pair", 0, "ineff"),
    ("fig7b", "fig7_weighted_local_pair", 1, "ineff"),
    ("fig9a", "fig9_sched_pair", 0, "oracle"),
    ("fig9b", "fig9_sched_pair", 1, "ineff"),
    ("appB", "appB_coco", 0, "oracle"),
)


def query(rng: random.Random, work: Path) -> list[Op]:
    """Single in-process `brdlab oracle` / `brdlab ineff` queries."""
    from brdlab import core, fixtures, scheduling

    fixture_ops = []
    built: dict[str, Any] = {}
    for name, builder, index, command in QUERY_FIXTURES:
        if builder not in built:
            built[builder] = getattr(fixtures, builder)()
        spec = built[builder]
        spec = spec[index] if isinstance(spec, tuple) else spec
        path = _write(work, f"{name}.json", spec.game, spec.initial)
        fixture_ops.append(
            _oracle_op(f"oracle {name}", path) if command == "oracle"
            else _ineff_op(f"ineff {name}", path, "max-cost", exact_alpha=False)
        )
    drawn = {
        (m, k): _stratified_coco(rng, m, m + (QUERY_MAX_JOBS - m) * (k + 1) // QUERY_JOB_STRATA, k)
        for m in QUERY_MACHINES for k in range(QUERY_JOB_STRATA)
    }
    ops = []
    for copy in range(QUERY_COPIES):
        coco_ops = []
        for m in QUERY_MACHINES:
            for k in range(QUERY_JOB_STRATA):
                b, choices = drawn[m, k][copy]
                n = len(choices)
                game = scheduling.SchedulingGame(m, [1] * n, activation_cost=b)
                p0 = core.Profile(choices)
                path = _write(work, f"coco-m{m}-{k}-{copy}.json", game, p0)
                coco_ops.append(_oracle_op(f"oracle coco m={m} n={n}", path))
                # s-opt reaches the best reachable equilibrium: the c10 theorem
                coco_ops.append(
                    _ineff_op(f"ineff coco m={m} n={n}", path, "s-opt", exact_alpha=True)
                )
        ops += _interleave(coco_ops, fixture_ops if copy % QUERY_FIXTURE_EVERY == 0 else [])
    return ops


def _stratified_coco(rng: random.Random, m: int, n: int, k: int) -> list[tuple[F, tuple[int, ...]]]:
    """QUERY_COPIES (B, initial machines) pairs for `n` unit jobs on `m`
    machines.  Each copy has its own B and draws QUERY_POOL profiles.
    Sorted by the oracle's search size, the draws are cut into QUERY_COPIES
    equal slices; the copy takes the QUERY_SCORED draws around the middle of
    its slice and keeps the median of them by `_query_work`, which adds the
    s-opt search that `ineff` also runs.  Slices go to copies in golden-ratio
    order, so that the copies a run reaches first already span light to
    heavy draws."""
    order = sorted(range(QUERY_COPIES), key=lambda c: (c * 0.6180339887498949) % 1)
    states: dict[tuple[F, tuple[int, ...]], int] = {}
    kept = []
    for copy in range(QUERY_COPIES):
        # half-integer B (tie-free), each shape stepping through them
        b = QUERY_ACTIVATION[(copy + m + k) % len(QUERY_ACTIVATION)]
        ranks = _cost_ranks(b, n)
        pool = []
        for i in range(QUERY_POOL):
            choices = tuple(rng.randrange(m) for _ in range(n))
            # machines are identical: the count depends on the sorted loads only
            key = (b, tuple(sorted(choices.count(j) for j in range(m))))
            if key not in states:
                states[key] = _coco_states(ranks, key[1])
            pool.append((states[key], i, choices))
        pool.sort()
        q = order.index(copy)
        middle = (2 * q + 1) * QUERY_POOL // (2 * QUERY_COPIES)
        near = pool[middle - QUERY_SCORED // 2: middle + QUERY_SCORED // 2 + 1]
        scored = sorted((_query_work(ranks, b, states_, choices, m), i, choices)
                        for states_, i, choices in near)
        kept.append((b, scored[len(scored) // 2][2]))
    return kept


def _query_work(ranks: list[int], b: F, states: int, choices: tuple[int, ...], m: int) -> int:
    """Search states of the `oracle` and `ineff --rule s-opt` queries on an
    instance, the s-opt ones weighted by their higher cost per state."""
    return states + QUERY_RULE_WEIGHT * _s_opt_states(ranks, _l_star(b), choices, m)


def _cost_ranks(b: F, n: int) -> list[int]:
    """rank[l] orders a job's cost l + b/l at loads 1..n+1; equal costs tie."""
    costs = [load + b / load for load in range(1, n + 2)]
    order = {c: r for r, c in enumerate(sorted(set(costs)))}
    return [0] + [order[c] for c in costs]


def _coco_states(rank: list[int], loads: tuple[int, ...]) -> int:
    """How many machine-load vectors best-response moves reach from `loads`
    in a conflicting-congestion game whose costs `rank` orders: the number
    of states `oracle.reachable_ne` visits, counted on small integers."""
    machines = range(len(loads))
    seen, stack = {loads}, [loads]
    while stack:
        s = stack.pop()
        # the rank of joining each machine; a mover picks among the cheapest
        # machines other than its own
        joined = [rank[load + 1] for load in s]
        low = min(joined)
        cheapest = [j for j in machines if joined[j] == low]
        if len(cheapest) == 1:
            alone = cheapest[0]
            second = min(r for j, r in enumerate(joined) if j != alone)
            runners_up = [j for j in machines if joined[j] == second and j != alone]
        else:
            alone = None
        for i in machines:
            if not s[i]:
                continue
            best, targets = (second, runners_up) if i == alone else (low, cheapest)
            if best >= rank[s[i]]:
                continue
            for j in targets:
                if j != i:
                    t = list(s)
                    t[i] -= 1
                    t[j] += 1
                    t = tuple(t)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
    return len(seen)


def _l_star(b: F) -> int:
    """The load in 1, 2, ... with the lowest cost l + b/l, the lower on a tie."""
    root = max(1, isqrt(floor(b)))
    return root if root + b / root <= root + 1 + b / (root + 1) else root + 1


def _s_opt_states(rank: list[int], star: int, choices: tuple[int, ...], m: int) -> int:
    """How many profiles `engine.reachable_by_rule` visits under s-opt from
    `choices` (job i on machine choices[i]): the top machine's lowest job
    moves when that machine is high and suboptimal, else the bottom
    machine's, else the lowest suboptimal job; each move branches over the
    mover's best responses."""
    machines = range(m)
    seen, stack = {choices}, [choices]
    while stack:
        s = stack.pop()
        loads = [0] * m
        for j in s:
            loads[j] += 1
        joined = [rank[load + 1] for load in loads]
        best = {}
        for i in machines:
            if loads[i]:
                r = min(joined[j] for j in machines if j != i)
                if r < rank[loads[i]]:
                    best[i] = r
        if not best:
            continue
        active = [i for i in machines if loads[i]]
        top = max(active, key=lambda i: (loads[i], i))
        bottom = min(active, key=lambda i: (loads[i], i))
        if top in best and loads[top] >= star:
            mover = s.index(top)
        elif bottom in best:
            mover = s.index(bottom)
        else:
            mover = min(p for p, i in enumerate(s) if i in best)
        i = s[mover]
        for j in machines:
            if j != i and joined[j] == best[i]:
                t = s[:mover] + (j,) + s[mover + 1:]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return len(seen)


def _interleave(major: list[Op], minor: list[Op]) -> list[Op]:
    """`minor` spread evenly through `major`."""
    out = []
    j = 0
    for i, op in enumerate(major):
        out.append(op)
        while j < len(minor) and (j + 1) * len(major) <= (i + 1) * len(minor):
            out.append(minor[j])
            j += 1
    return out + minor[j:]


def _oracle_op(label: str, path: str) -> Op:
    out = path + ".oracle.out"

    def check(_) -> dict:
        doc = _read(out)
        costs = [F(c) for c in doc["ne_costs"]]
        if doc["ne_count"] < 1 or len(costs) != doc["ne_count"]:
            raise GateFailed(f"ne_count {doc['ne_count']} vs costs {doc['ne_costs']}")
        if F(doc["best_cost"]) != min(costs):
            raise GateFailed(f"best_cost {doc['best_cost']} != min(ne_costs)")
        return {k: doc[k] for k in ("ne_count", "ne_costs", "best_cost")}

    return Op(label, lambda: _cli(["oracle", path, "--out", out]), check, starts=1)


def _ineff_op(label: str, path: str, rule: str, exact_alpha: bool) -> Op:
    out = path + f".{rule}.out"

    def check(_) -> dict:
        doc = _read(out)
        alpha = F(doc["alpha"])
        if alpha < 1 or (exact_alpha and alpha != 1):
            raise GateFailed(f"{rule} alpha {doc['alpha']}")
        if F(doc["best_cost"]) != min(F(c) for c in doc["ne_costs"]):
            raise GateFailed(f"best_cost {doc['best_cost']} != min(ne_costs)")
        return {k: doc[k] for k in ("alpha", "ne_costs", "best_cost")}

    return Op(label, lambda: _cli(["ineff", path, "--rule", rule, "--out", out]), check, starts=1)


# -- chain -----------------------------------------------------------------------

# Chains have 2 edges per segment.  Single-source chains: every player
# starts at vertex 0, and one ending at segment t has 2^t paths.
CHAIN_SS_SEGMENTS = (4, 5, 6)
# Proper-interval chains: intervals of 1 to 4 segments.
CHAIN_PROPER_SEGMENTS = (6, 8, 10, 12)
CHAIN_MAX_INTERVAL = 4
# A copy with index k has n = m + m * (k % 4 + 1) // 4 players, so n spans m..2m.
CHAIN_COPIES = 16


def chain(rng: random.Random, work: Path) -> list[Op]:
    """`brdlab dp` then `brdlab check` on the trace it emitted."""
    from brdlab import sppdp

    def segments(m: int):
        ids = iter(range(1, 2 * m + 1))
        return tuple(
            tuple(sppdp.SppEdge(next(ids), _cost(rng)) for _ in range(2)) for _ in range(m)
        )

    def instance(m: int, intervals):
        segs = segments(m)
        return sppdp.SppInstance(segs, tuple(
            sppdp.SppPlayer(s, t, tuple(rng.choice(segs[j]).id for j in range(s, t)))
            for s, t in intervals
        ))

    single, proper = [], []
    for copy in range(CHAIN_COPIES):
        for m in CHAIN_SS_SEGMENTS:
            n = m + m * (copy % 4 + 1) // 4
            # targets spread evenly over 1..m, the first at m
            targets = [m - j * m // n for j in range(n)]
            inst = instance(m, [(0, t) for t in targets])
            single.append(_dp_op(work, f"ss-m{m}-{copy}", inst, "single-source"))
        for m in CHAIN_PROPER_SEGMENTS:
            n = m + m * (copy % 4 + 1) // 4
            # sources spread evenly over 0..m-1 (n >= m covers every segment);
            # non-decreasing targets keep the intervals proper
            intervals = []
            for j in range(n):
                s = j * m // n
                t = s + rng.randint(1, CHAIN_MAX_INTERVAL)
                intervals.append((s, min(m, max([t] + [iv[1] for iv in intervals[-1:]]))))
            proper.append(_dp_op(work, f"pi-m{m}-{copy}", instance(m, intervals), "proper"))
    return _interleave(single, proper)


def _dp_op(work: Path, name: str, instance, mode: str) -> Op:
    game, p0 = instance.to_game()
    path = _write(work, f"{name}.json", game, p0)
    out, trace = path + ".dp.out", path + ".trace"

    def run() -> None:
        _cli(["dp", path, "--mode", mode, "--out", out])
        Path(trace).write_text(json.dumps(_read(out)["trace"]))
        _cli(["check", trace, path])

    def check(_) -> dict:
        doc = _read(out)
        if F(doc["optimum"]) != F(doc["terminal_cost"]):
            raise GateFailed(f"optimum {doc['optimum']} != terminal {doc['terminal_cost']}")
        return {k: doc[k] for k in ("optimum", "terminal_cost")}

    return Op(f"dp {mode} {name} n={instance.n}", run, check)


# -- dynamics --------------------------------------------------------------------

# n runs over DYN_STRATA evenly spaced job counts in 24..56; every rule meets
# each of them DYN_COPIES times per kind
DYN_MACHINES = (6, 7, 8, 9, 10)
DYN_JOBS = (24, 56)
DYN_STRATA = 6
DYN_COPIES = 4
LINEAR_RULES = ("max-cost", "max-improvement", "longest-job", "round-robin", "random")
COCO_RULES = LINEAR_RULES + ("s-opt",)


def dynamics(rng: random.Random, work: Path) -> list[Op]:
    """`brdlab run` under each applicable rule, then `brdlab check`."""
    from brdlab import core, scheduling

    linear, coco = [], []
    for k in list(range(DYN_STRATA)) * DYN_COPIES:
        for kind, rules, bucket in (("linear", LINEAR_RULES, linear), ("coco", COCO_RULES, coco)):
            for rule in rules:
                m = DYN_MACHINES[(k + len(bucket)) % len(DYN_MACHINES)]
                n = DYN_JOBS[0] + (DYN_JOBS[1] - DYN_JOBS[0]) * k // (DYN_STRATA - 1)
                if kind == "linear":
                    lengths = [F(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(n)]
                    game = scheduling.SchedulingGame(m, lengths)
                else:
                    b = F(2 * rng.randint(4, 24) + 1, 2)
                    game = scheduling.SchedulingGame(m, [1] * n, activation_cost=b)
                p0 = core.Profile(tuple(rng.randrange(m) for _ in range(n)))
                name = f"{kind}-{len(bucket)}"
                path = _write(work, f"{name}.json", game, p0)
                bucket.append(_run_op(f"run {rule} {name} m={m} n={n}", path, rule, rng.randrange(2**31)))
    return _interleave(linear, coco)


def _run_op(label: str, path: str, rule: str, seed: int) -> Op:
    out = path + f".{rule}.trace"

    def run() -> None:
        _cli(["run", path, "--rule", rule, "--seed", str(seed), "--out", out])
        _cli(["check", out, path])

    def check(_) -> dict:
        doc = _read(out)
        if doc["terminal_is_ne"] is not True:
            raise GateFailed("terminal is not an equilibrium")
        return {"run_trace": doc}

    return Op(label, run, check)


# Workloads whose op list takes a few seconds: a run goes on to the end of the
# pass in progress, so that every op weighs the same in its percentiles.
# sweep and dynamics take longer than a run for one pass and rely on
# interleaving; chain runs many passes of cheap ops.
WHOLE_PASSES = ("query",)

WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "sweep": sweep,
    "query": query,
    "chain": chain,
    "dynamics": dynamics,
}
