"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Totals, Tracer, self_times  # noqa: E402


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", ["query", "chain", "dynamics"])
def test_same_seed_gives_byte_identical_instance_files(tmp_path, name):
    runs = []
    for seed in (7, 7, 8):
        work = tmp_path / f"{len(runs)}"
        work.mkdir()
        workloads.WORKLOADS[name](random.Random(seed), work)
        runs.append(_files(work))
    assert runs[0] and runs[0] == runs[1]
    assert runs[2] != runs[0]


def test_self_time_on_nested_span_tree():
    # op [0, 10] holds a [1, 4] and a [5, 9]; the first a holds b [2, 3]
    parents = [ROOT, 0, 1, 0]
    names = [0, 1, 2, 1]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, names, starts, ends) == {
        0: (1, 10.0 - 3.0 - 4.0),
        1: (2, (3.0 - 1.0) + 4.0),
        2: (1, 1.0),
    }


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf(fail: bool) -> None:
        sum(range(2000))
        if fail:
            raise KeyError("boom")

    leaf = tracer.wrap("leaf", leaf)

    def middle() -> None:
        leaf(False)
        try:
            leaf(True)
        except KeyError:
            pass

    middle = tracer.wrap("middle", middle)
    root = tracer.wrap("root", lambda: [middle() for _ in range(3)])
    root()
    assert not tracer.kept["start"]  # spans are kept when the op is folded
    tracer.fold(keep=True)
    totals = tracer.take()
    assert totals.ops == 1
    assert dict(totals.calls) == {"root": 1, "middle": 3, "leaf": 6}
    assert dict(totals.errors) == {"leaf": 3}
    kept = tracer.kept
    root_duration = kept["end"][0] - kept["start"][0]
    assert sum(totals.self_s.values()) == pytest.approx(root_duration, rel=1e-9)
    assert all(p == ROOT or p < i for i, p in enumerate(kept["parent"]))


def test_digest_ignores_search_statistics_and_witnesses():
    answer = {"alpha": "1/1", "ne_costs": ["3/2", "2/1"], "best_cost": "3/2", "ne_count": 2}
    noisy = {**answer, "visited": 10, "oracle_visited": 7, "rule_visited": 3,
             "rule_witness": {"moves": [1]}, "optimal_witness": {"moves": [2]}}
    other = {**noisy, "visited": 99, "oracle_visited": 1, "rule_visited": 1,
             "rule_witness": {"moves": []}, "optimal_witness": {"moves": [3, 4]}}
    digest = workloads.answer_digest([answer])
    assert workloads.answer_digest([noisy]) == digest
    assert workloads.answer_digest([other]) == digest
    assert workloads.answer_digest([{**answer, "alpha": "2/1"}]) != digest
    assert workloads.answer_digest([{**answer, "ne_costs": ["3/2"]}]) != digest


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = run.per_layer_metrics(Totals(), Totals(), 0, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]


def test_query_stratification_counts_the_search_states():
    from brdlab import core, oracle, rules, scheduling

    rng = random.Random(5)
    for m, n in [(2, 6), (3, 9), (4, 10), (5, 12)]:
        for b in workloads.QUERY_ACTIVATION[::5]:
            choices = tuple(rng.randrange(m) for _ in range(n))
            game = scheduling.SchedulingGame(m, [1] * n, activation_cost=b)
            p0 = core.Profile(choices)
            ranks = workloads._cost_ranks(b, n)
            loads = tuple(sorted(choices.count(j) for j in range(m)))
            visited = oracle.reachable_ne(game, p0).stats.visited
            assert workloads._coco_states(ranks, loads) == visited
            report = oracle.rule_inefficiency(game, p0, rules.make_rule("s-opt"))
            star = workloads._l_star(b)
            assert star == scheduling.l_star(b)
            assert workloads._s_opt_states(ranks, star, choices, m) == report.rule_visited
