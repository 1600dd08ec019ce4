"""Malformed instance and trace documents through the command line.

Every document, however broken, must end in exit code 0, 2 or 3: no
exception may escape `cli.main`.  The documents are small fixture instances
and their traces with a few fields deleted, replaced by hostile JSON values
or added; the explicit examples are inputs that once escaped as tracebacks,
never finished or passed `check`.
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from brdlab.cli import main
from brdlab.engine import LowestIdRule, run_brd
from brdlab.fixtures import (
    fig2_maxcost,
    fig3_minpath_chain,
    fig4_minpath_exp,
    fig7_weighted_local_pair,
)
from brdlab.rules import max_cost, min_path
from brdlab.scheduling import SchedulingGame
from brdlab.serde import instance_to_doc, trace_to_doc

RULES = ("max-cost", "min-path", "max-improvement", "longest-job", "round-robin", "s-opt")
# hostile JSON values, and plausible ones so that some mutants still run
VALUES = (
    None, True, 0, -1, 2, 99, 10**9, 1.5, "", "x", "0/1", "-1/2", "1/0", "1e999999",
    [], [1], [[1]], {}, {"1": 1}, 1, 3, "1/1", "3/2", "7/1",
)


def _base_cases():
    fixtures = (fig2_maxcost(n=3), fig4_minpath_exp(m=2), fig7_weighted_local_pair()[0])
    games = [(fx.game, fx.initial) for fx in fixtures]
    sched = SchedulingGame(3, [1, 2, 3, 1])
    coco = SchedulingGame(2, [1] * 5, activation_cost=6)
    games += [
        (sched, sched.profile_from_strategies([(1,)] * 4)),
        (coco, coco.profile_from_strategies([(1,)] * 4 + [(2,)])),
    ]
    out = []
    for game, p0 in games:
        trace = run_brd(game, p0, LowestIdRule())
        assert trace.moves
        out.append((instance_to_doc(game, p0), trace_to_doc(game, trace)))
    return out


BASES = _base_cases()
NFG, _ = BASES[0]
SCHED, _ = BASES[3]
COCO, COCO_TRACE = BASES[4]

_DELETE = object()


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edited(doc, *path, value=_DELETE):
    """A copy of `doc` with the value at `path` replaced, or deleted."""
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """A copy of `doc` after up to three deletions, replacements or
    additions."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(("replace", "delete", "add")))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        if not path:
            doc = value if action == "replace" else doc
            continue
        parent = _at(doc, path[:-1])
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
    return doc


@st.composite
def cases(draw):
    """(command, instance document, trace document or None)."""
    instance, trace = draw(st.sampled_from(BASES))
    command = draw(st.sampled_from(("run", "oracle", "ineff", "check")))
    if command == "check":
        if draw(st.booleans()):
            return command, instance, draw(mutated(trace))
        return command, draw(mutated(instance)), trace
    return command, draw(mutated(instance)), None


def run_cli(command, instance, trace, rule="max-cost", limit=2000):
    with tempfile.TemporaryDirectory() as tmp:
        instance_path = Path(tmp) / "instance.json"
        instance_path.write_text(json.dumps(instance))
        if command == "check":
            trace_path = Path(tmp) / "trace.json"
            trace_path.write_text(json.dumps(trace))
            argv = ["check", str(trace_path), str(instance_path)]
        elif command == "oracle":
            argv = ["oracle", str(instance_path), "--state-limit", str(limit)]
        elif command == "ineff":
            argv = ["ineff", str(instance_path), "--rule", rule, "--state-limit", str(limit)]
        else:
            argv = ["run", str(instance_path), "--rule", rule, "--max-steps", str(limit)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)


def _move(trace, **fields):
    return edited(trace, "moves", 0, value={**trace["moves"][0], **fields})


def _traced(fixture, rule):
    """The instance and trace documents of one run of `rule` on `fixture`."""
    trace = run_brd(fixture.game, fixture.initial, rule)
    return instance_to_doc(fixture.game, fixture.initial), trace_to_doc(fixture.game, trace)


FIG2, FIG2_TRACE = _traced(fig2_maxcost(), max_cost())
FIG3, FIG3_TRACE = _traced(fig3_minpath_chain(), min_path())
FIG3_SAME_STEPS = edited(
    FIG3_TRACE, "moves", value=[{**m, "step": 7} for m in FIG3_TRACE["moves"]]
)


# inputs that escaped as tracebacks, never finished, passed `check` or ran
# although malformed (an aliased player id such as " 1" or "01" once
# overwrote the key "1"); each must exit 2
REPRODUCED = [
    ("oracle", edited(NFG, "graph", "edges", 0, "cost"), None),
    ("run", edited(NFG, "graph", "edges", 0, "cost"), None),
    ("oracle", edited(COCO, "B"), None),
    ("run", edited(COCO, "B"), None),
    ("oracle", [NFG], None),
    ("oracle", edited(NFG, "players", value={"1": {}}), None),
    ("oracle", edited(NFG, "players", 0, value="player"), None),
    ("oracle", edited(SCHED, "players", 0, value="job"), None),
    ("check", COCO, edited(COCO_TRACE, "moves", 0, "step")),
    ("check", COCO, edited(COCO_TRACE, "terminal")),
    ("check", COCO, edited(COCO_TRACE, "initial", value=[1, 1])),
    ("check", COCO, _move(COCO_TRACE, player=99)),
    ("check", COCO, _move(COCO_TRACE, player=0)),
    ("oracle", edited(SCHED, "players", 0, "length", value="1e999999"), None),
    ("run", edited(SCHED, "machines", value=10**9), None),
    ("oracle", edited(COCO, "machines", value=10**9), None),
    ("check", FIG2, edited(FIG2_TRACE, "terminal_is_ne", value="false")),
    ("check", FIG2, edited(FIG2_TRACE, "terminal_is_ne", value="no")),
    ("check", FIG2, edited(FIG2_TRACE, "terminal_is_ne", value=[0])),
    ("check", FIG3, FIG3_SAME_STEPS),
    ("check", FIG3, edited(FIG3_TRACE, "moves", 1, "step", value=True)),
    ("oracle", edited(FIG2, "graph", "source", value=False), None),
    ("oracle", edited(FIG2, "graph", "nodes", value="not a list"), None),
    ("oracle", edited(FIG2, "graph", "nodes", value=[0, 1, 7]), None),
    ("oracle", edited(SCHED, "initial", " 1", value=SCHED["initial"]["1"]), None),
    ("check", COCO, edited(COCO_TRACE, "terminal", "01", value=COCO_TRACE["terminal"]["1"])),
    ("oracle", edited(NFG, "players", 0, "weight", value="2/1"), None),
    ("oracle", edited(SCHED, "initial", "1", value=[1]), None),
]


def _reproduced_examples(test):
    for case in REPRODUCED:
        test = example(case=case, rule="max-cost", limit=2000)(test)
    return test


@given(case=cases(), rule=st.sampled_from(RULES), limit=st.sampled_from((1, 3, 2000)))
@settings(max_examples=150, deadline=None)
@_reproduced_examples
def test_malformed_documents_exit_cleanly(case, rule, limit):
    assert run_cli(*case, rule=rule, limit=limit) in (0, 2, 3)


def test_reproduced_cases_exit_2():
    assert [run_cli(*case) for case in REPRODUCED] == [2] * len(REPRODUCED)
