"""Which public brdlab functions the traced run wraps, and how layer counts
are read from their return values.

Each span is patched where it is looked up: a module-level function in every
brdlab module that bound it with `from ... import` (for example
`sppdp.run_scripted`, `oracle.reachable_by_rule`, `cli.reachable_ne`), and a
method on every class that defines it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer

# src/brdlab/<module>.py per layer, for the static `<layer>.sloc` metric
LAYERS = (
    "core", "networks", "scheduling", "engine", "rules",
    "oracle", "sppdp", "serde", "cli", "fixtures",
)

FIXTURE_BUILDERS = (
    "fig2_maxcost", "fig3_minpath_chain", "fig4_minpath_exp", "fig5_ep_pair",
    "fig6_weighted_partition", "fig7_weighted_local_pair",
    "fig8_weighted_minpath", "fig9_sched_pair", "appB_coco",
)

# span name -> the names it covers: (module, function) or (module, Class.method)
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.suboptimal_players": (("core", "Game.suboptimal_players"),),
    "core.best_response": (
        ("core", "Game.best_response"),
        ("core", "Game.is_suboptimal"),
        ("core", "Game.canonical_br_pick"),
        ("scheduling", "SchedulingGame.canonical_br_pick"),
    ),
    "core.player_cost": (("core", "Game.player_cost"),),
    "core.social_cost": (("core", "Game.social_cost"),),
    "networks.game_build": (("networks", "NetworkFormationGame.__init__"),),
    "networks.state_vector": (("networks", "NetworkFormationGame.state_vector"),),
    "scheduling.state_vector": (("scheduling", "SchedulingGame.state_vector"),),
    "scheduling.loads": (("scheduling", "SchedulingGame.loads"),),
    "engine.run_brd": (("engine", "run_brd"),),
    "engine.reachable_by_rule": (("engine", "reachable_by_rule"),),
    "engine.run_scripted": (("engine", "run_scripted"),),
    "engine.state_vectors": (("engine", "state_vectors"),),
    "rules.choose": (),  # `choose` of every DeviatorRule subclass defining it
    "oracle.reachable_ne": (("oracle", "reachable_ne"),),
    "oracle.witness": (("oracle", "ReachableSet.witness"),),
    "sppdp.dp": (("sppdp", "dp_single_source"), ("sppdp", "dp_proper_intervals")),
    "sppdp.replay": (("sppdp", "replay"),),
    "serde.instance_from_doc": (("serde", "instance_from_doc"),),
    "serde.trace_to_doc": (("serde", "trace_to_doc"),),
    "serde.verify_trace": (("serde", "verify_trace"),),
    "serde.dumps": (("serde", "dumps"),),
    "cli.main": (("cli", "main"),),
    "fixtures.build": tuple(("fixtures", name) for name in FIXTURE_BUILDERS),
}

# counts read from public return values: (count, span, reader, unit per op)
COUNTS = (
    ("networks.paths", "networks.game_build",
     lambda args, result: sum(len(args[0].strategy_space(i)) for i in args[0].players), "1/op"),
    ("engine.rule_states", "engine.reachable_by_rule",
     lambda args, result: result.visited, "1/op"),
    ("engine.moves", "engine.run_brd", lambda args, result: len(result.moves), "1/op"),
    ("engine.moves", "engine.run_scripted", lambda args, result: len(result.moves), "1/op"),
    ("oracle.states", "oracle.reachable_ne", lambda args, result: result.stats.visited, "1/op"),
    ("sppdp.table_entries", "sppdp.dp", lambda args, result: len(result.opt), "1/op"),
    ("sppdp.cleanup_moves", "sppdp.replay",
     lambda args, result: len(result.moves) - len(args[1].skeleton), "1/op"),
    ("serde.bytes_out", "serde.dumps", lambda args, result: len(result.encode()), "B/op"),
)


def _counter(span: str):
    readers = [(count, read) for count, s, read, _ in COUNTS if s == span]
    if not readers:
        return None

    def on_return(counts, args, result):
        for count, read in readers:
            counts[count] += read(args, result)

    return on_return


def _rule_classes() -> list[type]:
    todo, out = [sys.modules["brdlab.engine"].DeviatorRule], []
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "choose" in vars(cls) and not getattr(cls.choose, "__isabstractmethod__", False):
            out.append(cls)
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every span of `SPANS` in the currently imported brdlab.  Returns
    the targets that no longer exist; their spans read zero."""
    brdlab = [mod for name, mod in sys.modules.items()
              if name == "brdlab" or name.startswith("brdlab.")]
    missing = []
    for span, targets in SPANS.items():
        on_return = _counter(span)
        for module, attr in targets:
            mod = sys.modules[f"brdlab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or method not in vars(cls):
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(cls, method, tracer.wrap(span, vars(cls)[method], on_return))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapped = tracer.wrap(span, original, on_return)
            for other in brdlab:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    for cls in _rule_classes():
        setattr(cls, "choose", tracer.wrap("rules.choose", vars(cls)["choose"]))
    return missing


def sloc(src: Path) -> dict[str, int]:
    """Non-blank, non-comment lines of src/brdlab/<layer>.py."""
    out = {}
    for layer in LAYERS:
        lines = (src / "brdlab" / f"{layer}.py").read_text().splitlines()
        out[layer] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out
