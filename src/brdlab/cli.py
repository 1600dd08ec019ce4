"""Command-line front end.

Subcommands: run (dynamics under a rule), oracle (enumerate reachable
equilibria), ineff (rule inefficiency report), dp (optimal sequences on SPP
chains), fixture (materialize a benchmark instance), check (replay-verify a
trace).  Invalid input exits 2, exhausted budgets exit 3, success exits 0;
`main` returns the code, for argparse's usage errors and `--help` too.
`--out` overwrites its file in place, then cuts a regular file to the
document's length: truncating first costs ten times as much on ext4 mounted
with `discard`.  The write is not atomic.

`main` builds the argparse tree once per process, on its first call, and
reuses it for every later call; `build_parser` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import stat
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import fixtures as fx
from .engine import (
    DEFAULT_MAX_STEPS, CycleDetected, StateBudgetExceeded, StepBudgetExceeded, run_brd
)
from .networks import NetworkFormationGame
from .oracle import DEFAULT_STATE_LIMIT, reachable_ne, rule_inefficiency
from .rules import make_rule
from .serde import (
    ReplayError,
    dumps,
    fmt_rational,
    instance_from_doc,
    instance_to_doc,
    parse_rational,
    profile_to_doc,
    report_to_doc,
    trace_from_doc,
    trace_to_doc,
    verify_trace,
)
from .sppdp import SppError, dp_proper_intervals, dp_single_source, from_network_game, replay

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(ValueError):
    """Invalid command-line input."""


def _read_json(path: str, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _load_instance(path: str):
    return instance_from_doc(_read_json(path, "instance"))


def _overwrite(path: str, data: bytes) -> None:
    """Write `data` over `path` and cut a regular file to its length."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(doc: dict[str, Any], out: str | None) -> None:
    text = dumps(doc)
    if out:
        _overwrite(out, text.encode())
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    rule = make_rule(args.rule, seed=args.seed)
    trace = run_brd(game, p0, rule, max_steps=args.max_steps)
    _emit(trace_to_doc(game, trace), args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    reach = reachable_ne(game, p0, state_limit=args.state_limit)
    best_profile, best_cost = reach.best()
    doc = {
        "ne_count": len(reach.ne_profiles),
        "ne_costs": [fmt_rational(c) for c in reach.social_costs],
        "best_cost": fmt_rational(best_cost),
        "best_profile": profile_to_doc(game, best_profile),
        "visited": reach.stats.visited,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_ineff(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    rule = make_rule(args.rule, seed=args.seed)
    report = rule_inefficiency(
        game, p0, rule, game_id=args.instance, state_limit=args.state_limit
    )
    _emit(report_to_doc(game, report), args.out)
    return EXIT_OK


def _cmd_dp(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    if not isinstance(game, NetworkFormationGame):
        raise CliError("dp needs a network formation instance")
    instance = from_network_game(game, p0)
    if args.mode == "single-source":
        table = dp_single_source(instance)
    else:
        table = dp_proper_intervals(instance)
    trace = replay(instance, table, game)
    terminal_cost = game.social_cost(trace.terminal)
    if terminal_cost != table.optimum:
        raise SppError(
            f"the {table.mode} program's optimum {fmt_rational(table.optimum)} is not what "
            f"its replay reaches: {fmt_rational(terminal_cost)}"
        )
    doc = {
        "mode": table.mode,
        "optimum": fmt_rational(table.optimum),
        "terminal_cost": fmt_rational(terminal_cost),
        "skeleton": [
            {"player": player, "strategy": list(strategy)}
            for player, strategy in table.skeleton
        ],
        "trace": trace_to_doc(game, trace),
    }
    _emit(doc, args.out)
    return EXIT_OK


# each fixture's builder, and for the paired ones which of the pair it is
_FIXTURES: dict[str, tuple[Callable[..., Any], int | None]] = {
    "fig2": (fx.fig2_maxcost, None),
    "fig3": (fx.fig3_minpath_chain, None),
    "fig4": (fx.fig4_minpath_exp, None),
    "fig5a": (fx.fig5_ep_pair, 0),
    "fig5b": (fx.fig5_ep_pair, 1),
    "fig6": (fx.fig6_weighted_partition, None),
    "fig7a": (fx.fig7_weighted_local_pair, 0),
    "fig7b": (fx.fig7_weighted_local_pair, 1),
    "fig8": (fx.fig8_weighted_minpath, None),
    "fig9a": (fx.fig9_sched_pair, 0),
    "fig9b": (fx.fig9_sched_pair, 1),
    "appB": (fx.appB_coco, None),
}


def _parse_param(raw: str) -> tuple[str, Any]:
    """`key=value`; a comma makes a list, and a trailing one a one-element list."""
    if "=" not in raw:
        raise CliError(f"parameters look like key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    if "," in value:
        return key, tuple(parse_rational(x) for x in value.removesuffix(",").split(","))
    try:
        return key, int(value)
    except ValueError:
        return key, parse_rational(value)


def _cmd_fixture(args: argparse.Namespace) -> int:
    if args.name not in _FIXTURES:
        raise CliError(f"unknown fixture {args.name!r}; known: {', '.join(sorted(_FIXTURES))}")
    params = dict(_parse_param(p) for p in args.params)
    builder, index = _FIXTURES[args.name]
    # the fixture checks the values of the parameters it takes
    known = inspect.signature(builder).parameters
    for key in params:
        if key not in known:
            raise CliError(f"fixture {args.name} takes no parameter {key!r}; "
                           f"it takes {', '.join(known)}")
    fixture = builder(**params)
    if index is not None:
        fixture = fixture[index]
    _emit(instance_to_doc(fixture.game, fixture.initial), args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    game, _ = _load_instance(args.instance)
    trace = trace_from_doc(game, _read_json(args.trace, "trace"))
    verify_trace(game, trace)
    sys.stdout.write(f"ok: {len(trace.moves)} moves replay-verified\n")
    return EXIT_OK


def _budget(text: str) -> int:
    """A state or step budget: a non-negative integer.  Zero is a budget
    too, one that runs out at the first state or move past the start."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brdlab",
        description="best-response dynamics laboratory for congestion games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run dynamics under a deviator rule")
    p.add_argument("instance")
    p.add_argument("--rule", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_budget, default=DEFAULT_MAX_STEPS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("oracle", help="enumerate reachable equilibria")
    p.add_argument("instance")
    p.add_argument("--state-limit", type=_budget, default=DEFAULT_STATE_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ineff", help="rule inefficiency report")
    p.add_argument("instance")
    p.add_argument("--rule", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state-limit", type=_budget, default=DEFAULT_STATE_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ineff)

    p = sub.add_parser("dp", help="optimal sequence on an SPP chain")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["single-source", "proper"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dp)

    p = sub.add_parser("fixture", help="materialize a benchmark instance")
    p.add_argument("name")
    p.add_argument("--params", nargs="*", default=())
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("check", help="replay-verify a trace against an instance")
    p.add_argument("trace")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    return parser


# built on the first `main` call rather than at import; a parse keeps no
# state in the parser, so one serves every call
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage error or help; it exits 2 after
        # an error and 0 after help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (StepBudgetExceeded, StateBudgetExceeded, CycleDetected) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except ReplayError as exc:
        sys.stderr.write(f"replay failed: {exc}\n")
        return EXIT_INVALID
    # FormatError, GameError (the engine's, the networks' and the DPs'
    # errors too) and FixtureError are ValueErrors
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
