"""Command-line front end.

Subcommands: run (dynamics under a rule), oracle (enumerate reachable
equilibria), ineff (rule inefficiency report), dp (optimal sequences on SPP
chains), fixture (materialize a benchmark instance), check (replay-verify a
trace).  Invalid input exits 2, exhausted budgets exit 3, success exits 0.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import fixtures as fx
from .core import GameError
from .engine import (
    CycleDetected,
    StateBudgetExceeded,
    StepBudgetExceeded,
    run_brd,
)
from .networks import PathCapExceeded
from .oracle import reachable_ne, rule_inefficiency
from .rules import make_rule
from .serde import (
    FormatError,
    ReplayError,
    dumps,
    fmt_rational,
    instance_from_doc,
    instance_to_doc,
    report_to_doc,
    trace_from_doc,
    trace_to_doc,
    verify_trace,
)
from .sppdp import SppError, dp_proper_intervals, dp_single_source, from_network_game, replay

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _load_instance(path: str):
    import json

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read instance {path}: {exc}", EXIT_INVALID) from exc
    try:
        return instance_from_doc(doc)
    except (FormatError, GameError) as exc:
        raise CliError(f"bad instance {path}: {exc}", EXIT_INVALID) from exc


def _emit(doc: dict[str, Any], out: str | None) -> None:
    text = dumps(doc)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    try:
        rule = make_rule(args.rule, seed=args.seed)
        trace = run_brd(game, p0, rule, max_steps=args.max_steps)
    except (StepBudgetExceeded, CycleDetected) as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    except GameError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    _emit(trace_to_doc(game, trace), args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    try:
        reach = reachable_ne(game, p0, state_limit=args.state_limit)
    except StateBudgetExceeded as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    best_profile, best_cost = reach.best()
    doc = {
        "ne_count": len(reach.ne_profiles),
        "ne_costs": [fmt_rational(c) for c in reach.social_costs],
        "best_cost": fmt_rational(best_cost),
        "best_profile": instance_to_doc(game, best_profile)["initial"],
        "visited": reach.stats.visited,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_ineff(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    try:
        rule = make_rule(args.rule, seed=args.seed)
        report = rule_inefficiency(
            game, p0, rule, game_id=args.instance, state_limit=args.state_limit
        )
    except StateBudgetExceeded as exc:
        raise CliError(str(exc), EXIT_BUDGET) from exc
    except GameError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    _emit(report_to_doc(game, report), args.out)
    return EXIT_OK


def _cmd_dp(args: argparse.Namespace) -> int:
    game, p0 = _load_instance(args.instance)
    from .networks import NetworkFormationGame

    if not isinstance(game, NetworkFormationGame):
        raise CliError("dp needs a network formation instance", EXIT_INVALID)
    try:
        instance = from_network_game(game, p0)
        if args.mode == "single-source":
            table = dp_single_source(instance)
        else:
            table = dp_proper_intervals(instance)
        trace = replay(instance, table)
    except SppError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    terminal_cost = game.social_cost(trace.terminal)
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


_FIXTURES: dict[str, Callable[..., fx.FixtureSpec]] = {
    "fig2": fx.fig2_maxcost,
    "fig3": fx.fig3_minpath_chain,
    "fig4": fx.fig4_minpath_exp,
    "fig5a": lambda **kw: fx.fig5_ep_pair(**kw)[0],
    "fig5b": lambda **kw: fx.fig5_ep_pair(**kw)[1],
    "fig6": fx.fig6_weighted_partition,
    "fig7a": lambda **kw: fx.fig7_weighted_local_pair(**kw)[0],
    "fig7b": lambda **kw: fx.fig7_weighted_local_pair(**kw)[1],
    "fig8": fx.fig8_weighted_minpath,
    "fig9a": lambda **kw: fx.fig9_sched_pair(**kw)[0],
    "fig9b": lambda **kw: fx.fig9_sched_pair(**kw)[1],
    "appB": fx.appB_coco,
}


def _parse_param(raw: str) -> tuple[str, Any]:
    if "=" not in raw:
        raise CliError(f"parameters look like key=value, got {raw!r}", EXIT_INVALID)
    key, value = raw.split("=", 1)
    if "," in value:
        return key, tuple(Fraction(x) for x in value.split(","))
    try:
        return key, int(value)
    except ValueError:
        pass
    try:
        return key, Fraction(value)
    except ValueError:
        raise CliError(f"cannot parse parameter value {value!r}", EXIT_INVALID) from None


def _cmd_fixture(args: argparse.Namespace) -> int:
    if args.name not in _FIXTURES:
        raise CliError(
            f"unknown fixture {args.name!r}; known: {', '.join(sorted(_FIXTURES))}",
            EXIT_INVALID,
        )
    params = dict(_parse_param(p) for p in args.params)
    try:
        fixture = _FIXTURES[args.name](**params)
    except (fx.FixtureError, GameError, PathCapExceeded, TypeError) as exc:
        raise CliError(f"fixture {args.name}: {exc}", EXIT_INVALID) from exc
    _emit(instance_to_doc(fixture.game, fixture.initial), args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    game, _ = _load_instance(args.instance)
    try:
        doc = json.loads(Path(args.trace).read_text())
        trace = trace_from_doc(game, doc)
        verify_trace(game, trace)
    except (OSError, ValueError, FormatError, GameError) as exc:
        raise CliError(f"bad trace {args.trace}: {exc}", EXIT_INVALID) from exc
    sys.stdout.write(f"ok: {len(trace.moves)} moves replay-verified\n")
    return EXIT_OK


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
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("oracle", help="enumerate reachable equilibria")
    p.add_argument("instance")
    p.add_argument("--state-limit", type=int, default=5_000_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ineff", help="rule inefficiency report")
    p.add_argument("instance")
    p.add_argument("--rule", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state-limit", type=int, default=5_000_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ineff)

    p = sub.add_parser("dp", help="optimal sequence on an SPP chain")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["single-source", "proper"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dp)

    p = sub.add_parser("fixture", help="materialize a benchmark instance")
    p.add_argument("name")
    p.add_argument("--params", nargs="*", default=[])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("check", help="replay-verify a trace against an instance")
    p.add_argument("trace")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ReplayError as exc:
        sys.stderr.write(f"replay failed: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
