"""JSON formats for instances, traces, and inefficiency reports.

Rationals are encoded as "p/q" strings so no precision is lost in JSON
numbers; documents reject unknown fields and parse-serialize-parse is the
identity on values.  Strategies serialize as edge-id lists for network
games and machine indices for scheduling games.

`dumps` writes a document of dicts with string keys, lists, strings, ints,
bools and None as exactly the bytes of `json.dumps(doc, indent=2,
sort_keys=True)` plus a newline: keys sorted, two-space indents, and every
string ASCII-escaped by the standard library's own escaper.  Rationals
still parse exactly: a plain "p/q", "-p/q" or integer string of ASCII
digits goes straight to its integers, and every other form takes the
`Fraction` string route with its errors.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .core import Game, Profile, Strategy
from .engine import Move, ScriptError, Trace, _apply_move
from .networks import Edge, Network, NetworkFormationGame, PlayerSpec
from .oracle import InefficiencyReport
from .scheduling import SchedulingGame


class FormatError(ValueError):
    pass


def _is_int(value: Any) -> bool:
    # JSON true/false decode to bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, str):
        # "p/q", "-p/q" and integers in ASCII digits, straight to their ints
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if value.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            # past its digit limit, int raises ValueError
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational {value!r}") from exc
        # no exponents: "1e999999999" would have Fraction build an integer
        # of a billion digits
        if "e" in value.lower():
            raise FormatError(f"bad rational {value!r}: exponents are not accepted")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {value!r}") from exc
    if _is_int(value):
        return Fraction(value)
    raise FormatError(f"rationals must be 'p/q' strings, got {value!r}")


def fmt_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fields(doc: Any, allowed: frozenset[str], where: str) -> Mapping[str, Any]:
    """`doc` itself, once it is a JSON object without unknown fields."""
    if not isinstance(doc, Mapping):
        raise FormatError(f"{where} must be a JSON object")
    if not doc.keys() <= allowed:
        raise FormatError(f"unknown fields in {where}: {sorted(doc.keys() - allowed)}")
    return doc


_REQUIRED = object()


def _get(
    doc: Mapping[str, Any],
    key: str,
    kind: type | tuple[type, ...],
    where: str,
    default: Any = _REQUIRED,
) -> Any:
    """doc[key], which must be of type `kind` (a bool only where `kind` is
    bool or object); a missing key gives `default` when there is one."""
    if key not in doc:
        if default is _REQUIRED:
            raise FormatError(f"{where} needs the field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind not in (bool, object)):
        raise FormatError(f"field {key!r} of {where} has the wrong JSON type")
    return value


# -- instances --------------------------------------------------------------------


def instance_to_doc(game: Game, initial: Profile) -> dict[str, Any]:
    doc: dict[str, Any]
    if isinstance(game, NetworkFormationGame):
        model = "nfg" if game.is_unweighted else "weighted-nfg"
        doc = {
            "model": model,
            "graph": {
                "nodes": list(game.network.nodes),
                "source": game.network.source,
                "sink": game.network.sink,
                "edges": [
                    {
                        "id": e.id,
                        "tail": e.tail,
                        "head": e.head,
                        "cost": fmt_rational(e.cost),
                    }
                    for e in game.network.edges
                ],
            },
            "players": [
                {
                    "source": spec.source,
                    "target": spec.target,
                    "weight": fmt_rational(spec.weight),
                }
                for spec in game.specs
            ],
        }
    elif isinstance(game, SchedulingGame):
        doc = {
            "model": "coco" if game.is_conflicting else "sched",
            "machines": game.machine_count,
            "players": [
                {"length": fmt_rational(game.weight(i))} for i in game.players
            ],
        }
        if game.activation_cost is not None:
            doc["B"] = fmt_rational(game.activation_cost)
    else:
        raise FormatError(f"cannot serialize {type(game).__name__}")
    doc["initial"] = profile_to_doc(game, initial)
    return doc


def profile_to_doc(game: Game, profile: Profile) -> dict[str, Any]:
    return {str(i): encode_strategy(game, game.strategy_of(profile, i)) for i in game.players}


def encode_strategy(game: Game, strategy: Strategy) -> Any:
    if isinstance(game, SchedulingGame):
        return strategy[0]
    return list(strategy)


def _machine(raw: Any) -> Strategy:
    if not _is_int(raw):
        raise FormatError("scheduling strategies are machine indices")
    return (raw,)


def _path(raw: Any) -> Strategy:
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise FormatError("network strategies are edge-id lists")
    return tuple(raw)


def _strategy_decoder(game: Game) -> Callable[[Any], Strategy]:
    """The decoder of the game's strategies, chosen once per document."""
    return _machine if isinstance(game, SchedulingGame) else _path


_INSTANCE = frozenset({"model", "graph", "machines", "B", "players", "initial"})
_GRAPH = frozenset({"nodes", "source", "sink", "edges"})
_EDGE = frozenset({"id", "tail", "head", "cost"})
_PLAYER = frozenset({"source", "target", "weight"})
_JOB = frozenset({"length"})
_TRACE = frozenset({"initial", "moves", "terminal", "terminal_is_ne"})
_MOVE = frozenset({"step", "player", "old", "new", "cost_before", "cost_after", "profile"})


def instance_from_doc(doc: Mapping[str, Any]) -> tuple[Game, Profile]:
    _fields(doc, _INSTANCE, "instance")
    model = doc.get("model")
    players = _get(doc, "players", list, "instance", [])
    if model in ("nfg", "weighted-nfg"):
        graph = _get(doc, "graph", object, "a network instance")
        _fields(graph, _GRAPH, "graph")
        edges = []
        for e in _get(graph, "edges", list, "graph", []):
            _fields(e, _EDGE, "edge")
            edges.append(Edge(
                _get(e, "id", int, "edge"),
                _get(e, "tail", int, "edge"),
                _get(e, "head", int, "edge"),
                parse_rational(_get(e, "cost", object, "edge")),
            ))
        terminal = (int, type(None))
        net = Network(
            tuple(edges),
            source=_get(graph, "source", terminal, "graph", None),
            sink=_get(graph, "sink", terminal, "graph", None),
        )
        nodes = list(net.nodes)
        listed = _get(graph, "nodes", list, "graph", nodes)
        if not all(map(_is_int, listed)) or sorted(listed) != nodes:
            raise FormatError("graph nodes must list once each node the edges and terminals use")
        specs = []
        for p in players:
            _fields(p, _PLAYER, "player")
            specs.append(PlayerSpec(
                _get(p, "source", int, "player"),
                _get(p, "target", int, "player"),
                parse_rational(p.get("weight", 1)),
            ))
        game: Game = NetworkFormationGame(net, specs)
        if model == "nfg" and not game.is_unweighted:
            raise FormatError("model 'nfg' requires unit weights")
    elif model in ("sched", "coco"):
        machines = _get(doc, "machines", int, "a scheduling instance")
        lengths = [
            parse_rational(_fields(p, _JOB, "player").get("length", 1)) for p in players
        ]
        activation = None
        if model == "coco":
            activation = parse_rational(_get(doc, "B", object, "a coco instance"))
        game = SchedulingGame(machines, lengths, activation_cost=activation)
    else:
        raise FormatError(f"unknown model {model!r}")
    return game, _profile_of(game, _get(doc, "initial", object, "instance"), "initial profile")


def _profile_of(game: Game, raw: Any, where: str) -> Profile:
    """The profile a {"player id": strategy} object assigns; a key must be
    the id as the writer emits it, so no alias ("01", " 1") can overwrite
    another key."""
    if not isinstance(raw, Mapping):
        raise FormatError(f"{where} must be a JSON object")
    ids = {str(i): i for i in game.players}
    decode, spaces, indices = _strategy_decoder(game), game._spaces, game._indices
    choices: dict[int, int | None] = {}
    for key, strategy in raw.items():
        if key not in ids:
            raise FormatError(f"bad player id {key!r} in {where}")
        player = ids[key]
        # straight to its index in the player's space, None outside it
        choices[player] = indices[id(spaces[player - 1])].get(decode(strategy))
    if len(choices) != game.n:
        raise FormatError(f"{where} must assign exactly the players 1..n")
    profile = tuple(map(choices.__getitem__, game.players))
    if None in profile:
        player = profile.index(None) + 1
        strategy = decode(raw[str(player)])
        raise FormatError(f"player {player} assigned a strategy outside her space: {strategy}")
    return profile  # type: ignore[return-value]


# -- traces ------------------------------------------------------------------------


def trace_to_doc(game: Game, trace: Trace) -> dict[str, Any]:
    return {
        "initial": profile_to_doc(game, trace.initial),
        "moves": [
            {
                "step": m.step,
                "player": m.player,
                "old": encode_strategy(game, m.old_strategy),
                "new": encode_strategy(game, m.new_strategy),
                "cost_before": fmt_rational(m.cost_before),
                "cost_after": fmt_rational(m.cost_after),
                "profile": m.profile_digest,
            }
            for m in trace.moves
        ],
        "terminal": profile_to_doc(game, trace.terminal),
        "terminal_is_ne": trace.terminal_is_ne,
    }


def trace_from_doc(game: Game, doc: Mapping[str, Any]) -> Trace:
    _fields(doc, _TRACE, "trace")
    initial = _profile_of(game, _get(doc, "initial", object, "trace"), "trace initial profile")
    decode = _strategy_decoder(game)
    moves = []
    for m in _get(doc, "moves", list, "trace", []):
        _fields(m, _MOVE, "move")
        moves.append(
            Move(
                step=_get(m, "step", int, "move"),
                player=_get(m, "player", int, "move"),
                old_strategy=decode(_get(m, "old", object, "move")),
                new_strategy=decode(_get(m, "new", object, "move")),
                cost_before=parse_rational(_get(m, "cost_before", object, "move")),
                cost_after=parse_rational(_get(m, "cost_after", object, "move")),
                profile_digest=_get(m, "profile", str, "move"),
            )
        )
    terminal = _profile_of(game, _get(doc, "terminal", object, "trace"), "trace terminal profile")
    return Trace(initial, tuple(moves), terminal, _get(doc, "terminal_is_ne", bool, "trace"))


class ReplayError(ValueError):
    pass


def verify_trace(game: Game, trace: Trace) -> None:
    """Replay every recorded move through the engine's one legal move,
    `_apply_move`, from one evaluation of the initial profile and then its
    children, and require the replayed move to equal the recorded one:
    step, player, both strategies, both costs and the profile digest.  The
    terminal must match too, including its equilibrium flag."""
    ev = game.evaluate(trace.initial)
    for i, recorded in enumerate(trace.moves):
        player = recorded.player
        try:
            idx = game.strategy_index(player, recorded.new_strategy)
        except ValueError:  # an unknown player, too
            raise ReplayError(
                f"step {i}: strategy {recorded.new_strategy} outside player {player}'s space"
            ) from None
        try:
            ev, move = _apply_move(ev, player, idx, i)
        except ScriptError as exc:
            raise ReplayError(f"step {i}: {exc}") from None
        if move != recorded:
            differ = [name for name, value in vars(move).items() if vars(recorded)[name] != value]
            raise ReplayError(f"step {i}: the recorded move differs in {', '.join(differ)}")
    if ev.profile != trace.terminal:
        raise ReplayError("terminal profile mismatch")
    if trace.terminal_is_ne != game.is_nash(ev):
        raise ReplayError("terminal equilibrium flag mismatch")


# -- reports -----------------------------------------------------------------------


def report_to_doc(game: Game, report: InefficiencyReport) -> dict[str, Any]:
    return {
        "game": report.game_id,
        "rule": report.rule_id,
        "worst_rule_cost": fmt_rational(report.worst_rule_cost),
        "best_cost": fmt_rational(report.best_cost),
        "alpha": fmt_rational(report.alpha),
        "ne_costs": [fmt_rational(c) for c in report.ne_costs],
        "rule_ne_costs": [fmt_rational(c) for c in report.rule_ne_costs],
        "oracle_visited": report.oracle_visited,
        "rule_visited": report.rule_visited,
        "rule_witness": trace_to_doc(game, report.rule_witness),
        "optimal_witness": trace_to_doc(game, report.optimal_witness),
    }


def dumps(doc: Mapping[str, Any]) -> str:
    """The document's JSON text: `json.dumps(doc, indent=2, sort_keys=True)`
    and a newline."""
    return _text(doc, "\n") + "\n"


# the JSON text of each scalar type of a document, by exact type
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _text(value: Any, newline: str) -> str:
    """`value`'s JSON text, whose nested lines start with `newline`.
    Containers write their scalar members inline."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner, get = newline + "  ", _SCALARS.get
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            member = value[key]
            scalar = get(type(member))
            # the escaper raises TypeError on a key that is not a string
            items.append(encode_basestring_ascii(key) + ": "
                         + (scalar(member) if scalar is not None else _text(member, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [scalar(member) if (scalar := get(type(member))) is not None
                 else _text(member, inner) for member in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
