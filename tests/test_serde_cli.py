"""Serialization round trips, trace verification, and the command line."""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brdlab
from brdlab.cli import _FIXTURES, main
from brdlab.core import Profile
from brdlab.engine import LowestIdRule, run_brd
from brdlab.fixtures import appB_coco, fig2_maxcost, fig3_minpath_chain
from brdlab.rules import RULES
from brdlab.scheduling import SchedulingGame
from brdlab.serde import (
    FormatError,
    ReplayError,
    dumps,
    instance_from_doc,
    instance_to_doc,
    parse_rational,
    trace_from_doc,
    trace_to_doc,
    verify_trace,
)
from helpers import random_coco_game, random_profile, random_symmetric_game, short_replay_chain


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("7") == 7
        assert parse_rational(5) == 5

    def test_rejects_floats_and_junk(self):
        with pytest.raises(FormatError):
            parse_rational(0.5)
        with pytest.raises(FormatError):
            parse_rational("1.5e3/x")
        with pytest.raises(FormatError):
            parse_rational("1/0")

    @given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, num, den):
        from brdlab.serde import fmt_rational

        value = F(num, den)
        assert parse_rational(fmt_rational(value)) == value


def reference_parse_rational(value):
    """The reference: `parse_rational` without its integer route, so every
    string goes through `Fraction`'s string parser."""
    if isinstance(value, int) and not isinstance(value, bool):
        return F(value)
    if isinstance(value, str):
        if "e" in value.lower():
            raise FormatError(f"bad rational {value!r}: exponents are not accepted")
        try:
            return F(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {value!r}") from exc
    raise FormatError(f"rationals must be 'p/q' strings, got {value!r}")


def _outcome(parse, value):
    """The parsed value and its type, or the FormatError's message."""
    try:
        got = parse(value)
    except FormatError as exc:
        return "error", str(exc)
    return "value", got, type(got)


# ASCII and other Unicode digits (Arabic-Indic, fullwidth, a superscript that
# is a digit but not a decimal), and every other character a rational's
# string form may hold
RATIONAL_CHARS = st.sampled_from([*"0123456789", "\u0663", "\uff11", "\u00b2",
                                  *"_+-.eE/", " ", "\t", "\n"])


class TestParseRationalAgainstReference:
    @given(text=st.text(RATIONAL_CHARS, max_size=12)
           | st.from_regex(r"\A-?0*[0-9]{1,6}(/0*[0-9]{1,6})?\Z"))
    @example(text="0/0")
    @example(text="007/010")
    @example(text="-0/5")
    @example(text="-00")
    @example(text="--3")
    @example(text="-/3")
    @example(text="3/")
    @example(text="+3/4")
    @example(text="3/-4")
    @example(text=" 3/4")
    @example(text="1_000/3")
    @example(text="\u0663/\u0664")
    @example(text="")
    @settings(max_examples=600, deadline=None)
    def test_strings(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse_rational, text)

    @pytest.mark.parametrize("text", [
        "1" * 4300, "1" * 4301, "-" + "9" * 5000 + "/7", "3/" + "1" * 4301, "7" * 4301 + "/0",
    ])
    def test_past_the_int_digit_limit(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse_rational, text)

    @pytest.mark.parametrize("value", [True, False, 0.5, 2.0, None, 0, -7, 10**30, [], {}])
    def test_other_json_values(self, value):
        assert _outcome(parse_rational, value) == _outcome(reference_parse_rational, value)


def reference_profile_of(game, raw, where):
    """The decoding route `_profile_of` replaces: each strategy to its
    resource tuple, then one `Game.strategy_index` per player."""
    from brdlab.core import InvalidProfileError
    from brdlab.serde import _strategy_decoder

    if not isinstance(raw, dict):
        raise FormatError(f"{where} must be a JSON object")
    ids = {str(i): i for i in game.players}
    decode = _strategy_decoder(game)
    assignment = {}
    for key, strategy in raw.items():
        if key not in ids:
            raise FormatError(f"bad player id {key!r} in {where}")
        assignment[ids[key]] = decode(strategy)
    if len(assignment) != game.n:
        raise FormatError(f"{where} must assign exactly the players 1..n")
    try:
        return game.profile_from_strategies(assignment)
    except InvalidProfileError as exc:
        raise FormatError(str(exc)) from exc


# strategies as a document may hold them: machine indices and edge lists in
# and out of range, and values of every other JSON type
RAW_STRATEGIES = (st.integers(-2, 6) | st.integers(10**20, 10**20 + 1) | st.booleans()
                  | st.none() | st.text(max_size=2)
                  | st.lists(st.integers(-1, 8) | st.booleans() | st.text(max_size=1),
                             max_size=4))


class TestProfileDecoderAgainstReference:
    """One decoder per document maps each raw strategy straight to its
    index, with the old route's outcome: the same profile, or the same
    error for the first fault in the same order."""

    GAMES = {
        "sched": SchedulingGame(3, [1, 2, 3]),
        "coco": SchedulingGame(4, [1, 1, 1], activation_cost=5),
        "fig3": fig3_minpath_chain().game,
        "fig2": fig2_maxcost().game,
    }

    @given(name=st.sampled_from(sorted(GAMES)),
           raw=st.dictionaries(st.sampled_from(["1", "2", "3", "4", "0", " 1", "01"]),
                               RAW_STRATEGIES, max_size=5))
    @settings(max_examples=600, deadline=None)
    def test_raw_profiles(self, name, raw):
        from brdlab.serde import _profile_of

        game = self.GAMES[name]
        assert (_outcome(lambda doc: _profile_of(game, doc, "initial profile"), raw)
                == _outcome(lambda doc: reference_profile_of(game, doc, "initial profile"), raw))

    def test_valid_profiles(self):
        from brdlab.serde import _profile_of, profile_to_doc

        rng = random.Random(81)
        for game in self.GAMES.values():
            for _ in range(50):
                doc = profile_to_doc(game, random_profile(rng, game))
                assert _profile_of(game, doc, "p") == reference_profile_of(game, doc, "p")
                # the lowest faulty player names the error, as before
                for player in rng.sample(game.players, min(2, game.n)):
                    doc[str(player)] = [99] if isinstance(doc[str(player)], list) else 99
                    assert (_outcome(lambda d: _profile_of(game, d, "p"), doc)
                            == _outcome(lambda d: reference_profile_of(game, d, "p"), doc))


def reference_dumps(doc):
    """The writer's contract: the standard library's indented, key-sorted,
    ASCII-escaped text and a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# every character, surrogates and control characters included
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


class TestWriterAgainstJson:
    @given(doc=JSON_TREES)
    @example(doc={})
    @example(doc=[[], {}, [[{}]], {"": {"": []}}])
    @example(doc={"\ud800": "\udfff\x00\x1f\x7f\u00e9\u2028", "b": [True, False, None, -0]})
    @settings(max_examples=400, deadline=None)
    def test_bytes_match(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("doc", [F(1, 2), {1, 2}, 1.5, {1: "x"}, {"a": [object()]}])
    def test_values_outside_the_document_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)


class TestInstanceRoundTrip:
    def round_trip(self, game, p0):
        doc = instance_to_doc(game, p0)
        text = dumps(doc)
        game2, p2 = instance_from_doc(json.loads(text))
        doc2 = instance_to_doc(game2, p2)
        assert doc == doc2
        assert p2 == p0
        return game2

    def test_nfg(self):
        fx = fig3_minpath_chain()
        self.round_trip(fx.game, fx.initial)

    def test_weighted_nfg(self):
        from brdlab.fixtures import fig7_weighted_local_pair

        fa, _ = fig7_weighted_local_pair()
        game2 = self.round_trip(fa.game, fa.initial)
        assert not game2.is_unweighted

    def test_sched_and_coco(self):
        from brdlab.fixtures import fig9_sched_pair

        fa, _ = fig9_sched_pair()
        self.round_trip(fa.game, fa.initial)
        fx = appB_coco()
        game2 = self.round_trip(fx.game, fx.initial)
        assert game2.activation_cost == 27

    def test_unknown_fields_rejected(self):
        fx = fig2_maxcost()
        doc = instance_to_doc(fx.game, fx.initial)
        doc["extra"] = 1
        with pytest.raises(FormatError):
            instance_from_doc(doc)

    def test_missing_player_rejected(self):
        fx = fig2_maxcost()
        doc = instance_to_doc(fx.game, fx.initial)
        del doc["initial"]["1"]
        with pytest.raises(FormatError):
            instance_from_doc(doc)


class TestTraces:
    def test_round_trip_and_verify(self):
        rng = random.Random(71)
        for _ in range(10):
            game = random_symmetric_game(rng)
            p0 = random_profile(rng, game)
            trace = run_brd(game, p0, LowestIdRule())
            doc = trace_to_doc(game, trace)
            back = trace_from_doc(game, json.loads(dumps(doc)))
            assert back == trace
            verify_trace(game, back)

    def test_tampered_cost_rejected(self):
        fx = fig2_maxcost()
        trace = run_brd(fx.game, fx.initial, LowestIdRule())
        doc = trace_to_doc(fx.game, trace)
        doc["moves"][0]["cost_after"] = "1000/1"
        with pytest.raises(ReplayError):
            verify_trace(fx.game, trace_from_doc(fx.game, doc))

    def test_non_br_move_rejected(self):
        fx = fig2_maxcost()
        trace = run_brd(fx.game, fx.initial, LowestIdRule())
        doc = trace_to_doc(fx.game, trace)
        doc["moves"][0]["new"] = [1]  # claim the mover went to the top edge
        with pytest.raises(ReplayError):
            verify_trace(fx.game, trace_from_doc(fx.game, doc))

    # one tampered field of fig2's one move, and the end of the replay error
    TAMPERED = {
        "step": (1, "step 0: the recorded move differs in step"),
        "player": (2, "step 0: strategy index 2 is not a best response of player 2"),
        "old": ([2], "step 0: the recorded move differs in old_strategy"),
        "new": ([2], "step 0: strategy index 1 is not a best response of player 1"),
        "cost_before": ("2/1", "step 0: the recorded move differs in cost_before"),
        "cost_after": ("1/1", "step 0: the recorded move differs in cost_after"),
        "profile": ("000000000000", "step 0: the recorded move differs in profile_digest"),
    }

    @pytest.mark.parametrize("key", [*TAMPERED, "terminal", "terminal_is_ne"])
    def test_every_tampered_field_rejected(self, key):
        fx = fig2_maxcost()
        trace = run_brd(fx.game, fx.initial, LowestIdRule())
        doc = trace_to_doc(fx.game, trace)
        verify_trace(fx.game, trace_from_doc(fx.game, doc))
        if key == "terminal":
            doc["terminal"] = doc["initial"]
            message = "terminal profile mismatch"
        elif key == "terminal_is_ne":
            doc["terminal_is_ne"] = not doc["terminal_is_ne"]
            message = "terminal equilibrium flag mismatch"
        else:
            value, message = self.TAMPERED[key]
            assert doc["moves"][0][key] != value
            doc["moves"][0][key] = value
        with pytest.raises(ReplayError) as info:
            verify_trace(fx.game, trace_from_doc(fx.game, doc))
        assert str(info.value) == message

    def test_replay_error_names_every_differing_field(self):
        fx = fig2_maxcost()
        doc = trace_to_doc(fx.game, run_brd(fx.game, fx.initial, LowestIdRule()))
        doc["moves"][0].update(old=[2], cost_before="2/1")
        with pytest.raises(ReplayError, match="differs in old_strategy, cost_before$"):
            verify_trace(fx.game, trace_from_doc(fx.game, doc))
        doc["moves"][0].update(player=9)
        with pytest.raises(ReplayError, match="^step 0: strategy .* outside player 9's space$"):
            verify_trace(fx.game, trace_from_doc(fx.game, doc))

    def test_dp_replay_traces_verify(self):
        rng = random.Random(73)
        from brdlab.sppdp import dp_single_source, replay
        from helpers import random_single_source_instance

        for _ in range(10):
            inst = random_single_source_instance(rng)
            game, _ = inst.to_game()
            trace = replay(inst, dp_single_source(inst), game)
            verify_trace(game, trace)


class TestCli:
    def fixture_file(self, tmp_path, name, params=()):
        out = tmp_path / f"{name}.json"
        code = main(["fixture", name, "--params", *params, "--out", str(out)])
        assert code == 0
        return out

    def test_fixture_and_ineff_pipeline(self, tmp_path, capsys):
        instance = self.fixture_file(tmp_path, "fig2")
        report = tmp_path / "report.json"
        code = main(["ineff", str(instance), "--rule", "max-cost", "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["alpha"] == "99/20"

    def test_run_check_roundtrip(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig3")
        trace = tmp_path / "trace.json"
        assert main(["run", str(instance), "--rule", "min-path", "--out", str(trace)]) == 0
        assert main(["check", str(trace), str(instance)]) == 0

    def test_run_on_equilibrium_is_empty(self, tmp_path, capsys):
        game, _ = random_coco_game(random.Random(1), max_n=8, max_m=2)
        from brdlab.serde import instance_to_doc

        balanced = game.profile_from_strategies(
            [((i % 2) + 1,) for i in range(game.n)]
        )
        # rebalance until stable, then dump that as the initial profile
        trace = run_brd(game, balanced, LowestIdRule())
        path = tmp_path / "ne.json"
        path.write_text(dumps(instance_to_doc(game, trace.terminal)))
        out = tmp_path / "trace.json"
        assert main(["run", str(path), "--rule", "s-opt", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["moves"] == []

    def test_oracle_command(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig2")
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(instance), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["best_cost"] == "1/5"
        assert doc["ne_costs"] == ["1/5", "99/100"]

    def test_dp_agrees_with_oracle(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig3")
        dp_out = tmp_path / "dp.json"
        oracle_out = tmp_path / "oracle.json"
        assert main(["dp", str(instance), "--mode", "single-source", "--out", str(dp_out)]) == 0
        assert main(["oracle", str(instance), "--out", str(oracle_out)]) == 0
        dp_doc = json.loads(dp_out.read_text())
        oracle_doc = json.loads(oracle_out.read_text())
        assert dp_doc["optimum"] == oracle_doc["best_cost"]
        assert dp_doc["terminal_cost"] == dp_doc["optimum"]
        trace_path = tmp_path / "dp_trace.json"
        trace_path.write_text(dumps(dp_doc["trace"]))
        assert main(["check", str(trace_path), str(instance)]) == 0

    def test_dp_mode_precondition(self, tmp_path, capsys):
        instance = self.fixture_file(tmp_path, "fig4")  # improper at m=3
        assert main(["dp", str(instance), "--mode", "proper"]) == 2
        sched = self.fixture_file(tmp_path, "fig9a")  # not a network game
        assert main(["dp", str(sched), "--mode", "single-source"]) == 2
        assert "needs a network formation instance" in capsys.readouterr().err

    @pytest.mark.parametrize("name, tamper, message", [
        ("fig2", {"player": 9}, "step 0: strategy (3,) outside player 9's space"),
        ("fig2", {"new": [99]}, "step 0: strategy (99,) outside player 1's space"),
        ("fig9a", {"new": 99}, "step 0: strategy (99,) outside player 1's space"),
        ("fig9a", {"player": 0}, "step 0: strategy (3,) outside player 0's space"),
    ])
    def test_unknown_player_or_strategy_in_a_trace_exits_2(self, tmp_path, name, tamper,
                                                            message):
        instance = self.fixture_file(tmp_path, name)
        trace = tmp_path / "trace.json"
        assert main(["run", str(instance), "--rule", "max-cost", "--out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        doc["moves"][0].update(tamper)
        trace.write_text(dumps(doc))
        code, out, err = _call(["check", str(trace), str(instance)])
        assert (code, out, err) == (2, "", f"replay failed: {message}\n")

    def test_invalid_instance_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "nope"}')
        assert main(["run", str(bad), "--rule", "max-cost"]) == 2

    def test_oracle_on_a_1500_edge_series_chain(self, tmp_path, capsys):
        m = 1500
        doc = {
            "model": "nfg",
            "graph": {
                "nodes": list(range(m + 1)),
                "source": 0,
                "sink": m,
                "edges": [
                    {"id": i, "tail": i - 1, "head": i, "cost": "1/1"} for i in range(1, m + 1)
                ],
            },
            "players": [{"source": 0, "target": m, "weight": "1/1"}],
            "initial": {"1": list(range(1, m + 1))},
        }
        instance = tmp_path / "chain.json"
        instance.write_text(json.dumps(doc))
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(instance), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ne_count"] == 1

    def test_budget_exit_3(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig2")
        assert main(["oracle", str(instance), "--state-limit", "2"]) == 3

    def test_run_budget_counts_moves(self, tmp_path, capsys):
        instance = self.fixture_file(tmp_path, "fig3")  # min-path settles in 3 moves
        assert main(["run", str(instance), "--rule", "min-path", "--max-steps", "3"]) == 0
        assert main(["run", str(instance), "--rule", "min-path", "--max-steps", "2"]) == 3

    def test_fixture_b_not_a_cube_exits_2(self, capsys):
        for b in (26, 10**400, 0, -27):
            assert main(["fixture", "appB", "--params", f"B={b}"]) == 2
        assert main(["fixture", "appB", "--params", "B=8"]) == 0

    def test_fixture_b_over_the_job_cap_exits_2(self, capsys):
        for b in (262144, (10**40) ** 3):
            assert main(["fixture", "appB", "--params", f"B={b}"]) == 2

    def test_dp_cleanup_budget_exit_3(self, tmp_path, monkeypatch, capsys):
        from brdlab import sppdp

        instance = self.fixture_file(tmp_path, "fig3")
        fx = fig3_minpath_chain()
        skeleton = sppdp.dp_single_source(sppdp.from_network_game(fx.game, fx.initial)).skeleton
        # fig3's cleanup needs one move after the skeleton
        monkeypatch.setattr(sppdp, "DEFAULT_MAX_STEPS", len(skeleton))
        assert main(["dp", str(instance), "--mode", "single-source"]) == 3

    def test_dp_replay_short_of_its_optimum_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "chain.json"
        instance.write_text(dumps(instance_to_doc(*short_replay_chain().to_game())))
        assert main(["dp", str(instance), "--mode", "proper"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "5/1" in err and "6/1" in err

    def test_unknown_fixture_exits_2(self):
        assert main(["fixture", "fig99"]) == 2

    def test_fixture_params(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig2", ["n=4", "eps=1/50"])
        doc = json.loads(instance.read_text())
        assert len(doc["players"]) == 4

    def test_fixture_list_params(self, tmp_path):
        # fig6 holds a weight-2 player, the partition weights and six unit
        # players; a trailing comma makes a one-element list
        for param, weights in (("a=1,", ["1/1"]), ("a=1/3,2/3", ["1/3", "2/3"])):
            instance = self.fixture_file(tmp_path, "fig6", [param])
            players = json.loads(instance.read_text())["players"]
            assert [p["weight"] for p in players[1:-6]] == weights
        assert main(["run", str(instance), "--rule", "max-cost", "--out",
                     str(tmp_path / "trace.json")]) == 0

    @pytest.mark.parametrize("params", [
        ("fig2", "n", "key=value"),
        ("fig2", "bogus=1", "'bogus'"),
        ("fig2", "n=,", "bad rational"),
        # a single weight is a number; fig6 says how to write a list of one
        ("fig6", "a=1", "a=1,"),
        # fig7b's optimal script needs eps below 1/106 at r = 12
        ("fig7b", "r=12", "eps = 1/100 is not in (0, 1/106) for r = 12"),
    ])
    def test_bad_fixture_params_exit_2(self, params, capsys):
        name, param, message = params
        assert main(["fixture", name, "--params", param]) == 2
        assert message in capsys.readouterr().err

    def test_total_load_past_the_share_cap_exits_2(self, tmp_path, capsys):
        # the weight 1/1000000007 makes the load unit 1000000007, so the
        # total load is about 10^9, far past the share cap
        instance = tmp_path / "huge.json"
        instance.write_text(json.dumps({
            "model": "weighted-nfg",
            "graph": {"nodes": [0, 1], "source": 0, "sink": 1,
                      "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "1/1"},
                                {"id": 2, "tail": 0, "head": 1, "cost": "2/1"}]},
            "players": [{"source": 0, "target": 1, "weight": "1/1"},
                        {"source": 0, "target": 1, "weight": "1/1000000007"}],
            "initial": {"1": [1], "2": [2]},
        }))
        assert main(["oracle", str(instance)]) == 2
        assert "share cap" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        a = self.fixture_file(tmp_path, "fig4")
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        b = b_dir / "fig4.json"
        assert main(["fixture", "fig4", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


def _fixture_parameters(kind):
    """(fixture, parameter) for every parameter of a CLI fixture whose
    default is of type `kind`."""
    return [(name, key) for name, (builder, _) in _FIXTURES.items()
            for key, param in inspect.signature(builder).parameters.items()
            if type(param.default) is kind]


@pytest.mark.parametrize("name, key", _fixture_parameters(int))
@pytest.mark.parametrize("value", ["5/2", "3,4", "7,"])
def test_a_non_integer_for_an_integer_parameter_exits_2(name, key, value):
    code, out, err = _call(["fixture", name, "--params", f"{key}={value}"])
    assert (code, out) == (2, "")
    assert err == f"error: {key} must be an integer, got {value}\n"


@pytest.mark.parametrize("name, key", _fixture_parameters(F))
def test_a_list_for_a_rational_parameter_exits_2(name, key):
    code, out, err = _call(["fixture", name, "--params", f"{key}=1/3,2"])
    assert (code, out, err) == (2, "", f"error: {key} must be a rational number, got 1/3,2\n")


def test_an_integral_fraction_is_an_integer_parameter():
    assert _call(["fixture", "fig2", "--params", "n=4/1"]) == _call(["fixture", "fig2", "--params", "n=4"])


@pytest.mark.parametrize("argv", [
    ["oracle", "--state-limit"], ["ineff", "--rule", "max-cost", "--state-limit"],
    ["run", "--rule", "max-cost", "--max-steps"],
])
def test_a_negative_budget_exits_2_naming_its_option(tmp_path, argv):
    instance = tmp_path / "fig2.json"
    assert main(["fixture", "fig2", "--out", str(instance)]) == 0
    command, *options, flag = argv
    # zero is a budget, which fig2 runs out of
    for value, code in (("-3", 2), ("-1", 2), ("0", 3)):
        got, out, err = _call([command, str(instance), *options, flag, value])
        assert (got, out) == (code, "")
        if code == 2:
            assert f"argument {flag}: must be a non-negative integer, got {value}" in err


def _limit_address_space():
    # 1.5 GB: an oversized fixture that builds its lists before its size
    # check fails with a MemoryError instead of filling the machine
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("params", [
    ("fig4", "m=40"),
    ("fig2", "n=100000000000", "eps=1/1000000000000"),
    ("fig5a", "n=100000000000"),
    ("fig9a", "m=100000000", "eps=1/4"),
    ("fig8", "k=100000000000"),
    ("fig6", "a=" + ",".join(["1/40"] * 40)),
], ids=lambda params: params[0])
def test_oversized_fixture_exits_2_before_building(params):
    name, *rest = params
    proc = subprocess.run(
        [sys.executable, "-m", "brdlab.cli", "fixture", name, "--params", *rest],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(Path(brdlab.__file__).parents[1])},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


# sha256 of `brdlab oracle` and `brdlab ineff --rule <rule>` JSON on the fixtures
# at default parameters, without the report's `game` field (the instance path);
# None where the command exits non-zero
GOLDEN = {
    "fig2": {
        "oracle": (0, "c2e35b39077c5582a1f6a3cc04d9826054ec6a937d7ffd700d91cbb2e176dab1"),
        "max-cost": (0, "0e5923357ac873a81770a629dc52797329dcf03cdbbe1544cc94fd4e90043815"),
        "max-improvement": (0, "086bb889beef22894a4063c3a2afc9197156c9fd51f844abad37be230a9e4f1a"),
        "round-robin": (0, "5179076af000d20c80c6bea58ef757562d13aae36ad8bd8b977fa2ba00749d77"),
        "min-path": (0, "fb8e6b66a7f5170c3a7d4bf387f4dd1bc23ba63ea8b17073298765016e7c352a"),
    },
    "fig3": {
        "oracle": (0, "bfc7148efcbead9d7b8b675b58da34e3c4c2ff746ff56245119b7346549f455d"),
        "max-cost": (0, "2aa5ccfe7b142f82969154717cb63b28085dea7ec9761b1d7bb681e2f4a3876e"),
        "max-improvement": (0, "17f28a25744bdab53b3ad9f1822dad76d7fc5556829da4be4883bcd311bcf4bb"),
        "round-robin": (0, "ddc021292c58dca468feb13b302b90b9e036e1e039136a346018b353c5ec3e90"),
        "min-path": (0, "e4987f3c4773087f89ebb451d875239ab4e4a80ce64200cc66fef5dcf2f9b2f2"),
    },
    "fig4": {
        "oracle": (0, "221fe80ee2353c7ef93d8460c1c67975fb948633789970617e958d46772fd51f"),
        "max-cost": (0, "b5e25bea5dc0c902c0247a794c57a62962c96a3e84630ab22a45b809bc9952d1"),
        "max-improvement": (0, "2b7ab64adf6970a634e67a4e0fc5d3db548eead4b1f23f6091d838fefbef0753"),
        "round-robin": (0, "3f65a5672e53e8cce47712570b62f24939f2e23afe1fbb8ab5da9e9033f1745c"),
        "min-path": (0, "44de1a25046127debcf2b1e242bd7ea2970ef5659cd3e7ea4748c8090ed1f7ab"),
    },
    "fig5a": {
        "oracle": (0, "8225da15b934d6a56ef37978d06fa43b5f5d0f1e9fdd80d0c690b78d26abb8d8"),
        "max-cost": (0, "a2d234a4101774c64365199a7236d0c94814fcdf32963e9666c12743b7a6a590"),
        "max-improvement": (0, "e15f7e3f65524cc2785f1119c570baebcf3b52775bcf68df3371c1c8666ba588"),
        "round-robin": (0, "1a6f071182649eb92a9da3cc7afbe02ef23da1f0ed80d9d6283dcc73177e82f3"),
        "min-path": (0, "6d98a685b1f3b1a5ae3e6b320441198748174d5cdd7a65bb7e6d4704eb5c990b"),
    },
    "fig5b": {
        "oracle": (0, "df86d053d87e7e03e8ddcd4c194b9206fdbee226fa50aa199c0f4e712def67c8"),
        "max-cost": (0, "a91623c57568c586c9a262a761873369a4bf1e0e6c650b5c4ec9904a074459ae"),
        "max-improvement": (0, "77ba2886ba5e950178581a2dbfdb3fe34b80e5c02473a9f6adccd440a319a0bc"),
        "round-robin": (0, "1c8605770f8707ac5be35509d109308a83b2d6b473f08b633ba67763722d245c"),
        "min-path": (0, "17b1aadc263128e719511d6d4e894e459c2ad89ebf1ac1be8504555ea58287ff"),
    },
    "fig6": {
        "oracle": (0, "e27e7172e82db620a2d783f9daf72eb6a435448fd981a69ec2a77d50bbb1f679"),
        "max-cost": (0, "d3a41bc26bfc4cfa238d85ac25540fdd5fa82d9091b3724d485234c86e3abccc"),
        "max-improvement": (0, "15ab45f7fe9acf89984f2587844b70c678e8cd4cccb892bbe1411de4b4f9055d"),
        "round-robin": (0, "a5285fe4a4f94accc8a274003e948600758bc1a5c79ee4effd2d74efca6d9bcf"),
        "min-path": (0, "40f8bdf57670bb9b0e4b6d6e695050c19b5400eaeaa942b089b83a85ca5487a8"),
    },
    "fig7a": {
        "oracle": (0, "2b42d8e262d35c0274b04831dac51077fb2c149a41a46bb0596226fd8c666127"),
        "max-cost": (0, "afaa4a78a6a498e1f6a9c4f5616a93ecb2f319849a20b41a92c0b86ce04876f2"),
        "max-improvement": (0, "1e171a558c5c3177573e63c7dd088c639466adacb48bd7599c53a5fdfc2bdff7"),
        "round-robin": (0, "4a8ec231322ba8914e79193a385e3fc30bc11df33e50f168c788dba4314b26fb"),
        "min-path": (0, "f0be581ba8874b57216a40a8fa2b229c9af60cc757fd158f7c7d675f1e7c5d3e"),
    },
    "fig7b": {
        "oracle": (0, "01bcfd26bcb89f8407bd8e7afbc6a2ff990fab8bee4786e291ab87b46e2fcd07"),
        "max-cost": (0, "fc9a260b3f420f54e32500b3f01cc898cfa8ee482a728e16923bf2e251e0cf05"),
        "max-improvement": (0, "14c29c48337d29d51541910f359af01aa4b4734a8f954429e9af9fd84c227eba"),
        "round-robin": (0, "1075f518ce8069de34d4515e71f0d7d91ec9b1d40dc5ebe4ad6faa7f151ca8aa"),
        "min-path": (0, "fe6f1ed1dc84bffef82a8f95c794351162a0161b48b7bd52c19f2740e350be73"),
    },
    "fig9b": {
        "oracle": (0, "4e3a3d06b00e165d6de6b4d8034b2d3660bf05135cdd9e99443ce720e2e8458c"),
        "max-cost": (0, "493fb659e0179b51220423e0f483e97006c96eed847083244637b57308f92844"),
        "max-improvement": (0, "0477518bd9d4d762d50b671b69cde00045d3872d3c96c9f053764f07ad80c751"),
        "round-robin": (0, "2a29f1266a6ef5044e6f34b7b4762c618ffe97b0c29d362f08ad9fb5fb4e8d79"),
        "min-path": (2, None),
    },
}


def _golden_run(argv, out):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        return code, None
    text = out.read_text()
    doc = json.loads(text)
    assert reference_dumps(doc) == text
    doc.pop("game", None)
    return code, hashlib.sha256(reference_dumps(doc).encode()).hexdigest()


@pytest.fixture
def writer_checked(monkeypatch):
    """Every document the command line writes, as built, checked against
    the reference writer."""
    from brdlab import cli

    def checked(doc):
        text = dumps(doc)
        assert text == reference_dumps(doc)
        return text

    monkeypatch.setattr(cli, "dumps", checked)


def _call(argv):
    """(exit code, stdout, stderr) of one in-process `main` call; a parse
    error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_reused_parser_repeats_first_run_bytes(self, tmp_path):
        from brdlab import cli

        instance = tmp_path / "fig2.json"
        assert main(["fixture", "fig2", "--out", str(instance)]) == 0
        sequence = [
            ["run", str(instance), "--rule", "random", "--seed", "5"],
            ["run", str(instance), "--rule", "random"],
            ["fixture", "fig2", "--params", "n=4", "eps=1/50"],
            ["dp", str(instance), "--mode", "bogus"],
            ["fixture", "fig2"],
        ]
        # each command first, on a parser built for it alone
        first = []
        for argv in sequence:
            cli._parser.cache_clear()
            first.append(_call(argv))
        assert [code for code, _, _ in first] == [0, 0, 0, 2, 0]
        # the seed and the parameters must not leak into the calls after them
        assert first[0][1] != first[1][1] and first[2][1] != first[4][1]
        cli._parser.cache_clear()
        assert [_call(argv) for argv in sequence] == first
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()


class TestGoldenCli:
    def test_oracle_and_ineff_outputs(self, tmp_path, writer_checked):
        got = {}
        for name, expected in GOLDEN.items():
            instance = tmp_path / f"{name}.json"
            assert main(["fixture", name, "--out", str(instance)]) == 0
            got[name] = {}
            for command in expected:
                if command == "oracle":
                    argv = ["oracle", str(instance)]
                else:
                    argv = ["ineff", str(instance), "--rule", command]
                out = tmp_path / f"{name}.{command}.json"
                got[name][command] = _golden_run(argv, out)
        assert got == GOLDEN

    def test_ineff_budget_exit_3(self, tmp_path, capsys):
        instance = tmp_path / "fig2.json"
        assert main(["fixture", "fig2", "--out", str(instance)]) == 0
        argv = ["ineff", str(instance), "--rule", "max-cost", "--state-limit", "2"]
        assert main(argv) == 3


def _run_instances():
    """Fixed linear and conflicting scheduling instances with tied loads and
    tied best responses, and fig2."""
    fig2 = fig2_maxcost()
    return {
        "sched-a": (SchedulingGame(4, [3, 3, 2, 2, 2, 1, 1, 5, 4, 2, 1, 3]),
                    Profile((0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 3, 0))),
        "sched-b": (SchedulingGame(3, ["7/2", "5/3", 2, "5/2", 1, "7/3", 3, "1/2", 2]),
                    Profile((2, 2, 2, 2, 1, 2, 2, 0, 2))),
        "coco-a": (SchedulingGame(5, [1] * 20, activation_cost=6),
                   Profile((0,) * 3 + (1,) * 4 + (2,) * 5 + (3,) * 6 + (4,) * 2)),
        "coco-b": (SchedulingGame(5, [1] * 17, activation_cost="13/2"),
                   Profile((4,) * 6 + (3,) * 5 + (2, 2, 2, 1, 1, 0))),
        "coco-c": (SchedulingGame(6, [1] * 18, activation_cost=16),
                   Profile((0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5))),
        "fig2": (fig2.game, fig2.initial),
    }


# sha256 of `brdlab run --rule <rule> --seed 3 --out` on `_run_instances()`;
# None where the rule does not accept the game (exit 2).  They pin the
# engine's tie-breaks: the lowest id among the rule's choice set, the lowest
# tied best response, and in the conflicting model the least loaded, highest
# index tied machine.
GOLDEN_RUN = {
    "sched-a": {
        "max-cost": (0, "e907c212a00ee1b6f9f98da13475b5c10067582f9c2074cfb84e5f040f85fcff"),
        "min-path": (2, None),
        "max-improvement": (0, "85a3c74bf5cab4b98cdd386e89cc0f21cfb38e2088921ffa92ef72a7f18cb60b"),
        "longest-job": (0, "34570ed4731caf4129a82049858606a1edbae5fb5955cbaba33840181d458e3b"),
        "round-robin": (0, "e907c212a00ee1b6f9f98da13475b5c10067582f9c2074cfb84e5f040f85fcff"),
        "random": (0, "f6bd988164e1c829289c30986bfbf50154220708f5496c6d55f85c599f2b8bc9"),
        "s-opt": (2, None),
    },
    "sched-b": {
        "max-cost": (0, "9575d25ca88c83c6f07c3ee05c852e242a1f84d5fe48aa736961714432369898"),
        "min-path": (2, None),
        "max-improvement": (0, "9c29e6e135dec7a477fc093013eed62112ca3b1384c30e5756a9f8a2551d0df7"),
        "longest-job": (0, "07178ffc55cf0f33619d054fcc0770e0a9786cdbb070ea2af0019bbd716fa112"),
        "round-robin": (0, "fb9d0898759d6ba0bdf7801e0be40320e6d007dde8341b3403055195eea5d48a"),
        "random": (0, "4c4ff072d0d2532f0ee91cc704824927d9787ef1fe4834f8e2ba8599c9b82601"),
        "s-opt": (2, None),
    },
    "coco-a": {
        "max-cost": (0, "70decff32abeff29cb597293ad1d536a18ba4a301ea69b1cbd39de58457fed83"),
        "min-path": (2, None),
        "max-improvement": (0, "70decff32abeff29cb597293ad1d536a18ba4a301ea69b1cbd39de58457fed83"),
        "longest-job": (0, "c058f9b4b6f02124c819eebe446fe3efcf67e4d5158ad21a6a0985643369a352"),
        "round-robin": (0, "c058f9b4b6f02124c819eebe446fe3efcf67e4d5158ad21a6a0985643369a352"),
        "random": (0, "02f80aefb1451f815478d90aeea10a17fefed97bee34a44e6c4fecb896dd7f0c"),
        "s-opt": (0, "4fc791d135ba1e79682c0071495a02023c51eea79c1c0e0ab206eb8ec5598d46"),
    },
    "coco-b": {
        "max-cost": (0, "b9691ef40ea95c150b30112bbe141a88cf77eb4f26465ed60f1fe01bfc69512e"),
        "min-path": (2, None),
        "max-improvement": (0, "b9691ef40ea95c150b30112bbe141a88cf77eb4f26465ed60f1fe01bfc69512e"),
        "longest-job": (0, "10e3f9174f96b237350f10a993793a0c7a3ca744784046330ece68a777b5ab05"),
        "round-robin": (0, "10e3f9174f96b237350f10a993793a0c7a3ca744784046330ece68a777b5ab05"),
        "random": (0, "483756f8b4d739e89aa2e76b771d1ba7aa6f8fda131f12d7a1c4e97ddc780a4e"),
        "s-opt": (0, "e39729ae9c887bf053de8441f91faf0356466eb6ec1cf588ecd29831e5380b3b"),
    },
    "coco-c": {
        "max-cost": (0, "407dd28b5f652b402b1c501e9953e8b383fd56a58e1b9eb646d203dec1effaf6"),
        "min-path": (2, None),
        "max-improvement": (0, "407dd28b5f652b402b1c501e9953e8b383fd56a58e1b9eb646d203dec1effaf6"),
        "longest-job": (0, "407dd28b5f652b402b1c501e9953e8b383fd56a58e1b9eb646d203dec1effaf6"),
        "round-robin": (0, "407dd28b5f652b402b1c501e9953e8b383fd56a58e1b9eb646d203dec1effaf6"),
        "random": (0, "4fb54c4aab9adff68e3789cd00e478c5b250e183b099ad50ecbca8508203fe7f"),
        "s-opt": (0, "5542e49e0a71dde7b9f18162a8e4939d160f326a5683a97952b163d437db3ee0"),
    },
    "fig2": {
        "max-cost": (0, "faa152b6043a783a9240f4d2e080d6229da580b19ceb8f7b5bfa85e293ed8af9"),
        "min-path": (0, "c156e10adf01465182976bca5d81ba844200a9377f3978a91de60a6e30a0c044"),
        "max-improvement": (0, "faa152b6043a783a9240f4d2e080d6229da580b19ceb8f7b5bfa85e293ed8af9"),
        "longest-job": (2, None),
        "round-robin": (0, "faa152b6043a783a9240f4d2e080d6229da580b19ceb8f7b5bfa85e293ed8af9"),
        "random": (0, "c9132c375836d9270943b68b352c4b9786f4183c1c23fb996e7fe62eb4117e09"),
        "s-opt": (2, None),
    },
}


class TestGoldenRun:
    def test_run_outputs(self, tmp_path, writer_checked):
        got = {}
        for name, (game, p0) in _run_instances().items():
            instance = tmp_path / f"{name}.json"
            instance.write_text(dumps(instance_to_doc(game, p0)))
            got[name] = {
                rule: _golden_run(["run", str(instance), "--rule", rule, "--seed", "3"],
                                  tmp_path / f"{name}.{rule}.json")
                for rule in RULES
            }
        assert got == GOLDEN_RUN
