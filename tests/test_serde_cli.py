"""Serialization round trips, trace verification, and the command line."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brdlab.cli import main
from brdlab.engine import LowestIdRule, run_brd
from brdlab.fixtures import appB_coco, fig2_maxcost, fig3_minpath_chain
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
from helpers import random_coco_game, random_profile, random_symmetric_game


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


class TestInstanceRoundTrip:
    def round_trip(self, game, p0):
        doc = instance_to_doc(game, p0)
        text = dumps(doc)
        game2, p2 = instance_from_doc(json.loads(text))
        doc2 = instance_to_doc(game2, p2)
        assert doc == doc2
        assert p2.choices == p0.choices
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

    def test_dp_replay_traces_verify(self):
        rng = random.Random(73)
        from brdlab.sppdp import dp_single_source, replay
        from helpers import random_single_source_instance

        for _ in range(10):
            inst = random_single_source_instance(rng)
            trace = replay(inst, dp_single_source(inst))
            game, _ = inst.to_game()
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

    def test_unknown_fixture_exits_2(self):
        assert main(["fixture", "fig99"]) == 2

    def test_fixture_params(self, tmp_path):
        instance = self.fixture_file(tmp_path, "fig2", ["n=4", "eps=1/50"])
        doc = json.loads(instance.read_text())
        assert len(doc["players"]) == 4

    def test_deterministic_bytes(self, tmp_path):
        a = self.fixture_file(tmp_path, "fig4")
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        b = b_dir / "fig4.json"
        assert main(["fixture", "fig4", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
