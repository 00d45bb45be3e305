import dataclasses
import filecmp
import inspect
import os
import re

import numpy as np
import pytest

import envswitch.cli as cli
import envswitch.cloudedge as cloudedge
import envswitch.sim as sim
from envswitch.cli import (PAPER_SESSION_COUNTS, SessionReport, build_parser,
                           cmd_simulate, render_table, report_csv, round2,
                           train_models)
from envswitch.config import EngineConfig, apply_overrides, load_config
from envswitch.filters import context_from_windows
from envswitch.sim import scenario_text


class TestSessionReport:
    def test_arithmetic_paper_row(self):
        # Site A day-1 style row: 12.68 baseline, 6.60 proposed
        r = SessionReport("A_indoor", 1, 12.68, 6.60)
        assert r.improvement == pytest.approx(12.68 - 6.60)
        assert r.improvement == pytest.approx(6.08)
        assert r.relative == pytest.approx(6.08 / 12.68)

    def test_exact_identity_on_randoms(self, rng):
        for _ in range(50):
            base = float(rng.uniform(1, 30))
            prop = float(rng.uniform(-5, 30))
            r = SessionReport("B_door_egress", 1, base, prop)
            assert r.improvement == base - prop       # exact arithmetic
            assert r.relative == (base - prop) / base

    def test_relative_undefined_for_nonpositive_baseline(self):
        assert SessionReport("A_indoor", 1, 0.0, -1.0).relative is None


class TestRounding:
    def test_average_of_paper_improvements(self):
        improvements = [6.08, 7.81, 5.88, 8.68, 6.33]
        mean = float(np.mean(improvements))
        assert mean == pytest.approx(6.956)
        # documented display rounding: two decimals, half-up
        assert round2(mean) == "6.96"

    def test_half_up(self):
        assert round2(2.675) == "2.68"
        assert round2(2.674) == "2.67"
        assert round2(-1.005) == "-1.01"


class TestRenderTable:
    def make_reports(self):
        rows = [(12.68, 6.60), (13.41, 5.60), (13.68, 7.80)]
        return [SessionReport("A_indoor", i + 1, b, p)
                for i, (b, p) in enumerate(rows)]

    def test_table_mirrors_session_layout(self):
        text = render_table("A_indoor", self.make_reports())
        assert "Baseline TTS (s)" in text
        assert "Proposed TTS (s)" in text
        assert "Improvement (s)" in text
        assert "D1" in text and "D3" in text
        assert "Average improvement (s):" in text
        assert "relative improvements:" in text
        assert "Ratio of mean improvement to mean baseline:" in text

    def test_negative_improvement_not_suppressed(self):
        reports = [SessionReport("B_door_egress", 1, 15.79, 16.80)]
        text = render_table("B_door_egress", reports)
        assert "-1.01" in text
        csv = report_csv(reports)
        assert "-1.01" in csv

    def test_csv_header_and_rows(self):
        csv = report_csv(self.make_reports())
        lines = csv.strip().split("\n")
        assert lines[0] == "site,session,baseline_tts,proposed_tts,improvement,relative"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "A_indoor" and first[1] == "1"
        assert float(first[4]) == pytest.approx(6.08)


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = EngineConfig()
        written = cmd_simulate(["A"], 3, 50, str(tmp_path), cfg)
        assert len(written) == 3
        for stem in written:
            assert os.path.exists(stem + ".csv")
            assert os.path.exists(stem + ".truth")
            assert os.path.exists(stem + ".scenario")
        with open(written[0] + ".csv") as f:
            header = f.readline()
        assert header.startswith("t,")
        assert "mask_pdr" in header and "q_gnss" in header

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = EngineConfig()
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_simulate(["C"], 2, 9, str(a), cfg)
        cmd_simulate(["C"], 2, 9, str(b), cfg)
        for name in sorted(os.listdir(a)):
            assert filecmp.cmp(a / name, b / name, shallow=False), name


class TestTrainModels:
    def test_each_training_scenario_is_generated_once(self, monkeypatch):
        calls = []
        for module in (sim, cloudedge, cli):
            original = module.generate
            monkeypatch.setattr(module, "generate", lambda *a, _g=original, **k:
                                calls.append(scenario_text(a[0])) or _g(*a, **k))
        train_models(13, EngineConfig(), rounds=1, log=lambda line: None)
        assert len(calls) == 18 == len(set(calls))

    def test_selector_trains_on_the_served_context(self, monkeypatch):
        """Every selector item's context is ``context_from_windows`` of its
        positive query at scan age 0, the context the matcher serves with."""
        captured = []

        class Stop(Exception):
            pass

        def capture(selector, items, *args, **kwargs):
            captured.extend(items)
            raise Stop

        monkeypatch.setattr(cli, "train_selector", capture)
        with pytest.raises(Stop):
            train_models(13, EngineConfig(), rounds=1, log=lambda line: None)
        assert captured
        for ctx, (q_feats, q_pres, _, _), _ in captured:
            assert ctx == context_from_windows(q_feats, q_pres, 0.0)


class TestParser:
    def test_subcommands_and_flags(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--site", "B", "--sessions", "4",
                                  "--seed", "3", "--out", "x"])
        assert args.command == "simulate" and args.site == "B"
        args = parser.parse_args(["train", "--rounds", "5"])
        assert args.rounds == 5
        args = parser.parse_args(["evaluate", "--models", "m", "--out", "o"])
        assert args.models == "m"

    def test_invalid_site_rejected(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--site", "Z"])

    def test_paper_session_counts(self):
        assert PAPER_SESSION_COUNTS == {"A": 5, "B": 10, "C": 6}


class TestConfigFile:
    def test_overrides_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nradio.wall_db = 6.5\nbaseline.dwell_s = 4\n"
                        "ppo.epochs = 2\n")
        cfg = load_config(path)
        assert cfg.radio.wall_db == 6.5
        assert cfg.baseline.dwell_s == 4.0
        assert cfg.ppo.epochs == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(EngineConfig(), [("radio.flux_capacitor", "1")])

    def test_every_setting_is_read(self):
        # a setting nothing reads would be accepted from a file and ignored;
        # a field counts as read when the package outside config.py reads
        # it, or calls a method of its own section that reads it
        src = os.path.dirname(inspect.getfile(EngineConfig))
        code = ""
        for name in sorted(os.listdir(src)):
            if name.endswith(".py") and name != "config.py":
                with open(os.path.join(src, name), encoding="utf-8") as f:
                    code += f.read()

        def is_read(cls, key):
            if re.search(rf"\.{key}\b", code):
                return True
            return any(f"self.{key}" in inspect.getsource(method)
                       and re.search(rf"\.{name}\(", code)
                       for name, method in inspect.getmembers(cls, inspect.isfunction)
                       if not name.startswith("_"))

        unread = [f"{section.name}.{key.name}"
                  for section in dataclasses.fields(EngineConfig)
                  for key in dataclasses.fields(section.type)
                  if not is_read(section.type, key.name)]
        assert unread == []

    def test_defaults_unchanged_by_copy(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("radio.wall_db = 9.0\n")
        base = EngineConfig()
        load_config(path, base)
        assert base.radio.wall_db == 8.0
