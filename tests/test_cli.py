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
                           build_training_pairs, cmd_simulate, render_table,
                           report_csv, round2, train_models)
from envswitch.alignment import MetricModel
from envswitch.config import EngineConfig, apply_overrides, load_config
from envswitch.filters import context_from_windows
from envswitch.fingerprints import (FEATURE_NAMES, MODALITIES, Fingerprint,
                                    FingerprintLibrary, FingerprintSequence,
                                    SwitchEvent)
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
        assert header.rstrip("\n").split(",") == (
            ["t", *FEATURE_NAMES] + [f"mask_{m}" for m in MODALITIES])

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

    def test_the_identity_metric_is_served_and_never_fitted(self, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("train_models fitted the metric")

        # bench/spans.py rebinds this name, so it stays an attribute of cli
        assert callable(cli.train_metric)
        monkeypatch.setattr(cli, "train_metric", fit)
        cfg = EngineConfig()
        lines = []
        _, metric, *_ = train_models(13, cfg, rounds=1, log=lines.append)
        assert metric.serialize() == MetricModel.identity(cfg.match.embed_dim).serialize()
        # one log line per stage, the metric's included
        assert "metric: identity embedding, uniform modality weights" in lines


def committed_library(rng, kinds):
    """A library of one committed sequence per kind, each 4-7 windows of
    random features with presence drawn per window."""
    lib = FingerprintLibrary()
    for day, kind in enumerate(kinds):
        n = int(rng.integers(4, 8))
        windows = [Fingerprint(float(t + 1), rng.normal(size=14), rng.random(5) < 0.7)
                   for t in range(n)]
        lib.commit_segment(FingerprintSequence(windows), SwitchEvent(float(n), kind),
                           created_day=day)
    return lib


def which(lib, packed):
    """The id of the prototype whose cached packed arrays ``packed`` holds."""
    return next(pid for pid, seq in lib.items()
                if all(a is b for a, b in zip(seq.packed(), packed)))


class TestBuildTrainingPairs:
    MIXED = ["wifi_to_cell"] * 4 + ["cell_to_wifi"] * 3 + ["ap_handover"]

    def test_partner_is_another_prototype_of_the_same_kind(self, rng):
        lib = committed_library(rng, self.MIXED)
        pairs = build_training_pairs({"A": lib}, EngineConfig(), seed=3)
        queries = [which(lib, query) for (query, _), _ in pairs]
        # every prototype with a same-kind other is a query once, in id order;
        # the lone ap_handover prototype has no partner
        assert queries == [pid for pid, seq in lib.items()
                           if seq.label.kind != "ap_handover"]
        for (query, partner), _ in pairs:
            q, p = lib.get(which(lib, query)), lib.get(which(lib, partner))
            assert q is not p
            assert q.label.kind == p.label.kind

    def test_negatives_shuffle_the_partner_in_time(self, rng):
        cfg = EngineConfig()
        lib = committed_library(rng, ["wifi_to_cell"] * 5)
        pairs = build_training_pairs({"A": lib}, cfg, seed=0)
        assert len(pairs) == 5
        for (query, (feats, pres)), negatives in pairs:
            assert len(negatives) == cfg.match.negatives_per_positive
            for neg_query, (neg_feats, neg_pres) in negatives:
                assert neg_query is query
                # features are continuous draws, so each row names its source
                perm = [int(np.flatnonzero((feats == row).all(axis=1))[0])
                        for row in neg_feats]
                assert sorted(perm) == list(range(len(feats)))
                assert np.array_equal(neg_feats, feats[perm])
                assert np.array_equal(neg_pres, pres[perm])

    def test_same_seed_same_pairs_and_one_draw_per_library(self, rng):
        cfg = EngineConfig()
        libs = {"A": committed_library(rng, ["wifi_to_cell"] * 4),
                "B": committed_library(rng, self.MIXED)}

        def flat(pairs):
            return [a.tobytes() for (query, partner), negatives in pairs
                    for pair in [(query, partner)] + negatives
                    for side in pair for a in side]

        both = flat(build_training_pairs(libs, cfg, seed=5))
        assert both == flat(build_training_pairs(libs, cfg, seed=5))
        assert both != flat(build_training_pairs(libs, cfg, seed=6))
        # each library draws from its own generator, whatever comes before it
        alone = flat(build_training_pairs({"B": libs["B"]}, cfg, seed=5))
        assert both[-len(alone):] == alone

    def test_raises_without_positives(self, rng):
        cfg = EngineConfig()
        small = {"A": committed_library(rng, ["wifi_to_cell"])}
        with pytest.raises(ValueError, match="libraries too small"):
            build_training_pairs(small, cfg, seed=0)
        # a library of distinct kinds forms no positive, even beside one that does
        distinct = committed_library(rng, ["wifi_to_cell", "cell_to_wifi"])
        with pytest.raises(ValueError, match="no positives"):
            build_training_pairs({"A": committed_library(rng, ["wifi_to_cell"] * 2),
                                  "B": distinct}, cfg, seed=0)


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

    @pytest.mark.parametrize("flag, value, command", [
        ("--sessions", "0", "simulate"), ("--sessions", "0", "evaluate"),
        ("--sessions", "-2", "simulate"), ("--sessions", "-2", "evaluate"),
        ("--rounds", "-1", "train")])
    def test_counts_out_of_range_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err

    def test_counts_at_their_least_accepted(self):
        args = build_parser().parse_args(["evaluate", "--sessions", "1"])
        assert args.sessions == 1
        assert build_parser().parse_args(["train", "--rounds", "0"]).rounds == 0

    # train trains every site, and only train runs cloud-edge rounds: a flag
    # a command would ignore is refused instead
    @pytest.mark.parametrize("flag, value, command", [
        ("--site", "A", "train"), ("--sessions", "0", "train"), ("--sessions", "-2", "train"),
        ("--sessions", "3", "train"), ("--rounds", "-1", "simulate"),
        ("--rounds", "-1", "evaluate"), ("--rounds", "5", "simulate"),
        ("--rounds", "5", "evaluate")])
    def test_flag_the_command_does_not_read_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

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

    def test_every_section_is_overridable(self):
        # the sections are EngineConfig's fields, so a new sub-config needs
        # no second list to be reachable from a config file
        # (a section whose first field cannot be set from text, such as
        # norm.bounds, is still found: it names the key instead of calling
        # it unknown)
        base = EngineConfig()
        for section in dataclasses.fields(EngineConfig):
            key = dataclasses.fields(section.type)[0].name
            current = getattr(getattr(base, section.name), key)
            dotted = f"{section.name}.{key}"
            if isinstance(current, dict):
                with pytest.raises(ValueError, match=f"'{dotted}'.*cannot be overridden"):
                    apply_overrides(base, [(dotted, "2")])
                continue
            # a tuple takes as many values as its default holds
            text = ",".join(["2"] * len(current)) if isinstance(current, tuple) else "2"
            if dotted == "ppo.clip_eps":
                text = "0.5"                    # 2 is outside (0, 1)
            cfg = apply_overrides(base, [(dotted, text)])
            assert getattr(cfg, section.name) is not getattr(base, section.name)
            assert getattr(getattr(base, section.name), key) is current
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(base, [("telemetry.enabled", "1")])

    @pytest.mark.parametrize("dotted, text, message", [
        ("filters.q_range", "0.5", r"takes 2 comma-separated value\(s\), got 1"),
        ("filters.q_range", "0.1,0.5,0.9", r"takes 2 comma-separated value\(s\), got 3"),
        ("filters.sigma_range", "0.1,inf", "must be finite"),
        ("reward.tau", "nan", "must be finite"),
        ("ppo.clip_eps", "inf", "must be finite"),
        ("radio.wall_db", "-inf", "must be finite"),
        ("radio.wall_db", "6,8", r"takes 1 comma-separated value\(s\), got 2"),
        # a window or scan period <= 0 hung the loop stepping by it, and a
        # distill period of 0 divided by zero after a whole round
        ("window.window_s", "0", r"must be > 0, got 0.0"),
        ("window.window_s", "-1", r"must be > 0, got -1.0"),
        ("device.scan_period_s", "0", r"must be > 0, got 0.0"),
        ("device.scan_period_s", "-1", r"must be > 0, got -1.0"),
        ("device.boosted_period_s", "0", r"must be > 0, got 0.0"),
        ("device.boosted_period_s", "-1", r"must be > 0, got -1.0"),
        ("cloudedge.distill_period", "0", r"must be at least 1, got 0"),
        ("cloudedge.distill_period", "-1", r"must be at least 1, got -1"),
        # a clip of 2 was refused only after a whole round of rollouts, a
        # negative weight never, a grid of 0 made the models NaN, and no
        # episodes failed the first round after pre-training
        ("reward.eta", "-1", r"must be >= 0, got -1.0"),
        ("reward.lam", "-1", r"must be >= 0, got -1.0"),
        ("reward.gamma_hf", "-1", r"must be >= 0, got -1.0"),
        ("ppo.clip_eps", "0", r"must be in \(0, 1\), got 0.0"),
        ("ppo.clip_eps", "1", r"must be in \(0, 1\), got 1.0"),
        ("cloudedge.state_quant", "0", r"must be > 0, got 0.0"),
        ("cloudedge.state_quant", "-0.01", r"must be > 0, got -0.01"),
        ("cloudedge.episodes_per_edge", "0", r"must be at least 1, got 0"),
    ])
    def test_invalid_values_rejected_when_loaded(self, tmp_path, dotted, text, message):
        # each of these was stored as given and failed, hung or silently did
        # nothing, only where the pipeline first read it
        path = tmp_path / "run.cfg"
        path.write_text(f"{dotted} = {text}\n")
        with pytest.raises(ValueError, match=rf"'{re.escape(dotted)}' {message}"):
            load_config(path)

    def test_all_reward_weights_zero_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("reward.eta = 0\nreward.lam = 0\nreward.gamma_hf = 0\n")
        with pytest.raises(ValueError, match=r"'reward.eta', 'reward.lam' and "
                                             r"'reward.gamma_hf' must not all be 0"):
            load_config(path)

    def test_dict_field_override_is_rejected(self, tmp_path):
        # norm.bounds maps feature names to ranges; text stored in its place
        # would only fail later, inside sim.segment_before
        base = EngineConfig()
        with pytest.raises(ValueError, match="'norm.bounds'"):
            apply_overrides(base, [("norm.bounds", "2")])
        path = tmp_path / "run.cfg"
        path.write_text("norm.bounds = 2\n")
        with pytest.raises(ValueError, match="'norm.bounds'"):
            load_config(path)
        assert isinstance(base.norm.bounds, dict)
        assert apply_overrides(base, [("match.band", "4")]).match.band == 4

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
