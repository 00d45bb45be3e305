import dataclasses
import filecmp
import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

import envswitch.cli as cli
import envswitch.cloudedge as cloudedge
import envswitch.config as config_module
import envswitch.sim as sim
from envswitch.cli import (PAPER_SESSION_COUNTS, SessionReport, build_parser,
                           build_training_pairs, cmd_simulate, render_table,
                           report_csv, round2, train_models)
from envswitch.alignment import MetricModel
from envswitch.config import EngineConfig, apply_overrides, load_config
from envswitch.filters import SelectorModel, context_from_windows
from envswitch.fingerprints import (FEATURE_NAMES, MODALITIES, Fingerprint,
                                    FingerprintLibrary, FingerprintSequence,
                                    SwitchEvent)
from envswitch.policy import POLICY_HIDDEN, MatcherStack, PolicyModel
from envswitch.serialize import dump_tensors, parse_tensors
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


    @pytest.mark.parametrize("window_s", [0.2, 0.5, sim.WINDOW_S])
    def test_sequence_windows_tile_the_whole_walk(self, window_s, monkeypatch):
        # window ends are k * WINDOW_S, so rounding loses none even at a
        # 0.2 s constant, which no float sum of 0.2 reproduces
        for module in (sim, cli):
            monkeypatch.setattr(module, "WINDOW_S", window_s)
        cfg = EngineConfig()
        for flag in ("A", "B", "C"):
            sc = sim.make_scenario(flag, 13, cfg.radio, cfg.walker, cfg.baseline)
            trace = sim.generate(sc, cfg.radio, cfg.walker)
            seq = cli.trace_to_sequence(trace)
            n = round(trace.duration / window_s)
            assert len(seq.windows) == n
            ends = [k * window_s for k in range(1, n + 1)]
            assert [w.timestamp for w in seq.windows] == [0.5 * (t - window_s + t)
                                                          for t in ends]
            assert ends[-1] == pytest.approx(trace.duration, abs=1e-9)


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
        for ctx, ((q_feats, q_pres), _), _ in captured:
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
        assert metric.serialize() == MetricModel.identity().serialize()
        # one log line per stage, the metric's included
        assert "metric: identity embedding, uniform modality weights" in lines


class TestEvaluateSite:
    def test_every_walk_takes_its_onset_from_the_baseline_threshold(
            self, tmp_path, monkeypatch):
        cfg = EngineConfig()
        cfg.baseline = dataclasses.replace(cfg.baseline, threshold_dbm=-70.0)
        traces = []

        def recorded(*args):
            traces.append(sim.generate(*args))
            return traces[-1]

        monkeypatch.setattr(cli, "generate", recorded)
        cmd_simulate(["A"], 1, 13, str(tmp_path), cfg)
        cli.build_site_library("B", [13], cfg)
        stack = MatcherStack(SelectorModel.zeros(), MetricModel.identity(),
                             FingerprintLibrary(cfg.library), cfg.match.band, cfg)
        cli.evaluate_site("C", PolicyModel.zeros(POLICY_HIDDEN), stack, 1, 13, cfg)
        assert len(traces) == 3
        for trace in traces:
            # the noiseless serving RSSI crosses -70 dBm in the onset's second
            assert trace.scenario.onset_threshold_dbm == -70.0
            clean = sim.generate(dataclasses.replace(
                trace.scenario, shadow_sigma_db=0.0), cfg.radio, cfg.walker)
            serving, i = clean.serving_rssi(), int(trace.degradation_onset)
            assert clean.degradation_onset == trace.degradation_onset
            assert serving[i] >= -70.0 > serving[i + 1]

    def test_cfg_must_be_the_one_its_stack_serves(self):
        cfg = EngineConfig()
        stack = MatcherStack(SelectorModel.zeros(), MetricModel.identity(),
                             FingerprintLibrary(cfg.library), cfg.match.band, cfg)
        policy = PolicyModel.zeros(POLICY_HIDDEN)
        # the walks would be built at one speed and replayed under another
        faster = dataclasses.replace(
            cfg, walker=dataclasses.replace(cfg.walker, speed_mps=1.3))
        with pytest.raises(ValueError, match="stack"):
            cli.evaluate_site("A", policy, stack, 1, 13, faster)
        # an equal config is the stack's, though it is another object
        reports, _ = cli.evaluate_site("A", policy, stack, 1, 13, EngineConfig())
        assert len(reports) == 1


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


class TestLoadModels:
    def write_models(self, directory):
        for name, model in (("selector.txt", SelectorModel.from_seed(0)),
                            ("metric.txt", MetricModel.identity()),
                            ("policy.txt", PolicyModel.from_seed(0, POLICY_HIDDEN))):
            (directory / name).write_text(model.serialize())

    @pytest.mark.parametrize("name", ["selector.txt", "metric.txt", "policy.txt"])
    def test_truncated_model_file_names_its_path(self, tmp_path, name):
        self.write_models(tmp_path)
        path = tmp_path / name
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: the header counts")):
            cli.load_models(str(tmp_path), EngineConfig())

    def test_non_finite_model_value_names_its_path(self, tmp_path):
        self.write_models(tmp_path)
        path = tmp_path / "policy.txt"
        lines = path.read_text().splitlines()
        lines[2] = "nan " + lines[2].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: tensor ")):
            cli.load_models(str(tmp_path), EngineConfig())

    @pytest.mark.parametrize("name, tensor", [("selector.txt", "selector.w2"),
                                              ("metric.txt", "metric.W_gnss"),
                                              ("policy.txt", "policy.b2")])
    def test_a_missing_tensor_is_named(self, tmp_path, name, tensor):
        self.write_models(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text().replace(f" {tensor} ", f" {tensor}x "))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing tensor {tensor}")):
            cli.load_models(str(tmp_path), EngineConfig())

    @pytest.mark.parametrize("name, tensor, shape, message", [
        # the hidden width of w1 disagrees with b1 and w2
        ("selector.txt", "selector.w1", (3, 8), r"selector\.w1 \(3, 8\), selector\.b1 \(16,\)"),
        # consistent, but the selector reads 8 inputs, not 7
        ("selector.txt", "selector.w1", (16, 7), r"selector\.w1 \(16, 7\) .* 8 inputs to 7"),
        ("policy.txt", "policy.w1", (POLICY_HIDDEN, 6), r"policy\.w1 \(32, 6\) .* 7 inputs to 5"),
        ("policy.txt", "policy.b2", (4,), r"policy\.w2 \(5, 32\), policy\.b2 \(4,\)"),
        ("policy.txt", "policy.b1", (2, 16), r"policy\.b1 \(2, 16\)"),
        ("metric.txt", "metric.W_pdr", (4, 2), "embedding for pdr")])
    def test_a_tensor_of_another_shape_is_refused(self, tmp_path, name, tensor, shape,
                                                  message):
        self.write_models(tmp_path)
        path = tmp_path / name
        tensors = parse_tensors(path.read_text())
        tensors[tensor] = np.ones(shape)
        path.write_text(dump_tensors(tensors))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
            cli.load_models(str(tmp_path), EngineConfig())

    def test_serving_settings_are_recorded_and_checked(self, tmp_path):
        """``train`` writes match.band and window.buffer_windows next to the
        models; ``evaluate`` with another value of either is refused."""
        cli.main(["train", "--rounds", "0", "--out", str(tmp_path)])
        serving = tmp_path / "serving.txt"
        assert serving.read_text() == "match.band = 3\nwindow.buffer_windows = 10\n"
        assert cli.load_models(str(tmp_path), load_config(serving))[3]["A"].band == 3
        for line, key, trained, asked in (("match.band = 5", "match.band", 3, 5),
                                          ("window.buffer_windows = 6",
                                           "window.buffer_windows", 10, 6)):
            config = tmp_path / "run.cfg"
            config.write_text(line + "\n")
            with pytest.raises(ValueError, match=re.escape(
                    f"{serving}: the models were trained with {key} = {trained}, not {asked}")):
                cli.main(["evaluate", "--sessions", "1", "--config", str(config),
                          "--out", str(tmp_path)])


class TestBuildTrainingPairs:
    MIXED = ["wifi_to_cell"] * 4 + ["cell_to_wifi"] * 3 + ["ap_handover"]

    def test_partner_is_another_prototype_of_the_same_kind(self, rng):
        lib = committed_library(rng, self.MIXED)
        pairs = build_training_pairs({"A": lib}, seed=3)
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
        lib = committed_library(rng, ["wifi_to_cell"] * 5)
        pairs = build_training_pairs({"A": lib}, seed=0)
        assert len(pairs) == 5
        for (query, (feats, pres)), negatives in pairs:
            assert len(negatives) == cli.NEGATIVES_PER_POSITIVE
            for neg_query, (neg_feats, neg_pres) in negatives:
                assert neg_query is query
                # features are continuous draws, so each row names its source
                perm = [int(np.flatnonzero((feats == row).all(axis=1))[0])
                        for row in neg_feats]
                assert sorted(perm) == list(range(len(feats)))
                assert np.array_equal(neg_feats, feats[perm])
                assert np.array_equal(neg_pres, pres[perm])

    def test_rng_stream_draws_four_permutations_and_keeps_two(self, rng):
        """Per positive: one partner draw, then four permutations, of which
        the negatives are the first two; the other two only advance the
        generator, which picks every later partner and negative."""
        lib = committed_library(rng, self.MIXED)
        pairs = build_training_pairs({"A": lib}, seed=7)
        ref = np.random.default_rng(7)
        kinds = {pid: seq.label.kind for pid, seq in lib.items()}
        want = []
        for pid, kind in kinds.items():
            same = [p for p, k in kinds.items() if k == kind and p != pid]
            if not same:
                continue
            partner = same[ref.integers(len(same))]
            perms = [ref.permutation(len(lib.get(partner).windows)) for _ in range(4)]
            want.append((pid, partner, perms[:2]))
        assert len(pairs) == len(want)
        for ((query, (feats, pres)), negatives), (pid, partner, perms) in zip(pairs, want):
            assert which(lib, query) == pid
            assert which(lib, (feats, pres)) == partner
            assert len(negatives) == cli.NEGATIVES_PER_POSITIVE == 2
            for (neg_query, (neg_feats, neg_pres)), perm in zip(negatives, perms):
                assert neg_query is query
                assert np.array_equal(neg_feats, feats[perm])
                assert np.array_equal(neg_pres, pres[perm])

    def test_same_seed_same_pairs_and_one_draw_per_library(self, rng):
        libs = {"A": committed_library(rng, ["wifi_to_cell"] * 4),
                "B": committed_library(rng, self.MIXED)}

        def flat(pairs):
            return [a.tobytes() for (query, partner), negatives in pairs
                    for pair in [(query, partner)] + negatives
                    for side in pair for a in side]

        both = flat(build_training_pairs(libs, seed=5))
        assert both == flat(build_training_pairs(libs, seed=5))
        assert both != flat(build_training_pairs(libs, seed=6))
        # each library draws from its own generator, whatever comes before it
        alone = flat(build_training_pairs({"B": libs["B"]}, seed=5))
        assert both[-len(alone):] == alone

    def test_raises_without_positives(self, rng):
        small = {"A": committed_library(rng, ["wifi_to_cell"])}
        with pytest.raises(ValueError, match="libraries too small"):
            build_training_pairs(small, seed=0)
        # a library of distinct kinds forms no positive, even beside one that does
        distinct = committed_library(rng, ["wifi_to_cell", "cell_to_wifi"])
        with pytest.raises(ValueError, match="no positives"):
            build_training_pairs({"A": committed_library(rng, ["wifi_to_cell"] * 2),
                                  "B": distinct}, seed=0)


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
                        "walker.pause_s = 1.5\n")
        cfg = load_config(path)
        assert cfg.radio.wall_db == 6.5
        assert cfg.baseline.dwell_s == 4.0
        assert cfg.walker.pause_s == 1.5

    def test_documented_examples_load(self, tmp_path):
        # the README's --config example and the one in config.py's docstring
        # name only keys a file may set, and each sets something
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = [readme.split("passed with `--config`, e.g.\n\n```\n", 1)[1]
                    .split("```", 1)[0],
                    config_module.__doc__.split("e.g.::\n\n", 1)[1]
                    .split("\n\n", 1)[0]]
        for text in examples:
            path = tmp_path / "run.cfg"
            path.write_text(text)
            assert load_config(path) != EngineConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(EngineConfig(), [("radio.flux_capacitor", "1")])

    def test_retention_days_is_an_unknown_key(self, tmp_path):
        # no command evicts by age: a library is bounded by its capacity alone
        path = tmp_path / "run.cfg"
        path.write_text("library.retention_days = 7\n")
        with pytest.raises(ValueError,
                           match=r"unknown config key: 'library\.retention_days'"):
            load_config(path)

    @pytest.mark.parametrize("dotted", [
        "norm.bounds", "radio.rssi_floor_dbm", "radio.rssi_ceil_dbm",
        "window.window_s", "device.scan_period_s", "device.boosted_period_s",
        "device.boost_duration_s", "device.wifi_stale_s", "filters.q_range",
        "filters.r_range", "filters.sigma_range", "filters.alpha_range",
        "filters.hidden", "match.embed_dim", "match.margin", "match.gamma_soft",
        "match.negatives_per_positive", "reward.hf_window_early_s",
        "reward.hf_window_late_s", "reward.hf_taper_per_s",
        "reward.hf_taper_early_per_s", "reward.rollback_usable_dbm",
        "reward.rollback_dwell_s", "reward.tts_report_floor_s",
        "reward.tts_reward_floor_s", "reward.tau", "reward.shaping_bonus",
        "reward.healthy_link_bonus", "ppo.gae_lambda", "ppo.guide_eps",
        "ppo.hidden", "cloudedge.n_rounds", "cloudedge.state_quant",
        "reward.eta", "reward.lam", "reward.gamma_hf", "ppo.clip_eps",
        "ppo.discount", "ppo.entropy_coef", "ppo.value_coef", "ppo.epochs",
        "ppo.step_size", "cloudedge.distill_period",
        "cloudedge.episodes_per_edge", "cloudedge.hf_withheld_fraction",
        "cloudedge.reward_model_epochs", "cloudedge.reward_model_step"])
    def test_signal_ranges_are_unknown_keys(self, tmp_path, dotted):
        # the signal ranges, the window, the device's sensing schedule, the
        # selector's coefficient boxes, the matcher-training settings, the
        # simulated feedback, the shaping, the TTS floors, the reward
        # weights, the PPO and round settings and the training constants no
        # run varies are constants: trained models serve with
        # the features, schedule and boxes they were trained with, and a
        # file that moved the radio's clamp would leave readings outside the
        # units the features assume
        path = tmp_path / "run.cfg"
        path.write_text(f"{dotted} = -110\n")
        with pytest.raises(ValueError,
                           match=rf"unknown config key: '{re.escape(dotted)}'"):
            load_config(path)

    def test_evaluate_refuses_other_coefficient_boxes(self, tmp_path):
        # a selector squashed into boxes other than its training boxes
        # changed the reports of sites A and C without an error
        path = tmp_path / "run.cfg"
        path.write_text("filters.sigma_range = 2.0,3.0\nfilters.q_range = 0.5,1.0\n")
        with pytest.raises(ValueError, match=r"run\.cfg:1: unknown config key: "
                                             r"'filters\.sigma_range'"):
            cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path)])

    def test_evaluate_refuses_a_removed_reward_key(self, tmp_path):
        # the reported TTS floor is a constant: a file cannot move it
        path = tmp_path / "run.cfg"
        path.write_text("reward.tts_report_floor_s = -3.0\n")
        with pytest.raises(ValueError, match=r"run\.cfg:1: unknown config key: "
                                             r"'reward\.tts_report_floor_s'"):
            cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path)])

    @pytest.mark.parametrize("line, message", [
        ("match.band = three", r"'match\.band' takes int values: invalid literal"),
        ("library.capacity = 2.5", r"'library\.capacity' takes int values"),
        ("radio.flux_capacitor = 1", r"unknown config key: 'radio\.flux_capacitor'"),
        ("reward.eta = 1.0", r"unknown config key: 'reward\.eta'"),
        ("ppo.epochs = 6", r"unknown config key: 'ppo\.epochs'"),
        ("cloudedge.distill_period = 2", r"unknown config key: 'cloudedge\.distill_period'"),
        ("match.band = 0", r"'match\.band' must be at least 1, got 0"),
    ])
    def test_errors_name_the_key_and_the_line(self, tmp_path, line, message):
        # a bad value was refused with only the parse error, and an unknown
        # key or a refused value without the line it came from
        path = tmp_path / "run.cfg"
        path.write_text(f"# run\nradio.wall_db = 6.5\n\n{line}\nbaseline.dwell_s = 4\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: .*{message}"):
            load_config(path)

    def test_every_section_is_overridable(self):
        # the sections are EngineConfig's fields, so a new sub-config needs
        # no second list to be reachable from a config file
        base = EngineConfig()
        for section in dataclasses.fields(EngineConfig):
            key = dataclasses.fields(section.type)[0].name
            current = getattr(getattr(base, section.name), key)
            dotted = f"{section.name}.{key}"
            text = "2"
            if dotted == "baseline.threshold_dbm":
                text = "-70"                    # 2 is outside (-100, -30)
            cfg = apply_overrides(base, [(dotted, text)])
            assert getattr(cfg, section.name) is not getattr(base, section.name)
            assert getattr(getattr(base, section.name), key) is current
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(base, [("telemetry.enabled", "1")])

    @pytest.mark.parametrize("dotted, text, message", [
        ("baseline.dwell_s", "nan", "must be finite"),
        ("radio.wall_db", "-inf", "must be finite"),
        ("radio.wall_db", "6,8", "takes float values: could not convert"),
        # a window or scan period <= 0 hung the loop stepping by it; the
        # window, the scan schedule and the coefficient boxes are constants
        # now, so any value for them is refused
        ("filters.q_range", "0.5", "unknown key"),
        ("filters.q_range", "0.1,0.5,0.9", "unknown key"),
        ("window.window_s", "0", "unknown key"),
        ("window.window_s", "-1", "unknown key"),
        ("device.scan_period_s", "0", "unknown key"),
        ("device.scan_period_s", "-1", "unknown key"),
        ("device.boosted_period_s", "0", "unknown key"),
        ("device.boosted_period_s", "-1", "unknown key"),
        # each of these failed only inside train: a one-window buffer cannot
        # be warped, a band of 0 was refused by the matcher, a walker rate
        # of 0 divided by zero (the tick rate is a constant now),
        # and no scenario's RSSI decays to a threshold outside (-100, -30)
        ("window.buffer_windows", "1", r"must be at least 2, got 1"),
        ("match.band", "0", r"must be at least 1, got 0"),
        ("walker.tick_hz", "0", "unknown key"),
        ("walker.stride_m", "0", r"must be > 0, got 0.0"),
        ("walker.speed_mps", "0", r"must be > 0, got 0.0"),
        ("baseline.threshold_dbm", "-20", r"must be in \(-100, -30\), got -20.0"),
        ("baseline.threshold_dbm", "-100", r"must be in \(-100, -30\), got -100.0"),
        # a capacity below 2 failed only after every site library was
        # built, with "no training pairs": pairs are drawn within a library
        ("library.capacity", "1", r"must be at least 2, got 1"),
        ("library.capacity", "0", r"must be at least 2, got 0"),
        ("library.capacity", "-3", r"must be at least 2, got -3"),
        # an empty salt made the shipped edge hash an unsalted hash of the
        # device id, which anyone can recompute
        ("library.salt", "", r"must be non-blank, got ''"),
    ])
    def test_invalid_values_rejected_when_loaded(self, tmp_path, dotted, text, message):
        # each of these was stored as given and failed, hung or silently did
        # nothing, only where the pipeline first read it
        path = tmp_path / "run.cfg"
        path.write_text(f"{dotted} = {text}\n")
        if message == "unknown key":
            message = rf"unknown config key: '{re.escape(dotted)}'$"
        else:
            message = rf"'{re.escape(dotted)}' {message}"
        with pytest.raises(ValueError, match=message):
            load_config(path)

    def test_every_field_can_be_set_from_text(self, tmp_path):
        # each default written as a config file would write it reads back
        # as itself, so no setting is out of a config file's reach
        def text(value):
            return repr(value) if isinstance(value, float) else str(value)

        base = EngineConfig()
        lines = [f"{section.name}.{key.name} = "
                 f"{text(getattr(getattr(base, section.name), key.name))}"
                 for section in dataclasses.fields(EngineConfig)
                 for key in dataclasses.fields(section.type)]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert load_config(path) == base

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
