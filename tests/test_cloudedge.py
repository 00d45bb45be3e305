import dataclasses
import operator

import numpy as np
import pytest

import envswitch.cli as cli
import envswitch.cloudedge as ce
import envswitch.sim as sim
from envswitch.alignment import MetricModel
from envswitch.cloudedge import (EdgeAgent, EdgeSummary, RewardModel,
                                 RoundState, SummaryRecord, aggregate,
                                 decode_distillation, encode_distillation,
                                 fit_reward_model, offline_update,
                                 parse_summary, reward_model_loss, run_round,
                                 summarize_trajectory)
from envswitch.config import EngineConfig
from envswitch.fingerprints import (FingerprintLibrary, SwitchEvent,
                                    contains_identifier_leak, quantize)
from envswitch.filters import SelectorModel
from envswitch.policy import (MatcherStack, PolicyModel, Trajectory, act,
                              rollout)
from envswitch.sim import generate, make_scenario, segment_before

CFG = EngineConfig()


def record(state, action, hf, offset):
    return SummaryRecord(tuple(state), action, hf, offset)


def toy_summary(edge_hash="hdeadbeef00000000", version=1, n=3):
    records = tuple(record([0.1 * k] * 7, k % 4, (-1.0) ** k * 0.5, float(k))
                    for k in range(n))
    return EdgeSummary(version, edge_hash, records)


def make_trajectory(rng, length=8, hf=0.5):
    return Trajectory(
        states=rng.normal(0, 1, size=(length, 7)),
        actions=rng.integers(0, 4, size=length),
        log_probs=np.full(length, np.log(0.25)),
        values=np.zeros(length),
        step_rewards=rng.normal(0, 0.1, size=length),
        dtime=3.0, hf=hf, completion=float(length), censored=False,
        action_time=float(length - 1), terminal_step=length - 1,
        policy_tts=2.0, baseline_tts=10.0)


class TestAggregate:
    def test_empty_inbox(self):
        states, actions, hfs, offsets = aggregate([])
        assert states.shape == (0, 7) and actions.size == 0

    def test_counts_multiply(self):
        inbox = [toy_summary(f"h{k:016x}", n=4) for k in range(3)]
        states, actions, hfs, offsets = aggregate(inbox)
        assert states.shape[0] == 12

    def test_permutation_insensitive(self):
        inbox = [toy_summary(f"h{k:016x}", n=3) for k in range(4)]
        a = aggregate(inbox)
        b = aggregate(list(reversed(inbox)))
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)


class TestWireFormats:
    def test_summary_roundtrip_byte_exact(self):
        summary = toy_summary(n=5)
        text = summary.serialize()
        back = parse_summary(text)
        assert back == summary
        assert back.serialize() == text

    def test_length_prefix_matches_body(self):
        text = toy_summary().serialize()
        first, _, rest = text.partition("\n")
        assert int(first) == len(rest.encode("utf-8")) - 1  # trailing newline

    def test_nan_hf_survives(self):
        s = EdgeSummary(2, "habc", (record([0.0] * 7, 1, float("nan"), 0.0),))
        back = parse_summary(s.serialize())
        assert np.isnan(back.records[0].hf)

    def test_distillation_roundtrip(self):
        policy = PolicyModel.from_seed(4)
        text = encode_distillation(7, policy)
        version, back = decode_distillation(text)
        assert version == 7
        assert np.array_equal(back.net.to_vector(), policy.net.to_vector())

    def test_summarize_trajectory_is_desensitized(self, rng):
        traj = make_trajectory(rng)
        summary = summarize_trajectory(traj, 3, "edge-A", "salt-x", 0.01)
        text = summary.serialize()
        assert "edge-A" not in text
        assert not contains_identifier_leak(text, ["edge-A"])
        # offsets are relative step indices, and quantization snapped states
        assert summary.records[0].offset == 0.0
        for r in summary.records:
            for v in r.state:
                assert abs(v / 0.01 - round(v / 0.01)) < 1e-9

    @pytest.mark.parametrize("quant", [0.01, 0.25])
    def test_summarize_trajectory_matches_scalar_quantize(self, rng, quant):
        traj = make_trajectory(rng, length=12)
        # values whose quotient by the step is exactly k + 0.5 (round half to
        # even), negatives and signed zeros
        halves = (np.arange(-40, 40) + 0.5) * quant
        ratio = halves / quant
        ties = halves[ratio - np.floor(ratio) == 0.5]
        states = traj.states.copy()
        states[:, 0] = ties[ties < 0][:12]
        states[:, 1] = ties[ties > 0][-12:]
        states[:, 2] = np.tile([-0.0, 0.0], 6)
        traj = dataclasses.replace(traj, states=states)
        summary = summarize_trajectory(traj, 2, "edge-A", "salt-x", quant)
        records = tuple(
            SummaryRecord(tuple(quantize(v, quant) for v in traj.states[t]),
                          int(traj.actions[t]),
                          float(traj.hf) if t == len(states) - 1 else float("nan"),
                          float(t))
            for t in range(len(states)))
        scalar = EdgeSummary(2, summary.edge_id_hash, records)
        assert summary.serialize() == scalar.serialize()
        assert ([repr(r.state) for r in summary.records]
                == [repr(r.state) for r in scalar.records])

    def test_direct_hf_only_on_terminal_record(self, rng):
        traj = make_trajectory(rng, hf=0.75)
        summary = summarize_trajectory(traj, 1, "e", "s")
        hfs = [r.hf for r in summary.records]
        assert np.isnan(hfs[:-1]).all()
        assert hfs[-1] == 0.75


class TestRewardModel:
    def test_constant_target_regression(self, rng):
        states = rng.normal(0, 1, size=(60, 7))
        actions = rng.integers(0, 4, size=60)
        hfs = np.ones(60)
        model = RewardModel.from_seed(0)
        model = fit_reward_model(model, (states, actions, hfs), epochs=300,
                                 step_size=0.1)
        preds = model.predict(states, actions)
        assert abs(float(preds.mean()) - 1.0) < 0.1

    def test_zero_epochs_unchanged(self, rng):
        model = RewardModel.from_seed(1)
        batch = (rng.normal(0, 1, (5, 7)), rng.integers(0, 4, 5), rng.normal(0, 1, 5))
        out = fit_reward_model(model, batch, epochs=0)
        assert np.array_equal(out.net.to_vector(), model.net.to_vector())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            fit_reward_model(RewardModel.from_seed(0),
                             (np.zeros((0, 7)), np.zeros(0, int), np.zeros(0)))

    def test_gradient_matches_finite_difference(self, rng):
        # one-step descent with tiny lr approximates -lr * dL/dtheta
        states = rng.normal(0, 1, size=(12, 7))
        actions = rng.integers(0, 4, size=12)
        hfs = rng.uniform(-1, 1, size=12)
        model = RewardModel.from_seed(2)
        lr = 1e-6
        stepped = fit_reward_model(model, (states, actions, hfs), epochs=1,
                                   step_size=lr)
        implied_grad = (model.net.to_vector() - stepped.net.to_vector()) / lr
        vec = model.net.to_vector()
        h = 1e-5
        batch = (states, actions, hfs)
        checked = 0
        for i in rng.choice(vec.size, size=12, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fp = reward_model_loss(RewardModel(model.net.from_vector(vp)), batch)
            fm = reward_model_loss(RewardModel(model.net.from_vector(vm)), batch)
            fd = (fp - fm) / (2 * h)
            if abs(fd) < 1e-10 and abs(implied_grad[i]) < 1e-10:
                continue
            rel = abs(implied_grad[i] - fd) / max(1e-8, abs(implied_grad[i]), abs(fd))
            assert rel < 1e-3
            checked += 1
        assert checked >= 6

    def test_predictions_bounded(self, rng):
        model = RewardModel.from_seed(3)
        preds = model.predict(rng.normal(0, 10, (40, 7)), rng.integers(0, 4, 40))
        assert np.all(np.abs(preds) <= 1.0)


def build_edges(seed=0, n_scenarios=2):
    edges = []
    for flag in ("A", "C"):
        traces = [generate(make_scenario(flag, seed + k, CFG.radio, CFG.walker),
                           CFG.radio, CFG.walker) for k in range(n_scenarios)]
        lib = FingerprintLibrary()
        seg = segment_before(traces[0], 28.0, CFG)
        lib.commit_segment(seg, SwitchEvent(seg.windows[-1].timestamp,
                                            "wifi_to_cell"), 0)
        stack = MatcherStack(selector=SelectorModel.zeros(),
                             metric=MetricModel.identity(), library=lib,
                             band=3, cfg=CFG)
        edges.append(EdgeAgent(edge_id=f"edge-{flag}", stack=stack,
                               traces=traces,
                               policy=PolicyModel.from_seed(seed)))
    return edges


def small_cfg(**overrides):
    cfg = dataclasses.replace(CFG)
    cfg.cloudedge = dataclasses.replace(
        CFG.cloudedge, episodes_per_edge=2, reward_model_epochs=5, **overrides)
    return cfg


class TestRunRound:
    def test_rounds_replay_the_stored_traces(self, monkeypatch):
        edges = build_edges(n_scenarios=3)
        calls, replayed = [], []
        for module in (sim, ce, cli):
            original = module.generate
            monkeypatch.setattr(module, "generate", lambda *a, _g=original, **k:
                                calls.append(a[0]) or _g(*a, **k))
        monkeypatch.setattr(ce, "rollout", lambda *a, _r=ce.rollout, **k:
                            replayed.append(k["trace"]) or _r(*a, **k))
        state = RoundState(0, 2, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        for _ in range(2):
            state = run_round(state, edges, small_cfg(), seed=1)
        assert calls == []
        expected = [e.traces[(2 * r + k) % 3] for r in range(2) for e in edges
                    for k in range(2)]
        assert len(replayed) == len(expected)
        assert all(map(operator.is_, replayed, expected))

    def test_distill_period_one_syncs_versions(self):
        edges = build_edges()
        cfg = small_cfg(distill_period=1)
        state = RoundState(0, 5, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        out = run_round(state, edges, cfg, seed=1)
        assert out.cloud_version == 1
        assert all(v == 1 for v in out.edge_versions.values())
        assert all(e.policy_version == 1 for e in edges)

    def test_distill_period_three_gates_updates(self):
        edges = build_edges()
        cfg = small_cfg(distill_period=3)
        state = RoundState(0, 5, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        out = run_round(state, edges, cfg, seed=1)
        assert out.cloud_version == 1
        assert all(v == 0 for v in out.edge_versions.values())

    def test_round_budget_exhausted(self):
        edges = build_edges()
        cfg = small_cfg()
        state = RoundState(2, 2, edges[0].policy, 2, RewardModel.from_seed(0), {})
        with pytest.raises(ValueError, match="budget"):
            run_round(state, edges, cfg, seed=0)

    def test_versions_never_decrease_across_rounds(self):
        edges = build_edges()
        cfg = small_cfg(distill_period=2)
        state = RoundState(0, 4, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        cloud_versions, edge_versions = [0], [0]
        for _ in range(4):
            state = run_round(state, edges, cfg, seed=2)
            cloud_versions.append(state.cloud_version)
            edge_versions.append(max(state.edge_versions.values() or [0]))
        assert all(a <= b for a, b in zip(cloud_versions, cloud_versions[1:]))
        assert all(a <= b for a, b in zip(edge_versions, edge_versions[1:]))
        assert all(max(state.edge_versions.values()) <= state.cloud_version
                   for _ in [0])

    def test_round_is_deterministic(self):
        results = []
        for _ in range(2):
            edges = build_edges()
            cfg = small_cfg()
            state = RoundState(0, 3, edges[0].policy, 0,
                               RewardModel.from_seed(0),
                               {e.edge_id: 0 for e in edges})
            out = run_round(state, edges, cfg, seed=5)
            results.append((out.cloud_policy.net.to_vector(),
                            out.mean_rewards[-1]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_direct_hf_used_verbatim_model_fills_gaps(self, monkeypatch):
        edges = build_edges()
        cfg = small_cfg(hf_withheld_fraction=0.5)
        captured = {}
        real_ppo = ce.ppo_update

        def spy_ppo(model, batch, *args, **kwargs):
            captured["batch"] = batch
            return real_ppo(model, batch, *args, **kwargs)

        monkeypatch.setattr(ce, "ppo_update", spy_ppo)
        state = RoundState(0, 2, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        out = run_round(state, edges, cfg, seed=3)
        batch = captured["batch"]
        assert len(batch) == 4
        # every trajectory entering PPO has a concrete hf; withheld ones were
        # filled by the reward model (bounded), direct ones pass through
        direct_values = set()
        for traj in batch:
            assert traj.hf is not None and abs(traj.hf) <= 1.0
            direct_values.add(round(traj.hf, 6))
        assert len(direct_values) >= 2

    def test_inbox_summaries_pass_privacy_check(self):
        edges = build_edges()
        cfg = small_cfg()
        state = RoundState(0, 2, edges[0].policy, 0, RewardModel.from_seed(0),
                           {e.edge_id: 0 for e in edges})
        out = run_round(state, edges, cfg, seed=4)
        raw_ids = [e.edge_id for e in edges] + ["02:aa:bb:cc:dd:ee"]
        for summary in out.inbox:
            assert not contains_identifier_leak(summary.serialize(), raw_ids)


class TestOfflineUpdate:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            offline_update(PolicyModel.zeros(), [])

    def test_bounded_change_and_finite(self, rng):
        policy = PolicyModel.from_seed(5)
        log = [make_trajectory(rng) for _ in range(4)]
        out = offline_update(policy, log, step_size=0.5, max_norm=0.5)
        delta = out.net.to_vector() - policy.net.to_vector()
        assert np.all(np.isfinite(delta))
        assert float(np.max(np.abs(delta))) <= 0.5 + 1e-12

    def test_agreement_with_scripted_expert_increases(self, rng):
        # expert: handover when similarity feature is high, else hold
        def expert_action(state):
            return 3 if state[0] > 0.5 else 0

        def expert_log(n_traj=12, length=12):
            log = []
            for _ in range(n_traj):
                states = rng.uniform(0, 1, size=(length, 7))
                actions = np.array([expert_action(s) for s in states])
                rewards = np.where(actions == 3, 0.5, 0.1) * states[:, 0]
                log.append(Trajectory(
                    states=states, actions=actions,
                    log_probs=np.full(length, np.log(0.25)),
                    values=np.zeros(length), step_rewards=rewards,
                    dtime=2.0, hf=1.0, completion=float(length),
                    censored=False, action_time=float(length),
                    terminal_step=length - 1, policy_tts=1.0,
                    baseline_tts=float(length)))
            return log

        held_out = rng.uniform(0, 1, size=(300, 7))
        labels = np.array([expert_action(s) for s in held_out])
        policy = PolicyModel.from_seed(6)

        def agreement(p):
            preds = [act(p, s, "greedy")[0] for s in held_out]
            return float(np.mean(np.array(preds) == labels))

        before = agreement(policy)
        log = expert_log()
        updated = policy
        for _ in range(10):
            updated = offline_update(updated, log, step_size=0.2)
        after = agreement(updated)
        assert after > before

    def test_self_log_smoke(self, rng):
        policy = PolicyModel.from_seed(7)
        scenario = make_scenario("A", 11, CFG.radio, CFG.walker)
        lib = FingerprintLibrary()
        trace = generate(scenario, CFG.radio, CFG.walker)
        seg = segment_before(trace, 25.0, CFG)
        lib.commit_segment(seg, SwitchEvent(seg.windows[-1].timestamp,
                                            "wifi_to_cell"), 0)
        stack = MatcherStack(SelectorModel.zeros(), MetricModel.identity(),
                             lib, 3, CFG)
        log = [rollout(policy, scenario, stack, mode="sample", seed=s,
                       trace=trace) for s in range(3)]
        out = offline_update(policy, log)
        delta = np.max(np.abs(out.net.to_vector() - policy.net.to_vector()))
        assert np.isfinite(delta) and delta <= 0.5 + 1e-12
