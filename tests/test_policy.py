import dataclasses
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from envswitch import alignment, filters, policy as policy_module
from envswitch.alignment import MetricModel, make_alignment_loss
from envswitch.config import RSSI_RANGE_DBM, EngineConfig
from envswitch.fingerprints import (FEATURE_DIMS, FEATURE_NAMES, MODALITIES,
                                    FingerprintLibrary, SwitchEvent,
                                    assemble_fingerprint)
from envswitch.filters import FilterContext, SelectorModel
from envswitch.mlp import softmax
from envswitch.policy import (ACTIONS, CONFIDENT_HOLD_PENALTY, HEALTHY_LINK_BONUS,
                              POLICY_HIDDEN, TAU, MatcherStack, PolicyModel,
                              PolicyState, ScriptedPolicy, SwitchEnv, Trajectory,
                              _draw, _draw_rows, act, act_rows, clipped_surrogate,
                              gae_advantages, imitate, normalize_rssi,
                              ppo_update, rollout, trigger_guide)
from envswitch.sim import generate, make_scenario, segment_before

CFG = EngineConfig()


def action_probs(model: PolicyModel, feats) -> np.ndarray:
    """Softmax of the action logits, read from ``net.forward`` as ``act``
    reads them; the last output is the value head."""
    out, _ = model.net.forward(feats)
    return softmax(out[..., :-1])


def build_stack(rng, site_flag="A", with_library=True):
    scenario = make_scenario(site_flag, 42, CFG.radio, CFG.walker)
    trace = generate(scenario, CFG.radio, CFG.walker)
    library = FingerprintLibrary()
    if with_library:
        seg = segment_before(trace, 28.0, CFG)
        library.commit_segment(
            seg, SwitchEvent(seg.windows[-1].timestamp, "wifi_to_cell"), 0)
    stack = MatcherStack(selector=SelectorModel.zeros(),
                         metric=MetricModel.identity(), library=library,
                         band=CFG.match.band, cfg=CFG)
    return scenario, trace, stack


def handover_time(traj):
    """The second ``t`` at which ``traj`` handed over (its first handover
    is its switch, at step index ``t - 1``), or None if it never did."""
    actions = traj.actions.tolist()
    handover = ACTIONS.index("handover")
    return float(actions.index(handover) + 1) if handover in actions else None


class TestNormalizeRssi:
    def test_equals_the_wifi_level_feature(self):
        # the policy's rssi feature is in the units of the fingerprints'
        # top-K mean RSSI, bit for bit, over the whole RSSI range
        lo, hi = RSSI_RANGE_DBM
        level = FEATURE_NAMES.index("wifi_topk_mean")
        for dbm in np.arange(lo, hi + 0.125, 0.25).tolist():
            raw = {m: (0.0,) * FEATURE_DIMS[m] for m in MODALITIES}
            raw["wifi"] = (dbm, 0.0, 0.0)
            feature = assemble_fingerprint(0.5, raw, {}).features[level]
            assert normalize_rssi(dbm).hex() == float(feature).hex()
            # and the fixed affine map it has always been
            assert normalize_rssi(dbm).hex() == ((dbm + 65.0) / 35.0).hex()


class TestAct:
    def test_zero_model_is_uniform(self):
        model = PolicyModel.zeros(POLICY_HIDDEN)
        feats = PolicyState(similarity=0.4, rssi=0.1).features()
        probs = action_probs(model, feats)
        assert np.allclose(probs, 0.25, atol=1e-12)
        _, logp, _ = act(model, feats, "sample", np.random.default_rng(0))
        assert logp == pytest.approx(math.log(0.25))

    def test_greedy_argmax(self):
        model = PolicyModel.zeros(POLICY_HIDDEN)
        model.net.b2[:] = [0.0, 5.0, 0.0, 0.0, 0.0]
        feats = PolicyState().features()
        idx, _, _ = act(model, feats, "greedy")
        assert ACTIONS[idx] == "scan_boost"
        # a guide only shapes sampling
        assert act(model, feats, "greedy", None, 3, 1.0)[0] == idx

    def test_sample_reproducible(self):
        model = PolicyModel.from_seed(3, POLICY_HIDDEN)
        feats = PolicyState(similarity=0.7, rssi=-0.3).features()
        seq_a = [act(model, feats, "sample", np.random.default_rng(5))[0]
                 for _ in range(10)]
        seq_b = [act(model, feats, "sample", np.random.default_rng(5))[0]
                 for _ in range(10)]
        assert seq_a == seq_b

    def test_probabilities_sum_to_one(self, rng):
        for trial in range(20):
            model = PolicyModel.from_seed(trial, POLICY_HIDDEN)
            state = PolicyState(similarity=float(rng.random()),
                                rssi=float(rng.normal()),
                                sim_trend=float(rng.normal(0, 0.2)))
            probs = action_probs(model, state.features())
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs > 0)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PolicyState(similarity=float("nan")).features()

    # every field but the pre_associated flag, which is not a feature
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PolicyState)][:7])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_state_rejects_each_nonfinite_field(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            PolicyState(**{field: value}).features()

    def test_state_features_keep_every_bit(self, rng):
        values = rng.normal(0.0, 10.0, size=7)
        feats = PolicyState(*values.tolist()).features()
        assert feats.dtype == np.float64 and feats.tobytes() == values.tobytes()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            act(PolicyModel.zeros(POLICY_HIDDEN), PolicyState().features(), "psychic")

    def test_mode_has_no_default(self):
        # a default of "sample" raised without an rng on every call
        with pytest.raises(TypeError):
            act(PolicyModel.zeros(POLICY_HIDDEN), PolicyState().features())

    def test_sample_without_rng_raises(self):
        # a fixed fallback generator drew the same action on every call
        with pytest.raises(ValueError, match="rng"):
            act(PolicyModel.from_seed(3, POLICY_HIDDEN),
                PolicyState(similarity=0.7).features(), "sample")

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_guided_sample_draws_from_the_mixture(self, rng, eps):
        for trial in range(20):
            model = PolicyModel.from_seed(trial, POLICY_HIDDEN)
            feats = PolicyState(similarity=float(rng.random()),
                                rssi=float(rng.normal())).features()
            guide = int(rng.integers(len(ACTIONS)))
            onehot = np.eye(len(ACTIONS))[guide]
            mix = (1.0 - eps) * action_probs(model, feats) + eps * onehot
            seed = int(rng.integers(2 ** 32))
            idx, logp, value = act(model, feats, "sample",
                                   np.random.default_rng(seed), guide, eps)
            assert idx == int(np.random.default_rng(seed).choice(len(mix), p=mix))
            assert logp == float(np.log(mix[idx]))
            assert value == float(model.net.forward(feats)[0][-1])
            if eps == 1.0:
                assert idx == guide and logp == 0.0


class TestDraw:
    """``_draw`` is ``Generator.choice(len(p), p=p)``, draw for draw."""

    def same_draws(self, p, seed, draws=3):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            assert _draw(p, mine) == int(theirs.choice(len(p), p=p))
        assert mine.bit_generator.state == theirs.bit_generator.state

    def test_random_vectors(self, rng):
        for trial in range(1500):
            k = int(rng.integers(1, 7))
            p = rng.dirichlet(np.full(k, (0.05, 1.0)[trial % 2]))
            if trial % 3 == 0:
                p[int(rng.integers(k))] = 0.0     # exact zeros, also at the ends
                p = p / p.sum() if p.sum() > 0 else np.eye(k)[0]
            self.same_draws(p, int(rng.integers(2 ** 32)))

    def test_guide_mixtures(self, rng):
        for trial in range(600):
            probs = softmax(rng.normal(0.0, 3.0, size=len(ACTIONS)))
            eps = (0.05, 0.3, 1.0)[trial % 3]
            mix = (1.0 - eps) * probs
            mix[int(rng.integers(len(ACTIONS)))] += eps
            self.same_draws(mix, int(rng.integers(2 ** 32)))

    @pytest.mark.parametrize("p", [
        [np.nan, 0.5, 0.5, 0.0],
        [-0.1, 0.6, 0.5, 0.0],
        [0.3, 0.3, 0.3, 0.0],
        [0.5, 0.5 + 2e-8],
        [np.inf, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, np.inf],
        [np.inf, -np.inf, 1.0],
    ])
    def test_bad_p_raises_what_choice_raises(self, p):
        p = np.array(p)
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng(0).choice(len(p), p=p)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError) as mine:
            _draw(p, rng)
        assert str(theirs.value).startswith(str(mine.value))
        # nothing was drawn
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_a_draw_on_a_step_of_the_cdf_takes_the_next_entry(self):
        class Uniforms:
            """Stands in for a generator; returns the given uniforms."""

            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        p = np.array([0.0, 0.5, 0.0, 0.5])     # cdf 0, 0.5, 0.5, 1
        uniforms = [0.0, 0.25, 0.5, 0.75]
        want = np.cumsum(p).searchsorted(uniforms, side="right").tolist()
        assert want == [1, 1, 3, 3]              # no zero-probability entry
        rng = Uniforms(uniforms)
        assert [_draw(p, rng) for _ in uniforms] == want

    @pytest.mark.parametrize("p", [[0.5, 0.5 + 1e-8], [1.0, 0.0, -0.0]])
    def test_p_inside_the_tolerance_is_drawn(self, p):
        self.same_draws(np.array(p), 4)


def random_model(rng, seed):
    """A policy net with every weight and bias moved off its seeded start."""
    model = PolicyModel.from_seed(seed, POLICY_HIDDEN)
    for a in (model.net.w1, model.net.b1, model.net.w2, model.net.b2):
        a += rng.normal(0.0, 0.5, a.shape)
    return model


class TestActRows:
    """``act_rows`` is an ``act(..., "sample", rng)`` loop over its rows."""

    def test_equals_an_act_loop(self, rng):
        for trial in range(300):
            model = random_model(rng, trial)
            n = int(rng.integers(1, 70))
            feats = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 1.5), size=(n, 7))
            seed = int(rng.integers(2 ** 32))
            loop_rng, rows_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [act(model, row, "sample", loop_rng) for row in feats]
            idx, logp, value = act_rows(model, feats, rows_rng)
            assert idx.dtype == np.array([0]).dtype
            assert idx.tolist() == [i for i, _, _ in want]
            assert logp.tobytes() == np.array([lp for _, lp, _ in want]).tobytes()
            assert value.tobytes() == np.array([v for _, _, v in want]).tobytes()
            assert rows_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_a_nonfinite_row_is_refused(self, rng):
        feats = rng.normal(0.0, 1.0, size=(9, 7))
        feats[4, 2] = np.nan
        with pytest.raises(ValueError, match="Probabilities contain NaN"):
            act_rows(random_model(rng, 0), feats, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [
        [np.nan, 0.5, 0.5, 0.0],
        [-0.1, 0.6, 0.5, 0.0],
        [0.3, 0.3, 0.3, 0.0],
    ])
    def test_a_bad_row_in_the_middle_raises_what_draw_raises(self, rng, bad):
        probs = softmax(rng.normal(0.0, 2.0, size=(9, len(ACTIONS))))
        probs[4] = bad
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError) as single:
            _draw(probs[4], gen)
        with pytest.raises(ValueError) as rows:
            _draw_rows(probs, gen)
        assert str(rows.value) == str(single.value)
        # every row is checked before anything is drawn
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestCompositeReward:
    def test_weights_validate(self):
        # the paper's weights are constants: none negative, not all 0
        weights = (policy_module.ETA, policy_module.LAM, policy_module.GAMMA_HF)
        assert min(weights) >= 0.0 and max(weights) > 0.0


class TestClippedSurrogate:
    def test_clip_arithmetic_unit_cases(self):
        assert clipped_surrogate(1.5, 2.0, 0.2) == pytest.approx(1.2 * 2.0)
        assert clipped_surrogate(1.0, 3.0, 0.2) == pytest.approx(3.0)
        # negative advantage: the pessimistic clipped term is the minimum
        assert clipped_surrogate(0.5, -1.0, 0.2) == pytest.approx(0.8 * -1.0)
        assert clipped_surrogate(0.5, 1.0, 0.2) == pytest.approx(0.5)

    def test_never_exceeds_clip_bound(self, rng):
        eps = 0.2
        ratios = rng.uniform(0.0, 3.0, 200)
        advs = rng.normal(0, 2.0, 200)
        for r, a in zip(ratios.tolist(), advs.tolist()):
            value = clipped_surrogate(r, a, eps)
            assert value <= max(r * a, np.clip(r, 1 - eps, 1 + eps) * a) + 1e-12
            assert value <= r * a + 1e-12 or value <= np.clip(r, 1 - eps, 1 + eps) * a + 1e-12
        # the elementwise form equals the scalar one sample by sample
        batched = clipped_surrogate(ratios, advs, eps)
        assert batched.shape == (200,)
        assert np.array_equal(batched, [clipped_surrogate(r, a, eps) for r, a
                                        in zip(ratios.tolist(), advs.tolist())])

    def test_ppo_passes_no_gradient_through_the_clipped_term(self, monkeypatch):
        # one episode whose GAE advantages (discount 0) are its rewards; the
        # old log-probs put every ratio at 2 (advantage > 0) or 0.5
        # (advantage < 0), where the clipped term is the minimum, except the
        # samples in ``inside``, whose ratio is 1
        for name, value in (("CLIP_EPS", 0.2), ("PPO_EPOCHS", 1),
                            ("PPO_STEP_SIZE", 0.02), ("DISCOUNT", 0.0),
                            ("ENTROPY_COEF", 0.0), ("VALUE_COEF", 0.0)):
            monkeypatch.setattr(policy_module, name, value)
        model = PolicyModel.from_seed(3, POLICY_HIDDEN)
        states = np.random.default_rng(5).normal(0.0, 1.0, (6, 7))
        actions = np.array([0, 1, 2, 3, 1, 0])
        rewards = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        logp = np.log(action_probs(model, states)[np.arange(6), actions])

        def update(inside):
            old_logp = logp - np.sign(rewards) * np.log(2.0)
            old_logp[inside] = logp[inside]
            batch = [Trajectory(states=states, actions=actions,
                                log_probs=old_logp, values=np.zeros(6),
                                step_rewards=rewards, hf=0.0, terminal_step=5)]
            return ppo_update(model, batch).net.to_vector()

        assert update([]).tobytes() == model.net.to_vector().tobytes()
        # control: one sample inside the clip range moves the parameters
        assert not np.array_equal(update([2]), model.net.to_vector())


class TestGae:
    def test_hand_computed_two_steps(self):
        # oracle by hand: delta_1 = r1 - v1; delta_0 = r0 + g*v1 - v0
        rewards = np.array([1.0, 2.0])
        values = np.array([0.5, 0.25])
        discount, lam = 0.9, 0.8
        d1 = 2.0 - 0.25
        d0 = 1.0 + 0.9 * 0.25 - 0.5
        adv, ret = gae_advantages(rewards, values, discount, lam)
        assert adv[1] == pytest.approx(d1)
        assert adv[0] == pytest.approx(d0 + discount * lam * d1)
        assert np.allclose(ret, adv + values)


class TestRollout:
    def test_never_handover_is_censored_with_negative_dtime(self, rng):
        scenario, trace, stack = build_stack(rng)
        traj = rollout(ScriptedPolicy(lambda t, s: "hold"), scenario, stack,
                       trace=trace)
        assert traj.censored and handover_time(traj) is None
        # a censored walk completes at the end of its trace
        assert traj.policy_tts + trace.degradation_onset == pytest.approx(trace.duration)
        assert traj.dtime < -10.0

    def test_pre_associate_cuts_delay_to_half_second(self, rng):
        scenario, trace, stack = build_stack(rng)
        onset = trace.degradation_onset

        def with_prep(t, state):
            if t >= onset:
                return "handover"
            return "pre_associate" if state.similarity >= 0.8 or t >= onset - 5 else "hold"

        traj = rollout(ScriptedPolicy(with_prep), scenario, stack, trace=trace)
        t_handover = handover_time(traj)
        assert t_handover == float(math.ceil(onset))
        assert traj.policy_tts + onset == pytest.approx(t_handover + 0.5)

        def without_prep(t, state):
            return "handover" if t >= onset else "hold"

        traj2 = rollout(ScriptedPolicy(without_prep), scenario, stack, trace=trace)
        assert traj2.policy_tts + onset == pytest.approx(t_handover + 2.0)
        assert traj2.policy_tts - traj.policy_tts == pytest.approx(1.5)

    def test_deterministic_given_seed(self, rng):
        scenario, trace, stack = build_stack(rng)
        model = PolicyModel.from_seed(1, POLICY_HIDDEN)
        a = rollout(model, scenario, stack, mode="sample", seed=9, trace=trace)
        b = rollout(model, scenario, stack, mode="sample", seed=9, trace=trace)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert (a.policy_tts, a.terminal_step) == (b.policy_tts, b.terminal_step)
        assert a.hf == b.hf

    def test_guided_sample_takes_the_trigger_rule_before_the_switch(
            self, rng, monkeypatch):
        scenario, trace, stack = build_stack(rng)
        rule, seen = trigger_guide(stack.cfg), []

        def recording_guide(cfg):
            def guide(t, state):
                seen.append(state)
                return rule(t, state)
            return guide

        monkeypatch.setattr(policy_module, "trigger_guide", recording_guide)
        traj = rollout(PolicyModel.from_seed(1, POLICY_HIDDEN), scenario,
                       stack, mode="sample", seed=9, trace=trace,
                       guide_eps=1.0)
        switch = int(handover_time(traj))       # the handover is step `switch`
        assert len(seen) == switch              # the rule is asked until then
        for t, (state, feats, idx) in enumerate(zip(
                seen, traj.states.tolist(), traj.actions.tolist()), 1):
            assert state.features().tolist() == feats
            assert ACTIONS[idx] == rule(float(t), state)
        # the rule read the rollout's flag: set from the step after the
        # pre-association on, and set when it handed over
        flags = [state.pre_associated for state in seen]
        first = flags.index(True)
        assert ACTIONS[traj.actions[first - 1]] == "pre_associate"
        assert all(flags[first:]) and not any(flags[:first])
        assert ACTIONS[traj.actions[switch - 1]] == "handover"
        assert not traj.log_probs[:switch].any()

    def test_runs_to_horizon_regardless_of_switch(self, rng):
        scenario, trace, stack = build_stack(rng)
        traj = rollout(ScriptedPolicy(lambda t, s: "handover"), scenario, stack,
                       trace=trace)
        assert traj.states.shape[0] == int(trace.duration) - 1
        assert handover_time(traj) == 1.0
        # after the switch the link flag flips and steps are inert
        assert traj.states[0, 6] == 0.0
        assert np.all(traj.states[3:, 6] == 1.0)
        assert np.all(traj.step_rewards[traj.terminal_step + 1:] == 0.0)

    def test_terminal_reward_lands_at_completion_step(self, rng):
        scenario, trace, stack = build_stack(rng)
        traj = rollout(ScriptedPolicy(lambda t, s: "handover" if t >= 20 else "hold"),
                       scenario, stack, trace=trace)
        rewards = traj.rewards_with(hf_value=traj.hf)
        # no pre-association: the switch completes assoc_delay_s after 20 s
        expected_idx = int(round(20 + CFG.baseline.assoc_delay_s)) - 1
        assert traj.terminal_step == expected_idx
        delta = rewards[expected_idx] - traj.step_rewards[expected_idx]
        assert delta == pytest.approx(policy_module.ETA * traj.dtime
                                      + policy_module.GAMMA_HF * traj.hf)


class TestSwitchEnv:
    @pytest.mark.parametrize("walk", ["handover", "censored"])
    def test_replays_a_guided_sample_bit_for_bit(self, rng, walk):
        scenario, trace, stack = build_stack(rng, with_library=walk == "handover")
        if walk == "handover":
            model = PolicyModel.from_seed(1, POLICY_HIDDEN)
        else:
            # with no library and no GNSS fix indoors the rule only holds,
            # and the policy only boosts the scan rate
            model = PolicyModel.zeros(POLICY_HIDDEN)
            model.net.b2[1] = 20.0
        traj = rollout(model, scenario, stack, mode="sample", seed=9,
                       trace=trace, guide_eps=0.5)
        assert traj.censored == (walk == "censored")
        assert len(set(traj.actions.tolist())) >= 2
        env, rewards = SwitchEnv(trace, stack), []
        for feats, idx in zip(traj.states, traj.actions.tolist()):
            assert not env.done
            assert env.observe().features().tobytes() == feats.tobytes()
            rewards.append(env.step(ACTIONS[idx]))
        assert np.array(rewards).tobytes() == traj.step_rewards.tobytes()
        assert env.done and env.switched == (walk == "handover")
        outcome = env.outcome()
        assert outcome == {name: getattr(traj, name) for name in outcome}

    def test_pre_associated_is_not_a_feature(self):
        state = PolicyState(0.9, 0.1, -0.5, 1.0, 1.0 / 3.0, 0.4, 0.0)
        flagged = dataclasses.replace(state, pre_associated=True)
        assert flagged.features().shape == (7,)
        assert flagged.features().tobytes() == state.features().tobytes()

    def test_step_reward_terms(self, rng, monkeypatch):
        # a step earns lam * similarity and the healthy-link credit; only
        # holding (or boosting) on a confident match and a repeated
        # pre-association cost more, and no action earns a bonus from TAU
        # (LAM is read per step, so a rebound weight moves the next reward)
        _, trace, stack = build_stack(rng)
        threshold = CFG.baseline.threshold_dbm
        for lam, sim in product((policy_module.LAM, 1.0),
                                (math.nextafter(TAU, 0.0), TAU, 0.9)):
            monkeypatch.setattr(policy_module, "LAM", lam)
            monkeypatch.setattr(stack, "top_similarity", lambda *args: sim)
            penalty = CONFIDENT_HOLD_PENALTY if sim >= TAU else 0.0
            for healthy in (False, True):
                base = lam * sim + (HEALTHY_LINK_BONUS if healthy else 0.0)
                for actions, want in ((["handover"], base),
                                      (["pre_associate"], base),
                                      (["pre_associate", "pre_associate"], base - 0.05),
                                      (["hold"], base - penalty),
                                      (["scan_boost"], base - penalty)):
                    env = SwitchEnv(trace, stack)
                    env.observe()                   # one window: similarity 0.0
                    for action in actions:
                        env.observe()
                        env.serving[int(env.t)] = threshold + (1.0 if healthy else -1.0)
                        reward = env.step(action)
                    assert env.sim_history[-1] == sim
                    assert reward == want, (lam, sim, healthy, actions)

    def test_unknown_action_is_refused(self, rng):
        _, trace, stack = build_stack(rng, with_library=False)
        env = SwitchEnv(trace, stack)
        env.observe()
        with pytest.raises(ValueError, match="unknown action"):
            env.step("teleport")


def reference_rollout(policy, scenario, stack, mode="sample", seed=0, *, trace,
                      guide_eps=0.0):
    """``rollout`` as a per-second loop: observe, decide and step until the
    env is done, after the switch too.  The oracle of the one-pass tail."""
    env = SwitchEnv(trace, stack)
    rng = np.random.default_rng(seed)
    guide = trigger_guide(stack.cfg) if guide_eps > 0.0 else None
    scripted = isinstance(policy, ScriptedPolicy)
    rows = []
    while not (env.done or env.switched and mode == "greedy"):
        state = env.observe()
        feats = state.features()
        if scripted:
            idx, logp, value = ACTIONS.index(policy.decide(env.t, state)), 0.0, 0.0
        else:
            guide_idx = (None if guide is None or env.switched
                         else ACTIONS.index(guide(env.t, state)))
            idx, logp, value = act(policy, feats, mode, rng, guide_idx,
                                   guide_eps)
        rows.append((feats, idx, logp, value, env.step(ACTIONS[idx])))
    return Trajectory(*map(np.array, zip(*rows) if rows else [()] * 5),
                      **env.outcome())


class Recorded:
    """A ``ScriptedPolicy`` function that records each (t, state) it gets."""

    def __init__(self, fn):
        self.fn, self.seen = fn, []

    def __call__(self, t, state):
        self.seen.append((t, state))
        return self.fn(t, state)


def cut(trace, horizon):
    """``trace`` with its duration, and so the env's horizon, cut."""
    return dataclasses.replace(
        trace, scenario=dataclasses.replace(trace.scenario, duration=float(horizon)))


class TestTail:
    """``rollout`` runs every post-switch tail in one ``SwitchEnv.tail()``;
    each driver's trajectory equals the per-second loop's byte for byte."""

    def drivers(self, model, fn):
        """(name, make the policy, rollout keywords) per driver; the
        recorded driver makes a fresh ``Recorded(fn)`` per rollout."""
        return [("sample", lambda: model, dict(mode="sample", seed=7)),
                ("guided", lambda: model, dict(mode="sample", seed=7, guide_eps=0.3)),
                ("rule", lambda: ScriptedPolicy(trigger_guide(CFG)), {}),
                ("recorded", lambda: ScriptedPolicy(Recorded(fn)), {})]

    def same(self, scenario, stack, trace, make, kwargs):
        """Roll both ways; assert every field byte-equal, and the records of
        a recorded driver equal.  Returns the trajectory."""
        mine_policy, ref_policy = make(), make()
        mine = rollout(mine_policy, scenario, stack, trace=trace, **kwargs)
        ref = reference_rollout(ref_policy, scenario, stack, trace=trace, **kwargs)
        for f in dataclasses.fields(Trajectory):
            a, b = getattr(mine, f.name), getattr(ref, f.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            else:
                assert repr(a) == repr(b), f.name
        if isinstance(getattr(ref_policy, "fn", None), Recorded):
            seen, want = mine_policy.fn.seen, ref_policy.fn.seen
            assert len(seen) == len(want) == len(ref.states)
            for (t, state), (t_ref, state_ref) in zip(seen, want):
                assert repr(t) == repr(t_ref) and state == state_ref
                assert state.features().tobytes() == state_ref.features().tobytes()
        return ref

    @staticmethod
    def wandering(switch):
        """Cycle hold, scan_boost and pre_associate, hand over at
        ``switch``, and after it keep naming every action."""
        def fn(t, state):
            if t == switch:
                return "handover"
            return ACTIONS[int(t) % 4] if t > switch else ACTIONS[int(t) % 3]
        return fn

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_natural_walks(self, rng, site):
        scenario, trace, stack = build_stack(rng, site)
        tails = 0
        for seed in range(4):
            for name, make, kwargs in self.drivers(random_model(rng, seed),
                                                   self.wandering(12 + 5 * seed)):
                traj = self.same(scenario, stack, trace, make, kwargs)
                tails += not traj.censored and handover_time(traj) < len(traj.states)
        assert tails >= 12

    def test_switch_on_the_first_step(self, rng):
        scenario, trace, stack = build_stack(rng)
        model = PolicyModel.zeros(POLICY_HIDDEN)
        model.net.b2[3] = 30.0                # hand over whenever not guided
        firsts = set()
        for seed in range(6):
            for name, make, kwargs in self.drivers(model, self.wandering(1)):
                if name == "rule":
                    continue                  # the rule pre-associates first
                kwargs = dict(kwargs, seed=seed) if "seed" in kwargs else kwargs
                traj = self.same(scenario, stack, trace, make, kwargs)
                if handover_time(traj) == 1.0:
                    firsts.add(name)
                    assert len(traj.states) == int(trace.duration) - 1
        assert firsts == {"sample", "guided", "recorded"}

    def test_switch_on_the_last_step_leaves_an_empty_tail(self, rng):
        scenario, trace, stack = build_stack(rng)
        for name, make, kwargs in self.drivers(random_model(rng, 2), self.wandering(17)):
            switch = int(handover_time(self.same(scenario, stack, trace, make, kwargs)))
            short = cut(trace, switch + 1)
            traj = self.same(scenario, stack, short, make, kwargs)
            assert (handover_time(traj), len(traj.states)) == (switch, switch), name

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_horizons_of_one_and_two(self, rng, horizon):
        scenario, trace, stack = build_stack(rng)
        model = PolicyModel.zeros(POLICY_HIDDEN)
        model.net.b2[3] = 30.0
        for name, make, kwargs in self.drivers(model, self.wandering(1)):
            traj = self.same(scenario, stack, cut(trace, horizon), make, kwargs)
            assert len(traj.states) == horizon - 1, name

    def test_a_boost_before_the_handover_shapes_the_tail(self, rng):
        scenario, trace, stack = build_stack(rng)
        switch = 15.0

        def boost_then_switch(t, state):
            return "handover" if t == switch else "scan_boost" if t == switch - 1 else "hold"

        traj = self.same(scenario, stack, trace, lambda: ScriptedPolicy(
            Recorded(boost_then_switch)), {})
        held = rollout(ScriptedPolicy(lambda t, s: "handover" if t == switch else "hold"),
                       scenario, stack, trace=trace)
        # the boost ends 10 s after it began, inside the tail: the tail's
        # scan ages differ from a held walk's there and agree after it
        ages, held_ages = traj.states[:, 5], held.states[:, 5]
        inside = slice(int(switch), int(switch) + 9)
        assert not np.array_equal(ages[inside], held_ages[inside])
        assert np.array_equal(ages[inside.stop:], held_ages[inside.stop:])
        assert len(ages) > int(switch) + 14
        # a learned sampler that boosts and then hands over, too
        model = PolicyModel.zeros(POLICY_HIDDEN)
        model.net.b2[1], model.net.b2[3] = 3.0, 1.0
        boosted = 0
        for seed in range(20):
            traj = self.same(scenario, stack, trace, lambda: model,
                             dict(mode="sample", seed=seed))
            switch_step = int(handover_time(traj)) - 1
            boosted += (switch_step >= 1 and ACTIONS[traj.actions[switch_step - 1]]
                        == "scan_boost" and len(traj.states) > switch_step + 10)
        assert boosted >= 5

    def test_tail_refuses_an_env_that_has_not_switched(self, rng):
        _, trace, stack = build_stack(rng, with_library=False)
        env = SwitchEnv(trace, stack)
        env.observe()
        with pytest.raises(ValueError, match="switched"):
            env.tail()

    def test_tail_rows_are_the_observed_features(self, rng):
        _, trace, stack = build_stack(rng)
        env, replay = SwitchEnv(trace, stack), SwitchEnv(trace, stack)
        for action in ("hold", "scan_boost", "pre_associate", "handover"):
            for e in (env, replay):
                e.observe()
                e.step(action)
        rows = env.tail()
        assert env.done and env.t == replay.horizon - 1
        for row in rows:
            assert replay.observe().features().tobytes() == row.tobytes()
            replay.step("hold")
        assert replay.done and replay.sim_history == env.sim_history
        assert replay.scan_times == env.scan_times
        assert len(env.tail()) == 0


class TestGreedyStop:
    def policies(self):
        hold = PolicyModel.zeros(POLICY_HIDDEN)
        hold.net.b2[0] = 5.0                  # never switches
        weak_link = PolicyModel.zeros(POLICY_HIDDEN)
        weak_link.net.w1[0, 2] = 1.0          # hidden unit 0 reads the rssi feature
        weak_link.net.w2[3, 0] = -10.0        # hand over once the link is weak
        return [hold, weak_link] + [PolicyModel.from_seed(s, POLICY_HIDDEN)
                                    for s in range(3)]

    def test_greedy_outcome_equals_the_replay_to_the_horizon(self, rng):
        scenario, trace, stack = build_stack(rng)
        horizon = int(trace.duration) - 1
        outcomes = Counter()
        for model in self.policies():
            greedy = rollout(model, scenario, stack, mode="greedy", seed=3,
                             trace=trace)
            actions = [ACTIONS[a] for a in greedy.actions.tolist()]
            replay = rollout(
                ScriptedPolicy(lambda t, s: actions[int(t) - 1]
                               if int(t) <= len(actions) else "hold"),
                scenario, stack, trace=trace)
            assert replay.states.shape[0] == horizon
            for name in ("censored", "hf", "policy_tts", "baseline_tts",
                         "trace_checksum"):
                assert getattr(greedy, name) == getattr(replay, name), name
            assert handover_time(greedy) == handover_time(replay)
            # the greedy steps are the replay's first steps
            assert greedy.states.tobytes() == replay.states[:len(actions)].tobytes()
            assert (greedy.step_rewards.tobytes()
                    == replay.step_rewards[:len(actions)].tobytes())
            assert greedy.terminal_step == min(replay.terminal_step, len(actions) - 1)
            if greedy.censored:
                assert len(actions) == horizon
                outcomes["censored"] += 1
            else:
                assert len(actions) == handover_time(greedy)
                assert actions[-1] == "handover"
                outcomes["late" if handover_time(greedy) > 1.0 else "first"] += 1
        assert outcomes["censored"] >= 1 and outcomes["late"] >= 1

    @pytest.mark.parametrize("mode", ["sample", "greedy"])
    def test_one_window_per_step_before_the_switch(self, rng, monkeypatch,
                                                   mode):
        scenario, trace, stack = build_stack(rng)
        ends = []
        fingerprint_at = policy_module.fingerprint_at

        def counted_fingerprint_at(trace, t_end, *args, **kwargs):
            ends.append(t_end)
            return fingerprint_at(trace, t_end, *args, **kwargs)

        monkeypatch.setattr(policy_module, "fingerprint_at", counted_fingerprint_at)
        traj = rollout(ScriptedPolicy(lambda t, s: "handover" if t >= 20 else "hold"),
                       scenario, stack, mode=mode, trace=trace)
        assert handover_time(traj) == 20.0
        # the handover step reads its window; no inert step reads one
        assert ends == [float(t) for t in range(1, 21)]
        steps = 20 if mode == "greedy" else int(trace.duration) - 1
        assert traj.states.shape[0] == steps


class TestRolloutInputs:
    def test_missing_trace_raises(self, rng):
        scenario, _, stack = build_stack(rng, with_library=False)
        with pytest.raises(TypeError, match="trace"):
            rollout(ScriptedPolicy(lambda t, s: "hold"), scenario, stack)

    def test_step_rate_counts_the_half_open_second(self, rng):
        scenario, trace, stack = build_stack(rng, with_library=False)
        # steps exactly on t - 1 and on t, several in one second, none in some
        steps = np.array([0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 4.25, 4.5, 4.75,
                          6.999, 7.0, 9.0, 12.0])
        trace = dataclasses.replace(trace, step_times=steps)
        traj = rollout(ScriptedPolicy(lambda t, s: "hold"), scenario, stack,
                       trace=trace)
        expected = [min(1.0, len([s for s in steps if t - 1.0 <= s < t]) / 3.0)
                    for t in np.arange(1.0, int(trace.duration))]
        assert traj.states[:, 4].tolist() == expected
        assert set(expected) == {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}


class TestLiveBuffer:
    def test_top_similarity_sees_the_stacked_last_windows(self, rng, monkeypatch):
        scenario, trace, stack = build_stack(rng)
        size = CFG.window.buffer_windows
        windows, seen = [], []
        fingerprint_at = policy_module.fingerprint_at

        def recorded_fingerprint_at(*args, **kwargs):
            windows.append(fingerprint_at(*args, **kwargs))
            return windows[-1]

        def recorded_top_similarity(features, present, scan_age):
            # the rollout reuses its buffers, so copy what arrives now
            seen.append((len(windows), features.copy(), present.copy(),
                         features.flags.c_contiguous and present.flags.c_contiguous))
            return MatcherStack.top_similarity(stack, features, present, scan_age)

        monkeypatch.setattr(policy_module, "fingerprint_at", recorded_fingerprint_at)
        monkeypatch.setattr(stack, "top_similarity", recorded_top_similarity)
        rollout(ScriptedPolicy(lambda t, s: "hold"), scenario, stack, trace=trace)
        assert [n for n, *_ in seen] == list(range(2, len(windows) + 1))
        assert len(windows) > size + 5          # well past a full buffer
        for n, features, present, contiguous in seen:
            last = windows[max(0, n - size):n]
            want_f = np.stack([w.features for w in last])
            want_p = np.stack([w.present for w in last])
            assert contiguous
            assert (features.dtype, present.dtype) == (want_f.dtype, want_p.dtype)
            assert (features.shape, present.shape) == (want_f.shape, want_p.shape)
            assert features.tobytes() == want_f.tobytes()
            assert present.tobytes() == want_p.tobytes()


def commit_at(library, trace, t, day):
    seg = segment_before(trace, t, CFG)
    return library.commit_segment(
        seg, SwitchEvent(seg.windows[-1].timestamp, "wifi_to_cell"), day)


def same_rollout(a, b):
    return (all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                for f in ("states", "actions", "log_probs", "step_rewards"))
            and a.policy_tts == b.policy_tts)


class TestMatchMemo:
    """A stack's memoized top-1 similarities never change a rollout."""

    def scene(self, capacity=256):
        scenario = make_scenario("A", 42, CFG.radio, CFG.walker)
        trace = generate(scenario, CFG.radio, CFG.walker)
        other = generate(make_scenario("A", 43, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        library = FingerprintLibrary(dataclasses.replace(CFG.library,
                                                         capacity=capacity))
        good = commit_at(library, trace, 28.0, day=0)
        commit_at(library, other, 30.0, day=1)
        # a seeded selector, so the filter depends on scan age and presence
        stack = MatcherStack(selector=SelectorModel.from_seed(11),
                             metric=MetricModel.identity(), library=library,
                             band=CFG.match.band, cfg=CFG)
        # holds or scan-boosts most steps, so scan ages vary between rollouts
        policy = PolicyModel.from_seed(7, POLICY_HIDDEN)
        policy.net.b2[[0, 1, 3]] += (2.0, 2.0, -2.0)   # favour hold and scan_boost
        return scenario, trace, stack, policy, good

    def run(self, policy, scenario, stack, trace, seed=5):
        return rollout(policy, scenario, stack, mode="sample", seed=seed,
                       trace=trace)

    def fresh(self, stack):
        return MatcherStack(selector=stack.selector, metric=stack.metric,
                            library=stack.library, band=stack.band,
                            cfg=stack.cfg)

    def test_warm_memo_changes_nothing(self, monkeypatch):
        scenario, trace, stack, policy, _ = self.scene()
        calls = []
        original = alignment.match
        monkeypatch.setattr(alignment, "match",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        self.run(policy, scenario, stack, trace, seed=4)
        calls.clear()
        warm = self.run(policy, scenario, stack, trace)
        warm_calls = len(calls)
        calls.clear()
        cold = self.run(policy, scenario, self.fresh(stack), trace)
        assert (cold.actions == ACTIONS.index("scan_boost")).any()
        assert same_rollout(warm, cold)
        assert 0 < warm_calls < len(calls)      # the memo served some steps

    def test_key_covers_presence_and_scan_age(self):
        _, trace, stack, _, _ = self.scene()
        features, present = segment_before(trace, 20.0, CFG).packed()
        dropped = present.copy()
        dropped[-1, 0] = False
        variants = [(features, p, age) for p in (present, dropped)
                    for age in (0.0, 2.0)]
        warm = [stack.top_similarity(*v) for v in variants]
        assert len(set(warm)) == len(variants)
        assert warm == [self.fresh(stack).top_similarity(*v) for v in variants]

    def test_memo_is_bounded(self):
        _, trace, stack, _, _ = self.scene()
        features, present = segment_before(trace, 20.0, CFG).packed()
        variants = [(features, present, age) for age in (0.0, 1.0, 2.0)]
        stack.MEMO_LIMIT = 2
        warm = [stack.top_similarity(*v) for v in variants + variants]
        assert 0 < len(stack._memo) <= 2
        assert warm == [self.fresh(stack).top_similarity(*v)
                        for v in variants + variants]

    def test_memo_dropped_after_eviction(self):
        scenario, trace, stack, policy, good = self.scene(capacity=2)
        before = self.run(policy, scenario, stack, trace)
        version = stack.library.version
        third = generate(make_scenario("A", 44, CFG.radio, CFG.walker),
                         CFG.radio, CFG.walker)
        commit_at(stack.library, third, 30.0, day=2)
        assert good not in stack.library.sequences
        assert stack.library.version == version + 2
        after = self.run(policy, scenario, stack, trace)
        assert not same_rollout(after, before)
        assert same_rollout(after, self.run(policy, scenario, self.fresh(stack),
                                            trace))

    @pytest.mark.parametrize("name, value", [
        ("metric", MetricModel.from_seed(3, noise=0.3)),
        ("selector", SelectorModel.from_seed(3)),
        ("band", 1),
    ])
    def test_memo_dropped_when_a_part_is_replaced(self, name, value):
        scenario, trace, stack, policy, _ = self.scene()
        before = self.run(policy, scenario, stack, trace)
        setattr(stack, name, value)
        if name == "band":
            # a stack's band is its config's, so the two change together
            stack.cfg = dataclasses.replace(
                stack.cfg, match=dataclasses.replace(stack.cfg.match, band=value))
        after = self.run(policy, scenario, stack, trace)
        assert not same_rollout(after, before)
        assert same_rollout(after, self.run(policy, scenario, self.fresh(stack),
                                            trace))


class TestPpoUpdate:
    def toy_episode(self, model, rng, length=10):
        states, actions, logps, values, rewards = [], [], [], [], []
        s_idx = int(rng.integers(2))
        for _ in range(length):
            feats = np.array([1.0, 0.0]) if s_idx == 0 else np.array([0.0, 1.0])
            a, lp, v = act(model, feats, "sample", rng)
            states.append(feats)
            actions.append(a)
            logps.append(lp)
            values.append(v)
            rewards.append(1.0 if a == s_idx else 0.0)
            s_idx = int(rng.integers(2))
        return Trajectory(np.array(states), np.array(actions), np.array(logps),
                          np.array(values), np.array(rewards),
                          terminal_step=length - 1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ppo_update(PolicyModel.zeros(POLICY_HIDDEN), [])

    def test_epsilon_range_enforced(self):
        # the clip is a constant, so the range it must lie in is checked here
        assert 0.0 < policy_module.CLIP_EPS < 1.0

    def test_zero_epochs_is_identity(self, monkeypatch):
        monkeypatch.setattr(policy_module, "PPO_EPOCHS", 0)
        model = PolicyModel.from_seed(0, POLICY_HIDDEN, n_inputs=2, n_actions=2)
        batch = [self.toy_episode(model, np.random.default_rng(0))]
        out = ppo_update(model, batch)
        assert np.array_equal(out.net.to_vector(), model.net.to_vector())

    @pytest.mark.parametrize("name, value", [
        ("ETA", 0.0), ("GAMMA_HF", 0.0), ("CLIP_EPS", 0.5), ("DISCOUNT", 0.5),
        ("ENTROPY_COEF", 0.0), ("VALUE_COEF", 0.0), ("PPO_EPOCHS", 1),
        ("PPO_STEP_SIZE", 0.02)])
    def test_rebinding_a_setting_changes_the_next_update(self, monkeypatch,
                                                          name, value):
        # each setting is read when the update runs, so a test or a
        # ``tests/seeds.py --variant`` can rebind it
        model = PolicyModel.from_seed(3, POLICY_HIDDEN)
        states = np.random.default_rng(5).normal(0.0, 1.0, (6, 7))
        actions = np.array([0, 1, 2, 3, 1, 0])
        rewards = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        logp = np.log(action_probs(model, states)[np.arange(6), actions])
        # every ratio starts at 1.2 (advantage > 0) or 1 / 1.2, which the
        # default clip cuts and a clip of 0.5 does not
        batch = [Trajectory(states=states, actions=actions,
                            log_probs=logp - np.sign(rewards) * np.log(1.2),
                            values=np.full(6, 0.3), step_rewards=rewards,
                            dtime=1.5, hf=0.5, baseline_tts=-1.0,
                            terminal_step=5)]
        before = ppo_update(model, batch).net.to_vector()
        monkeypatch.setattr(policy_module, name, value)
        assert not np.array_equal(ppo_update(model, batch).net.to_vector(), before)

    def test_toy_environment_reaches_optimum(self, monkeypatch):
        for name, value in (("CLIP_EPS", 0.2), ("PPO_EPOCHS", 4),
                            ("PPO_STEP_SIZE", 0.08), ("ENTROPY_COEF", 0.01),
                            ("ETA", 0.0), ("LAM", 1.0), ("GAMMA_HF", 0.0)):
            monkeypatch.setattr(policy_module, name, value)
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = PolicyModel.from_seed(seed, hidden=16, n_inputs=2, n_actions=2)
            for _ in range(200):
                batch = [self.toy_episode(model, rng) for _ in range(4)]
                model = ppo_update(model, batch)
            ok = True
            for s_idx in range(2):
                feats = np.array([1.0, 0.0]) if s_idx == 0 else np.array([0.0, 1.0])
                a, _, _ = act(model, feats, "greedy")
                ok = ok and a == s_idx
            wins += ok
        assert wins >= 9


class TestImitate:
    def test_matches_labels_after_training(self, rng):
        states = rng.normal(0, 1, size=(200, 7))
        labels = (states[:, 0] > 0).astype(int) * 3   # hold vs handover
        model = PolicyModel.from_seed(2, POLICY_HIDDEN)
        model = imitate(model, states, labels, epochs=300, step_size=0.05)
        preds = [act(model, s, "greedy")[0] for s in states]
        agreement = float(np.mean(np.array(preds) == labels))
        assert agreement >= 0.95

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            imitate(PolicyModel.zeros(POLICY_HIDDEN), np.zeros((0, 7)),
                    np.zeros(0, dtype=int), epochs=120, step_size=0.02)


def test_matcher_stack_band_is_its_configs():
    parts = (SelectorModel.zeros(), MetricModel.identity(), FingerprintLibrary())
    with pytest.raises(ValueError, match="match.band 3"):
        MatcherStack(*parts, band=2, cfg=CFG)
    # neither the band nor the config has a default to fall back on
    with pytest.raises(TypeError):
        MatcherStack(*parts)
    assert MatcherStack(*parts, band=CFG.match.band, cfg=CFG).band == 3


def test_trigger_guide_rule():
    guide = trigger_guide(CFG)
    assert guide(1.0, PolicyState(similarity=0.9)) == "pre_associate"
    assert guide(1.0, PolicyState(similarity=0.9, pre_associated=True)) == "handover"
    assert guide(1.0, PolicyState(similarity=0.1, pre_associated=True)) == "hold"
    egress = PolicyState(similarity=0.1, gnss_fix=1.0, rssi=-0.5)
    assert guide(1.0, egress) == "pre_associate"


def test_policy_serialize_roundtrip():
    model = PolicyModel.from_seed(8, POLICY_HIDDEN)
    back = PolicyModel.deserialize(model.serialize())
    assert np.array_equal(back.net.to_vector(), model.net.to_vector())


def test_traced_names_are_reached(monkeypatch, rng):
    """The benchmark's span tracer counts calls by rebinding
    ``envswitch.alignment.match``, ``envswitch.filters.select_filter``,
    ``envswitch.filters.denoise_matrix`` and
    ``envswitch.filters.soft_denoise_matrix``; a matcher miss and a selector
    epoch must still go through those names, the epoch once per array
    length."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(alignment, "match", counting("match", alignment.match))
    for name in ("select_filter", "denoise_matrix", "soft_denoise_matrix"):
        monkeypatch.setattr(filters, name, counting(name, getattr(filters, name)))
    _, trace, stack = build_stack(rng)
    features, present = segment_before(trace, 20.0, CFG).packed()
    stack.top_similarity(features, present, 0.0)
    assert calls["match"] == calls["select_filter"] == 1
    assert calls["denoise_matrix"] >= 1
    items = [(FilterContext(), ((features, present), (features, present)),
              [((features, present), (features[::-1], present))])] * 3
    filters.train_selector(SelectorModel.from_seed(0), items,
                           make_alignment_loss(MetricModel.identity()), epochs=1)
    # a selector epoch makes one stacked call per array length: every array
    # of every item here has one length
    assert len({len(f) for _, pos, negs in items for pair in [pos] + negs for f, _ in pair}) == 1
    assert calls["soft_denoise_matrix"] == 1
