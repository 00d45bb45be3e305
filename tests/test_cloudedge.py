import dataclasses
import operator

import numpy as np
import pytest

import envswitch.cli as cli
import envswitch.cloudedge as ce
import envswitch.sim as sim
from envswitch.alignment import MetricModel
from envswitch.cloudedge import (EdgeAgent, RewardModel, RoundState,
                                 aggregate, fit_reward_model, offline_update,
                                 run_round, summarize_trajectory)
from envswitch.config import EngineConfig
from envswitch.fingerprints import (FingerprintLibrary, SwitchEvent,
                                    hash_identifier)
from envswitch.filters import SelectorModel
from envswitch.policy import (POLICY_HIDDEN, MatcherStack, PolicyModel,
                              Trajectory, act, rollout)
from envswitch.sim import generate, make_scenario, segment_before

from conftest import contains_identifier_leak, quantize

CFG = EngineConfig()


def reward_model_loss(model: RewardModel, batch) -> float:
    """Mean squared error of the model's HF predictions on ``batch``."""
    states, actions, hfs = batch
    pred = model.predict(states, actions)
    return float(np.mean((pred - np.asarray(hfs, dtype=float)) ** 2))


def wire_text(edge_hash, records):
    """A summary text in the format an edge ships, written independently of
    ``summarize_trajectory``, with any number of (state, action, hf, offset)
    records."""
    lines = [f"{edge_hash},{len(records)}"] + [
        f"{' '.join(repr(float(v)) for v in state)}|{action}|{float(hf)!r}|"
        f"{float(offset)!r}" for state, action, hf, offset in records]
    body = "\n".join(lines)
    return f"{len(body.encode('utf-8'))}\n{body}\n"


def toy_summary(edge_hash="hdeadbeef00000000", n=3):
    return wire_text(edge_hash, [([0.1 * k] * 7, k % 4, (-1.0) ** k * 0.5, k)
                                 for k in range(n)])


def make_trajectory(rng, length=8, hf=0.5):
    return Trajectory(
        states=rng.normal(0, 1, size=(length, 7)),
        actions=rng.integers(0, 4, size=length),
        log_probs=np.full(length, np.log(0.25)),
        values=np.zeros(length),
        step_rewards=rng.normal(0, 0.1, size=length),
        dtime=3.0, hf=hf, censored=False, terminal_step=length - 1,
        policy_tts=2.0, baseline_tts=10.0)


class TestAggregate:
    def test_empty_inbox(self):
        states, actions, hfs = aggregate([])
        assert states.shape == (0, 7) and actions.size == 0 and hfs.size == 0

    def test_counts_multiply(self):
        inbox = [toy_summary(f"h{k:016x}", n=4) for k in range(3)]
        inbox.append(wire_text("h" + "f" * 16, []))
        states, actions, hfs = aggregate(inbox)
        assert states.shape[0] == 12

    def test_permutation_insensitive(self):
        inbox = [toy_summary(f"h{k:016x}", n=3) for k in range(4)]
        a = aggregate(inbox)
        b = aggregate(list(reversed(inbox)))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("text, message", [
        ("1" + toy_summary(), "length line '1[0-9]+' does not match"),
        (toy_summary()[:-1], "length line '[0-9]+' does not match"),
        (wire_text("h" + "0" * 16, [([0.0] * 7, 1, 0.5, 2)] * 2)
         .replace(",2\n", ",3\n"), "record count '3' does not match its 2"),
        (wire_text("h" + "0" * 16, [([0.0] * 6, 1, 0.5, 2)]),
         "record '0.0 0.0 0.0 0.0 0.0 0.0|1|0.5|2.0' is not 7 state values"),
        (wire_text("h" + "0" * 16, [([0.0] * 7, "x", 0.5, 2)]),
         r"record '.*\|x\|0.5\|2.0' is not 7"),
    ], ids=["length-line", "no-final-newline", "record-count", "six-value-state",
            "action-field"])
    def test_malformed_text_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            aggregate([toy_summary(), text])


class TestWireFormats:
    def test_length_prefix_matches_body(self, rng):
        text = summarize_trajectory(make_trajectory(rng), "edge-A", "salt-x")
        first, _, rest = text.partition("\n")
        assert int(first) == len(rest.encode("utf-8")) - 1  # trailing newline

    def test_summarize_trajectory_is_desensitized(self, rng):
        traj = make_trajectory(rng)
        text = summarize_trajectory(traj, "edge-A", "salt-x")
        assert "edge-A" not in text
        assert not contains_identifier_leak(text, ["edge-A", "salt-x"])
        # the offset is a relative step index, and quantization snapped the state
        _, head, record = text.splitlines()
        assert head == f"{hash_identifier('edge-A', 'salt-x')},1"
        assert record.endswith("|7.0")
        (state,), _, _ = aggregate([text])
        for v in state:
            assert abs(v / ce.STATE_QUANT - round(v / ce.STATE_QUANT)) < 1e-9

    @pytest.mark.parametrize("quant", [0.01, 0.25])
    def test_summarize_trajectory_matches_scalar_quantize(self, rng, monkeypatch, quant):
        # the shipped grid and a coarser one
        monkeypatch.setattr(ce, "STATE_QUANT", quant)
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
        # every row in turn is the last step of an episode cut after it
        for t in range(len(states)):
            cut = dataclasses.replace(traj, states=states[:t + 1],
                                      actions=traj.actions[:t + 1])
            text = summarize_trajectory(cut, "edge-A", "salt-x")
            scalar = [quantize(v, quant) for v in states[t]]
            assert text == wire_text(hash_identifier("edge-A", "salt-x"),
                                     [(scalar, int(traj.actions[t]), traj.hf, t)])
            # the cloud parses back every value, signed zeros included
            assert (list(map(repr, aggregate([text])[0][0].tolist()))
                    == list(map(repr, scalar)))

    def test_labelled_episode_ships_its_last_step_only(self, rng):
        traj = make_trajectory(rng, hf=0.75)
        text = summarize_trajectory(traj, "e", "s")
        state = [quantize(v, ce.STATE_QUANT) for v in traj.states[-1]]
        assert text == wire_text(hash_identifier("e", "s"), [
            (state, int(traj.actions[-1]), 0.75, len(traj.states) - 1)])
        states, actions, hfs = aggregate([text])
        assert states.tolist() == [state]
        assert actions.tolist() == [traj.actions[-1]] and hfs.tolist() == [0.75]

    def test_withheld_episode_ships_nothing(self, rng):
        traj = dataclasses.replace(make_trajectory(rng), hf=None)
        text = summarize_trajectory(traj, "e", "s")
        assert text == wire_text(hash_identifier("e", "s"), [])
        assert aggregate([text])[0].shape == (0, 7)

    def test_quantization_grid(self):
        assert quantize(0.5678, 0.1) == pytest.approx(0.6)
        assert quantize(-0.5678, 0.1) == pytest.approx(-0.6)

    def test_leak_detector_catches_plants(self):
        assert contains_identifier_leak("xx 02:8f:ab leak", ["02:8f:ab:33:c1:00"])
        assert not contains_identifier_leak("nothing here", ["02:8f:ab:33:c1:00"])


class TestRewardModel:
    def test_constant_target_regression(self, rng, monkeypatch):
        states = rng.normal(0, 1, size=(60, 7))
        actions = rng.integers(0, 4, size=60)
        hfs = np.ones(60)
        model = RewardModel.from_seed(0)
        monkeypatch.setattr(ce, "REWARD_MODEL_EPOCHS", 300)
        monkeypatch.setattr(ce, "REWARD_MODEL_STEP", 0.1)
        model = fit_reward_model(model, (states, actions, hfs))
        preds = model.predict(states, actions)
        assert abs(float(preds.mean()) - 1.0) < 0.1

    def test_zero_epochs_unchanged(self, rng, monkeypatch):
        model = RewardModel.from_seed(1)
        batch = (rng.normal(0, 1, (5, 7)), rng.integers(0, 4, 5), rng.normal(0, 1, 5))
        monkeypatch.setattr(ce, "REWARD_MODEL_EPOCHS", 0)
        out = fit_reward_model(model, batch)
        assert np.array_equal(out.net.to_vector(), model.net.to_vector())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            fit_reward_model(RewardModel.from_seed(0),
                             (np.zeros((0, 7)), np.zeros(0, int), np.zeros(0)))

    def test_gradient_matches_finite_difference(self, rng, monkeypatch):
        # one-step descent with tiny lr approximates -lr * dL/dtheta
        states = rng.normal(0, 1, size=(12, 7))
        actions = rng.integers(0, 4, size=12)
        hfs = rng.uniform(-1, 1, size=12)
        model = RewardModel.from_seed(2)
        lr = 1e-6
        monkeypatch.setattr(ce, "REWARD_MODEL_EPOCHS", 1)
        monkeypatch.setattr(ce, "REWARD_MODEL_STEP", lr)
        stepped = fit_reward_model(model, (states, actions, hfs))
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


def build_edges(cfg, seed=0, n_scenarios=2):
    """Edges at sites A and C whose stacks serve ``cfg``."""
    edges = []
    for flag in ("A", "C"):
        traces = [generate(make_scenario(flag, seed + k, cfg.radio, cfg.walker),
                           cfg.radio, cfg.walker) for k in range(n_scenarios)]
        lib = FingerprintLibrary(cfg.library)
        seg = segment_before(traces[0], 28.0, cfg)
        lib.commit_segment(seg, SwitchEvent(seg.windows[-1].timestamp,
                                            "wifi_to_cell"), 0)
        stack = MatcherStack(selector=SelectorModel.zeros(),
                             metric=MetricModel.identity(), library=lib,
                             band=cfg.match.band, cfg=cfg)
        edges.append(EdgeAgent(edge_id=f"edge-{flag}", stack=stack,
                               traces=traces,
                               policy=PolicyModel.from_seed(seed, POLICY_HIDDEN)))
    return edges


@pytest.fixture
def small_rounds(monkeypatch):
    """Rounds of two episodes per edge and a five-step reward-model fit; a
    test rebinds any other round setting of ``cloudedge`` the same way."""
    monkeypatch.setattr(ce, "EPISODES_PER_EDGE", 2)
    monkeypatch.setattr(ce, "REWARD_MODEL_EPOCHS", 5)


def initial_state(edges, n_rounds):
    return RoundState(0, n_rounds, edges[0].policy, RewardModel.from_seed(0))


def spy(monkeypatch, name, calls):
    """Record the positional arguments of every call to ``cloudedge.<name>``
    and its result."""
    real = getattr(ce, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(ce, name, wrapper)


@pytest.mark.usefixtures("small_rounds")
class TestRunRound:
    def test_rounds_replay_the_stored_traces(self, monkeypatch):
        edges = build_edges(CFG, n_scenarios=3)
        calls, replayed = [], []
        for module in (sim, ce, cli):
            original = module.generate
            monkeypatch.setattr(module, "generate", lambda *a, _g=original, **k:
                                calls.append(a[0]) or _g(*a, **k))
        monkeypatch.setattr(ce, "rollout", lambda *a, _r=ce.rollout, **k:
                            replayed.append(k["trace"]) or _r(*a, **k))
        state = initial_state(edges, 2)
        for _ in range(2):
            state = run_round(state, edges, seed=1)
        assert calls == []
        expected = [e.traces[(2 * r + k) % 3] for r in range(2) for e in edges
                    for k in range(2)]
        assert len(replayed) == len(expected)
        assert all(map(operator.is_, replayed, expected))

    def test_distill_period_one_distills_every_round(self, monkeypatch):
        monkeypatch.setattr(ce, "DISTILL_PERIOD", 1)
        edges = build_edges(CFG)
        state = initial_state(edges, 5)
        for _ in range(2):
            state = run_round(state, edges, seed=1)
            assert all(e.policy is state.cloud_policy for e in edges)

    def test_distill_period_three_gates_updates(self, monkeypatch):
        # rounds 1 and 2 keep the edges' policy, round 3 distills, and the
        # last round distills although 4 is not a multiple of the period
        monkeypatch.setattr(ce, "DISTILL_PERIOD", 3)
        edges = build_edges(CFG)
        state = initial_state(edges, 4)
        for distills in (False, False, True, True):
            before = [e.policy for e in edges]
            state = run_round(state, edges, seed=1)
            if distills:
                assert all(e.policy is state.cloud_policy for e in edges)
            else:
                assert all(map(operator.is_, [e.policy for e in edges], before))
                assert all(e.policy is not state.cloud_policy for e in edges)

    def test_round_budget_exhausted(self):
        edges = build_edges(CFG)
        state = RoundState(2, 2, edges[0].policy, RewardModel.from_seed(0))
        with pytest.raises(ValueError, match="budget"):
            run_round(state, edges, seed=0)

    def test_edges_serving_unequal_configs_are_refused(self, monkeypatch):
        rolled = []
        monkeypatch.setattr(ce, "rollout", lambda *a, _r=ce.rollout, **k:
                            rolled.append(1) or _r(*a, **k))
        edge_a, _ = build_edges(CFG)
        _, edge_c = build_edges(dataclasses.replace(
            CFG, radio=dataclasses.replace(CFG.radio, wall_db=6.0)))
        edges = [edge_a, edge_c]
        with pytest.raises(ValueError, match="edge-C"):
            run_round(initial_state(edges, 2), edges, seed=1)
        # refused before any edge rolled out
        assert rolled == []
        # equal configs are one config, though they are different objects
        edges = [edge_a, build_edges(dataclasses.replace(CFG))[1]]
        assert edges[0].stack.cfg is not edges[1].stack.cfg
        assert run_round(initial_state(edges, 2), edges, seed=1).round_index == 1

    def test_round_is_deterministic(self):
        results = []
        for _ in range(2):
            edges = build_edges(CFG)
            out = run_round(initial_state(edges, 3), edges, seed=5)
            results.append((out.cloud_policy.net.to_vector(),
                            out.mean_rewards[-1]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_direct_hf_used_verbatim_model_fills_gaps(self, monkeypatch):
        monkeypatch.setattr(ce, "HF_WITHHELD_FRACTION", 0.5)
        edges = build_edges(CFG)
        ppo_calls = []
        spy(monkeypatch, "ppo_update", ppo_calls)
        run_round(initial_state(edges, 2), edges, seed=3)
        (_, batch, *_), _ = ppo_calls[0]
        assert len(batch) == 4
        # every trajectory entering PPO has a concrete hf; withheld ones were
        # filled by the reward model (bounded), direct ones pass through
        direct_values = set()
        for traj in batch:
            assert traj.hf is not None and abs(traj.hf) <= 1.0
            direct_values.add(round(traj.hf, 6))
        assert len(direct_values) >= 2

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_withheld_fraction_is_read_when_the_round_runs(self, monkeypatch,
                                                           fraction):
        monkeypatch.setattr(ce, "HF_WITHHELD_FRACTION", fraction)
        edges = build_edges(CFG)
        shipped = []
        spy(monkeypatch, "summarize_trajectory", shipped)
        run_round(initial_state(edges, 2), edges, seed=3)
        assert len(shipped) == 4
        assert all((traj.hf is None) == (fraction == 1.0)
                   for (traj, *_), _ in shipped)

    def test_inbox_summaries_pass_privacy_check(self, monkeypatch):
        monkeypatch.setattr(ce, "HF_WITHHELD_FRACTION", 0.5)
        edges = build_edges(CFG)
        shipped, parsed = [], []
        spy(monkeypatch, "summarize_trajectory", shipped)
        spy(monkeypatch, "aggregate", parsed)
        run_round(initial_state(edges, 2), edges, seed=3)
        raw_ids = ([e.edge_id for e in edges] + [CFG.library.salt]
                   + [b for e in edges for trace in e.traces for b in trace.bssids])
        assert len(shipped) == 4
        # the cloud reads the shipped texts and nothing else
        ((texts,), _), = parsed
        assert texts == [text for _, text in shipped]
        for (traj, *_), text in shipped:
            # one record per labelled episode, none per withheld one
            states, _, hfs = aggregate([text])
            assert len(states) == (traj.hf is not None)
            assert np.all(np.isfinite(hfs))
            assert not contains_identifier_leak(text, raw_ids)

    def test_reward_model_fits_the_labelled_last_steps(self, monkeypatch):
        # edges ship in descending hash order, so only the canonical sort
        # puts the batch in order
        monkeypatch.setattr(ce, "HF_WITHHELD_FRACTION", 0.5)
        edges = sorted(build_edges(CFG), reverse=True, key=lambda e:
                       hash_identifier(e.edge_id, e.stack.cfg.library.salt))
        shipped, fits = [], []
        spy(monkeypatch, "summarize_trajectory", shipped)
        spy(monkeypatch, "fit_reward_model", fits)
        run_round(initial_state(edges, 2), edges, seed=3)
        # canonical order: edge hash, offset, action, state
        rows = sorted(
            ((hash_identifier(edge_id, salt), float(len(traj.states) - 1),
              int(traj.actions[-1]),
              tuple(quantize(v, ce.STATE_QUANT) for v in traj.states[-1]), traj.hf)
             for (traj, edge_id, salt), _ in shipped if traj.hf is not None),
            key=lambda row: row[:4])
        assert 0 < len(rows) < len(shipped)
        assert len({row[0] for row in rows}) == len(edges)
        ((_, (states, actions, hfs), *_), _), = fits
        assert np.array_equal(states, [row[3] for row in rows])
        assert np.array_equal(actions, [row[2] for row in rows])
        assert np.array_equal(hfs, [row[4] for row in rows])


class TestOfflineUpdate:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            offline_update(PolicyModel.zeros(POLICY_HIDDEN), [])

    def test_bounded_change_and_finite(self, rng):
        policy = PolicyModel.from_seed(5, POLICY_HIDDEN)
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
                    dtime=2.0, hf=1.0, censored=False,
                    terminal_step=length - 1, policy_tts=1.0,
                    baseline_tts=float(length)))
            return log

        held_out = rng.uniform(0, 1, size=(300, 7))
        labels = np.array([expert_action(s) for s in held_out])
        policy = PolicyModel.from_seed(6, POLICY_HIDDEN)

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
        policy = PolicyModel.from_seed(7, POLICY_HIDDEN)
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
