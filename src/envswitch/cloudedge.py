"""Cloud-edge training loop: summaries up, reward model + policy, updates down.

Each edge ships one desensitized record per episode with direct feedback:
the quantized last step and its feedback; an episode whose feedback is
withheld ships nothing.  The cloud fits a reward model on those records,
fills the withheld feedback from it, runs a PPO update and periodically
distills the policy back to every edge.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import CloudEdgeConfig, EngineConfig
from .fingerprints import fnv1a64, hash_identifier
from .mlp import TwoLayerNet, softmax
from .policy import (N_ACTIONS, STATE_DIM, MatcherStack, PolicyModel,
                     Trajectory, batch_advantages, ppo_update, rollout)
from .serialize import dump_tensors, fmt, parse_tensors
from .sim import generate  # unused here; bench/spans.py wraps this name


# ---------------------------------------------------------------------------
# desensitized summaries on the wire
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRecord:
    """One (state, action, hf, offset) tuple: an episode's labelled last step."""

    state: tuple
    action: int
    hf: float
    offset: float


@dataclass
class EdgeSummary:
    """Desensitized per-episode digest an edge ships to the cloud.

    State features already are unitless, identifier-free quantities (the
    similarity statistics among them); offsets are relative to the episode
    start, and the edge identity is a salted hash.
    """

    edge_id_hash: str
    records: tuple

    def serialize(self) -> str:
        body_lines = [f"{self.edge_id_hash},{len(self.records)}"]
        for r in self.records:
            feats = " ".join(fmt(v) for v in r.state)
            body_lines.append(f"{feats}|{r.action}|{fmt(r.hf)}|{fmt(r.offset)}")
        body = "\n".join(body_lines)
        return f"{len(body.encode('utf-8'))}\n{body}\n"


def summarize_trajectory(traj: Trajectory, edge_id: str, salt: str,
                         quant: float) -> EdgeSummary:
    """Quantize an episode's last step, which carries its direct feedback,
    into one wire record; withheld feedback ships no record."""
    records = ()
    if traj.hf is not None:
        # the elementwise form of fingerprints.quantize
        state = (np.round(traj.states[-1] / quant) * quant).tolist()
        records = (SummaryRecord(tuple(state), int(traj.actions[-1]),
                                 float(traj.hf),
                                 float(traj.states.shape[0] - 1)),)
    return EdgeSummary(hash_identifier(edge_id, salt), records)


def aggregate(inbox):
    """Merge summaries into (state, action, hf) arrays.

    Canonically sorted by (edge hash, offset, action, state) so any
    permutation of the inbox yields the same batch.  Empty inbox -> empty
    arrays.
    """
    rows = []
    for summary in inbox:
        for r in summary.records:
            rows.append((summary.edge_id_hash, r.offset, r.action, r.state, r.hf))
    rows.sort(key=lambda row: row[:4])
    states = np.array([row[3] for row in rows]).reshape(len(rows), STATE_DIM)
    actions = np.array([row[2] for row in rows], dtype=int)
    hfs = np.array([row[4] for row in rows])
    return states, actions, hfs


# ---------------------------------------------------------------------------
# reward model
# ---------------------------------------------------------------------------


@dataclass
class RewardModel:
    """Maps (state features, action one-hot) to predicted feedback in [-1, 1]."""

    net: TwoLayerNet

    @classmethod
    def from_seed(cls, seed: int, hidden: int = 16) -> "RewardModel":
        return cls(TwoLayerNet.from_seed(STATE_DIM + N_ACTIONS, hidden, 1, seed))

    def predict(self, states, actions) -> np.ndarray:
        x = _reward_inputs(states, actions)
        out, _ = self.net.forward(x)
        return np.tanh(out[..., 0])

    def serialize(self) -> str:
        return dump_tensors(self.net.tensors("reward."))

    @classmethod
    def deserialize(cls, text: str) -> "RewardModel":
        return cls(TwoLayerNet.from_tensors(parse_tensors(text), "reward."))


def _reward_inputs(states, actions):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    actions = np.atleast_1d(np.asarray(actions, dtype=int))
    onehot = np.zeros((states.shape[0], N_ACTIONS))
    onehot[np.arange(states.shape[0]), actions] = 1.0
    return np.concatenate([states, onehot], axis=1)


def fit_reward_model(model: RewardModel, batch, ce: CloudEdgeConfig) -> RewardModel:
    """Squared-error regression of predicted feedback onto recorded feedback,
    ``ce.reward_model_epochs`` gradient steps of ``ce.reward_model_step``."""
    states, actions, hfs = batch
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] == 0:
        raise ValueError("empty reward-model batch")
    x = _reward_inputs(states, actions)
    y = np.asarray(hfs, dtype=float)
    net = model.net.copy()
    n = x.shape[0]
    for _ in range(max(0, ce.reward_model_epochs)):
        out, cache = net.forward(x)
        pred = np.tanh(out[:, 0])
        err = pred - y
        dy = (2.0 / n) * err * (1.0 - pred * pred)
        grads = net.backward(cache, dy[:, None])
        net = net.step(grads, ce.reward_model_step)
    return RewardModel(net)


# ---------------------------------------------------------------------------
# round state and the loop
# ---------------------------------------------------------------------------


@dataclass
class EdgeAgent:
    """One device: its site, matcher stack, trace pool, and the policy last
    distilled to it.

    ``traces`` are the generated walks the edge replays, one per pool
    scenario; each carries its ``scenario``.
    """

    edge_id: str
    stack: MatcherStack
    traces: list
    policy: PolicyModel


@dataclass
class RoundState:
    round_index: int
    n_rounds: int
    cloud_policy: PolicyModel
    reward_model: RewardModel
    mean_rewards: list = field(default_factory=list)


def run_round(state: RoundState, edges, cfg: EngineConfig,
              seed: int = 0) -> RoundState:
    """Execute one cloud-edge round; returns the updated RoundState.

    Order of events: edge rollouts -> summaries + trajectories, cloud
    aggregation, reward-model fit on direct feedback, HF substitution for
    withheld episodes, PPO update, then distillation every
    ``distill_period`` rounds.  Every setting comes from ``cfg``, except
    that each edge's rollouts read its stack's ``cfg``.
    """
    ce = cfg.cloudedge
    if state.round_index >= state.n_rounds:
        raise ValueError("round budget exhausted")
    # guided exploration anneals to zero so the final rounds are on-policy
    progress = state.round_index / max(1.0, 0.6 * state.n_rounds)
    guide_eps = cfg.ppo.guide_eps * max(0.0, 1.0 - progress)

    trajectories = []
    inbox = []
    for edge in edges:
        edge_rng = np.random.default_rng(
            fnv1a64(f"round:{state.round_index}:{edge.edge_id}:{seed}"))
        pool = edge.traces
        for k in range(ce.episodes_per_edge):
            i = (state.round_index * ce.episodes_per_edge + k) % len(pool)
            trace = pool[i]
            traj = rollout(edge.policy, trace.scenario, edge.stack,
                           mode="sample", seed=int(edge_rng.integers(2 ** 62)),
                           trace=trace, guide_eps=guide_eps)
            withheld = edge_rng.random() < ce.hf_withheld_fraction
            if withheld:
                traj = replace(traj, hf=None)
            trajectories.append(traj)
            inbox.append(summarize_trajectory(
                traj, edge.edge_id, edge.stack.cfg.library.salt,
                ce.state_quant))

    states, actions, hfs = aggregate(inbox)
    reward_model = state.reward_model
    if hfs.size:
        reward_model = fit_reward_model(reward_model, (states, actions, hfs), ce)

    # direct feedback is used verbatim; the model only fills the gaps
    filled = []
    for traj in trajectories:
        if traj.hf is None:
            hf_hat = float(reward_model.predict(traj.states[-1:],
                                                traj.actions[-1:])[0])
            filled.append(replace(traj, hf=hf_hat))
        else:
            filled.append(traj)

    new_policy = ppo_update(state.cloud_policy, filled, cfg.ppo, cfg.reward)

    mean_reward = float(np.mean([t.total_reward(cfg.reward) for t in filled]))
    next_index = state.round_index + 1
    if next_index % ce.distill_period == 0 or next_index == state.n_rounds:
        for edge in edges:
            edge.policy = new_policy

    return RoundState(
        round_index=next_index, n_rounds=state.n_rounds,
        cloud_policy=new_policy, reward_model=reward_model,
        mean_rewards=state.mean_rewards + [mean_reward])


# ---------------------------------------------------------------------------
# offline (connectivity-limited) update
# ---------------------------------------------------------------------------


def offline_update(policy: PolicyModel, log, cfg: EngineConfig,
                   step_size: float = 0.05, temperature: float = 1.0,
                   max_norm: float = 0.5) -> PolicyModel:
    """Advantage-weighted, behavior-cloning-style update from a local log.

    No new rollouts: each logged action is imitated with weight
    exp(advantage / temperature), advantages from ``batch_advantages(log,
    cfg.ppo, cfg.reward)``; the parameter change is max-norm clipped so one
    offline pass can never jump far from the deployed policy.  The rounds
    do not run it; it stays because bench/spans.py rebinds
    ``envswitch.cli.offline_update``.
    """
    if not log:
        raise ValueError("empty trajectory log")
    adv, _ = batch_advantages(log, cfg.ppo, cfg.reward)
    states = np.concatenate([traj.states for traj in log])
    actions = np.concatenate([traj.actions for traj in log]).astype(int)
    weights_awr = np.minimum(np.exp(adv / temperature), 20.0)

    net = policy.net.copy()
    out, cache = net.forward(states)
    n_actions = policy.n_actions
    probs = softmax(out[:, :n_actions])
    n = states.shape[0]
    onehot = np.zeros((n, n_actions))
    onehot[np.arange(n), actions] = 1.0
    dlogits = -(weights_awr[:, None] * (onehot - probs)) / n
    dy = np.concatenate([dlogits, np.zeros((n, 1))], axis=1)
    grads = net.backward(cache, dy)

    stepped = net.step(grads, step_size)
    delta = stepped.to_vector() - net.to_vector()
    biggest = float(np.max(np.abs(delta))) if delta.size else 0.0
    if biggest > max_norm:
        delta *= max_norm / biggest
    return PolicyModel(net.from_vector(net.to_vector() + delta))
