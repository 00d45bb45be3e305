"""Cloud-edge training loop: summaries up, reward model + policy, updates down.

Each episode ships one desensitized text, the only summary format: a salted
edge hash and, if its feedback is not withheld, one record of its quantized
last step with that feedback.  The cloud parses the texts, fits a reward
model on their records, fills the withheld feedback from it, runs a PPO
update and periodically distills the policy back to every edge.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import CloudEdgeConfig, EngineConfig
from .fingerprints import fnv1a64, hash_identifier
from .mlp import TwoLayerNet, softmax
from .policy import (N_ACTIONS, STATE_DIM, MatcherStack, PolicyModel,
                     Trajectory, batch_advantages, ppo_update, rollout)
from .serialize import dump_tensors, fmt
from .sim import generate  # unused here; bench/spans.py wraps this name

# the trigger rule's share of each training draw at round 0; it anneals to 0
GUIDE_EPS = 0.5
STATE_QUANT = 0.01      # grid of the shipped last-step state


# ---------------------------------------------------------------------------
# desensitized summaries on the wire
# ---------------------------------------------------------------------------


def summarize_trajectory(traj: Trajectory, edge_id: str, salt: str) -> str:
    """The text one episode ships: the body's byte length, then ``hash,count``
    and at most one ``state|action|hf|offset`` record, the last step, its
    state quantized to ``STATE_QUANT`` and its offset the step index (never
    a clock time).  Withheld feedback ships no record."""
    lines = []
    if traj.hf is not None:
        state = np.round(traj.states[-1] / STATE_QUANT) * STATE_QUANT
        feats = " ".join(fmt(v) for v in state)
        lines.append(f"{feats}|{int(traj.actions[-1])}|{fmt(traj.hf)}|"
                     f"{fmt(traj.states.shape[0] - 1)}")
    body = "\n".join([f"{hash_identifier(edge_id, salt)},{len(lines)}"] + lines)
    return f"{len(body.encode('utf-8'))}\n{body}\n"


def _parse_summary(text: str):
    """The (edge hash, offset, action, state, hf) rows of one shipped text;
    a text whose length line, record count or record fields do not match
    is refused, naming which."""
    length, _, body = text.partition("\n")
    if (not body.endswith("\n") or not length.isdigit()
            or int(length) != len(body[:-1].encode("utf-8"))):
        raise ValueError(f"summary length line {length!r} does not match its body")
    head, *records = body[:-1].split("\n")
    edge_hash, _, count = head.partition(",")
    if not count.isdigit() or int(count) != len(records):
        raise ValueError(f"summary record count {count!r} does not match its "
                         f"{len(records)} record(s)")
    rows = []
    for record in records:
        try:
            feats, action, hf, offset = record.split("|")
            row = (edge_hash, float(offset), int(action),
                   tuple(map(float, feats.split())), float(hf))
        except ValueError:
            row = None
        if row is None or len(row[3]) != STATE_DIM:
            raise ValueError(f"summary record {record!r} is not {STATE_DIM} "
                             "state values|action|hf|offset")
        rows.append(row)
    return rows


def aggregate(texts):
    """Parse shipped summary texts into (state, action, hf) arrays.

    Canonically sorted by (edge hash, offset, action, state) so any
    permutation of the inbox yields the same batch.  Empty inbox -> empty
    arrays.
    """
    rows = [row for text in texts for row in _parse_summary(text)]
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


def run_round(state: RoundState, edges, seed: int) -> RoundState:
    """Execute one cloud-edge round; returns the updated RoundState.

    Order of events: edge rollouts -> summary texts + trajectories, the
    cloud parsing the texts, reward-model fit on direct feedback, HF
    substitution for withheld episodes, PPO update, then distillation every
    ``distill_period`` rounds.  Every setting, the cloud's and each edge
    rollout's, comes from the one config that the edges' stacks hold; edges
    whose stacks hold unequal configs are refused by id.
    """
    cfg = edges[0].stack.cfg
    odd = [edge.edge_id for edge in edges if edge.stack.cfg != cfg]
    if odd:
        raise ValueError(f"edges {odd} hold a config unequal to that of "
                         f"{edges[0].edge_id!r}; a round serves one config")
    ce = cfg.cloudedge
    if state.round_index >= state.n_rounds:
        raise ValueError("round budget exhausted")
    # guided exploration anneals to zero so the final rounds are on-policy
    progress = state.round_index / max(1.0, 0.6 * state.n_rounds)
    guide_eps = GUIDE_EPS * max(0.0, 1.0 - progress)

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
                traj, edge.edge_id, cfg.library.salt))

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
