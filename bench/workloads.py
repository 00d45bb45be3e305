"""The benchmark's three workloads: train, evaluate and device.

Each workload has four parts.  ``inputs`` generates everything the program
is given from the run's seed and is cheap enough to repeat.  ``setup`` does
the training a workload needs before its timed part.  ``run`` executes one
block of the timed part: a closed loop in which the benchmark waits on every
call.  The timed part is a few blocks of equal size (``blocks``), each on
inputs of its own, so that no block can reuse another block's work.  ``check`` runs
after the timed part and returns the problems it finds in the outputs.

Training seeds.  The filter the selector learns depends on the training seed,
and a Gaussian choice makes every match about 1.6x slower than a Kalman or
low-pass choice (``train_models`` at R=1 took 7.1-13.7 s over training seeds
1-12 on a 2-vCPU Xeon).  A run that trained a fresh seed would therefore
measure a coin flip.  So every workload
keeps the canonical training seed 13, and the run's seed draws what a user
brings instead: the walker's speed, stride and salt on ``train``, the
held-out walks on ``evaluate``, and the library and monitored walks on
``device``.
"""

import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import oracle
from envswitch import alignment, cli, policy, sim
from envswitch.config import EngineConfig
from envswitch.filters import FilterContext, select_filter
from envswitch.fingerprints import SwitchEvent
from envswitch.serialize import fmt

CANONICAL_SEED = 13
TRAIN_ROUNDS = 1          # R of the train workload
SETUP_ROUNDS = 1          # R of the stack evaluate and device train in set-up
SITES = ("A", "B", "C")


def block_size(seconds, blocks, unit_seconds) -> int:
    """Work units per block, so the timed part lasts about ``seconds``."""
    return max(1, round(seconds / blocks / unit_seconds))


@dataclass
class Outcome:
    """Operations attempted and failed, plus what the run's digest covers."""

    attempted: int = 0
    failed: int = 0
    digest_parts: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def crashed(self, what: str, n: int = 1):
        """An operation raised: report it and count ``n`` failed operations."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += n
        self.failed += n
        print(f"FAILED {what}", file=sys.stderr)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part.encode("utf-8"))
            h.update(b"\0")
        return h.hexdigest()


def model_texts(selector, metric, policies) -> list:
    return [selector.serialize(), metric.serialize()] + [
        p.serialize() for p in policies]


def train_stack(cfg):
    """The set-up training of evaluate and device: canonical seed, R=1."""
    return cli.train_models(CANONICAL_SEED, cfg, rounds=SETUP_ROUNDS,
                            log=lambda line: None)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def user_config(rng) -> EngineConfig:
    """A user's walking speed and stride, and the salt of their library."""
    cfg = EngineConfig()
    walker = replace(cfg.walker, speed_mps=float(rng.uniform(1.05, 1.35)),
                     stride_m=float(rng.uniform(0.65, 0.75)))
    library = replace(cfg.library, salt=f"user-{int(rng.integers(2 ** 32)):08x}")
    return replace(cfg, walker=walker, library=library)


class Train:
    """``cli.train_models`` from scratch, once per user; R=1."""

    name = "train"
    blocks = 2                # one training takes about 9 s

    def inputs(self, seed, seconds):
        rng = np.random.default_rng(seed)
        n = block_size(seconds, self.blocks, 9.0)
        return [[user_config(rng) for _ in range(n)] for _ in range(self.blocks)]

    def setup(self, blocks, tracer):
        return {"blocks": blocks, "rewards": []}

    def run(self, state, block, tracer, out):
        rewards = state["rewards"]
        for i, cfg in enumerate(state["blocks"][block]):
            stages = []      # one log line per finished stage
            try:
                (selector, metric, cloud, reward_model, stacks, rounds,
                 edge_policies) = cli.train_models(
                    CANONICAL_SEED, cfg, rounds=TRAIN_ROUNDS, log=stages.append)
            except Exception:
                out.attempted += len(stages)
                out.crashed(f"train block {block} user {i} after {len(stages)} stages")
                continue
            round_lines = [s for s in stages if s.startswith("round ")]
            out.attempted += len(stages) - len(round_lines)
            for line, r in zip(round_lines, rounds.mean_rewards):
                out.record(math.isfinite(r), f"train block {block} user {i} {line}")
            rewards.append(rounds.mean_rewards[-1])
            out.digest_parts += model_texts(
                selector, metric, [cloud] + [edge_policies[f] for f in SITES])
            out.digest_parts.append(reward_model.serialize())
            out.digest_parts += [" ".join(stacks[f].library) for f in SITES]
            out.digest_parts += [fmt(r) for r in rounds.mean_rewards]
        out.info["mean_reward"] = float(np.mean(rewards)) if rewards else 0.0

    def check(self, state):
        return []


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


class Evaluate:
    """``cli.evaluate_site`` on held-out walks of sites A, B and C.

    Session seeds are ``1000 * seed + 10000 + k``, so no two blocks and no
    two run seeds share a walk.
    """

    name = "evaluate"
    blocks = 3

    def inputs(self, seed, seconds):
        return {"seed": 1000 * seed,
                "sessions": block_size(seconds, self.blocks, 0.65),
                "cfg": EngineConfig(), "relatives": {f: [] for f in SITES}}

    def setup(self, inputs, tracer):
        (selector, metric, _, _, stacks, rounds,
         edge_policies) = train_stack(inputs["cfg"])
        models = model_texts(selector, metric, [edge_policies[f] for f in SITES])
        return dict(inputs, stacks=stacks, policies=edge_policies,
                    models=models, mean_reward=rounds.mean_rewards[-1])

    def run(self, state, block, tracer, out):
        cfg, n = state["cfg"], state["sessions"]
        if block == 0:
            out.digest_parts += state["models"]
        out.info["mean_reward"] = state["mean_reward"]
        for flag in SITES:
            try:
                reports, checksums = cli.evaluate_site(
                    flag, state["policies"][flag], state["stacks"][flag], n,
                    state["seed"] + block * n, cfg)
            except Exception:
                out.crashed(f"evaluate site {flag}", n)
                continue
            for r, (session, base_sum, policy_sum) in zip(reports, checksums):
                out.record(math.isfinite(r.baseline_tts)
                           and math.isfinite(r.proposed_tts)
                           and base_sum == policy_sum,
                           f"evaluate site {flag} session {session}")
            rels = state["relatives"][flag]
            rels += [r.relative for r in reports if r.relative is not None]
            out.digest_parts.append(cli.render_table(cli.SITES_BY_FLAG[flag], reports))
            out.digest_parts.append(cli.report_csv(reports))
            out.digest_parts += [f"{s} {b} {p}" for s, b, p in checksums]
        out.info["tts_rel"] = {f: float(np.mean(v)) if v else 0.0
                               for f, v in state["relatives"].items()}

    def check(self, state):
        return []


# ---------------------------------------------------------------------------
# device
# ---------------------------------------------------------------------------


LIBRARY_SESSIONS = 40     # walks offered to each 24-prototype site library
ORACLE_TIMES = (20.0, 35.0, 50.0)


def hold(t, state):
    return "hold"


def live_context(feats, present) -> FilterContext:
    """The context ``policy.rollout`` builds for its selector."""
    return FilterContext(
        rssi_variance=float(np.var(feats[:, 3])), scan_age=0.0,
        step_rate=max(0.0, float(np.mean(feats[:, 0]))),
        presence=tuple(bool(b) for b in present[-1]))


class Device:
    """A device monitoring each site with a hold-only policy.

    Every second runs a match against a 24-prototype library (the edge
    capacity), and after every walk the device commits that walk's
    baseline-anchored pre-switch buffer, evicting its oldest prototype.  The
    work is set by walk length and library size, not by learned behaviour.
    """

    name = "device"
    blocks = 3

    def inputs(self, seed, seconds):
        cfg = EngineConfig()
        base = 100_000 * (seed + 1)
        n_walks = self.blocks * block_size(seconds, self.blocks, 5.5)
        libraries, walks = {}, {}
        for flag in SITES:
            site = cli.SITES_BY_FLAG[flag]
            libraries[flag], _, _ = cli.build_site_library(
                flag, [base + k for k in range(LIBRARY_SESSIONS)], cfg)
            walks[flag] = []
            for k in range(n_walks):
                scenario = sim.make_scenario(site, base + 50_000 + k,
                                             cfg.radio, cfg.walker)
                walks[flag].append((scenario, sim.generate(scenario, cfg.radio,
                                                           cfg.walker)))
        return {"cfg": cfg, "libraries": libraries, "walks": walks,
                "per_block": n_walks // self.blocks}

    def setup(self, inputs, tracer):
        cfg = inputs["cfg"]
        selector, metric, _, _, _, rounds, _ = train_stack(cfg)
        stacks = {f: policy.MatcherStack(selector=selector, metric=metric,
                                         library=inputs["libraries"][f],
                                         band=cfg.match.band, cfg=cfg)
                  for f in SITES}
        return dict(inputs, stacks=stacks, mean_reward=rounds.mean_rewards[-1],
                    models=model_texts(selector, metric, []))

    def commit(self, trace, stack, day, tracer):
        """Commit the walk's baseline-anchored pre-switch buffer, if any."""
        cfg = stack.cfg
        completion, censored = sim.baseline_policy(
            trace, cfg.baseline.threshold_dbm, cfg.baseline.hysteresis_db,
            cfg.baseline.dwell_s, cfg.baseline.assoc_delay_s)
        if censored:
            return "censored"
        buffer = sim.segment_before(trace, min(completion, trace.duration - 1.0), cfg)
        event = SwitchEvent(buffer.windows[-1].timestamp, "wifi_to_cell")
        before = len(stack.library)
        with tracer.span("fingerprints.commit_segment"):
            pid = stack.library.commit_segment(buffer, event, created_day=day)
        tracer.count("fingerprints.library.commits")
        tracer.count("fingerprints.library.evictions", before + 1 - len(stack.library))
        return pid

    def run(self, state, block, tracer, out):
        if block == 0:
            out.digest_parts += state["models"]
        out.info["mean_reward"] = state["mean_reward"]
        scripted = policy.ScriptedPolicy(hold)
        per_block = state["per_block"]
        for k in range(block * per_block, (block + 1) * per_block):
            for flag in SITES:
                scenario, trace = state["walks"][flag][k]
                stack = state["stacks"][flag]
                try:
                    traj = policy.rollout(scripted, scenario, stack, trace=trace)
                    ok = (math.isfinite(traj.policy_tts)
                          and math.isfinite(traj.baseline_tts)
                          and traj.trace_checksum == trace.checksum())
                    pid = self.commit(trace, stack, LIBRARY_SESSIONS + k, tracer)
                except Exception:
                    out.crashed(f"device site {flag} walk {k}")
                    continue
                out.record(ok, f"device site {flag} walk {k}")
                out.digest_parts += [traj.trace_checksum, fmt(traj.policy_tts),
                                     hashlib.sha256(traj.states.tobytes()).hexdigest(),
                                     pid]
        out.digest_parts += [" ".join(state["stacks"][f].library) for f in SITES]
        out.info["library_size"] = float(np.mean(
            [len(state["stacks"][f].library) for f in SITES]))

    def check(self, state):
        """Re-score a fixed sample of live windows with the oracle."""
        problems = []
        for flag in SITES:
            stack = state["stacks"][flag]
            trace = state["walks"][flag][0][1]
            for t in ORACLE_TIMES:
                live = sim.segment_before(trace, t, stack.cfg).packed()
                ctx = live_context(*live)
                ranked = alignment.match(stack.metric, stack.selector, live,
                                         stack.library, stack.band, 1, ctx)
                got = (ranked[0][0], ranked[0][1].similarity) if ranked else None
                want = oracle.top1(stack.metric, select_filter(stack.selector, ctx),
                                   live, stack.library, stack.band)
                if not oracle.agrees(got, want):
                    problems.append(f"oracle site {flag} t={t}: program {got} "
                                    f"oracle {want}")
        return problems


WORKLOADS = {w.name: w for w in (Train(), Evaluate(), Device())}
