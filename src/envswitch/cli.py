"""Command-line harness: simulate traces, train the stack, evaluate TTS.

``envswitch simulate`` writes fingerprint-window traces plus ground-truth
sidecars; ``train`` builds per-site libraries from baseline-triggered
switches, trains the filter selector against the identity alignment
metric, runs the cloud-edge rounds, and writes every model; ``evaluate``
replays held-out sessions through both the threshold baseline and the
greedy learned policy on identical traces and emits per-session TTS tables.
"""

import argparse
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .alignment import MetricModel, make_alignment_loss
from .alignment import train_metric  # unused here; bench/spans.py wraps this name
from .cloudedge import EdgeAgent, RewardModel, RoundState, run_round
from .cloudedge import offline_update  # unused here; bench/spans.py wraps this name
from .config import EngineConfig, load_config
from .fingerprints import (FingerprintLibrary, FingerprintSequence,
                           SwitchEvent, fnv1a64, load_library, save_library,
                           write_sequence)
from .filters import SelectorModel, context_from_windows, train_selector
from .policy import (POLICY_HIDDEN, MatcherStack, PolicyModel, ScriptedPolicy,
                     imitate, rollout, trigger_guide)
from .serialize import fmt
from .sim import SITE_SHORT as SITES_BY_FLAG  # the name bench/ reads
from .sim import (WINDOW_S, baseline_policy, detect_outdoor_transition,
                  fingerprint_at, generate, make_scenario, scenario_text,
                  segment_before, truth_text)

PAPER_SESSION_COUNTS = {"A": 5, "B": 10, "C": 6}
TRAIN_SESSIONS_PER_SITE = 6
EVAL_SEED_OFFSET = 10_000
N_ROUNDS = 20           # cloud-edge rounds of a training run
# Time-shuffled negatives per positive training pair, the ones the selector
# reads; the pair builder draws twice as many permutations, because the
# unused draws advance its rng, which picks every later partner and negative.
NEGATIVES_PER_POSITIVE = 2


@dataclass
class SessionReport:
    site: str
    session: int
    baseline_tts: float
    proposed_tts: float
    censored: bool = False      # the policy never handed over

    @property
    def improvement(self) -> float:
        return self.baseline_tts - self.proposed_tts

    @property
    def relative(self) -> float | None:
        if self.baseline_tts > 0:
            return self.improvement / self.baseline_tts
        return None


def round2(value: float) -> str:
    """Display rounding: two decimals, half-up."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def write_files(out_dir: str, files) -> None:
    """Write each ``(name, text)`` of ``files`` to ``out_dir/name``."""
    for name, text in files:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(text)


def trace_to_sequence(trace) -> FingerprintSequence:
    """Every window of the trace, ending at ``k * WINDOW_S`` for k = 1, 2,
    ... up to the trace's end, each scanning every second."""
    return FingerprintSequence(
        fingerprint_at(trace, k * WINDOW_S, range(len(trace.sec_t)))
        for k in range(1, int(trace.duration / WINDOW_S + 1e-9) + 1))


def cmd_simulate(site_flags, sessions: int, seed: int, out_dir: str,
                 cfg: EngineConfig) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for flag in site_flags:
        site = SITES_BY_FLAG[flag]
        for k in range(sessions):
            session_seed = seed + k
            scenario = make_scenario(site, session_seed, cfg.radio, cfg.walker, cfg.baseline)
            trace = generate(scenario, cfg.radio, cfg.walker)
            name = f"trace_{flag}_{session_seed}"
            write_sequence(os.path.join(out_dir, name + ".csv"), trace_to_sequence(trace))
            write_files(out_dir, ((name + ".truth", truth_text(trace)),
                                  (name + ".scenario", scenario_text(scenario))))
            written.append(os.path.join(out_dir, name))
    return written


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def build_site_library(site_flag: str, seeds, cfg: EngineConfig):
    """Commit pre-switch buffers from baseline-triggered switches.

    Sites A and B anchor on the moment the baseline switch completes; site C
    anchors on the first second with two consecutive GNSS fixes and weak or
    sharply decaying WiFi (``detect_outdoor_transition``).  Returns
    (library, traces, scenarios).
    """
    site = SITES_BY_FLAG[site_flag]
    library = FingerprintLibrary(cfg.library)
    traces, scenarios = [], []
    for day, s in enumerate(seeds):
        scenario = make_scenario(site, s, cfg.radio, cfg.walker, cfg.baseline)
        trace = generate(scenario, cfg.radio, cfg.walker)
        scenarios.append(scenario)
        traces.append(trace)
        if site_flag == "C":
            anchor_t = detect_outdoor_transition(trace, cfg)
            if anchor_t is None:
                continue
        else:
            completion, censored = baseline_policy(
                trace, cfg.baseline.threshold_dbm, cfg.baseline.hysteresis_db,
                cfg.baseline.dwell_s, cfg.baseline.assoc_delay_s)
            if censored:
                continue
            anchor_t = min(completion, trace.duration - 1.0)
        buffer = segment_before(trace, anchor_t, cfg)
        event = SwitchEvent(buffer.windows[-1].timestamp, "wifi_to_cell")
        library.commit_segment(buffer, event, created_day=day)
    return library, traces, scenarios


def build_training_pairs(libraries, seed: int):
    """Switch-tag supervision: ``(positive, negatives)`` items from every
    site library, each pair a packed ``(query, proto)``.

    Each labeled prototype, in id order, is the query of one item.  Its
    positive pairs it with another prototype of the same switch kind drawn
    from its library; its ``NEGATIVES_PER_POSITIVE`` negatives pair it with
    time-shuffled copies of that partner, so that similarity rises
    only for the pre-switch order.  Each library draws from its own
    ``np.random.default_rng(seed)``, twice as many permutations per
    positive as it keeps; one with fewer than two prototypes is skipped.
    """
    pairs = []
    for library in libraries.values():
        if len(library) < 2:
            continue
        rng = np.random.default_rng(seed)
        kinds = {pid: seq.label.kind for pid, seq in library.items()
                 if seq.label is not None}
        formed = len(pairs)
        for pid, kind in kinds.items():
            same = [p for p, k in kinds.items() if k == kind and p != pid]
            if not same:
                continue
            query = library.get(pid).packed()
            feats, pres = library.get(same[rng.integers(len(same))]).packed()
            perms = [rng.permutation(len(feats))
                     for _ in range(2 * NEGATIVES_PER_POSITIVE)]
            pairs.append(((query, (feats, pres)),
                          [(query, (feats[perm], pres[perm]))
                           for perm in perms[:NEGATIVES_PER_POSITIVE]]))
        if len(pairs) == formed:
            raise ValueError("no positives could be formed from the switch tags")
    if not pairs:
        raise ValueError("no training pairs; libraries too small")
    return pairs


def train_models(seed: int, cfg: EngineConfig, rounds: int = N_ROUNDS,
                 log=print):
    """Full training pipeline.

    The metric is ``MetricModel.identity``: fitting it (``train_metric``)
    lowered site A's TTS gain at 8 of 9 seeds.  Returns (selector, metric,
    policy, reward model, stacks, final ``RoundState``, edge policies); the
    edge policies map each site flag to the policy last distilled to that
    site's edge, which after the final round is ``policy`` itself.
    """
    libraries, traces_by_site = {}, {}
    for flag in ("A", "B", "C"):
        seeds = [seed + 100 * {"A": 1, "B": 2, "C": 3}[flag] + k
                 for k in range(TRAIN_SESSIONS_PER_SITE)]
        lib, traces, _ = build_site_library(flag, seeds, cfg)
        libraries[flag] = lib
        traces_by_site[flag] = traces
        log(f"site {flag}: committed {len(lib)} prototypes")

    pairs = build_training_pairs(libraries, seed)
    metric = MetricModel.identity()
    log("metric: identity embedding, uniform modality weights")

    selector = SelectorModel.from_seed(fnv1a64(f"selector:{seed}") % (2 ** 32))
    # each item's context is the one the matcher serves its query with
    selector_items = [(context_from_windows(*positive[0], 0.0), positive, negatives)
                      for positive, negatives in pairs]
    loss_fn = make_alignment_loss(metric, band=cfg.match.band)
    selector = train_selector(selector, selector_items, loss_fn,
                              epochs=5, step_size=0.05)
    log("selector trained")

    stacks, edges = {}, []
    for flag in ("A", "B", "C"):
        stack = MatcherStack(selector=selector, metric=metric,
                             library=libraries[flag], band=cfg.match.band,
                             cfg=cfg)
        stacks[flag] = stack

    policy = PolicyModel.from_seed(fnv1a64(f"policy:{seed}") % (2 ** 32),
                                   POLICY_HIDDEN)
    policy = pretrain_on_trigger_rule(policy, stacks, traces_by_site, cfg)
    log("policy pre-trained on the trigger rule")

    for flag in ("A", "B", "C"):
        edges.append(EdgeAgent(edge_id=f"edge-{flag}", stack=stacks[flag],
                               traces=traces_by_site[flag], policy=policy))

    state = RoundState(
        round_index=0, n_rounds=rounds,
        cloud_policy=edges[0].policy,
        reward_model=RewardModel.from_seed(fnv1a64(f"reward:{seed}") % (2 ** 32)))
    for r in range(rounds):
        state = run_round(state, edges, seed)
        log(f"round {state.round_index} mean_reward {round2(state.mean_rewards[-1])}")
    edge_policies = {flag: edge.policy for flag, edge in zip("ABC", edges)}
    return (selector, metric, state.cloud_policy, state.reward_model, stacks,
            state, edge_policies)


def pretrain_on_trigger_rule(policy, stacks, traces_by_site,
                             cfg: EngineConfig) -> PolicyModel:
    """Imitate the operational trigger rule before the online rounds.

    The policy imitates the 7-feature states and actions of rollouts of
    ``ScriptedPolicy(trigger_guide(cfg))``, which reads each state's
    ``pre_associated`` flag, on the first three training traces of every
    site, so the initial greedy policy already switches sanely."""
    rule = ScriptedPolicy(trigger_guide(cfg))
    trajs = [rollout(rule, trace.scenario, stacks[flag], trace=trace)
             for flag, traces in traces_by_site.items() for trace in traces[:3]]
    return imitate(policy, np.concatenate([traj.states for traj in trajs]),
                   np.concatenate([traj.actions for traj in trajs]),
                   epochs=120, step_size=0.02)


def serving(cfg: EngineConfig) -> tuple:
    """The (key, value) settings a stack serves with; ``serving.txt`` holds them."""
    return (("match.band", cfg.match.band),
            ("window.buffer_windows", cfg.window.buffer_windows))


def cmd_train(seed: int, out_dir: str, cfg: EngineConfig,
              rounds: int = N_ROUNDS, log=print):
    os.makedirs(out_dir, exist_ok=True)
    (selector, metric, policy, reward_model, stacks, state,
     _) = train_models(seed, cfg, rounds, log)
    write_files(out_dir, (
        ("selector.txt", selector.serialize()), ("metric.txt", metric.serialize()),
        ("policy.txt", policy.serialize()), ("reward_model.txt", reward_model.serialize()),
        ("serving.txt", "".join(f"{key} = {value}\n" for key, value in serving(cfg))),
        ("train_log.txt", "".join(f"round {i} mean_reward {fmt(r)}\n"
                                  for i, r in enumerate(state.mean_rewards, 1)))))
    for flag, stack in stacks.items():
        save_library(stack.library, os.path.join(out_dir, f"lib_{flag}"))
    return out_dir


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def load_models(model_dir: str, cfg: EngineConfig):
    def read(name, deserialize):
        path = os.path.join(model_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing model file: {path}")
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        try:
            return deserialize(text)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    selector = read("selector.txt", SelectorModel.deserialize)
    metric = read("metric.txt", MetricModel.deserialize)
    policy = read("policy.txt", PolicyModel.deserialize)
    path = os.path.join(model_dir, "serving.txt")
    for (key, trained), (_, asked) in zip(serving(load_config(path)), serving(cfg)):
        if trained != asked:
            raise ValueError(f"{path}: the models were trained with {key} = {trained}, not {asked}")
    stacks = {}
    for flag in ("A", "B", "C"):
        lib_dir = os.path.join(model_dir, f"lib_{flag}")
        library = load_library(lib_dir, cfg.library)
        stacks[flag] = MatcherStack(selector=selector, metric=metric,
                                    library=library, band=cfg.match.band,
                                    cfg=cfg)
    return selector, metric, policy, stacks


def evaluate_site(flag: str, policy, stack, sessions: int, seed: int,
                  cfg: EngineConfig):
    """Greedy rollouts of ``policy`` on ``sessions`` held-out walks of site
    ``flag``; returns (session reports, (session, trace checksum, replayed
    checksum) triples).

    The walks are built from ``cfg`` and the rollouts read ``stack.cfg``, so
    a ``cfg`` unequal to ``stack.cfg`` is refused.
    """
    if cfg != stack.cfg:
        raise ValueError("evaluate_site's cfg differs from the config its "
                         "stack serves")
    site = SITES_BY_FLAG[flag]
    reports, checksums = [], []
    for k in range(sessions):
        session_seed = seed + EVAL_SEED_OFFSET + k
        scenario = make_scenario(site, session_seed, cfg.radio, cfg.walker, cfg.baseline)
        trace = generate(scenario, cfg.radio, cfg.walker)
        traj = rollout(policy, scenario, stack, mode="greedy",
                       seed=session_seed, trace=trace)
        reports.append(SessionReport(site, k + 1, traj.baseline_tts,
                                     traj.policy_tts, traj.censored))
        checksums.append((k + 1, trace.checksum(), traj.trace_checksum))
    return reports, checksums


def render_table(site: str, reports) -> str:
    """Human-readable table shaped like the per-site session tables."""
    header = ["".ljust(18)] + [f"D{r.session}".rjust(8) for r in reports]
    rows = [
        ("Baseline TTS (s)", [r.baseline_tts for r in reports]),
        ("Proposed TTS (s)", [r.proposed_tts for r in reports]),
        ("Improvement (s)", [r.improvement for r in reports]),
    ]
    lines = [f"Site {site} ({len(reports)} sessions)", "".join(header)]
    for name, values in rows:
        lines.append(name.ljust(18) + "".join(round2(v).rjust(8) for v in values))
    improvements = [r.improvement for r in reports]
    rels = [r.relative for r in reports if r.relative is not None]
    lines.append(f"Average improvement (s): {round2(float(np.mean(improvements)))}")
    if rels:
        lines.append("Mean of per-session relative improvements: "
                     f"{round2(100.0 * float(np.mean(rels)))}%")
    mean_base = float(np.mean([r.baseline_tts for r in reports]))
    if mean_base > 0:
        lines.append("Ratio of mean improvement to mean baseline: "
                     f"{round2(100.0 * float(np.mean(improvements)) / mean_base)}%")
    return "\n".join(lines) + "\n"


def report_csv(reports) -> str:
    lines = ["site,session,baseline_tts,proposed_tts,improvement,relative"]
    for r in reports:
        rel = fmt(r.relative) if r.relative is not None else "nan"
        lines.append(f"{r.site},{r.session},{fmt(r.baseline_tts)},"
                     f"{fmt(r.proposed_tts)},{fmt(r.improvement)},{rel}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(site_flags, sessions_map, seed: int, model_dir: str,
                 out_dir: str, cfg: EngineConfig, log=print):
    os.makedirs(out_dir, exist_ok=True)
    _, _, policy, stacks = load_models(model_dir, cfg)
    all_reports = {}
    for flag in site_flags:
        reports, checksums = evaluate_site(
            flag, policy, stacks[flag], sessions_map[flag], seed, cfg)
        all_reports[flag] = reports
        table = render_table(SITES_BY_FLAG[flag], reports)
        write_files(out_dir, (
            (f"report_{flag}.csv", report_csv(reports)), (f"report_{flag}.txt", table),
            (f"sessions_{flag}.log", "".join(
                f"session {session} baseline_trace {base_sum} policy_trace {policy_sum}\n"
                for session, base_sum, policy_sum in checksums))))
        log(table)
    return all_reports


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="envswitch",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads: train trains every site
    for name in ("simulate", "train", "evaluate"):
        sp = sub.add_parser(name)
        if name != "train":
            sp.add_argument("--site", choices=["A", "B", "C", "all"], default="all")
            sp.add_argument("--sessions", type=_int_at_least(1), default=None,
                            help="sessions per site (default: per-site table)")
        sp.add_argument("--seed", type=int, default=13)
        sp.add_argument("--config", default=None, help="key-value config file")
        sp.add_argument("--out", default="out")
        if name == "train":
            sp.add_argument("--rounds", type=_int_at_least(0), default=N_ROUNDS,
                            help="cloud-edge rounds")
        if name == "evaluate":
            sp.add_argument("--models", default=None,
                            help="model directory (default: --out)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = EngineConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.command == "train":
        cmd_train(args.seed, args.out, cfg, args.rounds)
        print(f"models written to {args.out}")
        return 0
    flags = ["A", "B", "C"] if args.site == "all" else [args.site]
    if args.command == "simulate":
        sessions = args.sessions if args.sessions is not None else 5
        written = cmd_simulate(flags, sessions, args.seed, args.out, cfg)
        print(f"wrote {len(written)} traces to {args.out}")
    else:
        sessions_map = {f: (args.sessions if args.sessions is not None
                            else PAPER_SESSION_COUNTS[f]) for f in flags}
        model_dir = args.models if args.models else args.out
        cmd_evaluate(flags, sessions_map, args.seed, model_dir, args.out, cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
