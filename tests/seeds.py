"""Criterion 6 at several training seeds: the seed-spread table.

Runs the canonical pass of ``golden.run_pipeline`` (simulate -> train with
N=20 rounds -> evaluate 20 held-out sessions per site) at each seed, and
prints each site's mean per-session relative TTS improvement in percent,
the figure ``test_criterion_6_end_to_end_tts_improvement`` gates at seed
13.  Run from the repository root (about 20 s for the three default seeds
on a 2-vCPU host):

    PYTHONPATH=src python tests/seeds.py [--seeds 13 29 41 ...] [--json PATH]
                                         [--baseline PATH] [--rule]
                                         [--variant null-init|null-round|no-pretrain|no-match]

``--seeds`` picks the training seeds (default 13, 29 and 41).  ``--json``
also writes, for the seeds run, each site's value per seed and, over the
seeds, its mean, min, interquartile mean and a percentile bootstrap
interval of the mean (Agarwal et al. 2021; Henderson et al. 2018),
whether criterion 6 holds at each seed and at how many, and the censored
sessions (the greedy policy never handed over) and the premature ones (the
switch completed more than ``sim.HF_WINDOW_EARLY_S`` before the onset,
where the simulated feedback turns negative) per seed and site and in
total.  ``--baseline`` reads an earlier ``--json`` file of the same seeds
(another seed set is refused) and counts, per site, the seeds at which
this run beats it, ties it and trails it; the counts are printed under the
table and, with ``--json``, written as ``baseline``.  ``--rule`` also runs
the scripted trigger rule, ``ScriptedPolicy(trigger_guide(cfg))``, greedy
through ``cli.evaluate_site`` on the stacks of each seed's model directory
and the same session seeds; its site means and censored and premature
sessions are printed as one more row per seed and, with ``--json``,
written as ``rule`` in the shape of the policy's summary.  ``--variant``
runs every seed with one module or class attribute rebound.  Two variants rename one salt that no result
should depend on, the null spread a behaviour change is read against
(Henderson et al. 2018): ``null-init`` hashes the policy's init seed string
``policy:`` as ``policy-null:``, and ``null-round`` the edge-round rng
string ``round:`` as ``round-null:``.  ``no-pretrain`` makes
``cli.pretrain_on_trigger_rule`` return its policy unchanged, so the
rounds start from the untrained policy.  ``no-match`` makes
``MatcherStack.top_similarity`` return 0.0, so no live window matches the
library, in training and in evaluation.  The JSON then names the variant
as ``variant``.  Every pipeline runs
in a temporary directory; the JSON file is refused inside a model
directory, whose files criterion 8 compares byte for byte.  The output, table and file, is deterministic.

A change that alters behaviour reports this table before and after.
"""

import argparse
import json
import os
import tempfile

import numpy as np

import envswitch.cli as cli
import envswitch.cloudedge as cloudedge
from envswitch import policy, sim
from envswitch.cli import evaluate_site, load_models
from envswitch.config import EngineConfig
from envswitch.policy import MatcherStack, ScriptedPolicy, trigger_guide
from golden import EVAL_SESSIONS, run_pipeline

SEEDS = (13, 29, 41)
# criterion 6: each site's minimum mean relative improvement, as a fraction;
# it holds when all three are met and C >= A >= B
CRITERION_6 = {"A": 0.25, "B": 0.20, "C": 0.40}
BOOTSTRAP = {"statistic": "mean", "resamples": 10_000, "confidence": 0.95, "seed": 0}


def renamed_salt(old: str, new: str):
    """The rebinding of an ``fnv1a64`` to one that hashes a text starting
    with ``old`` as if it started with ``new``, and every other text
    unchanged."""
    return lambda fnv1a64: lambda text: fnv1a64(new + text[len(old):] if text.startswith(old)
                                                else text)


# --variant NAME: (module or class, attribute, the rebinding of its current value)
VARIANTS = {"null-init": (cli, "fnv1a64", renamed_salt("policy:", "policy-null:")),
            "null-round": (cloudedge, "fnv1a64", renamed_salt("round:", "round-null:")),
            "no-pretrain": (cli, "pretrain_on_trigger_rule",
                            lambda pretrain: lambda policy, *context: policy),
            "no-match": (MatcherStack, "top_similarity",
                         lambda top_similarity: lambda stack, *window: 0.0)}


def apply_variant(name: str) -> None:
    """Rebind the variant's attribute."""
    module, attribute, rebind = VARIANTS[name]
    setattr(module, attribute, rebind(getattr(module, attribute)))


def site_means(reports) -> dict:
    """Per-site mean of the per-session relative improvements, in percent."""
    return {flag: 100.0 * float(np.mean([r.relative for r in site_reports
                                         if r.relative is not None]))
            for flag, site_reports in reports.items()}


def site_censored(reports) -> dict:
    """Per-site count of censored sessions: the policy never handed over."""
    return {flag: sum(r.censored for r in site_reports)
            for flag, site_reports in reports.items()}


def site_premature(reports) -> dict:
    """Per-site count of premature sessions: the switch completed more than
    ``sim.HF_WINDOW_EARLY_S`` before the onset, so the reported TTS is
    below -``HF_WINDOW_EARLY_S``.  The report floors TTS at
    ``policy.TTS_REPORT_FLOOR_S``, and the count is exact only while that
    floor lies below -``HF_WINDOW_EARLY_S``; any other floor is refused,
    since it would hide premature sessions and read 0."""
    early = sim.HF_WINDOW_EARLY_S
    if not policy.TTS_REPORT_FLOOR_S < -early:
        raise ValueError(f"the TTS report floor {policy.TTS_REPORT_FLOOR_S} s is not below "
                         f"-{early} s, so premature sessions cannot be counted")
    return {flag: sum(r.proposed_tts < -early for r in site_reports)
            for flag, site_reports in reports.items()}


def count_summary(per_seed: dict) -> dict:
    """Session counts (seed -> site counts), such as the censored or the
    premature sessions, per seed, per site over the seeds, and in total."""
    sites = {flag: sum(counts[flag] for counts in per_seed.values()) for flag in "ABC"}
    return {"per_seed": {str(seed): counts for seed, counts in per_seed.items()},
            "sites": sites, "total": sum(sites.values())}


def rule_reports(model_dir: str, cfg: EngineConfig, seed: int) -> dict:
    """Per site, the reports of the scripted trigger rule run greedy on the
    stacks read from ``model_dir``, with the pipeline's session seeds."""
    _, _, _, stacks = load_models(model_dir, cfg)
    rule = ScriptedPolicy(trigger_guide(cfg))
    return {flag: evaluate_site(flag, rule, stacks[flag], EVAL_SESSIONS, seed, cfg)[0]
            for flag in "ABC"}


def table_row(label, means: dict, censored: dict | None = None,
              premature: dict | None = None) -> str:
    """One table row: the site means in percent, then any censored and
    premature counts."""
    cells = " / ".join(f"{means[f]:.1f}" for f in "ABC")
    for name, counts in (("censored", censored), ("premature", premature)):
        if counts is not None:
            cells += f", {name} " + " / ".join(str(counts[f]) for f in "ABC")
    return f"| {label} | {cells} |"


def interquartile_mean(values) -> float:
    """Mean of the middle half: floor(n / 4) values dropped at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(np.mean(ordered[cut:len(ordered) - cut]))


def bootstrap_interval(values, rng) -> list:
    """Percentile bootstrap interval of the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    draws = rng.integers(0, values.size, size=(BOOTSTRAP["resamples"], values.size))
    means = values[draws].mean(axis=1)
    tail = 50.0 * (1.0 - BOOTSTRAP["confidence"])
    return [float(np.percentile(means, tail)), float(np.percentile(means, 100.0 - tail))]


def criterion_6(means: dict) -> dict:
    """Which parts of criterion 6 hold for one seed's site means, in percent."""
    thresholds = all(means[f] >= 100.0 * CRITERION_6[f] for f in "ABC")
    ordering = means["C"] >= means["A"] >= means["B"]
    return {"thresholds": thresholds, "ordering": ordering, "holds": thresholds and ordering}


def summary(per_seed: dict) -> dict:
    """Each site's spread over the seeds of ``per_seed`` (seed -> site means)."""
    rng = np.random.default_rng(BOOTSTRAP["seed"])
    sites = {}
    for flag in "ABC":
        values = [means[flag] for means in per_seed.values()]
        sites[flag] = {"mean": float(np.mean(values)), "min": float(min(values)),
                       "iqm": interquartile_mean(values),
                       "bootstrap": bootstrap_interval(values, rng)}
    gate = {str(seed): criterion_6(means) for seed, means in per_seed.items()}
    held = sum(g["holds"] for g in gate.values())
    return {"seeds": list(per_seed), "bootstrap": BOOTSTRAP,
            "per_seed": {str(seed): means for seed, means in per_seed.items()},
            "sites": sites,
            "criterion_6": {"thresholds": CRITERION_6, "per_seed": gate,
                            "seeds_held": held, "holds": held == len(gate)}}


def wins_against(per_seed: dict, baseline: dict) -> dict:
    """Per site, at how many seeds ``per_seed`` (seed -> site means) beats,
    ties and trails ``baseline``, a ``--json`` summary of the same seeds."""
    seeds = sorted(str(seed) for seed in per_seed)
    if seeds != sorted(baseline["per_seed"]):
        raise ValueError(f"the baseline ran seeds {sorted(baseline['per_seed'])}, "
                         f"not {seeds}")
    counts = {}
    for flag in "ABC":
        diffs = [means[flag] - baseline["per_seed"][str(seed)][flag]
                 for seed, means in per_seed.items()]
        counts[flag] = {"wins": sum(d > 0 for d in diffs),
                        "ties": sum(d == 0 for d in diffs),
                        "losses": sum(d < 0 for d in diffs)}
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--baseline", metavar="PATH",
                        help="an earlier --json file of the same seeds")
    parser.add_argument("--rule", action="store_true",
                        help="also score the scripted trigger rule at each seed")
    parser.add_argument("--variant", choices=sorted(VARIANTS),
                        help="rename one inert salt, skip the trigger-rule pretraining, "
                             "or turn the matcher off")
    args = parser.parse_args()
    if len(set(args.seeds)) != len(args.seeds):
        parser.error("--seeds must not repeat a seed")
    baseline = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        if sorted(baseline["seeds"]) != sorted(args.seeds):
            parser.error(f"--baseline ran seeds {baseline['seeds']}, not {args.seeds}")
    if args.json and os.path.exists(os.path.join(os.path.dirname(os.path.abspath(args.json)),
                                                 "metric.txt")):
        parser.error("--json must be written outside a model directory")
    if args.variant:
        apply_variant(args.variant)
    cfg = EngineConfig()
    per_seed, censored, premature = {}, {}, {}
    rule_per_seed, rule_censored, rule_premature = {}, {}, {}
    print("| seed | A / B / C % |")
    print("|---|---|")
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as out:
            reports = run_pipeline(out, cfg, seed)
            rule = rule_reports(out, cfg, seed) if args.rule else None
        per_seed[seed] = site_means(reports)
        censored[seed] = site_censored(reports)
        premature[seed] = site_premature(reports)
        print(table_row(seed, per_seed[seed]), flush=True)
        if rule is not None:
            rule_per_seed[seed] = site_means(rule)
            rule_censored[seed] = site_censored(rule)
            rule_premature[seed] = site_premature(rule)
            print(table_row(f"{seed} rule", rule_per_seed[seed], rule_censored[seed],
                            rule_premature[seed]), flush=True)
    result = dict(summary(per_seed), censored=count_summary(censored),
                  premature=count_summary(premature))
    if args.variant:
        result["variant"] = args.variant
    if args.rule:
        result["rule"] = dict(summary(rule_per_seed), censored=count_summary(rule_censored),
                              premature=count_summary(rule_premature))
    if baseline is not None:
        wins = wins_against(per_seed, baseline)
        result["baseline"] = {"path": args.baseline, "sites": wins}
        print(f"\nagainst {args.baseline}, seeds won / tied / lost of {len(per_seed)}: "
              + "; ".join(f"{f} {c['wins']} / {c['ties']} / {c['losses']}"
                          for f, c in wins.items()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
