import json
import sys

import numpy as np
import pytest

import envswitch.cli as cli
import envswitch.cloudedge as cloudedge
import seeds
from envswitch import alignment, policy, sim
from envswitch.cli import SessionReport, cmd_evaluate, cmd_train
from envswitch.config import EngineConfig
from envswitch.policy import MatcherStack
from seeds import (CRITERION_6, count_summary, criterion_6, interquartile_mean,
                   site_censored, site_premature, summary, table_row, wins_against)


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert interquartile_mean([3.0, 1.0, 2.0]) == 2.0
    assert interquartile_mean([10.0, 1.0, 2.0, 3.0, -50.0, 4.0, 5.0, 100.0]) == 3.5


def test_summary_is_deterministic_and_brackets_the_mean():
    rng = np.random.default_rng(4)
    per_seed = {seed: {f: float(v) for f, v in zip("ABC", rng.normal(50.0, 20.0, 3))}
                for seed in (13, 29, 41, 7, 8)}
    first = summary(per_seed)
    assert first == summary(per_seed)
    assert first["seeds"] == [13, 29, 41, 7, 8]
    for flag in "ABC":
        values = [means[flag] for means in per_seed.values()]
        site = first["sites"][flag]
        assert site["mean"] == float(np.mean(values)) and site["min"] == min(values)
        lo, hi = site["bootstrap"]
        assert min(values) <= lo <= site["mean"] <= hi <= max(values)


def test_criterion_6_gate_per_seed_and_in_total():
    assert CRITERION_6 == {"A": 0.25, "B": 0.20, "C": 0.40}
    per_seed = {13: {"A": 25.0, "B": 20.0, "C": 40.0},       # every bound met exactly
                29: {"A": 30.0, "B": 35.0, "C": 50.0},       # B > A
                41: {"A": 24.9, "B": 20.0, "C": 60.0},       # A below its threshold
                6: {"A": 50.0, "B": 40.0, "C": 39.9}}        # C below, and C < A
    gate = summary(per_seed)["criterion_6"]
    assert gate["thresholds"] == CRITERION_6
    assert gate["per_seed"] == {
        "13": {"thresholds": True, "ordering": True, "holds": True},
        "29": {"thresholds": True, "ordering": False, "holds": False},
        "41": {"thresholds": False, "ordering": True, "holds": False},
        "6": {"thresholds": False, "ordering": False, "holds": False}}
    assert gate["seeds_held"] == 1 and gate["holds"] is False
    assert summary({13: per_seed[13]})["criterion_6"]["holds"] is True
    assert criterion_6(per_seed[13]) == gate["per_seed"]["13"]


def test_censored_sessions_per_seed_site_and_in_total():
    def reports(*flags):
        # one censored session per flag named, among two plain ones per site
        return {f: [SessionReport(f, 1, 10.0, 5.0), SessionReport(f, 2, 10.0, 5.0)]
                + [SessionReport(f, 3, 10.0, 50.0, True)] * flags.count(f)
                for f in "ABC"}

    assert site_censored(reports()) == {"A": 0, "B": 0, "C": 0}
    per_seed = {13: site_censored(reports("B")),
                6: site_censored(reports("B", "B", "C"))}
    assert per_seed[6] == {"A": 0, "B": 2, "C": 1}
    assert count_summary(per_seed) == {
        "per_seed": {"13": {"A": 0, "B": 1, "C": 0}, "6": {"A": 0, "B": 2, "C": 1}},
        "sites": {"A": 0, "B": 3, "C": 1}, "total": 4}


def test_premature_sessions_per_site_under_the_report_floor(monkeypatch):
    """A session is premature when its reported TTS is below
    -``HF_WINDOW_EARLY_S``: it completed that long before the onset.  The
    count is refused under a floor that would clamp such sessions to it."""
    early = sim.HF_WINDOW_EARLY_S
    assert early == 2.0 and policy.TTS_REPORT_FLOOR_S == -5.0
    reports = {"A": [SessionReport("A", 1, 10.0, policy.TTS_REPORT_FLOOR_S),
                     SessionReport("A", 2, 10.0, -early - 0.01),
                     SessionReport("A", 3, 10.0, -early)],
               "B": [SessionReport("B", 1, 10.0, 3.0), SessionReport("B", 2, 10.0, 50.0, True)],
               "C": [SessionReport("C", 1, 10.0, -early + 0.5)]}
    assert site_premature(reports) == {"A": 2, "B": 0, "C": 0}
    assert count_summary({13: site_premature(reports)})["total"] == 2
    for floor in (-early, 0.0):
        monkeypatch.setattr(policy, "TTS_REPORT_FLOOR_S", floor)
        with pytest.raises(ValueError, match="report floor"):
            site_premature(reports)


def test_wins_against_a_baseline_per_site_with_ties_apart():
    base = {13: {"A": 50.0, "B": 40.0, "C": 80.0},
            29: {"A": 60.0, "B": -10.0, "C": 90.0},
            6: {"A": 30.0, "B": 20.0, "C": 85.0}}
    # the baseline as --json writes and --baseline reads it
    baseline = json.loads(json.dumps(summary(base)))
    run = {6: {"A": 31.0, "B": 20.0, "C": 84.0},
           13: {"A": 55.0, "B": 40.0, "C": 70.0},
           29: {"A": 60.0, "B": 5.0, "C": 95.0}}
    assert wins_against(run, baseline) == {
        "A": {"wins": 2, "ties": 1, "losses": 0},
        "B": {"wins": 1, "ties": 2, "losses": 0},
        "C": {"wins": 1, "ties": 0, "losses": 2}}
    assert wins_against(base, baseline) == {
        f: {"wins": 0, "ties": 3, "losses": 0} for f in "ABC"}


@pytest.mark.parametrize("seeds", [(13, 29), (13, 29, 6, 41), (13, 29, 7)])
def test_a_baseline_of_other_seeds_is_refused(seeds):
    baseline = summary({seed: {"A": 1.0, "B": 1.0, "C": 1.0} for seed in (13, 29, 6)})
    run = {seed: {"A": 2.0, "B": 2.0, "C": 2.0} for seed in seeds}
    with pytest.raises(ValueError, match="the baseline ran seeds"):
        wins_against(run, baseline)


def test_rule_adds_one_row_per_seed_and_a_json_key(monkeypatch, tmp_path, capsys):
    def small_pipeline(out, cfg, seed):
        # no rounds and two sessions per site: the table's shape, quickly
        cmd_train(seed, out, cfg, rounds=0, log=lambda *a: None)
        return cmd_evaluate(["A", "B", "C"], {f: 2 for f in "ABC"}, seed, out,
                            out, cfg, log=lambda *a: None)

    monkeypatch.setattr(seeds, "run_pipeline", small_pipeline)
    monkeypatch.setattr(seeds, "EVAL_SESSIONS", 2)
    runs = {}
    for flags in ((), ("--rule",)):
        path = tmp_path / f"seeds{len(flags)}.json"
        monkeypatch.setattr(sys, "argv", ["seeds.py", "--seeds", "13", "--json",
                                          str(path), *flags])
        seeds.main()
        runs[flags] = (capsys.readouterr().out.splitlines(),
                       json.loads(path.read_text()))
    plain_lines, plain = runs[()]
    lines, result = runs[("--rule",)]
    assert "rule" not in plain
    assert plain_lines == ["| seed | A / B / C % |", "|---|---|",
                           table_row(13, plain["per_seed"]["13"])]
    # the policy's rows are unchanged, and one rule row follows each
    rule = result.pop("rule")
    assert result == plain and lines[:3] == plain_lines
    assert lines[3:] == [table_row("13 rule", rule["per_seed"]["13"],
                                   rule["censored"]["per_seed"]["13"],
                                   rule["premature"]["per_seed"]["13"])]
    assert lines[3].startswith("| 13 rule | ") and ", censored " in lines[3]
    assert ", premature " in lines[3]
    assert rule["seeds"] == [13] and set(rule["sites"]) == set("ABC")
    for run in (plain, rule):
        for counts in (run["censored"], run["premature"]):
            assert counts["total"] == sum(counts["sites"].values())
            assert set(counts["per_seed"]["13"]) == set("ABC")
    assert rule["per_seed"]["13"] != plain["per_seed"]["13"]


@pytest.mark.parametrize("variant, module, old, new", [
    ("null-init", cli, "policy:", "policy-null:"),
    ("null-round", cloudedge, "round:", "round-null:")])
def test_a_null_variant_renames_exactly_its_salt(monkeypatch, variant, module, old, new):
    """The texts an R=1 training hashes through ``cli`` and ``cloudedge``
    are the default run's, with only the variant's prefix renamed."""
    texts = []
    for owner in (cli, cloudedge):
        def recorded(text, fnv1a64=owner.fnv1a64, name=owner.__name__):
            texts.append((name, text))
            return fnv1a64(text)
        # the variant wraps the recorder, which sees the texts it hashes
        monkeypatch.setattr(owner, "fnv1a64", recorded)

    def hashed_texts():
        texts.clear()
        cli.train_models(13, EngineConfig(), rounds=1, log=lambda *a: None)
        return list(texts)

    plain = hashed_texts()
    seeds.apply_variant(variant)
    renamed = hashed_texts()
    assert len(renamed) == len(plain)
    changed = [(p, r) for p, r in zip(plain, renamed) if p != r]
    assert changed and all(p[0] == r[0] == module.__name__ and p[1].startswith(old)
                           and r[1] == new + p[1][len(old):] for p, r in changed)
    assert sum(text.startswith(old) for name, text in plain if name == module.__name__) \
        == len(changed)


def test_no_pretrain_rebinds_exactly_that_name(monkeypatch):
    """``--variant no-pretrain`` rebinds ``cli.pretrain_on_trigger_rule``
    to return its policy unchanged, and no other module attribute."""
    # registered so that monkeypatch restores the original afterwards
    monkeypatch.setattr(cli, "pretrain_on_trigger_rule", cli.pretrain_on_trigger_rule)
    modules = {name: module for name, module in sys.modules.items()
               if name == "envswitch" or name.startswith("envswitch.")}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    seeds.apply_variant("no-pretrain")
    changed = sorted((name, key) for name, module in modules.items()
                     for key in set(vars(module)) | set(before[name])
                     if vars(module).get(key) is not before[name].get(key))
    assert changed == [("envswitch.cli", "pretrain_on_trigger_rule")]
    policy = object()
    assert cli.pretrain_on_trigger_rule(policy, {}, {}, EngineConfig()) is policy


def test_no_match_rebinds_exactly_that_method(monkeypatch):
    """``--variant no-match`` rebinds ``MatcherStack.top_similarity`` to
    return 0.0 without matching, and no other module or ``MatcherStack``
    attribute."""
    # registered so that monkeypatch restores the original afterwards
    monkeypatch.setattr(MatcherStack, "top_similarity", MatcherStack.top_similarity)
    namespaces = {name: module.__dict__ for name, module in sys.modules.items()
                  if name == "envswitch" or name.startswith("envswitch.")}
    namespaces["envswitch.policy.MatcherStack"] = MatcherStack.__dict__
    before = {name: dict(namespace) for name, namespace in namespaces.items()}
    seeds.apply_variant("no-match")
    changed = sorted((name, key) for name, namespace in namespaces.items()
                     for key in set(namespace) | set(before[name])
                     if namespace.get(key) is not before[name].get(key))
    assert changed == [("envswitch.policy.MatcherStack", "top_similarity")]

    def no_match(*args):
        raise AssertionError("the variant must not match")

    monkeypatch.setattr(alignment, "match", no_match)
    window = (np.zeros((10, 14)), np.ones((10, 5), bool))
    assert MatcherStack.top_similarity(object(), *window, 0.0) == 0.0
