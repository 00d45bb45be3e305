"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line.  The end-to-end pipeline (training with
N=20 rounds plus a 20-session-per-site evaluation, run twice for the
determinism check) is shared through a session fixture so the suite stays
well inside its runtime budget.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import envswitch
from envswitch.alignment import (BandTooNarrowError, MetricModel, dtw,
                                 margin_loss_grads, soft_dtw, train_metric)
from envswitch.config import EngineConfig
from envswitch.cloudedge import summarize_trajectory
from envswitch.fingerprints import MODALITIES
from envswitch.filters import apply_elp, apply_gaussian, apply_kalman
from envswitch.policy import (PolicyModel, Trajectory, act, clipped_surrogate,
                              ppo_update)

import golden
from conftest import contains_identifier_leak, random_packed
from seeds import CRITERION_6
from test_alignment import brute_force_distance, wifi_discriminative_pairs
from test_cloudedge import make_trajectory


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. DTW oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_dtw_brute_force_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    n_pairs = 0
    worst = 0.0
    for trial in range(520):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        band = int(rng.integers(2, 5))
        int_grid = trial % 2 == 0
        q = random_packed(rng, n, int_grid=int_grid)
        p = random_packed(rng, m, int_grid=int_grid)
        model = MetricModel.identity() if int_grid else MetricModel.from_seed(trial)
        oracle = brute_force_distance(model, q, p, band)
        try:
            got = dtw(model, q, p, band).distance
        except BandTooNarrowError:
            got = math.inf
        if math.isinf(oracle) or math.isinf(got):
            assert math.isinf(oracle) and math.isinf(got)
        else:
            err = abs(got - oracle)
            worst = max(worst, err)
            if int_grid:
                assert got == oracle   # exact on the integer grid
            else:
                assert err <= 1e-9
        n_pairs += 1
    elapsed = time.time() - t0
    report(1, n_pairs >= 500 and worst <= 1e-9 and elapsed < 30.0,
           f"{n_pairs} random banded pairs match brute force "
           f"(worst |err| {worst:.2e}) in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Soft-DTW limit and gradients
# ---------------------------------------------------------------------------


def test_criterion_2_soft_dtw_limit_and_gradients():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    for trial in range(110):
        q = random_packed(rng, int(rng.integers(2, 6)))
        p = random_packed(rng, int(rng.integers(2, 6)))
        model = MetricModel.from_seed(trial)
        hard = dtw(model, q, p, 3).distance
        soft = soft_dtw(model, q, p, 3, 1e-3)[0]
        worst_gap = max(worst_gap, abs(soft - hard))
    assert worst_gap < 1e-2

    def rel_err(a, b):
        return abs(a - b) / max(1e-8, abs(a), abs(b))

    model = MetricModel.from_seed(7)
    q = random_packed(rng, 5)
    p = random_packed(rng, 6)
    _, gvec = soft_dtw(model, q, p, 3, 0.1)
    vec = model.to_vector()
    h = 1e-5
    checked, worst_soft = 0, 0.0
    for i in rng.choice(vec.size, size=30, replace=False):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        fd = (soft_dtw(model.from_vector(vp), q, p, 3, 0.1)[0]
              - soft_dtw(model.from_vector(vm), q, p, 3, 0.1)[0]) / (2 * h)
        if abs(fd) < 1e-10 and abs(gvec[i]) < 1e-10:
            continue
        worst_soft = max(worst_soft, rel_err(gvec[i], fd))
        checked += 1

    base = random_packed(rng, 5, all_present=True)
    pos = (base, (base[0] + rng.normal(0, 1.5, base[0].shape), base[1]))
    negs = [(base, (base[0] + rng.normal(0, 0.05, base[0].shape), base[1]))
            for _ in range(2)]
    loss0, mvec = margin_loss_grads(model, pos, negs, 1.0, 0.1, 3)
    assert loss0 > 0.0
    worst_margin, mchecked = 0.0, 0
    for i in rng.choice(vec.size, size=25, replace=False):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        fd = (margin_loss_grads(model.from_vector(vp), pos, negs, 1.0, 0.1, 3)[0]
              - margin_loss_grads(model.from_vector(vm), pos, negs, 1.0, 0.1, 3)[0]) / (2 * h)
        if abs(fd) < 1e-10 and abs(mvec[i]) < 1e-10:
            continue
        worst_margin = max(worst_margin, rel_err(mvec[i], fd))
        mchecked += 1

    ok = (worst_gap < 1e-2 and checked + mchecked >= 20
          and worst_soft < 1e-3 and worst_margin < 1e-3)
    report(2, ok,
           f"limit gap {worst_gap:.2e} on 110 pairs; {checked + mchecked} "
           f"finite-difference params (soft {worst_soft:.1e}, margin {worst_margin:.1e})")


# ---------------------------------------------------------------------------
# 3. Filter property suite
# ---------------------------------------------------------------------------


def test_criterion_3_filter_properties():
    rng = np.random.default_rng(303)
    for trial in range(200):
        n = int(rng.integers(2, 15))
        c = float(rng.normal(0, 5))
        x = rng.normal(0, 1, n)
        shift = float(rng.normal(0, 4))
        sigma = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.05, 1.0))
        q = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.01, 10.0))

        # constants preserved exactly (gaussian, elp)
        const = np.full(n, c)
        assert np.allclose(apply_gaussian(const, sigma), c, atol=1e-12)
        assert np.allclose(apply_elp(const, alpha), c, atol=1e-12)

        # shift equivariance
        assert np.allclose(apply_gaussian(x + shift, sigma),
                           apply_gaussian(x, sigma) + shift, atol=1e-9)
        assert np.allclose(apply_elp(x + shift, alpha),
                           apply_elp(x, alpha) + shift, atol=1e-9)
        base = apply_kalman(x, q, r, init_mean=0.0, init_var=2.0)
        assert np.allclose(apply_kalman(x + shift, q, r, init_mean=shift,
                                        init_var=2.0), base + shift, atol=1e-9)

        # ELP identity at alpha = 1
        assert np.array_equal(apply_elp(x, 1.0), x)

    # Kalman constant convergence at the stated tolerance
    out = apply_kalman([5.0] * 5, q=0.0, r=1.0, init_mean=0.0, init_var=100.0)
    final_err = abs(out[-1] - 5.0)
    report(3, final_err < 0.05,
           f"200 randomized property checks; kalman final error {final_err:.4f} < 0.05")


# ---------------------------------------------------------------------------
# 4. Metric learning sanity
# ---------------------------------------------------------------------------


def test_criterion_4_metric_learning_sanity():
    wins = 0
    drops = []
    for seed in range(10):
        pairs = wifi_discriminative_pairs(seed)
        model = MetricModel.from_seed(seed)
        before = np.mean([margin_loss_grads(model, pos, negs)[0] for pos, negs in pairs])
        trained = train_metric(model, pairs, epochs=30, step_size=0.3)
        after = np.mean([margin_loss_grads(trained, pos, negs)[0] for pos, negs in pairs])
        drops.append(1.0 - after / before)
        if int(np.argmax(trained.weights)) == MODALITIES.index("wifi"):
            wins += 1
    ok = wins >= 9 and min(drops) >= 0.5
    report(4, ok, f"wifi weight argmax in {wins}/10 runs; "
                  f"margin loss dropped {100 * min(drops):.0f}% at worst")


# ---------------------------------------------------------------------------
# 5. PPO correctness
# ---------------------------------------------------------------------------


def test_criterion_5_ppo_correctness(monkeypatch):
    # exact clip arithmetic
    assert clipped_surrogate(1.5, 2.0, 0.2) == 1.2 * 2.0
    assert clipped_surrogate(0.9, 1.0, 0.2) == 0.9
    assert clipped_surrogate(0.5, -1.0, 0.2) == 0.8 * -1.0
    assert clipped_surrogate(2.0, -3.0, 0.2) == 2.0 * -3.0

    def toy_episode(model, rng, length=10):
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

    # the toy runs PPO with its own settings, rebound for this test
    for name, value in (("CLIP_EPS", 0.2), ("PPO_EPOCHS", 4), ("PPO_STEP_SIZE", 0.08),
                        ("ENTROPY_COEF", 0.01), ("ETA", 0.0), ("LAM", 1.0),
                        ("GAMMA_HF", 0.0)):
        monkeypatch.setattr(envswitch.policy, name, value)
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = PolicyModel.from_seed(seed, hidden=16, n_inputs=2, n_actions=2)
        for _ in range(200):
            batch = [toy_episode(model, rng) for _ in range(4)]
            model = ppo_update(model, batch)
        ok = all(act(model, np.eye(2)[s], "greedy")[0] == s for s in range(2))
        wins += ok
    report(5, wins >= 9, f"clip unit cases exact; toy environment optimal in {wins}/10 seeds")


# ---------------------------------------------------------------------------
# 6 + 8. End-to-end improvement and pipeline determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """simulate -> train (N=20) -> evaluate, twice, with identical seeds."""
    cfg = EngineConfig()
    runs = []
    t0 = time.time()
    for run in (1, 2):
        out = str(tmp_path_factory.mktemp(f"pipeline{run}"))
        runs.append((out, golden.run_pipeline(out, cfg)))
    return runs, time.time() - t0


@pytest.mark.slow
def test_criterion_6_end_to_end_tts_improvement(pipeline_runs):
    runs, elapsed = pipeline_runs
    _, reports = runs[0]
    rels = {}
    for flag in ("A", "B", "C"):
        site_reports = reports[flag]
        assert len(site_reports) >= 20
        rels[flag] = float(np.mean([r.relative for r in site_reports
                                    if r.relative is not None]))
    thresholds_ok = all(rels[f] >= CRITERION_6[f] for f in "ABC")
    ordering_ok = rels["C"] >= rels["A"] >= rels["B"]
    runtime_ok = elapsed < 15 * 60
    report(6, thresholds_ok and ordering_ok and runtime_ok,
           "mean relative improvement " + ", ".join(
               f"{f} {100 * rels[f]:.1f}% (>={100 * CRITERION_6[f]:.0f})" for f in "ABC")
           + f"; ordering C>=A>=B {ordering_ok}; two full runs in {elapsed:.0f} s")


@pytest.mark.slow
def test_train_emits_models_and_learning_curve(pipeline_runs):
    """cmd_train side contracts: the four model files exist and the per-round
    mean reward improves (final 5-round mean >= first 5-round mean)."""
    runs, _ = pipeline_runs
    out = runs[0][0]
    for name in ("selector.txt", "metric.txt", "policy.txt", "reward_model.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "train_log.txt")) as f:
        rewards = [float(line.split()[-1]) for line in f if line.strip()]
    assert len(rewards) == 20
    assert np.mean(rewards[-5:]) >= np.mean(rewards[:5])


@pytest.mark.slow
def test_criterion_8_pipeline_determinism(pipeline_runs):
    runs, _ = pipeline_runs
    dir_a, dir_b = runs[0][0], runs[1][0]
    compared = 0
    mismatched = []
    for name in sorted(os.listdir(dir_a)):
        path_a = os.path.join(dir_a, name)
        path_b = os.path.join(dir_b, name)
        if not os.path.isfile(path_a):
            continue
        with open(path_a, "rb") as f:
            digest_a = hashlib.sha256(f.read()).hexdigest()
        with open(path_b, "rb") as f:
            digest_b = hashlib.sha256(f.read()).hexdigest()
        compared += 1
        if digest_a != digest_b:
            mismatched.append(name)
    report(8, compared > 10 and not mismatched,
           f"{compared} artifacts byte-identical across two full "
           f"simulate->train->evaluate runs" +
           (f"; MISMATCHED: {mismatched}" if mismatched else ""))


def assert_golden(out):
    """Every artifact under ``out`` equals the digests recorded for this
    environment, and none is missing or extra."""
    key = golden.environment_key()
    recorded = golden.load_recorded().get(key)
    if recorded is None:
        pytest.fail(f"no golden digests recorded for {key!r} in "
                    f"{golden.DIGEST_FILE}; record them from the repository "
                    f"root with `PYTHONPATH=src python tests/golden.py`")
    changed, missing, extra = golden.digest_changes(recorded, golden.artifact_digests(out))
    assert not (missing or extra or changed), (
        f"artifacts differ from the golden digests for {key!r}: "
        f"changed {changed}, missing {missing}, unexpected {extra}")


def test_digest_changes_names_each_kind():
    old = {"a.txt": "1", "b.txt": "2", "c.txt": "3"}
    new = {"a.txt": "1", "b.txt": "9", "d.txt": "4"}
    assert golden.digest_changes(old, new) == (["b.txt"], ["c.txt"], ["d.txt"])
    assert golden.digest_changes(new, new) == ([], [], [])


def test_golden_check_reports_without_writing(tmp_path, monkeypatch, capsys):
    digest_file = tmp_path / "digests.json"
    key = golden.environment_key()
    digest_file.write_text(json.dumps({key: {"a.txt": "1", "b.txt": "2"}}))
    before = digest_file.read_bytes()
    monkeypatch.setattr(golden, "DIGEST_FILE", str(digest_file))
    monkeypatch.setattr(golden, "pipeline_digests", lambda: {"a.txt": "1", "b.txt": "2"})
    assert golden.check() == 0
    monkeypatch.setattr(golden, "pipeline_digests", lambda: {"a.txt": "9", "c.txt": "3"})
    assert golden.check() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:-1] == ["changed (1): a.txt", "removed (1): b.txt", "added (1): c.txt"]
    assert digest_file.read_bytes() == before
    digest_file.write_text("{}")
    assert golden.check() == 1


@pytest.mark.slow
def test_golden_digests(pipeline_runs):
    """Run 1's artifacts equal the digests recorded for this environment."""
    runs, _ = pipeline_runs
    assert_golden(runs[0][0])


@pytest.mark.slow
def test_golden_digests_on_one_blas_thread(tmp_path):
    """The artifacts do not depend on the BLAS thread count: a pass with
    OpenBLAS and OpenMP pinned to one thread, in a fresh interpreter so the
    setting takes effect, matches the same recorded digests."""
    tests_dir = os.path.dirname(os.path.abspath(golden.__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(envswitch.__file__)))
    path = filter(None, [src_dir, tests_dir, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    script = ("import sys, golden; from envswitch.config import EngineConfig; "
              "golden.run_pipeline(sys.argv[1], EngineConfig())")
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                   check=True, timeout=15 * 60)
    assert_golden(str(tmp_path))


# ---------------------------------------------------------------------------
# 7. Privacy gate
# ---------------------------------------------------------------------------


def test_criterion_7_privacy_gate():
    # every trial ships what a round ships: the summary text of one labelled
    # episode, its edge id the device id and its salt the edge's
    rng = np.random.default_rng(707)
    letters = "ghijklmnopqrstuvwxyz"
    failures = 0
    for trial in range(1000):
        length = int(rng.integers(2, 9))
        traj = make_trajectory(rng, length, hf=float(rng.uniform(-1, 1)))
        raw_ids = ["02:%02x:%02x:%02x:%02x:%02x" % tuple(rng.integers(0, 256, 5))
                   for _ in range(4)]
        raw_ids.append("dev:" + ":".join(
            "".join(rng.choice(list(letters), 2)) for _ in range(4)))
        salt = f"edge-{trial % 7}"
        text = summarize_trajectory(traj, raw_ids[-1], salt)
        if contains_identifier_leak(text, raw_ids + [salt]):
            failures += 1
            continue
        # no absolute timestamps: the one record's offset is a step index
        offsets = [float(line.rsplit("|", 1)[1]) for line in text.splitlines()[2:]]
        if (len(offsets) != 1 or not offsets[0].is_integer()
                or not 0 <= offsets[0] < length):
            failures += 1
    report(7, failures == 0,
           f"1000 randomized episodes' shipped texts with {failures} leaks")
