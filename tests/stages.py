"""Stage and per-call timings of the canonical pass, written to BENCH_<n>.json.

Run from the repository root:

    PYTHONPATH=src python tests/stages.py [--out PATH]

runs ``golden.run_pipeline`` (simulate -> train -> evaluate at seed 13, 20
rounds, 20 evaluation sessions per site) five times and writes one JSON
file, by default ``BENCH_<n>.json`` at the repository root with ``n``
one above the highest already there.  The file holds

- ``stages``: the median time of simulate, library, selector, pretrain,
  rounds and evaluate.  Simulate and evaluate are the ``cmd_simulate`` and
  ``cmd_evaluate`` calls.  The library stage starts when ``cmd_train``
  does, and each training stage ends at the log line ``train_models``
  prints after it: the last site library, the selector (after the training
  pairs and the metric), the trigger-rule pretraining and the last round;
- ``calls``: per-pass count and the mean, median and per-pass total time of
  the calls to ``make_scenario`` and ``generate`` (together one walk's
  simulation), ``fingerprint_at`` (memo hits and misses
  apart), ``match`` (warm-up calls, on a live window shorter than
  ``buffer_windows``, and full-window calls apart), ``select_filter`` (one
  per match whose band admits a group), ``denoise_matrix``, ``SwitchEnv.observe`` (a window, and
  a match on a monitoring second), ``SwitchEnv.step``, ``SwitchEnv.tail``
  (one call runs a training rollout's seconds after the switch),
  ``ppo_update``, ``imitate`` (the trigger-rule pretraining) and
  ``fit_reward_model`` (one per round), timed by wrappers bound in place
  of the module attributes their callers resolve;
- ``pass``: the median time of a whole pass and its settings;
- ``environment``: Python, numpy, the BLAS library and the thread settings.

Times are in *reference seconds* (``bench/hostspeed.py``): the host's speed
is tracked by a fixed reference loop while a pass runs, so files written on
a busy and on a quiet host can be compared.  Raw wall seconds of the stages
are kept beside them.  BLAS and OpenMP run one thread unless the environment
says otherwise.
"""

import os

if __name__ == "__main__":
    # set before numpy loads; an import (the smoke test) leaves them alone
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

import golden  # noqa: E402
from envswitch import alignment, cli, cloudedge, filters, policy, sim  # noqa: E402
from envswitch.config import EngineConfig  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import hostspeed  # noqa: E402

# (timer, owner, attribute the callers resolve); each binding gets its own
# wrapper around the one original
TIMED = (
    ("make_scenario", sim, "make_scenario"),
    ("make_scenario", cli, "make_scenario"),
    ("generate", sim, "generate"),
    ("generate", cli, "generate"),
    ("select_filter", filters, "select_filter"),
    ("denoise_matrix", filters, "denoise_matrix"),
    ("SwitchEnv.observe", policy.SwitchEnv, "observe"),
    ("SwitchEnv.step", policy.SwitchEnv, "step"),
    ("SwitchEnv.tail", policy.SwitchEnv, "tail"),
    ("ppo_update", cloudedge, "ppo_update"),
    ("imitate", cli, "imitate"),
    ("fit_reward_model", cloudedge, "fit_reward_model"),
)
WINDOWS = ((sim, "fingerprint_at"), (policy, "fingerprint_at"),
           (cli, "fingerprint_at"))
CALLS = ("make_scenario", "generate", "fingerprint_at.hit",
         "fingerprint_at.miss", "match.warm_up", "match.full", "select_filter",
         "denoise_matrix", "SwitchEnv.observe", "SwitchEnv.step", "SwitchEnv.tail",
         "ppo_update", "imitate", "fit_reward_model")
FULL_WINDOW = EngineConfig().window.buffer_windows
REPEATS = 5               # passes per file; stage times are their median
STAGES = ("simulate", "library", "selector", "pretrain", "rounds", "evaluate")
# train_models' log line that ends each training stage
STAGE_LOG = (("site C:", "library"), ("selector", "selector"),
             ("policy pre-trained", "pretrain"), ("round ", "rounds"))


class Recorder:
    """Wall-time call intervals per timer and the marks of one pass."""

    def __init__(self):
        self.intervals = {name: [] for name in CALLS}
        self.marks = {}          # label -> perf_counter of its latest mark
        self.misses = 0

    def mark(self, label):
        self.marks[label] = time.perf_counter()

    def log(self, *args):
        """``train_models``' log callback."""
        text = " ".join(str(a) for a in args)
        for prefix, stage in STAGE_LOG:
            if text.startswith(prefix):
                self.mark(stage)

    def timed(self, name, fn):
        spans = self.intervals[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, time.perf_counter()))
        return wrapper

    def timed_window(self, fn):
        """``fingerprint_at``, filed as a miss when it summarized a window."""
        def wrapper(*args, **kwargs):
            before, t0 = self.misses, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                kind = "miss" if self.misses != before else "hit"
                self.intervals[f"fingerprint_at.{kind}"].append(
                    (t0, time.perf_counter()))
        return wrapper

    def timed_match(self, fn):
        """``match``, filed as a warm-up call when its live window is
        shorter than ``FULL_WINDOW``."""
        def wrapper(model, selector, live_window, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(model, selector, live_window, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                n = len(alignment._pack(live_window)[0])
                kind = "full" if n >= FULL_WINDOW else "warm_up"
                self.intervals[f"match.{kind}"].append((t0, t1))
        return wrapper

    def counted_miss(self, fn):
        def wrapper(*args, **kwargs):
            self.misses += 1
            return fn(*args, **kwargs)
        return wrapper

    def marked(self, label, fn):
        def wrapper(*args, **kwargs):
            self.mark(f"{label} start")
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark(f"{label} end")
        return wrapper

    @contextmanager
    def installed(self):
        """Bind every wrapper; put the originals back on exit."""
        wraps = [(owner, attr, lambda fn, n=name: self.timed(n, fn))
                 for name, owner, attr in TIMED]
        wraps += [(owner, attr, self.timed_window) for owner, attr in WINDOWS]
        wraps.append((alignment, "match", self.timed_match))
        wraps.append((sim, "_summarize_trace_window", self.counted_miss))
        wraps += [(golden, f"cmd_{label}", lambda fn, n=label: self.marked(n, fn))
                  for label in ("simulate", "train", "evaluate")]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in wraps]
        for owner, attr, wrap in wraps:
            setattr(owner, attr, wrap(getattr(owner, attr)))
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def stage_spans(self) -> dict:
        """(start, end) of each stage that ran."""
        at = self.marks
        spans = {"simulate": (at["simulate start"], at["simulate end"])}
        start = at["train start"]
        for _, stage in STAGE_LOG:
            if stage in at:               # zero rounds log no round line
                spans[stage] = (start, at[stage])
                start = at[stage]
        spans["evaluate"] = (at["evaluate start"], at["evaluate end"])
        return spans


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def bench_record(out: str, rounds: int = 20, sessions: int = golden.EVAL_SESSIONS,
                 repeats: int = 1) -> dict:
    """Run the pass ``repeats`` times under the timers, each into its own
    directory under ``out``, and return the record.  Every pass makes the
    same calls; their times are pooled over the passes."""
    passes = []               # (recorder, reference_seconds, pass span)
    for r in range(repeats):
        recorder, host = Recorder(), hostspeed.HostClock()
        with host.installed(), recorder.installed():
            t0 = time.perf_counter()
            golden.run_pipeline(os.path.join(out, f"pass{r}"), EngineConfig(),
                                rounds=rounds, sessions=sessions,
                                log=recorder.log)
            passes.append((recorder, host.reference_seconds,
                           (t0, time.perf_counter())))

    def median(spans):
        """Median reference and wall seconds of (reference_seconds, span)s."""
        return {"s": statistics.median(ref(a, b) for ref, (a, b) in spans),
                "wall_s": statistics.median(b - a for _, (a, b) in spans)}

    stage_spans = [(ref, rec.stage_spans()) for rec, ref, _ in passes]
    calls = {}
    for name in CALLS:
        us = [1e6 * ref(a, b) for rec, ref, _ in passes
              for a, b in rec.intervals[name]]
        calls[name] = {"calls": len(us) // repeats,
                       "mean_us": statistics.fmean(us) if us else None,
                       "p50_us": statistics.median(us) if us else None,
                       "total_s": 1e-6 * sum(us) / repeats}
    return {
        "pass": dict(median([(ref, span) for _, ref, span in passes]),
                     seed=golden.CANONICAL_SEED, rounds=rounds,
                     eval_sessions=sessions, repeats=repeats),
        "stages": {stage: median([(ref, spans[stage])
                                  for ref, spans in stage_spans])
                   for stage in STAGES if stage in stage_spans[0][1]},
        "calls": calls,
        "environment": environment(),
    }


def next_bench_path() -> str:
    taken = [int(m.group(1)) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(p)))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="file to write (default: the next BENCH_<n>.json)")
    path = parser.parse_args().out or next_bench_path()
    with tempfile.TemporaryDirectory() as tmp:
        record = bench_record(tmp, repeats=REPEATS)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    for stage, times in record["stages"].items():
        print(f"{stage:9s} {times['s']:8.3f} s")
    print(f"wrote {path}")
