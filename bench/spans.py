"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own code.  ``Tracer.installed``
rebinds the module-level names that each caller inside ``envswitch`` resolves
(``envswitch.alignment.match``, ``envswitch.policy.fingerprint_at``,
``envswitch.cli.train_metric`` and so on) to timing wrappers and puts the
originals back on exit.  A span holds its name, start, end, parent and the
phase it ran in (``setup`` or ``timed``); spans stay in memory and are written
out once, when the run ends.

A span is named after the module that defines the function, and the part of
the name before the first dot is its layer: ``sim``, ``fingerprints``,
``filters``, ``alignment``, ``policy``, ``cloudedge`` or ``cli``.
"""

import hashlib
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

from envswitch.alignment import BandTooNarrowError
from envswitch.sim import scenario_text

LAYERS = ("sim", "fingerprints", "filters", "alignment", "policy",
          "cloudedge", "cli")

# (module, attribute the callers resolve, span name).  One function can be
# bound under several modules; every binding gets its own wrapper around the
# same original, so each call still records exactly one span.
BINDINGS = (
    ("envswitch.sim", "generate", "sim.generate"),
    ("envswitch.cli", "generate", "sim.generate"),
    ("envswitch.cloudedge", "generate", "sim.generate"),
    ("envswitch.sim", "fingerprint_at", "sim.fingerprint_at"),
    ("envswitch.policy", "fingerprint_at", "sim.fingerprint_at"),
    ("envswitch.sim", "summarize_window", "fingerprints.summarize_window"),
    ("envswitch.filters", "select_filter", "filters.select_filter"),
    ("envswitch.filters", "denoise_matrix", "filters.denoise_matrix"),
    ("envswitch.filters", "soft_denoise_matrix", "filters.soft_denoise_matrix"),
    ("envswitch.cli", "train_selector", "filters.train_selector"),
    ("envswitch.alignment", "match", "alignment.match"),
    ("envswitch.alignment", "dtw", "alignment.dtw"),
    ("envswitch.alignment", "cost_matrix", "alignment.cost_matrix"),
    ("envswitch.alignment", "soft_dtw", "alignment.soft_dtw"),
    ("envswitch.cli", "train_metric", "alignment.train_metric"),
    ("envswitch.policy", "rollout", "policy.rollout"),
    ("envswitch.cli", "rollout", "policy.rollout"),
    ("envswitch.cloudedge", "rollout", "policy.rollout"),
    ("envswitch.cloudedge", "ppo_update", "policy.ppo_update"),
    ("envswitch.cli", "imitate", "policy.imitate"),
    ("envswitch.cli", "run_round", "cloudedge.run_round"),
    ("envswitch.cloudedge", "fit_reward_model", "cloudedge.fit_reward_model"),
    ("envswitch.cloudedge", "aggregate", "cloudedge.aggregate"),
    ("envswitch.cli", "offline_update", "cloudedge.offline_update"),
    ("envswitch.cli", "train_models", "cli.train_models"),
    ("envswitch.cli", "build_site_library", "cli.build_site_library"),
    ("envswitch.cli", "build_training_pairs", "cli.build_training_pairs"),
    ("envswitch.cli", "pretrain_on_trigger_rule", "cli.pretrain_on_trigger_rule"),
    ("envswitch.cli", "evaluate_site", "cli.evaluate_site"),
)

# Stage spans of the canonical pass, reported over both phases because
# evaluate and device run their training in set-up.
STAGES = (
    ("library", "cli.build_site_library"),
    ("pairs", "cli.build_training_pairs"),
    ("metric", "alignment.train_metric"),
    ("selector", "filters.train_selector"),
    ("pretrain", "cli.pretrain_on_trigger_rule"),
    ("rounds", "cloudedge.run_round"),
    ("personalize", "cloudedge.offline_update"),
)

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = (
    ("alignment.match.calls", "count", "lower"),
    ("alignment.match.ms_p50", "ms", "lower"),
    ("alignment.match.ms_p99", "ms", "lower"),
    ("alignment.match.distinct_ratio", "ratio", "lower"),
    ("alignment.match.protos_per_call", "count", "lower"),
    ("alignment.match.protos_skipped", "count", "lower"),
    ("alignment.dtw.calls", "count", "lower"),
    ("alignment.dtw.us", "us", "lower"),
    ("alignment.cost_matrix.us", "us", "lower"),
    ("alignment.soft_dtw.calls", "count", "lower"),
    ("alignment.soft_dtw.ms", "ms", "lower"),
    ("filters.denoise_matrix.calls", "count", "lower"),
    ("filters.denoise_matrix.us", "us", "lower"),
    ("filters.choice.kalman", "count", "lower"),
    ("filters.choice.gaussian", "count", "lower"),
    ("filters.choice.elp", "count", "lower"),
    ("filters.soft_denoise_matrix.calls", "count", "lower"),
    ("filters.soft_denoise_matrix.ms", "ms", "lower"),
    ("sim.generate.calls", "count", "lower"),
    ("sim.generate.distinct", "count", "lower"),
    ("sim.generate.ms", "ms", "lower"),
    ("sim.fingerprint_at.calls", "count", "lower"),
    ("sim.fingerprint_at.us", "us", "lower"),
    ("fingerprints.summarize_window.us", "us", "lower"),
    ("fingerprints.library.size", "count", "lower"),
    ("fingerprints.library.commits", "count", "lower"),
    ("fingerprints.library.evictions", "count", "lower"),
    ("fingerprints.commit_segment.ms", "ms", "lower"),
    ("policy.rollout.calls", "count", "lower"),
    ("policy.rollout.ms", "ms", "lower"),
    ("policy.rollout.matched_steps", "count", "lower"),
    ("policy.ppo_update.ms", "ms", "lower"),
    ("policy.imitate.ms", "ms", "lower"),
    ("cloudedge.run_round.s", "s", "lower"),
    ("cloudedge.fit_reward_model.ms", "ms", "lower"),
    ("cloudedge.aggregate.ms", "ms", "lower"),
    ("cloudedge.offline_update.ms", "ms", "lower"),
    ("cloudedge.mean_reward", "reward", "higher"),
    ("cli.stage.library_s", "s", "lower"),
    ("cli.stage.pairs_s", "s", "lower"),
    ("cli.stage.metric_s", "s", "lower"),
    ("cli.stage.selector_s", "s", "lower"),
    ("cli.stage.pretrain_s", "s", "lower"),
    ("cli.stage.rounds_s", "s", "lower"),
    ("cli.stage.personalize_s", "s", "lower"),
    ("cli.evaluate_site.s", "s", "lower"),
    ("cli.evaluate_site.tts_rel_A", "ratio", "higher"),
    ("cli.evaluate_site.tts_rel_B", "ratio", "higher"),
    ("cli.evaluate_site.tts_rel_C", "ratio", "higher"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _array_bytes(value) -> bytes:
    """Bytes of a live window given as a sequence or a (features, present) pair."""
    if hasattr(value, "packed"):
        value = value.packed()
    return b"".join(part.tobytes() for part in value)


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    phase = "setup"

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def installed(self):
        yield self

    def count(self, name, n=1):
        pass


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self._open = []          # indices of the spans still running
        self.phase = "setup"
        self.counters = Counter()
        self.distinct = {"alignment.match": set(), "sim.generate": set()}

    # -- spans ---------------------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def count(self, name, n=1):
        self.counters[(self.phase, name)] += n

    # -- rebinding -----------------------------------------------------------

    def _observe(self, name, args, kwargs):
        """Counters taken at the call boundary, before the call runs."""
        if name == "alignment.match":
            live, library = args[2], args[3]
            ctx = args[6] if len(args) > 6 else kwargs.get("ctx")
            key = hashlib.sha1(_array_bytes(live))
            key.update(repr(ctx).encode())
            key.update("|".join(pid for pid, _ in library.items()).encode())
            self.distinct["alignment.match"].add((self.phase, key.digest()))
        elif name == "sim.generate":
            key = scenario_text(args[0]) + repr(args[1:]) + repr(kwargs)
            self.distinct["sim.generate"].add((self.phase, key))

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            self._observe(name, args, kwargs)
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BandTooNarrowError:
                self.count(name + ".band_too_narrow")
                raise
            finally:
                self._end(idx)
            if name == "filters.select_filter":
                self.count("filters.choice." + result.hard_kind())
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, span_name in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")

    def layer_metrics(self, info, seconds):
        """Per-layer figures of the timed phase (stage times: both phases).

        ``info`` carries what the workload itself observed: library counters,
        mean reward, the evaluate TTS figures and both wall times.
        ``seconds(start, end)`` gives a span's duration; the runner passes
        the host clock's reference seconds.
        """
        length = [seconds(start, end) for _, start, end, _, _ in self.spans]
        durations, self_time = {}, {}
        calls_under = Counter()          # (parent name, child name) -> calls
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += length[i]
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            if phase == "timed":
                durations.setdefault(name, []).append(length[i])
                layer = name.split(".", 1)[0]
                self_time[layer] = (self_time.get(layer, 0.0)
                                    + length[i] - child_time[i])
                if parent >= 0:
                    calls_under[(self.spans[parent][0], name)] += 1
        stage_total = Counter()
        for i, (name, _, _, _, _) in enumerate(self.spans):
            stage_total[name] += length[i]

        def calls(name):
            return len(durations.get(name, ()))

        def mean(name, scale):
            d = durations.get(name)
            return scale * sum(d) / len(d) if d else 0.0

        def pct(name, q):
            d = sorted(durations.get(name, ()))
            if not d:
                return 0.0
            return 1e3 * d[min(len(d) - 1, int(q * len(d)))]

        def per_call(count, name):
            return count / calls(name) if calls(name) else 0.0

        timed = lambda key: self.counters[("timed", key)]
        distinct = {k: sum(1 for phase, _ in v if phase == "timed")
                    for k, v in self.distinct.items()}
        m = {
            "alignment.match.calls": calls("alignment.match"),
            "alignment.match.ms_p50": pct("alignment.match", 0.50),
            "alignment.match.ms_p99": pct("alignment.match", 0.99),
            "alignment.match.distinct_ratio": per_call(
                distinct["alignment.match"], "alignment.match"),
            "alignment.match.protos_per_call": per_call(
                calls_under[("alignment.match", "alignment.dtw")],
                "alignment.match"),
            "alignment.match.protos_skipped": per_call(
                timed("alignment.dtw.band_too_narrow"), "alignment.match"),
            "alignment.dtw.calls": calls("alignment.dtw"),
            "alignment.dtw.us": mean("alignment.dtw", 1e6),
            "alignment.cost_matrix.us": mean("alignment.cost_matrix", 1e6),
            "alignment.soft_dtw.calls": calls("alignment.soft_dtw"),
            "alignment.soft_dtw.ms": mean("alignment.soft_dtw", 1e3),
            "filters.denoise_matrix.calls": calls("filters.denoise_matrix"),
            "filters.denoise_matrix.us": mean("filters.denoise_matrix", 1e6),
            "filters.choice.kalman": timed("filters.choice.kalman"),
            "filters.choice.gaussian": timed("filters.choice.gaussian"),
            "filters.choice.elp": timed("filters.choice.elp"),
            "filters.soft_denoise_matrix.calls": calls("filters.soft_denoise_matrix"),
            "filters.soft_denoise_matrix.ms": mean("filters.soft_denoise_matrix", 1e3),
            "sim.generate.calls": calls("sim.generate"),
            "sim.generate.distinct": distinct["sim.generate"],
            "sim.generate.ms": mean("sim.generate", 1e3),
            "sim.fingerprint_at.calls": calls("sim.fingerprint_at"),
            "sim.fingerprint_at.us": mean("sim.fingerprint_at", 1e6),
            "fingerprints.summarize_window.us": mean("fingerprints.summarize_window", 1e6),
            "fingerprints.library.size": info.get("library_size", 0),
            "fingerprints.library.commits": timed("fingerprints.library.commits"),
            "fingerprints.library.evictions": timed("fingerprints.library.evictions"),
            "fingerprints.commit_segment.ms": mean("fingerprints.commit_segment", 1e3),
            "policy.rollout.calls": calls("policy.rollout"),
            "policy.rollout.ms": mean("policy.rollout", 1e3),
            "policy.rollout.matched_steps": per_call(
                calls_under[("policy.rollout", "alignment.match")], "policy.rollout"),
            "policy.ppo_update.ms": mean("policy.ppo_update", 1e3),
            "policy.imitate.ms": mean("policy.imitate", 1e3),
            "cloudedge.run_round.s": mean("cloudedge.run_round", 1.0),
            "cloudedge.fit_reward_model.ms": mean("cloudedge.fit_reward_model", 1e3),
            "cloudedge.aggregate.ms": mean("cloudedge.aggregate", 1e3),
            "cloudedge.offline_update.ms": mean("cloudedge.offline_update", 1e3),
            "cloudedge.mean_reward": info.get("mean_reward", 0.0),
            "cli.evaluate_site.s": sum(durations.get("cli.evaluate_site", ())),
            "trace.overhead_ratio": info["traced_wall_s"] / info["wall_s"],
        }
        for stage, span_name in STAGES:
            m[f"cli.stage.{stage}_s"] = stage_total[span_name]
        for flag in "ABC":
            m[f"cli.evaluate_site.tts_rel_{flag}"] = info.get("tts_rel", {}).get(flag, 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        return m
