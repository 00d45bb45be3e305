"""Run one benchmark workload of envswitch and print its metrics.

    python3 bench/run.py --workload {train,evaluate,device} [--seed 13]
                         [--seconds 15] [--trace 0|1]

Run it from the repository root; it imports ``envswitch`` from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run repeats the
whole workload with every layer boundary traced and prints the per-layer
metrics instead.  ``bench/README.md`` defines every metric.
"""

import os

# One BLAS/OpenMP thread for this process and the processes it starts; set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("decide_ms_p50", "ms"))

# Times ``import envswitch.cli`` in a fresh interpreter, then the reference
# loop in the same interpreter, and prints the import in reference seconds.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import envswitch.cli; "
                "t = time.perf_counter() - t; import hostspeed; "
                "print(hostspeed.REF_LOOP_S * t / hostspeed.loop_time())")


def import_envswitch():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import envswitch
    where = os.path.dirname(os.path.abspath(envswitch.__file__))
    if where != os.path.join(SRC, "envswitch"):
        raise SystemExit(f"envswitch imported from {where}, not from {SRC}")


def import_seconds() -> float:
    """Median reference time to import ``envswitch.cli`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, BENCH],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = " ".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"python {platform.python_version()} numpy {np.__version__} "
            f"blas {blas} nproc {len(os.sched_getaffinity(0))} cpu '{cpu}' "
            f"{threads}")


def load() -> str:
    return " ".join(f"{v:.2f}" for v in os.getloadavg())


class DecisionClock:
    """Records the interval of each 1 Hz decision step on a full live window.

    ``policy.rollout`` starts every monitoring step with
    ``policy.fingerprint_at``, so the time between two such calls in one
    rollout is one decision.  Only decisions from the ``buffer_windows``-th
    step on count: earlier ones match a shorter, cheaper window, and how
    many of those a run has depends on when its policies switch.  Steps
    after a switch are inert and untimed.  The clock rebinds
    ``policy.fingerprint_at`` and the three names callers resolve the
    rollout by; that costs about a microsecond per step, against
    milliseconds of work.
    """

    ROLLOUT_NAMES = ("envswitch.policy", "envswitch.cli", "envswitch.cloudedge")

    def __init__(self, full_window: int):
        self.full_window = full_window
        self.intervals = []      # (start, end) per decision
        self._last = None
        self._steps = 0

    @contextlib.contextmanager
    def installed(self):
        policy = sys.modules["envswitch.policy"]
        rollout, fingerprint_at = policy.rollout, policy.fingerprint_at

        def timed_rollout(*args, **kwargs):
            self._last, self._steps = None, 0
            try:
                return rollout(*args, **kwargs)
            finally:
                self._last = None

        def timed_fingerprint_at(*args, **kwargs):
            now = time.perf_counter()
            if self._steps >= self.full_window:
                self.intervals.append((self._last, now))
            self._last = now
            self._steps += 1
            return fingerprint_at(*args, **kwargs)

        modules = [sys.modules[name] for name in self.ROLLOUT_NAMES]
        for module in modules:
            module.rollout = timed_rollout
        policy.fingerprint_at = timed_fingerprint_at
        try:
            yield self
        finally:
            for module in modules:
                module.rollout = rollout
            policy.fingerprint_at = fingerprint_at


def run_pass(workload, args, tracer, host, decisions=None, input_repeats=1):
    """Inputs, set-up, the timed blocks and the checks, in this process.

    ``host`` is installed for the whole pass and ``decisions``, if given,
    around the timed part.  Inputs are generated ``input_repeats`` times,
    for other seeds first, so that their median never comes from reused
    work.  Returns (figures, outcome, problems); the figures are
    ``(start, end)`` intervals, to be converted with ``host``.
    """
    from workloads import Outcome

    seeds = [args.seed + 1_000_003 * r for r in range(1, input_repeats)] + [args.seed]
    with tracer.installed(), host.installed():
        input_spans = []
        for seed in seeds:
            t0 = time.perf_counter()
            inputs = workload.inputs(seed, args.seconds)
            input_spans.append((t0, time.perf_counter()))
        t0 = time.perf_counter()
        state = workload.setup(inputs, tracer)
        setup_span = (t0, time.perf_counter())

        tracer.phase = "timed"
        outcome = Outcome()
        blocks = []
        with decisions.installed() if decisions else contextlib.nullcontext():
            for block in range(workload.blocks):
                t0 = time.perf_counter()
                workload.run(state, block, tracer, outcome)
                blocks.append((t0, time.perf_counter()))
        tracer.phase = "check"
    problems = workload.check(state)
    figures = {"inputs": input_spans, "setup": setup_span, "blocks": blocks}
    return figures, outcome, problems


def main(argv=None) -> int:
    import hostspeed
    import oracle
    import spans
    import workloads
    from envswitch.config import WindowConfig

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    print(f"env {environment()}")
    print(f"load at start {load()}")
    problems = [f"oracle self-test: {p}" for p in oracle.self_test()]

    imports_s = import_seconds()
    decisions = DecisionClock(WindowConfig().buffer_windows)
    host = hostspeed.HostClock()
    figures, outcome, found = run_pass(workload, args, spans.NullTracer(), host,
                                       decisions, SETUP_REPEATS)
    problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = outcome.digest()
    print(f"digest sha256:{digest}")
    ref = host.reference_seconds
    decide_ms = [1e3 * ref(a, b) for a, b in decisions.intervals]
    if not decide_ms:
        problems.append("no decision with a full live window was timed")
        decide_ms = [0.0]
    metrics = {
        "setup_s": (imports_s
                    + statistics.median(ref(a, b) for a, b in figures["inputs"])
                    + ref(*figures["setup"])),
        "wall_s": sum(ref(a, b) for a, b in figures["blocks"]),
        "peak_rss_mb": peak_rss_mb,
        "decide_ms_p50": statistics.median(decide_ms),
    }
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    raw_wall = sum(b - a for a, b in figures["blocks"])
    raw_decide = [1e3 * (b - a) for a, b in decisions.intervals] or [0.0]
    print(f"raw wall_s {raw_wall:.3f} s; raw decide_ms_p50 "
          f"{statistics.median(raw_decide):.3f} ms over {len(raw_decide)} decisions; "
          f"reference loop median {host.median_loop_ms():.4f} ms "
          f"over {len(host.loop_s)} ticks")
    for flag, value in sorted(outcome.info.get("tts_rel", {}).items()):
        print(f"tts_rel {flag} {value:.4f}")
    attempted, failed = outcome.attempted, outcome.failed
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    if args.trace:
        tracer = spans.Tracer()
        traced_host = hostspeed.HostClock()
        traced, traced_outcome, found = run_pass(workload, args, tracer, traced_host)
        problems += found
        traced_digest = traced_outcome.digest()
        print(f"traced digest sha256:{traced_digest}")
        if traced_digest != digest:
            problems.append("traced run changed the outputs (digest differs)")
        attempted += traced_outcome.attempted
        failed += traced_outcome.failed
        info = dict(traced_outcome.info, wall_s=metrics["wall_s"],
                    traced_wall_s=sum(traced_host.reference_seconds(a, b)
                                      for a, b in traced["blocks"]))
        layer = tracer.layer_metrics(info, traced_host.reference_seconds)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        result = {name: {"value": layer[name], "unit": unit}
                  for name, unit, _ in spans.PER_LAYER}

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"load at end {load()}")
    print(f"failed {failed}/{attempted} operations "
          f"({100.0 * failed / max(1, attempted):.2f}%)")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    import_envswitch()
    raise SystemExit(main())
