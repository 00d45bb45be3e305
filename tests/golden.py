"""Golden SHA-256 digests of the canonical pipeline's artifacts.

The acceptance suite runs simulate -> train -> evaluate at the canonical seed
(``run_pipeline``) and compares every file of its first run with the digests
recorded in ``golden_digests.json`` for the running Python ``major.minor`` and
numpy version.  Floating-point results may differ between such environments,
so each keeps its own entry.  Run from the repository root:

    PYTHONPATH=src python tests/golden.py --check

runs the pipeline once (a few minutes) and prints the artifacts whose digests
changed, were removed or were added against the recorded entry.  It exits
non-zero on any difference, or when the environment has no entry, and never
writes ``golden_digests.json``: a change that claims to keep behaviour is
checked this way.  Without ``--check``,

    PYTHONPATH=src python tests/golden.py

records the entry of the current environment instead: it rewrites only that
entry and prints the same three lists against the entry it replaces.  A
change that alters behaviour re-records the digests and says why.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from envswitch.cli import cmd_evaluate, cmd_simulate, cmd_train
from envswitch.config import EngineConfig

CANONICAL_SEED = 13
EVAL_SESSIONS = 20
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_digests.json")


def run_pipeline(out: str, cfg: EngineConfig, seed: int = CANONICAL_SEED):
    """simulate -> train (N=20) -> evaluate into ``out``; returns the reports."""
    cmd_simulate(["A", "B", "C"], 2, seed, out, cfg)
    cmd_train(seed, out, cfg, rounds=20, log=lambda *a: None)
    return cmd_evaluate(["A", "B", "C"], {f: EVAL_SESSIONS for f in "ABC"},
                        seed, out, out, cfg, log=lambda *a: None)


def environment_key() -> str:
    v = sys.version_info
    return f"python {v.major}.{v.minor} / numpy {np.__version__}"


def artifact_digests(out: str) -> dict:
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    digests = {}
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            with open(path, "rb") as f:
                digests[rel] = hashlib.sha256(f.read()).hexdigest()
    return digests


def load_recorded() -> dict:
    """Recorded digests per environment key; empty if the file is missing."""
    if not os.path.exists(DIGEST_FILE):
        return {}
    with open(DIGEST_FILE, encoding="utf-8") as f:
        return json.load(f)


def digest_changes(recorded: dict, got: dict):
    """Artifact names that differ between two digest entries, each list
    sorted: (changed, missing from ``got``, new in ``got``)."""
    changed = sorted(n for n in set(got) & set(recorded) if got[n] != recorded[n])
    return changed, sorted(set(recorded) - set(got)), sorted(set(got) - set(recorded))


def pipeline_digests() -> dict:
    """Digests of one fresh ``run_pipeline`` in a temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        run_pipeline(out, EngineConfig())
        return artifact_digests(out)


def print_changes(recorded: dict, got: dict) -> bool:
    """Print ``digest_changes`` one line per kind; True if any."""
    changes = digest_changes(recorded, got)
    for label, names in zip(("changed", "removed", "added"), changes):
        print(f"{label} ({len(names)}): {' '.join(names) or '-'}")
    return any(changes)


def record() -> None:
    recorded = load_recorded()
    old = recorded.get(environment_key(), {})
    new = recorded[environment_key()] = pipeline_digests()
    with open(DIGEST_FILE, "w", encoding="utf-8") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(new)} digests for {environment_key()} in {DIGEST_FILE}")
    print_changes(old, new)


def check() -> int:
    """Exit status of ``--check``: 0 only if every digest equals the entry."""
    recorded = load_recorded().get(environment_key())
    if recorded is None:
        print(f"no digests recorded for {environment_key()} in {DIGEST_FILE}")
        return 1
    differs = print_changes(recorded, pipeline_digests())
    print(f"{'differs from' if differs else 'equals'} the entry for {environment_key()}")
    return 1 if differs else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded entry; never write it")
    if parser.parse_args().check:
        sys.exit(check())
    record()
