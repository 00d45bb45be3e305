"""Golden SHA-256 digests of the canonical pipeline's artifacts.

The acceptance suite runs simulate -> train -> evaluate at the canonical seed
(``run_pipeline``) and compares every file of its first run with the digests
recorded in ``golden_digests.json`` for the running Python ``major.minor`` and
numpy version.  Floating-point results may differ between such environments,
so each keeps its own entry.  To record the entry of the current environment,
run from the repository root:

    PYTHONPATH=src python tests/golden.py

This runs the pipeline once (a few minutes), rewrites only that entry and
prints the names of the artifacts whose digests changed against the entry it
replaces.  A change that alters behaviour re-records the digests and says why.
"""

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


def run_pipeline(out: str, cfg: EngineConfig):
    """simulate -> train (N=20) -> evaluate into ``out``; returns the reports."""
    cmd_simulate(["A", "B", "C"], 2, CANONICAL_SEED, out, cfg)
    cmd_train(CANONICAL_SEED, out, cfg, rounds=20, log=lambda *a: None)
    return cmd_evaluate(["A", "B", "C"], {f: EVAL_SESSIONS for f in "ABC"},
                        CANONICAL_SEED, out, out, cfg, log=lambda *a: None)


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


def record() -> None:
    recorded = load_recorded()
    old = recorded.get(environment_key(), {})
    with tempfile.TemporaryDirectory() as out:
        run_pipeline(out, EngineConfig())
        new = recorded[environment_key()] = artifact_digests(out)
    with open(DIGEST_FILE, "w", encoding="utf-8") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(new)} digests for {environment_key()} in {DIGEST_FILE}")
    for label, names in zip(("changed", "removed", "added"), digest_changes(old, new)):
        print(f"{label} ({len(names)}): {' '.join(names) or '-'}")


if __name__ == "__main__":
    record()
