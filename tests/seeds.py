"""Criterion 6 at several training seeds: the seed-spread table.

Runs the canonical pass of ``golden.run_pipeline`` (simulate -> train with
N=20 rounds -> evaluate 20 held-out sessions per site) at seeds 13, 29 and
41, and prints each site's mean per-session relative TTS improvement in
percent, the figure ``test_criterion_6_end_to_end_tts_improvement`` gates at
seed 13.  The output is deterministic.  Run from the repository root (about
20 s for all three seeds on a 2-vCPU host):

    PYTHONPATH=src python tests/seeds.py

A change that alters behaviour reports this table before and after.
"""

import tempfile

import numpy as np

from envswitch.config import EngineConfig
from golden import run_pipeline

SEEDS = (13, 29, 41)


def site_means(reports) -> dict:
    """Per-site mean of the per-session relative improvements, in percent."""
    return {flag: 100.0 * float(np.mean([r.relative for r in site_reports
                                         if r.relative is not None]))
            for flag, site_reports in reports.items()}


def main() -> None:
    print("| seed | A / B / C % |")
    print("|---|---|")
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as out:
            means = site_means(run_pipeline(out, EngineConfig(), seed))
        print(f"| {seed} | "
              + " / ".join(f"{means[f]:.1f}" for f in "ABC") + " |", flush=True)


if __name__ == "__main__":
    main()
