"""The benchmark still runs against this source tree.

``bench/spans.py`` traces the pipeline by rebinding module-level names of
``envswitch`` and ``bench/workloads.py`` unpacks ``cli.train_models``' return
value, so a change under ``src/`` that drops such a name or changes that
shape breaks the benchmark without failing any other test.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_train_workload_runs_correctly():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout[-2000:]
