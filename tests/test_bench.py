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

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ``device`` also runs its oracle check, the only code that reads
# ``MetricModel.beta`` outside the package
@pytest.mark.parametrize("workload", ["train", "evaluate", "device"])
def test_traced_workload_runs_correctly(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout[-2000:]
