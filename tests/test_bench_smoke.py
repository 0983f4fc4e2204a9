"""Smoke run of the benchmark: a traced train_desk round must pass its
output checks (reference forward pass, identical repeated trainings,
gradient suite) and every tracer binding must still resolve."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_traced_train_desk_round_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "train_desk", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
