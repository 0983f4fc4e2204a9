"""Smoke runs of the benchmark: a traced train_desk round and untraced
tokenize_desk and train_wide_codebook rounds must pass their output checks
(reference forward pass, identical repeated trainings, gradient suite),
and every tracer binding must still resolve. tokenize_desk is the workload
whose model has spread adaptive counts when its eval PSNR is checked
against the reference forward pass; train_wide_codebook runs the same
checks at 256 codes per sub-codebook, where a training batch is scored
one sub-codebook per pass and a single image two per pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize(
    "workload, trace",
    [("train_desk", "1"), ("tokenize_desk", "0"), ("train_wide_codebook", "0")],
    ids=["traced-train_desk", "untraced-tokenize_desk", "untraced-train_wide_codebook"],
)
def test_bench_round_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
