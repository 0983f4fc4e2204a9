"""Correctness checks on dynavq's outputs.

Each check takes outputs the program produced and returns a list of
problems (empty when the outputs are right). The expected values come from
``refmodel`` and from properties of the method, never from a saved copy of
an earlier run, so the same checks hold for any seed and any later,
faster implementation that computes the same tokenizer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

import refmodel

#: Reconstructions may differ from the reference by summation order only.
RECON_TOL = 1e-9
RATIO_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
PSNR_TOL_DB = 1e-6


def forward_problems(ref, result, kind: str, amount: int, patch: int) -> List[str]:
    """Compare one ``forward_image`` result with the reference pass ``ref``
    for the same image and mode, and with the properties of the mode."""
    problems: List[str] = []
    counts = np.asarray(result.quant.alloc.counts)
    if not np.array_equal(counts, ref.counts):
        problems.append(f"{kind}: counts differ from the reference")
    if not np.max(np.abs(result.ratios - ref.ratios)) <= RATIO_TOL:
        problems.append(f"{kind}: allocator ratios differ from the reference")
    h, w = ref.recon.shape
    recon = result.recon_image(h, w, patch)
    if not np.max(np.abs(recon - ref.recon)) <= RECON_TOL:
        problems.append(f"{kind}: reconstruction differs from the reference")
    problems += mode_problems(kind, amount, counts)
    sums = np.asarray(result.quant.alloc.weights).sum(axis=2)
    if not np.max(np.abs(sums - 1.0)) <= WEIGHT_SUM_TOL:
        problems.append(f"{kind}: a sub-codebook's weights do not sum to 1")
    return problems


def mode_problems(kind: str, amount: int, counts) -> List[str]:
    """Every count is 1 in top-1, ``amount`` in fixed mode, and in
    [1, cap] in adaptive mode."""
    c = np.asarray(counts)
    if kind == "top1":
        ok = np.all(c == 1)
    elif kind == "fixed":
        ok = np.all(c == amount)
    else:
        ok = np.all((c >= 1) & (c <= amount))
    return [] if ok else [f"{kind}: counts break the mode's rule"]


def psnr_problems(images: Sequence, recons: Sequence, reported_db: float) -> List[str]:
    """Mean PSNR recomputed from the reconstructions must match the
    reported figure."""
    expected = float(np.mean([refmodel.psnr_db(a, b) for a, b in zip(images, recons)]))
    if not abs(expected - reported_db) <= PSNR_TOL_DB:
        return [f"reported PSNR {reported_db!r} dB, recomputed {expected!r} dB"]
    return []


def training_problems(rows: Sequence[Dict[str, float]], boundary: int) -> List[str]:
    """Warm-up rows gate the diversity and allocation losses off and use
    one primitive; reconstruction loss falls from the first tenth of the
    run to the last."""
    problems: List[str] = []
    for row in rows:
        if row["step"] < boundary and (
            row["loss_dqp"] != 0.0 or row["loss_dpa"] != 0.0 or row["mean_count"] != 1.0
        ):
            problems.append(f"warm-up step {int(row['step'])} is not a top-1 step")
            break
    tenth = max(1, len(rows) // 10)
    rec = [row["loss_rec"] for row in rows]
    if not np.mean(rec[-tenth:]) < np.mean(rec[:tenth]):
        problems.append("loss_rec did not fall from the first tenth to the last")
    return problems
