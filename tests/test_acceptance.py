"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Trend criteria (2-5, 9) train small models at a pinned desk recipe
(4 sub-codebooks of 64 four-dimensional primitives, 32x32 images in 4x4
patches, K=16, temperature 0.003, Adam at 1e-3); the whole module takes
on the order of ten minutes on one CPU core. Tolerances and margins come
verbatim from the criteria and must not be loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracle_helpers import oracle_quantize_chunk, oracle_spearman

from dynavq.checkpoint import load_checkpoint
from dynavq.codebook import Codebook, init_codebook
from dynavq.gradsuite import run_suite
from dynavq.metrics import (
    centroid_similarity_matrix,
    evaluate_reconstruction,
    psnr,
    rate_distortion,
    spearman,
    ssim,
)
from dynavq.quantizer import QuantizeMode, quantize
from dynavq.trainer import TrainConfig, build_datasets, run_training

SEEDS = (0, 1, 2)


def desk_config(workdir, tag, seed, **overrides):
    base = dict(
        total_steps=2500,
        warmup_fraction=0.25,
        batch_size=8,
        learning_rate=1e-3,
        subcodebooks=4,
        primitives_per_sub=64,
        primitive_dim=4,
        top_k=16,
        pool=16,
        temperature=0.003,
        image_size=32,
        patch_size=4,
        hidden_dim=32,
        n_images=64,
        seed=seed,
        metrics_path=str(workdir / f"{tag}_metrics.csv"),
        checkpoint_path=str(workdir / f"{tag}.ckpt"),
    )
    base.update(overrides)
    return TrainConfig(**base)


def train_and_eval(config, mode, resume_from=None):
    ckpt, _ = run_training(config, resume_from=resume_from)
    model = load_checkpoint(ckpt).model
    _, val = build_datasets(config)
    stats = evaluate_reconstruction(model, val, mode or model.adaptive_mode())
    return model, stats


def report(criterion, passed, text):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {text}")
    assert passed, f"criterion {criterion}: {text}"


# ---------------------------------------------------------------------------
# Shared trained models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def warmup_run(tmp_path_factory):
    """Criterion 2's pinned 1000-step run, instrumented for criterion 6."""
    workdir = tmp_path_factory.mktemp("warmup_run")
    config = desk_config(workdir, "c2", seed=0, total_steps=1000)
    observed = {"targets_ok": True, "counts_ok": True, "steps": 0}
    lo = 1.0 / config.primitives_per_sub

    def observer(step, row, raw):
        observed["steps"] += 1
        if raw["targets"].min() < lo or raw["targets"].max() > 1.0:
            observed["targets_ok"] = False
        if raw["counts"].min() < 1 or raw["counts"].max() > config.top_k:
            observed["counts_ok"] = False

    started = time.monotonic()
    _, metrics_path = run_training(config, observer=observer)
    elapsed = time.monotonic() - started
    rows = [line.split(",") for line in metrics_path.read_text().splitlines()[1:]]
    return config, rows, observed, elapsed


@pytest.fixture(scope="module")
def trend_models(tmp_path_factory):
    """Per-seed models for criteria 3, 4 and 5.

    For each seed: top1- and fixed10-trained baselines, the adaptive model
    (diversity weight 0.25; shared between criteria), and an adaptive
    model with the diversity loss disabled. Warm-up steps are top-1 in
    every mode, with the diversity and allocation terms gated off, so the
    warm-up is trained once, in the top1 run, and the other three resume
    from its checkpoint; criterion 9 shows that a resumed run reproduces
    the uninterrupted one.
    """
    workdir = tmp_path_factory.mktemp("trend_runs")
    out = {}
    for seed in SEEDS:
        per_seed = {}
        config = desk_config(workdir, f"s{seed}_top1", seed, quantize_mode="top1")
        _, stats = train_and_eval(config, QuantizeMode.top1())
        per_seed["top1"] = stats
        warmup = str(workdir / f"s{seed}_top1_warmup.ckpt")

        config = desk_config(
            workdir, f"s{seed}_fixed10", seed, quantize_mode="fixed", fixed_n=10
        )
        _, stats = train_and_eval(config, QuantizeMode.fixed_top_n(10), warmup)
        per_seed["fixed10"] = stats

        config = desk_config(workdir, f"s{seed}_adaptive", seed)
        model, stats = train_and_eval(config, None, warmup)
        per_seed["adaptive"] = stats
        per_seed["adaptive_model"] = model

        config = desk_config(workdir, f"s{seed}_nodiv", seed, lambda_dqp=0.0)
        model, stats = train_and_eval(config, None, warmup)
        per_seed["nodiv"] = stats
        per_seed["nodiv_model"] = model
        out[seed] = per_seed
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    results = run_suite(seeds=5, eps=1e-5, rel_tol=1e-4)
    elapsed = time.monotonic() - started
    failures = [r for r in results if not r.report.passed]
    names = sorted({r.name for r in results})
    report(
        1,
        not failures and elapsed < 60.0,
        f"{len(results)} gradient checks over {len(names)} backward paths "
        f"passed at rel_tol 1e-4 in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_warmup_invariant(warmup_run):
    config, rows, _, elapsed = warmup_run
    boundary = 250
    warm = rows[:boundary]
    count_one = all(float(r[6]) == 1.0 for r in warm)
    dqp_zero = all(float(r[4]) == 0.0 for r in warm)
    dpa_zero = all(float(r[5]) == 0.0 for r in warm)
    activated = any(float(r[6]) > 1.0 for r in rows[boundary:boundary + 50])
    report(
        2,
        count_one and dqp_zero and dpa_zero and activated and elapsed < 300.0,
        "steps 0-249 have mean count exactly 1.0 with loss_dqp = loss_dpa = 0, "
        f"mean count exceeds 1.0 within 50 steps of activation ({elapsed:.0f}s < 5min)",
    )


def test_criterion_3_diversity_effect(trend_models):
    passes = 0
    details = []
    for seed in SEEDS:
        per_seed = trend_models[seed]
        def mean_abs_off(model):
            sims = centroid_similarity_matrix(model.codebook)
            return float(np.mean(np.abs(sims[~np.eye(sims.shape[0], dtype=bool)])))

        without = mean_abs_off(per_seed["nodiv_model"])
        regular = mean_abs_off(per_seed["adaptive_model"])
        margin_ok = without - regular >= 0.05
        mse_ok = per_seed["adaptive"].mean_mse <= 1.10 * per_seed["nodiv"].mean_mse
        if margin_ok and mse_ok:
            passes += 1
        details.append(
            f"seed {seed}: |cos| {without:.3f}->{regular:.3f}, "
            f"mse ratio {per_seed['adaptive'].mean_mse / per_seed['nodiv'].mean_mse:.3f}"
        )
    report(
        3,
        passes >= 2,
        f"centroid |cos| drops by >= 0.05 with val MSE within 10% on {passes}/3 seeds "
        f"({'; '.join(details)})",
    )


def test_criterion_4_allocation_vs_top1(trend_models):
    passes = 0
    details = []
    for seed in SEEDS:
        per_seed = trend_models[seed]
        top1 = per_seed["top1"].mean_mse
        fixed10 = per_seed["fixed10"].mean_mse
        adaptive = per_seed["adaptive"]
        ok = (
            fixed10 < top1
            and adaptive.mean_mse <= top1
            and adaptive.mean_count < 10.0
        )
        if ok:
            passes += 1
        details.append(
            f"seed {seed}: top1 {top1:.5f}, fixed10 {fixed10:.5f}, "
            f"adaptive {adaptive.mean_mse:.5f} at count {adaptive.mean_count:.2f}"
        )
    report(
        4,
        passes >= 2,
        f"fixed-10 beats top-1 and adaptive matches top-1 at mean count < 10 on "
        f"{passes}/3 seeds ({'; '.join(details)})",
    )


def test_criterion_5_complexity_correlation(trend_models):
    rhos = []
    for seed in SEEDS:
        stats = trend_models[seed]["adaptive"]
        rhos.append(spearman(stats.counts.astype(np.float64), stats.labels))
    passes = sum(1 for r in rhos if r >= 0.5)
    report(
        5,
        passes >= 2,
        "Spearman(count, complexity label) >= 0.5 on trained adaptive models: "
        + ", ".join(f"seed {s}: {r:.3f}" for s, r in zip(SEEDS, rhos)),
    )


def test_criterion_6_ratio_target_range(warmup_run):
    config, rows, observed, _ = warmup_run
    report(
        6,
        observed["targets_ok"]
        and observed["counts_ok"]
        and observed["steps"] == config.total_steps,
        f"all ratio targets in [1/{config.primitives_per_sub}, 1] and counts in "
        f"[1, {config.top_k}] over {observed['steps']} logged training steps",
    )


def test_criterion_7_oracle_equivalences(tmp_path):
    rng = np.random.default_rng(123)
    # quantize on one sub-codebook vs exhaustive subset enumeration
    enum_ok = True
    for _ in range(30):
        num_codes = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(1, min(3, num_codes) + 1))
        sub_cb = rng.normal(size=(num_codes, dim))
        row = rng.normal(size=dim)
        cb = Codebook(sub_cb[None], np.zeros((1, num_codes), dtype=np.uint64))
        quant = quantize(row[None], cb, None, QuantizeMode.fixed_top_n(n))
        out, idx, weights = (
            quant.quantized[0], quant.alloc.indices[0, 0], quant.alloc.weights[0, 0]
        )
        o_out, o_idx, o_w = oracle_quantize_chunk(row, sub_cb, n)
        if idx.tolist() != o_idx or not np.allclose(out, o_out, atol=1e-12) \
                or not np.allclose(weights, o_w, atol=1e-12):
            enum_ok = False

    # adaptive with K=1 bit-matches top-1 quantization
    cb_a = init_codebook(3, 8, 2, seed=11)
    cb_b = init_codebook(3, 8, 2, seed=11)
    z = rng.normal(size=(10, 6))
    ratios = rng.uniform(0.01, 0.99, size=10)
    out_a = quantize(z, cb_a, ratios, QuantizeMode.adaptive(1))
    out_b = quantize(z, cb_b, None, QuantizeMode.top1())
    k1_ok = np.array_equal(out_a.quantized, out_b.quantized)

    # rate_distortion forced 1 bit-matches a top-1 evaluation
    workdir = tmp_path
    config = desk_config(workdir, "c7", seed=0, total_steps=40)
    ckpt, _ = run_training(config)
    model = load_checkpoint(ckpt).model
    _, val = build_datasets(config)
    point = rate_distortion(model, val, [1])[0]
    top1_stats = evaluate_reconstruction(model, val, QuantizeMode.top1())
    rd_ok = point.mean_mse == top1_stats.mean_mse

    # spearman vs rank-Pearson oracle
    sp_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 21))
        a = rng.integers(0, 6, size=n).astype(np.float64)
        b = rng.integers(0, 6, size=n).astype(np.float64)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        if abs(spearman(a, b) - oracle_spearman(a, b)) > 1e-12:
            sp_ok = False
    report(
        7,
        enum_ok and k1_ok and rd_ok and sp_ok,
        "subset-enumeration (1e-12), K=1 bit-identity, forced-1 rate-distortion "
        "bit-identity and Spearman oracle (1e-12) all agree",
    )


def test_criterion_8_metric_oracles():
    twenty = psnr(np.zeros((10, 10)), np.full((10, 10), 0.1))
    const = ssim(np.zeros((8, 8)), np.ones((8, 8)))
    img = np.random.default_rng(5).uniform(size=(16, 16))
    report(
        8,
        abs(twenty - 20.0) <= 1e-9
        and abs(const - 1e-4 / (1 + 1e-4)) <= 1e-9
        and ssim(img, img) == 1.0,
        "psnr(mse=0.01) = 20 dB, ssim(const0, const1) = 1e-4/(1+1e-4), "
        "ssim(a, a) = 1 exactly",
    )


def test_criterion_9_determinism(tmp_path):
    config_a = desk_config(tmp_path, "det_a", seed=4, total_steps=200)
    config_b = desk_config(tmp_path, "det_b", seed=4, total_steps=200)
    _, metrics_a = run_training(config_a)
    _, metrics_b = run_training(config_b)
    identical = metrics_a.read_bytes() == metrics_b.read_bytes()

    # resume from the warm-up boundary checkpoint (step 50)
    warm_ckpt = tmp_path / "det_a_warmup.ckpt"
    config_c = desk_config(tmp_path, "det_c", seed=4, total_steps=200)
    _, metrics_c = run_training(config_c, resume_from=str(warm_ckpt))
    tail_a = metrics_a.read_text().splitlines()[1 + 50:]
    tail_c = metrics_c.read_text().splitlines()[1:]
    resumed = tail_a == tail_c
    final_match = (tmp_path / "det_a.ckpt").read_bytes() == (
        tmp_path / "det_c.ckpt"
    ).read_bytes()
    report(
        9,
        identical and resumed and final_match,
        "two runs of one config are byte-identical and a resumed run reproduces "
        "the uninterrupted metrics and final checkpoint exactly",
    )
