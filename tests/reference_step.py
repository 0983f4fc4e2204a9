"""The training step as a loop over the batch's images.

This is the per-image form of ``dynavq.trainer.train_step``: each image
runs through the pipeline and the backward chain on its own, and every
gradient is accumulated as ``grad / n``. The batched step must take the
same step up to float64 summation order; tests compare the two.
"""

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from dynavq.allocator import allocator_backward, dpa_loss, ratio_target
from dynavq.autoencoder import mlp_backward, reconstruction_loss
from dynavq.codebook import (
    apply_codebook_grads,
    centroids,
    diversity_grad_entries,
    diversity_loss,
)
from dynavq.metrics import codebook_perplexity
from dynavq.pipeline import forward_image
from dynavq.quantizer import QuantizeMode, commitment_loss, quantize_backward
from dynavq.trainer import TrainState, phase, total_loss


def reference_train_step(
    state: TrainState, batch: Sequence[np.ndarray]
) -> Tuple[TrainState, Dict[str, float], Dict[str, np.ndarray]]:
    """One optimization step, one image at a time.

    Returns the new state, the metrics row, and the raw per-patch arrays
    (counts, ratios, targets) for observers.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    config = state.config
    model = state.model
    current_phase = phase(state.step, config.total_steps, config.warmup_fraction)
    active = current_phase == "active"
    mode = config.active_mode() if active else QuantizeMode.top1()

    cb = model.codebook
    grads: Dict[str, np.ndarray] = {
        "codebook.entries": np.zeros_like(cb.entries),
        "allocator.conv1_w": np.zeros_like(model.allocator.conv1_w),
        "allocator.conv1_b": np.zeros_like(model.allocator.conv1_b),
        "allocator.conv2_w": np.zeros_like(model.allocator.conv2_w),
        "allocator.conv2_b": np.zeros_like(model.allocator.conv2_b),
        "encoder.w1": np.zeros_like(model.encoder.w1),
        "encoder.b1": np.zeros_like(model.encoder.b1),
        "encoder.w2": np.zeros_like(model.encoder.w2),
        "encoder.b2": np.zeros_like(model.encoder.b2),
        "decoder.w1": np.zeros_like(model.decoder.w1),
        "decoder.b1": np.zeros_like(model.decoder.b1),
        "decoder.w2": np.zeros_like(model.decoder.w2),
        "decoder.b2": np.zeros_like(model.decoder.b2),
    }
    sums = {"rec": 0.0, "commit": 0.0, "dpa": 0.0}
    usage_delta = np.zeros_like(cb.usage_counts)
    all_counts: List[np.ndarray] = []
    all_ratios: List[np.ndarray] = []
    all_targets: List[np.ndarray] = []

    n = len(batch)
    for image in batch:
        fwd = forward_image(model, image, mode)
        z = fwd.embeddings
        q = fwd.quant.quantized

        # pixel MSE equals the patch-matrix MSE (same multiset of values)
        rec, d_recon = reconstruction_loss(fwd.patches, fwd.recon_patches)
        commit, d_z_commit, d_q_commit = commitment_loss(z, q, config.beta)
        target = ratio_target(z, q, cb.primitives_per_sub)
        dpa, d_ratios = dpa_loss(fwd.ratios, target)

        dec_grads, d_q_rec = mlp_backward(
            config.lambda_rec * d_recon, fwd.decoder_cache, model.decoder
        )
        d_z_total = d_q_rec + d_z_commit
        d_entries = quantize_backward(d_q_commit, fwd.quant.cache, cb)
        if active:
            alloc_grads, d_z_alloc = allocator_backward(
                config.lambda_dpa * d_ratios, fwd.allocator_cache, model.allocator
            )
            d_z_total = d_z_total + d_z_alloc
            grads["allocator.conv1_w"] += alloc_grads.conv1_w / n
            grads["allocator.conv1_b"] += alloc_grads.conv1_b / n
            grads["allocator.conv2_w"] += alloc_grads.conv2_w / n
            grads["allocator.conv2_b"] += alloc_grads.conv2_b / n
        enc_grads, _ = mlp_backward(d_z_total, fwd.encoder_cache, model.encoder)

        grads["codebook.entries"] += d_entries / n
        grads["encoder.w1"] += enc_grads.w1 / n
        grads["encoder.b1"] += enc_grads.b1 / n
        grads["encoder.w2"] += enc_grads.w2 / n
        grads["encoder.b2"] += enc_grads.b2 / n
        grads["decoder.w1"] += dec_grads.w1 / n
        grads["decoder.b1"] += dec_grads.b1 / n
        grads["decoder.w2"] += dec_grads.w2 / n
        grads["decoder.b2"] += dec_grads.b2 / n

        sums["rec"] += rec / n
        sums["commit"] += commit / n
        sums["dpa"] += dpa / n
        usage_delta += fwd.quant.usage_delta.astype(np.uint64)
        all_counts.append(fwd.quant.alloc.counts)
        all_ratios.append(fwd.ratios)
        all_targets.append(target)

    dqp, d_cents = diversity_loss(centroids(cb))
    if active:
        grads["codebook.entries"] += config.lambda_dqp * diversity_grad_entries(
            cb, d_cents
        )

    components = {
        "rec": sums["rec"],
        "commit": sums["commit"],
        "dqp": dqp if active else 0.0,
        "dpa": sums["dpa"] if active else 0.0,
    }
    loss = total_loss(components, config, current_phase)

    opt = state.opt
    opt.t += 1
    lr = config.learning_rate
    new_codebook = apply_codebook_grads(
        replace(cb, usage_counts=cb.usage_counts + usage_delta),
        grads["codebook.entries"],
        opt.step_rule("codebook.entries", lr),
    )
    alloc = model.allocator
    enc = model.encoder
    dec = model.decoder
    new_model = replace(
        model,
        codebook=new_codebook,
        allocator=type(alloc)(
            opt.step_rule("allocator.conv1_w", lr)(alloc.conv1_w, grads["allocator.conv1_w"]),
            opt.step_rule("allocator.conv1_b", lr)(alloc.conv1_b, grads["allocator.conv1_b"]),
            opt.step_rule("allocator.conv2_w", lr)(alloc.conv2_w, grads["allocator.conv2_w"]),
            opt.step_rule("allocator.conv2_b", lr)(alloc.conv2_b, grads["allocator.conv2_b"]),
        ),
        encoder=type(enc)(
            opt.step_rule("encoder.w1", lr)(enc.w1, grads["encoder.w1"]),
            opt.step_rule("encoder.b1", lr)(enc.b1, grads["encoder.b1"]),
            opt.step_rule("encoder.w2", lr)(enc.w2, grads["encoder.w2"]),
            opt.step_rule("encoder.b2", lr)(enc.b2, grads["encoder.b2"]),
        ),
        decoder=type(dec)(
            opt.step_rule("decoder.w1", lr)(dec.w1, grads["decoder.w1"]),
            opt.step_rule("decoder.b1", lr)(dec.b1, grads["decoder.b1"]),
            opt.step_rule("decoder.w2", lr)(dec.w2, grads["decoder.w2"]),
            opt.step_rule("decoder.b2", lr)(dec.b2, grads["decoder.b2"]),
        ),
    )

    counts = np.concatenate(all_counts)
    ratios = np.concatenate(all_ratios)
    targets = np.concatenate(all_targets)
    usage_step = usage_delta.astype(np.float64)
    perplexity = float(np.mean(codebook_perplexity(usage_step)))
    metrics_row = {
        "step": state.step,
        "loss_total": loss,
        "loss_rec": components["rec"],
        "loss_commit": components["commit"],
        "loss_dqp": components["dqp"],
        "loss_dpa": components["dpa"],
        "mean_count": float(counts.mean()),
        "std_count": float(counts.std()),
        "mean_R": float(ratios.mean()),
        "mean_Rstar": float(targets.mean()),
        "perplexity": perplexity,
    }
    raw = {"counts": counts, "ratios": ratios, "targets": targets}
    new_state = TrainState(
        model=new_model, opt=opt, step=state.step + 1, config=config
    )
    return new_state, metrics_row, raw
