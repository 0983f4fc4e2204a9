"""The batched training step against the per-image reference loop."""

from dataclasses import replace

import numpy as np
import pytest

from reference_step import reference_train_step

from dynavq.trainer import TrainConfig, build_datasets, init_state, train_step

#: float64 summation order differs between the batched and per-image
#: steps; nothing else may.
RTOL = 1e-9

PARAMS = (
    ("codebook", "entries"),
    ("allocator", "conv1_w"), ("allocator", "conv1_b"),
    ("allocator", "conv2_w"), ("allocator", "conv2_b"),
    ("encoder", "w1"), ("encoder", "b1"), ("encoder", "w2"), ("encoder", "b2"),
    ("decoder", "w1"), ("decoder", "b1"), ("decoder", "w2"), ("decoder", "b2"),
)


def desk_config(tmp_path, **overrides):
    base = dict(
        total_steps=40, warmup_fraction=0.25, batch_size=4, learning_rate=1e-3,
        subcodebooks=4, primitives_per_sub=64, primitive_dim=4, top_k=16,
        pool=16, temperature=0.003, image_size=32, patch_size=4,
        hidden_dim=32, n_images=16, seed=3,
        metrics_path=str(tmp_path / "metrics.csv"),
        checkpoint_path=str(tmp_path / "model.ckpt"),
    )
    base.update(overrides)
    return TrainConfig(**base)


def fresh_state(config, step):
    return replace(init_state(config), step=step)


def assert_same_step(batched, reference):
    (state_a, row_a, raw_a), (state_b, row_b, raw_b) = batched, reference
    for part, name in PARAMS:
        a = getattr(getattr(state_a.model, part), name)
        b = getattr(getattr(state_b.model, part), name)
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0, err_msg=f"{part}.{name}")
    assert np.array_equal(
        state_a.model.codebook.usage_counts, state_b.model.codebook.usage_counts
    )
    assert state_a.opt.t == state_b.opt.t
    assert state_a.opt.m.keys() == state_b.opt.m.keys()
    for key in state_b.opt.m:
        np.testing.assert_allclose(
            state_a.opt.m[key], state_b.opt.m[key], rtol=RTOL, atol=0, err_msg=key
        )
        np.testing.assert_allclose(
            state_a.opt.v[key], state_b.opt.v[key], rtol=RTOL, atol=0, err_msg=key
        )
    assert row_a.keys() == row_b.keys()
    for key in row_b:
        assert row_a[key] == pytest.approx(row_b[key], rel=RTOL, abs=0), key
    assert np.array_equal(raw_a["counts"], raw_b["counts"])
    for key in ("ratios", "targets"):
        np.testing.assert_allclose(raw_a[key], raw_b[key], rtol=RTOL, atol=0)


def run_both(config, step, batch):
    return (
        train_step(fresh_state(config, step), batch),
        reference_train_step(fresh_state(config, step), batch),
    )


@pytest.mark.parametrize("step", [0, 10], ids=["warmup", "active"])
def test_batched_step_matches_per_image_loop(tmp_path, step):
    config = desk_config(tmp_path)
    train, _ = build_datasets(config)
    batch = [item.image for item in train.items[: config.batch_size]]
    batched, reference = run_both(config, step, batch)
    assert_same_step(batched, reference)
    if step:
        assert batched[1]["mean_count"] > 1.0


@pytest.mark.parametrize("step", [0, 10], ids=["warmup", "active"])
def test_mixed_image_sizes_match_per_image_loop(tmp_path, step):
    config = desk_config(tmp_path)
    rng = np.random.default_rng(7)
    batch = [
        rng.uniform(size=(32, 32)),
        rng.uniform(size=(16, 16)),
        rng.uniform(size=(16, 16)),
        rng.uniform(size=(32, 32)),
    ]
    batched, reference = run_both(config, step, batch)
    assert_same_step(batched, reference)


@pytest.mark.parametrize(
    "field, value", [("temperature", 0.5), ("beta", 0.9)], ids=["temperature", "beta"]
)
def test_backward_uses_the_forward_temperature(tmp_path, field, value):
    """The step is taken with the model's temperature and beta, the ones
    the forward pass and the losses use, even when the config says
    otherwise."""
    config = desk_config(tmp_path, warmup_fraction=0.0)
    edited = replace(config, **{field: value})
    train, _ = build_datasets(config)
    batch = [item.image for item in train.items[:2]]
    state_a, row_a, _ = train_step(init_state(config), batch)
    state_b = replace(init_state(config), config=edited)
    assert getattr(state_b.model, field) != getattr(edited, field)
    state_b, row_b, _ = train_step(state_b, batch)
    assert row_a == row_b
    for part, name in PARAMS:
        a = getattr(getattr(state_a.model, part), name)
        b = getattr(getattr(state_b.model, part), name)
        assert np.array_equal(a, b), f"{part}.{name}"
