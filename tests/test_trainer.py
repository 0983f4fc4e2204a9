import dataclasses
import hashlib

import numpy as np
import pytest

from dynavq import trainer
from dynavq.checkpoint import load_checkpoint
from dynavq.dataio import export_dataset, gen_synthetic
from dynavq.trainer import (
    METRICS_COLUMNS,
    METRICS_HEADER,
    TrainConfig,
    build_datasets,
    init_state,
    phase,
    run_training,
    total_loss,
    train_step,
    warmup_steps,
)


def small_config(tmp_path, **overrides):
    base = dict(
        total_steps=12,
        warmup_fraction=0.25,
        batch_size=2,
        learning_rate=1e-3,
        subcodebooks=2,
        primitives_per_sub=16,
        primitive_dim=2,
        top_k=8,
        pool=8,
        image_size=16,
        patch_size=4,
        hidden_dim=8,
        n_images=8,
        seed=1,
        metrics_path=str(tmp_path / "metrics.csv"),
        checkpoint_path=str(tmp_path / "model.ckpt"),
    )
    base.update(overrides)
    return TrainConfig(**base)


#: A config edit that a resume must reject, and the key the error names.
RESUME_MISMATCHES = [
    ({"seed": 2}, "seed"),
    ({"patch_size": 2}, "patch_size"),
    ({"top_k": 4}, "top_k"),
    ({"temperature": 0.5}, "temperature"),
    ({"beta": 0.5}, "beta"),
    ({"weighting": "linear"}, "weighting"),
    ({"hidden_dim": 16}, "encoder.w1"),
]


class TestPhase:
    def test_first_step_warmup(self):
        assert phase(0, 1000, 0.25) == "warmup"

    def test_boundary_active(self):
        assert phase(249, 1000, 0.25) == "warmup"
        assert phase(250, 1000, 0.25) == "active"

    def test_zero_fraction(self):
        assert phase(0, 1000, 0.0) == "active"

    def test_float_noise_snapped(self):
        # 0.1 * 1000 is 100.00000000000001 in binary; ceil must stay 100
        assert warmup_steps(1000, 0.1) == 100

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase(1000, 1000, 0.25)


class TestTotalLoss:
    def _cfg(self):
        return TrainConfig(lambda_rec=1.0, lambda_dqp=1.0, lambda_dpa=1.0)

    def test_warmup_gates_exactly(self):
        comps = {"rec": 0.5, "commit": 0.5, "dqp": 0.9, "dpa": 0.9}
        assert total_loss(comps, self._cfg(), "warmup") == 1.0

    def test_active_sums(self):
        comps = {"rec": 0.1, "commit": 0.2, "dqp": 0.3, "dpa": 0.4}
        assert total_loss(comps, self._cfg(), "active") == pytest.approx(1.0, abs=1e-15)

    def test_all_zero(self):
        comps = {"rec": 0.0, "commit": 0.0, "dqp": 0.0, "dpa": 0.0}
        assert total_loss(comps, self._cfg(), "active") == 0.0

    def test_nan_names_component(self):
        comps = {"rec": 0.1, "commit": float("nan"), "dqp": 0.0, "dpa": 0.0}
        with pytest.raises(RuntimeError, match="commit"):
            total_loss(comps, self._cfg(), "active")


class TestTrainStep:
    def test_warmup_forces_count_one(self, tmp_path):
        config = small_config(tmp_path)
        state = init_state(config)
        train, _ = build_datasets(config)
        _, row, raw = train_step(state, [train.items[0].image])
        assert row["mean_count"] == 1.0
        assert row["std_count"] == 0.0
        assert row["loss_dqp"] == 0.0
        assert row["loss_dpa"] == 0.0
        assert np.all(raw["counts"] == 1)

    def test_zero_lr_keeps_parameters(self, tmp_path):
        config = small_config(tmp_path, learning_rate=0.0)
        state = init_state(config)
        train, _ = build_datasets(config)
        before = state.model.encoder.w1.copy()
        cb_before = state.model.codebook.entries.copy()
        new_state, _, _ = train_step(state, [train.items[0].image])
        assert np.array_equal(new_state.model.encoder.w1, before)
        assert np.array_equal(new_state.model.codebook.entries, cb_before)

    def test_deterministic_metrics(self, tmp_path):
        rows = []
        for _ in range(2):
            config = small_config(tmp_path)
            state = init_state(config)
            train, _ = build_datasets(config)
            _, row, _ = train_step(state, [it.image for it in train.items[:2]])
            rows.append(row)
        assert rows[0] == rows[1]

    def test_empty_batch(self, tmp_path):
        config = small_config(tmp_path)
        state = init_state(config)
        with pytest.raises(ValueError, match="non-empty"):
            train_step(state, [])

    def test_warmup_leaves_allocator_untouched(self, tmp_path):
        config = small_config(tmp_path, total_steps=100, warmup_fraction=0.5)
        state = init_state(config)
        train, _ = build_datasets(config)
        w_before = state.model.allocator.conv1_w.copy()
        for _ in range(3):
            state, _, _ = train_step(state, [train.items[0].image])
        assert np.array_equal(state.model.allocator.conv1_w, w_before)

    def test_active_trains_allocator(self, tmp_path):
        config = small_config(tmp_path, warmup_fraction=0.0)
        state = init_state(config)
        train, _ = build_datasets(config)
        w_before = state.model.allocator.conv1_w.copy()
        state, row, _ = train_step(state, [train.items[0].image])
        assert row["loss_dpa"] > 0.0
        assert not np.array_equal(state.model.allocator.conv1_w, w_before)


class TestRunTraining:
    def test_metrics_row_count_and_header(self, tmp_path):
        config = small_config(tmp_path)
        _, metrics_path = run_training(config)
        lines = metrics_path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + config.total_steps

    def test_row_keys_are_the_metrics_columns(self, tmp_path):
        rows = []
        run_training(small_config(tmp_path), observer=lambda s, row, raw: rows.append(row))
        assert rows and all(tuple(row) == METRICS_COLUMNS for row in rows)

    def test_zero_steps(self, tmp_path):
        config = small_config(tmp_path, total_steps=0)
        ckpt_path, metrics_path = run_training(config)
        assert metrics_path.read_text() == METRICS_HEADER + "\n"
        data = load_checkpoint(ckpt_path)
        assert data.step == 0

    def test_byte_identical_runs(self, tmp_path):
        config_a = small_config(tmp_path, metrics_path=str(tmp_path / "a.csv"),
                                checkpoint_path=str(tmp_path / "a.ckpt"))
        config_b = small_config(tmp_path, metrics_path=str(tmp_path / "b.csv"),
                                checkpoint_path=str(tmp_path / "b.ckpt"))
        _, path_a = run_training(config_a)
        _, path_b = run_training(config_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seed_changes_metrics(self, tmp_path):
        config_a = small_config(tmp_path, metrics_path=str(tmp_path / "a.csv"),
                                checkpoint_path=str(tmp_path / "a.ckpt"))
        config_b = small_config(tmp_path, seed=2, metrics_path=str(tmp_path / "b.csv"),
                                checkpoint_path=str(tmp_path / "b.ckpt"))
        _, path_a = run_training(config_a)
        _, path_b = run_training(config_b)
        assert path_a.read_bytes() != path_b.read_bytes()

    def test_resume_reproduces_trajectory(self, tmp_path):
        full_cfg = small_config(
            tmp_path, total_steps=12, warmup_fraction=0.25,
            metrics_path=str(tmp_path / "full.csv"),
            checkpoint_path=str(tmp_path / "full.ckpt"),
        )
        _, full_metrics = run_training(full_cfg)
        # warm-up boundary checkpoint was written at step 3
        warmup_ckpt = tmp_path / "full_warmup.ckpt"
        assert warmup_ckpt.exists()
        resumed_cfg = small_config(
            tmp_path, total_steps=12, warmup_fraction=0.25,
            metrics_path=str(tmp_path / "resumed.csv"),
            checkpoint_path=str(tmp_path / "resumed.ckpt"),
        )
        _, resumed_metrics = run_training(resumed_cfg, resume_from=str(warmup_ckpt))
        full_lines = full_metrics.read_text().splitlines()
        resumed_lines = resumed_metrics.read_text().splitlines()
        boundary = 3
        assert resumed_lines[0] == METRICS_HEADER
        assert resumed_lines[1:] == full_lines[1 + boundary:]
        final_full = load_checkpoint(tmp_path / "full.ckpt")
        final_resumed = load_checkpoint(tmp_path / "resumed.ckpt")
        assert np.array_equal(
            final_full.model.codebook.entries, final_resumed.model.codebook.entries
        )
        assert np.array_equal(
            final_full.model.encoder.w1, final_resumed.model.encoder.w1
        )

    @pytest.mark.parametrize(
        "overrides, key",
        RESUME_MISMATCHES,
        ids=[key for _, key in RESUME_MISMATCHES],
    )
    def test_resume_rejects_a_mismatched_config(self, tmp_path, overrides, key):
        ckpt, _ = run_training(small_config(tmp_path, total_steps=2))
        edited = small_config(
            tmp_path, total_steps=4, metrics_path=str(tmp_path / "resumed.csv"),
            checkpoint_path=str(tmp_path / "resumed.ckpt"), **overrides,
        )
        with pytest.raises(ValueError, match=key):
            run_training(edited, resume_from=str(ckpt))

    def test_observer_sees_every_step(self, tmp_path):
        config = small_config(tmp_path, total_steps=5)
        seen = []
        run_training(config, observer=lambda step, row, raw: seen.append(step))
        assert seen == list(range(5))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_progress_on_synthetic_data(self, tmp_path, seed):
        config = small_config(
            tmp_path, total_steps=60, warmup_fraction=0.25, batch_size=4,
            learning_rate=3e-3, seed=seed,
        )
        _, metrics_path = run_training(config)
        lines = metrics_path.read_text().splitlines()[1:]
        rec = [float(line.split(",")[2]) for line in lines]
        first = np.mean(rec[:6])
        last = np.mean(rec[-6:])
        assert last < first


def dataset_digest(ds) -> str:
    h = hashlib.sha256(ds.recipe.encode())
    for item in ds.items:
        h.update(item.image.tobytes())
        h.update(item.patch_labels.tobytes())
    return h.hexdigest()


class TestDatasetCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        trainer._synthetic.cache_clear()
        yield
        trainer._synthetic.cache_clear()

    @pytest.fixture
    def generations(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gen_synthetic(*args, **kwargs)

        monkeypatch.setattr(trainer, "gen_synthetic", counting)
        return calls

    def test_a_recipe_is_generated_once(self, tmp_path, generations):
        first = build_datasets(small_config(tmp_path))
        second = build_datasets(small_config(tmp_path))
        assert len(generations) == 1
        for a, b in zip(first, second):
            assert a is not b
            assert dataset_digest(a) == dataset_digest(b)
            assert a.seed == b.seed

    def test_cached_arrays_are_read_only(self, tmp_path):
        train, val = build_datasets(small_config(tmp_path))
        for item in (train.items[0], val.items[0]):
            with pytest.raises(ValueError, match="read-only"):
                item.image[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                item.patch_labels[0, 0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                item.image = np.zeros((16, 16))

    def test_each_call_gets_its_own_items(self, tmp_path):
        config = small_config(tmp_path)
        train, val = build_datasets(config)
        want = [dataset_digest(ds) for ds in (train, val)]
        train.items.append(val.items[0])
        val.items.clear()
        assert [dataset_digest(ds) for ds in build_datasets(config)] == want

    @pytest.mark.parametrize(
        "overrides, generated",
        [
            ({"seed": 2}, 2),
            # the split is taken per call from the cached images
            ({"train_frac": 0.5}, 1),
            ({"mix_flat": 0.4, "mix_smooth": 0.2, "mix_texture": 0.2,
              "mix_noise": 0.2}, 2),
        ],
        ids=["seed", "train_frac", "mix"],
    )
    def test_a_changed_recipe_gives_new_data(
        self, tmp_path, generations, overrides, generated
    ):
        before = build_datasets(small_config(tmp_path))
        after = build_datasets(small_config(tmp_path, **overrides))
        assert len(generations) == generated
        assert dataset_digest(after[0]) != dataset_digest(before[0])
        again = build_datasets(small_config(tmp_path))
        assert [dataset_digest(ds) for ds in again] == [
            dataset_digest(ds) for ds in before
        ]

    def test_a_signed_zero_keeps_its_recipe_text(self, tmp_path):
        mix = {"mix_smooth": 0.5, "mix_texture": 0.25, "mix_noise": 0.25}
        plus = small_config(tmp_path, mix_flat=0.0, **mix)
        minus = small_config(tmp_path, mix_flat=-0.0, **mix)
        # equal as floats and hashes, different as recipe text
        assert plus.mix == minus.mix and hash(plus.mix) == hash(minus.mix)
        for config, text in ((plus, "mix=[0.0,"), (minus, "mix=[-0.0,"),
                             (plus, "mix=[0.0,")):
            train, val = build_datasets(config)
            assert text in train.recipe and text in val.recipe

    def test_an_edited_manifest_is_read_again(self, tmp_path, generations):
        data = tmp_path / "data"
        manifest = export_dataset(gen_synthetic(8, 16, 4, (0, 0, 0, 1), seed=0), data)
        config = small_config(tmp_path, data_source=str(manifest))
        before = build_datasets(config)
        export_dataset(gen_synthetic(8, 16, 4, (0, 0, 0, 1), seed=1), data)
        after = build_datasets(config)
        assert generations == []
        for a, b in zip(before, after):
            assert len(a) == len(b)
            assert all(
                not np.array_equal(x.image, y.image) for x, y in zip(a.items, b.items)
            )

    def test_a_manifest_of_another_patch_size_is_refused(self, tmp_path):
        manifest = export_dataset(
            gen_synthetic(4, 16, 4, (0, 0, 0, 1), seed=0), tmp_path / "data"
        )
        config = small_config(tmp_path, data_source=str(manifest), patch_size=2)
        with pytest.raises(ValueError) as info:
            build_datasets(config)
        assert str(info.value) == (
            f"manifest {manifest} labels 4-pixel patches, but patch_size is 2"
        )
