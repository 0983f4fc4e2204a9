import numpy as np
import pytest

from dynavq.checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from dynavq.cli import ConfigError, parse_config, run_command
from dynavq.dataio import export_dataset, gen_synthetic, load_raster, save_raster
from dynavq.metrics import evaluate_reconstruction
from dynavq.seeding import derive_seed
from dynavq.trainer import build_datasets, init_state


CONFIG_SMALL = """
# desk-scale smoke config
total_steps = 8
warmup_fraction = 0.25
batch_size = 2
subcodebooks = 2
primitives_per_sub = 16
primitive_dim = 2
top_k = 8
pool = 8
image_size = 16
patch_size = 4
hidden_dim = 8
n_images = 8
seed = 3
"""

MIX = (0.25, 0.25, 0.25, 0.25)


def write_config(tmp_path, body=CONFIG_SMALL, **extra):
    lines = [body]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_empty_file_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(path)
        assert config.total_steps == 1000
        assert config.warmup_fraction == 0.25

    def test_warmup_fraction(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("warmup_fraction = 0.25\n")
        assert parse_config(path).warmup_fraction == 0.25

    @pytest.mark.parametrize(
        "line, key",
        [("top_k = -1", "top_k"), ("weighting = sofmax", "weighting")],
        ids=["top_k", "weighting"],
    )
    def test_negative_top_k_names_key(self, tmp_path, line, key):
        path = tmp_path / "k.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)

    @pytest.mark.parametrize("key", [
        "warmup_fraction", "learning_rate", "lambda_rec", "beta", "lambda_dqp",
        "lambda_dpa", "temperature", "mix_flat", "mix_smooth", "mix_texture",
        "mix_noise", "train_frac",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_key(self, tmp_path, key, value):
        path = tmp_path / "f.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("# comment\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="line 2.*bogus_key"):
            parse_config(path)

    def test_type_error_names_key_and_line(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("total_steps = soon\n")
        with pytest.raises(ConfigError, match="line 1.*total_steps"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_order_independent(self, tmp_path):
        p1 = tmp_path / "a.cfg"
        p1.write_text("seed = 5\ntop_k = 4\n")
        p2 = tmp_path / "b.cfg"
        p2.write_text("top_k = 4\nseed = 5\n")
        assert parse_config(p1) == parse_config(p2)

    def test_inline_comment(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 9  # the answer\n")
        assert parse_config(path).seed == 9


def named_streams(seed):
    return {
        name: np.random.default_rng(derive_seed(seed, name))
        for name in ("data", "init", "training")
    }


class TestSeeding:
    def test_same_seed_same_streams(self):
        a = named_streams(7)
        b = named_streams(7)
        for name in ("data", "init", "training"):
            assert a[name].integers(0, 1 << 30, 5).tolist() == b[name].integers(
                0, 1 << 30, 5
            ).tolist()

    def test_streams_differ(self):
        streams = named_streams(7)
        seqs = {
            name: streams[name].integers(0, 1 << 30, 8).tolist()
            for name in streams
        }
        assert seqs["data"] != seqs["init"] != seqs["training"]

    def test_order_independent_derivation(self):
        first = derive_seed(11, "init")
        _ = derive_seed(11, "data")
        second = derive_seed(11, "init")
        assert first == second
        # creation in a different order yields the same sub-seeds
        x1 = derive_seed(3, "a")
        x2 = derive_seed(3, "b")
        y2 = derive_seed(3, "b")
        y1 = derive_seed(3, "a")
        assert (x1, x2) == (y1, y2)


class TestRunCommand:
    def test_unknown_subcommand_usage_error(self, capsys):
        status = run_command(["frobnicate"])
        assert status == 2

    def test_gradcheck_passes(self, capsys):
        status = run_command(["gradcheck", "--seeds", "1"])
        captured = capsys.readouterr()
        assert status == 0
        assert "gradient checks passed" in captured.out

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_gradcheck_rejects_fewer_than_one_seed(self, capsys, value):
        status = run_command(["gradcheck", "--seeds", value])
        captured = capsys.readouterr()
        assert status == 1
        assert f"--seeds must be at least 1, got {value}" in captured.err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "--forced-n: 'abc' is not an integer count"),
            ("1,2.5", "--forced-n: '2.5' is not an integer count"),
            ("0", "--forced-n: count 0 must lie in [1, 16]"),
            ("10,17", "--forced-n: count 17 must lie in [1, 16]"),
        ],
        ids=["word", "fraction", "zero", "above-codebook"],
    )
    def test_eval_names_a_bad_forced_count(self, tmp_path, capsys, value, message):
        cfg = write_config(
            tmp_path,
            metrics_path=tmp_path / "metrics.csv",
            checkpoint_path=tmp_path / "model.ckpt",
        )
        assert run_command(["train", "--config", str(cfg)]) == 0
        status = run_command([
            "eval", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--config", str(cfg), "--out", str(tmp_path / "report.csv"),
            "--forced-n", value,
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert message in captured.err
        assert not (tmp_path / "report.csv").exists()

    def test_a_malformed_manifest_names_file_and_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.pgm,a.csv,b.csv\n")
        cfg = write_config(tmp_path, data_source=manifest)
        status = run_command(["train", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert status == 1
        assert f"manifest {manifest} line 1: " in captured.err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_manifest_of_images_below_the_ssim_window_is_refused(
        self, tmp_path, capsys, command
    ):
        cfg = write_config(
            tmp_path,
            metrics_path=tmp_path / "metrics.csv",
            checkpoint_path=tmp_path / "model.ckpt",
        )
        assert run_command(["train", "--config", str(cfg)]) == 0
        manifest = export_dataset(gen_synthetic(4, 4, 4, MIX, seed=5), tmp_path / "tiny")
        small = write_config(
            tmp_path,
            data_source=manifest,
            metrics_path=tmp_path / "small.csv",
            checkpoint_path=tmp_path / "small.ckpt",
        )
        capsys.readouterr()
        argv = {
            "train": ["train", "--config", str(small)],
            "eval": ["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--config", str(small), "--out", str(tmp_path / "report.csv")],
        }[command]
        status = run_command(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert (
            f"manifest {manifest} item 1: a 4x4 image is smaller than the 8x8 "
            "SSIM window" in captured.err
        )
        assert not (tmp_path / "small.csv").exists()
        assert not (tmp_path / "report.csv").exists()

    def test_an_empty_training_split_is_refused(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            CONFIG_SMALL.replace("n_images = 8", "n_images = 3"),
            train_frac=0.2,
            metrics_path=tmp_path / "metrics.csv",
            checkpoint_path=tmp_path / "model.ckpt",
        )
        status = run_command(["train", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert status == 1
        assert "train_frac 0.2 of 3 items leaves the training split empty" in captured.err
        assert not (tmp_path / "metrics.csv").exists()

    def test_a_non_utf8_config_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 1\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_config(path)
        status = run_command(["train", "--config", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert f"error: config {path}: not UTF-8 text" in captured.err

    def test_reconstruct_missing_checkpoint(self, tmp_path, capsys):
        img_path = tmp_path / "in.pgm"
        save_raster(np.zeros((16, 16)), img_path)
        missing = tmp_path / "nope.ckpt"
        status = run_command([
            "reconstruct", "--checkpoint", str(missing),
            "--input", str(img_path), "--output", str(tmp_path / "out.pgm"),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert "nope.ckpt" in captured.err

    def test_reconstruct_names_a_bad_input_file(self, tmp_path, capsys):
        config = parse_config(write_config(tmp_path))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, CheckpointData(model=init_state(config).model))
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
        status = run_command([
            "reconstruct", "--checkpoint", str(ckpt),
            "--input", str(bad), "--output", str(tmp_path / "out.pgm"),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert f"error: pgm {bad}: sample 200 exceeds maxval 100" in captured.err
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "heatmap"])
    def test_an_input_that_does_not_tile_is_named(self, tmp_path, capsys, command):
        config = parse_config(write_config(tmp_path))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, CheckpointData(model=init_state(config).model))
        odd = tmp_path / "odd.pgm"
        save_raster(np.zeros((6, 8)), odd)
        status = run_command([
            command, "--checkpoint", str(ckpt),
            "--input", str(odd), "--output", str(tmp_path / "out.pgm"),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert f"error: --input {odd}: a 6x8 image does not tile into 4x4 patches" in captured.err
        assert not (tmp_path / "out.pgm").exists()

    def test_train_eval_reconstruct_heatmap_roundtrip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            metrics_path=tmp_path / "metrics.csv",
            checkpoint_path=tmp_path / "model.ckpt",
        )
        assert run_command(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "metrics.csv").exists()

        report = tmp_path / "report.csv"
        assert run_command([
            "eval", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--config", str(cfg), "--out", str(report), "--forced-n", "1",
        ]) == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("setting,")
        assert len(lines) == 3  # forced 1 + adaptive

        img_path = tmp_path / "in.pgm"
        save_raster(np.random.default_rng(0).uniform(size=(16, 16)), img_path)
        out_path = tmp_path / "out.pgm"
        assert run_command([
            "reconstruct", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--input", str(img_path), "--output", str(out_path),
        ]) == 0
        recon = load_raster(out_path)
        assert recon.shape == (16, 16)
        assert recon.min() >= 0.0 and recon.max() <= 1.0

        heat_path = tmp_path / "heat.pgm"
        assert run_command([
            "heatmap", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--input", str(img_path), "--output", str(heat_path),
        ]) == 0
        assert load_raster(heat_path).shape == (4, 4)

    def test_eval_takes_the_adaptive_cap_from_the_checkpoint(self, tmp_path, capsys):
        trained = write_config(
            tmp_path,
            metrics_path=tmp_path / "metrics.csv",
            checkpoint_path=tmp_path / "model.ckpt",
        )
        assert run_command(["train", "--config", str(trained)]) == 0
        # the same data recipe, with another cap
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG_SMALL.replace("top_k = 8", "top_k = 1"))
        report = tmp_path / "report.csv"
        assert run_command([
            "eval", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--config", str(other), "--out", str(report), "--forced-n", "",
        ]) == 0
        model = load_checkpoint(tmp_path / "model.ckpt").model
        _, val = build_datasets(parse_config(other))
        want = evaluate_reconstruction(model, val, model.adaptive_mode())
        (setting, _, _, _, mean_count, _) = report.read_text().splitlines()[1].split(",")
        assert setting == "adaptive"
        assert float(mean_count) == want.mean_count > 1.0

    def test_ablate_diversity_two_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "div.csv"
        status = run_command([
            "ablate-diversity", "--config", str(cfg),
            "--out", str(out), "--workdir", str(tmp_path / "runs"),
        ])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "setting,lambda_dqp,centroid_mean_abs_cos,val_mse"
        assert len(lines) == 3
        assert lines[1].startswith("no_diversity,0.0")
        assert lines[2].startswith("with_diversity,0.25")

    def test_ablate_topk_rows(self, tmp_path):
        cfg = write_config(tmp_path, fixed_n=4)
        out = tmp_path / "topk.csv"
        status = run_command([
            "ablate-topk", "--config", str(cfg),
            "--out", str(out), "--workdir", str(tmp_path / "runs"),
        ])
        assert status == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "setting", "top1", "fixed_top_n", "adaptive",
        ]

    def test_ablate_warmup_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "warm.csv"
        status = run_command([
            "ablate-warmup", "--config", str(cfg),
            "--out", str(out), "--workdir", str(tmp_path / "runs"),
        ])
        assert status == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "setting", "with_warmup", "no_warmup",
        ]

    def test_bad_config_returns_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("top_k = -1\n")
        status = run_command(["train", "--config", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert "top_k" in captured.err
