import warnings

import numpy as np
import pytest

from dynavq.dataio import (
    Dataset,
    ManifestError,
    PgmError,
    export_dataset,
    gen_synthetic,
    load_manifest,
    load_raster,
    save_raster,
    split,
)

from reference_synthetic import reference_gen_synthetic


class TestGenSynthetic:
    def test_all_flat(self):
        ds = gen_synthetic(4, 16, 4, (1, 0, 0, 0), seed=0)
        for item in ds.items:
            assert np.all(item.patch_labels == 0)
            patches = item.image.reshape(4, 4, 4, 4)
            for gy in range(4):
                for gx in range(4):
                    assert np.var(patches[gy, :, gx, :]) == 0.0

    def test_all_noise_labels(self):
        ds = gen_synthetic(2, 8, 4, (0, 0, 0, 1), seed=1)
        for item in ds.items:
            assert np.all(item.patch_labels == 3)

    def test_seed_determinism(self):
        a = gen_synthetic(3, 16, 4, (0.25, 0.25, 0.25, 0.25), seed=42)
        b = gen_synthetic(3, 16, 4, (0.25, 0.25, 0.25, 0.25), seed=42)
        for x, y in zip(a.items, b.items):
            assert np.array_equal(x.image, y.image)
            assert np.array_equal(x.patch_labels, y.patch_labels)

    def test_values_in_unit_interval(self):
        ds = gen_synthetic(4, 16, 4, (0.25, 0.25, 0.25, 0.25), seed=7)
        for item in ds.items:
            assert item.image.min() >= 0.0
            assert item.image.max() <= 1.0

    def test_label_grid_shape(self):
        ds = gen_synthetic(1, 32, 4, (0.25, 0.25, 0.25, 0.25), seed=0)
        assert ds.items[0].patch_labels.shape == (8, 8)

    def test_bad_mix(self):
        with pytest.raises(ValueError, match="mix"):
            gen_synthetic(1, 8, 4, (0.5, 0.5, 0.5, 0.0), seed=0)

    def test_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            gen_synthetic(1, 10, 4, (1, 0, 0, 0), seed=0)

    def test_variance_ordering(self):
        # >= 100 patches per class: 32x32 at patch 4 gives 64 patches/image
        ds = gen_synthetic(16, 32, 4, (0.25, 0.25, 0.25, 0.25), seed=3)
        per_class = {0: [], 1: [], 2: [], 3: []}
        for item in ds.items:
            grid = item.patch_labels.shape[0]
            p = item.image.shape[0] // grid
            for gy in range(grid):
                for gx in range(grid):
                    patch = item.image[gy * p:(gy + 1) * p, gx * p:(gx + 1) * p]
                    per_class[int(item.patch_labels[gy, gx])].append(np.var(patch))
        means = [np.mean(per_class[c]) for c in range(4)]
        counts = [len(per_class[c]) for c in range(4)]
        assert all(c >= 100 for c in counts)
        assert means[0] < means[1] < means[2] <= means[3]


MIXES = {
    "uniform": (0.25, 0.25, 0.25, 0.25),
    "flat": (1, 0, 0, 0),
    "smooth": (0, 1, 0, 0),
    "texture": (0, 0, 1, 0),
    "noise": (0, 0, 0, 1),
}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("patch", [1, 3, 4, 8, 16])
def test_gen_synthetic_matches_patch_view_reference(patch, mix):
    size = 5 * patch
    for seed in (0, 7, 2**63 + 5):
        ds = gen_synthetic(3, size, patch, MIXES[mix], seed)
        ref = reference_gen_synthetic(3, size, patch, MIXES[mix], seed)
        for item, (image, labels) in zip(ds.items, ref):
            assert item.image.tobytes() == image.tobytes()
            assert item.image.shape == image.shape and item.image.flags.c_contiguous
            assert item.patch_labels.tobytes() == labels.tobytes()
            assert item.patch_labels.shape == labels.shape


class TestSplit:
    def test_sizes(self):
        ds = gen_synthetic(10, 8, 4, (1, 0, 0, 0), seed=0)
        train, val = split(ds, 0.8, seed=1)
        assert len(train) == 8
        assert len(val) == 2

    def test_union_is_original(self):
        ds = gen_synthetic(7, 8, 4, (0, 0, 0, 1), seed=2)
        train, val = split(ds, 0.5, seed=3)
        originals = sorted(item.image.tobytes() for item in ds.items)
        combined = sorted(item.image.tobytes() for item in train.items + val.items)
        assert originals == combined

    def test_seed_determinism(self):
        ds = gen_synthetic(9, 8, 4, (0, 1, 0, 0), seed=4)
        t1, _ = split(ds, 0.6, seed=5)
        t2, _ = split(ds, 0.6, seed=5)
        assert [a.image.tobytes() for a in t1.items] == [
            a.image.tobytes() for a in t2.items
        ]

    def test_bad_frac(self):
        ds = gen_synthetic(4, 8, 4, (1, 0, 0, 0), seed=0)
        with pytest.raises(ValueError, match="train_frac"):
            split(ds, 1.0, seed=0)

    @pytest.mark.parametrize("count, frac", [(3, 0.2), (1, 0.8)])
    def test_an_empty_training_half_is_refused(self, count, frac):
        ds = gen_synthetic(count, 8, 4, (1, 0, 0, 0), seed=0)
        with pytest.raises(ValueError, match=f"train_frac {frac} of {count} items"):
            split(ds, frac, seed=0)


class TestPgm:
    def test_roundtrip_bound(self, tmp_path):
        img = np.random.default_rng(0).uniform(size=(12, 10))
        path = tmp_path / "x.pgm"
        save_raster(img, path)
        back = load_raster(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 1.0 / 510 + 1e-12

    def test_header_parse(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
        img = load_raster(path)
        assert img.shape == (32, 32)
        assert np.all(img == 0.0)

    def test_sixteen_bit_rescale(self, tmp_path):
        path = tmp_path / "wide.pgm"
        sample = (128).to_bytes(2, "big")
        path.write_bytes(b"P5\n1 1\n65535\n" + sample)
        img = load_raster(path)
        assert img[0, 0] == pytest.approx(128.0 / 65535.0, abs=0)

    def test_maxval_rescale(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 100]))
        img = load_raster(path)
        assert np.allclose(img, [[0.5, 1.0]], atol=0)

    @pytest.mark.parametrize(
        "maxval, samples, width, offset",
        [(100, bytes([50, 200]), 1, 12), (1000, b"\x00\x05\x03\xe9", 2, 14)],
        ids=["one-byte", "two-byte"],
    )
    def test_sample_above_maxval_names_its_offset(
        self, tmp_path, maxval, samples, width, offset
    ):
        path = tmp_path / "over.pgm"
        path.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + samples)
        with pytest.raises(PgmError, match=f"exceeds maxval {maxval}") as err:
            load_raster(path)
        assert err.value.offset == offset
        assert path.read_bytes()[offset:offset + width] == samples[width:]

    @pytest.mark.parametrize(
        "payload",
        [b"P6\n1 1\n255\n\x00", b"P5\n2 1\n100\n\x32\xc8", b"P5\n4",
         b"P5\n" + b"9" * 5000 + b" 1 255\n\x00"],
        ids=["bad-magic", "above-maxval", "short-header", "5000-digit-width"],
    )
    def test_every_error_names_the_file(self, tmp_path, payload):
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(PgmError) as err:
            load_raster(path)
        assert str(err.value).startswith(f"pgm {path}: ")
        assert err.value.path == path

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert load_raster(path).shape == (2, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(PgmError, match="offset 0"):
            load_raster(path)

    def test_truncated_raster_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        payload = b"P5\n4 4\n255\n" + bytes(7)
        path.write_bytes(payload)
        with pytest.raises(PgmError, match="truncated") as err:
            load_raster(path)
        assert err.value.offset == len(payload)

    def test_byte_stability(self, tmp_path):
        img = np.random.default_rng(1).uniform(size=(6, 6))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_raster(img, p1)
        save_raster(img, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_half_up_rounding(self, tmp_path):
        # 0.5/255 rounds up to level 1 under half-up
        img = np.array([[0.5 / 255.0]])
        path = tmp_path / "r.pgm"
        save_raster(img, path)
        assert path.read_bytes()[-1] == 1


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ds = gen_synthetic(3, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        back = load_manifest(manifest)
        assert len(back) == 3
        for orig, loaded in zip(ds.items, back.items):
            assert np.array_equal(orig.patch_labels, loaded.patch_labels)
            assert np.max(np.abs(orig.image - loaded.image)) <= 1.0 / 510 + 1e-12

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("\n")
        with pytest.raises(ManifestError, match="no items") as info:
            load_manifest(path)
        assert str(info.value) == f"manifest {path}: lists no items"
        assert info.value.lineno is None

    def test_non_utf8_text_names_its_line(self, tmp_path):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        good = manifest.read_bytes().splitlines()
        manifest.write_bytes(b"\r\n".join([good[0], b"item_\xff.pgm,x.csv", good[1]]))
        with pytest.raises(ManifestError, match="not UTF-8 text") as info:
            load_manifest(manifest)
        assert f"manifest {manifest} line 2: " in str(info.value)
        assert info.value.lineno == 2

    @pytest.mark.parametrize(
        "line, fields", [("item_0000.pgm", 1), ("a.pgm,a.csv,extra.csv", 3)],
        ids=["one-field", "three-fields"],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, fields):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        good = manifest.read_text().splitlines()
        manifest.write_text("\n".join([good[0], "", line, good[1]]) + "\n")
        with pytest.raises(ManifestError, match=f"got {fields} fields") as info:
            load_manifest(manifest)
        assert str(manifest) in str(info.value)
        assert "line 3:" in str(info.value)
        assert info.value.lineno == 3

    @pytest.mark.parametrize(
        "grid, message",
        [
            (np.full((3, 5), 1), "a 3x5 label grid does not tile the 8x8 image"),
            (np.full((3, 3), 1), "a 3x3 label grid does not tile the 8x8 image"),
            (np.full((2, 4), 1), "a 2x4 label grid does not tile the 8x8 image"),
            (np.full((2, 2), 7), "label 7 is not in \\[0, 4\\)"),
            (np.array([[0, 1], [-1, 3]]), "label -1 is not in \\[0, 4\\)"),
        ],
        ids=["3x5", "3x3", "non-square", "label-7", "label-minus-1"],
    )
    def test_bad_label_grid_names_file_and_line(self, tmp_path, grid, message):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        np.savetxt(manifest.parent / "item_0001_labels.csv", grid, fmt="%d",
                   delimiter=",")
        with pytest.raises(ManifestError, match=message) as info:
            load_manifest(manifest)
        assert str(manifest) in str(info.value)
        assert info.value.lineno == 2

    def test_a_bad_pgm_names_manifest_line_and_file(self, tmp_path):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        pgm = manifest.parent / "item_0001.pgm"
        pgm.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
        with pytest.raises(ManifestError, match="sample 200 exceeds maxval 100") as info:
            load_manifest(manifest)
        assert f"manifest {manifest} line 2: pgm {pgm}: " in str(info.value)
        assert info.value.lineno == 2

    def test_a_non_integer_label_names_manifest_line_and_file(self, tmp_path):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        csv = manifest.parent / "item_0000_labels.csv"
        csv.write_text("0,1\n2,abc\n")
        with pytest.raises(ManifestError, match="'abc'") as info:
            load_manifest(manifest)
        assert f"manifest {manifest} line 1: label csv {csv}: " in str(info.value)
        assert info.value.lineno == 1

    @pytest.mark.parametrize(
        "name, prefix, message",
        [
            ("item_0001.pgm", "pgm", "No such file or directory"),
            ("item_0001_labels.csv", "label csv", "not found"),
        ],
        ids=["pgm", "label-csv"],
    )
    def test_a_missing_file_names_manifest_line_and_file(
        self, tmp_path, name, prefix, message
    ):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        missing = manifest.parent / name
        missing.unlink()
        with pytest.raises(ManifestError, match=message) as info:
            load_manifest(manifest)
        assert f"manifest {manifest} line 2: {prefix} {missing}: " in str(info.value)
        assert info.value.lineno == 2

    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# no labels\n"], ids=["empty", "blank", "comment"]
    )
    def test_an_empty_label_csv_is_refused_without_a_warning(self, tmp_path, text):
        ds = gen_synthetic(2, 8, 4, (0.25, 0.25, 0.25, 0.25), seed=9)
        manifest = export_dataset(ds, tmp_path / "data")
        csv = manifest.parent / "item_0000_labels.csv"
        csv.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match="holds no labels") as info:
                load_manifest(manifest)
        assert f"manifest {manifest} line 1: label csv {csv}: " in str(info.value)
        assert info.value.lineno == 1
