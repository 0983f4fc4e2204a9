import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynavq.allocator import init_allocator
from dynavq.autoencoder import init_decoder, init_encoder
from dynavq.checkpoint import (
    MAGIC,
    CheckpointData,
    CheckpointError,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from dynavq.codebook import init_codebook
from dynavq.pipeline import PARTS, SETTINGS, Model

#: make_data() saved in format 1, with a ``pool`` of 6 in its meta section
V1_FILE = Path(__file__).parent / "data" / "make_model_v1.ckpt"


def make_model(seed=0):
    return Model(
        codebook=init_codebook(3, 8, 2, seed),
        allocator=init_allocator(6, seed + 1),
        encoder=init_encoder(4, 8, 6, seed + 2),
        decoder=init_decoder(4, 8, 6, seed + 3),
        patch_size=4,
        top_k=4,
        temperature=0.7,
        beta=0.3,
        weighting="softmax",
    )


def make_data():
    """make_model() with a usage count, optimizer moments, step and seed."""
    model = make_model()
    model.codebook.usage_counts[1, 2] = 42
    return CheckpointData(
        model=model, step=17, seed=-3, adam_t=9,
        opt_m={"codebook.entries": np.full_like(model.codebook.entries, 0.5)},
        opt_v={"codebook.entries": np.full_like(model.codebook.entries, 0.25)},
    )


def assert_same(back: CheckpointData, data: CheckpointData):
    """Every array, counter, setting and optimizer moment is equal."""
    a, b = back.model, data.model
    assert np.array_equal(a.codebook.entries, b.codebook.entries)
    assert np.array_equal(a.codebook.usage_counts, b.codebook.usage_counts)
    for part in PARTS:
        for name, value in vars(getattr(b, part)).items():
            assert np.array_equal(getattr(getattr(a, part), name), value)
    for name in SETTINGS:
        assert getattr(a, name) == getattr(b, name)
    assert (back.step, back.seed, back.adam_t) == (data.step, data.seed, data.adam_t)
    for got, want in ((back.opt_m, data.opt_m), (back.opt_v, data.opt_v)):
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)


class TestRoundTrip:
    def test_model_fields_bit_exact(self, tmp_path):
        model = make_model()
        model.codebook.usage_counts[1, 2] = 42
        opt_m = {"codebook.entries": np.full_like(model.codebook.entries, 0.5)}
        opt_v = {"codebook.entries": np.full_like(model.codebook.entries, 0.25)}
        data = CheckpointData(
            model=model, step=17, seed=-3, adam_t=9, opt_m=opt_m, opt_v=opt_v
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, data)
        back = load_checkpoint(path)
        assert np.array_equal(back.model.codebook.entries, model.codebook.entries)
        assert np.array_equal(back.model.codebook.usage_counts, model.codebook.usage_counts)
        assert np.array_equal(back.model.allocator.conv1_w, model.allocator.conv1_w)
        assert np.array_equal(back.model.encoder.w1, model.encoder.w1)
        assert np.array_equal(back.model.decoder.w2, model.decoder.w2)
        assert back.step == 17
        assert back.seed == -3
        assert back.adam_t == 9
        assert back.model.patch_size == 4
        assert back.model.top_k == 4
        assert back.model.temperature == 0.7
        assert back.model.beta == 0.3
        assert back.model.weighting == "softmax"
        assert np.array_equal(back.opt_m["codebook.entries"], opt_m["codebook.entries"])
        assert np.array_equal(back.opt_v["codebook.entries"], opt_v["codebook.entries"])

    def test_header_layout(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=model))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, subs, prims, dim = struct.unpack_from("<IIII", raw, 4)
        assert (version, subs, prims, dim) == (2, 3, 8, 2)
        # entries follow immediately, little-endian f64, sub-codebook major
        first = struct.unpack_from("<d", raw, 20)[0]
        assert first == model.codebook.entries[0, 0, 0]

    def test_format_1_file_loads(self):
        assert_same(load_checkpoint(V1_FILE), make_data())

    def test_a_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        old = path.read_bytes()

        def write_half(self, blob):
            with open(self, "wb") as fh:
                fh.write(blob[:len(blob) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, make_data())
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_a_failed_rename_removes_the_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        old = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError("read-only directory")

        monkeypatch.setattr("dynavq.checkpoint.os.replace", refuse)
        with pytest.raises(PermissionError, match="read-only directory"):
            save_checkpoint(path, make_data())
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_save_is_deterministic(self, tmp_path):
        model = make_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, CheckpointData(model=model))
        save_checkpoint(p2, CheckpointData(model=model))
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_missing_section(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=model))
        raw = path.read_bytes()
        cb = model.codebook
        body = raw[:20 + cb.entries.size * 8 + cb.usage_counts.size * 8]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match="missing section"):
            load_checkpoint(path)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        """Every cut is parsed in memory; one is written and loaded."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        raw = path.read_bytes()
        for cut in range(len(raw)):
            with pytest.raises(CheckpointError, match="m.ckpt"):
                parse_checkpoint(raw[:cut], path)
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="m.ckpt"):
            load_checkpoint(path)

    def test_bad_weighting_byte_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        raw = path.read_bytes()
        # the weighting is stored one little-endian u64 per character
        at = raw.index(b"".join(struct.pack("<Q", ord(c)) for c in "softmax"))
        body = raw[:at] + struct.pack("<Q", ord("t")) + raw[at + 8:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match="m.ckpt.*toftmax"):
            load_checkpoint(path)

    def test_every_byte_flip_raises_checkpoint_error(self, tmp_path):
        """Every flip is parsed in memory; one is written and loaded."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        raw = path.read_bytes()

        def flipped(at):
            return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]

        for at in range(len(raw)):
            with pytest.raises(CheckpointError, match="m.ckpt"):
                parse_checkpoint(flipped(at), path)
        path.write_bytes(flipped(len(raw) // 2))
        with pytest.raises(CheckpointError, match="m.ckpt"):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("weighting", "toftmax"),
        ("temperature", 0.0),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("beta", -0.1),
        ("patch_size", 0),
    ],
)
def test_model_rejects_bad_setting(key, value):
    with pytest.raises(ValueError, match=key):
        replace(make_model(), **{key: value})


def test_bad_weighting_lists_the_table():
    with pytest.raises(ValueError) as info:
        replace(make_model(), weighting="ridge")
    assert str(info.value) == (
        "weighting must be one of ('softmax', 'linear'), got 'ridge'"
    )
