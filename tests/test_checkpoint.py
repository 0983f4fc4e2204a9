import struct
from dataclasses import replace

import numpy as np
import pytest

from dynavq.allocator import init_allocator
from dynavq.autoencoder import init_decoder, init_encoder
from dynavq.checkpoint import (
    MAGIC,
    CheckpointData,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from dynavq.codebook import init_codebook
from dynavq.pipeline import Model


def make_model(seed=0):
    return Model(
        codebook=init_codebook(3, 8, 2, seed),
        allocator=init_allocator(6, seed + 1),
        encoder=init_encoder(4, 8, 6, seed + 2),
        decoder=init_decoder(4, 8, 6, seed + 3),
        patch_size=4,
        top_k=4,
        pool=6,
        temperature=0.7,
        beta=0.3,
    )


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
        assert back.model.pool == 6
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
        assert (version, subs, prims, dim) == (1, 3, 8, 2)
        # entries follow immediately, little-endian f64, sub-codebook major
        first = struct.unpack_from("<d", raw, 20)[0]
        assert first == model.codebook.entries[0, 0, 0]

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
        keep = 20 + cb.entries.size * 8 + cb.usage_counts.size * 8
        path.write_bytes(raw[:keep])
        with pytest.raises(CheckpointError, match="missing section"):
            load_checkpoint(path)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="m.ckpt"):
                load_checkpoint(path)

    def test_bad_weighting_byte_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CheckpointData(model=make_model()))
        raw = path.read_bytes()
        # the weighting is stored one little-endian u64 per character
        at = raw.index(b"".join(struct.pack("<Q", ord(c)) for c in "softmax"))
        path.write_bytes(raw[:at] + struct.pack("<Q", ord("t")) + raw[at + 8:])
        with pytest.raises(CheckpointError, match="m.ckpt.*toftmax"):
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
