import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynavq.autoencoder import (
    MlpParams,
    encode,
    init_decoder,
    init_encoder,
    mlp_backward,
    mlp_forward,
    patchify,
    reconstruction_loss,
    unpatchify,
)
from dynavq.numerics import grad_check


class TestPatchify:
    def test_four_by_four(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4)
        patches = patchify(img, 2)
        assert patches.shape == (4, 4)
        assert patches[0].tolist() == [0, 1, 4, 5]
        assert patches[1].tolist() == [2, 3, 6, 7]
        assert patches[2].tolist() == [8, 9, 12, 13]

    def test_roundtrip(self):
        img = np.random.default_rng(0).uniform(size=(8, 12))
        assert np.array_equal(unpatchify(patchify(img, 4), 8, 12, 4), img)

    def test_wide_image_ordering(self):
        img = np.arange(8, dtype=np.float64).reshape(2, 4)
        patches = patchify(img, 2)
        # patches anchored at (0,0) then (0,2)
        assert patches[0].tolist() == [0, 1, 4, 5]
        assert patches[1].tolist() == [2, 3, 6, 7]

    def test_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            patchify(np.zeros((5, 4)), 2)

    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        patch=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, rows, cols, patch, seed):
        h, w = rows * patch, cols * patch
        img = np.random.default_rng(seed).uniform(size=(h, w))
        assert np.array_equal(unpatchify(patchify(img, patch), h, w, patch), img)


class TestMlp:
    def test_zero_weights_broadcast_bias(self):
        params = MlpParams(
            w1=np.zeros((4, 3)),
            b1=np.zeros(3),
            w2=np.zeros((3, 2)),
            b2=np.array([0.5, -1.0]),
        )
        out, _ = mlp_forward(np.random.default_rng(0).normal(size=(5, 4)), params)
        assert np.allclose(out, np.tile([0.5, -1.0], (5, 1)), atol=1e-15)

    def test_zero_input_zero_output(self):
        params = init_encoder(2, 3, 2, seed=0)
        params.b1[:] = 0.0
        params.b2[:] = 0.0
        out, _ = mlp_forward(np.zeros((2, 4)), params)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_shape_mismatch(self):
        params = init_encoder(2, 3, 2, seed=0)
        with pytest.raises(ValueError, match="rows"):
            mlp_forward(np.zeros((2, 5)), params)

    @pytest.mark.parametrize("seed", range(5))
    def test_parameter_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4))
        params = init_mlp_like(4, 3, 2, seed)
        coeff = rng.normal(size=(3, 2))

        def pack(p):
            return np.concatenate([p.w1.ravel(), p.b1, p.w2.ravel(), p.b2])

        def unpack(vec):
            shapes = [(4, 3), (3,), (3, 2), (2,)]
            parts, i = [], 0
            for s in shapes:
                n = int(np.prod(s))
                parts.append(vec[i:i + n].reshape(s))
                i += n
            return MlpParams(*parts)

        def f(vec):
            out, _ = mlp_forward(x, unpack(vec))
            return float(np.sum(coeff * out))

        def g(vec):
            p = unpack(vec)
            out, cache = mlp_forward(x, p)
            grads, _ = mlp_backward(coeff, cache, p)
            return pack(MlpParams(grads.w1, grads.b1, grads.w2, grads.b2))

        report = grad_check(f, g, pack(params), eps=1e-5, rel_tol=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(3))
    def test_input_gradients(self, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp_like(4, 5, 3, seed + 50)
        coeff = rng.normal(size=(2, 3))

        def f(x):
            out, _ = mlp_forward(x, params)
            return float(np.sum(coeff * out))

        def g(x):
            out, cache = mlp_forward(x, params)
            _, d_x = mlp_backward(coeff, cache, params)
            return d_x

        report = grad_check(f, g, rng.normal(size=(2, 4)), eps=1e-5, rel_tol=1e-4)
        assert report.passed, report


def init_mlp_like(in_dim, hidden, out_dim, seed):
    from dynavq.autoencoder import init_mlp

    return init_mlp(in_dim, hidden, out_dim, seed)


class TestEncodeDecode:
    def test_decode_shape_roundtrip(self):
        enc = init_encoder(4, 8, 6, seed=1)
        dec = init_decoder(4, 8, 6, seed=2)
        img = np.random.default_rng(3).uniform(size=(8, 8))
        z, _ = encode(patchify(img, 4), enc)
        assert z.shape == (4, 6)
        recon = unpatchify(mlp_forward(z, dec)[0], 8, 8, 4)
        assert recon.shape == (8, 8)

    def test_decode_zero_params_constant_image(self):
        dec = MlpParams(
            w1=np.zeros((3, 2)),
            b1=np.zeros(2),
            w2=np.zeros((2, 4)),
            b2=np.full(4, 0.25),
        )
        recon = unpatchify(mlp_forward(np.zeros((4, 3)), dec)[0], 4, 4, 2)
        assert np.allclose(recon, 0.25, atol=1e-15)

    def test_pipeline_deterministic(self):
        enc = init_encoder(2, 4, 4, seed=5)
        dec = init_decoder(2, 4, 4, seed=6)
        img = np.random.default_rng(7).uniform(size=(4, 4))
        outs = []
        for _ in range(2):
            z, _ = encode(patchify(img, 2), enc)
            recon = unpatchify(mlp_forward(z, dec)[0], 4, 4, 2)
            outs.append(recon)
        assert np.array_equal(outs[0], outs[1])


class TestReconstructionLoss:
    def test_identical(self):
        img = np.random.default_rng(0).uniform(size=(4, 4))
        loss, grad = reconstruction_loss(img, img)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(img))

    def test_all_zero_vs_all_one(self):
        loss, _ = reconstruction_loss(np.zeros((2, 2)), np.ones((2, 2)))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        loss, _ = reconstruction_loss(
            np.array([[0.0, 0.5]]), np.array([[0.5, 1.0]])
        )
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            reconstruction_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(size=(3, 3))
        report = grad_check(
            lambda r: reconstruction_loss(img, r)[0],
            lambda r: reconstruction_loss(img, r)[1],
            rng.uniform(size=(3, 3)),
        )
        assert report.passed, report
