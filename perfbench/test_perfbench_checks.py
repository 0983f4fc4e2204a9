"""The benchmark's correctness checks accept dynavq's own outputs and
reject perturbed ones.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import refmodel  # noqa: E402
import spans  # noqa: E402
from dynavq import pipeline, trainer  # noqa: E402
from dynavq.quantizer import QuantizeMode  # noqa: E402

MODES = {
    "adaptive": (16, QuantizeMode.adaptive(16)),
    "top1": (1, QuantizeMode.top1()),
    "fixed": (10, QuantizeMode.fixed_top_n(10)),
}


@pytest.fixture(scope="module")
def model_and_image():
    config = trainer.TrainConfig(n_images=4, seed=3)
    train, _ = trainer.build_datasets(config)
    return trainer.init_state(config).model, train.items[0].image


def forward(model, image, kind):
    amount, mode = MODES[kind]
    ref = refmodel.reference_forward(model, image, kind, amount)
    return ref, pipeline.forward_image(model, image, mode), amount


@pytest.mark.parametrize("kind", sorted(MODES))
def test_forward_matches_reference(model_and_image, kind):
    model, image = model_and_image
    ref, result, amount = forward(model, image, kind)
    assert checks.forward_problems(ref, result, kind, amount, model.patch_size) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: r.recon_patches.__setitem__((5, 3), r.recon_patches[5, 3] + 1e-6),
        lambda r: r.quant.alloc.counts.__setitem__(7, r.quant.alloc.counts[7] + 1),
        lambda r: r.ratios.__setitem__(2, r.ratios[2] + 1e-9),
        lambda r: r.quant.alloc.weights.__setitem__((1, 4, 0), 0.5 * r.quant.alloc.weights[1, 4, 0]),
    ],
    ids=["recon", "count", "ratio", "weights"],
)
@pytest.mark.parametrize("kind", sorted(MODES))
def test_perturbed_forward_fails(model_and_image, kind, perturb):
    model, image = model_and_image
    ref, result, amount = forward(model, image, kind)
    perturb(result)
    assert checks.forward_problems(ref, result, kind, amount, model.patch_size)


def test_mode_rules():
    assert checks.mode_problems("top1", 1, [1, 1, 1]) == []
    assert checks.mode_problems("top1", 1, [1, 2, 1])
    assert checks.mode_problems("fixed", 10, [10, 9])
    assert checks.mode_problems("adaptive", 16, [1, 17])


def test_psnr_recomputed(model_and_image):
    model, image = model_and_image
    ref, _, _ = forward(model, image, "adaptive")
    true_db = refmodel.psnr_db(image, ref.recon)
    assert checks.psnr_problems([image], [ref.recon], true_db) == []
    assert checks.psnr_problems([image], [ref.recon], true_db + 1e-4)
    assert checks.psnr_problems([image], [ref.recon], float("nan"))


def rows(losses, boundary):
    return [
        {
            "step": i,
            "loss_rec": loss,
            "loss_dqp": 0.0 if i < boundary else 0.3,
            "loss_dpa": 0.0 if i < boundary else 0.1,
            "mean_count": 1.0 if i < boundary else 6.5,
        }
        for i, loss in enumerate(losses)
    ]


def test_training_rows():
    good = rows(np.linspace(0.3, 0.1, 40), 10)
    assert checks.training_problems(good, 10) == []
    assert checks.training_problems(rows(np.linspace(0.1, 0.3, 40), 10), 10)
    for key, value in (("loss_dqp", 0.2), ("loss_dpa", 0.2), ("mean_count", 2.0)):
        bad = rows(np.linspace(0.3, 0.1, 40), 10)
        bad[4][key] = value
        assert checks.training_problems(bad, 10)


def test_layer_self_times_add_up_to_step():
    # the run [0, 12] holds a step [1, 11], which holds a forward pass
    # [1, 4] with its quantize [1.5, 3.5] and a backward [5, 9]
    trace = [
        ["trainer.run", 0.0, 12.0, -1, None],
        ["trainer.step", 1.0, 11.0, 0, None],
        ["pipeline", 1.0, 4.0, 1, None],
        ["quantizer.forward", 1.5, 3.5, 2, (640, 40, 20)],
        ["quantizer.backward", 5.0, 9.0, 1, None],
    ]
    m = spans.layer_metrics(trace, "train")
    assert m["trainer.step_ms"] == 10e3
    assert sum(m[k] for k in spans.STEP_LAYERS) == pytest.approx(10e3)
    assert m["trainer.loop_ms"] == 2e3
    assert m["quantizer.kept_per_scored"] == 40 / 640
    assert m["allocator.mean_count"] == 2.0
