#!/usr/bin/env python3
"""Benchmark of the dynavq tokenizer, end to end and per layer.

Run from the root of a dynavq source tree (it imports ``src/dynavq``):

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every workload runs in its own process with one BLAS thread. With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
wraps dynavq's public functions in spans and prints per-layer metrics
instead. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import os

# one BLAS thread; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The acceptance desk recipe (tests/test_acceptance.py), minus its length.
DESK = dict(
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
)


@dataclass(frozen=True)
class Workload:
    config: dict
    #: steps of one run_training call
    train_steps: int
    #: True: the window repeats train-then-evaluate rounds. False: set-up
    #: trains the model once per repeat and the window only tokenizes and
    #: evaluates it.
    trains_in_window: bool
    setup_repeats: int


WORKLOADS = {
    # 40 steps cross the warm-up boundary at step 10, so each round times
    # top-1 and adaptive steps and both checkpoint writes
    "train_desk": Workload(DESK, 40, True, 9),
    "train_wide_codebook": Workload(
        {**DESK, "primitives_per_sub": 256, "top_k": 32, "pool": 32}, 40, True, 9
    ),
    # 120 steps (30 warm-up) spread the adaptive counts to about 2-5
    "tokenize_desk": Workload(DESK, 120, False, 3),
}

FIXED_N = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "tokenize_images_per_s": "1/s",
    "tokenize_ms_p50": "ms",
    "tokenize_ms_p90": "ms",
    "eval_images_per_s": "1/s",
    "val_psnr_db": "dB",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Everything a run measures, plus the problems its checks found."""

    attempted: int = 0
    # one rate per run_training call, tokenize pass and evaluation pass;
    # the run reports their medians, which a burst of load on a shared
    # machine moves less than it moves a total over the whole window
    train_rates: List[float] = field(default_factory=list)
    tokenize_rates: List[float] = field(default_factory=list)
    eval_rates: List[float] = field(default_factory=list)
    step_ms: List[float] = field(default_factory=list)
    tokenize_ms: List[float] = field(default_factory=list)
    psnr_db: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def modes(model):
    from dynavq.quantizer import QuantizeMode

    return [
        ("adaptive", model.top_k, QuantizeMode.adaptive(model.top_k)),
        ("top1", 1, QuantizeMode.top1()),
        ("fixed", FIXED_N, QuantizeMode.fixed_top_n(FIXED_N)),
    ]


def train_once(config, tally: Tally):
    """One run_training call. Returns (metrics rows, digest of its metrics
    CSV and checkpoint, trained model)."""
    from dynavq import checkpoint, trainer

    stamps: List[float] = []
    rows: List[dict] = []

    def observer(step, row, raw):
        stamps.append(perf_counter())
        rows.append(row)

    tally.attempted += config.total_steps
    start = perf_counter()
    ckpt, metrics_path = trainer.run_training(config, observer=observer)
    tally.train_rates.append(len(rows) / (perf_counter() - start))
    # step k's latency runs from the observer call of step k-1 to its own
    tally.step_ms.extend(np.diff(stamps) * 1e3)
    digest = hashlib.sha256(
        Path(metrics_path).read_bytes() + Path(ckpt).read_bytes()
    ).hexdigest()
    return rows, digest, checkpoint.load_checkpoint(ckpt).model


def infer_round(model, held_out, tally: Tally) -> None:
    """Tokenize and reconstruct every held-out image in each mode, one
    call at a time (a closed loop with one caller), then evaluate the set
    in each mode."""
    import checks
    from dynavq import metrics, pipeline

    mode_list = modes(model)
    p = model.patch_size
    done = len(tally.tokenize_ms)
    for kind, amount, mode in mode_list:
        for item in held_out.items:
            image = item.image
            h, w = image.shape
            tally.attempted += 1
            start = perf_counter()
            result = pipeline.forward_image(model, image, mode)
            np.clip(result.recon_image(h, w, p), 0.0, 1.0)
            tally.tokenize_ms.append((perf_counter() - start) * 1e3)
            tally.problems += checks.mode_problems(kind, amount, result.quant.alloc.counts)
    tokenized = tally.tokenize_ms[done:]
    tally.tokenize_rates.append(len(tokenized) / (sum(tokenized) / 1e3))
    eval_s = 0.0
    for kind, _, mode in mode_list:
        tally.attempted += len(held_out)
        start = perf_counter()
        stats = metrics.evaluate_reconstruction(model, held_out, mode)
        eval_s += perf_counter() - start
        tally.psnr_db[kind] = stats.mean_psnr
    tally.eval_rates.append(len(mode_list) * len(held_out) / eval_s)


def check_outputs(model, images, rows, config, tally: Tally) -> None:
    """Reference forward pass, recomputed PSNR, mode properties, the
    training trend and the finite-difference suite."""
    import checks
    import refmodel
    from dynavq import gradsuite, pipeline, trainer

    p = model.patch_size
    for kind, amount, mode in modes(model):
        recons = []
        for image in images:
            ref = refmodel.reference_forward(model, image, kind, amount)
            result = pipeline.forward_image(model, image, mode)
            tally.problems += checks.forward_problems(ref, result, kind, amount, p)
            recons.append(ref.recon)
        if kind in tally.psnr_db:
            tally.problems += checks.psnr_problems(images, recons, tally.psnr_db[kind])
    boundary = trainer.warmup_steps(config.total_steps, config.warmup_fraction)
    tally.problems += checks.training_problems(rows, boundary)
    failed = [r.name for r in gradsuite.run_suite() if not r.report.passed]
    if failed:
        tally.problems.append(f"gradsuite failed: {sorted(set(failed))}")


def step_alloc_peak_kb(config) -> float:
    """Largest block of memory one train_step allocates above what it
    started with, over a warm-up and an adaptive step."""
    from dynavq import trainer

    train, _ = trainer.build_datasets(config)
    batch = [item.image for item in train.items[: config.batch_size]]
    boundary = trainer.warmup_steps(config.total_steps, config.warmup_fraction)
    peaks = []
    for step in (0, boundary):
        state = replace(trainer.init_state(config), step=step)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        trainer.train_step(state, batch)
        peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
        tracemalloc.stop()
    return max(peaks)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from dynavq import trainer

    work = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    config = trainer.TrainConfig(
        **work.config,
        total_steps=work.train_steps,
        seed=seed,
        metrics_path=str(workdir / "metrics.csv"),
        checkpoint_path=str(workdir / "model.ckpt"),
    )
    tally = Tally()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        _, held_out = trainer.build_datasets(config)
        setup_s, digests, rows, model = [], set(), [], None
        for _ in range(work.setup_repeats):
            start = perf_counter()
            if work.trains_in_window:
                # inputs, initial model and one step, so lazy set-up is done
                train, _ = trainer.build_datasets(config)
                state = trainer.init_state(config)
                trainer.train_step(state, [it.image for it in train.items[: config.batch_size]])
            else:
                rows, digest, model = train_once(config, tally)
                digests.add(digest)
            setup_s.append(perf_counter() - start)

        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < seconds:
            if work.trains_in_window:
                rows, digest, model = train_once(config, tally)
                digests.add(digest)
            infer_round(model, held_out, tally)
            rounds += 1
        if tracer is not None:
            tracer.uninstall()

        check_outputs(model, [item.image for item in held_out.items], rows, config, tally)
        if len(digests) != 1:
            tally.problems.append("identical training runs wrote different bytes")

        metrics = {
            "setup_s": statistics.median(setup_s),
            "train_steps_per_s": statistics.median(tally.train_rates),
            "train_step_ms_p50": float(np.percentile(tally.step_ms, 50)),
            "train_step_ms_p90": float(np.percentile(tally.step_ms, 90)),
            "tokenize_images_per_s": statistics.median(tally.tokenize_rates),
            "tokenize_ms_p50": float(np.percentile(tally.tokenize_ms, 50)),
            "tokenize_ms_p90": float(np.percentile(tally.tokenize_ms, 90)),
            "eval_images_per_s": statistics.median(tally.eval_rates),
            "val_psnr_db": tally.psnr_db["adaptive"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        if tracer is not None:
            # shown for the tracing overhead, not part of the traced result
            for key, value in metrics.items():
                print(f"{name} traced-run {key} {value:.6g} {units[key]}")
            metrics, units = layer_report(tracer, work, config, name, seed, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in sorted(set(tally.problems)):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        # an operation that raises ends the run with a traceback and a
        # non-zero exit, so a run that reports has no failed operation
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_report(tracer, work: Workload, config, name: str, seed: int, tally: Tally):
    import spans

    tracer.write(OUT / f"trace-{name}-seed{seed}.csv")
    context = "train" if work.trains_in_window else "infer"
    metrics = spans.layer_metrics(tracer.spans, context)
    if work.trains_in_window:
        parts = sum(metrics[k] for k in spans.STEP_LAYERS)
        if not abs(parts - metrics["trainer.step_ms"]) <= 1e-9 * metrics["trainer.step_ms"]:
            tally.problems.append(
                f"layer self times sum to {parts} ms, traced step is "
                f"{metrics['trainer.step_ms']} ms"
            )
    metrics["trainer.step_alloc_peak_kb"] = step_alloc_peak_kb(config)
    units = {}
    for key in metrics:
        if key.endswith("_ms"):
            units[key] = "ms"
        elif key.endswith("_kb"):
            units[key] = "kB"
        elif key == "checkpoint.bytes":
            units[key] = "B"
        elif key == "quantizer.kept_per_scored":
            units[key] = "ratio"
        else:
            units[key] = "count"
    return metrics, units


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynavq" / "__init__.py").is_file():
        print(f"error: no dynavq source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
