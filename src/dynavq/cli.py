"""Command-line operator surface.

Subcommands: train, eval, reconstruct, heatmap, gradcheck, ablate-warmup,
ablate-topk and ablate-diversity. Runs are configured by a plain-text
``key = value`` file; every key has a default, unknown keys are rejected,
and a config plus the code version fully determines a run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from dynavq.checkpoint import load_checkpoint
from dynavq.dataio import load_raster, save_raster
from dynavq.gradsuite import run_suite
from dynavq.metrics import (
    allocation_heatmap,
    centroid_similarity_matrix,
    evaluate_reconstruction,
    rate_distortion,
    write_eval_report,
)
from dynavq.pipeline import Model, forward_image
from dynavq.quantizer import QuantizeMode
from dynavq.trainer import FIELD_TYPES, TrainConfig, build_datasets, run_training


class ConfigError(ValueError):
    pass


def parse_config(path) -> TrainConfig:
    """Parse a ``key = value`` config file into a validated TrainConfig.

    Lines starting with ``#`` (and inline ``#`` comments) are ignored.
    Every key is optional; defaults come from TrainConfig, and each value
    is parsed with the type of its TrainConfig field. Every error is a
    ConfigError naming the file; parse errors also name the line and key.
    """
    values: Dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path}: not UTF-8 text ({err})") from err
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"config {path} line {lineno}: expected 'key = value', got {rawline!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"config {path} line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config {path} line {lineno}: duplicate key {key!r}")
        try:
            values[key] = FIELD_TYPES[key](value)
        except ValueError as err:
            raise ConfigError(
                f"config {path} line {lineno}: key {key!r}: cannot parse {value!r}"
            ) from err
    config = TrainConfig(**values)
    # surface range errors early, tagged with the key name
    try:
        config.validate()
    except ValueError as err:
        raise ConfigError(f"config {path}: {err}") from err
    return config


def _config_help() -> str:
    defaults = TrainConfig()
    lines = ["config keys and defaults:"]
    for f in dataclasses.fields(TrainConfig):
        lines.append(f"  {f.name} = {getattr(defaults, f.name)}")
    return "\n".join(lines)


def _load_config_arg(path: Optional[str]) -> TrainConfig:
    if path is None:
        return TrainConfig()
    return parse_config(path)


def _forced_counts(text: str, model: Model) -> List[int]:
    """The comma-separated ``--forced-n`` counts, each an integer in
    [1, primitives_per_sub]; errors name the flag and the value."""
    limit = model.codebook.primitives_per_sub
    counts = []
    for entry in filter(None, (s.strip() for s in text.split(","))):
        try:
            count = int(entry)
        except ValueError:
            raise ValueError(f"--forced-n: {entry!r} is not an integer count") from None
        if not 1 <= count <= limit:
            raise ValueError(
                f"--forced-n: count {count} must lie in [1, {limit}] "
                "(the checkpoint's primitives per sub-codebook)"
            )
        counts.append(count)
    return counts


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    config = _load_config_arg(args.config)
    ckpt, metrics = run_training(config, resume_from=args.resume)
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config_arg(args.config)
    data = load_checkpoint(args.checkpoint)
    counts = _forced_counts(args.forced_n, data.model)
    _, val = build_datasets(config)
    stats = rate_distortion(data.model, val, counts)
    write_eval_report(args.out, [str(n) for n in counts] + ["adaptive"], stats)
    print(f"report: {args.out}")
    return 0


def _forward_input(args):
    """The checkpoint's model and its forward pass over the ``--input``
    PGM, which must tile into the model's patches."""
    model = load_checkpoint(args.checkpoint).model
    image = load_raster(args.input)
    h, w = image.shape
    patch = model.patch_size
    if h % patch or w % patch:
        raise ValueError(
            f"--input {args.input}: a {h}x{w} image does not tile into "
            f"{patch}x{patch} patches"
        )
    return model, image, forward_image(model, image)


def _cmd_reconstruct(args) -> int:
    model, image, result = _forward_input(args)
    h, w = image.shape
    recon = result.recon_image(h, w, model.patch_size)
    save_raster(np.clip(recon, 0.0, 1.0), args.output)
    print(f"reconstruction: {args.output}")
    return 0


def _cmd_heatmap(args) -> int:
    model, image, result = _forward_input(args)
    h, w = image.shape
    patch = model.patch_size
    allocation_heatmap(result.quant.alloc, h // patch, w // patch, args.output)
    print(f"heatmap: {args.output}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    results = run_suite(seeds=args.seeds)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.report.passed else "FAIL"
        if not r.report.passed:
            failures += 1
        print(
            f"{r.name:<{width}}  seed={r.seed}  {status}  "
            f"max_rel={r.report.max_rel_diff:.3e}  probes={r.report.probe_count}"
        )
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return 0 if failures == 0 else 1


def _run_variant(config: TrainConfig, workdir: Path, tag: str, **overrides) -> Path:
    cfg = replace(
        config,
        metrics_path=str(workdir / f"{tag}_metrics.csv"),
        checkpoint_path=str(workdir / f"{tag}.ckpt"),
        **overrides,
    )
    ckpt, _ = run_training(cfg)
    return ckpt


def _val_stats(config: TrainConfig, ckpt: Path, mode: QuantizeMode):
    _, val = build_datasets(config)
    return evaluate_reconstruction(load_checkpoint(ckpt).model, val, mode)


def _write_rows(path, header: Sequence[str], rows: Sequence[Sequence[object]]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(v) for v in row])


def _cmd_ablate_warmup(args) -> int:
    config = _load_config_arg(args.config)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for tag, frac in (("with_warmup", config.warmup_fraction), ("no_warmup", 0.0)):
        ckpt = _run_variant(config, workdir, tag, warmup_fraction=frac)
        stats = _val_stats(config, ckpt, QuantizeMode.adaptive(config.top_k))
        rows.append([tag, repr(frac), repr(stats.mean_mse), repr(stats.mean_psnr),
                     repr(stats.mean_ssim), repr(stats.mean_count)])
    _write_rows(args.out, ["setting", "warmup_fraction", "val_mse", "psnr",
                           "ssim", "mean_count"], rows)
    print(f"comparison: {args.out}")
    return 0


def _cmd_ablate_topk(args) -> int:
    config = _load_config_arg(args.config)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    variants = [
        ("top1", dict(quantize_mode="top1"), QuantizeMode.top1()),
        ("fixed_top_n", dict(quantize_mode="fixed"),
         QuantizeMode.fixed_top_n(config.fixed_n)),
        ("adaptive", dict(quantize_mode="adaptive"),
         QuantizeMode.adaptive(config.top_k)),
    ]
    rows = []
    for tag, overrides, mode in variants:
        ckpt = _run_variant(config, workdir, tag, **overrides)
        stats = _val_stats(config, ckpt, mode)
        rows.append([tag, repr(stats.mean_mse), repr(stats.mean_psnr),
                     repr(stats.mean_ssim), repr(stats.mean_count)])
    _write_rows(args.out, ["setting", "val_mse", "psnr", "ssim", "mean_count"], rows)
    print(f"comparison: {args.out}")
    return 0


def _cmd_ablate_diversity(args) -> int:
    config = _load_config_arg(args.config)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    weight = config.lambda_dqp if config.lambda_dqp > 0 else 0.25
    rows = []
    for tag, lam in (("no_diversity", 0.0), ("with_diversity", weight)):
        ckpt = _run_variant(config, workdir, tag, lambda_dqp=lam)
        model = load_checkpoint(ckpt).model
        sims = centroid_similarity_matrix(model.codebook)
        off = sims[~np.eye(sims.shape[0], dtype=bool)]
        stats = _val_stats(config, ckpt, QuantizeMode.adaptive(config.top_k))
        rows.append([tag, repr(lam), repr(float(np.mean(np.abs(off)))),
                     repr(stats.mean_mse)])
    _write_rows(args.out, ["setting", "lambda_dqp", "centroid_mean_abs_cos",
                           "val_mse"], rows)
    print(f"comparison: {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynavq",
        description="Adaptive multi-subcodebook vector quantization tokenizer.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training loop from a config file")
    p.add_argument("--config", help="key = value config file (defaults if omitted)")
    p.add_argument("--resume", help="resume from a checkpoint")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the val split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config describing the dataset")
    p.add_argument("--out", default="eval_report.csv")
    p.add_argument("--forced-n", default="1,10",
                   help="comma-separated forced counts to sweep before adaptive")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("reconstruct", help="round-trip a PGM through the tokenizer")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("heatmap", help="export the per-patch allocation heatmap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_heatmap)

    p = sub.add_parser("gradcheck", help="verify all analytic gradients")
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("ablate-warmup", help="train with and without warm-up")
    p.add_argument("--config")
    p.add_argument("--out", default="ablate_warmup.csv")
    p.add_argument("--workdir", default="ablate_warmup_runs")
    p.set_defaults(fn=_cmd_ablate_warmup)

    p = sub.add_parser("ablate-topk", help="train top1 / fixed / adaptive variants")
    p.add_argument("--config")
    p.add_argument("--out", default="ablate_topk.csv")
    p.add_argument("--workdir", default="ablate_topk_runs")
    p.set_defaults(fn=_cmd_ablate_topk)

    p = sub.add_parser("ablate-diversity",
                       help="train with and without the diversity loss")
    p.add_argument("--config")
    p.add_argument("--out", default="ablate_diversity.csv")
    p.add_argument("--workdir", default="ablate_diversity_runs")
    p.set_defaults(fn=_cmd_ablate_diversity)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exit_err:
        return int(exit_err.code or 0)
    try:
        return int(args.fn(args))
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
