"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public dynavq functions at the name their caller
binds (``dynavq.pipeline.quantize`` is what ``forward_image`` calls,
``dynavq.trainer.quantize_backward`` what ``train_step`` calls) with a
wrapper that records a span: layer name, start, end and parent span.
Nothing inside ``src/dynavq`` changes. Spans stay in memory until the run
ends; ``layer_metrics`` then turns them into per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute, layer). A layer may own several bindings.
BINDINGS = [
    ("dynavq.pipeline", "forward_image", "pipeline"),
    ("dynavq.trainer", "forward_image", "pipeline"),
    ("dynavq.metrics", "forward_image", "pipeline"),
    ("dynavq.pipeline", "encode", "autoencoder.encode"),
    ("dynavq.pipeline", "mlp_forward", "autoencoder.decode"),
    ("dynavq.pipeline", "allocator_forward", "allocator.forward"),
    ("dynavq.pipeline", "quantize", "quantizer.forward"),
    ("dynavq.trainer", "quantize_backward", "quantizer.backward"),
    ("dynavq.trainer", "commitment_loss", "quantizer.commit"),
    ("dynavq.trainer", "allocator_backward", "allocator.backward"),
    ("dynavq.trainer", "ratio_target", "allocator.target_loss"),
    ("dynavq.trainer", "dpa_loss", "allocator.target_loss"),
    ("dynavq.trainer", "mlp_backward", "autoencoder.backward"),
    ("dynavq.trainer", "centroids", "codebook.diversity"),
    ("dynavq.trainer", "diversity_loss", "codebook.diversity"),
    ("dynavq.trainer", "diversity_grad_entries", "codebook.diversity"),
    ("dynavq.trainer", "apply_codebook_grads", "codebook.update"),
    ("dynavq.trainer", "train_step", "trainer.step"),
    ("dynavq.trainer", "run_training", "trainer.run"),
    ("dynavq.trainer", "save_checkpoint", "checkpoint.save"),
    ("dynavq.trainer", "gen_synthetic", "dataio.gen_synthetic"),
    ("dynavq.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("dynavq.metrics", "evaluate_reconstruction", "metrics"),
]

#: Layers reported by self time under another name than ``<layer>_ms``.
SELF_METRIC = {
    "trainer.step": "trainer.self_ms",
    "trainer.run": "trainer.loop_ms",
    "pipeline": "pipeline.self_ms",
    "metrics": "metrics.self_ms",
}

#: Layers reported per call rather than per unit of work.
PER_CALL = ("checkpoint.save", "checkpoint.load", "dataio.gen_synthetic")

TRAIN_ROOTS = ("trainer.run", "trainer.step")

#: The layers that run inside train_step; in the train context their self
#: times add up to trainer.step_ms.
STEP_LAYERS = (
    "quantizer.forward_ms", "quantizer.backward_ms", "quantizer.commit_ms",
    "allocator.forward_ms", "allocator.backward_ms", "allocator.target_loss_ms",
    "autoencoder.encode_ms", "autoencoder.decode_ms", "autoencoder.backward_ms",
    "codebook.diversity_ms", "codebook.update_ms", "trainer.adam_ms",
    "trainer.self_ms", "pipeline.self_ms",
)


def _quantize_counts(out, args) -> tuple:
    """(codes scored, codes kept, rows quantized) of one quantize call."""
    cb = args[1]
    rows = out.alloc.counts.size * cb.subcodebooks
    kept = int(out.alloc.counts.sum()) * cb.subcodebooks
    return (rows * cb.primitives_per_sub, kept, rows)


def _checkpoint_bytes(out, args) -> int:
    return os.path.getsize(args[0])


class Tracer:
    """Records spans as ``[layer, start, end, parent index, extra]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, fn: Callable, layer: str, extra: Optional[Callable] = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[4] = extra(out, args)
            return out

        return traced

    def install(self) -> None:
        extras = {"quantizer.forward": _quantize_counts, "checkpoint.save": _checkpoint_bytes}
        for mod_name, attr, layer in BINDINGS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, layer, extras.get(layer)))
        # every Adam update goes through the rule AdamState.step_rule returns
        adam = importlib.import_module("dynavq.trainer").AdamState
        orig_rule = adam.step_rule
        wrap = self._wrap

        def step_rule(opt, name, learning_rate):
            return wrap(orig_rule(opt, name, learning_rate), "trainer.adam")

        self._undo.append((adam, "step_rule", orig_rule))
        adam.step_rule = step_rule

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,layer,start_s,end_s,parent\n")
            for i, (layer, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{layer},{start!r},{end!r},{parent}\n")


def layer_metrics(spans: List[list], main_context: str) -> Dict[str, float]:
    """Per-layer figures from a finished trace.

    A span belongs to the "train" context when it runs inside
    ``run_training`` or ``train_step`` and to "infer" otherwise. Times are
    self times (a span's duration minus its children's) in ms per train
    step in the train context and per ``forward_image`` call in the infer
    context. Each layer is reported from ``main_context`` and falls back to
    the other context when it never runs in the main one. Checkpoint and
    data-generation layers are reported per call.
    """
    n = len(spans)
    child = np.zeros(n)
    context = [""] * n
    for i, (layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        in_train = layer in TRAIN_ROOTS or (parent >= 0 and context[parent] == "train")
        context[i] = "train" if in_train else "infer"

    self_ms: Dict[tuple, float] = {}
    total_ms: Dict[tuple, float] = {}
    calls: Dict[tuple, int] = {}
    for i, (layer, start, end, parent, _) in enumerate(spans):
        key = (layer, context[i])
        self_ms[key] = self_ms.get(key, 0.0) + (end - start - child[i]) * 1e3
        total_ms[key] = total_ms.get(key, 0.0) + (end - start) * 1e3
        calls[key] = calls.get(key, 0) + 1
    units = {
        "train": calls.get(("trainer.step", "train"), 0),
        "infer": calls.get(("pipeline", "infer"), 0),
    }
    other = "infer" if main_context == "train" else "train"

    def pick(layer):
        for ctx in (main_context, other):
            if calls.get((layer, ctx)) and units[ctx]:
                return ctx
        return None

    out: Dict[str, float] = {}
    for layer in sorted({b[2] for b in BINDINGS} | {"trainer.adam"}):
        if layer in PER_CALL:
            n_calls = sum(c for k, c in calls.items() if k[0] == layer)
            ms = sum(t for k, t in total_ms.items() if k[0] == layer)
            out[f"{layer}_ms"] = ms / n_calls if n_calls else 0.0
        else:
            ctx = pick(layer)
            ms = self_ms[(layer, ctx)] / units[ctx] if ctx else 0.0
            out[SELF_METRIC.get(layer, f"{layer}_ms")] = ms
    step_ctx = pick("trainer.step")
    out["trainer.step_ms"] = (
        total_ms[("trainer.step", step_ctx)] / units[step_ctx] if step_ctx else 0.0
    )

    q_ctx = pick("quantizer.forward")
    q = [s[4] for i, s in enumerate(spans) if s[0] == "quantizer.forward" and context[i] == q_ctx]
    scored = sum(e[0] for e in q)
    kept = sum(e[1] for e in q)
    rows = sum(e[2] for e in q)
    unit = units[q_ctx] if q_ctx else 1
    out["quantizer.calls"] = len(q) / unit
    out["quantizer.codes_scored"] = scored / unit
    out["quantizer.codes_kept"] = kept / unit
    out["quantizer.kept_per_scored"] = kept / scored if scored else 0.0
    out["allocator.mean_count"] = kept / rows if rows else 0.0
    saves = [s[4] for s in spans if s[0] == "checkpoint.save"]
    out["checkpoint.bytes"] = float(np.mean(saves)) if saves else 0.0
    return out
