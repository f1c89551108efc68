"""In-memory span tracer and the wrappers that feed it.

The tracer records one span per call of a wrapped library callable: its name,
start, end and the index of the enclosing span.  Spans stay in memory; the
benchmark turns them into per-layer metrics after the traced phase.

Wrappers are installed from outside the library by ``traced(...)`` and removed
when the context exits, so untraced runs execute the library unmodified.  A
name that a module imported from another (``training.evaluate_corpus``) is
patched where it is used, next to the defining module.

Besides spans the tracer counts autodiff operations: every call of
``Tensor._result`` is one operation, and it is a graph node when its output
records a parent for ``backward``.  Counts are attributed to the innermost
open span, so they can be summed over any subtree.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _prediction(args, result):
    return result


def _per_video_len(args, result):
    return len(result["per_video"])


# (attribute owner, attribute name, span name, what the span keeps of the
# call).  The owner is resolved against the library modules in ``_targets``.
_SPANS = (
    ("synth", "generate_world", "synth.generate_world", _result_len),
    ("data", "save_dataset", "data.save_dataset", _first_len),
    ("data", "load_dataset", "data.load_dataset", _result_len),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("training", "train", "training.train", None),
    ("model.RecipeModel", "training_forward", "model.training_forward", None),
    ("model.RecipeModel", "run_inference", "model.run_inference", _prediction),
    ("model.RecipeModel", "event_step", "model.event_step", None),
    ("model.RecipeModel", "generate_sentence", "model.generate_sentence", None),
    ("autodiff.Tensor", "backward", "autodiff.backward", None),
    ("optim.Adam", "step", "optim.adam_step", None),
    ("layers.MemTransformer", "__call__", "layers.mem_transformer", None),
    ("layers.MemTransformerLayer", "__call__", "layers.mem_transformer_layer", None),
    ("layers.MemoryUpdater", "__call__", "layers.memory_updater", None),
    ("layers.MultiHeadAttention", "__call__", "layers.mha", None),
    ("extended.DotProductSimulator", "step", "extended.simulator", None),
    ("extended.TextualAttention", "__call__", "extended.textual_attention", None),
    ("dvceval", "evaluate_corpus", "dvceval.evaluate_corpus", _per_video_len),
    ("training", "evaluate_corpus", "dvceval.evaluate_corpus", _per_video_len),
    ("oracle", "oracle_report", "oracle.oracle_report", _per_video_len),
    ("oracle", "oracle_sweep", "oracle.oracle_sweep", None),
    ("dvceval", "cider_d", "textmetrics.cider_d", None),
)


class Tracer:
    """Spans as parallel lists (name, start, end, parent, kept value) plus
    per-span autodiff operation counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kept: list[object] = []
        self.stack: list[int] = [-1]
        self.graph_nodes: dict[int, int] = defaultdict(int)
        self.nograd_ops: dict[int, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.kept.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, kept=None) -> None:
        self.ends[idx] = time.perf_counter()
        self.kept[idx] = kept
        self.stack.pop()

    def count_op(self, is_node: bool) -> None:
        (self.graph_nodes if is_node else self.nograd_ops)[self.stack[-1]] += 1

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            out[parent].append(idx)
        return out

    def self_time(self, idx: int, children: dict[int, list[int]]) -> float:
        return self.duration(idx) - sum(self.duration(c) for c in children.get(idx, ()))

    def ancestor(self, idx: int, names: tuple[str, ...]) -> int:
        """Index of the nearest enclosing span named one of ``names``, or -1."""
        idx = self.parents[idx]
        while idx >= 0 and self.names[idx] not in names:
            idx = self.parents[idx]
        return idx


def _span_wrapper(fn, name: str, keep, tracer: Tracer):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        kept = None
        try:
            result = fn(*args, **kwargs)
            if keep is not None:
                kept = keep(args, result)
            return result
        finally:
            tracer.close(idx, kept)

    wrapper.__wrapped__ = fn
    return wrapper


def _result_wrapper(fn, tracer: Tracer):
    def _result(data, parents, vjp):
        out = fn(data, parents, vjp)
        tracer.count_op(out.requires_grad)
        return out

    return staticmethod(_result)


def _targets(lib: dict) -> list[tuple]:
    out = []
    for owner, attr, name, keep in _SPANS:
        module, _, cls = owner.partition(".")
        obj = lib[module]
        if cls:
            obj = getattr(obj, cls)
        out.append((obj, attr, name, keep))
    return out


@contextlib.contextmanager
def traced(lib: dict, tracer: Tracer):
    """Install the wrappers on the library modules in ``lib`` (name -> module)
    for the duration of the block; restore the originals on exit."""
    saved = []
    try:
        for obj, attr, name, keep in _targets(lib):
            original = obj.__dict__[attr]
            saved.append((obj, attr, original))
            setattr(obj, attr, _span_wrapper(original, name, keep, tracer))
        tensor = lib["autodiff"].Tensor
        original = tensor.__dict__["_result"]
        saved.append((tensor, "_result", original))
        tensor._result = _result_wrapper(original.__func__, tracer)
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
