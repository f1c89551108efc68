"""Per-layer metrics computed from a traced phase.

Every metric is printed for every workload; a layer the workload does not
exercise reads 0.  ``*_ms`` metrics are mean inclusive milliseconds per call
unless the name says ``per_video``; counts ``per_video`` divide by the videos
the model processed (``training_forward`` plus ``run_inference`` calls).
``perfbench/README.md`` defines each metric and the end-to-end metric it
should move.
"""

from __future__ import annotations

from .tracer import Tracer

# name -> unit; the order is the print order
UNITS = {
    "autodiff.graph_nodes_per_video": "count",
    "autodiff.backward_ms_per_video": "ms",
    "autodiff.ops_per_video": "count",
    "optim.adam_step_ms": "ms",
    "training.validation_share": "ratio",
    "model.training_forward_ms_per_video": "ms",
    "model.event_step_ms": "ms",
    "model.event_steps_per_video": "count",
    "model.generate_sentence_ms": "ms",
    "model.decode_passes_per_sentence": "count",
    "model.steps_per_video": "count",
    "model.tokens_per_sentence": "count",
    "model.max_len_hit_rate": "ratio",
    "model.stop_first_rate": "ratio",
    "layers.mem_transformer_layer_ms.event": "ms",
    "layers.mem_transformer_layer_ms.sentence": "ms",
    "layers.memory_updater_ms": "ms",
    "layers.memory_updater_calls_per_video": "count",
    "layers.mha_ms": "ms",
    "layers.mha_calls_per_video": "count",
    "extended.simulator_ms": "ms",
    "extended.textual_attention_ms": "ms",
    "dvceval.evaluate_corpus_ms_per_video": "ms",
    "textmetrics.cider_d_calls_per_video": "count",
    "oracle.oracle_report_ms_per_video": "ms",
    "synth.ms_per_video": "ms",
    "data.save_ms_per_video": "ms",
    "data.load_ms_per_video": "ms",
    "model.checkpoint_load_s": "s",
    "trace.overhead": "ratio",
}

# the work counts that repeat exactly for a fixed seed and configuration
WORK_COUNTS = (
    "autodiff.graph_nodes_per_video",
    "model.decode_passes_per_sentence",
    "model.steps_per_video",
    "model.tokens_per_sentence",
    "layers.memory_updater_calls_per_video",
)

_SIDES = ("model.event_step", "model.generate_sentence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, start: int, max_sentence_len: int, overhead: float
) -> dict[str, float]:
    """Metrics over spans ``start..`` (the traced measured phase); set-up
    metrics (synth, data, checkpoint load) use every span of the run."""
    children = tracer.children()
    by_name: dict[str, list[int]] = {}
    for idx, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(idx)

    def calls(name: str, first: int = start) -> list[int]:
        return [i for i in by_name.get(name, ()) if i >= first]

    def total_ms(idxs, self_only: bool = False) -> float:
        if self_only:
            return 1e3 * sum(tracer.self_time(i, children) for i in idxs)
        return 1e3 * sum(tracer.duration(i) for i in idxs)

    def mean_ms(idxs) -> float:
        return _ratio(total_ms(idxs), len(idxs))

    def under(idxs, names: tuple[str, ...]) -> list[int]:
        return [i for i in idxs if tracer.ancestor(i, names) >= 0]

    forwards = calls("model.training_forward")
    inferences = calls("model.run_inference")
    videos = len(forwards) + len(inferences)

    graph_nodes = sum(n for i, n in tracer.graph_nodes.items() if i >= start)
    infer_set = set(inferences)
    nograd_in_inference = sum(
        n
        for i, n in tracer.nograd_ops.items()
        if i >= start and (i in infer_set or tracer.ancestor(i, ("model.run_inference",)) >= 0)
    )

    trains = calls("training.train")
    validation = under(
        calls("model.run_inference") + calls("dvceval.evaluate_corpus"), ("training.train",)
    )

    greedy = under(calls("model.generate_sentence"), ("model.run_inference",))
    greedy_set = set(greedy)
    sentence_tf = [
        i for i in calls("layers.mem_transformer") if tracer.ancestor(i, _SIDES) in greedy_set
    ]

    preds = [tracer.kept[i] for i in inferences if tracer.kept[i] is not None]
    sentences = [s for p in preds for s in p.sentences]

    layer_calls = calls("layers.mem_transformer_layer")
    by_side = {side: [] for side in _SIDES}
    for i in layer_calls:
        anc = tracer.ancestor(i, _SIDES)
        if anc >= 0:
            by_side[tracer.names[anc]].append(i)

    scored = calls("dvceval.evaluate_corpus") + calls("oracle.oracle_report")
    scored_videos = sum(tracer.kept[i] for i in scored)
    evals = calls("dvceval.evaluate_corpus")
    reports = calls("oracle.oracle_report")

    def per_kept_video_ms(name: str) -> float:
        idxs = calls(name, 0)
        return _ratio(total_ms(idxs), sum(tracer.kept[i] for i in idxs))

    updaters = calls("layers.memory_updater")
    mhas = calls("layers.mha")
    loads = calls("model.load_checkpoint", 0)

    out = {
        "autodiff.graph_nodes_per_video": _ratio(graph_nodes, len(forwards)),
        "autodiff.backward_ms_per_video": _ratio(
            total_ms(calls("autodiff.backward"), self_only=True), len(forwards)
        ),
        "autodiff.ops_per_video": _ratio(nograd_in_inference, len(inferences)),
        "optim.adam_step_ms": mean_ms(calls("optim.adam_step")),
        "training.validation_share": _ratio(total_ms(validation), total_ms(trains)),
        "model.training_forward_ms_per_video": _ratio(
            total_ms(forwards, self_only=True), len(forwards)
        ),
        "model.event_step_ms": mean_ms(calls("model.event_step")),
        "model.event_steps_per_video": _ratio(len(calls("model.event_step")), videos),
        "model.generate_sentence_ms": mean_ms(greedy),
        "model.decode_passes_per_sentence": _ratio(len(sentence_tf), len(greedy)),
        "model.steps_per_video": _ratio(len(sentences), len(preds)),
        "model.tokens_per_sentence": _ratio(sum(len(s) for s in sentences), len(sentences)),
        "model.max_len_hit_rate": _ratio(
            sum(len(s) >= max_sentence_len for s in sentences), len(sentences)
        ),
        "model.stop_first_rate": _ratio(sum(not p.selections for p in preds), len(preds)),
        "layers.mem_transformer_layer_ms.event": mean_ms(by_side["model.event_step"]),
        "layers.mem_transformer_layer_ms.sentence": mean_ms(by_side["model.generate_sentence"]),
        "layers.memory_updater_ms": mean_ms(updaters),
        "layers.memory_updater_calls_per_video": _ratio(len(updaters), videos),
        "layers.mha_ms": mean_ms(mhas),
        "layers.mha_calls_per_video": _ratio(len(mhas), videos),
        "extended.simulator_ms": mean_ms(calls("extended.simulator")),
        "extended.textual_attention_ms": mean_ms(calls("extended.textual_attention")),
        "dvceval.evaluate_corpus_ms_per_video": _ratio(
            total_ms(evals), sum(tracer.kept[i] for i in evals)
        ),
        "textmetrics.cider_d_calls_per_video": _ratio(
            len(calls("textmetrics.cider_d")), scored_videos
        ),
        "oracle.oracle_report_ms_per_video": _ratio(
            total_ms(reports), sum(tracer.kept[i] for i in reports)
        ),
        "synth.ms_per_video": per_kept_video_ms("synth.generate_world"),
        "data.save_ms_per_video": per_kept_video_ms("data.save_dataset"),
        "data.load_ms_per_video": per_kept_video_ms("data.load_dataset"),
        "model.checkpoint_load_s": _ratio(total_ms(loads) / 1e3, len(loads)),
        "trace.overhead": overhead,
    }
    if list(out) != list(UNITS):
        raise RuntimeError("layer metrics and their units disagree")
    return out
