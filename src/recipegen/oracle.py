"""Oracle selection: per ground-truth step, the candidate with maximum tIoU.

The oracle is both an analysis tool (upper bound on selection quality, tIoU
distributions, candidate-count sweeps) and the source of training labels for
the event selector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import (
    DatasetRecord,
    EventCandidateSet,
    GroundTruthRecipe,
    PredictionRecipe,
    check_int,
    tokenize,
)
from .dvceval import VIDEO_SCORES, mean_scores, reference_df, score_video, sentence_metrics, tiou


@dataclass
class OracleAssignment:
    """Per ground-truth step: the best candidate index and its tIoU."""

    indices: list[int]
    tious: list[float]

    @property
    def duplicate_assignments(self) -> int:
        return len(self.indices) - len(set(self.indices))

    @property
    def mean_tiou(self) -> float:
        return float(np.mean(self.tious)) if self.tious else 0.0


def oracle_select(candidates: EventCandidateSet, gt: GroundTruthRecipe) -> OracleAssignment:
    """Independent per-step argmax of tIoU over the candidate set.

    Candidates may be reused across steps.  Ties break toward the earliest
    candidate start, then the lowest index, so the result is deterministic.
    """
    if len(candidates) == 0:
        raise ValueError(f"{gt.video_id}: oracle selection needs at least one candidate")
    indices, tious = [], []
    for step in gt.steps:
        best_idx, best_key = 0, None
        for idx, ev in enumerate(candidates.events):
            key = (-tiou(ev, step.interval), ev.start, idx)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        indices.append(best_idx)
        tious.append(-best_key[0])
    return OracleAssignment(indices=indices, tious=tious)


def oracle_prediction(
    record: DatasetRecord, mode: str = "gt-sentences"
) -> tuple[PredictionRecipe, OracleAssignment]:
    """PredictionRecipe built from oracle events.

    ``mode="attached"`` pairs each oracle event with the sentence attached to
    that candidate in the dataset file; ``mode="gt-sentences"`` reuses the
    ground-truth sentences (selection-quality-only analysis).
    """
    assignment = oracle_select(record.candidates, record.ground_truth)
    if mode == "attached":
        if record.candidates.sentences is None:
            raise ValueError(
                f"{record.video_id}: dataset has no candidate-attached sentences"
            )
        sentences = [tokenize(record.candidates.sentences[i]) for i in assignment.indices]
    elif mode == "gt-sentences":
        sentences = [list(s.sentence) for s in record.steps]
    else:
        raise ValueError(f"unknown oracle sentence mode: {mode!r}")
    intervals = [record.candidates.events[i] for i in assignment.indices]
    return (
        PredictionRecipe(record.video_id, list(assignment.indices), sentences, intervals),
        assignment,
    )


def tiou_histogram(values: list[float], bin_width: float = 0.1) -> list[tuple[float, float, int]]:
    """Histogram rows (bin_low, bin_high, count); the last bin is closed at 1."""
    n_bins = int(round(1.0 / bin_width))
    counts = [0] * n_bins
    for v in values:
        idx = min(int(v / bin_width), n_bins - 1)
        counts[idx] += 1
    return [
        (round(i * bin_width, 10), round((i + 1) * bin_width, 10), counts[i])
        for i in range(n_bins)
    ]


def oracle_report(records: list[DatasetRecord], mode: str = "gt-sentences") -> dict:
    """Score the oracle selection over a dataset.

    Computes dvc_eval and SODA with every sentence metric, mean per-step
    oracle tIoU, duplicate-assignment counts, and a tIoU histogram with bin
    width 0.1.
    """
    metrics = sentence_metrics(reference_df([r.ground_truth for r in records]))
    return _report(records, mode, metrics)


def _report(records: list[DatasetRecord], mode: str, metrics: dict) -> dict:
    """``oracle_report`` with the given sentence scorers."""
    gts = [r.ground_truth for r in records]
    per_video = []
    all_tious: list[float] = []
    duplicates = 0
    for record, gt in zip(records, gts):
        pred, assignment = oracle_prediction(record, mode=mode)
        all_tious.extend(assignment.tious)
        duplicates += assignment.duplicate_assignments
        row = {
            "video_id": record.video_id,
            "mean_tiou": assignment.mean_tiou,
            "duplicate_assignments": assignment.duplicate_assignments,
        }
        row.update(score_video(pred, gt, metrics))
        per_video.append(row)

    flat = mean_scores(per_video, ("mean_tiou",) + VIDEO_SCORES)
    flat["duplicate_assignments"] = duplicates

    return {
        "metrics": flat,
        "per_video": per_video,
        "histogram": [list(row) for row in tiou_histogram(all_tious)],
        "metadata": {"sentence_mode": mode, "histogram_bin_width": 0.1},
    }


def _stable_permutation(video_id: str, n: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(
        f"{seed}:{video_id}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.permutation(n)


def subset_candidates(record: DatasetRecord, n: int, seed: int = 0) -> DatasetRecord:
    """Deterministic candidate subset of size ``n``.

    Subsets are nested: for the same seed, the size-m subset is contained in
    the size-n subset whenever m <= n, which makes candidate-count sweeps
    monotone by construction.
    """
    check_int("candidate budget", n, 1)
    total = len(record.candidates)
    if n >= total:
        return record
    perm = _stable_permutation(record.video_id, total, seed)
    chosen = sorted(perm[:n])
    events = [record.candidates.events[i] for i in chosen]
    feats = record.candidates.features[chosen]
    sents = (
        [record.candidates.sentences[i] for i in chosen]
        if record.candidates.sentences is not None
        else None
    )
    return DatasetRecord(
        video_id=record.video_id,
        duration=record.duration,
        candidates=EventCandidateSet(events, feats, sentences=sents),
        steps=record.steps,
        ingredients=record.ingredients,
    )


def oracle_sweep(records: list[DatasetRecord], n_list: list[int], seed: int = 0) -> dict:
    """Oracle metrics at nested candidate-count budgets (Table-style sweep).

    Every budget keeps the same ground truth, so one set of scorers serves
    them all."""
    for n in n_list:
        check_int("candidate budget", n, 1)
    metrics = sentence_metrics(reference_df([r.ground_truth for r in records]))
    rows = []
    for n in sorted(n_list):
        subset = [subset_candidates(r, n, seed) for r in records]
        report = _report(subset, "gt-sentences", metrics)
        row = {"n_candidates": n}
        row.update(report["metrics"])
        rows.append(row)
    return {"rows": rows, "metadata": {"nested_subset_seed": seed}}
