"""Event-level evaluation: tIoU, the multi-threshold dvc_eval harness, SODA
story alignment (including the tIoU-only variant), and event-count statistics.

Conventions, also recorded in report metadata:
  * dvc_eval keeps a (prediction, ground-truth) pair at threshold ``t`` only
    when tIoU is strictly greater than ``t``.
  * SODA is single-reference and reported as F-measure; corpus scores are the
    mean of per-video F1.
  * An empty prediction has precision 0 and F1 0.

The protocol is fixed in module constants, which no scorer takes as a
parameter: ``DVC_EVAL_THRESHOLDS`` and ``COUNT_STAT_ETAS`` here, the n-gram
order and CIDEr-D sigma in ``textmetrics`` (``MAX_NGRAM``, ``CIDER_SIGMA``,
which ``REPORT_METADATA`` quotes), and the oracle report's histogram bin width
in ``oracle.HISTOGRAM_BIN_WIDTH``.  SODA reads only the total of the best
order-preserving alignment (``alignment_total``), not the pairs.

A video's tIoU table (``tiou_matrix``) is rows of Python floats, one per
prediction and one entry per ground-truth step, each with the bits of scalar
``tiou``.  ``score_video`` builds it, or takes the one that
``oracle.oracle_report`` and ``oracle.oracle_sweep`` built for the oracle's
ranking, and hands it to dvc_eval and to SODA (which weights new rows).

Each quantity is computed once per report: the report's ``CorpusDF`` makes
each sentence's n-gram profile and TF-IDF vector once, which BLEU-4 and
CIDEr-D share; the scorers of ``sentence_metrics`` remember each (candidate,
reference) pair's score for as long as they live; dvc_eval scores the pairs
above its lowest threshold once and filters that one list per threshold; and
``oracle.oracle_sweep`` shares one set of scorers across its budgets, whose
ground truth is the same.  Nothing is kept between reports.

The scorers are built in the calling process; ``parallel.in_halves`` makes
the per-video rows (the second half in a forked child when two CPUs are
usable, once for all of a sweep's budgets), which are averaged in video order.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .data import GroundTruthRecipe, PredictionRecipe, TimedEvent
from .parallel import in_halves
from .textmetrics import CIDER_SIGMA, CorpusDF, bleu4_from_profiles, build_df, cider_d, meteor_lite

DVC_EVAL_THRESHOLDS = (0.3, 0.5, 0.7, 0.9)
COUNT_STAT_ETAS = (0, 1, 2, 3)

SentenceMetric = Callable[[list[str], list[str]], float]


def tiou(a: TimedEvent, b: TimedEvent) -> float:
    """Temporal intersection over union of two intervals."""
    inter = max(0.0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length + b.length - inter
    return inter / union if union > 0 else 0.0


def tiou_matrix(pred: Sequence[TimedEvent], gt: Sequence[TimedEvent]) -> list[list[float]]:
    """The tIoU table: one row of floats per prediction, ``tiou(pred[i], gt[j])``
    at ``[i][j]``, by ``tiou``'s operations in ``tiou``'s order."""
    columns = [(b.start, b.end, b.length) for b in gt]
    rows = []
    for a in pred:
        start, end, length = a.start, a.end, a.length
        row = []
        for g_start, g_end, g_length in columns:
            inter = max(0.0, min(end, g_end) - max(start, g_start))
            union = length + g_length - inter
            row.append(inter / union if union > 0 else 0.0)
        rows.append(row)
    return rows


def alignment_total(scores: Sequence[Sequence[float]]) -> float:
    """Best total of an order-preserving one-to-one matching of predictions
    (rows) to ground truth (columns), by dynamic program one row at a time;
    ``scores`` has at least one row."""
    prev = [0.0] * (len(scores[0]) + 1)
    for row in scores:
        cur = [0.0]
        for j, score in enumerate(row):
            cur.append(max(prev[j + 1], cur[j], prev[j] + score))
        prev = cur
    return prev[-1]


def soda_from_matrix(scores: Sequence[Sequence[float]]) -> tuple[float, float, float]:
    """Precision, recall, F1 of the optimal monotone alignment of ``scores``
    (one row per prediction)."""
    n_p = len(scores)
    n_g = len(scores[0]) if n_p else 0
    if n_p == 0 or n_g == 0:
        return 0.0, 0.0, 0.0
    total = alignment_total(scores)
    precision = total / n_p
    recall = total / n_g
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _table(pred: PredictionRecipe, gt: GroundTruthRecipe, table: list[list[float]] | None):
    """``table``, or the video's ``tiou_matrix`` when it is None."""
    return tiou_matrix(pred.intervals, [s.interval for s in gt.steps]) if table is None else table


def soda(
    pred: PredictionRecipe,
    gt: GroundTruthRecipe,
    metric: SentenceMetric | None = None,
    table: list[list[float]] | None = None,
) -> tuple[float, float, float]:
    """SODA for one video, over its tIoU table ``table`` (``tiou_matrix`` of
    its intervals unless given).

    Pair scores are ``tiou * metric(pred_sentence, gt_sentence)``, in new rows;
    with ``metric=None`` the score is tIoU alone (the SODA-tIoU variant).
    """
    table = _table(pred, gt, table)
    if metric is not None:
        table = [
            [value * (metric(sent, step.sentence) if sent else 0.0) if value > 0.0 else value
             for value, step in zip(row, gt.steps)]
            for row, sent in zip(table, pred.sentences)
        ]
    return soda_from_matrix(table)


def dvc_eval(
    pred: PredictionRecipe,
    gt: GroundTruthRecipe,
    metric: SentenceMetric,
    table: list[list[float]] | None = None,
) -> float:
    """dvc_eval score for one video: per threshold of ``DVC_EVAL_THRESHOLDS``,
    average the sentence metric over all prediction x ground-truth pairs whose
    tIoU in ``table`` (``tiou_matrix`` of the intervals unless given) exceeds
    it (0 when none qualifies), then average over thresholds."""
    table = _table(pred, gt, table)
    loosest = min(DVC_EVAL_THRESHOLDS)
    scored = [
        (value, metric(sent, step.sentence) if sent else 0.0)
        for row, sent in zip(table, pred.sentences)
        for value, step in zip(row, gt.steps)
        if value > loosest
    ]
    # added in order on every Python (sum() compensates from 3.12 on); so added, the
    # four means are np.mean's bits, as np.add.reduce adds fewer than 8 values in order
    total = 0.0
    for t in DVC_EVAL_THRESHOLDS:
        subtotal, count = 0.0, 0
        for value, score in scored:
            if value > t:
                subtotal += score
                count += 1
        total += subtotal / count if count else 0.0
    return total / len(DVC_EVAL_THRESHOLDS)


def event_count_stats(pairs: Sequence[tuple[int, int]]) -> dict[int, float]:
    """Percentage of (predicted count, ground-truth count) pairs with
    ``|p - q| <= eta``, for each eta of ``COUNT_STAT_ETAS``."""
    return {
        eta: 100.0 * sum(abs(p - q) <= eta for p, q in pairs) / len(pairs) if pairs else 0.0
        for eta in COUNT_STAT_ETAS
    }


# ---------------------------------------------------------------------------
# Corpus-level reports
# ---------------------------------------------------------------------------

REPORT_METADATA = {
    "meteor_variant": "exact-lite",
    "bleu_smoothing": "add-one on n>=2 precisions",
    "dvc_eval_threshold_rule": "tiou strictly greater than threshold",
    "soda_reference_mode": "single-reference",
    "soda_tiou_statistic": "f1",
    "cider_sigma": CIDER_SIGMA,
}


def _memo(metric: SentenceMetric) -> SentenceMetric:
    """``metric`` scoring each distinct (candidate, reference) pair once."""
    scores: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}

    def scored(c: list[str], r: list[str]) -> float:
        key = (tuple(c), tuple(r))
        if key not in scores:
            scores[key] = metric(c, r)
        return scores[key]

    return scored


def sentence_metrics(df: CorpusDF) -> dict[str, SentenceMetric]:
    """The three sentence scorers used by dvc_eval and SODA, with CIDEr-D
    bound to document frequencies from the evaluation references.  Each
    remembers its scores for as long as the returned scorers live, and
    BLEU-4 and CIDEr-D share the sentence profiles that ``df`` keeps."""
    return {
        "bleu4": _memo(
            lambda c, r: bleu4_from_profiles(df.profile(c), df.profile(r)) if c else 0.0
        ),
        "meteor": _memo(lambda c, r: meteor_lite(c, r) if c else 0.0),
        "cider_d": _memo(lambda c, r: cider_d(c, r, df)),
    }


def reference_df(gts: Sequence[GroundTruthRecipe]) -> CorpusDF:
    return build_df([[s.sentence for s in gt.steps] for gt in gts])


VIDEO_SCORES = (
    "dvc_eval.bleu4",
    "dvc_eval.meteor",
    "dvc_eval.cider_d",
    "soda.meteor",
    "soda.cider_d",
    "soda.tiou",
)
# every key of a report's ``metrics``
REPORT_METRICS = VIDEO_SCORES + tuple(f"count_stats.eta{eta}" for eta in COUNT_STAT_ETAS)


def score_video(
    pred: PredictionRecipe,
    gt: GroundTruthRecipe,
    metrics: dict[str, SentenceMetric],
    table: list[list[float]] | None = None,
) -> dict[str, float]:
    """The ``VIDEO_SCORES`` of one video: dvc_eval with every sentence metric,
    and SODA F1 with METEOR, with CIDEr-D and with tIoU alone, all over one
    tIoU table, ``tiou_matrix`` of the video's intervals unless given."""
    table = _table(pred, gt, table)
    row = {f"dvc_eval.{name}": dvc_eval(pred, gt, fn, table) for name, fn in metrics.items()}
    for name in ("meteor", "cider_d"):
        row[f"soda.{name}"] = soda(pred, gt, metrics[name], table)[2]
    row["soda.tiou"] = soda(pred, gt, None, table)[2]
    return row


def mean_scores(per_video: list[dict], keys: Sequence[str]) -> dict[str, float]:
    """Per-key mean over the per-video rows (0 for no rows)."""
    return {
        key: float(np.mean([row[key] for row in per_video])) if per_video else 0.0
        for key in keys
    }


def evaluate_corpus(
    preds: Sequence[PredictionRecipe],
    gts: Sequence[GroundTruthRecipe],
) -> dict:
    """Full metric report over aligned predictions and ground truths.

    Emits flat ``metrics`` keys ``dvc_eval.{bleu4,meteor,cider_d}``,
    ``soda.{meteor,cider_d,tiou}``, and ``count_stats.eta{0..3}``, plus a
    per-video breakdown.
    """
    pred_ids = [p.video_id for p in preds]
    gt_ids = [g.video_id for g in gts]
    if pred_ids != gt_ids:
        missing = sorted(set(gt_ids) - set(pred_ids))
        extra = sorted(set(pred_ids) - set(gt_ids))
        pairs = list(zip_longest(pred_ids, gt_ids, fillvalue="(none)"))
        i = next(i for i, (pred_id, gt_id) in enumerate(pairs) if pred_id != gt_id)
        message = (
            f"prediction/dataset video_id mismatch: missing={missing} extra={extra}; "
            f"position {i}: prediction {pairs[i][0]} vs dataset {pairs[i][1]}"
        )
        for side, ids in (("prediction", pred_ids), ("dataset", gt_ids)):
            repeated = sorted(k for k, count in Counter(ids).items() if count > 1)
            if repeated:
                message += f"; repeated {side} ids {repeated}"
        raise ValueError(message)

    metrics = sentence_metrics(reference_df(gts))

    def rows(pairs):
        return [
            {"video_id": pred.video_id, **score_video(pred, gt, metrics),
             "n_predicted": len(pred.selections), "n_ground_truth": len(gt.steps)}
            for pred, gt in pairs
        ]

    per_video = sum(in_halves(rows, list(zip(preds, gts))), [])

    flat = mean_scores(per_video, VIDEO_SCORES)
    count_pairs = [(row["n_predicted"], row["n_ground_truth"]) for row in per_video]
    for eta, pct in event_count_stats(count_pairs).items():
        flat[f"count_stats.eta{eta}"] = pct

    return {"metrics": flat, "per_video": per_video, "metadata": dict(REPORT_METADATA)}
