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
ranking, and walks it once (``_walk``): METEOR and CIDEr-D score each pair
with tIoU > 0 once, and BLEU-4 each pair above the loosest threshold, with
each sentence made its memo key once.  From that pass come dvc_eval's
threshold means for all three metrics (``_threshold_means``) and SODA's
three alignment totals, METEOR- and CIDEr-D-weighted and tIoU alone, from
one dynamic program over the rows (``_alignment_totals``).  ``dvc_eval``
and ``soda`` are the same pass and the same two rules over one metric.

Each quantity is computed once per report: the report's ``CorpusDF`` holds
each n-gram's IDF and makes each sentence's n-gram profile and TF-IDF vector
once, which BLEU-4 and CIDEr-D share; the scorers of ``sentence_metrics``
remember each (candidate, reference) pair's score for as long as they live;
and ``oracle.oracle_sweep`` shares one set of scorers across its budgets,
whose ground truth is the same.  Nothing is kept between reports.

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


def _alignment_totals(tables: Sequence[Sequence[Sequence[float]]]) -> list[float]:
    """Best total of an order-preserving one-to-one matching of predictions
    (rows) to ground truth (columns) in each of ``tables``, which share one
    shape with at least one row, by one dynamic program over their rows."""
    prevs = [[0.0] * (len(tables[0][0]) + 1) for _ in tables]
    for rows in zip(*tables):
        for k, row in enumerate(rows):
            prev = prevs[k]
            cur = [left := 0.0]
            # each cell is max(up, left, diag + score), the first of equals kept
            for diag, up, score in zip(prev, prev[1:], row):
                if left > up:
                    up = left
                if (diag := diag + score) > up:
                    up = diag
                cur.append(left := up)
            prevs[k] = cur
    return [prev[-1] for prev in prevs]


def alignment_total(scores: Sequence[Sequence[float]]) -> float:
    """The best order-preserving matching's total of one table ``scores``,
    which has at least one row."""
    return _alignment_totals([scores])[0]


def _soda_from_matrices(tables: Sequence[Sequence[Sequence[float]]]) -> list[tuple[float, float, float]]:
    """``soda_from_matrix`` of each of ``tables``, which share one shape."""
    n_p = len(tables[0])
    n_g = len(tables[0][0]) if n_p else 0
    if n_p == 0 or n_g == 0:
        return [(0.0, 0.0, 0.0) for _ in tables]
    scores = []
    for total in _alignment_totals(tables):
        precision = total / n_p
        recall = total / n_g
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        scores.append((precision, recall, f1))
    return scores


def soda_from_matrix(scores: Sequence[Sequence[float]]) -> tuple[float, float, float]:
    """Precision, recall, F1 of the optimal monotone alignment of ``scores``
    (one row per prediction)."""
    return _soda_from_matrices([scores])[0]


def _table(pred: PredictionRecipe, gt: GroundTruthRecipe, table: list[list[float]] | None):
    """``table``, or the video's ``tiou_matrix`` when it is None."""
    return tiou_matrix(pred.intervals, [s.interval for s in gt.steps]) if table is None else table


def _walk(
    table: Sequence[Sequence[float]],
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    soda_metrics: list[SentenceMetric],
    dvc_metrics: list[SentenceMetric],
) -> tuple[list[list[list[float]]], list[float], list[list[float]]]:
    """One pass over the tIoU ``table`` of ``candidates`` (one sentence per
    row) against ``references`` (one per column).

    Each of ``soda_metrics`` scores every pair with tIoU > 0 once, and each of
    ``dvc_metrics`` every pair above the loosest threshold of
    ``DVC_EVAL_THRESHOLDS``; an empty candidate scores 0.0 without a call.
    Returns, per SODA metric, SODA's pair scores (``tiou * score`` where tIoU
    > 0, else the tIoU), in new rows; then the tIoUs above the loosest
    threshold in row order, and per metric (SODA's first) their scores.
    """
    loosest = min(DVC_EVAL_THRESHOLDS)
    weighted = [[] for _ in soda_metrics]
    values: list[float] = []
    columns = [[] for _ in (*soda_metrics, *dvc_metrics)]
    for row, cand in zip(table, candidates):
        new_rows = [list(row) for _ in soda_metrics]
        for j, value in enumerate(row):
            if value > 0.0:
                ref = references[j]
                scores = [metric(cand, ref) if cand else 0.0 for metric in soda_metrics]
                for new, score in zip(new_rows, scores):
                    new[j] = value * score
                if value > loosest:
                    values.append(value)
                    scores += [metric(cand, ref) if cand else 0.0 for metric in dvc_metrics]
                    for column, score in zip(columns, scores):
                        column.append(score)
        for rows, new in zip(weighted, new_rows):
            rows.append(new)
    return weighted, values, columns


def _threshold_means(values: list[float], columns: list[list[float]]) -> list[float]:
    """dvc_eval of each column of scores of the pairs whose tIoUs are
    ``values``: per threshold of ``DVC_EVAL_THRESHOLDS``, the mean of the
    scores whose tIoU exceeds it (0 when none does), then the mean over
    thresholds."""
    # added in order on every Python (sum() compensates from 3.12 on); so added, the
    # four means are np.mean's bits, as np.add.reduce adds fewer than 8 values in order
    totals = [0.0] * len(columns)
    for t in DVC_EVAL_THRESHOLDS:
        kept = [i for i, value in enumerate(values) if value > t]
        for k, column in enumerate(columns):
            subtotal = 0.0
            for i in kept:
                subtotal += column[i]
            totals[k] += subtotal / len(kept) if kept else 0.0
    return [total / len(DVC_EVAL_THRESHOLDS) for total in totals]


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
        (table,), _, _ = _walk(table, pred.sentences, [s.sentence for s in gt.steps], [metric], [])
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
    _, values, columns = _walk(table, pred.sentences, [s.sentence for s in gt.steps], [], [metric])
    return _threshold_means(values, columns)[0]


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


class _Memo:
    """``metric`` scoring each distinct (candidate, reference) pair once;
    ``keyed`` takes the pair as its two token tuples, the memo key's parts."""

    def __init__(self, metric: SentenceMetric):
        self.metric = metric
        self.scores: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}

    def __call__(self, c: list[str], r: list[str]) -> float:
        return self.keyed(tuple(c), tuple(r))

    def keyed(self, c: tuple[str, ...], r: tuple[str, ...]) -> float:
        if (score := self.scores.get(key := (c, r))) is None:
            score = self.scores[key] = self.metric(c, r)
        return score


def sentence_metrics(df: CorpusDF) -> dict[str, _Memo]:
    """The three sentence scorers used by dvc_eval and SODA, with CIDEr-D
    bound to document frequencies from the evaluation references.  Each
    remembers its scores for as long as the returned scorers live, and
    BLEU-4 and CIDEr-D share the sentence profiles that ``df`` keeps."""
    return {
        "bleu4": _Memo(
            lambda c, r: bleu4_from_profiles(df.profile(c), df.profile(r)) if c else 0.0
        ),
        "meteor": _Memo(lambda c, r: meteor_lite(c, r) if c else 0.0),
        "cider_d": _Memo(lambda c, r: cider_d(c, r, df)),
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
    metrics: dict[str, _Memo],
    table: list[list[float]] | None = None,
) -> dict[str, float]:
    """The ``VIDEO_SCORES`` of one video: dvc_eval with BLEU-4, METEOR and
    CIDEr-D, the scorers ``metrics`` of ``sentence_metrics``, and SODA F1 with
    METEOR, with CIDEr-D and with tIoU alone, all from one pass over one tIoU
    table, ``tiou_matrix`` of the video's intervals unless given; each
    sentence is made a memo key once."""
    table = _table(pred, gt, table)
    (meteor_rows, cider_rows), values, columns = _walk(
        table,
        [tuple(sent) for sent in pred.sentences],
        [tuple(step.sentence) for step in gt.steps],
        [metrics["meteor"].keyed, metrics["cider_d"].keyed],
        [metrics["bleu4"].keyed],
    )
    meteor, cider, bleu = _threshold_means(values, columns)
    (*_, soda_meteor), (*_, soda_cider), (*_, soda_tiou) = _soda_from_matrices(
        [meteor_rows, cider_rows, table]
    )
    return {
        "dvc_eval.bleu4": bleu,
        "dvc_eval.meteor": meteor,
        "dvc_eval.cider_d": cider,
        "soda.meteor": soda_meteor,
        "soda.cider_d": soda_cider,
        "soda.tiou": soda_tiou,
    }


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
