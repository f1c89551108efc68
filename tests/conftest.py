import copy
from dataclasses import replace

import pytest

from recipegen.dvceval import (
    DVC_EVAL_THRESHOLDS,
    reference_df,
    score_video,
    soda_from_matrix,
    tiou,
    tiou_matrix,
)
from recipegen.synth import WorldConfig, generate_world
from recipegen.textmetrics import bleu4, cider_d, meteor_lite


@pytest.fixture
def repeated_world():
    """A synthetic world plus renamed copies of three of its videos, so that
    the same (candidate, reference) sentence pairs recur across videos."""
    records = generate_world(WorldConfig(num_videos=8, seed=5))
    copies = [replace(copy.deepcopy(r), video_id=f"{r.video_id}_again") for r in records[:3]]
    return records + copies


@pytest.fixture
def one_metric_scores():
    """``score_video`` of one video over its ``tiou_matrix``, with one sentence
    metric under all three scorer names: every ``dvc_eval.*`` score is the
    metric's threshold mean, and ``soda.meteor`` and ``soda.cider_d`` its SODA F1."""

    def score(pred, gt, metric):
        table = tiou_matrix(pred.intervals, [step.interval for step in gt.steps])
        return score_video(pred, gt, dict.fromkeys(("bleu4", "meteor", "cider_d"), metric), table)

    return score


@pytest.fixture
def unmemoized_scores():
    """Per-video ``VIDEO_SCORES`` by dvc_eval's threshold rule and SODA's
    weighting written out here with plain loops, adding in the same order,
    over scalar ``tiou``; only SODA's DP is ``soda_from_matrix``, which
    ``TestDpAlignment`` checks by enumeration.  The scorers are fresh and
    remember nothing between calls, and an empty candidate scores 0.0."""

    def score(preds, gts):
        df = reference_df(gts)
        metrics = {"bleu4": bleu4, "meteor": meteor_lite, "cider_d": lambda c, r: cider_d(c, r, df)}
        rows = []
        for pred, gt in zip(preds, gts):
            row = {}
            for name, metric in metrics.items():
                total = 0.0
                for t in DVC_EVAL_THRESHOLDS:
                    subtotal, kept = 0.0, 0
                    for a, sent in zip(pred.intervals, pred.sentences):
                        for step in gt.steps:
                            if tiou(a, step.interval) > t:
                                subtotal += metric(sent, step.sentence) if sent else 0.0
                                kept += 1
                    total += subtotal / kept if kept else 0.0
                row[f"dvc_eval.{name}"] = total / len(DVC_EVAL_THRESHOLDS)
            for name in ("meteor", "cider_d", "tiou"):
                weighted = []
                for a, sent in zip(pred.intervals, pred.sentences):
                    weighted.append([])
                    for step in gt.steps:
                        value = tiou(a, step.interval)
                        if name != "tiou" and value > 0.0:
                            value *= metrics[name](sent, step.sentence) if sent else 0.0
                        weighted[-1].append(value)
                row[f"soda.{name}"] = soda_from_matrix(weighted)[2]
            rows.append(row)
        return rows

    return score
