import copy
from dataclasses import replace

import pytest

from recipegen.dvceval import dvc_eval, reference_df, soda
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
def unmemoized_scores():
    """Per-video ``VIDEO_SCORES`` from the public ``dvc_eval`` and ``soda``,
    with fresh scorers that remember nothing between calls."""

    def score(preds, gts):
        df = reference_df(gts)
        metrics = {
            "bleu4": lambda c, r: bleu4(c, r) if c else 0.0,
            "meteor": lambda c, r: meteor_lite(c, r) if c else 0.0,
            "cider_d": lambda c, r: cider_d(c, r, df),
        }
        rows = []
        for pred, gt in zip(preds, gts):
            row = {f"dvc_eval.{name}": dvc_eval(pred, gt, fn) for name, fn in metrics.items()}
            row["soda.meteor"] = soda(pred, gt, metrics["meteor"])[2]
            row["soda.cider_d"] = soda(pred, gt, metrics["cider_d"])[2]
            row["soda.tiou"] = soda(pred, gt, None)[2]
            rows.append(row)
        return rows

    return score
