"""Golden outputs of the model-free score path on one fixed world.

The dataset digest, the oracle report in both sentence modes, the oracle
sweep at three budgets and the corpus evaluation of the oracle predictions
must equal, float for float, the values below. They were recorded before the
score path learned to compute each per-sentence and per-world quantity once,
so a change that keeps its outputs must pass this file unedited.
"""

import pytest

from recipegen.dvceval import evaluate_corpus
from recipegen.oracle import oracle_prediction, oracle_report, oracle_sweep
from recipegen.synth import WorldConfig, generate_world
from recipegen.training import dataset_digest

DIGEST = "004c4d8a17902776"

# in this world every attached sentence is its step's, so both modes agree
ORACLE = {
    "mean_tiou": 0.9198777293871533,
    "dvc_eval.bleu4": 1.0,
    "dvc_eval.meteor": 0.994459412240792,
    "dvc_eval.cider_d": 9.58671875,
    "soda.meteor": 0.9147958760408652,
    "soda.cider_d": 8.814764254663354,
    "soda.tiou": 0.9198777293871533,
    "duplicate_assignments": 0,
}

SWEEP = [
    {
        "n_candidates": 4,
        "mean_tiou": 0.5595291942106971,
        "dvc_eval.bleu4": 0.8235968298579674,
        "dvc_eval.meteor": 0.8271902304274132,
        "dvc_eval.cider_d": 7.682979129350656,
        "soda.meteor": 0.5562520062460484,
        "soda.cider_d": 5.3533826325817255,
        "soda.tiou": 0.5595291942106971,
        "duplicate_assignments": 36,
    },
    {
        "n_candidates": 6,
        "mean_tiou": 0.6970346720771745,
        "dvc_eval.bleu4": 0.9143317607648516,
        "dvc_eval.meteor": 0.9103717170120531,
        "dvc_eval.cider_d": 8.666401706948552,
        "soda.meteor": 0.6932562499651039,
        "soda.cider_d": 6.688354085826714,
        "soda.tiou": 0.6970346720771745,
        "duplicate_assignments": 15,
    },
    {
        "n_candidates": 8,
        "mean_tiou": 0.8173888206934053,
        "dvc_eval.bleu4": 0.9636624726996038,
        "dvc_eval.meteor": 0.9603733713805334,
        "dvc_eval.cider_d": 9.172451796400555,
        "soda.meteor": 0.8127894837889134,
        "soda.cider_d": 7.822261666309811,
        "soda.tiou": 0.8173888206934053,
        "duplicate_assignments": 7,
    },
]

EVALUATED = {
    "dvc_eval.bleu4": 1.0,
    "dvc_eval.meteor": 0.994459412240792,
    "dvc_eval.cider_d": 9.58671875,
    "soda.meteor": 0.9147958760408652,
    "soda.cider_d": 8.814764254663354,
    "soda.tiou": 0.9198777293871533,
    "count_stats.eta0": 100.0,
    "count_stats.eta1": 100.0,
    "count_stats.eta2": 100.0,
    "count_stats.eta3": 100.0,
}


@pytest.fixture(scope="module")
def records():
    return generate_world(WorldConfig(num_videos=40, seed=3))


def test_dataset_digest(records):
    assert dataset_digest(records) == DIGEST


@pytest.mark.parametrize("mode", ["gt-sentences", "attached"])
def test_oracle_report(records, mode):
    assert oracle_report(records, mode=mode)["metrics"] == ORACLE


def test_oracle_sweep(records):
    assert oracle_sweep(records, [4, 6, 8])["rows"] == SWEEP


def test_evaluate_corpus_of_oracle_predictions(records):
    preds = [oracle_prediction(r)[0] for r in records]
    assert evaluate_corpus(preds, [r.ground_truth for r in records])["metrics"] == EVALUATED
