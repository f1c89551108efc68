"""Golden outputs of one fixed float64 training recipe, for each variant.

Each variant trains for two epochs on a 12-video world. The per-epoch loss and
validation log, the chosen epoch and the greedy decodes of the validation
videos must match the values below, which were recorded before the model's
never-varied ablation switches were fixed to their one used value. A change
that keeps the model's outputs must pass this file unedited.

The initial parameters of each variant, in float64 and float32, are pinned by
a digest over every parameter's name, dtype and bytes, recorded before the
layers stopped taking a dtype.
"""

import hashlib

import pytest

from recipegen.data import Vocabulary
from recipegen.model import ModelConfig, RecipeModel
from recipegen.synth import DEFAULT_ACTIONS, WorldConfig, generate_world
from recipegen.training import ExperimentConfig, split_dataset, train

# per variant: the chosen epoch, the log rows, and for each validation video
# its (selected candidate, decoded sentence) pairs in decoding order
GOLDEN = {"B": {"best_epoch": 1,
       "log_rows": [{"epoch": 0,
                     "loss": 121.13610857300793,
                     "loss_event": 11.378370531634276,
                     "loss_sentence": 109.75773804137366,
                     "loss_vsim": 0.0,
                     "loss_tattn": 0.0,
                     "val.soda.tiou": 0.4462152507107198,
                     "val.soda.cider_d": 0.0,
                     "val.soda.meteor": 0.043571275116831745,
                     "val.count_stats.eta1": 0.0},
                    {"epoch": 1,
                     "loss": 111.04338189407997,
                     "loss_event": 11.038123305017352,
                     "loss_sentence": 100.00525858906262,
                     "loss_vsim": 0.0,
                     "loss_tattn": 0.0,
                     "val.soda.tiou": 0.0,
                     "val.soda.cider_d": 0.0,
                     "val.soda.meteor": 0.0,
                     "val.count_stats.eta1": 0.0}],
       "predictions": {"video_0009": [], "video_0011": []}},
 "BI": {"best_epoch": 1,
        "log_rows": [{"epoch": 0,
                      "loss": 119.29182616177096,
                      "loss_event": 11.210369064100522,
                      "loss_sentence": 108.08145709767044,
                      "loss_vsim": 0.0,
                      "loss_tattn": 0.0,
                      "val.soda.tiou": 0.0,
                      "val.soda.cider_d": 0.0,
                      "val.soda.meteor": 0.0,
                      "val.count_stats.eta1": 0.0},
                     {"epoch": 1,
                      "loss": 110.82010567424213,
                      "loss_event": 10.74189342207549,
                      "loss_sentence": 100.07821225216665,
                      "loss_vsim": 0.0,
                      "loss_tattn": 0.0,
                      "val.soda.tiou": 0.11750554202144745,
                      "val.soda.cider_d": 0.0,
                      "val.soda.meteor": 0.018651673336737687,
                      "val.count_stats.eta1": 0.0}],
        "predictions": {"video_0009": [],
                        "video_0011": [(0, "the the the the the the the the the"),
                                       (4, "the the the the the the the the the"),
                                       (1, "the the the the the the the the the")]}},
 "BIV": {"best_epoch": 1,
         "log_rows": [{"epoch": 0,
                       "loss": 147.88293203008635,
                       "loss_event": 15.686939835227264,
                       "loss_sentence": 108.78530785002059,
                       "loss_vsim": 23.410684344838554,
                       "loss_tattn": 0.0,
                       "val.soda.tiou": 0.29836714499792016,
                       "val.soda.cider_d": 0.0,
                       "val.soda.meteor": 0.03339379676061615,
                       "val.count_stats.eta1": 0.0},
                      {"epoch": 1,
                       "loss": 132.40098128052796,
                       "loss_event": 10.210231246762271,
                       "loss_sentence": 99.876401310455,
                       "loss_vsim": 22.31434872331069,
                       "loss_tattn": 0.0,
                       "val.soda.tiou": 0.44407669085556456,
                       "val.soda.cider_d": 0.0,
                       "val.soda.meteor": 0.054587997550944706,
                       "val.count_stats.eta1": 50.0}],
         "predictions": {"video_0009": [(0, "the the the the the the the the the"),
                                        (6,
                                         "the the the the the the the the the the the the the "
                                         "the the"),
                                        (5,
                                         "the the the the the the the the the the the the the "
                                         "the the the"),
                                        (4,
                                         "the the the the the the the the the the the the the "
                                         "the the the")],
                         "video_0011": [(0, "the the the the the the the the the"),
                                        (4, "the the the the the the the the"),
                                        (5, "the the the the"),
                                        (3, "the the the the the the the the"),
                                        (2, "the the the the the the the the the the"),
                                        (9,
                                         "the the the the the the the the the the the the the "
                                         "the the the the the the the")]}},
 "BIVT": {"best_epoch": 0,
          "log_rows": [{"epoch": 0,
                        "loss": 186.91876561260273,
                        "loss_event": 10.978476353122034,
                        "loss_sentence": 135.51340756630495,
                        "loss_vsim": 23.1891334482339,
                        "loss_tattn": 17.237748244941873,
                        "val.soda.tiou": 0.49338592065918657,
                        "val.soda.cider_d": 0.00012358128093472893,
                        "val.soda.meteor": 0.01941307885727587,
                        "val.count_stats.eta1": 0.0},
                       {"epoch": 1,
                        "loss": 155.86939260079276,
                        "loss_event": 10.774450528323973,
                        "loss_sentence": 105.20511569211396,
                        "loss_vsim": 22.674770903666392,
                        "loss_tattn": 17.215055476688452,
                        "val.soda.tiou": 0.413551850330428,
                        "val.soda.cider_d": 0.0,
                        "val.soda.meteor": 0.04778254125793216,
                        "val.count_stats.eta1": 50.0}],
          "predictions": {"video_0009": [(0,
                                          "the the the the the the the the the the the the the "
                                          "the the the the the the the"),
                                         (1,
                                          "season season season season season the the season "
                                          "season season season season season season season "
                                          "season season season the the"),
                                         (2,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (3,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (8,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (6,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (4,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (7,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (5,
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced"),
                                         (9,
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced")],
                          "video_0011": [(0,
                                          "the the the the the the the the the the the the the "
                                          "the the the the the the the"),
                                         (1,
                                          "the the the the the the the the the the the the the "
                                          "the the the the the the the"),
                                         (2,
                                          "the the the the the the the the the season the the "
                                          "the the the the the the the the"),
                                         (3,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (8,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (4,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (9,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (7,
                                          "season season season season season season season "
                                          "season season season season season season season "
                                          "season season season season season season"),
                                         (5,
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced season sliced sliced sliced sliced"),
                                         (6,
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced sliced "
                                          "sliced sliced sliced sliced sliced sliced")]}}}


@pytest.fixture(scope="module")
def records():
    return generate_world(WorldConfig(num_videos=12, seed=5))


@pytest.mark.parametrize("variant", list(GOLDEN))
def test_training_recipe_matches_golden(records, variant):
    exp = ExperimentConfig(
        variant=variant,
        model={"hidden": 16, "heads": 2},
        optimizer={"lr": 3e-3, "warmup_epochs": 0},
        batch_size=4,
        max_epochs=2,
        val_fraction=0.25,
        vocab_min_count=1,
        seed=1,
    )
    want = GOLDEN[variant]
    result = train(records, exp)
    assert len(result.log_rows) == len(want["log_rows"])
    for row, expected in zip(result.log_rows, want["log_rows"]):
        assert list(row) == list(expected)
        assert row == pytest.approx(expected, rel=1e-9)
    assert result.best_epoch == want["best_epoch"]

    _, val = split_dataset(records, exp.val_fraction)
    predictions = {}
    for record in val:
        pred = result.model.run_inference(record)
        predictions[pred.video_id] = [
            (index, " ".join(sentence)) for index, sentence in zip(pred.selections, pred.sentences)
        ]
    assert predictions == want["predictions"]


# sha256 over the sorted (name, dtype, bytes) of every initial parameter and
# the position table, per (variant, precision), at hidden 24 and 3 heads
INITIAL_DIGESTS = {
    ("B", "float32"):
        "54c95f2a348733bba3c8554d3f6e44b1b77ce78ed146dcd62cda631212b94686",
    ("B", "float64"):
        "537bdebf117c840704a37274827d31cc4129554a7f430d4ce49d1d75b7803f54",
    ("BI", "float32"):
        "e6a82ad94a53f4b9e75be26f6bb1511f4a2b6d556228d700530f77143afdd316",
    ("BI", "float64"):
        "44f062e2f226683e825413e7b307e01fce9e80f519b747e39e6912e4aa6cfb67",
    ("BIV", "float32"):
        "3bae10539ab717d1d2ec24688f14951ddd94823ef50b573f76057f6914973d1c",
    ("BIV", "float64"):
        "ab6748869134ee29e02b4b11a3597856c59152592ea2254f641542020816c511",
    ("BIVT", "float32"):
        "95d39f089cc53cdf69115140f535e0100b63489c93a6ae6a900d496f6c9619eb",
    ("BIVT", "float64"):
        "95aec21c13b3cf1afe90a8052b6214e3a00f56a007e0c1e75b0d17ea291f9f94",
}


def initial_digest(model: RecipeModel) -> str:
    arrays = {name: p.data for name, p in model.parameters().items()}
    arrays["_pe"] = model._pe
    digest = hashlib.sha256()
    for name, array in sorted(arrays.items()):
        digest.update(f"{name}:{array.dtype}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("variant", list(GOLDEN))
def test_initial_parameters_match_golden_digest(variant, precision):
    config = ModelConfig(hidden=24, heads=3, variant=variant, precision=precision)
    model = RecipeModel(config, Vocabulary(["add", "the", "salt", "stir"]), DEFAULT_ACTIONS, seed=3)
    assert initial_digest(model) == INITIAL_DIGESTS[(variant, precision)]
