import json

import pytest

from recipegen import cli
from recipegen.data import TimedEvent, Vocabulary, save_dataset, save_predictions
from recipegen.model import ModelConfig, RecipeModel, save_checkpoint
from recipegen.oracle import oracle_prediction
from recipegen.synth import DEFAULT_ACTIONS, WorldConfig, generate_world

EXPERIMENT = {
    "world": {"num_videos": 10, "seed": 3},
    "model": {"hidden": 16, "heads": 2},
    "max_epochs": 1,
    "batch_size": 4,
    "vocab_min_count": 1,
    "val_fraction": 0.3,
}


def test_synth_train_generate_evaluate_oracle(tmp_path):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(EXPERIMENT))
    dataset, checkpoint = str(tmp_path / "world.json"), str(tmp_path / "model.npz")
    predictions, report = str(tmp_path / "pred.json"), tmp_path / "report.json"
    assert cli.main(["synth", "--config", str(config), "--out", dataset]) == cli.EXIT_OK
    assert cli.main([
        "train", "--config", str(config), "--dataset", dataset,
        "--checkpoint", checkpoint, "--quiet",
    ]) == cli.EXIT_OK
    assert cli.main([
        "generate", "--checkpoint", checkpoint, "--dataset", dataset, "--out", predictions
    ]) == cli.EXIT_OK
    assert cli.main([
        "evaluate", "--predictions", predictions, "--dataset", dataset, "--out", str(report)
    ]) == cli.EXIT_OK
    assert len(json.loads(report.read_text())["per_video"]) == 10
    assert cli.main(["oracle", "--dataset", dataset]) == cli.EXIT_OK


def test_train_rejects_zero_epochs(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, "max_epochs": 0}))
    code = cli.main([
        "train", "--config", str(config), "--dataset", str(tmp_path / "absent.json"),
        "--checkpoint", str(tmp_path / "model.npz"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "max_epochs" in capsys.readouterr().err


def _result(**fields):
    return {"index": 0, "start": 0.0, "end": 1.0, "sentence": "stir", **fields}


@pytest.mark.parametrize(
    "predictions, names",
    [
        ({"video_id": "video_0000", "results": []}, ["top-level"]),
        ([{"results": []}], ["prediction 0", "video_id"]),
        ([{"video_id": 7, "results": []}], ["prediction 0", "video_id"]),
        ([{"video_id": "video_0000"}], ["video_0000", "results"]),
        ([{"video_id": "video_0000", "results": {}}], ["video_0000", "results"]),
        ([{"video_id": "video_0000", "results": [3]}], ["video_0000", "index"]),
        ([{"video_id": "video_0000", "results": [_result(index="0")]}], ["video_0000", "index"]),
        ([{"video_id": "video_0000", "results": [_result(start=None)]}], ["video_0000", "start"]),
        ([{"video_id": "video_0000", "results": [_result(end="9")]}], ["video_0000", "end"]),
    ],
)
def test_malformed_predictions_exit_validation(tmp_path, capsys, predictions, names):
    dataset, pred_path = tmp_path / "world.json", tmp_path / "pred.json"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    pred_path.write_text(json.dumps(predictions))
    code = cli.main([
        "evaluate", "--predictions", str(pred_path), "--dataset", str(dataset),
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for name in names:
        assert name in err


def _evaluate(tmp_path, predictions, dataset):
    return cli.main([
        "evaluate", "--predictions", str(predictions), "--dataset", str(dataset),
        "--out", str(tmp_path / "report.json"),
    ])


@pytest.mark.parametrize("field", ["index", "start"])
def test_evaluate_rejects_results_off_the_candidates(tmp_path, capsys, field):
    dataset, pred_path = tmp_path / "world.json", tmp_path / "pred.json"
    records = generate_world(WorldConfig(num_videos=2, seed=3))
    save_dataset(records, dataset)
    preds = [oracle_prediction(r)[0] for r in records]
    save_predictions(preds, pred_path)
    assert _evaluate(tmp_path, pred_path, dataset) == cli.EXIT_OK
    if field == "index":
        preds[1].selections[2] = len(records[1].candidates)
    else:
        shifted = preds[1].intervals[2]
        preds[1].intervals[2] = TimedEvent(shifted.start + 0.25, shifted.end + 0.25)
    save_predictions(preds, pred_path)
    capsys.readouterr()
    assert _evaluate(tmp_path, pred_path, dataset) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for name in ("video_0001", "result 2", field):
        assert name in err


def test_evaluate_missing_predictions_exit_validation(tmp_path):
    dataset = tmp_path / "world.json"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    assert _evaluate(tmp_path, tmp_path / "absent.json", dataset) == cli.EXIT_VALIDATION


def test_generate_rejects_feature_dim_mismatch(tmp_path, capsys):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3, feature_dim=16)), dataset)
    config = ModelConfig(hidden=16, heads=2, feature_dim=32)
    save_checkpoint(checkpoint, RecipeModel(config, Vocabulary(["stir"]), list(DEFAULT_ACTIONS)))
    code = cli.main([
        "generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
        "--out", str(tmp_path / "pred.json"),
    ])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "feature dim 32" in err and "has 16" in err


def test_attached_oracle_needs_candidate_sentences(tmp_path, capsys):
    dataset = tmp_path / "world.json"
    world = WorldConfig(num_videos=2, seed=3, attach_candidate_sentences=False)
    save_dataset(generate_world(world), dataset)
    code = cli.main(["oracle", "--dataset", str(dataset), "--mode", "attached"])
    assert code == cli.EXIT_VALIDATION
    assert "video_0000" in capsys.readouterr().err


def test_ablate_rejects_budget_below_step_count(tmp_path, capsys):
    # the default world draws up to 6 steps per video
    code = cli.main(["ablate", "--n-list", "4", "--out", str(tmp_path / "a.csv"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "n_override" in err and "steps_range" in err
