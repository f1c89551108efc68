import json

import pytest

from recipegen import cli
from recipegen.data import save_dataset
from recipegen.synth import WorldConfig, generate_world

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
