import json

import numpy as np
import pytest

from recipegen import cli, synth, training
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


@pytest.mark.parametrize("section", ["model", "optimizer", "world"])
def test_train_rejects_unknown_section_key(tmp_path, capsys, section):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, section: {"memory_slotz": 1}}))
    code = cli.main([
        "train", "--config", str(config), "--dataset", str(tmp_path / "absent.json"),
        "--checkpoint", str(tmp_path / "model.npz"),
    ])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert section in err and "memory_slotz" in err


def test_ablate_checks_variants_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: trained.append(args))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, "world": {"num_videos": 4, "steps_range": [2, 4]}}))
    code = cli.main([
        "ablate", "--config", str(config), "--variants", "B,BX", "--n-list", "4",
        "--out", str(tmp_path / "a.csv"), "--quiet",
    ])
    assert code == cli.EXIT_VALIDATION
    assert "BX" in capsys.readouterr().err
    assert trained == []


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


def test_generate_rejects_checkpoint_with_key_bias(tmp_path, capsys):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    config = ModelConfig(hidden=16, heads=2)
    save_checkpoint(checkpoint, RecipeModel(config, Vocabulary(["stir"]), list(DEFAULT_ACTIONS)))
    with np.load(checkpoint) as blob:
        arrays = {key: blob[key] for key in blob.files}
    arrays["param/sent_tf.layers.1.mem_update.attn.proj_k.bias"] = np.zeros(16)
    np.savez(checkpoint, **arrays)
    code = cli.main([
        "generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
        "--out", str(tmp_path / "pred.json"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "sent_tf.layers.1.mem_update.attn.proj_k.bias" in capsys.readouterr().err


def _train_args(tmp_path, config, *extra):
    return [
        "train", "--config", str(config), "--dataset", str(tmp_path / "world.json"),
        "--checkpoint", str(tmp_path / "model.npz"), "--quiet", *extra,
    ]


@pytest.fixture
def no_training(tmp_path, monkeypatch):
    """A dataset on disk, and a ``train`` that records its calls instead."""
    save_dataset(generate_world(WorldConfig(num_videos=4, seed=3)), tmp_path / "world.json")
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
    return calls


@pytest.mark.parametrize(
    "change, names",
    [
        ({"model": {"hidden": 16, "heads": 2, "variant": "BIVT"}}, ["model", "variant"]),
        ({"model": {"hidden": 16, "heads": 2, "feature_dim": 16}}, ["model", "feature_dim"]),
        ({"early_stop_metric": "soda.ciderd"}, ["early_stop_metric", "soda.ciderd"]),
        ({"actions": ["chop", "fry", "serve"]}, ["experiment", "actions"]),
        ({"n_candidates": 12}, ["experiment", "n_candidates"]),
        ({"max_epochs": "5"}, ["max_epochs", "'5'"]),
        ({"batch_size": 0}, ["batch_size"]),
        ({"batch_size": True}, ["batch_size"]),
        ({"vocab_min_count": 1.5}, ["vocab_min_count"]),
        ({"val_fraction": 7}, ["val_fraction"]),
        ({"val_fraction": "0.2"}, ["val_fraction"]),
        ({"early_stop_patience": 0}, ["early_stop_patience"]),
        ({"seed": "1"}, ["seed"]),
    ],
    ids=[
        "model.variant", "model.feature_dim", "early_stop_metric", "actions", "n_candidates",
        "max_epochs-str", "batch_size-0", "batch_size-bool", "vocab_min_count-float",
        "val_fraction-7", "val_fraction-str", "early_stop_patience-0", "seed-str",
    ],
)
def test_train_rejects_config_before_training(tmp_path, capsys, no_training, change, names):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, **change}))
    assert cli.main(_train_args(tmp_path, config)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for name in names:
        assert name in err
    assert no_training == []


def test_train_has_no_candidate_budget_option(tmp_path, no_training):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(EXPERIMENT))
    assert cli.main(_train_args(tmp_path, config, "--n-candidates", "5")) == cli.EXIT_USAGE
    assert no_training == []


def test_synth_candidate_budget_sets_the_world(tmp_path):
    config, dataset = tmp_path / "experiment.json", tmp_path / "world.json"
    config.write_text(json.dumps(EXPERIMENT))
    code = cli.main([
        "synth", "--config", str(config), "--out", str(dataset), "--n-candidates", "12",
    ])
    assert code == cli.EXIT_OK
    records = json.loads(dataset.read_text())
    assert len(records) == 10
    assert {len(r["candidates"]) for r in records} == {12}


@pytest.mark.parametrize("source", ["--n-list", "--dataset"])
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "conditioning", "bogus"),
        ("optimizer", "lr", -1),
        ("world", "steps_range", [5, 3]),
    ],
)
def test_ablate_checks_sections_first(tmp_path, capsys, monkeypatch, source, section, key, value):
    dataset = tmp_path / "world.json"
    save_dataset(generate_world(WorldConfig(num_videos=4, seed=3)), dataset)
    calls = []
    monkeypatch.setattr(synth, "generate_world", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, section: {**EXPERIMENT.get(section, {}), key: value}}))
    code = cli.main([
        "ablate", "--config", str(config), "--variants", "B,BIVT",
        *(["--n-list", "6"] if source == "--n-list" else ["--dataset", str(dataset)]),
        "--out", str(tmp_path / "a.csv"), "--quiet",
    ])
    assert code == cli.EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "path, value, names",
    [
        ((1,), 7, ["record 1"]),
        ((0, "candidates"), {}, ["video_0000", "'candidates'"]),
        ((0, "candidates", 2), 5, ["video_0000", "candidates[2]"]),
        ((0, "steps", 1, "sentence"), 3, ["video_0000", "steps[1]", "'sentence'"]),
        ((0, "duration"), float("nan"), ["video_0000", "'duration'"]),
        ((1, "candidates", 0, "feature", 3), float("inf"), ["video_0001", "candidates[0]", "'feature'"]),
    ],
    ids=["record", "candidates", "candidate", "sentence", "nan-duration", "infinite-feature"],
)
def test_bad_dataset_record_exits_validation(tmp_path, capsys, path, value, names):
    dataset = tmp_path / "world.json"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    records = json.loads(dataset.read_text())
    target = records
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    dataset.write_text(json.dumps(records))
    assert cli.main(["oracle", "--dataset", str(dataset)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    for name in names:
        assert name in err


def test_synth_rejects_action_without_participle(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"world": {"num_videos": 3, "actions": ["grill", "serve"]}}))
    code = cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "world.json")])
    assert code == cli.EXIT_VALIDATION
    assert "'grill'" in capsys.readouterr().err
    assert not (tmp_path / "world.json").exists()
