import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from recipegen import cli, training
from recipegen.data import (
    EventCandidateSet,
    TimedEvent,
    Vocabulary,
    build_vocabulary,
    save_dataset,
    save_predictions,
)
from recipegen.model import ModelConfig, RecipeModel, config_hash, save_checkpoint
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


def test_checkpoint_is_written_at_the_path_it_names(tmp_path, capsys):
    # np.savez given a name appends ".npz" to one without it
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(EXPERIMENT))
    dataset, checkpoint = str(tmp_path / "world.json"), tmp_path / "model.ckpt"
    assert cli.main(["synth", "--config", str(config), "--out", dataset]) == cli.EXIT_OK
    assert cli.main([
        "train", "--config", str(config), "--dataset", dataset,
        "--checkpoint", str(checkpoint), "--quiet",
    ]) == cli.EXIT_OK
    assert f"checkpoint -> {checkpoint}" in capsys.readouterr().out
    assert checkpoint.is_file() and not (tmp_path / "model.ckpt.npz").exists()
    assert cli.main([
        "generate", "--checkpoint", str(checkpoint), "--dataset", dataset,
        "--out", str(tmp_path / "pred.json"),
    ]) == cli.EXIT_OK


def test_train_rejects_zero_epochs(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, "max_epochs": 0}))
    code = cli.main([
        "train", "--config", str(config), "--dataset", str(tmp_path / "absent.json"),
        "--checkpoint", str(tmp_path / "model.npz"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "max_epochs" in capsys.readouterr().err


def test_train_rejects_sentence_length_beyond_the_position_table(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, "model": {**EXPERIMENT["model"], "max_sentence_len": 512}}))
    code = cli.main([
        "train", "--config", str(config), "--dataset", str(tmp_path / "absent.json"),
        "--checkpoint", str(tmp_path / "model.npz"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "model.max_sentence_len" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "cells, repeated",
    [(["--variants", "B,BI,B", "--n-list", "6"], "variants: B"), (["--n-list", "6", "8", "6"], "n_list: 6")],
    ids=["variants", "budgets"],
)
def test_ablate_rejects_a_repeated_cell_before_any_work(tmp_path, capsys, monkeypatch, cells, repeated):
    calls = []
    monkeypatch.setattr(training, "generate_world", lambda *args: calls.append("synth"))
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append("train"))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(EXPERIMENT))
    out = tmp_path / "a.csv"
    code = cli.main(["ablate", "--config", str(config), *cells, "--out", str(out), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    assert f"{repeated} listed more than once" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


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
        ([{"video_id": "video_0000", "results": []}] * 2, ["duplicate", "video_0000"]),
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


def test_generate_halves_write_the_same_predictions_with_one_or_two_cpus(tmp_path, monkeypatch):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    records = generate_world(WorldConfig(num_videos=5, seed=3))
    save_dataset(records, dataset)
    vocab = build_vocabulary([s.sentence for r in records for s in r.steps], min_count=1)
    model = RecipeModel(ModelConfig(variant="BIVT", hidden=16, heads=2), vocab, list(DEFAULT_ACTIONS))
    save_checkpoint(checkpoint, model)
    written, fork = {}, os.fork
    for cpus in (1, 2):
        forks = []
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            patch.setattr(os, "fork", lambda: forks.append(1) or fork())
            out = tmp_path / f"pred_{cpus}.json"
            assert cli.main(["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                             "--out", str(out)]) == cli.EXIT_OK
        assert len(forks) == cpus - 1
        written[cpus] = out.read_bytes()
    assert written[1] == written[2]
    assert [p["video_id"] for p in json.loads(written[2])] == [r.video_id for r in records]


def test_attached_oracle_needs_candidate_sentences(tmp_path, capsys):
    dataset = tmp_path / "world.json"
    world = WorldConfig(num_videos=2, seed=3, attach_candidate_sentences=False)
    save_dataset(generate_world(world), dataset)
    code = cli.main(["oracle", "--dataset", str(dataset), "--mode", "attached"])
    assert code == cli.EXIT_VALIDATION
    assert "video_0000" in capsys.readouterr().err


def test_attached_oracle_names_the_sweep_sentence_mode(tmp_path):
    dataset, out = tmp_path / "world.json", tmp_path / "oracle.json"
    save_dataset(generate_world(WorldConfig(num_videos=3, seed=3)), dataset)
    code = cli.main([
        "oracle", "--dataset", str(dataset), "--mode", "attached", "--n-list", "4", "6",
        "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["metadata"]["sentence_mode"] == "attached"
    assert report["sweep"]["metadata"]["sentence_mode"] == "gt-sentences"


def test_ablate_rejects_budget_below_step_count(tmp_path, capsys):
    # the default world draws up to 6 steps per video
    code = cli.main(["ablate", "--n-list", "4", "--out", str(tmp_path / "a.csv"), "--quiet"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "world.n_candidates must be an integer >= 6, got 4" in err


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
        ({"val_fraction": 0.004}, ["val_fraction", "1%"]),
        ({"val_fraction": 0.996}, ["val_fraction", "1%"]),
        ({"early_stop_patience": 0}, ["early_stop_patience"]),
        ({"seed": "1"}, ["seed"]),
        ({"world": 5}, ["world config must be an object"]),
        # an int beyond the float range is no finite number
        ({"model": {"hidden": 16, "heads": 2, "tau": 10**400}}, ["model.tau"]),
        ({"optimizer": {"lr": 10**400}}, ["optimizer.lr"]),
    ],
    ids=[
        "model.variant", "model.feature_dim", "early_stop_metric", "actions", "n_candidates",
        "max_epochs-str", "batch_size-0", "batch_size-bool", "vocab_min_count-float",
        "val_fraction-7", "val_fraction-str", "val_fraction-0.004", "val_fraction-0.996",
        "early_stop_patience-0", "seed-str", "world-not-an-object", "model.tau-huge-int",
        "optimizer.lr-huge-int",
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


@pytest.mark.parametrize("command", ["synth", "train"])
def test_malformed_config_names_file_line_and_column(tmp_path, capsys, no_training, command):
    config = tmp_path / "experiment.json"
    config.write_text('{\n  "seed": 1,\n  max_epochs: 2\n}\n')
    args = _train_args(tmp_path, config) if command == "train" else [
        "synth", "--config", str(config), "--out", str(tmp_path / "out.json")
    ]
    assert cli.main(args) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{config}: malformed JSON at line 3, column 3" in err
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


@pytest.mark.parametrize("budget", [[], ["--n-candidates", "6"]], ids=["config", "config-and-budget"])
def test_synth_rejects_a_world_that_is_no_object(tmp_path, capsys, budget):
    config, dataset = tmp_path / "experiment.json", tmp_path / "world.json"
    config.write_text(json.dumps({"world": 5}))
    code = cli.main(["synth", "--config", str(config), "--out", str(dataset), *budget])
    assert code == cli.EXIT_VALIDATION
    assert "world config must be an object" in capsys.readouterr().err
    assert not dataset.exists()


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
    monkeypatch.setattr(training, "generate_world", lambda *args, **kwargs: calls.append(args))
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
        ((0, "candidates"), [], ["video_0000", "'candidates' needs at least one candidate"]),
        ((0, "candidates", 2), 5, ["video_0000", "candidates[2]"]),
        ((0, "steps", 1, "sentence"), 3, ["video_0000", "steps[1]", "'sentence'"]),
        ((0, "duration"), float("nan"), ["video_0000", "'duration'"]),
        ((1, "candidates", 0, "feature", 3), float("inf"), ["video_0001", "candidates[0]", "'feature'"]),
        # over-long input fails instead of loading cut down
        ((0, "steps", 1, "sentence"), "stir " * 25, ["video_0000", "steps[1]", "sentence length 25"]),
        ((0, "steps"), [{"start": float(i), "end": i + 0.5, "sentence": "stir"} for i in range(13)],
         ["video_0000", "step count 13"]),
        ((0, "steps", 0, "end"), 1e4, ["video_0000", "step 0 [", "exceeds duration"]),
        ((0, "duration"), 0.0, ["video_0000", "duration must be positive"]),
        ((1, "candidates", 2, "sentence"), None, ["video_0001", "candidate sentences must be all-present"]),
    ],
    ids=["record", "candidates", "no-candidates", "candidate", "sentence", "nan-duration", "infinite-feature",
         "long-sentence", "too-many-steps", "step-past-the-end", "zero-duration", "sentence-on-some-candidates"],
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


@pytest.mark.parametrize(
    "experiment, field",
    [
        ({"world": {"num_videos": "5"}}, "world.num_videos"),
        ({"world": {"num_videos": 0}}, "world.num_videos"),
        ({"world": {"num_videos": 3, "feature_dim": 0}}, "world.feature_dim"),
        ({"world": {"num_videos": 3, "noise_scale": "x"}}, "world.noise_scale"),
        ({"world": {"num_videos": 3, "actions": []}}, "world.actions"),
        ({"preset": ["toy"]}, "preset"),
        ({"optimizer": {"lr": "x"}}, "optimizer.lr"),
        ({"optimizer": {"warmup_epochs": "x"}}, "optimizer.warmup_epochs"),
        ({"world": {"num_videos": 3}, "val_fraction": 0.004}, "val_fraction"),
        ({"world": {"num_videos": 3}, "val_fraction": 0.996}, "val_fraction"),
        ({"world": {"num_videos": 3, "duration_range": [120.0, 10**400]}}, "world.duration_range"),
        ({"world": {"num_videos": 3}, "model": {"tau": 10**400}}, "model.tau"),
    ],
    ids=["num-videos-string", "no-videos", "no-features", "noise-string", "no-actions", "preset-list",
         "lr-string", "warmup-string", "val-fraction-0.004", "val-fraction-0.996",
         "duration-huge-int", "tau-huge-int"],
)
def test_synth_rejects_bad_setting_naming_it(tmp_path, capsys, experiment, field):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(experiment))
    code = cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "world.json")])
    assert code == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not (tmp_path / "world.json").exists()


@pytest.mark.parametrize("field", ["vocab", "actions"])
def test_generate_rejects_malformed_checkpoint_meta(tmp_path, capsys, field):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    config = ModelConfig(hidden=8, layers=1, heads=2, feature_dim=32)
    save_checkpoint(checkpoint, RecipeModel(config, Vocabulary(["stir"]), list(DEFAULT_ACTIONS)))
    with np.load(checkpoint) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta[field] = 5
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(checkpoint, **arrays)
    code = cli.main([
        "generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
        "--out", str(tmp_path / "p.json"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert f"'{field}'" in capsys.readouterr().err


def test_generate_rejects_a_simulator_checkpoint_without_actions(tmp_path, capsys):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    config, vocab = ModelConfig(variant="BIV", hidden=8, layers=1, heads=2, feature_dim=32), Vocabulary(["stir"])
    save_checkpoint(checkpoint, RecipeModel(config, vocab, list(DEFAULT_ACTIONS)))
    with np.load(checkpoint) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta.update(actions=[], config_hash=config_hash(config, vocab, []))
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # one action row, the shape a model built for no actions once drew
    arrays["param/action_embed.weight"] = arrays["param/action_embed.weight"][:1]
    np.savez(checkpoint, **arrays)
    out = tmp_path / "p.json"
    code = cli.main(["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}: variant BIV needs a non-empty action lexicon" in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["truncated", "corrupted", "text", "empty", "npy"])
def test_generate_rejects_unreadable_checkpoint(tmp_path, capsys, damage):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(generate_world(WorldConfig(num_videos=2, seed=3)), dataset)
    config = ModelConfig(hidden=8, layers=1, heads=2, feature_dim=32)
    save_checkpoint(checkpoint, RecipeModel(config, Vocabulary(["stir"]), list(DEFAULT_ACTIONS)))
    saved = checkpoint.read_bytes()
    middle = len(saved) // 2
    np.save(tmp_path / "array.npy", np.zeros(3))
    content = {
        "truncated": saved[:middle],
        "corrupted": saved[:middle] + bytes(64) + saved[middle + 64 :],
        "text": b"not a checkpoint\n",
        "empty": b"",
        "npy": (tmp_path / "array.npy").read_bytes(),
    }
    checkpoint.write_bytes(content[damage])
    code = cli.main([
        "generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
        "--out", str(tmp_path / "p.json"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert str(checkpoint) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["train --checkpoint", "train --log", "ablate", "generate", "train --checkpoint <dir>"]
)
def test_missing_output_directory_fails_before_the_work(tmp_path, capsys, monkeypatch, command):
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    records = generate_world(WorldConfig(num_videos=4, seed=3))
    save_dataset(records, dataset)
    vocab = build_vocabulary([s.sentence for r in records for s in r.steps], min_count=1)
    save_checkpoint(checkpoint, RecipeModel(ModelConfig(hidden=16, heads=2), vocab, list(DEFAULT_ACTIONS)))

    def fail(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    for target in (cli, training):
        monkeypatch.setattr(target, "train", fail)
    monkeypatch.setattr(RecipeModel, "run_inference", fail)
    missing = str(tmp_path / "absent" / "out.file")
    args = {
        "train --checkpoint": ["train", "--dataset", str(dataset), "--checkpoint", missing],
        "train --log": ["train", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                        "--log", missing],
        "ablate": ["ablate", "--n-list", "6", "8", "--out", missing],
        "generate": ["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--out", missing],
        # an output path that names an existing directory
        "train --checkpoint <dir>": ["train", "--dataset", str(dataset), "--checkpoint", str(tmp_path)],
    }[command]
    assert cli.main(args) == cli.EXIT_VALIDATION
    assert args[-1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["oracle --dataset", "train --config", "generate --checkpoint", "evaluate --predictions"]
)
def test_input_path_naming_a_directory_is_a_validation_error(tmp_path, capsys, flag):
    dataset, folder, out = tmp_path / "world.json", tmp_path / "adir", tmp_path / "out.json"
    save_dataset(generate_world(WorldConfig(num_videos=3)), str(dataset))
    folder.mkdir()
    args = {
        "oracle --dataset": ["oracle", "--dataset", str(folder)],
        "train --config": ["train", "--config", str(folder), "--dataset", str(dataset),
                           "--checkpoint", str(out)],
        "generate --checkpoint": ["generate", "--checkpoint", str(folder), "--dataset", str(dataset),
                                  "--out", str(out)],
        "evaluate --predictions": ["evaluate", "--predictions", str(folder), "--dataset", str(dataset),
                                   "--out", str(out)],
    }[flag]
    assert cli.main(args) == cli.EXIT_VALIDATION
    assert str(folder) in capsys.readouterr().err
    assert not out.exists()


def test_oracle_seed_needs_a_budget_list(tmp_path, capsys):
    dataset, out = tmp_path / "world.json", tmp_path / "oracle.json"
    save_dataset(generate_world(WorldConfig(num_videos=3)), str(dataset))
    code = cli.main(["oracle", "--dataset", str(dataset), "--seed", "4", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--seed" in err and "--n-list" in err
    assert not out.exists()


def test_oracle_rejects_empty_budget_list(tmp_path, capsys):
    dataset, out = tmp_path / "world.json", tmp_path / "oracle.json"
    save_dataset(generate_world(WorldConfig(num_videos=3)), str(dataset))
    code = cli.main(["oracle", "--dataset", str(dataset), "--n-list", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--n-list: expected at least one argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["-2", "0"])
def test_oracle_rejects_budget_below_one(tmp_path, capsys, budget):
    dataset = tmp_path / "world.json"
    save_dataset(generate_world(WorldConfig(num_videos=3)), str(dataset))
    out = tmp_path / "oracle.json"
    code = cli.main([
        "oracle", "--dataset", str(dataset), "--n-list", budget, "4", "--out", str(out)
    ])
    assert code == cli.EXIT_VALIDATION
    assert f"candidate budget must be an integer >= 1, got {budget}" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_rejects_a_repeated_budget(tmp_path, capsys):
    dataset, out = tmp_path / "world.json", tmp_path / "oracle.json"
    save_dataset(generate_world(WorldConfig(num_videos=3)), str(dataset))
    code = cli.main(["oracle", "--dataset", str(dataset), "--n-list", "4", "6", "4", "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert "candidate budgets: 4 listed more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "videos, val_fraction, split",
    [(8, 0.2, "validation"), (2, 0.8, "train")],
    ids=["no-validation", "no-train"],
)
def test_train_names_the_empty_split(tmp_path, capsys, videos, val_fraction, split):
    save_dataset(generate_world(WorldConfig(num_videos=videos, seed=3)), tmp_path / "world.json")
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**EXPERIMENT, "val_fraction": val_fraction}))
    assert cli.main(_train_args(tmp_path, config)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{videos} videos at val_fraction {val_fraction} leave the {split} split empty" in err
    assert not (tmp_path / "model.npz").exists()


def _untrained_checkpoint(path, records, variant):
    vocab = build_vocabulary([s.sentence for r in records for s in r.steps], min_count=1)
    model = RecipeModel(ModelConfig(variant=variant, hidden=16, heads=2), vocab, list(DEFAULT_ACTIONS))
    save_checkpoint(path, model)


def _exits_before_any_work(tmp_path, capsys, monkeypatch, records, variant, message):
    """``train --variant`` and ``generate`` on ``records`` each exit 2 naming
    ``message`` before any training step or decoding, and write nothing."""
    dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
    save_dataset(records, dataset)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(EXPERIMENT))
    calls = []
    monkeypatch.setattr(RecipeModel, "training_forward", lambda *args: calls.append(args))
    monkeypatch.setattr(RecipeModel, "run_inference", lambda *args: calls.append(args))
    assert cli.main(_train_args(tmp_path, config, "--variant", variant)) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert calls == [] and not checkpoint.exists()

    _untrained_checkpoint(checkpoint, records, variant)
    out = tmp_path / "pred.json"
    code = cli.main(["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("ingredient, variant", [("!!!", "BI"), ("", "BIVT")], ids=["punctuation", "empty"])
def test_wordless_ingredient_is_named_before_any_work(tmp_path, capsys, monkeypatch, ingredient, variant):
    # an ingredient is the mean of its word rows, so one without a word has none
    records = generate_world(WorldConfig(**EXPERIMENT["world"]))
    records[3] = replace(records[3], ingredients=[ingredient, *records[3].ingredients])
    message = f"{records[3].video_id}: ingredient {ingredient!r} has no words"
    with monkeypatch.context() as patch:
        _exits_before_any_work(tmp_path, capsys, patch, records, variant, message)
    # B reads no ingredients, so it trains on the record
    config = tmp_path / "experiment.json"
    assert cli.main(_train_args(tmp_path, config, "--variant", "B")) == cli.EXIT_OK


def test_too_many_candidates_are_named_before_any_work(tmp_path, capsys, monkeypatch):
    records = generate_world(WorldConfig(**EXPERIMENT["world"]))
    record = records[3]
    width = record.duration / 600
    events = [TimedEvent(i * width, (i + 1) * width) for i in range(513)]
    features = np.zeros((513, record.candidates.features.shape[1]))
    records[3] = replace(record, candidates=EventCandidateSet(events, features))
    message = f"{record.video_id}: too many candidates for the position table (513 > 512)"
    _exits_before_any_work(tmp_path, capsys, monkeypatch, records, "B", message)


@pytest.mark.parametrize("command", ["oracle", "evaluate", "train", "generate"])
def test_empty_dataset_file_is_named(tmp_path, capsys, command):
    dataset = tmp_path / "world.json"
    dataset.write_text("[]\n")
    config, checkpoint, out = tmp_path / "experiment.json", tmp_path / "model.npz", tmp_path / "out.json"
    config.write_text(json.dumps(EXPERIMENT))
    predictions = tmp_path / "pred.json"
    predictions.write_text("[]\n")
    if command == "generate":
        _untrained_checkpoint(checkpoint, generate_world(WorldConfig(num_videos=2, seed=3)), "B")
    argv = {
        "oracle": ["oracle", "--dataset", str(dataset), "--out", str(out)],
        "evaluate": ["evaluate", "--predictions", str(predictions), "--dataset", str(dataset),
                     "--out", str(out)],
        "train": _train_args(tmp_path, config),
        "generate": ["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--out", str(out)],
    }[command]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"{dataset}: no records" in capsys.readouterr().err
    assert not out.exists()
    assert command == "generate" or not checkpoint.exists()


@pytest.mark.parametrize(
    "command, output, clash",
    [
        ("synth", "--out", "--config"),
        ("train", "--checkpoint", "--dataset"),
        ("train", "--log", "--dataset"),
        ("train", "--log", "--checkpoint"),
        ("generate", "--out", "--dataset"),
        ("generate", "--out", "--checkpoint"),
        ("evaluate", "--out", "--predictions"),
        ("evaluate", "--out", "--dataset"),
        ("oracle", "--out", "--hist-out"),
        ("oracle", "--out", "--dataset"),
        ("ablate", "--out", "--dataset"),
        ("ablate", "--out", "--config"),
    ],
)
def test_output_on_the_file_of_another_path_exits_before_any_work(tmp_path, capsys, command, output, clash):
    records = generate_world(WorldConfig(num_videos=4, seed=3))
    files = {
        flag: tmp_path / name
        for flag, name in [
            ("--config", "experiment.json"), ("--dataset", "world.json"), ("--checkpoint", "model.npz"),
            ("--predictions", "pred.json"), ("--log", "log.csv"), ("--hist-out", "hist.csv"),
            ("--out", "out.json"),
        ]
    }
    files["--config"].write_text(json.dumps(EXPERIMENT))
    save_dataset(records, files["--dataset"])
    _untrained_checkpoint(files["--checkpoint"], records, "B")
    save_predictions([oracle_prediction(r)[0] for r in records], files["--predictions"])
    flags = {
        "synth": ["--config", "--out"],
        "train": ["--config", "--dataset", "--checkpoint", "--log"],
        "generate": ["--checkpoint", "--dataset", "--out"],
        "evaluate": ["--predictions", "--dataset", "--out"],
        "oracle": ["--dataset", "--hist-out", "--out"],
        "ablate": ["--config", "--dataset", "--out"],
    }[command]
    paths = {flag: str(files[flag]) for flag in flags}
    # spelled through a subdirectory, so that only resolving the path finds the clash
    (tmp_path / "sub").mkdir()
    paths[output] = str(tmp_path / "sub" / ".." / files[clash].name)
    before = {flag: files[flag].read_bytes() for flag in flags if files[flag].exists()}
    assert cli.main([command] + [arg for flag in flags for arg in (flag, paths[flag])]) == cli.EXIT_VALIDATION
    assert f"{output} {paths[output]} is the same file as {clash} {paths[clash]}" in capsys.readouterr().err
    assert {flag: files[flag].read_bytes() for flag in before} == before
    assert [flag for flag in flags if files[flag].exists()] == list(before)


def test_oracle_hist_out_writes_the_report_histogram(tmp_path):
    dataset, hist, report = tmp_path / "world.json", tmp_path / "hist.csv", tmp_path / "oracle.json"
    save_dataset(generate_world(WorldConfig(num_videos=4, seed=3)), dataset)
    code = cli.main(["oracle", "--dataset", str(dataset), "--hist-out", str(hist), "--out", str(report)])
    assert code == cli.EXIT_OK
    with open(hist, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_low", "bin_high", "count"]
    histogram = json.loads(report.read_text())["histogram"]
    assert [[float(low), float(high), int(count)] for low, high, count in rows[1:]] == histogram


def test_runtime_failure_exits_runtime(tmp_path, capsys, monkeypatch):
    def fail(world):
        raise RuntimeError("synthesis broke")

    monkeypatch.setattr(cli, "generate_world", fail)
    code = cli.main(["synth", "--out", str(tmp_path / "world.json")])
    assert code == cli.EXIT_RUNTIME
    assert "runtime error: synthesis broke" in capsys.readouterr().err
