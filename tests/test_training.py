import csv
import json
import os
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from recipegen import cli, training
from recipegen.data import Vocabulary, save_dataset
from recipegen.dvceval import REPORT_METRICS
from recipegen.model import VARIANTS, ModelConfig, RecipeModel, load_checkpoint, save_checkpoint
from recipegen.oracle import oracle_prediction
from recipegen.synth import WorldConfig, generate_world
from recipegen.training import ExperimentConfig, split_dataset, train

RECORDS = generate_world(WorldConfig(num_videos=10, seed=3))


def tiny_experiment(**overrides):
    fields = dict(
        model={"hidden": 16, "heads": 2},
        optimizer={"lr": 3e-3, "warmup_epochs": 0},
        batch_size=4,
        max_epochs=2,
        vocab_min_count=1,
        val_fraction=0.3,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def fix_metrics(monkeypatch, metrics):
    """Replace each epoch's early-stop metric with the next of ``metrics``."""
    evaluate = training.evaluate_corpus
    per_epoch = iter(metrics)

    def fixed_metric(preds, gts):
        report = evaluate(preds, gts)
        report["metrics"]["soda.cider_d"] = next(per_epoch)
        return report

    monkeypatch.setattr(training, "evaluate_corpus", fixed_metric)


class TestTrain:
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_max_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ValueError, match="max_epochs"):
            ExperimentConfig.from_dict({"max_epochs": epochs})

    def test_float64_runs_are_identical(self):
        first = train(RECORDS, tiny_experiment(variant="BIVT"))
        second = train(RECORDS, tiny_experiment(variant="BIVT"))
        assert first.log_rows == second.log_rows
        params, again = first.model.parameters(), second.model.parameters()
        assert params.keys() == again.keys()
        for name in params:
            np.testing.assert_array_equal(params[name].data, again[name].data)

    def test_tau_changes_the_training_log(self):
        # the temperature scales the relaxation whose gradient the one-hot selection passes on
        default = train(RECORDS, tiny_experiment())
        cooler = train(RECORDS, tiny_experiment(model={"hidden": 16, "heads": 2, "tau": 0.5}))
        assert [row["loss"] for row in cooler.log_rows] != [row["loss"] for row in default.log_rows]

    def test_cli_log_holds_the_training_log_rows(self, tmp_path, monkeypatch):
        dataset, config, log = tmp_path / "world.json", tmp_path / "experiment.json", tmp_path / "log.csv"
        save_dataset(RECORDS, dataset)
        exp = tiny_experiment()
        config.write_text(json.dumps(asdict(exp)))
        results = []

        def recorded(*args, **kwargs):
            results.append(train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "train", recorded)
        code = cli.main([
            "train", "--config", str(config), "--dataset", str(dataset),
            "--checkpoint", str(tmp_path / "model.npz"), "--log", str(log), "--quiet",
        ])
        assert code == cli.EXIT_OK
        with open(log, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        [result] = results
        assert len(rows) == exp.max_epochs
        assert rows == [{key: str(value) for key, value in row.items()} for row in result.log_rows]

    @pytest.mark.parametrize(
        "metrics, best_epoch", [([np.nan, np.nan], 0), ([np.nan, 0.5], 1)]
    )
    def test_nan_metric_never_counts_as_best(self, monkeypatch, metrics, best_epoch):
        fix_metrics(monkeypatch, metrics)
        result = train(RECORDS, tiny_experiment())
        assert len(result.log_rows) == 2
        assert result.best_epoch == best_epoch

    def test_tie_keeps_the_later_epoch(self, monkeypatch):
        fix_metrics(monkeypatch, [0, 0, 0])
        result = train(RECORDS, tiny_experiment(max_epochs=3))
        assert result.best_epoch == 2

    def test_patience_stops_after_epochs_without_gain(self, monkeypatch):
        fix_metrics(monkeypatch, [1, 2, 0, 1, 3])
        result = train(RECORDS, tiny_experiment(max_epochs=5, early_stop_patience=2))
        assert len(result.log_rows) == 4
        assert result.best_epoch == 1


class TestFloat32:
    """The float32 (``paper`` preset) path stays float32 end to end."""

    @staticmethod
    def dtypes(model: RecipeModel) -> set:
        return {p.data.dtype for p in model.parameters().values()}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float32_kept_through_training_and_a_checkpoint(self, tmp_path, variant):
        exp = tiny_experiment(variant=variant, model={"hidden": 16, "heads": 2, "precision": "float32"})
        fresh = RecipeModel(exp.model_config(32), Vocabulary(["stir"]), exp.world_config().actions)
        assert self.dtypes(fresh) == {np.dtype(np.float32)}
        assert fresh._pe.dtype == np.float32
        assert fresh.event_tf.initial_memory()[0].data.dtype == np.float32

        trained = train(RECORDS, exp).model  # two epochs
        assert self.dtypes(trained) == {np.dtype(np.float32)}
        save_checkpoint(tmp_path / "model.npz", trained)
        loaded, _ = load_checkpoint(tmp_path / "model.npz")
        assert self.dtypes(loaded) == {np.dtype(np.float32)}
        for name, p in trained.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)
        _, val = split_dataset(RECORDS, exp.val_fraction)
        for record in val:
            assert loaded.run_inference(record) == trained.run_inference(record)


# the float64 recipe of tests/test_golden.py
GOLDEN_RECORDS = generate_world(WorldConfig(num_videos=12, seed=5))
GOLDEN_RECIPE = dict(
    model={"hidden": 16, "heads": 2},
    optimizer={"lr": 3e-3, "warmup_epochs": 0},
    batch_size=4,
    max_epochs=2,
    val_fraction=0.25,
    vocab_min_count=1,
    seed=1,
)


def count_forks(monkeypatch, cpus: int | None) -> list:
    """Report ``cpus`` usable CPUs to ``train`` (the real probe when None) and
    record each ``os.fork`` it makes."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def inject_fault(monkeypatch, in_child: bool) -> None:
    """Make ``training_forward`` raise for every video of the forked second
    half (``in_child``) or of the first half, run here."""
    forward = RecipeModel.training_forward
    parent = os.getpid()

    def faulty(self, record, labels, rng):
        if (os.getpid() != parent) == in_child:
            raise ValueError(f"{record.video_id}: injected fault")
        return forward(self, record, labels, rng)

    monkeypatch.setattr(RecipeModel, "training_forward", faulty)


class TestHalves:
    """Each minibatch and each validation pass runs in two halves, the second
    in a forked child when two CPUs are usable."""

    @pytest.mark.parametrize("variant", ["B", "BIVT"])
    def test_forked_and_in_process_halves_agree(self, monkeypatch, variant):
        exp = ExperimentConfig(variant=variant, **GOLDEN_RECIPE)
        results = {}
        probe_forks = len(os.sched_getaffinity(0)) > 1  # False under `taskset -c 0`
        for path, cpus, forked in (("here", 1, False), ("forked", 2, True), ("probed", None, probe_forks)):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, cpus)
                results[path] = train(GOLDEN_RECORDS, exp)
            assert bool(forks) == forked
        want = results["here"]
        for path in ("forked", "probed"):
            got = results[path]
            assert got.log_rows == want.log_rows
            assert got.best_epoch == want.best_epoch
            assert got.val_report == want.val_report
            for name, p in want.model.parameters().items():
                np.testing.assert_array_equal(got.model.parameters()[name].data, p.data)

    @pytest.mark.parametrize("in_child", [True, False], ids=["second-half", "first-half"])
    def test_fault_in_either_half_reraises_and_leaves_no_child(self, monkeypatch, in_child):
        forks = count_forks(monkeypatch, 2)
        inject_fault(monkeypatch, in_child)
        with pytest.raises(ValueError) as raised:
            train(GOLDEN_RECORDS, ExperimentConfig(variant="B", **GOLDEN_RECIPE))
        assert type(raised.value) is ValueError
        assert str(raised.value).endswith(": injected fault")
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fault_in_child_exits_validation_through_cli(self, tmp_path, monkeypatch, capsys):
        count_forks(monkeypatch, 2)
        inject_fault(monkeypatch, True)
        config, dataset = tmp_path / "experiment.json", tmp_path / "world.json"
        config.write_text(json.dumps(GOLDEN_RECIPE))
        save_dataset(GOLDEN_RECORDS, dataset)
        code = cli.main([
            "train", "--config", str(config), "--dataset", str(dataset),
            "--checkpoint", str(tmp_path / "model.npz"), "--quiet",
        ])
        assert code == cli.EXIT_VALIDATION
        assert "injected fault" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRecordChecks:
    def without_ingredients(self):
        records = list(GOLDEN_RECORDS)
        records[3] = replace(records[3], ingredients=[])
        return records

    def test_train_names_the_video_before_the_first_epoch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(RecipeModel, "training_forward", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="video_0003: variant BI needs an ingredient"):
            train(self.without_ingredients(), ExperimentConfig(variant="BI", **GOLDEN_RECIPE))
        assert calls == []

    def test_variant_b_reads_no_ingredients(self):
        exp = ExperimentConfig(variant="B", **dict(GOLDEN_RECIPE, max_epochs=1))
        result = train(self.without_ingredients(), exp)
        assert result.best_epoch == 0

    def test_inference_names_the_video(self):
        exp = ExperimentConfig(variant="BIVT", **dict(GOLDEN_RECIPE, max_epochs=1))
        model = train(GOLDEN_RECORDS, exp).model
        with pytest.raises(ValueError, match="video_0003: variant BIVT needs an ingredient"):
            model.run_inference(self.without_ingredients()[3])

    def mixed_widths(self, index=3):
        records = list(GOLDEN_RECORDS)
        candidates = records[index].candidates
        records[index] = replace(records[index], candidates=replace(candidates, features=candidates.features[:, :16]))
        return records

    def test_train_names_a_video_of_another_feature_width(self, monkeypatch):
        calls = []
        monkeypatch.setattr(RecipeModel, "training_forward", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="video_0003: model expects feature dim 32, video has 16"):
            train(self.mixed_widths(), ExperimentConfig(variant="B", **GOLDEN_RECIPE))
        assert calls == []

    def test_train_names_the_first_training_video_of_another_feature_width(self):
        records = self.mixed_widths(0)
        assert split_dataset(records, GOLDEN_RECIPE["val_fraction"])[0][0] is records[0]
        with pytest.raises(ValueError, match="video_0000: model expects feature dim 32, video has 16"):
            train(records, ExperimentConfig(variant="B", **GOLDEN_RECIPE))

    def test_cli_names_a_video_of_another_feature_width(self, tmp_path, monkeypatch, capsys):
        dataset, checkpoint = tmp_path / "world.json", tmp_path / "model.npz"
        save_dataset(self.mixed_widths(), dataset)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(GOLDEN_RECIPE))
        code = cli.main([
            "train", "--config", str(config), "--dataset", str(dataset),
            "--checkpoint", str(checkpoint), "--quiet",
        ])
        assert code == cli.EXIT_VALIDATION
        assert "video_0003: model expects feature dim 32, video has 16" in capsys.readouterr().err
        assert not checkpoint.exists()

        model = RecipeModel(ModelConfig(hidden=16, heads=2), Vocabulary(["stir"]), ["stir"])
        save_checkpoint(checkpoint, model)
        decoded = []
        monkeypatch.setattr(RecipeModel, "run_inference", lambda self, r: decoded.append(r))
        out = tmp_path / "pred.json"
        code = cli.main(["generate", "--checkpoint", str(checkpoint), "--dataset", str(dataset), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert "video_0003: model expects feature dim 32, video has 16" in capsys.readouterr().err
        assert decoded == [] and not out.exists()

    def test_cli_train_exits_validation_naming_the_video(self, tmp_path, capsys):
        dataset = tmp_path / "world.json"
        save_dataset(self.without_ingredients(), dataset)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(GOLDEN_RECIPE))
        code = cli.main([
            "train", "--config", str(config), "--dataset", str(dataset), "--variant", "BI",
            "--checkpoint", str(tmp_path / "model.npz"), "--quiet",
        ])
        assert code == cli.EXIT_VALIDATION
        assert "video_0003: variant BI needs an ingredient" in capsys.readouterr().err


class TestAblate:
    def test_one_row_per_cell_and_one_dataset_per_budget(self):
        world = {"num_videos": 10, "seed": 3, "steps_range": [2, 4]}
        exp = tiny_experiment(max_epochs=1, world=world)
        rows = training.ablate(exp, ["B", "BI"], n_list=[4, 6])
        cells = [(row["variant"], row["n_candidates"]) for row in rows]
        assert cells == [("B", 4), ("BI", 4), ("B", 6), ("BI", 6)]
        for n in (4, 6):
            records = generate_world(replace(exp.world_config(), n_candidates=n))
            assert {len(r.candidates) for r in records} == {n}
            digests = {row["dataset_hash"] for row in rows if row["n_candidates"] == n}
            assert digests == {training.dataset_digest(records)}
        assert all("soda.cider_d" in row for row in rows)

    @pytest.mark.parametrize("n", [0, 3])
    def test_budget_below_largest_step_count_rejected(self, monkeypatch, n):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        exp = tiny_experiment(world={"num_videos": 10, "seed": 3, "steps_range": [2, 4]})
        with pytest.raises(ValueError, match=rf"world\.n_candidates must be an integer >= 4, got {n}\b"):
            training.ablate(exp, ["B"], n_list=[4, n])
        assert calls == []

    def test_cli_writes_csv(self, tmp_path):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "world": {"num_videos": 10, "seed": 3, "steps_range": [2, 4]},
            "model": {"hidden": 16, "heads": 2},
            "max_epochs": 1,
            "batch_size": 4,
            "vocab_min_count": 1,
            "val_fraction": 0.3,
        }))
        out = tmp_path / "ablation.csv"
        code = cli.main([
            "ablate", "--config", str(config), "--variants", "B", "--n-list", "4",
            "--out", str(out), "--quiet",
        ])
        assert code == cli.EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["variant"], row["n_candidates"]) for row in rows] == [("B", "4")]

    def test_cli_dataset_cells_carry_its_digest(self, tmp_path):
        dataset, config, out = tmp_path / "world.json", tmp_path / "experiment.json", tmp_path / "ablation.csv"
        save_dataset(RECORDS, dataset)
        config.write_text(json.dumps({
            "model": {"hidden": 16, "heads": 2}, "max_epochs": 1, "batch_size": 4,
            "vocab_min_count": 1, "val_fraction": 0.3,
        }))
        code = cli.main([
            "ablate", "--config", str(config), "--dataset", str(dataset), "--variants", "B,BI",
            "--out", str(out), "--quiet",
        ])
        assert code == cli.EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["variant"] for row in rows] == ["B", "BI"]
        assert {row["dataset_hash"] for row in rows} == {training.dataset_digest(RECORDS)}
        assert {row["n_candidates"] for row in rows} == {str(len(RECORDS[0].candidates))}

    def test_dataset_cells_report_the_largest_candidate_count(self, monkeypatch):
        # a dataset whose first video has fewer candidates than the second
        world = WorldConfig(num_videos=2, seed=3, steps_range=(2, 4))
        six = generate_world(replace(world, n_candidates=6))
        ten = generate_world(replace(world, n_candidates=10))
        records = [six[0], ten[1]]
        assert [len(r.candidates) for r in records] == [6, 10]
        result = SimpleNamespace(best_epoch=1, val_report={"metrics": {}})
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: result)
        rows = training.ablate(tiny_experiment(), ["B", "BI"], records=records)
        assert [(row["variant"], row["n_candidates"]) for row in rows] == [("B", 10), ("BI", 10)]

    def test_dataset_and_budget_list_together_rejected(self):
        with pytest.raises(ValueError, match="a dataset or a candidate-count list, not both"):
            training.ablate(tiny_experiment(), ["B"], n_list=[6], records=RECORDS)

    @pytest.mark.parametrize(
        "variants, cells, empty",
        [([], {"n_list": [6]}, "variants"), (["B"], {"n_list": []}, "n_list"), ([], {"records": RECORDS}, "variants")],
        ids=["no-variants", "no-budgets", "no-variants-on-a-dataset"],
    )
    def test_empty_cell_list_rejected_before_training(self, monkeypatch, variants, cells, empty):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            training.ablate(tiny_experiment(), variants, **cells)
        assert calls == []

    def test_repeated_variant_on_a_dataset_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="variants: BI listed more than once"):
            training.ablate(tiny_experiment(), ["BI", "B", "BI"], records=RECORDS)
        assert calls == []

    @pytest.mark.parametrize(
        "options, error",
        [
            (["--dataset", "{dataset}", "--n-list", "6"], "not allowed with argument"),
            (["--n-list"], "expected at least one argument"),
        ],
        ids=["dataset-and-budgets", "no-budgets"],
    )
    def test_cli_cells_option_misuse_exits_usage(self, tmp_path, capsys, options, error):
        dataset, out = tmp_path / "world.json", tmp_path / "ablation.csv"
        save_dataset(RECORDS, dataset)
        options = [o.format(dataset=dataset) for o in options]
        code = cli.main(["ablate", *options, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_USAGE
        assert error in capsys.readouterr().err
        assert not out.exists()


class TestExperimentConfig:
    def test_every_report_metric_is_a_valid_early_stop_metric(self):
        preds = [oracle_prediction(r)[0] for r in RECORDS]
        report = training.evaluate_corpus(preds, [r.ground_truth for r in RECORDS])
        assert set(report["metrics"]) == set(REPORT_METRICS)
        for name in REPORT_METRICS:
            assert ExperimentConfig(early_stop_metric=name).early_stop_metric == name

    def test_shipped_config_builds(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        exp = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert exp.model_config(exp.world_config().feature_dim).variant == exp.variant

    def test_world_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"world.*bogus"):
            WorldConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("fraction", [0.004, 0.005, 0.995, 0.996])
    def test_val_fraction_finer_than_a_percent_rejected(self, fraction):
        # the split buckets by whole percent, so one side is empty on any world
        assert [] in training.split_dataset(generate_world(WorldConfig(seed=0)), fraction)
        with pytest.raises(ValueError, match=r"val_fraction.*1%"):
            ExperimentConfig(val_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.006, 0.01, 0.99, 0.994])
    def test_val_fraction_rounding_to_a_percent_accepted(self, fraction):
        assert ExperimentConfig(val_fraction=fraction).val_fraction == fraction

    def test_model_lexicon_is_the_worlds_actions(self):
        actions = ["chop", "fry", "serve"]
        exp = tiny_experiment(
            variant="BIV", max_epochs=1, world={"num_videos": 10, "seed": 3, "actions": actions}
        )
        records = generate_world(exp.world_config())
        assert {s.sentence[0] for r in records for s in r.steps} <= set(actions)
        result = train(records, exp)
        assert result.model.action_lexicon == actions
        assert result.model.action_embed.weight.data.shape[0] == len(actions)
