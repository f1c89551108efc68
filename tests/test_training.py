import csv
import json

import numpy as np
import pytest

from recipegen import cli, training
from recipegen.synth import WorldConfig, generate_world
from recipegen.training import ExperimentConfig, train

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

    @pytest.mark.parametrize(
        "metrics, best_epoch", [([np.nan, np.nan], 0), ([np.nan, 0.5], 1)]
    )
    def test_nan_metric_never_counts_as_best(self, monkeypatch, metrics, best_epoch):
        fix_metrics(monkeypatch, metrics)
        result = train(RECORDS, tiny_experiment())
        assert len(result.log_rows) == 2
        assert result.best_epoch == best_epoch

    def test_patience_stops_after_epochs_without_gain(self, monkeypatch):
        fix_metrics(monkeypatch, [1, 2, 0, 1, 3])
        result = train(RECORDS, tiny_experiment(max_epochs=5, early_stop_patience=2))
        assert len(result.log_rows) == 4
        assert result.best_epoch == 1


class TestAblate:
    def test_one_row_per_cell_and_one_dataset_per_budget(self):
        world = {"num_videos": 10, "seed": 3, "steps_range": [2, 4]}
        exp = tiny_experiment(max_epochs=1, world=world)
        rows = training.ablate(exp, ["B", "BI"], n_list=[4, 6])
        cells = [(row["variant"], row["n_candidates"]) for row in rows]
        assert cells == [("B", 4), ("BI", 4), ("B", 6), ("BI", 6)]
        for n in (4, 6):
            records = generate_world(exp.world_config(), n_override=n)
            assert {len(r.candidates) for r in records} == {n}
            digests = {row["dataset_hash"] for row in rows if row["n_candidates"] == n}
            assert digests == {training.dataset_digest(records)}
        assert all("soda.cider_d" in row for row in rows)

    @pytest.mark.parametrize("n", [0, 3])
    def test_budget_below_largest_step_count_rejected(self, n):
        world = WorldConfig(num_videos=10, seed=3, steps_range=(2, 4))
        with pytest.raises(ValueError, match=rf"n_override={n}\b.*steps_range=\[2, 4\]"):
            generate_world(world, n_override=n)
        assert {len(r.candidates) for r in generate_world(world, n_override=4)} == {4}

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
