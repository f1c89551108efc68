import numpy as np
import pytest

from recipegen import training
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
        evaluate = training.evaluate_corpus
        per_epoch = iter(metrics)

        def fixed_metric(preds, gts):
            report = evaluate(preds, gts)
            report["metrics"]["soda.cider_d"] = next(per_epoch)
            return report

        monkeypatch.setattr(training, "evaluate_corpus", fixed_metric)
        result = train(RECORDS, tiny_experiment())
        assert len(result.log_rows) == 2
        assert result.best_epoch == best_epoch
