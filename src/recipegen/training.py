"""Experiment orchestration: splits, training loop, ablations."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DatasetRecord,
    Vocabulary,
    build_vocabulary,
    check_int,
    config_from_dict,
    _record_to_obj,
)
from .dvceval import REPORT_METRICS, evaluate_corpus
from .model import (
    ModelConfig,
    RecipeModel,
    build_labels,
    preset_config,
)
from .optim import Adam, OptimizerConfig
from .synth import WorldConfig


@dataclass
class ExperimentConfig:
    """One experiment. Every section is built, and so checked, when the
    config is: ``model`` overrides the preset's ``ModelConfig`` fields except
    ``variant`` and ``feature_dim``, which the experiment and the dataset set;
    ``world`` holds ``WorldConfig`` fields, and its ``actions`` are also the
    model's action lexicon."""

    variant: str = "B"
    preset: str = "toy"
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    optimizer: dict = field(default_factory=dict)  # OptimizerConfig overrides
    batch_size: int = 16
    max_epochs: int = 50
    early_stop_metric: str = "soda.cider_d"
    early_stop_patience: int | None = None
    vocab_min_count: int = 3
    val_fraction: float = 0.2
    seed: int = 0
    world: dict = field(default_factory=dict)  # WorldConfig overrides for synth

    def __post_init__(self):
        for name in ("model", "optimizer", "world"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} config must be an object")
        for name in ("batch_size", "max_epochs", "vocab_min_count"):
            check_int(name, getattr(self, name), 1)
        if self.early_stop_patience is not None:
            check_int("early_stop_patience", self.early_stop_patience, 1)
        check_int("seed", self.seed, 0)
        number = isinstance(self.val_fraction, (int, float)) and not isinstance(self.val_fraction, bool)
        if not (number and 0 < self.val_fraction < 1):
            raise ValueError(f"val_fraction must be a number in (0, 1), got {self.val_fraction!r}")
        if self.early_stop_metric not in REPORT_METRICS:
            raise ValueError(
                f"early_stop_metric {self.early_stop_metric!r} is not a report metric; "
                f"choose from {list(REPORT_METRICS)}"
            )
        self.model_config(self.world_config().feature_dim)
        self.optimizer_config()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return config_from_dict(cls, d, "experiment")

    def model_config(self, feature_dim: int) -> ModelConfig:
        taken = sorted({"variant", "feature_dim"} & self.model.keys())
        if taken:
            raise ValueError(
                f"model config keys {taken} are set by the experiment's variant "
                "and the dataset's features"
            )
        return preset_config(
            self.preset, **self.model, variant=self.variant, feature_dim=feature_dim
        )

    def optimizer_config(self) -> OptimizerConfig:
        return config_from_dict(OptimizerConfig, self.optimizer, "optimizer")

    def world_config(self) -> WorldConfig:
        return WorldConfig.from_dict({"seed": self.seed, **self.world})


def split_dataset(
    records: list[DatasetRecord], val_fraction: float = 0.2
) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic 80/20 split by video_id hash (stable across runs)."""
    train, val = [], []
    cut = int(round(val_fraction * 100))
    for r in records:
        bucket = int(hashlib.sha1(r.video_id.encode()).hexdigest(), 16) % 100
        (val if bucket < cut else train).append(r)
    return train, val


def dataset_digest(records: list[DatasetRecord]) -> str:
    payload = json.dumps([_record_to_obj(r) for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: RecipeModel
    log_rows: list[dict]
    best_epoch: int
    best_metric: float
    vocab: Vocabulary
    val_report: dict


LOG_METRICS = ("soda.tiou", "soda.cider_d", "soda.meteor", "count_stats.eta1")


def train(
    records: list[DatasetRecord],
    exp: ExperimentConfig,
    quiet: bool = True,
) -> TrainResult:
    """Train on the 80 split, validate per epoch on the 20 split, keep the
    checkpoint that maximizes the early-stop metric."""
    train_recs, val_recs = split_dataset(records, exp.val_fraction)
    if not train_recs or not val_recs:
        raise ValueError("dataset too small to split into train and validation")
    corpus = [s.sentence for r in train_recs for s in r.steps]
    vocab = build_vocabulary(corpus, min_count=exp.vocab_min_count)
    feature_dim = train_recs[0].candidates.features.shape[1]
    actions = exp.world_config().actions
    model = RecipeModel(exp.model_config(feature_dim), vocab, actions, seed=exp.seed)
    with_distant = model.simulator is not None
    labels = [build_labels(r, vocab, actions, with_distant) for r in train_recs]
    optimizer = Adam(model.parameters(), exp.optimizer_config())

    root = np.random.SeedSequence(exp.seed)
    shuffle_ss, gumbel_ss = root.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    gumbel_rng = np.random.default_rng(gumbel_ss)
    val_gts = [r.ground_truth for r in val_recs]

    best_metric = -np.inf
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    best_report: dict = {}
    log_rows: list[dict] = []

    for epoch in range(exp.max_epochs):
        order = shuffle_rng.permutation(len(train_recs))
        sums = {"loss": 0.0, "loss_event": 0.0, "loss_sentence": 0.0,
                "loss_vsim": 0.0, "loss_tattn": 0.0}
        for start in range(0, len(order), exp.batch_size):
            batch = order[start : start + exp.batch_size]
            optimizer.zero_grad()
            scale = 1.0 / len(batch)
            for i in batch:
                result = model.training_forward(train_recs[i], labels[i], gumbel_rng)
                (result.loss * scale).backward()
                sums["loss"] += result.loss.item()
                sums["loss_event"] += result.loss_event.item()
                sums["loss_sentence"] += result.loss_sentence.item()
                if result.loss_vsim is not None:
                    sums["loss_vsim"] += result.loss_vsim.item()
                if result.loss_tattn is not None:
                    sums["loss_tattn"] += result.loss_tattn.item()
            optimizer.step(epoch)

        preds = [model.run_inference(r) for r in val_recs]
        report = evaluate_corpus(preds, val_gts)
        metric = report["metrics"][exp.early_stop_metric]
        row = {"epoch": epoch}
        row.update({k: v / len(train_recs) for k, v in sums.items()})
        for key in LOG_METRICS:
            row[f"val.{key}"] = report["metrics"][key]
        row[f"val.{exp.early_stop_metric}"] = metric
        log_rows.append(row)
        if not quiet:
            print(
                f"epoch {epoch}: loss {row['loss']:.3f} "
                f"{exp.early_stop_metric} {metric:.4f}"
            )
        if metric >= best_metric or best_epoch < 0:
            # a tie keeps the later, longer-trained epoch; a NaN metric beats
            # nothing: the first epoch stands until one does
            best_metric = float(np.fmax(best_metric, metric))
            best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in model.parameters().items()}
            best_report = report
        elif (
            exp.early_stop_patience is not None
            and epoch - best_epoch >= exp.early_stop_patience
        ):
            break

    for name, p in model.parameters().items():
        p.data = best_params[name]
    return TrainResult(
        model=model,
        log_rows=log_rows,
        best_epoch=best_epoch,
        best_metric=best_metric,
        vocab=vocab,
        val_report=best_report,
    )


def write_log_csv(rows: list[dict], path) -> None:
    if not rows:
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Ablation matrix
# ---------------------------------------------------------------------------


def ablate(
    exp: ExperimentConfig,
    variants: list[str],
    n_list: list[int] | None = None,
    records: list[DatasetRecord] | None = None,
    quiet: bool = True,
) -> list[dict]:
    """Train/evaluate each (variant, candidate-budget) cell with the shared
    seed; returns one row per cell."""
    from .synth import generate_world

    # every cell's config is checked before any cell trains
    cell_exps = [replace(exp, variant=v) for v in variants]
    if n_list is None:
        if records is None:
            raise ValueError("ablate needs a dataset or a candidate-count list")
        cells = [(records, None)]
    else:
        world = exp.world_config()
        cells = [(generate_world(world, n_override=n), n) for n in n_list]

    rows = []
    for cell_records, n in cells:
        digest = dataset_digest(cell_records)
        for cell_exp in cell_exps:
            result = train(cell_records, cell_exp, quiet=quiet)
            row = {
                "variant": cell_exp.variant,
                "n_candidates": n if n is not None else len(cell_records[0].candidates),
                "dataset_hash": digest,
                "best_epoch": result.best_epoch,
            }
            row.update(result.val_report["metrics"])
            rows.append(row)
    return rows
