"""Experiment orchestration: splits, training loop, ablations."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import (
    DatasetRecord,
    Vocabulary,
    build_vocabulary,
    check_config_keys,
    _record_to_obj,
)
from .dvceval import evaluate_corpus
from .model import (
    VARIANTS,
    ModelConfig,
    RecipeModel,
    VideoLabels,
    build_labels,
    preset_config,
    tau_schedule,
)
from .optim import Adam, OptimizerConfig
from .synth import DEFAULT_ACTIONS, WorldConfig


@dataclass
class ExperimentConfig:
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
    actions: list[str] = field(default_factory=lambda: list(DEFAULT_ACTIONS))
    n_candidates: int | None = None
    seed: int = 0
    world: dict = field(default_factory=dict)  # WorldConfig overrides for synth

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant {self.variant!r} must be one of {VARIANTS}")
        check_config_keys(ModelConfig, self.model, "model")
        check_config_keys(OptimizerConfig, self.optimizer, "optimizer")
        check_config_keys(WorldConfig, self.world, "world")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_config_keys(cls, d, "experiment")
        return cls(**d)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**self.optimizer)

    def world_config(self) -> WorldConfig:
        overrides = dict(self.world)
        overrides.setdefault("seed", self.seed)
        if self.n_candidates is not None:
            overrides["n_candidates"] = self.n_candidates
        return WorldConfig.from_dict(overrides)


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


def make_model(
    exp: ExperimentConfig, vocab: Vocabulary, feature_dim: int
) -> RecipeModel:
    overrides = dict(exp.model)
    overrides.update(variant=exp.variant, feature_dim=feature_dim)
    config = preset_config(exp.preset, **overrides)
    return RecipeModel(config, vocab, exp.actions, seed=exp.seed)


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
    model = make_model(exp, vocab, feature_dim)
    with_distant = model.simulator is not None
    labels = [
        build_labels(r, vocab, exp.actions, with_distant) for r in train_recs
    ]
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
        tau = tau_schedule(model.config, epoch, exp.max_epochs)
        order = shuffle_rng.permutation(len(train_recs))
        sums = {"loss": 0.0, "loss_event": 0.0, "loss_sentence": 0.0,
                "loss_vsim": 0.0, "loss_tattn": 0.0}
        for start in range(0, len(order), exp.batch_size):
            batch = order[start : start + exp.batch_size]
            optimizer.zero_grad()
            scale = 1.0 / len(batch)
            for i in batch:
                result = model.training_forward(
                    train_recs[i], labels[i], gumbel_rng, tau=tau
                )
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
        if metric > best_metric or best_epoch < 0:
            # a NaN metric beats nothing: the first epoch stands until one does
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
    cell_exps = [ExperimentConfig.from_dict({**exp.to_dict(), "variant": v}) for v in variants]
    if n_list is None:
        if records is None:
            raise ValueError("ablate needs a dataset or a candidate-count list")
        cells = [(records, None)]
    else:
        cells = []
        for n in n_list:
            world = exp.world_config()
            cells.append((generate_world(world, n_override=n), n))

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
