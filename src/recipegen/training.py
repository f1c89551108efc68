"""Experiment orchestration: splits, training loop, ablations.

``train`` runs each minibatch and validation pass in two fixed halves
through ``parallel.in_halves``; only the gradient halves share an mmap."""

from __future__ import annotations

import csv
import hashlib
import json
import mmap
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DatasetRecord,
    build_vocabulary,
    check_distinct,
    check_int,
    config_from_dict,
    _record_to_obj,
)
from .dvceval import REPORT_METRICS, evaluate_corpus
from .model import LOSS_TERMS, ModelConfig, RecipeModel, preset_config
from .optim import Adam, OptimizerConfig
from .parallel import in_halves
from .synth import WorldConfig, generate_world


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
        if not (number and 0 < self.val_fraction < 1 and 0 < _val_percent(self.val_fraction) < 100):
            raise ValueError(f"val_fraction must be a number in (0, 1) that rounds to 1%..99% "
                             f"(the split's resolution is 1%), got {self.val_fraction!r}")
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


def _val_percent(val_fraction: float) -> int:
    """The validation share in the whole percent that ``split_dataset`` uses."""
    return int(round(val_fraction * 100))


def split_dataset(
    records: list[DatasetRecord], val_fraction: float = 0.2
) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic split by video_id hash (stable across runs): a video is
    held out when its hash bucket in 0..99 falls below ``val_fraction`` in
    whole percent."""
    train, val = [], []
    cut = _val_percent(val_fraction)
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
    val_report: dict


LOG_METRICS = ("soda.tiou", "soda.cider_d", "soda.meteor", "count_stats.eta1")


class _Uniforms:
    """Pre-drawn uniforms, replayed in order by ``training_forward``'s ``random`` calls."""

    def __init__(self, values: np.ndarray):
        self.rest = values

    def random(self, shape) -> np.ndarray:
        out, self.rest = np.split(self.rest, [np.prod(shape, dtype=int)])
        return out.reshape(shape)


def _in_halves(work, items: list, params: dict) -> tuple:
    """``parallel.in_halves`` of ``work`` from cleared gradients, leaving the sum of
    both halves' gradients in ``.grad``; a forked half's come back in a shared mmap."""

    def half(part):
        for p in params.values():
            p.grad = None
        return work(part), [p.grad for p in params.values()]

    def channel():
        offsets = np.cumsum([0] + [p.data.nbytes for p in params.values()]).tolist()
        shared = mmap.mmap(-1, offsets[-1])
        views = [np.frombuffer(shared, p.data.dtype, p.data.size, start).reshape(p.data.shape)
                 for p, start in zip(params.values(), offsets)]

        def pack(out):
            for view, g in zip(views, out[1]):
                if g is not None:
                    view[...] = g
            return out[0], [g is not None for g in out[1]]

        return pack, lambda sent: (sent[0], [v if has else None for v, has in zip(views, sent[1])])

    (mine, ga), (theirs, gb) = in_halves(half, items, channel)
    for p, a, b in zip(params.values(), ga, gb):
        p.grad = b if a is None else a if b is None else a + b
    return mine, theirs


def train(
    records: list[DatasetRecord],
    exp: ExperimentConfig,
    quiet: bool = True,
) -> TrainResult:
    """Train on the videos ``split_dataset`` does not hold out, validate per
    epoch on the ``val_fraction`` it does, and keep the checkpoint that
    maximizes the early-stop metric.

    A minibatch's gradient is the sum over its first ceil(k/2) videos, in
    batch order, plus the sum over the rest; validation splits the same way.
    The split is fixed at two, for the idle second core of a 2-core box, so a
    machine decides only where the second half runs, never what is summed."""
    train_recs, val_recs = split_dataset(records, exp.val_fraction)
    empty = [name for name, split in (("train", train_recs), ("validation", val_recs)) if not split]
    if empty:
        raise ValueError(f"dataset too small to split: {len(records)} videos at val_fraction "
                         f"{exp.val_fraction} leave the {' and '.join(empty)} split empty")
    corpus = [s.sentence for r in train_recs for s in r.steps]
    vocab = build_vocabulary(corpus, min_count=exp.vocab_min_count)
    # the width most videos share (the first video's on a tie), so that
    # check_record names the odd video out, whichever it is
    widths = Counter(r.candidates.features.shape[1] for r in records)
    feature_dim = widths.most_common(1)[0][0]
    actions = exp.world_config().actions
    model = RecipeModel(exp.model_config(feature_dim), vocab, actions, seed=exp.seed)
    for r in records:  # a record the variant cannot read fails here, not mid-epoch
        model.check_record(r)
    labels = [model.labels(r) for r in train_recs]
    params = model.parameters()
    optimizer = Adam(params, exp.optimizer_config())

    shuffle_rng, gumbel_rng = map(np.random.default_rng, np.random.SeedSequence(exp.seed).spawn(2))
    draws = np.array([len(r.steps) * len(r.candidates) for r in train_recs])  # Gumbel uniforms

    def train_half(videos) -> list[dict]:  # each video's loss and the terms that occurred
        logged = []
        for i, uniforms, scale in videos:
            result = model.training_forward(train_recs[i], labels[i], _Uniforms(uniforms))
            (result.loss * scale).backward()
            logged.append({"loss": result.loss.item(), **{k: t.item() for k, t in result.terms.items()}})
        return logged

    best_metric = -np.inf
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    best_report: dict = {}
    log_rows: list[dict] = []

    for epoch in range(exp.max_epochs):
        order = shuffle_rng.permutation(len(train_recs))
        sums = dict.fromkeys(("loss",) + LOSS_TERMS, 0.0)  # an absent term logs 0
        for start in range(0, len(order), exp.batch_size):
            batch = order[start : start + exp.batch_size]
            # drawn in batch order, so each video sees the noise a serial loop would
            uniforms = np.split(gumbel_rng.random(draws[batch].sum()), np.cumsum(draws[batch])[:-1])
            videos = [(i, u, 1.0 / len(batch)) for i, u in zip(batch, uniforms)]
            logged_a, logged_b = _in_halves(train_half, videos, params)
            for video in logged_a + logged_b:
                for key, value in video.items():
                    sums[key] += value
            optimizer.step(epoch)

        optimizer.zero_grad()  # validation keeps no gradient alive
        halves = in_halves(lambda recs: [model.run_inference(r) for r in recs], val_recs)
        report = evaluate_corpus(halves[0] + halves[1], val_recs)
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
            best_params = {k: p.data.copy() for k, p in params.items()}
            best_report = report
        elif (
            exp.early_stop_patience is not None
            and epoch - best_epoch >= exp.early_stop_patience
        ):
            break

    for name, p in params.items():
        p.data = best_params[name]
    return TrainResult(
        model=model,
        log_rows=log_rows,
        best_epoch=best_epoch,
        best_metric=best_metric,
        val_report=best_report,
    )


def write_log_csv(rows: list[dict], path) -> None:
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
    seed; returns one row per cell.

    Budget n's world is the experiment's world with ``n_candidates`` set to n,
    so the budgets share their videos, with nested candidate sets."""
    # every cell's config is checked before any cell trains
    cell_exps = [replace(exp, variant=v) for v in variants]
    if (n_list is None) == (records is None):
        raise ValueError("ablate needs a dataset or a candidate-count list, not both")
    for name, values in (("variants", variants), ("n_list", n_list)):
        if values is None:
            continue
        if len(values) == 0:
            raise ValueError(f"ablate needs at least one cell: {name} is empty")
        check_distinct(name, values)  # a repeated value would train a cell twice
    if n_list is None:
        cells = [records]
    else:
        world = exp.world_config()
        cells = [generate_world(replace(world, n_candidates=n)) for n in n_list]

    rows = []
    for cell_records in cells:
        digest = dataset_digest(cell_records)
        # the budget no video exceeds, as oracle.oracle_report scores a dataset at
        budget = max(len(r.candidates) for r in cell_records)
        for cell_exp in cell_exps:
            result = train(cell_records, cell_exp, quiet=quiet)
            row = {
                "variant": cell_exp.variant,
                "n_candidates": budget,
                "dataset_hash": digest,
                "best_epoch": result.best_epoch,
            }
            row.update(result.val_report["metrics"])
            rows.append(row)
    return rows
