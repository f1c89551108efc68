"""The benchmark's workloads: ``train``, ``generate`` and ``score``.

Each workload builds its inputs from the benchmark seed, reaches the library
only through its public entry points, and checks what the library returns.
A workload has three phases:

* ``setup`` makes the inputs (timed; the cheap steps are repeated and their
  median taken);
* ``unit(ledger, index)`` runs timed unit ``index`` of the measured phase and
  appends its ``Sample``s; the runner repeats units for the run's length;
* ``finish`` runs the checks that need the whole measured phase.

Every check is an operation in the ``Ledger``: a failed check or an exception
fails it, and the run reports attempted and failed operations.

Times are taken with a ``Clock``, which scales each wall time to a reference
machine speed (see ``Clock``); the wall times are reported as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path
from typing import Callable, ContextManager, NamedTuple

# The world and experiment settings of configs/default.json, copied so that an
# edit to the shipped config does not change what the benchmark measures.
DEFAULT_WORLD = {
    "ingredients_range": [2, 4],
    "steps_range": [3, 6],
    "duration_range": [120.0, 300.0],
    "feature_dim": 32,
    "n_candidates": 10,
    "jitter_sigma_frac": 0.05,
    "jitter_min_tiou": 0.3,
    "distractor_fraction": 1.0,
    "noise_scale": 0.05,
    "attach_candidate_sentences": True,
}
DEFAULT_EXPERIMENT = {
    "preset": "toy",
    "model": {
        "tau": 1.0,
        "tau_anneal": False,
        "hard_selection": True,
        "no_reselection": True,
        "conditioning": "teacher",
        "memory_update": "joint",
        "vsim_negatives": "skip",
    },
    "optimizer": {
        "lr": 0.0001,
        "beta1": 0.9,
        "beta2": 0.999,
        "weight_decay": 0.01,
        "warmup_epochs": 5,
    },
    "batch_size": 16,
    "early_stop_metric": "soda.cider_d",
    "early_stop_patience": None,
    "vocab_min_count": 3,
    "val_fraction": 0.2,
    "seed": 0,
}
# The variants ``train`` runs, and the candidate budgets ``score`` sweeps.
TRAIN_VARIANTS = ("B", "BIVT")
SCORE_BUDGETS = (4, 6, 8)
# The ``generate`` checkpoint recipe: a BIVT model trained on a world with a
# fixed seed at this learning rate, so that every run decodes with the same
# parameters; only the held-out videos come from the benchmark seed.
RECIPE_WORLD_SEED = 0
RECIPE_LR = 3e-3

# Sizes of the committed workloads; the tests run the same code on smaller ones.
SIZES = {
    # Validation decodes with a nearly untrained model, which stops at once or
    # runs every step to the maximum length depending on the world; with
    # val_fraction 0.1 one of each world's 16 videos is validated, so that
    # swing stays small against the training time.  Small worlds keep each
    # call short, so the clock's kernel runs close to the work it scales.
    "train": {
        "worlds": 4,
        "videos": 16,
        "epochs": 2,
        "val_fraction": 0.1,
    },
    "generate": {"recipe_videos": 40, "recipe_epochs": 8, "heldout_videos": 150},
    "score": {"videos": 200},
}
SETUP_REPEATS = 5
SHARED_SCORE_KEYS = (
    "dvc_eval.bleu4",
    "dvc_eval.meteor",
    "dvc_eval.cider_d",
    "soda.meteor",
    "soda.cider_d",
    "soda.tiou",
)


class Sample(NamedTuple):
    """Work done in one timed span: videos and recipe steps (sentences), and
    the span's scaled and wall seconds."""

    videos: int
    sentences: int
    seconds: float
    wall: float


class Clock:
    """Wall time, and wall time scaled to a reference machine speed.

    The shared hosts this benchmark runs on change speed by up to 2x over
    seconds to minutes, for every process alike: identical ``train()`` calls
    took 0.33 s to 0.61 s (medians of ten calls), and process time moved
    with wall time.  A fixed kernel of small numpy operations and Python
    bytecode, shaped like the library's per-operation work, slows down with
    them.  ``time`` runs the kernel before and after the timed call and
    scales the call's wall time by ``REFERENCE_S`` over the kernel's mean
    time, so a slow spell of the host cancels while a change to the library
    does not: a 20% slowdown injected into ``train()`` or ``run_inference``
    read as 17-19% after scaling (mean of four paired runs each).  On that
    host the ratio of call time to kernel time varied about a tenth as much
    as the call time itself.
    """

    # the kernel's typical time on a 2-core box (Python 3.11, numpy 2.4,
    # OpenBLAS, one thread), so scaled figures read as that box's wall times
    REFERENCE_S = 0.9e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._w = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((12, 64))
        self._last: float | None = None
        self.kernel_times: list[float] = []

    def _kernel_once(self) -> float:
        np, w, x = self._np, self._w, self._x
        start = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            a = x @ w
            acc += float((np.tanh(a) * 0.5 + a).sum()) + sum(range(20))
        return time.perf_counter() - start

    def kernel(self) -> float:
        # the median of five: a run that an interrupt lands in is dropped, and
        # unlike the fastest run it follows a host that flips between a fast
        # and a slow state (the fastest of five tracked train() calls worse)
        seconds = statistics.median(self._kernel_once() for _ in range(5))
        self.kernel_times.append(seconds)
        self._last = seconds
        return seconds

    def time(self, fn: Callable, *args):
        """``(result, scaled seconds, wall seconds)`` of ``fn(*args)``."""
        before = self._last if self._last is not None else self.kernel()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self.kernel()
        return result, wall * self.REFERENCE_S / ((before + after) / 2), wall


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # a failed operation is reported and the run goes on
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def derived_seed(seed: int, tag: str) -> int:
    """Independent world seed per workload and role, a pure function of the
    benchmark seed."""
    return zlib.crc32(f"{tag}:{seed}".encode())


def median_timed(
    clock: Clock, repeats: int, step: Callable[[], ContextManager], call: Callable[[], object]
):
    """Run ``call()`` ``repeats`` times, each inside ``step()``; return every
    result and the median (scaled, wall) times.  ``call`` looks the library
    function up when it runs, so a wrapper that ``step`` installs is the one
    called."""
    results, scaled, wall = [], [], []
    for _ in range(repeats):
        with step():
            result, seconds, wall_s = clock.time(call)
        results.append(result)
        scaled.append(seconds)
        wall.append(wall_s)
    return results, statistics.median(scaled), statistics.median(wall)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def predictions_digest(preds) -> str:
    payload = json.dumps(
        [[p.video_id, p.selections, p.sentences] for p in preds], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Workload:
    name = ""
    # the measured phase runs whole cycles of this many units, so that every
    # run takes its medians over the same mix of inputs
    cycle = 1

    def __init__(self, lib: dict, seed: int, size: dict, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.samples: list[Sample] = []
        self.digests: dict[str, str] = {}
        self.clock = Clock()
        self.setup_wall_s = 0.0

    def world(self, tag: str, videos: int, seed: int | None = None):
        overrides = dict(DEFAULT_WORLD, num_videos=videos)
        overrides["seed"] = derived_seed(self.seed, tag) if seed is None else seed
        return self.lib["synth"].WorldConfig.from_dict(overrides)

    def synthesize(self, tag: str, config, ledger: Ledger, step) -> tuple[list, float]:
        """Synthesize a world ``SETUP_REPEATS`` times, check that every copy is
        the same, record its digest."""
        synth = self.lib["synth"]
        worlds, seconds, wall = median_timed(
            self.clock, SETUP_REPEATS, step, lambda: synth.generate_world(config)
        )
        self.setup_wall_s += wall
        digests = {self.lib["training"].dataset_digest(w) for w in worlds}
        with ledger.op(f"{tag} world synthesis is deterministic"):
            check(len(digests) == 1, f"{tag}: world digests differ: {sorted(digests)}")
        self.digests[tag] = min(digests)
        return worlds[0], seconds

    def setup(self, ledger: Ledger, step: Callable[[], ContextManager]) -> float:
        raise NotImplementedError

    def unit(self, ledger: Ledger, index: int) -> None:
        raise NotImplementedError

    def finish(self, ledger: Ledger) -> None:
        pass

    def config(self) -> dict:
        return dict(self.size)

    def figures(self) -> dict:
        return {}

    def end_to_end(self, wall: bool = False) -> dict[str, float]:
        """The median time per video and the total throughput over the
        samples, in scaled (or wall) time."""
        secs = [s.wall if wall else s.seconds for s in self.samples]
        return {
            "ms_per_video.p50": statistics.median(
                1e3 * t / s.videos for s, t in zip(self.samples, secs)
            ),
            "sentences_per_s": sum(s.sentences for s in self.samples) / sum(secs),
        }


class TrainWorkload(Workload):
    """Fresh ``train()`` calls, B and BIVT in turn, cycling over several small
    seeded worlds; one sample is one B call plus one BIVT call on one world.
    A cycle runs every world once with B first and once with BIVT first."""

    name = "train"

    @property
    def cycle(self):
        return 2 * self.size["worlds"]

    def setup(self, ledger, step):
        training, size = self.lib["training"], self.size
        self.worlds = []
        seconds = 0.0
        for k in range(size["worlds"]):
            tag = f"train.{k}"
            records, synth_s = self.synthesize(tag, self.world(tag, size["videos"]), ledger, step)
            seconds += synth_s
            train_split, _ = training.split_dataset(records, size["val_fraction"])
            self.worlds.append(
                (
                    records,
                    len(train_split) * size["epochs"],
                    sum(len(r.steps) for r in train_split) * size["epochs"],
                )
            )
        self.experiments = {
            v: training.ExperimentConfig.from_dict(
                dict(
                    DEFAULT_EXPERIMENT,
                    variant=v,
                    max_epochs=size["epochs"],
                    val_fraction=size["val_fraction"],
                )
            )
            for v in TRAIN_VARIANTS
        }
        self.first_logs: dict[tuple[str, int], list[dict]] = {}
        self.per_variant = {v: [0, 0.0] for v in self.experiments}  # video-epochs, seconds
        return seconds

    def unit(self, ledger, pair):
        k = pair % len(self.worlds)
        records, video_epochs, sentence_epochs = self.worlds[k]
        order = list(self.experiments)
        if (pair // len(self.worlds)) % 2:
            order.reverse()
        total = total_wall = 0.0
        for variant in order:
            with ledger.op(f"train {variant} on world {k}"):
                result, seconds, wall = self.clock.time(
                    self.lib["training"].train, records, self.experiments[variant]
                )
                total += seconds
                total_wall += wall
                self.per_variant[variant][0] += video_epochs
                self.per_variant[variant][1] += seconds
                self.check_result(variant, k, result)
        self.samples.append(
            Sample(video_epochs * len(order), sentence_epochs * len(order), total, total_wall)
        )

    def check_result(self, variant: str, k: int, result) -> None:
        rows = result.log_rows
        what = f"{variant} on world {k}"
        check(len(rows) == self.size["epochs"], f"{what}: {len(rows)} epochs logged")
        for row in rows:
            for key, value in row.items():
                check(math.isfinite(value), f"{what}: epoch {row['epoch']} {key}={value}")
        check(rows[-1]["loss"] < rows[0]["loss"], f"{what}: final loss not below first")
        check(result.best_epoch >= 0, f"{what}: best_epoch {result.best_epoch}")
        first = self.first_logs.setdefault((variant, k), rows)
        check(rows == first, f"{what}: training log differs between identical calls")

    def config(self):
        return dict(self.size, variants=list(TRAIN_VARIANTS))

    def figures(self):
        out = {}
        for variant, (video_epochs, seconds) in self.per_variant.items():
            if seconds:
                out[f"train_videos_per_s.{variant}"] = {
                    "value": video_epochs / seconds,
                    "unit": "videos/s",
                }
        for (variant, k), rows in self.first_logs.items():
            if k == 0:
                out[f"train_loss_final.{variant}"] = {"value": rows[-1]["loss"], "unit": "nats/video"}
        return out


class GenerateWorkload(Workload):
    """Greedy ``run_inference`` over held-out videos with a checkpoint that
    set-up trains, saves and reloads; one sample is one video."""

    name = "generate"

    def setup(self, ledger, step):
        lib, size = self.lib, self.size
        recipe_world = self.world("recipe", size["recipe_videos"], RECIPE_WORLD_SEED)
        recipe, synth_a = self.synthesize("recipe", recipe_world, ledger, step)
        self.heldout, synth_b = self.synthesize(
            "heldout", self.world("heldout", size["heldout_videos"]), ledger, step
        )
        exp = lib["training"].ExperimentConfig.from_dict(
            dict(
                DEFAULT_EXPERIMENT,
                variant="BIVT",
                max_epochs=size["recipe_epochs"],
                optimizer=dict(DEFAULT_EXPERIMENT["optimizer"], lr=RECIPE_LR),
            )
        )
        # training is the checkpoint's recipe, so it is timed once and never traced
        result, train_s, train_wall = self.clock.time(lib["training"].train, recipe, exp)
        self.setup_wall_s += train_wall
        self.recipe_summary = {
            "best_epoch": result.best_epoch,
            "best_metric": result.best_metric,
            "loss_first": result.log_rows[0]["loss"],
            "loss_final": result.log_rows[-1]["loss"],
        }
        with ledger.op("checkpoint recipe keeps a trained epoch"):
            check(result.best_epoch >= 0, f"best_epoch {result.best_epoch}")
        path = self.workdir / "generate.npz"
        model = lib["model"]
        _, save_s, save_wall = median_timed(
            self.clock, SETUP_REPEATS, step, lambda: model.save_checkpoint(path, result.model)
        )
        loaded, load_s, load_wall = median_timed(
            self.clock, SETUP_REPEATS, step, lambda: model.load_checkpoint(path)
        )
        self.setup_wall_s += save_wall + load_wall
        self.model = loaded[0][0]
        trained = result.model.parameters()
        with ledger.op("checkpoint round trip keeps every parameter"):
            params = self.model.parameters()
            check(sorted(params) == sorted(trained), "parameter names differ")
            for name, p in params.items():
                check(
                    p.data.dtype == trained[name].data.dtype
                    and (p.data == trained[name].data).all(),
                    f"parameter {name} differs after reload",
                )
        self.first_pass: dict[str, object] = {}
        self.tokens = 0
        return synth_a + synth_b + train_s + save_s + load_s

    def unit(self, ledger, index):
        for record in self.heldout:
            with ledger.op(f"generate {record.video_id}"):
                pred, seconds, wall = self.clock.time(self.model.run_inference, record)
                self.samples.append(Sample(1, len(pred.selections), seconds, wall))
                self.tokens += sum(len(s) for s in pred.sentences)
                self.check_prediction(record, pred)
                first = self.first_pass.setdefault(record.video_id, pred)
                check(pred == first, f"{record.video_id}: output differs between passes")

    def check_prediction(self, record, pred) -> None:
        n = len(record.candidates)
        sel = pred.selections
        check(len(set(sel)) == len(sel), f"{record.video_id}: repeated selection {sel}")
        check(all(0 <= i < n for i in sel), f"{record.video_id}: selection out of range {sel}")
        check(
            pred.intervals == [record.candidates.events[i] for i in sel],
            f"{record.video_id}: intervals are not the chosen candidates' events",
        )
        for sentence in pred.sentences:
            check(
                "<pad>" not in sentence and "<bos>" not in sentence,
                f"{record.video_id}: reserved token in {sentence}",
            )

    def finish(self, ledger):
        preds = [self.first_pass[r.video_id] for r in self.heldout if r.video_id in self.first_pass]
        with ledger.op("evaluate_corpus accepts every prediction"):
            check(len(preds) == len(self.heldout), "a video has no prediction")
            report = self.lib["dvceval"].evaluate_corpus(preds, [r.ground_truth for r in self.heldout])
            check(all(math.isfinite(v) for v in report["metrics"].values()), "non-finite metric")
            self.eval_metrics = report["metrics"]
        record = self.heldout[self.seed % len(self.heldout)]
        with ledger.op(f"re-running {record.video_id} gives identical output"):
            check(
                self.model.run_inference(record) == self.first_pass[record.video_id],
                f"{record.video_id}: re-run differs",
            )

    def work_mix(self) -> dict:
        preds = list(self.first_pass.values())
        sentences = [s for p in preds for s in p.sentences]
        max_len = self.model.config.max_sentence_len
        return {
            "videos": len(preds),
            "steps_per_video": len(sentences) / max(1, len(preds)),
            "tokens_per_sentence": sum(map(len, sentences)) / max(1, len(sentences)),
            "max_len_hit_rate": sum(len(s) >= max_len for s in sentences) / max(1, len(sentences)),
            "stop_first_rate": sum(not p.selections for p in preds) / max(1, len(preds)),
            "predictions_digest": predictions_digest(preds),
        }

    def config(self):
        return dict(
            self.size,
            recipe_variant="BIVT",
            recipe_world_seed=RECIPE_WORLD_SEED,
            recipe_lr=RECIPE_LR,
        )

    def figures(self):
        ms = [1e3 * s.seconds for s in self.samples]
        return {
            "gen_ms_per_video.p50": {"value": statistics.median(ms), "unit": "ms"},
            "gen_ms_per_video.p90": {"value": percentile(ms, 90), "unit": "ms"},
            "gen_samples": {"value": len(ms), "unit": "count"},
            "gen_tokens_per_s": {
                "value": self.tokens / sum(s.seconds for s in self.samples),
                "unit": "words/s",
            },
            "work_mix": self.work_mix(),
            "checkpoint_recipe": self.recipe_summary,
            "eval_metrics": getattr(self, "eval_metrics", None),
        }


class ScoreWorkload(Workload):
    """The model-free path: synthesize, save and load the dataset, oracle
    report and budget sweep, evaluate the oracle predictions; one sample is
    one pass over the world."""

    name = "score"

    def setup(self, ledger, step):
        self.world_config = self.world("score", self.size["videos"])
        _, seconds = self.synthesize("score", self.world_config, ledger, step)
        self.path = self.workdir / "score.json"
        return seconds

    def unit(self, ledger, index):
        lib = self.lib
        with ledger.op("score pass"):
            (loaded, report, sweep, evaluated), seconds, wall = self.path_pass()
            self.samples.append(
                Sample(len(loaded), sum(len(r.steps) for r in loaded), seconds, wall)
            )
            check(
                lib["training"].dataset_digest(loaded) == self.digests["score"],
                "dataset changed through synth/save/load",
            )
            for key in SHARED_SCORE_KEYS:
                check(
                    evaluated["metrics"][key] == report["metrics"][key],
                    f"{key}: evaluate_corpus {evaluated['metrics'][key]} "
                    f"!= oracle_report {report['metrics'][key]}",
                )
            tious = [row["mean_tiou"] for row in sweep["rows"]]
            check(tious == sorted(tious), f"oracle tIoU falls with a larger budget: {tious}")
            check(tious[-1] <= report["metrics"]["mean_tiou"], "subset beats the full candidate set")
            self.oracle_metrics = report["metrics"]

    def path_pass(self):
        """One pass; each stage is timed on its own, so that the clock's
        kernel runs close to the work it scales.  Returns the outputs and the
        pass's summed (scaled, wall) seconds."""
        lib = self.lib
        seconds = wall = 0.0

        def timed(fn, *args):
            nonlocal seconds, wall
            result, stage_s, stage_wall = self.clock.time(fn, *args)
            seconds += stage_s
            wall += stage_wall
            return result

        records = timed(lib["synth"].generate_world, self.world_config)
        timed(lib["data"].save_dataset, records, self.path)
        loaded = timed(lib["data"].load_dataset, self.path)
        report = timed(lib["oracle"].oracle_report, loaded)
        sweep = timed(lib["oracle"].oracle_sweep, loaded, list(SCORE_BUDGETS))
        evaluated = timed(self.evaluate_oracle, loaded)
        return (loaded, report, sweep, evaluated), seconds, wall

    def evaluate_oracle(self, records):
        lib = self.lib
        preds = [lib["oracle"].oracle_prediction(r)[0] for r in records]
        return lib["dvceval"].evaluate_corpus(preds, [r.ground_truth for r in records])

    def config(self):
        return dict(self.size, budgets=list(SCORE_BUDGETS))

    def figures(self):
        return {
            "score_videos_per_s": {
                "value": sum(s.videos for s in self.samples) / sum(s.seconds for s in self.samples),
                "unit": "videos/s",
            },
            "oracle_metrics": getattr(self, "oracle_metrics", None),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, GenerateWorkload, ScoreWorkload)}
