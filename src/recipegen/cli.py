"""Command-line harness.

Subcommands: ``synth``, ``train``, ``generate``, ``evaluate``, ``oracle``,
``ablate``.  Exit codes: 0 success, 1 usage error, 2 validation error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import data
from .data import ParseError, ValidationError, load_dataset, load_predictions
from .dvceval import evaluate_corpus
from .model import VARIANTS, load_checkpoint, save_checkpoint
from .oracle import oracle_report, oracle_sweep
from .parallel import in_halves
from .training import (
    ExperimentConfig,
    ablate,
    dataset_digest,
    train,
    write_log_csv,
)
from .synth import generate_world

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_experiment(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    """The experiment of the config file at ``path``, with the command-line
    options merged in before it is built, so they are checked like the file."""
    raw = {}
    if path:
        raw = data.read_json(path, dict, "an experiment object")
    for key in ("seed", "variant"):
        if getattr(overrides, key, None) is not None:
            raw[key] = getattr(overrides, key)
    world = raw.get("world", {})
    # a world that is no object is left as it is, for ExperimentConfig to reject
    if getattr(overrides, "n_candidates", None) is not None and isinstance(world, dict):
        raw["world"] = {**world, "n_candidates": overrides.n_candidates}
    return ExperimentConfig.from_dict(raw)


def _check_out_dirs(args: argparse.Namespace, outputs: list[str], inputs: list[str]) -> None:
    """Each output path (the ``args`` attributes named in ``outputs``) names a
    file in an existing directory and resolves to no file that an input or an
    earlier output names; checked before any work is done."""
    taken = {}  # resolved path -> the option that names it first
    for name in inputs + outputs:
        if not (path := getattr(args, name)):
            continue
        option, resolved = f"--{name.replace('_', '-')} {path}", os.path.realpath(path)
        if name in outputs:
            folder = os.path.dirname(path)
            if os.path.isdir(path):
                raise ValidationError(f"{path}: is a directory, not a file")
            if not os.path.isdir(folder or "."):
                raise ValidationError(f"{path}: directory {folder} does not exist")
            if resolved in taken:
                raise ValidationError(f"{option} is the same file as {taken[resolved]}")
        taken.setdefault(resolved, option)


def _cmd_synth(args) -> int:
    _check_out_dirs(args, ["out"], ["config"])
    exp = _load_experiment(args.config, args)
    world = exp.world_config()
    records = generate_world(world)
    data.save_dataset(records, args.out)
    print(f"wrote {len(records)} videos to {args.out} (digest {dataset_digest(records)})")
    return EXIT_OK


def _cmd_train(args) -> int:
    _check_out_dirs(args, ["checkpoint", "log"], ["config", "dataset"])
    exp = _load_experiment(args.config, args)
    records = load_dataset(args.dataset)
    result = train(records, exp, quiet=args.quiet)
    save_checkpoint(
        args.checkpoint,
        result.model,
        extra_meta={
            "best_epoch": result.best_epoch,
            "best_metric": result.best_metric,
            "early_stop_metric": exp.early_stop_metric,
            "dataset_digest": dataset_digest(records),
        },
    )
    if args.log:
        write_log_csv(result.log_rows, args.log)
    print(
        f"best epoch {result.best_epoch}: {exp.early_stop_metric} = "
        f"{result.best_metric:.4f}; checkpoint -> {args.checkpoint}"
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    _check_out_dirs(args, ["out"], ["checkpoint", "dataset"])
    model, meta = load_checkpoint(args.checkpoint)
    records = load_dataset(args.dataset)
    for r in records:  # a record the model cannot read fails before any decoding
        model.check_record(r)
    preds = sum(in_halves(lambda half: [model.run_inference(r) for r in half], records), [])
    data.save_predictions(preds, args.out)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return EXIT_OK


def _check_predictions(preds, records) -> None:
    """Each predicted index names one of its video's candidates, with that
    candidate's interval."""
    events_of = {r.video_id: r.candidates.events for r in records}
    # evaluate_corpus names the videos missing from either side
    for pred in (p for p in preds if p.video_id in events_of):
        events = events_of[pred.video_id]
        for pos, (index, interval) in enumerate(zip(pred.selections, pred.intervals)):
            where = f"{pred.video_id}: results[{pos}]"
            if not 0 <= index < len(events):
                raise ValidationError(f"{where}: index {index} outside 0..{len(events) - 1}")
            for field in ("start", "end"):
                want, got = getattr(events[index], field), getattr(interval, field)
                if got != want:
                    raise ValidationError(f"{where}: {field} {got} != candidate {index}'s {want}")


def _cmd_evaluate(args) -> int:
    _check_out_dirs(args, ["out"], ["predictions", "dataset"])
    records = load_dataset(args.dataset)
    preds = load_predictions(args.predictions)
    _check_predictions(preds, records)
    report = evaluate_corpus(preds, records)
    data.save_report(report, args.out)
    for key in sorted(report["metrics"]):
        print(f"{key}: {report['metrics'][key]:.4f}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.seed is not None and not args.n_list:
        raise UsageError("--seed picks the nested subsets of an --n-list sweep; it needs --n-list")
    _check_out_dirs(args, ["hist_out", "out"], ["dataset"])
    records = load_dataset(args.dataset)
    report = oracle_report(records, mode=args.mode)
    if args.n_list:
        report["sweep"] = oracle_sweep(records, args.n_list, seed=args.seed or 0)
    if args.hist_out:
        with open(args.hist_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_low", "bin_high", "count"])
            writer.writerows(report["histogram"])
    if args.out:
        data.save_report(report, args.out)
    for key in sorted(report["metrics"]):
        print(f"{key}: {report['metrics'][key]:.4f}" if isinstance(report["metrics"][key], float)
              else f"{key}: {report['metrics'][key]}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    _check_out_dirs(args, ["out"], ["config", "dataset"])
    exp = _load_experiment(args.config, args)
    records = load_dataset(args.dataset) if args.dataset else None
    variants = args.variants.split(",") if args.variants else [exp.variant]
    rows = ablate(exp, variants, n_list=args.n_list, records=records, quiet=args.quiet)
    write_log_csv(rows, args.out)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="recipegen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset JSON")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-candidates", dest="n_candidates", type=int, default=None)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("generate", help="run inference, write prediction JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("oracle", help="oracle-selection analysis")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=("attached", "gt-sentences"), default="gt-sentences")
    p.add_argument("--hist-out", dest="hist_out", default=None)
    p.add_argument("--n-list", dest="n_list", type=int, nargs="+", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("ablate", help="variant / candidate-count matrix")
    p.add_argument("--config", default=None)
    cells = p.add_mutually_exclusive_group()  # one dataset, or one synthesized per budget
    cells.add_argument("--dataset", default=None)
    cells.add_argument("--n-list", dest="n_list", type=int, nargs="+", default=None)
    p.add_argument("--variants", default=None, help="comma-separated, e.g. B,BIV,BIVT")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ParseError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
