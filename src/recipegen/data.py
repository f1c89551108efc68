"""Core records, vocabulary, and the JSON file formats shared by every module.

File formats
------------
Dataset JSON: a top-level array of objects::

    {"video_id": str, "duration": float,
     "candidates": [{"start": float, "end": float, "feature": [float, ...],
                     "sentence": str (optional)}],
     "steps": [{"start": float, "end": float, "sentence": str}],
     "ingredients": [str, ...]}

Prediction JSON: array of ``{"video_id": str, "results": [{"index": int,
"start": float, "end": float, "sentence": str}]}``.

Metric-report JSON: ``{"metrics": {name: float}, "per_video": [...],
"metadata": {...}}``.
"""

from __future__ import annotations

import json
import string
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

MAX_SENTENCE_LEN = 20
MAX_STEPS = 12

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class ValidationError(ValueError):
    """A record violates one of its invariants."""


class ParseError(ValueError):
    """The input file is not well-formed JSON."""


def check_config_keys(cls, d: dict, section: str) -> None:
    """Reject keys of the config object ``d`` that are not fields of the
    dataclass ``cls``, naming the section and the keys."""
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {section} config keys: {unknown}")


class ValidationWarning(UserWarning):
    """Non-fatal irregularity found while loading (e.g. overlapping steps)."""


_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


@dataclass(frozen=True)
class TimedEvent:
    """A (start, end) interval in seconds; zero-length intervals are invalid."""

    start: float
    end: float

    def __post_init__(self):
        if not (self.start >= 0 and self.start < self.end):
            raise ValidationError(
                f"invalid interval [{self.start}, {self.end}]: need 0 <= start < end"
            )

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class EventCandidateSet:
    """Candidate intervals with one feature vector per interval.

    Candidates are kept sorted by start time (ties by end time).  ``sentences``
    is an optional per-candidate caption, used only by the attached-sentence
    oracle report.
    """

    events: list[TimedEvent]
    features: np.ndarray  # (N, d_e)
    sentences: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != len(self.events):
            raise ValidationError(
                f"features shape {self.features.shape} does not match "
                f"{len(self.events)} candidate events"
            )
        keys = [(e.start, e.end) for e in self.events]
        if keys != sorted(keys):
            raise ValidationError("candidate events are not sorted by start time")
        if self.sentences is not None and len(self.sentences) != len(self.events):
            raise ValidationError("candidate sentences length mismatch")

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class RecipeStep:
    interval: TimedEvent
    sentence: list[str]

    def __post_init__(self):
        if not (1 <= len(self.sentence) <= MAX_SENTENCE_LEN):
            raise ValidationError(
                f"sentence length {len(self.sentence)} outside [1, {MAX_SENTENCE_LEN}]"
            )


@dataclass
class GroundTruthRecipe:
    video_id: str
    duration: float
    steps: list[RecipeStep]
    ingredients: list[str]

    def __post_init__(self):
        if not (1 <= len(self.steps) <= MAX_STEPS):
            raise ValidationError(
                f"{self.video_id}: step count {len(self.steps)} outside [1, {MAX_STEPS}]"
            )
        starts = [s.interval.start for s in self.steps]
        if starts != sorted(starts):
            raise ValidationError(f"{self.video_id}: steps not ordered by start time")


@dataclass
class PredictionRecipe:
    """Ordered (candidate index, sentence, resolved interval) triples."""

    video_id: str
    selections: list[int]
    sentences: list[list[str]]
    intervals: list[TimedEvent]

    def __post_init__(self):
        if not (len(self.selections) == len(self.sentences) == len(self.intervals)):
            raise ValidationError(
                f"{self.video_id}: selections/sentences/intervals lengths differ"
            )


@dataclass
class DatasetRecord:
    """One video: duration, candidate events + features, recipe, ingredients."""

    video_id: str
    duration: float
    candidates: EventCandidateSet
    steps: list[RecipeStep]
    ingredients: list[str]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError(f"{self.video_id}: duration must be positive")
        for ev in self.candidates.events:
            if ev.end > self.duration + 1e-9:
                raise ValidationError(
                    f"{self.video_id}: candidate [{ev.start}, {ev.end}] exceeds "
                    f"duration {self.duration}"
                )
        overlaps = sum(
            1
            for a, b in zip(self.steps, self.steps[1:])
            if b.interval.start < a.interval.end
        )
        if overlaps:
            warnings.warn(
                f"{self.video_id}: {overlaps} pair(s) of ground-truth steps overlap",
                ValidationWarning,
                stacklevel=3,
            )
        # re-run the recipe-level checks (ordering, step count)
        GroundTruthRecipe(self.video_id, self.duration, self.steps, self.ingredients)

    @property
    def ground_truth(self) -> GroundTruthRecipe:
        return GroundTruthRecipe(
            self.video_id, self.duration, self.steps, self.ingredients
        )


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids for PAD/BOS/EOS/UNK."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED_TOKENS) + list(tokens)
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValidationError("vocabulary tokens are not unique")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    @property
    def content_tokens(self) -> list[str]:
        return self.id_to_token[len(RESERVED_TOKENS) :]


def build_vocabulary(corpus: list[list[str]], min_count: int = 3) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    Tokens occurring fewer than ``min_count`` times map to UNK.  Kept tokens
    are ordered by descending frequency, ties broken lexicographically, so the
    result is deterministic for a given corpus.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


# ---------------------------------------------------------------------------
# Dataset JSON
# ---------------------------------------------------------------------------


def _record_from_obj(obj: dict) -> DatasetRecord:
    vid = obj.get("video_id", "<missing video_id>")
    try:
        events, feats, cand_sents = [], [], []
        for c in obj["candidates"]:
            events.append(TimedEvent(float(c["start"]), float(c["end"])))
            feats.append([float(x) for x in c["feature"]])
            cand_sents.append(c.get("sentence"))
        have_sents = any(s is not None for s in cand_sents)
        if have_sents and not all(isinstance(s, str) for s in cand_sents):
            raise ValidationError("candidate sentences must be all-present or absent")
        candidates = EventCandidateSet(
            events,
            np.asarray(feats, dtype=np.float64),
            sentences=cand_sents if have_sents else None,
        )
        steps = []
        for s in obj["steps"][:MAX_STEPS]:
            tokens = tokenize(s["sentence"])[:MAX_SENTENCE_LEN]
            steps.append(RecipeStep(TimedEvent(float(s["start"]), float(s["end"])), tokens))
        return DatasetRecord(
            video_id=str(obj["video_id"]),
            duration=float(obj["duration"]),
            candidates=candidates,
            steps=steps,
            ingredients=[str(i) for i in obj["ingredients"]],
        )
    except KeyError as exc:
        raise ValidationError(f"{vid}: missing field {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{vid}: {exc}") from exc


def load_dataset(path) -> list[DatasetRecord]:
    """Load and validate a dataset file; records come back ordered by video_id."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: expected a top-level array of records")
    records = [_record_from_obj(obj) for obj in raw]
    ids = [r.video_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate video_id values")
    records.sort(key=lambda r: r.video_id)
    return records


def _record_to_obj(record: DatasetRecord) -> dict:
    cands = []
    for i, ev in enumerate(record.candidates.events):
        c = {
            "start": ev.start,
            "end": ev.end,
            "feature": [float(x) for x in record.candidates.features[i]],
        }
        if record.candidates.sentences is not None:
            c["sentence"] = record.candidates.sentences[i]
        cands.append(c)
    return {
        "video_id": record.video_id,
        "duration": record.duration,
        "candidates": cands,
        "steps": [
            {
                "start": s.interval.start,
                "end": s.interval.end,
                "sentence": detokenize(s.sentence),
            }
            for s in record.steps
        ],
        "ingredients": list(record.ingredients),
    }


def save_dataset(records: list[DatasetRecord], path) -> None:
    records = sorted(records, key=lambda r: r.video_id)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([_record_to_obj(r) for r in records], fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Prediction JSON
# ---------------------------------------------------------------------------


def _field(obj, key: str, types, where: str):
    """``obj[key]``, which must exist and be an instance of ``types``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValidationError(f"{where}: missing or mistyped field {key!r}")
    return value


def load_predictions(path) -> list[PredictionRecipe]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: expected a top-level array of predictions")
    preds = []
    for pos, obj in enumerate(raw):
        vid = _field(obj, "video_id", str, f"{path}: prediction {pos}")
        selections, sentences, intervals = [], [], []
        for res in _field(obj, "results", list, vid):
            selections.append(_field(res, "index", int, vid))
            sentences.append(tokenize(_field(res, "sentence", str, vid)))
            start, end = (float(_field(res, key, (int, float), vid)) for key in ("start", "end"))
            intervals.append(TimedEvent(start, end))
        preds.append(PredictionRecipe(vid, selections, sentences, intervals))
    preds.sort(key=lambda p: p.video_id)
    return preds


def save_predictions(preds: list[PredictionRecipe], path) -> None:
    preds = sorted(preds, key=lambda p: p.video_id)
    out = []
    for p in preds:
        out.append(
            {
                "video_id": p.video_id,
                "results": [
                    {
                        "index": idx,
                        "start": iv.start,
                        "end": iv.end,
                        "sentence": detokenize(sent),
                    }
                    for idx, sent, iv in zip(p.selections, p.sentences, p.intervals)
                ],
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
