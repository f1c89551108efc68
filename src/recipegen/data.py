"""Core records, vocabulary, and the JSON file formats shared by every module.

A ``DatasetRecord`` is its ``GroundTruthRecipe`` (video id, duration, steps,
ingredients) plus its candidate events, so a record is its own ground truth.

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

Every number in a dataset or prediction file must be finite.

Metric-report JSON: ``{"metrics": {name: float}, "per_video": [...],
"metadata": {...}}``.
"""

from __future__ import annotations

import json
import math
import string
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

MAX_SENTENCE_LEN = 20
MAX_STEPS = 12

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


class ValidationError(ValueError):
    """A record violates one of its invariants."""


class ParseError(ValueError):
    """The input file is not well-formed JSON."""


def config_from_dict(cls, d: dict, section: str):
    """``cls(**d)`` for the config object ``d``, whose keys must be fields of
    the dataclass ``cls``; errors name the section and the keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} config must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {section} config keys: {unknown}")
    return cls(**d)


def check_int(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int (not a
    bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_number(name: str, value, low: float, high: float = math.inf) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite int or
    float (not a bool, nor an int beyond the float range) in [low, high]."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:  # NaN fails the comparison; an int beyond the float range overflows
        finite = number and low <= value <= high and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def check_distinct(name: str, values: list) -> None:
    """Raise ``ValueError`` naming ``name`` and each value it lists more than once."""
    repeated = [str(v) for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{name}: {', '.join(repeated)} listed more than once")


def check_flag(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


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


@dataclass(kw_only=True)
class DatasetRecord(GroundTruthRecipe):
    """One video: its ground-truth recipe plus the candidate events and their
    features (keyword-only, after the recipe fields).  A record is its own
    ground truth: it passes wherever a ``GroundTruthRecipe`` is read."""

    candidates: EventCandidateSet

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError(f"{self.video_id}: duration must be positive")
        events = [("candidate", ev) for ev in self.candidates.events]
        events += [(f"step {k}", step.interval) for k, step in enumerate(self.steps)]
        for what, ev in events:
            if ev.end > self.duration + 1e-9:
                raise ValidationError(
                    f"{self.video_id}: {what} [{ev.start}, {ev.end}] exceeds "
                    f"duration {self.duration}"
                )
        super().__post_init__()  # the step order before counting overlaps
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

    @property
    def ground_truth(self) -> GroundTruthRecipe:
        """The record itself, which is its ground-truth recipe."""
        return self


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


def _field(obj, key: str, types, where: str):
    """``obj[key]``, which must exist and be an instance of ``types``."""
    if not isinstance(obj, dict):
        raise ValidationError(
            f"{where}: expected an object with field {key!r}, got {type(obj).__name__}"
        )
    value = obj.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValidationError(f"{where}: missing or mistyped field {key!r}")
    return value


def _finite(values: list, where: str, key: str) -> list:
    """``values``, which must all be finite JSON numbers: not ``NaN`` or
    ``Infinity``, and no integer beyond the float range."""
    try:
        if set(map(type, values)) <= {int, float} and all(map(math.isfinite, values)):
            return values
    except OverflowError:
        pass
    raise ValidationError(f"{where}: field {key!r} must hold finite numbers")


def _number(obj, key: str, where: str) -> float:
    return float(_finite([_field(obj, key, (int, float), where)], where, key)[0])


def _located(where: str, make, *args):
    """``make(*args)``, with ``where`` prefixed to a ``ValidationError``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _interval(obj, where: str) -> TimedEvent:
    return _located(where, TimedEvent, _number(obj, "start", where), _number(obj, "end", where))


def _record_from_obj(obj, where: str) -> DatasetRecord:
    vid = _field(obj, "video_id", str, where)
    events, feats, cand_sents = [], [], []
    raw_candidates = _field(obj, "candidates", list, vid)
    if not raw_candidates:
        raise ValidationError(f"{vid}: field 'candidates' needs at least one candidate")
    for i, c in enumerate(raw_candidates):
        at = f"{vid}: candidates[{i}]"
        events.append(_interval(c, at))
        feats.append(_finite(_field(c, "feature", list, at), at, "feature"))
        if len(feats[-1]) != len(feats[0]):
            raise ValidationError(f"{at}: feature length {len(feats[-1])} != {len(feats[0])}")
        cand_sents.append(c.get("sentence"))
    have_sents = any(s is not None for s in cand_sents)
    if have_sents and not all(isinstance(s, str) for s in cand_sents):
        raise ValidationError(f"{vid}: candidate sentences must be all-present strings or absent")
    candidates = _located(
        vid, EventCandidateSet, events, np.asarray(feats, dtype=np.float64),
        cand_sents if have_sents else None,
    )
    steps = []
    for i, s in enumerate(_field(obj, "steps", list, vid)):
        at = f"{vid}: steps[{i}]"
        tokens = tokenize(_field(s, "sentence", str, at))
        steps.append(_located(at, RecipeStep, _interval(s, at), tokens))
    ingredients = _field(obj, "ingredients", list, vid)
    if not all(isinstance(i, str) for i in ingredients):
        raise ValidationError(f"{vid}: field 'ingredients' must hold strings")
    return DatasetRecord(vid, _number(obj, "duration", vid), steps, ingredients, candidates=candidates)


def read_json(path, kind: type, what: str):
    """The top-level ``kind`` (``what``) of the JSON file at ``path``, naming its line on error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, kind):
        raise ValidationError(f"{path}: expected {what}")
    return raw


def _check_unique(path, items) -> None:
    """Reject, naming them, video ids that appear more than once."""
    counts = Counter(item.video_id for item in items)
    repeated = sorted(vid for vid, count in counts.items() if count > 1)
    if repeated:
        raise ValidationError(f"{path}: duplicate video_id values: {', '.join(repeated)}")


def load_dataset(path) -> list[DatasetRecord]:
    """Load and validate a dataset file; records come back ordered by video_id."""
    raw = read_json(path, list, "a top-level array of records")
    if not raw:
        raise ValidationError(f"{path}: no records")
    records = [_record_from_obj(obj, f"{path}: record {pos}") for pos, obj in enumerate(raw)]
    _check_unique(path, records)
    records.sort(key=lambda r: r.video_id)
    return records


def _record_to_obj(record: DatasetRecord) -> dict:
    cands = []
    for i, ev in enumerate(record.candidates.events):
        c = {
            "start": ev.start,
            "end": ev.end,
            "feature": record.candidates.features[i].tolist(),
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
    """A JSON array of one record per line, by the C encoder (``indent`` turns it off)."""
    records = sorted(records, key=lambda r: r.video_id)
    lines = ",\n".join(json.dumps(_record_to_obj(r), sort_keys=True) for r in records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[\n{lines}\n]\n")


# ---------------------------------------------------------------------------
# Prediction JSON
# ---------------------------------------------------------------------------


def load_predictions(path) -> list[PredictionRecipe]:
    raw = read_json(path, list, "a top-level array of predictions")
    preds = []
    for pos, obj in enumerate(raw):
        vid = _field(obj, "video_id", str, f"{path}: prediction {pos}")
        selections, sentences, intervals = [], [], []
        for res in _field(obj, "results", list, vid):
            selections.append(_field(res, "index", int, vid))
            sentences.append(tokenize(_field(res, "sentence", str, vid)))
            intervals.append(_interval(res, vid))
        preds.append(PredictionRecipe(vid, selections, sentences, intervals))
    _check_unique(path, preds)
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
