"""Deterministic synthetic kitchen world.

Generates feature-level "videos": an ordered cooking program (actions applied
to ingredients, with state-carrying noun phrases so later sentences depend on
earlier steps), non-overlapping step intervals, and candidate proposals.
Each candidate is one draw of an interval, a feature vector and an attached
sentence: a jittered copy of a step carries that step's base vector and
sentence; a distractor carries the overlap-weighted sum of the base vectors
of the steps it covers and the sentence of the step it overlaps most (the
first step's when it covers none).  Everything is a pure function of
(config, seed): per-video seeds are spawned from the world seed, and
candidate lists are generated sequentially, so worlds that differ only in
``n_candidates`` hold the same videos with nested candidate sets.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import (
    MAX_STEPS,
    DatasetRecord,
    EventCandidateSet,
    RecipeStep,
    TimedEvent,
    check_flag,
    check_int,
    check_number,
    config_from_dict,
    detokenize,
    tokenize,
)
from .dvceval import tiou

DEFAULT_INGREDIENTS = [
    "eggs", "flour", "butter", "milk", "sugar", "salt", "pepper", "onion",
    "garlic", "tomatoes", "potatoes", "carrots", "rice", "chicken", "beef",
    "mushrooms", "parmesan cheese", "olive oil", "soy sauce", "green beans",
]

DEFAULT_ACTIONS = [
    "chop", "crack", "stir", "heat", "add", "mix", "pour", "fry", "season",
    "bake", "slice", "serve",
]

PARTICIPLES = {
    "chop": "chopped", "crack": "cracked", "stir": "stirred", "heat": "heated",
    "add": "added", "mix": "mixed", "pour": "poured", "fry": "fried",
    "season": "seasoned", "bake": "baked", "slice": "sliced", "serve": "served",
}

VESSELS = {
    "heat": "pan", "fry": "pan", "bake": "oven", "mix": "bowl",
    "stir": "bowl", "pour": "bowl",
}


def _check_range(name: str, pair, check, low, high=math.inf) -> None:
    """A ``[low, high]`` pair whose ends each pass ``check`` within the bounds."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"{name} must be a [low, high] pair, got {pair!r}")
    for value in pair:
        check(name, value, low, high)
    if pair[0] > pair[1]:
        raise ValueError(f"{name} must have low <= high, got {list(pair)}")


@dataclass
class WorldConfig:
    num_videos: int = 200
    ingredient_pool: list[str] = field(default_factory=lambda: list(DEFAULT_INGREDIENTS))
    actions: list[str] = field(default_factory=lambda: list(DEFAULT_ACTIONS))
    ingredients_range: tuple[int, int] = (2, 4)
    steps_range: tuple[int, int] = (3, 6)
    duration_range: tuple[float, float] = (120.0, 300.0)
    feature_dim: int = 32
    n_candidates: int = 10
    jitter_sigma_frac: float = 0.05  # of the source step's duration
    jitter_min_tiou: float = 0.3
    distractor_fraction: float = 1.0  # of fill slots beyond one copy per step
    noise_scale: float = 0.05
    attach_candidate_sentences: bool = True
    seed: int = 0

    def __post_init__(self):
        check_int("world.num_videos", self.num_videos, 1)
        pool = self.ingredient_pool
        # sentences carry an ingredient's words verbatim, and labels match its tokens
        words = isinstance(pool, list) and all(
            isinstance(ing, str) and ing.split() == tokenize(ing) for ing in pool
        )
        if not (words and pool and "" not in pool and len(set(pool)) == len(pool)):
            raise ValueError(
                "world.ingredient_pool must be a non-empty list of distinct ingredients, "
                f"each lowercase words without punctuation, got {pool!r}"
            )
        # a later step names the ingredients an action touched by its participle
        if not isinstance(self.actions, list):
            raise ValueError(f"world.actions must be a list, got {self.actions!r}")
        for action in self.actions:
            if not (isinstance(action, str) and action in PARTICIPLES):
                raise ValueError(
                    f"world.actions: {action!r} has no participle; "
                    f"choose from {sorted(PARTICIPLES)}"
                )
        if not set(self.actions) - {"serve"}:
            raise ValueError("world.actions must hold an action other than 'serve'")
        _check_range("world.ingredients_range", self.ingredients_range, check_int, 1, len(pool))
        _check_range("world.steps_range", self.steps_range, check_int, 1, MAX_STEPS)
        _check_range("world.duration_range", self.duration_range, check_number, 1.0)
        check_int("world.feature_dim", self.feature_dim, 1)
        check_int("world.n_candidates", self.n_candidates, self.steps_range[1])
        check_number("world.jitter_sigma_frac", self.jitter_sigma_frac, 0.0)
        check_number("world.jitter_min_tiou", self.jitter_min_tiou, 0.0, 1.0)
        check_number("world.distractor_fraction", self.distractor_fraction, 0.0, 1.0)
        check_number("world.noise_scale", self.noise_scale, 0.0)
        check_flag("world.attach_candidate_sentences", self.attach_candidate_sentences)
        check_int("world.seed", self.seed, 0)

    @classmethod
    def from_dict(cls, d: dict) -> "WorldConfig":
        return config_from_dict(cls, d, "world")


@dataclass
class StepProgram:
    """Latent semantics of one ground-truth step, with the base feature
    vector that every candidate covering the step draws on."""

    ingredients: list[str]
    sentence: list[str]
    base: np.ndarray = field(compare=False, repr=False)


def _hash_vector(seed: int, kind: str, name: str, dim: int) -> np.ndarray:
    digest = hashlib.blake2b(f"{seed}:{kind}:{name}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


HashVectors = Callable[[str, str], np.ndarray]


def _step_base_vector(vector: HashVectors, t: int, action: str, ings: list[str]) -> np.ndarray:
    # summed one addition at a time in this order; the world digests pin its bits
    total = vector("action", action)
    for ing in ings:
        total = total + vector("ingredient", ing)
    total = total + vector("ordinal", str(t))
    return total / np.sqrt(len(ings) + 2)


def _ingredient_phrase(ingredient: str, last_action: str | None) -> list[str]:
    tokens = ingredient.split()
    if last_action is None:
        return tokens
    return [PARTICIPLES[last_action]] + tokens


def _build_program(
    config: WorldConfig, rng: np.random.Generator, vector: HashVectors
) -> list[StepProgram]:
    n_steps = int(rng.integers(config.steps_range[0], config.steps_range[1] + 1))
    n_ing = int(rng.integers(config.ingredients_range[0], config.ingredients_range[1] + 1))
    pool_idx = rng.choice(len(config.ingredient_pool), size=n_ing, replace=False)
    ingredients = [config.ingredient_pool[i] for i in sorted(pool_idx)]
    non_serve = [a for a in config.actions if a != "serve"]

    last_action: dict[str, str | None] = {}
    unused = list(ingredients)
    program = []
    for t in range(n_steps):
        is_last = t == n_steps - 1
        if is_last and "serve" in config.actions and rng.random() < 0.7:
            action = "serve"
        else:
            action = non_serve[int(rng.integers(len(non_serve)))]
        step_ings = []
        if unused and (t == 0 or rng.random() < 0.7):
            step_ings.append(unused.pop(0))
        else:
            used = [i for i in ingredients if i in last_action]
            step_ings.append(used[int(rng.integers(len(used)))])
        if rng.random() < 0.35:
            others = [i for i in ingredients if i not in step_ings and i in last_action]
            if unused and rng.random() < 0.5:
                step_ings.append(unused.pop(0))
            elif others:
                step_ings.append(others[int(rng.integers(len(others)))])

        tokens = [action, "the"] + _ingredient_phrase(step_ings[0], last_action.get(step_ings[0]))
        if len(step_ings) > 1:
            tokens += ["and", "the"] + _ingredient_phrase(step_ings[1], last_action.get(step_ings[1]))
        if action in VESSELS:
            tokens += ["in", "the", VESSELS[action]]
        for ing in step_ings:
            last_action[ing] = action
        base = _step_base_vector(vector, t, action, step_ings)
        program.append(StepProgram(step_ings, tokens, base))
    return program


def _place_intervals(n_steps: int, duration: float, rng: np.random.Generator) -> list[TimedEvent]:
    fill = rng.uniform(0.55, 0.8)
    lengths = rng.uniform(0.5, 1.5, size=n_steps)
    lengths = lengths / lengths.sum() * (fill * duration)
    gaps = rng.uniform(0.2, 1.0, size=n_steps + 1)
    gaps = gaps / gaps.sum() * ((1.0 - fill) * duration)
    # Step i starts after gap i and ends after length i, on a cursor that
    # walks gap 0, length 0, gap 1, ... from 0.0.  np.cumsum over that walk
    # (add.accumulate: one addition at a time, in order, never pairwise) makes
    # each of the cursor loop's additions in the loop's order, so every bound
    # has the loop's bits; np.round is what round() does to a numpy scalar.
    walk = np.empty(2 * n_steps)
    walk[0::2] = gaps[:n_steps]
    walk[1::2] = lengths
    bounds = np.round(np.cumsum(walk), 4).reshape(n_steps, 2)
    return [TimedEvent(start, end) for start, end in bounds.tolist()]


def _jitter_interval(
    source: TimedEvent, duration: float, config: WorldConfig, rng: np.random.Generator
) -> TimedEvent:
    sigma = config.jitter_sigma_frac * source.length
    for _ in range(50):  # min/max keep Python floats, which round() rounds decimally
        s = min(max(source.start + rng.normal(0.0, sigma), 0.0), duration)
        e = min(max(source.end + rng.normal(0.0, sigma), 0.0), duration)
        if s < e and tiou(TimedEvent(s, e), source) >= config.jitter_min_tiou:
            return TimedEvent(round(s, 4), round(e, 4))
    return source


def _random_span(duration: float, rng: np.random.Generator) -> TimedEvent:
    length = rng.uniform(0.02, 0.35) * duration
    start = rng.uniform(0.0, duration - length)
    return TimedEvent(round(float(start), 4), round(float(start + length), 4))


def propose_candidates(
    gt_steps: list[tuple[TimedEvent, StepProgram]],
    duration: float,
    config: WorldConfig,
    rng: np.random.Generator,
) -> EventCandidateSet:
    """``config.n_candidates`` candidate proposals (``WorldConfig`` keeps that
    at least the step count): one jittered copy per ground-truth step, then
    fill slots (distractors or extra copies per ``distractor_fraction``).

    Each candidate is one draw of its interval, feature and attached
    sentence.  A copy carries its step's base vector and sentence.  A
    distractor carries the sum of ``frac * base`` over the steps it covers,
    in step order (the zero vector when it covers none), where ``frac`` is
    the share of the distractor that a step covers; its sentence is that of
    the step with the largest share, the first on a tie, and the first
    step's when it covers none.  Gaussian noise of ``noise_scale`` is added
    to every feature.

    Candidates are drawn sequentially from ``rng``, so for a fixed generator
    state the first m candidates of a run at budget n equal the run at budget
    m: candidate sets at increasing ``n_candidates`` are nested.
    """
    n = config.n_candidates
    # one candidate is fully drawn (interval, then feature noise) before the
    # next starts, so prefixes are identical across different budgets n
    drawn: list[tuple[TimedEvent, np.ndarray, list[str]]] = []

    def emit(interval: TimedEvent, prog: StepProgram | None) -> None:
        if prog is not None:
            base, sentence = prog.base, prog.sentence
        else:
            base, best_frac = np.zeros(config.feature_dim), 0.0
            sentence = gt_steps[0][1].sentence
            for ev, step in gt_steps:
                inter = max(0.0, min(interval.end, ev.end) - max(interval.start, ev.start))
                frac = inter / interval.length if interval.length > 0 else 0.0
                if frac > 0:
                    base = base + frac * step.base
                if frac > best_frac:
                    sentence, best_frac = step.sentence, frac
        noise = config.noise_scale * rng.standard_normal(config.feature_dim)
        drawn.append((interval, base + noise, sentence))

    for ev, prog in gt_steps:
        emit(_jitter_interval(ev, duration, config, rng), prog)
    while len(drawn) < n:
        if rng.random() < config.distractor_fraction:
            if len(gt_steps) >= 2 and rng.random() < 0.5:
                j = int(rng.integers(len(gt_steps) - 1))
                merged = TimedEvent(gt_steps[j][0].start, gt_steps[j + 1][0].end)
                emit(_jitter_interval(merged, duration, config, rng), None)
            else:
                emit(_random_span(duration, rng), None)
        else:
            j = int(rng.integers(len(gt_steps)))
            ev, prog = gt_steps[j]
            emit(_jitter_interval(ev, duration, config, rng), prog)
    drawn.sort(key=lambda cand: (cand[0].start, cand[0].end))  # stable: ties keep draw order
    return EventCandidateSet(
        events=[ev for ev, _, _ in drawn],
        features=np.asarray([feature for _, feature, _ in drawn]),
        sentences=[detokenize(sentence) for _, _, sentence in drawn]
        if config.attach_candidate_sentences
        else None,
    )


def generate_video(
    config: WorldConfig, index: int, seed_seq: np.random.SeedSequence, vector: HashVectors
) -> DatasetRecord:
    program_ss, cand_ss = seed_seq.spawn(2)
    program_rng = np.random.default_rng(program_ss)
    program = _build_program(config, program_rng, vector)
    duration = round(float(program_rng.uniform(*config.duration_range)), 4)
    intervals = _place_intervals(len(program), duration, program_rng)
    gt_steps = list(zip(intervals, program))
    candidates = propose_candidates(gt_steps, duration, config, np.random.default_rng(cand_ss))
    steps = [RecipeStep(ev, list(prog.sentence)) for ev, prog in gt_steps]
    ingredients = sorted({ing for prog in program for ing in prog.ingredients})
    return DatasetRecord(
        video_id=f"video_{index:04d}",
        duration=duration,
        candidates=candidates,
        steps=steps,
        ingredients=ingredients,
    )


def generate_world(config: WorldConfig) -> list[DatasetRecord]:
    """The full synthetic dataset for a config; pure function of the config.

    Worlds that differ only in ``n_candidates`` hold the same videos (same
    duration, steps and ingredients), and each video's candidate set at a
    smaller budget is a subset of its set at a larger one.

    Each hash vector is made once per (kind, name) for the call, and each
    step's base vector once per step; nothing outlives the call.
    """
    vector = functools.cache(
        lambda kind, name: _hash_vector(config.seed, kind, name, config.feature_dim)
    )
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.num_videos)
    return [generate_video(config, i, child, vector) for i, child in enumerate(children)]
