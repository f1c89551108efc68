"""Deterministic synthetic kitchen world.

Generates feature-level "videos": an ordered cooking program (actions applied
to ingredients, with state-carrying noun phrases so later sentences depend on
earlier steps), non-overlapping step intervals, jittered candidate proposals,
and per-candidate feature vectors whose content encodes the underlying step
semantics.  Everything is a pure function of (config, seed): per-video seeds
are spawned from the world seed, and candidate lists are generated
sequentially so candidate sets at increasing budgets are nested prefixes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import (
    DatasetRecord,
    EventCandidateSet,
    RecipeStep,
    TimedEvent,
    config_from_dict,
    detokenize,
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
        if not (1 <= self.steps_range[0] <= self.steps_range[1] <= 12):
            raise ValueError("steps_range must lie within [1, 12]")
        if self.n_candidates < self.steps_range[1]:
            raise ValueError(
                f"n_candidates={self.n_candidates} must be >= max steps "
                f"{self.steps_range[1]}"
            )
        if not (0.0 <= self.distractor_fraction <= 1.0):
            raise ValueError("distractor_fraction must lie in [0, 1]")
        # a later step names the ingredients an action touched by its participle
        for action in self.actions:
            if not (isinstance(action, str) and action in PARTICIPLES):
                raise ValueError(
                    f"world action {action!r} has no participle; "
                    f"choose from {sorted(PARTICIPLES)}"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "WorldConfig":
        return config_from_dict(cls, d, "world")


@dataclass
class StepProgram:
    """Latent semantics of one ground-truth step."""

    ordinal: int
    action: str
    ingredients: list[str]
    sentence: list[str]


def _hash_vector(seed: int, kind: str, name: str, dim: int) -> np.ndarray:
    digest = hashlib.blake2b(f"{seed}:{kind}:{name}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _step_base_vector(seed: int, step: StepProgram, dim: int) -> np.ndarray:
    parts = [_hash_vector(seed, "action", step.action, dim)]
    parts.extend(_hash_vector(seed, "ingredient", ing, dim) for ing in step.ingredients)
    parts.append(_hash_vector(seed, "ordinal", str(step.ordinal), dim))
    return np.sum(parts, axis=0) / np.sqrt(len(parts))


def _ingredient_phrase(ingredient: str, last_action: str | None) -> list[str]:
    tokens = ingredient.split()
    if last_action is None:
        return tokens
    return [PARTICIPLES[last_action]] + tokens


def _build_program(config: WorldConfig, rng: np.random.Generator) -> list[StepProgram]:
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
        program.append(StepProgram(ordinal=t, action=action, ingredients=step_ings, sentence=tokens))
    return program


def _place_intervals(n_steps: int, duration: float, rng: np.random.Generator) -> list[TimedEvent]:
    fill = rng.uniform(0.55, 0.8)
    lengths = rng.uniform(0.5, 1.5, size=n_steps)
    lengths = lengths / lengths.sum() * (fill * duration)
    gaps = rng.uniform(0.2, 1.0, size=n_steps + 1)
    gaps = gaps / gaps.sum() * ((1.0 - fill) * duration)
    events = []
    cursor = 0.0
    for i in range(n_steps):
        cursor += gaps[i]
        events.append(TimedEvent(round(cursor, 4), round(cursor + lengths[i], 4)))
        cursor += lengths[i]
    return events


def _jitter_interval(
    source: TimedEvent, duration: float, config: WorldConfig, rng: np.random.Generator
) -> TimedEvent:
    sigma = config.jitter_sigma_frac * source.length
    for _ in range(50):
        s = float(np.clip(source.start + rng.normal(0.0, sigma), 0.0, duration))
        e = float(np.clip(source.end + rng.normal(0.0, sigma), 0.0, duration))
        if s < e and tiou(TimedEvent(s, e), source) >= config.jitter_min_tiou:
            return TimedEvent(round(s, 4), round(e, 4))
    return source


def _random_span(duration: float, rng: np.random.Generator) -> TimedEvent:
    length = rng.uniform(0.02, 0.35) * duration
    start = rng.uniform(0.0, duration - length)
    return TimedEvent(round(float(start), 4), round(float(start + length), 4))


def featurize_event(
    interval: TimedEvent,
    step_semantics: StepProgram | None,
    gt_steps: list[tuple[TimedEvent, StepProgram]],
    config: WorldConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Feature vector for a candidate.

    A jittered copy carries its source step's base embedding; a distractor
    carries the overlap-fraction-weighted mixture of the steps it covers (the
    zero vector when it covers none).  Gaussian noise of ``noise_scale`` is
    added either way.
    """
    dim = config.feature_dim
    if step_semantics is not None:
        base = _step_base_vector(config.seed, step_semantics, dim)
    else:
        base = np.zeros(dim)
        for ev, prog in gt_steps:
            inter = max(0.0, min(interval.end, ev.end) - max(interval.start, ev.start))
            frac = inter / interval.length if interval.length > 0 else 0.0
            if frac > 0:
                base = base + frac * _step_base_vector(config.seed, prog, dim)
    return base + config.noise_scale * rng.standard_normal(dim)


def propose_candidates(
    gt_steps: list[tuple[TimedEvent, StepProgram]],
    duration: float,
    config: WorldConfig,
    rng: np.random.Generator,
    n: int | None = None,
) -> EventCandidateSet:
    """Candidate proposals: one jittered copy per ground-truth step, then fill
    slots (distractors or extra copies per ``distractor_fraction``).

    Candidates are drawn sequentially from ``rng``, so for a fixed generator
    state the first m candidates of a size-n run equal the size-m run:
    candidate sets at increasing n are nested.
    """
    n = config.n_candidates if n is None else n
    if n < len(gt_steps):
        raise ValueError(f"n={n} smaller than step count {len(gt_steps)}")
    # one candidate is fully drawn (interval, then feature noise) before the
    # next starts, so prefixes are identical across different budgets n
    drawn: list[tuple[TimedEvent, StepProgram | None]] = []
    features: list[np.ndarray] = []

    def emit(interval: TimedEvent, prog: StepProgram | None) -> None:
        drawn.append((interval, prog))
        features.append(featurize_event(interval, prog, gt_steps, config, rng))

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
    sentences = None
    if config.attach_candidate_sentences:
        sentences = []
        for ev, prog in drawn:
            if prog is not None:
                sentences.append(detokenize(prog.sentence))
            else:
                best, best_frac = None, 0.0
                for gev, gprog in gt_steps:
                    inter = max(0.0, min(ev.end, gev.end) - max(ev.start, gev.start))
                    frac = inter / ev.length if ev.length > 0 else 0.0
                    if frac > best_frac:
                        best, best_frac = gprog, frac
                sentences.append(detokenize((best or gt_steps[0][1]).sentence))

    order = sorted(range(len(drawn)), key=lambda i: (drawn[i][0].start, drawn[i][0].end, i))
    return EventCandidateSet(
        events=[drawn[i][0] for i in order],
        features=np.asarray([features[i] for i in order]),
        sentences=[sentences[i] for i in order] if sentences is not None else None,
    )


def generate_video(
    config: WorldConfig, index: int, seed_seq: np.random.SeedSequence, n: int | None = None
) -> DatasetRecord:
    program_ss, cand_ss = seed_seq.spawn(2)
    program_rng = np.random.default_rng(program_ss)
    program = _build_program(config, program_rng)
    duration = round(float(program_rng.uniform(*config.duration_range)), 4)
    intervals = _place_intervals(len(program), duration, program_rng)
    gt_steps = list(zip(intervals, program))
    candidates = propose_candidates(
        gt_steps, duration, config, np.random.default_rng(cand_ss), n=n
    )
    steps = [RecipeStep(ev, list(prog.sentence)) for ev, prog in gt_steps]
    ingredients = sorted({ing for prog in program for ing in prog.ingredients})
    return DatasetRecord(
        video_id=f"video_{index:04d}",
        duration=duration,
        candidates=candidates,
        steps=steps,
        ingredients=ingredients,
    )


def generate_world(config: WorldConfig, n_override: int | None = None) -> list[DatasetRecord]:
    """The full synthetic dataset for a config; pure function of the config.

    ``n_override`` regenerates the same videos at a different candidate
    budget; for a fixed config seed the candidate sets it produces are nested
    across increasing budgets.
    """
    if n_override is not None and n_override < config.steps_range[1]:
        raise ValueError(
            f"n_override={n_override} is below the largest step count of "
            f"steps_range={list(config.steps_range)}"
        )
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.num_videos)
    return [
        generate_video(config, i, child, n=n_override)
        for i, child in enumerate(children)
    ]
