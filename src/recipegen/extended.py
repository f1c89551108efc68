"""Ingredient-grounded extensions: the dot-product visual simulator, textual
attention, distant-supervision labels, and their losses.

The simulator tracks ingredient state across selected events.  Each step
projects the events once and runs four scaled dot-product attentions: actions
over events and events over actions, ingredient state over events and events
over ingredient state; an updater then residually advances the ingredient
state.  Textual attention conditions the word distribution on the current
ingredient state and the event-weighted actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, concat, log_softmax, softmax
from .data import GroundTruthRecipe, tokenize
from .layers import Layer, Linear


def update_ingredients(state: Tensor, weighted_events_g: Tensor, weighted_events_a: Tensor) -> Tensor:
    """Residual state transition: the element-wise max over the action rows is
    broadcast over the M ingredient rows and gates the ingredient-side event
    mix.  Zero attention on either side leaves the state unchanged."""
    pooled = weighted_events_a.amax(axis=0, keepdims=True)  # (1, h), repeated M times
    return state + weighted_events_g * pooled


@dataclass
class SimulatorStep:
    fused_events: Tensor          # (N, h): events + action-weighted + ingredient-weighted
    action_context: Tensor        # (R, h): event-weighted action vectors
    new_state: Tensor             # (M, h): updated ingredient state
    action_event_logits: Tensor   # (R, N): pre-softmax attention scores
    ingredient_event_logits: Tensor  # (M, N)


def _attend(queries: Tensor, keys: Tensor, values: Tensor, scale: float):
    """Scaled dot-product attention of projected rows: the logits (Q, K) and
    the attention-weighted values (Q, h)."""
    logits = (queries @ keys.transpose(1, 0)) * scale
    return logits, softmax(logits, axis=-1) @ values


class DotProductSimulator(Layer):
    """Bidirectional dot-product attentions between the action table and the
    events, and between the ingredient state and the events.  The events are
    projected once per step and read by all four attentions."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.q_action = Linear(dim, dim, rng, bias=False)
        self.k_action = Linear(dim, dim, rng, bias=False)
        self.v_action = Linear(dim, dim, rng, bias=False)
        self.q_event = Linear(dim, dim, rng, bias=False)
        self.k_event = Linear(dim, dim, rng, bias=False)
        self.v_event = Linear(dim, dim, rng, bias=False)
        self.q_ingredient = Linear(dim, dim, rng, bias=False)
        self.k_ingredient = Linear(dim, dim, rng, bias=False)
        self.v_ingredient = Linear(dim, dim, rng, bias=False)

    def step(self, events: Tensor, actions: Tensor, state: Tensor) -> SimulatorStep:
        scale = 1.0 / float(np.sqrt(self.dim))
        q_e, k_e, v_e = self.q_event(events), self.k_event(events), self.v_event(events)
        logits_ae, a_events = _attend(self.q_action(actions), k_e, v_e, scale)
        _, h_actions = _attend(q_e, self.k_action(actions), self.v_action(actions), scale)
        logits_ge, g_events = _attend(self.q_ingredient(state), k_e, v_e, scale)
        _, h_ingredients = _attend(q_e, self.k_ingredient(state), self.v_ingredient(state), scale)
        return SimulatorStep(
            fused_events=events + h_actions + h_ingredients,
            action_context=a_events,
            new_state=update_ingredients(state, g_events, a_events),
            action_event_logits=logits_ae,
            ingredient_event_logits=logits_ge,
        )


class TextualKeys(NamedTuple):
    """What every word of one sentence attends over: the ingredient state and
    the event-weighted actions, with their bilinear keys."""

    ingredients: Tensor      # (M, h)
    actions: Tensor          # (R, h)
    ingredient_keys: Tensor  # (h, M): map_ingredient(ingredients) transposed
    action_keys: Tensor      # (h, R): map_action(actions) transposed


class TextualAttention(Layer):
    """Bilinear word-to-ingredient and word-to-action attentions whose context
    vectors extend the vocabulary projection.  The items and so the keys are
    fixed for a sentence, so ``keys`` projects them once per sentence and
    each call attends with them."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.map_ingredient = Linear(dim, dim, rng, bias=False)
        self.map_action = Linear(dim, dim, rng, bias=False)

    def keys(self, ingredient_state: Tensor, action_context: Tensor) -> TextualKeys:
        return TextualKeys(
            ingredient_state,
            action_context,
            self.map_ingredient(ingredient_state).transpose(1, 0),
            self.map_action(action_context).transpose(1, 0),
        )

    def __call__(self, word_hiddens: Tensor, keys: TextualKeys):
        """Returns (ingredient context (K, h), action context (K, h),
        ingredient attention (K, M), action attention (K, R))."""
        alpha_g = softmax(word_hiddens @ keys.ingredient_keys, axis=-1)
        ctx_g = alpha_g @ keys.ingredients
        alpha_a = softmax(word_hiddens @ keys.action_keys, axis=-1)
        ctx_a = alpha_a @ keys.actions
        return ctx_g, ctx_a, alpha_g, alpha_a


# ---------------------------------------------------------------------------
# Distant supervision
# ---------------------------------------------------------------------------


def _contains_contiguous(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def distant_labels(
    gt: GroundTruthRecipe, action_lexicon: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """String-matched supervision: ingredient label (t, m) is 1 iff step t's
    sentence contains ingredient m's tokens contiguously; action label (t, r)
    is 1 iff lexicon action r appears in the sentence.  Row t belongs to step
    t, so its labels bind to the event that ``RecipeModel.labels`` assigns
    step t."""
    if not action_lexicon:
        raise ValueError("action lexicon must be non-empty")
    n_steps = len(gt.steps)
    ing_tokens = [tokenize(ing) for ing in gt.ingredients]
    ing_labels = np.zeros((n_steps, len(gt.ingredients)), dtype=np.int8)
    act_labels = np.zeros((n_steps, len(action_lexicon)), dtype=np.int8)
    for t, step in enumerate(gt.steps):
        for m, toks in enumerate(ing_tokens):
            if _contains_contiguous(step.sentence, toks):
                ing_labels[t, m] = 1
        for r, action in enumerate(action_lexicon):
            if action in step.sentence:
                act_labels[t, r] = 1
    return ing_labels, act_labels


def selector_nll(
    event_logits: Tensor, item_labels: np.ndarray, oracle_event: int
) -> Tensor | None:
    """NLL over the event axis for one step of one selector.

    ``event_logits`` is (items, N).  Labeled items are pushed toward the
    oracle event and unlabeled items are ignored; ``None`` means no item is
    labeled.
    """
    labeled = np.flatnonzero(item_labels)
    if labeled.size == 0:
        return None
    logp = log_softmax(event_logits[labeled], axis=-1)
    return -logp[:, oracle_event].sum()


def textual_attention_nll(
    alpha_ingredient: Tensor,
    alpha_action: Tensor,
    target_tokens: list[str],
    ingredients: list[str],
    action_lexicon: list[str],
) -> Tensor | None:
    """Sum of -log attention mass on the matching item for every target word
    that equals an ingredient head word or a lexicon action; non-matching
    positions contribute nothing, and ``None`` means no word matched."""
    head_words = {tokenize(ing)[-1]: m for m, ing in enumerate(ingredients) if tokenize(ing)}
    action_ids = {a: r for r, a in enumerate(action_lexicon)}
    picked = []
    for alpha, item_ids in ((alpha_ingredient, head_words), (alpha_action, action_ids)):
        pairs = [(k, item_ids[token]) for k, token in enumerate(target_tokens) if token in item_ids]
        if pairs:
            positions, items = np.array(pairs).T
            picked.append(alpha[positions, items])
    if not picked:
        return None
    gathered = picked[0] if len(picked) == 1 else concat(picked)
    return -(gathered + 1e-12).log().sum()
