"""Ingredient-grounded extensions: the dot-product visual simulator, textual
attention, distant-supervision labels, and their losses.

The simulator tracks ingredient state across selected events with three
pieces: an action selector and an ingredient selector (paired dot-product
attentions between the action/ingredient axes and the event axis) and an
updater that residually advances the ingredient state.  Textual attention
conditions the word distribution on the current ingredient state and the
event-weighted actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, log_softmax, softmax
from .data import GroundTruthRecipe, tokenize
from .layers import Layer, Linear
from .oracle import OracleAssignment


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


class DotProductSimulator(Layer):
    """Bidirectional dot-product attentions between actions/ingredients and
    event candidates; the event-side projections are shared between the two
    selectors."""

    def __init__(self, dim: int, rng: np.random.Generator, dtype=np.float64):
        self.dim = dim
        self.q_action = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.k_action = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.v_action = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.q_event = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.k_event = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.v_event = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.q_ingredient = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.k_ingredient = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.v_ingredient = Linear(dim, dim, rng, bias=False, dtype=dtype)

    def action_selector(self, actions: Tensor, events: Tensor):
        """Event-weighted actions (R, h), action-weighted events (N, h), and
        the action-to-event attention logits (R, N)."""
        scale = 1.0 / float(np.sqrt(self.dim))
        logits_ae = (self.q_action(actions) @ self.k_event(events).transpose(1, 0)) * scale
        weighted_events = softmax(logits_ae, axis=-1) @ self.v_event(events)
        logits_ea = (self.q_event(events) @ self.k_action(actions).transpose(1, 0)) * scale
        weighted_actions = softmax(logits_ea, axis=-1) @ self.v_action(actions)
        return weighted_events, weighted_actions, logits_ae

    def ingredient_selector(self, state: Tensor, events: Tensor):
        """Same attention pair with the action table replaced by the current
        ingredient state."""
        scale = 1.0 / float(np.sqrt(self.dim))
        logits_ge = (self.q_ingredient(state) @ self.k_event(events).transpose(1, 0)) * scale
        weighted_events = softmax(logits_ge, axis=-1) @ self.v_event(events)
        logits_eg = (self.q_event(events) @ self.k_ingredient(state).transpose(1, 0)) * scale
        weighted_ingredients = softmax(logits_eg, axis=-1) @ self.v_ingredient(state)
        return weighted_events, weighted_ingredients, logits_ge

    def step(self, events: Tensor, actions: Tensor, state: Tensor) -> SimulatorStep:
        a_events, h_actions, logits_ae = self.action_selector(actions, events)
        g_events, h_ingredients, logits_ge = self.ingredient_selector(state, events)
        return SimulatorStep(
            fused_events=events + h_actions + h_ingredients,
            action_context=a_events,
            new_state=update_ingredients(state, g_events, a_events),
            action_event_logits=logits_ae,
            ingredient_event_logits=logits_ge,
        )


class TextualAttention(Layer):
    """Bilinear word-to-ingredient and word-to-action attentions whose context
    vectors extend the vocabulary projection."""

    def __init__(self, dim: int, rng: np.random.Generator, dtype=np.float64):
        self.map_ingredient = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.map_action = Linear(dim, dim, rng, bias=False, dtype=dtype)

    def __call__(self, word_hiddens: Tensor, ingredient_state: Tensor, action_context: Tensor):
        """Returns (ingredient context (K, h), action context (K, h),
        ingredient attention (K, M), action attention (K, R))."""
        logits_g = word_hiddens @ self.map_ingredient(ingredient_state).transpose(1, 0)
        alpha_g = softmax(logits_g, axis=-1)
        ctx_g = alpha_g @ ingredient_state
        logits_a = word_hiddens @ self.map_action(action_context).transpose(1, 0)
        alpha_a = softmax(logits_a, axis=-1)
        ctx_a = alpha_a @ action_context
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
    gt: GroundTruthRecipe,
    oracle: OracleAssignment,
    action_lexicon: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """String-matched supervision: ingredient label (t, m) is 1 iff step t's
    sentence contains ingredient m's tokens contiguously; action label (t, r)
    is 1 iff lexicon action r appears in the sentence.  Labels bind to the
    oracle event index of step t (``oracle.indices``)."""
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
    event_logits: Tensor,
    item_labels: np.ndarray,
    oracle_event: int,
    negatives: str = "skip",
) -> Tensor | None:
    """NLL over the event axis for one step of one selector.

    ``event_logits`` is (items, N).  Labeled items are pushed toward the
    oracle event; with ``negatives="null-event"`` unlabeled items are pushed
    toward an appended null event of logit 0, with ``"skip"`` they are
    ignored.
    """
    if negatives not in ("skip", "null-event"):
        raise ValueError(f"unknown vsim negatives mode: {negatives!r}")
    labeled = np.flatnonzero(item_labels)
    if negatives == "skip":
        if labeled.size == 0:
            return None
        logp = log_softmax(event_logits[labeled], axis=-1)
        return -logp[:, oracle_event].sum()
    n_items = event_logits.shape[0]
    null = Tensor(np.zeros((n_items, 1), dtype=event_logits.data.dtype))
    logp = log_softmax(concat([event_logits, null], axis=1), axis=-1)
    target = np.where(item_labels > 0, oracle_event, event_logits.shape[1])
    return -logp[np.arange(n_items), target].sum()


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
