"""The joint event-selector / sentence-generator model.

The model runs one recurrence per recipe step.  The event transformer
(memory-augmented) re-reads ``[ingredient state; candidates]``, its per-layer
memories are max-pooled into a single query vector, and candidate logits are
dot products of that vector with each candidate's holistic representation
plus a learned STOP pseudo-event.  One event is chosen, the sentence
transformer (also memory-augmented) writes its sentence, and the two memory
banks are mixed through sigmoid gates.  The per-video context and the part of
a step before the selection are shared code; training and inference differ
only in their callers: training selects through a straight-through
Gumbel-softmax pinned to the oracle label (so the sentence loss reaches the
selector) and scores the sentence teacher-forced, while inference takes the
argmax and decodes greedily.

Greedy decoding is incremental: ingredient rows never read word rows and a
word row reads only earlier words, so appending a token changes no earlier
hidden state.  Each token therefore pushes one new row through the sentence
layers, and the sentence memories are updated once per sentence, over the
final rows; the result equals a full pass over the decoded prefix.

Model variants:
  B      events only
  BI     + ingredient rows in both transformers
  BIV    + dot-product visual simulator (fused event representations, state)
  BIVT   + textual attention over ingredient state and event-weighted actions

Each variant builds only the modules it reads.  The extension modules are
drawn last, in the order B < BI < BIV < BIVT, so a variant draws a prefix of
that list, and every module it keeps starts from the same weights as in the
variants above it built from the same seed.  Whether a step reads ingredients,
runs the simulator or applies textual attention follows from which modules
exist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import (
    Tensor,
    concat,
    gumbel_softmax,
    log_softmax,
    no_grad,
    softmax,
    straight_through_onehot,
)
from .data import (
    BOS,
    EOS,
    PAD,
    DatasetRecord,
    EventCandidateSet,
    PredictionRecipe,
    Vocabulary,
    config_from_dict,
    tokenize,
)
from .extended import (
    DotProductSimulator,
    SimulatorStep,
    TextualAttention,
    TextualKeys,
    distant_labels,
    selector_nll,
    textual_attention_nll,
)
from .layers import (
    NEG_INF,
    Embedding,
    IncrementalPass,
    Layer,
    Linear,
    MemTransformer,
    MLP,
    causal_mask,
    sinusoidal_encoding,
)
from .dvceval import tiou as _tiou
from .oracle import oracle_select

VARIANTS = ("B", "BI", "BIV", "BIVT")


@dataclass
class ModelConfig:
    hidden: int = 64
    layers: int = 2
    heads: int = 4
    feature_dim: int = 32
    max_steps: int = 12
    max_sentence_len: int = 20
    variant: str = "B"
    tau: float = 1.0
    tau_anneal: bool = False
    tau_min: float = 0.5
    hard_selection: bool = True
    no_reselection: bool = True
    conditioning: str = "teacher"  # or "free"
    memory_update: str = "joint"  # or "separate"
    vsim_negatives: str = "skip"  # or "null-event"
    precision: str = "float64"  # "float32" | "float64"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant {self.variant!r} must be one of {VARIANTS}")
        if self.conditioning not in ("teacher", "free"):
            raise ValueError("conditioning must be 'teacher' or 'free'")
        if self.memory_update not in ("joint", "separate"):
            raise ValueError("memory_update must be 'joint' or 'separate'")
        if self.vsim_negatives not in ("skip", "null-event"):
            raise ValueError("vsim_negatives must be 'skip' or 'null-event'")
        if self.precision not in ("float32", "float64"):
            raise ValueError("precision must be 'float32' or 'float64'")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


PRESETS = {
    # dims used for the full-scale experiments in the source setting
    "paper": {"hidden": 768, "layers": 2, "heads": 12, "precision": "float32"},
    # desk-scale preset; float64 keeps reruns bit-identical
    "toy": {"hidden": 64, "layers": 2, "heads": 4, "precision": "float64"},
}


def preset_config(preset: str = "toy", **overrides) -> ModelConfig:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    return config_from_dict(ModelConfig, {**PRESETS[preset], **overrides}, "model")


def tau_schedule(config: ModelConfig, epoch: int, max_epochs: int) -> float:
    """Fixed tau by default; optional exponential anneal down to tau_min."""
    if not config.tau_anneal or max_epochs <= 1:
        return config.tau
    frac = min(1.0, epoch / (max_epochs - 1))
    return config.tau * (config.tau_min / config.tau) ** frac


def pool_memory(memories: list[Tensor]) -> Tensor:
    """Element-wise max over layers, then over slots: one hidden-size vector."""
    if not memories:
        raise ValueError("need at least one memory layer")
    stacked = concat([m.reshape(1, *m.shape) for m in memories], axis=0)
    return stacked.amax(axis=0).amax(axis=0)


def mix_memories(
    v_mem: Tensor,
    s_mem: Tensor,
    f1: Linear,
    f2: Linear,
    g1: Linear,
    g2: Linear,
) -> tuple[Tensor, Tensor]:
    """Gated cross-exchange of the selector and generator memories:
    v' = f1(v) * sigmoid(g2(g1(s))),  s' = g1(s) * sigmoid(f2(f1(v)))."""
    fv = f1(v_mem)
    gs = g1(s_mem)
    return fv * g2(gs).sigmoid(), gs * f2(fv).sigmoid()


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_event(step_log_probs: list[Tensor], labels: list[int]) -> Tensor:
    """Negative log-likelihood of the selection labels, one per step; the
    final label is the STOP index (= number of candidates)."""
    if len(step_log_probs) != len(labels):
        raise ValueError("one label per step required")
    total = None
    for logp, label in zip(step_log_probs, labels):
        if not (0 <= label < logp.shape[0]):
            raise ValueError(f"label {label} out of range for {logp.shape[0]} entries")
        term = -logp[label]
        total = term if total is None else total + term
    return total


def loss_sentence(
    step_distributions: list[Tensor], step_targets: list[list[int]]
) -> Tensor:
    """Token-level NLL summed over steps and positions; PAD targets masked."""
    total = None
    for logp, targets in zip(step_distributions, step_targets):
        ids = np.asarray(targets, dtype=np.intp)
        keep = np.flatnonzero(ids != PAD)
        if keep.size == 0:
            continue
        term = -logp[keep, ids[keep]].sum()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("no unmasked target tokens")
    return total


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


@dataclass
class VideoLabels:
    oracle_indices: list[int]
    token_ids: list[list[int]]  # per step: encoded sentence tokens + EOS
    target_surfaces: list[list[str]]
    ing_labels: np.ndarray | None = None  # (T, M)
    act_labels: np.ndarray | None = None  # (T, R)


def build_labels(
    record: DatasetRecord,
    vocab: Vocabulary,
    action_lexicon: list[str],
    with_distant: bool,
) -> VideoLabels:
    assignment = oracle_select(record.candidates, record.ground_truth)
    # the no-reselection mask would zero out a repeated label, so a duplicate
    # oracle assignment falls back to that step's best still-unused candidate
    indices: list[int] = []
    for t, idx in enumerate(assignment.indices):
        if idx in indices:
            step = record.steps[t].interval
            options = [
                (-_tiou(ev, step), ev.start, i)
                for i, ev in enumerate(record.candidates.events)
                if i not in indices
            ]
            idx = min(options)[2] if options else idx
        indices.append(idx)
    assignment = replace(assignment, indices=indices)
    token_ids = [vocab.encode(s.sentence) + [EOS] for s in record.steps]
    surfaces = [list(s.sentence) + ["<eos>"] for s in record.steps]
    ing_labels = act_labels = None
    if with_distant:
        ing_labels, act_labels = distant_labels(
            record.ground_truth, assignment, action_lexicon
        )
    return VideoLabels(
        oracle_indices=list(assignment.indices),
        token_ids=token_ids,
        target_surfaces=surfaces,
        ing_labels=ing_labels,
        act_labels=act_labels,
    )


# ---------------------------------------------------------------------------
# Forward results
# ---------------------------------------------------------------------------


@dataclass
class SelectionTrace:
    probabilities: np.ndarray  # over candidates + STOP (last entry)
    chosen: int  # candidate index, or N for STOP
    hard: bool


@dataclass
class ForwardResult:
    loss: Tensor
    loss_event: Tensor
    loss_sentence: Tensor
    loss_vsim: Tensor | None
    loss_tattn: Tensor | None
    traces: list[SelectionTrace]


@dataclass
class InferenceState:
    v_mems: list[np.ndarray]
    s_mems: list[np.ndarray]
    sim_state: np.ndarray | None
    forbidden: list[int]


@dataclass
class StepResult:
    probabilities: np.ndarray  # (N + 1,), STOP last
    stop: bool
    index: int | None
    tokens: list[int]
    token_log_probs: np.ndarray | None  # one row per emitted position
    state: InferenceState


class RecipeModel(Layer):
    def __init__(
        self,
        config: ModelConfig,
        vocab: Vocabulary,
        action_lexicon: list[str],
        seed: int = 0,
    ):
        self.config = config
        self.vocab = vocab
        self.action_lexicon = list(action_lexicon)
        rng = np.random.default_rng(seed)
        h, dt = config.hidden, config.dtype

        # event side
        self.feat_mlp = MLP(config.feature_dim, h, h, rng, dtype=dt)
        self.rel_enc = Linear(3, h, rng, dtype=dt)
        self.event_tf = MemTransformer(config.layers, h, config.heads, rng, dtype=dt)
        self.stop_vector = Tensor((rng.standard_normal(h) * 0.02).astype(dt), requires_grad=True)

        # sentence side
        self.word_embed = Embedding(len(vocab), h, rng, dtype=dt)
        self.word_adapter = Linear(h, h, rng, dtype=dt)
        self.sent_tf = MemTransformer(config.layers, h, config.heads, rng, dtype=dt)
        self.vocab_head = Linear(h, len(vocab), rng, dtype=dt)

        # memory mixing maps; drawn under "separate" too, as later draws follow them
        mix = [Linear(h, h, rng, dtype=dt) for _ in range(4)]
        joint = config.memory_update == "joint"
        self.mix_f1, self.mix_f2, self.mix_g1, self.mix_g2 = mix if joint else [None] * 4

        # extension modules, drawn last so that each variant draws a prefix
        level = VARIANTS.index(config.variant)
        ing, sim, text = level >= 1, level >= 2, level >= 3
        self.ing_mlp_sel = MLP(h, h, h, rng, dtype=dt) if ing else None
        self.ing_mlp_gen = MLP(h, h, h, rng, dtype=dt) if ing else None
        self.action_embed = (
            Embedding(max(1, len(action_lexicon)), h, rng, dtype=dt) if sim else None
        )
        self.simulator = DotProductSimulator(h, rng, dtype=dt) if sim else None
        self.textual_attention = TextualAttention(h, rng, dtype=dt) if text else None
        self.vocab_head_ing = Linear(h, len(vocab), rng, bias=False, dtype=dt) if text else None
        self.vocab_head_act = Linear(h, len(vocab), rng, bias=False, dtype=dt) if text else None

        self._pe = sinusoidal_encoding(512, h, dtype=dt)

    # -- encoders -------------------------------------------------------------

    def encode_events(self, candidates: EventCandidateSet, duration: float) -> Tensor:
        """Feature MLP + sinusoidal rank encoding + relative interval encoding."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        n = len(candidates)
        if n > self._pe.shape[0]:
            raise ValueError(f"too many candidates for the position table ({n})")
        feats = Tensor(candidates.features.astype(self.config.dtype))
        rel = np.asarray(
            [
                [ev.start / duration, ev.end / duration, ev.length / duration]
                for ev in candidates.events
            ],
            dtype=self.config.dtype,
        )
        return self.feat_mlp(feats) + Tensor(self._pe[:n]) + self.rel_enc(Tensor(rel))

    def encode_ingredients(self, ingredients: list[str], side: str) -> Tensor:
        """Mean word embedding per ingredient through the side's own MLP."""
        if not ingredients:
            raise ValueError("extended model requires at least one ingredient")
        mlp = {"selector": self.ing_mlp_sel, "generator": self.ing_mlp_gen}[side]
        rows = []
        for ing in ingredients:
            ids = self.vocab.encode(tokenize(ing))
            rows.append(self.word_embed(ids).mean(axis=0, keepdims=True))
        return mlp(concat(rows, axis=0))

    # -- event side -----------------------------------------------------------

    def event_step(self, sequence: Tensor, memories: list[Tensor], n_events: int):
        """One pass of the event transformer; returns the event-position
        outputs and the updated per-layer memories."""
        out, new_mems = self.event_tf(sequence, memories, None)
        h = out if out.shape[0] == n_events else out[out.shape[0] - n_events :]
        return h, new_mems

    def event_logits(
        self, h_events: Tensor, pooled: Tensor, forbidden: set[int]
    ) -> Tensor:
        """Dot products of candidate representations (plus the STOP vector)
        with the pooled memory; forbidden candidates are masked out."""
        n = h_events.shape[0]
        with_stop = concat([h_events, self.stop_vector.reshape(1, -1)], axis=0)
        logits = (with_stop @ pooled.reshape(-1, 1)).reshape(n + 1)
        if forbidden:
            mask = np.zeros(n + 1, dtype=self.config.dtype)
            for idx in forbidden:
                mask[idx] = NEG_INF
            logits = logits + Tensor(mask)
        return logits

    def _mix(self, v_mems: list[Tensor], s_mems: list[Tensor]):
        if self.mix_f1 is None:
            return v_mems, s_mems
        new_v, new_s = [], []
        for v, s in zip(v_mems, s_mems):
            mv, ms = mix_memories(v, s, self.mix_f1, self.mix_f2, self.mix_g1, self.mix_g2)
            new_v.append(mv)
            new_s.append(ms)
        return new_v, new_s

    # -- sentence side ----------------------------------------------------------

    def _sentence_mask(self, n_ing: int, n_words: int) -> np.ndarray:
        size = n_ing + n_words
        mask = np.zeros((size, size), dtype=self.config.dtype)
        # ingredient rows never read word columns (no lookahead leakage)
        mask[:n_ing, n_ing:] = NEG_INF
        mask[n_ing:, n_ing:] = causal_mask(n_words, self.config.dtype)
        return mask

    def _word_rows(self, input_ids: list[int], h_sel: Tensor, start: int = 0) -> Tensor:
        """Input rows of words at positions ``start``, ``start + 1``, ..."""
        emb = self.word_embed(input_ids)
        w = self.word_adapter(emb).relu()
        pe = Tensor(self._pe[start : start + len(input_ids)])
        return w + pe + h_sel

    def _textual_keys(self, sim: SimulatorStep | None) -> TextualKeys | None:
        """A sentence's textual-attention keys (BIVT only, else None)."""
        if self.textual_attention is None:
            return None
        if sim is None:
            raise ValueError("textual attention needs simulator outputs")
        return self.textual_attention.keys(sim.new_state, sim.action_context)

    def _vocab_log_probs(self, word_h: Tensor, keys: TextualKeys | None):
        """Vocabulary log-probs of word hidden rows, plus the textual-attention
        weights (BIVT only, else None)."""
        logits = self.vocab_head(word_h)
        if keys is None:
            return log_softmax(logits, axis=-1), None
        ctx_g, ctx_a, alpha_g, alpha_a = self.textual_attention(word_h, keys)
        logits = logits + self.vocab_head_ing(ctx_g) + self.vocab_head_act(ctx_a)
        return log_softmax(logits, axis=-1), (alpha_g, alpha_a)

    def _decode_pass(
        self,
        input_ids: list[int],
        h_sel: Tensor,
        s_mems: list[Tensor],
        gen_ing: Tensor | None,
        sim: SimulatorStep | None,
    ):
        """One full pass over ``input_ids``; returns per-position vocabulary
        log-probs, updated memories, and textual-attention weights."""
        words = self._word_rows(input_ids, h_sel)
        if gen_ing is not None:
            seq = concat([gen_ing, words], axis=0)
            n_ing = gen_ing.shape[0]
        else:
            seq = words
            n_ing = 0
        mask = self._sentence_mask(n_ing, len(input_ids))
        out, new_mems = self.sent_tf(seq, s_mems, mask)
        keys = self._textual_keys(sim)
        word_h = out[n_ing:] if n_ing else out
        logp, alphas = self._vocab_log_probs(word_h, keys)
        return logp, new_mems, alphas

    def generate_sentence(
        self,
        h_sel: Tensor,
        s_mems: list[Tensor],
        gen_ing: Tensor | None,
        teacher_tokens: list[int] | None = None,
        sim: SimulatorStep | None = None,
    ):
        """Teacher-forced scoring (one log-prob row per target token) or
        greedy decoding until EOS / max length.

        Returns (emitted token ids, log-prob rows, new memories, attention
        weights).  In teacher mode the emitted ids are the targets.

        Greedy mode returns one log-prob row per input position (BOS plus the
        emitted ids) and no attention weights.  It never emits PAD or BOS.  It
        decodes incrementally: the ingredient rows go through the layers and
        the textual-attention keys are projected once, then each token pushes
        one new word row, because no row reads a later one and so no earlier
        hidden state changes.  The memories are updated once, over the final
        rows, and equal those of one full ``_decode_pass`` over BOS plus the
        emitted ids.
        """
        if teacher_tokens is not None:
            input_ids = [BOS] + list(teacher_tokens[:-1])
            logp, new_mems, alphas = self._decode_pass(
                input_ids, h_sel, s_mems, gen_ing, sim
            )
            return list(teacher_tokens), logp, new_mems, alphas

        decoder = IncrementalPass(self.sent_tf, s_mems)
        if gen_ing is not None:
            decoder.push(gen_ing)
        keys = self._textual_keys(sim)
        decoded: list[int] = []
        rows: list[Tensor] = []
        token = BOS
        while True:
            word_h = decoder.push(self._word_rows([token], h_sel, start=len(decoded)))
            logp, _ = self._vocab_log_probs(word_h, keys)
            rows.append(logp)
            scores = logp.data[0].copy()
            scores[[PAD, BOS]] = -np.inf
            token = int(np.argmax(scores))
            if token == EOS or len(decoded) >= self.config.max_sentence_len:
                return decoded, concat(rows, axis=0), decoder.update_memories(), None
            decoded.append(token)

    # -- one step of the recurrence ----------------------------------------------

    def _context(self, record: DatasetRecord) -> dict:
        """Per-video inputs of every step: the candidate encodings, both
        ingredient encodings (all but B) and the action table (BIV, BIVT)."""
        use_ing = self.ing_mlp_sel is not None
        return {
            "n": len(record.candidates),
            "events": self.encode_events(record.candidates, record.duration),
            "g_sel": self.encode_ingredients(record.ingredients, "selector") if use_ing else None,
            "g_gen": self.encode_ingredients(record.ingredients, "generator") if use_ing else None,
            "actions": self.action_embed(np.arange(len(self.action_lexicon)))
            if self.action_embed is not None
            else None,
        }

    def _score_candidates(
        self, ctx: dict, v_mems: list[Tensor], ing_state: Tensor | None, forbidden: set[int]
    ):
        """The part of a step before the selection: the event transformer over
        ``[ingredient state; candidates]``, the simulator (BIV, BIVT), and the
        logits over the candidates plus STOP, with ``forbidden`` masked under
        ``no_reselection``.

        Returns (candidate rows the selection reads, logits, new event
        memories, simulator step or None).
        """
        seq = ctx["events"] if ing_state is None else concat([ing_state, ctx["events"]], axis=0)
        h_events, v_new = self.event_step(seq, v_mems, ctx["n"])
        sim = None
        if ctx["actions"] is not None:
            sim = self.simulator.step(h_events, ctx["actions"], ing_state)
            h_events = sim.fused_events
        masked = forbidden if self.config.no_reselection else set()
        logits = self.event_logits(h_events, pool_memory(v_new), masked)
        return h_events, logits, v_new, sim

    # -- training --------------------------------------------------------------

    def training_forward(
        self,
        record: DatasetRecord,
        labels: VideoLabels,
        rng: np.random.Generator,
        tau: float | None = None,
    ) -> ForwardResult:
        """Losses for one video.

        Each step selects through a Gumbel-softmax sample: straight-through
        one-hot under ``config.hard_selection``, else the soft relaxation.
        Conditioning follows ``config.conditioning``: teacher mode pins the
        forwarded event (and the reselection mask) to the oracle label while
        gradients still flow through the sampled relaxation; free mode
        forwards the sampled event, and a step whose oracle label an earlier
        choice has masked adds no event loss.
        """
        cfg = self.config
        tau = cfg.tau if tau is None else tau
        hard = cfg.hard_selection

        ctx = self._context(record)
        n = ctx["n"]
        ing_state = ctx["g_sel"]
        v_mems = self.event_tf.initial_memory()
        s_mems = self.sent_tf.initial_memory()
        forbidden: set[int] = set()
        traces: list[SelectionTrace] = []
        event_logps: list[Tensor] = []
        event_labels: list[int] = []
        sentence_rows: list[Tensor] = []
        l_vsim = None
        l_tattn = None
        n_steps = len(record.steps)

        for t in range(n_steps + 1):
            h, logits, v_new, sim = self._score_candidates(ctx, v_mems, ing_state, forbidden)
            label = labels.oracle_indices[t] if t < n_steps else n
            # an oracle label masked by an earlier free-running choice adds no loss
            if not (cfg.no_reselection and label in forbidden):
                event_logps.append(log_softmax(logits, axis=-1))
                event_labels.append(label)
            with no_grad():  # the trace is read, not differentiated
                probs = softmax(logits, axis=-1).data
            if t == n_steps:
                traces.append(SelectionTrace(probs, n, hard))
                break

            sample = gumbel_softmax(logits[:n], tau, hard=False, rng=rng)
            if cfg.conditioning == "teacher":
                chosen = label
                weights = straight_through_onehot(sample, index=label) if hard else sample
            else:
                chosen = int(np.argmax(sample.data))
                weights = straight_through_onehot(sample) if hard else sample
            h_sel = weights.reshape(1, n) @ h
            traces.append(SelectionTrace(probs, chosen, hard))
            forbidden.add(chosen)

            _, rows, s_new, alphas = self.generate_sentence(
                h_sel, s_mems, ctx["g_gen"], teacher_tokens=labels.token_ids[t], sim=sim
            )
            sentence_rows.append(rows)

            if sim is not None:
                for logits_mat, lab in (
                    (sim.action_event_logits, labels.act_labels[t]),
                    (sim.ingredient_event_logits, labels.ing_labels[t]),
                ):
                    term = selector_nll(logits_mat, lab, label, cfg.vsim_negatives)
                    if term is not None:
                        l_vsim = term if l_vsim is None else l_vsim + term
                ing_state = sim.new_state
            if alphas is not None:
                term = textual_attention_nll(
                    *alphas, labels.target_surfaces[t], record.ingredients, self.action_lexicon
                )
                if term is not None:
                    l_tattn = term if l_tattn is None else l_tattn + term

            v_mems, s_mems = self._mix(v_new, s_new)

        l_event = loss_event(event_logps, event_labels)
        l_sentence = loss_sentence(sentence_rows, labels.token_ids)
        total = l_event + l_sentence
        for term in (l_vsim, l_tattn):
            if term is not None:
                total = total + term
        return ForwardResult(
            loss=total,
            loss_event=l_event,
            loss_sentence=l_sentence,
            loss_vsim=l_vsim,
            loss_tattn=l_tattn,
            traces=traces,
        )

    # -- inference ---------------------------------------------------------------

    def init_inference(self, record: DatasetRecord):
        """Pre-computed per-video context plus the initial recurrent state."""
        with no_grad():
            ctx = self._context(record)
        state = InferenceState(
            v_mems=[m.data.copy() for m in self.event_tf.initial_memory()],
            s_mems=[m.data.copy() for m in self.sent_tf.initial_memory()],
            sim_state=None if ctx["actions"] is None else ctx["g_sel"].data.copy(),
            forbidden=[],
        )
        return ctx, state

    def inference_step(self, ctx: dict, state: InferenceState) -> StepResult:
        """One greedy step: select a candidate (or STOP), decode its sentence,
        mix memories.  Deterministic given (checkpoint, record, state)."""
        with no_grad():
            ing_state = ctx["g_sel"] if state.sim_state is None else Tensor(state.sim_state)
            v_mems = [Tensor(m) for m in state.v_mems]
            h, logits, v_new, sim = self._score_candidates(
                ctx, v_mems, ing_state, set(state.forbidden)
            )
            probs = softmax(logits, axis=-1).data.copy()
            chosen = int(np.argmax(probs))
            if chosen == ctx["n"]:
                return StepResult(probs, True, None, [], None, state)
            tokens, logp, s_new, _ = self.generate_sentence(
                h[chosen].reshape(1, -1), [Tensor(m) for m in state.s_mems], ctx["g_gen"], sim=sim
            )
            v_next, s_next = self._mix(v_new, s_new)
            new_state = InferenceState(
                v_mems=[m.data.copy() for m in v_next],
                s_mems=[m.data.copy() for m in s_next],
                sim_state=None if sim is None else sim.new_state.data.copy(),
                forbidden=state.forbidden + [chosen],
            )
            return StepResult(probs, False, chosen, tokens, logp.data.copy(), new_state)

    def run_inference(self, record: DatasetRecord) -> PredictionRecipe:
        ctx, state = self.init_inference(record)
        selections: list[int] = []
        sentences: list[list[str]] = []
        intervals = []
        for _ in range(self.config.max_steps):
            result = self.inference_step(ctx, state)
            if result.stop:
                break
            state = result.state
            selections.append(result.index)
            sentences.append(self.vocab.decode(result.tokens))
            intervals.append(record.candidates.events[result.index])
            if len(state.forbidden) >= ctx["n"]:
                break
        return PredictionRecipe(record.video_id, selections, sentences, intervals)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def config_hash(config: ModelConfig, vocab: Vocabulary, action_lexicon: list[str]) -> str:
    payload = json.dumps(
        {
            "config": asdict(config),
            "vocab": vocab.content_tokens,
            "actions": list(action_lexicon),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_checkpoint(path, model: RecipeModel, extra_meta: dict | None = None):
    meta = {
        "config": asdict(model.config),
        "vocab": model.vocab.content_tokens,
        "actions": model.action_lexicon,
        "config_hash": config_hash(model.config, model.vocab, model.action_lexicon),
    }
    if extra_meta:
        meta["extra"] = extra_meta
    arrays = {f"param/{k}": p.data for k, p in model.parameters().items()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[RecipeModel, dict]:
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(bytes(blob["meta"]).decode())
        config = config_from_dict(ModelConfig, meta["config"], "model")
        model = RecipeModel(config, Vocabulary(meta["vocab"]), meta["actions"], seed=0)
        want = config_hash(model.config, model.vocab, model.action_lexicon)
        if meta.get("config_hash") != want:
            raise ValueError(
                f"checkpoint {path}: stored config_hash {meta.get('config_hash')!r} "
                f"does not match {want!r} computed from its config, vocabulary and actions"
            )
        params = model.parameters()
        stored = {key[len("param/"):] for key in blob.files if key.startswith("param/")}
        missing = sorted(params.keys() - stored)
        if missing:
            raise ValueError(f"checkpoint {path} lacks parameters: {', '.join(missing)}")
        for key in blob.files:
            if key.startswith("param/"):
                name = key[len("param/"):]
                if name not in params:
                    raise ValueError(f"checkpoint parameter {name!r} unknown to the model")
                if params[name].data.shape != blob[key].shape:
                    raise ValueError(f"checkpoint parameter {name!r} has wrong shape")
                params[name].data = blob[key].astype(config.dtype)
    return model, meta
