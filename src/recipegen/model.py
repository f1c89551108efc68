"""The joint event-selector / sentence-generator model.

The model is one recurrence over a recipe's steps, ``RecipeModel._rollout``,
run in two modes.  At each step the event transformer (memory-augmented)
re-reads ``[ingredient state; candidates]``, its per-layer memories are
max-pooled into a single query vector, and candidate logits are dot products
of that vector with each candidate's holistic representation plus a learned
STOP pseudo-event.  One event is chosen, the sentence transformer (also
memory-augmented) writes its sentence, the simulator state advances, and the
two memory banks are mixed through sigmoid gates.  Training
(``training_forward``) selects through a straight-through Gumbel-softmax
pinned to the oracle label (so the sentence loss reaches the selector),
scores the sentence teacher-forced and ends with a STOP step; inference
(``greedy_steps``, ``run_inference``) takes the argmax and decodes greedily.
Both modes record one ``Step`` per step, and neither ever selects a candidate
twice.  In training the recurrence also sums each loss term as it goes, into
one map keyed by ``LOSS_TERMS``: each step's event, sentence, simulator and
textual-attention NLLs.

A sentence is one pass of the sentence layers in both modes.  Ingredient rows
never read word rows and a word row reads only earlier words, so appending a
word changes no earlier hidden state.  Teacher forcing pushes the ingredient
rows and every input word at once.  Greedy decoding pushes the ingredient rows
with BOS, then the last emitted token; each push also carries drafted tokens
and keeps the drafted rows the argmax confirms (greedy speculative decoding).
After two equal tokens the draft is that token again up to the maximum length,
a guess that the run goes on; otherwise it is up to ``DRAFT_TOKENS`` tokens of
the previous step's sentence, aligned by position.  Rejected rows are dropped
from the pass, so the tokens are those of one push per token.  The sentence
memories are updated once per sentence, over all the kept rows, so a greedy
decode equals the teacher-forced pass over BOS and its own output.

Model variants:
  B      events only
  BI     + ingredient rows in both transformers
  BIV    + dot-product visual simulator (fused event representations, state)
  BIVT   + textual attention over ingredient state and event-weighted actions

Each variant builds only the modules it reads.  The extension modules are
drawn last, in the order B < BI < BIV < BIVT, so a variant draws a prefix of
that list, and every module it keeps starts from the same weights as in the
variants above it built from the same seed.  Whether a step reads ingredients,
runs the simulator or applies textual attention, and whether ``labels`` adds
distant labels, follows from which modules exist.  Precision is decided once:
the layers draw in float64, and the model casts each parameter to
``config.dtype``, the cast ``load_checkpoint`` applies.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass

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
    check_int,
    check_number,
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
from .oracle import oracle_ranking

VARIANTS = ("B", "BI", "BIV", "BIVT")
# rows of the sinusoidal position table: candidate ranks and word positions
# (greedy decoding puts the k-th emitted token at position k)
POSITIONS = 512
# most tokens of the previous step's sentence one greedy decoding push drafts
# (a drafted run of one repeated token is bounded only by the maximum length)
DRAFT_TOKENS = 4
# the training loss terms, which are also training log keys, in the order the
# loss adds them
LOSS_TERMS = ("loss_event", "loss_sentence", "loss_vsim", "loss_tattn")


# Switches of ablations the model no longer has, each fixed to the value of
# its one training path.  They stay fields so that stored configs and their
# hashes keep their shape; any other value is rejected.
FIXED_FIELDS = {
    "tau_anneal": False,  # tau stays at ``tau``
    "tau_min": 0.5,
    "hard_selection": True,  # straight-through one-hot selection
    "no_reselection": True,  # a chosen candidate is masked afterwards
    "conditioning": "teacher",  # training forwards the oracle event
    "memory_update": "joint",  # the memories are mixed after each step
    "vsim_negatives": "skip",  # unlabeled items add no simulator loss
}


@dataclass
class ModelConfig:
    hidden: int = 64
    layers: int = 2
    heads: int = 4
    feature_dim: int = 32
    max_steps: int = 12
    max_sentence_len: int = 20
    variant: str = "B"
    tau: float = 1.0  # Gumbel-softmax temperature of the training selection
    # fixed, see FIXED_FIELDS
    tau_anneal: bool = False
    tau_min: float = 0.5
    hard_selection: bool = True
    no_reselection: bool = True
    conditioning: str = "teacher"
    memory_update: str = "joint"
    vsim_negatives: str = "skip"
    precision: str = "float64"  # "float32" | "float64"

    def __post_init__(self):
        for name in ("hidden", "layers", "heads", "feature_dim", "max_steps"):
            check_int(f"model.{name}", getattr(self, name), 1)
        check_int("model.max_sentence_len", self.max_sentence_len, 1, POSITIONS - 1)
        check_number("model.tau", self.tau, 0.0)
        if self.tau == 0:
            raise ValueError("model.tau must be positive")
        for name, fixed in FIXED_FIELDS.items():
            value = getattr(self, name)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"model.{name} is fixed at {fixed!r}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant {self.variant!r} must be one of {VARIANTS}")
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
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    return config_from_dict(ModelConfig, {**PRESETS[preset], **overrides}, "model")


# ---------------------------------------------------------------------------
# Labels and forward results
# ---------------------------------------------------------------------------


@dataclass
class VideoLabels:
    oracle_indices: list[int]
    token_ids: list[list[int]]  # per step: encoded sentence tokens + EOS
    ing_labels: np.ndarray | None = None  # (T, M)
    act_labels: np.ndarray | None = None  # (T, R)


@dataclass
class Step:
    """One step of the recurrence.  ``log_probs`` holds one vocabulary
    log-prob row per input position of the sentence (None on STOP)."""

    probabilities: np.ndarray  # over candidates + STOP (last entry)
    chosen: int  # candidate index, or N for STOP
    tokens: list[int]  # the sentence's ids (the targets, EOS last, in training); [] on STOP
    log_probs: Tensor | None


@dataclass
class ForwardResult:
    loss: Tensor
    terms: dict[str, Tensor]  # each loss term that occurred, by its LOSS_TERMS key
    steps: list[Step]


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
        level = VARIANTS.index(config.variant)
        ing, sim, text = level >= 1, level >= 2, level >= 3
        if sim and not self.action_lexicon:
            raise ValueError(f"variant {config.variant} needs a non-empty action lexicon")
        rng = np.random.default_rng(seed)
        h = config.hidden

        # event side
        self.feat_mlp = MLP(config.feature_dim, h, h, rng)
        self.rel_enc = Linear(3, h, rng)
        self.event_tf = MemTransformer(config.layers, h, config.heads, rng)
        self.stop_vector = Tensor(rng.standard_normal(h) * 0.02, requires_grad=True)

        # sentence side
        self.word_embed = Embedding(len(vocab), h, rng)
        self.word_adapter = Linear(h, h, rng)
        self.sent_tf = MemTransformer(config.layers, h, config.heads, rng)
        self.vocab_head = Linear(h, len(vocab), rng)

        # memory mixing maps
        self.mix_f1, self.mix_f2, self.mix_g1, self.mix_g2 = (Linear(h, h, rng) for _ in range(4))

        # extension modules, drawn last so that each variant draws a prefix
        self.ing_mlp_sel = MLP(h, h, h, rng) if ing else None
        self.ing_mlp_gen = MLP(h, h, h, rng) if ing else None
        self.action_embed = Embedding(len(action_lexicon), h, rng) if sim else None
        self.simulator = DotProductSimulator(h, rng) if sim else None
        self.textual_attention = TextualAttention(h, rng) if text else None
        self.vocab_head_ing = Linear(h, len(vocab), rng, bias=False) if text else None
        self.vocab_head_act = Linear(h, len(vocab), rng, bias=False) if text else None

        # the one place precision is set (see the module docstring)
        for p in self.parameters().values():
            p.data = p.data.astype(config.dtype, copy=False)
        self._pe = sinusoidal_encoding(POSITIONS, h).astype(config.dtype, copy=False)

    # -- encoders -------------------------------------------------------------

    def encode_events(self, candidates: EventCandidateSet, duration: float) -> Tensor:
        """Feature MLP + sinusoidal rank encoding + relative interval encoding."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        n = len(candidates)
        feats = Tensor(candidates.features.astype(self.config.dtype))
        rel = np.asarray(
            [
                [ev.start / duration, ev.end / duration, ev.length / duration]
                for ev in candidates.events
            ],
            dtype=self.config.dtype,
        )
        return self.feat_mlp(feats) + Tensor(self._pe[:n]) + self.rel_enc(Tensor(rel))

    def encode_ingredients(self, ingredients: list[str]) -> Tensor:
        """Mean word embedding of each ingredient's tokens: one row per
        ingredient, which the selector and generator MLPs both read."""
        rows = [
            self.word_embed(self.vocab.encode(tokenize(ing))).mean(axis=0, keepdims=True)
            for ing in ingredients
        ]
        return concat(rows, axis=0)

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
        """Gated cross-exchange of each layer's selector and generator memories:
        v' = f1(v) * sigmoid(g2(g1(s))),  s' = g1(s) * sigmoid(f2(f1(v)))."""
        mixed_v, mixed_s = [], []
        for v, s in zip(v_mems, s_mems):
            fv, gs = self.mix_f1(v), self.mix_g1(s)
            mixed_v.append(fv * self.mix_g2(gs).sigmoid())
            mixed_s.append(gs * self.mix_f2(fv).sigmoid())
        return mixed_v, mixed_s

    # -- sentence side ----------------------------------------------------------

    def _sentence_mask(self, n_ing: int, n_words: int) -> np.ndarray:
        size = n_ing + n_words
        mask = np.zeros((size, size), dtype=self.config.dtype)
        # ingredient rows never read word columns (no lookahead leakage)
        mask[:n_ing, n_ing:] = NEG_INF
        mask[n_ing:, n_ing:] = causal_mask(n_words)
        return mask

    def _word_rows(self, input_ids: list[int], h_sel: Tensor, start: int = 0) -> Tensor:
        """Input rows of words at positions ``start``, ``start + 1``, ..."""
        emb = self.word_embed(input_ids)
        w = self.word_adapter(emb).relu()
        pe = Tensor(self._pe[start : start + len(input_ids)])
        return w + pe + h_sel

    def _textual_keys(self, sim: SimulatorStep | None) -> TextualKeys | None:
        """A sentence's textual-attention keys (BIVT only, else None); a model
        with textual attention always has a simulator, so ``sim`` is set."""
        if self.textual_attention is None:
            return None
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

    def generate_sentence(
        self,
        h_sel: Tensor,
        s_mems: list[Tensor],
        gen_ing: Tensor | None,
        teacher_tokens: list[int] | None = None,
        sim: SimulatorStep | None = None,
        draft: list[int] | None = None,
    ):
        """Teacher-forced scoring (one log-prob row per target token) or
        greedy decoding until EOS / max length.

        Returns (emitted token ids, log-prob rows, new memories, attention
        weights).  In teacher mode the emitted ids are the targets.

        Both modes run one ``IncrementalPass`` over the sentence layers.  Its
        first push is the ingredient rows and the input word rows under
        ``_sentence_mask``: BOS plus all targets but the last in teacher mode,
        BOS plus the first drafted tokens in greedy mode.  Greedy mode then
        pushes the last emitted token with the drafted tokens that follow it.
        After m emitted ids, of which the last two are equal, a push drafts
        that id again for each of the ``config.max_sentence_len - m``
        positions left.  Otherwise it drafts from ``draft``, which guesses the
        emitted ids by position (``draft[k]`` for the k-th): at most
        ``DRAFT_TOKENS`` of them, and never a position past
        ``config.max_sentence_len``.  Row by row, a push keeps each drafted
        token that equals the argmax of the row before it, up to the first
        that does not, and emits the argmax of every kept row; the rows after
        it are dropped.  Without a draft, a push drafts only runs.
        Either way the emitted tokens are those of one push per token, and
        greedy mode returns one log-prob row per input position (BOS plus the
        emitted ids) and no attention weights; it never emits PAD or BOS.
        Either mode updates the memories once, over all the kept rows, as one
        full pass over the same inputs would.
        """
        teacher = teacher_tokens is not None
        max_len = self.config.max_sentence_len
        draft = list(draft or ())
        guess = draft[: min(DRAFT_TOKENS, max_len)]
        input_ids = [BOS] + (list(teacher_tokens[:-1]) if teacher else guess)
        n_ing = 0 if gen_ing is None else gen_ing.shape[0]
        words = self._word_rows(input_ids, h_sel)
        decoder = IncrementalPass(self.sent_tf, s_mems)
        out = decoder.push(
            words if gen_ing is None else concat([gen_ing, words], axis=0),
            self._sentence_mask(n_ing, len(input_ids)),
        )
        word_h = out[n_ing:] if n_ing else out
        if teacher:
            new_mems = decoder.update_memories()
            logp, alphas = self._vocab_log_probs(word_h, self._textual_keys(sim))
            return list(teacher_tokens), logp, new_mems, alphas

        keys = self._textual_keys(sim)
        decoded: list[int] = []
        rows: list[Tensor] = []
        while True:
            logp, _ = self._vocab_log_probs(word_h, keys)
            scores = logp.data.copy()
            scores[:, [PAD, BOS]] = -np.inf
            kept, done = 0, False
            # the last row has no drafted token to confirm
            for token, drafted in zip(scores.argmax(axis=1).tolist(), guess + [None]):
                kept += 1
                done = token == EOS or len(decoded) >= max_len
                if done:
                    break
                decoded.append(token)
                if token != drafted:
                    break
            decoder.drop(len(guess) + 1 - kept)
            rows.append(logp if kept == len(guess) + 1 else logp[:kept])
            if done:
                return decoded, concat(rows, axis=0), decoder.update_memories(), None
            m = len(decoded)
            room = max_len - m
            if m >= 2 and decoded[-1] == decoded[-2]:  # a run: guess it goes on
                guess = [decoded[-1]] * room
            else:
                guess = draft[m : m + min(DRAFT_TOKENS, room)]
            word_h = decoder.push(
                self._word_rows([decoded[-1]] + guess, h_sel, start=m),
                self._sentence_mask(0, len(guess) + 1) if guess else None,
            )

    # -- the recurrence ----------------------------------------------------------

    def check_record(self, record: DatasetRecord) -> None:
        """Reject, naming its video, a record this variant cannot read."""
        width, want = record.candidates.features.shape[1], self.config.feature_dim
        if width != want:
            raise ValueError(f"{record.video_id}: model expects feature dim {want}, video has {width}")
        if len(record.candidates) > POSITIONS:
            raise ValueError(f"{record.video_id}: too many candidates for the position table "
                             f"({len(record.candidates)} > {POSITIONS})")
        if self.ing_mlp_sel is not None:
            if not record.ingredients:
                raise ValueError(f"{record.video_id}: variant {self.config.variant} needs an ingredient")
            # an ingredient is the mean of its word rows, so it needs a word
            for ing in record.ingredients:
                if not tokenize(ing):
                    raise ValueError(f"{record.video_id}: ingredient {ing!r} has no words")

    def labels(self, record: DatasetRecord) -> VideoLabels:
        """The training targets of ``record`` in this model's vocabulary, with
        distant simulator labels from its action lexicon (BIV, BIVT)."""
        # the reselection mask would zero out a repeated label, so each step takes
        # the first candidate of its oracle ranking that no earlier step took (its
        # oracle pick when none is left)
        ranking, _ = oracle_ranking(record.candidates, record)
        indices: list[int] = []
        for column in ranking:
            indices.append(next((i for i in column if i not in indices), column[0]))
        token_ids = [self.vocab.encode(s.sentence) + [EOS] for s in record.steps]
        ing_labels = act_labels = None
        if self.simulator is not None:
            ing_labels, act_labels = distant_labels(record, self.action_lexicon)
        return VideoLabels(indices, token_ids, ing_labels, act_labels)

    def _context(self, record: DatasetRecord) -> dict:
        """Per-video inputs of every step: the candidate encodings, both
        ingredient encodings (all but B) and the action table (BIV, BIVT)."""
        self.check_record(record)
        events = self.encode_events(record.candidates, record.duration)
        ing = self.encode_ingredients(record.ingredients) if self.ing_mlp_sel is not None else None
        return {
            "n": len(record.candidates),
            "events": events,
            "g_sel": None if ing is None else self.ing_mlp_sel(ing),
            "g_gen": None if ing is None else self.ing_mlp_gen(ing),
            "actions": self.action_embed(np.arange(len(self.action_lexicon)))
            if self.action_embed is not None
            else None,
        }

    def _score_candidates(
        self, ctx: dict, v_mems: list[Tensor], ing_state: Tensor | None, forbidden: set[int]
    ):
        """The part of a step before the selection: the event transformer over
        ``[ingredient state; candidates]``, the simulator (BIV, BIVT), and the
        logits over the candidates plus STOP, with ``forbidden`` masked.

        Returns (candidate rows the selection reads, logits, new event
        memories, simulator step or None).
        """
        seq = ctx["events"] if ing_state is None else concat([ing_state, ctx["events"]], axis=0)
        h_events, v_new = self.event_step(seq, v_mems, ctx["n"])
        sim = None
        if ctx["actions"] is not None:
            sim = self.simulator.step(h_events, ctx["actions"], ing_state)
            h_events = sim.fused_events
        # the query: the element-wise max over the rows of every layer's memory
        logits = self.event_logits(h_events, concat(v_new, axis=0).amax(axis=0), forbidden)
        return h_events, logits, v_new, sim

    def _rollout(
        self,
        record: DatasetRecord,
        labels: VideoLabels | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[list[Step], dict[str, Tensor]]:
        """The one loop over a video's steps, in either mode.

        With ``labels`` (training) each step forwards the oracle event as a
        straight-through one-hot of a Gumbel-softmax sample at temperature
        ``config.tau``: the forward value is the oracle row, while gradients
        flow through the sampled relaxation.  The sentence is scored
        teacher-forced, and a final step scores STOP.  Without (inference)
        each step takes the argmax and decodes greedily, drafting from the
        previous step's tokens, for at most ``min(config.max_steps, N)``
        steps.  Either way a chosen event is masked for later steps and the
        memories are mixed after each step.

        In training each step adds its terms to a running sum per
        ``LOSS_TERMS`` key: the event NLL of its label (STOP included; none
        for a label an earlier step took), the NLL of its target tokens, and
        its simulator and textual-attention NLLs (against the words of the
        record's step).  Returns (steps, terms), where ``terms`` maps each
        term that occurred to its sum; it is empty in inference, and lacks
        the last two where no item or word was labeled.
        """
        ctx = self._context(record)
        n = ctx["n"]
        ing_state = ctx["g_sel"]
        v_mems = self.event_tf.initial_memory()
        s_mems = self.sent_tf.initial_memory()
        teacher = labels is not None
        targets = labels.oracle_indices + [n] if teacher else []
        forbidden: set[int] = set()
        steps: list[Step] = []
        terms: dict[str, Tensor] = {}

        def add(key: str, term: Tensor | None) -> None:
            if term is not None:
                terms[key] = terms[key] + term if key in terms else term

        for t in range(len(targets) if teacher else min(self.config.max_steps, n)):
            h, logits, v_new, sim = self._score_candidates(ctx, v_mems, ing_state, forbidden)
            # labels() repeats an oracle label only when the steps outnumber the
            # candidates; the masked repeat adds no event loss
            if teacher and targets[t] not in forbidden:
                add("loss_event", -log_softmax(logits, axis=-1)[targets[t]])
            with no_grad():  # read, not differentiated
                probs = softmax(logits, axis=-1).data
            chosen = targets[t] if teacher else int(np.argmax(probs))
            if chosen == n:
                steps.append(Step(probs, chosen, [], None))
                break

            if teacher:
                sample = gumbel_softmax(logits[:n], self.config.tau, rng)
                h_sel = straight_through_onehot(sample, index=chosen).reshape(1, n) @ h
            else:
                h_sel = h[chosen].reshape(1, -1)
            forbidden.add(chosen)

            tokens, rows, s_new, alphas = self.generate_sentence(
                h_sel,
                s_mems,
                ctx["g_gen"],
                teacher_tokens=labels.token_ids[t] if teacher else None,
                sim=sim,
                draft=None if teacher or not steps else steps[-1].tokens,
            )
            steps.append(Step(probs, chosen, tokens, rows))
            if teacher:
                add("loss_sentence", -rows[np.arange(len(tokens)), tokens].sum())

            if sim is not None:
                if teacher:
                    for logits_mat, lab in (
                        (sim.action_event_logits, labels.act_labels[t]),
                        (sim.ingredient_event_logits, labels.ing_labels[t]),
                    ):
                        add("loss_vsim", selector_nll(logits_mat, lab, chosen))
                ing_state = sim.new_state
            if alphas is not None:  # teacher mode only
                add("loss_tattn", textual_attention_nll(
                    *alphas, record.steps[t].sentence, record.ingredients, self.action_lexicon
                ))

            v_mems, s_mems = self._mix(v_new, s_new)
        return steps, terms

    def training_forward(
        self,
        record: DatasetRecord,
        labels: VideoLabels,
        rng: np.random.Generator,
    ) -> ForwardResult:
        """The loss terms of one video's teacher-forced rollout, by their
        ``LOSS_TERMS`` key, and the loss: the terms present, added in
        ``LOSS_TERMS`` order, ``((event + sentence) + simulator) + textual
        attention``."""
        steps, terms = self._rollout(record, labels, rng)
        present = [terms[key] for key in LOSS_TERMS if key in terms]
        return ForwardResult(loss=sum(present[1:], present[0]), terms=terms, steps=steps)

    def greedy_steps(self, record: DatasetRecord) -> list[Step]:
        """The greedy rollout of one video, ending with its STOP step if it
        chose STOP.  Builds no graph; deterministic given the parameters."""
        with no_grad():
            return self._rollout(record)[0]

    def run_inference(self, record: DatasetRecord) -> PredictionRecipe:
        steps = [s for s in self.greedy_steps(record) if s.chosen < len(record.candidates)]
        return PredictionRecipe(
            record.video_id,
            [s.chosen for s in steps],
            [self.vocab.decode(s.tokens) for s in steps],
            [record.candidates.events[s.chosen] for s in steps],
        )


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
    """Write ``model`` as an ``.npz`` archive at exactly the file name
    ``path`` (``np.savez`` given a name appends ``.npz`` to one without it)."""
    meta = {
        "config": asdict(model.config),
        "vocab": model.vocab.content_tokens,
        "actions": model.action_lexicon,
        "config_hash": config_hash(model.config, model.vocab, model.action_lexicon),
    }
    if extra_meta:
        meta["extra"] = extra_meta
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    arrays.update((f"param/{k}", p.data) for k, p in model.parameters().items())
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# what numpy raises for a file or archive member it cannot read
_DAMAGE = (EOFError, ValueError, zipfile.BadZipFile)


def _checkpoint_meta(path, blob) -> dict:
    """A checkpoint's metadata object, with the type of every field the loader
    reads checked."""
    try:
        meta = json.loads(bytes(blob["meta"]).decode())
    except (KeyError, *_DAMAGE) as exc:  # no array, unreadable, not UTF-8 JSON
        raise ValueError(f"checkpoint {path}: no readable 'meta' ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint {path}: 'meta' must be an object, got {type(meta).__name__}")
    for key, kind in (("config", dict), ("vocab", list), ("actions", list), ("config_hash", str)):
        value = meta.get(key)
        typed = isinstance(value, kind)
        if typed and kind is list:
            typed = all(isinstance(t, str) for t in value)
        if not typed:
            what = "a list of strings" if kind is list else f"a {kind.__name__}"
            raise ValueError(f"checkpoint {path}: meta {key!r} must be {what}")
    return meta


def _open_checkpoint(path):
    """The checkpoint's ``.npz`` archive; a file numpy cannot open as one
    raises a ``ValueError`` naming it."""
    try:
        blob = np.load(path, allow_pickle=False)
    except _DAMAGE as exc:
        raise ValueError(f"checkpoint {path}: not a readable .npz archive ({exc})") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path}: not a readable .npz archive (a single .npy array)")
    return blob


def load_checkpoint(path) -> tuple[RecipeModel, dict]:
    with _open_checkpoint(path) as blob:
        meta = _checkpoint_meta(path, blob)
        try:
            config = config_from_dict(ModelConfig, meta["config"], "model")
            vocab = Vocabulary(meta["vocab"])
            want = config_hash(config, vocab, meta["actions"])
            if meta["config_hash"] != want:
                raise ValueError(
                    f"stored config_hash {meta['config_hash']!r} does not match "
                    f"{want!r} computed from its config, vocabulary and actions"
                )
            model = RecipeModel(config, vocab, meta["actions"], seed=0)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        params = model.parameters()
        stored = {key[len("param/"):] for key in blob.files if key.startswith("param/")}
        missing = sorted(params.keys() - stored)
        if missing:
            raise ValueError(f"checkpoint {path} lacks parameters: {', '.join(missing)}")
        for key in blob.files:
            if key.startswith("param/"):
                name = key[len("param/"):]
                if name not in params:
                    raise ValueError(f"checkpoint {path}: parameter {name!r} unknown to the model")
                try:  # read one member at a time, so only one is held twice
                    array = blob[key]
                except _DAMAGE as exc:
                    raise ValueError(f"checkpoint {path}: parameter {name!r} is unreadable ({exc})") from None
                if params[name].data.shape != array.shape:
                    raise ValueError(f"checkpoint {path}: parameter {name!r} has wrong shape")
                if array.dtype.kind != "f" or not np.isfinite(array).all():
                    raise ValueError(f"checkpoint {path}: parameter {name!r} must hold finite floats")
                params[name].data = array.astype(config.dtype)
    return model, meta
