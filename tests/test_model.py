import collections
import contextlib
import copy
import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipegen import autodiff
from recipegen import model as model_module
from recipegen.autodiff import Tensor, log_softmax, softmax
from recipegen.data import (
    BOS,
    EOS,
    PAD,
    DatasetRecord,
    EventCandidateSet,
    RecipeStep,
    TimedEvent,
    Vocabulary,
    build_vocabulary,
)
from recipegen.dvceval import tiou
from recipegen.extended import distant_labels
from recipegen.layers import IncrementalPass, MemTransformerLayer, sinusoidal_encoding
from recipegen.model import (
    DRAFT_TOKENS,
    FIXED_FIELDS,
    POSITIONS,
    ModelConfig,
    RecipeModel,
    VideoLabels,
    config_hash,
    load_checkpoint,
    preset_config,
    save_checkpoint,
)
from recipegen.optim import Adam, OptimizerConfig
from recipegen.oracle import oracle_select
from recipegen.synth import DEFAULT_ACTIONS, WorldConfig, generate_world

from gradcheck import grad_check

WORLD = WorldConfig(num_videos=6, seed=21)
RECORDS = generate_world(WORLD)
VOCAB = build_vocabulary([s.sentence for r in RECORDS for s in r.steps], min_count=1)


def tiny_model(variant="B", seed=0, **overrides):
    cfg = ModelConfig(
        hidden=16,
        layers=2,
        heads=2,
        feature_dim=WORLD.feature_dim,
        variant=variant,
        **overrides,
    )
    return RecipeModel(cfg, VOCAB, DEFAULT_ACTIONS, seed=seed)


class TestConfig:
    def test_presets(self):
        toy = preset_config("toy")
        assert (toy.hidden, toy.layers, toy.heads) == (64, 2, 4)
        paper = preset_config("paper")
        assert (paper.hidden, paper.layers, paper.heads) == (768, 2, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="BX")
        with pytest.raises(ValueError):
            preset_config("huge")
        with pytest.raises(ValueError, match="preset"):
            preset_config(["toy"])

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"hidden": "16"}, "model.hidden"),
            ({"layers": 0}, "model.layers"),
            ({"heads": 2.0}, "model.heads"),
            ({"max_sentence_len": True}, "model.max_sentence_len"),
            ({"tau": 0.0}, "model.tau"),
            ({"tau_min": float("nan")}, "model.tau_min"),
            ({"tau_anneal": "no"}, "model.tau_anneal"),
            ({"no_reselection": 0}, "model.no_reselection"),
            ({"max_sentence_len": 512}, "model.max_sentence_len"),  # past the position table
            ({"heads": 3}, "model.heads"),  # does not divide the hidden width 64
        ],
    )
    def test_scalar_field_type_and_range(self, overrides, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            ModelConfig(**overrides)

    def test_longest_sentence_fits_the_position_table(self):
        assert POSITIONS == 512
        model = tiny_model(max_sentence_len=511, max_steps=1)
        model.vocab_head.bias.data[EOS] = -1e9  # never end a sentence early
        pred = model.run_inference(RECORDS[0])
        assert [len(s) for s in pred.sentences] == [POSITIONS - 1]

    @pytest.mark.parametrize(
        "field, other",
        [("tau_anneal", True), ("tau_min", 0.25), ("hard_selection", False),
         ("no_reselection", False), ("conditioning", "free"), ("memory_update", "separate"),
         ("vsim_negatives", "null-event")],
    )
    def test_fixed_field_rejects_another_value(self, tmp_path, field, other):
        assert getattr(ModelConfig(), field) == FIXED_FIELDS[field]
        with pytest.raises(ValueError, match=re.escape(f"model.{field}")):
            ModelConfig(**{field: other})
        path = tmp_path / "m.npz"
        save_checkpoint(path, tiny_model())
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["config"][field] = other
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(f"model.{field}")):
            load_checkpoint(path)

    def test_empty_action_lexicon_only_without_a_simulator(self):
        def build(variant):
            config = ModelConfig(hidden=16, layers=1, heads=2, feature_dim=WORLD.feature_dim, variant=variant)
            return RecipeModel(config, VOCAB, [])

        for variant in ("BIV", "BIVT"):
            with pytest.raises(ValueError, match=f"variant {variant} needs a non-empty action lexicon"):
                build(variant)
        assert build("B").action_embed is build("BI").action_embed is None


class TestEncodeEvents:
    def test_identical_features_distinct_positions(self):
        model = tiny_model()
        record = RECORDS[0]
        feats = record.candidates.features.copy()
        feats[1] = feats[0]
        cands = type(record.candidates)(
            record.candidates.events, feats, record.candidates.sentences
        )
        enc = model.encode_events(cands, record.duration)
        assert not np.allclose(enc.data[0], enc.data[1])

    def test_zero_weights_leave_positional_encoding(self):
        model = tiny_model()
        for layer in (model.feat_mlp.lin1, model.feat_mlp.lin2, model.rel_enc):
            layer.weight.data = np.zeros_like(layer.weight.data)
            layer.bias.data = np.zeros_like(layer.bias.data)
        record = RECORDS[0]
        enc = model.encode_events(record.candidates, record.duration)
        n = len(record.candidates)
        want = sinusoidal_encoding(n, model.config.hidden)
        np.testing.assert_allclose(enc.data, want, atol=1e-12)

    def test_deterministic(self):
        model = tiny_model()
        record = RECORDS[0]
        a = model.encode_events(record.candidates, record.duration).data
        b = model.encode_events(record.candidates, record.duration).data
        np.testing.assert_array_equal(a, b)

    def test_bad_duration(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.encode_events(RECORDS[0].candidates, 0.0)


class TestEventStep:
    def test_identical_inputs_identical_outputs(self):
        model = tiny_model()
        record = RECORDS[0]
        e = model.encode_events(record.candidates, record.duration)
        mems = model.event_tf.initial_memory()
        h1, new1 = model.event_step(e, mems, len(record.candidates))
        h2, new2 = model.event_step(e, model.event_tf.initial_memory(), len(record.candidates))
        np.testing.assert_array_equal(h1.data, h2.data)
        for a, b in zip(new1, new2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_hand_evaluated_single_layer(self):
        # 1 layer / 1 head / tiny dims: replicate the layer arithmetic densely
        cfg = ModelConfig(hidden=4, layers=1, heads=1, feature_dim=2)
        model = RecipeModel(cfg, VOCAB, DEFAULT_ACTIONS, seed=3)
        layer = model.event_tf.layers[0]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4))
        mem = np.zeros((1, 4))

        def lin(l, v):
            return v @ l.weight.data + (l.bias.data if l.bias is not None else 0.0)

        def attend(q_in, kv_in, block):
            q, k, v = lin(block.proj_q, q_in), lin(block.proj_k, kv_in), lin(block.proj_v, kv_in)
            s = q @ k.T / 2.0
            a = np.exp(s - s.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            return lin(block.proj_out, a @ v)

        def layer_norm(ln, v):
            mu = v.mean(axis=-1, keepdims=True)
            var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + ln.eps) * ln.gain.data + ln.shift.data

        ctx = np.vstack([mem, x])
        h1 = layer_norm(layer.norm1, x + attend(x, ctx, layer.attn))
        ffn = lin(layer.ffn.lin2, np.maximum(lin(layer.ffn.lin1, h1), 0.0))
        h2 = layer_norm(layer.norm2, h1 + ffn)
        summary = attend(mem, np.vstack([mem, h2]), layer.mem_update.attn)
        cand = np.tanh(mem @ layer.mem_update.cand_mem.weight.data + lin(layer.mem_update.cand_att, summary))
        gate = 1 / (1 + np.exp(-(mem @ layer.mem_update.gate_mem.weight.data + lin(layer.mem_update.gate_att, summary))))
        new_mem = gate * mem + (1 - gate) * cand

        out, new_mems = model.event_tf(Tensor(x), [Tensor(mem)], None)
        np.testing.assert_allclose(out.data, h2, atol=1e-10)
        np.testing.assert_allclose(new_mems[0].data, new_mem, atol=1e-10)


def pooled_query(mems):
    """The query ``_score_candidates`` pools from new event memories ``mems``,
    and the number of graph nodes the pooling makes."""
    model = tiny_model()
    ctx = model._context(RECORDS[0])
    seen = {}

    def event_step(sequence, memories, n_events):
        seen["after_step"] = next(autodiff._node_seq)
        return ctx["events"], mems

    def event_logits(h_events, pooled, forbidden):
        seen["nodes"] = next(autodiff._node_seq) - seen["after_step"] - 1
        seen["pooled"] = pooled
        return Tensor(np.zeros(h_events.shape[0] + 1))

    model.event_step, model.event_logits = event_step, event_logits
    model._score_candidates(ctx, model.event_tf.initial_memory(), None, set())
    return seen["pooled"], seen["nodes"]


class TestPoolMemory:
    def test_single_layer_single_slot_identity(self):
        v = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(pooled_query([Tensor(v)])[0].data, v[0])

    def test_two_layers(self):
        a = Tensor(np.array([[1.0, -1.0]]))
        b = Tensor(np.array([[0.0, 2.0]]))
        np.testing.assert_array_equal(pooled_query([a, b])[0].data, [1.0, 2.0])

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(1)
        mems = [Tensor(rng.standard_normal((3, 5))) for _ in range(4)]
        got = pooled_query(mems)[0].data
        want = np.max(np.stack([m.data for m in mems]), axis=(0, 1))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layers", [1, 2, 5])
    def test_two_graph_nodes_for_any_layer_count(self, layers):
        mems = [Tensor(np.ones((1, 4)), requires_grad=True) for _ in range(layers)]
        assert pooled_query(mems)[1] == 2  # one concat, one max


class TestEventProbabilities:
    def test_uniform_when_all_representations_equal(self):
        model = tiny_model()
        h = model.config.hidden
        row = np.ones(h) * 0.3
        model.stop_vector.data = row.copy()
        h_events = Tensor(np.tile(row, (4, 1)))
        pooled = Tensor(np.ones(h))
        logits = model.event_logits(h_events, pooled, set())
        probs = softmax(logits).data
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_only_candidate_masked_forces_stop(self):
        model = tiny_model()
        h = model.config.hidden
        h_events = Tensor(np.random.default_rng(0).standard_normal((1, h)))
        pooled = Tensor(np.ones(h))
        probs = softmax(model.event_logits(h_events, pooled, {0})).data
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-300)
        assert probs[0] == 0.0

    def test_hand_dot_products(self):
        # dots {1, 0, -1}, STOP masked out: softmax over the three values
        model = tiny_model()
        h = model.config.hidden
        rows = np.zeros((3, h))
        rows[0, 0], rows[1, 0], rows[2, 0] = 1.0, 0.0, -1.0
        model.stop_vector.data = np.zeros(h)
        pooled = np.zeros(h)
        pooled[0] = 1.0
        logits = model.event_logits(Tensor(rows), Tensor(pooled), {3})
        probs = softmax(logits).data
        e = np.exp([1.0, 0.0, -1.0])
        np.testing.assert_allclose(probs[:3], e / e.sum(), atol=1e-12)
        assert probs[3] == 0.0

    def test_masked_probabilities_exactly_zero_and_sum_one(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        h_events = Tensor(rng.standard_normal((6, model.config.hidden)))
        pooled = Tensor(rng.standard_normal(model.config.hidden))
        probs = softmax(model.event_logits(h_events, pooled, {1, 4})).data
        assert probs[1] == 0.0 and probs[4] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_forbidden_logit_masked(self):
        model = tiny_model()
        ctx = model._context(RECORDS[0])

        def logits(forbidden):
            mems = model.event_tf.initial_memory()
            return model._score_candidates(ctx, mems, None, forbidden)[1].data

        free, masked = logits(set()), logits({1})
        assert masked[1] <= -1e8
        np.testing.assert_array_equal(np.delete(masked, 1), np.delete(free, 1))


class TestMixMemories:
    def _linears(self, model):
        return model.mix_f1, model.mix_f2, model.mix_g1, model.mix_g2

    def mix_one(self, model, v, s):
        (mv,), (ms,) = model._mix([v], [s])
        return mv, ms

    def test_zero_gate_maps_halve_partner(self):
        model = tiny_model()
        f1, f2, g1, g2 = self._linears(model)
        h = model.config.hidden
        for lin in (g1, g2):
            lin.weight.data = np.zeros_like(lin.weight.data)
            lin.bias.data = np.zeros_like(lin.bias.data)
        rng = np.random.default_rng(3)
        v, s = Tensor(rng.standard_normal((1, h))), Tensor(rng.standard_normal((1, h)))
        mv, ms = self.mix_one(model, v, s)
        f1v = v.data @ f1.weight.data + f1.bias.data
        np.testing.assert_allclose(mv.data, 0.5 * f1v, atol=1e-12)
        np.testing.assert_allclose(ms.data, np.zeros((1, h)), atol=1e-12)

    def test_identity_f1_zero_f2(self):
        model = tiny_model()
        f1, f2, g1, g2 = self._linears(model)
        h = model.config.hidden
        f1.weight.data = np.eye(h)
        f1.bias.data = np.zeros(h)
        f2.weight.data = np.zeros_like(f2.weight.data)
        f2.bias.data = np.zeros(h)
        rng = np.random.default_rng(4)
        v, s = Tensor(rng.standard_normal((1, h))), Tensor(rng.standard_normal((1, h)))
        _, ms = self.mix_one(model, v, s)
        g1s = s.data @ g1.weight.data + g1.bias.data
        np.testing.assert_allclose(ms.data, 0.5 * g1s, atol=1e-12)

    def test_random_matches_formula(self):
        # each layer's pair is exchanged on its own, through the shared maps
        model = tiny_model()
        f1, f2, g1, g2 = self._linears(model)
        h = model.config.hidden
        rng = np.random.default_rng(5)
        vs = [rng.standard_normal((2, h)) for _ in range(3)]
        ss = [rng.standard_normal((2, h)) for _ in range(3)]

        def lin(l, x):
            return x @ l.weight.data + l.bias.data

        def sig(x):
            return 1 / (1 + np.exp(-x))

        mixed_v, mixed_s = model._mix([Tensor(v) for v in vs], [Tensor(s) for s in ss])
        assert len(mixed_v) == len(mixed_s) == 3
        for v, s, mv, ms in zip(vs, ss, mixed_v, mixed_s):
            np.testing.assert_allclose(mv.data, lin(f1, v) * sig(lin(g2, lin(g1, s))), atol=1e-12)
            np.testing.assert_allclose(ms.data, lin(g1, s) * sig(lin(f2, lin(f1, v))), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        model = tiny_model()
        h = model.config.hidden
        rng = np.random.default_rng(6)
        vs = [Tensor(rng.standard_normal((1, h)), requires_grad=True) for _ in range(2)]
        ss = [Tensor(rng.standard_normal((1, h)), requires_grad=True) for _ in range(2)]
        weights = Tensor(rng.standard_normal((1, h)))

        def mixed_sum():
            mixed_v, mixed_s = model._mix(vs, ss)
            return (autodiff.concat(mixed_v + mixed_s, axis=0) * weights).sum()

        err = grad_check(mixed_sum, [*vs, *ss, *(l.weight for l in self._linears(model))],
                         max_coords_per_param=6)
        assert err <= 1e-5


class TestLosses:
    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_training_forward_sums_each_steps_terms(self, variant):
        """The event loss is the NLL of every unmasked label, STOP included,
        the sentence loss that of every written step's targets, and the loss
        their sum plus the simulator and textual-attention terms."""
        model = tiny_model(variant)
        record = RECORDS[1]
        labels = model.labels(record)
        labels.oracle_indices[1] = labels.oracle_indices[0]  # a masked repeat
        result = model.training_forward(record, labels, np.random.default_rng(5))
        kept = [s for t, s in enumerate(result.steps)
                if s.chosen not in [r.chosen for r in result.steps[:t]]]
        assert len(kept) == len(result.steps) - 1
        event = -sum(math.log(s.probabilities[s.chosen]) for s in kept)
        written = [s for s in result.steps if s.chosen < len(record.candidates)]
        sentence = -sum(s.log_probs.data[i, token]
                        for s in written for i, token in enumerate(s.tokens))
        terms = result.terms
        assert terms["loss_event"].item() == pytest.approx(event, rel=1e-9)
        assert terms["loss_sentence"].item() == pytest.approx(sentence, rel=1e-9)
        assert set(terms) <= set(model_module.LOSS_TERMS)
        total = terms["loss_event"].item() + terms["loss_sentence"].item()
        for key in ("loss_vsim", "loss_tattn"):
            total += terms[key].item() if key in terms else 0.0
        assert result.loss.item() == total


def label_record(candidates, steps, duration=40.0):
    """A record of the given (start, end) candidates and steps."""
    cands = EventCandidateSet([TimedEvent(*c) for c in candidates], np.zeros((len(candidates), 2)))
    return DatasetRecord("v", duration, [RecipeStep(TimedEvent(*s), ["a"]) for s in steps], [], candidates=cands)


def fallback_label_indices(record):
    """The labels by a scalar-tIoU scan: a repeated oracle pick falls back to
    the min of (-tIoU, start, index) over the candidates still unused."""
    indices = []
    for t, idx in enumerate(oracle_select(record.candidates, record.ground_truth).indices):
        if idx in indices:
            step = record.steps[t].interval
            options = [
                (-tiou(ev, step), ev.start, i)
                for i, ev in enumerate(record.candidates.events)
                if i not in indices
            ]
            idx = min(options)[2] if options else idx
        indices.append(idx)
    return indices


@st.composite
def label_records(draw):
    """Small integer worlds, so that tIoU and start ties are common."""
    ends = st.integers(0, 11).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, 12)))
    candidates = sorted(draw(st.lists(ends, min_size=1, max_size=6)))
    cuts = sorted(draw(st.sets(st.integers(0, 12), min_size=2, max_size=10)))
    cuts = cuts[: len(cuts) // 2 * 2]
    return label_record(candidates, list(zip(cuts[::2], cuts[1::2])), duration=12.0)


# labels() of a B model: the oracle indices and targets, no distant labels
LABELER = tiny_model()


class TestBuildLabels:
    def test_shared_best_candidate_falls_back_through_ties(self):
        # [0, 20] is both steps' best (tIoU 0.5); for the second step the
        # other three tie at tIoU 0.4, [10, 14] and [10, 35] also on start
        record = label_record([(0, 20), (10, 14), (10, 35), (16, 20)], [(0, 10), (10, 20)])
        assert oracle_select(record.candidates, record.ground_truth).indices == [0, 0]
        assert LABELER.labels(record).oracle_indices == [0, 1]

    def test_more_steps_than_candidates_repeat_the_oracle_pick(self):
        record = label_record([(0, 20), (18, 30)], [(0, 10), (10, 20), (20, 30)])
        assert LABELER.labels(record).oracle_indices == [0, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(record=label_records())
    def test_matches_the_scalar_fallback(self, record):
        labels = LABELER.labels(record)
        assert labels.oracle_indices == fallback_label_indices(record)

    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_distant_labels_exactly_with_a_simulator(self, variant):
        record = RECORDS[0]
        labels = tiny_model(variant).labels(record)
        if variant in ("BIV", "BIVT"):
            ing, act = distant_labels(record.ground_truth, DEFAULT_ACTIONS)
            np.testing.assert_array_equal(labels.ing_labels, ing)
            np.testing.assert_array_equal(labels.act_labels, act)
        else:
            assert labels.ing_labels is None and labels.act_labels is None


class TestTrainingForward:
    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_used_parameters_receive_gradient(self, variant):
        # a model holds only what it reads: rounding noise (~1e-16) fails too
        model = tiny_model(variant)
        for i, record in enumerate(RECORDS[:3]):
            labels = model.labels(record)
            model.training_forward(record, labels, np.random.default_rng(i)).loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and np.abs(p.grad).max() > 1e-8, f"{variant}: {name}"

    @pytest.mark.parametrize(
        "variant, overrides, count",
        [("B", {}, 132), ("BI", {}, 140), ("BIV", {}, 150), ("BIVT", {}, 154),
         ("BIVT", {"precision": "float32"}, 154)],
    )
    def test_parameter_tensor_counts(self, variant, overrides, count):
        assert len(tiny_model(variant, **overrides).parameters()) == count

    def test_selection_trace_masks_previous_choices(self):
        model = tiny_model()
        record = RECORDS[0]
        labels = model.labels(record)
        result = model.training_forward(record, labels, np.random.default_rng(1))
        seen = set()
        for step in result.steps[:-1]:
            for idx in seen:
                assert step.probabilities[idx] == 0.0
            assert step.probabilities.sum() == pytest.approx(1.0)
            seen.add(step.chosen)
        assert len(seen) == len(labels.oracle_indices)

    def test_teacher_conditioning_follows_labels(self):
        model = tiny_model()
        record = RECORDS[1]
        labels = model.labels(record)
        result = model.training_forward(record, labels, np.random.default_rng(2))
        assert [t.chosen for t in result.steps[:-1]] == labels.oracle_indices

    def test_repeated_oracle_label_adds_no_event_loss(self):
        # labels() repeats a label only when the steps outnumber the
        # candidates; the repeat is masked, so its event loss would be ~1e9
        model = tiny_model()
        record = RECORDS[1]
        labels = model.labels(record)
        labels.oracle_indices[1] = labels.oracle_indices[0]
        result = model.training_forward(record, labels, np.random.default_rng(3))
        targets = labels.oracle_indices + [len(record.candidates)]
        kept = [t for t, label in enumerate(targets) if label not in targets[:t]]
        assert len(kept) == len(targets) - 1
        want = -sum(math.log(result.steps[t].probabilities[targets[t]]) for t in kept)
        assert result.terms["loss_event"].item() == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "variant, names",
        [
            ("B", ["stop_vector", "vocab_head.weight", "vocab_head.bias"]),
            ("BIVT", ["stop_vector", "vocab_head.weight", "vocab_head.bias",
                      "vocab_head_ing.weight", "vocab_head_act.weight",
                      "textual_attention.map_ingredient.weight",
                      "textual_attention.map_action.weight"]),
        ],
        ids=["B", "BIVT"],
    )
    def test_gradients_outside_the_selection_match_finite_differences(self, variant, names):
        # the straight-through gradient is not the derivative of the one-hot
        # it forwards, so only parameters it does not reach are checked: the
        # STOP logit and the vocabulary heads after the selected row
        model = tiny_model(variant)
        record = RECORDS[0]
        labels = model.labels(record)
        params = model.parameters()
        # a freshly seeded rng per call draws the same Gumbel noise each time
        err = grad_check(
            lambda: model.training_forward(record, labels, np.random.default_rng(4)).loss,
            [params[k] for k in names],
            max_coords_per_param=6,
        )
        assert err <= 1e-5

    @pytest.mark.parametrize("variant", ["B", "BIVT"])
    def test_soft_selection_gradients_match_finite_differences(self, variant):
        # the straight-through one-hot passes back the gradient of the soft
        # Gumbel-softmax selection; check that relaxation at the first step,
        # through the encoders that score the candidates
        model = tiny_model(variant)
        record = RECORDS[0]
        n = len(record.candidates)
        weights = Tensor(np.random.default_rng(1).normal(size=(1, model.config.hidden)))
        params = model.parameters()
        names = ["feat_mlp.lin2.weight", "rel_enc.weight"]
        if variant == "BIVT":
            names += ["ing_mlp_sel.lin2.weight", "simulator.q_event.weight"]

        def soft_selection():
            ctx = model._context(record)
            h, logits, _, _ = model._score_candidates(
                ctx, model.event_tf.initial_memory(), ctx["g_sel"], set()
            )
            # a freshly seeded rng per call draws the same Gumbel noise each time
            sample = autodiff.gumbel_softmax(logits[:n], model.config.tau, np.random.default_rng(4))
            return ((sample.reshape(1, n) @ h) * weights).sum()

        err = grad_check(soft_selection, [params[k] for k in names], max_coords_per_param=6)
        assert err <= 1e-5

    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_float32_losses_and_grads_stay_float32(self, variant):
        model = tiny_model(variant, precision="float32")
        record = RECORDS[0]
        labels = model.labels(record)
        result = model.training_forward(record, labels, np.random.default_rng(0))
        result.loss.backward()
        for loss in [result.loss, *result.terms.values()]:
            assert loss.data.dtype == np.float32
        for name, p in model.parameters().items():
            assert p.grad is None or p.grad.dtype == np.float32, name

    def test_trace_probabilities_build_no_graph(self, monkeypatch):
        model = tiny_model("BIVT")
        record = RECORDS[0]
        labels = model.labels(record)
        runs = []
        # the second run differentiates the trace softmax, as earlier versions did
        for no_grad in (model_module.no_grad, contextlib.nullcontext):
            monkeypatch.setattr(model_module, "no_grad", no_grad)
            first = next(autodiff._node_seq)
            result = model.training_forward(record, labels, np.random.default_rng(0))
            runs.append((result, next(autodiff._node_seq) - first))
        (lean, lean_nodes), (graphed, graphed_nodes) = runs
        assert lean.loss.item() == graphed.loss.item()
        assert lean_nodes + len(lean.steps) == graphed_nodes
        for a, b in zip(lean.steps, graphed.steps, strict=True):
            assert a.chosen == b.chosen
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_teacher_distribution_count_matches_targets(self):
        model = tiny_model()
        h_sel = Tensor(np.zeros((1, model.config.hidden)))
        mems = model.sent_tf.initial_memory()
        targets = VOCAB.encode(["stir", "the", "eggs"])
        out, rows, _, _ = model.generate_sentence(h_sel, mems, None, teacher_tokens=targets)
        assert out == targets
        assert rows.shape[0] == len(targets)


class TestInference:
    def test_stop_first_gives_empty_recipe(self):
        model = tiny_model()
        record = RECORDS[2]
        # point the STOP vector along the step-1 pooled memory so STOP dominates
        e = model.encode_events(record.candidates, record.duration)
        _, v_new = model.event_step(e, model.event_tf.initial_memory(), len(record.candidates))
        pooled = np.max(np.concatenate([m.data for m in v_new]), axis=0)
        model.stop_vector.data = 100.0 * np.sign(pooled) * np.maximum(np.abs(pooled), 1e-3)
        pred = model.run_inference(record)
        assert pred.selections == [] and pred.sentences == [] and pred.intervals == []

    def test_no_duplicate_selections(self):
        model = tiny_model()
        for record in RECORDS:
            pred = model.run_inference(record)
            assert len(set(pred.selections)) == len(pred.selections)
            assert all(0 <= i < len(record.candidates) for i in pred.selections)
            assert len(pred.selections) <= model.config.max_steps

    @pytest.mark.parametrize("max_steps", [3, 50])
    def test_scores_no_step_it_cannot_take(self, max_steps, monkeypatch):
        """Never choosing STOP, greedy decoding runs min(max_steps, N) steps,
        and the event transformer runs once per step."""
        model = tiny_model(max_steps=max_steps)
        event_logits, event_step, passes = model.event_logits, model.event_step, []

        def no_stop(*args):
            logits = event_logits(*args)
            logits.data[-1] = -1e9
            return logits

        monkeypatch.setattr(model, "event_logits", no_stop)
        monkeypatch.setattr(model, "event_step", lambda *args: passes.append(1) or event_step(*args))
        record = RECORDS[0]
        pred = model.run_inference(record)
        assert len(pred.selections) == len(passes) == min(max_steps, len(record.candidates))

    def test_greedy_decode_deterministic(self):
        model = tiny_model(seed=11)
        record = RECORDS[3]
        p1 = model.run_inference(record)
        p2 = model.run_inference(record)
        assert p1 == p2

    def test_degenerate_eos_head_gives_empty_sentences(self):
        model = tiny_model()
        model.vocab_head.bias.data = model.vocab_head.bias.data * 0
        model.vocab_head.bias.data[EOS] = 1000.0
        h_sel = Tensor(np.zeros((1, model.config.hidden)))
        tokens, _, _, _ = model.generate_sentence(
            h_sel, model.sent_tf.initial_memory(), None, teacher_tokens=None
        )
        assert tokens == []

    def test_greedy_never_emits_pad_or_bos(self):
        model = tiny_model(seed=2)
        model.vocab_head.bias.data[PAD] = 1000.0
        model.vocab_head.bias.data[BOS] = 1000.0
        h_sel = Tensor(np.zeros((1, model.config.hidden)))
        tokens, rows, _, _ = model.generate_sentence(
            h_sel, model.sent_tf.initial_memory(), None, teacher_tokens=None
        )
        assert tokens and PAD not in tokens and BOS not in tokens
        # the log-prob rows still rank the reserved ids first
        assert set(np.argmax(rows.data, axis=-1)) <= {PAD, BOS}

    @pytest.mark.parametrize("variant", ["B", "BIVT"])
    def test_context_builds_no_graph(self, variant):
        # nor does anything else the greedy rollout builds after the context
        model = tiny_model(variant=variant, seed=5)
        first = next(autodiff._node_seq)
        steps = model.greedy_steps(RECORDS[1])
        assert next(autodiff._node_seq) == first + 1
        for step in steps:
            assert step.log_probs is None or not step.log_probs.requires_grad


class TestCheckpoint:
    def test_config_hash_of_saved_checkpoints_unchanged(self):
        config = preset_config("toy", variant="B", feature_dim=32)
        digest = config_hash(config, Vocabulary(["stir", "the"]), DEFAULT_ACTIONS)
        assert digest == "d998a5f6b2c2cdb9"

    def test_roundtrip_preserves_behavior(self, tmp_path):
        model = tiny_model(variant="BIVT", seed=7)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded, meta = load_checkpoint(path)
        assert meta["config"]["variant"] == "BIVT"
        for record in RECORDS[:3]:
            assert model.run_inference(record) == loaded.run_inference(record)

    def test_parameter_arrays_identical(self, tmp_path):
        model = tiny_model(seed=9)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        for (n1, p1), (n2, p2) in zip(
            sorted(model.parameters().items()), sorted(loaded.parameters().items())
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def _saved_arrays(self, path):
        save_checkpoint(path, tiny_model())
        with np.load(path) as blob:
            return {k: blob[k] for k in blob.files}

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        del arrays["param/rel_enc.weight"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="rel_enc.weight"):
            load_checkpoint(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["config_hash"] = "0" * 16
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="config_hash"):
            load_checkpoint(path)

    def test_key_bias_of_older_checkpoints_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        arrays["param/event_tf.layers.0.attn.proj_k.bias"] = np.zeros(16)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"event_tf\.layers\.0\.attn\.proj_k\.bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda meta: meta.update(vocab=5), "'vocab'"),
            (lambda meta: meta.update(vocab=["stir", 3]), "'vocab'"),
            (lambda meta: meta.update(actions=5), "'actions'"),
            (lambda meta: meta.update(config_hash=7), "'config_hash'"),
            (lambda meta: meta.pop("config"), "'config'"),
            (lambda meta: meta["config"].update(hidden="16"), "model.hidden"),
            (lambda meta: meta["config"].update(hard_selection=1), "model.hard_selection"),
            (lambda meta: meta["vocab"].append("<pad>"), "not unique"),
        ],
        ids=["vocab", "vocab-entry", "actions", "config-hash", "no-config", "hidden",
             "flag", "reserved-token"],
    )
    def test_malformed_meta_field_rejected(self, tmp_path, edit, field):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(field)):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [b"[1, 2]", b"{not json", b"\xff"], ids=["list", "text", "bytes"])
    def test_meta_that_is_no_object_rejected(self, tmp_path, meta):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="'meta'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, "0.5", True, 1j],
        ids=["nan", "inf", "string", "bool", "complex"],
    )
    def test_non_finite_or_non_numeric_parameter_rejected(self, tmp_path, value):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        shape = arrays["param/rel_enc.weight"].shape
        arrays["param/rel_enc.weight"] = np.full(shape, value)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"'rel_enc\.weight' must hold finite floats"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda arrays: arrays.update({"param/rel_enc.weight": arrays["param/rel_enc.weight"][:, :-1]}),
             "parameter 'rel_enc.weight' has wrong shape"),
            (lambda arrays: arrays.update({"param/no_such.weight": np.zeros(3)}),
             "parameter 'no_such.weight' unknown to the model"),
            (lambda arrays: arrays["param/rel_enc.weight"].fill(np.nan),
             "parameter 'rel_enc.weight' must hold finite floats"),
        ],
        ids=["wrong-shape", "unknown", "non-finite"],
    )
    def test_bad_parameter_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        edit(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {message}")):
            load_checkpoint(path)

    def test_removed_config_field_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        arrays = self._saved_arrays(path)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["config"]["memory_slots"] = 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="memory_slots"):
            load_checkpoint(path)


def reference_generate(model):
    """Greedy decoding by one full teacher-forced pass over BOS plus the
    decoded prefix per emitted token; a draft is ignored."""

    def generate(h_sel, s_mems, gen_ing, teacher_tokens=None, sim=None, draft=None):
        decoded = []
        while True:
            _, logp, new_mems, _ = RecipeModel.generate_sentence(
                model, h_sel, s_mems, gen_ing, decoded + [EOS], sim
            )
            scores = logp.data[-1].copy()
            scores[[PAD, BOS]] = -np.inf
            token = int(np.argmax(scores))
            if token == EOS or len(decoded) >= model.config.max_sentence_len:
                return decoded, logp, new_mems, None
            decoded.append(token)

    return generate


def recording(generate, memories):
    """``generate``, appending the sentence memories each call returns to ``memories``."""

    def call(*args, **kwargs):
        out = generate(*args, **kwargs)
        memories.append(out[2])
        return out

    return call


def no_draft(generate):
    """``generate`` with no draft from the previous step: a push drafts only
    the run of one repeated token that the sentence is in."""

    def call(*args, draft=None, **kwargs):
        return generate(*args, **kwargs)

    return call


def assert_same_decodes(fast, slow, fast_mems, slow_mems, max_len):
    """Two decodes of the same videos give the same selections and tokens,
    and log-prob rows and sentence memories within 1e-10; some sentence ends
    before ``max_len``."""
    eos_ended = 0
    for fast_steps, slow_steps in zip(fast, slow, strict=True):
        assert [s.chosen for s in fast_steps] == [s.chosen for s in slow_steps]
        for a, b in zip(fast_steps, slow_steps):
            assert a.tokens == b.tokens
            if a.log_probs is None:
                continue
            eos_ended += len(a.tokens) < max_len
            np.testing.assert_allclose(a.log_probs.data, b.log_probs.data, rtol=0, atol=1e-10)
    assert eos_ended > 0
    for fast_layers, slow_layers in zip(fast_mems, slow_mems, strict=True):
        for ma, mb in zip(fast_layers, slow_layers, strict=True):
            np.testing.assert_allclose(ma.data, mb.data, rtol=0, atol=1e-10)


def trained_model(variant, epochs=8, **overrides):
    model = tiny_model(variant, **overrides)
    labels = [model.labels(r) for r in RECORDS]
    optimizer = Adam(model.parameters(), OptimizerConfig(lr=3e-3, warmup_epochs=0))
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        for record, label in zip(RECORDS, labels):
            optimizer.zero_grad()
            model.training_forward(record, label, rng).loss.backward()
            optimizer.step()
    return model


class SentencePasses:
    """Counts the sentence-layer passes of ``model``: pushes per pass, the
    rows each layer keeps for the memory update, and all dropped rows."""

    def __init__(self, model, monkeypatch):
        self.pushes: list[int] = []
        self.kept: list[list[int]] = []
        self.dropped = 0
        push, drop, update = IncrementalPass.push, IncrementalPass.drop, IncrementalPass.update_memories

        def counted_push(run, *args):
            if run.layers is model.sent_tf.layers:
                if not any(run.outputs):
                    self.pushes.append(0)
                self.pushes[-1] += 1
            return push(run, *args)

        def counted_drop(run, rows):
            self.dropped += rows
            return drop(run, rows)

        def counted_update(run):
            if run.layers is model.sent_tf.layers:
                self.kept.append([sum(rows.shape[0] for rows in layer) for layer in run.outputs])
            return update(run)

        monkeypatch.setattr(IncrementalPass, "push", counted_push)
        monkeypatch.setattr(IncrementalPass, "drop", counted_drop)
        monkeypatch.setattr(IncrementalPass, "update_memories", counted_update)


def ingredient_rows(model, record):
    return len(record.ingredients) if model.ing_mlp_gen is not None else 0


class TestIncrementalDecoding:
    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_matches_full_recompute(self, variant, monkeypatch):
        """Drafted decoding gives the tokens, selections and memories of one
        full pass per emitted token, and its run both keeps and rejects
        drafted tokens."""
        model = trained_model(variant)
        fast_mems, slow_mems = [], []
        with monkeypatch.context() as patch:
            passes = SentencePasses(model, patch)
            patch.setattr(model, "generate_sentence", recording(model.generate_sentence, fast_mems))
            fast = [model.greedy_steps(r) for r in RECORDS]
        monkeypatch.setattr(model, "generate_sentence", recording(reference_generate(model), slow_mems))
        slow = [model.greedy_steps(r) for r in RECORDS]
        assert_same_decodes(fast, slow, fast_mems, slow_mems, model.config.max_sentence_len)
        # every push after the first of a sentence carries one emitted token,
        # so the drafted rows kept are the input rows less the pushes
        inputs = sum(len(s.tokens) + 1 for steps in fast for s in steps if s.log_probs is not None)
        assert inputs - sum(passes.pushes) > 0
        assert passes.dropped > 0

    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_runs_without_a_draft_match_full_recompute(self, variant, monkeypatch):
        """With no draft from the previous step a push drafts only a run of
        one repeated token, and decoding still gives the tokens, selections,
        log-prob rows and memories of one full pass per emitted token."""
        model = trained_model(variant)
        fast_mems, slow_mems = [], []
        with monkeypatch.context() as patch:
            passes = SentencePasses(model, patch)
            patch.setattr(model, "generate_sentence", recording(no_draft(model.generate_sentence), fast_mems))
            fast = [model.greedy_steps(r) for r in RECORDS]
        monkeypatch.setattr(model, "generate_sentence", recording(reference_generate(model), slow_mems))
        slow = [model.greedy_steps(r) for r in RECORDS]
        assert any(a == b for steps in fast for s in steps for a, b in zip(s.tokens, s.tokens[1:]))
        assert_same_decodes(fast, slow, fast_mems, slow_mems, model.config.max_sentence_len)
        inputs = sum(len(s.tokens) + 1 for steps in fast for s in steps if s.log_probs is not None)
        assert sum(passes.pushes) < inputs  # drafted runs were kept
        assert passes.dropped > 0

    def scripted_sentence(self, monkeypatch, script, draft=None):
        """One greedy sentence of an untrained BI model whose row at word
        position p emits ``script[p]``, while the sentence layers run on every
        pushed row; returns the decode, one full pass per emitted token over
        the same script, and the sentence-layer counts of the decode."""
        model = tiny_model("BI")
        rng = np.random.default_rng(0)
        gen_ing = Tensor(rng.standard_normal((2, model.config.hidden)))
        h_sel = Tensor(rng.standard_normal((1, model.config.hidden)))
        starts, word_rows = [], model._word_rows

        def rows(ids, h, start=0):
            starts.append(start)
            return word_rows(ids, h, start)

        def log_probs(word_h, keys):
            positions = starts[-1] + np.arange(word_h.shape[0])
            logits = np.zeros((len(positions), len(VOCAB)))
            logits[np.arange(len(positions)), [script[p] for p in positions]] = 10.0
            return log_softmax(Tensor(logits), axis=-1), None

        monkeypatch.setattr(model, "_word_rows", rows)
        monkeypatch.setattr(model, "_vocab_log_probs", log_probs)
        args = (h_sel, model.sent_tf.initial_memory(), gen_ing)
        with autodiff.no_grad():
            want = reference_generate(model)(*args)
            with monkeypatch.context() as patch:
                passes = SentencePasses(model, patch)
                got = model.generate_sentence(*args, draft=draft)
        assert got[0] == want[0]
        np.testing.assert_allclose(got[1].data, want[1].data, rtol=0, atol=1e-10)
        for a, b in zip(got[2], want[2], strict=True):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-10)
        return got[0], passes

    def test_a_run_of_one_token_takes_at_most_three_pushes(self, monkeypatch):
        """BOS, the token once more, then the rest of the run in one push,
        whatever its length and the draft; the pushed rows past its end are
        dropped."""
        max_len = ModelConfig().max_sentence_len
        token, other = 5, 7  # content ids
        for length in (2, 3, max_len // 2, max_len):
            script = [token] * length + [EOS] * (max_len + 1 - length)
            for draft in (None, [token] * max_len, [other] * max_len):
                tokens, passes = self.scripted_sentence(monkeypatch, script, draft)
                assert tokens == [token] * length
                assert passes.pushes[0] <= 3, (length, draft)
                if draft is None:
                    assert passes.pushes == [3]
                    assert passes.dropped == max_len - length
                assert passes.kept == [[2 + length + 1] * 2]

    def test_a_broken_run_drops_the_rejected_rows(self, monkeypatch):
        """A run that another token breaks keeps the rows up to that token
        and drops the rest of the run's push; the next push drafts nothing."""
        max_len = ModelConfig().max_sentence_len
        script = [5, 5, 5, 7] + [EOS] * max_len
        tokens, passes = self.scripted_sentence(monkeypatch, script)
        assert tokens == [5, 5, 5, 7]
        # BOS; the second 5; the run's push, rejected at the 7; the 7 alone
        assert passes.pushes == [4]
        # the run's push holds the last emitted 5 and max_len - 2 drafted 5s,
        # and keeps two rows
        assert passes.dropped == max_len - 3
        assert passes.kept == [[2 + 5] * 2]

    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_sentence_layers_run_once_per_push(self, variant, monkeypatch):
        """Each sentence layer runs once per push, and keeps k + 1 word rows
        (BOS and the emitted tokens) of a greedy sentence of k tokens."""
        model = tiny_model(variant)
        runs = collections.Counter()
        layer_call = MemTransformerLayer.__call__

        def counted(layer, *args):
            runs[id(layer)] += 1
            return layer_call(layer, *args)

        monkeypatch.setattr(MemTransformerLayer, "__call__", counted)
        passes = SentencePasses(model, monkeypatch)
        words, n_ing = [], []
        for record in RECORDS:
            for step in model.greedy_steps(record):
                if step.log_probs is not None:
                    words.append(len(step.tokens) + 1)
                    n_ing.append(ingredient_rows(model, record))
        assert words and len(passes.pushes) == len(words)
        layers = len(model.sent_tf.layers)
        assert [runs[id(layer)] for layer in model.sent_tf.layers] == [sum(passes.pushes)] * layers
        assert passes.kept == [[i + w] * layers for i, w in zip(n_ing, words)]
        assert sum(passes.pushes) < sum(words)  # some drafted rows were kept

    @pytest.mark.parametrize("variant", ["B", "BIVT"])
    def test_explicit_drafts_give_the_reference_tokens(self, variant, monkeypatch):
        """Right, wrong, too long and past-EOS drafts all decode to the tokens
        of one full pass per emitted token, and no push passes max length,
        also when a push may carry more drafted tokens than a sentence holds
        or drafts the run a sentence is in."""
        model = trained_model(variant, max_sentence_len=4)
        max_len = model.config.max_sentence_len
        calls = []
        generate = model.generate_sentence
        monkeypatch.setattr(
            model, "generate_sentence", lambda *a, **k: calls.append((a, k)) or generate(*a, **k)
        )
        for record in RECORDS:
            model.greedy_steps(record)
        monkeypatch.undo()
        positions = []
        word_rows = model._word_rows
        monkeypatch.setattr(
            model,
            "_word_rows",
            lambda ids, h, start=0: positions.append(start + len(ids) - 1) or word_rows(ids, h, start),
        )
        reference = reference_generate(model)
        content = [t for t in range(len(VOCAB)) if t not in (PAD, BOS, EOS)]
        seen = collections.Counter()
        for args, kwargs in calls:
            sim = kwargs["sim"]
            want, want_logp, want_mems, _ = reference(*args, sim=sim)
            ended = len(want) < max_len
            wrong = [next(t for t in content if t != w) for w in want + [EOS] * max_len][:max_len]
            drafts = {
                "right": want,
                "wrong": wrong,
                # rejected at once, then longer than the room left
                "too long": wrong[:1] + want[1:] + content[: max_len + 3],
                "past EOS": want + content[:3] if ended else None,
            }
            for name, draft in drafts.items():
                if draft is None:
                    continue
                for size in (DRAFT_TOKENS, max_len + 2):
                    monkeypatch.setattr(model_module, "DRAFT_TOKENS", size)
                    tokens, logp, mems, _ = model.generate_sentence(*args, sim=sim, draft=draft)
                    assert tokens == want, (name, size)
                    np.testing.assert_allclose(logp.data, want_logp.data, rtol=0, atol=1e-10)
                    for a, b in zip(mems, want_mems, strict=True):
                        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-10)
                seen[name] += 1
            seen["max length"] += not ended
            seen["run"] += any(a == b for a, b in zip(want, want[1:]))
        names = ("right", "wrong", "too long", "past EOS", "max length", "run")
        assert all(seen[name] > 0 for name in names)
        assert max(positions) == max_len

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_matches_one_token_decoding(self, precision, monkeypatch):
        """Drafted decoding emits the selections and tokens of one full pass
        per emitted token; in float64 its log-prob rows agree to 1e-12."""
        model = trained_model("BIVT", precision=precision)
        drafted = [model.greedy_steps(r) for r in RECORDS]
        monkeypatch.setattr(model, "generate_sentence", reference_generate(model))
        single = [model.greedy_steps(r) for r in RECORDS]
        for a_steps, b_steps in zip(drafted, single):
            assert [s.chosen for s in a_steps] == [s.chosen for s in b_steps]
            for a, b in zip(a_steps, b_steps):
                assert a.tokens == b.tokens
                if a.log_probs is not None:
                    assert a.log_probs.shape == b.log_probs.shape
                    if precision == "float64":
                        np.testing.assert_allclose(a.log_probs.data, b.log_probs.data, rtol=0, atol=1e-12)

    def test_float32_stays_float32(self, monkeypatch):
        model = tiny_model("BIVT", precision="float32")
        mixed, mix = [], model._mix
        monkeypatch.setattr(model, "_mix", lambda v, s: mixed.append(mix(v, s)) or mixed[-1])
        steps = [s for s in model.greedy_steps(RECORDS[0]) if s.log_probs is not None]
        assert steps and len(mixed) == len(steps)
        for step in steps:
            assert step.log_probs.data.dtype == np.float32
        for v_mems, s_mems in mixed:
            for mem in v_mems + s_mems:
                assert mem.data.dtype == np.float32


class TestOneRecurrence:
    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_teacher_rollout_of_greedy_choices_matches_greedy(self, variant):
        """Teacher-forcing a greedy rollout's own choices and tokens (+EOS)
        runs the same recurrence: every step's selection matches, and the
        sentence loss is the NLL that greedy's own rows give those tokens."""
        model = trained_model(variant)
        compared = 0
        for record in RECORDS:
            greedy = model.greedy_steps(record)
            written = [s for s in greedy if s.log_probs is not None]
            k = len(written)
            labels = VideoLabels(
                oracle_indices=[s.chosen for s in written],
                token_ids=[s.tokens + [EOS] for s in written],
                ing_labels=np.ones((k, len(record.ingredients)), dtype=np.int8),
                act_labels=np.ones((k, len(DEFAULT_ACTIONS)), dtype=np.int8),
            )
            # the textual-attention targets are the words of the record's steps
            taught = copy.copy(record)
            taught.steps = [types.SimpleNamespace(sentence=VOCAB.decode(s.tokens)) for s in written]
            teacher, terms = model._rollout(taught, labels, np.random.default_rng(0))
            for a, b in zip(greedy, teacher):
                assert a.chosen == b.chosen
                np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=0, atol=1e-10)
                if a.log_probs is not None:
                    np.testing.assert_allclose(a.log_probs.data, b.log_probs.data, rtol=0, atol=1e-10)
            if k:
                want = -sum(s.log_probs.data[np.arange(len(s.tokens) + 1), s.tokens + [EOS]].sum()
                            for s in written)
                assert terms["loss_sentence"].item() == pytest.approx(want, rel=1e-9)
            compared += k
        assert compared > 0
