import copy
import json
import math

import numpy as np
import pytest

from recipegen.autodiff import Tensor, log_softmax, softmax
from recipegen.data import BOS, EOS, PAD, build_vocabulary
from recipegen.layers import sinusoidal_encoding
from recipegen.model import (
    ModelConfig,
    RecipeModel,
    build_labels,
    load_checkpoint,
    loss_event,
    loss_sentence,
    mix_memories,
    pool_memory,
    preset_config,
    save_checkpoint,
    tau_schedule,
)
from recipegen.optim import Adam, OptimizerConfig, grad_check
from recipegen.synth import DEFAULT_ACTIONS, WorldConfig, generate_world

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
            ModelConfig(conditioning="maybe")
        with pytest.raises(ValueError, match="vsim_negatives"):
            ModelConfig(vsim_negatives="bogus")
        with pytest.raises(ValueError):
            preset_config("huge")

    def test_tau_schedule(self):
        cfg = ModelConfig(tau=1.0, tau_anneal=False)
        assert tau_schedule(cfg, 10, 50) == 1.0
        cfg = ModelConfig(tau=1.0, tau_anneal=True, tau_min=0.5)
        assert tau_schedule(cfg, 0, 11) == pytest.approx(1.0)
        assert tau_schedule(cfg, 10, 11) == pytest.approx(0.5)


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


class TestPoolMemory:
    def test_single_layer_single_slot_identity(self):
        v = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(pool_memory([Tensor(v)]).data, v[0])

    def test_two_layers(self):
        a = Tensor(np.array([[1.0, -1.0]]))
        b = Tensor(np.array([[0.0, 2.0]]))
        np.testing.assert_array_equal(pool_memory([a, b]).data, [1.0, 2.0])

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(1)
        mems = [Tensor(rng.standard_normal((3, 5))) for _ in range(4)]
        got = pool_memory(mems).data
        want = np.max(np.stack([m.data for m in mems]), axis=(0, 1))
        np.testing.assert_array_equal(got, want)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            pool_memory([])


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

    @pytest.mark.parametrize("no_reselection", [False, True])
    def test_no_reselection_masks_forbidden_logit(self, no_reselection):
        model = tiny_model(no_reselection=no_reselection)
        ctx, _ = model.init_inference(RECORDS[0])

        def logits(forbidden):
            mems = model.event_tf.initial_memory()
            return model._score_candidates(ctx, mems, None, forbidden)[1].data

        free, masked = logits(set()), logits({1})
        if no_reselection:
            assert masked[1] <= -1e8
            np.testing.assert_array_equal(np.delete(masked, 1), np.delete(free, 1))
        else:
            np.testing.assert_array_equal(masked, free)


class TestMixMemories:
    def _linears(self, model):
        return model.mix_f1, model.mix_f2, model.mix_g1, model.mix_g2

    def test_zero_gate_maps_halve_partner(self):
        model = tiny_model()
        f1, f2, g1, g2 = self._linears(model)
        h = model.config.hidden
        for lin in (g1, g2):
            lin.weight.data = np.zeros_like(lin.weight.data)
            lin.bias.data = np.zeros_like(lin.bias.data)
        rng = np.random.default_rng(3)
        v, s = Tensor(rng.standard_normal((1, h))), Tensor(rng.standard_normal((1, h)))
        mv, ms = mix_memories(v, s, f1, f2, g1, g2)
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
        _, ms = mix_memories(v, s, f1, f2, g1, g2)
        g1s = s.data @ g1.weight.data + g1.bias.data
        np.testing.assert_allclose(ms.data, 0.5 * g1s, atol=1e-12)

    def test_random_matches_formula(self):
        model = tiny_model()
        f1, f2, g1, g2 = self._linears(model)
        h = model.config.hidden
        rng = np.random.default_rng(5)
        v, s = rng.standard_normal((1, h)), rng.standard_normal((1, h))

        def lin(l, x):
            return x @ l.weight.data + l.bias.data

        def sig(x):
            return 1 / (1 + np.exp(-x))

        mv, ms = mix_memories(Tensor(v), Tensor(s), f1, f2, g1, g2)
        np.testing.assert_allclose(mv.data, lin(f1, v) * sig(lin(g2, lin(g1, s))), atol=1e-12)
        np.testing.assert_allclose(ms.data, lin(g1, s) * sig(lin(f2, lin(f1, v))), atol=1e-12)


class TestLosses:
    def test_loss_event_perfect_is_zero(self):
        logp = Tensor(np.log(np.array([1.0 - 1e-300, 1e-300])))
        assert loss_event([logp], [0]).item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_event_uniform_closed_form(self):
        n = 5
        logp = log_softmax(Tensor(np.zeros(n + 1)))
        total = loss_event([logp] * 4, [0, 1, 2, n])
        assert total.item() == pytest.approx(4 * math.log(n + 1))

    def test_loss_event_random_matches_hand_sum(self):
        rng = np.random.default_rng(6)
        rows = [log_softmax(Tensor(rng.standard_normal(7))) for _ in range(3)]
        labels = [2, 0, 6]
        want = -sum(r.data[l] for r, l in zip(rows, labels))
        assert loss_event(rows, labels).item() == pytest.approx(want)

    def test_loss_event_label_out_of_range(self):
        logp = log_softmax(Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            loss_event([logp], [3])

    def test_loss_sentence_uniform_closed_form(self):
        vocab_size, k = 13, 4
        rows = log_softmax(Tensor(np.zeros((k, vocab_size))))
        total = loss_sentence([rows], [[5, 6, 7, 8]])
        assert total.item() == pytest.approx(k * math.log(vocab_size))

    def test_loss_sentence_pad_masked(self):
        rows = log_softmax(Tensor(np.zeros((3, 5))))
        with_pad = loss_sentence([rows], [[1, PAD, 2]])
        without = loss_sentence([rows[np.array([0, 2])]], [[1, 2]])
        assert with_pad.item() == pytest.approx(without.item())

    def test_loss_sentence_random_matches_hand_sum(self):
        rng = np.random.default_rng(7)
        rows = log_softmax(Tensor(rng.standard_normal((4, 9))))
        targets = [3, 8, 1, 4]
        want = -sum(rows.data[i, t] for i, t in enumerate(targets))
        assert loss_sentence([rows], [targets]).item() == pytest.approx(want)


class TestTrainingForward:
    @pytest.mark.parametrize(
        "variant, overrides",
        [("B", {}), ("BI", {}), ("BIV", {}), ("BIVT", {}),
         ("BIVT", {"memory_update": "separate"})],
        ids=["B", "BI", "BIV", "BIVT", "BIVT-separate"],
    )
    def test_used_parameters_receive_gradient(self, variant, overrides):
        # a model holds only what it reads: rounding noise (~1e-16) fails too
        model = tiny_model(variant, **overrides)
        for i, record in enumerate(RECORDS[:3]):
            labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, variant in ("BIV", "BIVT"))
            model.training_forward(record, labels, np.random.default_rng(i)).loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and np.abs(p.grad).max() > 1e-8, f"{variant}: {name}"

    @pytest.mark.parametrize(
        "variant, overrides, count",
        [("B", {}, 132), ("BI", {}, 140), ("BIV", {}, 150), ("BIVT", {}, 154),
         ("BIVT", {"memory_update": "separate"}, 146)],
    )
    def test_parameter_tensor_counts(self, variant, overrides, count):
        assert len(tiny_model(variant, **overrides).parameters()) == count

    def test_selection_trace_masks_previous_choices(self):
        model = tiny_model()
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, False)
        result = model.training_forward(record, labels, np.random.default_rng(1))
        seen = set()
        for t, trace in enumerate(result.traces[:-1]):
            for idx in seen:
                assert trace.probabilities[idx] == 0.0
            assert trace.probabilities.sum() == pytest.approx(1.0)
            seen.add(trace.chosen)
        assert len(seen) == len(labels.oracle_indices)

    def test_teacher_conditioning_follows_labels(self):
        model = tiny_model()
        record = RECORDS[1]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, False)
        result = model.training_forward(record, labels, np.random.default_rng(2))
        assert [t.chosen for t in result.traces[:-1]] == labels.oracle_indices

    def test_free_running_mode_runs(self):
        model = tiny_model(conditioning="free")
        record = RECORDS[1]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, False)
        result = model.training_forward(record, labels, np.random.default_rng(3))
        assert np.isfinite(result.loss.item())
        # with this rng an earlier free-running choice masks a later oracle
        # label; that step adds no event loss instead of about 1e9
        chosen = [trace.chosen for trace in result.traces[:-1]]
        targets = labels.oracle_indices + [len(record.candidates)]
        reachable = [t for t, label in enumerate(targets) if label not in chosen[:t]]
        assert len(reachable) < len(targets)
        want = -sum(math.log(result.traces[t].probabilities[targets[t]]) for t in reachable)
        assert result.loss_event.item() < 1e3
        assert result.loss_event.item() == pytest.approx(want, rel=1e-9)

    def test_separate_memory_mode_differs_from_joint(self):
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, False)
        joint = tiny_model(seed=5).training_forward(record, labels, np.random.default_rng(0))
        separate = tiny_model(seed=5, memory_update="separate").training_forward(
            record, labels, np.random.default_rng(0)
        )
        assert joint.loss.item() != pytest.approx(separate.loss.item())

    def test_null_event_negatives_change_vsim_loss(self):
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, True)
        loss = {
            mode: tiny_model("BIV", vsim_negatives=mode)
            .training_forward(record, labels, np.random.default_rng(0))
            .loss_vsim.item()
            for mode in ("skip", "null-event")
        }
        assert np.isfinite(loss["null-event"]) and loss["null-event"] != loss["skip"]

    @pytest.mark.parametrize("variant", ["B", "BIVT"])
    def test_soft_selection_gradients_match_finite_differences(self, variant):
        model = tiny_model(variant, hard_selection=False)
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, variant == "BIVT")
        params = model.parameters()
        checked = [params[k] for k in ("stop_vector", "feat_mlp.lin2.weight", "rel_enc.weight")]
        # a freshly seeded rng per call draws the same Gumbel noise each time
        err = grad_check(
            lambda: model.training_forward(record, labels, np.random.default_rng(4)).loss,
            checked,
            max_coords_per_param=6,
        )
        assert err <= 1e-5

    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_float32_losses_and_grads_stay_float32(self, variant):
        model = tiny_model(variant, precision="float32")
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, variant in ("BIV", "BIVT"))
        result = model.training_forward(record, labels, np.random.default_rng(0))
        result.loss.backward()
        losses = [result.loss, result.loss_event, result.loss_sentence, result.loss_vsim]
        for loss in losses:
            assert loss is None or loss.data.dtype == np.float32
        for name, p in model.parameters().items():
            assert p.grad is None or p.grad.dtype == np.float32, name

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
        pooled = pool_memory(v_new).data
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

    def test_memory_recurrence_resume_bit_exact(self):
        model = tiny_model(seed=13)
        record = RECORDS[4]
        ctx, state = model.init_inference(record)
        r1 = model.inference_step(ctx, state)
        saved = copy.deepcopy(r1.state)
        direct = model.inference_step(ctx, r1.state)
        resumed = model.inference_step(ctx, saved)
        np.testing.assert_array_equal(direct.probabilities, resumed.probabilities)
        if direct.token_log_probs is not None:
            np.testing.assert_array_equal(direct.token_log_probs, resumed.token_log_probs)
        assert direct.tokens == resumed.tokens


class TestCheckpoint:
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
    """Greedy decoding by one full ``_decode_pass`` per emitted token."""

    def generate(h_sel, s_mems, gen_ing, teacher_tokens=None, sim=None):
        decoded = []
        while True:
            logp, new_mems, _ = model._decode_pass([BOS] + decoded, h_sel, s_mems, gen_ing, sim)
            scores = logp.data[-1].copy()
            scores[[PAD, BOS]] = -np.inf
            token = int(np.argmax(scores))
            if token == EOS or len(decoded) >= model.config.max_sentence_len:
                return decoded, logp, new_mems, None
            decoded.append(token)

    return generate


def greedy_steps(model, record):
    ctx, state = model.init_inference(record)
    steps = []
    for _ in range(model.config.max_steps):
        result = model.inference_step(ctx, state)
        steps.append(result)
        if result.stop:
            break
        state = result.state
        if len(state.forbidden) >= ctx["n"]:
            break
    return steps


def trained_model(variant, epochs=8):
    model = tiny_model(variant)
    with_distant = variant in ("BIV", "BIVT")
    labels = [build_labels(r, VOCAB, DEFAULT_ACTIONS, with_distant) for r in RECORDS]
    optimizer = Adam(model.parameters(), OptimizerConfig(lr=3e-3, warmup_epochs=0))
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        for record, label in zip(RECORDS, labels):
            optimizer.zero_grad()
            model.training_forward(record, label, rng).loss.backward()
            optimizer.step()
    return model


class TestIncrementalDecoding:
    @pytest.mark.parametrize("variant", ["B", "BI", "BIV", "BIVT"])
    def test_matches_full_recompute(self, variant, monkeypatch):
        model = trained_model(variant)
        fast = [greedy_steps(model, r) for r in RECORDS]
        monkeypatch.setattr(model, "generate_sentence", reference_generate(model))
        slow = [greedy_steps(model, r) for r in RECORDS]
        eos_ended = 0
        for fast_steps, slow_steps in zip(fast, slow):
            assert [s.index for s in fast_steps] == [s.index for s in slow_steps]
            for a, b in zip(fast_steps, slow_steps):
                assert a.tokens == b.tokens
                if a.stop:
                    continue
                eos_ended += len(a.tokens) < model.config.max_sentence_len
                np.testing.assert_allclose(a.token_log_probs, b.token_log_probs, rtol=0, atol=1e-10)
                for ma, mb in zip(a.state.s_mems, b.state.s_mems):
                    np.testing.assert_allclose(ma, mb, rtol=0, atol=1e-10)
        assert eos_ended > 0

    def test_float32_stays_float32(self):
        model = tiny_model("BIVT", precision="float32")
        steps = [s for s in greedy_steps(model, RECORDS[0]) if not s.stop]
        assert steps
        for step in steps:
            assert step.token_log_probs.dtype == np.float32
            for mem in step.state.s_mems + step.state.v_mems:
                assert mem.dtype == np.float32
