import math

import numpy as np
import pytest

from recipegen import model as model_module
from recipegen.autodiff import Tensor, log_softmax, softmax
from recipegen.data import (
    GroundTruthRecipe,
    RecipeStep,
    TimedEvent,
    build_vocabulary,
    tokenize,
)
from recipegen.extended import (
    DotProductSimulator,
    TextualAttention,
    distant_labels,
    selector_nll,
    textual_attention_nll,
    update_ingredients,
)
from recipegen.model import ModelConfig, RecipeModel, build_labels
from recipegen.oracle import OracleAssignment
from recipegen.synth import DEFAULT_ACTIONS, WorldConfig, generate_world

WORLD = WorldConfig(num_videos=6, seed=33)
RECORDS = generate_world(WORLD)
VOCAB = build_vocabulary([s.sentence for r in RECORDS for s in r.steps], min_count=1)


def zero_linear(lin):
    lin.weight.data = np.zeros_like(lin.weight.data)
    if lin.bias is not None:
        lin.bias.data = np.zeros_like(lin.bias.data)


def identity_linear(lin):
    lin.weight.data = np.eye(lin.weight.data.shape[0])
    if lin.bias is not None:
        lin.bias.data = np.zeros_like(lin.bias.data)


def manual_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def tiny_extended(variant="BIVT", seed=0):
    cfg = ModelConfig(hidden=16, layers=2, heads=2, feature_dim=WORLD.feature_dim, variant=variant)
    return RecipeModel(cfg, VOCAB, DEFAULT_ACTIONS, seed=seed)


class TestActionSelector:
    def test_zero_value_projection_zeroes_outputs(self):
        sim = DotProductSimulator(8, np.random.default_rng(0))
        zero_linear(sim.v_event)
        rng = np.random.default_rng(1)
        a, h = Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((4, 8)))
        weighted_events, _, _ = sim.action_selector(a, h)
        np.testing.assert_array_equal(weighted_events.data, np.zeros((3, 8)))

    def test_single_event_rows_equal_its_value(self):
        sim = DotProductSimulator(8, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        a, h = Tensor(rng.standard_normal((5, 8))), Tensor(rng.standard_normal((1, 8)))
        weighted_events, _, _ = sim.action_selector(a, h)
        value = sim.v_event(h).data[0]
        for row in weighted_events.data:
            np.testing.assert_allclose(row, value, atol=1e-12)

    def test_identity_projections_hand_case(self):
        sim = DotProductSimulator(2, np.random.default_rng(4))
        for lin in (sim.q_action, sim.k_event, sim.v_event, sim.q_event, sim.k_action, sim.v_action):
            identity_linear(lin)
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.array([[2.0, 0.0], [0.0, 1.0]])
        weighted_events, weighted_actions, logits_ae = sim.action_selector(Tensor(a), Tensor(h))
        scale = 1 / math.sqrt(2)
        want_logits = a @ h.T * scale
        np.testing.assert_allclose(logits_ae.data, want_logits, atol=1e-12)
        np.testing.assert_allclose(weighted_events.data, manual_softmax(want_logits) @ h, atol=1e-12)
        np.testing.assert_allclose(
            weighted_actions.data, manual_softmax(h @ a.T * scale) @ a, atol=1e-12
        )

    def test_attention_rows_on_simplex(self):
        sim = DotProductSimulator(8, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        a, h = Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((4, 8)))
        _, _, logits = sim.action_selector(a, h)
        rows = manual_softmax(logits.data)
        np.testing.assert_allclose(rows.sum(axis=-1), np.ones(3))


class TestIngredientSelector:
    def test_zero_value_projection(self):
        sim = DotProductSimulator(8, np.random.default_rng(0))
        zero_linear(sim.v_event)
        rng = np.random.default_rng(1)
        g, h = Tensor(rng.standard_normal((2, 8))), Tensor(rng.standard_normal((4, 8)))
        weighted_events, _, _ = sim.ingredient_selector(g, h)
        np.testing.assert_array_equal(weighted_events.data, np.zeros((2, 8)))

    def test_single_event(self):
        sim = DotProductSimulator(8, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        g, h = Tensor(rng.standard_normal((2, 8))), Tensor(rng.standard_normal((1, 8)))
        weighted_events, _, _ = sim.ingredient_selector(g, h)
        for row in weighted_events.data:
            np.testing.assert_allclose(row, sim.v_event(h).data[0], atol=1e-12)

    def test_matches_action_selector_with_substituted_table(self):
        # the ingredient selector is the action selector with the table swapped
        sim = DotProductSimulator(8, np.random.default_rng(7))
        sim.q_ingredient.weight.data = sim.q_action.weight.data.copy()
        sim.k_ingredient.weight.data = sim.k_action.weight.data.copy()
        sim.v_ingredient.weight.data = sim.v_action.weight.data.copy()
        rng = np.random.default_rng(8)
        table, h = Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((5, 8)))
        a_out = sim.action_selector(table, h)
        g_out = sim.ingredient_selector(table, h)
        for x, y in zip(a_out, g_out):
            np.testing.assert_allclose(x.data, y.data, atol=1e-12)


class TestUpdater:
    def test_zero_action_attention_is_identity(self):
        rng = np.random.default_rng(0)
        state = Tensor(rng.standard_normal((4, 8)))
        g_events = Tensor(rng.standard_normal((4, 8)))
        out = update_ingredients(state, g_events, Tensor(np.zeros((3, 8))))
        np.testing.assert_array_equal(out.data, state.data)

    def test_zero_ingredient_attention_is_identity(self):
        rng = np.random.default_rng(1)
        state = Tensor(rng.standard_normal((4, 8)))
        a_events = Tensor(rng.standard_normal((3, 8)))
        out = update_ingredients(state, Tensor(np.zeros((4, 8))), a_events)
        np.testing.assert_array_equal(out.data, state.data)

    def test_random_matches_formula(self):
        rng = np.random.default_rng(2)
        state = rng.standard_normal((4, 8))
        g_events = rng.standard_normal((4, 8))
        a_events = rng.standard_normal((3, 8))
        out = update_ingredients(Tensor(state), Tensor(g_events), Tensor(a_events))
        want = state + g_events * np.tile(a_events.max(axis=0), (4, 1))
        np.testing.assert_allclose(out.data, want, atol=1e-12)


class TestFusedRepresentations:
    def test_zero_attention_leaves_events(self):
        sim = DotProductSimulator(8, np.random.default_rng(0))
        for lin in (sim.v_event, sim.v_action, sim.v_ingredient):
            zero_linear(lin)
        rng = np.random.default_rng(1)
        events = Tensor(rng.standard_normal((4, 8)))
        actions = Tensor(rng.standard_normal((3, 8)))
        state = Tensor(rng.standard_normal((2, 8)))
        step = sim.step(events, actions, state)
        np.testing.assert_array_equal(step.fused_events.data, events.data)
        np.testing.assert_array_equal(step.new_state.data, state.data)

    def test_fused_difference_equals_attention_sum(self):
        sim = DotProductSimulator(8, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        events = Tensor(rng.standard_normal((4, 8)))
        actions = Tensor(rng.standard_normal((3, 8)))
        state = Tensor(rng.standard_normal((2, 8)))
        step = sim.step(events, actions, state)
        _, weighted_actions, _ = sim.action_selector(actions, events)
        _, weighted_ingredients, _ = sim.ingredient_selector(state, events)
        np.testing.assert_allclose(
            step.fused_events.data - events.data,
            weighted_actions.data + weighted_ingredients.data,
            atol=1e-12,
        )

    def test_state_recurrence_pure_residual_path(self):
        sim = DotProductSimulator(8, np.random.default_rng(4))
        for lin in (sim.v_event, sim.v_action, sim.v_ingredient):
            zero_linear(lin)
        rng = np.random.default_rng(5)
        events = Tensor(rng.standard_normal((4, 8)))
        actions = Tensor(rng.standard_normal((3, 8)))
        state = Tensor(rng.standard_normal((2, 8)))
        g0 = state.data.copy()
        for _ in range(5):
            state = sim.step(events, actions, state).new_state
        np.testing.assert_array_equal(state.data, g0)


class TestTextualAttention:
    def test_single_ingredient_full_attention(self):
        tattn = TextualAttention(8, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        words = Tensor(rng.standard_normal((3, 8)))
        state = Tensor(rng.standard_normal((1, 8)))
        actions = Tensor(rng.standard_normal((2, 8)))
        ctx_g, _, alpha_g, _ = tattn(words, tattn.keys(state, actions))
        np.testing.assert_allclose(alpha_g.data, np.ones((3, 1)))
        for row in ctx_g.data:
            np.testing.assert_allclose(row, state.data[0], atol=1e-12)

    def test_zero_bilinear_map_uniform(self):
        tattn = TextualAttention(8, np.random.default_rng(2))
        zero_linear(tattn.map_ingredient)
        rng = np.random.default_rng(3)
        words = Tensor(rng.standard_normal((2, 8)))
        state = Tensor(rng.standard_normal((5, 8)))
        actions = Tensor(rng.standard_normal((2, 8)))
        _, _, alpha_g, _ = tattn(words, tattn.keys(state, actions))
        np.testing.assert_allclose(alpha_g.data, np.full((2, 5), 0.2), atol=1e-12)

    def test_two_ingredient_hand_softmax(self):
        tattn = TextualAttention(2, np.random.default_rng(4))
        identity_linear(tattn.map_ingredient)
        words = np.array([[1.0, 0.0]])
        state = np.array([[2.0, 0.0], [0.0, 3.0]])
        keys = tattn.keys(Tensor(state), Tensor(np.zeros((1, 2))))
        _, _, alpha_g, _ = tattn(Tensor(words), keys)
        want = manual_softmax(np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(alpha_g.data, want, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_keys_projected_once_equal_per_token_projection(self, dtype):
        tattn = TextualAttention(8, np.random.default_rng(6), dtype=dtype)
        rng = np.random.default_rng(7)
        words, state, actions = (
            Tensor(rng.standard_normal(shape).astype(dtype)) for shape in ((4, 8), (3, 8), (5, 8))
        )
        keys = tattn.keys(state, actions)
        for k in range(4):
            row = words[k : k + 1]
            alpha_g = softmax(row @ tattn.map_ingredient(state).transpose(1, 0), axis=-1)
            alpha_a = softmax(row @ tattn.map_action(actions).transpose(1, 0), axis=-1)
            want = (alpha_g @ state, alpha_a @ actions, alpha_g, alpha_a)
            for got, ref in zip(tattn(row, keys), want):
                assert got.data.dtype == dtype
                assert np.array_equal(got.data, ref.data)

    def test_model_projects_keys_once_per_sentence(self, monkeypatch):
        model = tiny_extended("BIVT", seed=5)
        calls = []

        def counted(name, project):
            def call(x):
                calls.append(name)
                return project(x)

            return call

        for name in ("map_ingredient", "map_action"):
            project = getattr(model.textual_attention, name)
            monkeypatch.setattr(model.textual_attention, name, counted(name, project))
        record = RECORDS[0]
        pred = model.run_inference(record)
        # each sentence pushed one word row per emitted token plus one for BOS
        assert pred.sentences and sum(len(s) for s in pred.sentences) > 0
        n = len(pred.sentences)
        assert sorted(calls) == ["map_action"] * n + ["map_ingredient"] * n
        calls.clear()
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, with_distant=True)
        model.training_forward(record, labels, np.random.default_rng(0))
        n = len(record.steps)
        assert sorted(calls) == ["map_action"] * n + ["map_ingredient"] * n


class TestDistantLabels:
    def _gt(self, sentences, ingredients):
        steps = [
            RecipeStep(TimedEvent(10.0 * i, 10.0 * i + 5), tokenize(s))
            for i, s in enumerate(sentences)
        ]
        return GroundTruthRecipe("v", 100.0, steps, ingredients)

    def test_action_and_ingredient_extraction(self):
        gt = self._gt(["crack and stir the eggs"], ["eggs", "flour"])
        oracle = OracleAssignment(indices=[3], tious=[1.0])
        ing, act = distant_labels(gt, oracle, ["crack", "stir", "cut"])
        np.testing.assert_array_equal(ing, [[1, 0]])
        np.testing.assert_array_equal(act, [[1, 1, 0]])

    def test_no_lexicon_hits_zero_row(self):
        gt = self._gt(["warm the milk"], ["milk"])
        oracle = OracleAssignment(indices=[0], tious=[1.0])
        _, act = distant_labels(gt, oracle, ["crack", "stir"])
        np.testing.assert_array_equal(act, [[0, 0]])

    def test_multiword_contiguous_match(self):
        gt = self._gt(
            ["add the parmesan cheese", "cheese with parmesan later"],
            ["parmesan cheese"],
        )
        oracle = OracleAssignment(indices=[0, 1], tious=[1.0, 1.0])
        ing, _ = distant_labels(gt, oracle, ["add"])
        np.testing.assert_array_equal(ing, [[1], [0]])

    def test_randomized_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        for record in RECORDS:
            labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, with_distant=True)
            for t, step in enumerate(record.steps):
                sent = " ".join(step.sentence)
                for m, ing in enumerate(record.ingredients):
                    present = f" {ing} " in f" {sent} "
                    assert bool(labels.ing_labels[t, m]) == present, (sent, ing)
                for r, action in enumerate(DEFAULT_ACTIONS):
                    assert bool(labels.act_labels[t, r]) == (action in step.sentence)

    def test_empty_lexicon_errors(self):
        gt = self._gt(["stir"], [])
        with pytest.raises(ValueError):
            distant_labels(gt, OracleAssignment(indices=[0], tious=[1.0]), [])


class TestSelectorLoss:
    def test_perfect_logits_zero(self):
        logits = np.full((2, 4), -1000.0)
        logits[:, 1] = 1000.0
        out = selector_nll(Tensor(logits), np.array([1, 1]), oracle_event=1)
        assert out.item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_closed_form(self):
        n_events, n_items = 6, 3
        logits = Tensor(np.zeros((n_items, n_events)))
        out = selector_nll(logits, np.ones(n_items, dtype=int), oracle_event=2)
        assert out.item() == pytest.approx(n_items * math.log(n_events))

    def test_skip_mode_ignores_unlabeled(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((3, 5)))
        none_labeled = selector_nll(logits, np.zeros(3, dtype=int), 0, "skip")
        assert none_labeled is None

    def test_null_event_mode_pushes_unlabeled_to_null(self):
        logits = np.full((2, 3), -1000.0)
        logits[0, 1] = 1000.0  # item 0 labeled at event 1
        out = selector_nll(Tensor(logits), np.array([1, 0]), 1, "null-event")
        # item 1: all real events at -1000, null column at 0 -> prob ~ 1
        assert out.item() == pytest.approx(0.0, abs=1e-9)

    def test_random_matches_hand_sum(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 7))
        labels = np.array([1, 0, 1, 1])
        out = selector_nll(Tensor(logits), labels, 3, "skip")
        want = 0.0
        for i in np.flatnonzero(labels):
            row = logits[i] - logits[i].max()
            want -= row[3] - math.log(np.exp(row).sum())
        assert out.item() == pytest.approx(want)

    def test_unknown_mode_errors(self):
        with pytest.raises(ValueError):
            selector_nll(Tensor(np.zeros((1, 2))), np.ones(1, dtype=int), 0, "whatever")


def per_token_textual_nll(alpha_g, alpha_a, tokens, ingredients, actions):
    """Reference: one -log term per matching (position, item) pair."""
    head_words = {tokenize(ing)[-1]: m for m, ing in enumerate(ingredients) if tokenize(ing)}
    action_ids = {a: r for r, a in enumerate(actions)}
    total = None
    for k, token in enumerate(tokens):
        for alpha, item_ids in ((alpha_g, head_words), (alpha_a, action_ids)):
            if token in item_ids:
                term = -(alpha[k, item_ids[token]] + 1e-12).log()
                total = term if total is None else total + term
    return total


class TestTextualAttentionLoss:
    def test_full_attention_zero_loss(self):
        alpha_g = Tensor(np.array([[1.0, 0.0]]))
        alpha_a = Tensor(np.ones((1, 1)))
        out = textual_attention_nll(alpha_g, alpha_a, ["eggs"], ["eggs", "flour"], ["crack"])
        assert out.item() == pytest.approx(0.0, abs=1e-9)

    def test_no_matches_contribute_nothing(self):
        alpha = Tensor(np.full((2, 2), 0.5))
        out = textual_attention_nll(alpha, alpha, ["warm", "slowly"], ["eggs"], ["crack"])
        assert out is None

    def test_quarter_attention_is_log_four(self):
        alpha_g = Tensor(np.array([[0.25, 0.75]]))
        alpha_a = Tensor(np.ones((1, 1)))
        out = textual_attention_nll(alpha_g, alpha_a, ["eggs"], ["eggs", "flour"], ["crack"])
        assert out.item() == pytest.approx(math.log(4.0))

    def test_multiword_binds_head_word(self):
        alpha_g = Tensor(np.array([[0.5, 0.5]]))
        alpha_a = Tensor(np.ones((1, 1)))
        out = textual_attention_nll(
            alpha_g, alpha_a, ["cheese"], ["parmesan cheese", "eggs"], ["crack"]
        )
        assert out.item() == pytest.approx(math.log(2.0))

    def test_gathered_textual_nll_matches_per_token_sum(self, monkeypatch):
        model = tiny_extended("BIVT", seed=31)
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, with_distant=True)
        runs = {}
        for name, nll in (("gathered", textual_attention_nll),
                          ("per-token", per_token_textual_nll)):
            monkeypatch.setattr(model_module, "textual_attention_nll", nll)
            for p in model.parameters().values():
                p.grad = None
            result = model.training_forward(record, labels, np.random.default_rng(0))
            result.loss.backward()
            grads = {k: p.grad for k, p in model.parameters().items()}
            runs[name] = result.loss_tattn.item(), grads
        (value, grads), (want, want_grads) = runs["gathered"], runs["per-token"]
        assert value > 0 and value == pytest.approx(want, rel=1e-12)
        for k, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[k], rtol=0, atol=1e-12, err_msg=k)


class TestAblationContainment:
    def test_biv_with_zero_simulator_values_equals_bi(self):
        biv = tiny_extended("BIV", seed=17)
        bi = tiny_extended("BI", seed=17)
        for lin in (biv.simulator.v_event, biv.simulator.v_action, biv.simulator.v_ingredient):
            zero_linear(lin)
        for record in RECORDS[:3]:
            assert biv.run_inference(record) == bi.run_inference(record)

    def test_bivt_with_zero_context_heads_equals_biv(self):
        bivt = tiny_extended("BIVT", seed=17)
        biv = tiny_extended("BIV", seed=17)
        zero_linear(bivt.vocab_head_ing)
        zero_linear(bivt.vocab_head_act)
        for record in RECORDS[:3]:
            assert bivt.run_inference(record) == biv.run_inference(record)

    def test_shared_seed_shares_initial_parameters(self):
        # each smaller variant holds a proper subset of BIVT's parameters
        pb = tiny_extended("BIVT", seed=23).parameters()
        separate = ModelConfig(hidden=16, layers=2, heads=2, feature_dim=WORLD.feature_dim,
                               variant="BIVT", memory_update="separate")
        smaller = [tiny_extended(v, seed=23) for v in ("B", "BI", "BIV")]
        for model in smaller + [RecipeModel(separate, VOCAB, DEFAULT_ACTIONS, seed=23)]:
            pa = model.parameters()
            assert pa.keys() < pb.keys()
            for k in pa:
                np.testing.assert_array_equal(pa[k].data, pb[k].data)

    def test_extended_gradients_reach_all_extension_parameters(self):
        model = tiny_extended("BIVT", seed=29)
        record = RECORDS[0]
        labels = build_labels(record, VOCAB, DEFAULT_ACTIONS, with_distant=True)
        result = model.training_forward(record, labels, np.random.default_rng(0))
        assert result.loss_vsim is not None and result.loss_tattn is not None
        result.loss.backward()
        params = model.parameters()
        for prefix in ("action_embed", "ing_mlp_sel", "ing_mlp_gen", "simulator"):
            hit = [n for n, p in params.items()
                   if n.startswith(prefix) and p.grad is not None and np.abs(p.grad).max() > 0]
            assert hit, prefix

    def test_empty_ingredients_rejected_for_extended(self):
        model = tiny_extended("BI")
        with pytest.raises(ValueError):
            model.encode_ingredients([], "selector")

    def test_multiword_ingredient_mean_embedding(self):
        model = tiny_extended("BI")
        ids = VOCAB.encode(tokenize("parmesan cheese"))
        single = [
            model.word_embed([i]).data[0] for i in ids
        ]
        pre_mlp = np.mean(single, axis=0, keepdims=True)
        want = model.ing_mlp_sel(Tensor(pre_mlp)).data
        got = model.encode_ingredients(["parmesan cheese"], "selector").data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_selector_and_generator_encoders_unshared(self):
        model = tiny_extended("BI")
        sel = model.encode_ingredients(["eggs"], "selector").data
        gen = model.encode_ingredients(["eggs"], "generator").data
        assert not np.allclose(sel, gen)
