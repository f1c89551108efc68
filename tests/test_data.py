import copy
import hashlib
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipegen import cli, training
from recipegen.data import (
    EventCandidateSet,
    DatasetRecord,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
    ValidationError,
    ValidationWarning,
    Vocabulary,
    build_vocabulary,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    tokenize,
    ParseError,
    _record_to_obj,
)
from recipegen.model import ModelConfig, RecipeModel, load_checkpoint, save_checkpoint
from recipegen.synth import WorldConfig, generate_world


def _write_dataset(path, records):
    save_dataset(records, path)
    return path


def _toy_record(video_id="vid_a", n_candidates=3):
    events = [TimedEvent(0.0, 2.0), TimedEvent(3.0, 5.0), TimedEvent(6.0, 8.0)][:n_candidates]
    feats = np.arange(n_candidates * 4, dtype=float).reshape(n_candidates, 4)
    return DatasetRecord(
        video_id=video_id,
        duration=10.0,
        candidates=EventCandidateSet(events, feats),
        steps=[
            RecipeStep(TimedEvent(0.0, 2.0), ["crack", "the", "eggs"]),
            RecipeStep(TimedEvent(3.0, 5.0), ["stir", "the", "cracked", "eggs"]),
        ],
        ingredients=["eggs"],
    )


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Crack, the EGGS!") == ["crack", "the", "eggs"]

    def test_empty(self):
        assert tokenize("  ") == []


class TestTimedEvent:
    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            TimedEvent(1.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            TimedEvent(-0.5, 1.0)


class TestDatasetIO:
    def test_two_record_file_loads_in_id_order(self, tmp_path):
        path = _write_dataset(
            tmp_path / "d.json", [_toy_record("vid_b"), _toy_record("vid_a")]
        )
        records = load_dataset(path)
        assert [r.video_id for r in records] == ["vid_a", "vid_b"]

    def test_duplicate_video_ids_are_named(self, tmp_path):
        records = [_toy_record("vid_b"), _toy_record("vid_a"), _toy_record("vid_b"), _toy_record("vid_c")]
        path = _write_dataset(tmp_path / "d.json", records + [_toy_record("vid_c")])
        with pytest.raises(ValidationError, match="duplicate video_id values: vid_b, vid_c$"):
            load_dataset(path)

    def test_start_after_end_names_video(self, tmp_path):
        path = tmp_path / "bad.json"
        raw = [
            {
                "video_id": "broken_vid",
                "duration": 10.0,
                "candidates": [{"start": 5.0, "end": 2.0, "feature": [0.0]}],
                "steps": [{"start": 0.0, "end": 1.0, "sentence": "stir the pot"}],
                "ingredients": [],
            }
        ]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="broken_vid"):
            load_dataset(path)

    def test_step_past_the_end_names_video_and_step(self, tmp_path):
        path = _write_dataset(tmp_path / "d.json", [_toy_record("vid_a")])
        raw = json.loads(path.read_text())
        raw[0]["steps"][1].update(start=9.5, end=10.5)
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match=r"vid_a: step 1 \[9.5, 10.5\] exceeds duration 10.0"):
            load_dataset(path)
        # the tolerance of a candidate's end holds for a step's too
        raw[0]["steps"][1]["end"] = 10.0 + 1e-10
        path.write_text(json.dumps(raw))
        assert load_dataset(path)[0].steps[1].interval.end == 10.0 + 1e-10

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('[\n{"video_id": "x",]\n')
        with pytest.raises(ParseError, match="line"):
            load_dataset(path)

    def test_roundtrip_randomized_records(self, tmp_path):
        records = generate_world(WorldConfig(num_videos=6, seed=11))
        path = _write_dataset(tmp_path / "world.json", records)
        loaded = load_dataset(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.video_id == b.video_id
            assert a.duration == b.duration
            assert [s.sentence for s in a.steps] == [s.sentence for s in b.steps]
            assert [(e.start, e.end) for e in a.candidates.events] == [
                (e.start, e.end) for e in b.candidates.events
            ]
            np.testing.assert_array_equal(a.candidates.features, b.candidates.features)
            assert a.candidates.sentences == b.candidates.sentences
            assert a.ingredients == b.ingredients

    def test_one_record_per_line_and_the_indented_layout_loads(self, tmp_path):
        records = generate_world(WorldConfig(num_videos=6, seed=11))
        lines = _write_dataset(tmp_path / "world.json", records).read_text().split("\n")
        assert lines[0] == "[" and lines[-2:] == ["]", ""]
        objs = [json.loads(line.rstrip(",")) for line in lines[1:-2]]
        assert objs == [_record_to_obj(r) for r in sorted(records, key=lambda r: r.video_id)]
        indented = tmp_path / "indented.json"  # the layout of earlier dataset files
        indented.write_text(json.dumps(objs, indent=1, sort_keys=True) + "\n")
        for path in (tmp_path / "world.json", indented):
            assert training.dataset_digest(load_dataset(path)) == training.dataset_digest(records)
        _write_dataset(tmp_path / "empty.json", [])
        with pytest.raises(ValidationError, match=r"empty\.json: no records"):
            load_dataset(tmp_path / "empty.json")

    def test_unsorted_candidates_rejected(self):
        events = [TimedEvent(3.0, 5.0), TimedEvent(0.0, 2.0)]
        with pytest.raises(ValidationError, match="sorted"):
            EventCandidateSet(events, np.zeros((2, 4)))

    def test_overlapping_steps_warn_but_load(self):
        with pytest.warns(ValidationWarning) as caught:
            record = DatasetRecord(
                video_id="v",
                duration=10.0,
                candidates=EventCandidateSet([TimedEvent(0, 5)], np.zeros((1, 2))),
                steps=[
                    RecipeStep(TimedEvent(0.0, 4.0), ["stir"]),
                    RecipeStep(TimedEvent(2.0, 6.0), ["pour"]),
                ],
                ingredients=[],
            )
        assert [w.category for w in caught] == [ValidationWarning]
        # a record is its own ground truth, so reading it checks nothing again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert record.ground_truth is record
            assert record.ground_truth is record

    def test_steps_out_of_order_fail_without_an_overlap_warning(self, tmp_path):
        # overlaps are counted only between steps in start order
        path = _write_dataset(tmp_path / "d.json", [_toy_record("vid_a")])
        raw = json.loads(path.read_text())
        raw[0]["steps"].reverse()
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="vid_a: steps not ordered by start time"):
                load_dataset(path)

    def test_candidates_are_keyword_only(self):
        record = _toy_record()
        with pytest.raises(TypeError):
            DatasetRecord("v", 10.0, record.candidates, record.steps, record.ingredients)

    def test_prediction_roundtrip(self, tmp_path):
        pred = PredictionRecipe(
            "vid_a",
            [2, 0],
            [["crack", "the", "eggs"], ["stir"]],
            [TimedEvent(0.0, 2.0), TimedEvent(3.0, 4.0)],
        )
        path = tmp_path / "pred.json"
        save_predictions([pred], path)
        loaded = load_predictions(path)
        assert loaded == [pred]
        save_predictions([pred, pred], path)
        with pytest.raises(ValidationError, match="duplicate video_id values: vid_a$"):
            load_predictions(path)

    def test_prediction_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PredictionRecipe("v", [0], [], [TimedEvent(0, 1)])


def _paths(value, prefix=()):
    """The path of every value nested in a JSON object, the object's own
    fields first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


RECORD_OBJ = json.loads(json.dumps(_record_to_obj(_toy_record())))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)


def _write_replaced(tmp_path_factory, obj, path, value):
    """A file holding the array ``[obj]`` with the value at ``path`` replaced."""
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out = tmp_path_factory.getbasetemp() / "fuzz.json"
    out.write_text(json.dumps([obj]))
    return out


# the form ``save_predictions`` writes
PREDICTION_OBJ = {
    "video_id": "vid_a",
    "results": [
        {"index": 2, "start": 0.0, "end": 2.0, "sentence": "crack the eggs"},
        {"index": 0, "start": 3.0, "end": 4.0, "sentence": "stir"},
    ],
}


class TestDatasetFuzz:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_paths(RECORD_OBJ))), value=JSON_VALUES)
    def test_any_field_value_loads_or_fails_validation(self, tmp_path_factory, path, value):
        dataset = _write_replaced(tmp_path_factory, RECORD_OBJ, path, value)
        try:
            records = load_dataset(dataset)
        except (ValidationError, ParseError) as exc:
            assert str(exc)
        else:
            (loaded,) = records
            assert np.isfinite(loaded.duration) and np.isfinite(loaded.candidates.features).all()

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_paths(PREDICTION_OBJ))), value=JSON_VALUES)
    def test_any_prediction_field_loads_or_fails_validation(self, tmp_path_factory, path, value):
        predictions = _write_replaced(tmp_path_factory, PREDICTION_OBJ, path, value)
        try:
            preds = load_predictions(predictions)
        except (ValidationError, ParseError) as exc:
            assert str(exc)
        else:
            (loaded,) = preds
            assert isinstance(loaded.video_id, str)
            assert all(type(i) is int for i in loaded.selections)
            for iv in loaded.intervals:
                assert np.isfinite(iv.start) and np.isfinite(iv.end)

    def test_non_string_ingredient_is_named(self, tmp_path, capsys):
        # a fixed case of what the fuzz above reaches only by a draw
        dataset = tmp_path / "d.json"
        dataset.write_text(json.dumps([{**RECORD_OBJ, "ingredients": [1]}]))
        with pytest.raises(ValidationError, match="vid_a: field 'ingredients'"):
            load_dataset(dataset)
        code = cli.main(["train", "--dataset", str(dataset), "--checkpoint", str(tmp_path / "m.npz"), "--quiet"])
        assert code == cli.EXIT_VALIDATION
        assert "vid_a: field 'ingredients'" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999", "1" + "0" * 400])
    def test_numbers_beyond_float_range_rejected(self, tmp_path, literal):
        text = json.dumps([RECORD_OBJ]).replace('"duration": 10.0', f'"duration": {literal}')
        dataset = tmp_path / "d.json"
        dataset.write_text(text)
        with pytest.raises(ValidationError, match="vid_a.*duration"):
            load_dataset(dataset)


def _saved_checkpoint():
    model = RecipeModel(
        ModelConfig(hidden=4, layers=1, heads=1, feature_dim=3, variant="BIVT"),
        Vocabulary(["crack", "eggs"]),
        ["crack", "serve"],
    )
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.npz")
        save_checkpoint(path, model)
        with np.load(path) as blob:
            return {key: blob[key] for key in blob.files}


CHECKPOINT_ARRAYS = _saved_checkpoint()
CHECKPOINT_META = json.loads(bytes(CHECKPOINT_ARRAYS["meta"]).decode())
# a rehashed checkpoint whose fuzzed dims are huge would allocate a huge model
MODEL_SIZE_FIELDS = {"hidden", "layers", "heads", "feature_dim"}


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from([()] + list(_paths(CHECKPOINT_META))),
        value=JSON_VALUES,
        rehash=st.booleans(),
    )
    def test_any_meta_value_loads_or_fails_validation(self, tmp_path_factory, path, value, rehash):
        """With ``rehash`` the stored config_hash is recomputed after the edit,
        so the loader's own field checks, not the hash, must catch it."""
        meta = copy.deepcopy(CHECKPOINT_META)
        if path:
            target = meta
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            meta = value
        sized = path[:1] == ("config",) and set(path[1:2]) <= MODEL_SIZE_FIELDS
        if rehash and isinstance(meta, dict) and not sized:
            payload = {key: meta.get(key) for key in ("config", "vocab", "actions")}
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            meta["config_hash"] = digest[:16]
        arrays = dict(CHECKPOINT_ARRAYS, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        checkpoint = tmp_path_factory.getbasetemp() / "fuzz.npz"
        np.savez(checkpoint, **arrays)
        try:
            model, _ = load_checkpoint(checkpoint)
        except ValueError as exc:
            assert str(exc)
        else:
            assert all(np.isfinite(p.data).all() for p in model.parameters().values())


class TestVocabulary:
    def test_min_count_filters(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab

    def test_min_count_one_keeps_all_plus_reserved(self):
        vocab = build_vocabulary([["a", "b"], ["c"]], min_count=1)
        assert len(vocab) == 3 + 4

    def test_deterministic_across_runs(self):
        corpus = [s.sentence for r in generate_world(WorldConfig(num_videos=5, seed=2)) for s in r.steps]
        v1 = build_vocabulary(corpus, min_count=3)
        v2 = build_vocabulary(corpus, min_count=3)
        assert v1.id_to_token == v2.id_to_token

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_count=1)

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_count=0)

    def test_encode_decode_identity_in_vocab(self):
        vocab = build_vocabulary([["stir", "the", "eggs"]], min_count=1)
        tokens = ["stir", "eggs"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_oov_decodes_to_unk_surface(self):
        vocab = build_vocabulary([["stir"]], min_count=1)
        assert vocab.decode(vocab.encode(["quinoa"])) == ["<unk>"]

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary([["b", "b", "a", "a", "c"]], min_count=1)
        assert vocab.content_tokens == ["a", "b", "c"]

    def test_reserved_ids_fixed(self):
        vocab = Vocabulary(["stir"])
        assert vocab.id_to_token[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
