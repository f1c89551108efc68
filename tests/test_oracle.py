import hashlib
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipegen import dvceval, synth
from recipegen.data import (
    DatasetRecord,
    EventCandidateSet,
    GroundTruthRecipe,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
)
from recipegen.dvceval import VIDEO_SCORES, reference_df, score_video, sentence_metrics, tiou
from recipegen.oracle import (
    HISTOGRAM_BIN_WIDTH,
    oracle_prediction,
    oracle_report,
    oracle_select,
    oracle_sweep,
    tiou_histogram,
)
from recipegen.synth import StepProgram, WorldConfig, generate_world, propose_candidates
from recipegen.textmetrics import meteor_lite
from recipegen.training import dataset_digest


def random_instance(rng, n_candidates=8, n_steps=4, duration=100.0):
    def rand_intervals(k):
        out = []
        for _ in range(k):
            s = rng.uniform(0, duration - 5)
            out.append(TimedEvent(s, s + rng.uniform(1, 20)))
        return out

    cands = sorted(rand_intervals(n_candidates), key=lambda e: (e.start, e.end))
    starts = np.sort(rng.uniform(0, duration - 10, size=n_steps))
    steps = [RecipeStep(TimedEvent(s, s + rng.uniform(1, 9)), ["stir"]) for s in starts]
    gt = GroundTruthRecipe("v", duration, steps, [])
    return EventCandidateSet(cands, np.zeros((n_candidates, 2))), gt


# intervals on a coarse grid, so that touching, disjoint, nested and identical
# pairs, and ties in tIoU and in start, are common
INTERVALS = st.lists(
    st.builds(
        lambda start, length, unit: TimedEvent(start * unit, (start + length) * unit),
        st.integers(0, 12), st.integers(1, 6), st.sampled_from([0.25, 0.1, 1 / 3]),
    ),
    max_size=8,
).map(lambda events: sorted(events, key=lambda e: (e.start, e.end)))


def loop_select(candidates, gt):
    """The per-step scan over scalar ``tiou`` that ``oracle_select`` replaced."""
    indices, tious = [], []
    for step in gt.steps:
        best_idx, best_key = 0, None
        for idx, ev in enumerate(candidates.events):
            key = (-tiou(ev, step.interval), ev.start, idx)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        indices.append(best_idx)
        tious.append(-best_key[0])
    return indices, tious


class TestOracleSelect:
    @settings(max_examples=400, deadline=None)
    @given(events=INTERVALS.filter(bool), intervals=INTERVALS.filter(bool))
    def test_matrix_and_selection_equal_the_scalar_loop(self, events, intervals):
        for pred, gt in ((events, intervals), (events, []), ([], intervals)):
            table = dvceval.tiou_matrix(pred, gt)
            assert [len(row) for row in table] == [len(gt)] * len(pred)
            for i, a in enumerate(pred):
                for j, b in enumerate(gt):
                    assert type(table[i][j]) is float and table[i][j] == tiou(a, b)
        candidates = EventCandidateSet(events, np.zeros((len(events), 2)))
        gt = GroundTruthRecipe("v", 10.0, [RecipeStep(interval, ["stir"]) for interval in intervals], [])
        assignment = oracle_select(candidates, gt)
        assert (assignment.indices, assignment.tious) == loop_select(candidates, gt)
        assert all(type(i) is int for i in assignment.indices)

    def test_exact_candidates_give_tiou_one(self):
        steps = [RecipeStep(TimedEvent(0, 5), ["a"]), RecipeStep(TimedEvent(10, 15), ["b"])]
        gt = GroundTruthRecipe("v", 20.0, steps, [])
        cands = EventCandidateSet(
            [TimedEvent(0, 5), TimedEvent(10, 15)], np.zeros((2, 2))
        )
        assignment = oracle_select(cands, gt)
        assert assignment.indices == [0, 1]
        assert assignment.tious == [1.0, 1.0]

    def test_single_candidate_maps_everywhere(self):
        steps = [RecipeStep(TimedEvent(0, 5), ["a"]), RecipeStep(TimedEvent(10, 15), ["b"])]
        gt = GroundTruthRecipe("v", 20.0, steps, [])
        cands = EventCandidateSet([TimedEvent(2, 12)], np.zeros((1, 2)))
        assignment = oracle_select(cands, gt)
        assert assignment.indices == [0, 0]
        assert assignment.duplicate_assignments == 1

    def test_empty_candidates_error(self):
        gt = GroundTruthRecipe("v", 10.0, [RecipeStep(TimedEvent(0, 1), ["a"])], [])
        with pytest.raises(ValueError):
            oracle_select(EventCandidateSet([], np.zeros((0, 2))), gt)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cands, gt = random_instance(rng)
            assignment = oracle_select(cands, gt)
            for t, step in enumerate(gt.steps):
                best = max(tiou(ev, step.interval) for ev in cands.events)
                assert assignment.tious[t] == best

    def test_tie_break_earliest_start_then_index(self):
        # both candidates touch the step with identical tIoU = 0
        steps = [RecipeStep(TimedEvent(40, 41), ["a"])]
        gt = GroundTruthRecipe("v", 50.0, steps, [])
        cands = EventCandidateSet(
            [TimedEvent(0, 1), TimedEvent(10, 11)], np.zeros((2, 2))
        )
        assert oracle_select(cands, gt).indices == [0]

    def test_superset_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cands, gt = random_instance(rng, n_candidates=10)
            small = EventCandidateSet(cands.events[:5], cands.features[:5])
            mean_small = oracle_select(small, gt).mean_tiou
            mean_big = oracle_select(cands, gt).mean_tiou
            assert mean_big >= mean_small - 1e-12


class TestOracleReport:
    def _identity_record(self):
        steps = [
            RecipeStep(TimedEvent(0, 5), ["stir", "the", "eggs"]),
            RecipeStep(TimedEvent(10, 15), ["heat", "the", "pan"]),
        ]
        cands = EventCandidateSet(
            [TimedEvent(0, 5), TimedEvent(10, 15)],
            np.zeros((2, 2)),
            sentences=["totally wrong words", "also wrong here"],
        )
        return DatasetRecord("v", 20.0, steps, ["eggs"], candidates=cands)

    def test_candidates_equal_gt_give_perfect_scores(self):
        record = self._identity_record()
        report = oracle_report([record], mode="gt-sentences")
        assert report["metrics"]["soda.tiou"] == 1.0
        assert report["metrics"]["mean_tiou"] == 1.0

    def test_attached_mode_uses_candidate_sentences(self):
        record = self._identity_record()
        pred, _ = oracle_prediction(record, mode="attached")
        assert pred.sentences[0] == ["totally", "wrong", "words"]
        report = oracle_report([record], mode="attached")
        # events still perfect, sentences wrong: selection metric 1, word metrics 0
        assert report["metrics"]["soda.tiou"] == 1.0
        assert report["metrics"]["soda.meteor"] == 0.0
        assert report["metadata"]["sentence_mode"] == "attached"

    def test_attached_mode_requires_sentences(self):
        record = self._identity_record()
        record.candidates.sentences = None
        with pytest.raises(ValueError, match="attached"):
            oracle_prediction(record, mode="attached")

    def test_oracle_beats_other_selections_of_same_size(self, one_metric_scores):
        rng = np.random.default_rng(2)
        records = generate_world(WorldConfig(num_videos=6, seed=9))
        for record in records:
            gt = record.ground_truth
            pred, _ = oracle_prediction(record, mode="gt-sentences")
            best = one_metric_scores(pred, gt, meteor_lite)["soda.tiou"]
            n = len(record.candidates)
            for _ in range(10):
                idx = sorted(rng.choice(n, size=len(gt.steps), replace=False))
                other = PredictionRecipe(
                    record.video_id,
                    [int(i) for i in idx],
                    [list(s.sentence) for s in gt.steps],
                    [record.candidates.events[i] for i in idx],
                )
                assert one_metric_scores(other, gt, meteor_lite)["soda.tiou"] <= best + 1e-9

    def test_histogram_bins(self):
        hist = tiou_histogram([0.05, 0.15, 0.95, 1.0, 0.11])
        assert len(hist) == 10
        assert hist[0] == (0.0, 0.1, 1)
        assert hist[1] == (0.1, 0.2, 2)
        assert hist[9] == (0.9, 1.0, 2)
        assert sum(c for _, _, c in hist) == 5

    def test_histogram_counts_a_lower_edge_in_its_own_bin(self):
        # 3/10, 6/10 and 7/10 are exact tIoUs that fall one bin low under int(v / 0.1)
        values = [tiou(TimedEvent(0, end), TimedEvent(0, 10)) for end in (3, 6, 7)]
        assert values == [0.3, 0.6, 0.7]
        hist = tiou_histogram(values + [1.0])
        for (low, high, count), value in zip([hist[3], hist[6], hist[7], hist[9]], values + [1.0]):
            assert count == 1 and low <= value and (value < high or value == high == 1.0)
        assert sum(c for _, _, c in hist) == 4

    def test_metadata_quotes_the_histogram_bin_width(self):
        records = generate_world(WorldConfig(num_videos=4, seed=9))
        report = oracle_report(records)
        width = report["metadata"]["histogram_bin_width"]
        assert width == HISTOGRAM_BIN_WIDTH == 0.1
        assert [low for low, _, _ in report["histogram"]] == [round(i * width, 10) for i in range(10)]
        for low, high, _ in report["histogram"]:
            assert high - low == pytest.approx(width)
        assert sum(count for _, _, count in report["histogram"]) == sum(len(r.steps) for r in records)

    def test_duplicate_assignments_surfaced(self):
        steps = [RecipeStep(TimedEvent(0, 5), ["a"]), RecipeStep(TimedEvent(6, 11), ["b"])]
        cands = EventCandidateSet([TimedEvent(0, 11)], np.zeros((1, 2)))
        record = DatasetRecord("v", 20.0, steps, [], candidates=cands)
        report = oracle_report([record])
        assert report["metrics"]["duplicate_assignments"] == 1

    def test_no_records_is_named(self):
        for score in (oracle_report, lambda records: oracle_sweep(records, [4])):
            with pytest.raises(ValueError, match="need at least one video"):
                score([])


def reference_subset(record, n, seed):
    """``record`` with the candidates that a sweep at budget ``n`` keeps, drawn
    here by the documented rule: the first ``n`` indices of a permutation of the
    video's candidates from ``default_rng``, seeded by the digest of
    ``f"{seed}:{video_id}"``, kept in index order."""
    digest = hashlib.blake2b(f"{seed}:{record.video_id}".encode(), digest_size=8).digest()
    permutation = np.random.default_rng(int.from_bytes(digest, "big")).permutation(len(record.candidates))
    kept = sorted(permutation[:n].tolist())
    candidates = record.candidates
    return replace(record, candidates=EventCandidateSet(
        [candidates.events[i] for i in kept],
        candidates.features[kept],
        sentences=[candidates.sentences[i] for i in kept],
    ))


class TestSweep:
    def test_sweep_rows_non_decreasing(self):
        records = generate_world(WorldConfig(num_videos=8, seed=4, n_candidates=20))
        sweep = oracle_sweep(records, [5, 10, 20])
        means = [row["mean_tiou"] for row in sweep["rows"]]
        assert means == sorted(means)

    @pytest.mark.parametrize("budget", [-2, 0])
    def test_budget_below_one_rejected_before_scoring(self, monkeypatch, budget):
        records = generate_world(WorldConfig(num_videos=3, seed=0))
        scored = []
        monkeypatch.setattr("recipegen.oracle.score_video", lambda *args: scored.append(args))
        with pytest.raises(ValueError, match=f"candidate budget .*got {budget}"):
            oracle_sweep(records, [4, budget])
        assert scored == []


class TestSharedScorers:
    @pytest.mark.parametrize("mode", ["attached", "gt-sentences"])
    def test_report_rows_equal_unmemoized_public_scorers(
        self, repeated_world, unmemoized_scores, mode
    ):
        record = repeated_world[1]
        _, assignment = oracle_prediction(record, mode="attached")
        record.candidates.sentences[assignment.indices[0]] = ""
        preds = [oracle_prediction(r, mode=mode)[0] for r in repeated_world]
        if mode == "attached":
            assert preds[1].sentences[0] == []
        report = oracle_report(repeated_world, mode=mode)
        rows = [{key: row[key] for key in VIDEO_SCORES} for row in report["per_video"]]
        assert rows == unmemoized_scores(preds, [r.ground_truth for r in repeated_world])

    def test_sweep_rows_equal_reports_made_on_their_own(self, repeated_world):
        sweep = oracle_sweep(repeated_world, [3, 6, 8], seed=1)
        assert [row["n_candidates"] for row in sweep["rows"]] == [3, 6, 8]
        for row in sweep["rows"]:
            n = row["n_candidates"]
            subset = [reference_subset(r, n, seed=1) for r in repeated_world]
            assert row == {"n_candidates": n, **oracle_report(subset)["metrics"]}

    def test_sweep_scores_each_pair_once(self, monkeypatch, repeated_world):
        real, calls = dvceval.cider_d, Counter()

        def counting(candidate, reference, df):
            calls[(tuple(candidate), tuple(reference))] += 1
            return real(candidate, reference, df)

        monkeypatch.setattr(dvceval, "cider_d", counting)
        oracle_sweep(repeated_world, [3, 6, 8], seed=1)
        assert calls and max(calls.values()) == 1


class TestSharedTable:
    """The report, the sweep and the scorers read one tIoU table per video.
    Up to 12 steps, so that ``mean_tiou`` also averages 8 or more values."""

    WORLD = WorldConfig(num_videos=10, seed=3, steps_range=(1, 12), n_candidates=14)

    @pytest.fixture(scope="class")
    def world(self):
        records = generate_world(self.WORLD)
        assert max(len(r.steps) for r in records) >= 8
        return records

    @pytest.mark.parametrize("mode", ["attached", "gt-sentences"])
    def test_report_rows_equal_their_parts(self, world, mode):
        report = oracle_report(world, mode=mode)
        metrics = sentence_metrics(reference_df([r.ground_truth for r in world]))
        assert len(report["per_video"]) == len(world)
        for record, row in zip(world, report["per_video"]):
            pred, assignment = oracle_prediction(record, mode)
            expected = {
                "video_id": record.video_id,
                "mean_tiou": assignment.mean_tiou,
                "duplicate_assignments": assignment.duplicate_assignments,
                **score_video(pred, record.ground_truth, metrics),
            }
            assert list(row.items()) == list(expected.items())

    def test_sweep_rows_equal_reports_of_subsets(self, world):
        sweep = oracle_sweep(world, [20, 2, 14, 5, 9], seed=2)
        assert [row["n_candidates"] for row in sweep["rows"]] == [2, 5, 9, 14, 20]
        for row in sweep["rows"]:
            subset = [reference_subset(r, row["n_candidates"], seed=2) for r in world]
            expected = oracle_report(subset)["metrics"]
            assert list(row.items())[1:] == list(expected.items())
        assert oracle_sweep(world, [])["rows"] == []


class TestWorldKnobs:
    @pytest.mark.parametrize(
        "fraction, min_tiou", [(0.0, 0.3), (0.0, 0.8), (1.0, 0.3)]
    )
    def test_copies_keep_jitter_min_tiou(self, fraction, min_tiou):
        world = WorldConfig(
            num_videos=20, seed=2, distractor_fraction=fraction, jitter_min_tiou=min_tiou
        )
        best = [
            max(tiou(event, step.interval) for step in record.steps)
            for record in generate_world(world)
            for event in record.candidates.events
        ]
        # without distractors every candidate is a jittered copy of a step
        assert (min(best) >= min_tiou) == (fraction == 0.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_distractor_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="distractor_fraction"):
            WorldConfig(distractor_fraction=fraction)

    @pytest.mark.parametrize("action", ["grill", 7])
    def test_action_without_participle_rejected(self, action):
        with pytest.raises(ValueError, match=f"{action!r}.*no participle"):
            WorldConfig(actions=[action, "serve"])

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"num_videos": 2.0}, "world.num_videos"),
            ({"ingredient_pool": "eggs"}, "world.ingredient_pool"),
            ({"ingredient_pool": ["eggs", "eggs", "salt", "milk"]}, "world.ingredient_pool"),
            ({"ingredient_pool": ["Eggs", "salt", "milk", "rice"]}, "world.ingredient_pool"),
            ({"actions": "chop"}, "world.actions"),
            ({"actions": ["serve"]}, "world.actions"),
            ({"ingredients_range": (2, 21)}, "world.ingredients_range"),
            ({"ingredients_range": (3, 2)}, "world.ingredients_range"),
            ({"steps_range": (3,)}, "world.steps_range"),
            ({"steps_range": (3, 13)}, "world.steps_range"),
            ({"duration_range": (0.0, 10.0)}, "world.duration_range"),
            ({"duration_range": (10.0, float("inf"))}, "world.duration_range"),
            ({"feature_dim": True}, "world.feature_dim"),
            ({"n_candidates": 5}, "world.n_candidates"),
            ({"jitter_sigma_frac": -0.1}, "world.jitter_sigma_frac"),
            ({"jitter_min_tiou": 1.5}, "world.jitter_min_tiou"),
            ({"distractor_fraction": "all"}, "world.distractor_fraction"),
            ({"noise_scale": float("nan")}, "world.noise_scale"),
            ({"attach_candidate_sentences": 1}, "world.attach_candidate_sentences"),
            ({"seed": -1}, "world.seed"),
            # an int beyond the float range is no finite number
            ({"duration_range": (120.0, 10**400)}, "world.duration_range"),
        ],
    )
    def test_bad_field_rejected_by_name(self, overrides, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            WorldConfig(**overrides)

    @pytest.mark.parametrize(
        "seed, digest",
        [(0, "045b68c74002915a"), (1, "0babf98adf18348f"), (2, "749177efc812a306")],
    )
    def test_default_worlds_keep_their_digest(self, seed, digest):
        assert dataset_digest(generate_world(WorldConfig(seed=seed))) == digest

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({"seed": 4, "distractor_fraction": 0.3, "attach_candidate_sentences": False},
             "d9e4c8217c593a74"),
            ({"seed": 5, "n_candidates": 20, "steps_range": (1, 12)}, "46e0f588e1f24ad5"),
            ({"seed": 6, "noise_scale": 0.25, "jitter_sigma_frac": 0.3}, "740387c575348ef8"),
        ],
    )
    def test_other_worlds_keep_their_digest(self, overrides, digest):
        # recorded before synthesis dropped its per-draw numpy scalar overhead
        world = WorldConfig(num_videos=20, **overrides)
        assert dataset_digest(generate_world(world)) == digest

    def test_jitter_clamps_to_the_video(self):
        class Pushes:  # moves the start below 0 and the end past the duration
            def __init__(self):
                self.draws = iter([-50.0, 50.0])

            def normal(self, loc, scale):
                return next(self.draws)

        jittered = synth._jitter_interval(TimedEvent(2.0, 18.0), 20.0, WorldConfig(), Pushes())
        assert jittered == TimedEvent(0.0, 20.0)
        assert [type(jittered.start), type(jittered.end)] == [float, float]
        assert str(jittered.start) == "0.0"  # not -0.0

    def test_worlds_nest_across_n_candidates(self):
        # the budget axis of ablate compares these worlds: the same videos,
        # each keeping every candidate it had at a smaller budget
        world = WorldConfig(num_videos=30, seed=3)
        worlds = [generate_world(replace(world, n_candidates=n)) for n in (6, 8, 12)]

        def candidates(record):
            c = record.candidates
            return {(e.start, e.end, f.tobytes(), s) for e, f, s in zip(c.events, c.features, c.sentences)}

        for smaller, larger in zip(worlds, worlds[1:]):
            for a, b in zip(smaller, larger, strict=True):
                assert (a.video_id, a.duration, a.steps, a.ingredients) == (
                    b.video_id, b.duration, b.steps, b.ingredients
                )
                assert len(a.candidates) < len(b.candidates)
                assert candidates(a) <= candidates(b)

    def test_hash_vectors_stay_inside_their_call(self):
        # digests recorded before synthesis made each hash vector once per world
        digests = {0: "a4fb821319f11016", 1: "cd7835437e9d1575"}
        for seed in (0, 1, 0):
            world = generate_world(WorldConfig(num_videos=10, seed=seed))
            assert dataset_digest(world) == digests[seed]

    def test_one_config_gives_equal_records(self):
        first, second = (generate_world(WorldConfig(num_videos=10, seed=2)) for _ in range(2))
        for a, b in zip(first, second, strict=True):
            assert (a.video_id, a.duration, a.steps, a.ingredients) == (
                b.video_id, b.duration, b.steps, b.ingredients
            )
            assert a.candidates.events == b.candidates.events
            assert a.candidates.sentences == b.candidates.sentences
            assert np.array_equal(a.candidates.features, b.candidates.features)


class FillWithSpans:
    """A generator stand-in for ``propose_candidates``: jitter and noise draw
    zeros, so copies are exact, and every fill slot is a distractor of a
    random span (0.75 is below the distractor fraction 1 but not below the
    merge chance 0.5)."""

    def random(self):
        return 0.75

    def normal(self, loc, scale):
        return loc

    def standard_normal(self, size):
        return np.zeros(size)


class TestCandidateRule:
    STEPS = [
        (TimedEvent(10.0, 20.0), ["crack", "the", "eggs"]),
        (TimedEvent(30.0, 40.0), ["stir", "the", "cracked", "eggs"]),
        (TimedEvent(50.0, 60.0), ["fry", "the", "stirred", "eggs", "in", "the", "pan"]),
    ]

    def test_copies_and_distractors_follow_the_rule(self, monkeypatch):
        bases = [(k + 1.0) * np.eye(3)[k] for k in range(3)]
        gt_steps = [
            (ev, StepProgram(["eggs"], sentence, base))
            for (ev, sentence), base in zip(self.STEPS, bases)
        ]
        spans = [
            TimedEvent(35.0, 55.0),  # a tie: steps 1 and 2 each cover a quarter
            TimedEvent(70.0, 90.0),  # covers no step
            TimedEvent(18.0, 40.0),  # steps 0 and 1 cover 2/22 and 10/22
        ]
        monkeypatch.setattr(synth, "_random_span", lambda duration, rng: spans.pop(0))
        world = WorldConfig(feature_dim=3, n_candidates=6, noise_scale=0.0)
        got = propose_candidates(gt_steps, 100.0, world, FillWithSpans())

        a, b, c = (" ".join(sentence) for _, sentence in self.STEPS)
        want = [
            ((10.0, 20.0), bases[0], a),  # copies carry their own step
            ((18.0, 40.0), 2 / 22 * bases[0] + 10 / 22 * bases[1], b),  # largest share
            ((30.0, 40.0), bases[1], b),
            ((35.0, 55.0), 0.25 * bases[1] + 0.25 * bases[2], b),  # first of a tie
            ((50.0, 60.0), bases[2], c),
            ((70.0, 90.0), np.zeros(3), a),  # uncovered: the first step's sentence
        ]
        assert [(e.start, e.end) for e in got.events] == [interval for interval, _, _ in want]
        np.testing.assert_allclose(got.features, [feature for _, feature, _ in want], atol=1e-15)
        assert got.sentences == [sentence for _, _, sentence in want]
