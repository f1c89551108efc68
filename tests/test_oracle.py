from collections import Counter

import numpy as np
import pytest

from recipegen import dvceval
from recipegen.data import (
    DatasetRecord,
    EventCandidateSet,
    GroundTruthRecipe,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
)
from recipegen.dvceval import VIDEO_SCORES, soda, tiou
from recipegen.oracle import (
    oracle_prediction,
    oracle_report,
    oracle_select,
    oracle_sweep,
    subset_candidates,
    tiou_histogram,
)
from recipegen.synth import WorldConfig, generate_world
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


class TestOracleSelect:
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
        return DatasetRecord("v", 20.0, cands, steps, ["eggs"])

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

    def test_oracle_beats_other_selections_of_same_size(self):
        rng = np.random.default_rng(2)
        records = generate_world(WorldConfig(num_videos=6, seed=9))
        for record in records:
            gt = record.ground_truth
            pred, _ = oracle_prediction(record, mode="gt-sentences")
            best = soda(pred, gt, None)[2]
            n = len(record.candidates)
            for _ in range(10):
                idx = sorted(rng.choice(n, size=len(gt.steps), replace=False))
                other = PredictionRecipe(
                    record.video_id,
                    [int(i) for i in idx],
                    [list(s.sentence) for s in gt.steps],
                    [record.candidates.events[i] for i in idx],
                )
                assert soda(other, gt, None)[2] <= best + 1e-9

    def test_histogram_bins(self):
        hist = tiou_histogram([0.05, 0.15, 0.95, 1.0, 0.11])
        assert hist[0] == (0.0, 0.1, 1)
        assert hist[1] == (0.1, 0.2, 2)
        assert hist[9] == (0.9, 1.0, 2)
        assert sum(c for _, _, c in hist) == 5

    def test_duplicate_assignments_surfaced(self):
        steps = [RecipeStep(TimedEvent(0, 5), ["a"]), RecipeStep(TimedEvent(6, 11), ["b"])]
        cands = EventCandidateSet([TimedEvent(0, 11)], np.zeros((1, 2)))
        record = DatasetRecord("v", 20.0, cands, steps, [])
        report = oracle_report([record])
        assert report["metrics"]["duplicate_assignments"] == 1


class TestSweep:
    def test_subsets_are_nested_and_monotone(self):
        records = generate_world(WorldConfig(num_videos=8, seed=4, n_candidates=20))
        for n_small, n_big in [(5, 10), (10, 20)]:
            for r in records:
                small = subset_candidates(r, n_small, seed=0)
                big = subset_candidates(r, n_big, seed=0)
                small_set = {(e.start, e.end) for e in small.candidates.events}
                big_set = {(e.start, e.end) for e in big.candidates.events}
                assert small_set <= big_set

    def test_sweep_rows_non_decreasing(self):
        records = generate_world(WorldConfig(num_videos=8, seed=4, n_candidates=20))
        sweep = oracle_sweep(records, [5, 10, 20])
        means = [row["mean_tiou"] for row in sweep["rows"]]
        assert means == sorted(means)


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
            subset = [subset_candidates(r, n, seed=1) for r in repeated_world]
            assert row == {"n_candidates": n, **oracle_report(subset)["metrics"]}

    def test_sweep_scores_each_pair_once(self, monkeypatch, repeated_world):
        real, calls = dvceval.cider_d, Counter()

        def counting(candidate, references, df):
            calls[(tuple(candidate), tuple(references[0]))] += 1
            return real(candidate, references, df)

        monkeypatch.setattr(dvceval, "cider_d", counting)
        oracle_sweep(repeated_world, [3, 6, 8], seed=1)
        assert calls and max(calls.values()) == 1


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
        "seed, digest",
        [(0, "045b68c74002915a"), (1, "0babf98adf18348f"), (2, "749177efc812a306")],
    )
    def test_default_worlds_keep_their_digest(self, seed, digest):
        assert dataset_digest(generate_world(WorldConfig(seed=seed))) == digest
