import itertools

import numpy as np
import pytest

from recipegen.data import (
    GroundTruthRecipe,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
)
from recipegen.dvceval import (
    VIDEO_SCORES,
    dp_alignment,
    dvc_eval,
    evaluate_corpus,
    event_count_stats,
    sentence_metrics,
    soda,
    soda_from_matrix,
    tiou,
    tiou_matrix,
)
from recipegen.oracle import oracle_prediction
from recipegen.textmetrics import build_df, cider_d, meteor_lite


def brute_force_best_matching(scores: np.ndarray) -> float:
    """Enumerate every monotone one-to-one matching and take the best total."""
    n_p, n_g = scores.shape
    best = 0.0
    for k in range(0, min(n_p, n_g) + 1):
        for rows in itertools.combinations(range(n_p), k):
            for cols in itertools.combinations(range(n_g), k):
                best = max(best, sum(scores[i, j] for i, j in zip(rows, cols)))
    return best


def make_gt(intervals, sentences, video_id="v", duration=100.0, ingredients=()):
    steps = [RecipeStep(TimedEvent(*iv), list(s)) for iv, s in zip(intervals, sentences)]
    return GroundTruthRecipe(video_id, duration, steps, list(ingredients))


def make_pred(intervals, sentences, video_id="v"):
    return PredictionRecipe(
        video_id,
        list(range(len(intervals))),
        [list(s) for s in sentences],
        [TimedEvent(*iv) for iv in intervals],
    )


class TestTiou:
    def test_identity(self):
        assert tiou(TimedEvent(0, 2), TimedEvent(0, 2)) == 1.0

    def test_disjoint(self):
        assert tiou(TimedEvent(0, 1), TimedEvent(2, 3)) == 0.0

    def test_partial_third(self):
        assert tiou(TimedEvent(0, 2), TimedEvent(1, 3)) == pytest.approx(1 / 3)

    def test_symmetry_and_translation_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = sorted(rng.uniform(0, 10, 2))
            b = sorted(rng.uniform(0, 10, 2))
            if a[0] == a[1] or b[0] == b[1]:
                continue
            ea, eb = TimedEvent(*a), TimedEvent(*b)
            assert tiou(ea, eb) == tiou(eb, ea)
            # translating b away never increases overlap
            shift0 = tiou(ea, eb)
            prev = shift0
            for shift in (1.0, 2.0, 4.0):
                cur = tiou(ea, TimedEvent(b[0] + 10 + shift, b[1] + 10 + shift))
                assert cur <= prev + 1e-12
                prev = cur


class TestDpAlignment:
    def test_two_by_two_diagonal(self):
        p, r, f1 = soda_from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            scores = rng.uniform(0, 1, size=shape)
            got = dp_alignment(scores).total
            want = brute_force_best_matching(scores)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pairs_are_monotone_and_unique(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, size=(5, 4))
        pairs = dp_alignment(scores).pairs
        for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
            assert i1 > i0 and j1 > j0

    def test_zero_score_row_keeps_total_lowers_precision(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, size=(3, 3))
        p0, _, _ = soda_from_matrix(scores)
        padded = np.vstack([scores, np.zeros((1, 3))])
        p1, _, _ = soda_from_matrix(padded)
        assert dp_alignment(padded).total == pytest.approx(dp_alignment(scores).total)
        assert p1 < p0


class TestSoda:
    def test_perfect_prediction_equals_metric_identity(self):
        sentences = [["stir", "the", "eggs"], ["heat", "the", "pan", "now"]]
        gt = make_gt([(0, 10), (20, 30)], sentences)
        pred = make_pred([(0, 10), (20, 30)], sentences)
        _, _, f1 = soda(pred, gt, meteor_lite)
        identity = np.mean([meteor_lite(s, s) for s in sentences])
        assert f1 == pytest.approx(identity)

    def test_tiou_only_perfect_is_one(self):
        gt = make_gt([(0, 10), (20, 30)], [["a"], ["b"]])
        pred = make_pred([(0, 10), (20, 30)], [["a"], ["b"]])
        assert soda(pred, gt, None) == (1.0, 1.0, 1.0)

    def test_empty_prediction_zero(self):
        gt = make_gt([(0, 10)], [["a"]])
        pred = PredictionRecipe("v", [], [], [])
        assert soda(pred, gt, None) == (0.0, 0.0, 0.0)

    def test_worse_than_perfect(self):
        gt = make_gt([(0, 10), (20, 30), (40, 55)], [["a"], ["b"], ["c"]])
        perfect = make_pred([(0, 10), (20, 30), (40, 55)], [["a"], ["b"], ["c"]])
        rng = np.random.default_rng(5)
        _, _, best = soda(perfect, gt, meteor_lite)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            ivs = sorted(rng.uniform(0, 50, size=(k,)))
            pred = make_pred(
                [(s, s + 5) for s in ivs], [[ "a" ]] * k
            )
            assert soda(pred, gt, meteor_lite)[2] <= best + 1e-12


class TestDvcEval:
    def test_identity_prediction_scores_metric_identity(self):
        sentences = [["stir", "the", "eggs"], ["heat", "the", "pan"]]
        gt = make_gt([(0, 10), (20, 30)], sentences)
        pred = make_pred([(0, 10), (20, 30)], sentences)
        # non-overlapping events: only the diagonal qualifies at every theta
        assert dvc_eval(pred, gt, lambda c, r: 1.0 if c == r else 0.0) == 1.0

    def test_no_qualifying_pair_is_zero(self):
        gt = make_gt([(0, 10)], [["a"]])
        pred = make_pred([(50, 60)], [["a"]])
        assert dvc_eval(pred, gt, meteor_lite) == 0.0

    def test_hand_enumerated_thresholds(self):
        # gt1 = [0,10] "a", gt2 = [20,30] "b"
        # p1 = [0,6]   -> tiou(gt1) = 0.6, disjoint from gt2, sentence "a"
        # p2 = [20,29] -> tiou(gt2) = 0.9, disjoint from gt1, sentence "b"
        # p3 = [4,24]  -> tiou(gt1) = 6/24 = 0.25, tiou(gt2) = 4/26, sentence "c"
        # meteor_lite on equal single tokens = 0.5, disjoint = 0
        # theta 0.3: pairs {p1g1, p2g2} -> mean 0.5
        # theta 0.5: pairs {p1g1, p2g2} -> 0.5 (0.6 > 0.5)
        # theta 0.7: pairs {p2g2}       -> 0.5
        # theta 0.9: none (strict >)    -> 0.0
        gt = make_gt([(0, 10), (20, 30)], [["a"], ["b"]])
        pred = make_pred([(0, 6), (20, 29), (4, 24)], [["a"], ["b"], ["c"]])
        mat = tiou_matrix(pred.intervals, [s.interval for s in gt.steps])
        assert mat[0, 0] == pytest.approx(0.6)
        assert mat[1, 1] == pytest.approx(0.9)
        assert mat[2, 0] == pytest.approx(0.25)
        expected = (0.5 + 0.5 + 0.5 + 0.0) / 4
        assert dvc_eval(pred, gt, meteor_lite) == pytest.approx(expected)

    def test_threshold_averaging_never_beats_single_loosest(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            gt = make_gt([(i * 20, i * 20 + 10) for i in range(3)], [["a"]] * 3)
            starts = rng.uniform(0, 50, size=k)
            pred = make_pred([(s, s + 8) for s in sorted(starts)], [["a"]] * k)
            averaged = dvc_eval(pred, gt, meteor_lite)
            loosest = dvc_eval(pred, gt, meteor_lite, thresholds=(0.3,))
            assert averaged <= loosest + 1e-12


class TestEventCountStats:
    def test_all_equal(self):
        assert event_count_stats([(3, 3), (5, 5)], [0]) == {0: 100.0}

    def test_spec_pairs(self):
        stats = event_count_stats([(3, 4), (5, 5)], [0, 1])
        assert stats == {0: 50.0, 1: 100.0}

    def test_randomized_matches_recount(self):
        rng = np.random.default_rng(4)
        pairs = [(int(rng.integers(0, 12)), int(rng.integers(1, 12))) for _ in range(200)]
        stats = event_count_stats(pairs, [0, 1, 2, 3])
        for eta in (0, 1, 2, 3):
            want = 100.0 * sum(abs(p - q) <= eta for p, q in pairs) / len(pairs)
            assert stats[eta] == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            event_count_stats([(1, 1)], [])
        with pytest.raises(ValueError):
            event_count_stats([(1, 1)], [-1])


class TestEvaluateCorpus:
    def test_id_mismatch_lists_ids(self):
        gt = make_gt([(0, 10)], [["a"]], video_id="vid_1")
        pred = make_pred([(0, 10)], [["a"]], video_id="vid_2")
        with pytest.raises(ValueError, match="vid_1.*vid_2"):
            evaluate_corpus([pred], [gt])

    def test_report_shape_and_metadata(self):
        gt = make_gt([(0, 10)], [["stir", "the", "eggs"]], video_id="v")
        pred = make_pred([(0, 10)], [["stir", "the", "eggs"]], video_id="v")
        report = evaluate_corpus([pred], [gt])
        for key in (
            "dvc_eval.bleu4", "dvc_eval.meteor", "dvc_eval.cider_d",
            "soda.meteor", "soda.cider_d", "soda.tiou",
            "count_stats.eta0", "count_stats.eta1", "count_stats.eta2", "count_stats.eta3",
        ):
            assert key in report["metrics"]
        assert report["metadata"]["meteor_variant"] == "exact-lite"
        assert report["metrics"]["dvc_eval.bleu4"] == 1.0
        assert report["metrics"]["soda.tiou"] == 1.0
        assert report["metrics"]["count_stats.eta0"] == 100.0
        assert len(report["per_video"]) == 1


class TestSharedScoring:
    def test_rows_equal_unmemoized_public_scorers(self, repeated_world, unmemoized_scores):
        preds = [oracle_prediction(r, mode="attached")[0] for r in repeated_world]
        preds[1].sentences[0] = []
        gts = [r.ground_truth for r in repeated_world]
        report = evaluate_corpus(preds, gts)
        rows = [{key: row[key] for key in VIDEO_SCORES} for row in report["per_video"]]
        assert rows == unmemoized_scores(preds, gts)
        # the world is not one where every pair scores the same
        assert len({row["soda.cider_d"] for row in rows}) > 2


class TestScorersOfOneCorpus:
    CANDIDATE = ["stir", "the", "eggs"]
    REFERENCE = ["stir", "the", "eggs", "in", "the", "bowl"]
    CORPORA = [
        [[REFERENCE], [["heat", "the", "pan"]]],
        [[REFERENCE], [["stir", "the", "flour"]], [["crack", "the", "eggs"]]],
    ]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_cider_d_follows_its_own_corpus(self, order):
        want = [cider_d(self.CANDIDATE, [self.REFERENCE], build_df(c)) for c in self.CORPORA]
        assert want[0] != want[1]
        for k in order:
            scorer = sentence_metrics(build_df(self.CORPORA[k]))["cider_d"]
            assert scorer(self.CANDIDATE, self.REFERENCE) == want[k]
