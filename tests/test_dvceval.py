import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from recipegen import dvceval
from recipegen.data import (
    GroundTruthRecipe,
    PredictionRecipe,
    RecipeStep,
    TimedEvent,
)
from recipegen.dvceval import (
    COUNT_STAT_ETAS,
    DVC_EVAL_THRESHOLDS,
    VIDEO_SCORES,
    alignment_total,
    evaluate_corpus,
    event_count_stats,
    reference_df,
    score_video,
    sentence_metrics,
    soda_from_matrix,
    tiou,
    tiou_matrix,
)
from recipegen.oracle import oracle_prediction
from recipegen.textmetrics import (
    CIDER_SIGMA,
    MAX_NGRAM,
    build_df,
    cider_d,
    gaussian_length_penalty,
    meteor_lite,
    ngram_profile,
)


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


def full_table_dp_total(scores: np.ndarray) -> float:
    """The SODA recurrence over the whole (n_p + 1) x (n_g + 1) table."""
    n_p, n_g = scores.shape
    m = np.zeros((n_p + 1, n_g + 1))
    for i in range(1, n_p + 1):
        for j in range(1, n_g + 1):
            m[i, j] = max(m[i - 1, j], m[i, j - 1], m[i - 1, j - 1] + scores[i - 1, j - 1])
    return float(m[n_p, n_g])


class TestDpAlignment:
    def test_two_by_two_diagonal(self):
        p, r, f1 = soda_from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        for kind in ("dense", "sparse", "ties"):
            for _ in range(60):
                self.check_total(rng, kind)

    @staticmethod
    def check_total(rng, kind):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        if kind == "ties":  # few distinct values, so many matchings tie
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)
        else:
            scores = rng.uniform(0, 1, size=shape)
            if kind == "sparse":
                scores[rng.uniform(size=shape) < 0.6] = 0.0
        got = alignment_total(scores)
        assert got == pytest.approx(brute_force_best_matching(scores), abs=1e-12)
        # the row-by-row program makes the full table's total, bit for bit
        assert got == full_table_dp_total(scores)

    def test_exact_ties_and_zeros_by_hand(self):
        assert alignment_total(np.zeros((3, 2))) == 0.0
        # all four scores tie; only the diagonal pairs two of them in order
        assert alignment_total(np.array([[0.5, 0.5], [0.5, 0.5]])) == 1.0
        # the anti-diagonal cannot be matched in order: 0.75 alone beats 0.5
        assert alignment_total(np.array([[0.0, 0.75], [0.5, 0.0]])) == 0.75
        assert alignment_total(np.array([[0.0, 0.5], [0.5, 0.0]])) == 0.5

    def test_zero_score_row_keeps_total_lowers_precision(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 1, size=(3, 3))
        p0, _, _ = soda_from_matrix(scores)
        padded = np.vstack([scores, np.zeros((1, 3))])
        p1, _, _ = soda_from_matrix(padded)
        assert alignment_total(padded) == alignment_total(scores)
        assert p1 < p0


class TestSoda:
    def test_perfect_prediction_equals_metric_identity(self, one_metric_scores):
        sentences = [["stir", "the", "eggs"], ["heat", "the", "pan", "now"]]
        gt = make_gt([(0, 10), (20, 30)], sentences)
        pred = make_pred([(0, 10), (20, 30)], sentences)
        f1 = one_metric_scores(pred, gt, meteor_lite)["soda.meteor"]
        identity = np.mean([meteor_lite(s, s) for s in sentences])
        assert f1 == pytest.approx(identity)

    def test_tiou_only_perfect_is_one(self, one_metric_scores):
        gt = make_gt([(0, 10), (20, 30)], [["a"], ["b"]])
        pred = make_pred([(0, 10), (20, 30)], [["a"], ["b"]])
        table = tiou_matrix(pred.intervals, [s.interval for s in gt.steps])
        assert soda_from_matrix(table) == (1.0, 1.0, 1.0)
        assert one_metric_scores(pred, gt, meteor_lite)["soda.tiou"] == 1.0

    def test_empty_prediction_zero(self, one_metric_scores):
        gt = make_gt([(0, 10)], [["a"]])
        pred = PredictionRecipe("v", [], [], [])
        table = tiou_matrix(pred.intervals, [s.interval for s in gt.steps])
        assert soda_from_matrix(table) == (0.0, 0.0, 0.0)
        assert one_metric_scores(pred, gt, meteor_lite)["soda.tiou"] == 0.0

    def test_worse_than_perfect(self, one_metric_scores):
        gt = make_gt([(0, 10), (20, 30), (40, 55)], [["a"], ["b"], ["c"]])
        perfect = make_pred([(0, 10), (20, 30), (40, 55)], [["a"], ["b"], ["c"]])
        rng = np.random.default_rng(5)
        best = one_metric_scores(perfect, gt, meteor_lite)["soda.meteor"]
        for _ in range(20):
            k = int(rng.integers(1, 4))
            ivs = sorted(rng.uniform(0, 50, size=(k,)))
            pred = make_pred(
                [(s, s + 5) for s in ivs], [[ "a" ]] * k
            )
            assert one_metric_scores(pred, gt, meteor_lite)["soda.meteor"] <= best + 1e-12


class TestDvcEval:
    def test_identity_prediction_scores_metric_identity(self, one_metric_scores):
        sentences = [["stir", "the", "eggs"], ["heat", "the", "pan"]]
        gt = make_gt([(0, 10), (20, 30)], sentences)
        pred = make_pred([(0, 10), (20, 30)], sentences)
        # non-overlapping events: only the diagonal qualifies at every theta
        scores = one_metric_scores(pred, gt, lambda c, r: 1.0 if c == r else 0.0)
        assert scores["dvc_eval.meteor"] == 1.0

    def test_no_qualifying_pair_is_zero(self, one_metric_scores):
        gt = make_gt([(0, 10)], [["a"]])
        pred = make_pred([(50, 60)], [["a"]])
        assert one_metric_scores(pred, gt, meteor_lite)["dvc_eval.meteor"] == 0.0

    def test_hand_enumerated_thresholds(self, one_metric_scores):
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
        table = tiou_matrix(pred.intervals, [s.interval for s in gt.steps])
        assert table[0][0] == pytest.approx(0.6)
        assert table[1][1] == pytest.approx(0.9)
        assert table[2][0] == pytest.approx(0.25)
        expected = (0.5 + 0.5 + 0.5 + 0.0) / 4
        assert one_metric_scores(pred, gt, meteor_lite)["dvc_eval.meteor"] == pytest.approx(expected)

    def test_threshold_averaging_never_beats_single_loosest(self, one_metric_scores):
        # every pair here scores the same, so the mean over the qualifying
        # pairs is that score at each threshold that keeps any pair, and the
        # average over thresholds is at most the loosest threshold's score
        assert DVC_EVAL_THRESHOLDS == (0.3, 0.5, 0.7, 0.9)
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            gt = make_gt([(i * 20, i * 20 + 10) for i in range(3)], [["a"]] * 3)
            starts = rng.uniform(0, 50, size=k)
            pred = make_pred([(s, s + 8) for s in sorted(starts)], [["a"]] * k)
            values = [v for row in tiou_matrix(pred.intervals, [s.interval for s in gt.steps]) for v in row]
            averaged = one_metric_scores(pred, gt, meteor_lite)["dvc_eval.meteor"]
            loosest = meteor_lite(["a"], ["a"]) if max(values) > 0.3 else 0.0
            assert averaged <= loosest + 1e-12
            kept = [max(values) > t for t in DVC_EVAL_THRESHOLDS]
            assert averaged == pytest.approx(loosest * sum(kept) / len(kept))

    def test_threshold_mean_is_np_mean_bit_for_bit(self, one_metric_scores):
        # dvc_eval adds its four per-threshold means in order, which np.mean
        # does below 8 values; checked on arbitrary floats and against the
        # per-threshold means of scalar tiou and np.mean
        rng = np.random.default_rng(29)
        for values in rng.uniform(0, 1, size=(5000, len(DVC_EVAL_THRESHOLDS))).tolist():
            total = 0.0
            for v in values:
                total += v
            assert total / len(values) == float(np.mean(values))
        words = [[w] for w in "abcde"]
        scores = {(c[0], r[0]): float(rng.uniform()) for c in words for r in words}

        def metric(c, r):
            return scores[(c[0], r[0])]

        for _ in range(300):
            starts = np.sort(rng.uniform(0, 40, size=int(rng.integers(1, 6))))
            gt = make_gt([(s, s + rng.uniform(2, 12)) for s in starts],
                         [words[i] for i in rng.integers(0, 5, size=len(starts))])
            pred_starts = np.sort(starts[rng.integers(0, len(starts), size=int(rng.integers(1, 7)))])
            pred = make_pred([(s + rng.uniform(-2, 2) + 2, s + rng.uniform(4, 14)) for s in pred_starts],
                             [words[i] for i in rng.integers(0, 5, size=len(pred_starts))])
            per_threshold = []
            for t in DVC_EVAL_THRESHOLDS:
                qualifying = [metric(sent, step.sentence)
                              for a, sent in zip(pred.intervals, pred.sentences)
                              for step in gt.steps if tiou(a, step.interval) > t]
                total = 0.0
                for score in qualifying:  # in order, as dvc_eval adds them
                    total += score
                per_threshold.append(total / len(qualifying) if qualifying else 0.0)
            assert one_metric_scores(pred, gt, metric)["dvc_eval.meteor"] == float(np.mean(per_threshold))


    def test_qualifying_scores_add_in_order(self, monkeypatch, one_metric_scores):
        # these six scores sum to 5.9724786740092854 in order and to
        # 5.972478674009286 compensated, as sum() adds floats on Python >= 3.12;
        # the module's sum() is made compensating here, so this Python checks it too
        scores = [0.9976851851851852, 0.9985422740524781, 0.9814814814814815,
                  0.9976851851851852, 0.9985422740524781, 0.9985422740524781]
        assert math.fsum(scores) == 5.972478674009286
        monkeypatch.setattr(dvceval, "sum", math.fsum, raising=False)
        # six predictions of the one step's interval: every pair qualifies at every threshold
        gt = make_gt([(0, 10)], [["a"]])
        pred = make_pred([(0, 10)] * len(scores), [[str(i)] for i in range(len(scores))])
        mean = 5.9724786740092854 / len(scores)
        averaged = one_metric_scores(pred, gt, lambda c, r: scores[int(c[0])])["dvc_eval.meteor"]
        assert averaged == (mean + mean + mean + mean) / 4


class TestEventCountStats:
    def test_all_equal(self):
        assert COUNT_STAT_ETAS == (0, 1, 2, 3)
        assert event_count_stats([(3, 3), (5, 5)]) == {0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0}

    def test_spec_pairs(self):
        stats = event_count_stats([(3, 4), (5, 5), (1, 4), (9, 2)])
        assert stats == {0: 25.0, 1: 50.0, 2: 50.0, 3: 75.0}

    def test_no_pairs_is_zero(self):
        assert event_count_stats([]) == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_randomized_matches_recount(self):
        rng = np.random.default_rng(4)
        pairs = [(int(rng.integers(0, 12)), int(rng.integers(1, 12))) for _ in range(200)]
        stats = event_count_stats(pairs)
        assert list(stats) == list(COUNT_STAT_ETAS)
        for eta in COUNT_STAT_ETAS:
            want = 100.0 * sum(abs(p - q) <= eta for p, q in pairs) / len(pairs)
            assert stats[eta] == pytest.approx(want)


class TestEvaluateCorpus:
    def test_id_mismatch_lists_ids(self):
        gt = make_gt([(0, 10)], [["a"]], video_id="vid_1")
        pred = make_pred([(0, 10)], [["a"]], video_id="vid_2")
        with pytest.raises(ValueError, match="vid_1.*vid_2"):
            evaluate_corpus([pred], [gt])
        gts = [make_gt([(0, 10)], [["a"]], video_id=f"vid_{i}") for i in range(3)]
        preds = [make_pred([(0, 10)], [["a"]], video_id=f"vid_{i}") for i in range(3)]
        # the same ids in another order: nothing missing, the first swap named
        reversed_order = re.escape("missing=[] extra=[]; position 0: prediction vid_2 vs dataset vid_0")
        with pytest.raises(ValueError, match=reversed_order + "$"):
            evaluate_corpus(preds[::-1], gts)
        # a repeated prediction in place of the last video
        repeated = re.escape(
            "missing=['vid_2'] extra=[]; position 2: prediction vid_1 vs dataset vid_2; "
            "repeated prediction ids ['vid_1']"
        )
        with pytest.raises(ValueError, match=repeated + "$"):
            evaluate_corpus(preds[:2] + [preds[1]], gts)
        with pytest.raises(ValueError, match=re.escape("position 3: prediction vid_0 vs dataset (none)")):
            evaluate_corpus(preds + [preds[0]], gts)

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

    def test_metadata_quotes_the_cider_sigma_in_use(self):
        gt = make_gt([(0, 10)], [["a"]])
        sigma = evaluate_corpus([make_pred([(0, 10)], [["a"]])], [gt])["metadata"]["cider_sigma"]
        assert sigma == CIDER_SIGMA
        # the penalty the scorer applies is exp(-1/2) one sigma away
        assert gaussian_length_penalty(0, int(sigma)) == pytest.approx(math.exp(-0.5))


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


def counter_profile(tokens):
    """``ngram_profile`` as it was written with ``Counter``s."""
    return {
        n: Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
        for n in range(1, MAX_NGRAM + 1)
    }


def counter_df(reference_sets):
    """``build_df``'s document frequencies as they were counted, set by set."""
    df = {n: {} for n in range(1, MAX_NGRAM + 1)}
    for refs in reference_sets:
        seen = {n: set() for n in range(1, MAX_NGRAM + 1)}
        for ref in refs:
            for n, grams in counter_profile(ref).items():
                seen[n].update(grams)
        for n in range(1, MAX_NGRAM + 1):
            for gram in seen[n]:
                df[n][gram] = df[n].get(gram, 0) + 1
    return df


class TestOnePass:
    """``score_video``'s rows, and ``evaluate_corpus``'s, equal the rules
    written out in the ``unmemoized_scores`` fixture, on sentences that differ
    from the references."""

    GTS = [
        make_gt([(0, 10), (12, 20), (25, 40)],
                [["crack", "the", "eggs", "into", "the", "bowl"], ["stir", "the", "eggs"], ["heat", "the", "pan"]],
                video_id="v0"),
        make_gt([(0, 8), (10, 30)],
                [["heat", "the", "oil", "in", "the", "pan"], ["add", "the", "eggs", "to", "the", "pan"]],
                video_id="v1"),
        make_gt([(5, 15), (20, 30), (32, 50)],
                [["stir", "the", "eggs"], ["serve", "the", "eggs"], ["stir", "the", "eggs"]],
                video_id="v2"),
    ]
    PREDS = [
        make_pred(
            [(0, 9), (11, 21), (45, 50), (26, 39), (5, 30)],
            [
                ["crack", "the", "eggs", "eggs", "eggs"],  # repeated words
                ["whisk", "briskly"],  # words no reference holds
                ["stir", "the", "eggs"],  # tIoU 0 with every step
                [],  # empty
                ["the", "the", "pan", "pan"],
            ],
            video_id="v0",
        ),
        PredictionRecipe("v1", [], [], []),  # no rows
        make_pred(
            [(5, 15), (4, 16), (19, 31), (20, 30), (33, 49)],
            [
                ["stir", "the", "eggs"],
                ["stir", "stir", "the", "the", "eggs"],
                ["serve", "the", "cold", "eggs"],
                ["plate", "them"],
                ["stir", "the", "eggs"],
            ],
            video_id="v2",
        ),
    ]

    def test_rows_equal_public_scorers(self, unmemoized_scores):
        tables = [tiou_matrix(p.intervals, [s.interval for s in g.steps]) for p, g in zip(self.PREDS, self.GTS)]
        values = [v for table in tables for row in table for v in row]
        # every band of tIoU the scorers tell apart occurs: 0, (0, 0.3], and
        # above each threshold
        assert 0.0 in values and any(0.0 < v <= 0.3 for v in values)
        assert all(any(v > t for v in values) for t in DVC_EVAL_THRESHOLDS)
        assert [0.0] * 3 in tables[0]
        df = reference_df(self.GTS)
        assert ("whisk",) not in df.df[1]  # scored with the default IDF
        want = unmemoized_scores(self.PREDS, self.GTS)
        metrics = sentence_metrics(df)
        for _ in range(2):  # scored, then from memory
            rows = [score_video(p, g, metrics) for p, g in zip(self.PREDS, self.GTS)]
            assert rows == want
            assert [list(row) for row in rows] == [list(VIDEO_SCORES)] * len(rows)
        assert rows[1] == dict.fromkeys(VIDEO_SCORES, 0.0)
        assert len({row["soda.cider_d"] for row in rows}) == 3
        report = evaluate_corpus(self.PREDS, self.GTS)
        assert [{key: row[key] for key in VIDEO_SCORES} for row in report["per_video"]] == want

    def test_each_scorer_scores_only_its_pairs_once(self):
        # METEOR and CIDEr-D score the pairs of tIoU > 0, BLEU-4 those above
        # the loosest threshold, and no scorer an empty candidate
        metrics = sentence_metrics(reference_df(self.GTS))
        calls = {name: Counter() for name in metrics}
        for name, scorer in metrics.items():
            def counted(c, r, name=name, real=scorer.metric):
                calls[name][(c, r)] += 1
                return real(c, r)

            scorer.metric = counted
        for pred, gt in zip(self.PREDS, self.GTS):
            score_video(pred, gt, metrics)
        want = {name: set() for name in metrics}
        for pred, gt in zip(self.PREDS, self.GTS):
            table = tiou_matrix(pred.intervals, [s.interval for s in gt.steps])
            for row, sent in zip(table, pred.sentences):
                for value, step in zip(row, gt.steps):
                    pair = (tuple(sent), tuple(step.sentence))
                    if sent and value > 0.0:
                        want["meteor"].add(pair)
                        want["cider_d"].add(pair)
                    if sent and value > min(DVC_EVAL_THRESHOLDS):
                        want["bleu4"].add(pair)
        assert len(want["bleu4"]) < len(want["meteor"])
        assert calls == {name: Counter(dict.fromkeys(pairs, 1)) for name, pairs in want.items()}

    def test_corpus_statistics_equal_counter_definitions(self):
        sentences = [s for pred in self.PREDS for s in pred.sentences]
        sentences += [step.sentence for gt in self.GTS for step in gt.steps]
        for tokens in sentences:
            profile, counted = ngram_profile(tokens), counter_profile(tokens)
            assert profile == counted
            # in the same order, so weights add up in the same order
            assert [list(grams.items()) for grams in profile.values()] == [
                list(grams.items()) for grams in counted.values()
            ]
        reference_sets = [[step.sentence for step in gt.steps] for gt in self.GTS]
        reference_sets.append([pred.sentences[0] for pred in self.PREDS if pred.sentences])
        corpus = build_df(reference_sets)
        assert corpus.df == counter_df(reference_sets)
        log_docs = math.log(corpus.num_docs)
        for n, grams in corpus.df.items():
            assert corpus.idf[n] == {g: log_docs - math.log(max(1.0, c)) for g, c in grams.items()}


class TestScorersOfOneCorpus:
    CANDIDATE = ["stir", "the", "eggs"]
    REFERENCE = ["stir", "the", "eggs", "in", "the", "bowl"]
    CORPORA = [
        [[REFERENCE], [["heat", "the", "pan"]]],
        [[REFERENCE], [["stir", "the", "flour"]], [["crack", "the", "eggs"]]],
    ]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_cider_d_follows_its_own_corpus(self, order):
        want = [cider_d(self.CANDIDATE, self.REFERENCE, build_df(c)) for c in self.CORPORA]
        assert want[0] != want[1]
        for k in order:
            scorer = sentence_metrics(build_df(self.CORPORA[k]))["cider_d"]
            assert scorer(self.CANDIDATE, self.REFERENCE) == want[k]
