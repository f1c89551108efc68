import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipegen.textmetrics import (
    CIDER_SIGMA,
    CorpusDF,
    bleu4,
    bleu4_from_profiles,
    build_df,
    cider_d,
    gaussian_length_penalty,
    meteor_lite,
    ngram_profile,
    _greedy_alignment,
)

RNG = np.random.default_rng(7)
ALPHABET = ["pan", "stir", "eggs", "flour", "pour", "bowl", "heat", "the", "add", "mix"]


def random_sentence(rng, lo=1, hi=10):
    n = int(rng.integers(lo, hi + 1))
    return [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n)]


class TestNGramProfile:
    def test_counts_match_length_identity(self):
        for _ in range(50):
            tokens = random_sentence(RNG, 0, 12)
            profile = ngram_profile(tokens)
            for n in range(1, 5):
                assert sum(profile[n].values()) == max(0, len(tokens) - n + 1)


class TestBleu4:
    def test_identity_is_one(self):
        cand = ["stir", "the", "eggs", "in", "the", "bowl"]
        assert bleu4(cand, cand) == pytest.approx(1.0)

    def test_zero_unigram_overlap_floors_at_zero(self):
        cand = ["a", "b", "c", "d", "e"]
        ref = ["v", "w", "x", "y", "z"]
        score = bleu4(cand, ref)
        assert score < 0.05
        assert score == 0.0

    def test_brevity_penalty_hand_case(self):
        # candidate 3 tokens, reference 4: every n-gram precision is 1
        # (unigram 3/3; smoothed higher orders (m+1)/(m+1)), so the score is
        # exactly the brevity penalty exp(1 - 4/3)
        score = bleu4(["the", "cat", "sat"], ["the", "cat", "sat", "down"])
        assert score == pytest.approx(math.exp(1.0 - 4.0 / 3.0))

    def test_smoothed_hand_computation(self):
        # "a b c d e" vs "a x c y e": unigram matches {a, c, e} -> p1 = 3/5;
        # zero higher-order matches -> p2 = 1/5, p3 = 1/4, p4 = 1/3 with
        # add-one smoothing; lengths equal so BP = 1.
        expected = (3 / 5 * 1 / 5 * 1 / 4 * 1 / 3) ** 0.25
        score = bleu4(list("abcde"), ["a", "x", "c", "y", "e"])
        assert score == pytest.approx(expected, rel=1e-12)

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            bleu4([], ["a"])
        with pytest.raises(ValueError):
            bleu4(["a"], [])

    def test_range_and_determinism(self):
        for _ in range(100):
            cand = random_sentence(RNG)
            for ref in [random_sentence(RNG) for _ in range(2)]:
                s = bleu4(cand, ref)
                assert 0.0 <= s <= 1.0
                assert s == bleu4(cand, ref)


class TestMeteorLite:
    def test_identity_formula_instance(self):
        cand = ["heat", "the", "pan", "gently"]
        m = len(cand)
        assert meteor_lite(cand, cand) == pytest.approx(1.0 - 0.5 * (1 / m) ** 3)

    def test_disjoint_is_zero(self):
        assert meteor_lite(["a", "b"], ["x", "y"]) == 0.0

    def test_hand_case(self):
        # "a b c d" vs "a x c y": m=2 (a, c), chunks=2, P=R=0.5,
        # Fmean = 10*0.25/(0.5 + 4.5) = 0.5, penalty = 0.5 -> score 0.25
        assert meteor_lite(["a", "b", "c", "d"], ["a", "x", "c", "y"]) == pytest.approx(0.25)

    def test_self_beats_partial_overlap(self):
        cand = ["stir", "the", "eggs"]
        for _ in range(30):
            other = random_sentence(RNG)
            shared = sum((Counter(cand) & Counter(other)).values())
            if shared < len(cand):
                assert meteor_lite(cand, cand) > meteor_lite(cand, other)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            meteor_lite([], ["a"])

    @settings(max_examples=200, deadline=None)
    @given(
        cand=st.lists(st.sampled_from(ALPHABET[:4]), max_size=10),
        ref=st.lists(st.sampled_from(ALPHABET[:4]), max_size=10),
    )
    def test_alignment_equals_left_to_right_scan(self, cand, ref):
        # each candidate token takes the earliest reference occurrence not yet taken
        used, pairs = [False] * len(ref), []
        for i, tok in enumerate(cand):
            for j, ref_tok in enumerate(ref):
                if not used[j] and ref_tok == tok:
                    used[j] = True
                    pairs.append((i, j))
                    break
        assert _greedy_alignment(cand, ref) == pairs


class TestCorpusDF:
    def test_single_video_all_df_one(self):
        df = build_df([[["stir", "the", "eggs"], ["heat", "the", "pan"]]])
        assert df.num_docs == 1
        assert all(v == 1 for n in range(1, 5) for v in df.df[n].values())

    def test_ngram_in_every_video(self):
        df = build_df([[["stir", "it"]], [["stir", "them"]], [["please", "stir"]]])
        assert df.df[1][("stir",)] == 3 == df.num_docs

    def test_randomized_matches_brute_force(self):
        videos = [[random_sentence(RNG, 2, 8) for _ in range(3)] for _ in range(12)]
        df = build_df(videos)
        # independent recount: every n-gram of every sentence, per video set
        expected = {n: defaultdict(int) for n in range(1, 5)}
        for refs in videos:
            seen = set()
            for ref in refs:
                for n in range(1, 5):
                    for i in range(len(ref) - n + 1):
                        seen.add(tuple(ref[i : i + n]))
            for gram in seen:
                expected[len(gram)][gram] += 1
        for n in range(1, 5):
            assert df.df[n] == dict(expected[n])

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            build_df([])


def brute_force_cider_d(candidate, reference, videos, sigma=6.0):
    """Independent CIDEr-D implementation used as the test oracle."""
    num_docs = len(videos)
    doc_freq = {n: defaultdict(int) for n in range(1, 5)}
    for refs in videos:
        seen = set()
        for ref in refs:
            for n in range(1, 5):
                for i in range(len(ref) - n + 1):
                    seen.add(tuple(ref[i : i + n]))
        for g in seen:
            doc_freq[len(g)][g] += 1

    def grams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    def tfidf(tokens, n):
        return {
            g: c * (math.log(num_docs) - math.log(max(1.0, doc_freq[n][g])))
            for g, c in grams(tokens, n).items()
        }

    pen = math.exp(-((len(candidate) - len(reference)) ** 2) / (2 * sigma**2))
    acc = 0.0
    for n in range(1, 5):
        vc, vr = tfidf(candidate, n), tfidf(reference, n)
        num = sum(min(vc[g], vr.get(g, 0.0)) * vr.get(g, 0.0) for g in vc)
        nc = math.sqrt(sum(v * v for v in vc.values()))
        nr = math.sqrt(sum(v * v for v in vr.values()))
        acc += (num / (nc * nr) if nc > 0 and nr > 0 else 0.0) * pen
    return 10.0 * acc / 4


class TestCiderD:
    def _toy_corpus(self):
        return [
            [["crack", "the", "eggs"]],
            [["stir", "the", "eggs", "in", "the", "bowl"]],
            [["heat", "the", "pan"]],
        ]

    def test_identity_on_unique_reference_matches_oracle(self):
        videos = self._toy_corpus()
        df = build_df(videos)
        cand = ["crack", "the", "eggs"]
        got = cider_d(cand, cand, df)
        want = brute_force_cider_d(cand, cand, videos)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0

    def test_zero_overlap_is_zero(self):
        df = build_df(self._toy_corpus())
        assert cider_d(["x", "y", "z"], ["crack", "the", "eggs"], df) == 0.0

    def test_length_penalty_is_gaussian(self):
        assert CIDER_SIGMA == 6.0
        assert gaussian_length_penalty(10, 16) == pytest.approx(math.exp(-0.5))
        assert gaussian_length_penalty(16, 10) == pytest.approx(math.exp(-0.5))
        assert gaussian_length_penalty(10, 10) == 1.0

    def test_monotone_decrease_with_length_deviation(self):
        videos = self._toy_corpus()
        df = build_df(videos)
        ref = ["stir", "the", "eggs", "in", "the", "bowl"]
        scores = []
        for extra in range(5):
            cand = ref + ["zz"] * extra
            scores.append(cider_d(cand, ref, df))
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_randomized_matches_oracle(self):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            videos = [[random_sentence(rng, 2, 8) for _ in range(2)] for _ in range(5)]
            df = build_df(videos)
            cand = random_sentence(rng, 2, 8)
            for ref in videos[0]:
                assert cider_d(cand, ref, df) == pytest.approx(
                    brute_force_cider_d(cand, ref, videos), rel=1e-12, abs=1e-15
                )

    def test_range(self):
        df = build_df(self._toy_corpus())
        for _ in range(50):
            s = cider_d(random_sentence(RNG), random_sentence(RNG), df)
            assert 0.0 <= s <= 10.0

    def test_missing_df_errors(self):
        with pytest.raises(ValueError):
            cider_d(["a"], ["a"], None)


class TestRelabelingSymmetry:
    def test_metrics_invariant_under_token_renaming(self):
        mapping = {t: f"tok{i}" for i, t in enumerate(ALPHABET)}
        for _ in range(20):
            cand = random_sentence(RNG, 2, 8)
            ref = random_sentence(RNG, 2, 8)
            videos = [[ref], [random_sentence(RNG, 2, 8)]]
            r_cand = [mapping[t] for t in cand]
            r_ref = [mapping[t] for t in ref]
            r_videos = [[[mapping[t] for t in s] for s in v] for v in videos]
            assert bleu4(cand, ref) == pytest.approx(bleu4(r_cand, r_ref))
            assert meteor_lite(cand, ref) == pytest.approx(meteor_lite(r_cand, r_ref))
            assert cider_d(cand, ref, build_df(videos)) == pytest.approx(
                cider_d(r_cand, r_ref, build_df(r_videos))
            )


SENTENCES = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=12)


class TestProfileCores:
    @settings(max_examples=200, deadline=None)
    @given(
        cand=SENTENCES,
        refs=st.lists(SENTENCES, min_size=1, max_size=3),
        others=st.lists(st.lists(SENTENCES, min_size=1, max_size=3), max_size=3),
        scored_first=st.lists(SENTENCES, max_size=3),
    )
    def test_cores_equal_public_scorers(self, cand, refs, others, scored_first):
        for ref in refs:
            assert bleu4_from_profiles(ngram_profile(cand), ngram_profile(ref)) == bleu4(cand, ref)
        videos = [refs] + others
        df = build_df(videos)
        # the vectors a corpus keeps from earlier sentences change no later score
        for sentence in scored_first:
            df.tfidf(sentence)
        for ref in refs:
            assert cider_d(cand, ref, df) == cider_d(cand, ref, build_df(videos))
        assert df == build_df(videos)
