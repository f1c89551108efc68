"""Word-overlap sentence metrics: BLEU-4, METEOR-lite, and CIDEr-D.

Each scores one pre-tokenized candidate (a list of token strings) against
one reference, the single-reference protocol of ``dvceval.REPORT_METADATA``,
and is a pure function of surface forms.  METEOR-lite is an exact-match-only
variant (no stemming, no synonymy); reports produced downstream carry
``"meteor_variant": "exact-lite"`` so scores are self-describing.

The protocol settings are module constants, not parameters: ``MAX_NGRAM``
is the n-gram order of every profile, BLEU-4 and CIDEr-D, and ``CIDER_SIGMA``
the width of CIDEr-D's Gaussian length penalty, which report metadata
(``dvceval.REPORT_METADATA``) quotes.

A ``CorpusDF`` holds, per n, the document frequency of each n-gram of its
references and a table of their IDFs, made once (an n-gram it lacks has the
IDF ``log(num_docs)``), and makes each sentence's n-gram profile and
TF-IDF vector once and keeps them while it lives; ``bleu4_from_profiles``
scores profiles and ``cider_d`` the vectors of its corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

MAX_NGRAM = 4
CIDER_SIGMA = 6.0

# per n, each n-gram's count, in order of first occurrence
Profile = dict[int, dict[tuple, int]]
# per n, the TF-IDF weights and their norm; then the sentence length
TfIdf = tuple[list[dict], list[float], int]


def ngram_profile(tokens: list[str]) -> Profile:
    """Multisets of n-grams for n = 1..MAX_NGRAM."""
    tokens, profile = tuple(tokens), {}
    for n in range(1, MAX_NGRAM + 1):
        counts: dict[tuple, int] = {}
        for i in range(len(tokens) - n + 1):
            gram = tokens[i : i + n]
            counts[gram] = counts.get(gram, 0) + 1
        profile[n] = counts
    return profile


@dataclass
class CorpusDF:
    """Document frequencies over an evaluation corpus (one document per video)
    and, per n, the IDF of each n-gram they count, with the profiles of each
    sentence seen so far, which ``==`` ignores."""

    df: dict[int, dict[tuple, int]]
    num_docs: int
    profiles: dict[tuple, Profile] = field(default_factory=dict, compare=False, repr=False)
    vectors: dict[tuple, TfIdf] = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def idf(self) -> dict[int, dict[tuple, float]]:
        """Per n, ``log(num_docs) - log(max(1.0, count))`` of each counted
        n-gram, made on first use.  One the corpus lacks has count 0, so its
        IDF is ``log(num_docs) - log(1.0)``, that is ``log(num_docs)``."""
        log_docs = math.log(self.num_docs)
        return {
            n: {gram: log_docs - math.log(max(1.0, count)) for gram, count in grams.items()}
            for n, grams in self.df.items()
        }

    def profile(self, tokens: list[str]) -> Profile:
        if (key := tuple(tokens)) not in self.profiles:
            self.profiles[key] = ngram_profile(key)
        return self.profiles[key]

    def tfidf(self, tokens: list[str]) -> TfIdf:
        if (key := tuple(tokens)) not in self.vectors:
            self.vectors[key] = (*_tfidf_vector(self.profile(tokens), self), len(tokens))
        return self.vectors[key]


def build_df(reference_sets: list[list[list[str]]]) -> CorpusDF:
    """Count, per n-gram, the number of videos whose reference set contains it.

    ``reference_sets`` holds one list of tokenized reference sentences per
    video; each video counts as a single document.
    """
    if not reference_sets:
        raise ValueError("need at least one video to build document frequencies")
    corpus = CorpusDF({n: Counter() for n in range(1, MAX_NGRAM + 1)}, len(reference_sets))
    for refs in reference_sets:
        seen: dict[int, set] = {n: set() for n in range(1, MAX_NGRAM + 1)}
        for ref in refs:
            for n, grams in corpus.profile(ref).items():
                seen[n].update(grams)
        for n in range(1, MAX_NGRAM + 1):
            corpus.df[n].update(seen[n])
    return corpus


# ---------------------------------------------------------------------------
# BLEU-4
# ---------------------------------------------------------------------------


def bleu4(candidate: list[str], reference: list[str]) -> float:
    """Sentence-level BLEU with uniform weights over n = 1..4.

    Higher-order precisions (n >= 2) get add-one smoothing; the unigram
    precision is left unsmoothed, so a candidate sharing no unigram with the
    reference scores 0.  The brevity penalty uses the reference length.
    """
    if not candidate or not reference:
        raise ValueError("candidate and reference must both be non-empty")
    return bleu4_from_profiles(ngram_profile(candidate), ngram_profile(reference))


def bleu4_from_profiles(cand_prof: Profile, ref_prof: Profile) -> float:
    """``bleu4`` of the n-gram profiles of non-empty sentences."""
    log_sum = 0.0
    for n in range(1, MAX_NGRAM + 1):
        total = sum(cand_prof[n].values())
        matched = 0
        ref_counts = ref_prof[n]
        for gram, count in cand_prof[n].items():
            if (ref_count := ref_counts.get(gram)) is not None:
                matched += count if count < ref_count else ref_count
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += math.log(precision) / MAX_NGRAM

    c = sum(cand_prof[1].values())
    r = sum(ref_prof[1].values())
    bp = math.exp(1.0 - r / c) if c < r else 1.0
    return bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# METEOR-lite
# ---------------------------------------------------------------------------


def _greedy_alignment(candidate: list[str], reference: list[str]) -> list[tuple[int, int]]:
    """Exact unigram matching, candidate positions left to right, each taking
    the earliest unmatched reference occurrence of its token."""
    unmatched: dict[str, list[int]] = {}  # per token, its positions, earliest last
    for j in range(len(reference) - 1, -1, -1):
        unmatched.setdefault(reference[j], []).append(j)
    pairs = []
    for i, tok in enumerate(candidate):
        if positions := unmatched.get(tok):
            pairs.append((i, positions.pop()))
    return pairs


def meteor_lite(candidate: list[str], reference: list[str]) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall, with the
    standard fragmentation penalty 0.5 * (chunks / matches)^3."""
    if not candidate or not reference:
        raise ValueError("candidate and reference must both be non-empty")
    pairs = _greedy_alignment(candidate, reference)
    m = len(pairs)
    if m == 0:
        return 0.0
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    precision = m / len(candidate)
    recall = m / len(reference)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------


def gaussian_length_penalty(len_candidate: int, len_reference: int) -> float:
    delta = float(len_candidate - len_reference)
    return math.exp(-(delta**2) / (2.0 * CIDER_SIGMA**2))


def _tfidf_vector(profile: Profile, df: CorpusDF) -> tuple[list[dict], list[float]]:
    log_docs = math.log(df.num_docs)
    vecs, norms = [], []
    for n in range(1, MAX_NGRAM + 1):
        idf = df.idf[n]
        vec = {}
        sq = 0.0
        for gram, count in profile[n].items():
            w = count * idf.get(gram, log_docs)
            vec[gram] = w
            sq += w * w
        vecs.append(vec)
        norms.append(math.sqrt(sq))
    return vecs, norms


def cider_d(candidate: list[str], reference: list[str], df: CorpusDF) -> float:
    """CIDEr-D: clipped TF-IDF cosine per n, Gaussian length penalty, averaged
    over n = 1..4, scaled by 10.  The TF-IDF vectors are the ones ``df``
    keeps.  A candidate n-gram the reference lacks would add min(w, 0.0) * 0.0,
    an exact 0.0, so it is skipped."""
    if df is None:
        raise ValueError("cider_d requires document frequencies (build_df)")
    cand_vecs, cand_norms, cand_len = df.tfidf(candidate)
    ref_vecs, ref_norms, ref_len = df.tfidf(reference)
    penalty = gaussian_length_penalty(cand_len, ref_len)
    per_n = 0.0
    for n in range(MAX_NGRAM):
        num = 0.0
        ref_vec = ref_vecs[n]
        for gram, w in cand_vecs[n].items():
            if (rw := ref_vec.get(gram)) is not None:
                num += (rw if rw < w else w) * rw  # min(w, rw) * rw
        if cand_norms[n] > 0.0 and ref_norms[n] > 0.0:
            num /= cand_norms[n] * ref_norms[n]
        else:
            num = 0.0
        per_n += num * penalty
    return 10.0 * (per_n / MAX_NGRAM)
