"""Oracle selection: per ground-truth step, the candidate with maximum tIoU.

The oracle is both an analysis tool (upper bound on selection quality, tIoU
distributions, candidate-count sweeps) and the source of training labels for
the event selector.

``oracle_ranking`` builds a video's tIoU table (``dvceval.tiou_matrix``, one
row of floats per candidate) and ranks each step's candidates over it.  The
oracle's picks and their tIoUs come from that one table.  One per-video loop,
``_oracle_rows``, serves the report and the sweep: it ranks each video once,
picks at each budget, and passes the picked candidates' rows to
``dvceval.score_video``.  The report is that loop at a budget no video
exceeds, the sweep at its sorted budgets.  ``RecipeModel.labels`` reads the
ranking.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import (
    DatasetRecord,
    EventCandidateSet,
    GroundTruthRecipe,
    PredictionRecipe,
    check_distinct,
    check_int,
    tokenize,
)
from .dvceval import VIDEO_SCORES, mean_scores, reference_df, score_video, sentence_metrics, tiou_matrix
from .parallel import in_halves

HISTOGRAM_BIN_WIDTH = 0.1  # of the oracle report's tIoU histogram


@dataclass
class OracleAssignment:
    """Per ground-truth step: the best candidate index and its tIoU."""

    indices: list[int]
    tious: list[float]

    @property
    def duplicate_assignments(self) -> int:
        return len(self.indices) - len(set(self.indices))

    @property
    def mean_tiou(self) -> float:
        return float(np.mean(self.tious)) if self.tious else 0.0


def oracle_ranking(
    candidates: EventCandidateSet, gt: GroundTruthRecipe
) -> tuple[list[list[int]], list[list[float]]]:
    """Per ground-truth step, every candidate index from best to worst, and the
    tIoU table (``tiou_matrix``, one row per candidate).  Candidates rank by
    tIoU, ties toward the lowest index, which is the earliest start: an
    ``EventCandidateSet`` is sorted by start."""
    if len(candidates) == 0:
        raise ValueError(f"{gt.video_id}: oracle selection needs at least one candidate")
    table = tiou_matrix(candidates.events, [step.interval for step in gt.steps])
    order = range(len(table))
    # a reversed sort is still stable: equal tIoUs keep their ascending index
    return [sorted(order, key=column.__getitem__, reverse=True) for column in zip(*table)], table


def _assignment(
    ranking: list[list[int]], table: list[list[float]], kept: list[int] | None = None
) -> OracleAssignment:
    """Each step's first candidate in its ranking (of those in ``kept``, if given)."""
    if kept is None:
        indices = [column[0] for column in ranking]
    else:
        keep = set(kept)
        indices = [next(i for i in column if i in keep) for column in ranking]
    return OracleAssignment(indices, [table[i][j] for j, i in enumerate(indices)])


def oracle_select(candidates: EventCandidateSet, gt: GroundTruthRecipe) -> OracleAssignment:
    """Independent per-step argmax of tIoU over the candidate set: each step's
    first candidate in ``oracle_ranking``.  Candidates may be reused across steps."""
    return _assignment(*oracle_ranking(candidates, gt))


def oracle_prediction(
    record: DatasetRecord, mode: str = "gt-sentences"
) -> tuple[PredictionRecipe, OracleAssignment]:
    """PredictionRecipe built from oracle events.

    ``mode="attached"`` pairs each oracle event with the sentence attached to
    that candidate in the dataset file; ``mode="gt-sentences"`` reuses the
    ground-truth sentences (selection-quality-only analysis).
    """
    assignment = oracle_select(record.candidates, record)
    return _prediction(record, assignment, mode), assignment


def _prediction(record: DatasetRecord, assignment: OracleAssignment, mode: str) -> PredictionRecipe:
    """The oracle prediction of ``oracle_prediction`` for a given assignment."""
    if mode == "attached":
        if record.candidates.sentences is None:
            raise ValueError(
                f"{record.video_id}: dataset has no candidate-attached sentences"
            )
        sentences = [tokenize(record.candidates.sentences[i]) for i in assignment.indices]
    elif mode == "gt-sentences":
        sentences = [list(s.sentence) for s in record.steps]
    else:
        raise ValueError(f"unknown oracle sentence mode: {mode!r}")
    intervals = [record.candidates.events[i] for i in assignment.indices]
    return PredictionRecipe(record.video_id, list(assignment.indices), sentences, intervals)


def tiou_histogram(values: list[float]) -> list[tuple[float, float, int]]:
    """Histogram rows (bin_low, bin_high, count) of width ``HISTOGRAM_BIN_WIDTH``;
    the last bin is closed at 1."""
    n_bins = int(round(1.0 / HISTOGRAM_BIN_WIDTH))
    counts = [0] * n_bins
    edges = [round(i * HISTOGRAM_BIN_WIDTH, 10) for i in range(n_bins + 1)]
    for v in values:  # in the row whose [low, high) holds it (1.0 in the last)
        counts[min(bisect_right(edges, v) - 1, n_bins - 1)] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(n_bins)]


def oracle_report(records: list[DatasetRecord], mode: str = "gt-sentences") -> dict:
    """Score the oracle selection over a dataset.

    Computes dvc_eval and SODA with every sentence metric, mean per-step
    oracle tIoU, duplicate-assignment counts, and a tIoU histogram
    (``tiou_histogram``): ``_oracle_rows`` at a budget that no video exceeds.
    """
    budget = max((len(r.candidates) for r in records), default=1)  # no records: the scorers say so
    [(per_video, tious)] = _oracle_rows(records, [budget], mode)
    return {
        "metrics": _summary(per_video),
        "per_video": per_video,
        "histogram": [list(row) for row in tiou_histogram(tious)],
        "metadata": {"sentence_mode": mode, "histogram_bin_width": HISTOGRAM_BIN_WIDTH},
    }


def _oracle_rows(
    records: list[DatasetRecord], budgets: list[int], mode: str, seed: int = 0
) -> list[tuple[list[dict], list[float]]]:
    """Per budget (ascending), each video's report row and every oracle tIoU.

    One set of memoized sentence scorers serves every budget, as each keeps
    the same ground truth, and ``parallel.in_halves`` splits the videos once.
    Each video's tIoU table, ranking and ``_stable_permutation`` are made once.
    Budget n keeps the permutation's first n indices, so budgets nest, and its
    oracle takes each step's first ranked candidate that it keeps, which is
    ``oracle_select`` over the kept candidates.  A row scores the picks' rows."""
    metrics = sentence_metrics(reference_df(records))

    def score(half):
        per_budget = [([], []) for _ in budgets]
        for record in half:
            ranking, table = oracle_ranking(record.candidates, record)
            for (rows, tious), kept in zip(per_budget, _kept(record, budgets, seed)):
                assignment = _assignment(ranking, table, kept)
                pred = _prediction(record, assignment, mode)
                rows.append({
                    "video_id": record.video_id,
                    "mean_tiou": assignment.mean_tiou,
                    "duplicate_assignments": assignment.duplicate_assignments,
                    **score_video(pred, record, metrics, [table[i] for i in assignment.indices]),
                })
                tious += assignment.tious
        return per_budget

    mine, theirs = in_halves(score, records)
    return [(rows + more, tious + more_tious) for (rows, tious), (more, more_tious) in zip(mine, theirs)]


def _summary(per_video: list[dict]) -> dict:
    """A report's ``metrics`` from its per-video rows."""
    flat = mean_scores(per_video, ("mean_tiou",) + VIDEO_SCORES)
    flat["duplicate_assignments"] = sum(row["duplicate_assignments"] for row in per_video)
    return flat


def _stable_permutation(video_id: str, n: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(
        f"{seed}:{video_id}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.permutation(n)


def _kept(record: DatasetRecord, budgets: list[int], seed: int) -> list[list[int] | None]:
    """Per budget, the sorted indices of the candidates it keeps (None: all of
    them), all from one permutation of the video's candidates."""
    total = len(record.candidates)
    cut = any(n < total for n in budgets)
    perm = _stable_permutation(record.video_id, total, seed) if cut else None
    return [sorted(perm[:n].tolist()) if n < total else None for n in budgets]


def oracle_sweep(records: list[DatasetRecord], n_list: list[int], seed: int = 0) -> dict:
    """Oracle metrics at nested candidate-count budgets (Table-style sweep):
    ``_oracle_rows`` at the sorted budgets.  The rows score the ground-truth
    sentences (``sentence_mode`` in the metadata), whatever mode the report
    they go with uses."""
    mode = "gt-sentences"
    for n in n_list:
        check_int("candidate budget", n, 1)
    check_distinct("candidate budgets", n_list)  # a repeated budget is the same row
    budgets = sorted(n_list)
    scored = _oracle_rows(records, budgets, mode, seed)
    rows = [{"n_candidates": n, **_summary(per_video)} for n, (per_video, _) in zip(budgets, scored)]
    return {"rows": rows, "metadata": {"nested_subset_seed": seed, "sentence_mode": mode}}
