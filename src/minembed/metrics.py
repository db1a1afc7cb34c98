"""Retrieval and similarity metrics over brute-force cosine rankings.

Covers Acc@K, MRR, mean positive similarity, NDCG@10 (linear or
exponential gain), Recall@K, and Spearman correlation. Candidate ties are
broken by ascending candidate id so rankings are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError

GAIN_LINEAR = "linear"
GAIN_EXP = "exp"
NDCG_CUTOFF = 10


@dataclass
class RetrievalTask:
    """Queries ranked against a shared candidate pool, one gold match each."""

    queries: list[tuple[str, np.ndarray]]
    candidates: list[tuple[str, np.ndarray]]
    gold: dict[str, str]

    def __post_init__(self) -> None:
        # A repeated query would have only one gold answer, so reject it.
        seen: set[str] = set()
        for qid, _ in self.queries:
            if qid in seen:
                raise DataError("E_DUPLICATE_QUERY", f"query id {qid!r} appears more than once")
            seen.add(qid)
        cand_ids = {cid for cid, _ in self.candidates}
        missing = [g for g in self.gold.values() if g not in cand_ids]
        if missing:
            raise DataError("E_EMPTY_CANDIDATES", f"gold targets missing from candidates: {missing[:5]}")


@dataclass
class GradedTask:
    """Queries with graded relevance judgments instead of a single gold id."""

    queries: list[tuple[str, np.ndarray]]
    candidates: list[tuple[str, np.ndarray]]
    qrels: dict[tuple[str, str], int]


@dataclass
class STSTask:
    """Embedded text pairs with gold similarity scores."""

    pairs: list[tuple[np.ndarray, np.ndarray, float]]


@dataclass
class MetricReport:
    """All computed metrics; unevaluated fields stay None."""

    acc_at: dict[int, float] = field(default_factory=dict)
    mrr: float | None = None
    mean_pos_sim: float | None = None
    sd_pos_sim: float | None = None
    ndcg_at_10: float | None = None
    recall_at: dict[int, float] = field(default_factory=dict)
    spearman: float | None = None
    n_queries: int = 0
    n_skipped_no_relevant: int = 0
    gain: str = GAIN_LINEAR

    def to_dict(self) -> dict:
        return {
            "acc_at": {str(k): v for k, v in sorted(self.acc_at.items())},
            "mrr": self.mrr,
            "mean_pos_sim": self.mean_pos_sim,
            "sd_pos_sim": self.sd_pos_sim,
            "ndcg_at_10": self.ndcg_at_10,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "spearman": self.spearman,
            "n_queries": self.n_queries,
            "n_skipped_no_relevant": self.n_skipped_no_relevant,
            "gain": self.gain,
        }


def _unit_rows(pairs: Sequence[tuple[str, np.ndarray]]) -> tuple[list[str], np.ndarray]:
    ids = [pid for pid, _ in pairs]
    matrix = np.asarray([vec for _, vec in pairs], dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DataError("E_EMPTY_CANDIDATES", "zero vector in task embeddings")
    return ids, matrix / norms


def rank_candidates(task: RetrievalTask | GradedTask) -> dict[str, list[str]]:
    """Per query: candidate ids sorted by descending cosine, ties by id."""
    if not task.candidates:
        raise DataError("E_EMPTY_CANDIDATES", "no candidates to rank")
    if not task.queries:
        raise DataError("E_EMPTY_CANDIDATES", "no queries to rank")
    query_ids, query_mat = _unit_rows(task.queries)
    cand_ids, cand_mat = _unit_rows(task.candidates)
    sims = query_mat @ cand_mat.T
    order_by_id = np.argsort(np.array(cand_ids, dtype=object), kind="stable")
    rankings: dict[str, list[str]] = {}
    for qi, qid in enumerate(query_ids):
        # Stable sort over id-sorted candidates implements the tie rule.
        by_sim = order_by_id[np.argsort(-sims[qi][order_by_id], kind="stable")]
        rankings[qid] = [cand_ids[ci] for ci in by_sim]
    return rankings


def _gold_rank(ranking: list[str], gold_id: str) -> int:
    return ranking.index(gold_id) + 1


def accuracy_at_k(rankings: Mapping[str, list[str]], gold: Mapping[str, str], k: int) -> float:
    """Fraction of queries whose gold candidate appears in the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")
    hits = sum(1 for qid, ranking in rankings.items() if _gold_rank(ranking, gold[qid]) <= k)
    return hits / len(rankings)


def mean_reciprocal_rank(rankings: Mapping[str, list[str]], gold: Mapping[str, str]) -> float:
    """Mean of 1 / rank(gold) over all queries."""
    return math.fsum(1.0 / _gold_rank(ranking, gold[qid]) for qid, ranking in rankings.items()) / len(rankings)


def mean_positive_similarity(task: RetrievalTask) -> tuple[float, float]:
    """Mean and population SD of cosine(query, gold candidate)."""
    if not task.queries:
        raise DataError("E_EMPTY_CANDIDATES", "no queries")
    _, query_mat = _unit_rows(task.queries)
    cand_ids, cand_mat = _unit_rows(task.candidates)
    index = {cid: i for i, cid in enumerate(cand_ids)}
    sims = np.array(
        [query_mat[qi] @ cand_mat[index[task.gold[qid]]] for qi, (qid, _) in enumerate(task.queries)]
    )
    return float(sims.mean()), float(np.sqrt(np.mean((sims - sims.mean()) ** 2)))


def _gain(grade: int, gain: str) -> float:
    if gain == GAIN_LINEAR:
        return float(grade)
    if gain == GAIN_EXP:
        return float(2**grade - 1)
    raise DataError("E_BAD_GAIN", f"gain must be 'linear' or 'exp', got {gain!r}")


def _group_relevant(qrels: Mapping[tuple[str, str], int]) -> dict[str, dict[str, int]]:
    by_query: dict[str, dict[str, int]] = {}
    for (qid, cid), grade in qrels.items():
        if grade > 0:
            by_query.setdefault(qid, {})[cid] = grade
    return by_query


def ndcg_at_10(
    rankings: Mapping[str, list[str]],
    qrels: Mapping[tuple[str, str], int],
    gain: str = GAIN_LINEAR,
) -> float:
    """Mean NDCG at cutoff 10 over queries that have relevant candidates."""
    by_query = _group_relevant(qrels)
    scores: list[float] = []
    for qid, ranking in rankings.items():
        relevant = by_query.get(qid)
        if not relevant:
            continue
        dcg = 0.0
        for i, cid in enumerate(ranking[:NDCG_CUTOFF], start=1):
            if cid in relevant:
                dcg += _gain(relevant[cid], gain) / math.log2(i + 1)
        ideal = sorted(relevant.values(), reverse=True)[:NDCG_CUTOFF]
        idcg = sum(_gain(g, gain) / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
        scores.append(dcg / idcg)
    if not scores:
        raise DataError("E_NO_RELEVANT", "no query has a relevant candidate")
    return math.fsum(scores) / len(scores)


def recall_at_k(
    rankings: Mapping[str, list[str]],
    qrels: Mapping[tuple[str, str], int],
    k: int,
) -> float:
    """Mean fraction of each query's relevant candidates found in the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")
    by_query = _group_relevant(qrels)
    scores: list[float] = []
    for qid, ranking in rankings.items():
        relevant = by_query.get(qid)
        if not relevant:
            continue
        found = sum(1 for cid in ranking[:k] if cid in relevant)
        scores.append(found / len(relevant))
    if not scores:
        raise DataError("E_NO_RELEVANT", "no query has a relevant candidate")
    return math.fsum(scores) / len(scores)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values receive the mean of their rank range."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(predicted: Sequence[float], gold: Sequence[float]) -> float:
    """Pearson correlation of average ranks."""
    if len(predicted) != len(gold):
        raise DataError("E_LENGTH_MISMATCH", f"{len(predicted)} predicted vs {len(gold)} gold")
    if len(predicted) < 3:
        raise DataError("E_LENGTH_MISMATCH", "need at least 3 pairs for a defined correlation")
    rp = _average_ranks(predicted)
    rg = _average_ranks(gold)
    if np.all(rp == rp[0]) or np.all(rg == rg[0]):
        raise DataError("E_DEGENERATE", "all values equal on one side")
    rp -= rp.mean()
    rg -= rg.mean()
    return float(np.dot(rp, rg) / (np.linalg.norm(rp) * np.linalg.norm(rg)))


def evaluate(
    retrieval: RetrievalTask | None = None,
    graded: GradedTask | None = None,
    sts: STSTask | None = None,
    ks: Sequence[int] = (1, 5, 10),
    gain: str = GAIN_LINEAR,
) -> MetricReport:
    """Compute every applicable metric for the supplied tasks."""
    report = MetricReport(gain=gain)
    if retrieval is not None:
        rankings = rank_candidates(retrieval)
        report.n_queries += len(rankings)
        report.acc_at = {k: accuracy_at_k(rankings, retrieval.gold, k) for k in ks}
        report.mrr = mean_reciprocal_rank(rankings, retrieval.gold)
        report.mean_pos_sim, report.sd_pos_sim = mean_positive_similarity(retrieval)
    if graded is not None:
        rankings = rank_candidates(graded)
        by_query = _group_relevant(graded.qrels)
        report.n_queries += len(rankings)
        report.n_skipped_no_relevant = sum(1 for qid, _ in graded.queries if not by_query.get(qid))
        report.ndcg_at_10 = ndcg_at_10(rankings, graded.qrels, gain)
        report.recall_at = {k: recall_at_k(rankings, graded.qrels, k) for k in ks}
    if sts is not None:
        if len(sts.pairs) < 3:
            raise DataError("E_LENGTH_MISMATCH", "need at least 3 pairs for a defined correlation")
        predicted = []
        for u, v, _ in sts.pairs:
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0.0 or nv == 0.0:
                raise DataError("E_EMPTY_CANDIDATES", "zero vector in STS pair")
            predicted.append(float(np.dot(u, v) / (nu * nv)))
        report.spearman = spearman_rho(predicted, [g for _, _, g in sts.pairs])
        report.n_queries += len(sts.pairs)
    return report
