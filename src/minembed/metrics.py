"""Retrieval and similarity metrics over brute-force cosine rankings.

Covers Acc@K, MRR, mean positive similarity, NDCG@10 (linear or
exponential gain), Recall@K, and Spearman correlation. Candidate ties are
broken by ascending candidate id so rankings are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError

GAIN_LINEAR = "linear"
GAIN_EXP = "exp"
NDCG_CUTOFF = 10
# Per query id: the 1-based rank of each judged candidate id (see rank_candidates).
Ranks = Mapping[str, Mapping[str, int]]


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
        # String cutoffs, so json's sort_keys orders them "1", "10", "5" as reports always have.
        return {
            **asdict(self),
            "acc_at": {str(k): v for k, v in sorted(self.acc_at.items())},
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
        }


def _unit_rows(pairs: Sequence[tuple[str, np.ndarray]]) -> np.ndarray:
    matrix = np.asarray([vec for _, vec in pairs], dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DataError("E_EMPTY_CANDIDATES", "zero vector in task embeddings")
    return matrix / norms


def _unit_task(task: RetrievalTask | GradedTask) -> tuple[np.ndarray, np.ndarray, list[str], dict[str, int]]:
    """Unit query and candidate rows, candidate ids and their index; rejects an empty side or a repeated candidate."""
    if not task.candidates:
        raise DataError("E_EMPTY_CANDIDATES", "no candidates to rank")
    if not task.queries:
        raise DataError("E_EMPTY_CANDIDATES", "no queries to rank")
    query_mat, cand_mat = _unit_rows(task.queries), _unit_rows(task.candidates)
    cand_ids = [cid for cid, _ in task.candidates]
    index = {cid: ci for ci, cid in enumerate(cand_ids)}
    if len(index) != len(cand_ids):
        repeated = next(cid for ci, cid in enumerate(cand_ids) if index[cid] != ci)
        raise DataError("E_DUPLICATE_CANDIDATE", f"candidate id {repeated!r} appears more than once")
    return query_mat, cand_mat, cand_ids, index


def rank_candidates(task: RetrievalTask | GradedTask) -> dict[str, dict[str, int]]:
    """Per query: the 1-based rank of each judged candidate in the pool.

    Judged: the gold of a RetrievalTask, or each candidate graded above 0 in
    a GradedTask; one missing from the pool gets no rank. A candidate with
    cosine s ranks 1 + #(cos > s) + #(cos == s and id < its id), its place
    in descending cosine order with ties broken by ascending id.
    """
    query_mat, cand_mat, cand_ids, index = _unit_task(task)
    judged = _group_relevant(task.qrels) if isinstance(task, GradedTask) else {q: [task.gold[q]] for q, _ in task.queries}
    sims = query_mat @ cand_mat.T
    ranks: dict[str, dict[str, int]] = {}
    for (qid, _), row in zip(task.queries, sims):
        ranks[qid] = {}
        for cid in judged.get(qid, ()):
            if cid in index:
                s = row[index[cid]]
                ties = sum(cand_ids[ci] < cid for ci in np.flatnonzero(row == s))
                ranks[qid][cid] = 1 + int(np.count_nonzero(row > s)) + ties
    return ranks


def accuracy_at_k(ranks: Ranks, gold: Mapping[str, str], k: int) -> float:
    """Fraction of queries whose gold candidate ranks within the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")
    hits = sum(1 for qid, by_cand in ranks.items() if by_cand[gold[qid]] <= k)
    return hits / len(ranks)


def mean_reciprocal_rank(ranks: Ranks, gold: Mapping[str, str]) -> float:
    """Mean of 1 / rank(gold) over all queries."""
    return math.fsum(1.0 / by_cand[gold[qid]] for qid, by_cand in ranks.items()) / len(ranks)


def mean_positive_similarity(task: RetrievalTask) -> tuple[float, float]:
    """Mean and population SD of cosine(query, gold candidate)."""
    query_mat, cand_mat, _, index = _unit_task(task)
    # One dot per query: reading these off the GEMM's similarity matrix changes the last bit.
    sims = np.array([q @ cand_mat[index[task.gold[qid]]] for (qid, _), q in zip(task.queries, query_mat)])
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


def _mean_over_relevant(ranks: Ranks, qrels: Mapping[tuple[str, str], int], score: Callable) -> float:
    """Mean of score(query's ranks, its relevant grades) over queries with relevant candidates."""
    by_query = _group_relevant(qrels)
    scores = [score(by_cand, by_query[qid]) for qid, by_cand in ranks.items() if by_query.get(qid)]
    if not scores:
        raise DataError("E_NO_RELEVANT", "no query has a relevant candidate")
    return math.fsum(scores) / len(scores)


def ndcg_at_10(ranks: Ranks, qrels: Mapping[tuple[str, str], int], gain: str = GAIN_LINEAR) -> float:
    """Mean NDCG at cutoff 10 over queries that have relevant candidates."""

    def ndcg(by_cand: Mapping[str, int], relevant: dict[str, int]) -> float:
        dcg = 0.0
        for rank, cid in sorted((r, cid) for cid, r in by_cand.items() if r <= NDCG_CUTOFF and cid in relevant):
            dcg += _gain(relevant[cid], gain) / math.log2(rank + 1)
        ideal = sorted(relevant.values(), reverse=True)[:NDCG_CUTOFF]
        return dcg / sum(_gain(g, gain) / math.log2(i + 1) for i, g in enumerate(ideal, start=1))

    return _mean_over_relevant(ranks, qrels, ndcg)


def recall_at_k(ranks: Ranks, qrels: Mapping[tuple[str, str], int], k: int) -> float:
    """Mean fraction of each query's relevant candidates ranked within the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")

    def recall(by_cand: Mapping[str, int], relevant: dict[str, int]) -> float:
        return sum(1 for cid, r in by_cand.items() if r <= k and cid in relevant) / len(relevant)

    return _mean_over_relevant(ranks, qrels, recall)


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
        ranks = rank_candidates(retrieval)
        report.n_queries += len(ranks)
        report.acc_at = {k: accuracy_at_k(ranks, retrieval.gold, k) for k in ks}
        report.mrr = mean_reciprocal_rank(ranks, retrieval.gold)
        report.mean_pos_sim, report.sd_pos_sim = mean_positive_similarity(retrieval)
    if graded is not None:
        ranks = rank_candidates(graded)
        by_query = _group_relevant(graded.qrels)
        report.n_queries += len(ranks)
        report.n_skipped_no_relevant = sum(1 for qid, _ in graded.queries if not by_query.get(qid))
        report.ndcg_at_10 = ndcg_at_10(ranks, graded.qrels, gain)
        report.recall_at = {k: recall_at_k(ranks, graded.qrels, k) for k in ks}
    if sts is not None:
        predicted = []
        for u, v, _ in sts.pairs:
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0.0 or nv == 0.0:
                raise DataError("E_EMPTY_CANDIDATES", "zero vector in STS pair")
            predicted.append(float(np.dot(u, v) / (nu * nv)))
        report.spearman = spearman_rho(predicted, [g for _, _, g in sts.pairs])
        report.n_queries += len(sts.pairs)
    return report
