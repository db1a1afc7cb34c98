"""Retrieval and similarity metrics over brute-force cosine rankings.

Covers Acc@K, MRR, mean positive similarity, NDCG@10 (linear or
exponential gain), Recall@K, and Spearman correlation. Candidate ties are
broken by ascending candidate id so rankings are deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .choices import GAIN_EXP, GAIN_LINEAR
from .errors import DataError

NDCG_CUTOFF = 10
# Per query id: the 1-based rank of each judged candidate id (see rank_candidates).
Ranks = Mapping[str, Mapping[str, int]]


@dataclass(frozen=True)
class RetrievalTask:
    """Queries ranked against a shared candidate pool, one gold match each.

    Frozen, and it keeps copies: ``queries`` and ``candidates`` as tuples and
    ``gold`` read-only, so the rules checked when it is built hold for its life.
    """

    queries: Sequence[tuple[str, np.ndarray]]
    candidates: Sequence[tuple[str, np.ndarray]]
    gold: Mapping[str, str]

    def __post_init__(self) -> None:
        _keep_copies(self)
        object.__setattr__(self, "gold", MappingProxyType(dict(self.gold)))
        cand_ids = _check_ids(self)
        missing = [g for g in self.gold.values() if g not in cand_ids]
        if missing:
            raise DataError("E_EMPTY_CANDIDATES", f"gold targets missing from candidates: {missing[:5]}")
        no_gold = [qid for qid, _ in self.queries if qid not in self.gold]
        if no_gold:
            raise DataError("E_MISSING_GOLD", f"queries without a gold candidate: {no_gold[:5]}")


class _Qrels(Mapping):
    """A read-only copy of graded judgments that groups its relevant ones by query once."""

    def __init__(self, qrels: Mapping[tuple[str, str], float]) -> None:
        self._pairs = dict(qrels)
        self.relevant = _group_relevant(self._pairs)

    def __getitem__(self, pair: tuple[str, str]) -> float:
        return self._pairs[pair]

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


@dataclass(frozen=True)
class GradedTask:
    """Queries with graded relevance judgments instead of a single gold id;
    frozen, with tuples and a read-only ``qrels``, as a ``RetrievalTask``.
    ``qrels`` also keeps its relevant judgments grouped by query, so every
    metric of the task reads one grouping."""

    queries: Sequence[tuple[str, np.ndarray]]
    candidates: Sequence[tuple[str, np.ndarray]]
    qrels: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        _keep_copies(self)
        object.__setattr__(self, "qrels", _Qrels(self.qrels))
        _check_ids(self)


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


def _keep_copies(task: RetrievalTask | GradedTask) -> None:
    """Stores a frozen task's pairs as tuples."""
    object.__setattr__(task, "queries", tuple(task.queries))
    object.__setattr__(task, "candidates", tuple(task.candidates))


def _check_ids(task: RetrievalTask | GradedTask) -> dict[str, int]:
    """Each candidate id's place in the pool; rejects a repeated query, an empty side or a repeated candidate."""
    seen: set[str] = set()
    for qid, _ in task.queries:
        if qid in seen:
            raise DataError("E_DUPLICATE_QUERY", f"query id {qid!r} appears more than once")
        seen.add(qid)
    if not task.candidates:
        raise DataError("E_EMPTY_CANDIDATES", "no candidates to rank")
    if not task.queries:
        raise DataError("E_EMPTY_CANDIDATES", "no queries to rank")
    index = {cid: ci for ci, (cid, _) in enumerate(task.candidates)}
    if len(index) != len(task.candidates):
        repeated = next(cid for ci, (cid, _) in enumerate(task.candidates) if index[cid] != ci)
        raise DataError("E_DUPLICATE_CANDIDATE", f"candidate id {repeated!r} appears more than once")
    return index


def rank_candidates(task: RetrievalTask | GradedTask, depth: int | None = None) -> dict[str, dict[str, int]]:
    """Per query: the 1-based rank of each judged candidate in the pool.

    Judged: the gold of a RetrievalTask, or each candidate graded above 0 in
    a GradedTask; one missing from the pool gets no rank. A candidate with
    cosine s ranks 1 + #(cos > s) + #(cos == s and id < its id), its place
    in descending cosine order with ties broken by ascending id.

    With ``depth``, only judged candidates ranked at most ``depth`` are kept,
    each with the same rank; every query keeps its key, even with no rank left.
    """
    cand_ids = [cid for cid, _ in task.candidates]
    index = {cid: ci for ci, cid in enumerate(cand_ids)}
    judged = _group_relevant(task.qrels) if isinstance(task, GradedTask) else {q: [task.gold[q]] for q, _ in task.queries}
    sims = _unit_rows(task.queries) @ _unit_rows(task.candidates).T
    limit = math.inf if depth is None else depth
    ranks: dict[str, dict[str, int]] = {}
    for (qid, _), row in zip(task.queries, sims):
        ranked = ranks[qid] = {}
        cols = [index[cid] for cid in judged.get(qid, ()) if cid in index]
        # Descending cosine, a NaN first since nothing compares above it: once one judged
        # candidate has limit cosines above it, every later one does too.
        cols.sort(key=lambda ci: (row[ci] != row[ci], row[ci]), reverse=True)
        for ci in cols:
            s = row[ci]
            above = int(np.count_nonzero(row > s))
            if above >= limit:
                break
            rank = 1 + above
            if np.count_nonzero(row >= s) > above + 1:  # another candidate at exactly s
                rank += int(sum(cand_ids[cj] < cand_ids[ci] for cj in np.flatnonzero(row == s)))
            if rank <= limit:  # a tie can rank past limit with fewer than limit cosines above it
                ranked[cand_ids[ci]] = rank
    return ranks


def _gold_ranks(ranks: Ranks, gold: Mapping[str, str]) -> list[int]:
    """Each ranked query's gold rank; rejects no ranked query, or one whose gold is missing or unranked."""
    if not ranks:
        raise DataError("E_NO_RELEVANT", "no ranked query to score")
    try:
        return [by_cand[gold[qid]] for qid, by_cand in ranks.items()]
    except KeyError:
        qid = next(q for q, by_cand in ranks.items() if gold.get(q) not in by_cand)
        raise DataError("E_MISSING_GOLD", f"query {qid!r} has no ranked gold candidate") from None


def accuracy_at_k(ranks: Ranks, gold: Mapping[str, str], k: int) -> float:
    """Fraction of queries whose gold candidate ranks within the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")
    gold_ranks = _gold_ranks(ranks, gold)
    return sum(1 for r in gold_ranks if r <= k) / len(gold_ranks)


def mean_reciprocal_rank(ranks: Ranks, gold: Mapping[str, str]) -> float:
    """Mean of 1 / rank(gold) over all queries."""
    gold_ranks = _gold_ranks(ranks, gold)
    return math.fsum(1.0 / r for r in gold_ranks) / len(gold_ranks)


def mean_positive_similarity(task: RetrievalTask) -> tuple[float, float]:
    """Mean and population SD of cosine(query, gold candidate)."""
    cand = dict(task.candidates)
    query_mat, gold_mat = _unit_rows(task.queries), _unit_rows([(q, cand[task.gold[q]]) for q, _ in task.queries])
    # One dot per query: reading these off the GEMM's similarity matrix changes the last bit.
    sims = np.array([q @ g for q, g in zip(query_mat, gold_mat)])
    return float(sims.mean()), float(np.sqrt(np.mean((sims - sims.mean()) ** 2)))


def _gain(grade: int, gain: str) -> float:
    """A grade's gain as a float, or inf where it is past the largest float."""
    if gain == GAIN_LINEAR:
        return float(grade) if grade <= sys.float_info.max else math.inf
    if gain == GAIN_EXP:
        # 2**grade - 1 is past the largest float from grade max_exp (1024) on; a huge grade
        # would make that integer itself costly, so the grade is checked first.
        return float(2**grade - 1) if grade < sys.float_info.max_exp else math.inf
    raise DataError("E_BAD_GAIN", f"gain must be 'linear' or 'exp', got {gain!r}")


def _group_relevant(qrels: Mapping[tuple[str, str], float]) -> Mapping[str, dict[str, float]]:
    """Per query id, its candidates graded above 0 and their grades, in ``qrels`` order."""
    if isinstance(qrels, _Qrels):
        return qrels.relevant
    by_query: dict[str, dict[str, float]] = {}
    for (qid, cid), grade in qrels.items():
        if grade > 0:
            by_query.setdefault(qid, {})[cid] = grade
    return by_query


def _mean_over_relevant(ranks: Ranks, by_query: Mapping[str, dict[str, float]], score: Callable) -> float:
    """Mean of score(query's ranks, its relevant grades or gains) over queries with relevant candidates."""
    scores = [score(by_cand, by_query[qid]) for qid, by_cand in ranks.items() if by_query.get(qid)]
    if not scores:
        raise DataError("E_NO_RELEVANT", "no query has a relevant candidate")
    return math.fsum(scores) / len(scores)


def ndcg_at_10(ranks: Ranks, qrels: Mapping[tuple[str, str], int], gain: str = GAIN_LINEAR) -> float:
    """Mean NDCG at cutoff 10 over queries that have relevant candidates.

    Every relevant pair's gain is taken before any query is scored: one that a
    float cannot hold, or a query's ideal DCG that is not finite, is E_BAD_GRADE.
    """
    # Per query, each relevant candidate's gain, kept only if above 0 as its grade is.
    gains = {qid: {cid: g for cid, grade in relevant.items() if (g := _gain(grade, gain)) > 0}
             for qid, relevant in _group_relevant(qrels).items()}
    if any(g == math.inf for relevant in gains.values() for g in relevant.values()):
        huge = [pair for pair, grade in qrels.items() if grade > 0 and _gain(grade, gain) == math.inf]
        raise DataError("E_BAD_GRADE", f"grades whose {gain} gain is past the largest float, at pairs {huge[:5]}")

    def ndcg(by_cand: Mapping[str, int], relevant: dict[str, float]) -> float:
        dcg = 0.0
        for rank, cid in sorted((r, cid) for cid, r in by_cand.items() if r <= NDCG_CUTOFF and cid in relevant):
            dcg += relevant[cid] / math.log2(rank + 1)
        ideal = sorted(relevant.values(), reverse=True)[:NDCG_CUTOFF]
        ideal_dcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
        if not math.isfinite(ideal_dcg):
            judged = sorted(relevant)[:5]
            raise DataError("E_BAD_GRADE", f"ideal DCG past the largest float for a query judging {judged}")
        return dcg / ideal_dcg

    return _mean_over_relevant(ranks, gains, ndcg)


def recall_at_k(ranks: Ranks, qrels: Mapping[tuple[str, str], int], k: int) -> float:
    """Mean fraction of each query's relevant candidates ranked within the top k."""
    if k < 1:
        raise DataError("E_BAD_K", f"k must be >= 1, got {k}")

    def recall(by_cand: Mapping[str, int], relevant: dict[str, int]) -> float:
        return sum(1 for cid, r in by_cand.items() if r <= k and cid in relevant) / len(relevant)

    return _mean_over_relevant(ranks, _group_relevant(qrels), recall)


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
        # NDCG@10 and Recall@K read no rank past the largest cutoff; a list, as ks may be empty.
        ranks = rank_candidates(graded, depth=max([NDCG_CUTOFF, *ks]))
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
