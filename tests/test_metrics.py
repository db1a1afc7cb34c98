"""Metrics against naive recomputation oracles and invariance properties."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from minembed.errors import DataError
from minembed.metrics import (
    GradedTask,
    MetricReport,
    RetrievalTask,
    STSTask,
    accuracy_at_k,
    evaluate,
    mean_positive_similarity,
    mean_reciprocal_rank,
    ndcg_at_10,
    rank_candidates,
    recall_at_k,
    spearman_rho,
)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_retrieval_task(rng: np.random.Generator, n_queries=20, n_candidates=50, dim=8) -> RetrievalTask:
    candidates = [(f"c{j:03d}", rng.normal(size=dim)) for j in range(n_candidates)]
    queries = [(f"q{i:03d}", rng.normal(size=dim)) for i in range(n_queries)]
    gold = {qid: f"c{rng.integers(n_candidates):03d}" for qid, _ in queries}
    return RetrievalTask(queries=queries, candidates=candidates, gold=gold)


def random_graded_task(rng: np.random.Generator, n_queries=10, n_candidates=40, dim=6) -> GradedTask:
    candidates = [(f"c{j:03d}", rng.normal(size=dim)) for j in range(n_candidates)]
    queries = [(f"q{i:03d}", rng.normal(size=dim)) for i in range(n_queries)]
    qrels = {}
    for qid, _ in queries:
        for j in rng.choice(n_candidates, size=rng.integers(1, 6), replace=False):
            qrels[(qid, f"c{j:03d}")] = int(rng.integers(0, 4))
    return GradedTask(queries=queries, candidates=candidates, qrels=qrels)


def axis_vectors(rng: np.random.Generator, n: int, dim=3) -> list[np.ndarray]:
    """Rows of +-identity: every cosine is exactly -1, 0 or 1, so most candidates tie."""
    return [rng.choice([-1.0, 1.0]) * np.eye(dim)[rng.integers(dim)] for _ in range(n)]


def tied_retrieval_task(rng: np.random.Generator, n_queries=12, n_candidates=30) -> RetrievalTask:
    # Ids in shuffled order, so the id tie-break is not the pool order.
    cand_ids = [f"c{j:03d}" for j in rng.permutation(n_candidates)]
    candidates = list(zip(cand_ids, axis_vectors(rng, n_candidates)))
    queries = [(f"q{i:03d}", v) for i, v in enumerate(axis_vectors(rng, n_queries))]
    gold = {qid: cand_ids[rng.integers(n_candidates)] for qid, _ in queries}
    return RetrievalTask(queries=queries, candidates=candidates, gold=gold)


def tied_graded_task(rng: np.random.Generator) -> GradedTask:
    task = tied_retrieval_task(rng)
    qrels = {(qid, cid): int(rng.integers(0, 4)) for qid, _ in task.queries for cid, _ in task.candidates[::4]}
    qrels[(task.queries[0][0], "not-in-pool")] = 2  # counted as relevant, never ranked
    return GradedTask(queries=task.queries, candidates=task.candidates, qrels=qrels)


# -- naive oracles -------------------------------------------------------------


def naive_rankings(task) -> dict[str, list[str]]:
    out = {}
    for qid, q in task.queries:
        scored = []
        for cid, c in task.candidates:
            sim = float(np.dot(q, c) / (np.linalg.norm(q) * np.linalg.norm(c)))
            scored.append((cid, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        out[qid] = [cid for cid, _ in scored]
    return out


def naive_ranks(task) -> dict[str, dict[str, int]]:
    """Each judged candidate's rank read off the naive full sort as index + 1."""
    if isinstance(task, GradedTask):
        judged = {pair for pair, grade in task.qrels.items() if grade > 0}
    else:
        judged = set(task.gold.items())
    return {
        qid: {cid: i + 1 for i, cid in enumerate(ranking) if (qid, cid) in judged}
        for qid, ranking in naive_rankings(task).items()
    }


def naive_acc_at_k(rankings, gold, k):
    return sum(1 for q in rankings if rankings[q].index(gold[q]) < k) / len(rankings)


def naive_mrr(rankings, gold):
    return sum(1.0 / (rankings[q].index(gold[q]) + 1) for q in rankings) / len(rankings)


def naive_ndcg10(rankings, qrels, gain="linear"):
    def g(r):
        return float(r) if gain == "linear" else float(2**r - 1)

    values = []
    for qid, ranking in rankings.items():
        rel = {cid: grade for (q, cid), grade in qrels.items() if q == qid and grade > 0}
        if not rel:
            continue
        dcg = sum(g(rel[cid]) / math.log2(i + 2) for i, cid in enumerate(ranking[:10]) if cid in rel)
        ideal = sorted(rel.values(), reverse=True)[:10]
        idcg = sum(g(r) / math.log2(i + 2) for i, r in enumerate(ideal))
        values.append(dcg / idcg)
    return sum(values) / len(values)


def naive_recall_at_k(rankings, qrels, k):
    values = []
    for qid, ranking in rankings.items():
        rel = {cid for (q, cid), grade in qrels.items() if q == qid and grade > 0}
        if not rel:
            continue
        values.append(len(rel & set(ranking[:k])) / len(rel))
    return sum(values) / len(values)


# -- rank_candidates ------------------------------------------------------------


def test_identical_vector_ranked_first():
    q = unit([1.0, 2.0, 3.0])
    task = RetrievalTask(
        queries=[("q", q)],
        candidates=[("a", unit([3.0, -1.0, 0.2])), ("b", q.copy()), ("c", unit([-1.0, 0.5, 0.1]))],
        gold={"q": "b"},
    )
    assert rank_candidates(task)["q"] == {"b": 1}


def test_tie_broken_by_candidate_id():
    v = unit([1.0, 0.0])
    task = GradedTask(
        queries=[("q", v)],
        candidates=[("z", v.copy()), ("a", v.copy()), ("m", v.copy())],
        qrels={("q", "z"): 1, ("q", "a"): 1, ("q", "m"): 1},
    )
    assert rank_candidates(task)["q"] == {"a": 1, "m": 2, "z": 3}


def test_rankings_match_naive_sort():
    rng = np.random.default_rng(0)
    tasks = [random_retrieval_task(rng), random_graded_task(rng), tied_retrieval_task(rng), tied_graded_task(rng)]
    for task in tasks:
        assert rank_candidates(task) == naive_ranks(task)


def test_duplicate_candidate_rejected():
    v = unit([1.0, 2.0])
    task = RetrievalTask(queries=[("q", v)], candidates=[("a", v), ("b", -v), ("a", v)], gold={"q": "a"})
    for score in (rank_candidates, mean_positive_similarity):
        with pytest.raises(DataError) as err:
            score(task)
        assert err.value.code == "E_DUPLICATE_CANDIDATE" and "'a'" in str(err.value)


def test_empty_candidates_rejected():
    with pytest.raises(DataError) as err:
        rank_candidates(RetrievalTask(queries=[("q", np.ones(2))], candidates=[], gold={}))
    assert err.value.code == "E_EMPTY_CANDIDATES"


def test_ranking_invariant_under_rescaling():
    rng = np.random.default_rng(5)
    task = random_retrieval_task(rng)
    scaled = RetrievalTask(
        queries=[(qid, 3.7 * v) for qid, v in task.queries],
        candidates=[(cid, 3.7 * v) for cid, v in task.candidates],
        gold=task.gold,
    )
    assert rank_candidates(task) == rank_candidates(scaled)


# -- accuracy / MRR ---------------------------------------------------------------


def fixed_rankings():
    # gold ranks: q1 -> 1, q2 -> 3, q3 -> 12
    rankings = {"q1": {"g1": 1}, "q2": {"g2": 3}, "q3": {"g3": 12}}
    gold = {"q1": "g1", "q2": "g2", "q3": "g3"}
    return rankings, gold


def test_accuracy_at_k_direct_counts():
    rankings, gold = fixed_rankings()
    assert accuracy_at_k(rankings, gold, 1) == pytest.approx(1 / 3)
    assert accuracy_at_k(rankings, gold, 5) == pytest.approx(2 / 3)
    assert accuracy_at_k(rankings, gold, 10) == pytest.approx(2 / 3)
    assert accuracy_at_k(rankings, gold, 12) == pytest.approx(1.0)


def test_accuracy_all_rank_one():
    rankings = {f"q{i}": {f"g{i}": 1} for i in range(4)}
    gold = {f"q{i}": f"g{i}" for i in range(4)}
    for k in (1, 2, 5):
        assert accuracy_at_k(rankings, gold, k) == 1.0


def test_accuracy_k_beyond_pool_is_one():
    rankings, gold = fixed_rankings()
    assert accuracy_at_k(rankings, gold, 1000) == 1.0


def test_mrr_hand_value():
    rankings = {"q1": {"g1": 1}, "q2": {"g2": 2}, "q3": {"g3": 4}}
    gold = {"q1": "g1", "q2": "g2", "q3": "g3"}
    assert mean_reciprocal_rank(rankings, gold) == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_mrr_all_rank_one_is_one():
    rankings = {f"q{i}": {f"g{i}": 1} for i in range(3)}
    gold = {f"q{i}": f"g{i}" for i in range(3)}
    assert mean_reciprocal_rank(rankings, gold) == 1.0


def test_metrics_match_naive_on_random_tasks():
    rng = np.random.default_rng(1)
    tasks = [
        random_retrieval_task(rng, n_queries=int(rng.integers(2, 30)), n_candidates=int(rng.integers(5, 80)))
        for _ in range(20)
    ]
    for task in [*tasks, tied_retrieval_task(rng)]:
        ranks, naive = rank_candidates(task), naive_rankings(task)
        for k in (1, 3, 10):
            assert abs(accuracy_at_k(ranks, task.gold, k) - naive_acc_at_k(naive, task.gold, k)) <= 1e-9
        assert abs(mean_reciprocal_rank(ranks, task.gold) - naive_mrr(naive, task.gold)) <= 1e-9


def test_acc1_le_mrr_le_accmax():
    rng = np.random.default_rng(2)
    for _ in range(20):
        task = random_retrieval_task(rng)
        rankings = rank_candidates(task)
        acc1 = accuracy_at_k(rankings, task.gold, 1)
        acc_all = accuracy_at_k(rankings, task.gold, len(task.candidates))
        mrr = mean_reciprocal_rank(rankings, task.gold)
        assert acc1 - 1e-12 <= mrr <= acc_all + 1e-12
        assert acc_all == 1.0


def test_accuracy_nondecreasing_in_k():
    rng = np.random.default_rng(3)
    task = random_retrieval_task(rng)
    rankings = rank_candidates(task)
    values = [accuracy_at_k(rankings, task.gold, k) for k in range(1, len(task.candidates) + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# -- mean positive similarity -------------------------------------------------------


def test_mean_pos_sim_identical_vectors():
    v = unit([0.3, 0.4, 0.5])
    task = RetrievalTask(queries=[("q", v)], candidates=[("c", v.copy())], gold={"q": "c"})
    mean, sd = mean_positive_similarity(task)
    assert mean == pytest.approx(1.0)
    assert sd == pytest.approx(0.0, abs=1e-12)


def test_mean_pos_sim_hand_case():
    # Two pairs with sims 0.8 and 1.0: mean 0.9, population SD 0.1.
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    c1 = 0.8 * e1 + math.sqrt(1 - 0.64) * e2
    task = RetrievalTask(
        queries=[("q1", e1), ("q2", e2)],
        candidates=[("c1", c1), ("c2", e2.copy())],
        gold={"q1": "c1", "q2": "c2"},
    )
    mean, sd = mean_positive_similarity(task)
    assert mean == pytest.approx(0.9)
    assert sd == pytest.approx(0.1)


def test_mean_pos_sim_matches_naive():
    rng = np.random.default_rng(4)
    task = random_retrieval_task(rng)
    mean, sd = mean_positive_similarity(task)
    cand = dict(task.candidates)
    sims = [
        float(np.dot(unit(q), unit(cand[task.gold[qid]])))
        for qid, q in task.queries
    ]
    assert mean == pytest.approx(sum(sims) / len(sims), abs=1e-9)
    assert sd == pytest.approx(math.sqrt(sum((s - mean) ** 2 for s in sims) / len(sims)), abs=1e-9)


# -- NDCG / recall ---------------------------------------------------------------------


def rankings_with_single_relevant(rank: int):
    qrels = {("q", f"c{rank - 1}"): 1}
    return {"q": {f"c{rank - 1}": rank}}, qrels


def test_ndcg_single_relevant_at_rank_three():
    rankings, qrels = rankings_with_single_relevant(3)
    assert ndcg_at_10(rankings, qrels) == pytest.approx(1.0 / math.log2(4))
    assert ndcg_at_10(rankings, qrels) == pytest.approx(0.5)


def test_ndcg_relevant_at_rank_one():
    rankings, qrels = rankings_with_single_relevant(1)
    assert ndcg_at_10(rankings, qrels) == pytest.approx(1.0)


def test_ndcg_permutations_of_graded_list():
    # All 6 orderings of grades {3, 2, 1}: identity is the unique maximum
    # at exactly 1.0.
    for gain in ("linear", "exp"):
        results = {}
        for perm in itertools.permutations([3, 2, 1]):
            ranks = {f"c{g}": r for r, g in enumerate(perm, start=1)}
            qrels = {("q", "c3"): 3, ("q", "c2"): 2, ("q", "c1"): 1}
            results[perm] = ndcg_at_10({"q": ranks}, qrels, gain=gain)
        assert results[(3, 2, 1)] == pytest.approx(1.0, abs=1e-12)
        assert all(v <= 1.0 + 1e-12 for v in results.values())
        assert all(results[p] < 1.0 for p in results if p != (3, 2, 1))


def test_ndcg_no_relevant_query_skipped():
    rankings = {"q1": {"a": 1}, "q2": {}}
    qrels = {("q1", "a"): 1, ("q2", "a"): 0}
    assert ndcg_at_10(rankings, qrels) == pytest.approx(1.0)
    with pytest.raises(DataError) as err:
        ndcg_at_10({"q2": {}}, {("q2", "a"): 0})
    assert err.value.code == "E_NO_RELEVANT"


def test_ndcg_matches_naive():
    rng = np.random.default_rng(6)
    for task in [*(random_graded_task(rng) for _ in range(10)), tied_graded_task(rng)]:
        ranks, naive = rank_candidates(task), naive_rankings(task)
        for gain in ("linear", "exp"):
            assert abs(ndcg_at_10(ranks, task.qrels, gain) - naive_ndcg10(naive, task.qrels, gain)) <= 1e-9


def test_unknown_gain_rejected():
    rankings, qrels = rankings_with_single_relevant(3)
    with pytest.raises(DataError) as err:
        ndcg_at_10(rankings, qrels, gain="x")
    assert err.value.code == "E_BAD_GAIN" and "'x'" in str(err.value)


def test_cutoff_below_one_rejected():
    rankings, gold = fixed_rankings()
    graded, qrels = rankings_with_single_relevant(3)
    for score in (lambda: accuracy_at_k(rankings, gold, 0), lambda: recall_at_k(graded, qrels, 0)):
        with pytest.raises(DataError) as err:
            score()
        assert err.value.code == "E_BAD_K" and "got 0" in str(err.value)


def test_recall_half_found():
    rankings = {"q": {"c0": 1, "c15": 16}}
    qrels = {("q", "c0"): 1, ("q", "c15"): 2}
    assert recall_at_k(rankings, qrels, 10) == pytest.approx(0.5)


def test_recall_all_found():
    rankings = {"q": {"c0": 1, "c3": 4}}
    qrels = {("q", "c0"): 1, ("q", "c3"): 2}
    assert recall_at_k(rankings, qrels, 5) == pytest.approx(1.0)


def test_recall_matches_naive():
    rng = np.random.default_rng(7)
    for task in [*(random_graded_task(rng) for _ in range(10)), tied_graded_task(rng)]:
        ranks, naive = rank_candidates(task), naive_rankings(task)
        for k in (1, 5, 10):
            assert abs(recall_at_k(ranks, task.qrels, k) - naive_recall_at_k(naive, task.qrels, k)) <= 1e-9


# -- Spearman ---------------------------------------------------------------------------


def test_spearman_monotone_is_one():
    assert spearman_rho([0.1, 0.2, 0.3], [1, 2, 3]) == pytest.approx(1.0)


def test_spearman_reversed_is_minus_one():
    assert spearman_rho([0.3, 0.2, 0.1], [1, 2, 3]) == pytest.approx(-1.0)


def test_spearman_ties_average_rank():
    # Hand-ranked oracle: predicted ranks (1.5, 1.5, 3), gold ranks
    # (1.5, 1.5, 3): correlation 1.0 under the average-rank convention.
    assert spearman_rho([0.5, 0.5, 0.9], [1, 1, 2]) == pytest.approx(1.0)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        if rng.random() < 0.4:
            x = np.round(x)  # force ties
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        ours = spearman_rho(list(x), list(y))
        reference = scipy_stats.spearmanr(x, y).statistic
        assert ours == pytest.approx(reference, abs=1e-9)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    x = list(rng.normal(size=15))
    y = list(rng.normal(size=15))
    base = spearman_rho(x, y)
    assert spearman_rho([math.exp(v) for v in x], y) == pytest.approx(base, abs=1e-12)
    assert spearman_rho([3 * v + 7 for v in x], y) == pytest.approx(base, abs=1e-12)


def test_spearman_validations():
    with pytest.raises(DataError) as err:
        spearman_rho([1, 2], [1, 2, 3])
    assert err.value.code == "E_LENGTH_MISMATCH"
    with pytest.raises(DataError):
        spearman_rho([1, 2], [1, 2])
    with pytest.raises(DataError) as err:
        spearman_rho([1, 1, 1], [1, 2, 3])
    assert err.value.code == "E_DEGENERATE"


# -- evaluate orchestration ----------------------------------------------------------------


def test_evaluate_perfect_embeddings():
    dim = 6
    queries = [(f"q{i}", np.eye(dim)[i]) for i in range(4)]
    candidates = [(f"c{i}", np.eye(dim)[i]) for i in range(4)]
    gold = {f"q{i}": f"c{i}" for i in range(4)}
    report = evaluate(retrieval=RetrievalTask(queries=queries, candidates=candidates, gold=gold))
    assert report.acc_at[1] == 1.0
    assert report.mrr == 1.0
    assert report.mean_pos_sim == pytest.approx(1.0)


def test_evaluate_empty_queries_rejected():
    task = RetrievalTask(queries=[], candidates=[("c", np.ones(3))], gold={})
    with pytest.raises(DataError) as err:
        evaluate(retrieval=task)
    assert err.value.code == "E_EMPTY_CANDIDATES"


def test_evaluate_full_report_fields():
    rng = np.random.default_rng(10)
    retrieval = random_retrieval_task(rng)
    graded = random_graded_task(rng)
    sts = STSTask(pairs=[(rng.normal(size=4), rng.normal(size=4), float(rng.random())) for _ in range(8)])
    report = evaluate(retrieval=retrieval, graded=graded, sts=sts, ks=(1, 5))
    data = report.to_dict()
    assert set(data["acc_at"]) == {"1", "5"}
    assert 0.0 <= data["acc_at"]["1"] <= 1.0
    assert 0.0 < data["mrr"] <= 1.0
    assert 0.0 <= data["ndcg_at_10"] <= 1.0
    assert all(0.0 <= v <= 1.0 for v in data["recall_at"].values())
    assert -1.0 <= data["spearman"] <= 1.0


def test_duplicate_query_ids_rejected():
    v = np.ones(2)
    with pytest.raises(DataError) as err:
        RetrievalTask(queries=[("q1", v), ("q2", v), ("q1", v)], candidates=[("c1", v), ("c2", v), ("c3", v)],
                      gold={"q1": "c3", "q2": "c2"})
    assert err.value.code == "E_DUPLICATE_QUERY" and "'q1'" in str(err.value)


def test_gold_target_must_exist():
    with pytest.raises(DataError):
        RetrievalTask(queries=[("q", np.ones(2))], candidates=[("c", np.ones(2))], gold={"q": "missing"})
