"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
from scipy import stats as scipy_stats

from minembed.cli import run as cli_run
from minembed.corpus import SentenceRecord, deduplicate, normalized_form, stratified_split
from minembed.encoder import encode_batch, init_params
from minembed.metrics import (
    GradedTask,
    RetrievalTask,
    accuracy_at_k,
    mean_positive_similarity,
    mean_reciprocal_rank,
    ndcg_at_10,
    rank_candidates,
    recall_at_k,
    spearman_rho,
)
from minembed.trainer import (
    TrainConfig,
    _grad_norm,
    _infonce,
    gradient_check,
    infonce_gradient,
    infonce_loss,
    lr_at_step,
    train,
)
from minembed.triplets import NegativePolicy, Triplet, build_triplets

from conftest import role_gradients, two_cluster_records


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_batch(rng: np.random.Generator, n: int = 8) -> list[Triplet]:
    words = ["apex", "basal", "mitral", "aortic", "septal", "distal", "lateral", "anterior", "chamber", "gradient"]
    pick = lambda: " ".join(rng.choice(words, size=int(rng.integers(3, 7))))
    return [Triplet(f"a{i}", pick(), pick(), f"n{i}", pick(), "train") for i in range(n)]


def test_gradient_correctness():
    """Analytic gradients match central finite differences in both modes."""
    started = time.monotonic()
    rng = np.random.default_rng(100)
    params = init_params(100)
    worst = 0.0
    for batch_index in range(10):
        batch = _random_batch(rng)
        for lora_only in (False, True):
            config = TrainConfig(train_lora_only=lora_only, seed=batch_index)
            err = gradient_check(params, batch, h=1e-4, samples=50, config=config, seed=batch_index)
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    _verdict(
        "gradient correctness: max rel error <= 1e-4 over 10 batches, both modes, < 60 s",
        worst <= 1e-4 and elapsed < 60.0,
        f"max_rel_error={worst:.3e}, elapsed={elapsed:.1f}s",
    )


def test_loss_closed_forms():
    """Equal-logit losses hit ln 2 / ln 3; the separated case hits log(1+e^-16)."""
    a = np.array([1.0, 0.0])
    p_equal = np.array([0.0, 1.0])
    ln2 = infonce_loss([a], [p_equal], [p_equal], tau=0.05)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    ln3 = infonce_loss([v, v], [v, v], [v, v], tau=0.05)

    mpmath.mp.dps = 50
    expected_tiny = float(mpmath.log(1 + mpmath.e**-16))
    p = np.array([0.9, math.sqrt(1 - 0.81)])
    n = np.array([0.1, math.sqrt(1 - 0.01)])
    tiny = infonce_loss([a], [p], [n], tau=0.05)

    ok = (
        abs(ln2 - math.log(2.0)) <= 1e-9
        and abs(ln3 - math.log(3.0)) <= 1e-9
        and abs(tiny - expected_tiny) / expected_tiny <= 1e-12
    )
    _verdict(
        "loss closed forms: ln 2 and ln 3 within 1e-9, separated case within 1e-12 relative",
        ok,
        f"ln2 err={abs(ln2 - math.log(2)):.1e}, ln3 err={abs(ln3 - math.log(3)):.1e}, "
        f"tiny rel err={abs(tiny - expected_tiny) / expected_tiny:.1e}",
    )


def _pair_metrics(params, pairs: list[Triplet]) -> tuple[float, float]:
    anchors = encode_batch([t.anchor_text for t in pairs], params)
    positives = encode_batch([t.positive_text for t in pairs], params)
    task = RetrievalTask(
        queries=[(t.anchor_id, anchors[i]) for i, t in enumerate(pairs)],
        candidates=[(f"pos::{t.anchor_id}", positives[i]) for i, t in enumerate(pairs)],
        gold={t.anchor_id: f"pos::{t.anchor_id}" for t in pairs},
    )
    rankings = rank_candidates(task)
    return accuracy_at_k(rankings, task.gold, 1), mean_reciprocal_rank(rankings, task.gold)


def test_two_cluster_training_gain():
    """Synthetic two-cluster corpus: training lifts Acc@1 / MRR past 0.95 / 0.97.

    Corpus: 400 train sentences over two disjoint 50-word vocabularies plus
    100 held-out test pairs built by the same triplet generator. Training
    uses the default hyperparameters with batch size 32 (2 epochs); the
    encoder runs with mean pooling, which is the pooling strategy this
    experiment selects for its encoder instance.
    """
    started = time.monotonic()
    seed = 7
    records = two_cluster_records(250, seed=seed)
    vocab_sizes = {
        source: len({w for r in records if r.source_name == source for w in r.text.split()})
        for source in ("cluster-a", "cluster-b")
    }
    manifest = stratified_split(deduplicate(records), train_frac=0.8, seed=seed, test_frac=0.2)
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=seed)
    built = build_triplets(manifest, policy)
    train_triplets = [t for t in built.triplets if t.split == "train"]
    test_pairs = [t for t in built.triplets if t.split == "test"]

    params = init_params(seed, pooling="mean")
    config = TrainConfig(batch_size=32, seed=seed)
    pre_acc, pre_mrr = _pair_metrics(params, test_pairs)
    train(train_triplets, params, config)
    post_acc, post_mrr = _pair_metrics(params, test_pairs)
    elapsed = time.monotonic() - started

    ok = (
        vocab_sizes == {"cluster-a": 50, "cluster-b": 50}
        and len(train_triplets) == 400
        and len(test_pairs) == 100
        and config.epochs == 2
        and post_acc >= 0.95
        and post_mrr >= 0.97
        and pre_acc < post_acc
        and pre_mrr < post_mrr
        and elapsed < 300.0
    )
    _verdict(
        "two-cluster analog: post Acc@1 >= 0.95 and MRR >= 0.97, strictly above the untrained baseline, < 5 min",
        ok,
        f"pre acc1={pre_acc:.3f} mrr={pre_mrr:.4f} -> post acc1={post_acc:.3f} mrr={post_mrr:.4f}, "
        f"{len(train_triplets)} train / {len(test_pairs)} pairs, elapsed={elapsed:.1f}s",
    )


def _naive_retrieval_metrics(task: RetrievalTask, ks):
    rankings = {}
    for qid, q in task.queries:
        scored = []
        for cid, c in task.candidates:
            sim = float(np.dot(q, c) / (np.linalg.norm(q) * np.linalg.norm(c)))
            scored.append((cid, sim))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        rankings[qid] = [cid for cid, _ in scored]
    acc = {k: sum(1 for q in rankings if rankings[q].index(task.gold[q]) < k) / len(rankings) for k in ks}
    mrr = sum(1.0 / (rankings[q].index(task.gold[q]) + 1) for q in rankings) / len(rankings)
    return rankings, acc, mrr


def _naive_graded_metrics(rankings, qrels, k, gain):
    def g(r):
        return float(r) if gain == "linear" else float(2**r - 1)

    ndcgs, recalls = [], []
    for qid, ranking in rankings.items():
        rel = {cid: grade for (q, cid), grade in qrels.items() if q == qid and grade > 0}
        if not rel:
            continue
        dcg = sum(g(rel[cid]) / math.log2(i + 2) for i, cid in enumerate(ranking[:10]) if cid in rel)
        ideal = sorted(rel.values(), reverse=True)[:10]
        idcg = sum(g(r) / math.log2(i + 2) for i, r in enumerate(ideal))
        ndcgs.append(dcg / idcg)
        recalls.append(len(set(rel) & set(ranking[:k])) / len(rel))
    return sum(ndcgs) / len(ndcgs), sum(recalls) / len(recalls)


def test_metric_oracles():
    """All five metrics match naive recomputation on 100 random instances and
    one tie-heavy instance."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for instance in range(101):
        n_q = int(rng.integers(2, 51))
        n_c = int(rng.integers(n_q, 201))
        dim = int(rng.integers(3, 12))
        if instance < 100:
            vector = lambda: rng.normal(size=dim)
            cand_order = range(n_c)
        else:
            # Rows of +-identity: every cosine is exactly -1, 0 or 1, so the id
            # tie-break, over ids in shuffled pool order, decides most ranks.
            vector = lambda: rng.choice([-1.0, 1.0]) * np.eye(dim)[rng.integers(dim)]
            cand_order = rng.permutation(n_c)
        candidates = [(f"c{j:04d}", vector()) for j in cand_order]
        queries = [(f"q{i:03d}", vector()) for i in range(n_q)]
        gold = {qid: f"c{rng.integers(n_c):04d}" for qid, _ in queries}
        task = RetrievalTask(queries=queries, candidates=candidates, gold=gold)

        ranks = rank_candidates(task)
        naive_rankings, naive_acc, naive_mrr = _naive_retrieval_metrics(task, (1, 5, 10))
        assert ranks == {qid: {gold[qid]: naive_rankings[qid].index(gold[qid]) + 1} for qid, _ in queries}
        for k in (1, 5, 10):
            worst = max(worst, abs(accuracy_at_k(ranks, gold, k) - naive_acc[k]))
        worst = max(worst, abs(mean_reciprocal_rank(ranks, gold) - naive_mrr))

        mean, sd = mean_positive_similarity(task)
        cand = {cid: c for cid, c in candidates}
        sims = [float(np.dot(q, cand[gold[qid]]) / (np.linalg.norm(q) * np.linalg.norm(cand[gold[qid]])))
                for qid, q in queries]
        naive_mean = sum(sims) / len(sims)
        worst = max(worst, abs(mean - naive_mean))
        worst = max(worst, abs(sd - math.sqrt(sum((s - naive_mean) ** 2 for s in sims) / len(sims))))

        qrels = {}
        for qid, _ in queries:
            for j in rng.choice(n_c, size=int(rng.integers(1, 5)), replace=False):
                qrels[(qid, f"c{j:04d}")] = int(rng.integers(0, 4))
        if instance == 100:
            qrels[(queries[0][0], "not-in-pool")] = 2  # relevant, but never ranked
        if any(g > 0 for g in qrels.values()):
            gain = "linear" if rng.random() < 0.5 else "exp"
            k = int(rng.integers(1, 15))
            graded_ranks = rank_candidates(GradedTask(queries=queries, candidates=candidates, qrels=qrels))
            naive_ndcg, naive_recall = _naive_graded_metrics(naive_rankings, qrels, k, gain)
            worst = max(worst, abs(ndcg_at_10(graded_ranks, qrels, gain) - naive_ndcg))
            worst = max(worst, abs(recall_at_k(graded_ranks, qrels, k) - naive_recall))

        x = rng.normal(size=max(int(n_q), 3))
        y = rng.normal(size=len(x)) + 0.3 * x
        if rng.random() < 0.4:
            x = np.round(x)
        if len(set(x)) >= 2 and len(set(y)) >= 2:
            worst = max(worst, abs(spearman_rho(list(x), list(y)) - float(scipy_stats.spearmanr(x, y).statistic)))

    # Every ordering of a graded list; ideal order must score exactly 1.0.
    perm_values = {}
    for perm in itertools.permutations([3, 2, 1]):
        qrels = {("q", "c3"): 3, ("q", "c2"): 2, ("q", "c1"): 1}
        perm_values[perm] = ndcg_at_10({"q": {f"c{g}": r for r, g in enumerate(perm, start=1)}}, qrels)
    ndcg_ok = perm_values[(3, 2, 1)] == 1.0 and max(perm_values.values()) == 1.0 and all(
        v < 1.0 for p, v in perm_values.items() if p != (3, 2, 1)
    )
    _verdict(
        "metric oracles: Acc@K / MRR / NDCG@10 / Recall@K / Spearman within 1e-9 of naive on 100 instances "
        "plus one tie-heavy instance; NDCG max exactly 1.0 at ideal order",
        worst <= 1e-9 and ndcg_ok,
        f"max abs diff={worst:.2e}",
    )


def test_scheduler_exactness():
    """Peak hit exactly at warmup end, min at the last step, midpoint halfway."""
    config = TrainConfig(min_lr=1e-5)
    total = 100
    warmup = math.ceil(config.warmup_frac * total)
    mid = warmup + (total - warmup) // 2
    at_peak = lr_at_step(warmup, total, config)
    at_end = lr_at_step(total, total, config)
    at_mid = lr_at_step(mid, total, config)
    default_end = lr_at_step(total, total, TrainConfig())
    ok = (
        at_peak == 2e-4
        and at_end == config.min_lr
        and default_end == 0.0
        and abs(at_mid - (config.peak_lr + config.min_lr) / 2) <= 1e-12
    )
    _verdict(
        "scheduler: lr(W) = 2e-4 exactly, lr(total) = min_lr exactly, midpoint = (peak+min)/2 within 1e-12",
        ok,
        f"lr(W)={at_peak}, lr(total)={at_end}, midpoint err={abs(at_mid - (config.peak_lr + config.min_lr) / 2):.1e}",
    )


def test_lora_identity_and_scale():
    """B = 0 reproduces the base forward bitwise; adapters scale by alpha/r = 2."""
    params = init_params(300, pooling="last_token")
    t = params.tensors
    assert params.lora_rank == 16 and params.lora_alpha == 32.0
    texts = ["aortic valve gradient severe", "normal sinus rhythm today", "left atrium dilated"]

    pooled = np.empty((len(texts), t["E"].shape[1]))
    for i, text in enumerate(texts):
        pooled[i] = t["E"][params.tokenizer(text)][-1]
    hidden = np.tanh(pooled @ t["W1"] + t["b1"])
    raw = hidden @ t["W2"] + t["b2"]
    base = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    bitwise_equal = np.array_equal(encode_batch(texts, params), base)

    rng = np.random.default_rng(301)
    t["lora_B1"] = rng.normal(0, 0.1, t["lora_B1"].shape)
    t["lora_B2"] = rng.normal(0, 0.1, t["lora_B2"].shape)
    pre_adapted = pooled @ t["W1"] + t["b1"] + pooled @ (2.0 * (t["lora_A1"].T @ t["lora_B1"].T))
    pre_direct = pooled @ t["W1"] + t["b1"] + (params.lora_alpha / params.lora_rank) * (
        pooled @ (t["lora_A1"].T @ t["lora_B1"].T)
    )
    scale_err = float(np.max(np.abs(pre_adapted - pre_direct)))
    contribution = (params.lora_alpha / params.lora_rank) * (t["lora_A1"].T @ t["lora_B1"].T)
    explicit = 2.0 * (t["lora_A1"].T @ t["lora_B1"].T)
    scale_err = max(scale_err, float(np.max(np.abs(contribution - explicit))))
    _verdict(
        "adapter identity: B = 0 equals base forward bitwise; r=16, alpha=32 scales the low-rank product by exactly 2.0 (within 1e-12)",
        bitwise_equal and scale_err <= 1e-12,
        f"bitwise={bitwise_equal}, scale err={scale_err:.1e}",
    )


# SHA-256 of every artifact of ``test_pipeline_determinism``'s pipeline.
# Re-pin only in a change that means to alter output bytes, and say so in
# CHANGES.md. Float artifacts depend on numpy's BLAS build: a host whose
# BLAS sums in another order can differ in the last bits.
GOLDEN_DIGESTS = {
    "manifest": "e1e0dc3a8793da84c3f7d59151167d58df03c789db23a26af10728bb6c55d770",
    "triplets": "6463e300278741c206792ba58f03b2f936ddeafb018ad745e4260602a34d3944",
    "checkpoint": "daf9afffb40e0978c75dfa5d993614c1cd972ff417a6010bf410fbafdd67cd99",
    "checkpoint_epoch2": "3e5d5559d25a136acde3170a148bca319b3daf62ed0f3e0c1db70d54903ee442",
    "log": "ab0682601620654337638feb3d631125672fd82dbbe4642a46e4110ce39170cf",
    "train_report": "e10516f07098ed0c23b157b8f04848b50cbb63683c6f24057f71812d225253b8",
    "lora_checkpoint": "41a842344fab01b0e1205fb467a1ab18dcd48b6a4393db303119cde17192e0da",
    "lora_log": "c39b5b1549474becdee058852500efe640e5f8cdb2960319359d1317ec7a98a8",
    "embeddings": "54dd61ad3bdd352dceb4b5d6d65eb9b2e307c52f64a505d44db4cb334befcd46",
    "ids": "5a4cbcb135390e3347098e2634188d3df8d7be7fc55b03c9b0b2b763489f00d3",
    "embeddings_default": "247a7c6898e932abe3725656dfec8164d702a03479328120d6b9bc70e2b5fc5f",
    "report": "3200cfe657fb515b97bcc3d2a7949126a96652089f0c9832563a3d8bda7a7c82",
    "report_qrels": "d73f581bf4176a1c9bbe161d4e5aebd896b8c6af12b87603dab7df765de58ad1",
    "gradcheck": "446d86453ec87ffb9894302a61fd3ce81f4e9ccb2a2b3fd95461c494c05263f4",
}


def test_pipeline_determinism(tmp_path, capsys, monkeypatch):
    """Identical seeds reproduce every artifact byte for byte, and the bytes
    match the pinned golden digests."""
    records = two_cluster_records(40, seed=17)
    by_source: dict[str, list[str]] = {}
    for r in records:
        by_source.setdefault(r.source_name, []).append(r.text)
    docs = tmp_path / "docs.jsonl"
    with open(docs, "w", encoding="utf-8") as fh:
        for source, texts in sorted(by_source.items()):
            fh.write(json.dumps({"doc_id": source, "source_name": source, "text": "\n\n".join(texts)}) + "\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"epochs": 2, "batch_size": 8, "pooling": "mean",
                    "vocab_size": 1024, "d_emb": 16, "d_hid": 24, "d_out": 12, "lora_rank": 4}),
        encoding="utf-8",
    )

    def stdout_of(argv: list[str]) -> bytes:
        capsys.readouterr()
        assert cli_run(argv) == 0
        return capsys.readouterr().out.encode()

    def one_run(name: str) -> dict[str, bytes]:
        # Relative paths: train-report.jsonl records the checkpoint paths.
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        corpus = Path("corpus.jsonl")
        trips = Path("triplets.jsonl")
        out_dir = Path("train")
        lora_dir = Path("train-lora")
        emb = Path("emb.cevx")
        emb_default = Path("emb-default.cevx")
        assert cli_run(["prepare", "--in", str(docs), "--out", str(corpus),
                        "--train-frac", "0.6", "--test-frac", "0.2", "--seed", "17"]) == 0
        assert cli_run(["triplets", "--corpus", str(corpus), "--out", str(trips),
                        "--min-distance", "1", "--cross-source", "--seed", "17"]) == 0
        assert cli_run(["train", "--triplets", str(trips), "--config", str(config_path),
                        "--out-dir", str(out_dir), "--seed", "17"]) == 0
        assert cli_run(["train", "--triplets", str(trips), "--config", str(config_path),
                        "--out-dir", str(lora_dir), "--seed", "17", "--lora-only"]) == 0
        assert cli_run(["embed", "--checkpoint", str(out_dir / "epoch-1.cemb"),
                        "--texts", str(trips), "--out", str(emb), "--pooling", "mean"]) == 0
        assert cli_run(["embed", "--checkpoint", str(out_dir / "epoch-2.cemb"),
                        "--texts", str(trips), "--out", str(emb_default)]) == 0
        test_rows = [r for r in json.loads("[" + ",".join(trips.read_text().splitlines()) + "]") if r["split"] == "test"]
        pairs = Path("pairs.tsv")
        pairs.write_text("".join(f"{r['anchor_id']}\tpos::{r['anchor_id']}\n" for r in test_rows), encoding="utf-8")
        qrels = Path("qrels.tsv")
        qrels.write_text("".join(f"{r['anchor_id']}\tpos::{r['anchor_id']}\t1\n" for r in test_rows), encoding="utf-8")
        return {
            "manifest": corpus.read_bytes(),
            "triplets": trips.read_bytes(),
            "checkpoint": (out_dir / "epoch-1.cemb").read_bytes(),
            "checkpoint_epoch2": (out_dir / "epoch-2.cemb").read_bytes(),
            "log": (out_dir / "train-log.jsonl").read_bytes(),
            "train_report": (out_dir / "train-report.jsonl").read_bytes(),
            "lora_checkpoint": (lora_dir / "epoch-2.cemb").read_bytes(),
            "lora_log": (lora_dir / "train-log.jsonl").read_bytes(),
            "embeddings": emb.read_bytes(),
            "ids": Path("emb.cevx.ids").read_bytes(),
            "embeddings_default": emb_default.read_bytes(),
            "report": stdout_of(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]),
            "report_qrels": stdout_of(["eval", "--embeddings", str(emb), "--qrels", str(qrels)]),
            "gradcheck": stdout_of(["gradcheck", "--checkpoint", str(out_dir / "epoch-2.cemb"),
                                    "--batch", str(trips), "--samples", "20", "--seed", "17"]),
        }

    first = one_run("first")
    second = one_run("second")
    mismatched = [k for k in first if first[k] != second[k]]
    _verdict(
        "pipeline determinism: repeated prepare/triplets/train/embed/eval is byte-identical",
        not mismatched,
        f"mismatched={mismatched}" if mismatched else "all artifacts identical",
    )
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in first.items()}
    changed = sorted(k for k in digests if digests[k] != GOLDEN_DIGESTS.get(k))
    _verdict(
        "golden digests: every pipeline artifact matches its pinned SHA-256",
        not changed and digests.keys() == GOLDEN_DIGESTS.keys(),
        f"changed={changed}" if changed else f"{len(digests)} artifacts match",
    )


def test_dedup_and_split_exactness():
    """Injected duplicates all removed with zero false removals; split counts exact."""
    rng = np.random.default_rng(400)
    words = [f"w{i:03d}" for i in range(60)]
    sources = {"alpha": 380, "beta": 330, "gamma": 290}
    records: list[SentenceRecord] = []
    originals: list[SentenceRecord] = []
    injected = 0
    counter = 0
    for source, count in sources.items():
        for _ in range(count):
            if originals and rng.random() < 0.25:
                base = originals[int(rng.integers(len(originals)))]
                text = base.text
                variant = rng.integers(3)
                if variant == 0:
                    text = text.upper()
                elif variant == 1:
                    text = "  ".join(text.split())
                else:
                    text = text.rstrip(".!?") + "!"
                injected += 1
            else:
                text = " ".join(rng.choice(words, size=9, replace=False)) + "."
            record = SentenceRecord(f"{source}:{counter:05d}", source, text, len(text))
            counter += 1
            records.append(record)
            if normalized_form(text) not in {normalized_form(o.text) for o in originals}:
                originals.append(record)
    assert len(records) == 1000 and injected > 150

    survivors = deduplicate(records)
    seen: set[str] = set()
    oracle = []
    for record in records:
        key = normalized_form(record.text)
        if key not in seen:
            seen.add(key)
            oracle.append(record)
    brute_ok = survivors == oracle and deduplicate(survivors) == survivors
    pairwise_clean = all(
        normalized_form(a.text) != normalized_form(b.text)
        for i, a in enumerate(survivors)
        for b in survivors[i + 1 :]
    )

    manifest = stratified_split(survivors, train_frac=0.9, seed=400)
    split_ok = True
    for source in sources:
        n = sum(1 for r in survivors if r.source_name == source)
        n_train = sum(1 for r in manifest if r.source_name == source and r.split == "train")
        split_ok = split_ok and n_train == math.floor(0.9 * n + 0.5)
    _verdict(
        "dedup and split: brute-force agreement on a 1,000-sentence corpus; per-source train counts exactly round(0.9 n)",
        brute_ok and pairwise_clean and split_ok,
        f"{len(records)} records, {injected} injected duplicates, {len(survivors)} survivors",
    )


def test_overflow_safety(monkeypatch):
    """Cosines of +-1 at tau = 0.05 stay finite in float32 and float64."""
    e = np.array([1.0, 0.0])
    ok = True
    for dtype in (np.float32, np.float64):
        a = np.array([e, e], dtype=dtype)
        p = np.array([e, e], dtype=dtype)
        n = np.array([-e, -e], dtype=dtype)
        report, grad_sims = _infonce(a, p, n, 0.05)
        # The mean similarities are the mean logits times tau: +20 and -20.
        ok = ok and grad_sims.dtype == dtype
        ok = ok and report.mean_pos_sim / 0.05 == 20.0 and report.mean_neg_sim / 0.05 == -20.0
        ok = ok and math.isfinite(report.loss) and bool(np.all(np.isfinite(grad_sims)))
        _, grads = role_gradients(monkeypatch, a, p, n, 0.05)
        ok = ok and all(g.dtype == dtype and bool(np.all(np.isfinite(g))) for g in grads)
    ok = ok and math.isfinite(infonce_loss([e], [e.copy()], [-e], tau=0.05))

    # Same regime through the full encoder gradient in double precision.
    params = init_params(500, vocab_size=64, d_emb=8, d_hid=8, d_out=4, lora_rank=2)
    batch = [Triplet("a", "alpha beta", "alpha beta", "n", "alpha beta", "train")] * 2
    grads, report = infonce_gradient(batch, params, TrainConfig(), train_mode=False)
    ok = ok and math.isfinite(report.loss) and all(bool(np.all(np.isfinite(g))) for g in grads.values())
    # The real encoder backward ran: the base tensors got a nonzero gradient.
    ok = ok and bool(np.any(grads["W1"])) and _grad_norm(grads, {}) > 0.0
    _verdict(
        "overflow safety: logits of +-20 yield finite loss and gradients in single and double precision",
        ok,
    )
