"""Correctness checks on one pipeline run's artifacts.

Each check reads what a CLI stage wrote and raises ``CheckError`` on the
first violation. They run outside the timed region. The retrieval oracle
ranks by counting, not by sorting: the gold rank is
``1 + #(sim > g) + #(sim == g and id < gold_id)``, and the top-k comes
from a partition with ties at the boundary resolved by id. It computes the
cosine matrix with the same float64 arithmetic as the program (unit rows,
one matrix product), so exact ties are detected the same way.
"""

from __future__ import annotations

import bisect
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from provider import paraphrase

MANIFEST_KEYS = ["sent_id", "source_name", "text", "char_len", "split"]
TRIPLET_KEYS = ["anchor_id", "anchor_text", "positive_text", "negative_id", "negative_text", "split"]
SPLIT_ORDER = ("train", "val", "test")
MIN_CHARS = 20
METRIC_TOL = 1e-9
NORM_TOL = 1e-5
MARKUP_LEFTOVERS = ("<b>", "</", "](", "**", "![", "`", "## ")


class CheckError(Exception):
    """An artifact failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def check_manifest(rows: list[dict], train_frac: float) -> None:
    """Schema, cleaning, dedup, and per-source split counts (no test split)."""
    _require(bool(rows), "manifest is empty")
    seen_ids: set[str] = set()
    seen_norm: set[str] = set()
    per_source: dict[str, Counter] = {}
    for row in rows:
        _require(list(row) == MANIFEST_KEYS, f"manifest row keys {list(row)}")
        text = row["text"]
        _require(isinstance(text, str) and isinstance(row["char_len"], int), f"bad types in {row['sent_id']}")
        _require(row["char_len"] == len(text) >= MIN_CHARS, f"{row['sent_id']}: char_len {row['char_len']}")
        _require(row["split"] in SPLIT_ORDER, f"{row['sent_id']}: split {row['split']!r}")
        _require(row["sent_id"] not in seen_ids, f"duplicate sent_id {row['sent_id']}")
        seen_ids.add(row["sent_id"])
        norm = " ".join(text.lower().split()).rstrip(".!?")
        _require(norm not in seen_norm, f"{row['sent_id']}: duplicate survived dedup")
        seen_norm.add(norm)
        _require(not any(m in text for m in MARKUP_LEFTOVERS), f"{row['sent_id']}: markup survived cleaning: {text!r}")
        per_source.setdefault(row["source_name"], Counter())[row["split"]] += 1
    for source, counts in per_source.items():
        n = sum(counts.values())
        n_train = _round_half_up(train_frac * n)
        expected = {"train": n_train, "test": 0, "val": n - n_train}
        _require(all(counts[s] == expected[s] for s in SPLIT_ORDER), f"{source}: split counts {dict(counts)} != {expected}")


def check_triplets(
    rows: list[dict],
    manifest: list[dict],
    meta: dict,
    min_distance: int,
    cross_source: bool,
) -> None:
    """Count equals anchors minus reported skips; every field traces back to the manifest."""
    config = meta["config"]
    expected = len(manifest) - config["skipped_paraphrase"] - config["skipped_negative"]
    _require(len(rows) == expected, f"{len(rows)} triplets, expected {len(manifest)} anchors - skips = {expected}")
    by_split = {s: [r for r in manifest if r["split"] == s] for s in SPLIT_ORDER}
    position = {r["sent_id"]: (s, i) for s, recs in by_split.items() for i, r in enumerate(recs)}
    source_positions = {
        s: {src: [i for i, r in enumerate(recs) if r["source_name"] == src] for src in {r["source_name"] for r in recs}}
        for s, recs in by_split.items()
    }
    last = (-1, -1)
    for row in rows:
        _require(list(row) == TRIPLET_KEYS, f"triplet row keys {list(row)}")
        split, i = position[row["anchor_id"]]
        recs = by_split[split]
        anchor = recs[i]
        _require(row["split"] == split and row["anchor_text"] == anchor["text"], f"{row['anchor_id']}: anchor mismatch")
        order = (SPLIT_ORDER.index(split), i)
        _require(order > last, f"{row['anchor_id']}: triplets out of manifest order")
        last = order
        _require(row["positive_text"] == paraphrase(anchor["text"]), f"{row['anchor_id']}: positive is not the provider's")
        neg_split, j = position[row["negative_id"]]
        negative = recs[j] if neg_split == split else None
        _require(negative is not None and row["negative_text"] == negative["text"], f"{row['anchor_id']}: negative mismatch")
        _require(abs(i - j) >= min_distance, f"{row['anchor_id']}: negative at distance {abs(i - j)}")
        if cross_source and negative["source_name"] == anchor["source_name"]:
            n = len(recs)
            distant = max(0, i - min_distance + 1) + max(0, n - (i + min_distance))
            same = source_positions[split][anchor["source_name"]]
            same_distant = bisect.bisect_right(same, i - min_distance) + len(same) - bisect.bisect_left(same, i + min_distance)
            _require(distant == same_distant, f"{row['anchor_id']}: same-source negative although another source was eligible")


def check_train(run_dir: Path, config: dict, n_train: int) -> float:
    """Report and log shapes against the train ``config`` the stage was
    given; returns the final validation loss."""
    epochs, batch_size = config["epochs"], config["batch_size"]
    report = read_jsonl(run_dir / "train-report.jsonl")
    _require(len(report) == epochs, f"train report has {len(report)} epochs, expected {epochs}")
    for row in report:
        _require(math.isfinite(row["mean_train_loss"]), f"epoch {row['epoch']}: non-finite train loss")
        _require(row["val_loss"] is not None and math.isfinite(row["val_loss"]), f"epoch {row['epoch']}: no val loss")
        _require((run_dir.parent / row["checkpoint"]).is_file(), f"missing checkpoint {row['checkpoint']}")
    steps = len(read_jsonl(run_dir / "train-log.jsonl"))
    _require(steps == epochs * math.ceil(n_train / batch_size), f"train log has {steps} steps")
    return float(report[-1]["val_loss"])


def read_cevx(path: Path) -> tuple[list[str], np.ndarray]:
    """The benchmark's own reader for the CEVX embedding format."""
    data = path.read_bytes()
    _require(data[:4] == b"CEVX", f"{path}: bad magic")
    version, dim, count = struct.unpack("<IIQ", data[4:20])
    _require(version == 1 and len(data) == 20 + 4 * dim * count, f"{path}: bad header or size")
    matrix = np.frombuffer(data, dtype="<f4", offset=20).reshape(count, dim)
    ids = Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()
    return ids, matrix


def check_embeddings(path: Path, expected_ids: list[str]) -> tuple[list[str], np.ndarray]:
    """Rows are finite, unit-norm and aligned with the ids they were asked for."""
    ids, matrix = read_cevx(path)
    _require(ids == expected_ids, f"{path}: ids differ from the input texts' ids")
    _require(bool(np.all(np.isfinite(matrix))), f"{path}: non-finite values")
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    worst = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
    _require(worst <= NORM_TOL, f"{path}: row norm off by {worst}")
    return ids, matrix


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _id_ranks(ids: list[str]) -> np.ndarray:
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _close(name: str, got, want: float) -> None:
    _require(got is not None and abs(got - want) <= METRIC_TOL, f"eval {name}: program {got}, oracle {want}")


def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_pairs_eval(report: dict, pairs: list[list[str]], ids: list[str], matrix: np.ndarray, ks: list[int]) -> None:
    """One-gold retrieval: Acc@K, MRR and positive similarity against the oracle."""
    index = {sid: i for i, sid in enumerate(ids)}
    vectors = matrix.astype(np.float64)
    cand_ids = list(dict.fromkeys(c for _, c in pairs))
    query = _unit_rows(vectors[[index[q] for q, _ in pairs]])
    cand = _unit_rows(vectors[[index[c] for c in cand_ids]])
    sims = query @ cand.T
    cand_pos = {c: i for i, c in enumerate(cand_ids)}
    gold = np.array([cand_pos[c] for _, c in pairs])
    id_rank = _id_ranks(cand_ids)
    g = sims[np.arange(len(pairs)), gold][:, None]
    ranks = 1 + (sims > g).sum(axis=1) + ((sims == g) & (id_rank[None, :] < id_rank[gold][:, None])).sum(axis=1)
    _require(report["n_queries"] == len(pairs), f"eval n_queries {report['n_queries']} != {len(pairs)}")
    for k in ks:
        _close(f"acc_at[{k}]", report["acc_at"].get(str(k)), float(np.mean(ranks <= k)))
    _close("mrr", report["mrr"], math.fsum(1.0 / ranks) / len(ranks))
    pos = g[:, 0]
    _close("mean_pos_sim", report["mean_pos_sim"], float(pos.mean()))
    _close("sd_pos_sim", report["sd_pos_sim"], float(np.sqrt(np.mean((pos - pos.mean()) ** 2))))


def check_qrels_eval(report: dict, qrels: list[list[str]], ids: list[str], matrix: np.ndarray, ks: list[int]) -> None:
    """Graded retrieval: NDCG@10 (linear gain) and Recall@K against the oracle."""
    grades = {(q, c): int(g) for q, c, g in qrels}
    query_ids = list(dict.fromkeys(q for q, _, _ in qrels))
    qset = set(query_ids)
    index = {sid: i for i, sid in enumerate(ids)}
    cand_ids = [sid for sid in ids if sid not in qset]
    vectors = matrix.astype(np.float64)
    sims = _unit_rows(vectors[[index[q] for q in query_ids]]) @ _unit_rows(vectors[[index[c] for c in cand_ids]]).T
    id_rank = _id_ranks(cand_ids)
    relevant: dict[str, dict[str, int]] = {}
    for (q, c), grade in grades.items():
        if grade > 0:
            relevant.setdefault(q, {})[c] = grade
    depth = min(max(10, *ks), len(cand_ids))
    ndcgs, recalls = [], {k: [] for k in ks}
    for qi, q in enumerate(query_ids):
        rel = relevant.get(q)
        if not rel:
            continue
        s = sims[qi]
        kth = np.partition(s, len(s) - depth)[len(s) - depth]
        above = np.nonzero(s > kth)[0]
        tied = np.nonzero(s == kth)[0]
        top = np.concatenate([above[np.lexsort((id_rank[above], -s[above]))], tied[np.argsort(id_rank[tied])]])[:depth]
        top_ids = [cand_ids[i] for i in top]
        dcg = math.fsum(rel.get(c, 0) / math.log2(r + 1) for r, c in enumerate(top_ids[:10], start=1))
        ideal = sorted(rel.values(), reverse=True)[:10]
        idcg = math.fsum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        ndcgs.append(dcg / idcg)
        for k in ks:
            recalls[k].append(sum(1 for c in top_ids[:k] if c in rel) / len(rel))
    _require(report["n_queries"] == len(query_ids), f"eval n_queries {report['n_queries']} != {len(query_ids)}")
    skipped = len(query_ids) - len(ndcgs)
    _require(report["n_skipped_no_relevant"] == skipped, f"eval n_skipped {report['n_skipped_no_relevant']} != {skipped}")
    _close("ndcg_at_10", report["ndcg_at_10"], math.fsum(ndcgs) / len(ndcgs))
    for k in ks:
        _close(f"recall_at[{k}]", report["recall_at"].get(str(k)), math.fsum(recalls[k]) / len(recalls[k]))
