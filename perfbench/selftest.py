"""Quick-mode self-test of the benchmark; it never looks at a timing.

    python3 perfbench/selftest.py

It runs every workload on tiny inputs and checks that:

- BENCHMARK.json names exactly the workloads and metrics the benchmark
  prints, with the same units;
- a plain run passes every correctness check and reports every end-to-end
  metric, none of them zero;
- a traced run reports every per-layer metric, its computed counts repeat
  exactly between traced runs and match their formulas;
- each correctness check rejects a corrupted artifact;
- without minembed's sources the benchmark exits non-zero and prints no
  result.

Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
from synth import Shape, write_inputs

QUICK = {
    name: run.Workload(
        Shape(sources=3, docs_per_source=3, paragraphs_per_doc=3,
              markup_rate=0.6, boilerplate_paragraphs=2, pool_docs=20, pool_sentences_per_doc=4,
              pairs=30, qrels=10, epochs=epochs, lora_only=lora_only),
        min_distance=10, cross_source=cross_source,
    )
    for name, epochs, lora_only, cross_source in (
        ("mine", 1, True, True),
        ("train", 2, False, False),
        ("retrieve", 1, False, False),
    )
}
SEED = 5
TRAINABLE = {  # parameter counts of the default encoder shape
    False: 16384 * 64 + 64 * 128 + 128 + 128 * 64 + 64 + 16 * 64 + 128 * 16 + 16 * 128 + 64 * 16,
    True: 16 * 64 + 128 * 16 + 16 * 128 + 64 * 16,
}
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def expect_rejected(what: str, check, *args) -> None:
    try:
        check(*args)
    except (checks.CheckError, run.StageFailed):
        expect(True, f"rejects {what}")
    else:
        expect(False, f"rejects {what}")


def test_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS, "end-to-end names and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS, "per-layer names and units")
    expect(spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"], "command and paths")


def test_plain(name: str) -> None:
    result, detail = run.run_workload(name, SEED, 0, False, QUICK[name])
    expect(result["correct"] and result["failed"] == 0, f"{name}: plain run passes its checks {detail.get('error', '')}")
    expect(result["attempted"] == 6 * detail["runs"], f"{name}: six stages attempted per pipeline run")
    metrics = result["metrics"]
    expect({k: m["unit"] for k, m in metrics.items()} == run.END_TO_END_UNITS, f"{name}: every end-to-end metric")
    expect(all(m["value"] > 0 and math.isfinite(m["value"]) for m in metrics.values()), f"{name}: no metric is zero")


def test_traced(name: str, inputs: Path) -> None:
    result, detail = run.run_workload(name, SEED, 0, True, QUICK[name])
    expect(result["correct"], f"{name}: traced run passes, computed counts repeat {detail.get('error', '')}")
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    expect({k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER_UNITS, f"{name}: every per-layer metric")
    shape = QUICK[name].shape
    write_inputs(shape, SEED, inputs, name)
    pairs = len(checks.read_tsv(inputs / "pairs.tsv"))
    graded = len({q for q, _, _ in checks.read_tsv(inputs / "qrels.tsv")})
    pool = len(checks.read_jsonl(inputs / "pool.jsonl"))
    entries = pairs * pairs + graded * (pool - graded)
    expect(layers["metrics.rank_entries"] == entries, f"{name}: rank_entries is Q x C")
    expect(layers["metrics.sim_flops"] == 2 * 64 * entries, f"{name}: sim_flops is 2 Q C d")
    expect(
        layers["trainer.adamw_bytes"] == layers["trainer.steps"] * 4 * 8 * TRAINABLE[shape.lora_only],
        f"{name}: adamw_bytes is steps x 4 arrays x trainable bytes",
    )
    expect(layers["triplets.paraphrase_ok_ratio"] == 1.0, f"{name}: every paraphrase request succeeds")
    expect(layers["triplets.negative_calls"] == layers["triplets.paraphrase_calls"], f"{name}: one negative per anchor")
    # Each epoch encodes every triplet's three texts once for training or
    # validation, and embed encodes the pool once.
    n_triplets = round(layers["triplets.negative_ok_ratio"] * layers["triplets.negative_calls"])
    expect(
        layers["encoder.forward_rows"] == pool + 3 * shape.epochs * n_triplets,
        f"{name}: forward_rows is the pool plus 3 x epochs x triplets",
    )


def test_checks_reject_corruption(work: Path) -> None:
    name = "train"
    bench = run.Bench(name, SEED, work, time.monotonic() + 120, QUICK[name])
    bench.setup()
    bench.pipeline(0, False)
    it = work / "run0"
    manifest = checks.read_jsonl(it / "manifest.jsonl")
    flipped = [dict(r) for r in manifest]
    flipped[0]["split"] = "val" if flipped[0]["split"] == "train" else "train"
    expect_rejected("a manifest with wrong split counts", checks.check_manifest, flipped, run.TRAIN_FRAC)
    triplet_rows = checks.read_jsonl(it / "triplets.jsonl")
    meta = json.loads((it / "triplets.jsonl.meta.json").read_text())
    w = QUICK[name]
    expect_rejected("a missing triplet", checks.check_triplets, triplet_rows[1:], manifest, meta, w.min_distance, False)
    ids, matrix = checks.read_cevx(it / "vectors.cevx")
    expect_rejected("misaligned embedding ids", checks.check_embeddings, it / "vectors.cevx", ids[::-1])
    data = bytearray((it / "vectors.cevx").read_bytes())
    data[20:24] = struct.pack("<f", 2.0)  # the first row's first value
    bad = it / "bad.cevx"
    bad.write_bytes(bytes(data))
    shutil.copy(it / "vectors.cevx.ids", it / "bad.cevx.ids")
    expect_rejected("a non-unit embedding row", checks.check_embeddings, bad, ids)
    for report_name, tsv, check, field in (
        ("eval-pairs.json", "pairs.tsv", checks.check_pairs_eval, "mrr"),
        ("eval-qrels.json", "qrels.tsv", checks.check_qrels_eval, "ndcg_at_10"),
    ):
        report = json.loads((it / report_name).read_text())
        report[field] += 1e-6
        expect_rejected(f"a wrong {field}", check, report, checks.read_tsv(bench.inputs / tsv), ids, matrix, run.KS)
    (it / "eval-pairs.json").write_text((it / "eval-pairs.json").read_text() + " ")
    expect_rejected("an artifact that is not byte-identical", bench.compare_bytes, it)


def test_without_sources(work: Path) -> None:
    copy = work / "bare"
    shutil.copytree(run.HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without sources: non-zero exit and no result")


def main() -> int:
    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_declaration()
        for name in run.WORKLOADS:
            test_plain(name)
            test_traced(name, work)
        test_checks_reject_corruption(work / "corrupt")
        test_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
