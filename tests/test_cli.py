"""Command-line behavior: flows, exit codes, help, reproducibility."""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from minembed.cli import build_parser, report_tables, run
from minembed.encoder import init_params, load_checkpoint, save_checkpoint
from minembed.storage import digest, ids_sidecar, read_embeddings, read_jsonl, write_embeddings, write_tensors

from conftest import two_cluster_records


def write_docs(tmp_path, n_per_cluster=30, seed=3):
    """Raw document JSONL: one document per cluster, one sentence per paragraph."""
    records = two_cluster_records(n_per_cluster, seed=seed)
    by_source: dict[str, list[str]] = {}
    for r in records:
        by_source.setdefault(r.source_name, []).append(r.text)
    docs_path = tmp_path / "docs.jsonl"
    with open(docs_path, "w", encoding="utf-8") as fh:
        for source, texts in sorted(by_source.items()):
            fh.write(json.dumps({"doc_id": source, "source_name": source, "text": "\n\n".join(texts)}) + "\n")
    return docs_path


def small_train_config(tmp_path, **overrides):
    cfg = {
        "epochs": 1,
        "batch_size": 8,
        "pooling": "mean",
        "vocab_size": 1024,
        "d_emb": 16,
        "d_hid": 24,
        "d_out": 12,
        "lora_rank": 4,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_pipeline(tmp_path, workdir_name="run", seed=7):
    """prepare -> triplets -> train -> embed; returns paths of artifacts."""
    docs = write_docs(tmp_path)
    work = tmp_path / workdir_name
    work.mkdir()
    corpus = work / "corpus.jsonl"
    trips = work / "triplets.jsonl"
    out_dir = work / "train"
    emb = work / "embeddings.cevx"

    assert run(["prepare", "--in", str(docs), "--out", str(corpus),
                "--train-frac", "0.8", "--test-frac", "0.2", "--seed", str(seed)]) == 0
    assert run(["triplets", "--corpus", str(corpus), "--out", str(trips),
                "--min-distance", "1", "--cross-source", "--seed", str(seed)]) == 0
    config = small_train_config(tmp_path)
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(out_dir), "--seed", str(seed)]) == 0
    checkpoint = out_dir / "epoch-1.cemb"
    assert checkpoint.exists()
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(trips),
                "--out", str(emb), "--pooling", "mean"]) == 0
    return corpus, trips, checkpoint, emb


def test_prepare_writes_split_manifest(tmp_path):
    docs = write_docs(tmp_path)
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(out), "--seed", "5"]) == 0
    rows = read_jsonl(out)
    assert rows, "manifest should not be empty"
    assert set(rows[0]) == {"sent_id", "source_name", "text", "char_len", "split"}
    splits = {r["split"] for r in rows}
    assert splits <= {"train", "val", "test"}
    assert (tmp_path / "corpus.jsonl.meta.json").exists()


def test_prepare_directory_input(tmp_path):
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "book-one.txt").write_text(
        "The left ventricle appears dilated today. Ejection fraction is reduced overall.",
        encoding="utf-8",
    )
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(docs_dir), "--out", str(out), "--seed", "1"]) == 0
    rows = read_jsonl(out)
    assert len(rows) == 2
    assert all(r["source_name"] == "book-one" for r in rows)


def test_prepare_single_text_file_input(tmp_path, capsys):
    # A .txt file is one document; its doc id and its source are the file's stem.
    doc = tmp_path / "book-one.txt"
    doc.write_text("The left ventricle appears dilated today. Ejection fraction is reduced overall.",
                   encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(doc), "--out", str(out), "--seed", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = read_jsonl(out)
    assert [r["sent_id"] for r in rows] == ["book-one:00000", "book-one:00001"]
    assert all(r["source_name"] == "book-one" for r in rows)


def test_prepare_directory_without_text_files_exits_one(tmp_path, capsys):
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "notes.md").write_text("Not a document of the corpus.", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(docs_dir), "--out", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"E_USAGE: no .txt files in {docs_dir}\n"
    assert not out.exists()


def test_prepare_file_name_utf8_cannot_encode_exits_two_and_writes_nothing(tmp_path, capsys):
    # A file name that is not UTF-8 becomes a doc_id with a surrogate escape, which no output can hold.
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    try:
        with open(os.path.join(os.fsencode(docs_dir), b"bad\xff.txt"), "wb") as fh:
            fh.write(b"The left ventricle appears dilated today. Ejection fraction is reduced overall.")
    except OSError:
        pytest.skip("the file system takes only UTF-8 file names")
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(docs_dir), "--out", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_IO: cannot write {out}: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["docs"]


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_prepare_records_its_inputs(tmp_path, kind):
    if kind == "file":
        source = write_docs(tmp_path)
        inputs = [source]
    else:
        source = tmp_path / "docs"
        source.mkdir()
        inputs = [source / "a.txt", source / "b.txt"]
        for path in reversed(inputs):
            path.write_text(f"The {path.stem} ventricle appears dilated today.", encoding="utf-8")
        (source / "notes.md").write_text("Not a document of the corpus.", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(source), "--out", str(out), "--seed", "1"]) == 0
    meta = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))
    assert meta["input_digests"] == {str(path): digest(path) for path in inputs}


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert run(["prepare", "--nonsense"]) == 1
    assert "prepare" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert run(["frobnicate"]) == 1


def test_no_command_exits_one():
    assert run([]) == 1


def test_missing_input_exits_one(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert run(["prepare", "--in", str(tmp_path / "absent"), "--out", str(out), "--seed", "1"]) == 1


def tiny_checkpoint(tmp_path):
    path = tmp_path / "tiny.cemb"
    save_checkpoint(init_params(0, vocab_size=64, d_emb=4, d_hid=6, d_out=4, lora_rank=2), path)
    return path


TRIPLET_ROW = {"anchor_id": "a", "anchor_text": "x y", "positive_text": "y x",
               "negative_id": "n", "negative_text": "z w", "split": "train"}
SENTENCE_ROW = {"sent_id": "s1", "source_name": "a", "text": "left atrium", "char_len": 11, "split": "train"}
# name: (file name, its one JSONL row, command line, what stderr must name)
MALFORMED_INPUTS = {
    "prepare-missing-source": ("docs.jsonl", {"doc_id": "d", "text": "t"},
                               ["prepare", "--in", "{file}", "--out", "{tmp}/c.jsonl", "--seed", "1"],
                               ["docs.jsonl:1", "'source_name'"]),
    "stats-on-triplets": ("trips.jsonl", TRIPLET_ROW,
                          ["stats", "--corpus", "{file}"],
                          ["trips.jsonl:1", "'sent_id'"]),
    "train-missing-anchor-text": ("trips.jsonl", {k: v for k, v in TRIPLET_ROW.items() if k != "anchor_text"},
                                  ["train", "--triplets", "{file}", "--out-dir", "{tmp}/out", "--seed", "1"],
                                  ["trips.jsonl:1", "'anchor_text'"]),
    "embed-missing-text": ("texts.jsonl", {"sent_id": "s1"},
                           ["embed", "--checkpoint", "{ckpt}", "--texts", "{file}", "--out", "{tmp}/e.cevx"],
                           ["texts.jsonl:1", "'text'"]),
    "embed-missing-plain-text": (None, None,
                                 ["embed", "--checkpoint", "{ckpt}", "--texts", "{tmp}/nope.txt", "--out", "{tmp}/e.cevx"],
                                 ["nope.txt"]),
    # A value of the wrong JSON type is rejected, never coerced: null is not the text "None".
    "prepare-null-text": ("docs.jsonl", {"doc_id": "d", "source_name": "s", "text": None},
                          ["prepare", "--in", "{file}", "--out", "{tmp}/c.jsonl", "--seed", "1"],
                          ["docs.jsonl:1", "'text' must be str, got None"]),
    "triplets-float-char-len": ("c.jsonl", {**SENTENCE_ROW, "char_len": 4.9},
                                ["triplets", "--corpus", "{file}", "--out", "{tmp}/t.jsonl", "--seed", "1"],
                                ["c.jsonl:1", "'char_len' must be int, got 4.9"]),
    "stats-bool-char-len": ("c.jsonl", {**SENTENCE_ROW, "char_len": True},
                            ["stats", "--corpus", "{file}"],
                            ["c.jsonl:1", "'char_len' must be int, got True"]),
    "train-list-anchor-text": ("trips.jsonl", {**TRIPLET_ROW, "anchor_text": ["x", "y"]},
                               ["train", "--triplets", "{file}", "--out-dir", "{tmp}/out", "--seed", "1"],
                               ["trips.jsonl:1", "'anchor_text' must be str, got ['x', 'y']"]),
    "embed-null-text": ("texts.jsonl", {"sent_id": "s1", "text": None},
                        ["embed", "--checkpoint", "{ckpt}", "--texts", "{file}", "--out", "{tmp}/e.cevx"],
                        ["texts.jsonl:1", "'text' must be str, got None"]),
    "embed-numeric-sent-id": ("texts.jsonl", {"sent_id": 7, "text": "left atrium"},
                              ["embed", "--checkpoint", "{ckpt}", "--texts", "{file}", "--out", "{tmp}/e.cevx"],
                              ["texts.jsonl:1", "'sent_id' must be str, got 7"]),
    # The JSON escape \ud800 decodes to a lone surrogate, which no UTF-8 file
    # can hold: the row is rejected where it is read, before it is sent to a
    # provider or written.
    "prepare-lone-surrogate": ("docs.jsonl", {"doc_id": "d", "source_name": "s", "text": "Left \ud800 atrium."},
                               ["prepare", "--in", "{file}", "--out", "{tmp}/c.jsonl", "--seed", "1"],
                               ["docs.jsonl:1", "lone surrogate"]),
    "triplets-lone-surrogate": ("c.jsonl", {**SENTENCE_ROW, "text": "left \ud800 atrium"},
                                ["triplets", "--corpus", "{file}", "--out", "{tmp}/t.jsonl", "--seed", "1"],
                                ["c.jsonl:1", "lone surrogate"]),
    "triplets-provider-lone-surrogate": ("c.jsonl", {**SENTENCE_ROW, "text": "left \ud800 atrium"},
                                         ["triplets", "--corpus", "{file}", "--out", "{tmp}/t.jsonl", "--seed", "1",
                                          "--provider", "{provider}"],
                                         ["c.jsonl:1", "lone surrogate"]),
    "embed-lone-surrogate": ("texts.jsonl", {"sent_id": "s1", "text": "left \ud800 atrium"},
                             ["embed", "--checkpoint", "{ckpt}", "--texts", "{file}", "--out", "{tmp}/e.cevx"],
                             ["texts.jsonl:1", "lone surrogate"]),
    # A split other than train, val or test (or, in a manifest, unassigned) would be dropped by every stage.
    "triplets-unknown-split": ("c.jsonl", {**SENTENCE_ROW, "split": "Train"},
                               ["triplets", "--corpus", "{file}", "--out", "{tmp}/t.jsonl", "--seed", "1"],
                               ["c.jsonl:1", "'split' must be one of", "got 'Train'"]),
    "train-unknown-split": ("trips.jsonl", {**TRIPLET_ROW, "split": "dev"},
                            ["train", "--triplets", "{file}", "--out-dir", "{tmp}/out", "--seed", "1"],
                            ["trips.jsonl:1", "'split' must be one of", "got 'dev'"]),
    "train-unassigned-split": ("trips.jsonl", {**TRIPLET_ROW, "split": "unassigned"},
                               ["train", "--triplets", "{file}", "--out-dir", "{tmp}/out", "--seed", "1"],
                               ["trips.jsonl:1", "got 'unassigned'"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_bad_input_file_exits_two_with_e_io(tmp_path, capsys, case):
    name, row, argv, expected = MALFORMED_INPUTS[case]
    file = tmp_path / name if name else None
    if file:
        file.write_text(json.dumps(row) + "\n", encoding="utf-8")
    fill = {"file": str(file), "tmp": str(tmp_path), "ckpt": str(tiny_checkpoint(tmp_path)),
            "provider": f"{shlex.quote(sys.executable)} {shlex.quote(str(REPO_ROOT / 'perfbench' / 'provider.py'))}"}
    assert run([arg.format(**fill) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_IO: ") and "Traceback" not in err
    for fragment in expected:
        assert fragment in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(n for n in (name, "tiny.cemb") if n)


# JSONL lines CPython's decoder rejects with ValueError and RecursionError, not JSONDecodeError.
UNDECODABLE_LINES = {"5000-digit integer": '{"sent_id": "s1", "text": "x", "n": ' + "7" * 5000 + "}",
                     "100000 nested arrays": "[" * 100_000}


@pytest.mark.parametrize("line", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES)
@pytest.mark.parametrize("argv", [["embed", "--checkpoint", "{ckpt}", "--texts", "{file}", "--out", "{tmp}/e.cevx"],
                                  ["stats", "--corpus", "{file}"]], ids=["embed", "stats"])
def test_jsonl_the_decoder_cannot_read_exits_two_with_e_io(tmp_path, capsys, line, argv):
    file = tmp_path / "rows.jsonl"
    file.write_text(line + "\n", encoding="utf-8")
    fill = {"file": str(file), "tmp": str(tmp_path), "ckpt": str(tiny_checkpoint(tmp_path))}
    assert run([arg.format(**fill) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_IO: {file}:1: invalid JSON: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "override",
    [{"epochs": "2"}, {"epochs": 2.0}, {"batch_size": True}, {"peak_lr": "1e-3"},
     {"train_lora_only": 1}, {"pooling": None}, {"lora_rank": 4.0}, {"lora_alpha": False}],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, override):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(override), encoding="utf-8")
    trips = tmp_path / "trips.jsonl"
    trips.write_text(json.dumps(TRIPLET_ROW) + "\n", encoding="utf-8")
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_USAGE: ") and repr(next(iter(override))) in err


@pytest.mark.parametrize(
    "corrupt, code",
    [
        ({"E": np.zeros(64, dtype=np.float32)}, "E_SHAPE_MISMATCH"),
        ({"lora_rank": np.zeros((1, 1), dtype=np.float32)}, "E_SHAPE_MISMATCH"),
        ({"lora_A1": np.zeros((3, 4), dtype=np.float32)}, "E_SHAPE_MISMATCH"),
        ({"lora_rank": np.array([np.nan], dtype=np.float32)}, "E_BAD_RANK"),
        ({"pooling": np.array([2.0])}, "E_BAD_POOLING"),
        ({"pooling": np.array([0.5])}, "E_BAD_POOLING"),
        ({"pooling": np.array([np.nan])}, "E_BAD_POOLING"),
        ({"E": np.zeros((0, 4), dtype=np.float32)}, "E_BAD_SHAPE"),
        ({"lora_rank": np.array([0.0])}, "E_BAD_RANK"),
        ({"lora_dropout": np.array([1.0])}, "E_BAD_DROPOUT"),
        # Byte edits write_tensors cannot make: a non-UTF-8 name, and b1 written twice.
        pytest.param(lambda data: data.replace(b"lora_dropout", b"lora_dropou\xff"), "E_IO", id="non-utf8-name"),
        pytest.param(lambda data: data.replace(b"\x02\x00b2", b"\x02\x00b1"), "E_IO", id="repeated-name"),
        ({"W1": np.full((4, 6), np.nan)}, "E_IO"),
        ({"lora_alpha": np.array([np.nan])}, "E_IO"),
    ],
)
def test_embed_on_malformed_checkpoint_exits_two(tmp_path, capsys, corrupt, code):
    params = init_params(0, vocab_size=64, d_emb=4, d_hid=6, d_out=4, lora_rank=2)
    tensors = {**params.tensors, "lora_rank": np.array([2.0]), "lora_alpha": np.array([4.0]),
               "lora_dropout": np.array([0.0]), **({} if callable(corrupt) else corrupt)}
    checkpoint = tmp_path / "bad.cemb"
    write_tensors(checkpoint, tensors)
    if callable(corrupt):
        checkpoint.write_bytes(corrupt(checkpoint.read_bytes()))
    texts = tmp_path / "texts.txt"
    texts.write_text("left atrium normal\n", encoding="utf-8")
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts),
                "--out", str(tmp_path / "e.cevx")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{code}: ") and "Traceback" not in err
    assert code != "E_IO" or str(checkpoint) in err


@pytest.mark.parametrize(
    "content, code, status",
    [(b"\xff\xfe{}", "E_IO", 2), (None, "E_IO", 2), (b"{not json", "E_USAGE", 1), (b"[1]", "E_USAGE", 1),
     # JSON that CPython's decoder rejects with ValueError and RecursionError, not JSONDecodeError.
     pytest.param(b'{"epochs": ' + b"7" * 5000 + b"}", "E_USAGE", 1, id="5000-digit integer"),
     pytest.param(b"[" * 100_000, "E_USAGE", 1, id="100000 nested arrays")],
)
def test_config_file_errors(tmp_path, capsys, content, code, status):
    # An unreadable or undecodable config is an input error; bad JSON is a usage error.
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    trips = tmp_path / "trips.jsonl"
    trips.write_text(json.dumps(TRIPLET_ROW) + "\n", encoding="utf-8")
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == status
    err = capsys.readouterr().err
    assert err.startswith(f"{code}: ") and "config.json" in err and "Traceback" not in err


def test_eval_duplicate_query_ids_exit_two(tmp_path, capsys):
    emb = tmp_path / "e.cevx"
    write_embeddings(emb, ["q1", "q2", "c1", "c2", "c3"], np.random.default_rng(0).normal(size=(5, 4)))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("q1\tc1\nq2\tc2\nq1\tc3\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_DUPLICATE_QUERY: ") and "'q1'" in err
    # Similarity pairs may repeat an id.
    pairs.write_text("q1\tc1\t0.5\nq2\tc2\t0.1\nq1\tc3\t0.9\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]) == 0


# name: (ids sidecar bytes, matrix row 1 entry, --pairs or --qrels, its TSV text, what stderr must name)
MALFORMED_EVAL_INPUTS = {
    "ids-not-utf8": (b"q1\n\xff\xfe\nc1\nc2\n", 0.5, "--pairs", "q1\tc1\n", "e.cevx.ids"),
    "ids-repeated": (b"q1\nq2\nc1\nq2\n", 0.5, "--pairs", "q1\tc1\n", "e.cevx.ids:4: id 'q2' repeats line 2"),
    "vector-nan": (b"q1\nq2\nc1\nc2\n", float("nan"), "--pairs", "q1\tc1\n", "'q2'"),
    "pairs-mixed-width": (b"q1\nq2\nc1\nc2\n", 0.5, "--pairs", "q1\tc1\t0.5\nq2\tc2\n", "t.tsv:2:"),
    "qrels-judged-twice": (b"q1\nq2\nc1\nc2\n", 0.5, "--qrels", "q1\tc1\t2\nq1\tc1\t0\n", "t.tsv:2:"),
    "pairs-nan-score": (b"q1\nq2\nc1\nc2\n", 0.5, "--pairs", "q1\tc1\tnan\nq2\tc2\t0.5\n", "t.tsv:1:"),
    "pairs-inf-score": (b"q1\nq2\nc1\nc2\n", 0.5, "--pairs", "q1\tc1\t0.5\nq2\tc2\t-inf\n", "t.tsv:2:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EVAL_INPUTS))
def test_eval_on_malformed_inputs_exits_two(tmp_path, capsys, case):
    ids, entry, flag, tsv, expected = MALFORMED_EVAL_INPUTS[case]
    emb = tmp_path / "e.cevx"
    matrix = np.random.default_rng(0).normal(size=(4, 3))
    matrix[1, 0] = entry
    write_embeddings(emb, ["q1", "q2", "c1", "c2"], matrix)
    ids_sidecar(emb).write_bytes(ids)
    task = tmp_path / "t.tsv"
    task.write_text(tsv, encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), flag, str(task)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_IO: ") and expected in err and "Traceback" not in err


@pytest.mark.parametrize(
    "override, code, status, named",
    [
        ({"vocab_size": 0}, "E_BAD_SHAPE", 2, "vocab_size=0"),
        ({"vocab_size": -5}, "E_BAD_SHAPE", 2, "vocab_size=-5"),
        ({"d_hid": 0}, "E_BAD_SHAPE", 2, "d_hid=0"),
        ({"lora_dropout": 1.0}, "E_BAD_DROPOUT", 2, "lora_dropout"),
        ({"lora_dropout": -0.5}, "E_BAD_DROPOUT", 2, "lora_dropout"),
        ({"beta1": 1.0}, "E_BAD_OPTIMIZER", 2, "beta1"),
        ({"beta2": 1.0}, "E_BAD_OPTIMIZER", 2, "beta2"),
        ({"eps": 0}, "E_BAD_OPTIMIZER", 2, "eps"),
        ({"peak_lr": 1e300}, "E_NONFINITE_GRAD", 3, "epoch 0"),
        # Temperature, learning rates and weight decay must be finite, and
        # none may be negative; each is rejected before the first step.
        ({"temperature": math.inf}, "E_BAD_TEMPERATURE", 2, "temperature must be finite and > 0, got inf"),
        ({"temperature": math.nan}, "E_BAD_TEMPERATURE", 2, "got nan"),
        ({"temperature": -0.05}, "E_BAD_TEMPERATURE", 2, "got -0.05"),
        ({"peak_lr": -1.0}, "E_BAD_SCHEDULE", 2, "peak_lr and min_lr must be finite and >= 0, got -1.0"),
        ({"peak_lr": math.nan}, "E_BAD_SCHEDULE", 2, "got nan"),
        ({"min_lr": math.inf}, "E_BAD_SCHEDULE", 2, "inf"),
        ({"min_lr": -1e-6}, "E_BAD_SCHEDULE", 2, "-1e-06"),
        ({"weight_decay": math.nan}, "E_BAD_OPTIMIZER", 2, "weight_decay finite and >= 0"),
        ({"weight_decay": -0.01}, "E_BAD_OPTIMIZER", 2, "-0.01"),
        ({"weight_decay": math.inf}, "E_BAD_OPTIMIZER", 2, "inf"),
        # eps must be finite too, and so must lora_alpha (checked by the encoder).
        ({"eps": math.inf}, "E_BAD_OPTIMIZER", 2, "eps finite and > 0"),
        ({"lora_alpha": math.inf}, "E_BAD_ALPHA", 2, "lora_alpha must be finite, got inf"),
        ({"lora_alpha": math.nan}, "E_BAD_ALPHA", 2, "got nan"),
        # A config file's seed bypasses the --seed flag check, so TrainConfig rejects it.
        ({"seed": -1}, "E_BAD_SEED", 2, "seed must be nonnegative, got -1"),
        ({"epochs": -1}, "E_BAD_BATCH", 2, "epochs must be >= 0, got -1"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_config_that_cannot_train_exits_cleanly(tmp_path, capsys, override, code, status, named):
    # Each of these crashed, or trained to a NaN validation loss written as
    # "val_loss":NaN; the peak_lr case takes one step (8 train rows, batch 8).
    rows = [{**TRIPLET_ROW, "anchor_id": f"a{i}", "anchor_text": f"left atrium {i}",
             "split": "train" if i < 8 else "val"} for i in range(10)]
    trips = tmp_path / "trips.jsonl"
    trips.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = small_train_config(tmp_path, **override)
    out = tmp_path / "out"
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(out), "--seed", "1"]) == status
    err = capsys.readouterr().err
    assert err.startswith(f"{code}: ") and named in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())
    # A config rejected before training creates no output directory at all.
    assert code == "E_NONFINITE_GRAD" or not out.exists()


@pytest.mark.parametrize("override, code, named", [
    ({"lora_alpha": 1e39}, "E_BAD_ALPHA", "inf as a float32"),
    ({"lora_dropout": 0.99999999}, "E_BAD_DROPOUT", "1.0 as a float32"),
    ({"lora_rank": 10**30}, "E_SHAPE_TOO_LARGE", "Maximum allowed dimension exceeded"),
    ({"vocab_size": 2**62}, "E_SHAPE_TOO_LARGE", "array is too big"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_config_a_checkpoint_or_numpy_cannot_hold_exits_two_before_writing(tmp_path, capsys, override, code,
                                                                                 named):
    # The first two trained, and embed then refused the checkpoint; the shapes were tracebacks.
    trips = tmp_path / "trips.jsonl"
    trips.write_text(json.dumps(TRIPLET_ROW) + "\n" + json.dumps({**TRIPLET_ROW, "anchor_id": "b"}) + "\n",
                     encoding="utf-8")
    out = tmp_path / "out"
    assert run(["train", "--triplets", str(trips), "--config", str(small_train_config(tmp_path, **override)),
                "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{code}: ") and named in err and "Traceback" not in err
    assert not out.exists()


NO_TOKEN = {"train": "!!! ...", "val": "?? -- ??"}


def triplets_with_no_token_text(tmp_path, empty_in):
    # Row 6 (train) and row 9 (val) may each get a text with no letter or digit.
    rows = [{**TRIPLET_ROW, "anchor_id": f"a{i}", "anchor_text": f"left atrium {i}",
             "split": "train" if i < 8 else "val"} for i in range(10)]
    for split in empty_in:
        rows[6 if split == "train" else 9]["negative_text"] = NO_TOKEN[split]
    trips = tmp_path / "trips.jsonl"
    trips.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return trips


@pytest.mark.parametrize("empty_in", [("train",), ("val",), ("train", "val")])
def test_train_on_a_text_with_no_token_exits_two(tmp_path, capsys, empty_in):
    trips, out = triplets_with_no_token_text(tmp_path, empty_in), tmp_path / "out" / "deep"
    assert run(["train", "--triplets", str(trips), "--config", str(small_train_config(tmp_path)),
                "--out-dir", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    # Every text is checked before step 0, the train texts before the val texts.
    assert re.fullmatch(rf"E_EMPTY_TOKENS: text \d+ produced no tokens: '{re.escape(NO_TOKEN[empty_in[0]])}'\n", err)
    # The out-dir and its missing parents are made only after every text has passed.
    assert not out.exists() and not out.parent.exists()


def test_train_rejects_a_val_text_with_no_token_before_step_zero(tmp_path, capsys, monkeypatch):
    import minembed.trainer as trainer_mod

    calls = []
    real = trainer_mod.infonce_gradient
    monkeypatch.setattr(trainer_mod, "infonce_gradient", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    trips = triplets_with_no_token_text(tmp_path, ("val",))
    assert run(["train", "--triplets", str(trips), "--config", str(small_train_config(tmp_path)),
                "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == 2
    # The index counts the run's distinct texts: the train rows hold 10 (8
    # anchors, one shared positive and negative), then come the val anchors
    # of rows 8 and 9, then row 9's negative.
    assert capsys.readouterr().err == f"E_EMPTY_TOKENS: text 12 produced no tokens: '{NO_TOKEN['val']}'\n"
    assert calls == []


def test_train_val_file_rows_are_all_validation(tmp_path, capsys, monkeypatch):
    # With --val, the triplets file gives only its train rows, and every row of the
    # val file validates, whatever its split says.
    from minembed import trainer

    seen = {}
    real_train = trainer.train

    def train(train_rows, params, config, val_triplets=None, out_dir=None):
        seen["train"], seen["val"] = [t.anchor_id for t in train_rows], [t.anchor_id for t in val_triplets]
        return real_train(train_rows, params, config, val_triplets=val_triplets, out_dir=out_dir)

    monkeypatch.setattr(trainer, "train", train)
    rows = [{**TRIPLET_ROW, "anchor_id": f"a{i}", "anchor_text": f"left atrium {i}",
             "split": "train" if i < 8 else "val"} for i in range(10)]
    trips, val = tmp_path / "trips.jsonl", tmp_path / "val.jsonl"
    trips.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    val.write_text("".join(json.dumps({**TRIPLET_ROW, "anchor_id": f"v{i}", "anchor_text": f"mitral valve {i}",
                                       "split": split}) + "\n" for i, split in enumerate(["train", "test", "val"])),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run(["train", "--triplets", str(trips), "--val", str(val), "--config", str(small_train_config(tmp_path)),
                "--out-dir", str(out), "--seed", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert seen == {"train": [f"a{i}" for i in range(8)], "val": ["v0", "v1", "v2"]}
    assert read_jsonl(out / "train-report.jsonl")[0]["val_loss"] is not None
    meta = json.loads((out / "run-metadata.json").read_text(encoding="utf-8"))
    assert meta["input_digests"] == {str(trips): digest(trips), str(val): digest(val)}


def test_train_on_empty_triplets_exits_two(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run(["train", "--triplets", str(empty), "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == 2


def test_numeric_failure_exits_three(tmp_path, monkeypatch):
    import minembed.trainer as trainer_mod
    from minembed.errors import NumericError

    trips = tmp_path / "t.jsonl"
    trips.write_text(
        json.dumps({"anchor_id": "a", "anchor_text": "x y", "positive_text": "y x",
                    "negative_id": "n", "negative_text": "z w", "split": "train"}) + "\n",
        encoding="utf-8",
    )

    def exploding_train(*args, **kwargs):
        raise NumericError("E_NONFINITE_GRAD", "non-finite loss at step 0")

    monkeypatch.setattr(trainer_mod, "train", exploding_train)
    assert run(["train", "--triplets", str(trips), "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == 3


def test_help_exits_zero_and_documents_defaults(capsys):
    for command in ("prepare", "triplets", "train", "embed", "eval", "stats", "gradcheck"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--help"])
    text = capsys.readouterr().out
    for needle in ("epochs=2", "batch_size=128", "peak_lr=0.0002", "warmup_frac=0.1", "temperature=0.05",
                   "lora_rank=16", "lora_alpha=32.0", "lora_dropout=0.05", "pooling=mean"):
        assert needle in text, needle


def test_full_pipeline_and_eval(tmp_path, capsys):
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)

    test_rows = [r for r in read_jsonl(trips) if r["split"] == "test"]
    assert test_rows, "test split should produce triplets"
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "".join(f"{r['anchor_id']}\tpos::{r['anchor_id']}\n" for r in test_rows), encoding="utf-8"
    )
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["acc_at"]) == {"1", "5", "10"}
    assert 0.0 <= report["acc_at"]["1"] <= 1.0
    assert 0.0 < report["mrr"] <= 1.0
    assert report["n_queries"] == len(test_rows)


def test_eval_table_output(tmp_path, capsys):
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)
    test_rows = [r for r in read_jsonl(trips) if r["split"] == "test"]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "".join(f"{r['anchor_id']}\tpos::{r['anchor_id']}\n" for r in test_rows), encoding="utf-8"
    )
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs), "--table"]) == 0
    table = capsys.readouterr().out
    for column in ("Model", "Acc@1", "Acc@5", "MRR"):
        assert column in table


def test_eval_qrels_and_sts(tmp_path, capsys):
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)
    ids, _ = read_embeddings(emb)
    anchors = [i for i in ids if not i.startswith("pos::")]

    qrels = tmp_path / "qrels.tsv"
    qrels.write_text(
        f"{anchors[0]}\tpos::{anchors[0]}\t2\n{anchors[0]}\tpos::{anchors[1]}\t0\n"
        f"{anchors[1]}\tpos::{anchors[1]}\t1\n",
        encoding="utf-8",
    )
    assert run(["eval", "--embeddings", str(emb), "--qrels", str(qrels), "--k", "5,10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["ndcg_at_10"] <= 1.0
    assert set(report["recall_at"]) == {"5", "10"}

    sts = tmp_path / "sts.tsv"
    sts.write_text(
        "".join(f"{a}\tpos::{a}\t{0.1 * i}\n" for i, a in enumerate(anchors[:6])), encoding="utf-8"
    )
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(sts)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spearman"] is not None
    assert -1.0 <= report["spearman"] <= 1.0


@pytest.mark.parametrize("qrels, gain", [
    ("q\tc1\t2000\n", "exp"),
    (f"q\tc1\t{'9' * 401}\n", "linear"),
    ("q\tc1\t1023\nq\tc2\t1023\nq\tc3\t1023\n", "exp"),  # an ideal DCG past the largest float
    (f"q\tc1\t17{'0' * 307}\nq\tc2\t17{'0' * 307}\n", "linear"),
])
def test_eval_grade_whose_gain_a_float_cannot_hold_exits_two(tmp_path, capsys, qrels, gain):
    # The first two were OverflowError tracebacks; the last two printed an ndcg_at_10 of NaN.
    emb = tmp_path / "e.cevx"
    write_embeddings(emb, ["q", "c1", "c2", "c3"], np.array([[1, 0], [1, 0.1], [0.2, 1], [0.5, 0.5]], np.float32))
    path = tmp_path / "qrels.tsv"
    path.write_text(qrels, encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--qrels", str(path), "--gain", gain]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_BAD_GRADE: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, tsv, message", [
    ("--pairs", "", "no candidates to rank"),
    ("--qrels", "", "no queries to rank"),
    ("--qrels", "q\tc\t1\n", "no candidates to rank"),  # the one embedded id is the query
])
def test_eval_empty_task_exits_two(tmp_path, capsys, flag, tsv, message):
    # An empty pool is named before an empty query list, so an empty pairs file names the pool.
    emb, path = tmp_path / "e.cevx", tmp_path / "task.tsv"
    write_embeddings(emb, ["q"], np.ones((1, 2), np.float32))
    path.write_text(tsv, encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_EMPTY_CANDIDATES: {message}\n"


@pytest.mark.parametrize("flag, tsv, message", [
    ("--pairs", "q1\tc1\nq2\tc2\n", "zero vector in task embeddings"),
    ("--qrels", "q1\tc1\t1\nq2\tc2\t1\n", "zero vector in task embeddings"),
    ("--pairs", "q1\tc1\t0.5\nq2\tc2\t0.1\n", "zero vector in STS pair"),
])
def test_eval_zero_vector_exits_two(tmp_path, capsys, flag, tsv, message):
    # A CEVX row of zeros has no direction to rank or score by.
    emb, path = tmp_path / "e.cevx", tmp_path / "task.tsv"
    write_embeddings(emb, ["q1", "q2", "c1", "c2"], np.array([[1, 0], [0, 0], [1, 1], [0, 1]], np.float32))
    path.write_text(tsv, encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_EMPTY_CANDIDATES: {message}\n"


def test_eval_cutoff_that_is_not_an_integer_is_usage_error(tmp_path, capsys):
    emb, pairs = tmp_path / "e.cevx", tmp_path / "pairs.tsv"
    write_embeddings(emb, ["a", "b"], np.eye(2, dtype=np.float32))
    pairs.write_text("a\tb\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs), "--k", "1,x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "E_USAGE: --k must be comma-separated integers, got '1,x'\n"


def test_eval_missing_embedding_exits_two(tmp_path, capsys):
    emb = tmp_path / "e.cevx"
    write_embeddings(emb, ["a", "b"], np.eye(2, dtype=np.float32))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\nghost-id\tb\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "E_MISSING_EMBEDDING: no embedding for id 'ghost-id'\n"


def test_embed_zero_vector_exits_three(tmp_path, capsys):
    # W2, b2 and lora_B2 all zero: every text encodes to the zero vector, which has no direction.
    params = init_params(0, vocab_size=64, d_emb=4, d_hid=6, d_out=4, lora_rank=2)
    for name in ("W2", "b2", "lora_B2"):
        params.tensors[name][...] = 0.0
    checkpoint, texts, out = tmp_path / "zero.cemb", tmp_path / "texts.txt", tmp_path / "e.cevx"
    save_checkpoint(params, checkpoint)
    texts.write_text("left atrium normal\n", encoding="utf-8")
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_ZERO_VECTOR: ") and "Traceback" not in err
    assert not out.exists()


def test_eval_after_an_embed_whose_ids_were_not_written_exits_two(tmp_path, capsys, monkeypatch):
    # An earlier run of the same size left ids a, b: they must not be read beside the new vectors.
    import minembed.storage as storage_mod
    from minembed.errors import DataError

    checkpoint, texts, emb = tiny_checkpoint(tmp_path), tmp_path / "t.jsonl", tmp_path / "e.cevx"
    texts.write_text('{"sent_id": "a", "text": "left atrium"}\n{"sent_id": "b", "text": "mitral valve"}\n',
                     encoding="utf-8")
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts), "--out", str(emb)]) == 0
    real = storage_mod.write_atomic

    def disk_full_at_sidecar(target, data):
        if str(target).endswith(".ids"):
            raise DataError("E_IO", f"cannot write {target}: [Errno 28] No space left on device")
        real(target, data)

    monkeypatch.setattr(storage_mod, "write_atomic", disk_full_at_sidecar)
    texts.write_text('{"sent_id": "c", "text": "aortic root"}\n{"sent_id": "d", "text": "sinus rhythm"}\n',
                     encoding="utf-8")
    capsys.readouterr()
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts), "--out", str(emb)]) == 2
    assert capsys.readouterr().err.startswith(f"E_IO: cannot write {emb}.ids: ")
    pairs = tmp_path / "p.tsv"
    pairs.write_text("a\tb\n", encoding="utf-8")
    assert run(["eval", "--embeddings", str(emb), "--pairs", str(pairs)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"E_IO: cannot read {emb}: ") and "Traceback" not in err


def test_stats_command(tmp_path, capsys):
    docs = write_docs(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "2"])
    capsys.readouterr()
    assert run(["stats", "--corpus", str(corpus)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["sentence_count"] == len(read_jsonl(corpus))
    assert stats["sd_len_tokens"] >= 0.0
    assert stats["mean_len_tokens"] > 0.0
    # The token count does not depend on the vocabulary size, so there is no --vocab-size.
    assert run(["stats", "--corpus", str(corpus), "--vocab-size", "3"]) == 1


@pytest.mark.parametrize(
    "rows",
    [
        [{"sent_id": sid, "text": f"left atrium {i}"} for i, sid in enumerate("aba")],
        [{**TRIPLET_ROW, "anchor_id": "a"}, {**TRIPLET_ROW, "anchor_id": "b"}, {**TRIPLET_ROW, "anchor_id": "a"}],
    ],
    ids=["manifest", "triplets"],
)
def test_embed_rejects_a_repeated_id(tmp_path, capsys, rows):
    texts = tmp_path / "texts.jsonl"
    texts.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    checkpoint = tiny_checkpoint(tmp_path)
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts),
                "--out", str(tmp_path / "e.cevx")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_IO: ") and "texts.jsonl" in err and "'a'" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["texts.jsonl", "tiny.cemb"]


def test_triplets_kills_a_provider_that_lingers_after_eof(tmp_path, monkeypatch):
    # The provider answers every request, then sleeps instead of exiting.
    import minembed.triplets as triplets_mod

    monkeypatch.setattr(triplets_mod, "PROVIDER_EXIT_GRACE_S", 0.2)
    script = tmp_path / "provider.py"
    script.write_text(
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'paraphrase': json.loads(line)['text'][::-1]}), flush=True)\n"
        "time.sleep(15)\n",
        encoding="utf-8",
    )
    docs, corpus, out = write_docs(tmp_path, n_per_cluster=5), tmp_path / "corpus.jsonl", tmp_path / "trips.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "1"]) == 0
    started = time.monotonic()
    assert run(["triplets", "--corpus", str(corpus), "--out", str(out), "--min-distance", "1", "--seed", "1",
                "--provider", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"]) == 0
    assert time.monotonic() - started < 10
    assert len(read_jsonl(out)) == len(read_jsonl(corpus))


def provider_script(tmp_path, body):
    """A provider command running the Python ``body``. A shell writes the
    provider's pid to the returned file before Python starts, so a test can
    check that the provider is gone."""
    script, pid_file = tmp_path / "provider.py", tmp_path / "provider.pid"
    script.write_text(f"import json, os, sys, time\n{body}\n", encoding="utf-8")
    python = f"exec {shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    return f"sh -c {shlex.quote(f'echo $$ > {shlex.quote(str(pid_file))}; {python}')}", pid_file


def assert_reaped(pid_file):
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_triplets_times_out_on_a_provider_that_never_answers(tmp_path, capsys, monkeypatch):
    import minembed.triplets as triplets_mod

    monkeypatch.setattr(triplets_mod, "PROVIDER_RESPONSE_TIMEOUT_S", 0.3)
    provider, pid_file = provider_script(tmp_path, "for line in sys.stdin: pass")  # reads, never answers
    docs, corpus, out = write_docs(tmp_path, n_per_cluster=5), tmp_path / "corpus.jsonl", tmp_path / "trips.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "1"]) == 0
    capsys.readouterr()
    started = time.monotonic()
    assert run(["triplets", "--corpus", str(corpus), "--out", str(out), "--min-distance", "1", "--seed", "1",
                "--provider", provider]) == 2
    assert time.monotonic() - started < 10
    err = capsys.readouterr().err
    assert err.startswith("E_PROVIDER_TIMEOUT: ") and "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()
    assert_reaped(pid_file)


@pytest.mark.parametrize("body, code", [
    ("for line in sys.stdin: print(json.dumps({'paraphrase': json.loads(line)['text'][::-1]}), flush=True)", 0),
    # Fails on its first answer, then lingers with requests unanswered.
    ("sys.stdin.readline(); print('not json', flush=True); time.sleep(15)", 2),
], ids=["answers", "fails-and-lingers"])
def test_triplets_leaves_no_provider_running(tmp_path, body, code):
    # The exit grace stays at its default: a provider with requests still
    # due is killed at once, not after the grace.
    provider, pid_file = provider_script(tmp_path, body)
    docs, corpus, out = write_docs(tmp_path, n_per_cluster=5), tmp_path / "corpus.jsonl", tmp_path / "trips.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "1"]) == 0
    started = time.monotonic()
    assert run(["triplets", "--corpus", str(corpus), "--out", str(out), "--min-distance", "1", "--seed", "1",
                "--provider", provider]) == code
    assert time.monotonic() - started < 5
    assert_reaped(pid_file)


def test_gradcheck_command(tmp_path, capsys):
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)
    assert run(["gradcheck", "--checkpoint", str(checkpoint), "--batch", str(trips),
                "--samples", "30", "--batch-size", "4"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["max_rel_error"] <= 1e-4
    assert run(["gradcheck", "--checkpoint", str(checkpoint), "--batch", str(trips),
                "--samples", "30", "--batch-size", "4", "--lora-only"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["max_rel_error"] <= 1e-4


def test_gradcheck_on_an_empty_batch_file_exits_two(tmp_path, capsys):
    batch = tmp_path / "empty.jsonl"
    batch.write_text("", encoding="utf-8")
    assert run(["gradcheck", "--checkpoint", str(tiny_checkpoint(tmp_path)), "--batch", str(batch)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_EMPTY_BATCH: no triplets in {batch}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_a_coordinate_it_cannot_measure_exits_three(tmp_path, capsys):
    # With h = 1e300 every probe loss is NaN; max() dropped each NaN error and printed about 1e-42 with exit 0.
    params = init_params(11, vocab_size=512, d_emb=16, d_hid=24, d_out=12, lora_rank=4, lora_alpha=3e38,
                         pooling="mean")
    params.tensors["lora_B1"][...] = 0.01
    params.tensors["lora_B2"][...] = 0.01
    checkpoint, trips = tmp_path / "big.cemb", tmp_path / "trips.jsonl"
    save_checkpoint(params, checkpoint)
    trips.write_text("".join(json.dumps({**TRIPLET_ROW, "anchor_id": f"a{i}", "anchor_text": f"left atrium {i}"})
                             + "\n" for i in range(4)), encoding="utf-8")
    argv = ["gradcheck", "--checkpoint", str(checkpoint), "--batch", str(trips), "--samples", "50", "--batch-size", "4"]
    assert run(argv + ["--h", "1e300"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_NONFINITE_GRAD: ") and "cannot be measured" in err
    assert "(h=1e+300)" in err and "Traceback" not in err
    assert run(argv + ["--h", "1e-4"]) == 0
    assert json.loads(capsys.readouterr().out)["max_rel_error"] <= 1e-4


@pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--samples", "0"), ("--batch-size", "-1"),
                                         ("--batch-size", "0"), ("--h", "nan"), ("--h", "inf"),
                                         ("--h", "-1.0"), ("--h", "0.0")])
def test_gradcheck_count_below_one_is_usage_error(tmp_path, capsys, flag, value):
    # --h is checked before the checkpoint is read, so for --h it does not exist.
    trips = tmp_path / "trips.jsonl"
    trips.write_text("".join(json.dumps({**TRIPLET_ROW, "anchor_id": a}) + "\n" for a in "abc"), encoding="utf-8")
    checkpoint = tmp_path / "missing.cemb" if flag == "--h" else tiny_checkpoint(tmp_path)
    assert run(["gradcheck", "--checkpoint", str(checkpoint), "--batch", str(trips), flag, value]) == 1
    out, err = capsys.readouterr()
    rule = "must be finite and > 0" if flag == "--h" else "must be >= 1"
    assert out == "" and err == f"E_USAGE: {flag} {rule}, got {value}\n"


PREPARE_MISSING_INPUT = ["prepare", "--in", "{tmp}/missing", "--out", "{tmp}/c.jsonl", "--seed", "1"]
TRIPLETS_MISSING_INPUT = ["triplets", "--corpus", "{tmp}/missing.jsonl", "--out", "{tmp}/t.jsonl", "--seed", "1"]
EVAL_MISSING_INPUT = ["eval", "--embeddings", "{tmp}/missing.cevx", "--pairs", "{tmp}/p.tsv"]


@pytest.mark.parametrize("argv, message", [
    (PREPARE_MISSING_INPUT + ["--train-frac", "1"], "--train-frac must be in (0, 1), got 1.0"),
    (PREPARE_MISSING_INPUT + ["--train-frac", "nan"], "--train-frac must be in (0, 1), got nan"),
    (PREPARE_MISSING_INPUT + ["--test-frac", "-0.5"], "--test-frac must be >= 0, got -0.5"),
    (PREPARE_MISSING_INPUT + ["--test-frac", "nan"], "--test-frac must be >= 0, got nan"),
    (PREPARE_MISSING_INPUT + ["--train-frac", "0.5", "--test-frac", "0.75"],
     "--train-frac + --test-frac must be <= 1, got 1.25"),
    (TRIPLETS_MISSING_INPUT + ["--min-distance", "0"], "--min-distance must be >= 1, got 0"),
    (TRIPLETS_MISSING_INPUT + ["--min-distance", "-3"], "--min-distance must be >= 1, got -3"),
    (EVAL_MISSING_INPUT + ["--k", "0"], "--k values must be >= 1, got '0'"),
    (EVAL_MISSING_INPUT + ["--k", "1,x"], "--k must be comma-separated integers, got '1,x'"),
])
def test_bad_flag_is_usage_error_before_input_is_read(tmp_path, capsys, argv, message):
    # The input does not exist, so only a check made before it is read exits 1 with this message.
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_USAGE: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_embed_plain_text_lines(tmp_path):
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)
    texts = tmp_path / "texts.txt"
    texts.write_text("left atrium normal\nmitral valve leaflets\n", encoding="utf-8")
    out = tmp_path / "plain.cevx"
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(texts), "--out", str(out)]) == 0
    ids, matrix = read_embeddings(out)
    assert ids == ["line-000001", "line-000002"]
    assert matrix.shape == (2, 12)
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-5)


def test_embed_uses_the_checkpoints_pooling(tmp_path, capsys):
    # run_pipeline trains with mean pooling and embeds with --pooling mean.
    corpus, trips, checkpoint, emb = run_pipeline(tmp_path)
    default = tmp_path / "default.cevx"
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(trips), "--out", str(default)]) == 0
    assert default.read_bytes() == emb.read_bytes()
    assert ids_sidecar(default).read_bytes() == ids_sidecar(emb).read_bytes()

    capsys.readouterr()
    mismatch = tmp_path / "last.cevx"
    assert run(["embed", "--checkpoint", str(checkpoint), "--texts", str(trips), "--out", str(mismatch),
                "--pooling", "last_token"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_POOLING_MISMATCH: ") and "Traceback" not in err
    assert not mismatch.exists()


def test_pipeline_reruns_byte_identical(tmp_path):
    corpus_a, trips_a, ckpt_a, emb_a = run_pipeline(tmp_path, "run-a", seed=9)
    corpus_b, trips_b, ckpt_b, emb_b = run_pipeline(tmp_path, "run-b", seed=9)
    assert corpus_a.read_bytes() == corpus_b.read_bytes()
    assert trips_a.read_bytes() == trips_b.read_bytes()
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert emb_a.read_bytes() == emb_b.read_bytes()


RUN_METADATA_KEYS = {"command", "config", "seed", "artifact_version", "input_digests", "output_digests",
                     "duration_seconds", "peak_rss_mb", "environment"}
# command: (command line, its run metadata or None for a command that writes no file)
RUN_METADATA_CASES = {
    "prepare": (["prepare", "--in", "{docs}", "--out", "{out}/c.jsonl", "--seed", "1"], "{out}/c.jsonl.meta.json"),
    "triplets": (["triplets", "--corpus", "{corpus}", "--out", "{out}/t.jsonl", "--min-distance", "1", "--seed", "1"],
                 "{out}/t.jsonl.meta.json"),
    "train": (["train", "--triplets", "{trips}", "--config", "{config}", "--out-dir", "{out}/train", "--seed", "1"],
              "{out}/train/run-metadata.json"),
    "embed": (["embed", "--checkpoint", "{ckpt}", "--texts", "{trips}", "--out", "{out}/e.cevx"],
              "{out}/e.cevx.meta.json"),
    "eval": (["eval", "--embeddings", "{emb}", "--pairs", "{pairs}"], None),
    "stats": (["stats", "--corpus", "{corpus}"], None),
    "gradcheck": (["gradcheck", "--checkpoint", "{ckpt}", "--batch", "{trips}", "--samples", "5",
                   "--batch-size", "4"], None),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The inputs of every command: one pipeline run and a pairs file."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus, trips, ckpt, emb = run_pipeline(root)
    pairs = root / "pairs.tsv"
    pairs.write_text("".join(f"{row['anchor_id']}\tpos::{row['anchor_id']}\n" for row in read_jsonl(trips)[:4]),
                     encoding="utf-8")
    return {"root": root, "docs": root / "docs.jsonl", "corpus": corpus, "trips": trips, "ckpt": ckpt, "emb": emb,
            "pairs": pairs, "config": root / "config.json"}


@pytest.mark.parametrize("command", list(RUN_METADATA_CASES))
def test_run_metadata_contract(tmp_path, pipeline, command):
    """Every command that writes files writes one run metadata of the same
    keys, digesting each file it wrote; the others write no file."""
    argv, meta_path = RUN_METADATA_CASES[command]
    fill = {**{name: str(path) for name, path in pipeline.items()}, "out": str(tmp_path)}

    def files():
        return {path for root in (tmp_path, pipeline["root"]) for path in root.rglob("*") if path.is_file()}

    before = files()
    assert run([arg.format(**fill) for arg in argv]) == 0
    added = files() - before
    if meta_path is None:
        assert added == set()
        return
    meta_path = Path(meta_path.format(**fill))
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert set(meta) == RUN_METADATA_KEYS
    assert meta["command"] == command
    assert meta["input_digests"] and meta["output_digests"]
    for kind in ("input_digests", "output_digests"):
        assert meta[kind] == {path: digest(path) for path in meta[kind]}
    assert {Path(path) for path in meta["output_digests"]} | {meta_path} == added


# command: the storage reader made to run out of memory, and its command line
OUT_OF_MEMORY_CASES = {
    "prepare": ("read_jsonl", ["prepare", "--in", "{docs}", "--out", "{out}/c.jsonl", "--seed", "1"]),
    "triplets": ("read_jsonl", ["triplets", "--corpus", "{corpus}", "--out", "{out}/t.jsonl", "--seed", "1"]),
    "eval": ("read_pairs", ["eval", "--embeddings", "{emb}", "--pairs", "{pairs}"]),
}


@pytest.mark.parametrize("command", list(OUT_OF_MEMORY_CASES))
def test_a_command_that_runs_out_of_memory_exits_two(tmp_path, capsys, monkeypatch, pipeline, command):
    reader, argv = OUT_OF_MEMORY_CASES[command]
    fill = {**{name: str(path) for name, path in pipeline.items()}, "out": str(tmp_path)}

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"minembed.storage.{reader}", out_of_memory)
    before = sorted(pipeline["root"].rglob("*"))
    assert run([arg.format(**fill) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_OUT_OF_MEMORY: {command} ran out of memory\n"
    assert list(tmp_path.iterdir()) == [] and sorted(pipeline["root"].rglob("*")) == before


def test_stats_over_an_address_space_cap_exits_two(tmp_path):
    """A real MemoryError, in a child whose address space is capped below what
    the generated manifest's records take, once a tiny manifest fits the cap."""
    resource = pytest.importorskip("resource")
    cap = 160 << 20
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"}
    row = '{"sent_id":"s%07d","source_name":"a","text":"left atrium %07d","char_len":20,"split":"train"}\n'

    def stats(rows: int) -> subprocess.CompletedProcess:
        corpus = tmp_path / f"c{rows}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.writelines(row % (i, i) for i in range(rows))
        return subprocess.run([sys.executable, "-m", "minembed", "stats", "--corpus", str(corpus)], env=env,
                              capture_output=True, text=True, timeout=120,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))

    tiny = stats(3)
    if tiny.returncode != 0:
        pytest.skip(f"a 3-row stats does not run under a {cap >> 20} MiB address space here: {tiny.stderr[-300:]}")
    # 300,000 rows are a 29 MiB file whose records keep about 100 MiB.
    big = stats(300_000)
    assert (big.returncode, big.stdout, big.stderr) == (2, "", "E_OUT_OF_MEMORY: stats ran out of memory\n")


# command line: the minembed modules it must not load
_MINER_AND_TRAINER = {"minembed.trainer", "minembed.triplets", "minembed.corpus"}
_ENCODER, _METRICS = {"minembed.encoder"}, {"minembed.metrics"}
STAGE_MODULES_NOT_LOADED = {
    ("eval", "--embeddings", "{emb}", "--pairs", "{pairs}"): _MINER_AND_TRAINER | _ENCODER,
    ("eval", "--embeddings", "{emb}", "--qrels", "{qrels}"): _MINER_AND_TRAINER | _ENCODER,
    ("embed", "--checkpoint", "{ckpt}", "--texts", "{trips}", "--out", "{out}/e.cevx"): _MINER_AND_TRAINER | _METRICS,
    ("prepare", "--in", "{docs}", "--out", "{out}/c.jsonl", "--seed", "1"):
        {"minembed.trainer", "minembed.triplets"} | _ENCODER | _METRICS,
    ("triplets", "--corpus", "{corpus}", "--out", "{out}/t.jsonl", "--min-distance", "1", "--seed", "1"):
        {"minembed.trainer"} | _ENCODER | _METRICS,
    ("train", "--triplets", "{trips}", "--config", "{config}", "--out-dir", "{out}/run", "--seed", "1"): _METRICS,
}


@pytest.mark.parametrize("argv", list(STAGE_MODULES_NOT_LOADED), ids=lambda argv: " ".join(argv[:1] + argv[3:4]))
def test_each_stage_loads_only_the_modules_it_runs(tmp_path, pipeline, argv):
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("".join(f"{row['anchor_id']}\tpos::{row['anchor_id']}\t1\n"
                             for row in read_jsonl(pipeline["trips"])[:4]), encoding="utf-8")
    fill = {**{name: str(path) for name, path in pipeline.items()}, "out": str(tmp_path), "qrels": str(qrels)}
    # Through the package, as `python -m minembed` runs it.
    code = ("import json, sys, minembed.cli\n"
            "status = minembed.cli.run(sys.argv[1:])\n"
            "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('minembed'))]))")
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run([sys.executable, "-c", code, *(arg.format(**fill) for arg in argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    status, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0, proc.stderr
    assert set(loaded) & STAGE_MODULES_NOT_LOADED[argv] == set()


OUT_UNDER_A_FILE = {
    "prepare": ["prepare", "--in", "{docs}", "--out", "{file}/c.jsonl", "--seed", "1"],
    "triplets": ["triplets", "--corpus", "{corpus}", "--out", "{file}/t.jsonl", "--min-distance", "1", "--seed", "1"],
    "embed": ["embed", "--checkpoint", "{ckpt}", "--texts", "{trips}", "--out", "{file}/e.cevx"],
    "train": ["train", "--triplets", "{trips}", "--out-dir", "{file}", "--seed", "1"],
    "train-below": ["train", "--triplets", "{trips}", "--out-dir", "{file}/sub", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(OUT_UNDER_A_FILE))
def test_output_under_a_regular_file_exits_two(tmp_path, capsys, case):
    docs, corpus, trips = write_docs(tmp_path, n_per_cluster=5), tmp_path / "corpus.jsonl", tmp_path / "trips.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "1"]) == 0
    assert run(["triplets", "--corpus", str(corpus), "--out", str(trips), "--min-distance", "1", "--seed", "1"]) == 0
    file = tmp_path / "file"
    file.write_text("a regular file\n", encoding="utf-8")
    fill = {"docs": docs, "corpus": corpus, "trips": trips, "ckpt": tiny_checkpoint(tmp_path), "file": file}
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run([arg.format(**fill) for arg in OUT_UNDER_A_FILE[case]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_IO: ") and "Traceback" not in err and str(file) in err
    assert sorted(tmp_path.rglob("*")) == before


def test_config_file_overrides_flags(tmp_path):
    docs = write_docs(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    trips = tmp_path / "triplets.jsonl"
    run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "4"])
    run(["triplets", "--corpus", str(corpus), "--out", str(trips), "--min-distance", "1", "--seed", "4"])
    config = small_train_config(tmp_path, seed=123, lora_alpha=8)  # an int stands for a float
    out_dir = tmp_path / "train"
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(out_dir), "--seed", "99"]) == 0
    meta = json.loads((out_dir / "run-metadata.json").read_text(encoding="utf-8"))
    assert meta["seed"] == 123, "config file seed must override the flag"


def test_unknown_config_key_rejected(tmp_path):
    docs = write_docs(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    trips = tmp_path / "triplets.jsonl"
    run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "4"])
    run(["triplets", "--corpus", str(corpus), "--out", str(trips), "--min-distance", "1", "--seed", "4"])
    config = tmp_path / "bad.json"
    config.write_text('{"learning_rate_typo": 1}', encoding="utf-8")
    assert run(["train", "--triplets", str(trips), "--config", str(config),
                "--out-dir", str(tmp_path / "x"), "--seed", "1"]) == 1


def test_subprocess_provider_through_cli(tmp_path):
    import sys

    docs = write_docs(tmp_path, n_per_cluster=5)
    corpus = tmp_path / "corpus.jsonl"
    trips = tmp_path / "triplets.jsonl"
    run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "4"])
    provider = (
        f"{sys.executable} -c \"import sys, json\n"
        "for line in sys.stdin:\n"
        "    t = json.loads(line)['text']\n"
        "    print(json.dumps({'paraphrase': 'restated: ' + t}), flush=True)\""
    )
    assert run(["triplets", "--corpus", str(corpus), "--out", str(trips),
                "--min-distance", "1", "--provider", provider, "--seed", "4"]) == 0
    rows = read_jsonl(trips)
    assert rows
    assert all(r["positive_text"].startswith("restated: ") for r in rows)


# Providers that fail other than by a degenerate paraphrase; each body runs
# after "import json, os, sys, time".
FAILING_PROVIDER_SCRIPTS = {
    "answers-empty-object": "for line in sys.stdin: print('{}', flush=True)",
    "answers-null": "for line in sys.stdin: print(json.dumps({'paraphrase': None}), flush=True)",
    "answers-non-utf8": "for line in sys.stdin: sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()",
    # JSON whose string decodes to a lone surrogate, which the triplet file could not hold.
    "answers-lone-surrogate": "for line in sys.stdin: print(json.dumps({'paraphrase': 'x \\ud800 y'}), flush=True)",
    # Answers once, having closed its stdin first, and lingers: the next
    # request cannot be sent, and closing the pipe must not fail either.
    "closes-stdin-and-lingers": "sys.stdin.readline(); os.close(0); print('{\"paraphrase\": \"p\"}', flush=True); "
                                "time.sleep(15)",
    # Answers every request, but writes one more line first or last: which
    # answer belongs to which request is lost.
    "answers-one-unasked-first": "print(json.dumps({'paraphrase': 'p'}), flush=True)\n"
                                 "for line in sys.stdin: print(json.dumps({'paraphrase': 'p ' + json.loads(line)['text']}), "
                                 "flush=True)",
    "answers-one-unasked-last": "for line in sys.stdin: print(json.dumps({'paraphrase': 'p ' + json.loads(line)['text']}), "
                                "flush=True)\n"
                                "print(json.dumps({'paraphrase': 'p'}), end='', flush=True)",
}


# Commands that name no program to start.
UNSTARTABLE_PROVIDERS = [pytest.param("python -c 'x", id="unclosed-quote"), pytest.param(" ", id="blank"),
                         pytest.param("", id="empty")]


@pytest.mark.parametrize("provider", ["false", "sleep 0", *sorted(FAILING_PROVIDER_SCRIPTS), *UNSTARTABLE_PROVIDERS])
def test_triplets_provider_failure_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch, provider):
    # Only a degenerate paraphrase is a skip; any other provider failure stops the run.
    import minembed.triplets as triplets_mod

    monkeypatch.setattr(triplets_mod, "PROVIDER_EXIT_GRACE_S", 0.2)
    if provider in FAILING_PROVIDER_SCRIPTS:
        script = tmp_path / "provider.py"
        script.write_text("import json, os, sys, time\n" + FAILING_PROVIDER_SCRIPTS[provider] + "\n", encoding="utf-8")
        provider = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    docs, corpus, out = write_docs(tmp_path, n_per_cluster=5), tmp_path / "corpus.jsonl", tmp_path / "trips.jsonl"
    assert run(["prepare", "--in", str(docs), "--out", str(corpus), "--seed", "1"]) == 0
    capsys.readouterr()
    started = time.monotonic()
    assert run(["triplets", "--corpus", str(corpus), "--out", str(out), "--min-distance", "1", "--seed", "1",
                "--provider", provider]) == 2
    assert time.monotonic() - started < 10
    err = capsys.readouterr().err
    assert err.startswith("E_PROVIDER_UNAVAILABLE: ") and "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


def test_triplets_on_a_manifest_whose_last_line_is_not_utf8_exits_two(tmp_path, capsys):
    # The lines before it are read and parsed first; the stage still writes nothing.
    corpus, out = tmp_path / "c.jsonl", tmp_path / "t.jsonl"
    rows = [{**SENTENCE_ROW, "sent_id": f"s{i}"} for i in range(3)]
    corpus.write_bytes("".join(json.dumps(r) + "\n" for r in rows).encode("utf-8") + b'{"text": "\xff"}\n')
    assert run(["triplets", "--corpus", str(corpus), "--out", str(out), "--min-distance", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_IO: cannot read {corpus}: 'utf-8' codec can't decode byte 0xff") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def test_a_row_with_an_unknown_split_is_rejected_where_it_is_read(tmp_path, capsys):
    # Each stage used to drop the row without a word: triplets built one
    # triplet per other row and reported no skip, train trained without it.
    rows = [{**SENTENCE_ROW, "sent_id": f"s{i}", "text": f"sentence number {i} of a small corpus", "split": split}
            for i, split in enumerate(["train", "Train", "train"])]
    for row in rows:
        row["char_len"] = len(row["text"])
    manifest, out = tmp_path / "c.jsonl", tmp_path / "t.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run(["triplets", "--corpus", str(manifest), "--out", str(out), "--min-distance", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_IO: {manifest}:2: ") and "got 'Train'" in err
    # A --val file is validated whatever its split, but a split it names must still be one of the three.
    trips, val = tmp_path / "trips.jsonl", tmp_path / "val.jsonl"
    trips.write_text(json.dumps(TRIPLET_ROW) + "\n", encoding="utf-8")
    val.write_text(json.dumps({**TRIPLET_ROW, "split": "test"}) + "\n" + json.dumps({**TRIPLET_ROW, "split": "VAL"}) + "\n",
                   encoding="utf-8")
    config = small_train_config(tmp_path)
    assert run(["train", "--triplets", str(trips), "--val", str(val), "--config", str(config),
                "--out-dir", str(tmp_path / "run"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"E_IO: {val}:2: ") and "got 'VAL'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "config.json", "trips.jsonl", "val.jsonl"]


def test_triplets_on_a_manifest_with_no_split_exits_two(tmp_path, capsys):
    # Rows in no split give no triplet, so building from them would write an empty file without a word.
    rows = [{key: value for key, value in SENTENCE_ROW.items() if key != "split"} | {"sent_id": f"s{i}"}
            for i in range(3)]
    manifest, out = tmp_path / "c.jsonl", tmp_path / "t.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run(["triplets", "--corpus", str(manifest), "--out", str(out), "--min-distance", "1", "--seed", "1"]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == "E_NOT_SPLIT: record 's0' has split 'unassigned', not one of train, val, test\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]


def test_a_provider_answer_no_request_asked_for_exits_two(tmp_path, capsys):
    # One unrequested line first used to shift every positive onto the
    # anchor after the one it was meant for, and the run exited 0.
    rows = [{**SENTENCE_ROW, "sent_id": f"s{i}", "source_name": f"src{i % 2}",
             "text": f"sentence number {i} of a small corpus"} for i in range(6)]
    for row in rows:
        row["char_len"] = len(row["text"])
    manifest, out = tmp_path / "c.jsonl", tmp_path / "t.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    script = tmp_path / "provider.py"
    script.write_text("import json, sys\n"
                      "print(json.dumps({'paraphrase': 'an answer to no request'}), flush=True)\n"
                      "for line in sys.stdin: print(json.dumps({'paraphrase': json.loads(line)['text'][::-1]}), flush=True)\n",
                      encoding="utf-8")
    assert run(["triplets", "--corpus", str(manifest), "--out", str(out), "--min-distance", "1", "--seed", "1",
                "--provider", f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_PROVIDER_UNAVAILABLE: ") and "1 answer lines that no request asked for" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "provider.py"]


def test_report_tables_shapes():
    retrieval = {"acc_at": {"1": 0.996, "5": 0.9998}, "mrr": 0.9976}
    table = report_tables(retrieval, model_name="trained")
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Acc@1", "Acc@5", "MRR"]
    assert len(lines) == 3
    assert "99.60%" in lines[2] and "0.9976" in lines[2]

    graded = {"ndcg_at_10": 0.6098, "recall_at": {"10": 0.76}, "spearman": 0.7748}
    table = report_tables(graded)
    assert table.splitlines()[0].split() == ["Task", "Metric", "Score"]
    assert "NDCG@10" in table and "Recall@10" in table and "Spearman" in table
    assert "0.6098" in table and "0.7748" in table
    assert len(table.splitlines()) == 2 + 3  # header, rule, one row per task metric


def test_report_tables_empty_report_is_header_only():
    lines = report_tables({}).splitlines()
    assert lines[0].split() == ["Task", "Metric", "Score"]
    assert len(lines) == 2  # header and rule, no data rows


REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_lists_every_error_code():
    # Every code raised in the package, and E_USAGE, appears in the README as a whole word.
    sources = (REPO_ROOT / "src" / "minembed").glob("*.py")
    codes = {code for path in sources for code in re.findall(r'"(E_[A-Z0-9_]+)"', path.read_text(encoding="utf-8"))}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert len(codes) >= 40
    assert sorted(c for c in codes | {"E_USAGE"} if not re.search(rf"\b{c}\b", readme)) == []


def test_readme_code_references_resolve():
    # Each `module.name` the README cites, for a minembed module (or the
    # package itself), is an attribute of it or a counter the benchmark's
    # tracer records.
    modules = {path.stem for path in (REPO_ROOT / "src" / "minembed").glob("*.py")} - {"__init__", "__main__"}
    tracing = (REPO_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(rf"`((?:minembed|{'|'.join(sorted(modules))})\.[A-Za-z_][\w.]*)`", readme))
    assert len(cited) > 10

    def resolves(reference: str) -> bool:
        module, *names = reference.split(".")
        target = importlib.import_module("minembed" if module == "minembed" else f"minembed.{module}")
        for name in names:
            if not hasattr(target, name):
                return f'"{reference}"' in tracing
            target = getattr(target, name)
        return True

    assert sorted(ref for ref in cited if not resolves(ref)) == []


def test_benchmark_tracing_hooks_find_their_functions(tmp_path):
    """perfbench/tracing.py wraps minembed functions it finds by name and
    reads some of their positional arguments; a traced prepare, triplets,
    train, embed and eval must still run, record their spans, and count
    documents, negative draws, forward rows, ranked entries and their
    similarity flops."""
    rows = []
    for i, r in enumerate(two_cluster_records(6, seed=1)):
        rows.append({"anchor_id": r.sent_id, "anchor_text": r.text, "positive_text": r.text.upper(),
                     "negative_id": f"n{i}", "negative_text": r.text[::-1], "split": "train" if i % 3 else "val"})
    trips = tmp_path / "trips.jsonl"
    trips.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = small_train_config(tmp_path, batch_size=4, vocab_size=64, d_emb=4, d_hid=6, d_out=4, lora_rank=2)
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath,
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    anchors = [row["anchor_id"] for row in rows]
    pairs, qrels = tmp_path / "pairs.tsv", tmp_path / "qrels.tsv"
    pairs.write_text("".join(f"{a}\tpos::{a}\n" for a in anchors[:4]), encoding="utf-8")
    qrels.write_text("".join(f"{a}\tpos::{a}\t1\n{a}\tpos::{b}\t0\n" for a, b in zip(anchors[:3], anchors[1:])),
                     encoding="utf-8")
    docs, corpus, built = write_docs(tmp_path), tmp_path / "corpus.jsonl", tmp_path / "built.jsonl"
    stages = {
        "prepare": (["prepare", "--in", str(docs), "--out", str(corpus), "--train-frac", "0.5", "--seed", "0"],
                    {"corpus.build_manifest", "corpus.clean_text", "corpus.segment_sentences",
                     "corpus.deduplicate", "corpus.stratified_split"}),
        "triplets": (["triplets", "--corpus", str(corpus), "--out", str(built), "--min-distance", "20",
                      "--seed", "0"],
                     {"triplets.generate_positive", "triplets.sample_hard_negative"}),
        "triplets-provider": (["triplets", "--corpus", str(corpus), "--out", str(tmp_path / "provided.jsonl"),
                               "--min-distance", "20", "--seed", "0", "--provider",
                               f"{shlex.quote(sys.executable)} {shlex.quote(str(REPO_ROOT / 'perfbench' / 'provider.py'))}"],
                              {"triplets.generate_positive", "triplets.sample_hard_negative"}),
        "train": (["train", "--triplets", str(trips), "--config", str(config),
                   "--out-dir", str(tmp_path / "out"), "--seed", "0"],
                  {"trainer.forward_batch", "trainer.backward_batch", "trainer.infonce_gradient",
                   "trainer.adamw_step", "trainer.save_checkpoint", "trainer.evaluation_loss"}),
        "embed": (["embed", "--checkpoint", str(tmp_path / "out" / "epoch-1.cemb"), "--texts", str(trips),
                   "--out", str(tmp_path / "e.cevx"), "--pooling", "mean"],
                  {"cli.encode_batch", "cli.load_checkpoint", "encoder.forward_batch"}),
        "eval-pairs": (["eval", "--embeddings", str(tmp_path / "e.cevx"), "--pairs", str(pairs)],
                       {"metrics.rank_candidates", "metrics.accuracy_at_k", "metrics.mean_reciprocal_rank",
                        "metrics.mean_positive_similarity", "storage.read_embeddings", "storage.read_pairs"}),
        "eval-qrels": (["eval", "--embeddings", str(tmp_path / "e.cevx"), "--qrels", str(qrels)],
                       {"metrics.rank_candidates", "metrics.ndcg_at_10", "metrics.recall_at_k",
                        "storage.read_embeddings", "storage.read_qrels"}),
    }
    # queries x candidates: 4 pairs against their 4 positives; 3 graded queries
    # against every other embedded text (2 texts per triplet row).
    rank_entries = {"eval-pairs": 4 * 4, "eval-qrels": 3 * (2 * len(rows) - 3)}
    for stage, (argv, expected_spans) in stages.items():
        spans_file = tmp_path / f"{stage}-spans.json"
        proc = subprocess.run([sys.executable, str(REPO_ROOT / "perfbench" / "tracing.py"), str(spans_file), *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(spans_file.read_text())
        assert expected_spans <= {span[0] for span in data["spans"]}, stage
        if stage == "prepare":
            assert data["counts"]["corpus.docs"] == len(read_jsonl(docs))
        elif stage == "triplets":
            skipped = json.loads(Path(f"{built}.meta.json").read_text())["config"]["skipped_negative"]
            assert skipped > 0  # 30 records a split: anchors 10-19 have no record 20 away
            assert data["counts"]["triplets.negative_calls"] == len(read_jsonl(built)) + skipped
        elif stage == "triplets-provider":
            # The benchmark provider never gives a degenerate answer: one
            # request per anchor with text, and one negative draw per request.
            with_text = sum(1 for row in read_jsonl(corpus) if row["text"])
            assert data["counts"]["triplets.paraphrase_calls"] == with_text
            assert data["counts"]["triplets.negative_calls"] == with_text
        elif stage == "train":
            assert data["counts"]["trainer.steps"] == 2  # 8 train rows, batch size 4
            # The benchmark self-test's exact counts: AdamW touches the parameter, its gradient
            # and both moments of every trained value once a step, and the one epoch encodes
            # the three texts of every train and validation triplet once.
            params = load_checkpoint(tmp_path / "out" / "epoch-1.cemb")
            trainable = sum(params.tensors[name].size for name in params.trainable_names(False))
            assert data["counts"]["trainer.adamw_bytes"] == 2 * 4 * 8 * trainable
            assert data["counts"]["encoder.forward_rows"] == 3 * 1 * len(rows)
        elif stage == "embed":
            assert data["counts"]["encoder.forward_rows"] == 2 * len(rows)
        else:
            assert data["counts"]["metrics.rank_entries"] == rank_entries[stage]
            # Each ranked entry is one dot product of d_out = 4 terms: 2 flops a term.
            assert data["counts"]["metrics.sim_flops"] == 2 * rank_entries[stage] * 4
