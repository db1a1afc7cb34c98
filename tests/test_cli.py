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
from minembed.encoder import init_params, save_checkpoint
from minembed.storage import ids_sidecar, read_embeddings, read_jsonl, write_embeddings, write_tensors

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
    [(b"\xff\xfe{}", "E_IO", 2), (None, "E_IO", 2), (b"{not json", "E_USAGE", 1), (b"[1]", "E_USAGE", 1)],
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
    trips, out = triplets_with_no_token_text(tmp_path, empty_in), tmp_path / "out"
    assert run(["train", "--triplets", str(trips), "--config", str(small_train_config(tmp_path)),
                "--out-dir", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    # Every text is checked before step 0, the train texts before the val texts.
    assert re.fullmatch(rf"E_EMPTY_TOKENS: text \d+ produced no tokens: '{re.escape(NO_TOKEN[empty_in[0]])}'\n", err)
    assert not out.exists() or not any(out.iterdir())


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


def test_train_on_empty_triplets_exits_two(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run(["train", "--triplets", str(empty), "--out-dir", str(tmp_path / "out"), "--seed", "1"]) == 2


def test_numeric_failure_exits_three(tmp_path, monkeypatch):
    import minembed.cli as cli_mod
    from minembed.errors import NumericError

    trips = tmp_path / "t.jsonl"
    trips.write_text(
        json.dumps({"anchor_id": "a", "anchor_text": "x y", "positive_text": "y x",
                    "negative_id": "n", "negative_text": "z w", "split": "train"}) + "\n",
        encoding="utf-8",
    )

    def exploding_train(*args, **kwargs):
        raise NumericError("E_NONFINITE_GRAD", "non-finite loss at step 0")

    monkeypatch.setattr(cli_mod.trainer, "train", exploding_train)
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
                   "lora_rank=16", "lora_alpha=32.0", "lora_dropout=0.05", "pooling=last_token"):
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


@pytest.mark.parametrize("argv, message", [
    (PREPARE_MISSING_INPUT + ["--train-frac", "1"], "--train-frac must be in (0, 1), got 1.0"),
    (PREPARE_MISSING_INPUT + ["--train-frac", "nan"], "--train-frac must be in (0, 1), got nan"),
    (PREPARE_MISSING_INPUT + ["--test-frac", "-0.5"], "--test-frac must be >= 0, got -0.5"),
    (PREPARE_MISSING_INPUT + ["--test-frac", "nan"], "--test-frac must be >= 0, got nan"),
    (PREPARE_MISSING_INPUT + ["--train-frac", "0.5", "--test-frac", "0.75"],
     "--train-frac + --test-frac must be <= 1, got 1.25"),
    (TRIPLETS_MISSING_INPUT + ["--min-distance", "0"], "--min-distance must be >= 1, got 0"),
    (TRIPLETS_MISSING_INPUT + ["--min-distance", "-3"], "--min-distance must be >= 1, got -3"),
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
    # Answers once, having closed its stdin first, and lingers: the next
    # request cannot be sent, and closing the pipe must not fail either.
    "closes-stdin-and-lingers": "sys.stdin.readline(); os.close(0); print('{\"paraphrase\": \"p\"}', flush=True); "
                                "time.sleep(15)",
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
    codes = {code for path in sources for code in re.findall(r'"(E_[A-Z_]+)"', path.read_text(encoding="utf-8"))}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
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
        elif stage == "embed":
            assert data["counts"]["encoder.forward_rows"] == 2 * len(rows)
        else:
            assert data["counts"]["metrics.rank_entries"] == rank_entries[stage]
            # Each ranked entry is one dot product of d_out = 4 terms: 2 flops a term.
            assert data["counts"]["metrics.sim_flops"] == 2 * rank_entries[stage] * 4
