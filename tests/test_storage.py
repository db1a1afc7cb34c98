"""Storage: atomic writes, digests, JSONL, embedding files, TSV tasks."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from minembed.errors import DataError
from minembed.storage import (
    digest,
    ids_sidecar,
    read_embeddings,
    read_jsonl,
    read_pairs,
    read_qrels,
    read_tensors,
    write_atomic,
    write_embeddings,
    write_jsonl,
    write_run_metadata,
    write_tensors,
)


def test_write_atomic_exact_content(tmp_path):
    path = tmp_path / "f.bin"
    write_atomic(path, b"\x00\x01binary\xff")
    assert path.read_bytes() == b"\x00\x01binary\xff"


def test_write_atomic_overwrite(tmp_path):
    path = tmp_path / "f.bin"
    write_atomic(path, b"old content")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"


def test_write_atomic_leaves_no_temp_files(tmp_path):
    path = tmp_path / "f.bin"
    write_atomic(path, b"data")
    assert os.listdir(tmp_path) == ["f.bin"]


def test_write_atomic_failure_preserves_original(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    write_atomic(path, b"original")

    def failing_replace(src, dst):
        raise OSError("simulated failure between write and rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(DataError) as err:
        write_atomic(path, b"should not land")
    assert err.value.code == "E_IO"
    monkeypatch.undo()
    assert path.read_bytes() == b"original"
    assert os.listdir(tmp_path) == ["f.bin"]


def test_write_atomic_missing_parent(tmp_path):
    with pytest.raises(DataError) as err:
        write_atomic(tmp_path / "nodir" / "f.bin", b"x")
    assert err.value.code == "E_IO"


def test_digest_empty_file_known_vector(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert digest(path) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_digest_stable_and_sensitive(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"abc123")
    first = digest(path)
    assert digest(path) == first
    flipped = bytearray(b"abc123")
    flipped[0] ^= 0x01  # single-bit change
    path.write_bytes(bytes(flipped))
    assert digest(path) != first


def test_digest_missing_file(tmp_path):
    with pytest.raises(DataError) as err:
        digest(tmp_path / "absent")
    assert err.value.code == "E_IO"


def test_jsonl_roundtrip_and_format(tmp_path):
    rows = [{"sent_id": "a", "text": "café bien"}, {"sent_id": "b", "text": "two"}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").count("\n") == 2
    assert "café" in raw.decode("utf-8")
    assert read_jsonl(path) == rows
    for line in raw.decode("utf-8").splitlines():
        json.loads(line)


def test_jsonl_invalid_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert err.value.code == "E_IO"

    # A line that is not an object, or a value the decoder cannot convert.
    for content, decode in (('{"ok": 1}\n[1, 2]\n', None), ('{"ok": 1}\n{"ok": "x"}\n', lambda row: int(row["ok"]))):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_jsonl(path, decode)
        assert err.value.code == "E_IO" and f"{path}:2:" in str(err.value)


def test_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(5, 7)).astype(np.float32)
    ids = [f"s{i}" for i in range(5)]
    path = tmp_path / "emb.cevx"
    write_embeddings(path, ids, matrix)
    loaded_ids, loaded = read_embeddings(path)
    assert loaded_ids == ids
    assert np.array_equal(loaded, matrix)
    assert ids_sidecar(path).exists()


def test_embeddings_rewrite_is_byte_identical(tmp_path):
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    a, b = tmp_path / "a.cevx", tmp_path / "b.cevx"
    write_embeddings(a, ["w", "x", "y", "z"], matrix)
    write_embeddings(b, ["w", "x", "y", "z"], matrix)
    assert a.read_bytes() == b.read_bytes()


def test_embeddings_truncated(tmp_path):
    path = tmp_path / "emb.cevx"
    write_embeddings(path, ["a", "b"], np.ones((2, 4), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_SHAPE_MISMATCH"


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "emb.cevx"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_BAD_MAGIC"


def test_embeddings_sidecar_count_mismatch(tmp_path):
    path = tmp_path / "emb.cevx"
    write_embeddings(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
    ids_sidecar(path).write_text("a\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_SHAPE_MISMATCH"
    # A sidecar that is not UTF-8, or that repeats an id, is an input error.
    ids_sidecar(path).write_bytes(b"\xff\xfe\nb\n")
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_IO" and str(ids_sidecar(path)) in str(err.value)
    write_embeddings(path, ["a", "b", "a"], np.ones((3, 3), dtype=np.float32))
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_IO" and f"{ids_sidecar(path)}:3: id 'a' repeats line 1" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embeddings_nonfinite_rejected(tmp_path, bad):
    path = tmp_path / "emb.cevx"
    matrix = np.ones((3, 2), dtype=np.float32)
    matrix[1, 0] = bad
    write_embeddings(path, ["a", "b", "c"], matrix)
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_IO" and str(path) in str(err.value) and "'b'" in str(err.value)


def test_embeddings_id_count_must_match(tmp_path):
    with pytest.raises(DataError):
        write_embeddings(tmp_path / "e.cevx", ["only-one"], np.ones((2, 2), dtype=np.float32))


def test_tensors_trailing_garbage(tmp_path):
    path = tmp_path / "t.cemb"
    write_tensors(path, {"a": np.ones(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError) as err:
        read_tensors(path)
    assert err.value.code == "E_SHAPE_MISMATCH"


def test_qrels_roundtrip(tmp_path):
    path = tmp_path / "qrels.tsv"
    path.write_text("q1\tc1\t2\nq1\tc2\t0\nq2\tc1\t1\n", encoding="utf-8")
    assert read_qrels(path) == {("q1", "c1"): 2, ("q1", "c2"): 0, ("q2", "c1"): 1}


def test_qrels_validation(tmp_path):
    path = tmp_path / "qrels.tsv"
    path.write_text("q1\tc1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_qrels(path)
    path.write_text("q1\tc1\t-3\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_qrels(path)
    path.write_text("q1\tc1\tNaN\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_qrels(path)
    # A pair judged twice would silently keep its last grade.
    path.write_text("q1\tc1\t2\nq1\tc2\t1\nq1\tc1\t0\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_qrels(path)
    assert err.value.code == "E_IO" and f"{path}:3:" in str(err.value)


def test_pairs_two_and_three_columns(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("q1\tc1\nq2\tc2\n", encoding="utf-8")
    assert read_pairs(path) == [("q1", "c1", None), ("q2", "c2", None)]
    path.write_text("q1\tc1\t0.75\n", encoding="utf-8")
    assert read_pairs(path) == [("q1", "c1", 0.75)]
    path.write_text("q1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_pairs(path)
    # Every row has the first row's width: retrieval pairs or scored pairs, never both.
    for content in ("q1\tc1\t0.5\nq2\tc2\n", "q1\tc1\nq2\tc2\t0.5\n"):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_pairs(path)
        assert err.value.code == "E_IO" and f"{path}:2:" in str(err.value)
    # A score must be a finite number: spearman_rho would rank a NaN as the largest value.
    for score in ("nan", "NaN", "inf", "-inf", "high"):
        path.write_text(f"q1\tc1\t0.5\nq2\tc2\t{score}\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_pairs(path)
        assert err.value.code == "E_IO" and f"{path}:2:" in str(err.value)


def test_tsv_errors_name_the_physical_line(tmp_path):
    # Blank lines are skipped but still counted.
    path = tmp_path / "p.tsv"
    path.write_text("q1\tc1\n\nq2\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_pairs(path)
    assert err.value.code == "E_IO" and f"{path}:3:" in str(err.value)
    path.write_text("q1\tc1\t1\n\nq2\tc2\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_qrels(path)
    assert err.value.code == "E_IO" and f"{path}:3:" in str(err.value)


def test_run_metadata_digests_recomputable(tmp_path):
    source = tmp_path / "in.txt"
    source.write_text("input data", encoding="utf-8")
    out = tmp_path / "out.bin"
    out.write_bytes(b"output")
    meta_path = tmp_path / "meta.json"
    write_run_metadata(
        meta_path,
        command="test",
        config={"alpha": 1},
        seed=7,
        inputs=[source],
        outputs=[out],
        duration_s=0.25,
    )
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["seed"] == 7
    assert meta["input_digests"][str(source)] == digest(source)
    assert meta["output_digests"][str(out)] == digest(out)
    assert meta["command"] == "test"
