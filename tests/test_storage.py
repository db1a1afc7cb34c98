"""Storage: atomic writes, digests, JSONL, embedding files, TSV tasks."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from minembed.errors import DataError
from minembed.storage import (
    Record,
    digest,
    dumps_json_line,
    ids_sidecar,
    read_embeddings,
    read_jsonl,
    read_pairs,
    read_qrels,
    read_tensors,
    typed_value,
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


def test_dumps_json_line_matches_json_dumps():
    rows = [{}, {"text": "café \u2028 \\ \"q\"", "n": 3, "x": -0.1, "big": 1e300, "flag": False, "none": None},
            {"nested": {"list": [1, 2.5, "é"]}, "nan": float("nan"), "inf": float("-inf")}]
    for row in rows:
        assert dumps_json_line(row) == json.dumps(row, ensure_ascii=False, separators=(",", ":"))


def test_jsonl_rejects_a_lone_surrogate(tmp_path):
    # Strict UTF-8 cannot encode a lone surrogate, so a row holding one could
    # never be written back; it is rejected where it is read, with its line.
    path = tmp_path / "rows.jsonl"
    for bad in ('{"text": "a\\ud800b"}', '{"text": "\\uDFFF"}', '{"k\\udc00": 1}', '{"x": ["\\ud83d"]}'):
        path.write_text('{"ok": 1}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_jsonl(path)
        assert err.value.code == "E_IO" and f"{path}:2: lone surrogate" in str(err.value)
    # A surrogate pair is one character, and an escaped backslash is no escape.
    path.write_text('{"text": "\\ud83d\\ude00"}\n{"text": "\\\\ud800"}\n', encoding="utf-8")
    assert read_jsonl(path) == [{"text": "\U0001f600"}, {"text": "\\ud800"}]


@pytest.mark.parametrize(
    "value, expected, fits",
    [
        ("x", str, True), (None, str, False), (7, str, False), (["x"], str, False),
        (3, int, True), (3.0, int, False), (4.9, int, False), (True, int, False), ("3", int, False),
        (3, float, True), (0.5, float, True), (False, float, False), (None, float, False),
        (True, bool, True), (1, bool, False), ("true", bool, False),
    ],
)
def test_typed_value_takes_no_coercion(value, expected, fits):
    if fits:
        assert typed_value({"k": value}, "k", expected) is value
    else:
        with pytest.raises(TypeError) as err:
            typed_value({"k": value}, "k", expected)
        assert str(err.value) == f"'k' must be {expected.__name__}, got {value!r}"
    with pytest.raises(KeyError):
        typed_value({}, "k", expected)


@dataclass(frozen=True)
class _Row(Record):
    name: str
    count: int
    weight: float = 1.0


def test_record_rows_take_each_value_at_its_declared_type(tmp_path):
    row = _Row("a", 2, 0.5)
    assert row.to_row() == {"name": "a", "count": 2, "weight": 0.5}
    assert list(row.to_row()) == ["name", "count", "weight"]
    assert _Row.from_row(row.to_row()) == row
    # Only a field with a default may be missing; keys outside the fields are ignored.
    assert _Row.from_row({"name": "a", "count": 2, "extra": None}) == _Row("a", 2)
    assert _Row.from_row({"name": "a", "count": 2, "weight": 3}) == _Row("a", 2, 3)
    with pytest.raises(KeyError):
        _Row.from_row({"name": "a"})
    for bad in ({"name": None, "count": 2}, {"name": "a", "count": True}, {"name": "a", "count": 2.0},
                {"name": "a", "count": 2, "weight": None}):
        with pytest.raises(TypeError):
            _Row.from_row(bad)
    path = tmp_path / "rows.jsonl"
    path.write_text('{"name": "a", "count": 1}\n\n{"name": "b", "count": "1"}\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_jsonl(path, _Row.from_row)
    assert err.value.code == "E_IO" and str(err.value) == f"E_IO: {path}:3: bad value: 'count' must be int, got '1'"


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


def test_tensor_names_are_utf8_and_unique(tmp_path):
    path = tmp_path / "t.cemb"
    write_tensors(path, {"ab": np.ones(2, dtype=np.float32), "ac": np.zeros(1, dtype=np.float32)})
    data = path.read_bytes()
    for edited, fragment in ((data.replace(b"ab", b"a\xff"), "b'a\\xff'"), (data.replace(b"ac", b"ab"), "'ab'")):
        path.write_bytes(edited)
        with pytest.raises(DataError) as err:
            read_tensors(path)
        assert err.value.code == "E_IO" and str(path) in str(err.value) and fragment in str(err.value)


def _corruptions(data: bytes):
    """Every proper prefix of ``data``, then ``data`` with each byte set to 0x00, 0x80 and 0xFF."""
    for end in range(len(data)):
        yield data[:end]
    for i in range(len(data)):
        for value in (0x00, 0x80, 0xFF):
            yield data[:i] + bytes([value]) + data[i + 1 :]


@pytest.mark.parametrize("kind", ["cemb", "cevx"])
def test_corrupt_binary_files_raise_only_data_errors(tmp_path, kind):
    path = tmp_path / f"small.{kind}"
    if kind == "cemb":
        write_tensors(path, {"a": np.arange(3, dtype=np.float32), "bc": np.ones((2, 1), dtype=np.float32)})
        read = read_tensors
    else:
        write_embeddings(path, ["a", "b"], np.arange(4, dtype=np.float32).reshape(2, 2))
        read = read_embeddings
    for data in _corruptions(path.read_bytes()):
        path.write_bytes(data)
        try:
            read(path)
        except DataError as exc:
            assert exc.code in {"E_BAD_MAGIC", "E_VERSION_MISMATCH", "E_SHAPE_MISMATCH", "E_IO"}, data


def test_forged_dimensions_are_shape_mismatches(tmp_path):
    """Sizes are checked as Python integers, so no forged dimension overflows or allocates."""
    path = tmp_path / "huge.cevx"
    path.write_bytes(b"CEVX" + struct.pack("<IIQ", 1, 2**32 - 1, 2**63))
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_SHAPE_MISMATCH"
    # Empty tensors numpy cannot shape: over 64 dimensions, or too large a product of the others.
    path = tmp_path / "empty.cemb"
    for dims in ((0,) * 65, (0,) + (2**32 - 1,) * 4):
        path.write_bytes(b"CEMB" + struct.pack(f"<IIH1sB{len(dims)}I", 1, 1, 1, b"a", len(dims), *dims))
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
