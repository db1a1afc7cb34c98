"""Storage: atomic writes, digests, JSONL, embedding files, TSV tasks."""

from __future__ import annotations

import json
import os
import struct
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed import storage
from minembed.errors import DataError
from minembed.storage import (
    Record,
    digest,
    dumps_json_line,
    ids_sidecar,
    read_embeddings,
    read_jsonl,
    read_lines,
    read_pairs,
    read_qrels,
    read_tensors,
    typed_value,
    write_atomic,
    write_embeddings,
    write_json,
    write_jsonl,
    write_run_metadata,
    write_tensors,
)

from test_fuzz import LINE_SEPARATORS


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


# Characters str.splitlines breaks at besides "\n" and "\r"; JSON writes the first three raw.
OTHER_LINE_BREAKS = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"


def test_jsonl_roundtrip_keeps_line_separators_inside_strings(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"a": "x\x85y"}, {"a": "p\u2028q", "b": "\u2029"}, {"a": OTHER_LINE_BREAKS}, {"\u2028": 1}]
    write_jsonl(path, rows)
    assert "\u2028".encode("utf-8") in path.read_bytes()  # written raw, not escaped
    assert read_jsonl(path) == rows
    # A CRLF file still reads as LF, with its physical line numbers.
    path.write_bytes(b'{"a": 1}\r\n\r\n{"a": "x\xe2\x80\xa8y"}\r\n[2]\r\n')
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert f"{path}:4: expected a JSON object" in str(err.value)
    path.write_bytes(b'{"a": 1}\r\n\r\n{"a": "x\xe2\x80\xa8y"}\r\n')
    assert read_jsonl(path) == [{"a": 1}, {"a": "x\u2028y"}]


def test_read_lines_splits_at_newline_only(tmp_path):
    path = tmp_path / "texts.txt"
    path.write_text("one\u2028still one\r\ntwo\x85too\n\nthree\rfour", encoding="utf-8", newline="")
    assert read_lines(path) == ["one\u2028still one", "two\x85too", "three", "four"]


def _whole_file_numbered_lines(path, blank=False):
    """The reader as it was: the whole text, then its lines, then the numbered ones."""
    lines = storage.read_text(path).split("\n")
    lines = lines[:-1] if lines[-1] == "" else lines
    yield from [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if blank or ln.strip()]


def _read_sidecar(path):
    """``read_embeddings``' ids, beside a CEVX of as many vectors as the old reader found lines."""
    count = len(list(_whole_file_numbered_lines(path, blank=True)))
    cevx = Path(str(path).removesuffix(".ids"))
    cevx.write_bytes(b"CEVX" + struct.pack("<IIQ", 1, 1, count) + struct.pack(f"<{count}f", *range(count)))
    return read_embeddings(cevx)[0]


def _value_or_error(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


_CHUNK = 8192  # TextIOWrapper's read size, in bytes
# A field of a line: short, often holding a line separator, or longer than a read.
_FIELD = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n\t") | st.sampled_from(LINE_SEPARATORS), max_size=12),
    st.integers(_CHUNK - 8, _CHUNK + 8).map(lambda n: "x" * n),
)
# reader: (what it reads, a line it can parse)
LINE_READERS = {
    "read_lines": (read_lines, _FIELD),
    "read_jsonl": (read_jsonl, _FIELD.map(lambda t: json.dumps({"t": t}, ensure_ascii=False))),
    "read_pairs": (read_pairs, st.tuples(_FIELD, _FIELD).map("\t".join)),
    "read_qrels": (read_qrels, st.tuples(_FIELD, _FIELD, st.sampled_from(["0", "1", "2"])).map("\t".join)),
    "ids-sidecar": (_read_sidecar, _FIELD),
}
_BLANK = st.sampled_from(["", " ", "\t", " \t ", "\u2028", "\x85", "\u3000"])
_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _line_file(draw, parsable):
    lines = draw(st.lists(st.tuples(st.one_of(parsable, _BLANK), _ENDING), max_size=12))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text.removesuffix(lines[-1][1])  # no final newline
    return ("\ufeff" if draw(st.booleans()) else "") + text


@pytest.mark.parametrize("reader", list(LINE_READERS))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_every_line_reader_reads_what_whole_file_reading_read(reader, data):
    read, parsable = LINE_READERS[reader]
    text = data.draw(_line_file(parsable))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.ids"
        path.write_bytes(text.encode("utf-8"))
        for blank in (False, True):
            assert list(storage._numbered_lines(path, blank)) == list(_whole_file_numbered_lines(path, blank))
        streamed = _value_or_error(read, path)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(storage, "_numbered_lines", _whole_file_numbered_lines)
            assert _value_or_error(read, path) == streamed


@pytest.mark.parametrize("first", range(_CHUNK - 4, _CHUNK + 3))
@pytest.mark.parametrize("tail", ["\xe9", "x\u2028y"])
def test_a_crlf_split_across_a_read_chunk_is_one_line_break(tmp_path, first, tail):
    # The "\r" of the first line's "\r\n" falls in the last bytes of one read, or the first of the next.
    path = tmp_path / "crlf.txt"
    path.write_bytes(("a" * first + "\r\n" + tail + "\r\n\r\nb").encode("utf-8"))
    assert list(storage._numbered_lines(path)) == [(1, "a" * first), (2, tail), (4, "b")]
    assert list(storage._numbered_lines(path)) == list(_whole_file_numbered_lines(path))


def test_read_jsonl_holds_no_copy_of_the_file(tmp_path):
    # Records that keep nothing: what reading holds at its peak is the reader's own.
    path = tmp_path / "big.jsonl"
    row = '{"sent_id":"s%07d","source_name":"a","text":"left atrium %07d","char_len":20,"split":"train"}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(row % (i, i) for i in range(100_000))
    size = path.stat().st_size
    assert size >= 8 << 20
    tracemalloc.start()
    try:
        rows = read_jsonl(path, lambda row: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 100_000 and peak < size / 4


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


@pytest.mark.parametrize("kind", ["jsonl", "json", "embeddings", "tensors"])
def test_text_utf8_cannot_encode_is_e_io_and_writes_nothing(tmp_path, kind):
    bad = "doc\udcff"  # how a file name that is not UTF-8 decodes
    path = tmp_path / "out"
    write = {
        "jsonl": lambda: write_jsonl(path, [{"ok": "a"}, {"doc_id": bad}]),
        "json": lambda: write_json(path, {"inputs": [bad]}),
        "embeddings": lambda: write_embeddings(path, ["a", bad], np.zeros((2, 3))),
        "tensors": lambda: write_tensors(path, {"W": np.zeros(2), bad: np.zeros(2)}),
    }[kind]
    with pytest.raises(DataError) as err:
        write()
    target = ids_sidecar(path) if kind == "embeddings" else path
    assert str(err.value).startswith(f"E_IO: cannot write {target}: 'utf-8' codec can't encode")
    assert os.listdir(tmp_path) == []


# JSON that CPython's decoder rejects with an error other than JSONDecodeError.
UNDECODABLE_JSON = {
    "5000-digit integer": '{"text": "x", "n": ' + "7" * 5000 + "}",  # ValueError: int_max_str_digits
    "100000 nested arrays": "[" * 100_000,  # RecursionError
}


@pytest.mark.parametrize("line", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON)
def test_read_jsonl_reports_undecodable_json_as_invalid(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"ok": 1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_jsonl(path)
    assert err.value.code == "E_IO" and str(err.value).startswith(f"E_IO: {path}:2: invalid JSON: ")


def per_line_loads_reader(path, decode=None):
    """read_jsonl as it was, one json.loads per line, with the surrogate check on every
    row rather than only on lines holding an escape; the rows and errors to match."""
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = []
    for lineno, line in enumerate(lines[:-1] if lines[-1] == "" else lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError("E_IO", f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError("E_IO", f"{path}:{lineno}: expected a JSON object")
        try:
            json.dumps(row, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError("E_IO", f"{path}:{lineno}: lone surrogate in a string: {exc}") from exc
        if decode is not None:
            try:
                row = decode(row)
            except KeyError as exc:
                raise DataError("E_IO", f"{path}:{lineno}: missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise DataError("E_IO", f"{path}:{lineno}: bad value: {exc}") from exc
        rows.append(row)
    return rows


def _outcome(reader, path, decode):
    try:
        return repr(reader(path, decode))  # repr, so that a NaN equals itself
    except DataError as exc:
        return f"{exc.code}|{exc}"


@pytest.mark.parametrize("line", [
    '{"a": 1, "b": [1, 2.5, null, true], "c": {"d": "é"}, "e": -0.0, "f": 1e400}',
    '{}', '  {"a": 1}', '{"a": 1}  ', '\t{"a": 1}\t', ' \t {"a": 1} \t ', '\ufeff{"a": 1}',
    '{"a":1} {"b":2}', '{"a":1},{"b":2}', '{"a": 1}x', '{"a":', '[1]', '"x"', 'NaN', '{"a": NaN}',
    '{"a": "\\udc80"}', '{"a": "\\\\udc80"}', '{"a": "x\u2028y"}', '{"\u2028": "\u2029\x85"}',
    '{"name": "a", "count": 2}', '{"name": "a", "count": "2"}', '{"name": "a"}',
])
@pytest.mark.parametrize("where", ["alone", "after a row"])
@pytest.mark.parametrize("decode", [None, "record"])
def test_read_jsonl_matches_per_line_loads(tmp_path, line, where, decode):
    path = tmp_path / "rows.jsonl"
    path.write_text(('{"name": "z", "count": 0}\n\n' if where == "after a row" else "") + line + "\n", encoding="utf-8")
    decode = _Row.from_row if decode else None
    assert _outcome(read_jsonl, path, decode) == _outcome(per_line_loads_reader, path, decode)


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


def test_embeddings_roundtrip_ids_with_line_separators(tmp_path):
    path = tmp_path / "emb.cevx"
    ids = ["a\u2028b", "c", "\u2029", "d\x85e" + OTHER_LINE_BREAKS]
    write_embeddings(path, ids, np.ones((4, 2), dtype=np.float32))
    assert read_embeddings(path)[0] == ids
    # "\n" or "\r" would end the id's line in the sidecar: rejected, and nothing is written.
    for bad in ("x\ny", "x\ry", "x\r\n"):
        out = tmp_path / "bad.cevx"
        with pytest.raises(DataError) as err:
            write_embeddings(out, ["ok", bad], np.ones((2, 2), dtype=np.float32))
        assert err.value.code == "E_IO" and repr(bad) in str(err.value)
        assert not out.exists() and not ids_sidecar(out).exists()


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


def test_embeddings_whose_sidecar_cannot_be_written_leave_no_matrix(tmp_path, monkeypatch):
    import minembed.storage as storage_mod

    path = tmp_path / "emb.cevx"
    write_embeddings(path, ["a", "b"], np.zeros((2, 3), dtype=np.float32))
    real = storage_mod.write_atomic

    def disk_full_at_sidecar(target, data):
        if target == ids_sidecar(path):
            raise DataError("E_IO", f"cannot write {target}: [Errno 28] No space left on device")
        real(target, data)

    monkeypatch.setattr(storage_mod, "write_atomic", disk_full_at_sidecar)
    with pytest.raises(DataError) as err:
        write_embeddings(path, ["c", "d"], np.ones((2, 3), dtype=np.float32))
    assert str(err.value) == f"E_IO: cannot write {ids_sidecar(path)}: [Errno 28] No space left on device"
    # The old ids stay, but no matrix is left to be read beside them as theirs.
    assert not path.exists() and ids_sidecar(path).read_text(encoding="utf-8") == "a\nb\n"
    with pytest.raises(DataError) as err:
        read_embeddings(path)
    assert err.value.code == "E_IO" and f"cannot read {path}" in str(err.value)


def test_embeddings_id_count_must_match(tmp_path):
    with pytest.raises(DataError):
        write_embeddings(tmp_path / "e.cevx", ["only-one"], np.ones((2, 2), dtype=np.float32))


def _reference_tensor_bytes(tensors) -> bytes:
    """A CEMB as the writer made it with a float32 copy of each tensor joined into one bytes."""
    parts = [b"CEMB", struct.pack("<I", 1), struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        a = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
        nb = name.encode("utf-8")
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", a.ndim), struct.pack(f"<{a.ndim}I", *a.shape), a]
    return b"".join(parts)


def _reference_embedding_bytes(matrix) -> bytes:
    """A CEVX as the writer made it with a contiguous float32 copy, its bytes and the header added."""
    m = np.ascontiguousarray(np.asarray(matrix), dtype="<f4")
    return b"CEVX" + struct.pack("<IIQ", 1, m.shape[1], m.shape[0]) + m.tobytes(order="C")


_VALUES = np.concatenate([np.random.default_rng(3).normal(size=14), [np.nan, -0.0, np.inf, 1e-45, 1e-300, 1 / 3]])
F32_INPUTS = {
    "float64": _VALUES.reshape(5, 4),
    "float32": _VALUES.reshape(4, 5).astype(np.float32),
    "fortran": np.asfortranarray(_VALUES.reshape(5, 4)),
    "big-endian": _VALUES.reshape(4, 5).astype(">f8"),
    "big-endian-f32": _VALUES.reshape(10, 2).astype(">f4"),
    "strided": _VALUES.reshape(10, 2)[::3],
    "zero-rows": np.zeros((0, 3)),
    "0-d": np.float64(1 / 3),
    "3-d": _VALUES.reshape(2, 5, 2),
}


@pytest.mark.parametrize("kind", sorted(F32_INPUTS))
def test_f32_writers_keep_their_bytes(tmp_path, monkeypatch, kind):
    import minembed.storage as storage_mod

    sizes = []
    real = storage_mod.write_atomic
    monkeypatch.setattr(storage_mod, "write_atomic", lambda path, data: sizes.append(len(data)) or real(path, data))
    arr = F32_INPUTS[kind]
    tensors = {"x": arr, "w": np.arange(6.0).reshape(2, 3)}
    write_tensors(tmp_path / "t.cemb", tensors)
    assert (tmp_path / "t.cemb").read_bytes() == _reference_tensor_bytes(tensors)
    # What write_atomic is handed measures as the file's byte count, which storage.write_bytes sums.
    assert sizes == [(tmp_path / "t.cemb").stat().st_size]
    ids = [f"i{k}" for k in range(np.atleast_1d(arr).shape[0])]
    if np.ndim(arr) == 2:
        write_embeddings(tmp_path / "e.cevx", ids, arr)
        assert (tmp_path / "e.cevx").read_bytes() == _reference_embedding_bytes(arr)
        assert sizes[1] == (tmp_path / "e.cevx").stat().st_size
    else:
        with pytest.raises(DataError) as err:
            write_embeddings(tmp_path / "e.cevx", ids, arr)
        shape = np.ascontiguousarray(arr).shape
        assert err.value.code == "E_SHAPE_MISMATCH" and str(err.value).endswith(f"matrix {shape} does not match {len(ids)} ids")


def test_every_f32_input_in_one_checkpoint_keeps_its_bytes(tmp_path):
    for tensors in ({}, F32_INPUTS):
        write_tensors(tmp_path / "t.cemb", tensors)
        assert (tmp_path / "t.cemb").read_bytes() == _reference_tensor_bytes(tensors)


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
    assert 0 < meta["peak_rss_mb"] < 1e6


def test_run_metadata_records_its_environment(tmp_path, monkeypatch):
    import platform

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    meta_path = tmp_path / "meta.json"
    write_run_metadata(meta_path, command="test", config={}, seed=None, inputs=[], outputs=[], duration_s=0.0)
    env = json.loads(meta_path.read_text(encoding="utf-8"))["environment"]
    assert set(env) == {"python", "numpy", "blas", "blas_threads", "nproc", "machine"}
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["machine"] == platform.machine() and isinstance(env["blas"], str) and env["blas"]
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3"}
    assert 1 <= env["nproc"] <= os.cpu_count()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from Linux's /proc")
def test_peak_rss_is_vmhwm_or_else_ru_maxrss(monkeypatch):
    import resource

    import minembed.storage as storage_mod

    def hwm_mb():
        with open("/proc/self/status", "rb") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith(b"VmHWM:")) / 1024

    before = hwm_mb()
    assert before <= storage_mod._peak_rss_mb() <= hwm_mb()
    # Where /proc is absent it falls back to ru_maxrss.
    monkeypatch.setattr(storage_mod, "open", lambda *args, **kwargs: open("/nonexistent/status"), raising=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert before <= storage_mod._peak_rss_mb() <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
