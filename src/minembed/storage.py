"""Versioned, bit-exact readers and writers for every on-disk artifact.

Formats:
  - line-delimited JSON (manifests, triplets, logs): UTF-8, LF endings,
    compact separators, fixed key order per record type (``Record``)
  - CEMB checkpoint: magic ``CEMB``, version u32, tensor count u32, then per
    tensor: name length u16, name bytes, rank u8, dims (u32 each), f32
    little-endian row-major data
  - CEVX embedding export: magic ``CEVX``, version u32, dim u32, count u64,
    count x dim f32 little-endian; ids in a ``<path>.ids`` sidecar, one per
    line, same order
  - qrels / pairs: tab-separated text
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import re
import struct
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, get_type_hints

import numpy as np

from .errors import DataError

CHECKPOINT_MAGIC = b"CEMB"
CHECKPOINT_VERSION = 1
EMBEDDING_MAGIC = b"CEVX"
EMBEDDING_VERSION = 1


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write bytes via a temp file plus rename; partial files are never visible."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError("E_IO", f"cannot write {path}: {exc}") from exc


def _encode_text(path: str | Path, text: str) -> bytes:
    """``text`` as UTF-8, to be written to ``path``. Text that UTF-8 cannot encode,
    such as a lone surrogate (a file name that is not UTF-8 gives one), is E_IO."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError("E_IO", f"cannot write {path}: {exc}") from exc


def digest(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


# One encoder for every JSONL row: json.dumps with keywords builds a new one
# per call.
_JSON_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
# A \uD800-\uDFFF escape: strict UTF-8 decoding yields no surrogate, so only
# a line holding one can decode to a string with a lone surrogate.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
# json.loads(line) is this decoder's raw_decode plus whitespace, BOM and
# extra-data handling in Python; a line that raw_decode reads whole needs none of it.
_JSON_DECODER = json.JSONDecoder()


def dumps_json_line(row: Mapping) -> str:
    return _JSON_LINE_ENCODER.encode(row)


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    """Write one compact JSON object per line, atomically."""
    write_atomic(path, _encode_text(path, "".join(dumps_json_line(r) + "\n" for r in rows)))


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; any failure to read or decode it is E_IO."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc


def _split_lines(text: str) -> list[str]:
    """A text's lines, ended only by "\n". ``read_text`` has already turned "\r\n" and "\r"
    into "\n"; U+2028, U+2029, U+0085 and the other breaks ``str.splitlines`` knows stay
    inside their line, as JSON lets a string hold them raw. A final "\n" ends the last line."""
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """(physical line number, line) for each non-blank line of a text file's contents."""
    return [(lineno, ln) for lineno, ln in enumerate(_split_lines(text), start=1) if ln.strip()]


def read_lines(path: str | Path) -> list[str]:
    """The non-blank lines of a UTF-8 text file, split as ``_split_lines`` says."""
    return [ln for _, ln in _numbered_lines(read_text(path))]


def _decode_json(line: str) -> Any:
    """``json.loads(line)``: one ``raw_decode`` when that reads the whole line, else
    ``json.loads`` itself, so every other line gets its value or its error as before."""
    try:
        value, end = _JSON_DECODER.raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    return value if end == len(line) else json.loads(line)


def read_jsonl(path: str | Path, decode: Callable[[dict], Any] | None = None) -> list:
    """One JSON object per non-blank line, each passed through ``decode`` if given.

    A line that is not a JSON object, that holds a string with a lone
    surrogate (which cannot be written back as UTF-8), or that ``decode``
    rejects because a key is missing or a value has the wrong type, is E_IO
    with its line.
    """
    rows = []
    for lineno, line in _numbered_lines(read_text(path)):
        try:
            row = _decode_json(line)
        except (ValueError, RecursionError) as exc:  # also a too-long integer, or nesting too deep
            raise DataError("E_IO", f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError("E_IO", f"{path}:{lineno}: expected a JSON object")
        if _SURROGATE_ESCAPE_RE.search(line):
            try:
                dumps_json_line(row).encode("utf-8")
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


def typed_value(row: Mapping, key: str, expected: type) -> Any:
    """``row[key]`` of a decoded JSON object, uncoerced: KeyError if it is missing, TypeError
    unless it is an ``expected``. An int also fits float; a bool, though an int, only bool."""
    value = row[key]
    if type(value) is expected:  # nearly every value; the rules below settle the rest
        return value
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise TypeError(f"{key!r} must be {expected.__name__}, got {value!r}")
    return value


@functools.cache
def _row_fields(cls: type) -> list[tuple[str, type, bool, tuple | None]]:
    """(name, declared type, has a default, the values it may read as or None) of each
    field of a dataclass, in order."""
    types = get_type_hints(cls)
    return [(f.name, types[f.name], f.default is not MISSING, f.metadata.get("choices")) for f in fields(cls)]


class Record:
    """Base of the dataclasses stored as JSONL rows, one key per field. Read back,
    each value must have its field's type (``typed_value``), and a field declared with
    ``metadata={"choices": ...}`` must hold one of them; only a defaulted field may be missing."""

    def to_row(self) -> dict:
        # Fields are declared in row order. Each is read by name: vars() would give
        # every instance a __dict__ it then keeps (CPython 3.11 stores attributes
        # without one until asked), and asdict() deep-copies every field.
        return {name: getattr(self, name) for name, _, _, _ in _row_fields(type(self))}

    @classmethod
    def from_row(cls, row: Mapping) -> Any:
        values = {}
        for name, kind, optional, choices in _row_fields(cls):
            if optional and name not in row:
                continue
            values[name] = value = typed_value(row, name, kind)
            if choices is not None and value not in choices:
                raise ValueError(f"{name!r} must be one of {choices}, got {value!r}")
        return cls(**values)


def write_json(path: str | Path, obj: Mapping) -> None:
    write_atomic(path, _encode_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"))


# -- CEMB tensor checkpoints -------------------------------------------------


def _write_f32(path: str | Path, parts: list[bytes | np.ndarray]) -> None:
    """Write ``parts`` from one buffer: bytes as they are, each array cast into place as row-major <f4."""
    buf = bytearray(sum(len(part) if isinstance(part, bytes) else 4 * part.size for part in parts))
    pos = 0
    for part in parts:
        if isinstance(part, bytes):
            buf[pos : pos + len(part)] = part
            pos += len(part)
        else:
            np.frombuffer(buf, "<f4", part.size, pos).reshape(part.shape)[...] = part
            pos += 4 * part.size
    write_atomic(path, buf)


def write_tensors(path: str | Path, tensors: Mapping[str, np.ndarray]) -> None:
    """Serialize named tensors as f32 little-endian in insertion order; a 0-d tensor is stored with shape (1,)."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        a = np.atleast_1d(np.asarray(arr))
        nb = _encode_text(path, name)
        if len(nb) > 0xFFFF:
            raise DataError("E_IO", f"tensor name too long: {name!r}")
        parts += [struct.pack("<H", len(nb)) + nb + struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape), a]
    _write_f32(path, parts)


def _skip(data: bytes, pos: int, size: int, path: str | Path) -> int:
    """The offset after ``size`` bytes at ``pos``; a file too short for them is E_SHAPE_MISMATCH."""
    if size > len(data) - pos:
        raise DataError("E_SHAPE_MISMATCH", f"{path}: truncated ({size} bytes needed at offset {pos})")
    return pos + size


def _unpack(fmt: str, data: bytes, pos: int, path: str | Path) -> tuple[tuple, int]:
    """The values of ``fmt`` at ``pos``, and the offset after them."""
    end = _skip(data, pos, struct.calcsize(fmt), path)
    return struct.unpack_from(fmt, data, pos), end


def _read_header(path: str | Path, magic: bytes, version: int, kind: str) -> tuple[bytes, int]:
    """A binary artifact's bytes, checked for ``magic`` and ``version``, and the offset after them."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc
    if data[:4] != magic:
        raise DataError("E_BAD_MAGIC", f"{path}: not a {kind}")
    (found,), pos = _unpack("<I", data, 4, path)
    if found != version:
        raise DataError("E_VERSION_MISMATCH", f"{path}: version {found}, expected {version}")
    return data, pos


def _f32_block(data: bytes, pos: int, shape: tuple[int, ...], path: str | Path) -> tuple[np.ndarray, int]:
    """A little-endian f32 array of ``shape`` at ``pos``, and the offset after it.

    The byte count is checked as a Python integer before any array exists.
    """
    count = math.prod(shape)
    end = _skip(data, pos, 4 * count, path)
    try:
        return np.frombuffer(data, "<f4", count, pos).reshape(shape).copy(), end
    except ValueError as exc:  # an empty array of over 64 dimensions, or of too large a shape
        raise DataError("E_SHAPE_MISMATCH", f"{path}: bad shape {shape}: {exc}") from exc


def _check_end(data: bytes, pos: int, path: str | Path) -> None:
    if pos != len(data):
        raise DataError("E_SHAPE_MISMATCH", f"{path}: {len(data) - pos} trailing bytes")


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a CEMB file back into a name -> float32 array mapping; each name is UTF-8 and appears once."""
    data, pos = _read_header(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "CEMB checkpoint")
    (count,), pos = _unpack("<I", data, pos, path)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), pos = _unpack("<H", data, pos, path)
        (raw_name, rank), pos = _unpack(f"<{name_len}sB", data, pos, path)
        dims, pos = _unpack(f"<{rank}I", data, pos, path)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("E_IO", f"{path}: tensor name {raw_name!r} is not UTF-8") from exc
        if name in tensors:
            raise DataError("E_IO", f"{path}: tensor {name!r} appears twice")
        tensors[name], pos = _f32_block(data, pos, dims, path)
    _check_end(data, pos, path)
    return tensors


# -- CEVX embedding export ---------------------------------------------------


def ids_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".ids")


def write_embeddings(path: str | Path, ids: list[str], matrix: np.ndarray) -> None:
    """Write an id-aligned embedding matrix plus its ids sidecar file. If the sidecar
    cannot be written, the matrix just written is removed, so an older sidecar of the
    same length is never read back beside it."""
    m = np.atleast_1d(np.asarray(matrix))
    if m.ndim != 2 or m.shape[0] != len(ids):
        raise DataError("E_SHAPE_MISMATCH", f"matrix {m.shape} does not match {len(ids)} ids")
    broken = next((i for i in ids if "\n" in i or "\r" in i), None)
    if broken is not None:
        raise DataError("E_IO", f"id {broken!r} holds a line break, so it cannot be one line of {ids_sidecar(path)}")
    sidecar = _encode_text(ids_sidecar(path), "".join(i + "\n" for i in ids))  # before either file is written
    _write_f32(path, [EMBEDDING_MAGIC + struct.pack("<IIQ", EMBEDDING_VERSION, m.shape[1], m.shape[0]), m])
    try:
        write_atomic(ids_sidecar(path), sidecar)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def read_embeddings(path: str | Path) -> tuple[list[str], np.ndarray]:
    data, pos = _read_header(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, "CEVX embedding file")
    (dim, count), pos = _unpack("<IQ", data, pos, path)
    matrix, pos = _f32_block(data, pos, (count, dim), path)
    _check_end(data, pos, path)
    sidecar = ids_sidecar(path)
    ids = _split_lines(read_text(sidecar))
    if len(ids) != count:
        raise DataError("E_SHAPE_MISMATCH", f"{sidecar}: {len(ids)} ids for {count} vectors")
    first_line: dict[str, int] = {}
    for lineno, sid in enumerate(ids, start=1):
        if sid in first_line:
            raise DataError("E_IO", f"{sidecar}:{lineno}: id {sid!r} repeats line {first_line[sid]}")
        first_line[sid] = lineno
    nonfinite = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if nonfinite.size:
        raise DataError("E_IO", f"{path}: the vector of id {ids[nonfinite[0]]!r} is not finite")
    return ids, matrix


# -- TSV task files ----------------------------------------------------------


def read_qrels(path: str | Path) -> dict[tuple[str, str], int]:
    """Read tab-separated (query_id, cand_id, grade) relevance judgments, each pair once."""
    qrels: dict[tuple[str, str], int] = {}
    for lineno, line in _numbered_lines(read_text(path)):
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataError("E_IO", f"{path}:{lineno}: expected 3 tab-separated columns")
        try:
            grade = int(cols[2])
        except ValueError as exc:
            raise DataError("E_IO", f"{path}:{lineno}: grade must be an integer") from exc
        if grade < 0:
            raise DataError("E_IO", f"{path}:{lineno}: grade must be nonnegative")
        if (cols[0], cols[1]) in qrels:
            raise DataError("E_IO", f"{path}:{lineno}: pair ({cols[0]!r}, {cols[1]!r}) is judged twice")
        qrels[(cols[0], cols[1])] = grade
    return qrels


def read_pairs(path: str | Path) -> list[tuple[str, str, float | None]]:
    """Read pair lines: all (query_id, cand_id) or all (query_id, cand_id, gold_score),
    each score a finite number."""
    pairs: list[tuple[str, str, float | None]] = []
    width = None
    for lineno, line in _numbered_lines(read_text(path)):
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise DataError("E_IO", f"{path}:{lineno}: expected 2 or 3 tab-separated columns")
        width = width or len(cols)
        if len(cols) != width:
            raise DataError("E_IO", f"{path}:{lineno}: {len(cols)} columns, but the first row has {width}")
        try:
            score = float(cols[2]) if width == 3 else None
        except ValueError:
            score = math.nan
        if score is not None and not math.isfinite(score):
            raise DataError("E_IO", f"{path}:{lineno}: third column must be a finite number, got {cols[2]!r}")
        pairs.append((cols[0], cols[1], score))
    return pairs


# -- Run metadata ------------------------------------------------------------


def write_run_metadata(
    path: str | Path,
    command: str,
    config: Mapping,
    seed: int | None,
    inputs: Iterable[str | Path],
    outputs: Iterable[str | Path],
    duration_s: float,
) -> None:
    """Record the provenance of one run: config, seeds, digests, duration, peak memory, environment."""
    meta = {
        "command": command,
        "config": dict(config),
        "seed": seed,
        "artifact_version": CHECKPOINT_VERSION,
        "input_digests": {str(p): digest(p) for p in inputs},
        "output_digests": {str(p): digest(p) for p in outputs},
        "duration_seconds": duration_s,
        "peak_rss_mb": _peak_rss_mb(),
        "environment": _environment(),
    }
    write_json(path, meta)


# The variables that set how many threads each BLAS build runs.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """The software and machine a run ran on: Python, numpy, the BLAS numpy was
    built with, the BLAS thread variables as set (None where unset), usable CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    """This process's peak resident memory in MiB: ``VmHWM``, which starts afresh at
    exec, so unlike ``ru_maxrss`` it does not carry the memory of the process that
    started this one; ``ru_maxrss`` where ``/proc`` is absent."""
    try:
        with open("/proc/self/status", "rb") as fh:  # binary: the Name line need not be ASCII
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
