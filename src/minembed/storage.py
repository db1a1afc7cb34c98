"""Versioned, bit-exact readers and writers for every on-disk artifact.

Formats:
  - line-delimited JSON (manifests, triplets, logs): UTF-8, LF endings,
    compact separators, fixed key order per record type
  - CEMB checkpoint: magic ``CEMB``, version u32, tensor count u32, then per
    tensor: name length u16, name bytes, rank u8, dims (u32 each), f32
    little-endian row-major data
  - CEVX embedding export: magic ``CEVX``, version u32, dim u32, count u64,
    count x dim f32 little-endian; ids in a ``<path>.ids`` sidecar, one per
    line, same order
  - qrels / pairs: tab-separated text
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

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


def dumps_json_line(row: Mapping) -> str:
    return json.dumps(row, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    """Write one compact JSON object per line, atomically."""
    payload = "".join(dumps_json_line(r) + "\n" for r in rows)
    write_atomic(path, payload.encode("utf-8"))


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; any failure to read or decode it is E_IO."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc


def _numbered_lines(path: str | Path) -> list[tuple[int, str]]:
    """(physical line number, line) for each non-blank line of a UTF-8 text file."""
    return [(lineno, ln) for lineno, ln in enumerate(read_text(path).splitlines(), start=1) if ln.strip()]


def read_lines(path: str | Path) -> list[str]:
    """The non-blank lines of a UTF-8 text file."""
    return [ln for _, ln in _numbered_lines(path)]


def read_jsonl(path: str | Path, decode: Callable[[dict], Any] | None = None) -> list:
    """One JSON object per non-blank line, each passed through ``decode`` if given.

    A line that is not a JSON object, or that ``decode`` rejects because a
    key is missing or a value has the wrong type, is E_IO with its line.
    """
    rows = []
    for lineno, line in _numbered_lines(path):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError("E_IO", f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError("E_IO", f"{path}:{lineno}: expected a JSON object")
        if decode is not None:
            try:
                row = decode(row)
            except KeyError as exc:
                raise DataError("E_IO", f"{path}:{lineno}: missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise DataError("E_IO", f"{path}:{lineno}: bad value: {exc}") from exc
        rows.append(row)
    return rows


def write_json(path: str | Path, obj: Mapping) -> None:
    write_atomic(path, (json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# -- CEMB tensor checkpoints -------------------------------------------------


def write_tensors(path: str | Path, tensors: Mapping[str, np.ndarray]) -> None:
    """Serialize named tensors as f32 little-endian in insertion order."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION), struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        a = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise DataError("E_IO", f"tensor name too long: {name!r}")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(a.tobytes(order="C"))
    write_atomic(path, b"".join(parts))


class _Reader:
    """Cursor over a byte buffer that fails loudly on short reads."""

    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError("E_SHAPE_MISMATCH", f"{self.path}: truncated ({n} bytes needed at offset {self.pos})")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a CEMB file back into a name -> float32 array mapping."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc
    r = _Reader(data, str(path))
    if len(data) < 4 or r.take(4) != CHECKPOINT_MAGIC:
        raise DataError("E_BAD_MAGIC", f"{path}: not a CEMB checkpoint")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise DataError("E_VERSION_MISMATCH", f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.take(r.u16()).decode("utf-8")
        rank = r.u8()
        dims = tuple(r.u32() for _ in range(rank))
        n_elem = 1
        for d in dims:
            n_elem *= d
        raw = r.take(4 * n_elem)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if r.pos != len(data):
        raise DataError("E_SHAPE_MISMATCH", f"{path}: {len(data) - r.pos} trailing bytes")
    return tensors


# -- CEVX embedding export ---------------------------------------------------


def ids_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".ids")


def write_embeddings(path: str | Path, ids: list[str], matrix: np.ndarray) -> None:
    """Write an id-aligned embedding matrix plus its ids sidecar file."""
    m = np.ascontiguousarray(np.asarray(matrix), dtype="<f4")
    if m.ndim != 2 or m.shape[0] != len(ids):
        raise DataError("E_SHAPE_MISMATCH", f"matrix {m.shape} does not match {len(ids)} ids")
    header = EMBEDDING_MAGIC + struct.pack("<IIQ", EMBEDDING_VERSION, m.shape[1], m.shape[0])
    write_atomic(path, header + m.tobytes(order="C"))
    write_atomic(ids_sidecar(path), "".join(i + "\n" for i in ids).encode("utf-8"))


def read_embeddings(path: str | Path) -> tuple[list[str], np.ndarray]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError("E_IO", f"cannot read {path}: {exc}") from exc
    r = _Reader(data, str(path))
    if len(data) < 4 or r.take(4) != EMBEDDING_MAGIC:
        raise DataError("E_BAD_MAGIC", f"{path}: not a CEVX embedding file")
    version = r.u32()
    if version != EMBEDDING_VERSION:
        raise DataError("E_VERSION_MISMATCH", f"{path}: version {version}, expected {EMBEDDING_VERSION}")
    dim = r.u32()
    count = r.u64()
    raw = r.take(4 * dim * count)
    if r.pos != len(data):
        raise DataError("E_SHAPE_MISMATCH", f"{path}: {len(data) - r.pos} trailing bytes")
    matrix = np.frombuffer(raw, dtype="<f4").reshape(count, dim).copy()
    sidecar = ids_sidecar(path)
    ids = read_text(sidecar).splitlines()
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
    for lineno, line in _numbered_lines(path):
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
    for lineno, line in _numbered_lines(path):
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
    """Record the provenance of one run: config, seeds, digests, duration."""
    meta = {
        "command": command,
        "config": dict(config),
        "seed": seed,
        "artifact_version": CHECKPOINT_VERSION,
        "input_digests": {str(p): digest(p) for p in inputs},
        "output_digests": {str(p): digest(p) for p in outputs},
        "duration_seconds": duration_s,
    }
    write_json(path, meta)
