"""The error contract under generated malformed input: every subcommand, fed
a corrupted file or a bad flag value, exits 1, 2 or 3 with an ``E_*`` code
on stderr, raises nothing, and writes nothing."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.cli import run
from minembed.encoder import init_params, save_checkpoint
from minembed.storage import CHECKPOINT_MAGIC, EMBEDDING_MAGIC

from conftest import two_cluster_records

FUZZ_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)

# Input files by key: file name, and the magic of a binary file.
FILES = {
    "docs": ("docs.jsonl", None),
    "corpus": ("corpus.jsonl", None),
    "trips": ("trips.jsonl", None),
    "config": ("config.json", None),
    "ckpt": ("tiny.cemb", CHECKPOINT_MAGIC),
    "emb": ("emb.cevx", EMBEDDING_MAGIC),
    "pairs": ("pairs.tsv", None),
    "qrels": ("qrels.tsv", None),
}
_TRIPLET_FIELDS = {f: str for f in ("anchor_id", "anchor_text", "positive_text", "negative_id", "negative_text", "split")}
# name: (command line, {input key: {field the command reads: its type}}); a
# JSON input lists the fields a wrong-typed value is put in, a TSV input none.
COMMANDS = {
    "prepare": (["prepare", "--in", "{docs}", "--out", "{dir}/out.jsonl", "--seed", "1"],
                {"docs": {"doc_id": str, "source_name": str, "text": str}}),
    "triplets": (["triplets", "--corpus", "{corpus}", "--out", "{dir}/out.jsonl", "--min-distance", "1", "--seed", "1"],
                 {"corpus": {"sent_id": str, "source_name": str, "text": str, "char_len": int, "split": str}}),
    "train": (["train", "--triplets", "{trips}", "--config", "{config}", "--out-dir", "{dir}/out", "--seed", "1"],
              {"trips": _TRIPLET_FIELDS, "config": {"epochs": int, "batch_size": int, "pooling": str}}),
    "embed": (["embed", "--checkpoint", "{ckpt}", "--texts", "{trips}", "--out", "{dir}/out.cevx"],
              {"ckpt": {}, "trips": {"anchor_id": str, "anchor_text": str, "positive_text": str}}),
    "eval-pairs": (["eval", "--embeddings", "{emb}", "--pairs", "{pairs}"], {"emb": {}, "pairs": {}}),
    "eval-qrels": (["eval", "--embeddings", "{emb}", "--qrels", "{qrels}"], {"emb": {}, "qrels": {}}),
    "stats": (["stats", "--corpus", "{corpus}"],
              {"corpus": {"sent_id": str, "source_name": str, "text": str, "char_len": int, "split": str}}),
    "gradcheck": (["gradcheck", "--checkpoint", "{ckpt}", "--batch", "{trips}", "--samples", "2",
                   "--batch-size", "2"], {"ckpt": {}, "trips": _TRIPLET_FIELDS}),
}


def _copy_inputs(valid: Path, workspace: Path) -> None:
    for name, _ in FILES.values():
        shutil.copy(valid / name, workspace / name)
    shutil.copy(valid / "emb.cevx.ids", workspace / "emb.cevx.ids")


def _runs(workspace: Path, argv: list[str]) -> tuple[int, str]:
    """Run ``argv`` in-process; returns the exit code and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = run([arg.format(dir=workspace, **{k: workspace / name for k, (name, _) in FILES.items()})
                    for arg in argv])
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory holding a valid file for every input key; each command
    line in COMMANDS exits 0 on them."""
    root = tmp_path_factory.mktemp("valid")
    by_source: dict[str, list[str]] = {}
    for r in two_cluster_records(6, seed=3):
        by_source.setdefault(r.source_name, []).append(r.text)
    (root / "docs.jsonl").write_text("".join(
        json.dumps({"doc_id": s, "source_name": s, "text": "\n\n".join(texts)}) + "\n" for s, texts in by_source.items()
    ), encoding="utf-8")
    (root / "config.json").write_text(json.dumps(
        {"epochs": 1, "batch_size": 4, "pooling": "mean", "vocab_size": 64, "d_emb": 4, "d_hid": 6, "d_out": 4,
         "lora_rank": 2}) + "\n", encoding="utf-8")
    save_checkpoint(init_params(0, vocab_size=64, d_emb=4, d_hid=6, d_out=4, lora_rank=2), root / "tiny.cemb")
    for argv in (["prepare", "--in", "{docs}", "--out", "{corpus}", "--seed", "1"],
                 ["triplets", "--corpus", "{corpus}", "--out", "{trips}", "--min-distance", "1", "--seed", "1"],
                 ["embed", "--checkpoint", "{ckpt}", "--texts", "{trips}", "--out", "{emb}"]):
        assert _runs(root, argv)[0] == 0
    anchors = [json.loads(line)["anchor_id"] for line in (root / "trips.jsonl").read_text().splitlines()]
    (root / "pairs.tsv").write_text("".join(f"{a}\tpos::{a}\n" for a in anchors[:4]), encoding="utf-8")
    (root / "qrels.tsv").write_text("".join(f"{a}\tpos::{a}\t1\n" for a in anchors[:4]), encoding="utf-8")
    for path in root.glob("*.meta.json"):
        path.unlink()
    for name, (argv, _) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as scratch:
            _copy_inputs(root, Path(scratch))
            assert _runs(Path(scratch), argv)[0] == 0, name
    return root


def assert_fails_cleanly(valid_inputs: Path, argv: list[str], replaced: dict[str, bytes]) -> None:
    """Run ``argv`` on a copy of the valid inputs with ``replaced`` files;
    it must exit 1, 2 or 3 with an E_* code and leave no new file."""
    with tempfile.TemporaryDirectory() as scratch:
        workspace = Path(scratch)
        _copy_inputs(valid_inputs, workspace)
        for key, data in replaced.items():
            (workspace / FILES[key][0]).write_bytes(data)
        before = sorted(workspace.rglob("*"))
        code, err = _runs(workspace, argv)
        assert code in (1, 2, 3), (code, err)
        assert re.match(r"E_[A-Z_]+: ", err) and "Traceback" not in err, err
        assert sorted(workspace.rglob("*")) == before


_PRINTABLE = [bytes([c]) for c in range(ord("!"), ord("~") + 1)]


def _wrong_value(expected: type):
    others = [st.none(), st.booleans(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)]
    return st.one_of(*others, st.text(max_size=4) if expected is int else st.integers())


@st.composite
def _wrong_typed(draw, data: bytes, fields: dict[str, type]):
    """JSON lines with one row's field, or the whole row, of the wrong type."""
    lines = data.decode("utf-8").splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        row = json.loads(lines[index])
        field = draw(st.sampled_from(sorted(fields)))
        row[field] = draw(_wrong_value(fields[field]))
    else:
        row = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2)))
    lines[index] = json.dumps(row)
    return "".join(line + "\n" for line in lines).encode("utf-8")


@st.composite
def corrupted_input(draw, valid: Path):
    """A command, and one of its inputs as random bytes, cut short, or with
    a value (or a whole JSON row) of the wrong type."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, inputs = COMMANDS[command]
    key = draw(st.sampled_from(sorted(inputs)))
    name, magic = FILES[key]
    data = (valid / name).read_bytes()
    kind = draw(st.sampled_from(["random", "truncated"] + (["wrong-type"] if inputs[key] else [])))
    if kind == "wrong-type":
        return argv, {key: draw(_wrong_typed(data, inputs[key]))}
    if kind == "random":
        if magic:  # never the start of a valid file
            return argv, {key: draw(st.binary(max_size=200).filter(lambda b: not b.startswith(magic)))}
        # A printable character somewhere makes a line that is not blank.
        return argv, {key: b"".join(draw(st.tuples(st.binary(max_size=100), st.sampled_from(_PRINTABLE),
                                                   st.binary(max_size=100))))}
    if magic:
        # Cut anywhere, often in the headers at the start.
        return argv, {key: data[: min(len(data) - 1, draw(st.integers(0, 63) | st.integers(0, len(data) - 1)))]}
    # Cut inside a line, so that the last line is a strict prefix of a valid one.
    start = draw(st.sampled_from([0, *(i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n"))]))
    return argv, {key: data[: start + draw(st.integers(1, data.index(b"\n", start) - start - 1))]}


@FUZZ_SETTINGS
@given(data=st.data())
def test_a_corrupted_input_file_fails_cleanly(valid_inputs, data):
    argv, replaced = data.draw(corrupted_input(valid_inputs))
    assert_fails_cleanly(valid_inputs, argv, replaced)


def _int_below(minimum: float):
    """Whether a flag value is not an int of at least ``minimum``."""

    def invalid(value: str) -> bool:
        try:
            return int(value) < minimum
        except ValueError:
            return True
    return invalid


def _float_outside(accepts):
    """Whether a flag value is not a float that ``accepts`` takes."""

    def invalid(value: str) -> bool:
        try:
            return not accepts(float(value))
        except ValueError:
            return True
    return invalid


def _bad_ks(value: str) -> bool:
    try:
        ks = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        return True
    return not ks or min(ks) < 1


# Provider commands that cannot be started: unparseable or naming no
# program. Generated text is never run.
UNSTARTABLE_PROVIDERS = ["python -c 'x", "'", '"unclosed', "", " ", "\t\n", "x\x00y"]
# (command, flag): which of its values are invalid, or the invalid values.
BAD_FLAGS = {
    ("prepare", "--train-frac"): _float_outside(lambda x: 0.0 < x < 1.0),
    ("prepare", "--test-frac"): _float_outside(lambda x: x >= 0.0 and 0.9 + x <= 1.0),
    ("prepare", "--min-chars"): _int_below(-math.inf),  # any int
    ("prepare", "--seed"): _int_below(0),
    ("triplets", "--min-distance"): _int_below(1),
    ("triplets", "--seed"): _int_below(0),
    ("triplets", "--provider"): UNSTARTABLE_PROVIDERS,
    ("train", "--seed"): _int_below(0),
    ("embed", "--pooling"): lambda value: value not in ("mean", "last_token"),
    ("eval-pairs", "--k"): _bad_ks,
    ("eval-qrels", "--gain"): lambda value: value not in ("linear", "exponential"),
    ("gradcheck", "--h"): _float_outside(lambda x: 0.0 < x < math.inf),
    ("gradcheck", "--samples"): _int_below(1),
    ("gradcheck", "--batch-size"): _int_below(1),
    ("gradcheck", "--seed"): _int_below(0),
}


@st.composite
def bad_flag(draw):
    """A command line with one flag set to an invalid value."""
    command, flag = draw(st.sampled_from(sorted(BAD_FLAGS)))
    rule = BAD_FLAGS[(command, flag)]
    if isinstance(rule, list):
        value = draw(st.sampled_from(rule))
    else:
        value = draw(st.one_of(st.integers(-5, 5).map(str), st.floats().map(repr), st.text(max_size=6)).filter(rule))
    argv = list(COMMANDS[command][0])
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


@FUZZ_SETTINGS
@given(argv=bad_flag())
def test_a_bad_flag_value_fails_cleanly(valid_inputs, argv):
    assert_fails_cleanly(valid_inputs, argv, {})
