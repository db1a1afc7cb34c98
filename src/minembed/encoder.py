"""Compact trainable sentence encoder.

Architecture: hashed-vocabulary token embeddings, mean or last-token
pooling, two affine layers with a tanh between them, low-rank adapters on
both weight matrices, and L2 normalization of the output.

The adapter composition is ``W_eff = W + (alpha / rank) * A^T B^T`` with
``A: [rank, in_dim]`` and ``B: [out_dim, rank]``. ``B`` starts at zero, so a
freshly initialized encoder computes exactly the base-weight forward pass.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import storage
from .errors import DataError, NumericError

DEFAULT_VOCAB_SIZE = 16384
DEFAULT_D_EMB = 64
DEFAULT_D_HID = 128
DEFAULT_D_OUT = 64
DEFAULT_LORA_RANK = 16
DEFAULT_LORA_ALPHA = 32.0
DEFAULT_LORA_DROPOUT = 0.05
INIT_WEIGHT_SCALE = 0.05
INIT_ADAPTER_SD = 0.02

POOLING_MEAN = "mean"
POOLING_LAST = "last_token"
POOLINGS = (POOLING_MEAN, POOLING_LAST)

# Canonical tensor order shared by checkpoints, gradients, optimizer state.
TENSOR_NAMES = ("E", "W1", "b1", "W2", "b2", "lora_A1", "lora_B1", "lora_A2", "lora_B2")
ADAPTER_NAMES = ("lora_A1", "lora_B1", "lora_A2", "lora_B2")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TOKEN_RE = re.compile(r"[^\W_]+")


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@functools.lru_cache(maxsize=None)
def _token_hash(token: str) -> int:
    # Memoized: a corpus repeats its tokens, so each distinct token string is hashed
    # once, and the memo grows with the distinct tokens seen, not with the texts.
    return fnv1a_64(token.encode("utf-8"))


@dataclass(frozen=True)
class Tokenizer:
    """Hash tokenizer: lowercase, split on non-alphanumeric runs, FNV-1a mod vocab."""

    vocab_size: int = DEFAULT_VOCAB_SIZE

    def __call__(self, text: str) -> list[int]:
        return [_token_hash(tok) % self.vocab_size for tok in _TOKEN_RE.findall(text.lower())]


def tensor_shapes(vocab: int, d_emb: int, d_hid: int, d_out: int, rank: int) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor, in ``TENSOR_NAMES`` order; every dimension must be >= 1."""
    if rank < 1:
        raise DataError("E_BAD_RANK", f"lora_rank must be >= 1, got {rank}")
    if min(vocab, d_emb, d_hid, d_out) < 1:
        raise DataError(
            "E_BAD_SHAPE", f"dimensions must be >= 1, got vocab_size={vocab} d_emb={d_emb} d_hid={d_hid} d_out={d_out}"
        )
    return {
        "E": (vocab, d_emb),
        "W1": (d_emb, d_hid),
        "b1": (d_hid,),
        "W2": (d_hid, d_out),
        "b2": (d_out,),
        "lora_A1": (rank, d_emb),
        "lora_B1": (d_hid, rank),
        "lora_A2": (rank, d_hid),
        "lora_B2": (d_out, rank),
    }


@dataclass
class EncoderParams:
    """All trainable tensors, keyed in ``TENSOR_NAMES`` order, plus the
    adapter hyperparameters and the pooling rule the model was built with."""

    tensors: dict[str, np.ndarray]
    lora_rank: int = DEFAULT_LORA_RANK
    lora_alpha: float = DEFAULT_LORA_ALPHA
    lora_dropout: float = DEFAULT_LORA_DROPOUT
    pooling: str = POOLING_LAST
    tokenizer: Tokenizer = field(init=False)

    def __post_init__(self) -> None:
        self.tokenizer = Tokenizer(vocab_size=self.tensors["E"].shape[0])
        if not 0.0 <= self.lora_dropout < 1.0:
            raise DataError("E_BAD_DROPOUT", f"lora_dropout must be in [0, 1), got {self.lora_dropout}")
        if not np.isfinite(self.lora_alpha):
            raise DataError("E_BAD_ALPHA", f"lora_alpha must be finite, got {self.lora_alpha}")
        if self.pooling not in POOLINGS:
            raise DataError("E_BAD_POOLING", f"pooling must be one of {POOLINGS}, got {self.pooling!r}")

    @property
    def scale(self) -> float:
        return self.lora_alpha / self.lora_rank

    def trainable_names(self, lora_only: bool) -> tuple[str, ...]:
        return ADAPTER_NAMES if lora_only else TENSOR_NAMES

    def copy(self) -> "EncoderParams":
        return replace(self, tensors={name: t.copy() for name, t in self.tensors.items()})


def init_params(
    seed: int,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    d_emb: int = DEFAULT_D_EMB,
    d_hid: int = DEFAULT_D_HID,
    d_out: int = DEFAULT_D_OUT,
    lora_rank: int = DEFAULT_LORA_RANK,
    lora_alpha: float = DEFAULT_LORA_ALPHA,
    lora_dropout: float = DEFAULT_LORA_DROPOUT,
    pooling: str = POOLING_LAST,
) -> EncoderParams:
    """Seeded initialization: uniform base weights, Gaussian A, zero B.

    Values are rounded through float32 so checkpoints round-trip bit-exactly
    from the very first save.
    """
    rng = np.random.default_rng(seed)

    def uniform(shape):
        return rng.uniform(-INIT_WEIGHT_SCALE, INIT_WEIGHT_SCALE, shape).astype(np.float32).astype(np.float64)

    def gaussian(shape):
        return rng.normal(0.0, INIT_ADAPTER_SD, shape).astype(np.float32).astype(np.float64)

    # Drawn in TENSOR_NAMES order from one generator; biases and B start at zero.
    draws = {"E": uniform, "W1": uniform, "W2": uniform, "lora_A1": gaussian, "lora_A2": gaussian}
    shapes = tensor_shapes(vocab_size, d_emb, d_hid, d_out, lora_rank)
    return EncoderParams(
        tensors={name: draws.get(name, np.zeros)(shape) for name, shape in shapes.items()},
        lora_rank=lora_rank,
        lora_alpha=lora_alpha,
        lora_dropout=lora_dropout,
        pooling=pooling,
    )


@dataclass
class EncodeCache:
    """Intermediate activations kept for the backward pass."""

    token_table: np.ndarray  # row i: the ids text i's pooling averages, padded with id 0
    token_counts: np.ndarray  # row i's ids before the padding
    pooled: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    hidden: np.ndarray
    norms: np.ndarray
    outputs: np.ndarray


# The token ids each pooling averages: all of a text's, or only its last.
_POOLED_TOKENS = {POOLING_MEAN: slice(None), POOLING_LAST: slice(-1, None)}


def _token_table(
    texts: Sequence[str], params: EncoderParams, token_ids: Mapping[str, Sequence[int]] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize each text once, or look its ids up in ``token_ids``; return the
    padded table of its pooled ids, and their counts."""
    ids_of = params.tokenizer if token_ids is None else token_ids.__getitem__
    pooled_ids = [ids_of(text)[_POOLED_TOKENS[params.pooling]] for text in texts]
    counts = np.fromiter(map(len, pooled_ids), dtype=np.intp, count=len(pooled_ids))
    if not counts.all():
        i = int(np.argmin(counts))
        raise DataError("E_EMPTY_TOKENS", f"text {i} produced no tokens: {texts[i]!r}")
    table = np.zeros((len(counts), counts.max(initial=0)), dtype=np.intp)
    table[_filled(table, counts)] = np.fromiter(chain.from_iterable(pooled_ids), dtype=np.intp, count=counts.sum())
    return table, counts


def _filled(table: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # True at the table slots that hold a token, False at the padding.
    return np.arange(table.shape[1]) < counts[:, None]


def _dropout_masks(shape: tuple[int, int], p: float, rng: np.random.Generator) -> np.ndarray:
    # Inverted-scaling Bernoulli mask: kept units are divided by (1 - p).
    return (rng.random(shape) >= p) / (1.0 - p)


def _adapted(x: np.ndarray, mask: np.ndarray, params: EncoderParams, layer: str) -> np.ndarray:
    """Affine layer ``layer`` ("1" or "2") plus its adapter, applied to the dropout-masked input."""
    t = params.tensors
    adapter = t[f"lora_A{layer}"].T @ t[f"lora_B{layer}"].T
    return x @ t[f"W{layer}"] + t[f"b{layer}"] + params.scale * ((x * mask) @ adapter)


def _adapted_backward(
    x: np.ndarray, mask: np.ndarray, grad_out: np.ndarray, params: EncoderParams, layer: str,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate ``_adapted``'s gradients into the tensors ``grads`` holds; return d(loss)/d(x)."""
    t, scale = params.tensors, params.scale
    w, a, b = t[f"W{layer}"], t[f"lora_A{layer}"], t[f"lora_B{layer}"]
    if f"W{layer}" in grads:
        grads[f"W{layer}"] += x.T @ grad_out
        grads[f"b{layer}"] += grad_out.sum(axis=0)
    g = (x * mask).T @ grad_out
    grads[f"lora_A{layer}"] += scale * (g @ b).T
    grads[f"lora_B{layer}"] += scale * g.T @ a.T
    return grad_out @ w.T + (scale * grad_out @ (a.T @ b.T).T) * mask


def forward_batch(
    texts: Sequence[str],
    params: EncoderParams,
    train_mode: bool = False,
    seed: int = 0,
    *,
    token_ids: Mapping[str, Sequence[int]] | None = None,
) -> tuple[np.ndarray, EncodeCache]:
    """Encode texts with the params' pooling and keep activations for backpropagation.

    ``token_ids``, when given, maps each text to its ids under ``params.tokenizer``,
    so a caller that encodes the same texts many times tokenizes each once.
    """
    table, counts = _token_table(texts, params, token_ids)
    rows = params.tensors["E"][table]
    # A pad adds +0.0: it changes no sum, except that a sum of only -0.0 becomes +0.0.
    rows[~_filled(table, counts)] = 0.0
    pooled = rows.sum(axis=1) / counts[:, None]

    shapes = (pooled.shape, (len(pooled), params.tensors["W1"].shape[1]))
    p = params.lora_dropout
    if train_mode and p > 0.0:
        rng = np.random.default_rng(seed)
        mask1, mask2 = (_dropout_masks(shape, p, rng) for shape in shapes)
    else:
        mask1, mask2 = (np.ones(shape) for shape in shapes)

    hidden = np.tanh(_adapted(pooled, mask1, params, "1"))
    raw_out = _adapted(hidden, mask2, params, "2")
    norms = np.linalg.norm(raw_out, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("E_ZERO_VECTOR", "encoder produced a zero vector before normalization")
    outputs = raw_out / norms
    return outputs, EncodeCache(table, counts, pooled, mask1, mask2, hidden, norms, outputs)


def backward_batch(
    grad_outputs: np.ndarray, cache: EncodeCache, params: EncoderParams, grads: dict[str, np.ndarray]
) -> None:
    """Accumulate gradients, given d(loss)/d(normalized outputs), into the
    tensors ``grads`` holds: all of them, or only the adapters'."""
    y, norms, hidden = cache.outputs, cache.norms, cache.hidden
    # Through y = u / ||u||: project out the radial component, divide by norm.
    grad_u = (grad_outputs - (y * grad_outputs).sum(axis=1, keepdims=True) * y) / norms
    grad_hidden = _adapted_backward(hidden, cache.mask2, grad_u, params, "2", grads)
    grad_pre = grad_hidden * (1.0 - hidden * hidden)
    grad_pooled = _adapted_backward(cache.pooled, cache.mask1, grad_pre, params, "1", grads)
    if "E" in grads:
        # Each pooled id gets its text's gradient over the count. One 1-D np.add.at on the
        # flat (contiguous) buffer adds the shares in text order, which a repeated id needs.
        table, counts, d_emb = cache.token_table, cache.token_counts, grad_pooled.shape[1]
        flat = (table[_filled(table, counts)][:, None] * d_emb + np.arange(d_emb)).ravel()
        np.add.at(grads["E"].reshape(-1), flat, np.repeat(grad_pooled / counts[:, None], counts, axis=0).ravel())


def encode_batch(
    texts: Sequence[str],
    params: EncoderParams,
    train_mode: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Encode texts into unit-norm embedding vectors, one row per text."""
    outputs, _ = forward_batch(texts, params, train_mode, seed)
    return outputs


# Hyperparameters stored as f32 scalar tensors; pooling as its index in POOLINGS.
_SCALAR_FIELDS = ("lora_rank", "lora_alpha", "lora_dropout", "pooling")


def save_checkpoint(params: EncoderParams, path: str | Path) -> None:
    """Write all tensors plus the hyperparameter scalars in CEMB format."""
    scalars = {name: getattr(params, name) for name in _SCALAR_FIELDS}
    scalars["pooling"] = POOLINGS.index(params.pooling)
    tensors = dict(params.tensors)
    for name, value in scalars.items():
        tensors[name] = np.array([value], dtype=np.float32)
    storage.write_tensors(path, tensors)


def load_checkpoint(path: str | Path) -> EncoderParams:
    """Read a CEMB checkpoint back into encoder parameters.

    Every tensor's rank is checked before any of its dimensions is read,
    then every shape against ``tensor_shapes``, then that the weights and
    ``lora_alpha`` are finite. A checkpoint without a ``pooling`` scalar
    predates it and loads as last_token, which is how such checkpoints
    were embedded.
    """
    stored = storage.read_tensors(path)
    stored.setdefault("pooling", np.array([POOLINGS.index(POOLING_LAST)], dtype=np.float32))
    missing = [n for n in (*TENSOR_NAMES, *_SCALAR_FIELDS) if n not in stored]
    if missing:
        raise DataError("E_SHAPE_MISMATCH", f"{path}: missing tensors {missing}")
    # Ranks first: the dimensions checked below are read off E and W2.
    ranks = {name: len(shape) for name, shape in tensor_shapes(1, 1, 1, 1, 1).items()}
    wrong_rank = [n for n, rank in ranks.items() if stored[n].ndim != rank]
    wrong_rank += [n for n in _SCALAR_FIELDS if stored[n].shape != (1,)]
    if wrong_rank:
        raise DataError("E_SHAPE_MISMATCH", f"{path}: tensors of the wrong rank {wrong_rank}")
    lora_rank = float(stored["lora_rank"][0])
    if not lora_rank.is_integer():
        raise DataError("E_BAD_RANK", f"{path}: lora_rank must be an integer, got {lora_rank}")
    pooling = float(stored["pooling"][0])
    if not pooling.is_integer() or not 0 <= pooling < len(POOLINGS):
        raise DataError("E_BAD_POOLING", f"{path}: pooling must be an index into {POOLINGS}, got {pooling}")
    vocab, d_emb = stored["E"].shape
    d_hid, d_out = stored["W2"].shape
    shapes = tensor_shapes(vocab, d_emb, d_hid, d_out, int(lora_rank))
    bad = [n for n, shape in shapes.items() if stored[n].shape != shape]
    if bad:
        raise DataError("E_SHAPE_MISMATCH", f"{path}: inconsistent tensor shapes {bad}")
    nonfinite = [n for n in (*TENSOR_NAMES, "lora_alpha") if not np.isfinite(stored[n]).all()]
    if nonfinite:
        raise DataError("E_IO", f"{path}: non-finite values in tensors {nonfinite}")
    return EncoderParams(
        tensors={name: stored[name].astype(np.float64) for name in TENSOR_NAMES},
        lora_rank=int(lora_rank),
        lora_alpha=float(stored["lora_alpha"][0]),
        lora_dropout=float(stored["lora_dropout"][0]),
        pooling=POOLINGS[int(pooling)],
    )
