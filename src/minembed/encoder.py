"""Compact trainable sentence encoder.

Architecture: hashed-vocabulary token embeddings, mean or last-token
pooling, two affine layers with a tanh between them, low-rank adapters on
both weight matrices, and L2 normalization of the output.

The adapter composition is ``W_eff = W + (alpha / rank) * A^T B^T`` with
``A: [rank, in_dim]`` and ``B: [out_dim, rank]``. ``B`` starts at zero, so a
freshly initialized encoder computes exactly the base-weight forward pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

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


@dataclass(frozen=True)
class Tokenizer:
    """Hash tokenizer: lowercase, split on non-alphanumeric runs, FNV-1a mod vocab."""

    vocab_size: int = DEFAULT_VOCAB_SIZE

    def __call__(self, text: str) -> list[int]:
        return [fnv1a_64(tok.encode("utf-8")) % self.vocab_size for tok in _TOKEN_RE.findall(text.lower())]


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB_SIZE) -> list[int]:
    """Token ids for a text under the default hash scheme."""
    return Tokenizer(vocab_size=vocab_size)(text)


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


def effective_weight(w: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float, rank: int) -> np.ndarray:
    """Base weight plus scaled low-rank update: W + (alpha/rank) A^T B^T."""
    return w + (alpha / rank) * (a.T @ b.T)


@dataclass
class EncodeCache:
    """Intermediate activations kept for the backward pass."""

    token_ids: list[list[int]]
    pooled: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    hidden: np.ndarray
    norms: np.ndarray
    outputs: np.ndarray


def _dropout_masks(shape: tuple[int, int], p: float, rng: np.random.Generator) -> np.ndarray:
    # Inverted-scaling Bernoulli mask: kept units are divided by (1 - p).
    return (rng.random(shape) >= p) / (1.0 - p)


def forward_batch(
    texts: Sequence[str],
    params: EncoderParams,
    train_mode: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, EncodeCache]:
    """Encode texts with the params' pooling and keep activations for backpropagation."""
    mean_pool = params.pooling == POOLING_MEAN
    t = params.tensors
    n = len(texts)
    d_emb = t["E"].shape[1]
    pooled = np.empty((n, d_emb))
    token_ids: list[list[int]] = []
    for i, text in enumerate(texts):
        ids = params.tokenizer(text)
        if not ids:
            raise DataError("E_EMPTY_TOKENS", f"text {i} produced no tokens: {text!r}")
        token_ids.append(ids)
        rows = t["E"][ids]
        pooled[i] = rows.mean(axis=0) if mean_pool else rows[-1]

    p = params.lora_dropout
    if train_mode and p > 0.0:
        rng = np.random.default_rng(seed)
        mask1 = _dropout_masks((n, d_emb), p, rng)
        mask2 = _dropout_masks((n, t["W1"].shape[1]), p, rng)
    else:
        mask1 = np.ones((n, d_emb))
        mask2 = np.ones((n, t["W1"].shape[1]))

    scale = params.scale
    adapter1 = t["lora_A1"].T @ t["lora_B1"].T
    adapter2 = t["lora_A2"].T @ t["lora_B2"].T
    pre_act = pooled @ t["W1"] + t["b1"] + scale * ((pooled * mask1) @ adapter1)
    hidden = np.tanh(pre_act)
    raw_out = hidden @ t["W2"] + t["b2"] + scale * ((hidden * mask2) @ adapter2)
    norms = np.linalg.norm(raw_out, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError("E_ZERO_VECTOR", "encoder produced a zero vector before normalization")
    outputs = raw_out / norms
    cache = EncodeCache(
        token_ids=token_ids, pooled=pooled, mask1=mask1, mask2=mask2, hidden=hidden, norms=norms, outputs=outputs
    )
    return outputs, cache


def backward_batch(
    grad_outputs: np.ndarray,
    cache: EncodeCache,
    params: EncoderParams,
    grads: dict[str, np.ndarray],
    lora_only: bool = False,
) -> None:
    """Accumulate parameter gradients given d(loss)/d(normalized outputs)."""
    t = params.tensors
    scale = params.scale
    y, norms = cache.outputs, cache.norms
    # Through y = u / ||u||: project out the radial component, divide by norm.
    grad_u = (grad_outputs - (y * grad_outputs).sum(axis=1, keepdims=True) * y) / norms

    hidden, hidden_d = cache.hidden, cache.hidden * cache.mask2
    if not lora_only:
        grads["W2"] += hidden.T @ grad_u
        grads["b2"] += grad_u.sum(axis=0)
    g2 = hidden_d.T @ grad_u
    grads["lora_A2"] += scale * (g2 @ t["lora_B2"]).T
    grads["lora_B2"] += scale * g2.T @ t["lora_A2"].T

    adapter2 = t["lora_A2"].T @ t["lora_B2"].T
    grad_hidden = grad_u @ t["W2"].T + (scale * grad_u @ adapter2.T) * cache.mask2
    grad_pre = grad_hidden * (1.0 - hidden * hidden)

    pooled, pooled_d = cache.pooled, cache.pooled * cache.mask1
    if not lora_only:
        grads["W1"] += pooled.T @ grad_pre
        grads["b1"] += grad_pre.sum(axis=0)
    g1 = pooled_d.T @ grad_pre
    grads["lora_A1"] += scale * (g1 @ t["lora_B1"]).T
    grads["lora_B1"] += scale * g1.T @ t["lora_A1"].T

    if not lora_only:
        adapter1 = t["lora_A1"].T @ t["lora_B1"].T
        grad_pooled = grad_pre @ t["W1"].T + (scale * grad_pre @ adapter1.T) * cache.mask1
        mean_pool = params.pooling == POOLING_MEAN
        for i, ids in enumerate(cache.token_ids):
            if mean_pool:
                np.add.at(grads["E"], ids, grad_pooled[i] / len(ids))
            else:
                grads["E"][ids[-1]] += grad_pooled[i]


def encode_batch(
    texts: Sequence[str],
    params: EncoderParams,
    train_mode: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Encode texts into unit-norm embedding vectors, one row per text."""
    outputs, _ = forward_batch(texts, params, train_mode, seed)
    return outputs


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise NumericError("E_ZERO_VECTOR", "cosine similarity of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


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
    then every shape against ``tensor_shapes``. A checkpoint without a
    ``pooling`` scalar predates it and loads as last_token, which is how
    such checkpoints were embedded.
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
    return EncoderParams(
        tensors={name: stored[name].astype(np.float64) for name in TENSOR_NAMES},
        lora_rank=int(lora_rank),
        lora_alpha=float(stored["lora_alpha"][0]),
        lora_dropout=float(stored["lora_dropout"][0]),
        pooling=POOLINGS[int(pooling)],
    )
