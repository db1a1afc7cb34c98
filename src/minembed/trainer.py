"""Contrastive training: InfoNCE loss, AdamW, warmup + cosine schedule.

Per anchor i the loss is the softmax cross-entropy over similarity logits

    -log  exp(s(a_i, p_i)/tau) /
          ( exp(s(a_i, p_i)/tau) + exp(s(a_i, n_i)/tau)
            + sum_{j != i} exp(s(a_i, p_j)/tau) )

where the sum ranges over the other in-batch positives. Similarities are
cosines of unit-normalized embeddings. Each per-anchor term is evaluated as
``logsumexp(logits) - target_logit`` with max subtraction and ``log1p`` on
the residual mass, which keeps tiny losses accurate to full double
precision and makes sims of +-1 at tau = 0.05 safe in single precision.
The loss and its gradient with respect to the similarities come from one softmax.

All arithmetic runs in double precision; checkpoints store float32.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import storage
from .encoder import EncodeCache, EncoderParams, backward_batch, forward_batch, save_checkpoint
from .errors import DataError, NumericError
from .triplets import Triplet


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the package's standard recipe."""

    epochs: int = 2
    batch_size: int = 128
    peak_lr: float = 2e-4
    warmup_frac: float = 0.1
    min_lr: float = 0.0
    temperature: float = 0.05
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    train_lora_only: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN, which fails every comparison, fails each check.
        if not 0.0 < self.temperature < math.inf:
            raise DataError("E_BAD_TEMPERATURE", f"temperature must be finite and > 0, got {self.temperature}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise DataError("E_BAD_SCHEDULE", f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if not (0.0 <= self.peak_lr < math.inf and 0.0 <= self.min_lr < math.inf):
            raise DataError("E_BAD_SCHEDULE", f"peak_lr and min_lr must be finite and >= 0, got {self.peak_lr}, {self.min_lr}")
        if self.batch_size < 2:
            raise DataError("E_BAD_BATCH", f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}")
        if self.epochs < 0:
            raise DataError("E_BAD_BATCH", f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise DataError("E_BAD_SEED", f"seed must be nonnegative, got {self.seed}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0 and 0.0 < self.eps < math.inf
                and 0.0 <= self.weight_decay < math.inf):
            raise DataError(
                "E_BAD_OPTIMIZER",
                "beta1 and beta2 must be in [0, 1), eps finite and > 0 and weight_decay finite and >= 0, "
                f"got {self.beta1}, {self.beta2}, {self.eps}, {self.weight_decay}",
            )


# Elements AdamW updates per pass: the six arrays a pass touches (gradient,
# both moments, parameter, two scratch) take 1.5 MB, so they stay in a 2 MB L2
# cache across its dozen operations.
_ADAMW_CHUNK = 1 << 15


@dataclass
class OptimizerState:
    """AdamW first and second moments plus the step counter.

    ``scratch`` is two flat float64 buffers that every step reuses for its
    temporaries, one chunk of rows at a time. It is working memory, not
    state: nothing in it outlives a step.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A chunk is whole rows: _ADAMW_CHUNK elements' worth, or one row if a row is longer.
        size = max([_ADAMW_CHUNK, *(m[0].size for m in self.m.values())])
        self.scratch = (np.empty(size), np.empty(size))


def init_optimizer_state(params: EncoderParams, lora_only: bool = False) -> OptimizerState:
    names = params.trainable_names(lora_only)
    return OptimizerState(
        m={n: np.zeros_like(params.tensors[n]) for n in names},
        v={n: np.zeros_like(params.tensors[n]) for n in names},
    )


@dataclass
class BatchLossReport:
    # Fields are declared in train-log row order, after step and lr.
    loss: float
    mean_pos_sim: float
    mean_neg_sim: float
    grad_norm: float = 0.0


@dataclass
class EpochReport:
    # Fields are declared in train-report row order.
    epoch: int
    mean_train_loss: float
    val_loss: float | None
    checkpoint: str | None = None


def _infonce(a: np.ndarray, p: np.ndarray, n: np.ndarray, tau: float) -> tuple[BatchLossReport, np.ndarray]:
    """The batch's loss and mean similarities, and d(mean loss)/d(sims).

    Sim column j < B is s(a_i, p_j) and the last is s(a_i, n_i); row i's
    logits are its sims / tau, its target column i. Float32 inputs stay float32.
    """
    batch = a.shape[0]
    rows = np.arange(batch)
    logits = np.concatenate([a @ p.T, (a * n).sum(axis=1, keepdims=True)], axis=1) / tau
    target = logits[rows, rows]
    argmax = logits.argmax(axis=1)
    max_logit = logits[rows, argmax]
    # One max column is excluded from the residual rather than subtracting
    # its exp(0) = 1 afterwards; that subtraction would cancel away the low
    # bits of tiny residuals and spoil near-zero losses.
    shifted_exp = np.exp(logits - max_logit[:, None])
    shifted_exp[rows, argmax] = 0.0
    losses = (max_logit - target) + np.log1p(shifted_exp.sum(axis=1))
    # The softmax's denominator is the whole row, the max column's 1 included.
    shifted_exp[rows, argmax] = 1.0
    grad_sims = shifted_exp / shifted_exp.sum(axis=1, keepdims=True)
    grad_sims[rows, rows] -= 1.0
    grad_sims /= tau * batch
    report = BatchLossReport(
        loss=math.fsum(losses) / batch,
        mean_pos_sim=float(np.mean(target)) * tau,
        mean_neg_sim=float(np.mean(logits[:, batch])) * tau,
    )
    return report, grad_sims


def infonce_loss(
    anchors: Sequence[np.ndarray],
    positives: Sequence[np.ndarray],
    negatives: Sequence[np.ndarray],
    tau: float,
) -> float:
    """Mean InfoNCE loss over a batch of embedding triplets."""
    if not (len(anchors) == len(positives) == len(negatives)):
        raise DataError(
            "E_LENGTH_MISMATCH",
            f"got {len(anchors)} anchors, {len(positives)} positives, {len(negatives)} negatives",
        )
    if len(anchors) == 0:
        raise DataError("E_LENGTH_MISMATCH", "empty batch")
    if not 0.0 < tau < math.inf:  # also false for NaN
        raise DataError("E_BAD_TEMPERATURE", f"temperature must be finite and > 0, got {tau}")
    try:
        a, p, n = (np.asarray(v, dtype=np.float64) for v in (anchors, positives, negatives))
    except (TypeError, ValueError) as exc:  # ragged widths, or values that are not numbers
        raise DataError("E_SHAPE_MISMATCH", f"embeddings must be vectors of one width: {exc}") from None
    if not (a.ndim == p.ndim == n.ndim == 2 and a.shape[1] == p.shape[1] == n.shape[1]):
        raise DataError(
            "E_SHAPE_MISMATCH", f"embeddings must be vectors of one width, got shapes {a.shape}, {p.shape}, {n.shape}"
        )
    return _infonce(a, p, n, tau)[0].loss


def _role_seed(seed: int, role: int) -> int:
    # Fixed stream splitting: one dropout stream per encode role.
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def _encode_roles(
    batch: Sequence[Triplet],
    params: EncoderParams,
    train_mode: bool,
    seed: int,
    token_ids: Mapping[str, Sequence[int]] | None,
) -> list[tuple[np.ndarray, EncodeCache]]:
    """Forward the anchor, positive and negative texts, in that order."""
    roles = ([t.anchor_text for t in batch], [t.positive_text for t in batch], [t.negative_text for t in batch])
    return [
        forward_batch(texts, params, train_mode, _role_seed(seed, role), token_ids=token_ids)
        for role, texts in enumerate(roles)
    ]


def batch_loss(
    batch: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
    *,
    token_ids: Mapping[str, Sequence[int]] | None = None,
) -> BatchLossReport:
    """Forward-only loss evaluation (used by validation and gradient checks)."""
    if not batch:
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty batch")
    (a, _), (p, _), (n, _) = _encode_roles(batch, params, train_mode, seed, token_ids)
    return _infonce(a, p, n, config.temperature)[0]


def gradient_buffers(params: EncoderParams, lora_only: bool) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One gradient buffer per trained tensor, and a flat float64 scratch as
    long as the largest, which holds the squares the gradient norm sums.

    The buffers are row-major whatever the tensors' layout: the ``E``
    scatter writes through a flat view, and the norm sums in row order.
    """
    grads = {name: np.empty_like(params.tensors[name], order="C") for name in params.trainable_names(lora_only)}
    return grads, np.empty(max(g.size for g in grads.values()))


def infonce_gradient(
    batch: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
    *,
    token_ids: Mapping[str, Sequence[int]] | None = None,
    out: tuple[dict[str, np.ndarray], np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], BatchLossReport]:
    """Exact analytic gradient of the batch loss for every trained tensor.

    ``token_ids`` is handed to ``forward_batch``. Without ``out`` the
    gradient comes in fresh arrays. With it, ``out`` is a pair from
    ``gradient_buffers``, which is zeroed, filled and returned.
    """
    if not batch:
        raise DataError("E_EMPTY_BATCH", "cannot take gradients of an empty batch")
    roles = _encode_roles(batch, params, train_mode, seed, token_ids)
    (a, _), (p, _), (n, _) = roles
    report, grad_sims = _infonce(a, p, n, config.temperature)

    grads, squares = out if out is not None else gradient_buffers(params, config.train_lora_only)
    for g in grads.values():
        g.fill(0.0)
    # Chain rule through the sims: d_pos[i, j] = dL/d(a_i . p_j), d_neg[i] = dL/d(a_i . n_i).
    d_pos, d_neg = grad_sims[:, :-1], grad_sims[:, -1:]
    for (_, cache), grad in zip(roles, (d_pos @ p + d_neg * n, d_pos.T @ a, d_neg * a)):
        backward_batch(grad, cache, params, grads)

    # g and its squares are both row-major, so .sum() adds them in the pairwise order of np.sum(g * g).
    report.grad_norm = math.sqrt(math.fsum(
        float(np.multiply(g, g, out=squares[: g.size].reshape(g.shape)).sum()) for g in grads.values()
    ))
    return grads, report


def lr_at_step(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to peak_lr, then cosine annealing to min_lr.

    Warmup spans ``ceil(warmup_frac * total_steps)`` steps, capped at
    ``total_steps - 1`` so the cosine span is never degenerate.
    """
    if total_steps < 1:
        raise DataError("E_BAD_SCHEDULE", f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise DataError("E_BAD_SCHEDULE", f"step {step} outside [0, {total_steps}]")
    warmup = min(math.ceil(config.warmup_frac * total_steps), total_steps - 1)
    if step < warmup:
        return config.peak_lr * (step + 1) / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return config.min_lr + 0.5 * (config.peak_lr - config.min_lr) * (1.0 + math.cos(math.pi * progress))


def adamw_step(
    params: EncoderParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    config: TrainConfig,
) -> tuple[EncoderParams, OptimizerState]:
    """One decoupled-weight-decay Adam update, in place.

    Each tensor is updated a chunk of rows at a time, and each temporary is
    written into ``state.scratch``, in the order of operations of
    ``theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)``. The update
    is elementwise, so the chunks change no bit. ``grads`` is only read.
    """
    tensors = params.tensors
    for name, grad in grads.items():
        if name not in state.m:
            raise DataError("E_SHAPE_MISMATCH", f"gradient for untracked tensor {name!r}")
        if grad.shape != tensors[name].shape:
            raise DataError("E_SHAPE_MISMATCH", f"{name}: gradient {grad.shape} vs parameter {tensors[name].shape}")
        if not np.all(np.isfinite(grad)):
            raise NumericError("E_NONFINITE_GRAD", f"non-finite gradient in {name}")
    state.t += 1
    correction1 = 1.0 - config.beta1**state.t
    correction2 = 1.0 - config.beta2**state.t
    for name, grad in grads.items():
        rows = max(1, _ADAMW_CHUNK // grad[0].size)
        for lo in range(0, len(grad), rows):
            # Slices along the first axis are views, whatever the strides, so the updates land in place.
            g, m, v, theta = (t[lo : lo + rows] for t in (grad, state.m[name], state.v[name], tensors[name]))
            x, y = (buf[: g.size].reshape(g.shape) for buf in state.scratch)
            m *= config.beta1
            m += np.multiply(1.0 - config.beta1, g, out=x)
            v *= config.beta2
            np.multiply(1.0 - config.beta2, g, out=x)
            v += np.multiply(x, g, out=x)
            np.divide(m, correction1, out=x)
            np.sqrt(np.divide(v, correction2, out=y), out=y)
            y += config.eps
            x /= y
            x += np.multiply(config.weight_decay, theta, out=y)
            x *= lr
            theta -= x
    return params, state


def _epoch_batches(n: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    return [perm[start : start + batch_size] for start in range(0, n, batch_size)]


def evaluation_loss(
    triplets: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    *,
    token_ids: Mapping[str, Sequence[int]] | None = None,
) -> float:
    """Mean per-anchor loss over a triplet set, dropout off, batched."""
    if not triplets:
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty triplet set")
    losses: list[float] = []
    for start in range(0, len(triplets), config.batch_size):
        chunk = triplets[start : start + config.batch_size]
        report = batch_loss(chunk, params, config, train_mode=False, token_ids=token_ids)
        losses.append(report.loss * len(chunk))
    return math.fsum(losses) / len(triplets)


def train(
    triplets: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    val_triplets: Sequence[Triplet] | None = None,
    out_dir: str | Path | None = None,
) -> tuple[EncoderParams, list[EpochReport]]:
    """Train in place over seeded epoch shuffles; returns per-epoch reports.

    Writes ``epoch-<n>.cemb`` checkpoints and a per-step JSONL log when
    ``out_dir`` is given. Bit-deterministic for fixed inputs and config.
    Each distinct text is tokenized once per run, and the gradient buffers
    and AdamW scratch are allocated once and reused by every step.
    """
    if not triplets:
        raise DataError("E_NO_TRAIN_DATA", "no training triplets")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    texts = ((t.anchor_text, t.positive_text, t.negative_text) for t in chain(triplets, val_triplets or ()))
    # Stored as int64 arrays: a third of the memory of lists of Python ints.
    token_ids = {text: array("q", params.tokenizer(text)) for text in dict.fromkeys(chain.from_iterable(texts))}
    # Fail before step 0, not when a batch holding the text is encoded.
    for i, (text, ids) in enumerate(token_ids.items()):
        if not ids:
            raise DataError("E_EMPTY_TOKENS", f"text {i} produced no tokens: {text!r}")
    state = init_optimizer_state(params, config.train_lora_only)
    buffers = gradient_buffers(params, config.train_lora_only)
    steps_per_epoch = math.ceil(len(triplets) / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    reports: list[EpochReport] = []
    log_rows: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 1, epoch]).permutation(len(triplets))
        epoch_losses: list[float] = []
        for batch_idx, chosen in enumerate(_epoch_batches(len(triplets), config.batch_size, perm)):
            batch = [triplets[i] for i in chosen]
            grads, report = infonce_gradient(
                batch, params, config, train_mode=True, seed=_role_seed(config.seed, 3 + step),
                token_ids=token_ids, out=buffers,
            )
            if not math.isfinite(report.loss):
                raise NumericError("E_NONFINITE_GRAD", f"non-finite loss at step {step}")
            lr = lr_at_step(step, total_steps, config)
            adamw_step(params, grads, state, lr, config)
            epoch_losses.append(report.loss * len(batch))
            log_rows.append({"step": step, "lr": lr, **vars(report)})
            step += 1
        mean_train = math.fsum(epoch_losses) / len(triplets)
        val_loss = evaluation_loss(val_triplets, params, config, token_ids=token_ids) if val_triplets else None
        if val_loss is not None and not math.isfinite(val_loss):
            raise NumericError("E_NONFINITE_GRAD", f"non-finite validation loss in epoch {epoch}")
        checkpoint = None
        if out_path is not None:
            checkpoint = str(out_path / f"epoch-{epoch + 1}.cemb")
            save_checkpoint(params, checkpoint)
        reports.append(EpochReport(epoch=epoch, mean_train_loss=mean_train, val_loss=val_loss, checkpoint=checkpoint))
    if out_path is not None:
        storage.write_jsonl(out_path / "train-log.jsonl", log_rows)
    return params, reports


def gradient_check(
    params: EncoderParams,
    batch: Sequence[Triplet],
    h: float = 1e-4,
    samples: int = 50,
    config: TrainConfig | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |g_a - g_fd| / max(|g_fd|, 1e-8),
    measured on ``samples`` randomly chosen coordinates of the trained
    tensors. Dropout masks are frozen by the seed, so the loss is a smooth
    deterministic function of the parameters.
    """
    if not 0.0 < h < math.inf:  # also false for NaN
        raise DataError("E_BAD_BATCH", f"h must be finite and > 0, got {h}")
    if samples < 1:
        raise DataError("E_BAD_SAMPLES", f"samples must be >= 1, got {samples}")
    if config is None:
        config = TrainConfig()
    grads, _ = infonce_gradient(batch, params, config, train_mode=True, seed=seed)

    names = list(params.trainable_names(config.train_lora_only))
    tensors = params.tensors
    sizes = np.array([tensors[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(sizes.sum())
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(total, size=min(samples, total), replace=False)

    max_rel = 0.0
    for flat_index in np.sort(picks):
        tensor_idx = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        name = names[tensor_idx]
        local = int(flat_index - offsets[tensor_idx])
        theta = tensors[name]
        original = theta.flat[local]
        theta.flat[local] = original + h
        loss_plus = batch_loss(batch, params, config, train_mode=True, seed=seed).loss
        theta.flat[local] = original - h
        loss_minus = batch_loss(batch, params, config, train_mode=True, seed=seed).loss
        theta.flat[local] = original
        fd = (loss_plus - loss_minus) / (2.0 * h)
        rel = abs(grads[name].flat[local] - fd) / max(abs(fd), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
