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

All arithmetic runs in double precision; checkpoints store float32.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

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
        if self.temperature <= 0.0:
            raise DataError("E_BAD_TEMPERATURE", f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise DataError("E_BAD_SCHEDULE", f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.batch_size < 2:
            raise DataError("E_BAD_BATCH", f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}")
        if self.epochs < 0:
            raise DataError("E_BAD_BATCH", f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise DataError("E_BAD_SEED", f"seed must be nonnegative, got {self.seed}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0 and self.eps > 0.0):
            raise DataError(
                "E_BAD_OPTIMIZER",
                f"beta1 and beta2 must be in [0, 1) and eps > 0, got {self.beta1}, {self.beta2}, {self.eps}",
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OptimizerState:
    """AdamW first and second moments plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


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


def _logits_matrix(anchors: np.ndarray, positives: np.ndarray, negatives: np.ndarray, tau: float) -> np.ndarray:
    # Column j < n is s(a_i, p_j); the last column is s(a_i, n_i). Row i's
    # denominator is the sum over all columns, its target is column i.
    pos_logits = anchors @ positives.T
    neg_logits = (anchors * negatives).sum(axis=1, keepdims=True)
    return np.concatenate([pos_logits, neg_logits], axis=1) / tau


def _per_anchor_losses(logits: np.ndarray) -> np.ndarray:
    n = logits.shape[0]
    rows = np.arange(n)
    target = logits[rows, rows]
    argmax = logits.argmax(axis=1)
    max_logit = logits[rows, argmax]
    # One max column is excluded from the residual rather than subtracting
    # its exp(0) = 1 afterwards; that subtraction would cancel away the low
    # bits of tiny residuals and spoil near-zero losses.
    shifted_exp = np.exp(logits - max_logit[:, None])
    shifted_exp[rows, argmax] = 0.0
    return (max_logit - target) + np.log1p(shifted_exp.sum(axis=1))


def _loss_stats(logits: np.ndarray, tau: float) -> tuple[float, float, float]:
    """Mean loss, mean positive similarity and mean negative similarity."""
    batch = logits.shape[0]
    rows = np.arange(batch)
    loss = math.fsum(_per_anchor_losses(logits)) / batch
    return loss, float(np.mean(logits[rows, rows])) * tau, float(np.mean(logits[:, batch])) * tau


def _as_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    return np.asarray(vectors, dtype=np.float64)


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
    if tau <= 0.0:
        raise DataError("E_BAD_TEMPERATURE", f"temperature must be > 0, got {tau}")
    a, p, n = _as_matrix(anchors), _as_matrix(positives), _as_matrix(negatives)
    return _loss_stats(_logits_matrix(a, p, n, tau), tau)[0]


def _loss_and_embedding_grads(
    a: np.ndarray, p: np.ndarray, n: np.ndarray, tau: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Loss plus gradients with respect to the normalized embeddings."""
    batch = a.shape[0]
    logits = _logits_matrix(a, p, n, tau)
    loss, mean_pos, mean_neg = _loss_stats(logits, tau)

    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    delta = probs.copy()
    delta[np.arange(batch), np.arange(batch)] -= 1.0
    delta /= tau * batch

    d_pos = delta[:, :batch]
    d_neg = delta[:, batch]
    grad_a = d_pos @ p + d_neg[:, None] * n
    grad_p = d_pos.T @ a
    grad_n = d_neg[:, None] * a
    return loss, grad_a, grad_p, grad_n, mean_pos, mean_neg


def _role_seed(seed: int, role: int) -> int:
    # Fixed stream splitting: one dropout stream per encode role.
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def _encode_roles(
    batch: Sequence[Triplet], params: EncoderParams, train_mode: bool, seed: int
) -> list[tuple[np.ndarray, EncodeCache]]:
    """Forward the anchor, positive and negative texts, in that order."""
    roles = ([t.anchor_text for t in batch], [t.positive_text for t in batch], [t.negative_text for t in batch])
    return [forward_batch(texts, params, train_mode, _role_seed(seed, role)) for role, texts in enumerate(roles)]


def batch_loss(
    batch: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
) -> BatchLossReport:
    """Forward-only loss evaluation (used by validation and gradient checks)."""
    if not batch:
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty batch")
    (a, _), (p, _), (n, _) = _encode_roles(batch, params, train_mode, seed)
    loss, mean_pos, mean_neg = _loss_stats(_logits_matrix(a, p, n, config.temperature), config.temperature)
    return BatchLossReport(loss=loss, mean_pos_sim=mean_pos, mean_neg_sim=mean_neg)


def infonce_gradient(
    batch: Sequence[Triplet],
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
) -> tuple[dict[str, np.ndarray], BatchLossReport]:
    """Exact analytic gradient of the batch loss for every trained tensor."""
    if not batch:
        raise DataError("E_EMPTY_BATCH", "cannot take gradients of an empty batch")
    roles = _encode_roles(batch, params, train_mode, seed)
    (a, _), (p, _), (n, _) = roles
    loss, grad_a, grad_p, grad_n, mean_pos, mean_neg = _loss_and_embedding_grads(a, p, n, config.temperature)

    lora_only = config.train_lora_only
    grads = {name: np.zeros_like(params.tensors[name]) for name in params.trainable_names(lora_only)}
    for (_, cache), grad in zip(roles, (grad_a, grad_p, grad_n)):
        backward_batch(grad, cache, params, grads, lora_only)

    grad_norm = math.sqrt(math.fsum(float(np.sum(g * g)) for g in grads.values()))
    return grads, BatchLossReport(loss=loss, mean_pos_sim=mean_pos, mean_neg_sim=mean_neg, grad_norm=grad_norm)


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
    """One decoupled-weight-decay Adam update, in place."""
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
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * grad
        v *= config.beta2
        v += (1.0 - config.beta2) * grad * grad
        theta = tensors[name]
        theta -= lr * ((m / correction1) / (np.sqrt(v / correction2) + config.eps) + config.weight_decay * theta)
    return params, state


def _epoch_batches(n: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    return [perm[start : start + batch_size] for start in range(0, n, batch_size)]


def evaluation_loss(triplets: Sequence[Triplet], params: EncoderParams, config: TrainConfig) -> float:
    """Mean per-anchor loss over a triplet set, dropout off, batched."""
    if not triplets:
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty triplet set")
    losses: list[float] = []
    for start in range(0, len(triplets), config.batch_size):
        chunk = triplets[start : start + config.batch_size]
        report = batch_loss(chunk, params, config, train_mode=False)
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
    """
    if not triplets:
        raise DataError("E_NO_TRAIN_DATA", "no training triplets")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    state = init_optimizer_state(params, config.train_lora_only)
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
                batch, params, config, train_mode=True, seed=_role_seed(config.seed, 3 + step)
            )
            if not math.isfinite(report.loss):
                raise NumericError("E_NONFINITE_GRAD", f"non-finite loss at step {step}")
            lr = lr_at_step(step, total_steps, config)
            adamw_step(params, grads, state, lr, config)
            epoch_losses.append(report.loss * len(batch))
            log_rows.append({"step": step, "lr": lr, **vars(report)})
            step += 1
        mean_train = math.fsum(epoch_losses) / len(triplets)
        val_loss = evaluation_loss(val_triplets, params, config) if val_triplets else None
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
    if h <= 0.0:
        raise DataError("E_BAD_BATCH", f"h must be > 0, got {h}")
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
