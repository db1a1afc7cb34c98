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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import storage
from .encoder import (
    EncodeCache, EncoderParams, Tokenizer, TokenStore, backward_batch, forward_batch, pooled_ids, save_checkpoint,
    token_store,
)
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
    """AdamW first and second moments plus the step counter, and the
    working memory that every step of a run reuses but no step reads from another.

    ``grads`` is one float64 gradient buffer per trained tensor, row-major
    whatever the tensor's layout, because the ``E`` scatter writes through a
    flat view. ``scratch`` is two flat float64 buffers for AdamW's
    temporaries, a chunk of rows at a time.

    ``live_rows`` maps a tensor name to R: the sorted, distinct rows of
    that tensor that can get a nonzero gradient. The caller promises that
    every other row's gradient is zero at every step. Those rows' moments
    then stay zero, so a tensor with R keeps only R's moments: ``m`` and
    ``v`` hold ``len(R)`` rows, in R's order. Outside R the full update
    reduces exactly to ``theta -= (0.0 + wd * theta) * lr``, and
    ``adamw_step`` applies that cheap form there. The ``0.0 +`` turns a
    -0.0 product into +0.0, as the full update does. This is not lazy Adam:
    every row still gets its decoupled weight decay at every step, so the
    results are the same bits. A tensor not named here keeps full moments
    and gets the full update on every row. ``init_optimizer_state`` builds
    the moments, ``grads`` and ``scratch`` to match R; ``train`` sets R for
    ``E``, from the ids that train texts pool.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    live_rows: dict[str, np.ndarray] = field(repr=False, compare=False, default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A chunk is whole rows: _ADAMW_CHUNK elements' worth, or one row if a row is longer.
        size = max([_ADAMW_CHUNK, *(math.prod(m.shape[1:]) for m in self.m.values())])
        self.scratch = (np.empty(size), np.empty(size))


def init_optimizer_state(
    params: EncoderParams, lora_only: bool = False, live_rows: Mapping[str, np.ndarray] | None = None
) -> OptimizerState:
    """Zero moments for every trained tensor, ``len(R)`` rows for a tensor with rows R
    in ``live_rows`` and full-size for the others, the zeroed ``grads`` and the ``scratch`` to match."""
    live_rows = dict(live_rows or {})
    # np.zeros, unlike zeros_like, writes no page of a large buffer: E's stays untouched outside R's rows.
    grads = {n: np.zeros(params.tensors[n].shape) for n in params.trainable_names(lora_only)}
    shapes = {n: (len(live_rows[n]), *g.shape[1:]) if n in live_rows else g.shape for n, g in grads.items()}
    return OptimizerState(
        m={n: np.zeros(shape) for n, shape in shapes.items()},
        v={n: np.zeros(shape) for n, shape in shapes.items()},
        live_rows=live_rows,
        grads=grads,
    )


@dataclass
class BatchLossReport:
    # Fields are declared in train-log row order, after step and lr and before grad_norm.
    loss: float
    mean_pos_sim: float
    mean_neg_sim: float


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


def index_triplets(
    triplet_sets: Sequence[Sequence[Triplet]], tokenizer: Tokenizer
) -> tuple[TokenStore, list[np.ndarray]]:
    """One ``TokenStore`` over the distinct texts of every set, and each set's (n, 3)
    rows into it: a triplet's anchor, positive and negative text, in that order.

    Texts are numbered as first met, set by set, so each is tokenized once and an
    E_EMPTY_TOKENS text index counts the distinct texts before it."""
    row_of: dict[str, int] = {}
    sets = [
        np.fromiter(
            (row_of.setdefault(text, len(row_of)) for t in triplets
             for text in (t.anchor_text, t.positive_text, t.negative_text)),
            dtype=np.intp, count=3 * len(triplets),
        ).reshape(-1, 3)
        for triplets in triplet_sets
    ]
    return token_store(row_of, tokenizer), sets


def _encode_roles(
    rows: np.ndarray, store: TokenStore, params: EncoderParams, train_mode: bool, seed: int
) -> list[tuple[np.ndarray, EncodeCache]]:
    """Forward the anchor, positive and negative rows, in that order."""
    return [forward_batch(rows[:, role], store, params, train_mode, _role_seed(seed, role)) for role in range(3)]


def batch_loss(
    rows: np.ndarray,
    store: TokenStore,
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
) -> BatchLossReport:
    """Forward-only loss of a batch of (n, 3) triplet rows into ``store`` (used by
    validation and gradient checks)."""
    if not len(rows):
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty batch")
    (a, _), (p, _), (n, _) = _encode_roles(rows, store, params, train_mode, seed)
    return _infonce(a, p, n, config.temperature)[0]


def infonce_gradient(
    rows: np.ndarray,
    store: TokenStore,
    params: EncoderParams,
    config: TrainConfig,
    train_mode: bool = True,
    seed: int = 0,
    *,
    out: OptimizerState | None = None,
) -> tuple[dict[str, np.ndarray], BatchLossReport]:
    """Exact analytic gradient of the loss of a batch of (n, 3) triplet rows into
    ``store``, for every trained tensor.

    ``out.grads``, or a fresh ``init_optimizer_state``'s without ``out``, is
    zeroed, filled and returned. A buffer with rows R in ``out.live_rows`` is
    zeroed on R only, since the batch's gradient reaches no other row and they
    are still zero.
    """
    if not len(rows):
        raise DataError("E_EMPTY_BATCH", "cannot take gradients of an empty batch")
    state = out if out is not None else init_optimizer_state(params, config.train_lora_only)
    stray = sorted(set(state.grads).symmetric_difference(params.trainable_names(config.train_lora_only)))
    if stray:
        raise DataError("E_SHAPE_MISMATCH", f"gradient buffers do not match the trained tensors at {stray[0]!r}")
    roles = _encode_roles(rows, store, params, train_mode, seed)
    (a, _), (p, _), (n, _) = roles
    report, grad_sims = _infonce(a, p, n, config.temperature)

    grads = state.grads
    for name, g in grads.items():
        g[state.live_rows.get(name, ...)] = 0.0
    # Chain rule through the sims: d_pos[i, j] = dL/d(a_i . p_j), d_neg[i] = dL/d(a_i . n_i).
    d_pos, d_neg = grad_sims[:, :-1], grad_sims[:, -1:]
    for (_, cache), grad in zip(roles, (d_pos @ p + d_neg * n, d_pos.T @ a, d_neg * a)):
        backward_batch(grad, cache, params, grads)
    return grads, report


def _grad_norm(grads: Mapping[str, np.ndarray], live_rows: Mapping[str, np.ndarray]) -> float:
    """The 2-norm of ``grads``: each buffer's rows R in ``live_rows`` (every row of a
    tensor without R) squared and summed, the buffers' sums added into one float.

    Rows outside R hold no gradient, so leaving them out changes no value. ``grads`` is only read."""
    sums = []
    for name, g in grads.items():
        if name in live_rows:
            block = g[live_rows[name]]  # a copy, so it takes its own squares
            sums.append(float(np.square(block, out=block).sum()))
        else:
            sums.append(float(np.square(g).sum()))
    return math.sqrt(math.fsum(sums))


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


def _full_update(
    g: np.ndarray, m: np.ndarray, v: np.ndarray, theta: np.ndarray, scratch: tuple[np.ndarray, np.ndarray],
    correction1: float, correction2: float, lr: float, config: TrainConfig,
) -> None:
    """The AdamW update of a block of rows, in place, with its temporaries in ``scratch``."""
    x, y = (buf[: g.size].reshape(g.shape) for buf in scratch)
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


def _row_chunks(*arrays: np.ndarray):
    """Equal slices of rows of ``arrays``, about ``_ADAMW_CHUNK`` values each, or one row if a row is longer."""
    rows = max(1, _ADAMW_CHUNK // math.prod(arrays[0].shape[1:]))
    for lo in range(0, len(arrays[0]), rows):
        # Slices along the first axis are views, whatever the strides, so the updates land in place.
        yield [t[lo : lo + rows] for t in arrays]


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
    is elementwise, so the chunks change no bit. A tensor's rows are read as
    ``grad[rows]`` and ``theta[rows]``, ``rows`` its R in ``state.live_rows``
    or every row, so only R's gradient rows are checked. With R, R's gathered
    rows get the full update with the compact moments, every row the cheap
    update of a row with g = m = v = 0, and R's are scattered back once.
    ``grads`` is only read.
    """
    tensors = params.tensors
    blocks = {}
    for name, grad in grads.items():
        if name not in state.m:
            raise DataError("E_SHAPE_MISMATCH", f"gradient for untracked tensor {name!r}")
        if grad.shape != tensors[name].shape:
            raise DataError("E_SHAPE_MISMATCH", f"{name}: gradient {grad.shape} vs parameter {tensors[name].shape}")
        g = grad[state.live_rows.get(name, ...)]
        if g.shape != state.m[name].shape:
            raise DataError("E_SHAPE_MISMATCH", f"{name}: gradient rows {g.shape} vs moments {state.m[name].shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError("E_NONFINITE_GRAD", f"non-finite gradient in {name}")
        blocks[name] = g
    state.t += 1
    correction1 = 1.0 - config.beta1**state.t
    correction2 = 1.0 - config.beta2**state.t
    for name, g in blocks.items():
        theta = tensors[name]
        rows = state.live_rows.get(name, ...)
        block = theta[rows]  # a view of every row, or a copy of R's
        for chunk in _row_chunks(g, state.m[name], state.v[name], block):
            _full_update(*chunk, state.scratch, correction1, correction2, lr, config)
        if name in state.live_rows:
            # A row outside R has g = m = v = 0, where the full update reduces exactly to this.
            for (chunk,) in _row_chunks(theta):
                x = state.scratch[0][: chunk.size].reshape(chunk.shape)
                np.add(0.0, np.multiply(config.weight_decay, chunk, out=x), out=x)
                x *= lr
                chunk -= x
            theta[rows] = block
    return params, state


def _epoch_batches(n: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    return [perm[start : start + batch_size] for start in range(0, n, batch_size)]


def evaluation_loss(rows: np.ndarray, store: TokenStore, params: EncoderParams, config: TrainConfig) -> float:
    """Mean per-anchor loss over (n, 3) triplet rows into ``store``, dropout off, batched."""
    if not len(rows):
        raise DataError("E_EMPTY_BATCH", "cannot evaluate an empty triplet set")
    losses: list[float] = []
    for start in range(0, len(rows), config.batch_size):
        chunk = rows[start : start + config.batch_size]
        report = batch_loss(chunk, store, params, config, train_mode=False)
        losses.append(report.loss * len(chunk))
    return math.fsum(losses) / len(rows)


def train(
    rows: np.ndarray,
    store: TokenStore,
    params: EncoderParams,
    config: TrainConfig,
    val_rows: np.ndarray | None = None,
    out_dir: str | Path | None = None,
) -> tuple[EncoderParams, list[EpochReport]]:
    """Train in place over seeded epoch shuffles of the (n, 3) triplet ``rows`` into
    ``store`` (see ``index_triplets``), validating on ``val_rows``; returns per-epoch reports.

    Writes ``epoch-<n>.cemb`` checkpoints and a per-step JSONL log when
    ``out_dir`` is given. Bit-deterministic for fixed inputs and config.
    One state from ``init_optimizer_state`` holds the buffers every step
    reuses. Unless only the adapters train, each step zeroes and checks only
    the ``E`` rows that train texts pool, and AdamW keeps moments for and
    gives the full update to only those rows (``OptimizerState.live_rows``),
    and the logged ``grad_norm`` reads only those rows.
    """
    if not len(rows):
        raise DataError("E_NO_TRAIN_DATA", "no training triplets")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. a regular file at out_dir or above it
            raise DataError("E_IO", f"cannot create directory {out_path}: {exc}") from exc
    live_rows = {}
    if not config.train_lora_only:
        # R: the E rows that train texts pool, marked in a mask, which sorts no copy of every
        # pooled id. Validation takes no gradient, so its texts stay out.
        pooled = np.zeros(len(params.tensors["E"]), dtype=bool)
        pooled[pooled_ids(np.unique(rows), store, params)[0]] = True
        live_rows["E"] = np.flatnonzero(pooled)
    state = init_optimizer_state(params, config.train_lora_only, live_rows)
    steps_per_epoch = math.ceil(len(rows) / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    reports: list[EpochReport] = []
    log_rows: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 1, epoch]).permutation(len(rows))
        epoch_losses: list[float] = []
        for batch in _epoch_batches(len(rows), config.batch_size, perm):
            grads, report = infonce_gradient(
                rows[batch], store, params, config, train_mode=True, seed=_role_seed(config.seed, 3 + step), out=state,
            )
            if not math.isfinite(report.loss):
                raise NumericError("E_NONFINITE_GRAD", f"non-finite loss at step {step}")
            lr = lr_at_step(step, total_steps, config)
            adamw_step(params, grads, state, lr, config)
            epoch_losses.append(report.loss * len(batch))
            log_rows.append({"step": step, "lr": lr, **vars(report), "grad_norm": _grad_norm(grads, state.live_rows)})
            step += 1
        mean_train = math.fsum(epoch_losses) / len(rows)
        val_loss = evaluation_loss(val_rows, store, params, config) if val_rows is not None and len(val_rows) else None
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
    store, (rows,) = index_triplets([batch], params.tokenizer)
    grads, _ = infonce_gradient(rows, store, params, config, train_mode=True, seed=seed)

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
        loss_plus = batch_loss(rows, store, params, config, train_mode=True, seed=seed).loss
        theta.flat[local] = original - h
        loss_minus = batch_loss(rows, store, params, config, train_mode=True, seed=seed).loss
        theta.flat[local] = original
        fd = (loss_plus - loss_minus) / (2.0 * h)
        analytic = grads[name].flat[local]
        rel = abs(analytic - fd) / max(abs(fd), 1e-8)
        # max() would keep the old value past a NaN, so a coordinate that cannot be measured is an error.
        if not math.isfinite(rel):
            raise NumericError("E_NONFINITE_GRAD", f"{name}[{local}] cannot be measured: losses {loss_plus} at +h "
                               f"and {loss_minus} at -h (h={h}), analytic gradient {analytic}")
        max_rel = max(max_rel, rel)
    return max_rel
