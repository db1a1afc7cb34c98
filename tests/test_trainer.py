"""Trainer: loss values, gradients vs finite differences, AdamW, schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.encoder import TENSOR_NAMES, init_params
from minembed.errors import DataError, NumericError
from minembed.trainer import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_loss,
    evaluation_loss,
    gradient_buffers,
    gradient_check,
    infonce_gradient,
    infonce_loss,
    init_optimizer_state,
    lr_at_step,
    train,
)
from minembed.trainer import _infonce
from minembed.triplets import Triplet

from conftest import role_gradients, two_cluster_records


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_batch(n: int, seed: int = 0) -> list[Triplet]:
    rng = np.random.default_rng(seed)
    words = ["apex", "basal", "mitral", "aortic", "septal", "distal", "lateral", "inferior"]
    out = []
    for i in range(n):
        pick = lambda: " ".join(rng.choice(words, size=4))
        out.append(Triplet(f"a{i}", pick(), pick(), f"n{i}", pick(), "train"))
    return out


def small_config(**kw) -> TrainConfig:
    base = dict(batch_size=4, epochs=2, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# -- loss closed forms ----------------------------------------------------------


def test_loss_equal_logits_ln2():
    # Single anchor, positive and negative equally similar: two equal logits.
    a = unit([1.0, 0.0])
    p = unit([0.0, 1.0])
    n = unit([0.0, 1.0])
    assert infonce_loss([a], [p], [n], tau=0.05) == pytest.approx(math.log(2.0), abs=1e-9)


def test_loss_three_equal_logits_ln3():
    # Two anchors with all pairwise sims equal to 1: three equal logits per
    # anchor (own positive, own negative, one in-batch positive).
    v = unit([1.0, 1.0])
    loss = infonce_loss([v, v], [v, v], [v, v], tau=0.05)
    assert loss == pytest.approx(math.log(3.0), abs=1e-9)


def test_loss_separated_sims_tiny_value():
    # s(a,p) = 0.9, s(a,n) = 0.1 at tau = 0.05: logits 18 and 2.
    # High-precision scalar oracle for the expected value.
    import mpmath

    mpmath.mp.dps = 50
    expected = float(mpmath.log(1 + mpmath.e**-16))
    a = np.array([1.0, 0.0])
    p = np.array([0.9, math.sqrt(1 - 0.81)])
    n = np.array([0.1, math.sqrt(1 - 0.01)])
    assert abs(np.dot(a, p) - 0.9) < 1e-12 and abs(np.dot(a, n) - 0.1) < 1e-12
    loss = infonce_loss([a], [p], [n], tau=0.05)
    assert abs(loss - expected) / expected <= 1e-12


def test_loss_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = [unit(rng.normal(size=5)) for _ in range(n)]
        p = [unit(rng.normal(size=5)) for _ in range(n)]
        nn = [unit(rng.normal(size=5)) for _ in range(n)]
        assert infonce_loss(a, p, nn, tau=0.1) >= 0.0


def test_loss_validations():
    v = unit([1.0, 0.0])
    with pytest.raises(DataError) as err:
        infonce_loss([v], [v, v], [v], tau=0.1)
    assert err.value.code == "E_LENGTH_MISMATCH"
    for tau in (0.0, math.nan, math.inf):
        with pytest.raises(DataError) as err:
            infonce_loss([v], [v], [v], tau=tau)
        assert err.value.code == "E_BAD_TEMPERATURE", tau
    with pytest.raises(DataError):
        infonce_loss([], [], [], tau=0.1)


@pytest.mark.parametrize("anchors, positives, negatives", [
    ([np.ones(2)], [np.ones(3)], [np.ones(2)]),  # widths differ across roles
    ([np.ones(2), np.ones(3)], [np.ones(2)] * 2, [np.ones(2)] * 2),  # and within one
    ([1.0], [1.0], [1.0]),  # scalars, not vectors
])
def test_loss_rejects_inputs_that_are_not_vectors_of_one_width(anchors, positives, negatives):
    with pytest.raises(DataError) as err:
        infonce_loss(anchors, positives, negatives, tau=0.1)
    assert err.value.code == "E_SHAPE_MISMATCH"


def test_loss_permutation_invariant():
    rng = np.random.default_rng(17)
    n = 12
    a = np.array([unit(rng.normal(size=6)) for _ in range(n)])
    p = np.array([unit(rng.normal(size=6)) for _ in range(n)])
    nn = np.array([unit(rng.normal(size=6)) for _ in range(n)])
    base = infonce_loss(list(a), list(p), list(nn), tau=0.05)
    for _ in range(5):
        perm = rng.permutation(n)
        shuffled = infonce_loss(list(a[perm]), list(p[perm]), list(nn[perm]), tau=0.05)
        assert abs(shuffled - base) <= 1e-9


def test_temperature_monotonicity():
    # Separated fixed sims: the positive dominates, so sharpening the
    # softmax (smaller tau) strictly lowers the loss.
    a = np.array([1.0, 0.0])
    p = np.array([0.9, math.sqrt(1 - 0.81)])
    n = np.array([0.1, math.sqrt(1 - 0.01)])
    losses = [infonce_loss([a], [p], [n], tau=t) for t in (0.5, 0.1, 0.05)]
    assert losses[0] > losses[1] > losses[2]


def test_overflow_safety_extreme_sims(monkeypatch):
    # Cosines of +-1 at tau = 0.05 puts logits at +-20.
    e = np.array([1.0, 0.0])
    for dtype in (np.float32, np.float64):
        a = np.array([e, e], dtype=dtype)
        p = np.array([e, e], dtype=dtype)
        n = np.array([-e, -e], dtype=dtype)
        report, grad_sims = _infonce(a, p, n, 0.05)
        assert grad_sims.dtype == dtype
        # The mean similarities are the mean logits times tau.
        assert report.mean_pos_sim / 0.05 == 20.0 and report.mean_neg_sim / 0.05 == -20.0
        assert math.isfinite(report.loss) and np.all(np.isfinite(grad_sims))
        _, grads = role_gradients(monkeypatch, a, p, n, 0.05)
        for g in grads:
            assert g.dtype == dtype and np.all(np.isfinite(g))


# The two-softmax helpers that _infonce replaced, kept to pin its bytes.
def _reference_logits(anchors, positives, negatives, tau):
    pos_logits = anchors @ positives.T
    neg_logits = (anchors * negatives).sum(axis=1, keepdims=True)
    return np.concatenate([pos_logits, neg_logits], axis=1) / tau


def _reference_per_anchor_losses(logits):
    rows = np.arange(logits.shape[0])
    target = logits[rows, rows]
    argmax = logits.argmax(axis=1)
    max_logit = logits[rows, argmax]
    shifted_exp = np.exp(logits - max_logit[:, None])
    shifted_exp[rows, argmax] = 0.0
    return (max_logit - target) + np.log1p(shifted_exp.sum(axis=1))


def _reference_loss_and_grads(a, p, n, tau):
    batch = a.shape[0]
    rows = np.arange(batch)
    logits = _reference_logits(a, p, n, tau)
    loss = math.fsum(_reference_per_anchor_losses(logits)) / batch
    mean_pos, mean_neg = float(np.mean(logits[rows, rows])) * tau, float(np.mean(logits[:, batch])) * tau
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta = shifted / shifted.sum(axis=1, keepdims=True)
    delta[rows, rows] -= 1.0
    delta /= tau * batch
    d_pos, d_neg = delta[:, :batch], delta[:, batch]
    grads = (d_pos @ p + d_neg[:, None] * n, d_pos.T @ a, d_neg[:, None] * a)
    return (loss, mean_pos, mean_neg), grads


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_infonce_core_matches_reference(monkeypatch):
    rng = np.random.default_rng(23)
    for trial in range(300):
        batch, dim = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        dtype = (np.float32, np.float64)[trial % 2]
        tau = float(rng.choice([0.01, 0.05, 0.1, 1.0]))
        if trial % 3 == 0:
            # Saturated: every cosine is exactly +1 or -1, with tied maxima.
            e = np.eye(dim)[0]
            a, p, n = (np.where(rng.random((batch, 1)) < 0.5, e, -e) for _ in range(3))
        else:
            a, p, n = (rng.normal(size=(batch, dim)) for _ in range(3))
            a, p, n = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (a, p, n))
        a, p, n = (v.astype(dtype) for v in (a, p, n))
        (loss, mean_pos, mean_neg), reference_grads = _reference_loss_and_grads(a, p, n, tau)
        report, grads = role_gradients(monkeypatch, a, p, n, tau)
        assert _same_bits(report.loss, loss), trial
        assert _same_bits(report.mean_pos_sim, mean_pos) and _same_bits(report.mean_neg_sim, mean_neg), trial
        assert all(_same_bits(g, r) for g, r in zip(grads, reference_grads, strict=True)), trial
        as_float64 = [v.astype(np.float64) for v in (a, p, n)]
        reference_loss = math.fsum(_reference_per_anchor_losses(_reference_logits(*as_float64, tau))) / batch
        assert _same_bits(infonce_loss(*(list(v) for v in as_float64), tau=tau), reference_loss), trial


# -- gradient vs finite differences -----------------------------------------------


def finite_difference_probe(params, batch, config, name, index, h=1e-6, seed=0):
    tensor = params.tensors[name]
    original = tensor.flat[index]
    tensor.flat[index] = original + h
    up = batch_loss(batch, params, config, train_mode=True, seed=seed).loss
    tensor.flat[index] = original - h
    down = batch_loss(batch, params, config, train_mode=True, seed=seed).loss
    tensor.flat[index] = original
    return (up - down) / (2 * h)


def test_gradient_matches_finite_differences(small_params):
    batch = make_batch(4, seed=1)
    config = small_config()
    grads, report = infonce_gradient(batch, small_params, config, train_mode=True, seed=5)
    assert math.isfinite(report.loss) and report.loss >= 0.0
    rng = np.random.default_rng(2)
    for name in ("E", "W1", "b1", "W2", "b2", "lora_A1", "lora_B1", "lora_A2", "lora_B2"):
        tensor = small_params.tensors[name]
        candidates = np.flatnonzero(np.abs(grads[name]) > 1e-12)
        picks = rng.choice(candidates if candidates.size else tensor.size, size=3, replace=False)
        for index in picks:
            fd = finite_difference_probe(small_params, batch, config, name, int(index), seed=5)
            rel = abs(grads[name].flat[int(index)] - fd) / max(abs(fd), 1e-8)
            assert rel <= 1e-4, f"{name}[{index}]: analytic {grads[name].flat[int(index)]}, fd {fd}"


def test_gradient_check_healthy(small_params):
    batch = make_batch(4, seed=3)
    for lora_only in (False, True):
        config = small_config(train_lora_only=lora_only)
        err = gradient_check(small_params, batch, h=1e-4, samples=50, config=config, seed=4)
        assert err <= 1e-4, f"lora_only={lora_only}: {err}"


def test_gradient_check_rejects_a_step_that_is_not_finite_and_positive(small_params):
    for h in (math.nan, math.inf, 0.0, -1e-4):
        with pytest.raises(DataError) as err:
            gradient_check(small_params, make_batch(2, seed=3), h=h, samples=2, config=small_config())
        assert err.value.code == "E_BAD_BATCH", h


def test_gradient_check_rejects_samples_below_one(small_params, monkeypatch):
    # Rejected before any gradient is taken: 0 used to check nothing and report 0.0.
    import minembed.trainer as trainer_mod

    monkeypatch.setattr(trainer_mod, "infonce_gradient", lambda *args, **kwargs: pytest.fail("gradient taken"))
    for samples in (0, -1):
        with pytest.raises(DataError) as err:
            gradient_check(small_params, make_batch(2, seed=3), samples=samples, config=small_config())
        assert err.value.code == "E_BAD_SAMPLES" and f"got {samples}" in str(err.value)


def test_finite_difference_error_curve_u_shaped(small_params):
    # Truncation error dominates for large h, roundoff for tiny h; the
    # curve bottoms out in between.
    batch = make_batch(4, seed=3)
    config = small_config()
    errors = [
        gradient_check(small_params, batch, h=h, samples=40, config=config, seed=4)
        for h in (1e-2, 1e-4, 1e-6, 1e-9)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[3] > errors[2]


def test_gradient_check_detects_corruption(small_params):
    """Doubling one tensor's gradient must push the reported error past 0.1."""
    import minembed.trainer as trainer_mod

    batch = make_batch(4, seed=3)
    config = small_config()
    original = trainer_mod.infonce_gradient

    def corrupted(batch_, params_, config_, train_mode=True, seed=0):
        grads, report = original(batch_, params_, config_, train_mode=train_mode, seed=seed)
        grads["W2"] = grads["W2"] * 2.0
        return grads, report

    trainer_mod.infonce_gradient = corrupted
    try:
        err = trainer_mod.gradient_check(small_params, batch, h=1e-4, samples=200, config=config, seed=4)
    finally:
        trainer_mod.infonce_gradient = original
    assert err > 0.1


def test_gradient_structure_at_b_zero(small_params):
    # With B = 0 the chain rule sends no gradient to A but does to B.
    batch = make_batch(4, seed=6)
    grads, _ = infonce_gradient(batch, small_params, small_config(), train_mode=False)
    assert np.max(np.abs(grads["lora_A1"])) == 0.0
    assert np.max(np.abs(grads["lora_A2"])) == 0.0
    assert np.max(np.abs(grads["lora_B1"])) > 0.0
    assert np.max(np.abs(grads["lora_B2"])) > 0.0


def test_gradient_does_not_depend_on_the_layout_of_e(small_params):
    # A column-major E once got zeros_like buffers of its layout, whose flat view
    # was a copy, so the E scatter was lost and E's gradient came back zero.
    batch = make_batch(4, seed=6)
    row_major, _ = infonce_gradient(batch, small_params, small_config(), train_mode=False)
    small_params.tensors["E"] = np.asfortranarray(small_params.tensors["E"])
    column_major, _ = infonce_gradient(batch, small_params, small_config(), train_mode=False)
    assert np.any(row_major["E"] != 0.0)
    assert all(_same_bits(row_major[n], column_major[n]) for n in row_major)


def test_gradient_lora_only_restricts_tensors(small_params):
    batch = make_batch(3, seed=7)
    grads, _ = infonce_gradient(batch, small_params, small_config(train_lora_only=True))
    assert set(grads) == {"lora_A1", "lora_B1", "lora_A2", "lora_B2"}


def test_duplicated_triplet_finite(small_params):
    t = make_batch(1, seed=8)[0]
    duplicated = Triplet(t.anchor_id, t.anchor_text, t.anchor_text + " extra", t.negative_id, t.anchor_text, "train")
    grads, report = infonce_gradient([duplicated, duplicated], small_params, small_config(), train_mode=False)
    assert math.isfinite(report.loss)
    for g in grads.values():
        assert np.all(np.isfinite(g))


def test_empty_batch_rejected(small_params):
    with pytest.raises(DataError) as err:
        infonce_gradient([], small_params, small_config())
    assert err.value.code == "E_EMPTY_BATCH"


# -- learning-rate schedule -------------------------------------------------------


def test_schedule_peak_at_warmup_end():
    config = TrainConfig()
    total = 100
    warmup = math.ceil(0.1 * total)
    assert lr_at_step(warmup, total, config) == config.peak_lr == 2e-4


def test_schedule_ends_at_min_lr():
    config = TrainConfig(min_lr=1e-6)
    assert lr_at_step(100, 100, config) == config.min_lr


def test_schedule_midpoint():
    config = TrainConfig(min_lr=2e-5)
    total = 100
    warmup = math.ceil(0.1 * total)
    assert (total - warmup) % 2 == 0
    mid = warmup + (total - warmup) // 2
    assert abs(lr_at_step(mid, total, config) - (config.peak_lr + config.min_lr) / 2) <= 1e-12


def test_schedule_warmup_is_linear():
    config = TrainConfig()
    total = 100
    warmup = math.ceil(0.1 * total)
    for step in range(warmup):
        assert lr_at_step(step, total, config) == pytest.approx(config.peak_lr * (step + 1) / warmup)


def test_schedule_continuous_at_warmup_end():
    config = TrainConfig()
    for total in (10, 37, 100, 1000):
        warmup = min(math.ceil(0.1 * total), total - 1)
        if warmup < 1:
            continue
        jump = abs(lr_at_step(warmup, total, config) - lr_at_step(warmup - 1, total, config))
        assert jump <= config.peak_lr / warmup + 1e-12


def test_schedule_degenerate_span_guarded():
    # warmup_frac close to 1 would make the cosine span empty; the warmup
    # cap keeps at least one cosine step.
    config = TrainConfig(warmup_frac=0.99)
    assert lr_at_step(1, 1, config) == config.min_lr
    value = lr_at_step(0, 1, config)
    assert math.isfinite(value)


def test_schedule_monotone_decay_after_warmup():
    config = TrainConfig()
    total = 50
    warmup = math.ceil(0.1 * total)
    values = [lr_at_step(s, total, config) for s in range(warmup, total + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_bad_inputs():
    config = TrainConfig()
    with pytest.raises(DataError):
        lr_at_step(5, 0, config)
    with pytest.raises(DataError):
        lr_at_step(11, 10, config)


# -- AdamW -------------------------------------------------------------------------


def hand_adamw_single_step(theta, grad, lr, beta1, beta2, eps, wd):
    """Single-step oracle computed directly from the update rule."""
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return theta - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta)


def one_tensor_setup(value: float):
    params = init_params(0, vocab_size=4, d_emb=2, d_hid=2, d_out=2, lora_rank=1)
    for t in params.tensors.values():
        t[:] = value
    state = init_optimizer_state(params)
    return params, state


def test_adamw_single_step_hand_oracle():
    config = TrainConfig(weight_decay=0.0)
    params, state = one_tensor_setup(0.0)
    grads = {name: np.ones_like(t) for name, t in params.tensors.items()}
    adamw_step(params, grads, state, lr=1e-3, config=config)
    expected = hand_adamw_single_step(0.0, 1.0, 1e-3, 0.9, 0.999, 1e-8, 0.0)
    assert expected == pytest.approx(-9.99999990e-4, rel=1e-6)
    for t in params.tensors.values():
        assert np.allclose(t, expected, rtol=0, atol=1e-18)
    assert state.t == 1


def test_adamw_zero_grad_no_motion():
    config = TrainConfig(weight_decay=0.0)
    params, state = one_tensor_setup(0.7)
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    adamw_step(params, grads, state, lr=1e-3, config=config)
    for t in params.tensors.values():
        assert np.all(t == 0.7)


def test_adamw_pure_decay():
    config = TrainConfig(weight_decay=0.01)
    params, state = one_tensor_setup(0.5)
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    adamw_step(params, grads, state, lr=0.1, config=config)
    for t in params.tensors.values():
        assert np.allclose(t, 0.5 * (1 - 0.1 * 0.01), rtol=0, atol=1e-15)


def test_adamw_rejects_nonfinite():
    params, state = one_tensor_setup(0.0)
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    grads["W1"][0, 0] = np.nan
    with pytest.raises(NumericError) as err:
        adamw_step(params, grads, state, lr=1e-3, config=TrainConfig())
    assert err.value.code == "E_NONFINITE_GRAD"


def test_adamw_rejects_shape_mismatch():
    params, state = one_tensor_setup(0.0)
    grads = {"W1": np.zeros((1, 1))}
    with pytest.raises(DataError) as err:
        adamw_step(params, grads, state, lr=1e-3, config=TrainConfig())
    assert err.value.code == "E_SHAPE_MISMATCH"


def test_adamw_matches_multistep_reference():
    """Three steps on a scalar against an independent reference loop."""
    config = TrainConfig(weight_decay=0.01)
    params, state = one_tensor_setup(0.3)
    theta_ref = 0.3
    m_ref = v_ref = 0.0
    rng = np.random.default_rng(0)
    for step in range(1, 4):
        g = float(rng.normal())
        grads = {name: np.full_like(t, g) for name, t in params.tensors.items()}
        adamw_step(params, grads, state, lr=2e-3, config=config)
        m_ref = 0.9 * m_ref + 0.1 * g
        v_ref = 0.999 * v_ref + 0.001 * g * g
        m_hat = m_ref / (1 - 0.9**step)
        v_hat = v_ref / (1 - 0.999**step)
        theta_ref = theta_ref - 2e-3 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 0.01 * theta_ref)
        assert params.tensors["W1"][0, 0] == pytest.approx(theta_ref, rel=1e-12)


def reference_adamw_step(params, grads, state, lr, config):
    """The update as it was written before it ran on scratch buffers; the bits to match."""
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
        theta = params.tensors[name]
        theta -= lr * ((m / correction1) / (np.sqrt(v / correction2) + config.eps) + config.weight_decay * theta)


def reference_grad_norm(grads) -> float:
    return math.sqrt(math.fsum(float(np.sum(g * g)) for g in grads.values()))


@pytest.mark.parametrize("lora_only", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("direct_state", [False, True])
@pytest.mark.parametrize("chunk", [None, 20])
def test_in_place_adamw_matches_reference_bit_for_bit(
    small_params, monkeypatch, lora_only, weight_decay, direct_state, chunk
):
    config = small_config(weight_decay=weight_decay, train_lora_only=lora_only)
    params, ref_params = small_params, small_params.copy()
    if chunk is not None:
        import minembed.trainer as trainer_mod

        # Many chunks per tensor, partial last chunks, rows (W1's 24) longer than a chunk,
        # and column-major tensors, which a chunk of rows must update in place.
        monkeypatch.setattr(trainer_mod, "_ADAMW_CHUNK", chunk)
        for p in (params, ref_params):
            for name in ("W1", "lora_B1"):
                p.tensors[name] = np.asfortranarray(p.tensors[name])
    names = params.trainable_names(lora_only)
    if direct_state:
        state = OptimizerState(m={n: np.zeros_like(params.tensors[n]) for n in names},
                               v={n: np.zeros_like(params.tensors[n]) for n in names})
    else:
        state = init_optimizer_state(params, lora_only)
    ref_state = OptimizerState(m={n: m.copy() for n, m in state.m.items()}, v={n: v.copy() for n, v in state.v.items()})
    buffers, squares = gradient_buffers(params, lora_only)
    for g in buffers.values():
        g.fill(np.nan)  # stale values must not leak in
    for step in range(6):
        batch = make_batch(6, seed=step)
        ref_grads, ref_report = infonce_gradient(batch, ref_params, config, seed=step)
        grads, report = infonce_gradient(batch, params, config, seed=step, out=(buffers, squares))
        assert grads is buffers and sorted(grads) == sorted(names)
        assert all(_same_bits(grads[n], ref_grads[n]) for n in names)
        assert _same_bits(report.grad_norm, reference_grad_norm(ref_grads))
        assert _same_bits(ref_report.grad_norm, report.grad_norm)
        adamw_step(params, grads, state, lr=5e-2, config=config)
        reference_adamw_step(ref_params, ref_grads, ref_state, lr=5e-2, config=config)
        assert state.t == ref_state.t == step + 1
        for name in TENSOR_NAMES:
            assert _same_bits(params.tensors[name], ref_params.tensors[name]), (step, name)
        for name in names:
            assert _same_bits(state.m[name], ref_state.m[name]) and _same_bits(state.v[name], ref_state.v[name])
    assert not _same_bits(params.tensors["lora_B1"], np.zeros_like(params.tensors["lora_B1"]))


def test_reused_buffers_do_not_leak_to_other_callers(small_params, tmp_path):
    batch = make_batch(4, seed=3)
    config = small_config()
    first, _ = infonce_gradient(batch, small_params, config)
    second, _ = infonce_gradient(batch, small_params, config)
    assert all(not np.shares_memory(first[n], second[n]) for n in first)

    state = init_optimizer_state(small_params)
    before = {n: g.copy() for n, g in first.items()}
    for _ in range(2):
        adamw_step(small_params, first, state, lr=1e-2, config=config)
    assert all(_same_bits(first[n], before[n]) for n in first)

    check_params = init_params(5, vocab_size=512, d_emb=16, d_hid=24, d_out=12, lora_rank=4, pooling="mean")
    check_batch = make_batch(4, seed=8)
    before_train = gradient_check(check_params, check_batch, samples=30, config=config, seed=2)
    small_toy_run(tmp_path)
    assert gradient_check(check_params, check_batch, samples=30, config=config, seed=2) == before_train


# -- train loop --------------------------------------------------------------------


def small_toy_run(tmp_path, seed=7, **config_kw):
    from minembed.triplets import NegativePolicy, build_triplets

    manifest = two_cluster_records(40, seed=seed, split="train")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=seed)
    triplets = build_triplets(manifest, policy).triplets
    params = init_params(seed, vocab_size=2048, d_emb=32, d_hid=48, d_out=24, pooling="mean")
    config = TrainConfig(batch_size=16, epochs=2, seed=seed, **config_kw)
    return train(triplets, params, config, val_triplets=triplets[:16], out_dir=tmp_path)


def test_train_loss_decreases_on_toy_corpus(tmp_path):
    params, reports = small_toy_run(tmp_path)
    assert len(reports) == 2
    assert reports[1].val_loss < reports[0].val_loss
    assert (tmp_path / "epoch-1.cemb").exists()
    assert (tmp_path / "epoch-2.cemb").exists()
    assert (tmp_path / "train-log.jsonl").exists()


def test_train_zero_epochs_unchanged(small_params):
    batch = make_batch(4, seed=1)
    before = {k: v.copy() for k, v in small_params.tensors.items()}
    params, reports = train(batch, small_params, small_config(epochs=0))
    assert reports == []
    for name, tensor in params.tensors.items():
        assert np.array_equal(tensor, before[name])


def test_train_bit_deterministic(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    small_toy_run(dir_a, seed=11)
    small_toy_run(dir_b, seed=11)
    assert (dir_a / "epoch-2.cemb").read_bytes() == (dir_b / "epoch-2.cemb").read_bytes()
    assert (dir_a / "train-log.jsonl").read_bytes() == (dir_b / "train-log.jsonl").read_bytes()


def test_train_different_seed_differs(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    small_toy_run(dir_a, seed=11)
    small_toy_run(dir_b, seed=12)
    assert (dir_a / "epoch-2.cemb").read_bytes() != (dir_b / "epoch-2.cemb").read_bytes()


def test_train_rejects_empty():
    params = init_params(0, vocab_size=16, d_emb=2, d_hid=2, d_out=2, lora_rank=1)
    with pytest.raises(DataError) as err:
        train([], params, TrainConfig())
    assert err.value.code == "E_NO_TRAIN_DATA"


def test_train_tokenizes_each_distinct_text_once(tmp_path, monkeypatch):
    from minembed import encoder

    calls = []
    tokenize = encoder.Tokenizer.__call__
    monkeypatch.setattr(encoder.Tokenizer, "__call__", lambda self, text: calls.append(text) or tokenize(self, text))
    train_set = make_batch(12, seed=4)
    val_set = make_batch(5, seed=5) + train_set[:3]  # val texts of their own, and some shared with train
    train(train_set, init_params(2, vocab_size=512, d_emb=16, d_hid=24, d_out=12, lora_rank=4, pooling="mean"),
          small_config(epochs=3), val_triplets=val_set, out_dir=tmp_path)
    distinct = {text for t in train_set + val_set for text in (t.anchor_text, t.positive_text, t.negative_text)}
    assert len(calls) == len(distinct) and set(calls) == distinct


def test_train_lora_only_freezes_base(tmp_path):
    params, _ = small_toy_run(tmp_path, seed=13, train_lora_only=True)
    fresh = init_params(13, vocab_size=2048, d_emb=32, d_hid=48, d_out=24)
    for name in ("E", "W1", "b1", "W2", "b2"):
        assert np.array_equal(params.tensors[name], fresh.tensors[name]), name
    assert not np.array_equal(params.tensors["lora_B1"], fresh.tensors["lora_B1"])


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(temperature=0.0)
    with pytest.raises(DataError):
        TrainConfig(warmup_frac=1.0)
    with pytest.raises(DataError):
        TrainConfig(batch_size=1)
    with pytest.raises(DataError) as err:
        init_params(0, vocab_size=16, d_emb=2, d_hid=2, d_out=2, lora_rank=1, pooling="cls")
    assert err.value.code == "E_BAD_POOLING"
    for values, code in [
        ({"temperature": math.inf}, "E_BAD_TEMPERATURE"),
        ({"temperature": math.nan}, "E_BAD_TEMPERATURE"),
        ({"peak_lr": -1.0}, "E_BAD_SCHEDULE"),
        ({"peak_lr": math.nan}, "E_BAD_SCHEDULE"),
        ({"min_lr": math.inf}, "E_BAD_SCHEDULE"),
        ({"weight_decay": math.nan}, "E_BAD_OPTIMIZER"),
        ({"weight_decay": -1.0}, "E_BAD_OPTIMIZER"),
    ]:
        with pytest.raises(DataError) as err:
            TrainConfig(**values)
        assert err.value.code == code, values
    TrainConfig(peak_lr=0.0, min_lr=0.0, weight_decay=0.0)
    for optimizer in ({"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.1}, {"eps": 0.0}, {"eps": math.nan},
                      {"eps": math.inf}):
        with pytest.raises(DataError) as err:
            TrainConfig(**optimizer)
        assert err.value.code == "E_BAD_OPTIMIZER", optimizer
    for encoder, code in [
        ({"vocab_size": 0}, "E_BAD_SHAPE"),
        ({"vocab_size": -5}, "E_BAD_SHAPE"),
        ({"d_emb": 0}, "E_BAD_SHAPE"),
        ({"d_hid": 0}, "E_BAD_SHAPE"),
        ({"d_out": 0}, "E_BAD_SHAPE"),
        ({"lora_rank": 0}, "E_BAD_RANK"),
        ({"lora_rank": -2}, "E_BAD_RANK"),
        ({"lora_dropout": 1.0}, "E_BAD_DROPOUT"),
        ({"lora_dropout": -0.5}, "E_BAD_DROPOUT"),
        ({"lora_dropout": math.nan}, "E_BAD_DROPOUT"),
        ({"lora_alpha": math.inf}, "E_BAD_ALPHA"),
        ({"lora_alpha": math.nan}, "E_BAD_ALPHA"),
    ]:
        with pytest.raises(DataError) as err:
            init_params(0, **{"vocab_size": 16, "d_emb": 2, "d_hid": 2, "d_out": 2, "lora_rank": 1, **encoder})
        assert err.value.code == code, encoder


def test_evaluation_loss_matches_batch_loss(small_params):
    batch = make_batch(6, seed=2)
    config = small_config(batch_size=6)
    direct = batch_loss(batch, small_params, config, train_mode=False).loss
    assert evaluation_loss(batch, small_params, config) == pytest.approx(direct, abs=1e-12)


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=2, max_value=400))
@settings(max_examples=100)
def test_schedule_bounded_everywhere(step_frac, total):
    config = TrainConfig(min_lr=1e-6)
    step = min(step_frac, total)
    value = lr_at_step(step, total, config)
    assert config.min_lr - 1e-15 <= value <= config.peak_lr + 1e-15
