"""Trainer: loss values, gradients vs finite differences, AdamW, schedule."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.encoder import POOLINGS, TENSOR_NAMES, init_params
from minembed.errors import DataError, NumericError
from minembed.storage import read_jsonl
from minembed.trainer import (
    BatchLossReport,
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_loss,
    evaluation_loss,
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
    for pooling, lora_only in product(POOLINGS, (False, True)):
        params = replace(small_params, pooling=pooling)
        config = small_config(train_lora_only=lora_only)
        err = gradient_check(params, batch, h=1e-4, samples=50, config=config, seed=4)
        assert err <= 1e-4, f"pooling={pooling}, lora_only={lora_only}: {err}"


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


@pytest.mark.parametrize("stub", ["probe-loss", "analytic-gradient"])
def test_gradient_check_rejects_a_coordinate_it_cannot_measure(small_params, monkeypatch, stub):
    # A NaN relative error was dropped by max(), so a NaN probe loss reported 0.0.
    import minembed.trainer as trainer_mod

    if stub == "probe-loss":
        monkeypatch.setattr(trainer_mod, "batch_loss", lambda *args, **kwargs: BatchLossReport(math.nan, 0.0, 0.0))
    else:
        original = trainer_mod.infonce_gradient

        def nan_gradient(*args, **kwargs):
            grads, report = original(*args, **kwargs)
            return {name: np.full_like(g, math.nan) for name, g in grads.items()}, report

        monkeypatch.setattr(trainer_mod, "infonce_gradient", nan_gradient)
    with pytest.raises(NumericError) as err:
        gradient_check(small_params, make_batch(2, seed=3), samples=3, config=small_config())
    assert err.value.code == "E_NONFINITE_GRAD"
    assert str(err.value).split(": ")[1].split("[")[0] in small_params.tensors


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


@pytest.mark.parametrize("built_for", ["by-hand", "lora-only", "every-tensor"])
def test_gradient_rejects_buffers_for_other_tensors(small_params, built_for):
    names = small_params.trainable_names(False)
    if built_for == "by-hand":  # moments only, so no gradient buffer at all
        config = small_config()
        out = OptimizerState(m={n: np.zeros_like(small_params.tensors[n]) for n in names},
                             v={n: np.zeros_like(small_params.tensors[n]) for n in names})
    else:
        config = small_config(train_lora_only=built_for == "every-tensor")
        out = init_optimizer_state(small_params, lora_only=built_for == "lora-only")
    stray = set(out.grads).symmetric_difference(small_params.trainable_names(config.train_lora_only))
    with pytest.raises(DataError) as err:
        infonce_gradient(make_batch(3, seed=2), small_params, config, out=out)
    assert err.value.code == "E_SHAPE_MISMATCH" and repr(sorted(stray)[0]) in str(err.value)


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


def reference_grad_norm(grads, live_rows) -> float:
    """Each buffer's rows R (every row of a tensor without R) as one compact block, squared and summed."""
    blocks = (g[live_rows[name]] if name in live_rows else g for name, g in grads.items())
    return math.sqrt(math.fsum(float(np.sum(block * block)) for block in blocks))


@pytest.mark.parametrize("lora_only", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("direct_state", [False, True])
@pytest.mark.parametrize("chunk", [None, 20])
def test_in_place_adamw_matches_reference_bit_for_bit(
    small_params, monkeypatch, lora_only, weight_decay, direct_state, chunk
):
    import minembed.trainer as trainer_mod

    config = small_config(weight_decay=weight_decay, train_lora_only=lora_only)
    params, ref_params = small_params, small_params.copy()
    if chunk is not None:
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
    buffers = init_optimizer_state(params, lora_only)
    for g in buffers.grads.values():
        g.fill(np.nan)  # stale values must not leak in
    for step in range(6):
        batch = make_batch(6, seed=step)
        ref_grads, ref_report = infonce_gradient(batch, ref_params, config, seed=step)
        # From step 1 on the buffers hold the last step's gradient, which must not leak in either.
        grads, report = infonce_gradient(batch, params, config, seed=step, out=buffers)
        assert grads is buffers.grads and sorted(grads) == sorted(names)
        assert all(_same_bits(grads[n], ref_grads[n]) for n in names)
        assert vars(report) == vars(ref_report)
        adamw_step(params, grads, state, lr=5e-2, config=config)
        reference_adamw_step(ref_params, ref_grads, ref_state, lr=5e-2, config=config)
        # The norm, as train takes it after AdamW, reads the buffers and leaves them as they were.
        assert _same_bits(trainer_mod._grad_norm(grads, buffers.live_rows), reference_grad_norm(ref_grads, {}))
        assert all(_same_bits(grads[n], ref_grads[n]) for n in names)
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


def _block_update(g, m, v, theta, scratch, correction1, correction2, lr, config):
    """The chunked in-place AdamW update of one block of rows, its temporaries in ``scratch``."""
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


def inplace_adamw_step(params, grads, state, lr, config):
    """The chunked in-place update as it was before rows outside R got the cheap form,
    full on every row whatever ``state.live_rows`` says; the bits to match."""
    import minembed.trainer as trainer_mod

    tensors = params.tensors
    state.t += 1
    correction1 = 1.0 - config.beta1**state.t
    correction2 = 1.0 - config.beta2**state.t
    for name, grad in grads.items():
        rows = max(1, trainer_mod._ADAMW_CHUNK // grad[0].size)
        for lo in range(0, len(grad), rows):
            chunk = (t[lo : lo + rows] for t in (grad, state.m[name], state.v[name], tensors[name]))
            _block_update(*chunk, state.scratch, correction1, correction2, lr, config)
    return params, state


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("chunk", [None, 40, 8])
def test_row_split_adamw_matches_full_update_bit_for_bit(monkeypatch, weight_decay, chunk):
    import minembed.trainer as trainer_mod

    if chunk is not None:
        # 40: chunks of a few rows and a partial last one; 8: E's 16-value rows are longer than a chunk.
        monkeypatch.setattr(trainer_mod, "_ADAMW_CHUNK", chunk)
    config = TrainConfig(weight_decay=weight_decay)
    params = init_params(4, vocab_size=64, d_emb=16, d_hid=12, d_out=8, lora_rank=2)
    rng = np.random.default_rng(9)
    live = np.sort(rng.choice(64, size=24, replace=False))
    outside = np.setdiff1d(np.arange(64), live)
    emb = params.tensors["E"]
    emb[outside[0]] = -0.0  # -0.0 outside R must stay -0.0, as the full update leaves it
    emb[outside[1], ::2] = -0.0
    emb[live[0]] = -0.0
    ref_params = params.copy()
    # The reference keeps full-size moments; the state under test keeps R's rows only.
    state, ref_state = init_optimizer_state(params, live_rows={"E": live}), init_optimizer_state(ref_params)
    hot = live[:16]  # R is a strict superset of the rows that ever get a gradient
    for step, lr in enumerate([1e-2, 0.0, 5e-2, 0.0, 3e-3, 2e-2] * 2):
        grads = {name: rng.normal(size=t.shape) for name, t in params.tensors.items()}
        grads["E"][:] = 0.0
        touched = hot[rng.random(hot.size) < 0.6]  # a row of R gets no gradient in some steps
        grads["E"][touched] = rng.normal(size=(touched.size, 16))
        adamw_step(params, grads, state, lr, config)
        inplace_adamw_step(ref_params, grads, ref_state, lr, config)
        assert state.t == ref_state.t == step + 1
        for name in TENSOR_NAMES:
            assert _same_bits(params.tensors[name], ref_params.tensors[name]), (step, name)
            ref_m, ref_v = ref_state.m[name], ref_state.v[name]
            if name == "E":
                # The reference's moments outside R stay exactly zero; the compact moments are its R rows.
                zero = np.zeros((outside.size, 16))
                assert _same_bits(ref_m[outside], zero) and _same_bits(ref_v[outside], zero), step
                ref_m, ref_v = ref_m[live], ref_v[live]
            assert _same_bits(state.m[name], ref_m), (step, name)
            assert _same_bits(state.v[name], ref_v), (step, name)
    assert np.signbit(emb[outside[0]]).all() and state.m["E"].shape == state.v["E"].shape == (live.size, 16)
    assert not _same_bits(state.m["E"][: hot.size], np.zeros((hot.size, 16)))


def _norm_batch(rng) -> list[Triplet]:
    """64 triplets of random six-letter words: under the default vocabulary their rows lie all over E."""
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=6)) for _ in range(600)]
    text = lambda: " ".join(rng.choice(words, size=5))
    return [Triplet(f"a{i}", text(), text(), f"n{i}", text(), "train") for i in range(64)]


def _pooled_rows(batch, params) -> np.ndarray:
    return np.array(sorted({i for t in batch for x in (t.anchor_text, t.positive_text, t.negative_text)
                            for i in params.tokenizer(x)}), dtype=np.intp)


@pytest.mark.parametrize("chunk", [None, 40])
def test_grad_norm_reads_r_and_writes_no_gradient(monkeypatch, chunk):
    import minembed.trainer as trainer_mod

    if chunk is not None:
        monkeypatch.setattr(trainer_mod, "_ADAMW_CHUNK", chunk)  # 40: AdamW takes one 64-value row of R at a time
    rng = np.random.default_rng(29)
    batch = _norm_batch(rng)
    params = init_params(6, pooling="mean")  # the default vocabulary: R's rows lie all over E
    live = _pooled_rows(batch, params)
    state = init_optimizer_state(params, live_rows={"E": live})
    config = TrainConfig(batch_size=64)
    for seed in range(3):
        grads, _ = infonce_gradient(batch, params, config, seed=seed, out=state)
        fresh, _ = infonce_gradient(batch, params, config, seed=seed)
        assert all(_same_bits(grads[n], fresh[n]) for n in fresh)
        norm = trainer_mod._grad_norm(grads, state.live_rows)
        assert all(_same_bits(grads[n], fresh[n]) for n in fresh)
        assert _same_bits(norm, reference_grad_norm(fresh, state.live_rows))
        # No ordering rule: AdamW only reads the gradient, so the norm after it is the same.
        adamw_step(params, grads, state, lr=1e-3, config=config)
        assert _same_bits(trainer_mod._grad_norm(grads, state.live_rows), norm)
    # Values of several magnitudes on R alone: a sum of R's squares as one compact
    # block, without the zero rows between them, differs in the last bits from the
    # sum over the whole buffer for some of these, and the norm is the compact sum.
    differs = 0
    for _ in range(20):
        scales = 10.0 ** rng.integers(-8, 2, live.size)[:, None]
        grads["E"][live] = rng.normal(size=(live.size, grads["E"].shape[1])) * scales
        kept = {n: g.copy() for n, g in grads.items()}
        norm = trainer_mod._grad_norm(grads, state.live_rows)
        assert all(_same_bits(grads[n], kept[n]) for n in kept)
        assert _same_bits(norm, reference_grad_norm(kept, state.live_rows))
        differs += not _same_bits(norm, reference_grad_norm(kept, {}))
    assert differs > 0
    outside = np.setdiff1d(np.arange(len(grads["E"])), live)
    assert not grads["E"][outside].any() and grads["E"][live].any()


@pytest.mark.parametrize("with_r", [False, True])
def test_grad_norm_squares_only_its_own_copy_of_r(with_r):
    import tracemalloc

    import minembed.trainer as trainer_mod

    rng = np.random.default_rng(31)
    params = init_params(2, vocab_size=4096, d_emb=64, d_hid=4, d_out=4, lora_rank=1)
    live_rows = {"E": np.sort(rng.choice(4096, 2000, replace=False))} if with_r else {}
    grads = {n: rng.normal(size=t.shape) * 10.0 ** rng.integers(-8, 3, t.shape) for n, t in params.tensors.items()}
    kept = {n: g.copy() for n, g in grads.items()}
    # The norm as it was written before it squared its gathered copy in place.
    expected = math.sqrt(math.fsum(float(np.square(g[live_rows.get(n, ...)]).sum()) for n, g in kept.items()))
    tracemalloc.start()
    try:
        norm = trainer_mod._grad_norm(grads, live_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _same_bits(norm, expected)
    assert all(_same_bits(grads[n], kept[n]) for n in kept)
    # One array of E's squared rows, R's or all of them: not a gathered copy and its squares too.
    squared = grads["E"][live_rows.get("E", ...)].nbytes
    assert squared <= peak < 1.5 * squared


@pytest.mark.parametrize("lora_only", [False, True])
def test_logged_grad_norm_has_the_bits_of_the_norm_before_adamw(tmp_path, monkeypatch, lora_only):
    import minembed.trainer as trainer_mod

    original, expected, live_rows = trainer_mod.infonce_gradient, [], []

    def with_norm_before_adamw(*args, out, **kwargs):
        grads, report = original(*args, out=out, **kwargs)
        expected.append(reference_grad_norm(grads, out.live_rows))
        live_rows.append(out.live_rows)
        return grads, report

    monkeypatch.setattr(trainer_mod, "infonce_gradient", with_norm_before_adamw)
    rng = np.random.default_rng(31)
    triplets = _norm_batch(rng)[:48]
    params = init_params(8, pooling="mean")  # the default vocabulary: R's rows lie all over E
    train(triplets, params, TrainConfig(batch_size=16, epochs=2, seed=4, train_lora_only=lora_only), out_dir=tmp_path)
    logged = [row["grad_norm"] for row in read_jsonl(tmp_path / "train-log.jsonl")]
    assert len(logged) == len(expected) == 6 and all(x > 0.0 for x in expected)
    assert all(_same_bits(x, y) for x, y in zip(logged, expected))
    assert all(("E" in rows) != lora_only for rows in live_rows)


def _held_arrays(value) -> list[np.ndarray]:
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return []
    return [a for item in value for a in _held_arrays(item)]


def test_step_memory_is_gradients_compact_e_moments_and_scratch(monkeypatch):
    """At the default shape, the arrays a training run's state holds add up to the gradients,
    R and R's rows of E's moments, the other tensors' full moments and AdamW's scratch."""
    import minembed.trainer as trainer_mod

    original, states = trainer_mod.init_optimizer_state, []

    def recorded(*args, **kwargs):
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(trainer_mod, "init_optimizer_state", recorded)
    params = init_params(6, pooling="mean")
    batch = _norm_batch(np.random.default_rng(29))
    train(batch, params, TrainConfig(batch_size=32, epochs=1))
    (state,) = states
    live, grads, emb = state.live_rows["E"], state.grads, params.tensors["E"]
    assert _same_bits(live, _pooled_rows(batch, params)) and 0 < live.size < emb.shape[0] // 4
    others = [params.tensors[n] for n in grads if n != "E"]
    expected = (sum(g.nbytes for g in grads.values()) + live.nbytes + 2 * live.size * emb.shape[1] * 8
                + 2 * sum(t.size * 8 for t in others) + sum(buf.nbytes for buf in state.scratch))
    held = _held_arrays(list(vars(state).values()))
    assert sum(a.nbytes for a in held) == expected
    full = [a for a in held if a.shape == emb.shape]
    assert len(full) == 1 and full[0] is grads["E"]


def test_adamw_rejects_full_moments_when_r_is_set():
    # R set on a state whose moments are full-size would misread the moments; nothing may move.
    params, state = one_tensor_setup(0.5)
    state.live_rows["E"] = np.array([1, 3])
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    before = {name: t.copy() for name, t in params.tensors.items()}
    with pytest.raises(DataError) as err:
        adamw_step(params, grads, state, lr=1e-3, config=TrainConfig())
    assert err.value.code == "E_SHAPE_MISMATCH" and state.t == 0
    assert all(_same_bits(params.tensors[n], before[n]) for n in before)
    compact = init_optimizer_state(params, live_rows={"E": np.array([1, 3])})
    assert compact.m["E"].shape == compact.v["E"].shape == (2, 2) and compact.m["W1"].shape == (2, 2)
    adamw_step(params, grads, compact, lr=1e-3, config=TrainConfig())
    assert compact.t == 1


_CLUSTER_WORDS = (["apex", "basal", "mitral", "aortic"], ["quartz", "basalt", "shale", "gneiss"])


def _toy_triplets(n: int, seed: int, split: str, words: tuple[list[str], list[str]]) -> list[Triplet]:
    rng = np.random.default_rng(seed)
    pick = lambda vocab: " ".join(rng.choice(vocab, size=3))
    # Positives and negatives end in a word of their own, so that each role pools rows no other role pools.
    return [Triplet(f"{split}{i}", pick(words[i % 2]), pick(words[i % 2]) + f" {split}echo", f"{split}n{i}",
                    pick(words[1 - i % 2]) + f" {split}tail", split) for i in range(n)]


@pytest.mark.parametrize("pooling, lora_only", [("mean", False), ("last_token", False), ("mean", True)])
def test_train_gradient_reaches_only_r_and_bytes_match_full_update(tmp_path, monkeypatch, pooling, lora_only):
    import minembed.trainer as trainer_mod

    train_set = _toy_triplets(12, 4, "train", _CLUSTER_WORDS)
    # Validation texts with words of their own: validation takes no gradient, so their rows stay out of R.
    val_set = _toy_triplets(6, 5, "val", (["zebra", "yonder"], ["xylem", "walrus"]))
    config = small_config(epochs=2, train_lora_only=lora_only)
    seen, states = [], {}

    def checked(params, grads, state, lr, config):
        assert grads is state.grads  # one state owns the buffers infonce_gradient fills
        if lora_only:
            assert state.live_rows == {} and "E" not in grads
        else:
            outside = np.ones(len(grads["E"]), dtype=bool)
            outside[state.live_rows["E"]] = False
            assert not grads["E"][outside].any()
            seen.append(state.live_rows["E"].tolist())
        states["split"] = state
        return adamw_step(params, grads, state, lr, config)

    def full(params, grads, state, lr, config):
        # The reference update keeps full-size moments of its own, whatever train built.
        ref = states.setdefault("full", OptimizerState(m={n: np.zeros_like(g) for n, g in grads.items()},
                                                       v={n: np.zeros_like(g) for n, g in grads.items()}))
        inplace_adamw_step(params, grads, ref, lr, config)
        state.t = ref.t
        return params, state

    def run(out_dir, step):
        monkeypatch.setattr(trainer_mod, "adamw_step", step)
        params = init_params(2, vocab_size=512, d_emb=16, d_hid=24, d_out=12, lora_rank=4, pooling=pooling)
        train(train_set, params, config, val_triplets=val_set, out_dir=out_dir)
        return params

    params = run(tmp_path / "split", checked)
    pooled = slice(None) if pooling == "mean" else slice(-1, None)
    pooled_ids = lambda triplets: {i for t in triplets for text in (t.anchor_text, t.positive_text, t.negative_text)
                                   for i in params.tokenizer(text)[pooled]}
    if not lora_only:
        assert seen == [sorted(pooled_ids(train_set))] * 6
        assert pooled_ids(val_set) - pooled_ids(train_set)
    run(tmp_path / "full", full)
    names = sorted(p.name for p in (tmp_path / "split").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir()) and "epoch-2.cemb" in names
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
    split, ref = states["split"], states["full"]
    assert split.t == ref.t == 6 and sorted(split.m) == sorted(ref.m)
    for name in ref.m:
        ref_m, ref_v = ref.m[name], ref.v[name]
        if name == "E":
            live = split.live_rows["E"]
            outside = np.setdiff1d(np.arange(len(ref_m)), live)
            zero = np.zeros((outside.size, ref_m.shape[1]))
            assert _same_bits(ref_m[outside], zero) and _same_bits(ref_v[outside], zero)
            ref_m, ref_v = ref_m[live], ref_v[live]
        assert _same_bits(split.m[name], ref_m) and _same_bits(split.v[name], ref_v), name


def row_split_adamw_step(params, grads, state, lr, config):
    """The update as it was when moments were full-size and each chunk gathered
    and scattered its own R rows; the bits to match."""
    import minembed.trainer as trainer_mod

    tensors = params.tensors
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericError("E_NONFINITE_GRAD", f"non-finite gradient in {name}")
    state.t += 1
    correction1 = 1.0 - config.beta1**state.t
    correction2 = 1.0 - config.beta2**state.t
    for name, grad in grads.items():
        rows = max(1, trainer_mod._ADAMW_CHUNK // grad[0].size)
        live = state.live_rows.get(name)
        for lo in range(0, len(grad), rows):
            chunk = [t[lo : lo + rows] for t in (grad, state.m[name], state.v[name], tensors[name])]
            if live is None:
                _block_update(*chunk, state.scratch, correction1, correction2, lr, config)
                continue
            start, stop = np.searchsorted(live, (lo, lo + rows))
            picked = live[start:stop] - lo
            gathered = [t[picked] for t in chunk]
            theta = chunk[3]
            x = state.scratch[0][: theta.size].reshape(theta.shape)
            np.add(0.0, np.multiply(config.weight_decay, theta, out=x), out=x)
            x *= lr
            theta -= x
            _block_update(*gathered, state.scratch, correction1, correction2, lr, config)
            for t, part in zip(chunk[1:], gathered[1:]):
                t[picked] = part
    return params, state


@pytest.mark.parametrize("lora_only", [False, True])
def test_default_shape_r_sized_optimizer_work_matches_row_split_bytes(tmp_path, monkeypatch, lora_only):
    import minembed.trainer as trainer_mod
    from minembed.encoder import DEFAULT_D_EMB, DEFAULT_VOCAB_SIZE

    rng = np.random.default_rng(17)
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=7)) for _ in range(800)]
    text = lambda: " ".join(rng.choice(words, size=5))
    train_set = [Triplet(f"a{i}", text(), text(), f"n{i}", text(), "train") for i in range(256)]
    val_set = [Triplet(f"va{i}", text(), text(), f"vn{i}", text(), "val") for i in range(32)]
    config = TrainConfig(batch_size=128, epochs=2, seed=5, train_lora_only=lora_only)  # 4 steps
    chunk_rows = trainer_mod._ADAMW_CHUNK // DEFAULT_D_EMB
    steps, states = [], {}

    def checked(params, grads, state, lr, config):
        assert grads is state.grads  # one state owns the buffers infonce_gradient fills
        if lora_only:
            assert state.live_rows == {} and "E" not in grads
            assert all(state.m[n].shape == state.v[n].shape == params.tensors[n].shape for n in grads)
        else:
            live = state.live_rows["E"]
            assert np.unique(live // chunk_rows).size == DEFAULT_VOCAB_SIZE // chunk_rows  # R reaches every chunk
            assert state.m["E"].shape == state.v["E"].shape == (live.size, DEFAULT_D_EMB)
            outside = np.setdiff1d(np.arange(DEFAULT_VOCAB_SIZE), live)
            assert _same_bits(grads["E"][outside], np.zeros((outside.size, DEFAULT_D_EMB)))
            assert grads["E"][live].any()
        steps.append(state.t)
        states["changed"] = state
        return adamw_step(params, grads, state, lr, config)

    def row_split(params, grads, state, lr, config):
        # Full-size moments of its own, with the R that train built.
        ref = states.setdefault("ref", OptimizerState(m={n: np.zeros_like(g) for n, g in grads.items()},
                                                      v={n: np.zeros_like(g) for n, g in grads.items()}))
        ref.live_rows = state.live_rows
        row_split_adamw_step(params, grads, ref, lr, config)
        state.t = ref.t
        return params, state

    def run(out_dir, step):
        monkeypatch.setattr(trainer_mod, "adamw_step", step)
        params = init_params(3, pooling="mean")
        train(train_set, params, config, val_triplets=val_set, out_dir=out_dir)
        return params

    params = run(tmp_path / "changed", checked)
    assert steps == [0, 1, 2, 3]
    run(tmp_path / "row-split", row_split)
    names = sorted(p.name for p in (tmp_path / "changed").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "row-split").iterdir()) and "epoch-2.cemb" in names
    for name in names:
        assert (tmp_path / "changed" / name).read_bytes() == (tmp_path / "row-split" / name).read_bytes(), name
    changed, ref = states["changed"], states["ref"]
    for name in ref.m:
        live = changed.live_rows.get(name, slice(None))
        assert _same_bits(changed.m[name], ref.m[name][live]) and _same_bits(changed.v[name], ref.v[name][live])

    batch = train_set[:4]
    if not lora_only:
        # A NaN in a row of R is still caught, before anything moves.
        live = changed.live_rows["E"]
        state = init_optimizer_state(params, live_rows={"E": live})
        grads = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        grads["E"][live[live.size // 2], 5] = np.nan
        before = params.tensors["E"].copy()
        with pytest.raises(NumericError) as err:
            adamw_step(params, grads, state, lr=1e-3, config=config)
        assert err.value.code == "E_NONFINITE_GRAD" and state.t == 0 and _same_bits(params.tensors["E"], before)
        # Buffers with R are zeroed on R only, and give the bits of fresh buffers.
        buffers = init_optimizer_state(params, live_rows={"E": live})
        buffers.grads["E"][live] = np.nan
        fresh, _ = infonce_gradient(batch, params, config, seed=1)
        reused, _ = infonce_gradient(batch, params, config, seed=1, out=buffers)
        assert all(_same_bits(reused[n], fresh[n]) for n in fresh)
    # gradient_check takes fresh, fully zeroed buffers and no R.
    assert gradient_check(params, batch, samples=20, config=config, seed=2) <= 1e-4


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


def test_train_allocates_its_step_memory_once(monkeypatch):
    import tracemalloc

    import minembed.trainer as trainer_mod
    from minembed.encoder import DEFAULT_D_EMB, DEFAULT_VOCAB_SIZE

    # Each step's rise in traced memory, from the start of its gradient to the end of its update.
    starts, rises = [], []
    gradient, update = trainer_mod.infonce_gradient, trainer_mod.adamw_step

    def traced_gradient(*args, **kwargs):
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return gradient(*args, **kwargs)

    def traced_update(*args, **kwargs):
        result = update(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        return result

    monkeypatch.setattr(trainer_mod, "infonce_gradient", traced_gradient)
    monkeypatch.setattr(trainer_mod, "adamw_step", traced_update)
    rng = np.random.default_rng(23)
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=6)) for _ in range(300)]
    text = lambda: " ".join(rng.choice(words, size=5))
    train_set = [Triplet(f"a{i}", text(), text(), f"n{i}", text(), "train") for i in range(48)]
    params = init_params(4, pooling="mean")
    tracemalloc.start()
    try:
        train(train_set, params, TrainConfig(batch_size=16, epochs=2, seed=1))
    finally:
        tracemalloc.stop()
    # A step that allocated E's gradient buffer (8.4 MB) again would rise by all of it.
    e_grad_bytes = DEFAULT_VOCAB_SIZE * DEFAULT_D_EMB * 8
    assert len(rises) == 6 and max(rises[1:]) < e_grad_bytes / 2, rises


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
