"""Trainer: loss values, gradients vs finite differences, AdamW, schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.encoder import init_params
from minembed.errors import DataError, NumericError
from minembed.trainer import (
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
from minembed.trainer import _loss_and_embedding_grads, _logits_matrix, _per_anchor_losses
from minembed.triplets import Triplet

from conftest import two_cluster_records


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
    with pytest.raises(DataError) as err:
        infonce_loss([v], [v], [v], tau=0.0)
    assert err.value.code == "E_BAD_TEMPERATURE"
    with pytest.raises(DataError):
        infonce_loss([], [], [], tau=0.1)


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


def test_overflow_safety_extreme_sims():
    # Cosines of +-1 at tau = 0.05 puts logits at +-20.
    e = np.array([1.0, 0.0])
    for dtype in (np.float32, np.float64):
        a = np.array([e, e], dtype=dtype)
        p = np.array([e, e], dtype=dtype)
        n = np.array([-e, -e], dtype=dtype)
        logits = _logits_matrix(a, p, n, 0.05)
        assert logits.dtype == dtype
        losses = _per_anchor_losses(logits)
        assert np.all(np.isfinite(losses))
        loss, ga, gp, gn, _, _ = _loss_and_embedding_grads(a, p, n, 0.05)
        assert math.isfinite(loss)
        for g in (ga, gp, gn):
            assert np.all(np.isfinite(g))


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
    for optimizer in ({"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.1}, {"eps": 0.0}, {"eps": math.nan}):
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
