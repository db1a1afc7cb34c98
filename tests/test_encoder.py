"""Encoder: tokenizer, forward pass, adapters, pooling, checkpoints."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.encoder import (
    POOLINGS,
    EncoderParams,
    Tokenizer,
    encode_batch,
    fnv1a_64,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from minembed.errors import DataError
from minembed.storage import read_tensors, write_tensors


# -- tokenizer -----------------------------------------------------------------


def reference_fnv1a_64(data: bytes) -> int:
    """Independent FNV-1a oracle built from the published constants."""
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % (1 << 64)
    return h


def test_fnv1a_known_vectors():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
@settings(max_examples=200)
def test_fnv1a_matches_reference(data):
    assert fnv1a_64(data) == reference_fnv1a_64(data)


def test_tokenize_split_rule():
    tok = Tokenizer()
    assert len(tok("Atrial fibrillation")) == 2
    assert tok("") == []
    assert tok("atrial-fibrillation, detected!") == tok("atrial fibrillation detected")


def test_tokenize_fnv_mod_vocab():
    tok = Tokenizer(vocab_size=16384)
    assert tok("atrial") == [reference_fnv1a_64(b"atrial") % 16384]
    ids = tok("a bunch of diverse tokens 123 mixed with-punctuation and UPPER case")
    assert all(0 <= i < 16384 for i in ids)


def test_tokenize_case_insensitive_and_stable():
    tok = Tokenizer()
    assert tok("ATRIAL Fibrillation") == tok("atrial fibrillation")
    assert Tokenizer(vocab_size=64)("atrial") == [reference_fnv1a_64(b"atrial") % 64]


# -- forward pass ----------------------------------------------------------------


def test_output_unit_norm(small_params):
    vectors = encode_batch(["mitral valve regurgitation", "x", "many words in this longer sentence"], small_params)
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_empty_tokens_rejected(small_params):
    with pytest.raises(DataError) as err:
        encode_batch(["valid text", "!!!"], small_params)
    assert err.value.code == "E_EMPTY_TOKENS"


def test_eval_mode_deterministic(small_params):
    texts = ["left ventricular ejection fraction"]
    a = encode_batch(texts, small_params)
    b = encode_batch(texts, small_params)
    assert np.array_equal(a, b)


def test_train_mode_dropout_seeded(small_params):
    # Dropout gates the adapter input, so it only shows once B is nonzero.
    params = small_params.copy()
    rng = np.random.default_rng(8)
    params.tensors["lora_B1"] = rng.normal(0, 0.5, params.tensors["lora_B1"].shape)
    params.tensors["lora_B2"] = rng.normal(0, 0.5, params.tensors["lora_B2"].shape)
    texts = ["left ventricular ejection fraction"]
    a = encode_batch(texts, params, train_mode=True, seed=5)
    b = encode_batch(texts, params, train_mode=True, seed=5)
    c = encode_batch(texts, params, train_mode=True, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # Eval mode ignores the seed entirely.
    assert np.array_equal(encode_batch(texts, params, seed=5), encode_batch(texts, params, seed=6))


def base_forward(texts, params, pooling="last_token"):
    """Base-weights-only forward pass, written independently of the encoder.

    Uses the same batched matrix shapes as the encoder so that BLAS kernel
    selection cannot introduce low-bit differences.
    """
    t = params.tensors
    pooled = np.empty((len(texts), t["E"].shape[1]))
    for i, text in enumerate(texts):
        emb = t["E"][params.tokenizer(text)]
        pooled[i] = emb.mean(axis=0) if pooling == "mean" else emb[-1]
    hidden = np.tanh(pooled @ t["W1"] + t["b1"])
    raw = hidden @ t["W2"] + t["b2"]
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_lora_identity_b_zero_bitwise(small_params):
    # Freshly initialized adapters have B = 0, so outputs must equal the
    # base-weight forward bit for bit.
    texts = ["aortic stenosis detected", "normal sinus rhythm"]
    for pooling in ("last_token", "mean"):
        ours = encode_batch(texts, replace(small_params, pooling=pooling))
        manual = base_forward(texts, small_params, pooling)
        assert np.array_equal(ours, manual)


def effective_weight(w: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float, rank: int) -> np.ndarray:
    """Reference adapter formula: base weight plus scaled low-rank update, W + (alpha/rank) A^T B^T."""
    return w + (alpha / rank) * (a.T @ b.T)


def test_adapter_scale_is_alpha_over_rank():
    params = init_params(3, vocab_size=128, d_emb=8, d_hid=12, d_out=6, lora_rank=16, lora_alpha=32.0)
    t = params.tensors
    rng = np.random.default_rng(0)
    t["lora_B1"] = rng.normal(0, 0.1, t["lora_B1"].shape)
    t["lora_B2"] = rng.normal(0, 0.1, t["lora_B2"].shape)

    w_eff = effective_weight(t["W1"], t["lora_A1"], t["lora_B1"], 32.0, 16)
    explicit = t["lora_A1"].T @ t["lora_B1"].T
    assert np.max(np.abs((w_eff - t["W1"]) - 2.0 * explicit)) <= 1e-12

    # End to end: the forward built on effective weights matches encode_batch.
    texts = ["pulmonary artery pressure elevated"]
    ours = encode_batch(texts, params)
    ids = params.tokenizer(texts[0])
    x = t["E"][ids][-1]
    h = np.tanh(x @ effective_weight(t["W1"], t["lora_A1"], t["lora_B1"], 32.0, 16) + t["b1"])
    y = h @ effective_weight(t["W2"], t["lora_A2"], t["lora_B2"], 32.0, 16) + t["b2"]
    assert np.max(np.abs(ours[0] - y / np.linalg.norm(y))) <= 1e-12


def test_pooling_strategies_differ(small_params):
    # Multi-token text whose token embeddings differ: mean and last-token
    # pooling must produce different pre-projection vectors.
    text = "alpha beta gamma delta"
    _, cache_mean = forward_batch([text], replace(small_params, pooling="mean"))
    _, cache_last = forward_batch([text], replace(small_params, pooling="last_token"))
    assert not np.array_equal(cache_mean.pooled, cache_last.pooled)


def test_single_token_pooling_agrees(small_params):
    _, cache_mean = forward_batch(["word"], replace(small_params, pooling="mean"))
    _, cache_last = forward_batch(["word"], replace(small_params, pooling="last_token"))
    assert np.array_equal(cache_mean.pooled, cache_last.pooled)


def test_bad_pooling_rejected(small_params):
    with pytest.raises(DataError) as err:
        replace(small_params, pooling="cls")
    assert err.value.code == "E_BAD_POOLING"


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path, small_params):
    path = tmp_path / "model.cemb"
    save_checkpoint(small_params, path)
    loaded = load_checkpoint(path)
    for name, tensor in small_params.tensors.items():
        assert np.array_equal(loaded.tensors[name], tensor), name
    assert loaded.lora_rank == small_params.lora_rank
    assert loaded.lora_alpha == small_params.lora_alpha
    assert loaded.lora_dropout == pytest.approx(small_params.lora_dropout, abs=1e-7)

    # Saving what was loaded reproduces the file byte for byte.
    second = tmp_path / "model2.cemb"
    save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_truncated(tmp_path, small_params):
    path = tmp_path / "model.cemb"
    save_checkpoint(small_params, path)
    data = path.read_bytes()
    truncated = tmp_path / "broken.cemb"
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError) as err:
        load_checkpoint(truncated)
    assert err.value.code in ("E_BAD_MAGIC", "E_SHAPE_MISMATCH")

    tiny = tmp_path / "tiny.cemb"
    tiny.write_bytes(data[:3])
    with pytest.raises(DataError) as err:
        load_checkpoint(tiny)
    assert err.value.code in ("E_BAD_MAGIC", "E_SHAPE_MISMATCH")


def test_checkpoint_wrong_version(tmp_path, small_params):
    path = tmp_path / "model.cemb"
    save_checkpoint(small_params, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    bad = tmp_path / "badver.cemb"
    bad.write_bytes(bytes(data))
    with pytest.raises(DataError) as err:
        load_checkpoint(bad)
    assert err.value.code == "E_VERSION_MISMATCH"


def test_checkpoint_wrong_magic(tmp_path, small_params):
    path = tmp_path / "model.cemb"
    save_checkpoint(small_params, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    bad = tmp_path / "badmagic.cemb"
    bad.write_bytes(bytes(data))
    with pytest.raises(DataError) as err:
        load_checkpoint(bad)
    assert err.value.code == "E_BAD_MAGIC"


def test_checkpoint_missing_tensor(tmp_path, small_params):
    tensors = dict(small_params.tensors)
    tensors["lora_rank"] = np.array([4.0], dtype=np.float32)
    tensors["lora_alpha"] = np.array([8.0], dtype=np.float32)
    del tensors["W2"]
    path = tmp_path / "missing.cemb"
    write_tensors(path, tensors)
    with pytest.raises(DataError) as err:
        load_checkpoint(path)
    assert err.value.code == "E_SHAPE_MISMATCH"


@pytest.mark.parametrize("pooling", POOLINGS)
def test_checkpoint_pooling_roundtrip(tmp_path, small_params, pooling):
    path = tmp_path / "model.cemb"
    save_checkpoint(replace(small_params, pooling=pooling), path)
    assert read_tensors(path)["pooling"].tolist() == [float(POOLINGS.index(pooling))]
    loaded = load_checkpoint(path)
    assert loaded.pooling == pooling
    second = tmp_path / "model2.cemb"
    save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_without_pooling_loads_last_token(tmp_path, small_params):
    # Checkpoints written before pooling was stored were embedded with last_token.
    path = tmp_path / "old.cemb"
    save_checkpoint(small_params, path)
    tensors = read_tensors(path)
    del tensors["pooling"]
    write_tensors(path, tensors)
    loaded = load_checkpoint(path)
    assert loaded.pooling == "last_token"
    assert np.array_equal(encode_batch(["mitral valve"], loaded), encode_batch(["mitral valve"], small_params))


def test_init_params_deterministic():
    a = init_params(42, vocab_size=64, d_emb=4, d_hid=6, d_out=4)
    b = init_params(42, vocab_size=64, d_emb=4, d_hid=6, d_out=4)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert np.all(a.tensors["lora_B1"] == 0.0) and np.all(a.tensors["lora_B2"] == 0.0)
    assert np.max(np.abs(a.tensors["E"])) <= 0.05


def test_tensor_file_roundtrip(tmp_path):
    tensors = {
        "scalar": np.array([3.5], dtype=np.float32),
        "matrix": np.arange(12, dtype=np.float32).reshape(3, 4),
        "cube": np.ones((2, 2, 2), dtype=np.float32),
    }
    path = tmp_path / "t.cemb"
    write_tensors(path, tensors)
    loaded = read_tensors(path)
    assert list(loaded) == ["scalar", "matrix", "cube"]
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
