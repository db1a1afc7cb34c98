"""Encoder: tokenizer, forward pass, adapters, pooling, checkpoints."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed import encoder as encoder_mod
from minembed.encoder import (
    POOLINGS,
    EncoderParams,
    Tokenizer,
    backward_batch,
    encode_batch,
    fnv1a_64,
    forward_batch,
    init_params,
    load_checkpoint,
    pooled_ids,
    save_checkpoint,
    token_store,
)
from minembed.encoder import _token_ids
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


@pytest.mark.parametrize("token", ["Atrial", "ÉCHO", "naïve", "straße", "Ωmega", "心房", "x"])
def test_memoized_token_hash_matches_fnv1a(token):
    # Asked twice, so the second answer comes from the memo.
    for _ in range(2):
        for vocab in (64, 16384):
            assert _token_ids(vocab)[token] == fnv1a_64(token.encode("utf-8")) % vocab
    assert Tokenizer(vocab_size=64)(token) == [reference_fnv1a_64(token.lower().encode("utf-8")) % 64]


@functools.lru_cache(maxsize=None)
def _hash_memo(token: str) -> int:
    return fnv1a_64(token.encode("utf-8"))


def reference_tokenize(text: str, vocab_size: int) -> list[int]:
    """The tokenizer as it was before the per-vocabulary id memo: one memoized hash per token, then the modulus."""
    return [_hash_memo(tok) % vocab_size for tok in re.findall(r"[^\W_]+", text.lower())]


# Underscores and digits, letters whose lowercase form differs in length or kind
# (dotted capital I, sharp s, final sigma), a no-break space and punctuation.
_TOKENIZER_ALPHABET = "abzAZ09_İıßẞΣσςÉé心房\u00a0 \t\n.,;:!?-'\"()"


@given(st.lists(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=40), max_size=6))
@settings(max_examples=300)
def test_token_id_memo_matches_reference_tokenizer(texts):
    # Two vocabulary sizes in one process, each text asked twice: each size keeps its own memo.
    for _ in range(2):
        for text in texts:
            for vocab in (64, 16384):
                assert Tokenizer(vocab_size=vocab)(text) == reference_tokenize(text, vocab)


_REGEX_TOKEN = re.compile(r"[^\W_]+")


def regex_tokenize(text: str, vocab_size: int) -> list[int]:
    """The tokenizer as it was before its ASCII path: the regex over the lowercased text for every text."""
    return [fnv1a_64(tok.encode("utf-8")) % vocab_size for tok in _REGEX_TOKEN.findall(text.lower())]


_ASCII = "".join(map(chr, range(128)))
# Word characters whose lowercase form differs in length or kind, an Arabic-Indic digit,
# fullwidth letters and digits, a connector that is not a word character, and U+2028.
_NON_ASCII = "İẞΣ٣ＡｚＺ０‿\u2028"


@given(st.lists(st.one_of(st.text(alphabet=_ASCII, max_size=40), st.text(alphabet=_ASCII + _NON_ASCII, max_size=40)),
                max_size=6))
@settings(max_examples=500)
def test_ascii_path_gives_the_regex_ids(texts):
    for text in texts:
        for vocab in (64, 16384):
            assert Tokenizer(vocab_size=vocab)(text) == regex_tokenize(text, vocab), text


def test_a_token_found_by_both_paths_is_one_memo_entry():
    vocab = 7919  # a size no other test uses, so the memo starts empty
    memo = _token_ids(vocab)
    assert not memo
    ascii_ids = Tokenizer(vocab_size=vocab)("Word_2 word")
    both_ids = Tokenizer(vocab_size=vocab)("WORD 2 café")
    assert ascii_ids == [memo["word"], memo["2"], memo["word"]] and both_ids == [memo["word"], memo["2"], memo["café"]]
    assert sorted(memo) == ["2", "café", "word"]  # str keys only, each token once


# -- forward pass ----------------------------------------------------------------


def test_output_unit_norm(small_params):
    vectors = encode_batch(["mitral valve regurgitation", "x", "many words in this longer sentence"], small_params)
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_empty_tokens_rejected(small_params):
    with pytest.raises(DataError) as err:
        encode_batch(["valid text", "!!!"], small_params)
    assert err.value.code == "E_EMPTY_TOKENS"
    assert str(err.value) == "E_EMPTY_TOKENS: text 1 produced no tokens: '!!!'"


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
    params = init_params(3, vocab_size=128, d_emb=8, d_hid=12, d_out=6, lora_rank=16, lora_alpha=32.0,
                         pooling="last_token")
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


def reference_pooled_ids(texts, params):
    """``pooled_ids`` as it was before the token store: each text tokenized on its
    own, its ids (or its last) chained into one intp array, and a count per text."""
    per_text = [params.tokenizer(text) for text in texts]
    counts = np.array([len(ids) for ids in per_text], dtype=np.intp)
    if params.pooling == "mean":
        return np.array([i for ids in per_text for i in ids], dtype=np.intp), counts
    return np.array([ids[-1] for ids in per_text], dtype=np.intp), np.ones_like(counts)


@pytest.mark.parametrize("block", [7, 1024])  # texts tokenized at a time
@pytest.mark.parametrize("vocab_size", [256, 32_768, 40_000])
@pytest.mark.parametrize("pooling", POOLINGS)
def test_store_pools_the_ids_of_per_text_tokenizing(monkeypatch, block, vocab_size, pooling):
    monkeypatch.setattr(encoder_mod, "_STORE_BLOCK", block)
    params = replace(init_params(3, vocab_size=vocab_size, d_emb=2, d_hid=2, d_out=2, lora_rank=1), pooling=pooling)
    texts = reference_texts(40, seed=vocab_size)
    store = token_store(texts, params.tokenizer)
    # Every id of a vocabulary of at most 32,768 fits int16; a larger one takes int32.
    assert store.ids.dtype == (np.int16 if vocab_size <= 32_768 else np.int32)
    assert store.offsets.dtype == np.int64 and len(store.offsets) == len(texts) + 1
    assert vocab_size <= 32_768 or store.ids.max() > 32_767  # ids past int16's range are kept whole
    rng = np.random.default_rng(vocab_size)
    batches = [
        np.arange(len(texts)),
        rng.integers(0, len(texts), 64),  # out of order, with repeats
        np.array([2]),  # a 1-row batch
        np.array([1]),  # the one-token text
        np.array([1, 0, 1]),  # which ends as text 0 does
    ]
    for rows in batches:
        ids, counts = pooled_ids(rows, store, params)
        ref_ids, ref_counts = reference_pooled_ids([texts[r] for r in rows], params)
        assert same_bits(ids, ref_ids) and same_bits(counts.astype(np.intp), ref_counts), rows


@pytest.mark.parametrize("block", [1, 2, 1024])
def test_store_names_an_empty_text_by_its_place(monkeypatch, small_params, block):
    monkeypatch.setattr(encoder_mod, "_STORE_BLOCK", block)
    with pytest.raises(DataError) as err:
        token_store(iter(["a b", "c", "-- !!", "d", ""]), small_params.tokenizer)
    assert str(err.value) == "E_EMPTY_TOKENS: text 2 produced no tokens: '-- !!'"


def forward_texts(texts, params, train_mode=False, seed=0):
    """``forward_batch`` over every row of a store of ``texts``, as ``encode_batch`` runs it."""
    return forward_batch(np.arange(len(texts)), token_store(texts, params.tokenizer), params, train_mode, seed)


def test_pooling_strategies_differ(small_params):
    # Multi-token text whose token embeddings differ: mean and last-token
    # pooling must produce different pre-projection vectors.
    text = "alpha beta gamma delta"
    _, cache_mean = forward_texts([text], replace(small_params, pooling="mean"))
    _, cache_last = forward_texts([text], replace(small_params, pooling="last_token"))
    assert not np.array_equal(cache_mean.pooled, cache_last.pooled)


def test_single_token_pooling_agrees(small_params):
    _, cache_mean = forward_texts(["word"], replace(small_params, pooling="mean"))
    _, cache_last = forward_texts(["word"], replace(small_params, pooling="last_token"))
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
    old = replace(small_params, pooling="last_token")
    path = tmp_path / "old.cemb"
    save_checkpoint(old, path)
    tensors = read_tensors(path)
    del tensors["pooling"]
    write_tensors(path, tensors)
    loaded = load_checkpoint(path)
    assert loaded.pooling == "last_token"
    assert np.array_equal(encode_batch(["mitral valve"], loaded), encode_batch(["mitral valve"], old))


def test_init_params_deterministic():
    a = init_params(42, vocab_size=64, d_emb=4, d_hid=6, d_out=4)
    b = init_params(42, vocab_size=64, d_emb=4, d_hid=6, d_out=4)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert np.all(a.tensors["lora_B1"] == 0.0) and np.all(a.tensors["lora_B2"] == 0.0)
    assert np.max(np.abs(a.tensors["E"])) <= 0.05


SMALL_SHAPE = {"vocab_size": 16, "d_emb": 2, "d_hid": 2, "d_out": 2, "lora_rank": 1}


@pytest.mark.parametrize("encoder, code, named", [
    # Finite as a float64, but float32 checkpoint scalars would hold inf and 1.0.
    ({"lora_alpha": 1e39}, "E_BAD_ALPHA", "got 1e+39, inf as a float32"),
    ({"lora_alpha": -1e39}, "E_BAD_ALPHA", "-inf as a float32"),
    ({"lora_alpha": 10**400}, "E_BAD_ALPHA", "inf as a float32"),
    ({"lora_dropout": 0.99999999}, "E_BAD_DROPOUT", "got 0.99999999, 1.0 as a float32"),
    # Shapes numpy refuses before it allocates anything.
    ({"lora_rank": 10**30}, "E_SHAPE_TOO_LARGE", "lora_A1 of shape (1000000000000000000000000000000, 2)"),
    ({"vocab_size": 2**62}, "E_SHAPE_TOO_LARGE", "E of shape (4611686018427387904, 2)"),
    ({"d_hid": 10**30}, "E_SHAPE_TOO_LARGE", "W1 of shape (2, 1000000000000000000000000000000)"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_init_params_rejects_what_a_checkpoint_or_numpy_cannot_hold(encoder, code, named):
    with pytest.raises(DataError) as err:
        init_params(0, **{**SMALL_SHAPE, **encoder})
    assert err.value.code == code and named in str(err.value)


def test_alpha_and_dropout_at_the_float32_rounding_boundary(tmp_path):
    # From each halfway point on, float32 rounds to inf or to 1.0; just below it, to the last value it holds.
    alpha_edge, dropout_edge = 2.0**128 - 2.0**103, 1.0 - 2.0**-25
    for encoder, code in [({"lora_alpha": alpha_edge}, "E_BAD_ALPHA"),
                          ({"lora_dropout": dropout_edge}, "E_BAD_DROPOUT")]:
        with pytest.raises(DataError) as err:
            init_params(0, **SMALL_SHAPE, **encoder)
        assert err.value.code == code
    alpha, dropout = math.nextafter(alpha_edge, 0.0), math.nextafter(dropout_edge, 0.0)
    save_checkpoint(init_params(0, **SMALL_SHAPE, lora_alpha=alpha, lora_dropout=dropout), tmp_path / "m.cemb")
    loaded = load_checkpoint(tmp_path / "m.cemb")
    assert (loaded.lora_alpha, loaded.lora_dropout) == (float(np.finfo(np.float32).max), 1.0 - 2.0**-24)


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


# -- the token-table encoder against the per-text reference ------------------------


def reference_forward(texts, params, train_mode=False, seed=0):
    """The encoder's forward pass as written before the token table: each text
    tokenized and pooled in its own loop iteration, each layer spelled out."""
    mean_pool = params.pooling == "mean"
    t = params.tensors
    n, d_emb = len(texts), t["E"].shape[1]
    pooled = np.empty((n, d_emb))
    token_ids = []
    for i, text in enumerate(texts):
        ids = params.tokenizer(text)
        token_ids.append(ids)
        rows = t["E"][ids]
        pooled[i] = rows.mean(axis=0) if mean_pool else rows[-1]
    p = params.lora_dropout
    if train_mode and p > 0.0:
        rng = np.random.default_rng(seed)
        mask1 = (rng.random((n, d_emb)) >= p) / (1.0 - p)
        mask2 = (rng.random((n, t["W1"].shape[1])) >= p) / (1.0 - p)
    else:
        mask1, mask2 = np.ones((n, d_emb)), np.ones((n, t["W1"].shape[1]))
    scale = params.scale
    adapter1 = t["lora_A1"].T @ t["lora_B1"].T
    adapter2 = t["lora_A2"].T @ t["lora_B2"].T
    hidden = np.tanh(pooled @ t["W1"] + t["b1"] + scale * ((pooled * mask1) @ adapter1))
    raw_out = hidden @ t["W2"] + t["b2"] + scale * ((hidden * mask2) @ adapter2)
    norms = np.linalg.norm(raw_out, axis=1, keepdims=True)
    outputs = raw_out / norms
    cache = dict(token_ids=token_ids, pooled=pooled, mask1=mask1, mask2=mask2, hidden=hidden, norms=norms,
                 outputs=outputs)
    return outputs, cache


def reference_backward(grad_outputs, cache, params, grads):
    """The backward pass as written before the token table, one ``E`` scatter per text."""
    t = params.tensors
    train_base = "E" in grads
    scale = params.scale
    y, norms = cache["outputs"], cache["norms"]
    grad_u = (grad_outputs - (y * grad_outputs).sum(axis=1, keepdims=True) * y) / norms
    hidden, hidden_d = cache["hidden"], cache["hidden"] * cache["mask2"]
    if train_base:
        grads["W2"] += hidden.T @ grad_u
        grads["b2"] += grad_u.sum(axis=0)
    g2 = hidden_d.T @ grad_u
    grads["lora_A2"] += scale * (g2 @ t["lora_B2"]).T
    grads["lora_B2"] += scale * g2.T @ t["lora_A2"].T
    adapter2 = t["lora_A2"].T @ t["lora_B2"].T
    grad_hidden = grad_u @ t["W2"].T + (scale * grad_u @ adapter2.T) * cache["mask2"]
    grad_pre = grad_hidden * (1.0 - hidden * hidden)
    pooled, pooled_d = cache["pooled"], cache["pooled"] * cache["mask1"]
    if train_base:
        grads["W1"] += pooled.T @ grad_pre
        grads["b1"] += grad_pre.sum(axis=0)
    g1 = pooled_d.T @ grad_pre
    grads["lora_A1"] += scale * (g1 @ t["lora_B1"]).T
    grads["lora_B1"] += scale * g1.T @ t["lora_A1"].T
    if train_base:
        adapter1 = t["lora_A1"].T @ t["lora_B1"].T
        grad_pooled = grad_pre @ t["W1"].T + (scale * grad_pre @ adapter1.T) * cache["mask1"]
        for i, ids in enumerate(cache["token_ids"]):
            if params.pooling == "mean":
                np.add.at(grads["E"], ids, grad_pooled[i] / len(ids))
            else:
                grads["E"][ids[-1]] += grad_pooled[i]


def reference_texts(n: int, seed: int) -> list[str]:
    """``n`` texts of 1 to 34 words from a 40-word list. The first repeats a
    word within itself; the second is one token, and ends as the first does."""
    words = [f"tok{k:02d}" for k in range(40)]
    fixed = ["tok03 tok07 tok03 tok07", "tok07", " ".join(words[:30] + words[:4])]
    rng = np.random.default_rng(seed)
    return fixed[:n] + [" ".join(rng.choice(words, size=int(rng.integers(1, 35)))) for _ in range(n - 3)]


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [1, 2, 128])
@pytest.mark.parametrize("pooling", POOLINGS)
def test_token_table_encoder_matches_per_text_reference(n, pooling):
    params = replace(init_params(4, vocab_size=256, d_emb=16, d_hid=24, d_out=12, lora_rank=4, lora_alpha=8.0),
                     pooling=pooling)
    rng = np.random.default_rng(n)
    for name in ("lora_B1", "lora_B2"):  # nonzero adapters, so dropout shows in every gradient
        params.tensors[name] = rng.normal(0, 0.3, params.tensors[name].shape)
    texts = reference_texts(n, seed=n)
    token_ids = [params.tokenizer(text) for text in texts]
    assert any(len(set(ids)) < len(ids) for ids in token_ids)  # repeats within a text
    assert n == 1 or token_ids[0][-1] == token_ids[1][-1]  # and across texts, for both poolings
    grad_outputs = rng.normal(0, 1, (n, 12))
    for train_mode in (False, True):
        outputs, cache = forward_texts(texts, params, train_mode, seed=9)
        ref_outputs, ref_cache = reference_forward(texts, params, train_mode, seed=9)
        assert same_bits(outputs, ref_outputs)
        for name in ("pooled", "hidden", "norms"):
            assert same_bits(getattr(cache, name), ref_cache[name]), name
        for name in ("mask1", "mask2"):  # dropout off keeps no all-ones mask
            assert same_bits(getattr(cache, name), ref_cache[name]) if train_mode else getattr(cache, name) is None
        for lora_only in (False, True):
            names = params.trainable_names(lora_only)
            grads = {name: np.zeros_like(params.tensors[name]) for name in names}
            ref_grads = {name: np.zeros_like(params.tensors[name]) for name in names}
            # Two passes into one buffer, as the three roles of a training step do.
            for _ in range(2):
                backward_batch(grad_outputs, cache, params, grads)
                reference_backward(grad_outputs, ref_cache, params, ref_grads)
            for name in names:
                assert same_bits(grads[name], ref_grads[name]), (train_mode, lora_only, name)
