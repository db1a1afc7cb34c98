"""Shared fixtures: small encoder params and the synthetic two-cluster corpus."""

from __future__ import annotations

import numpy as np
import pytest

from minembed.corpus import SentenceRecord
from minembed.encoder import init_params
from minembed.triplets import FALLBACK_STOPWORDS

# Two disjoint 50-word vocabularies: 40 invented content words plus 10
# words from the fallback paraphraser's drop list per cluster.
_STOP_LIST = sorted(FALLBACK_STOPWORDS)
CLUSTER_VOCABS = {
    "cluster-a": ([f"zelphar{i:02d}" for i in range(40)], _STOP_LIST[:10]),
    "cluster-b": ([f"morvian{i:02d}" for i in range(40)], _STOP_LIST[10:20]),
}


def cluster_sentence(rng: np.random.Generator, source: str, n_content: int = 8, n_stop: int = 6) -> str:
    content, stop = CLUSTER_VOCABS[source]
    words = list(rng.choice(content, size=n_content, replace=False))
    words += list(rng.choice(stop, size=n_stop))
    rng.shuffle(words)
    return " ".join(words)


def two_cluster_records(n_per_cluster: int, seed: int, split: str = "unassigned") -> list[SentenceRecord]:
    rng = np.random.default_rng(seed)
    records = []
    for source in CLUSTER_VOCABS:
        for i in range(n_per_cluster):
            text = cluster_sentence(rng, source)
            records.append(
                SentenceRecord(
                    sent_id=f"{source}:{i:05d}",
                    source_name=source,
                    text=text,
                    char_len=len(text),
                    split=split,
                )
            )
    return records


@pytest.fixture
def small_params():
    """Down-scaled encoder: fast forward/backward for unit tests."""
    return init_params(11, vocab_size=512, d_emb=16, d_hid=24, d_out=12, lora_rank=4, lora_alpha=8.0)


def role_gradients(monkeypatch, a: np.ndarray, p: np.ndarray, n: np.ndarray, tau: float):
    """``trainer.infonce_gradient`` on fixed anchor, positive and negative
    embeddings: its batch report and the three gradients it hands to
    ``backward_batch``, in role order."""
    from minembed import trainer

    handed: list[np.ndarray] = []
    params = init_params(0, vocab_size=4, d_emb=2, d_hid=2, d_out=2, lora_rank=1)
    config = trainer.TrainConfig(temperature=tau, train_lora_only=True)
    # The stubs are undone on return, so the caller's later steps run the real encoder.
    with monkeypatch.context() as m:
        m.setattr(trainer, "_encode_roles", lambda batch, params, train_mode, seed, token_ids: [(a, None), (p, None), (n, None)])
        m.setattr(trainer, "backward_batch", lambda grad, cache, params, grads: handed.append(grad))
        _, report = trainer.infonce_gradient([None] * len(a), params, config)
    return report, tuple(handed)
