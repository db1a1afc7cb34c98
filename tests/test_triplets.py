"""Triplet building: paraphrase providers, negative sampling, determinism."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from minembed.corpus import SentenceRecord
from minembed.errors import DataError
from minembed.storage import read_jsonl, write_jsonl
from minembed.triplets import (
    FALLBACK_STOPWORDS,
    NegativePolicy,
    SubprocessProvider,
    Triplet,
    build_triplets,
    fallback_paraphrase,
    generate_positive,
    sample_hard_negative,
)

from conftest import two_cluster_records


def record(sent_id: str, text: str, source: str = "src", split: str = "train") -> SentenceRecord:
    return SentenceRecord(sent_id=sent_id, source_name=source, text=text, char_len=len(text), split=split)


# -- fallback paraphrase -------------------------------------------------------


def test_fallback_rotation():
    # 6 words: k = (6 mod 5) + 1 = 2, fewer than 8 non-stopwords so no drop.
    assert fallback_paraphrase("the left atrium is enlarged today") == "atrium is enlarged today the left"


def test_fallback_deterministic():
    text = "the left atrium is enlarged today"
    assert fallback_paraphrase(text) == fallback_paraphrase(text)


def test_fallback_drops_stopwords_when_enough_words_remain():
    content = "apex basal chamber distal ejection fraction gradient hypertrophy"
    text = "the " + content + " of"
    out = fallback_paraphrase(text)
    assert set(out.split()) == set(content.split())
    assert len(out.split()) == 8


def test_fallback_keeps_stopwords_when_too_few_would_remain():
    text = "the of for and with mitral valve"
    out = fallback_paraphrase(text)
    assert sorted(out.split()) == sorted(text.split())


def test_generate_positive_rejects_empty_provider_output():
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "some anchor sentence"), lambda text: "")
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


def test_generate_positive_rejects_identical_output():
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "some anchor sentence"), lambda text: text)
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


def test_generate_positive_single_word_degenerate_under_fallback():
    # A one-word anchor rotates onto itself.
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "pneumonoultramicroscopic"), fallback_paraphrase)
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


# -- subprocess provider -------------------------------------------------------

_ECHO_PROVIDER = (
    f"{sys.executable} -c \"import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'paraphrase': 'echo ' + req['text']}), flush=True)\""
)


def test_subprocess_provider_wire_protocol():
    with SubprocessProvider(_ECHO_PROVIDER) as provider:
        assert provider("left atrium") == "echo left atrium"
        assert provider("unicode café") == "echo unicode café"


def test_subprocess_provider_unavailable():
    with pytest.raises(DataError) as err:
        SubprocessProvider("/nonexistent/binary-xyz")
    assert err.value.code == "E_PROVIDER_UNAVAILABLE"


def test_subprocess_provider_malformed_response():
    bad = f"{sys.executable} -c \"import sys\nfor line in sys.stdin: print('not json', flush=True)\""
    with SubprocessProvider(bad) as provider:
        with pytest.raises(DataError) as err:
            provider("text")
        assert err.value.code == "E_PROVIDER_UNAVAILABLE"


# -- hard negative sampling ----------------------------------------------------


def distant_records(n: int, source: str = "src") -> list[SentenceRecord]:
    return [record(f"{source}:{i}", f"sentence number {i} from {source}", source=source) for i in range(n)]


def test_two_record_corpus_returns_the_other():
    records = distant_records(2)
    policy = NegativePolicy(min_index_distance=1, seed=0)
    assert sample_hard_negative(0, records, policy).sent_id == "src:1"
    assert sample_hard_negative(1, records, policy).sent_id == "src:0"


def test_distance_at_least_corpus_size_has_no_candidates():
    records = distant_records(5)
    policy = NegativePolicy(min_index_distance=5, seed=0)
    with pytest.raises(DataError) as err:
        sample_hard_negative(2, records, policy)
    assert err.value.code == "E_NO_ELIGIBLE_NEGATIVE"


def test_distance_constraint_respected():
    records = distant_records(50)
    policy = NegativePolicy(min_index_distance=20, seed=1)
    for anchor in (0, 25, 49):
        for draw_seed in range(20):
            chosen = sample_hard_negative(anchor, records, NegativePolicy(20, False, draw_seed))
            assert abs(records.index(chosen) - anchor) >= 20


def test_cross_source_preferred_when_satisfiable():
    records = distant_records(10, "s1") + distant_records(10, "s2")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=3)
    chosen = sample_hard_negative(2, records, policy)
    assert chosen.source_name == "s2"


def test_cross_source_relaxed_when_unsatisfiable():
    records = distant_records(10, "only")
    policy = NegativePolicy(min_index_distance=3, require_different_source=True, seed=3)
    chosen = sample_hard_negative(0, records, policy)
    assert chosen.source_name == "only"


def test_sampling_uniform_chi_square():
    """10,000 seeded draws over the eligible set, checked bucket-wise at 3 sigma."""
    n, distance, anchor = 1000, 100, 500
    records = distant_records(n)
    eligible = [i for i in range(n) if abs(i - anchor) >= distance]
    counts = {i: 0 for i in eligible}
    draws = 10_000
    for draw_seed in range(draws):
        chosen = sample_hard_negative(anchor, records, NegativePolicy(distance, False, draw_seed))
        counts[int(chosen.sent_id.split(":")[1])] += 1
    assert sum(counts.values()) == draws
    # 20 equal buckets over the eligible set; each expected draws/20.
    buckets = np.array_split(np.array([counts[i] for i in eligible]), 20)
    expected = draws / 20
    sigma = (draws * (1 / 20) * (19 / 20)) ** 0.5
    for bucket in buckets:
        assert abs(bucket.sum() - expected) <= 3 * sigma
    chi2 = sum((bucket.sum() - expected) ** 2 / expected for bucket in buckets)
    assert chi2 < 43.8  # chi-square 99.9th percentile, 19 dof


def test_sampling_accepts_manifest():
    manifest = distant_records(4)
    policy = NegativePolicy(min_index_distance=2, seed=0)
    chosen = sample_hard_negative(0, manifest, policy)
    assert chosen.sent_id in ("src:2", "src:3")


# -- build_triplets --------------------------------------------------------------


def test_build_one_triplet_per_anchor():
    manifest = distant_records(10)
    policy = NegativePolicy(min_index_distance=1, seed=7)
    result = build_triplets(manifest, policy)
    assert len(result.triplets) == 10
    assert result.skipped_paraphrase == 0
    for t in result.triplets:
        assert t.anchor_id != t.negative_id
        assert t.positive_text != t.anchor_text
        assert t.split == "train"


def test_build_empty_split_is_empty():
    manifest = []
    result = build_triplets(manifest, NegativePolicy(min_index_distance=1, seed=0))
    assert result.triplets == []


def test_build_reproducible_byte_identical():
    manifest = two_cluster_records(30, seed=5, split="train")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=9)
    rows_a = [t.to_row() for t in build_triplets(manifest, policy).triplets]
    rows_b = [t.to_row() for t in build_triplets(manifest, policy).triplets]
    assert rows_a == rows_b


def test_build_counts_unparaphrasable_anchors():
    records = distant_records(6)
    records.append(record("src:single", "antidisestablishmentarianism"))
    result = build_triplets(records, NegativePolicy(min_index_distance=1, seed=0))
    assert result.skipped_paraphrase == 1
    assert len(result.triplets) == 6


def test_build_counts_negative_skips_without_abort():
    result = build_triplets(distant_records(4), NegativePolicy(min_index_distance=4, seed=0))
    assert result.triplets == []
    assert result.skipped_negative == 4


def test_build_anchor_and_negative_same_split():
    records = distant_records(12)
    for i, r in enumerate(records):
        r.split = "train" if i % 2 == 0 else "val"
    result = build_triplets(records, NegativePolicy(min_index_distance=1, seed=1))
    id_to_split = {r.sent_id: r.split for r in records}
    for t in result.triplets:
        assert id_to_split[t.anchor_id] == t.split
        assert id_to_split[t.negative_id] == t.split


def test_cross_source_invariant_on_multisource_corpus():
    manifest = two_cluster_records(25, seed=2, split="train")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=4)
    result = build_triplets(manifest, policy)
    source_of = {r.sent_id: r.source_name for r in manifest}
    for t in result.triplets:
        assert source_of[t.anchor_id] != source_of[t.negative_id]


def test_triplet_rows_roundtrip(tmp_path):
    t = Triplet("a", "anchor text", "positive text", "n", "negative text", "train")
    write_jsonl(tmp_path / "t.jsonl", [t.to_row()])
    assert read_jsonl(tmp_path / "t.jsonl", Triplet.from_row) == [t]
