"""Corpus pipeline: cleaning, segmentation, filtering, dedup, split, stats."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minembed.corpus import (
    RawDocument,
    SentenceRecord,
    build_manifest,
    clean_text,
    corpus_stats,
    deduplicate,
    filter_short,
    normalized_form,
    segment_sentences,
    stratified_split,
)
from minembed.encoder import Tokenizer
from minembed.errors import DataError
from minembed.storage import read_jsonl, write_jsonl


def record(sent_id: str, text: str, source: str = "src", split: str = "unassigned") -> SentenceRecord:
    return SentenceRecord(sent_id=sent_id, source_name=source, text=text, char_len=len(text), split=split)


# -- clean_text ---------------------------------------------------------------


def test_clean_strips_tags_and_collapses_whitespace():
    assert clean_text("<b>LV</b>  function") == "LV function"


def test_clean_empty_is_identity():
    assert clean_text("") == ""


def test_clean_citations_and_page_number_lines():
    # Reference pipeline applying the rule list in order: citation marker
    # removed, digit-only line dropped, whitespace collapsed and trimmed.
    assert clean_text("Ejection fraction [12] is low.\n42\n") == "Ejection fraction is low."


def test_clean_citation_ranges_and_lists():
    assert clean_text("Seen in trials [1, 2] and [3-5].") == "Seen in trials and ."
    assert clean_text("As shown [12,13].") == "As shown ."


def test_clean_markdown():
    assert clean_text("# Heading\n\nSome **bold** and _em_ text.") == "Heading\n\nSome bold and em text."
    assert clean_text("See [the guide](http://x) now.") == "See the guide now."
    assert clean_text("![scan](img.png) Heart image.") == "scan Heart image."


def test_clean_preserves_paragraph_breaks():
    assert clean_text("First para.\n\nSecond para.") == "First para.\n\nSecond para."
    assert clean_text("One\nline wrap.") == "One line wrap."


text_strategy = st.text(
    alphabet=st.sampled_from(list("abcXYZ0129 .!?#*_`<>[]()\n\t -")),
    max_size=120,
)


@given(text_strategy)
@settings(max_examples=300)
def test_clean_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


# -- segment_sentences --------------------------------------------------------


def test_segment_basic_split():
    assert segment_sentences("The LV is dilated. EF is 25%.") == ["The LV is dilated.", "EF is 25%."]


def test_segment_decimal_not_split():
    assert segment_sentences("Dose was 2.5 mg daily.") == ["Dose was 2.5 mg daily."]


def test_segment_abbreviation_exceptions():
    assert segment_sentences("See Fig. 3 for detail. Next point.") == [
        "See Fig. 3 for detail.",
        "Next point.",
    ]
    assert segment_sentences("Stented vs. Bypass options differ. Choose one.") == [
        "Stented vs. Bypass options differ.",
        "Choose one.",
    ]
    assert segment_sentences("Ask Dr. Smith today. He knows.") == ["Ask Dr. Smith today.", "He knows."]


def test_segment_single_letter_initial():
    assert segment_sentences("Written by J. Smith. Read it.") == ["Written by J. Smith.", "Read it."]


def test_segment_paragraph_breaks_always_split():
    assert segment_sentences("one fragment\n\nanother fragment") == ["one fragment", "another fragment"]


def test_segment_terminators():
    assert segment_sentences("Is it stenosis? Yes! Confirmed.") == ["Is it stenosis?", "Yes!", "Confirmed."]


@given(
    st.text(
        alphabet=st.sampled_from(list("abcDEF histol.!? 35\n")),
        max_size=120,
    )
)
@settings(max_examples=300)
def test_segment_conserves_characters(text):
    cleaned = clean_text(text)
    for paragraph in cleaned.split("\n\n"):
        joined = " ".join(segment_sentences(paragraph))
        assert "".join(joined.split()) == "".join(paragraph.split())


# -- filter_short -------------------------------------------------------------


def test_filter_short_threshold():
    kept = filter_short(["Short.", "This sentence is long enough."])
    assert kept == ["This sentence is long enough."]


def test_filter_short_empty():
    assert filter_short([]) == []


def test_filter_short_boundary_inclusive():
    exactly_twenty = "a123456789b123456789"
    assert len(exactly_twenty) == 20
    assert filter_short([exactly_twenty]) == [exactly_twenty]


def test_filter_preserves_order():
    sents = ["first long-enough sentence here", "tiny", "second long-enough sentence here"]
    assert filter_short(sents) == [sents[0], sents[2]]


# -- deduplicate --------------------------------------------------------------


def naive_dedup(records):
    """Brute-force pairwise oracle for duplicate removal."""
    kept = []
    for i, rec in enumerate(records):
        duplicate = any(normalized_form(records[j].text) == normalized_form(rec.text) for j in range(i))
        if not duplicate:
            kept.append(rec)
    return kept


def test_dedup_normalization_rule():
    records = [record("a", "The RA is enlarged."), record("b", "the ra is enlarged.")]
    survivors = deduplicate(records)
    assert [r.sent_id for r in survivors] == ["a"]


def test_dedup_all_unique_is_identity():
    records = [record(str(i), f"unique sentence number {i}") for i in range(5)]
    assert deduplicate(records) == records


def test_dedup_three_copies_two_sources_keeps_earliest():
    records = [
        record("a0", "Totally different sentence.", source="s1"),
        record("a1", "The valve is calcified.", source="s1"),
        record("b0", "the valve is calcified", source="s2"),
        record("b1", "The valve  is calcified.", source="s2"),
    ]
    survivors = deduplicate(records)
    assert survivors == naive_dedup(records)
    assert [r.sent_id for r in survivors] == ["a0", "a1"]
    assert survivors[1].source_name == "s1"


@given(st.lists(st.sampled_from(["Alpha beta.", "alpha  beta", "Gamma delta!", "epsilon zeta", "GAMMA DELTA"]), max_size=12))
@settings(max_examples=200)
def test_dedup_idempotent_and_order_preserving(texts):
    records = [record(str(i), t) for i, t in enumerate(texts)]
    once = deduplicate(records)
    assert deduplicate(once) == once
    assert len(once) <= len(records)
    positions = [records.index(r) for r in once]
    assert positions == sorted(positions)
    assert once == naive_dedup(records)


# -- stratified_split ---------------------------------------------------------


def manifest_with_sources(counts: dict[str, int]) -> list[SentenceRecord]:
    records = []
    for source, n in sorted(counts.items()):
        for i in range(n):
            records.append(record(f"{source}:{i}", f"sentence {i} of {source} corpus", source=source))
    return records


def test_split_ninety_ten():
    manifest = manifest_with_sources({"s1": 10})
    split = stratified_split(manifest, train_frac=0.9, seed=3)
    assert sum(r.split == "train" for r in split) == 9
    assert sum(r.split == "val" for r in split) == 1


def test_split_single_record_source_goes_to_train():
    manifest = manifest_with_sources({"s1": 1})
    split = stratified_split(manifest, train_frac=0.9, seed=3)
    assert split[0].split == "train"


def test_split_deterministic():
    manifest = manifest_with_sources({"s1": 25, "s2": 13})
    a = stratified_split(manifest, train_frac=0.9, seed=5)
    b = stratified_split(manifest, train_frac=0.9, seed=5)
    assert [r.split for r in a] == [r.split for r in b]
    c = stratified_split(manifest, train_frac=0.9, seed=6)
    assert [r.split for r in a] != [r.split for r in c]


def test_split_round_half_up_per_source():
    for n in (1, 2, 3, 5, 7, 10, 19, 100, 101):
        manifest = manifest_with_sources({"s": n})
        split = stratified_split(manifest, train_frac=0.9, seed=1)
        assert sum(r.split == "train" for r in split) == math.floor(0.9 * n + 0.5)


def test_split_partitions_every_record():
    manifest = manifest_with_sources({"s1": 17, "s2": 4, "s3": 31})
    split = stratified_split(manifest, train_frac=0.9, seed=2)
    assert all(r.split in ("train", "val", "test") for r in split)
    per_source_train = {
        s: sum(r.split == "train" and r.source_name == s for r in split) for s in ("s1", "s2", "s3")
    }
    assert per_source_train == {"s1": math.floor(17 * 0.9 + 0.5), "s2": math.floor(4 * 0.9 + 0.5), "s3": math.floor(31 * 0.9 + 0.5)}


def test_split_with_test_fraction():
    manifest = manifest_with_sources({"s1": 20})
    split = stratified_split(manifest, train_frac=0.8, seed=9, test_frac=0.2)
    counts = {s: sum(r.split == s for r in split) for s in ("train", "val", "test")}
    assert counts == {"train": 16, "test": 4, "val": 0}


def test_split_rejects_preassigned():
    manifest = [record("a", "already split sentence", split="train")]
    with pytest.raises(DataError) as err:
        stratified_split(manifest, seed=0)
    assert err.value.code == "E_ALREADY_SPLIT"


def test_split_rejects_bad_fraction():
    manifest = manifest_with_sources({"s1": 5})
    for frac in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DataError):
            stratified_split(manifest, train_frac=frac, seed=0)


# -- corpus_stats -------------------------------------------------------------


def test_stats_mean_and_sd():
    manifest = [record("a", "one two three"), record("b", "one two three four five")]
    stats = corpus_stats(manifest, Tokenizer())
    assert stats.sentence_count == 2
    assert stats.word_count == 8
    assert stats.mean_len_tokens == pytest.approx(4.0)
    assert stats.sd_len_tokens == pytest.approx(1.0)
    assert stats.token_count == 8


def test_stats_single_sentence_sd_zero():
    manifest = [record("a", "only one sentence here")]
    stats = corpus_stats(manifest, Tokenizer())
    assert stats.sd_len_tokens == 0.0


def test_stats_empty_corpus_rejected():
    with pytest.raises(DataError) as err:
        corpus_stats([], Tokenizer())
    assert err.value.code == "E_EMPTY_CORPUS"


def test_stats_match_naive_recount():
    rng = np.random.default_rng(4)
    words = ["alpha", "Beta", "GAMMA", "delta", "beta"]
    records = [
        record(str(i), " ".join(rng.choice(words, size=rng.integers(3, 9))))
        for i in range(30)
    ]
    stats = corpus_stats(records, Tokenizer())

    # Independent recount with plain Python.
    all_words = [w for r in records for w in r.text.split()]
    lens = [len(Tokenizer()(r.text)) for r in records]
    mean = sum(lens) / len(lens)
    sd = math.sqrt(sum((x - mean) ** 2 for x in lens) / len(lens))
    assert stats.word_count == len(all_words)
    assert stats.unique_term_count == len({w.lower() for w in all_words})
    assert stats.token_count == sum(lens)
    assert stats.mean_len_tokens == pytest.approx(mean)
    assert stats.sd_len_tokens == pytest.approx(sd)


# -- build_manifest & manifest IO ----------------------------------------------


def test_build_manifest_orders_by_source_then_position():
    docs = [
        RawDocument("d2", "zebra-book", "Zebra sentence number one is long. Zebra sentence number two is long."),
        RawDocument("d1", "alpha-book", "Alpha sentence number one is long."),
    ]
    manifest = build_manifest(docs)
    assert [r.source_name for r in manifest] == ["alpha-book", "zebra-book", "zebra-book"]


def test_build_manifest_rejects_duplicate_doc_ids():
    docs = [RawDocument("d", "s", "text one is long enough."), RawDocument("d", "s", "text two is long enough.")]
    with pytest.raises(DataError):
        build_manifest(docs)


def test_manifest_rows_roundtrip(tmp_path):
    manifest = manifest_with_sources({"s1": 3})
    write_jsonl(tmp_path / "m.jsonl", [r.to_row() for r in manifest])
    assert read_jsonl(tmp_path / "m.jsonl", SentenceRecord.from_row) == manifest


def test_empty_document_yields_no_records():
    manifest = build_manifest([RawDocument("d", "s", "")])
    assert manifest == []
