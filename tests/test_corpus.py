"""Corpus pipeline: cleaning, segmentation, filtering, dedup, split, stats."""

from __future__ import annotations

import math
import random
import re
import string
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minembed import corpus
from minembed.corpus import (
    _MD_EMPHASIS_RE,
    RawDocument,
    SentenceRecord,
    _is_abbreviation_boundary,
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
    with pytest.raises(DataError, match=r"^E_BAD_FRACTION: train_frac must be in \(0, 1\), got nan$"):
        stratified_split(manifest, train_frac=float("nan"), seed=0)
    with pytest.raises(DataError, match=r"^E_BAD_FRACTION: test_frac must be >= 0, got -0\.5$"):
        stratified_split(manifest, train_frac=0.9, seed=0, test_frac=-0.5)
    with pytest.raises(DataError, match=r"^E_BAD_FRACTION: test_frac must be >= 0, got nan$"):
        stratified_split(manifest, train_frac=0.9, seed=0, test_frac=float("nan"))
    with pytest.raises(DataError, match=r"^E_BAD_FRACTION: train_frac \+ test_frac must be <= 1, got 1\.25$"):
        stratified_split(manifest, train_frac=0.5, seed=0, test_frac=0.75)


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
    assert all(SentenceRecord.from_row(r.to_row()) == r for r in manifest)
    docs = [RawDocument("d1", "s1", "Text one.\n\nTwo"), RawDocument("d2", "s2", "")]
    write_jsonl(tmp_path / "d.jsonl", [d.to_row() for d in docs])
    assert read_jsonl(tmp_path / "d.jsonl", RawDocument.from_row) == docs
    assert all(RawDocument.from_row(d.to_row()) == d for d in docs)
    # A row without a split is unassigned; one with a null text is not the text "None".
    row = {k: v for k, v in manifest[0].to_row().items() if k != "split"}
    assert SentenceRecord.from_row(row).split == "unassigned"
    with pytest.raises(TypeError):
        SentenceRecord.from_row({**row, "text": None})


def test_a_manifest_row_names_a_split_or_unassigned():
    row = record("a", "a sentence long enough").to_row()
    assert [SentenceRecord.from_row({**row, "split": s}).split for s in ("train", "val", "test", "unassigned")] == [
        "train", "val", "test", "unassigned"]
    for split in ("Train", "", "dev"):
        with pytest.raises(ValueError, match=f"'split' must be one of .*, got '{split}'"):
            SentenceRecord.from_row({**row, "split": split})


def test_empty_document_yields_no_records():
    manifest = build_manifest([RawDocument("d", "s", "")])
    assert manifest == []


# -- the markup and boundary rewrites, against the code they replaced ----------

# Test-local copies of the code the rewrites replaced, the reference for
# each: the emphasis rule, the boundary exception, cleaning and segmentation.
_OLD_ABBREVIATIONS = ("fig.", "e.g.", "i.e.", "dr.", "et al.", "vs.", "no.")
_OLD_EMPHASIS_RE = re.compile(r"\*\*|__|[*`]|(?<!\w)_|_(?!\w)")
_OLD_INITIAL_RE = re.compile(r"(?:^|[\s(\"'])[A-Za-z]\.$")


def old_is_abbreviation_boundary(prefix: str) -> bool:
    lowered = prefix.lower()
    if any(lowered.endswith(abbr) for abbr in _OLD_ABBREVIATIONS):
        return True
    return bool(_OLD_INITIAL_RE.search(prefix))


def old_clean_text(raw: str) -> str:
    text = raw
    while True:
        updated = re.sub(r"<[^<>]*>", " ", text)
        updated = re.sub(r"(?m)^[^\S\n]*#{1,6}(?=\s|$)[^\S\n]*", "", updated)
        updated = _OLD_EMPHASIS_RE.sub("", updated)
        updated = re.sub(r"\[\d+(?:\s*[,–-]\s*\d+)*\]", " ", updated)
        updated = re.sub(r"!\[([^\]]*)\]\([^)]*\)", r"\1", updated)
        updated = re.sub(r"\[([^\]]+)\]\([^)]*\)", r"\1", updated)
        if updated == text:
            break
        text = updated
    text = "\n".join(ln for ln in text.split("\n") if not ln.strip().isdigit())
    paragraphs = [" ".join(p.split()) for p in re.split(r"\n\s*\n", text)]
    return "\n\n".join(p for p in paragraphs if p)


def old_segment_sentences(text: str) -> list[str]:
    sentences: list[str] = []
    for paragraph in re.split(r"\n+", text):
        if not paragraph.strip():
            continue
        start = 0
        for match in re.finditer(r"[.!?](?=\s+[A-Z0-9])", paragraph):
            end = match.end()
            if paragraph[end - 1] == "." and old_is_abbreviation_boundary(paragraph[start:end]):
                continue
            piece = paragraph[start:end].strip()
            if piece:
                sentences.append(piece)
            start = end
        tail = paragraph[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


# Word and non-word characters around the markup, Unicode letters whose case
# mapping changes length or form, every kind of space, and the abbreviations.
_REWRITE_PIECES = st.sampled_from(
    [*"*_`", *string.ascii_letters, *string.digits, *"éİΣ", *" \t\n\u00a0", *"(\"'."]
) | st.sampled_from([*_OLD_ABBREVIATIONS, *(a.upper() for a in _OLD_ABBREVIATIONS), "Fig.", "Dr.", "Et al."])
rewrite_text = st.lists(_REWRITE_PIECES, max_size=40).map("".join)


@given(rewrite_text)
@settings(max_examples=500)
@example("a_b _c d_ __e__ _ **f** *g* `h` é_ _é İ_x")
def test_emphasis_rule_removes_what_the_old_pattern_removed(text):
    assert [m.span() for m in _MD_EMPHASIS_RE.finditer(text)] == [m.span() for m in _OLD_EMPHASIS_RE.finditer(text)]
    assert _MD_EMPHASIS_RE.sub("", text) == _OLD_EMPHASIS_RE.sub("", text)


# A search window of 3 characters instead of 4 would miss an initial before
# a final newline, as in "(a.\n".
@given(st.tuples(rewrite_text, st.sampled_from(["", ".", ".\n", "\n", " a.", "(a.\n"])).map("".join))
@settings(max_examples=500)
@example("(a.\n")
@example("a.\n")
@example("x. \"b.")
@example("Et al.")
@example("İ.")
def test_abbreviation_boundary_matches_the_unbounded_search(prefix):
    assert _is_abbreviation_boundary(prefix) == old_is_abbreviation_boundary(prefix)


def test_build_manifest_matches_the_old_cleaning_and_segmentation(tmp_path, monkeypatch):
    # Small documents shaped like the benchmark's `mine` workload: every
    # sentence carries markup or a citation.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from synth import Shape, write_inputs

    shape = Shape(sources=3, docs_per_source=2, paragraphs_per_doc=4, markup_rate=1.0, boilerplate_paragraphs=2,
                  pool_docs=1, pool_sentences_per_doc=2, pairs=1, qrels=1, epochs=1, lora_only=True)
    for seed in range(3):
        write_inputs(shape, seed, tmp_path, "mine")
        docs = read_jsonl(tmp_path / "docs.jsonl", RawDocument.from_row)
        assert all(mark in "".join(d.text for d in docs) for mark in ("**", "`", "<b>", "](", "#"))
        manifest = build_manifest(docs)
        with monkeypatch.context() as m:
            m.setattr(corpus, "clean_text", old_clean_text)
            m.setattr(corpus, "segment_sentences", old_segment_sentences)
            expected = build_manifest(docs)
        assert len(manifest) > 20 and manifest == expected


# Segmentation passes the boundary test only a prefix's last characters.
# `old_segment_sentences` passes it the whole prefix, as `segment_sentences`
# did before, so it is the reference.
@given(st.lists(_REWRITE_PIECES, max_size=80).map("".join))
@settings(max_examples=500)
@example("See Fig. A. See Fig. A. See")
@example("x et al. B. An Et al. C")
@example("İ. A ΣΣ. B x. \"b. C")
@example("A. B")
@example("(a. B e.g. C\nI.e. D")
def test_segmentation_matches_the_whole_prefix_search(text):
    assert segment_sentences(text) == old_segment_sentences(text)


def test_segmentation_is_linear_in_a_paragraph_of_abbreviations():
    # One paragraph, one sentence: every candidate boundary is an
    # abbreviation or an initial. 8 times the text must take about 8 times
    # as long; the whole-prefix search took about 64 times as long.
    def best_time(n):
        text = "See Fig. A. " * n
        times = []
        for _ in range(5):
            started = time.perf_counter()
            assert len(segment_sentences(text)) == 1
            times.append(time.perf_counter() - started)
        return min(times)

    assert best_time(16_000) < 24 * best_time(2_000)


# -- marker guards and per-paragraph segmentation, against the code they replaced

# Test-local copies of what cleaning and build_manifest did before: every
# markup rule ran on every pass of the fixpoint loop (only the heading rule
# looked for its `#` first), and each document was segmented whole.


def every_rule_every_pass(text: str) -> str:
    while True:
        updated = corpus._HTML_TAG_RE.sub(" ", text)
        if "#" in updated:
            updated = corpus._MD_HEADING_RE.sub("", updated)
        updated = corpus._MD_EMPHASIS_RE.sub("", updated)
        updated = corpus._CITATION_RE.sub(" ", updated)
        updated = corpus._MD_IMAGE_RE.sub(r"\1", updated)
        updated = corpus._MD_LINK_RE.sub(r"\1", updated)
        if updated == text:
            return text
        text = updated


def unguarded_clean_text(raw: str) -> str:
    text = every_rule_every_pass(raw)
    text = "\n".join(ln for ln in text.split("\n") if not ln.strip().isdigit())
    paragraphs = [" ".join(p.split()) for p in re.split(r"\n\s*\n", text)]
    return "\n\n".join(p for p in paragraphs if p)


def per_document_manifest(docs: list[RawDocument], min_chars: int) -> list[SentenceRecord]:
    ordered = sorted(range(len(docs)), key=lambda i: (docs[i].source_name, i))
    records = []
    for doc in (docs[i] for i in ordered):
        sentences = filter_short(segment_sentences(unguarded_clean_text(doc.text)), min_chars)
        records += [SentenceRecord(f"{doc.doc_id}:{i:05d}", doc.source_name, s, len(s)) for i, s in enumerate(sentences)]
    return deduplicate(records)


MARKERS = "<#*`_["
# Words, sentence ends, abbreviations and initials, markup of every rule,
# nested links and images, and stray markers that match no rule.
_DOC_PIECES = [
    "The", "heart", "pumps", "blood", "through", "vessels", "snake_case", "x_1", "Fig.", "e.g.", "J.", "Dr.",
    "et al.", "vs.", "No.", "42.", "3.5", "Why?", "Yes!", "done.", "Done.", "A.", "(b.", "<b>", "</b>", "<<i>>",
    "<br/>", "a<b", "**bold**", "*it*", "`code`", "__under__", "_x_", "*", "_", "`", "[3]", "[1, 2-4]", "[7–9]",
    "![fig](img.png)", "[link](http://x.org)", "[[x](u)](v)", "[![img](a)](b)", "[*a]*(b)", "[see [2]](u)",
    "[", "]", "(", ")", "#", "#tag", "<", ">",
]


def markup_paragraph(rng: random.Random) -> str:
    words = rng.choices(_DOC_PIECES, k=rng.randint(1, 18))
    lines = [" ".join(words)]
    if rng.random() < 0.3:
        lines.insert(0, rng.choice(["#", "##", "######", "  ###"]) + " " + " ".join(rng.choices(_DOC_PIECES, k=3)))
    if rng.random() < 0.3:
        lines.append(str(rng.randint(1, 400)))  # a page-number line
    if rng.random() < 0.3:
        lines.append(" ".join(rng.choices(_DOC_PIECES, k=rng.randint(1, 6))))  # a line break inside the paragraph
    return "\n".join(lines)


def markup_documents(seed: int, lacking: str = "") -> list[RawDocument]:
    """Documents from three sources with paragraphs repeated within a
    document, across documents and across sources, without the character
    ``lacking``."""
    rng = random.Random(seed)
    shared = [markup_paragraph(rng) for _ in range(6)]  # seen in every source
    docs = []
    for source in ("beta", "alpha", "gamma"):
        own = [markup_paragraph(rng) for _ in range(6)]
        for d in range(4):
            paragraphs = [rng.choice(shared + own) if rng.random() < 0.6 else markup_paragraph(rng)
                          for _ in range(rng.randint(0, 7))]
            text = "".join(p + rng.choice(["\n\n", "\n \n", "\n\n\n", "\n\t\n"]) for p in paragraphs)
            docs.append(RawDocument(f"{source}-{d}", source, text.replace(lacking, "") if lacking else text))
    return docs


@pytest.mark.parametrize("lacking", ["", *MARKERS], ids=["all-markers", *(f"no-{m}" for m in MARKERS)])
def test_clean_text_matches_every_rule_on_every_pass(lacking):
    docs = [doc for seed in range(12) for doc in markup_documents(seed, lacking)]
    texts = "".join(doc.text for doc in docs)
    assert lacking not in texts if lacking else all(marker in texts for marker in MARKERS)
    for doc in docs:
        assert clean_text(doc.text) == unguarded_clean_text(doc.text), doc.text
    for nested in ["[[x](u)](v)", "[![i](a)](b)", "[*a]*(b)", "<<a>>", "[a [1]](u)", "![[x](u)](v)", "**[a](b)**"]:
        assert clean_text(nested) == unguarded_clean_text(nested)


@pytest.mark.parametrize("lacking", ["", *MARKERS], ids=["all-markers", *(f"no-{m}" for m in MARKERS)])
@pytest.mark.parametrize("min_chars", [1, 20])
def test_build_manifest_matches_per_document_segmentation(monkeypatch, lacking, min_chars):
    # Each distinct cleaned paragraph of a source is segmented once, through
    # the module's name for segment_sentences.
    segmented = []
    monkeypatch.setattr(corpus, "segment_sentences", lambda text: segmented.append(text) or segment_sentences(text))
    for seed in range(6):
        docs = markup_documents(seed, lacking)
        segmented.clear()
        manifest = build_manifest(docs, min_chars=min_chars)
        assert manifest == per_document_manifest(docs, min_chars) and len(manifest) > 10
        by_source = {(doc.source_name, p) for doc in docs for p in unguarded_clean_text(doc.text).split("\n\n")}
        assert sorted(segmented) == sorted(p for _, p in by_source)
        assert len(segmented) < sum(len(unguarded_clean_text(doc.text).split("\n\n")) for doc in docs)
