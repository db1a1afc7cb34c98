"""Corpus preparation: cleaning, segmentation, filtering, dedup, splitting.

Turns raw extracted text into a deterministic manifest: a list of sentence
records with train/val/test labels, plus summary statistics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError
from .storage import Record

SPLIT_TRAIN = "train"
SPLIT_VAL = "val"
SPLIT_TEST = "test"
SPLIT_UNASSIGNED = "unassigned"
SPLITS = (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)

MIN_SENTENCE_CHARS = 20

# Sentence-boundary exceptions: a period ending one of these does not split,
# nor does a period after a single-letter initial.
ABBREVIATIONS = ("fig.", "e.g.", "i.e.", "dr.", "et al.", "vs.", "no.")
# How many last characters of a sentence's prefix the exceptions need: the
# longest abbreviation. Lowering them ends the same as lowering the whole
# prefix, since `str.lower` maps each character on its own (a sigma's form
# depends on its neighbours, but is never ASCII). An initial spans at most
# 4 characters, and its `^` can match only where the prefix is that short.
_ABBREVIATION_WINDOW = max(map(len, ABBREVIATIONS))

# Every branch of the markup patterns but the heading rule's starts with a
# literal, so `re` skips straight to the next candidate character instead
# of trying every branch at every position; a leading lookaround would
# defeat that. Each rule runs only on text that holds its marker (see
# `_strip_markup`). The emphasis rule removes, at each position, `**` or
# `*`, a backtick, `__`, or a `_` not between two word characters.
_HTML_TAG_RE = re.compile(r"<[^<>]*>")
_MD_HEADING_RE = re.compile(r"(?m)^[^\S\n]*#{1,6}(?=\s|$)[^\S\n]*")
_MD_IMAGE_RE = re.compile(r"!\[([^\]]*)\]\([^)]*\)")
_MD_LINK_RE = re.compile(r"\[([^\]]+)\]\([^)]*\)")
_MD_EMPHASIS_RE = re.compile(r"\*\*?|`|_(?:_|(?<!\w_)|(?!\w))")
_CITATION_RE = re.compile(r"\[\d+(?:\s*[,–-]\s*\d+)*\]")
_PARAGRAPH_RE = re.compile(r"\n\s*\n")
_BOUNDARY_RE = re.compile(r"[.!?](?=\s+[A-Z0-9])")
_INITIAL_RE = re.compile(r"(?:^|[\s(\"'])[A-Za-z]\.$")


@dataclass
class RawDocument(Record):
    """One input document: identifier, originating source, full text."""

    doc_id: str
    source_name: str
    text: str


@dataclass
class SentenceRecord(Record):
    """One cleaned sentence with its source and split assignment."""

    sent_id: str
    source_name: str
    text: str
    char_len: int
    # A row read back names a split, or none yet.
    split: str = field(default=SPLIT_UNASSIGNED, metadata={"choices": (*SPLITS, SPLIT_UNASSIGNED)})


@dataclass
class CorpusStats:
    """Corpus-level counts and token-length moments."""

    sentence_count: int
    word_count: int
    unique_term_count: int
    token_count: int
    mean_len_tokens: float
    sd_len_tokens: float


def _strip_markup(text: str) -> str:
    # Nested constructs ("<<a>>", "[[x](u)](v)", "[*a]*(b)") require repeated
    # passes; every substitution strictly shortens the text, so this
    # terminates. A rule runs only on text that holds its marker: every match
    # holds one, and a substitution only deletes characters, writes a space
    # or keeps a group of its own match, so it adds no marker. The last pass,
    # which finds nothing, then mostly costs a few `in` scans.
    while True:
        updated = text
        if "<" in updated:
            updated = _HTML_TAG_RE.sub(" ", updated)
        if "#" in updated:
            updated = _MD_HEADING_RE.sub("", updated)
        if "*" in updated or "`" in updated or "_" in updated:
            updated = _MD_EMPHASIS_RE.sub("", updated)
        if "[" in updated:  # citations, images and links
            updated = _CITATION_RE.sub(" ", updated)
            updated = _MD_IMAGE_RE.sub(r"\1", updated)
            updated = _MD_LINK_RE.sub(r"\1", updated)
        if updated == text:
            return text
        text = updated


def clean_text(raw: str) -> str:
    """Strip markup and layout noise from extracted text.

    Rule order is fixed (tags, markdown, citations, page-number lines,
    whitespace) so that cleaning is idempotent. Paragraph breaks survive as
    a single blank line; all other whitespace runs collapse to one space.
    """
    text = _strip_markup(raw)
    text = "\n".join(ln for ln in text.split("\n") if not ln.strip().isdigit())
    paragraphs = [" ".join(p.split()) for p in _PARAGRAPH_RE.split(text)]
    return "\n\n".join(p for p in paragraphs if p)


def _is_abbreviation_boundary(prefix: str) -> bool:
    # A match of the end-anchored _INITIAL_RE spans at most the last 4
    # characters (3, plus a final newline before `$`), and `^` matches only
    # at the real start of the string, so the search starts there.
    return prefix.lower().endswith(ABBREVIATIONS) or bool(_INITIAL_RE.search(prefix, max(0, len(prefix) - 4)))


def segment_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    Paragraph breaks always split. Within a paragraph, a terminator in
    ``.!?`` followed by whitespace and an uppercase letter or digit splits,
    except after a known abbreviation or single-letter initial.
    """
    sentences: list[str] = []
    for paragraph in re.split(r"\n+", text):
        if not paragraph.strip():
            continue
        start = 0
        for match in _BOUNDARY_RE.finditer(paragraph):
            end = match.end()
            if paragraph[end - 1] == "." and _is_abbreviation_boundary(
                paragraph[max(start, end - _ABBREVIATION_WINDOW) : end]
            ):
                continue
            piece = paragraph[start:end].strip()
            if piece:
                sentences.append(piece)
            start = end
        tail = paragraph[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


def filter_short(sentences: Sequence[str], min_chars: int = MIN_SENTENCE_CHARS) -> list[str]:
    """Keep sentences with at least ``min_chars`` characters, preserving order."""
    return [s for s in sentences if len(s) >= min_chars]


def normalized_form(text: str) -> str:
    """Duplicate-detection key: lowercased, whitespace-collapsed, no terminal punctuation."""
    return " ".join(text.lower().split()).rstrip(".!?")


def deduplicate(records: Sequence[SentenceRecord]) -> list[SentenceRecord]:
    """Drop records whose normalized form matched an earlier record."""
    seen: set[str] = set()
    kept: list[SentenceRecord] = []
    for record in records:
        key = normalized_form(record.text)
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return kept


def build_manifest(
    docs: Sequence[RawDocument],
    min_chars: int = MIN_SENTENCE_CHARS,
) -> list[SentenceRecord]:
    """Clean, segment, and filter documents into deduplicated sentence records.

    Documents are taken in (source_name, original document position) order,
    so output is deterministic.

    A cleaned text's paragraphs hold no newline and are joined by a blank
    line, so segmenting them one at a time gives the text's sentences in
    order. Each distinct paragraph of a source is segmented once: running
    headers, footers and notices repeat from document to document. The
    memo is dropped at each new source, so it holds one source's paragraphs.
    """
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        raise DataError("E_IO", "duplicate doc_id in input documents")
    ordered = sorted(range(len(docs)), key=lambda i: (docs[i].source_name, i))
    records: list[SentenceRecord] = []
    source, kept = None, {}  # kept: cleaned paragraph -> its sentences of min_chars or more
    for doc in (docs[i] for i in ordered):
        if doc.source_name != source:
            source, kept = doc.source_name, {}
        sentences: list[str] = []
        for paragraph in clean_text(doc.text).split("\n\n"):
            if paragraph not in kept:
                kept[paragraph] = filter_short(segment_sentences(paragraph), min_chars)
            sentences += kept[paragraph]
        records += (
            SentenceRecord(sent_id=f"{doc.doc_id}:{i:05d}", source_name=doc.source_name, text=s, char_len=len(s))
            for i, s in enumerate(sentences)
        )
    return deduplicate(records)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def source_positions(records: Sequence[SentenceRecord]) -> dict[str, list[int]]:
    """Each source's positions within ``records``, ascending."""
    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        positions.setdefault(record.source_name, []).append(index)
    return positions


def stratified_split(
    records: Sequence[SentenceRecord],
    train_frac: float = 0.9,
    seed: int = 0,
    test_frac: float = 0.0,
) -> list[SentenceRecord]:
    """Assign train/val (and optionally test) splits per source.

    Within each source the records are permuted by a seeded generator; the
    first round(train_frac * n) become train, then round(test_frac * n)
    become test, and the remainder val. Returns new records in the same order.
    """
    if not 0.0 < train_frac < 1.0:
        raise DataError("E_BAD_FRACTION", f"train_frac must be in (0, 1), got {train_frac}")
    # Written so that NaN, which fails every comparison, fails each check.
    if not test_frac >= 0.0:
        raise DataError("E_BAD_FRACTION", f"test_frac must be >= 0, got {test_frac}")
    if not train_frac + test_frac <= 1.0:
        raise DataError("E_BAD_FRACTION", f"train_frac + test_frac must be <= 1, got {train_frac + test_frac}")
    for record in records:
        if record.split != SPLIT_UNASSIGNED:
            raise DataError("E_ALREADY_SPLIT", f"record {record.sent_id} already assigned to {record.split!r}")

    assignment = [SPLIT_VAL] * len(records)
    rng = np.random.default_rng(seed)
    for _, indices in sorted(source_positions(records).items()):
        perm = rng.permutation(len(indices))
        n_train = _round_half_up(train_frac * len(indices))
        n_test = min(_round_half_up(test_frac * len(indices)), len(indices) - n_train)
        for pos, j in enumerate(perm):
            if pos < n_train:
                assignment[indices[j]] = SPLIT_TRAIN
            elif pos < n_train + n_test:
                assignment[indices[j]] = SPLIT_TEST

    return [SentenceRecord(r.sent_id, r.source_name, r.text, r.char_len, assignment[i]) for i, r in enumerate(records)]


def corpus_stats(records: Sequence[SentenceRecord], tokenizer: Callable[[str], list[int]]) -> CorpusStats:
    """Word, term, and token counts plus token-length mean and population SD."""
    if not records:
        raise DataError("E_EMPTY_CORPUS", "corpus statistics need at least one sentence")
    word_count = 0
    terms: set[str] = set()
    token_lens = np.empty(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        words = record.text.split()
        word_count += len(words)
        terms.update(w.lower() for w in words)
        token_lens[i] = len(tokenizer(record.text))
    mean = float(np.mean(token_lens))
    sd = float(np.sqrt(np.mean((token_lens - mean) ** 2)))
    return CorpusStats(
        sentence_count=len(records),
        word_count=word_count,
        unique_term_count=len(terms),
        token_count=int(token_lens.sum()),
        mean_len_tokens=mean,
        sd_len_tokens=sd,
    )
