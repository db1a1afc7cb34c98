"""Seeded synthetic inputs for the benchmark: nothing is downloaded.

``write_inputs(shape, seed, out_dir)`` writes, for one workload:

- ``docs.jsonl``: raw documents ``{doc_id, source_name, text}`` from several
  sources, with HTML and markdown markup, nested links, images, citations,
  page-number lines, headings, abbreviations and initials that must not
  split sentences, short fragments, and boilerplate repeated across
  documents, so ``prepare`` has real cleaning, segmentation and dedup work;
- ``pool.jsonl``: ``{sent_id, text}`` rows to embed, grouped in topical
  documents, plus a paraphrase of every query's gold sentence;
- ``pairs.tsv``: one-gold retrieval, each query against the pool of gold
  paraphrases;
- ``qrels.tsv``: graded retrieval, grade 2 for the query's paraphrase and
  grade 1 for the other sentences of its document;
- ``train-config.json``: the workload's training recipe.

The same shape and seed give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from provider import paraphrase

_SYLLABLES = (
    "ka ro mi tel sun dar vo le pra gin os ter nal bi quo fen za lu mor ti "
    "sel ban cor ith ul pen gra vek do sim rha tu nel"
).split()
SENTENCES_PER_PARAGRAPH = 5
BATCH_SIZE = 128
_SHARED_BOILERPLATE = (
    "This page was intentionally left blank for double sided printing purposes.",
    "Readers may reproduce this material for teaching with the usual attribution.",
)


@dataclass(frozen=True)
class Shape:
    """Input sizes and noise for one workload."""

    sources: int
    docs_per_source: int
    paragraphs_per_doc: int
    markup_rate: float  # chance that a sentence carries markup or a citation
    boilerplate_paragraphs: int  # repeated boilerplate paragraphs per document
    pool_docs: int
    pool_sentences_per_doc: int
    pairs: int  # one-gold queries; each also adds its gold paraphrase to the pool
    qrels: int  # graded queries, one per pool document
    epochs: int
    lora_only: bool  # train only the low-rank adapters


class _Vocab:
    def __init__(self, rng: random.Random, sources: int) -> None:
        self.rng = rng
        # The words are the same for every seed, like one language; the seed
        # picks the sentences.
        words_rng = random.Random("perfbench:vocabulary")
        seen: set[str] = set()

        def words(n: int, syllables: int) -> list[str]:
            out = []
            while len(out) < n:
                w = "".join(words_rng.choice(_SYLLABLES) for _ in range(syllables))
                if w not in seen:
                    seen.add(w)
                    out.append(w)
            return out

        self.names = [w.capitalize() for w in words(40, 2)]
        self.topics = [
            {"noun": words(120, 3), "verb": words(40, 2), "adj": words(40, 3)} for _ in range(sources)
        ]

    def sentence(self, topic: int) -> str:
        r = self.rng
        t = self.topics[topic]
        n, v, a = (lambda: r.choice(t["noun"])), (lambda: r.choice(t["verb"])), (lambda: r.choice(t["adj"]))
        num = r.randint(2, 99)
        template = r.randrange(9)
        if template == 0:
            s = f"The {a()} {n()} {v()}s the {n()} of {a()} {n()}s near the {n()}."
        elif template == 1:
            s = f"{a().capitalize()} {n()}s often {v()} {n()} and {n()} during the {a()} {n()} phase."
        elif template == 2:
            s = f"As shown in Fig. {num}, the {n()} {v()}s more {n()} than the {a()} {n()}."
        elif template == 3:
            s = f"Dr. {r.choice(self.names)} {v()}ed the {n()}, e.g. the {a()} {n()} of the {n()}."
        elif template == 4:
            s = f"{r.choice('ABCDEFGHJKLMNPRSTW')}. {r.choice(self.names)} et al. {v()}ed a {a()} {n()} for {n()} vs. {n()} in {num} {n()}s."
        elif template == 5:
            s = f"No. {num} {n()} {v()}s with the {a()} {n()} and its {n()} {n()}."
        elif template == 6:
            s = f"Every {n()} that {v()}s the {n()} also {v()}s {a()} {n()}s and {n()}s."
        elif template == 7:
            s = f"In {num} cases the {a()} {n()} did not {v()} the {n()} of the {n()} at all!"
        else:
            s = f"Why does the {n()} {v()} the {a()} {n()} so rarely in {n()} {n()}s?"
        return s

    def noisy(self, sentence: str, rate: float) -> str:
        r = self.rng
        if r.random() >= rate:
            return sentence
        words = sentence.split(" ")
        i = r.randrange(1, len(words) - 1)
        kind = r.randrange(7)
        w = words[i]
        if kind == 0:
            words[i] = f"**{w}**"
        elif kind == 1:
            words[i] = f"[{w}](https://example.org/{w}?ref={r.randint(1, 999)})"
        elif kind == 2:
            words[i] = f"[[{w}](https://example.org/a)](https://example.org/b)"
        elif kind == 3:
            words[i] = f"<b>{w}</b>"
        elif kind == 4:
            words[i] = f'<span class="term">{w}</span> ![figure](img/{w}.png)'
        elif kind == 5:
            words[i] = f"`{w}`"
        body = " ".join(words)
        cite = r.choice(("", f" [{r.randint(1, 60)}]", f" [{r.randint(1, 9)}, {r.randint(10, 30)}]", f" [{r.randint(1, 9)}–{r.randint(10, 30)}]"))
        return body[:-1] + cite + body[-1]


def _raw_document(vocab: _Vocab, shape: Shape, topic: int, boilerplate: list[str], page: int) -> str:
    r = vocab.rng
    parts = [f"## {r.choice(vocab.topics[topic]['adj']).capitalize()} {r.choice(vocab.topics[topic]['noun'])}s"]
    for p in range(shape.paragraphs_per_doc):
        sentences = [vocab.noisy(vocab.sentence(topic), shape.markup_rate) for _ in range(SENTENCES_PER_PARAGRAPH)]
        cut = r.randrange(1, len(sentences)) if len(sentences) > 1 else 1
        # A page-number line in the middle of a paragraph must vanish, not split it.
        parts.append(" ".join(sentences[:cut]) + f"\n{page + p}\n" + " ".join(sentences[cut:]))
        if r.random() < 0.3:
            parts.append("See above.")
    for _ in range(shape.boilerplate_paragraphs):
        parts.append(" ".join(r.sample(boilerplate, 3)))
    return "\n\n".join(parts) + "\n"


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_inputs(shape: Shape, seed: int, out_dir: Path, tag: str) -> None:
    """Write every input file for one workload into ``out_dir``."""
    rng = random.Random(f"perfbench:{tag}:{seed}")
    vocab = _Vocab(rng, shape.sources)
    sources = [f"source-{chr(ord('a') + s)}" for s in range(shape.sources)]

    docs = []
    for s, source in enumerate(sources):
        boilerplate = [vocab.sentence(s) for _ in range(4)] + list(_SHARED_BOILERPLATE)
        for d in range(shape.docs_per_source):
            text = _raw_document(vocab, shape, s, boilerplate, page=rng.randint(1, 400))
            docs.append(json.dumps({"doc_id": f"{source}-{d:04d}", "source_name": source, "text": text}, ensure_ascii=False))
    _write_lines(out_dir / "docs.jsonl", docs)

    pool: list[tuple[str, str]] = []
    by_doc: list[list[str]] = []
    texts: dict[str, str] = {}
    for d in range(shape.pool_docs):
        topic = d % shape.sources
        ids = []
        for i in range(shape.pool_sentences_per_doc):
            sid = f"pool-{d:05d}:{i:03d}"
            texts[sid] = vocab.sentence(topic)
            pool.append((sid, texts[sid]))
            ids.append(sid)
        by_doc.append(ids)

    # Graded queries: sentence 0 of the first documents. One-gold queries:
    # later sentences, taken across documents round-robin.
    qrels = []
    for ids in by_doc[: shape.qrels]:
        query = ids[0]
        pool.append((f"para:{query}", paraphrase(texts[query])))
        qrels.append(f"{query}\tpara:{query}\t2")
        qrels.extend(f"{query}\t{other}\t1" for other in ids[1:])
    pair_queries = [ids[i] for i in range(1, shape.pool_sentences_per_doc) for ids in by_doc][: shape.pairs]
    pairs = []
    for query in pair_queries:
        pool.append((f"para:{query}", paraphrase(texts[query])))
        pairs.append(f"{query}\tpara:{query}")
    _write_lines(out_dir / "pool.jsonl", [json.dumps({"sent_id": i, "text": t}, ensure_ascii=False) for i, t in pool])
    _write_lines(out_dir / "pairs.tsv", pairs)
    _write_lines(out_dir / "qrels.tsv", qrels)
    (out_dir / "train-config.json").write_text(json.dumps({"epochs": shape.epochs, "batch_size": BATCH_SIZE, "pooling": "mean", "train_lora_only": shape.lora_only}) + "\n")
