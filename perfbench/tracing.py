"""Traced run of one minembed CLI stage, and the per-layer metrics of a run.

As a script, ``python3 perfbench/tracing.py SPANS_JSON <minembed args>``
runs one CLI stage in this process with the layer-boundary functions of
the ``minembed`` modules wrapped: every function named in ``SELF_TIME`` and
``INCLUSIVE`` below, plus ``corpus.build_manifest``. A wrapper is installed
under the name its caller looks up (``trainer.forward_batch`` for training,
``encoder.forward_batch`` for ``encoder.encode_batch``), because a module
that imported a function by name keeps its own reference. Each call records a span ``[name, start,
end, parent]`` and bumps counters; spans stay in memory and are written to
SPANS_JSON when the stage ends. Wrappers change no argument or result, so
a traced stage writes the same bytes as an untraced one.

``layer_metrics`` turns the span files of one pipeline run into the
per-layer metrics. A span's self time is its duration minus its direct
children's. Every ``*_s`` metric is a sum of self times, except the
inclusive ``encoder.encode_s``, ``encoder.checkpoint_save_s``,
``encoder.checkpoint_load_s`` and ``trainer.val_s``, which also contain the
spans they call. ``cli.<stage>.self_s`` is the stage's time in no metric
span: argument parsing, row and object conversion, id lookups.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# Span name -> metric that sums its self time.
SELF_TIME = {
    "corpus.clean_text": "corpus.clean_s",
    "corpus.segment_sentences": "corpus.segment_s",
    "corpus.deduplicate": "corpus.dedup_s",
    "corpus.stratified_split": "corpus.split_s",
    "triplets.sample_hard_negative": "triplets.negative_s",
    "triplets.generate_positive": "triplets.paraphrase_s",
    "encoder.Tokenizer.__call__": "encoder.tokenize_s",
    "encoder.forward_batch": "encoder.forward_s",  # embed's forward, through encoder.encode_batch
    "trainer.forward_batch": "encoder.forward_s",
    "trainer.backward_batch": "encoder.backward_s",
    "trainer.infonce_gradient": "trainer.loss_s",
    "trainer.adamw_step": "trainer.adamw_s",
    "metrics.rank_candidates": "metrics.rank_s",
    "metrics.accuracy_at_k": "metrics.score_s",
    "metrics.mean_reciprocal_rank": "metrics.score_s",
    "metrics.mean_positive_similarity": "metrics.score_s",
    "metrics.ndcg_at_10": "metrics.score_s",
    "metrics.recall_at_k": "metrics.score_s",
    "storage.write_atomic": "storage.write_s",
    "storage.write_jsonl": "storage.write_s",
    "storage.write_json": "storage.write_s",
    "storage.write_tensors": "storage.write_s",
    "storage.write_embeddings": "storage.write_s",
    "storage.read_jsonl": "storage.read_s",
    "storage.read_tensors": "storage.read_s",
    "storage.read_embeddings": "storage.read_s",
    "storage.read_pairs": "storage.read_s",
    "storage.read_qrels": "storage.read_s",
    "storage.digest": "storage.digest_s",
}
# Span name -> metric that sums its whole duration.
INCLUSIVE = {
    "cli.encode_batch": "encoder.encode_s",
    "trainer.save_checkpoint": "encoder.checkpoint_save_s",
    "cli.load_checkpoint": "encoder.checkpoint_load_s",
    "trainer.evaluation_loss": "trainer.val_s",
}
# Counters that depend only on the inputs, so they must repeat exactly.
EXACT_COUNTS = (
    "corpus.docs",
    "corpus.dedup_in",
    "corpus.dedup_out",
    "triplets.negative_calls",
    "triplets.negative_ok",
    "triplets.negative_scanned",
    "triplets.paraphrase_calls",
    "triplets.paraphrase_ok",
    "encoder.tokenize_calls",
    "encoder.tokenize_distinct",
    "encoder.forward_rows",
    "trainer.steps",
    "trainer.adamw_bytes",
    "metrics.rank_entries",
    "metrics.sim_flops",
    "storage.read_bytes",
    "storage.digest_bytes",
)
# Counters reported as they are, and ratios reported as numerator / denominator.
REPORTED_COUNTS = (
    "corpus.docs",
    "triplets.negative_calls",
    "triplets.negative_scanned",
    "triplets.paraphrase_calls",
    "encoder.tokenize_calls",
    "encoder.forward_rows",
    "trainer.steps",
    "trainer.adamw_bytes",
    "metrics.rank_entries",
    "metrics.sim_flops",
    "storage.write_bytes",
    "storage.read_bytes",
    "storage.digest_bytes",
)
RATIOS = {
    "corpus.dedup_kept_ratio": ("corpus.dedup_out", "corpus.dedup_in"),
    "triplets.negative_ok_ratio": ("triplets.negative_ok", "triplets.negative_calls"),
    "triplets.paraphrase_ok_ratio": ("triplets.paraphrase_ok", "triplets.paraphrase_calls"),
    "encoder.tokenize_useful_ratio": ("encoder.tokenize_distinct", "encoder.tokenize_calls"),
}


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.texts: set[str] = set()

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            ok = False
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, result, ok)

        return traced


def _on_build_manifest(rec, args, result, ok):
    rec.counts["corpus.docs"] += len(args[0])


def _on_dedup(rec, args, result, ok):
    rec.counts["corpus.dedup_in"] += len(args[0])
    if ok:
        rec.counts["corpus.dedup_out"] += len(result)


def _on_negative(rec, args, result, ok):
    records = args[1]
    rec.counts["triplets.negative_calls"] += 1
    rec.counts["triplets.negative_ok"] += ok
    # The eligible list is built by a scan over every record of the split.
    rec.counts["triplets.negative_scanned"] += len(getattr(records, "records", records))


def _on_positive(rec, args, result, ok):
    rec.counts["triplets.paraphrase_calls"] += 1
    rec.counts["triplets.paraphrase_ok"] += ok


def _on_tokenize(rec, args, result, ok):
    rec.counts["encoder.tokenize_calls"] += 1
    rec.texts.add(args[1])


def _on_forward(rec, args, result, ok):
    rec.counts["encoder.forward_rows"] += len(args[0])


def _on_adamw(rec, args, result, ok):
    rec.counts["trainer.steps"] += 1
    # Parameter, gradient, and both moments, each touched once per step.
    rec.counts["trainer.adamw_bytes"] += 4 * sum(g.nbytes for g in args[1].values())


def _on_rank(rec, args, result, ok):
    task = args[0]
    q, c = len(task.queries), len(task.candidates)
    rec.counts["metrics.rank_entries"] += q * c
    rec.counts["metrics.sim_flops"] += 2 * q * c * (len(task.queries[0][1]) if q else 0)


def _on_write(rec, args, result, ok):
    rec.counts["storage.write_bytes"] += len(args[1])


def _on_read(rec, args, result, ok):
    rec.counts["storage.read_bytes"] += os.path.getsize(args[0])


def _on_read_embeddings(rec, args, result, ok):
    rec.counts["storage.read_bytes"] += os.path.getsize(args[0]) + os.path.getsize(str(args[0]) + ".ids")


def _on_digest(rec, args, result, ok):
    rec.counts["storage.digest_bytes"] += os.path.getsize(args[0])


def install(rec: Recorder) -> None:
    """Wrap minembed's functions at the names their callers look up."""
    from minembed import cli, corpus, encoder, metrics, storage, trainer, triplets

    modules = {
        "cli": cli, "corpus": corpus, "encoder": encoder, "metrics": metrics,
        "storage": storage, "trainer": trainer, "triplets": triplets,
    }
    hooks = {
        "corpus.build_manifest": _on_build_manifest,
        "corpus.deduplicate": _on_dedup,
        "triplets.sample_hard_negative": _on_negative,
        "triplets.generate_positive": _on_positive,
        "encoder.forward_batch": _on_forward,
        "trainer.forward_batch": _on_forward,
        "trainer.adamw_step": _on_adamw,
        "metrics.rank_candidates": _on_rank,
        "storage.write_atomic": _on_write,
        "storage.read_jsonl": _on_read,
        "storage.read_tensors": _on_read,
        "storage.read_pairs": _on_read,
        "storage.read_qrels": _on_read,
        "storage.read_embeddings": _on_read_embeddings,
        "storage.digest": _on_digest,
    }
    for name in [*SELF_TIME, *INCLUSIVE, "corpus.build_manifest"]:
        module_name, attr = name.split(".", 1)
        if "." in attr:
            continue  # a method; wrapped on its class below
        module = modules[module_name]
        # trainer imported forward_batch by name, so wrapping encoder's
        # attribute leaves trainer's reference unwrapped and nothing is
        # counted twice.
        setattr(module, attr, rec.wrap(name, getattr(module, attr), hooks.get(name)))
    encoder.Tokenizer.__call__ = rec.wrap("encoder.Tokenizer.__call__", encoder.Tokenizer.__call__, _on_tokenize)


def main(argv: list[str]) -> int:
    spans_path, stage_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from minembed import cli

    run = rec.wrap(f"cli.{stage_args[0]}", cli.run)
    try:
        code = run(stage_args)
    finally:
        rec.counts["encoder.tokenize_distinct"] = len(rec.texts)
        Path(spans_path).write_text(json.dumps({"spans": rec.spans, "counts": rec.counts}))
    return code


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent) in enumerate(spans)]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(span_files: list[Path]) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer metrics of one traced pipeline run, its exact counters, and
    the in-process seconds of each CLI stage."""
    out: dict[str, float] = Counter()
    counts: Counter = Counter()
    stage_s: dict[str, float] = Counter()
    step_ms: list[float] = []
    for path in span_files:
        data = json.loads(path.read_text())
        spans, stage_counts = data["spans"], data["counts"]
        counts.update(stage_counts)
        self_times = _self_times(spans)
        root = spans[0]
        stage = root[0]
        unattributed = root[2] - root[1]
        stage_s[stage] += unattributed
        for i, (name, start, end, parent) in enumerate(spans):
            if name in SELF_TIME:
                out[SELF_TIME[name]] += self_times[i]
                unattributed -= self_times[i]
            elif name in INCLUSIVE:
                out[INCLUSIVE[name]] += end - start
                unattributed -= self_times[i]
        out[f"{stage}.self_s"] += unattributed
        # A training step runs from a gradient's start to its AdamW update's end.
        grad_start = None
        for name, start, end, parent in spans:
            if name == "trainer.infonce_gradient":
                grad_start = start
            elif name == "trainer.adamw_step" and grad_start is not None:
                step_ms.append(1000.0 * (end - grad_start))
                grad_start = None
    for key in REPORTED_COUNTS:
        out[key] = counts[key]
    for key, (num, den) in RATIOS.items():
        out[key] = counts[num] / max(1, counts[den])
    out["trainer.step_ms_p50"] = _percentile(step_ms, 0.5) if step_ms else 0.0
    out["trainer.step_ms_p90"] = _percentile(step_ms, 0.9) if step_ms else 0.0
    return dict(out), {k: counts[k] for k in EXACT_COUNTS}, dict(stage_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
