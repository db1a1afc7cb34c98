"""Command-line front end chaining the pipeline.

Subcommands: prepare, triplets, train, embed, eval, stats, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; data goes to files or stdout. A command that
writes files returns the provenance of its run (path, config, seed, inputs,
outputs), and ``run`` alone writes it as run metadata once the command has
succeeded, with SHA-256 digests and the seconds since argument parsing began.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

# Every other module is imported by the commands that run it: prepare and
# triplets load neither the encoder nor the metrics, eval loads no encoder,
# and embed and train load no metrics.
from . import storage
from .choices import GAIN_EXP, GAIN_LINEAR, POOLINGS
from .errors import DataError, PipelineError, UsageError


def _train_config_keys() -> tuple[dict, dict]:
    """Config keys and their defaults: every TrainConfig field, then every
    init_params keyword except the seed, which TrainConfig already carries."""
    import inspect
    from dataclasses import fields
    from . import trainer
    from .encoder import init_params
    encoder_keys = {name: p.default for name, p in inspect.signature(init_params).parameters.items() if name != "seed"}
    return {f.name: f.default for f in fields(trainer.TrainConfig)}, encoder_keys


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as UsageError."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")

    def format_help(self) -> str:
        # A callable epilog is built only when help is printed.
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minembed",
        description="Contrastive sentence-embedding pipeline: corpus prep, triplets, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "prepare",
        help="clean, segment, deduplicate, and split raw documents into a manifest",
        formatter_class=fmt,
    )
    p.add_argument("--in", dest="input", required=True, help="input: directory of .txt files, a .txt file, or a .jsonl of {doc_id, source_name, text}")
    p.add_argument("--out", required=True, help="output manifest (line-delimited JSON)")
    p.add_argument("--min-chars", type=int, default=20, help="drop sentences shorter than this many characters")
    p.add_argument("--train-frac", type=float, default=0.9, help="per-source training fraction")
    p.add_argument("--test-frac", type=float, default=0.0, help="per-source test fraction (carved before val)")
    p.add_argument("--seed", type=int, required=True, help="split permutation seed")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser(
        "triplets",
        help="build anchor/positive/negative triplets from a split manifest",
        formatter_class=fmt,
    )
    p.add_argument("--corpus", required=True, help="manifest produced by prepare")
    p.add_argument("--out", required=True, help="output triplet file (line-delimited JSON)")
    p.add_argument("--min-distance", type=int, default=500, help="minimum index distance for hard negatives")
    p.add_argument("--cross-source", action="store_true", help="prefer negatives from a different source")
    p.add_argument("--provider", default=None, help="paraphrase provider command (line-JSON protocol); omit for the deterministic built-in fallback")
    p.add_argument("--seed", type=int, required=True, help="negative sampling seed")
    p.set_defaults(func=_cmd_triplets)

    p = sub.add_parser(
        "train",
        help="train the encoder on triplets with the contrastive objective",
        formatter_class=fmt,
        epilog=lambda: (
            "Config keys and their defaults: "
            + ", ".join(f"{key}={value}" for keys in _train_config_keys() for key, value in keys.items())
            + ". A JSON config file passed via --config overrides flags."
        ),
    )
    p.add_argument("--triplets", required=True, help="triplet file; rows with split=train are used")
    p.add_argument("--val", default=None, help="validation triplet file (default: split=val rows of --triplets)")
    p.add_argument("--config", default=None, help="JSON config; keys override flags")
    p.add_argument("--out-dir", required=True, help="directory for checkpoints, logs, and reports")
    p.add_argument("--seed", type=int, default=0, help="master seed (shuffling, dropout, init)")
    p.add_argument("--lora-only", action="store_true", help="train only the low-rank adapters")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "embed",
        help="encode texts with a trained checkpoint into a CEVX embedding file",
        formatter_class=fmt,
    )
    p.add_argument("--checkpoint", required=True, help="CEMB checkpoint")
    p.add_argument("--texts", required=True, help="manifest/triplet-style .jsonl with sent_id and text, or plain text lines")
    p.add_argument("--out", required=True, help="output embedding file (CEVX; ids go to <out>.ids)")
    p.add_argument("--pooling", choices=POOLINGS, default=None, help="pooling the checkpoint must store; a mismatch exits 2 with E_POOLING_MISMATCH (default: %(default)s, the checkpoint's own)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser(
        "eval",
        help="compute retrieval/similarity metrics from embeddings",
        formatter_class=fmt,
    )
    p.add_argument("--embeddings", required=True, help="CEVX embedding file with .ids sidecar")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="TSV: query_id<TAB>cand_id for retrieval, plus a numeric third column for similarity scoring")
    group.add_argument("--qrels", help="TSV: query_id<TAB>cand_id<TAB>grade for graded retrieval")
    p.add_argument("--k", default="1,5,10", help="comma-separated cutoffs for Acc@K / Recall@K")
    p.add_argument("--gain", choices=[GAIN_LINEAR, GAIN_EXP], default=GAIN_LINEAR, help="NDCG gain function")
    p.add_argument("--table", action="store_true", help="print a plain-text table instead of JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics for a manifest", formatter_class=fmt)
    p.add_argument("--corpus", required=True, help="manifest produced by prepare")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "gradcheck",
        help="compare analytic gradients against central finite differences",
        formatter_class=fmt,
    )
    p.add_argument("--checkpoint", required=True, help="CEMB checkpoint to check")
    p.add_argument("--batch", required=True, help="triplet file; the first rows form the probe batch")
    p.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    p.add_argument("--samples", type=int, default=50, help="number of sampled coordinates")
    p.add_argument("--batch-size", type=int, default=8, help="triplets taken from the batch file")
    p.add_argument("--lora-only", action="store_true", help="check adapter-only training mode")
    p.add_argument("--seed", type=int, default=0, help="coordinate sampling and dropout seed")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


# -- command implementations ---------------------------------------------


def _load_documents(input_path: str) -> tuple[list, list[Path]]:
    """The documents of ``--in`` (``corpus.RawDocument``) and the files they were read from, in order."""
    from . import corpus
    path = Path(input_path)
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise UsageError(f"no .txt files in {path}")
        return [corpus.RawDocument(doc_id=f.stem, source_name=f.stem, text=storage.read_text(f)) for f in files], files
    if not path.exists():
        raise UsageError(f"input {path} does not exist")
    if path.suffix == ".jsonl":
        return storage.read_jsonl(path, corpus.RawDocument.from_row), [path]
    return [corpus.RawDocument(doc_id=path.stem, source_name=path.stem, text=storage.read_text(path))], [path]


def _cmd_prepare(args: argparse.Namespace) -> dict:
    # Checked before the corpus is read; NaN fails every comparison, so each
    # condition is written to fail on it.
    if not 0.0 < args.train_frac < 1.0:
        raise UsageError(f"--train-frac must be in (0, 1), got {args.train_frac}")
    if not args.test_frac >= 0.0:
        raise UsageError(f"--test-frac must be >= 0, got {args.test_frac}")
    if not args.train_frac + args.test_frac <= 1.0:
        raise UsageError(f"--train-frac + --test-frac must be <= 1, got {args.train_frac + args.test_frac}")
    from . import corpus
    docs, inputs = _load_documents(args.input)
    records = corpus.build_manifest(docs, min_chars=args.min_chars)
    records = corpus.stratified_split(records, train_frac=args.train_frac, seed=args.seed, test_frac=args.test_frac)
    storage.write_jsonl(args.out, (r.to_row() for r in records))
    counts = {s: sum(r.split == s for r in records) for s in corpus.SPLITS}
    print(f"prepare: {len(records)} sentences ({counts})", file=sys.stderr)
    config = {"min_chars": args.min_chars, "train_frac": args.train_frac, "test_frac": args.test_frac}
    return dict(path=args.out + ".meta.json", config=config, seed=args.seed, inputs=inputs, outputs=[args.out])


def _cmd_triplets(args: argparse.Namespace) -> dict:
    if args.min_distance < 1:
        raise UsageError(f"--min-distance must be >= 1, got {args.min_distance}")
    from . import corpus, triplets
    records = storage.read_jsonl(args.corpus, corpus.SentenceRecord.from_row)
    policy = triplets.NegativePolicy(
        min_index_distance=args.min_distance,
        require_different_source=args.cross_source,
        seed=args.seed,
    )
    if args.provider is not None:
        with triplets.SubprocessProvider(args.provider) as provider:
            result = triplets.build_triplets(records, policy, provider)
    else:
        result = triplets.build_triplets(records, policy)
    storage.write_jsonl(args.out, (t.to_row() for t in result.triplets))
    print(
        f"triplets: {len(result.triplets)} built, "
        f"{result.skipped_paraphrase} paraphrase skips, {result.skipped_negative} negative skips",
        file=sys.stderr,
    )
    config = {
        "min_distance": args.min_distance,
        "cross_source": args.cross_source,
        "provider": args.provider,
        "skipped_paraphrase": result.skipped_paraphrase,
        "skipped_negative": result.skipped_negative,
    }
    return dict(path=args.out + ".meta.json", config=config, seed=args.seed, inputs=[args.corpus], outputs=[args.out])


def _train_config_from(args: argparse.Namespace) -> tuple:
    """Defaults, then flags, then config-file keys (highest precedence): a
    ``trainer.TrainConfig`` and the ``init_params`` keywords.

    Each config value must have (``storage.typed_value``) the type of the
    ``TrainConfig`` field or of the ``init_params`` default that it overrides.
    """
    from typing import get_type_hints
    from . import trainer
    train_keys, encoder_cfg = _train_config_keys()
    values = {**train_keys, "seed": args.seed, "train_lora_only": args.lora_only}
    types = get_type_hints(trainer.TrainConfig) | {key: type(default) for key, default in encoder_cfg.items()}
    if args.config:
        text = storage.read_text(args.config)
        try:
            overrides = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also a too-long integer, or nesting too deep
            raise UsageError(f"cannot parse config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise UsageError(f"config {args.config} must be a JSON object")
        for key in overrides:
            if key not in types:
                raise UsageError(f"unknown config key {key!r}")
            try:
                (values if key in values else encoder_cfg)[key] = storage.typed_value(overrides, key, types[key])
            except TypeError as exc:
                raise UsageError(f"config key {exc}") from exc
    return trainer.TrainConfig(**values), encoder_cfg


def _train_inputs(args: argparse.Namespace, config, encoder_cfg: dict) -> tuple:
    """The initial params, and the token store and (n, 3) train and val rows of
    ``--triplets`` (and ``--val``). No Triplet, nor any text, outlives this call
    except as the store's ids."""
    from . import trainer, triplets
    from .encoder import init_params
    all_triplets = storage.read_jsonl(args.triplets, triplets.Triplet.from_row)
    train_set = [t for t in all_triplets if t.split == "train"]
    if args.val:
        val_set = storage.read_jsonl(args.val, triplets.Triplet.from_row)
    else:
        val_set = [t for t in all_triplets if t.split == "val"]
    params = init_params(config.seed, **encoder_cfg)
    store, (train_rows, val_rows) = trainer.index_triplets([train_set, val_set], params.tokenizer)
    return params, store, train_rows, val_rows


def _cmd_train(args: argparse.Namespace) -> dict:
    from . import trainer
    config, encoder_cfg = _train_config_from(args)
    params, store, train_rows, val_rows = _train_inputs(args, config, encoder_cfg)
    params, reports = trainer.train(train_rows, store, params, config, val_rows=val_rows, out_dir=args.out_dir)
    out_dir = Path(args.out_dir)
    storage.write_jsonl(out_dir / "train-report.jsonl", (vars(r) for r in reports))
    for r in reports:
        val = f"{r.val_loss:.6f}" if r.val_loss is not None else "n/a"
        print(f"epoch {r.epoch}: train loss {r.mean_train_loss:.6f}, val loss {val}", file=sys.stderr)
    return dict(
        path=out_dir / "run-metadata.json",
        config={**vars(config), **encoder_cfg},
        seed=config.seed,
        inputs=[args.triplets] + ([args.val] if args.val else []),
        outputs=[out_dir / "train-report.jsonl", out_dir / "train-log.jsonl"]
        + [r.checkpoint for r in reports if r.checkpoint],
    )


def _row_texts(row: dict) -> list[tuple[str | None, str]]:
    """(id, text) pairs of one row: a triplet row's anchor and positive, the
    positive id prefixed with ``pos::``, or a manifest row's text, with id
    None when the row has no ``sent_id``. Each of these values must be a string."""
    if "anchor_id" in row:
        anchor_id = storage.typed_value(row, "anchor_id", str)
        return [(anchor_id, storage.typed_value(row, "anchor_text", str)),
                (f"pos::{anchor_id}", storage.typed_value(row, "positive_text", str))]
    sent_id = storage.typed_value(row, "sent_id", str) if "sent_id" in row else None
    return [(sent_id, storage.typed_value(row, "text", str))]


def _load_texts(path_str: str) -> tuple[list[str], list[str]]:
    """Texts to embed: .jsonl rows (see ``_row_texts``) or plain lines; an
    id that repeats is E_IO."""
    path = Path(path_str)
    if path.suffix == ".jsonl":
        texts: dict[str, str] = {}
        for i, pairs in enumerate(storage.read_jsonl(path, _row_texts)):
            for text_id, text in pairs:
                text_id = f"line-{i + 1:06d}" if text_id is None else text_id
                if text_id in texts:
                    raise DataError("E_IO", f"{path}: row {i + 1} repeats id {text_id!r}")
                texts[text_id] = text
        return list(texts), list(texts.values())
    lines = storage.read_lines(path)
    return [f"line-{i + 1:06d}" for i in range(len(lines))], lines


# embed and gradcheck reach the encoder through these two names, which load
# it on first call, so no other stage compiles it. perfbench/tracing.py
# wraps them here.
def load_checkpoint(path: str):
    """``encoder.load_checkpoint``."""
    from . import encoder
    return encoder.load_checkpoint(path)


def encode_batch(texts: list[str], params) -> np.ndarray:
    """``encoder.encode_batch``."""
    from . import encoder
    return encoder.encode_batch(texts, params)


def _cmd_embed(args: argparse.Namespace) -> dict:
    params = load_checkpoint(args.checkpoint)
    if args.pooling not in (None, params.pooling):
        raise PipelineError(
            "E_POOLING_MISMATCH", f"{args.checkpoint} stores {params.pooling} pooling, not {args.pooling}"
        )
    ids, texts = _load_texts(args.texts)
    vectors = np.vstack(
        [encode_batch(texts[i : i + 256], params) for i in range(0, len(texts), 256)]
    ) if texts else np.zeros((0, params.tensors["W2"].shape[1]))
    storage.write_embeddings(args.out, ids, vectors)
    print(f"embed: {len(ids)} vectors of dim {vectors.shape[1] if len(ids) else 0}", file=sys.stderr)
    return dict(path=args.out + ".meta.json", config={"pooling": params.pooling}, seed=None,
                inputs=[args.checkpoint, args.texts], outputs=[args.out, storage.ids_sidecar(args.out)])


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--k must be comma-separated integers, got {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k values must be >= 1, got {text!r}")
    return ks


def _cmd_eval(args: argparse.Namespace) -> None:
    ks = _parse_ks(args.k)
    from . import metrics
    ids, matrix = storage.read_embeddings(args.embeddings)
    # One float64 copy, each id a view of its row; rebinding frees the float32 original.
    matrix = matrix.astype(np.float64)
    lookup = dict(zip(ids, matrix))

    def vec(identifier: str) -> np.ndarray:
        if identifier not in lookup:
            raise PipelineError("E_MISSING_EMBEDDING", f"no embedding for id {identifier!r}")
        return lookup[identifier]

    if args.pairs:
        pair_rows = storage.read_pairs(args.pairs)
        if pair_rows and pair_rows[0][2] is not None:
            tasks = {"sts": metrics.STSTask(pairs=[(vec(q), vec(c), float(s)) for q, c, s in pair_rows])}
        else:
            tasks = {"retrieval": metrics.RetrievalTask(
                queries=[(q, vec(q)) for q, _, _ in pair_rows],
                candidates=[(c, vec(c)) for c in dict.fromkeys(c for _, c, _ in pair_rows)],
                gold={q: c for q, c, _ in pair_rows},
            )}
    else:
        qrels = storage.read_qrels(args.qrels)
        query_ids = dict.fromkeys(qid for qid, _ in qrels)
        tasks = {"graded": metrics.GradedTask(
            queries=[(qid, vec(qid)) for qid in query_ids],
            candidates=[(cid, v) for cid, v in lookup.items() if cid not in query_ids],
            qrels=qrels,
        )}
    report = metrics.evaluate(**tasks, ks=ks, gain=args.gain)
    if args.table:
        print(report_tables(report.to_dict(), model_name=Path(args.embeddings).stem))
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


def _cmd_stats(args: argparse.Namespace) -> None:
    from . import corpus
    from .encoder import Tokenizer
    records = storage.read_jsonl(args.corpus, corpus.SentenceRecord.from_row)
    stats = corpus.corpus_stats(records, Tokenizer())
    print(json.dumps(vars(stats), indent=2, sort_keys=True))


def _cmd_gradcheck(args: argparse.Namespace) -> None:
    for flag, value in (("--samples", args.samples), ("--batch-size", args.batch_size)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if not 0.0 < args.h < math.inf:  # also false for NaN
        raise UsageError(f"--h must be finite and > 0, got {args.h}")
    from . import trainer, triplets
    params = load_checkpoint(args.checkpoint)
    batch = storage.read_jsonl(args.batch, triplets.Triplet.from_row)[: args.batch_size]
    if not batch:
        raise PipelineError("E_EMPTY_BATCH", f"no triplets in {args.batch}")
    config = trainer.TrainConfig(seed=args.seed, train_lora_only=args.lora_only)
    error = trainer.gradient_check(params, batch, h=args.h, samples=args.samples, config=config, seed=args.seed)
    print(json.dumps({"max_rel_error": error, "samples": args.samples, "h": args.h, "lora_only": args.lora_only}))


def report_tables(report: dict, model_name: str = "model") -> str:
    """Plain-text table: Model/Acc@1/Acc@5/MRR for retrieval tasks,
    Task/Metric/Score rows otherwise."""
    acc = report.get("acc_at") or {}
    if report.get("mrr") is not None:
        headers = ["Model", "Acc@1", "Acc@5", "MRR"]
        row = [
            model_name,
            _fmt_pct(acc.get("1")),
            _fmt_pct(acc.get("5")),
            f"{report['mrr']:.4f}",
        ]
        return _render_table(headers, [row])
    rows = []
    if report.get("ndcg_at_10") is not None:
        rows.append(["graded-retrieval", "NDCG@10", f"{report['ndcg_at_10']:.4f}"])
        for k, value in sorted(report.get("recall_at", {}).items(), key=lambda kv: int(kv[0])):
            rows.append(["graded-retrieval", f"Recall@{k}", f"{value:.4f}"])
    if report.get("spearman") is not None:
        rows.append(["similarity", "Spearman", f"{report['spearman']:.4f}"])
    return _render_table(["Task", "Metric", "Score"], rows)


def _fmt_pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _run_command(args: argparse.Namespace) -> dict | None:
    """``args.func(args)``; a ``MemoryError`` is E_OUT_OF_MEMORY. That error is raised after the
    handler, once the failed command's frames, and the memory they hold, have been let go."""
    try:
        return args.func(args)
    except MemoryError:
        pass
    raise DataError("E_OUT_OF_MEMORY", f"{args.command} ran out of memory")


def run(argv: list[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code.

    A command that writes files returns the keywords of its run metadata,
    which is written here, after the command has succeeded."""
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        written = _run_command(args)
        if written is not None:
            storage.write_run_metadata(**written, command=args.command, duration_s=time.monotonic() - started)
        return 0
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code


def main() -> None:
    raise SystemExit(run())
