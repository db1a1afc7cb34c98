"""Command-line front end chaining the pipeline.

Subcommands: prepare, triplets, train, embed, eval, stats, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; data goes to files or stdout. Every run that
writes files also writes a run-metadata JSON with config, seed, and
SHA-256 digests of inputs and outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import corpus, metrics, storage, trainer, triplets
from .encoder import POOLINGS, Tokenizer, encode_batch, init_params, load_checkpoint
from .errors import DataError, PipelineError, UsageError

# Config keys and their defaults: every TrainConfig field, then every
# init_params keyword except the seed, which TrainConfig already carries.
_TRAIN_CONFIG_KEYS = {f.name: f.default for f in fields(trainer.TrainConfig)}
_ENCODER_CONFIG_KEYS = {
    name: param.default for name, param in inspect.signature(init_params).parameters.items() if name != "seed"
}

_TRAIN_DEFAULTS_HELP = (
    "Config keys and their defaults: "
    + ", ".join(f"{key}={value}" for key, value in {**_TRAIN_CONFIG_KEYS, **_ENCODER_CONFIG_KEYS}.items())
    + ". A JSON config file passed via --config overrides flags."
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as UsageError."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


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
        epilog=_TRAIN_DEFAULTS_HELP,
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
    p.add_argument("--gain", choices=[metrics.GAIN_LINEAR, metrics.GAIN_EXP], default=metrics.GAIN_LINEAR, help="NDCG gain function")
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


def _load_documents(input_path: str) -> list[corpus.RawDocument]:
    path = Path(input_path)
    if path.is_dir():
        docs = []
        for file in sorted(path.glob("*.txt")):
            docs.append(corpus.RawDocument(doc_id=file.stem, source_name=file.stem, text=storage.read_text(file)))
        if not docs:
            raise UsageError(f"no .txt files in {path}")
        return docs
    if not path.exists():
        raise UsageError(f"input {path} does not exist")
    if path.suffix == ".jsonl":
        return storage.read_jsonl(path, corpus.RawDocument.from_row)
    return [corpus.RawDocument(doc_id=path.stem, source_name=path.stem, text=storage.read_text(path))]


def _cmd_prepare(args: argparse.Namespace) -> int:
    started = time.monotonic()
    docs = _load_documents(args.input)
    records = corpus.build_manifest(docs, min_chars=args.min_chars)
    records = corpus.stratified_split(records, train_frac=args.train_frac, seed=args.seed, test_frac=args.test_frac)
    storage.write_jsonl(args.out, [r.to_row() for r in records])
    storage.write_run_metadata(
        args.out + ".meta.json",
        command="prepare",
        config={
            "min_chars": args.min_chars,
            "train_frac": args.train_frac,
            "test_frac": args.test_frac,
        },
        seed=args.seed,
        inputs=[],
        outputs=[args.out],
        duration_s=time.monotonic() - started,
    )
    counts = {s: sum(r.split == s for r in records) for s in corpus.SPLITS}
    print(f"prepare: {len(records)} sentences ({counts})", file=sys.stderr)
    return 0


def _cmd_triplets(args: argparse.Namespace) -> int:
    started = time.monotonic()
    records = storage.read_jsonl(args.corpus, corpus.SentenceRecord.from_row)
    policy = triplets.NegativePolicy(
        min_index_distance=args.min_distance,
        require_different_source=args.cross_source,
        seed=args.seed,
    )
    if args.provider:
        with triplets.SubprocessProvider(args.provider) as provider:
            result = triplets.build_triplets(records, policy, provider)
    else:
        result = triplets.build_triplets(records, policy)
    storage.write_jsonl(args.out, [t.to_row() for t in result.triplets])
    storage.write_run_metadata(
        args.out + ".meta.json",
        command="triplets",
        config={
            "min_distance": args.min_distance,
            "cross_source": args.cross_source,
            "provider": args.provider,
            "skipped_paraphrase": result.skipped_paraphrase,
            "skipped_negative": result.skipped_negative,
        },
        seed=args.seed,
        inputs=[args.corpus],
        outputs=[args.out],
        duration_s=time.monotonic() - started,
    )
    print(
        f"triplets: {len(result.triplets)} built, "
        f"{result.skipped_paraphrase} paraphrase skips, {result.skipped_negative} negative skips",
        file=sys.stderr,
    )
    return 0


def _check_config_type(key: str, value: object, expected: type) -> None:
    # An int may stand for a float. bool is a subclass of int, so it is
    # ruled out separately for every key that is not a bool.
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise UsageError(f"config key {key!r} must be {expected.__name__}, got {value!r}")


def _train_config_from(args: argparse.Namespace) -> tuple[trainer.TrainConfig, dict]:
    """Defaults, then flags, then config-file keys (highest precedence).

    Each config value must have the type of the ``TrainConfig`` field or of
    the ``init_params`` default that it overrides.
    """
    values = dict(_TRAIN_CONFIG_KEYS)
    values["seed"] = args.seed
    values["train_lora_only"] = args.lora_only
    encoder_cfg = dict(_ENCODER_CONFIG_KEYS)
    types = get_type_hints(trainer.TrainConfig)
    types.update({key: type(default) for key, default in _ENCODER_CONFIG_KEYS.items()})
    if args.config:
        try:
            overrides = json.loads(storage.read_text(args.config))
        except json.JSONDecodeError as exc:
            raise UsageError(f"cannot parse config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise UsageError(f"config {args.config} must be a JSON object")
        for key, value in overrides.items():
            if key not in types:
                raise UsageError(f"unknown config key {key!r}")
            _check_config_type(key, value, types[key])
            (values if key in values else encoder_cfg)[key] = value
    return trainer.TrainConfig(**values), encoder_cfg


def _cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config, encoder_cfg = _train_config_from(args)
    all_triplets = storage.read_jsonl(args.triplets, triplets.Triplet.from_row)
    train_rows = [t for t in all_triplets if t.split == "train"]
    if args.val:
        val_rows = storage.read_jsonl(args.val, triplets.Triplet.from_row)
    else:
        val_rows = [t for t in all_triplets if t.split == "val"]
    params = init_params(config.seed, **encoder_cfg)
    params, reports = trainer.train(train_rows, params, config, val_triplets=val_rows or None, out_dir=args.out_dir)
    out_dir = Path(args.out_dir)
    storage.write_jsonl(out_dir / "train-report.jsonl", [vars(r) for r in reports])
    outputs = [out_dir / "train-report.jsonl", out_dir / "train-log.jsonl"]
    outputs += [r.checkpoint for r in reports if r.checkpoint]
    storage.write_run_metadata(
        out_dir / "run-metadata.json",
        command="train",
        config={**config.to_dict(), **encoder_cfg},
        seed=config.seed,
        inputs=[args.triplets] + ([args.val] if args.val else []),
        outputs=outputs,
        duration_s=time.monotonic() - started,
    )
    for r in reports:
        val = f"{r.val_loss:.6f}" if r.val_loss is not None else "n/a"
        print(f"epoch {r.epoch}: train loss {r.mean_train_loss:.6f}, val loss {val}", file=sys.stderr)
    return 0


def _row_texts(row: dict) -> list[tuple[str | None, str]]:
    """(id, text) pairs of one row: a triplet row's anchor and positive, the
    positive id prefixed with ``pos::``, or a manifest row's text, with id
    None when the row has no ``sent_id``."""
    if "anchor_id" in row:
        anchor_id = str(row["anchor_id"])
        return [(anchor_id, str(row["anchor_text"])), (f"pos::{anchor_id}", str(row["positive_text"]))]
    return [(str(row["sent_id"]) if "sent_id" in row else None, str(row["text"]))]


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


def _cmd_embed(args: argparse.Namespace) -> int:
    started = time.monotonic()
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
    storage.write_run_metadata(
        args.out + ".meta.json",
        command="embed",
        config={"pooling": params.pooling},
        seed=None,
        inputs=[args.checkpoint, args.texts],
        outputs=[args.out, storage.ids_sidecar(args.out)],
        duration_s=time.monotonic() - started,
    )
    print(f"embed: {len(ids)} vectors of dim {vectors.shape[1] if len(ids) else 0}", file=sys.stderr)
    return 0


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--k must be comma-separated integers, got {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k values must be >= 1, got {text!r}")
    return ks


def _embedding_lookup(path: str) -> dict[str, np.ndarray]:
    ids, matrix = storage.read_embeddings(path)
    return {sid: matrix[i].astype(np.float64) for i, sid in enumerate(ids)}


def _cmd_eval(args: argparse.Namespace) -> int:
    lookup = _embedding_lookup(args.embeddings)
    ks = _parse_ks(args.k)

    def vec(identifier: str) -> np.ndarray:
        if identifier not in lookup:
            raise PipelineError("E_MISSING_EMBEDDING", f"no embedding for id {identifier!r}")
        return lookup[identifier]

    retrieval_task = graded_task = sts_task = None
    if args.pairs:
        pair_rows = storage.read_pairs(args.pairs)
        if pair_rows and pair_rows[0][2] is not None:
            sts_task = metrics.STSTask(pairs=[(vec(q), vec(c), float(s)) for q, c, s in pair_rows])
        else:
            gold = {q: c for q, c, _ in pair_rows}
            seen: dict[str, None] = {}
            for _, c, _ in pair_rows:
                seen.setdefault(c)
            retrieval_task = metrics.RetrievalTask(
                queries=[(q, vec(q)) for q, _, _ in pair_rows],
                candidates=[(c, vec(c)) for c in seen],
                gold=gold,
            )
    else:
        qrels = storage.read_qrels(args.qrels)
        query_ids: dict[str, None] = {}
        for qid, _ in qrels:
            query_ids.setdefault(qid)
        graded_task = metrics.GradedTask(
            queries=[(qid, vec(qid)) for qid in query_ids],
            candidates=[(cid, v) for cid, v in lookup.items() if cid not in query_ids],
            qrels=qrels,
        )
    report = metrics.evaluate(retrieval=retrieval_task, graded=graded_task, sts=sts_task, ks=ks, gain=args.gain)
    if args.table:
        print(report_tables(report.to_dict(), model_name=Path(args.embeddings).stem))
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    records = storage.read_jsonl(args.corpus, corpus.SentenceRecord.from_row)
    stats = corpus.corpus_stats(records, Tokenizer())
    print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.checkpoint)
    batch = storage.read_jsonl(args.batch, triplets.Triplet.from_row)[: args.batch_size]
    if not batch:
        raise PipelineError("E_EMPTY_BATCH", f"no triplets in {args.batch}")
    config = trainer.TrainConfig(seed=args.seed, train_lora_only=args.lora_only)
    error = trainer.gradient_check(params, batch, h=args.h, samples=args.samples, config=config, seed=args.seed)
    print(json.dumps({"max_rel_error": error, "samples": args.samples, "h": args.h, "lora_only": args.lora_only}))
    return 0


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


def run(argv: list[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code


def main() -> None:
    raise SystemExit(run())
