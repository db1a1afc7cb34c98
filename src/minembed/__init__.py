"""Desk-scale contrastive sentence-embedding pipeline. Each exported name is loaded
from its submodule on first use (PEP 562), so ``import minembed`` loads no submodule."""

import importlib

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "corpus": (
        "CorpusStats", "RawDocument", "SentenceRecord", "build_manifest", "clean_text", "corpus_stats",
        "deduplicate", "filter_short", "segment_sentences", "stratified_split",
    ),
    "encoder": ("EncoderParams", "Tokenizer", "encode_batch", "init_params", "load_checkpoint", "save_checkpoint"),
    "errors": ("DataError", "NumericError", "PipelineError", "UsageError"),
    "metrics": (
        "GradedTask", "MetricReport", "RetrievalTask", "STSTask", "accuracy_at_k", "evaluate",
        "mean_positive_similarity", "mean_reciprocal_rank", "ndcg_at_10", "rank_candidates", "recall_at_k",
        "spearman_rho",
    ),
    "trainer": (
        "BatchLossReport", "OptimizerState", "TrainConfig", "adamw_step", "gradient_check", "infonce_gradient",
        "infonce_loss", "lr_at_step", "train",
    ),
    "triplets": (
        "NegativePolicy", "SubprocessProvider", "Triplet", "build_triplets", "fallback_paraphrase",
        "generate_positive", "sample_hard_negative",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules, each an attribute of the package once first read.
_SUBMODULES = (*_EXPORTS, "storage")

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
