"""Desk-scale contrastive sentence-embedding pipeline."""

from .corpus import (
    CorpusStats,
    RawDocument,
    SentenceRecord,
    build_manifest,
    clean_text,
    corpus_stats,
    deduplicate,
    filter_short,
    segment_sentences,
    stratified_split,
)
from .encoder import (
    EncoderParams,
    Tokenizer,
    encode_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .errors import DataError, NumericError, PipelineError, UsageError
from .metrics import (
    GradedTask,
    MetricReport,
    RetrievalTask,
    STSTask,
    accuracy_at_k,
    evaluate,
    mean_positive_similarity,
    mean_reciprocal_rank,
    ndcg_at_10,
    rank_candidates,
    recall_at_k,
    spearman_rho,
)
from .trainer import (
    BatchLossReport,
    OptimizerState,
    TrainConfig,
    adamw_step,
    gradient_check,
    infonce_gradient,
    infonce_loss,
    lr_at_step,
    train,
)
from .triplets import (
    NegativePolicy,
    SubprocessProvider,
    Triplet,
    build_triplets,
    fallback_paraphrase,
    generate_positive,
    sample_hard_negative,
)

__version__ = "0.1.0"
