"""The library API: every documented name imports from the package, loaded on first use."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minembed
from minembed.corpus import RawDocument

from conftest import two_cluster_records

REPO_ROOT = Path(__file__).resolve().parents[1]

# Every name the package exported when its __init__ imported each submodule eagerly, and
# index_triplets, which makes the rows that train takes.
EXPORTED = {
    "corpus": ["CorpusStats", "RawDocument", "SentenceRecord", "build_manifest", "clean_text", "corpus_stats",
               "deduplicate", "filter_short", "segment_sentences", "stratified_split"],
    "encoder": ["EncoderParams", "Tokenizer", "encode_batch", "init_params", "load_checkpoint", "save_checkpoint"],
    "errors": ["DataError", "NumericError", "PipelineError", "UsageError"],
    "metrics": ["GradedTask", "MetricReport", "RetrievalTask", "STSTask", "accuracy_at_k", "evaluate",
                "mean_positive_similarity", "mean_reciprocal_rank", "ndcg_at_10", "rank_candidates", "recall_at_k",
                "spearman_rho"],
    "trainer": ["BatchLossReport", "OptimizerState", "TrainConfig", "adamw_step", "gradient_check",
                "index_triplets", "infonce_gradient", "infonce_loss", "lr_at_step", "train"],
    "triplets": ["NegativePolicy", "SubprocessProvider", "Triplet", "build_triplets", "fallback_paraphrase",
                 "generate_positive", "sample_hard_negative"],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)


@pytest.mark.parametrize("module_name", list(EXPORTED))
def test_every_exported_name_is_its_submodules_object(module_name):
    module = importlib.import_module(f"minembed.{module_name}")
    for name in EXPORTED[module_name]:
        namespace: dict = {}
        exec(f"from minembed import {name}", namespace)
        assert namespace[name] is getattr(module, name) is getattr(minembed, name), name
        assert name in minembed.__all__ and name in dir(minembed), name


def test_star_import_gives_the_exported_names():
    namespace: dict = {}
    exec("from minembed import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES == sorted(minembed.__all__)
    assert minembed.__version__ == "0.1.0"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tokenize'"):
        minembed.tokenize
    with pytest.raises(ImportError):
        exec("from minembed import cosine_similarity", {})


def test_plain_import_loads_no_submodule():
    # A submodule is still an attribute of the package, loaded when first read.
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    code = ("import sys, minembed\n"
            "print(sorted(m for m in sys.modules if m.startswith('minembed.')))\n"
            "print(minembed.storage.read_jsonl.__module__, minembed.trainer.__name__)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "minembed.storage minembed.trainer"]


def test_readme_library_snippet_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # One document per cluster, one sentence per paragraph: enough sentences for a 500-index distance.
    by_source: dict[str, list[str]] = {}
    for r in two_cluster_records(400, seed=3):
        by_source.setdefault(r.source_name, []).append(r.text)
    docs = [RawDocument(doc_id=source, source_name=source, text="\n\n".join(texts))
            for source, texts in sorted(by_source.items())]
    namespace = {"docs": docs}
    exec(snippet, namespace)
    assert namespace["result"].triplets and len(namespace["reports"]) == 2
    assert namespace["vectors"].shape == (1, namespace["params"].tensors["W2"].shape[1])


def test_no_module_imports_another_modules_private_name():
    # A name with a leading underscore is its module's own; another module that needs it needs a public one.
    imports = []
    for path in sorted((REPO_ROOT / "src" / "minembed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("minembed")):
                imports += [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert imports == []
