"""Triplet building: paraphrase providers, negative sampling, determinism."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from collections.abc import Sequence

import numpy as np
import pytest

from minembed.corpus import SentenceRecord
from minembed.errors import DataError
from minembed.storage import read_jsonl, write_jsonl
from minembed.triplets import (
    FALLBACK_STOPWORDS,
    NegativePolicy,
    SubprocessProvider,
    Triplet,
    build_triplets,
    fallback_paraphrase,
    generate_positive,
    sample_hard_negative,
    source_positions,
)

from conftest import two_cluster_records


def record(sent_id: str, text: str, source: str = "src", split: str = "train") -> SentenceRecord:
    return SentenceRecord(sent_id=sent_id, source_name=source, text=text, char_len=len(text), split=split)


# -- fallback paraphrase -------------------------------------------------------


def test_fallback_rotation():
    # 6 words: k = (6 mod 5) + 1 = 2, fewer than 8 non-stopwords so no drop.
    assert fallback_paraphrase("the left atrium is enlarged today") == "atrium is enlarged today the left"


def test_fallback_deterministic():
    text = "the left atrium is enlarged today"
    assert fallback_paraphrase(text) == fallback_paraphrase(text)


def test_fallback_drops_stopwords_when_enough_words_remain():
    content = "apex basal chamber distal ejection fraction gradient hypertrophy"
    text = "the " + content + " of"
    out = fallback_paraphrase(text)
    assert set(out.split()) == set(content.split())
    assert len(out.split()) == 8


def test_fallback_keeps_stopwords_when_too_few_would_remain():
    text = "the of for and with mitral valve"
    out = fallback_paraphrase(text)
    assert sorted(out.split()) == sorted(text.split())


def test_generate_positive_rejects_empty_provider_output():
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "some anchor sentence"), lambda text: "")
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


def test_generate_positive_rejects_identical_output():
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "some anchor sentence"), lambda text: text)
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


def test_generate_positive_single_word_degenerate_under_fallback():
    # A one-word anchor rotates onto itself.
    with pytest.raises(DataError) as err:
        generate_positive(record("a", "pneumonoultramicroscopic"), fallback_paraphrase)
    assert err.value.code == "E_DEGENERATE_PARAPHRASE"


# -- subprocess provider -------------------------------------------------------

_ECHO_PROVIDER = (
    f"{sys.executable} -c \"import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'paraphrase': 'echo ' + req['text']}), flush=True)\""
)


def test_subprocess_provider_wire_protocol():
    with SubprocessProvider(_ECHO_PROVIDER) as provider:
        assert provider("left atrium") == "echo left atrium"
        assert provider("unicode café") == "echo unicode café"


def test_subprocess_provider_unavailable():
    with pytest.raises(DataError) as err:
        SubprocessProvider("/nonexistent/binary-xyz")
    assert err.value.code == "E_PROVIDER_UNAVAILABLE"


def test_subprocess_provider_malformed_response():
    bad = f"{sys.executable} -c \"import sys\nfor line in sys.stdin: print('not json', flush=True)\""
    with SubprocessProvider(bad) as provider:
        with pytest.raises(DataError) as err:
            provider("text")
        assert err.value.code == "E_PROVIDER_UNAVAILABLE"


def _python_provider(body: str) -> str:
    """A provider command running the Python ``body`` after ``import json, sys``."""
    return f"{shlex.quote(sys.executable)} -c {shlex.quote('import json, sys' + chr(10) + body)}"


def test_subprocess_provider_error_ends_with_its_stderr():
    with SubprocessProvider(_python_provider("sys.stderr.write('boom' + chr(10))")) as provider:
        with pytest.raises(DataError) as err:
            provider("text")
    assert err.value.code == "E_PROVIDER_UNAVAILABLE"
    assert str(err.value).endswith("closed its stream; provider stderr ends: 'boom\\n'")


def test_subprocess_provider_error_of_a_silent_provider_names_no_stderr():
    with SubprocessProvider("false") as provider:
        with pytest.raises(DataError) as err:
            provider("text")
    assert str(err.value) == "E_PROVIDER_UNAVAILABLE: provider 'false' closed its stream"


def test_subprocess_provider_timeout_ends_with_its_stderr(monkeypatch):
    import minembed.triplets as triplets_mod

    monkeypatch.setattr(triplets_mod, "PROVIDER_RESPONSE_TIMEOUT_S", 0.3)
    stuck = _python_provider("sys.stderr.write('loading model' + chr(10)); sys.stderr.flush()\nfor line in sys.stdin: pass")
    with SubprocessProvider(stuck) as provider:
        with pytest.raises(DataError) as err:
            provider("text")
    assert err.value.code == "E_PROVIDER_TIMEOUT"
    assert str(err.value).endswith("1 requests unanswered; provider stderr ends: 'loading model\\n'")


# Answers the first two requests, then reads on without answering; or
# answers them, closes its stdin and lingers.
_ANSWERS_TWO = {
    "stalls": "for i, line in enumerate(sys.stdin):\n"
              "    if i < 2: print(json.dumps({'paraphrase': 'echo ' + json.loads(line)['text']}), flush=True)",
    "closes-stdin": "import os, time\n"
                    "for _ in range(2): print(json.dumps({'paraphrase': 'echo ' + json.loads(sys.stdin.readline())['text']}), "
                    "flush=True)\n"
                    "os.close(0); time.sleep(15)",
}


@pytest.mark.parametrize("kind, code, shortened", [
    ("stalls", "E_PROVIDER_TIMEOUT", "PROVIDER_RESPONSE_TIMEOUT_S"),
    ("closes-stdin", "E_PROVIDER_UNAVAILABLE", "PROVIDER_EXIT_GRACE_S"),
], ids=["stalls", "closes-stdin"])
def test_subprocess_provider_error_counts_the_requests_unanswered(monkeypatch, kind, code, shortened):
    import minembed.triplets as triplets_mod

    monkeypatch.setattr(triplets_mod, shortened, 0.3)
    texts = [f"text {i}" for i in range(5)]
    with SubprocessProvider(_python_provider(_ANSWERS_TWO[kind])) as provider:
        provider.expect(texts)
        assert [provider(t) for t in texts[:2]] == ["echo text 0", "echo text 1"]
        with pytest.raises(DataError) as err:
            provider(texts[2])
    assert err.value.code == code
    assert str(err.value).endswith(" with 3 requests unanswered")


def test_subprocess_provider_drains_a_chatty_stderr():
    # 1 MiB of stderr, 16 times a pipe's buffer, before the first answer;
    # then an answer, and a last word on stderr before exiting.
    chatty = _python_provider(
        "sys.stderr.write('x' * (1 << 20)); sys.stderr.flush()\n"
        "print(json.dumps({'paraphrase': 'echo ' + json.loads(sys.stdin.readline())['text']}), flush=True)\n"
        "sys.stderr.write('done')"
    )
    with SubprocessProvider(chatty) as provider:
        assert provider("first") == "echo first"
        with pytest.raises(DataError) as err:
            provider("second")
    assert err.value.code == "E_PROVIDER_UNAVAILABLE"
    assert str(err.value).endswith("; provider stderr ends: " + repr("x" * (2048 - 4) + "done"))


class OneRequestAtATimeProvider:
    """The subprocess client before requests were pipelined: each call
    writes one request, then blocks on reading its answer line."""

    def __init__(self, command: str) -> None:
        self._proc = subprocess.Popen(shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, encoding="utf-8", bufsize=1)

    def __call__(self, text: str) -> str:
        self._proc.stdin.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())["paraphrase"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


# Answers "empty ..." with nothing and "same ..." with the text itself (both
# degenerate); reverses the word order of any other text and marks it.
_MIXED_PROVIDER_SCRIPT = """\
import json, sys
for line in sys.stdin.buffer:
    text = json.loads(line.decode("utf-8"))["text"]
    out = "" if text.startswith("empty") else text if text.startswith("same") else " ".join(text.split()[::-1]) + " ∎"
    sys.stdout.buffer.write(json.dumps({"paraphrase": out}, ensure_ascii=False).encode("utf-8") + b"\\n")
    sys.stdout.buffer.flush()
"""


def test_pipelined_provider_builds_the_same_triplets_as_one_request_at_a_time(tmp_path):
    script = tmp_path / "provider.py"
    script.write_text(_MIXED_PROVIDER_SCRIPT, encoding="utf-8")
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    kinds = ["left atrium {i} is enlarged", "empty answer {i}", "same answer {i}", "", "café naïve 東京 {i} 🫀"]
    records = [record(f"s{i}", kinds[i % len(kinds)].format(i=i), source=f"src{i % 3}", split=("train", "val")[i % 2])
               for i in range(900)]
    # Longer than a pipe's buffer, both ways.
    records[450] = record("s450", " ".join(f"w{j}" for j in range(20_000)))
    assert len(records[450].text) > 100 * 1024
    policy = NegativePolicy(min_index_distance=7, require_different_source=True, seed=3)
    reference = OneRequestAtATimeProvider(command)
    try:
        expected = build_triplets(records, policy, reference)
    finally:
        reference.close()
    with SubprocessProvider(command) as provider:
        result = build_triplets(records, policy, provider)
    assert result == expected
    # 900 anchors: 180 empty answers, 180 identical ones, 180 with no text.
    assert result.skipped_paraphrase == 540 and len(result.triplets) == 360 - result.skipped_negative
    assert any(t.anchor_id == "s450" for t in result.triplets)


def test_subprocess_provider_rejects_a_call_out_of_the_announced_order():
    with SubprocessProvider(_ECHO_PROVIDER) as provider:
        provider.expect(["first", "second"])
        assert provider("first") == "echo first"
        with pytest.raises(ValueError):
            provider("third")


# -- hard negative sampling ----------------------------------------------------


def distant_records(n: int, source: str = "src") -> list[SentenceRecord]:
    return [record(f"{source}:{i}", f"sentence number {i} from {source}", source=source) for i in range(n)]


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"min_index_distance": 0}])
def test_bad_policy_rejected(kwargs):
    with pytest.raises(DataError) as err:
        NegativePolicy(**kwargs)
    assert err.value.code == "E_BAD_POLICY" and f"got {next(iter(kwargs.values()))}" in str(err.value)


def test_two_record_corpus_returns_the_other():
    records = distant_records(2)
    policy = NegativePolicy(min_index_distance=1, seed=0)
    assert sample_hard_negative(0, records, policy).sent_id == "src:1"
    assert sample_hard_negative(1, records, policy).sent_id == "src:0"


def test_distance_at_least_corpus_size_has_no_candidates():
    records = distant_records(5)
    policy = NegativePolicy(min_index_distance=5, seed=0)
    with pytest.raises(DataError) as err:
        sample_hard_negative(2, records, policy)
    assert err.value.code == "E_NO_ELIGIBLE_NEGATIVE"


def test_distance_constraint_respected():
    records = distant_records(50)
    policy = NegativePolicy(min_index_distance=20, seed=1)
    for anchor in (0, 25, 49):
        for draw_seed in range(20):
            chosen = sample_hard_negative(anchor, records, NegativePolicy(20, False, draw_seed))
            assert abs(records.index(chosen) - anchor) >= 20


def test_cross_source_preferred_when_satisfiable():
    records = distant_records(10, "s1") + distant_records(10, "s2")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=3)
    chosen = sample_hard_negative(2, records, policy)
    assert chosen.source_name == "s2"


def test_cross_source_relaxed_when_unsatisfiable():
    records = distant_records(10, "only")
    policy = NegativePolicy(min_index_distance=3, require_different_source=True, seed=3)
    chosen = sample_hard_negative(0, records, policy)
    assert chosen.source_name == "only"


def test_sampling_uniform_chi_square():
    """10,000 seeded draws over the eligible set, checked bucket-wise at 3 sigma."""
    n, distance, anchor = 1000, 100, 500
    records = distant_records(n)
    eligible = [i for i in range(n) if abs(i - anchor) >= distance]
    counts = {i: 0 for i in eligible}
    draws = 10_000
    for draw_seed in range(draws):
        chosen = sample_hard_negative(anchor, records, NegativePolicy(distance, False, draw_seed))
        counts[int(chosen.sent_id.split(":")[1])] += 1
    assert sum(counts.values()) == draws
    # 20 equal buckets over the eligible set; each expected draws/20.
    buckets = np.array_split(np.array([counts[i] for i in eligible]), 20)
    expected = draws / 20
    sigma = (draws * (1 / 20) * (19 / 20)) ** 0.5
    for bucket in buckets:
        assert abs(bucket.sum() - expected) <= 3 * sigma
    chi2 = sum((bucket.sum() - expected) ** 2 / expected for bucket in buckets)
    assert chi2 < 43.8  # chi-square 99.9th percentile, 19 dof


def test_sampling_accepts_manifest():
    manifest = distant_records(4)
    policy = NegativePolicy(min_index_distance=2, seed=0)
    chosen = sample_hard_negative(0, manifest, policy)
    assert chosen.sent_id in ("src:2", "src:3")


def list_building_negative(anchor_index, records, policy, rng=None):
    """Reference sampler: list every eligible index, then draw one."""
    if rng is None:
        rng = np.random.default_rng([policy.seed, anchor_index])
    anchor = records[anchor_index]
    eligible = [i for i in range(len(records)) if abs(i - anchor_index) >= policy.min_index_distance]
    if policy.require_different_source:
        cross = [i for i in eligible if records[i].source_name != anchor.source_name]
        if cross:
            eligible = cross
    if not eligible:
        raise DataError("E_NO_ELIGIBLE_NEGATIVE", "no eligible negative")
    return records[eligible[int(rng.integers(len(eligible)))]]


def negative_or_code(sampler, *args, **kwargs) -> str:
    try:
        return sampler(*args, **kwargs).sent_id
    except DataError as exc:
        return exc.code


@pytest.mark.parametrize("with_index", [False, True])
def test_sampler_matches_list_building_reference(with_index):
    """Random policies over interleaved sources, every anchor, both ends included."""
    gen = np.random.default_rng(20)
    for _ in range(300):
        n = int(gen.integers(1, 61))
        n_sources = int(gen.integers(1, 4))
        records = [record(f"r{i}", f"text {i}", source=f"s{gen.integers(n_sources)}") for i in range(n)]
        policy = NegativePolicy(
            min_index_distance=int(gen.integers(1, n + 3)),
            require_different_source=bool(gen.integers(2)),
            seed=int(gen.integers(1000)),
        )
        positions = source_positions(records) if with_index else None
        for anchor in range(n):
            expected = negative_or_code(list_building_negative, anchor, records, policy)
            assert negative_or_code(sample_hard_negative, anchor, records, policy, positions=positions) == expected


def test_sampler_shares_the_callers_stream_with_the_reference():
    """One stream across anchors, as build_triplets draws. An anchor index
    outside the records is rejected before any draw, with or without a stream."""
    records = [record(f"r{i}", f"text {i}", source="ab"[i % 3 == 0]) for i in range(40)]
    policy = NegativePolicy(min_index_distance=7, require_different_source=True, seed=2)
    positions = source_positions(records)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for anchor in range(40):
        expected = negative_or_code(list_building_negative, anchor, records, policy, theirs)
        assert negative_or_code(sample_hard_negative, anchor, records, policy, ours, positions=positions) == expected
    state = ours.bit_generator.state
    for anchor in (*range(-40, 0), 40):
        assert negative_or_code(sample_hard_negative, anchor, records, policy, ours, positions=positions) == "E_BAD_ANCHOR"
        assert negative_or_code(sample_hard_negative, anchor, records, policy) == "E_BAD_ANCHOR"
    assert ours.bit_generator.state == state


class CountingRecords(Sequence):
    """A record sequence that counts item reads."""

    def __init__(self, records):
        self.records = records
        self.reads = 0

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        self.reads += 1
        return self.records[index]


@pytest.mark.parametrize("cross_source", [False, True])
def test_sampler_reads_the_anchor_and_the_result_only(cross_source):
    records = [record(f"r{i}", f"text {i}", source=f"s{i % 3}") for i in range(5000)]
    policy = NegativePolicy(min_index_distance=100, require_different_source=cross_source, seed=1)
    positions = source_positions(records)
    for anchor in (0, 50, 2500, 4999):
        counting = CountingRecords(records)
        sample_hard_negative(anchor, counting, policy, positions=positions)
        assert counting.reads == 2


# -- build_triplets --------------------------------------------------------------


def test_build_one_triplet_per_anchor():
    manifest = distant_records(10)
    policy = NegativePolicy(min_index_distance=1, seed=7)
    result = build_triplets(manifest, policy)
    assert len(result.triplets) == 10
    assert result.skipped_paraphrase == 0
    for t in result.triplets:
        assert t.anchor_id != t.negative_id
        assert t.positive_text != t.anchor_text
        assert t.split == "train"


def test_build_empty_split_is_empty():
    manifest = []
    result = build_triplets(manifest, NegativePolicy(min_index_distance=1, seed=0))
    assert result.triplets == []


def test_build_reproducible_byte_identical():
    manifest = two_cluster_records(30, seed=5, split="train")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=9)
    rows_a = [t.to_row() for t in build_triplets(manifest, policy).triplets]
    rows_b = [t.to_row() for t in build_triplets(manifest, policy).triplets]
    assert rows_a == rows_b


def test_build_propagates_provider_failures():
    # Only a degenerate paraphrase is a skip; a failing provider stops the build.
    def dead_provider(text: str) -> str:
        raise DataError("E_PROVIDER_UNAVAILABLE", "provider exited")

    with pytest.raises(DataError) as err:
        build_triplets(distant_records(6), NegativePolicy(min_index_distance=1, seed=0), dead_provider)
    assert err.value.code == "E_PROVIDER_UNAVAILABLE"


def test_build_counts_unparaphrasable_anchors():
    records = distant_records(6)
    records.append(record("src:single", "antidisestablishmentarianism"))
    result = build_triplets(records, NegativePolicy(min_index_distance=1, seed=0))
    assert result.skipped_paraphrase == 1
    assert len(result.triplets) == 6


def test_build_counts_negative_skips_without_abort():
    result = build_triplets(distant_records(4), NegativePolicy(min_index_distance=4, seed=0))
    assert result.triplets == []
    assert result.skipped_negative == 4


def test_build_anchor_and_negative_same_split():
    records = distant_records(12)
    for i, r in enumerate(records):
        r.split = "train" if i % 2 == 0 else "val"
    result = build_triplets(records, NegativePolicy(min_index_distance=1, seed=1))
    id_to_split = {r.sent_id: r.split for r in records}
    for t in result.triplets:
        assert id_to_split[t.anchor_id] == t.split
        assert id_to_split[t.negative_id] == t.split


def test_cross_source_invariant_on_multisource_corpus():
    manifest = two_cluster_records(25, seed=2, split="train")
    policy = NegativePolicy(min_index_distance=1, require_different_source=True, seed=4)
    result = build_triplets(manifest, policy)
    source_of = {r.sent_id: r.source_name for r in manifest}
    for t in result.triplets:
        assert source_of[t.anchor_id] != source_of[t.negative_id]


def test_triplet_rows_roundtrip(tmp_path):
    t = Triplet("a", "anchor text", "positive text", "n", "negative text", "train")
    write_jsonl(tmp_path / "t.jsonl", [t.to_row()])
    assert read_jsonl(tmp_path / "t.jsonl", Triplet.from_row) == [t]
    assert Triplet.from_row(t.to_row()) == t
    assert list(t.to_row()) == ["anchor_id", "anchor_text", "positive_text", "negative_id", "negative_text", "split"]
