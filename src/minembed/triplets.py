"""Anchor / positive / hard-negative triplet construction.

Positives come from a paraphrase provider. Two providers ship with the
package: a deterministic built-in fallback (word rotation plus stopword
dropping; no semantic fidelity, intended for pipeline tests) and a
subprocess provider speaking newline-delimited JSON, one object per line:
request ``{"text": ...}``, response ``{"paraphrase": ...}``.

Hard negatives are sampled from corpus locations at least
``min_index_distance`` away, optionally restricted to a different source.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import SentenceRecord
from .errors import DataError

ParaphraseProvider = Callable[[str], str]

# Dropped by the fallback paraphraser when enough words remain afterwards.
FALLBACK_STOPWORDS = frozenset(
    "the of for and with from this that is to in on as by when then up at or an".split()
)
_MIN_WORDS_AFTER_DROP = 8

SPLIT_SEED_TAGS = {"train": 0, "val": 1, "test": 2}

# Seconds a provider may take to exit once its stdin is closed; then it is killed.
PROVIDER_EXIT_GRACE_S = 10.0


@dataclass(frozen=True)
class Triplet:
    """One training unit: anchor, paraphrase positive, sampled negative."""

    anchor_id: str
    anchor_text: str
    positive_text: str
    negative_id: str
    negative_text: str
    split: str

    def to_row(self) -> dict:
        # Fields are declared in row order. vars() rather than asdict(),
        # which deep-copies every field: about 15 us a row instead of 0.6
        # (CPython 3.11, x86-64).
        return dict(vars(self))

    @classmethod
    def from_row(cls, row: dict) -> "Triplet":
        return cls(
            anchor_id=str(row["anchor_id"]),
            anchor_text=str(row["anchor_text"]),
            positive_text=str(row["positive_text"]),
            negative_id=str(row["negative_id"]),
            negative_text=str(row["negative_text"]),
            split=str(row["split"]),
        )


@dataclass
class NegativePolicy:
    """Eligibility rules for hard-negative sampling."""

    min_index_distance: int = 500
    require_different_source: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_index_distance < 1:
            raise DataError("E_BAD_POLICY", f"min_index_distance must be >= 1, got {self.min_index_distance}")
        if self.seed < 0:
            raise DataError("E_BAD_POLICY", f"seed must be nonnegative, got {self.seed}")


def fallback_paraphrase(text: str) -> str:
    """Deterministic perturbation: rotate words left, drop stopwords.

    Rotation amount is ``(word_count mod 5) + 1``. The stopword drop only
    applies when at least 8 words survive it.
    """
    words = text.split()
    if not words:
        return ""
    k = (len(words) % 5) + 1
    rotated = words[k % len(words) :] + words[: k % len(words)]
    filtered = [w for w in rotated if w.lower() not in FALLBACK_STOPWORDS]
    return " ".join(filtered if len(filtered) >= _MIN_WORDS_AFTER_DROP else rotated)


class SubprocessProvider:
    """Paraphrase provider backed by a line-JSON subprocess.

    The command is spawned once; each call writes one request object to its
    stdin and reads one response object from its stdout.
    """

    def __init__(self, command: str) -> None:
        self.command = command
        self._lock = threading.Lock()  # one in-flight request per process
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"cannot start provider {command!r}: {exc}") from exc

    def __call__(self, text: str) -> str:
        proc = self._proc
        if proc.poll() is not None:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"provider {self.command!r} exited")
        try:
            with self._lock:
                proc.stdin.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
        except OSError as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"provider pipe failed: {exc}") from exc
        if not line:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"provider {self.command!r} closed its stream")
        try:
            response = json.loads(line)
            return str(response["paraphrase"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"malformed provider response: {line!r}") from exc

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=PROVIDER_EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "SubprocessProvider":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def generate_positive(anchor: SentenceRecord, provider: ParaphraseProvider) -> str:
    """Paraphrase the anchor; reject empty or unchanged provider output."""
    if not anchor.text:
        raise DataError("E_DEGENERATE_PARAPHRASE", f"anchor {anchor.sent_id} has empty text")
    positive = provider(anchor.text)
    if not positive or positive == anchor.text:
        raise DataError(
            "E_DEGENERATE_PARAPHRASE",
            f"provider returned {'empty' if not positive else 'identical'} text for {anchor.sent_id}",
        )
    return positive


def sample_hard_negative(
    anchor_index: int,
    records: Sequence[SentenceRecord],
    policy: NegativePolicy,
    rng: np.random.Generator | None = None,
) -> SentenceRecord:
    """Pick a negative uniformly among records far enough from the anchor.

    Indices are positions within ``records``. When
    ``require_different_source`` is set and any distant record has a
    different source, sampling is restricted to those records.
    """
    if rng is None:
        rng = np.random.default_rng([policy.seed, anchor_index])
    anchor = records[anchor_index]
    eligible = [
        i for i in range(len(records)) if abs(i - anchor_index) >= policy.min_index_distance
    ]
    if policy.require_different_source:
        cross = [i for i in eligible if records[i].source_name != anchor.source_name]
        if cross:
            eligible = cross
    if not eligible:
        raise DataError(
            "E_NO_ELIGIBLE_NEGATIVE",
            f"no negative at distance >= {policy.min_index_distance} from index {anchor_index}",
        )
    return records[eligible[int(rng.integers(len(eligible)))]]


@dataclass
class TripletBuildResult:
    triplets: list[Triplet]
    skipped_paraphrase: int = 0
    skipped_negative: int = 0


def build_triplets(
    records: Sequence[SentenceRecord],
    policy: NegativePolicy,
    provider: ParaphraseProvider = fallback_paraphrase,
) -> TripletBuildResult:
    """One triplet per anchor sentence per split, in record order.

    Anchors whose paraphrase fails or that have no eligible negative are
    skipped and counted. Negative sampling consumes one seeded stream per
    split, so identical inputs reproduce identical output.
    """
    result = TripletBuildResult(triplets=[])
    for split, tag in SPLIT_SEED_TAGS.items():
        in_split = [r for r in records if r.split == split]
        if not in_split:
            continue
        positives = _paraphrase_all(in_split, provider)
        rng = np.random.default_rng([policy.seed, tag])
        for index, record in enumerate(in_split):
            positive = positives[index]
            if isinstance(positive, DataError):
                result.skipped_paraphrase += 1
                continue
            try:
                negative = sample_hard_negative(index, in_split, policy, rng)
            except DataError as exc:
                if exc.code != "E_NO_ELIGIBLE_NEGATIVE":
                    raise
                result.skipped_negative += 1
                continue
            result.triplets.append(
                Triplet(
                    anchor_id=record.sent_id,
                    anchor_text=record.text,
                    positive_text=positive,
                    negative_id=negative.sent_id,
                    negative_text=negative.text,
                    split=split,
                )
            )
    return result


def _paraphrase_all(records: Sequence[SentenceRecord], provider: ParaphraseProvider) -> list[str | DataError]:
    """Run the provider over all anchors, preserving order; capture failures.

    The requests go out back to back, before any negative sampling: a
    subprocess provider woken between the sampler's CPU bursts instead
    used about 1.6x the CPU time for the same requests (7.7k anchors,
    2-vCPU x86-64 host).
    """

    def one(record: SentenceRecord) -> str | DataError:
        try:
            return generate_positive(record, provider)
        except DataError as exc:
            return exc

    return [one(r) for r in records]
