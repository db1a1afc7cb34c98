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

import contextlib
import json
import shlex
import subprocess
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import SentenceRecord, source_positions
from .errors import DataError
from .storage import Record, typed_value

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
class Triplet(Record):
    """One training unit: anchor, paraphrase positive, sampled negative."""

    anchor_id: str
    anchor_text: str
    positive_text: str
    negative_id: str
    negative_text: str
    split: str


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
            proc.stdin.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"provider pipe failed: {exc}") from exc
        if not line:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"provider {self.command!r} closed its stream")
        try:
            return typed_value(json.loads(line), "paraphrase", str)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"malformed provider response: {line!r}") from exc

    def close(self) -> None:
        proc = self._proc
        with contextlib.suppress(BrokenPipeError):  # it closed its stdin before a request was sent
            proc.stdin.close()
        try:
            proc.wait(timeout=PROVIDER_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

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
    *,
    positions: Mapping[str, Sequence[int]] | None = None,
) -> SentenceRecord:
    """Pick a negative uniformly among records far enough from the anchor.

    Indices are positions within ``records``; an anchor index outside
    them is E_BAD_ANCHOR. When ``require_different_source`` is set and
    any distant record has a different source, sampling is restricted to
    those records.

    The distant records are the index ranges ``[0, left)`` and
    ``[right, n)``. One draw ``k`` over the eligible count picks the k-th
    eligible index, found by arithmetic, or for a cross-source draw by
    binary search over the anchor's same-source positions. A call reads
    two records and costs O(log n), given ``positions``, which is
    ``source_positions(records)``; without it, a cross-source call builds
    it in O(n).
    """
    n = len(records)
    if not 0 <= anchor_index < n:
        raise DataError("E_BAD_ANCHOR", f"anchor index {anchor_index} is outside [0, {n})")
    if rng is None:
        rng = np.random.default_rng([policy.seed, anchor_index])
    anchor = records[anchor_index]
    distance = policy.min_index_distance
    left = max(0, anchor_index - distance + 1)
    right = min(n, max(0, anchor_index + distance))
    distant = left + n - right
    if distant == 0:
        raise DataError(
            "E_NO_ELIGIBLE_NEGATIVE",
            f"no negative at distance >= {distance} from index {anchor_index}",
        )
    if policy.require_different_source:
        if positions is None:
            positions = source_positions(records)
        same = positions[anchor.source_name]
        below_left, below_right = bisect_left(same, left), bisect_left(same, right)
        cross = distant - below_left - (len(same) - below_right)
        if cross:
            k = int(rng.integers(cross))
            if k >= left - below_left:
                # Step over the other-source records in [left, right).
                k += right - left - (below_right - below_left)
            # The k-th index not in `same`: same[m] - m indices below same[m]
            # are not in it, a count that never decreases with m.
            return records[k + bisect_right(range(len(same)), k, key=lambda m: same[m] - m)]
    k = int(rng.integers(distant))
    return records[k if k < left else k + right - left]


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

    Anchors whose paraphrase is degenerate (empty or unchanged) or that
    have no eligible negative are skipped and counted; any other provider
    error propagates. Negative sampling consumes one seeded stream per
    split, so identical inputs reproduce identical output.
    """
    result = TripletBuildResult(triplets=[])
    for split, tag in SPLIT_SEED_TAGS.items():
        in_split = [r for r in records if r.split == split]
        if not in_split:
            continue
        positives = _paraphrase_all(in_split, provider)
        positions = source_positions(in_split)
        rng = np.random.default_rng([policy.seed, tag])
        for index, record in enumerate(in_split):
            positive = positives[index]
            if isinstance(positive, DataError):
                result.skipped_paraphrase += 1
                continue
            try:
                negative = sample_hard_negative(index, in_split, policy, rng, positions=positions)
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
    """Run the provider over all anchors, preserving order; capture degenerate paraphrases.

    The requests go out back to back, before any negative sampling: a
    subprocess provider woken between the sampler's CPU bursts instead
    used about 1.6x the CPU time for the same requests (7.7k anchors,
    2-vCPU x86-64 host).
    """

    def one(record: SentenceRecord) -> str | DataError:
        try:
            return generate_positive(record, provider)
        except DataError as exc:
            if exc.code != "E_DEGENERATE_PARAPHRASE":
                raise
            return exc

    return [one(r) for r in records]
