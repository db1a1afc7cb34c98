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
import os
import selectors
import shlex
import subprocess
import time
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import SPLITS, SentenceRecord, source_positions
from .errors import DataError
from .storage import Record, typed_value

ParaphraseProvider = Callable[[str], str]

# Dropped by the fallback paraphraser when enough words remain afterwards.
FALLBACK_STOPWORDS = frozenset(
    "the of for and with from this that is to in on as by when then up at or an".split()
)
_MIN_WORDS_AFTER_DROP = 8

# Seconds a provider may take to exit once its stdin is closed; then it is
# killed. A provider that closes its own stdin gets as long to answer the
# requests it has read.
PROVIDER_EXIT_GRACE_S = 10.0
# Seconds to wait for the next answer byte while a call waits on the
# provider; then it is killed and the run fails with E_PROVIDER_TIMEOUT.
PROVIDER_RESPONSE_TIMEOUT_S = 60.0
# Seconds a call that finds no answer lets the provider run before each
# wait on the pipes. Waking on every answer line cost the client and the
# provider a context switch per answer: on the benchmark's provider (7.7k
# answers, 2-vCPU x86-64 host) the pause cut the client's wake-ups from
# about 4,200 to 300 and the paraphrase CPU of both processes by a fifth.
# A slow provider pays one extra timer wake-up per answer.
_ANSWER_BATCH_WAIT_S = 0.0005
_READ_CHUNK_BYTES = 64 * 1024
# Bytes of the provider's stderr kept for error messages: the last ones.
_STDERR_TAIL_BYTES = 2 * 1024
# Bytes of a malformed answer quoted in its error message: the first ones.
_REPLY_QUOTE_BYTES = 200


@dataclass(frozen=True)
class Triplet(Record):
    """One training unit: anchor, paraphrase positive, sampled negative."""

    anchor_id: str
    anchor_text: str
    positive_text: str
    negative_id: str
    negative_text: str
    split: str = field(metadata={"choices": SPLITS})


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

    The command is spawned once. Each call returns the answer to one
    request, and answers are taken in request order. Texts announced with
    ``expect`` are written ahead of their calls, as fast as the pipe takes
    them, so the provider works through a backlog instead of waking once
    per call. One selector loop writes requests to the non-blocking stdin
    and reads the raw stdout in chunks, so a full pipe cannot deadlock the
    two processes, and a stuck provider fails the run after
    ``PROVIDER_RESPONSE_TIMEOUT_S``. The same loop drains the provider's
    stderr, so a chatty provider never blocks on it; the last
    ``_STDERR_TAIL_BYTES`` end the message of any error the provider
    causes, when it wrote any. An answer line that no request asked for,
    one more than the requests announced or a line still unread when the
    provider exits, is E_PROVIDER_UNAVAILABLE: it would pair every later
    answer with the request before its own.
    """

    def __init__(self, command: str) -> None:
        self.command = command
        try:
            argv = shlex.split(command)
            if not argv:
                raise ValueError("no program given")
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
            )
        except (OSError, ValueError) as exc:
            raise DataError("E_PROVIDER_UNAVAILABLE", f"cannot start provider {command!r}: {exc}") from exc
        self._stdin, self._stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        self._stderr = self._proc.stderr.fileno()
        os.set_blocking(self._stdin, False)
        os.set_blocking(self._stderr, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._stdout, selectors.EVENT_READ)
        self._selector.register(self._stderr, selectors.EVENT_READ)
        # Registered for reading, the write end reports only an error: the
        # provider closed its stdin. It is watched for writing while
        # request bytes wait to go out.
        self._selector.register(self._stdin, selectors.EVENT_READ)
        self._calls: deque[str] = deque()  # announced texts whose call has not come
        self._out = bytearray()  # announced request bytes the pipe has not taken
        self._unanswered = 0  # announced requests with no answer line yet
        self._partial = b""  # answer bytes after the last newline read
        self._answers: deque[bytes] = deque()  # answer lines no call has taken
        self._eof = False
        self._stderr_tail = b""  # the last _STDERR_TAIL_BYTES the provider wrote to stderr
        self._stderr_open = True
        # Once the provider has closed its stdin: when the answers still due are given up.
        self._stdin_closed_by: float | None = None

    def expect(self, texts: Iterable[str]) -> None:
        """Announce the texts the next calls will request, in call order, so
        their requests can be written before the calls come."""
        for text in texts:
            self._calls.append(text)
            # The bytes of json.dumps({"text": text}, ensure_ascii=False) and a newline.
            self._out += f'{{"text": {encode_basestring(text)}}}\n'.encode("utf-8")
            self._unanswered += 1

    def __call__(self, text: str) -> str:
        if not self._calls:
            self.expect([text])
        if self._calls[0] != text:
            raise ValueError(f"provider called for {text!r}, but {self._calls[0]!r} was announced next")
        self._calls.popleft()
        if not self._answers:
            deadline = time.monotonic() + PROVIDER_RESPONSE_TIMEOUT_S
            while not self._answers:
                deadline = self._pump(deadline)
        line = self._answers.popleft()
        try:
            paraphrase = typed_value(json.loads(line.decode("utf-8")), "paraphrase", str)
            paraphrase.encode("utf-8")  # a lone surrogate, which no output could hold
            return paraphrase
        # ValueError: bad UTF-8 or JSON, a lone surrogate or an integer too long to convert;
        # RecursionError: deep nesting.
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            message = f"malformed provider response ({len(line)} bytes): {line[:_REPLY_QUOTE_BYTES]!r}"
            raise self._error("E_PROVIDER_UNAVAILABLE", message) from exc

    def _pump(self, deadline: float) -> float:
        """One round of the selector loop: write and read what the pipes take,
        waiting at most until ``deadline`` for either. Returns the deadline,
        moved on by any answer byte."""
        if self._eof:
            raise self._error("E_PROVIDER_UNAVAILABLE", f"provider {self.command!r} closed its stream")
        if self._stdin_closed_by is None:
            self._selector.modify(self._stdin, selectors.EVENT_WRITE if self._out else selectors.EVENT_READ)
        time.sleep(_ANSWER_BATCH_WAIT_S)
        until = deadline if self._stdin_closed_by is None else min(deadline, self._stdin_closed_by)
        for key, _ in self._selector.select(max(0.0, until - time.monotonic())):
            if key.fd == self._stdout:
                self._take(os.read(self._stdout, _READ_CHUNK_BYTES))
                deadline = time.monotonic() + PROVIDER_RESPONSE_TIMEOUT_S
            elif key.fd == self._stderr:
                self._read_stderr()
            elif self._out:
                try:
                    del self._out[: os.write(self._stdin, self._out)]
                except BlockingIOError:
                    pass
                except BrokenPipeError:
                    self._close_stdin()
            else:
                self._close_stdin()
        if self._answers or self._eof:
            return deadline
        now = time.monotonic()
        if now >= deadline:
            self._proc.kill()
            self._proc.wait()
            raise self._error(
                "E_PROVIDER_TIMEOUT",
                f"provider {self.command!r} sent nothing for {PROVIDER_RESPONSE_TIMEOUT_S:g} s "
                f"with {self._unanswered} requests unanswered",
            )
        if self._stdin_closed_by is not None and now >= self._stdin_closed_by:
            raise self._error(
                "E_PROVIDER_UNAVAILABLE",
                f"provider {self.command!r} closed its stdin with {self._unanswered} requests unanswered",
            )
        return deadline

    def _take(self, chunk: bytes) -> None:
        # Split the answer lines off the stream; at end of stream, a last
        # line without its newline is an answer too.
        if not chunk:
            self._eof = True
            chunk = b"\n" if self._partial else b""
        *lines, self._partial = (self._partial + chunk).split(b"\n")
        if len(lines) > self._unanswered:
            raise self._error(
                "E_PROVIDER_UNAVAILABLE",
                f"provider {self.command!r} wrote {len(lines) - self._unanswered} answer lines "
                "that no request asked for",
            )
        self._answers.extend(lines)
        self._unanswered -= len(lines)

    def _read_stderr(self) -> None:
        # Keep the tail of what the provider wrote; at end of stream, stop
        # watching the pipe, which would otherwise stay readable.
        while self._stderr_open:
            try:
                chunk = os.read(self._stderr, _READ_CHUNK_BYTES)
            except BlockingIOError:
                return
            if not chunk:
                self._selector.unregister(self._stderr)
                self._stderr_open = False
            self._stderr_tail = (self._stderr_tail + chunk)[-_STDERR_TAIL_BYTES:]

    def _error(self, code: str, message: str) -> DataError:
        """The error for ``code``, its message ending with the provider's
        stderr tail, when the provider wrote any."""
        self._read_stderr()
        if self._stderr_tail:
            message += f"; provider stderr ends: {self._stderr_tail.decode('utf-8', 'replace')!r}"
        return DataError(code, message)

    def _close_stdin(self) -> None:
        # The provider closed its stdin: nothing more can be sent, and the
        # requests it has read get PROVIDER_EXIT_GRACE_S to be answered.
        self._selector.unregister(self._stdin)
        self._proc.stdin.close()
        self._out.clear()
        self._stdin_closed_by = time.monotonic() + PROVIDER_EXIT_GRACE_S

    def close(self) -> None:
        """Close the provider's stdin and reap it. A provider with requests
        still due is killed at once; any other gets PROVIDER_EXIT_GRACE_S
        to exit before it is killed, and what it wrote that no call read
        is then read: any line is one no request asked for."""
        proc = self._proc
        self._selector.close()
        proc.stdin.close()
        # Nothing reads the provider's stderr from here on; a provider that
        # writes it now gets a broken pipe rather than blocking its exit.
        proc.stderr.close()
        self._stderr_open = False
        due = bool(self._calls or self._unanswered)
        if due:
            proc.kill()
        try:
            proc.wait(timeout=PROVIDER_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        try:
            if not due:
                # Without blocking: a child of the provider may still hold the pipe open.
                os.set_blocking(self._stdout, False)
                with contextlib.suppress(BlockingIOError):
                    while not self._eof:
                        self._take(os.read(self._stdout, _READ_CHUNK_BYTES))
        finally:
            proc.stdout.close()

    def __enter__(self) -> "SubprocessProvider":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
            return
        # The error on its way out is the one to report.
        with contextlib.suppress(DataError):
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
    split, so identical inputs reproduce identical output. A record in no
    split is ``E_NOT_SPLIT``, raised before any paraphrase is requested.
    """
    unsplit = next((r for r in records if r.split not in SPLITS), None)
    if unsplit is not None:
        raise DataError("E_NOT_SPLIT", f"record {unsplit.sent_id!r} has split {unsplit.split!r}, "
                                       f"not one of {', '.join(SPLITS)}")
    result = TripletBuildResult(triplets=[])
    # A split's seed tag is its position in SPLITS.
    for tag, split in enumerate(SPLITS):
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
    2-vCPU x86-64 host). A provider with an ``expect`` method, such as
    ``SubprocessProvider``, is first told the texts its calls will
    request: those of the anchors with text, as ``generate_positive``
    sends no other.
    """
    expect = getattr(provider, "expect", None)
    if expect is not None:
        expect(r.text for r in records if r.text)

    def one(record: SentenceRecord) -> str | DataError:
        try:
            return generate_positive(record, provider)
        except DataError as exc:
            if exc.code != "E_DEGENERATE_PARAPHRASE":
                raise
            return exc

    return [one(r) for r in records]
