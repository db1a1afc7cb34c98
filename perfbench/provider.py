"""Deterministic line-JSON paraphrase provider for the benchmark.

Speaks minembed's provider protocol: one ``{"text": ...}`` request per
stdin line, one ``{"paraphrase": ...}`` response per stdout line. It has no
sleeps and no model, so a stage that uses it measures minembed's IPC path.

The transform keeps enough meaning for training to learn something: it
drops function words, replaces every third content word (by a stable hash)
with its reversed spelling, a consistent "synonym" the encoder can learn
to map onto the original, and swaps the two halves of the sentence.

Run as ``python3 perfbench/provider.py``.
"""

from __future__ import annotations

import json
import sys
import zlib

FUNCTION_WORDS = frozenset("a an the of in on for with and to by from that this is are as at or".split())


def paraphrase(text: str) -> str:
    """The benchmark's paraphrase of ``text``; never equal to it."""
    out = []
    for word in text.split():
        core = word.strip(".,;:!?()[]\"'").lower()
        if core in FUNCTION_WORDS:
            continue
        if core and zlib.crc32(core.encode("utf-8")) % 3 == 0:
            word = core[::-1]
        out.append(word)
    half = len(out) // 2
    result = " ".join(out[half:] + out[:half])
    if not result or result == text:
        result = f"{text} restated"
    return result


def main() -> None:
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        sys.stdout.write(json.dumps({"paraphrase": paraphrase(request["text"])}, ensure_ascii=False) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
