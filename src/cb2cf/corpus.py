"""Tokenization and frequency-ranked vocabularies."""

from __future__ import annotations

import unicodedata
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

DEFAULT_CAP = 50_000

# ASCII symbol characters stripped alongside Unicode P* punctuation.
_SYMBOL_CHARS = frozenset("~^|<>=+")


def _is_punct(char: str) -> bool:
    return char in _SYMBOL_CHARS or unicodedata.category(char).startswith("P")


class _TokenCharTable(dict):
    """``str.translate`` table that fills each code point on first sight:
    punctuation maps to None (deleted), a decimal digit to '9', and every
    other character to itself."""

    def __missing__(self, code: int) -> str | None:
        char = chr(code)
        value = None if _is_punct(char) else "9" if char.isdecimal() else char
        self[code] = value
        return value


_TOKEN_CHARS = _TokenCharTable()


def tokenize(text: str) -> list[str]:
    """Lowercase and whitespace-split, mapping every decimal digit to '9'
    and stripping punctuation characters. Tokens emptied by stripping are
    dropped, so the result round-trips: tokenizing the joined output is a
    fixed point.
    """
    return text.lower().translate(_TOKEN_CHARS).split()


class Vocabulary:
    """Token table ranked by descending corpus frequency, capped in size.

    Ties at equal frequency break lexicographically so identical streams
    always yield identical vocabularies. ``total_tokens`` counts the whole
    stream, including occurrences of tokens that fell outside the cap.
    """

    def __init__(self, tokens: Iterable[str], counts: Iterable[int],
                 total_tokens: int, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError("vocabulary cap must be >= 1")
        self.tokens = [str(t) for t in tokens]
        self.counts = [int(c) for c in counts]
        self.total_tokens = int(total_tokens)
        self.cap = int(cap)
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts differ in length")
        if len(self.tokens) > self.cap:
            raise ValueError("vocabulary exceeds its cap")
        for token in self.tokens:
            if not token or any(_is_punct(c) for c in token):
                raise ValueError(f"invalid vocabulary token: {token!r}")
        for count in self.counts:
            if count < 1:
                raise ValueError("token counts must be positive")
        for hi, lo in zip(self.counts, self.counts[1:]):
            if hi < lo:
                raise ValueError("counts must be non-increasing in rank order")
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate vocabulary token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: object) -> bool:
        return token in self.index

    def count(self, token: str) -> int:
        return self.counts[self.index[token]]


def build_vocabulary(streams: Iterable[Iterable[str]],
                     cap: int = DEFAULT_CAP) -> Vocabulary:
    """Count tokens across all streams and keep the ``cap`` most frequent."""
    if cap < 1:
        raise ValueError("vocabulary cap must be >= 1")
    counter: Counter[str] = Counter()
    total = 0
    for stream in streams:
        for token in stream:
            counter[token] += 1
            total += 1
    ranked = sorted(counter, key=lambda t: (-counter[t], t))[:cap]
    return Vocabulary(ranked, [counter[t] for t in ranked], total, cap)


def encode(tokens: Iterable[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to vocabulary indices, silently dropping out-of-vocabulary ones."""
    index = vocab.index
    return [index[t] for t in tokens if t in index]


def decode(indices: Iterable[int], vocab: Vocabulary) -> list[str]:
    tokens = vocab.tokens
    out = []
    for i in indices:
        if not 0 <= i < len(tokens):
            raise ValueError(f"index {i} outside vocabulary of size {len(tokens)}")
        out.append(tokens[i])
    return out


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8")`` for reading, except that a byte
    sequence that is not UTF-8 raises ``ValueError("<path>:<line>: not valid
    UTF-8")``. The line is looked up only after decoding has failed."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{_first_bad_line(path)}: not valid UTF-8") from None


def _first_bad_line(path: str | Path) -> int:
    # Lines split at b"\n", which never occurs inside a multi-byte sequence.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 1  # only if the file changed since it failed to decode


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write one ``token<TAB>count`` line per entry, in rank order."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, count in zip(vocab.tokens, vocab.counts):
            fh.write(f"{token}\t{count}\n")


def load_vocabulary(path: str | Path, cap: int | None = None) -> Vocabulary:
    """Read a vocabulary export. The stream total is approximated by the sum
    of retained counts, which is all the file format preserves.
    """
    tokens: list[str] = []
    counts: list[int] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected token<TAB>count")
            try:
                count = int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad count {parts[1]!r}") from exc
            tokens.append(parts[0])
            counts.append(count)
    if cap is None:
        cap = max(len(tokens), 1)
    return Vocabulary(tokens, counts, sum(counts), cap)
