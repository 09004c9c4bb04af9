"""Tokenization, ranked token counts, and what a text line can hold."""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, TextIO

DEFAULT_CAP = 50_000
_NOT_UTF8 = re.compile("[\ud800-\udfff]")  # a lone surrogate: all a str holds that UTF-8 cannot

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


def check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError("vocabulary cap must be >= 1")


def build_vocabulary(streams: Iterable[Iterable[str]],
                     cap: int = DEFAULT_CAP) -> dict[str, int]:
    """Count tokens across all streams and keep the ``cap`` most frequent,
    as token -> count in rank order: descending count, ties lexicographic."""
    check_cap(cap)
    counter = Counter(chain.from_iterable(streams))
    return {t: counter[t] for t in sorted(counter, key=lambda t: (-counter[t], t))[:cap]}


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


def writable_id(item_id: object) -> bool:
    """A nonempty string free of whitespace: an id a vector file can hold."""
    return isinstance(item_id, str) and item_id.split() == [item_id]


def save_vocabulary(vocab: dict[str, int], path: str | Path) -> None:
    """Write one ``token<TAB>count`` line per entry, in order. A token that
    ``writable_id`` refuses or UTF-8 cannot encode raises before the file is opened."""
    for token in vocab:
        if not writable_id(token) or _NOT_UTF8.search(token):
            raise ValueError(f"token not writable to a vocabulary file: {token!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for token, count in vocab.items():
            fh.write(f"{token}\t{count}\n")

