import string
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from cb2cf.corpus import build_vocabulary, save_vocabulary, tokenize


def test_tokenize_lowercases_splits_and_masks_digits():
    assert tokenize("In 2016, great!") == ["in", "9999", "great"]


def test_tokenize_strips_ascii_symbol_characters():
    assert tokenize("a+b c|d <e> =f~ g^2") == ["ab", "cd", "e", "f", "g9"]


def test_tokenize_strips_unicode_punctuation():
    assert tokenize("«quoted» —dash— it's") == \
        ["quoted", "dash", "its"]


def test_tokenize_drops_tokens_emptied_by_stripping():
    assert tokenize("!!! ... --- ~~") == []
    assert tokenize("") == []


def test_tokenize_keeps_non_decimal_unicode_letters():
    assert tokenize("café naïve") == ["café", "naïve"]


def _reference_tokenize(text):
    """Per-character tokenizer: split, drop P* punctuation and ~^|<>=+,
    map decimal digits to '9', drop tokens left empty."""
    tokens = []
    for raw in text.lower().split():
        kept = ["9" if c.isdecimal() else c for c in raw
                if c not in "~^|<>=+" and not unicodedata.category(c).startswith("P")]
        if kept:
            tokens.append("".join(kept))
    return tokens


@given(st.text(max_size=200))
@example("٣٤ १२ ３ ௫x x߂")  # Arabic-Indic, Devanagari, fullwidth, Tamil, NKo digits
@example("¡¿“”‘’«»‹›—–‐‥…·・、。「」『』【】〔〕〈〉《》¶§†‡※")  # P* punctuation
@example("a~b ^c| <d> e=f+g ~^|<>=+")
@example("  \t\n !!! ~~ ... 「」 —— ")  # tokenizes to nothing
@example("Straße İstanbul ǅ Σίσυφος ２０１６年")
def test_tokenize_matches_the_per_character_reference(text):
    assert tokenize(text) == _reference_tokenize(text)


@given(st.text(max_size=200))
def test_tokenize_is_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=200))
def test_tokenize_output_is_normalized(text):
    for token in tokenize(text):
        assert token == token.lower()
        for c in token:
            assert not c.isdecimal() or c == "9"


def _vocab(*streams, cap=50_000):
    return build_vocabulary([list(s) for s in streams], cap=cap)


def test_build_vocabulary_ranks_by_descending_count():
    vocab = _vocab(["b", "a", "b", "c", "b", "c"])
    assert list(vocab.items()) == [("b", 3), ("c", 2), ("a", 1)]


def test_build_vocabulary_breaks_count_ties_lexicographically():
    vocab = _vocab(["z", "m", "a", "z", "m", "a"])
    assert list(vocab) == ["a", "m", "z"]


def test_build_vocabulary_cap_drops_tail_but_counts_whole_stream():
    # A kept token counts its occurrences in every stream, and the cap
    # drops the tail after ranking.
    vocab = _vocab(["a", "a", "b"], ["b", "c"], cap=2)
    assert list(vocab.items()) == [("a", 2), ("b", 2)]
    assert "c" not in vocab


def test_build_vocabulary_cap_tie_at_boundary_is_deterministic():
    # b, c and d tie with count 1; the cap keeps the lexicographically first.
    vocab = _vocab(["a", "a", "d", "c", "b"], cap=2)
    assert list(vocab.items()) == [("a", 2), ("b", 1)]
    assert _vocab(["a", "a", "d", "c", "b"], cap=3) == {"a": 2, "b": 1, "c": 1}


def test_vocabulary_count_lookup():
    vocab = _vocab(["x", "x", "y"])
    assert vocab["x"] == 2
    assert "y" in vocab and "z" not in vocab


@pytest.mark.parametrize("cap", [0, -1])
def test_build_vocabulary_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="vocabulary cap must be >= 1"):
        build_vocabulary([["a"]], cap=cap)
    with pytest.raises(ValueError, match="vocabulary cap must be >= 1"):
        build_vocabulary([], cap=cap)


@given(st.lists(st.lists(st.sampled_from(list(string.ascii_lowercase[:6])),
                          max_size=20), max_size=10),
       st.integers(min_value=1, max_value=8))
def test_build_vocabulary_invariants(streams, cap):
    vocab = build_vocabulary(streams, cap=cap)
    counts = Counter(t for s in streams for t in s)
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    assert list(vocab) == ranked[:cap]
    assert all(vocab[t] == counts[t] for t in vocab)
    assert list(vocab.values()) == sorted(vocab.values(), reverse=True)
    assert len(vocab) == min(cap, len(counts))


def test_save_load_round_trip(tmp_path):
    vocab = _vocab(["b", "a", "b", "c", "b", "c"])
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert path.read_bytes() == b"b\t3\nc\t2\na\t1\n"


@pytest.mark.parametrize("token", ["a\tb", "a b", "a\nb", "\u2028", "", "x\ud800"])
def test_save_vocabulary_refuses_an_unwritable_token_before_opening(tmp_path, token):
    # A tab or line break would add a field or a line; a lone surrogate has no UTF-8.
    path = tmp_path / "vocab.tsv"
    with pytest.raises(ValueError, match="not writable to a vocabulary file"):
        save_vocabulary({"x": 2, token: 1}, path)
    assert not path.exists()
