import string
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from cb2cf.corpus import build_vocabulary, save_vocabulary, tokenize, Vocabulary


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
    assert vocab.tokens == ["b", "c", "a"]
    assert vocab.counts == [3, 2, 1]
    assert vocab.total_tokens == 6


def test_build_vocabulary_breaks_count_ties_lexicographically():
    vocab = _vocab(["z", "m", "a", "z", "m", "a"])
    assert vocab.tokens == ["a", "m", "z"]


def test_build_vocabulary_cap_drops_tail_but_counts_whole_stream():
    vocab = _vocab(["a", "a", "b", "b", "c"], cap=2)
    assert vocab.tokens == ["a", "b"]
    assert len(vocab) == 2
    assert vocab.total_tokens == 5
    assert "c" not in vocab


def test_build_vocabulary_cap_tie_at_boundary_is_deterministic():
    # b and c tie with count 1; the cap keeps the lexicographically first.
    vocab = _vocab(["a", "a", "c", "b"], cap=2)
    assert vocab.tokens == ["a", "b"]


def test_vocabulary_count_lookup():
    vocab = _vocab(["x", "x", "y"])
    assert vocab.counts[vocab.index["x"]] == 2
    assert "y" in vocab and "z" not in vocab


def test_vocabulary_rejects_bad_construction():
    with pytest.raises(ValueError):
        Vocabulary(["a"], [1], 1, cap=0)
    with pytest.raises(ValueError):
        Vocabulary(["a", "b"], [1, 2], 3)  # counts increase in rank order
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"], [2, 1], 3)
    with pytest.raises(ValueError):
        Vocabulary(["a!"], [1], 1)
    with pytest.raises(ValueError):
        Vocabulary(["a"], [0], 0)


@given(st.text(min_size=1, max_size=20))
@example("x2016")  # decimal digits map to one character each
@example("٣x")
@example("a+b")  # an ASCII symbol stripped with the punctuation
@example("«x»")  # Unicode P* punctuation
@example("café")
def test_vocabulary_rejects_exactly_the_tokens_holding_punctuation(token):
    holds_punct = any(c in "~^|<>=+" or unicodedata.category(c).startswith("P")
                      for c in token)
    if holds_punct:
        with pytest.raises(ValueError, match="invalid vocabulary token"):
            Vocabulary([token], [1], 1)
    else:
        assert Vocabulary([token], [1], 1).tokens == [token]


@given(st.lists(st.lists(st.sampled_from(list(string.ascii_lowercase)),
                          max_size=20), max_size=10),
       st.integers(min_value=1, max_value=8))
def test_build_vocabulary_invariants(streams, cap):
    vocab = build_vocabulary(streams, cap=cap)
    assert len(vocab) <= cap
    assert vocab.counts == sorted(vocab.counts, reverse=True)
    assert vocab.total_tokens == sum(len(s) for s in streams)
    assert [vocab.tokens[vocab.index[t]] for t in vocab.tokens] == vocab.tokens


def test_save_load_round_trip(tmp_path):
    vocab = _vocab(["b", "a", "b", "c", "b", "c"])
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert path.read_text() == "b\t3\nc\t2\na\t1\n"
