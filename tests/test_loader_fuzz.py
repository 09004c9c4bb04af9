"""Mutated input files either load or raise a ValueError (for a config, a
CliError) that names the file.

Each loader gets a valid file, then a few byte edits (flips, inserted
bytes or tokens, deletions, truncation) or, for JSON documents, a value
swapped for an arbitrary JSON value or a key deleted. No other exception
type (MemoryError, KeyError, TypeError, IndexError, AttributeError,
UnicodeDecodeError, ...) may escape. Examples are derandomized so every
run checks the same bounded set.

The round-trip tests at the end go the other way: every record that the
constructors accept either loads back equal after a save, or the writer
refuses it before it writes anything.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cb2cf import cli, net
from cb2cf.data import (YEAR_MAX, YEAR_MIN, ContentProfile, CooccurrenceSets, load_metadata,
                        load_ratings, load_sets, save_metadata, save_sets)
from cb2cf.features import (NA_TOKEN, TAG_FIELDS, Centroids, FeatureContext, TagVocabulary,
                            YearStats, fit_feature_context, load_feature_context,
                            save_feature_context)
from cb2cf.model import SystemSpec, build_model, load_model, save_model
from cb2cf.sgns import EmbeddingTable

FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TOKENS = [b"\n", b" ", b"\t", b",", b"\"", b"-", b"0", b"-1", b"1e999", b"nan", b"inf",
          b"9" * 30, b"\xff", b"\xc3", b"\x00", b"{", b"}", b"[", b"]", b":", b"null",
          b"true", b"1.5"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4)


def _mutate_bytes(data, original: bytes) -> bytes:
    out = bytearray(original)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        pos = data.draw(st.integers(0, len(out)))
        if kind == "flip" and pos < len(out):
            out[pos] = data.draw(st.integers(0, 255))
        elif kind == "insert":
            out[pos:pos] = data.draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=6))
        elif kind == "delete":
            del out[pos:pos + data.draw(st.integers(1, 12))]
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)


def _json_paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutate_json(data, document):
    """A deep copy of ``document`` with one value replaced or one key deleted."""
    document = json.loads(json.dumps(document))
    path = data.draw(st.sampled_from(list(_json_paths(document))))
    if not path:
        return data.draw(JSON_VALUES)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return document


def _mutate_text(data, original: bytes, json_lines: bool = False) -> bytes:
    """Byte edits, or a structural edit of the JSON document (of one line
    of a JSON Lines file)."""
    if data.draw(st.booleans()):
        return _mutate_bytes(data, original)
    lines = original.splitlines(keepends=True) if json_lines else [original]
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = json.dumps(_mutate_json(data, json.loads(lines[index]))).encode() + b"\n"
    return b"".join(lines)


def _loads_or_names(load, *names, errors=ValueError) -> None:
    try:
        load()
    except errors as exc:
        assert any(str(name) in str(exc) for name in names), exc


@pytest.fixture
def word_table():
    rng = np.random.default_rng(0)
    return EmbeddingTable([f"w{i}" for i in range(6)], rng.standard_normal((6, 3)))


@pytest.fixture
def context(word_table):
    profiles = [ContentProfile(id=f"m{i}", plot="w0 w1 w2", genres=[f"g{i % 2}"],
                               actors=["a"], directors=["d"], languages=["en"],
                               year=1990 + i) for i in range(4)]
    return fit_feature_context(profiles, word_table=word_table,
                               centroids=Centroids(word_table.vectors[:2].copy()),
                               min_tag_count=1)


@FUZZ
@given(data=st.data())
def test_vector_files(tmp_path, word_table, data):
    path = tmp_path / "table.vec"
    word_table.save(path)
    path.write_bytes(_mutate_bytes(data, path.read_bytes()))
    _loads_or_names(lambda: EmbeddingTable.load(path), path)


@FUZZ
@given(data=st.data())
def test_word2vec_text_vector_files(tmp_path, data):
    path = tmp_path / "table.txt"
    path.write_bytes(_mutate_bytes(data, b"3 2\nw0 0.5 -1.25\nw1 1e-300 3.0\nw2 -0.0 7.5e12\n"))
    _loads_or_names(lambda: EmbeddingTable.load(path), path)


@FUZZ
@given(data=st.data())
def test_vector_table_meta(tmp_path, word_table, data):
    path = tmp_path / "table.vec"
    word_table.save(path)
    tensors, meta = net.load_checkpoint(path)
    edit = data.draw(st.sampled_from(["json", "ids", "count", "kind", "tensor"]))
    if edit == "json":
        meta = _mutate_json(data, meta)
    elif edit == "ids":
        meta["ids"][data.draw(st.integers(0, 5))] = data.draw(JSON_VALUES)
    elif edit == "count":
        meta["ids"] = meta["ids"][:data.draw(st.integers(0, 5))] + \
            data.draw(st.lists(st.text(max_size=3), max_size=2))
    elif edit == "kind":
        kind = data.draw(st.sampled_from([None, "cb2cf-model", "cb2cf-feature-context"]))
        if kind is None:
            del meta["kind"]
        else:
            meta["kind"] = kind
    else:
        tensors[data.draw(st.sampled_from(["extra", "vectors2"]))] = np.zeros((1, 3))
    net.save_checkpoint(path, tensors, meta)
    _loads_or_names(lambda: EmbeddingTable.load(path), path)


@FUZZ
@given(data=st.data())
def test_ratings_files(tmp_path, data):
    path = tmp_path / "ratings.csv"
    path.write_bytes(_mutate_bytes(data, b"userId,movieId,rating,timestamp\n"
                                         b"1,m1,4.0,10\n1,m2,3.5,11\n2,m1,5.0,12\n"))
    _loads_or_names(lambda: load_ratings(path), path)


@FUZZ
@given(data=st.data())
def test_metadata_files(tmp_path, data):
    path = tmp_path / "metadata.jsonl"
    save_metadata([ContentProfile(id="m1", plot="a plot", genres=["drama"], year=1999),
                   ContentProfile(id="m2", actors=["ann", "bob"], languages=["en"])], path)
    path.write_bytes(_mutate_text(data, path.read_bytes(), json_lines=True))
    _loads_or_names(lambda: load_metadata(path), path)


@FUZZ
@given(data=st.data())
def test_sets_files(tmp_path, data):
    path = tmp_path / "sets.txt"
    save_sets(CooccurrenceSets([("m1", "m2", "m3"), ("m2", "m4")]), path)
    path.write_bytes(_mutate_bytes(data, path.read_bytes()))
    _loads_or_names(lambda: load_sets(path), path)


@FUZZ
@given(data=st.data())
def test_config_files(tmp_path, data):
    path = tmp_path / "evaluate.json"
    path.write_text(json.dumps({
        "systems": "Genres,Year", "metadata": "metadata.jsonl", "folds": 2,
        "max-epochs": 6, "batch": 4, "lr": 0.001, "cnn_variant": "static", "seed": 3}))
    path.write_bytes(_mutate_text(data, path.read_bytes()))
    argv = ["evaluate", "--config", str(path)]
    parser, registry = cli.build_parser()
    _loads_or_names(lambda: cli._apply_config(parser, registry, argv, parser.parse_args(argv)),
                    path, errors=(ValueError, cli.CliError))


@FUZZ
@given(data=st.data())
def test_feature_context_files(tmp_path, context, data):
    path = tmp_path / "ctx.ckpt"
    save_feature_context(context, path)
    if data.draw(st.booleans()):
        tensors, meta = net.load_checkpoint(path)
        net.save_checkpoint(path, tensors, _mutate_json(data, meta))
    else:
        path.write_bytes(_mutate_bytes(data, path.read_bytes()))
    _loads_or_names(lambda: load_feature_context(path), path)


@FUZZ
@given(data=st.data())
def test_model_checkpoints(tmp_path, context, data):
    path = tmp_path / "model.ckpt"
    spec = SystemSpec.named("CNN+BOW+Genres+Year", output_dim=3, cnn_filters=2,
                            cnn_width=2, hidden={"CNN": 3, "BOW": 2}, combiner_hidden=4,
                            text_length=4)
    save_model(build_model(spec, context, seed=0), path)
    manifest, _, payload = path.read_bytes().partition(b"\n")
    if data.draw(st.booleans()):
        manifest = json.dumps(_mutate_json(data, json.loads(manifest))).encode()
        path.write_bytes(manifest + b"\n" + payload)
    else:
        path.write_bytes(_mutate_bytes(data, manifest + b"\n" + payload))
    _loads_or_names(lambda: load_model(path, features=context), f"checkpoint {path}")


ROUND_TRIP = settings(max_examples=200, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])
# Strings without lone surrogates, which no UTF-8 file holds; the listed ones are
# the empty id and ids that whitespace would split.
TEXT = st.text(max_size=4) | st.sampled_from(["", " ", "a b", "x\ty", "u\u2028v", NA_TOKEN])
WORDS = st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc")), min_size=1,
                max_size=4)  # whitespace-free, nonempty
NUMBERS = st.integers() | st.floats()  # nan, inf and ints past the float range too
BAD_LISTS = st.lists(TEXT | st.integers(), min_size=1, max_size=2) | st.tuples(TEXT) \
    | st.none() | TEXT


def _mostly(valid, invalid):
    """Three draws in four from ``valid``, so that most records reach the writer."""
    return st.one_of(valid, valid, valid, invalid)


PROFILE_FIELDS = st.fixed_dictionaries({}, optional={
    "plot": _mostly(st.none() | TEXT, NUMBERS),
    "year": _mostly(st.none() | st.integers(YEAR_MIN - 1, YEAR_MAX + 1), NUMBERS | st.booleans()),
    **dict.fromkeys(TAG_FIELDS, _mostly(st.lists(TEXT, max_size=3), BAD_LISTS))})
VOCAB_LISTS = st.lists(TEXT.filter(lambda tag: tag != NA_TOKEN), max_size=3, unique=True) \
    .map(lambda tags: [NA_TOKEN, *tags])


def _saved(save, record, path) -> bool:
    """Whether ``save`` wrote ``record``; a refusal must leave no file behind."""
    path.unlink(missing_ok=True)
    try:
        save(record, path)
    except ValueError:
        assert not path.exists()
        return False
    return True


def _finite_rows(data, rows: int, dim: int) -> np.ndarray:
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=rows * dim, max_size=rows * dim))
    return np.array(values, dtype=np.float64).reshape(rows, dim)


@ROUND_TRIP
@given(ids=st.lists(_mostly(WORDS, TEXT | st.integers()), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_metadata_profiles_load_back_equal_or_are_refused(tmp_path, ids, data):
    try:
        profiles = [ContentProfile(id=i, **data.draw(PROFILE_FIELDS)) for i in ids]
    except ValueError:
        return  # refused when built: nothing to write
    path = tmp_path / "metadata.jsonl"
    if _saved(save_metadata, profiles, path):
        assert load_metadata(path) == profiles


@ROUND_TRIP
@given(raw=st.lists(st.lists(_mostly(WORDS, TEXT | st.integers()), min_size=2, max_size=4,
                             unique=True), max_size=3))
def test_cooccurrence_sets_load_back_equal_or_are_refused(tmp_path, raw):
    try:
        sets = CooccurrenceSets([tuple(items) for items in raw])
    except ValueError:
        return
    path = tmp_path / "sets.txt"
    if _saved(save_sets, sets, path):  # a set file keeps each set's ids, not their order
        assert [set(s) for s in load_sets(path).sets] == [set(s) for s in sets.sets]


@ROUND_TRIP
@given(data=st.data())
def test_feature_contexts_load_back_equal_or_are_refused(tmp_path, data):
    draw = data.draw
    tags = {field_name: draw(VOCAB_LISTS) for field_name in TAG_FIELDS}
    edit = draw(st.sampled_from(["none", "none", "set", "drop"]))
    if edit == "set":
        tags[draw(st.sampled_from(TAG_FIELDS) | TEXT)] = draw(VOCAB_LISTS | BAD_LISTS)
    elif edit == "drop":
        del tags[draw(st.sampled_from(TAG_FIELDS))]
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(TEXT, max_size=3)) if draw(st.booleans()) else None
    k = draw(st.integers(0, 2))
    centroid_rows = _finite_rows(data, k, draw(st.sampled_from([dim, dim + 1])))
    try:
        context = FeatureContext(
            TagVocabulary(tags), YearStats(draw(_mostly(st.floats(-3000, 3000), NUMBERS)),
                                           draw(_mostly(st.floats(1e-3, 1e3), NUMBERS))),
            None if ids is None else EmbeddingTable(ids, _finite_rows(data, len(ids), dim)),
            Centroids(centroid_rows) if k else None,
            draw(_mostly(st.floats(1e-300, 1e300), st.floats())))
    except ValueError:
        return
    path = tmp_path / "ctx.ckpt"
    if not _saved(save_feature_context, context, path):
        return
    loaded = load_feature_context(path)
    assert loaded.tag_vocab.tags == context.tag_vocab.tags
    assert (loaded.year_stats, loaded.temperature) == (context.year_stats, context.temperature)
    for table in ("word_table", "centroids"):
        was, now = getattr(context, table), getattr(loaded, table)
        assert (was is None) == (now is None)
        if was is not None:
            assert getattr(was, "ids", None) == getattr(now, "ids", None)
            assert np.array_equal(was.vectors, now.vectors)
