import json
import re

import pytest
from hypothesis import given, strategies as st

from cb2cf.data import (ContentProfile, UserHistory, cooccurrence_from_ratings,
                        load_metadata, load_ratings, load_sets, save_metadata,
                        save_sets, _valid_rating)
from cb2cf.sgns import CooccurrenceSets

HEADER = "userId,movieId,rating,timestamp\n"


def _write_ratings(tmp_path, body):
    path = tmp_path / "ratings.csv"
    path.write_text(HEADER + body)
    return path


def test_load_ratings_happy_path(tmp_path):
    path = _write_ratings(tmp_path,
                          "u1,m1,4.0,100\n"
                          "u2,m2,0.5,300\n"
                          "u1,m3,3.5,200\n")
    histories = {h.user: h for h in load_ratings(path)}
    assert set(histories) == {"u1", "u2"}
    assert histories["u1"].events == [("m1", 4.0, 100), ("m3", 3.5, 200)]
    assert histories["u2"].events == [("m2", 0.5, 300)]


def test_load_ratings_empty_body(tmp_path):
    assert load_ratings(_write_ratings(tmp_path, "")) == []


def test_load_ratings_rejects_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating,ts\nu,m,4.0,1\n")
    with pytest.raises(ValueError, match=":1"):
        load_ratings(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_ratings(path)


@pytest.mark.parametrize("row,fragment", [
    ("u1,m1,4.0", "expected 4 fields"),
    ("u1,m1,3.7,100", "half-star"),
    ("u1,m1,0.0,100", "half-star"),
    ("u1,m1,5.5,100", "half-star"),
    ("u1,m1,abc,100", "could not convert"),
    ("u1,m1,4.0,1.5", "invalid literal"),
    (",m1,4.0,100", "empty user"),
])
def test_load_ratings_rejects_malformed_rows(tmp_path, row, fragment):
    path = _write_ratings(tmp_path, row + "\n")
    with pytest.raises(ValueError, match=":2"):
        load_ratings(path)
    try:
        load_ratings(path)
    except ValueError as exc:
        assert fragment in str(exc)


@pytest.mark.parametrize("item", ["m 1", '"m\t1"', '" m1"', '"m1\u00a0"'])
def test_load_ratings_rejects_an_item_id_a_vector_table_cannot_hold(tmp_path, item):
    path = _write_ratings(tmp_path, "u1,m0,4.0,100\nu1," + item + ",4.0,100\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: item id ")):
        load_ratings(path)


def test_load_ratings_keeps_user_ids_as_written(tmp_path):
    path = _write_ratings(tmp_path, "user one,m1,4.0,100\n")
    assert [h.user for h in load_ratings(path)] == ["user one"]


def test_load_ratings_names_the_line_of_an_oversized_field(tmp_path):
    path = _write_ratings(tmp_path, "u1,m1,4.0,100\nu1,m2," + "9" * 200_000 + ",100\n")
    with pytest.raises(ValueError, match=":3: field larger than field limit"):
        load_ratings(path)


def test_valid_rating_half_star_scale():
    for value in (0.5, 1.0, 3.5, 5.0):
        assert _valid_rating(value)
    for value in (0.0, 0.25, 3.7, 5.5, -1.0):
        assert not _valid_rating(value)


@given(st.integers(min_value=1, max_value=10))
def test_valid_rating_accepts_every_half_step(halves):
    assert _valid_rating(halves / 2.0)


def test_cooccurrence_keeps_items_strictly_above_threshold():
    history = UserHistory("u", [("A", 4.0, 1), ("B", 3.5, 2),
                               ("C", 5.0, 3), ("D", 2.0, 4)])
    sets = cooccurrence_from_ratings([history])
    assert sets.sets == [("A", "C")]
    assert sets.dropped == 0


def test_cooccurrence_threshold_is_configurable():
    history = UserHistory("u", [("A", 3.0, 1), ("B", 3.5, 2), ("C", 1.0, 3)])
    sets = cooccurrence_from_ratings([history], threshold=2.5)
    assert sets.sets == [("A", "B")]


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_cooccurrence_threshold_must_be_finite(threshold):
    history = UserHistory("u", [("A", 3.0, 1), ("B", 3.5, 2)])
    with pytest.raises(ValueError, match="^threshold must be finite$"):
        cooccurrence_from_ratings([history], threshold=threshold)


def test_cooccurrence_single_liked_item_is_counted_dropped():
    histories = [UserHistory("u1", [("A", 5.0, 1), ("B", 1.0, 2)]),
                 UserHistory("u2", [("C", 1.0, 1)])]
    sets = cooccurrence_from_ratings(histories)
    assert sets.sets == []
    assert sets.dropped == 1  # u2 liked nothing at all, u1 liked one item


def test_cooccurrence_duplicate_rating_latest_timestamp_wins():
    history = UserHistory("u", [("A", 5.0, 50), ("A", 2.0, 100),
                               ("B", 4.0, 1), ("C", 4.0, 2)])
    sets = cooccurrence_from_ratings([history])
    # A's final rating (2.0 at t=100) disqualifies it.
    assert sets.sets == [("B", "C")]


def test_cooccurrence_timestamp_tie_later_row_wins():
    history = UserHistory("u", [("A", 2.0, 7), ("A", 5.0, 7),
                               ("B", 4.0, 1)])
    sets = cooccurrence_from_ratings([history])
    assert sets.sets == [("A", "B")]


def test_load_sets_dedupes_and_sorts(tmp_path):
    path = tmp_path / "sets.txt"
    path.write_text("b a c\nx x y\nsolo\n")
    sets = load_sets(path)
    assert sets.sets == [("a", "b", "c"), ("x", "y")]
    assert sets.dropped == 1


def test_load_sets_counts_blank_lines_as_dropped(tmp_path):
    path = tmp_path / "sets.txt"
    path.write_text("a b\n\nc d\n")
    sets = load_sets(path)
    assert sets.sets == [("a", "b"), ("c", "d")]
    assert sets.dropped == 1


def test_save_load_sets_round_trip(tmp_path):
    sets = CooccurrenceSets([("a", "b"), ("c", "d", "e")])
    path = tmp_path / "sets.txt"
    save_sets(sets, path)
    assert load_sets(path).sets == sets.sets


@pytest.mark.parametrize("item_id", ["a b", "a\tb", "a\u2028b", ""])
def test_save_sets_refuses_an_id_that_would_read_back_as_other_sets(tmp_path, item_id):
    path = tmp_path / "sets.txt"
    with pytest.raises(ValueError, match="id not writable to a set file"):
        save_sets(CooccurrenceSets([("m1", "m2"), ("c", item_id)]), path)
    assert not path.exists()


@pytest.mark.parametrize("message", ["id not writable to a set file: 'c\\ud800'"], ids=["sets"])
def test_text_writers_refuse_what_utf8_cannot_encode_before_opening(tmp_path, message):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_sets(CooccurrenceSets([("m1", "m2"), ("c\ud800", "d")]), path)
    assert not path.exists()


def test_save_metadata_refuses_a_repeated_id_before_opening_the_file(tmp_path):
    path = tmp_path / "meta.jsonl"
    profiles = (ContentProfile(i) for i in ["a", "b", "a"])  # any iterable, read once
    with pytest.raises(ValueError, match="^duplicate id 'a'$"):
        save_metadata(profiles, path)
    assert not path.exists()


def _metadata_line(**kwargs):
    record = {"id": "m1", "plot": "a story", "genres": ["drama"],
              "actors": ["ann"], "directors": ["dee"], "languages": ["en"],
              "year": 1999}
    record.update(kwargs)
    return json.dumps(record) + "\n"


class TestLoadMetadata:
    def test_full_record(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text(_metadata_line())
        profile = load_metadata(path)[0]
        assert profile.id == "m1"
        assert profile.plot == "a story"
        assert profile.genres == ["drama"]
        assert profile.year == 1999

    def test_null_and_missing_fields(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text(json.dumps({"id": "m1"}) + "\n"
                        + _metadata_line(id="m2", plot=None, year=None,
                                         genres=None))
        first, second = load_metadata(path)
        assert first.plot is None and first.year is None
        assert first.genres == []
        assert second.genres == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text("\n" + _metadata_line() + "\n")
        assert len(load_metadata(path)) == 1

    @pytest.mark.parametrize("line,fragment", [
        ('{"plot": "x"}', "missing id"),
        ('{"id": ""}', "missing id"),
        ('{"id": true}', "id must be a string or an integer"),
        ('{"id": 1.5}', "id must be a string or an integer"),
        ('{"id": ["a"]}', "id must be a string or an integer"),
        ('{"id": {"x": 1}}', "id must be a string or an integer"),
        ('{"id": "m", "plot": 5}', "plot must be"),
        ('{"id": "m", "year": "1999"}', "year must be"),
        ('{"id": "m", "year": true}', "year must be"),
        ('{"id": "m", "year": 1700}', "implausible year"),
        ('{"id": "m", "genres": "drama"}', "list of strings"),
        ('{"id": "m", "genres": [1]}', "list of strings"),
        ('[1, 2]', "JSON object"),
        ('{broken', "invalid JSON"),
    ])
    def test_rejects_malformed_records(self, tmp_path, line, fragment):
        path = tmp_path / "meta.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1"):
            load_metadata(path)
        try:
            load_metadata(path)
        except ValueError as exc:
            assert fragment in str(exc)

    def test_rejects_an_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text('{"id": "m", "year": ' + "1" * 5000 + "}\n")
        with pytest.raises(ValueError, match=":1: invalid JSON"):
            load_metadata(path)

    def test_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text(_metadata_line() + _metadata_line())
        with pytest.raises(ValueError, match=":2.*duplicate"):
            load_metadata(path)

    def test_numeric_id_is_coerced_to_string(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_text(json.dumps({"id": 7}) + "\n")
        assert load_metadata(path)[0].id == "7"


def test_save_load_metadata_round_trip(tmp_path, profiles):
    path = tmp_path / "meta.jsonl"
    save_metadata(profiles, path)
    loaded = load_metadata(path)
    assert loaded == profiles


def test_content_profile_validation():
    with pytest.raises(ValueError):
        ContentProfile(id="")
    with pytest.raises(ValueError):
        ContentProfile(id="m", year=1700)
    with pytest.raises(ValueError):
        ContentProfile(id="m", year=2200)
    assert ContentProfile(id="m", year=1850).year == 1850
    assert ContentProfile(id="m", year=2100).year == 2100
    # Each field's kind, so that save_metadata never writes a record load_metadata refuses.
    for fields, message in [({"id": 7}, "profile id must be a nonempty string"),
                            ({"plot": 5}, "plot must be a string or None"),
                            ({"year": True}, "year must be an integer or None"),
                            ({"year": 1999.0}, "year must be an integer or None"),
                            ({"year": 10 ** 400}, "implausible year"),
                            ({"genres": None}, "genres must be a list of strings"),
                            ({"actors": ("ann",)}, "actors must be a list of strings"),
                            ({"languages": ["en", 1]}, "languages must be a list of strings")]:
        with pytest.raises(ValueError, match=message):
            ContentProfile(**{"id": "m", **fields})
