"""Loaders and writers for ratings, co-occurrence sets, and item metadata."""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import _NOT_UTF8, open_text, writable_id
from .sgns import CooccurrenceSets

RATINGS_HEADER = ["userId", "movieId", "rating", "timestamp"]
YEAR_MIN = 1850
YEAR_MAX = 2100
TAG_FIELDS = ("genres", "actors", "directors", "languages")  # ContentProfile's tag lists
DEFAULT_THRESHOLD = 3.5


@dataclass
class UserHistory:
    user: str
    events: list[tuple[str, float, int]]  # (item, rating, timestamp) in file order


@dataclass
class ContentProfile:
    """Raw item metadata: a nonempty str id, a str or None plot, an int or None year,
    and tag lists of str, maybe empty. Featurization applies the 'n/a' and mean-year rules."""

    id: str
    plot: str | None = None
    genres: list[str] = field(default_factory=list)
    actors: list[str] = field(default_factory=list)
    directors: list[str] = field(default_factory=list)
    languages: list[str] = field(default_factory=list)
    year: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("profile id must be a nonempty string")
        if self.plot is not None and not isinstance(self.plot, str):
            raise ValueError("plot must be a string or None")
        if self.year is not None and type(self.year) is not int:  # a bool is no year
            raise ValueError("year must be an integer or None")
        if self.year is not None and not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(f"implausible year {self.year} for item {self.id!r}")
        for key in TAG_FIELDS:
            tags = getattr(self, key)
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                raise ValueError(f"{key} must be a list of strings")


def _valid_rating(value: float) -> bool:
    # Half-star scale: 0.5 .. 5.0 in steps of 0.5.
    return 0.5 <= value <= 5.0 and float(value * 2).is_integer()


def load_ratings(path: str | Path) -> list[UserHistory]:
    """Parse a ratings CSV with header userId,movieId,rating,timestamp.
    Ratings must sit on the half-star scale; malformed rows fail with their
    line number. Users keep their events in file order."""
    histories: dict[str, UserHistory] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}:1: empty file, expected header "
                                 f"{','.join(RATINGS_HEADER)}")
            if header != RATINGS_HEADER:
                raise ValueError(f"{path}:1: bad header {header!r}, expected "
                                 f"{RATINGS_HEADER!r}")
            for lineno, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                user, item = row[0], row[1]
                if not user or not item:
                    raise ValueError(f"{path}:{lineno}: empty user or item id")
                if not writable_id(item):  # a vector table could not hold it
                    raise ValueError(f"{path}:{lineno}: item id {item!r} holds whitespace")
                try:
                    rating = float(row[2])
                    timestamp = int(row[3])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not _valid_rating(rating):
                    raise ValueError(f"{path}:{lineno}: rating {row[2]} not on the "
                                     "0.5..5.0 half-star scale")
                if user not in histories:
                    histories[user] = UserHistory(user, [])
                histories[user].events.append((item, rating, timestamp))
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return list(histories.values())


def check_threshold(threshold: float) -> None:
    if not abs(threshold) <= sys.float_info.max:
        raise ValueError("threshold must be finite")


def cooccurrence_from_ratings(histories: Iterable[UserHistory],
                              threshold: float = DEFAULT_THRESHOLD) -> CooccurrenceSets:
    """One set per user: items the user rated strictly above the finite
    threshold. Duplicate (user, item) pairs keep the rating with the latest
    timestamp (later file position wins a timestamp tie). Sets smaller than
    2 are discarded and counted."""
    check_threshold(threshold)
    sets: list[tuple[str, ...]] = []
    dropped = 0
    for history in histories:
        latest: dict[str, tuple[int, int, float]] = {}  # item -> (ts, position, rating)
        for position, (item, rating, timestamp) in enumerate(history.events):
            prior = latest.get(item)
            if prior is None or (timestamp, position) >= (prior[0], prior[1]):
                latest[item] = (timestamp, position, rating)
        liked = sorted(item for item, (_, _, rating) in latest.items()
                       if rating > threshold)
        if len(liked) >= 2:
            sets.append(tuple(liked))
        elif len(liked) == 1:
            dropped += 1
    return CooccurrenceSets(sets, dropped)


def load_sets(path: str | Path) -> CooccurrenceSets:
    """Read whitespace-separated item ids, one set per line. Ids repeated on
    a line are deduplicated; lines left with fewer than 2 ids are dropped
    and counted."""
    sets: list[tuple[str, ...]] = []
    dropped = 0
    with open_text(path) as fh:
        for line in fh:
            items = sorted(set(line.split()))
            if len(items) >= 2:
                sets.append(tuple(items))
            else:
                dropped += 1
    return CooccurrenceSets(sets, dropped)


def load_metadata(path: str | Path) -> list[ContentProfile]:
    """Read JSON Lines item metadata. Every record needs a unique id; any other
    field may be null (a null tag list reads as empty) or absent. ContentProfile checks values."""
    profiles: list[ContentProfile] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer past Python's digit limit
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            if "id" not in record or record["id"] in (None, ""):
                raise ValueError(f"{path}:{lineno}: missing id")
            if type(record["id"]) not in (str, int):  # not isinstance: a bool is an int
                raise ValueError(f"{path}:{lineno}: id must be a string or an integer")
            item_id = str(record["id"])
            if item_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {item_id!r}")
            seen.add(item_id)
            try:
                profiles.append(ContentProfile(
                    id=item_id, plot=record.get("plot"), year=record.get("year"),
                    **{key: [] if record.get(key) is None else record[key]
                       for key in TAG_FIELDS}))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return profiles


def save_sets(sets: CooccurrenceSets, path: str | Path) -> None:
    """Inverse of load_sets: one space-joined line per set. An id that ``writable_id``
    refuses (it would read back as other sets) or UTF-8 cannot encode raises first."""
    for items in sets.sets:
        for item_id in items:
            if not writable_id(item_id) or _NOT_UTF8.search(item_id):
                raise ValueError(f"id not writable to a set file: {item_id!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for items in sets.sets:
            fh.write(" ".join(items) + "\n")


def save_metadata(profiles: Iterable[ContentProfile], path: str | Path) -> None:
    """Inverse of load_metadata: one JSON object per line, keys sorted. A repeated id,
    which load_metadata refuses, raises before the file is opened."""
    profiles, seen = list(profiles), set()
    for profile in profiles:
        if profile.id in seen:
            raise ValueError(f"duplicate id {profile.id!r}")
        seen.add(profile.id)
    with open(path, "w", encoding="utf-8") as fh:
        for profile in profiles:
            fh.write(json.dumps(asdict(profile), sort_keys=True) + "\n")
