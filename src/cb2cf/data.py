"""Loaders for ratings, co-occurrence sets, and item metadata, plus the
labeled-vector export."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import open_text
from .sgns import CooccurrenceSets, EmbeddingTable

logger = logging.getLogger(__name__)

RATINGS_HEADER = ["userId", "movieId", "rating", "timestamp"]
YEAR_MIN = 1850
YEAR_MAX = 2100


@dataclass
class UserHistory:
    user: str
    events: list[tuple[str, float, int]]  # (item, rating, timestamp) in file order


@dataclass
class ContentProfile:
    """Raw item metadata. Tag lists may be empty and plot/year may be None;
    downstream featurization applies the 'n/a' and mean-year conventions."""

    id: str
    plot: str | None = None
    genres: list[str] = field(default_factory=list)
    actors: list[str] = field(default_factory=list)
    directors: list[str] = field(default_factory=list)
    languages: list[str] = field(default_factory=list)
    year: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("profile id must be nonempty")
        if self.year is not None and not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(f"implausible year {self.year} for item {self.id!r}")


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
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file, expected header "
                             f"{','.join(RATINGS_HEADER)}") from None
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
    return list(histories.values())


def cooccurrence_from_ratings(histories: Iterable[UserHistory],
                              threshold: float = 3.5) -> CooccurrenceSets:
    """One set per user: items the user rated strictly above the threshold.
    Duplicate (user, item) pairs keep the rating with the latest timestamp
    (later file position wins a timestamp tie). Sets smaller than 2 are
    discarded and counted."""
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
    and counted with a warning."""
    sets: list[tuple[str, ...]] = []
    dropped = 0
    with open_text(path) as fh:
        for line in fh:
            items = sorted(set(line.split()))
            if len(items) >= 2:
                sets.append(tuple(items))
            else:
                dropped += 1
    if dropped:
        logger.warning("%s: dropped %d lines with fewer than 2 items", path, dropped)
    return CooccurrenceSets(sets, dropped)


_METADATA_FIELDS = {"id", "plot", "genres", "actors", "directors", "languages", "year"}


def _string_list(value, lineno, path, key) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ValueError(f"{path}:{lineno}: {key} must be a list of strings or null")
    return value


def load_metadata(path: str | Path) -> list[ContentProfile]:
    """Read JSON Lines item metadata. Every record needs a unique id; any
    other field may be null or absent."""
    profiles: list[ContentProfile] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            if "id" not in record or record["id"] in (None, ""):
                raise ValueError(f"{path}:{lineno}: missing id")
            item_id = str(record["id"])
            if item_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {item_id!r}")
            seen.add(item_id)
            plot = record.get("plot")
            if plot is not None and not isinstance(plot, str):
                raise ValueError(f"{path}:{lineno}: plot must be a string or null")
            year = record.get("year")
            if year is not None:
                if isinstance(year, bool) or not isinstance(year, int):
                    raise ValueError(f"{path}:{lineno}: year must be an integer or null")
            try:
                profiles.append(ContentProfile(
                    id=item_id,
                    plot=plot,
                    genres=_string_list(record.get("genres"), lineno, path, "genres"),
                    actors=_string_list(record.get("actors"), lineno, path, "actors"),
                    directors=_string_list(record.get("directors"), lineno, path, "directors"),
                    languages=_string_list(record.get("languages"), lineno, path, "languages"),
                    year=year,
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return profiles


def save_sets(sets: CooccurrenceSets, path: str | Path) -> None:
    """Inverse of load_sets: one space-joined line per set."""
    with open(path, "w", encoding="utf-8") as fh:
        for items in sets.sets:
            fh.write(" ".join(items) + "\n")


def save_metadata(profiles: Iterable[ContentProfile], path: str | Path) -> None:
    """Inverse of load_metadata: one JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for profile in profiles:
            record = {
                "id": profile.id,
                "plot": profile.plot,
                "genres": profile.genres,
                "actors": profile.actors,
                "directors": profile.directors,
                "languages": profile.languages,
                "year": profile.year,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def export_labeled_vectors(table: EmbeddingTable, labels: Mapping[str, str],
                           path: str | Path) -> None:
    """Write ``id<TAB>label<TAB>components...`` rows in table order. Every
    id must have a label. Floats use repr, so reading the file back yields
    identical vectors."""
    missing = [i for i in table.ids if i not in labels]
    if missing:
        raise ValueError(f"{len(missing)} ids have no label (first: {missing[0]!r})")
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in table.ids:
            row = table.get(item_id)
            fh.write(item_id + "\t" + str(labels[item_id]) + "\t"
                     + "\t".join(repr(float(x)) for x in row) + "\n")
