"""Core value types shared by the generator, the verbalizers and the scorers.

The module owns the closed vocabularies (genres, tags, engagement kinds),
the token type, the episode/catalog data types, episode validation, and the
line-oriented JSON codec used for dataset files.  Values are plain frozen
dataclasses; validation reports problems as data rather than raising, so a
decoded-but-broken episode can be inspected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

GENRES: tuple[str, ...] = (
    "scifi", "comedy", "drama", "action", "horror", "romance", "fantasy", "docu",
)

TAG_POOL: tuple[str, ...] = (
    "nostalgic", "supernatural", "gritty", "feelgood", "slowburn", "campy",
    "cerebral", "bleak", "quirky", "epic", "intimate", "satirical",
    "noir", "surreal", "heartfelt", "pulpy", "stylized", "brooding",
    "whimsical", "tense", "dreamy", "raw", "lavish", "minimal",
    "retro", "futuristic", "macabre", "uplifting", "deadpan", "operatic",
)

ENGAGEMENTS: tuple[str, ...] = ("play", "thumb_up", "add_to_list")

# Day-of-week labels; an epoch-day divisible by 7 falls on a Monday.
DOW_LABELS: tuple[str, ...] = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

YEAR_MIN = 1980
YEAR_MAX = 2026

N_CANDIDATES = 10
MAX_HISTORY_LEN = 100


def dur_bucket(duration_min: float) -> str:
    """short: < 10 min, med: 10-60 min, long: > 60 min."""
    if duration_min < 10.0:
        return "short"
    if duration_min <= 60.0:
        return "med"
    return "long"


def dow_label(day: int) -> str:
    return DOW_LABELS[day % 7]


class Token(NamedTuple):
    """One unit of a verbalized context.

    TITLE and ID tokens carry the item id (titles are two word-tokens per
    mention, each tagged with the item they belong to); GENRE/PREF carry a
    genre label, TAG a tag label, the rest carry bucket or clock values.
    """

    kind: str
    payload: int | str


@dataclass(frozen=True, slots=True)
class ItemMeta:
    """Catalog entry for one item."""

    item_id: int
    title_tokens: tuple[str, str]
    genre: str
    tags: tuple[str, str, str]  # three distinct labels, stored sorted
    year: int


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One watch event: integer epoch-day plus hour-of-day."""

    day: int
    hour: int
    item_id: int
    engagement: str
    duration_min: float
    is_noise: bool = False  # generator bookkeeping; never a policy feature

    @property
    def total_hours(self) -> int:
        return self.day * 24 + self.hour


@dataclass(frozen=True, slots=True)
class UserHistory:
    user_id: int
    records: tuple[InteractionRecord, ...]


@dataclass(frozen=True, slots=True)
class EpisodeInstance:
    """A next-item prediction instance over 10 candidates."""

    history: UserHistory
    candidates: tuple[int, ...]
    target_index: int
    is_discovery: bool
    debug_latent: tuple[float, ...] | None = None


@dataclass(slots=True)
class VerbalizedContext:
    """Token sequence handed to a reasoner, plus the length the plain
    per-record template rendering of the same history would have had."""

    tokens: list[Token]
    source_template_len: int

    @property
    def compression_ratio(self) -> float:
        return len(self.tokens) / self.source_template_len


class Catalog:
    """Item metadata with id and genre lookups."""

    def __init__(self, items: Iterable[ItemMeta]):
        self.items: tuple[ItemMeta, ...] = tuple(items)
        self.by_id: dict[int, ItemMeta] = {m.item_id: m for m in self.items}
        if len(self.by_id) != len(self.items):
            raise CatalogError("duplicate item ids in catalog")
        self.genre_items: dict[str, tuple[int, ...]] = {}
        buckets: dict[str, list[int]] = {g: [] for g in GENRES}
        for m in self.items:
            buckets.setdefault(m.genre, []).append(m.item_id)
        self.genre_items = {g: tuple(ids) for g, ids in buckets.items()}

    def __len__(self) -> int:
        return len(self.items)

    def meta(self, item_id: int) -> ItemMeta:
        try:
            return self.by_id[item_id]
        except KeyError:
            raise CatalogError(f"item id {item_id} not in catalog") from None


class DatasetParseError(ValueError):
    """Structurally malformed dataset line or file (position included)."""


class DatasetValidationError(ValueError):
    """Parsed fine, but the episode breaks domain invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class CatalogError(ValueError):
    pass


# ---------------------------------------------------------------------------
# validation


def validate_episode(episode: EpisodeInstance) -> list[str]:
    """All invariant violations in the episode, as human-readable strings.

    An empty list means the episode is well-formed.  Violations are data,
    not exceptions.
    """
    out: list[str] = []
    records = episode.history.records
    if not 1 <= len(records) <= MAX_HISTORY_LEN:
        out.append(f"records: length must be 1..{MAX_HISTORY_LEN}, got {len(records)}")
    prev_hours = None
    for i, rec in enumerate(records):
        if not 0 <= rec.hour <= 23:
            out.append(f"records[{i}].hour: must be 0..23, got {rec.hour}")
        if rec.engagement not in ENGAGEMENTS:
            out.append(f"records[{i}].eng: unknown engagement {rec.engagement!r}")
        if rec.duration_min < 0:
            out.append(f"records[{i}].dur: must be >= 0, got {rec.duration_min}")
        if prev_hours is not None and rec.total_hours < prev_hours:
            out.append(f"records[{i}]: timestamp decreases ({rec.total_hours} < {prev_hours})")
        prev_hours = rec.total_hours

    cands = episode.candidates
    if len(cands) != N_CANDIDATES:
        out.append(f"candidates: expected {N_CANDIDATES}, got {len(cands)}")
    if len(set(cands)) != len(cands):
        out.append("candidates: ids must be distinct")
    if not 0 <= episode.target_index < N_CANDIDATES:
        out.append(f"target_index: must be 0..{N_CANDIDATES - 1}, got {episode.target_index}")
    if cands and 0 <= episode.target_index < len(cands):
        target = cands[episode.target_index]
        watched = {r.item_id for r in records}
        actual = target not in watched
        if episode.is_discovery != actual:
            out.append(
                f"is_discovery: flag is {episode.is_discovery} but target "
                f"{'is not' if actual else 'is'} in the watched set"
            )
    return out


def validate_catalog_items(items: Iterable[ItemMeta]) -> list[str]:
    out: list[str] = []
    for m in items:
        where = f"item {m.item_id}"
        if m.item_id < 0:
            out.append(f"{where}: item_id must be >= 0")
        if len(m.title_tokens) != 2 or any(
            not t or t != t.lower() for t in m.title_tokens
        ):
            out.append(f"{where}: title must be 2 lowercase word tokens")
        if m.genre not in GENRES:
            out.append(f"{where}: genre {m.genre!r} not in the genre set")
        if len(set(m.tags)) != 3 or any(t not in TAG_POOL for t in m.tags):
            out.append(f"{where}: tags must be 3 distinct labels from the tag pool")
        if not YEAR_MIN <= m.year <= YEAR_MAX:
            out.append(f"{where}: year must be {YEAR_MIN}..{YEAR_MAX}, got {m.year}")
    return out


# ---------------------------------------------------------------------------
# codec

_RECORD_KEYS = ("day", "hour", "item", "eng", "dur", "noise")
_EPISODE_KEYS = ("user_id", "records", "candidates", "target_index", "is_discovery", "debug_latent")


def encode_episode(episode: EpisodeInstance) -> str:
    """One JSON line, stable byte-for-byte across encode/decode cycles."""
    obj: dict = {
        "user_id": episode.history.user_id,
        "records": [
            {
                "day": r.day,
                "hour": r.hour,
                "item": r.item_id,
                "eng": r.engagement,
                "dur": r.duration_min,
                "noise": r.is_noise,
            }
            for r in episode.history.records
        ],
        "candidates": list(episode.candidates),
        "target_index": episode.target_index,
        "is_discovery": episode.is_discovery,
    }
    if episode.debug_latent is not None:
        obj["debug_latent"] = list(episode.debug_latent)
    return json.dumps(obj, separators=(",", ":"))


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise DatasetParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def decode_episode(line: str, where: str = "episode") -> EpisodeInstance:
    """Parse and validate one episode line.

    Raises DatasetParseError (with position) for malformed JSON or missing
    fields, DatasetValidationError when the parsed episode breaks invariants.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetParseError(f"{where}: invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise DatasetParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in _EPISODE_KEYS:
            raise DatasetParseError(f"{where}: unknown field {key!r}")

    raw_records = _require(obj, "records", where)
    if not isinstance(raw_records, list):
        raise DatasetParseError(f"{where}: records must be an array")
    records = []
    for i, r in enumerate(raw_records):
        spot = f"{where}: records[{i}]"
        if not isinstance(r, dict):
            raise DatasetParseError(f"{spot} must be an object")
        for key in r:
            if key not in _RECORD_KEYS:
                raise DatasetParseError(f"{spot}: unknown field {key!r}")
        records.append(
            InteractionRecord(
                day=_expect_int(_require(r, "day", spot), f"{spot}.day"),
                hour=_expect_int(_require(r, "hour", spot), f"{spot}.hour"),
                item_id=_expect_int(_require(r, "item", spot), f"{spot}.item"),
                engagement=_expect_str(_require(r, "eng", spot), f"{spot}.eng"),
                duration_min=_expect_num(_require(r, "dur", spot), f"{spot}.dur"),
                is_noise=_expect_bool(_require(r, "noise", spot), f"{spot}.noise"),
            )
        )

    candidates = _require(obj, "candidates", where)
    if not isinstance(candidates, list) or any(not _is_int(c) for c in candidates):
        raise DatasetParseError(f"{where}: candidates must be an array of integers")
    latent = obj.get("debug_latent")
    if latent is not None and (
        not isinstance(latent, list) or any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in latent)
    ):
        raise DatasetParseError(f"{where}: debug_latent must be an array of numbers")

    episode = EpisodeInstance(
        history=UserHistory(
            user_id=_expect_int(_require(obj, "user_id", where), f"{where}.user_id"),
            records=tuple(records),
        ),
        candidates=tuple(candidates),
        target_index=_expect_int(_require(obj, "target_index", where), f"{where}.target_index"),
        is_discovery=_expect_bool(_require(obj, "is_discovery", where), f"{where}.is_discovery"),
        debug_latent=tuple(float(x) for x in latent) if latent is not None else None,
    )
    violations = validate_episode(episode)
    if violations:
        raise DatasetValidationError([f"{where}: {v}" for v in violations])
    return episode


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _expect_int(x, where: str) -> int:
    if not _is_int(x):
        raise DatasetParseError(f"{where}: expected integer, got {x!r}")
    return x


def _expect_num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DatasetParseError(f"{where}: expected number, got {x!r}")
    return float(x)


def _expect_str(x, where: str) -> str:
    if not isinstance(x, str):
        raise DatasetParseError(f"{where}: expected string, got {x!r}")
    return x


def _expect_bool(x, where: str) -> bool:
    if not isinstance(x, bool):
        raise DatasetParseError(f"{where}: expected boolean, got {x!r}")
    return x


def read_episodes(path) -> list[EpisodeInstance]:
    episodes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            episodes.append(decode_episode(line, where=f"{path}:{lineno}"))
    return episodes


def write_episodes(episodes: Iterable[EpisodeInstance], path) -> None:
    from .fsutil import atomic_write_text

    atomic_write_text(path, "".join(encode_episode(ep) + "\n" for ep in episodes))


def encode_catalog(catalog: Catalog) -> str:
    rows = [
        {
            "item": m.item_id,
            "title": list(m.title_tokens),
            "genre": m.genre,
            "tags": list(m.tags),
            "year": m.year,
        }
        for m in catalog.items
    ]
    return json.dumps(rows, separators=(",", ":"))


def decode_catalog(text: str, where: str = "catalog") -> Catalog:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetParseError(f"{where}: invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
    if not isinstance(rows, list):
        raise DatasetParseError(f"{where}: expected a JSON array")
    items = []
    for i, row in enumerate(rows):
        spot = f"{where}[{i}]"
        if not isinstance(row, dict):
            raise DatasetParseError(f"{spot}: expected an object")
        title = _require(row, "title", spot)
        tags = _require(row, "tags", spot)
        if not isinstance(title, list) or len(title) != 2:
            raise DatasetParseError(f"{spot}.title: expected 2 word tokens")
        if not isinstance(tags, list):
            raise DatasetParseError(f"{spot}.tags: expected an array")
        items.append(
            ItemMeta(
                item_id=_expect_int(_require(row, "item", spot), f"{spot}.item"),
                title_tokens=(str(title[0]), str(title[1])),
                genre=_expect_str(_require(row, "genre", spot), f"{spot}.genre"),
                tags=tuple(sorted(str(t) for t in tags)),
                year=_expect_int(_require(row, "year", spot), f"{spot}.year"),
            )
        )
    problems = validate_catalog_items(items)
    if problems:
        raise DatasetValidationError([f"{where}: {p}" for p in problems])
    return Catalog(items)


def read_catalog(path) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        return decode_catalog(fh.read(), where=str(path))


def write_catalog(catalog: Catalog, path) -> None:
    from .fsutil import atomic_write_text

    atomic_write_text(path, encode_catalog(catalog) + "\n")
