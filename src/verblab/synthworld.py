"""Synthetic streaming world: catalog, users, histories and episodes.

Users are latent genre-preference vectors; histories mix preference-driven
signal records (with same-item repeat runs) and uniform noise records.
Episodes ask which of 10 candidates the user watches next, where the target
is either a rewatch of a known item or the discovery of an unseen one from a
favourite genre.  All generation is driven by named substreams of a single
master seed, so datasets are byte-identical across runs and generation order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .domain import (
    GENRES,
    TAG_POOL,
    Catalog,
    EpisodeInstance,
    InteractionRecord,
    ItemMeta,
    UserHistory,
    YEAR_MAX,
    YEAR_MIN,
    write_catalog,
    write_episodes,
)
from .rng import Rng, derive_rng


class GenerationError(RuntimeError):
    """The configured world cannot produce a valid artifact."""


@dataclass
class WorldConfig:
    n_items: int = 200
    n_train_episodes: int = 2000
    n_eval_episodes: int = 500
    t_min: int = 20
    t_max: int = 100
    p_noise: float = 0.3
    p_repeat: float = 0.25
    repeat_cap: int = 5
    p_rewatch_target: float = 0.3
    dirichlet_alpha: float = 0.3
    master_seed: int = 1

    def validate(self) -> None:
        if self.n_items < len(GENRES):
            raise ValueError(f"n_items ({self.n_items}) must be >= the {len(GENRES)} genres")
        if not 1 <= self.t_min <= self.t_max <= 100:
            raise ValueError(f"need 1 <= t_min <= t_max <= 100, got [{self.t_min}, {self.t_max}]")
        for name in ("p_noise", "p_repeat", "p_rewatch_target"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.repeat_cap < 1:
            raise ValueError(f"repeat_cap must be >= 1, got {self.repeat_cap}")
        if self.dirichlet_alpha <= 0:
            raise ValueError(f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}")
        if self.n_train_episodes < 1 or self.n_eval_episodes < 1:
            raise ValueError("need at least one train and one eval episode")
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class UserProfile:
    """Latent ground truth behind a user's behaviour (never a feature)."""

    genre_pref: tuple[float, ...]
    top_genres: tuple[int, ...] = field(default=(), compare=False)

    @staticmethod
    def from_pref(pref: list[float]) -> "UserProfile":
        order = sorted(range(len(pref)), key=lambda i: (-pref[i], i))
        return UserProfile(genre_pref=tuple(pref), top_genres=tuple(order[:2]))


# Two-syllable pseudo-word construction for titles.
_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "qui", "ro", "su", "ta", "ve", "wi", "xo", "zy",
)


def _pseudo_word(rng: Rng) -> str:
    n = rng.randint(2, 3)
    return "".join(rng.choice(_SYLLABLES) for _ in range(n))


def gen_catalog(cfg: WorldConfig, rng: Rng) -> Catalog:
    """Items with round-robin genres (then shuffled), random titles and tags."""
    cfg.validate()
    genres = [GENRES[i % len(GENRES)] for i in range(cfg.n_items)]
    rng.shuffle(genres)
    items = []
    for item_id in range(cfg.n_items):
        title = (_pseudo_word(rng), _pseudo_word(rng))
        tags = tuple(sorted(rng.sample(TAG_POOL, 3)))
        year = rng.randint(YEAR_MIN, YEAR_MAX)
        items.append(ItemMeta(item_id=item_id, title_tokens=title, genre=genres[item_id], tags=tags, year=year))
    return Catalog(items)


def gen_user_profile(cfg: WorldConfig, rng: Rng) -> UserProfile:
    return UserProfile.from_pref(rng.dirichlet(cfg.dirichlet_alpha, len(GENRES)))


def _signal_engagement(genre_idx: int, profile: UserProfile, rng: Rng) -> str:
    thumb_p = 0.2 if genre_idx in profile.top_genres else 0.05
    if rng.random() < thumb_p:
        return "thumb_up"
    return "play" if rng.random() < 0.9 else "add_to_list"


def gen_history(user_id: int, profile: UserProfile, catalog: Catalog, cfg: WorldConfig, rng: Rng) -> UserHistory:
    """T ~ U{t_min..t_max} records; each is noise with p_noise, else signal.

    Signal records continue the previous signal item with p_repeat (runs are
    geometric, capped at repeat_cap records); noise records interleave
    without ending a run.  Timestamps advance 1-48 hours per record.
    """
    t_len = rng.randint(cfg.t_min, cfg.t_max)
    total_hours = rng.below(24 * 3650)
    records: list[InteractionRecord] = []
    run_item: int | None = None
    run_genre_idx = 0
    run_len = 0
    for _ in range(t_len):
        total_hours += rng.randint(1, 48)
        if rng.random() < cfg.p_noise:
            item_id = rng.below(len(catalog))
            rec = InteractionRecord(
                day=total_hours // 24,
                hour=total_hours % 24,
                item_id=catalog.items[item_id].item_id,
                engagement="play",
                duration_min=rng.uniform(0.5, 8.0),
                is_noise=True,
            )
            records.append(rec)
            continue
        if run_item is not None and run_len < cfg.repeat_cap and rng.random() < cfg.p_repeat:
            item_id = run_item
            genre_idx = run_genre_idx
            run_len += 1
        else:
            genre_idx = rng.categorical(profile.genre_pref)
            pool = catalog.genre_items[GENRES[genre_idx]]
            if not pool:
                raise GenerationError(f"no items in genre {GENRES[genre_idx]!r}")
            item_id = rng.choice(pool)
            run_item = item_id
            run_genre_idx = genre_idx
            run_len = 1
        records.append(
            InteractionRecord(
                day=total_hours // 24,
                hour=total_hours % 24,
                item_id=item_id,
                engagement=_signal_engagement(genre_idx, profile, rng),
                duration_min=rng.uniform(15.0, 95.0),
                is_noise=False,
            )
        )
    return UserHistory(user_id=user_id, records=tuple(records))


def gen_episode(history: UserHistory, profile: UserProfile, catalog: Catalog, cfg: WorldConfig, rng: Rng) -> EpisodeInstance:
    """Target plus 9 distractors: 3 watched items and off-genre unwatched fill."""
    watched = {r.item_id for r in history.records}
    watched_signal = sorted({r.item_id for r in history.records if not r.is_noise})
    unwatched = [m.item_id for m in catalog.items if m.item_id not in watched]

    if rng.random() < cfg.p_rewatch_target and watched_signal:
        target = rng.choice(watched_signal)
        is_discovery = False
    else:
        top = profile.top_genres
        weights = [profile.genre_pref[g] for g in top]
        total = sum(weights)
        genre_idx = top[rng.categorical([w / total for w in weights])]
        pool = [i for i in unwatched if catalog.meta(i).genre == GENRES[genre_idx]]
        if not pool and len(top) > 1:
            other = top[0] if genre_idx == top[1] else top[1]
            pool = [i for i in unwatched if catalog.meta(i).genre == GENRES[other]]
        if not pool:
            pool = unwatched
        if not pool:
            raise GenerationError("no unwatched items left to use as a discovery target")
        target = rng.choice(pool)
        is_discovery = True

    target_genre = catalog.meta(target).genre
    rewatch_pool = sorted(watched - {target})
    distractors = rng.sample(rewatch_pool, min(3, len(rewatch_pool)))
    fill_pool = [i for i in unwatched if i != target and i not in distractors]
    if len(distractors) < 3:
        distractors += rng.sample(fill_pool, 3 - len(distractors))
    off_genre = [
        i for i in unwatched
        if i != target and i not in distractors and catalog.meta(i).genre != target_genre
    ]
    need = 10 - 1 - len(distractors)
    if len(off_genre) < need:
        raise GenerationError(
            f"catalog has too few eligible items for 10 candidates (need {need} off-genre unwatched)"
        )
    candidates = [target] + distractors + rng.sample(off_genre, need)
    rng.shuffle(candidates)
    return EpisodeInstance(
        history=history,
        candidates=tuple(candidates),
        target_index=candidates.index(target),
        is_discovery=is_discovery,
        debug_latent=profile.genre_pref,
    )


def _gen_one(user_id: int, catalog: Catalog, cfg: WorldConfig, rng: Rng) -> EpisodeInstance:
    profile = gen_user_profile(cfg, rng)
    history = gen_history(user_id, profile, catalog, cfg, rng)
    return gen_episode(history, profile, catalog, cfg, rng)


def gen_split(catalog: Catalog, cfg: WorldConfig, purpose: str, count: int, id_offset: int) -> list[EpisodeInstance]:
    """Episodes for one split; each episode owns the substream (purpose, i),
    so generation order (or parallelism) cannot change the output."""
    return [
        _gen_one(id_offset + i, catalog, cfg, derive_rng(cfg.master_seed, purpose, i))
        for i in range(count)
    ]


# The files of one world under its directory: the catalog, then the train
# and eval splits.
DATA_FILES = ("catalog.json", "train.jsonl", "eval.jsonl")


def gen_dataset(cfg: WorldConfig, out_dir) -> dict[str, str]:
    """Write the ``DATA_FILES`` under ``out_dir``.

    Returns {filename: path}.  Train and eval user ids are disjoint.
    """
    cfg.validate()
    catalog = gen_catalog(cfg, derive_rng(cfg.master_seed, "catalog", 0))
    train = gen_split(catalog, cfg, "train", cfg.n_train_episodes, 0)
    evale = gen_split(catalog, cfg, "eval", cfg.n_eval_episodes, cfg.n_train_episodes)
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in DATA_FILES}
    catalog_path, train_path, eval_path = paths.values()
    write_catalog(catalog, catalog_path)
    write_episodes(train, train_path)
    write_episodes(evale, eval_path)
    return paths
