"""Synthetic world generator: catalog, user profiles, histories, episodes."""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from verblab.domain import GENRES, encode_catalog, read_episodes, validate_episode
from verblab.rng import derive_rng
from verblab.synthworld import (
    GenerationError,
    WorldConfig,
    gen_catalog,
    gen_dataset,
    gen_episode,
    gen_history,
    gen_split,
    gen_user_profile,
)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig().validate()

    @pytest.mark.parametrize(
        "bad",
        [
            {"p_rewatch_target": 1.5},
            {"n_eval_episodes": 0},
            {"n_items": 4},
            {"t_min": 0},
            {"t_min": 30, "t_max": 20},
            {"t_max": 101},
            {"p_noise": 1.5},
            {"p_repeat": -0.1},
            {"repeat_cap": 0},
            {"dirichlet_alpha": 0.0},
            {"n_train_episodes": 0},
            {"master_seed": 1 << 64},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            replace(WorldConfig(), **bad).validate()


class TestCatalog:
    def test_deterministic(self):
        cfg = WorldConfig()
        a = gen_catalog(cfg, derive_rng(1, "catalog", 0))
        b = gen_catalog(cfg, derive_rng(1, "catalog", 0))
        assert encode_catalog(a) == encode_catalog(b)

    def test_seed_changes_titles(self):
        cfg = WorldConfig()
        a = gen_catalog(cfg, derive_rng(1, "catalog", 0))
        b = gen_catalog(cfg, derive_rng(2, "catalog", 0))
        titles = lambda c: {m.title_tokens for m in c.items}
        assert titles(a) != titles(b)

    def test_round_robin_genre_balance(self):
        cat = gen_catalog(WorldConfig(), derive_rng(1, "catalog", 0))
        counts = Counter(m.genre for m in cat.items)
        assert all(counts[g] == 200 // 8 for g in GENRES)

    def test_one_item_per_genre_when_items_equal_genres(self):
        cfg = replace(WorldConfig(), n_items=8)
        cat = gen_catalog(cfg, derive_rng(1, "catalog", 0))
        assert sorted(m.genre for m in cat.items) == sorted(GENRES)

    def test_tags_are_sorted_distinct_triples(self):
        cat = gen_catalog(WorldConfig(), derive_rng(3, "catalog", 0))
        for m in cat.items:
            assert len(m.tags) == 3
            assert len(set(m.tags)) == 3
            assert list(m.tags) == sorted(m.tags)


class TestUserProfile:
    def test_simplex(self):
        for i in range(50):
            p = gen_user_profile(WorldConfig(), derive_rng(7, "profile", i))
            assert all(x >= 0 for x in p.genre_pref)
            assert abs(sum(p.genre_pref) - 1.0) < 1e-9

    def test_deterministic(self):
        a = gen_user_profile(WorldConfig(), derive_rng(7, "profile", 3))
        b = gen_user_profile(WorldConfig(), derive_rng(7, "profile", 3))
        assert a.genre_pref == b.genre_pref

    def test_preferences_are_peaked(self):
        # Dirichlet(0.3) concentrates mass: the top coordinate dominates
        tops = [
            max(gen_user_profile(WorldConfig(), derive_rng(11, "profile", i)).genre_pref)
            for i in range(1000)
        ]
        assert sum(tops) / len(tops) > 0.4

    def test_top_genres_ordered_by_mass(self):
        p = gen_user_profile(WorldConfig(), derive_rng(7, "profile", 0))
        g0, g1 = p.top_genres
        assert p.genre_pref[g0] >= p.genre_pref[g1]
        assert p.genre_pref[g1] >= max(
            x for i, x in enumerate(p.genre_pref) if i not in (g0, g1)
        )


class TestHistory:
    def setup_method(self):
        self.cfg = WorldConfig()
        self.catalog = gen_catalog(self.cfg, derive_rng(1, "catalog", 0))

    def hist(self, cfg, i=0):
        rng = derive_rng(5, "hist", i)
        profile = gen_user_profile(cfg, rng)
        return gen_history(i, profile, self.catalog, cfg, rng)

    def test_length_bounds(self):
        for i in range(20):
            h = self.hist(self.cfg, i)
            assert self.cfg.t_min <= len(h.records) <= self.cfg.t_max

    def test_no_noise_when_disabled(self):
        cfg = replace(self.cfg, p_noise=0.0)
        assert not any(r.is_noise for r in self.hist(cfg).records)

    def test_all_noise_when_forced(self):
        cfg = replace(self.cfg, p_noise=1.0)
        records = self.hist(cfg).records
        assert all(r.is_noise for r in records)
        assert all(r.engagement == "play" for r in records)
        assert all(0.5 <= r.duration_min <= 8.0 for r in records)

    def test_signal_records_look_like_signal(self):
        cfg = replace(self.cfg, p_noise=0.0)
        for r in self.hist(cfg).records:
            assert 15.0 <= r.duration_min <= 95.0
            assert r.engagement in ("play", "thumb_up", "add_to_list")

    def test_timestamps_advance_one_to_fortyeight_hours(self):
        h = self.hist(self.cfg)
        hours = [r.total_hours for r in h.records]
        diffs = [b - a for a, b in zip(hours, hours[1:])]
        assert all(1 <= d <= 48 for d in diffs)

    def test_forced_repeats_run_to_cap(self):
        cfg = replace(self.cfg, p_noise=0.0, p_repeat=1.0, t_min=50, t_max=50)
        records = self.hist(cfg).records
        runs = []
        run = 1
        for prev, cur in zip(records, records[1:]):
            if cur.item_id == prev.item_id:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        assert all(r <= cfg.repeat_cap for r in runs)
        assert all(r == cfg.repeat_cap for r in runs[:-1])

    def test_noise_fraction_near_configured_rate(self):
        total = noise = 0
        for i in range(200):
            rng = derive_rng(99, "noisefrac", i)
            profile = gen_user_profile(self.cfg, rng)
            h = gen_history(i, profile, self.catalog, self.cfg, rng)
            total += len(h.records)
            noise += sum(r.is_noise for r in h.records)
        assert abs(noise / total - 0.3) < 0.03


class TestEpisode:
    def setup_method(self):
        self.cfg = WorldConfig()
        self.catalog = gen_catalog(self.cfg, derive_rng(1, "catalog", 0))

    def episode(self, cfg, i=0):
        rng = derive_rng(21, "ep", i)
        profile = gen_user_profile(cfg, rng)
        history = gen_history(i, profile, self.catalog, cfg, rng)
        return gen_episode(history, profile, self.catalog, cfg, rng)

    def test_episodes_validate(self):
        for i in range(30):
            assert validate_episode(self.episode(self.cfg, i)) == []

    def test_all_discovery_when_rewatch_disabled(self):
        cfg = replace(self.cfg, p_rewatch_target=0.0)
        for i in range(20):
            ep = self.episode(cfg, i)
            assert ep.is_discovery
            watched = {r.item_id for r in ep.history.records}
            assert ep.candidates[ep.target_index] not in watched

    def test_all_rewatch_when_forced(self):
        cfg = replace(self.cfg, p_rewatch_target=1.0, p_noise=0.0)
        for i in range(10):
            ep = self.episode(cfg, i)
            assert not ep.is_discovery

    def test_three_watched_distractors(self):
        for i in range(20):
            ep = self.episode(self.cfg, i)
            watched = {r.item_id for r in ep.history.records}
            n_watched_distractors = sum(
                1 for j, c in enumerate(ep.candidates) if j != ep.target_index and c in watched
            )
            assert n_watched_distractors == 3

    def test_fill_candidates_are_off_genre(self):
        for i in range(20):
            ep = self.episode(self.cfg, i)
            watched = {r.item_id for r in ep.history.records}
            target_genre = self.catalog.meta(ep.candidates[ep.target_index]).genre
            for j, c in enumerate(ep.candidates):
                if j == ep.target_index or c in watched:
                    continue
                assert self.catalog.meta(c).genre != target_genre

    def test_discovery_fraction_near_configured_rate(self):
        eps = [self.episode(self.cfg, i) for i in range(500)]
        frac = sum(ep.is_discovery for ep in eps) / len(eps)
        assert abs(frac - 0.7) < 0.05

    def test_debug_latent_carries_profile(self):
        ep = self.episode(self.cfg, 0)
        assert ep.debug_latent is not None
        assert abs(sum(ep.debug_latent) - 1.0) < 1e-9

    def test_exhausted_catalog_raises(self):
        cfg = replace(self.cfg, n_items=10, p_noise=1.0, t_min=100, t_max=100)
        catalog = gen_catalog(cfg, derive_rng(1, "catalog", 0))
        with pytest.raises(GenerationError):
            for i in range(5):
                rng = derive_rng(31, "exhaust", i)
                profile = gen_user_profile(cfg, rng)
                history = gen_history(i, profile, catalog, cfg, rng)
                gen_episode(history, profile, catalog, cfg, rng)


class TestSplitsAndDataset:
    def test_split_prefix_stability(self):
        cfg = WorldConfig(n_items=40, t_min=5, t_max=10, master_seed=77)
        catalog = gen_catalog(cfg, derive_rng(cfg.master_seed, "catalog", 0))
        short = gen_split(catalog, cfg, "train", 5, 0)
        longer = gen_split(catalog, cfg, "train", 10, 0)
        assert longer[:5] == short

    def test_dataset_files_are_byte_identical_across_runs(self, tmp_path):
        cfg = WorldConfig(
            n_items=40, n_train_episodes=20, n_eval_episodes=8, t_min=5, t_max=10, master_seed=42
        )
        a = gen_dataset(cfg, tmp_path / "a")
        b = gen_dataset(cfg, tmp_path / "b")
        assert set(a) == {"catalog.json", "train.jsonl", "eval.jsonl"}
        for name in a:
            assert file_digest(a[name]) == file_digest(b[name]), name

    def test_dataset_counts_and_user_disjointness(self, small_world):
        cfg, catalog, train, evale = small_world
        assert len(train) == cfg.n_train_episodes
        assert len(evale) == cfg.n_eval_episodes
        train_users = {ep.history.user_id for ep in train}
        eval_users = {ep.history.user_id for ep in evale}
        assert not train_users & eval_users

    def test_dataset_round_trips_through_files(self, tmp_path):
        cfg = WorldConfig(
            n_items=40, n_train_episodes=6, n_eval_episodes=3, t_min=5, t_max=8, master_seed=9
        )
        paths = gen_dataset(cfg, tmp_path / "d")
        train = read_episodes(paths["train.jsonl"])
        assert len(train) == 6
        assert all(validate_episode(ep) == [] for ep in train)
        catalog = json.load(open(paths["catalog.json"]))
        assert len(catalog) == 40

    def test_master_seed_changes_data(self, tmp_path):
        base = dict(n_items=40, n_train_episodes=6, n_eval_episodes=3, t_min=5, t_max=8)
        a = gen_dataset(WorldConfig(master_seed=1, **base), tmp_path / "a")
        b = gen_dataset(WorldConfig(master_seed=2, **base), tmp_path / "b")
        assert file_digest(a["train.jsonl"]) != file_digest(b["train.jsonl"])
