"""Value types, episode validation and the JSONL codec."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verblab.domain import (
    DOW_LABELS,
    ENGAGEMENTS,
    GENRES,
    TAG_POOL,
    Catalog,
    CatalogError,
    DatasetParseError,
    DatasetValidationError,
    EpisodeInstance,
    InteractionRecord,
    ItemMeta,
    Token,
    UserHistory,
    VerbalizedContext,
    decode_catalog,
    decode_episode,
    dow_label,
    dur_bucket,
    encode_catalog,
    encode_episode,
    read_episodes,
    validate_catalog_items,
    validate_episode,
    write_episodes,
)


def make_records(n, item_id=3, start_day=20000):
    return tuple(
        InteractionRecord(day=start_day + i, hour=10, item_id=item_id, engagement="play", duration_min=30.0)
        for i in range(n)
    )


def make_episode(n_records=3, target_index=0, is_discovery=True, candidates=None):
    watched_item = 3
    cands = candidates if candidates is not None else tuple(range(10, 20))
    return EpisodeInstance(
        history=UserHistory(user_id=7, records=make_records(n_records, watched_item)),
        candidates=cands,
        target_index=target_index,
        is_discovery=is_discovery,
    )


class TestVocabularies:
    def test_closed_vocab_sizes(self):
        assert len(GENRES) == 8
        assert len(TAG_POOL) == 30
        assert len(set(TAG_POOL)) == 30
        assert ENGAGEMENTS == ("play", "thumb_up", "add_to_list")
        assert len(DOW_LABELS) == 7

    def test_dur_bucket_boundaries(self):
        assert dur_bucket(0.0) == "short"
        assert dur_bucket(9.999) == "short"
        assert dur_bucket(10.0) == "med"
        assert dur_bucket(60.0) == "med"
        assert dur_bucket(60.001) == "long"
        assert dur_bucket(80.08) == "long"

    def test_dow_label_cycles_weekly(self):
        assert dow_label(0) == "mon"
        assert dow_label(6) == "sun"
        assert dow_label(7) == "mon"
        # 20250608 is divisible by 7, so it lands on the week's start
        assert dow_label(20250608) == "mon"


class TestRecords:
    def test_total_hours_ordering_key(self):
        a = InteractionRecord(day=10, hour=23, item_id=0, engagement="play", duration_min=5)
        b = InteractionRecord(day=11, hour=0, item_id=0, engagement="play", duration_min=5)
        assert a.total_hours == 263
        assert b.total_hours == 264

    def test_compression_ratio(self):
        ctx = VerbalizedContext([Token("TITLE", 1)] * 6, 24)
        assert ctx.compression_ratio == 0.25


class TestEpisodeValidation:
    def test_valid_episode_has_no_violations(self):
        assert validate_episode(make_episode()) == []

    def test_max_history_boundary(self):
        assert validate_episode(make_episode(n_records=100)) == []
        bad = validate_episode(make_episode(n_records=101))
        assert any("length must be 1..100" in v for v in bad)

    def test_empty_history_rejected(self):
        ep = EpisodeInstance(
            history=UserHistory(user_id=1, records=()),
            candidates=tuple(range(10)),
            target_index=0,
            is_discovery=True,
        )
        assert any("length" in v for v in validate_episode(ep))

    def test_hour_range(self):
        records = (InteractionRecord(day=1, hour=24, item_id=0, engagement="play", duration_min=5),)
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(10)), 1, True)
        assert any("hour" in v for v in validate_episode(ep))

    def test_unknown_engagement(self):
        records = (InteractionRecord(day=1, hour=1, item_id=0, engagement="binge", duration_min=5),)
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(10)), 1, True)
        assert any("engagement" in v for v in validate_episode(ep))

    def test_negative_duration(self):
        records = (InteractionRecord(day=1, hour=1, item_id=0, engagement="play", duration_min=-2),)
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(10)), 1, True)
        assert any("dur" in v for v in validate_episode(ep))

    def test_timestamps_must_not_decrease(self):
        records = (
            InteractionRecord(day=5, hour=10, item_id=0, engagement="play", duration_min=5),
            InteractionRecord(day=5, hour=9, item_id=1, engagement="play", duration_min=5),
        )
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(10)), 2, True)
        assert any("timestamp decreases" in v for v in validate_episode(ep))

    def test_equal_timestamps_allowed(self):
        records = (
            InteractionRecord(day=5, hour=10, item_id=0, engagement="play", duration_min=5),
            InteractionRecord(day=5, hour=10, item_id=1, engagement="play", duration_min=5),
        )
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(10)), 2, True)
        assert validate_episode(ep) == []

    def test_candidate_count_and_distinctness(self):
        assert any("expected 10" in v for v in validate_episode(make_episode(candidates=tuple(range(9)))))
        dup = (1, 1) + tuple(range(2, 10))
        assert any("distinct" in v for v in validate_episode(make_episode(candidates=dup)))

    def test_target_index_range(self):
        assert any("target_index" in v for v in validate_episode(make_episode(target_index=10)))
        assert any("target_index" in v for v in validate_episode(make_episode(target_index=-1)))

    def test_discovery_flag_must_match_watched_set(self):
        # history watches item 3; candidates include it at index 0
        cands = (3,) + tuple(range(10, 19))
        ep = make_episode(candidates=cands, target_index=0, is_discovery=True)
        assert any("is_discovery" in v for v in validate_episode(ep))
        ok = make_episode(candidates=cands, target_index=0, is_discovery=False)
        assert validate_episode(ok) == []

    def test_validation_reports_all_problems_at_once(self):
        records = (InteractionRecord(day=1, hour=99, item_id=0, engagement="nope", duration_min=-1),)
        ep = EpisodeInstance(UserHistory(1, records), tuple(range(9)), 44, True)
        violations = validate_episode(ep)
        assert len(violations) >= 4


class TestCatalogType:
    def test_lookup_and_genre_buckets(self):
        items = [
            ItemMeta(0, ("ba", "ce"), "scifi", ("bleak", "campy", "gritty"), 2001),
            ItemMeta(1, ("di", "fo"), "scifi", ("epic", "noir", "raw"), 2011),
            ItemMeta(2, ("gu", "ha"), "drama", ("epic", "noir", "raw"), 1999),
        ]
        cat = Catalog(items)
        assert len(cat) == 3
        assert cat.meta(1).year == 2011
        assert cat.genre_items["scifi"] == (0, 1)
        assert cat.genre_items["drama"] == (2,)
        assert cat.genre_items["comedy"] == ()

    def test_unknown_item_raises(self):
        cat = Catalog([ItemMeta(0, ("ba", "ce"), "scifi", ("bleak", "campy", "gritty"), 2001)])
        with pytest.raises(CatalogError, match="item id 9"):
            cat.meta(9)

    def test_duplicate_ids_rejected(self):
        items = [
            ItemMeta(0, ("ba", "ce"), "scifi", ("bleak", "campy", "gritty"), 2001),
            ItemMeta(0, ("di", "fo"), "drama", ("epic", "noir", "raw"), 2011),
        ]
        with pytest.raises(CatalogError, match="duplicate"):
            Catalog(items)

    def test_catalog_item_validation(self):
        bad = ItemMeta(-1, ("Ba", ""), "polka", ("bleak", "bleak", "zzz"), 1200)
        problems = validate_catalog_items([bad])
        assert len(problems) >= 4


class TestEpisodeCodec:
    def test_round_trip_identity(self):
        ep = make_episode()
        assert decode_episode(encode_episode(ep)) == ep

    def test_round_trip_is_byte_stable(self):
        ep = make_episode()
        line = encode_episode(ep)
        assert encode_episode(decode_episode(line)) == line

    def test_debug_latent_round_trips(self):
        ep = EpisodeInstance(
            history=make_episode().history,
            candidates=tuple(range(10, 20)),
            target_index=1,
            is_discovery=True,
            debug_latent=(0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125),
        )
        back = decode_episode(encode_episode(ep))
        assert back.debug_latent == ep.debug_latent

    def test_unknown_top_level_field_rejected(self):
        obj = json.loads(encode_episode(make_episode()))
        obj["surprise"] = 1
        with pytest.raises(DatasetParseError, match="unknown field 'surprise'"):
            decode_episode(json.dumps(obj))

    def test_unknown_record_field_rejected(self):
        obj = json.loads(encode_episode(make_episode()))
        obj["records"][0]["extra"] = 1
        with pytest.raises(DatasetParseError, match=r"records\[0\].*unknown field 'extra'"):
            decode_episode(json.dumps(obj))

    def test_missing_field_named(self):
        obj = json.loads(encode_episode(make_episode()))
        del obj["target_index"]
        with pytest.raises(DatasetParseError, match="missing required field 'target_index'"):
            decode_episode(json.dumps(obj))

    def test_wrong_types_rejected(self):
        obj = json.loads(encode_episode(make_episode()))
        obj["records"][1]["hour"] = "ten"
        with pytest.raises(DatasetParseError, match=r"records\[1\]\.hour: expected integer"):
            decode_episode(json.dumps(obj))

    def test_bool_is_not_an_integer(self):
        obj = json.loads(encode_episode(make_episode()))
        obj["target_index"] = True
        with pytest.raises(DatasetParseError, match="expected integer"):
            decode_episode(json.dumps(obj))

    def test_malformed_json_reports_position(self):
        with pytest.raises(DatasetParseError, match=r"line 1 col"):
            decode_episode('{"user_id": }', where="row 9")

    def test_where_prefix_appears_in_errors(self):
        with pytest.raises(DatasetParseError, match="train.jsonl:4"):
            decode_episode("[1,2]", where="train.jsonl:4")

    def test_validation_failure_carries_violations(self):
        obj = json.loads(encode_episode(make_episode()))
        obj["target_index"] = 9999
        with pytest.raises(DatasetValidationError) as exc:
            decode_episode(json.dumps(obj))
        assert any("target_index" in v for v in exc.value.violations)

    @given(
        n_records=st.integers(min_value=1, max_value=8),
        user_id=st.integers(min_value=0, max_value=10_000),
        target_index=st.integers(min_value=0, max_value=9),
        hour=st.integers(min_value=0, max_value=23),
        eng=st.sampled_from(ENGAGEMENTS),
        dur=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        noise=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_codec_round_trip_property(self, n_records, user_id, target_index, hour, eng, dur, noise):
        records = tuple(
            InteractionRecord(day=100 + i, hour=hour, item_id=i, engagement=eng,
                              duration_min=dur, is_noise=noise)
            for i in range(n_records)
        )
        ep = EpisodeInstance(
            history=UserHistory(user_id=user_id, records=records),
            candidates=tuple(range(20, 30)),
            target_index=target_index,
            is_discovery=True,
        )
        line = encode_episode(ep)
        assert decode_episode(line) == ep
        assert encode_episode(decode_episode(line)) == line


class TestFiles:
    def test_episode_file_round_trip(self, tmp_path):
        eps = [make_episode(n_records=k) for k in (1, 3, 5)]
        path = tmp_path / "x.jsonl"
        write_episodes(eps, path)
        assert read_episodes(path) == eps

    def test_read_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(encode_episode(make_episode()) + "\n{broken\n")
        with pytest.raises(DatasetParseError, match="bad.jsonl:2"):
            read_episodes(path)

    def test_catalog_round_trip(self):
        items = [
            ItemMeta(0, ("ba", "ce"), "scifi", ("bleak", "campy", "gritty"), 2001),
            ItemMeta(1, ("di", "fo"), "drama", ("epic", "noir", "raw"), 2011),
        ]
        cat = Catalog(items)
        text = encode_catalog(cat)
        back = decode_catalog(text)
        assert back.items == cat.items
        assert encode_catalog(back) == text

    def test_catalog_validates_on_load(self):
        row = [{"item": 0, "title": ["ba", "ce"], "genre": "polka", "tags": ["bleak", "campy", "gritty"], "year": 2001}]
        with pytest.raises(DatasetValidationError, match="genre"):
            decode_catalog(json.dumps(row))

    def test_catalog_parse_error_positions(self):
        with pytest.raises(DatasetParseError, match=r"catalog\[0\]"):
            decode_catalog('[{"title": ["a","b"]}]')
