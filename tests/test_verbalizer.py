"""Renderers and the two learnable verbalizer policies."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verblab.domain import (
    GENRES,
    TAG_POOL,
    Catalog,
    CatalogError,
    InteractionRecord,
    ItemMeta,
    Token,
    UserHistory,
)
from verblab.reasoner import ReasonerParams, load_reasoner_params
from verblab.rng import derive_rng
from verblab.verbalizer import (
    DROP,
    KEEP,
    KEEP_ENRICH,
    MERGE_PREV,
    ActionPolicy,
    ActionPolicyParams,
    HeuristicRules,
    RewritePolicy,
    RewritePolicyParams,
    frozen_verbalize,
    heuristic_verbalize,
    history_features,
    load_policy_params,
    render_actions,
    render_rewrite,
    render_template,
    save_policy_params,
)


def make_catalog(ids):
    items = [
        ItemMeta(
            item_id=i,
            title_tokens=(f"w{i}a", f"w{i}b"),
            genre=GENRES[i % len(GENRES)],
            tags=tuple(sorted(TAG_POOL[(i % 9) : (i % 9) + 3])),
            year=2000 + (i % 20),
        )
        for i in ids
    ]
    return Catalog(items)


def draws(policy, ctx, rng):
    """One member's uniforms from ``rng``, as a group of one."""
    return np.array([rng.randoms(policy.n_draws(ctx))])


def rec(item_id=0, day=100, hour=12, eng="play", dur=30.0, noise=False):
    return InteractionRecord(
        day=day, hour=hour, item_id=item_id, engagement=eng, duration_min=dur, is_noise=noise
    )


def hist(*records, user_id=1):
    return UserHistory(user_id=user_id, records=tuple(records))


class TestTemplate:
    def test_example_record(self):
        catalog = make_catalog([123456])
        h = hist(rec(item_id=123456, day=20250608, hour=14, eng="play", dur=80.08))
        ctx = render_template(h, catalog)
        assert ctx.tokens == [
            Token("DATE", 20250608),
            Token("DOW", "mon"),
            Token("HOUR", 14),
            Token("ID", 123456),
            Token("TITLE", 123456),
            Token("TITLE", 123456),
            Token("ENG", "play"),
            Token("DUR", "long"),
        ]
        assert ctx.source_template_len == 8
        assert ctx.compression_ratio == 1.0

    def test_three_records_is_24_tokens(self):
        catalog = make_catalog([0, 1, 2])
        h = hist(rec(0), rec(1, day=101), rec(2, day=102))
        ctx = render_template(h, catalog)
        assert len(ctx.tokens) == 24
        assert ctx.source_template_len == 24

    def test_unknown_item_raises(self):
        catalog = make_catalog([0])
        with pytest.raises(CatalogError, match="99"):
            render_template(hist(rec(99)), catalog)


class TestHeuristic:
    def test_short_play_dropped_short_thumb_kept(self):
        catalog = make_catalog([0, 1])
        h = hist(rec(0, dur=5.0, eng="play"), rec(1, day=101, dur=5.0, eng="thumb_up"))
        ctx = heuristic_verbalize(h, catalog)
        assert len(ctx.tokens) == 7  # only the thumb_up record survives
        assert ctx.tokens[:3] == [Token("TITLE", 1), Token("TITLE", 1), Token("ENG", "thumb_up")]
        kinds = [t.kind for t in ctx.tokens[3:]]
        assert kinds == ["GENRE", "TAG", "TAG", "TAG"]

    def test_no_pref_tokens_ever(self):
        catalog = make_catalog(range(5))
        h = hist(*[rec(i, day=100 + i) for i in range(5)])
        assert all(t.kind != "PREF" for t in heuristic_verbalize(h, catalog).tokens)

    def test_all_low_signal_history_renders_empty(self):
        catalog = make_catalog([0, 1])
        h = hist(rec(0, dur=3.0), rec(1, day=101, dur=7.9))
        ctx = heuristic_verbalize(h, catalog)
        assert ctx.tokens == []
        assert ctx.compression_ratio == 0.0

    def test_custom_rules(self):
        catalog = make_catalog([0])
        h = hist(rec(0, dur=30.0, eng="play"))
        strict = HeuristicRules(min_duration=60.0, keep_engagements=())
        assert heuristic_verbalize(h, catalog, strict).tokens == []
        assert len(heuristic_verbalize(h, catalog).tokens) == 7


class TestFeatures:
    def test_first_record_play_short(self):
        h = hist(rec(0, dur=5.0, eng="play"), rec(1, day=101), rec(2, day=102))
        f = history_features(h)[0]
        assert f.tolist() == [1, 1, 0, 0, 1, 0, 0, 0, 0, 1 / 5]

    def test_third_consecutive_same_item(self):
        h = hist(rec(7), rec(7, day=101), rec(7, day=102))
        f = history_features(h)[2]
        assert f[8] == 1.0
        assert f[9] == 3 / 5

    def test_run_length_clamps_at_norm(self):
        h = hist(*[rec(3, day=100 + i) for i in range(8)])
        assert history_features(h)[7, 9] == 1.0

    def test_recency_thirds(self):
        h = hist(*[rec(i, day=100 + i) for i in range(3)])
        assert history_features(h)[:, 7].tolist() == [0.0, 0.5, 1.0]

    def test_engagement_and_duration_one_hots(self):
        h = hist(rec(0, eng="add_to_list", dur=60.0))
        f = history_features(h)[0]
        assert f[1:4].tolist() == [0, 0, 1]
        assert f[4:7].tolist() == [0, 1, 0]

    def test_entries_bounded(self):
        h = hist(*[rec(i % 3, day=100 + i, dur=float(i * 13 % 90)) for i in range(12)])
        feats = history_features(h)
        assert np.all(feats >= 0.0) and np.all(feats <= 1.0)

    def test_noise_flag_is_invisible(self):
        a = hist(rec(0, noise=False), rec(1, day=101, noise=False))
        b = hist(rec(0, noise=True), rec(1, day=101, noise=True))
        assert np.array_equal(history_features(a), history_features(b))


class TestActionPolicy:
    def setup_method(self):
        self.catalog = make_catalog(range(4))
        self.policy = ActionPolicy(self.catalog)
        self.history = hist(rec(0, dur=5.0), rec(1, day=101, dur=30.0), rec(2, day=102, dur=70.0))
        self.ctx = self.policy.make_ctx(self.history)

    def test_zero_params_gives_coin_flips(self):
        trace = self.policy.sample(np.zeros(20), self.ctx, draws(self.policy, self.ctx, derive_rng(1, "t", 0)))
        assert trace.choices.shape == (1, 6)
        assert np.allclose(trace.logprobs, math.log(0.5))

    def test_sampling_is_deterministic_in_rng(self):
        a = self.policy.sample(np.zeros(20), self.ctx, draws(self.policy, self.ctx, derive_rng(1, "t", 5)))
        b = self.policy.sample(np.zeros(20), self.ctx, draws(self.policy, self.ctx, derive_rng(1, "t", 5)))
        assert np.array_equal(a.choices, b.choices)
        assert np.array_equal(a.logprobs, b.logprobs)

    def test_saturated_keep_bias(self):
        params = np.zeros(20)
        params[0] = 20.0  # keep-head bias
        trace = self.policy.sample(params, self.ctx, draws(self.policy, self.ctx, derive_rng(1, "t", 1)))
        assert trace.choices[0, 0::2].tolist() == [1, 1, 1]
        assert self.policy.greedy(params, self.ctx)[0::2] == [1, 1, 1]

    def test_logprobs_match_trace(self):
        rng = derive_rng(2, "t", 0)
        params = np.array([derive_rng(3, "p", i).normal() for i in range(20)])
        trace = self.policy.sample(params, self.ctx, draws(self.policy, self.ctx, rng))
        again = self.policy.logprobs(params, self.ctx, trace.choices)
        assert np.max(np.abs(again - trace.logprobs)) < 1e-12

    def test_logprobs_match_hand_sigmoid(self):
        h = hist(rec(0, dur=5.0, eng="play"))
        params = ActionPolicyParams(np.full(10, 0.25), np.full(10, -0.5))
        lp = self.policy.logprobs(params.to_vector(), self.policy.make_ctx(h), [[1, 0]])[0]
        f = history_features(h)[0]
        z_keep = float(f @ params.keep_weights)
        z_enr = float(f @ params.enrich_weights)
        assert lp[0] == pytest.approx(math.log(1 / (1 + math.exp(-z_keep))), abs=1e-12)
        assert lp[1] == pytest.approx(math.log(1 - 1 / (1 + math.exp(-z_enr))), abs=1e-12)

    def test_trace_length_enforced(self):
        ctx = self.policy.make_ctx(hist(rec(0)))
        with pytest.raises(ValueError, match="2 decisions per record"):
            self.policy.logprobs(np.zeros(20), ctx, [[1, 0, 1]])

    def test_path_probabilities_sum_to_one(self):
        params = np.array([derive_rng(4, "p", i).normal() * 0.7 for i in range(20)])
        paths = list(itertools.product([0, 1], repeat=6))
        total = float(np.sum(np.exp(self.policy.logprobs(params, self.ctx, paths).sum(axis=1))))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestActionRender:
    def setup_method(self):
        self.catalog = make_catalog(range(3))
        self.history = hist(rec(0), rec(1, day=101))

    def test_all_dropped_is_empty(self):
        ctx = render_actions(self.history, [0, 0, 0, 1], self.catalog)
        assert ctx.tokens == []
        assert ctx.source_template_len == 16

    def test_kept_plain_and_enriched_token_counts(self):
        ctx = render_actions(self.history, [1, 0, 1, 1], self.catalog)
        assert len(ctx.tokens) == 3 + 7
        first = ctx.tokens[:3]
        assert first == [Token("TITLE", 0), Token("TITLE", 0), Token("ENG", "play")]
        enriched_kinds = [t.kind for t in ctx.tokens[3:]]
        assert enriched_kinds == ["TITLE", "TITLE", "ENG", "GENRE", "TAG", "TAG", "TAG"]

    def test_choice_length_enforced(self):
        with pytest.raises(ValueError, match="expected 4 choices"):
            render_actions(self.history, [1, 0], self.catalog)


class TestRewritePolicy:
    def setup_method(self):
        self.catalog = make_catalog(range(6))
        self.policy = RewritePolicy(self.catalog)

    def ctx_for(self, *records):
        return self.policy.make_ctx(hist(*records))

    def test_merge_mask(self):
        ctx = self.ctx_for(rec(0), rec(0, day=101), rec(1, day=102), rec(1, day=103))
        assert ctx.merge_ok.tolist() == [False, True, False, True]

    def test_zero_params_uniform_over_unmasked(self):
        ctx = self.ctx_for(rec(0), rec(1, day=101))
        lp = self.policy.logprobs(np.zeros(43), ctx, [[DROP, KEEP, 0, 0, 0, 0, 0, 0, 0, 0]])[0]
        assert lp[0] == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert lp[1] == pytest.approx(math.log(1 / 3), abs=1e-12)
        # preference heads are fair coins at zero params
        assert np.allclose(lp[2:], math.log(0.5))

    def test_zero_params_quarter_when_merge_legal(self):
        ctx = self.ctx_for(rec(0), rec(0, day=101))
        lp = self.policy.logprobs(np.zeros(43), ctx, [[KEEP, MERGE_PREV] + [0] * 8])[0]
        assert lp[0] == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert lp[1] == pytest.approx(math.log(1 / 4), abs=1e-12)

    def test_trace_shape_and_determinism(self):
        ctx = self.ctx_for(rec(0), rec(0, day=101), rec(2, day=102))
        a = self.policy.sample(np.zeros(43), ctx, draws(self.policy, ctx, derive_rng(5, "r", 0)))
        b = self.policy.sample(np.zeros(43), ctx, draws(self.policy, ctx, derive_rng(5, "r", 0)))
        assert a.choices.shape == (1, 3 + 8)
        assert np.array_equal(a.choices, b.choices)

    def test_sampled_logprobs_match_recompute(self):
        ctx = self.ctx_for(rec(0), rec(0, day=101), rec(3, day=102))
        params = np.array([derive_rng(6, "p", i).normal() * 0.8 for i in range(43)])
        trace = self.policy.sample(params, ctx, draws(self.policy, ctx, derive_rng(6, "r", 1)))
        again = self.policy.logprobs(params, ctx, trace.choices)
        assert np.max(np.abs(again - trace.logprobs)) < 1e-12

    def test_masked_merge_rejected(self):
        ctx = self.ctx_for(rec(0), rec(1, day=101))
        with pytest.raises(ValueError, match="MERGE_PREV at position 1"):
            self.policy.logprobs(np.zeros(43), ctx, [[KEEP, MERGE_PREV] + [0] * 8])

    def test_trace_length_enforced(self):
        ctx = self.ctx_for(rec(0))
        with pytest.raises(ValueError, match="must have 9 decisions"):
            self.policy.logprobs(np.zeros(43), ctx, [[KEEP, 0, 0]])

    def test_hand_softmax_on_two_records(self):
        ctx = self.ctx_for(rec(0, dur=5.0), rec(0, day=101, dur=70.0))
        params = np.array([((i * 37) % 11 - 5) / 7.0 for i in range(43)])
        w_seg = params[:40].reshape(4, 10)
        choices = [KEEP, MERGE_PREV] + [0] * 8
        lp = self.policy.logprobs(params, ctx, [choices])[0]
        feats = ctx.feats
        # record 0: merge masked, softmax over first three logits
        z0 = feats[0] @ w_seg.T
        p0 = math.exp(z0[KEEP]) / sum(math.exp(z0[c]) for c in (DROP, KEEP, KEEP_ENRICH))
        # record 1: same item precedes, full 4-way softmax
        z1 = feats[1] @ w_seg.T
        p1 = math.exp(z1[MERGE_PREV]) / sum(math.exp(z) for z in z1)
        assert lp[0] == pytest.approx(math.log(p0), abs=1e-10)
        assert lp[1] == pytest.approx(math.log(p1), abs=1e-10)

    def test_pref_saturation(self):
        ctx = self.ctx_for(rec(0), rec(1, day=101))
        off = np.zeros(43)
        off[40] = -20.0  # preference bias
        trace = self.policy.sample(off, ctx, draws(self.policy, ctx, derive_rng(7, "r", 0)))
        assert trace.choices[0, 2:].tolist() == [0] * 8
        on = np.zeros(43)
        on[40] = 20.0
        trace = self.policy.sample(on, ctx, draws(self.policy, ctx, derive_rng(7, "r", 1)))
        assert trace.choices[0, 2:].tolist() == [1] * 8

    def test_greedy_at_zero_params_drops_everything(self):
        ctx = self.ctx_for(rec(0), rec(1, day=101))
        assert self.policy.greedy(np.zeros(43), ctx) == [DROP, DROP] + [0] * 8

    def test_path_probabilities_sum_to_one(self):
        ctx = self.ctx_for(rec(0), rec(0, day=101))
        params = np.array([derive_rng(8, "p", i).normal() * 0.5 for i in range(43)])
        legal = [(DROP, KEEP, KEEP_ENRICH), (DROP, KEEP, KEEP_ENRICH, MERGE_PREV)]
        paths = [list(seg) + list(prefs) for seg in itertools.product(*legal)
                 for prefs in itertools.product([0, 1], repeat=8)]
        total = float(np.sum(np.exp(self.policy.logprobs(params, ctx, paths).sum(axis=1))))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestRewriteRender:
    def setup_method(self):
        self.catalog = make_catalog(range(4))

    def test_merge_fold_emits_count(self):
        h = hist(rec(2), rec(2, day=101), rec(2, day=102))
        ctx = render_rewrite(h, [KEEP, MERGE_PREV, MERGE_PREV] + [0] * 8, self.catalog)
        assert ctx.tokens == [
            Token("TITLE", 2),
            Token("TITLE", 2),
            Token("ENG", "play"),
            Token("COUNT", 3),
        ]

    def test_merged_enriched_base_keeps_enrichment(self):
        h = hist(rec(1), rec(1, day=101))
        ctx = render_rewrite(h, [KEEP_ENRICH, MERGE_PREV] + [0] * 8, self.catalog)
        kinds = [t.kind for t in ctx.tokens]
        assert kinds == ["TITLE", "TITLE", "ENG", "COUNT", "GENRE", "TAG", "TAG", "TAG"]
        assert Token("COUNT", 2) in ctx.tokens

    def test_merge_after_dropped_base_starts_fresh_segment(self):
        h = hist(rec(3), rec(3, day=101))
        ctx = render_rewrite(h, [DROP, MERGE_PREV] + [0] * 8, self.catalog)
        assert ctx.tokens == [Token("TITLE", 3), Token("TITLE", 3), Token("ENG", "play")]

    def test_all_drop_one_pref(self):
        h = hist(rec(0), rec(1, day=101))
        prefs = [0] * 8
        prefs[3] = 1
        ctx = render_rewrite(h, [DROP, DROP] + prefs, self.catalog)
        assert ctx.tokens == [Token("PREF", GENRES[3])]

    def test_single_keep_has_no_count(self):
        h = hist(rec(0))
        ctx = render_rewrite(h, [KEEP] + [0] * 8, self.catalog)
        assert all(t.kind != "COUNT" for t in ctx.tokens)

    def test_illegal_merge_raises(self):
        h = hist(rec(0), rec(1, day=101))
        with pytest.raises(ValueError, match="without a same-item predecessor"):
            render_rewrite(h, [KEEP, MERGE_PREV] + [0] * 8, self.catalog)

    def test_unknown_choice_raises(self):
        h = hist(rec(0))
        with pytest.raises(ValueError, match="unknown segment choice"):
            render_rewrite(h, [9] + [0] * 8, self.catalog)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="expected 9 choices"):
            render_rewrite(hist(rec(0)), [KEEP], self.catalog)

    def test_token_budget_invariant(self):
        # any trace stays within template length + one PREF per genre
        policy = RewritePolicy(self.catalog)
        for i in range(25):
            records = [rec(j % 4, day=100 + j) for j in range((i % 6) + 1)]
            h = hist(*records)
            ctx = policy.make_ctx(h)
            trace = policy.sample(
                np.array([derive_rng(13, "p", i * 43 + k).normal() for k in range(43)]),
                ctx,
                draws(policy, ctx, derive_rng(13, "r", i)),
            )
            rendered = policy.render(ctx, trace.choices[0].tolist())
            assert len(rendered.tokens) <= rendered.source_template_len + 8


class TestFrozenVerbalize:
    def setup_method(self):
        self.catalog = make_catalog(range(4))
        self.history = hist(rec(0, dur=5.0), rec(1, day=101, dur=45.0))

    def test_template_and_zero_shot_dispatch(self):
        t = frozen_verbalize("template", None, self.history, self.catalog)
        assert t.tokens == render_template(self.history, self.catalog).tokens
        z = frozen_verbalize("zero_shot", None, self.history, self.catalog)
        assert z.tokens == heuristic_verbalize(self.history, self.catalog).tokens

    def test_learned_kinds_decode_greedily(self):
        params = ActionPolicyParams(np.zeros(10), np.zeros(10))
        params.keep_weights[0] = 5.0  # keep everything
        ctx = frozen_verbalize("action", params, self.history, self.catalog)
        assert len(ctx.tokens) == 6  # two plain kept records

        rparams = RewritePolicyParams.zeros()
        rparams.segment_weights[KEEP_ENRICH, 0] = 5.0
        ctx = frozen_verbalize("rewrite", rparams, self.history, self.catalog)
        assert len(ctx.tokens) == 14

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown verbalizer kind"):
            frozen_verbalize("llm", None, self.history, self.catalog)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _floats_of_shape(shape):
    inner = st.lists(st.floats(), min_size=shape[-1], max_size=shape[-1])
    return inner if len(shape) == 1 else st.lists(inner, min_size=shape[0], max_size=shape[0])


# Any JSON, or the payload of a valid params file with any part swapped for
# junk, so that some payloads pass every check and load.
_PARAMS_PAYLOADS = _JSON | st.sampled_from(
    [("action", ActionPolicyParams), ("rewrite", RewritePolicyParams), ("reasoner", ReasonerParams)]
).flatmap(lambda kind_type: st.fixed_dictionaries({
    "format_version": st.just(1) | _JSON,
    "kind": st.just(kind_type[0]) | _JSON,
    "arrays": _JSON | st.fixed_dictionaries(
        {name: _floats_of_shape(shape) | _JSON for name, shape in kind_type[1].ARRAYS}
    ),
}))


class TestParamsIO:
    @given(payload=_PARAMS_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_any_json_payload_gives_params_or_a_named_error(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "fuzzed_params.json"
        path.write_text(json.dumps(payload))
        for load in (lambda p: load_policy_params(p)[1], load_reasoner_params):
            try:
                params = load(path)
            except ValueError as e:
                assert str(path) in str(e)
            else:
                assert all(getattr(params, name).shape == shape for name, shape in type(params).ARRAYS)

    def test_action_round_trip(self, tmp_path):
        params = ActionPolicyParams(np.arange(10.0), -np.arange(10.0))
        path = tmp_path / "a.json"
        save_policy_params(path, "action", params)
        kind, back = load_policy_params(path)
        assert kind == "action"
        assert np.array_equal(back.keep_weights, params.keep_weights)
        assert np.array_equal(back.enrich_weights, params.enrich_weights)

    def test_rewrite_round_trip(self, tmp_path):
        params = RewritePolicyParams(np.arange(40.0).reshape(4, 10) / 7.0, np.array([0.1, -0.2, 0.3]))
        path = tmp_path / "r.json"
        save_policy_params(path, "rewrite", params)
        kind, back = load_policy_params(path)
        assert kind == "rewrite"
        assert np.array_equal(back.segment_weights, params.segment_weights)
        assert np.array_equal(back.pref_weights, params.pref_weights)

    def test_version_check(self, tmp_path):
        path = tmp_path / "a.json"
        save_policy_params(path, "action", ActionPolicyParams.zeros())
        import json

        payload = json.load(open(path))
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            load_policy_params(path)

    def test_unknown_kind_rejected_on_save_and_load(self, tmp_path):
        with pytest.raises(ValueError, match="unknown policy kind"):
            save_policy_params(tmp_path / "x.json", "rewrote", RewritePolicyParams.zeros())
        path = tmp_path / "a.json"
        save_policy_params(path, "action", ActionPolicyParams.zeros())
        import json

        payload = json.load(open(path))
        payload["kind"] = "mystery"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown policy kind"):
            load_policy_params(path)

    def test_shape_check(self, tmp_path):
        import json

        path = tmp_path / "a.json"
        save_policy_params(path, "action", ActionPolicyParams.zeros())
        payload = json.load(open(path))
        payload["arrays"]["keep_weights"] = [1.0, 2.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="wrong shape"):
            load_policy_params(path)
