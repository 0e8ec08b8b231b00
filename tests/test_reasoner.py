"""Candidate features, the softmax reasoner, and the Stage-2 trainer."""

import json

import numpy as np
import pytest

from verblab.domain import (
    GENRES,
    TAG_POOL,
    Catalog,
    EpisodeInstance,
    InteractionRecord,
    ItemMeta,
    Token,
    UserHistory,
    VerbalizedContext,
)
from verblab.grpo import GrpoConfig, finite_diff_check, read_train_log
from verblab.oracle import OracleWeights, token_weight
from verblab.reasoner import (
    N_CANDIDATE_FEATURES,
    ReasonerParams,
    ReasonerPolicy,
    episode_candidate_features,
    load_reasoner_params,
    save_reasoner_params,
    stage2_reward,
    train_stage2,
)
from verblab.rng import derive_rng, substream_randoms
from verblab.verbalizer import POLICIES, frozen_verbalize


def mk_catalog(n=10):
    return Catalog(
        [
            ItemMeta(i, (f"w{i}a", f"w{i}b"), GENRES[i % 8], tuple(sorted(TAG_POOL[i : i + 3])), 2000 + i)
            for i in range(n)
        ]
    )


def mk_episode(hot_item, n_hot, catalog, target=None):
    records = tuple(
        InteractionRecord(day=20 + i, hour=9, item_id=hot_item if i < n_hot else (hot_item + 1) % 10,
                          engagement="play", duration_min=40.0)
        for i in range(n_hot + 1)
    )
    return EpisodeInstance(
        history=UserHistory(user_id=0, records=records),
        candidates=tuple(range(10)),
        target_index=hot_item if target is None else target,
        is_discovery=False,
    )


def features_of(ctx, meta, watched):
    """``meta``'s row of the features of an episode whose only candidate it
    is, with a one-record history that does or does not watch it."""
    item = meta.item_id if watched else meta.item_id + 1
    ep = EpisodeInstance(
        history=UserHistory(0, (InteractionRecord(day=20, hour=9, item_id=item, engagement="play", duration_min=40.0),)),
        candidates=(meta.item_id,),
        target_index=0,
        is_discovery=False,
    )
    return episode_candidate_features(ctx, ep, Catalog([meta]))[0]


class TestCandidateFeatures:
    def test_single_preference_token(self):
        ctx = VerbalizedContext([Token("PREF", "scifi")], source_template_len=8)
        meta = ItemMeta(3, ("x", "y"), "scifi", ("gritty", "noir", "raw"), 2010)
        feats = features_of(ctx, meta, watched=False)
        assert feats.tolist() == [1.0, 0.0, 0.0, 0.0, 0.5, 0.0]

    def test_mixed_context_counts_each_kind(self):
        tokens = [
            Token("TITLE", 7),
            Token("TITLE", 7),
            Token("ENG", "play"),
            Token("GENRE", "comedy"),
            Token("TAG", "gritty"),
            Token("PREF", "comedy"),
        ]
        ctx = VerbalizedContext(tokens, source_template_len=16)
        meta = ItemMeta(7, ("x", "y"), "comedy", ("campy", "gritty", "noir"), 2010)
        feats = features_of(ctx, meta, watched=True)
        assert np.allclose(feats, [1.0, 1 / 7, 1 / 7, 2 / 7, 1 / 7, 1.0], atol=1e-15)

    def test_title_matches_by_item_id_not_words(self):
        ctx = VerbalizedContext([Token("TITLE", 7), Token("TITLE", 8)], source_template_len=8)
        meta = ItemMeta(8, ("w7a", "w7b"), "drama", ("raw", "noir", "epic"), 2010)
        feats = features_of(ctx, meta, watched=False)
        assert feats[3] == pytest.approx(1 / 3)

    def test_empty_context_is_bias_and_flag_only(self):
        ctx = VerbalizedContext([], source_template_len=8)
        meta = ItemMeta(1, ("x", "y"), "drama", ("raw", "noir", "epic"), 2010)
        assert features_of(ctx, meta, watched=True).tolist() == [1, 0, 0, 0, 0, 1]

    def test_normalization_dampens_long_contexts(self):
        short = VerbalizedContext([Token("GENRE", "drama")], source_template_len=8)
        padded = VerbalizedContext(
            [Token("GENRE", "drama")] + [Token("ENG", "play")] * 8, source_template_len=72
        )
        meta = ItemMeta(1, ("x", "y"), "drama", ("raw", "noir", "epic"), 2010)
        assert features_of(short, meta, False)[1] == pytest.approx(1 / 2)
        assert features_of(padded, meta, False)[1] == pytest.approx(1 / 10)

    def test_episode_matrix_shape_and_watched_column(self):
        catalog = mk_catalog()
        ep = mk_episode(hot_item=3, n_hot=2, catalog=catalog)
        ctx = VerbalizedContext([Token("TITLE", 3)], source_template_len=24)
        feats = episode_candidate_features(ctx, ep, catalog)
        assert feats.shape == (10, N_CANDIDATE_FEATURES)
        watched = {r.item_id for r in ep.history.records}
        assert feats[:, 5].tolist() == [1.0 if c in watched else 0.0 for c in ep.candidates]
        assert feats[3, 3] == pytest.approx(1 / 2)

    @pytest.mark.parametrize("kind", ["template", "zero_shot", "action", "rewrite"])
    def test_match_features_are_unit_weight_token_sums(self, small_world, kind):
        # each match column is the brute-force token_weight sum under that
        # kind's unit weight, over (1 + context length), bit for bit (the
        # product with the length need not round back to the integer sum)
        _, catalog, train, _ = small_world
        params = None
        if kind in POLICIES:
            policy = POLICIES[kind](catalog)
            rng = derive_rng(5, f"features_{kind}", 0)
            params = policy.params_type.from_vector(np.array([rng.normal() for _ in range(policy.n_params)]))
        units = {
            1: OracleWeights(w_title=0.0, w_genre=1.0, w_tag=0.0, w_pref=0.0),
            2: OracleWeights(w_title=0.0, w_genre=0.0, w_tag=1.0, w_pref=0.0),
            3: OracleWeights(w_title=1.0, w_genre=0.0, w_tag=0.0, w_pref=0.0),
            4: OracleWeights(w_title=0.0, w_genre=0.0, w_tag=0.0, w_pref=1.0),
        }
        for ep in train:
            ctx = frozen_verbalize(kind, params, ep.history, catalog)
            feats = episode_candidate_features(ctx, ep, catalog)
            norm = 1.0 + len(ctx.tokens)
            for j, cand in enumerate(ep.candidates):
                meta = catalog.meta(cand)
                for col, unit in units.items():
                    brute = sum(token_weight(tok, meta, unit) for tok in ctx.tokens)
                    assert feats[j, col] == brute / norm, (kind, ep.history.user_id, cand, col)


def adapter_probs(params: ReasonerParams, feats: np.ndarray) -> np.ndarray:
    """Softmax over candidates: the adapter's log-probs of every candidate,
    scored as one group."""
    choices = np.arange(len(feats))[:, None]
    return np.exp(ReasonerPolicy().logprobs(params.weights, feats, choices)[:, 0])


class TestReasonerProbs:
    def test_uniform_at_zero_weights(self):
        feats = np.arange(60, dtype=np.float64).reshape(10, 6)
        probs = adapter_probs(ReasonerParams.zeros(), feats)
        assert np.allclose(probs, 0.1, atol=1e-15)

    def test_hand_softmax(self):
        feats = np.zeros((3, 6))
        feats[:, 3] = [1.0, 0.0, 2.0]
        probs = adapter_probs(ReasonerParams(np.array([0, 0, 0, 1.0, 0, 0])), feats)
        e = np.exp([1.0, 0.0, 2.0])
        assert np.allclose(probs, e / e.sum(), atol=1e-15)

    def test_sums_to_one(self):
        rng = derive_rng(3, "probs", 0)
        feats = np.array([[rng.normal() for _ in range(6)] for _ in range(10)])
        w = np.array([rng.normal() for _ in range(6)])
        probs = adapter_probs(ReasonerParams(w), feats)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)

    def test_permutation_equivariance(self):
        rng = derive_rng(4, "perm", 0)
        feats = np.array([[rng.normal() for _ in range(6)] for _ in range(10)])
        w = np.array([rng.normal() for _ in range(6)])
        perm = rng.sample(range(10), 10)
        a = adapter_probs(ReasonerParams(w), feats)[perm]
        b = adapter_probs(ReasonerParams(w), feats[perm])
        assert np.allclose(a, b, atol=1e-12)


class TestStage2Reward:
    def test_hit_and_miss(self):
        assert stage2_reward(4, 4) == 1.0
        assert stage2_reward(3, 4) == -1.0


class TestReasonerPolicy:
    def setup_method(self):
        self.policy = ReasonerPolicy()
        rng = derive_rng(9, "feats", 0)
        self.feats = np.array([[rng.normal() for _ in range(6)] for _ in range(10)])

    def test_surface_constants(self):
        assert self.policy.kind == "reasoner"
        assert self.policy.n_params == 6

    def test_sample_logprob_matches_recompute(self):
        params = np.array([0.3, -0.2, 0.5, 1.0, -0.4, 0.1])
        trace = self.policy.sample(params, self.feats, np.array([derive_rng(9, "s", 1).randoms(1)]))
        assert trace.choices.shape == (1, 1)
        again = self.policy.logprobs(params, self.feats, trace.choices)
        assert np.array_equal(trace.logprobs, again)

    def test_sample_frequencies_follow_probs(self):
        params = np.array([0, 0, 0, 2.0, 0, 0])
        probs = adapter_probs(ReasonerParams(params), self.feats)
        n = 4000
        choices = self.policy.sample(params, self.feats, substream_randoms(9, "freq", 0, n, 1)).choices
        counts = np.bincount(choices[:, 0], minlength=10)
        assert np.max(np.abs(counts / n - probs)) < 0.03

    def test_logprobs_rejects_multi_decision_traces(self):
        with pytest.raises(ValueError, match="exactly one decision"):
            self.policy.logprobs(np.zeros(6), self.feats, [[1, 2]])

    def test_gradient_matches_finite_differences(self):
        params = np.array([0.3, -0.2, 0.5, 1.0, -0.4, 0.1])
        for j in (0, 4, 9):
            grad = self.policy.grad_accum(params, self.feats, [[j]], np.array([[1.0]]))[0]
            err = finite_diff_check(
                lambda p: float(self.policy.logprobs(p, self.feats, [[j]])[0, 0]), grad, params
            )
            assert err < 1e-6

    def test_gradient_scales_with_coefficient(self):
        params = np.zeros(6)
        g1, g3 = self.policy.grad_accum(params, self.feats, [[2], [2]], np.array([[1.0], [-3.0]]))
        assert np.allclose(g3, -3 * g1, atol=1e-14)

    def test_greedy_is_score_argmax_first_on_ties(self):
        params = np.array([0, 0, 0, 1.0, 0, 0])
        feats = np.zeros((4, 6))
        feats[:, 3] = [0.5, 2.0, 2.0, 1.0]
        assert self.policy.greedy(params, feats) == [1]

    def test_params_round_trip_through_vector(self):
        vec = np.array([0.3, -0.2, 0.5, 1.0, -0.4, 0.1])
        params = self.policy.params_type.from_vector(vec)
        assert isinstance(params, ReasonerParams)
        assert np.array_equal(params.to_vector(), vec)
        vec[0] = 99.0
        assert params.weights[0] == 0.3


class TestTrainStage2:
    def setup_method(self):
        self.catalog = mk_catalog()
        self.episodes = [mk_episode(hot_item=h, n_hot=3, catalog=self.catalog) for h in (1, 4, 6, 8)]
        self.cfg = GrpoConfig(g=4, iterations=40, batch_episodes=4, lr=0.1)

    def test_zero_iterations_returns_zero_weights(self):
        cfg = GrpoConfig(g=4, iterations=0)
        params, rows = train_stage2(self.episodes, self.catalog, "template", None, cfg, master_seed=3)
        assert rows == []
        assert np.array_equal(params.weights, np.zeros(6))

    def test_learns_title_match_on_separable_data(self):
        params, rows = train_stage2(
            self.episodes, self.catalog, "template", None, self.cfg, master_seed=3
        )
        assert rows[-1].mean_r_acc > rows[0].mean_r_acc
        assert params.weights[3] > 0.5
        policy = ReasonerPolicy()
        for ep in self.episodes:
            ctx = frozen_verbalize("template", None, ep.history, self.catalog)
            feats = episode_candidate_features(ctx, ep, self.catalog)
            assert policy.greedy(params.weights, feats) == [ep.target_index]

    def test_deterministic(self):
        a, rows_a = train_stage2(self.episodes, self.catalog, "template", None, self.cfg, master_seed=3)
        b, rows_b = train_stage2(self.episodes, self.catalog, "template", None, self.cfg, master_seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert rows_a == rows_b

    def test_log_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        cfg = GrpoConfig(g=2, iterations=3, batch_episodes=2)
        _, rows = train_stage2(
            self.episodes, self.catalog, "template", None, cfg, master_seed=3, log_path=path
        )
        assert read_train_log(path) == rows
        assert [r.iteration for r in rows] == [0, 1, 2]
        assert all(r.mean_r_len == 0.0 for r in rows)

    def test_init_scale_perturbs_start(self):
        cfg = GrpoConfig(g=2, iterations=0)
        params, _ = train_stage2(
            self.episodes, self.catalog, "template", None, cfg, master_seed=3, init_scale=0.2
        )
        assert np.any(params.weights != 0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="no training episodes"):
            train_stage2([], self.catalog, "template", None, GrpoConfig(), master_seed=3)


class TestParamsFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "reasoner.json"
        params = ReasonerParams(np.array([0.25, -1.5, 0.0, 3.0, 1e-9, -0.125]))
        save_reasoner_params(path, params)
        back = load_reasoner_params(path)
        assert np.array_equal(back.weights, params.weights)

    def test_rejects_future_format(self, tmp_path):
        path = tmp_path / "reasoner.json"
        save_reasoner_params(path, ReasonerParams.zeros())
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            load_reasoner_params(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "reasoner.json"
        save_reasoner_params(path, ReasonerParams.zeros())
        payload = json.loads(path.read_text())
        payload["kind"] = "action"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kind"):
            load_reasoner_params(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "reasoner.json"
        save_reasoner_params(path, ReasonerParams.zeros())
        payload = json.loads(path.read_text())
        payload["arrays"]["weights"] = [1.0, 2.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shape"):
            load_reasoner_params(path)
