"""GRPO kernels, optimizer, the shared training loop and its Stage-1 set-up."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verblab.domain import Catalog, EpisodeInstance, InteractionRecord, ItemMeta, UserHistory
from verblab.domain import GENRES, TAG_POOL
from verblab.grpo import (
    AdamState,
    GrpoConfig,
    RolloutGroup,
    RolloutMember,
    TrainLogRow,
    TrainingError,
    adam_step,
    clipped_term,
    finite_diff_check,
    grpo_gradient,
    grpo_objective,
    grpo_update,
    group_advantages,
    kl_k3,
    read_train_log,
    train_stage1,
    write_train_log,
)
from verblab.oracle import RewardBreakdown, RewardConfig
from verblab.reasoner import ReasonerPolicy, episode_candidate_features
from verblab.rng import derive_rng, substream_randoms
from verblab.verbalizer import POLICIES, ActionPolicy, RewritePolicy, frozen_verbalize


class TestAdvantages:
    def test_worked_example(self):
        adv = group_advantages([1, 0, 0, 1], 1e-4)
        expect = 0.5 / (0.5 + 1e-4)
        assert np.allclose(adv, [expect, -expect, -expect, expect], atol=1e-12)

    def test_zero_variance_gives_zeros(self):
        assert np.array_equal(group_advantages([1, 1, 1, 1], 1e-4), np.zeros(4))
        assert np.array_equal(group_advantages([0.7, 0.7], 0.0), np.zeros(2))

    def test_two_point_example_without_stabilizer(self):
        assert np.array_equal(group_advantages([1, 0], 0.0), np.array([1.0, -1.0]))

    def test_sum_is_zero_without_stabilizer(self):
        adv = group_advantages([3, 1, 4, 1, 5], 0.0)
        assert abs(float(adv.sum())) < 1e-9

    @given(
        rewards=st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=8),
        shift=st.integers(min_value=-64, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, rewards, shift):
        a = group_advantages(rewards, 1e-4)
        b = group_advantages([r + shift for r in rewards], 1e-4)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    @given(
        rewards=st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=8),
        scale_pow=st.integers(min_value=-3, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_exact_without_stabilizer(self, rewards, scale_pow):
        c = 2.0**scale_pow
        a = group_advantages(rewards, 0.0)
        b = group_advantages([r * c for r in rewards], 0.0)
        assert np.array_equal(a, b)


class TestClippedTerm:
    def test_worked_examples(self):
        assert clipped_term(1.0, 0.7, 0.2) == 0.7
        assert clipped_term(1.5, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)
        assert clipped_term(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-15)

    @given(
        rho=st.floats(min_value=1e-3, max_value=4.0, allow_nan=False),
        adv=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_exceeds_unclipped(self, rho, adv):
        assert clipped_term(rho, adv, 0.2) <= rho * adv + 1e-15

    def test_identity_inside_band(self):
        for rho in (0.8, 0.95, 1.0, 1.1, 1.2):
            for adv in (-1.5, 0.0, 2.0):
                assert clipped_term(rho, adv, 0.2) == rho * adv


class TestKlK3:
    def test_zero_at_equality(self):
        assert kl_k3(-1.3, -1.3) == 0.0

    def test_worked_values(self):
        assert kl_k3(-math.log(2) - 1.0, -1.0) == pytest.approx(2 - math.log(2) - 1, abs=1e-12)
        assert kl_k3(math.log(2) - 1.0, -1.0) == pytest.approx(0.5 + math.log(2) - 1, abs=1e-12)

    def test_nonnegative_and_zero_only_at_equality(self):
        for d in np.linspace(-3, 3, 61):
            v = kl_k3(-1.0, -1.0 + d)
            if d == 0:
                assert v == 0.0
            else:
                assert v > 0.0


def tiny_catalog():
    return Catalog(
        [
            ItemMeta(i, (f"a{i}", f"b{i}"), GENRES[i % 8], tuple(sorted(TAG_POOL[i : i + 3])), 2001 + i)
            for i in range(10)
        ]
    )


def tiny_episode(catalog, t=2):
    records = tuple(
        InteractionRecord(day=10 + i, hour=6, item_id=i % 3, engagement="play", duration_min=25.0)
        for i in range(t)
    )
    return EpisodeInstance(
        history=UserHistory(user_id=0, records=records),
        candidates=tuple(range(10)),
        target_index=4,
        is_discovery=True,
    )


def build_group(policy, old_vec, episode, g, rewards, seed=0, ctx=None):
    ctx = policy.make_ctx(episode.history) if ctx is None else ctx
    trace = policy.sample(old_vec, ctx, substream_randoms(100 + seed, "grp", 0, g, policy.n_draws(ctx)))
    members = [
        RolloutMember(choices, logprobs, RewardBreakdown(r, 0.0, r, 0.5))
        for choices, logprobs, r in zip(trace.choices, trace.logprobs, rewards)
    ]
    for member, adv in zip(members, group_advantages([m.reward.r_total for m in members], 1e-4)):
        member.advantage = float(adv)
    return RolloutGroup(ctx, members)


class TestObjective:
    def setup_method(self):
        self.catalog = tiny_catalog()
        self.policy = ActionPolicy(self.catalog)
        self.episode = tiny_episode(self.catalog)
        self.cfg = GrpoConfig(g=4, beta_kl=0.02)

    def test_zero_advantages_give_zero_objective(self):
        old = np.zeros(self.policy.n_params)
        group = build_group(self.policy, old, self.episode, 4, [1, 1, 1, 1])
        assert all(m.advantage == 0.0 for m in group.members)
        j = grpo_objective(self.policy, old, [group], old.copy(), self.cfg)
        assert j == 0.0
        g = grpo_gradient(self.policy, old, [group], old.copy(), GrpoConfig(g=4, beta_kl=0.0))
        assert np.array_equal(g, np.zeros_like(old))

    def test_normalized_advantages_average_out_at_identity(self):
        old = np.zeros(self.policy.n_params)
        group = build_group(self.policy, old, self.episode, 4, [1, 0, 0, 1])
        j = grpo_objective(self.policy, old, [group], old.copy(), self.cfg)
        # at rho=1 each member's token-mean equals its advantage; they cancel
        assert abs(j) < 1e-12

    def test_uniform_unit_advantage_gives_one(self):
        old = np.full(self.policy.n_params, 0.3)
        group = build_group(self.policy, old, self.episode, 4, [1, 0, 0, 1])
        for m in group.members:
            m.advantage = 1.0
        cfg = GrpoConfig(g=4, beta_kl=0.0)
        j = grpo_objective(self.policy, old, [group], old.copy(), cfg)
        assert j == pytest.approx(1.0, abs=1e-12)

    def test_kl_gradient_vanishes_at_reference(self):
        old = np.full(self.policy.n_params, -0.2)
        group = build_group(self.policy, old, self.episode, 4, [1, 1, 1, 1])
        cfg = GrpoConfig(g=4, beta_kl=0.5)
        g = grpo_gradient(self.policy, old, [group], old.copy(), cfg)
        assert np.max(np.abs(g)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        for kind_cls, n_params in ((ActionPolicy, 20), (RewritePolicy, 43)):
            policy = kind_cls(self.catalog)
            rng = derive_rng(42, f"fd_{policy.kind}", 0)
            old = np.array([0.4 * rng.normal() for _ in range(n_params)])
            cur = old + np.array([0.15 * rng.normal() for _ in range(n_params)])
            groups = [
                build_group(policy, old, tiny_episode(self.catalog, t), 2, [1, 0], seed=t)
                for t in (1, 2, 3)
            ]
            ref = old.copy()
            cfg = GrpoConfig(g=2, beta_kl=0.02)
            grad = grpo_gradient(policy, cur, groups, ref, cfg)
            err = finite_diff_check(
                lambda p: grpo_objective(policy, p, groups, ref, cfg), grad, cur, h=1e-5
            )
            assert err < 1e-4, f"{policy.kind}: {err}"


def scalar_objective(policy, params, groups, ref_params, cfg):
    """The surrogate from the scalar kernels: per member, the token mean of
    clipped_term - beta * kl_k3; averaged over members, then groups."""
    total = 0.0
    for group in groups:
        cur = policy.logprobs(params, group.ctx, group.choices)
        ref = policy.logprobs(ref_params, group.ctx, group.choices)
        for m, c_row, o_row, r_row in zip(group.members, cur.tolist(), group.old_logprobs.tolist(), ref.tolist()):
            terms = [
                clipped_term(math.exp(c - o), m.advantage, cfg.eps_clip) - cfg.beta_kl * kl_k3(c, r)
                for c, o, r in zip(c_row, o_row, r_row)
            ]
            total += sum(terms) / len(terms) / len(group.members)
    return total / len(groups)


class TestSurrogateAgainstScalarKernels:
    @pytest.mark.parametrize("kind", ["action", "rewrite", "reasoner"])
    def test_objective_is_the_mean_of_the_scalar_terms(self, kind):
        catalog = tiny_catalog()
        episodes = [tiny_episode(catalog, t) for t in (2, 3, 4)]
        if kind == "reasoner":
            policy = ReasonerPolicy()
            ctxs = [
                episode_candidate_features(frozen_verbalize("template", None, ep.history, catalog), ep, catalog)
                for ep in episodes
            ]
        else:
            policy = POLICIES[kind](catalog)
            ctxs = [policy.make_ctx(ep.history) for ep in episodes]
        rng = derive_rng(17, f"surrogate_{kind}", 0)

        def near(vec, scale):
            return vec + np.array([scale * rng.normal() for _ in range(policy.n_params)])

        old = near(np.zeros(policy.n_params), 1.0)
        # away from both the sampling and the reference params, far enough to clip
        cur, ref = near(old, 0.6), near(old, 0.4)
        g = 6
        groups = [
            build_group(policy, old, ep, g, [1.0, 0.0, 0.5, 0.0, 1.0, 0.25], seed=i, ctx=ctx)
            for i, (ep, ctx) in enumerate(zip(episodes, ctxs))
        ]
        cfg = GrpoConfig(g=g, beta_kl=0.3, eps_clip=0.2)
        rho = np.concatenate([
            np.exp(policy.logprobs(cur, gr.ctx, gr.choices) - gr.old_logprobs).ravel() for gr in groups
        ])
        assert np.any(np.abs(rho - 1.0) > cfg.eps_clip), "no token leaves the clip band"
        assert not np.allclose(cur, ref)
        expected = scalar_objective(policy, cur, groups, ref, cfg)
        assert grpo_objective(policy, cur, groups, ref, cfg) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState.new(3)
        params = np.array([1.0, -2.0, 3.0])
        new_params, new_state = adam_step(state, params, np.zeros(3), 0.1)
        assert np.array_equal(new_params, params)
        assert new_state.t == 1

    def test_first_step_moves_along_gradient_sign(self):
        params = np.zeros(3)
        grad = np.array([0.5, -2.0, 0.0])
        new_params, _ = adam_step(AdamState.new(3), params, grad, 0.05)
        assert np.sign(new_params).tolist() == [1.0, -1.0, 0.0]

    def test_deterministic(self):
        grad = np.array([0.5, -2.0, 1.0])
        a = adam_step(AdamState.new(3), np.zeros(3), grad, 0.05)
        b = adam_step(AdamState.new(3), np.zeros(3), grad, 0.05)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1].m, b[1].m)
        assert np.array_equal(a[1].v, b[1].v)


class TestFiniteDiffCheck:
    def test_linear_objective_is_exact(self):
        c = np.array([1.0, -2.0, 0.5])
        p = np.array([0.3, 0.7, -1.1])
        err = finite_diff_check(lambda x: float(c @ x), c, p)
        assert err < 1e-10

    def test_quadratic_objective(self):
        p = np.array([0.5, -1.0, 2.0])
        err = finite_diff_check(lambda x: float(x @ x), 2 * p, p)
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        p = np.array([0.5, -1.0, 2.0])
        err = finite_diff_check(lambda x: float(x @ x), 4 * p, p)
        assert err > 0.5


class TestGrpoConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"g": 1},
            {"eps_adv": -1e-9},
            {"eps_clip": 0.0},
            {"eps_clip": 1.0},
            {"beta_kl": -0.1},
            {"inner_epochs": 0},
            {"lr": 0.0},
            {"iterations": -1},
            {"batch_episodes": 0},
            {"ref_refresh_every": 0},
        ],
    )
    def test_rejects_bad_values(self, bad):
        cfg = GrpoConfig(**bad)
        with pytest.raises(ValueError):
            cfg.validate()


class TestTrainLogIO:
    def test_round_trip_preserves_floats(self, tmp_path):
        rows = [
            TrainLogRow(0, 1 / 3, 0.1 + 0.2, 0.9999999999999999, -1.2345678901234567e-5, 0.0),
            TrainLogRow(1, 0.0, 1.0, 0.5, 2.0, 1e-17),
        ]
        path = tmp_path / "log.csv"
        write_train_log(rows, path)
        back = read_train_log(path)
        assert back == rows

    def test_header_is_stable(self, tmp_path):
        path = tmp_path / "log.csv"
        write_train_log([], path)
        assert path.read_text().splitlines()[0] == "iter,mean_r_acc,mean_r_len,mean_ratio,objective,max_ratio_dev"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected training log header"):
            read_train_log(path)


class TestTrainStage1:
    def setup_method(self):
        self.catalog = tiny_catalog()
        self.episodes = [tiny_episode(self.catalog, t) for t in (2, 3, 2, 4)]
        self.reward = RewardConfig()

    def test_zero_iterations_returns_init(self):
        cfg = GrpoConfig(g=2, iterations=0, batch_episodes=2)
        params, rows = train_stage1(self.episodes, "action", self.catalog, cfg, self.reward, master_seed=5)
        assert rows == []
        assert np.array_equal(params.to_vector(), np.zeros(20))

    def test_single_inner_epoch_has_unit_ratios(self):
        cfg = GrpoConfig(g=2, iterations=3, batch_episodes=2, inner_epochs=1)
        _, rows = train_stage1(self.episodes, "action", self.catalog, cfg, self.reward, master_seed=5)
        assert all(r.max_ratio_dev < 1e-12 for r in rows)

    def test_two_inner_epochs_move_ratios(self):
        cfg = GrpoConfig(g=4, iterations=4, batch_episodes=4, inner_epochs=2)
        _, rows = train_stage1(self.episodes, "rewrite", self.catalog, cfg, self.reward, master_seed=5)
        assert any(r.max_ratio_dev > 1e-9 for r in rows)

    def test_deterministic_across_runs(self):
        cfg = GrpoConfig(g=2, iterations=5, batch_episodes=2)
        a, rows_a = train_stage1(self.episodes, "rewrite", self.catalog, cfg, self.reward, master_seed=7)
        b, rows_b = train_stage1(self.episodes, "rewrite", self.catalog, cfg, self.reward, master_seed=7)
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert rows_a == rows_b

    def test_log_written_and_readable(self, tmp_path):
        cfg = GrpoConfig(g=2, iterations=4, batch_episodes=2)
        path = tmp_path / "log.csv"
        _, rows = train_stage1(
            self.episodes, "action", self.catalog, cfg, self.reward, master_seed=5, log_path=path
        )
        assert read_train_log(path) == rows
        assert [r.iteration for r in rows] == [0, 1, 2, 3]
        assert all(0.0 <= r.mean_r_acc <= 1.0 and 0.0 <= r.mean_r_len <= 1.0 for r in rows)

    def test_init_scale_changes_start(self):
        cfg = GrpoConfig(g=2, iterations=0)
        params, _ = train_stage1(
            self.episodes, "action", self.catalog, cfg, self.reward, master_seed=5, init_scale=0.1
        )
        assert np.any(params.to_vector() != 0.0)

    def test_unknown_policy_kind(self):
        with pytest.raises(ValueError, match="policy kind"):
            train_stage1(self.episodes, "prompt", self.catalog, GrpoConfig(), self.reward, master_seed=1)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="no training episodes"):
            train_stage1([], "action", self.catalog, GrpoConfig(), self.reward, master_seed=1)


class TestGrpoUpdateErrors:
    def test_non_finite_advantage_aborts(self):
        catalog = tiny_catalog()
        policy = ActionPolicy(catalog)
        old = np.zeros(policy.n_params)
        group = build_group(policy, old, tiny_episode(catalog), 2, [1, 0])
        group.members[0].advantage = float("inf")
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match="non-finite"):
            grpo_update(policy, old, AdamState.new(policy.n_params), [group], old.copy(), GrpoConfig(g=2), where="test")
