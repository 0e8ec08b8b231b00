"""Training's group paths against the per-trace computations they replace.

Training samples, scores and differentiates a whole rollout group as arrays,
and scores Stage-1 traces from integer match counts instead of rendered
tokens.  These tests hold each group path to its reference: log-probs,
gradients and samples bit for bit against stacked groups of one, and
rewards field for field against ``stage1_reward`` of the rendered context.
"""

import numpy as np
import pytest

from verblab.domain import GENRES, EpisodeInstance, InteractionRecord, UserHistory
from verblab.grpo import stage1_make_ctx
from verblab.oracle import EpisodeMatches, OracleWeights, RewardConfig, count_scores, oracle_scores, stage1_reward
from verblab.reasoner import ReasonerPolicy
from verblab.rng import derive_rng, substream_randoms
from verblab.synthworld import WorldConfig, gen_catalog, gen_split
from verblab.verbalizer import DROP, KEEP, KEEP_ENRICH, MERGE_PREV, ActionPolicy, RewritePolicy

SEED = 77
ODD_WEIGHTS = OracleWeights(w_title=0.7, w_genre=1.1, w_tag=0.3, w_pref=2.9)
REWARDS = {
    "accuracy": RewardConfig(),
    "ranking": RewardConfig(kind="ranking"),
    "accuracy_odd_weights": RewardConfig(alpha=0.85, weights=ODD_WEIGHTS),
    "ranking_odd_weights": RewardConfig(alpha=0.6, weights=ODD_WEIGHTS, kind="ranking"),
}


@pytest.fixture(scope="module")
def world():
    cfg = WorldConfig(n_items=40, n_train_episodes=10, n_eval_episodes=4, t_min=3, t_max=30, master_seed=SEED)
    catalog = gen_catalog(cfg, derive_rng(SEED, "catalog", 0))
    return catalog, gen_split(catalog, cfg, "train", cfg.n_train_episodes, 0)


def normals(purpose: str, n: int, scale: float) -> np.ndarray:
    rng = derive_rng(SEED, purpose, 0)
    return scale * np.array([rng.normal() for _ in range(n)])


def sampled(policy, ctx, purpose: str, g: int = 8, scale: float = 1.5):
    """Params and a group of g traces sampled under them."""
    params = normals(f"{purpose}_params", policy.n_params, scale)
    trace = policy.sample(params, ctx, substream_randoms(SEED, purpose, 0, g, policy.n_draws(ctx)))
    return params, trace


def repeats_episode(episode: EpisodeInstance) -> EpisodeInstance:
    """The episode's candidates behind a history of runs of repeated items,
    two of them candidates, so merges, titles and tags all score."""
    a, b = episode.candidates[1], episode.candidates[episode.target_index]
    c = next(r.item_id for r in episode.history.records if r.item_id not in (a, b))
    items = [a, a, a, b, b, c, c, c, c]
    records = tuple(
        InteractionRecord(day=100 + t, hour=20, item_id=item, engagement="play", duration_min=30.0)
        for t, item in enumerate(items)
    )
    return EpisodeInstance(UserHistory(user_id=0, records=records), episode.candidates, episode.target_index,
                           episode.is_discovery)


# rewrite traces over the 9-record repeats history
NO_PREFS, ALL_PREFS = [0] * len(GENRES), [1] * len(GENRES)
REWRITE_CASES = {
    "merge_after_drop": [DROP, MERGE_PREV, MERGE_PREV, KEEP, MERGE_PREV, DROP, MERGE_PREV, DROP, MERGE_PREV] + NO_PREFS,
    "merge_runs": [KEEP_ENRICH, MERGE_PREV, MERGE_PREV, KEEP, MERGE_PREV, KEEP_ENRICH] + [MERGE_PREV] * 3 + NO_PREFS,
    "enriched_run_after_drop": [DROP, MERGE_PREV, KEEP_ENRICH, DROP, MERGE_PREV, KEEP_ENRICH, DROP, DROP,
                                MERGE_PREV] + [0, 1] * 4,
    "all_drop": [DROP] * 9 + NO_PREFS,
    "all_drop_all_pref": [DROP] * 9 + ALL_PREFS,
    "all_pref": [KEEP] * 9 + ALL_PREFS,
    "all_enriched": [KEEP_ENRICH] * 9 + [1, 0] * 4,
}
ACTION_CASES = {
    "all_drop": [0, 0] * 9,
    "enrich_without_keep": [0, 1] * 9,
    "all_keep": [1, 0] * 9,
    "all_enriched": [1, 1] * 9,
}


def rendered_rewards(policy, ctx, episode, catalog, reward, choices):
    return [
        stage1_reward(policy.render(ctx, row), episode, catalog, reward.alpha, reward.weights, reward.shape,
                      reward.kind)
        for row in choices.tolist()
    ]


def check_counts_match_render(policy, catalog, episode, choices):
    ctx = policy.make_ctx(episode.history)
    masks = policy.render_masks(ctx, choices)
    matches = EpisodeMatches(episode, catalog)
    for reward in REWARDS.values():
        scores = count_scores(matches, masks.starts, masks.enriched, masks.prefs, reward.weights)
        rendered = [policy.render(ctx, row) for row in choices.tolist()]
        assert scores.tolist() == [oracle_scores(r, episode.candidates, catalog, reward.weights) for r in rendered]
        assert masks.n_tokens.tolist() == [len(r.tokens) for r in rendered]
        _, score = stage1_make_ctx(policy, catalog, reward)(episode)
        assert score(choices) == rendered_rewards(policy, ctx, episode, catalog, reward, choices)


@pytest.mark.parametrize("cls", [ActionPolicy, RewritePolicy])
def test_count_reward_equals_rendered_reward_on_sampled_traces(world, cls):
    catalog, episodes = world
    policy = cls(catalog)
    for j, episode in enumerate(episodes):
        ctx = policy.make_ctx(episode.history)
        for scale in (0.0, 1.5, 4.0):
            _, trace = sampled(policy, ctx, f"counts_{policy.kind}_{j}_{scale}", g=16, scale=scale)
            check_counts_match_render(policy, catalog, episode, trace.choices)


def test_count_reward_equals_rendered_reward_on_edge_traces(world):
    catalog, episodes = world
    episode = repeats_episode(episodes[0])
    for cls, cases in ((RewritePolicy, REWRITE_CASES), (ActionPolicy, ACTION_CASES)):
        policy = cls(catalog)
        check_counts_match_render(policy, catalog, episode, np.array(list(cases.values())))


def test_edge_traces_render_what_their_names_say(world):
    catalog, episodes = world
    policy = RewritePolicy(catalog)
    ctx = policy.make_ctx(repeats_episode(episodes[0]).history)
    kinds = {name: [t.kind for t in policy.render(ctx, row).tokens] for name, row in REWRITE_CASES.items()}
    # a MERGE_PREV after a DROP opens a plain segment that later merges join
    assert kinds["merge_after_drop"].count("TITLE") == 2 * 4 and kinds["merge_after_drop"].count("COUNT") == 2
    assert kinds["merge_runs"].count("COUNT") == 3
    assert kinds["all_drop"] == []
    assert kinds["all_drop_all_pref"] == ["PREF"] * len(GENRES)
    assert kinds["all_pref"].count("PREF") == len(GENRES)


def verbalizer_groups(world):
    catalog, episodes = world
    for cls in (ActionPolicy, RewritePolicy):
        policy = cls(catalog)
        for j, episode in enumerate(episodes[:6]):
            yield policy, policy.make_ctx(episode.history), f"{policy.kind}_{j}"


def reasoner_groups():
    policy = ReasonerPolicy()
    for j in range(6):
        yield policy, normals(f"feats_{j}", 60, 1.0).reshape(10, 6), f"reasoner_{j}"


def all_groups(world):
    yield from verbalizer_groups(world)
    yield from reasoner_groups()


def test_group_logprobs_and_gradients_equal_stacked_singletons(world):
    for policy, ctx, name in all_groups(world):
        params, trace = sampled(policy, ctx, f"bits_{name}")
        choices = trace.choices
        g, n_dec = choices.shape
        lp = policy.logprobs(params, ctx, choices)
        single = np.concatenate([policy.logprobs(params, ctx, choices[i : i + 1]) for i in range(g)])
        assert lp.shape == (g, n_dec) and lp.tobytes() == single.tobytes(), name
        coeffs = substream_randoms(SEED, f"coeffs_{name}", 0, g, n_dec) - 0.5
        grad = policy.grad_accum(params, ctx, choices, coeffs)
        single = np.concatenate([policy.grad_accum(params, ctx, choices[i : i + 1], coeffs[i : i + 1])
                                 for i in range(g)])
        assert grad.shape == (g, policy.n_params) and grad.tobytes() == single.tobytes(), name


def test_group_samples_equal_stacked_singletons(world):
    for policy, ctx, name in all_groups(world):
        params = normals(f"sample_{name}", policy.n_params, 1.5)
        uniforms = substream_randoms(SEED, f"sample_{name}", 0, 8, policy.n_draws(ctx))
        trace = policy.sample(params, ctx, uniforms)
        singles = [policy.sample(params, ctx, uniforms[i : i + 1]) for i in range(8)]
        assert trace.choices.tobytes() == np.concatenate([t.choices for t in singles]).tobytes(), name
        assert trace.logprobs.tobytes() == np.concatenate([t.logprobs for t in singles]).tobytes(), name
        # the sampler's log-probs are the adapter's log-probs of what it drew
        assert trace.logprobs.tobytes() == policy.logprobs(params, ctx, trace.choices).tobytes(), name
