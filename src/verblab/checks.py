"""Self-test suites behind the ``check`` subcommand.

Each suite exercises one family of invariants end to end -- analytic
gradients against finite differences, the GRPO kernel identities, reward
shaping arithmetic, oracle argmax equivalence, and small-scale determinism.
Suites return a pass/fail result with a one-line detail, so the CLI can
report them without a test framework (and the test suite can assert on the
same results).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .domain import EpisodeInstance, InteractionRecord, Token, UserHistory, VerbalizedContext
from .grpo import (
    GrpoConfig,
    clipped_term,
    finite_diff_check,
    grpo_gradient,
    grpo_objective,
    group_advantages,
    kl_k3,
    sample_groups,
    stage1_make_ctx,
    train_stage1,
)
from .oracle import (
    OracleWeights,
    RewardConfig,
    length_reward,
    oracle_predict,
    oracle_scores,
    stage1_reward,
)
from .reasoner import ReasonerPolicy, stage2_make_ctx
from .rng import derive_rng
from .synthworld import WorldConfig, gen_catalog, gen_dataset, gen_split
from .verbalizer import POLICIES

ZERO_WEIGHT_KINDS = ("DATE", "DOW", "HOUR", "ID", "YEAR", "ENG", "DUR", "COUNT")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _tiny_world(master_seed: int, t_min: int = 2, t_max: int = 3) -> WorldConfig:
    return WorldConfig(
        n_items=24,
        n_train_episodes=8,
        n_eval_episodes=4,
        t_min=t_min,
        t_max=t_max,
        master_seed=master_seed,
    )


def _normals(seed: int, purpose: str, n: int, scale: float) -> np.ndarray:
    rng = derive_rng(seed, purpose, 0)
    return scale * np.array([rng.normal() for _ in range(n)])


def _make_policy(kind: str, catalog):
    return POLICIES[kind](catalog) if kind in POLICIES else ReasonerPolicy()


def _sample_groups(kind: str, episodes, catalog, old_params, g: int, eps_adv: float, seed: int):
    """Rollout groups for any of the three policies under ``old_params``.

    The two verbalizer policies are rewarded by the Stage-1 oracle blend;
    the reasoner sees +/-1 on template contexts, exactly as in training.
    """
    policy = _make_policy(kind, catalog)
    if kind == "reasoner":
        make_ctx = stage2_make_ctx(catalog, "template", None)
    else:
        make_ctx = stage1_make_ctx(policy, catalog, RewardConfig())
    batch = [make_ctx(ep) for ep in episodes]
    return policy, sample_groups(policy, old_params, batch, seed, f"check_rollout_{kind}", 0, g, eps_adv)


# ---------------------------------------------------------------------------
# suite 1: analytic gradients vs central finite differences


def check_gradients(instances_per_policy: int = 20, h: float = 1e-5, threshold: float = 1e-4) -> SuiteResult:
    cfg = GrpoConfig()
    worst = 0.0
    for kind in ("action", "rewrite", "reasoner"):
        for inst in range(instances_per_policy):
            seed = 9000 + inst
            world = _tiny_world(seed)
            catalog = gen_catalog(world, derive_rng(seed, "catalog", 0))
            episodes = gen_split(catalog, world, "train", 2, 0)
            n = _make_policy(kind, catalog).n_params
            old = _normals(seed, f"check_old_{kind}", n, 0.5)
            policy, groups = _sample_groups(kind, episodes, catalog, old, g=2, eps_adv=cfg.eps_adv, seed=seed)
            # evaluate away from the sampling point so clipping and the KL
            # term both contribute, against a third reference point
            cur = old + _normals(seed, f"check_cur_{kind}", n, 0.3)
            ref = old + _normals(seed, f"check_ref_{kind}", n, 0.3)
            analytic = grpo_gradient(policy, cur, groups, ref, cfg)
            err = finite_diff_check(
                lambda p: grpo_objective(policy, p, groups, ref, cfg), analytic, cur, h=h
            )
            worst = max(worst, err)
    return SuiteResult(
        "gradient_finite_diff",
        worst < threshold,
        f"max rel err {worst:.3e} over {3 * instances_per_policy} instances (threshold {threshold:g})",
    )


# ---------------------------------------------------------------------------
# suite 2: GRPO kernel identities


def _reinforce_oracle(policy, groups, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Score-function gradient estimate on fixed rollouts, by numeric
    differentiation of sum advantage * mean-token logprob.  Shares no code
    with grad_accum, so it is an independent witness for the update direction."""

    def objective(p: np.ndarray) -> float:
        total = 0.0
        for group in groups:
            for m, lp in zip(group.members, policy.logprobs(p, group.ctx, group.choices)):
                total += m.advantage * float(lp.sum()) / (len(lp) * len(group.members) * len(groups))
        return total

    grad = np.zeros(len(params))
    for k in range(len(params)):
        bump = np.zeros_like(params)
        bump[k] = h
        grad[k] = (objective(params + bump) - objective(params - bump)) / (2.0 * h)
    return grad


def check_kernels(cosine_threshold: float = 0.999) -> SuiteResult:
    failures: list[str] = []

    # advantage identities: integer rewards and power-of-two scales make the
    # invariances exact in floating point, not just approximate
    base = [0.0, 1.0, 3.0, 1.0, 0.0, 2.0, 5.0, 1.0]
    for eps in (0.0, 1e-4, 0.5):
        a = group_advantages(base, eps)
        for shift in (1.0, -3.0, 64.0):
            if not np.array_equal(group_advantages([r + shift for r in base], eps), a):
                failures.append(f"shift invariance broke at shift {shift}, eps_adv {eps}")
    a0 = group_advantages(base, 0.0)
    for scale in (2.0, 4.0, 0.25):
        if not np.array_equal(group_advantages([r * scale for r in base], 0.0), a0):
            failures.append(f"scale invariance broke at scale {scale}, eps_adv 0")
    if not np.array_equal(group_advantages([1.5] * 8, 1e-4), np.zeros(8)):
        failures.append("zero-variance group did not map to zero advantages")
    if abs(float(a0.mean())) > 1e-12:
        failures.append("advantages are not centered")

    # k3 estimator: non-negative, zero exactly on agreement
    grid = [-3.0, -1.0, -0.25, 0.0, 0.5, 2.0]
    for lc in grid:
        for lr_ in grid:
            v = kl_k3(lc, lr_)
            if v < 0:
                failures.append(f"kl_k3({lc}, {lr_}) = {v} < 0")
            if lc == lr_ and v != 0.0:
                failures.append(f"kl_k3({lc}, {lc}) = {v} != 0")
            if lc != lr_ and v <= 0.0:
                failures.append(f"kl_k3({lc}, {lr_}) = {v} not strictly positive")

    # clip structure: never above rho*adv, equal inside the band
    for eps in (0.1, 0.2, 0.5):
        for rho in np.linspace(0.0, 2.5, 26):
            for adv in (-2.0, -0.5, 0.0, 1.0, 2.0):
                v = clipped_term(float(rho), adv, eps)
                if v > rho * adv + 1e-15:
                    failures.append(f"clipped_term({rho:.2f}, {adv}, {eps}) above rho*adv")
                if 1.0 - eps <= rho <= 1.0 + eps and v != rho * adv:
                    failures.append(f"clipped_term({rho:.2f}, {adv}, {eps}) != rho*adv inside band")

    # one-epoch update direction == REINFORCE-with-advantage direction
    cfg = GrpoConfig(beta_kl=0.0)
    worst_cos = 1.0
    for kind in ("action", "rewrite", "reasoner"):
        seed = 17000 + len(kind)
        world = _tiny_world(seed, t_min=3, t_max=4)
        catalog = gen_catalog(world, derive_rng(seed, "catalog", 0))
        episodes = gen_split(catalog, world, "train", 4, 0)
        n = _make_policy(kind, catalog).n_params
        # the reasoner's +/-1 rewards can tie within a group, or the chosen
        # candidates can share a feature row, making the true gradient zero;
        # scan rollout substreams deterministically for a witness with signal
        policy = groups = old = analytic = None
        for attempt in range(seed, seed + 50):
            old = _normals(attempt, f"check_reinforce_{kind}", n, 0.4)
            policy, groups = _sample_groups(kind, episodes, catalog, old, g=4, eps_adv=cfg.eps_adv, seed=attempt)
            analytic = grpo_gradient(policy, old, groups, old.copy(), cfg)
            if float(np.linalg.norm(analytic)) > 1e-9:
                break
        oracle = _reinforce_oracle(policy, groups, old)
        na, no = float(np.linalg.norm(analytic)), float(np.linalg.norm(oracle))
        if na <= 1e-9 or no <= 1e-9:
            failures.append(f"degenerate zero gradient in REINFORCE comparison ({kind})")
            continue
        cos = float(analytic @ oracle) / (na * no)
        worst_cos = min(worst_cos, cos)
        if cos <= cosine_threshold:
            failures.append(f"REINFORCE cosine {cos:.6f} <= {cosine_threshold} for {kind}")

    detail = f"advantage/k3/clip identities exact; REINFORCE cosine >= {worst_cos:.6f}"
    if failures:
        detail = "; ".join(failures[:4])
    return SuiteResult("kernel_invariants", not failures, detail)


# ---------------------------------------------------------------------------
# suite 3: reward shaping


def _episode_for_reward() -> EpisodeInstance:
    history = UserHistory(
        user_id=0,
        records=(InteractionRecord(day=20000, hour=12, item_id=0, engagement="play", duration_min=30.0),),
    )
    return EpisodeInstance(
        history=history, candidates=tuple(range(10)), target_index=0, is_discovery=False
    )


def check_reward_shaping() -> SuiteResult:
    failures: list[str] = []
    # plateau is exactly 1, tails exactly 0
    for r in np.linspace(0.3, 0.7, 21):
        if length_reward(float(r)) != 1.0:
            failures.append(f"length_reward({r}) != 1 on the plateau")
    for r in (0.0, 0.05, 1.2, 2.0):
        if length_reward(r) != 0.0:
            failures.append(f"length_reward({r}) != 0 outside the support")
    # ramps are monotone and continuous at the knots
    up = [length_reward(float(r)) for r in np.linspace(0.05, 0.3, 40)]
    down = [length_reward(float(r)) for r in np.linspace(0.7, 1.2, 40)]
    if any(b < a for a, b in zip(up, up[1:])):
        failures.append("rising ramp is not monotone")
    if any(b > a for a, b in zip(down, down[1:])):
        failures.append("falling ramp is not monotone")
    for knot in (0.05, 0.3, 0.7, 1.2):
        lo, hi = length_reward(knot - 1e-9), length_reward(knot + 1e-9)
        if abs(lo - length_reward(knot)) > 1e-6 or abs(hi - length_reward(knot)) > 1e-6:
            failures.append(f"discontinuity at knot {knot}")

    # blend identity, exact, across 100 (r_acc, ratio) pairs realized by
    # real contexts: the title token controls the hit, zero-weight YEAR
    # padding controls the length
    world = _tiny_world(31)
    catalog = gen_catalog(world, derive_rng(31, "catalog", 0))
    episode = _episode_for_reward()
    reward = RewardConfig()
    denom = 200
    checked = 0
    for want_hit in (True, False):
        for k in range(50):
            n_tokens = 4 * k + 2
            lead = Token("TITLE", 0) if want_hit else Token("TITLE", 1)
            ctx = VerbalizedContext([lead] + [Token("YEAR", 2001)] * (n_tokens - 1), denom)
            bd = stage1_reward(ctx, episode, catalog, reward.alpha, reward.weights, reward.shape)
            expect_acc = 1.0 if want_hit else 0.0
            expect_len = length_reward(ctx.compression_ratio, reward.shape)
            if bd.r_acc != expect_acc:
                failures.append(f"r_acc {bd.r_acc} != {expect_acc} at ratio {ctx.compression_ratio}")
            if bd.r_len != expect_len:
                failures.append(f"r_len mismatch at ratio {ctx.compression_ratio}")
            if bd.r_total != reward.alpha * bd.r_acc + (1.0 - reward.alpha) * bd.r_len:
                failures.append(f"blend not exact at ratio {ctx.compression_ratio}")
            checked += 1

    detail = f"plateau/ramps verified; blend exact on {checked} (r_acc, ratio) pairs"
    if failures:
        detail = "; ".join(failures[:4])
    return SuiteResult("reward_shaping", not failures, detail)


# ---------------------------------------------------------------------------
# suite 4: oracle equivalence


def check_oracle(n_vectors: int = 10_000, n_contexts: int = 1_000) -> SuiteResult:
    failures = 0
    world = _tiny_world(47)
    catalog = gen_catalog(world, derive_rng(47, "catalog", 0))
    candidates = tuple(range(10))
    weights = OracleWeights()

    # argmax vs exhaustive max-search on integer score vectors realized by
    # repeated title tokens (scores == counts exactly at w_title = 1)
    rng = derive_rng(47, "check_scorevec", 0)
    for _ in range(n_vectors):
        counts = [rng.below(6) for _ in candidates]
        tokens = [Token("TITLE", c) for c, k in zip(candidates, counts) for _ in range(k)]
        rng.shuffle(tokens)
        ctx = VerbalizedContext(tokens, 80)
        got = oracle_predict(ctx, candidates, catalog, weights)
        want = max(range(len(counts)), key=lambda i: (counts[i], -i))
        scores = oracle_scores(ctx, candidates, catalog, weights)
        if got != want or scores != [float(k) for k in counts]:
            failures += 1

    # inserting tokens of zero-weight kinds never moves the prediction
    rng2 = derive_rng(47, "check_zeroweight", 0)
    genres = sorted({catalog.meta(i).genre for i in candidates})
    tags = sorted({t for i in candidates for t in catalog.meta(i).tags})
    for _ in range(n_contexts):
        tokens = []
        for _ in range(rng2.randint(1, 12)):
            pick = rng2.below(4)
            if pick == 0:
                tokens.append(Token("TITLE", rng2.below(world.n_items)))
            elif pick == 1:
                tokens.append(Token("GENRE", rng2.choice(genres)))
            elif pick == 2:
                tokens.append(Token("TAG", rng2.choice(tags)))
            else:
                tokens.append(Token("PREF", rng2.choice(genres)))
        before = oracle_predict(VerbalizedContext(list(tokens), 80), candidates, catalog, weights)
        padded = list(tokens)
        for _ in range(rng2.randint(1, 5)):
            kind = rng2.choice(ZERO_WEIGHT_KINDS)
            payload = {"DATE": 20250608, "DOW": "mon", "HOUR": 14, "ID": 3,
                       "YEAR": 2009, "ENG": "play", "DUR": "long", "COUNT": 4}[kind]
            padded.insert(rng2.below(len(padded) + 1), Token(kind, payload))
        after = oracle_predict(VerbalizedContext(padded, 80), candidates, catalog, weights)
        if before != after:
            failures += 1

    return SuiteResult(
        "oracle_equivalence",
        failures == 0,
        f"{n_vectors} score vectors + {n_contexts} zero-weight insertions, {failures} mismatches",
    )


# ---------------------------------------------------------------------------
# suite 5: small-scale determinism


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_determinism() -> SuiteResult:
    world = _tiny_world(5, t_min=3, t_max=6)
    cfg = GrpoConfig(iterations=3, batch_episodes=4)
    with tempfile.TemporaryDirectory() as tmp:
        a = gen_dataset(world, os.path.join(tmp, "a"))
        b = gen_dataset(world, os.path.join(tmp, "b"))
        mismatched = [name for name in a if _digest(a[name]) != _digest(b[name])]

    catalog = gen_catalog(world, derive_rng(world.master_seed, "catalog", 0))
    episodes = gen_split(catalog, world, "train", 4, 0)
    p1, _ = train_stage1(episodes, "rewrite", catalog, cfg, RewardConfig(), world.master_seed)
    p2, _ = train_stage1(episodes, "rewrite", catalog, cfg, RewardConfig(), world.master_seed)
    if not np.array_equal(p1.to_vector(), p2.to_vector()):
        mismatched.append("stage1 retrain params")

    return SuiteResult(
        "determinism_small",
        not mismatched,
        "dataset digests and retrained params identical" if not mismatched
        else f"mismatches: {mismatched}",
    )


CHECK_SUITES = (
    check_gradients,
    check_kernels,
    check_reward_shaping,
    check_oracle,
    check_determinism,
)


def run_all_checks() -> list[SuiteResult]:
    return [suite() for suite in CHECK_SUITES]
