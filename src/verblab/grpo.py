"""Group-relative policy optimization: kernels and the training loop both stages share.

Per iteration ``train_grpo`` samples a group of G traces per episode under the
snapshotted old policy, normalizes rewards within each group into
advantages, and then ascends a token-level clipped surrogate

    J = mean over episodes of (1/G) sum_i (1/|x_i|) sum_t
        [ min(rho_t * A_i, clip(rho_t, 1-eps, 1+eps) * A_i) - beta * k3_t ]

where rho_t is the current/old likelihood ratio of decision t and k3 is the
non-negative KL estimator u - ln(u) - 1 against a periodically refreshed
reference policy.  Gradients are exact (the policies are linear-logit, so
no autodiff is needed); ``finite_diff_check`` is the guard that keeps them
honest.  Everything here maximizes: the Adam step ascends.  Stage 1
(``train_stage1``, below) trains a verbalizer against the oracle reward;
Stage 2 (``reasoner.train_stage2``) trains the candidate scorer.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .domain import Catalog, EpisodeInstance
from .fsutil import atomic_write_text
from .oracle import EpisodeMatches, RewardBreakdown, RewardConfig, count_scores, scores_reward
from .rng import derive_rng, substream_randoms
from .verbalizer import POLICIES

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Raised when optimization produces a non-finite objective."""


@dataclass
class GrpoConfig:
    g: int = 8
    eps_adv: float = 1e-4
    eps_clip: float = 0.2
    beta_kl: float = 0.02
    inner_epochs: int = 2
    lr: float = 0.05
    iterations: int = 300
    batch_episodes: int = 16
    ref_refresh_every: int = 100

    def validate(self) -> None:
        if self.g < 2:
            raise ValueError(f"group size must be >= 2, got {self.g}")
        if self.eps_adv < 0:
            raise ValueError(f"eps_adv must be >= 0, got {self.eps_adv}")
        if not 0 < self.eps_clip < 1:
            raise ValueError(f"eps_clip must be in (0, 1), got {self.eps_clip}")
        if self.beta_kl < 0:
            raise ValueError(f"beta_kl must be >= 0, got {self.beta_kl}")
        if self.inner_epochs < 1:
            raise ValueError(f"inner_epochs must be >= 1, got {self.inner_epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_episodes < 1:
            raise ValueError(f"batch_episodes must be >= 1, got {self.batch_episodes}")
        if self.ref_refresh_every < 1:
            raise ValueError(f"ref_refresh_every must be >= 1, got {self.ref_refresh_every}")


@dataclass
class RolloutMember:
    choices: np.ndarray  # one entry per decision
    old_logprobs: np.ndarray  # recorded at sampling time, one per decision
    reward: RewardBreakdown
    advantage: float = 0.0


@dataclass
class RolloutGroup:
    ctx: Any  # opaque episode context understood by the policy
    members: list[RolloutMember]
    # the members' choices and old log-probs stacked, one row per member
    choices: np.ndarray = field(init=False, repr=False)
    old_logprobs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.choices = np.array([m.choices for m in self.members])
        self.old_logprobs = np.array([m.old_logprobs for m in self.members])


# ---------------------------------------------------------------------------
# kernels


def group_advantages(rewards, eps_adv: float) -> np.ndarray:
    """(r - mean) / (population std + eps_adv); all zero for a no-signal group."""
    r = np.asarray(rewards, dtype=np.float64)
    std = float(r.std())  # population convention (ddof = 0)
    if std == 0.0:
        return np.zeros_like(r)
    return (r - r.mean()) / (std + eps_adv)


def clipped_term(rho: float, adv: float, eps_clip: float) -> float:
    """min(rho * adv, clip(rho, 1 - eps, 1 + eps) * adv)."""
    return min(rho * adv, min(max(rho, 1.0 - eps_clip), 1.0 + eps_clip) * adv)


def kl_k3(logp_current: float, logp_reference: float) -> float:
    """u - ln(u) - 1 with u = exp(logp_reference - logp_current); >= 0,
    zero exactly when the two log-probs agree."""
    d = logp_reference - logp_current
    return math.exp(d) - d - 1.0


def reference_logprobs(policy, ref_params: np.ndarray, groups) -> list[np.ndarray]:
    """Each group's (G, n_decisions) log-probs under the reference params."""
    return [policy.logprobs(ref_params, group.ctx, group.choices) for group in groups]


def _surrogate_pass(policy, params, groups, refs: list[np.ndarray], cfg: GrpoConfig, want_grad: bool):
    """One evaluation of the batch surrogate, given each group's reference
    log-probs (``reference_logprobs``).

    Each group's terms are computed as (G, n_decisions) arrays, but summed
    into the objective and the gradient member by member, in member order,
    so the result does not depend on how members are batched.  Returns
    (objective, gradient or None, max |rho - 1| over all tokens).
    """
    n_groups = len(groups)
    objective = 0.0
    grad = np.zeros(len(params)) if want_grad else None
    max_dev = 0.0
    for group, ref in zip(groups, refs):
        cur = policy.logprobs(params, group.ctx, group.choices)
        rho = np.exp(cur - group.old_logprobs)
        adv = np.array([m.advantage for m in group.members])[:, None]
        unclipped = rho * adv
        clamped = np.clip(rho, 1.0 - cfg.eps_clip, 1.0 + cfg.eps_clip) * adv
        term = np.minimum(unclipped, clamped)
        d = ref - cur
        u = np.exp(d)
        k3 = u - d - 1.0
        n_members, n_tok = cur.shape
        scale = n_tok * n_members * n_groups
        for member_sum in np.sum(term - cfg.beta_kl * k3, axis=1).tolist():
            objective += member_sum / scale
        for dev in np.max(np.abs(rho - 1.0), axis=1).tolist():
            max_dev = max(max_dev, dev)
        if want_grad:
            # d(term)/d(logp_cur): adv*rho on the unclipped branch (ties
            # included), 0 where the clamped branch is strictly smaller
            # (rho is then outside the clip band, so the clamp is flat).
            ind = unclipped <= clamped
            coeffs = (ind * adv * rho - cfg.beta_kl * (1.0 - u)) / scale
            for partial in policy.grad_accum(params, group.ctx, group.choices, coeffs):
                grad += partial
    return objective, grad, max_dev


def grpo_objective(policy, params: np.ndarray, groups, ref_params: np.ndarray, cfg: GrpoConfig) -> float:
    refs = reference_logprobs(policy, ref_params, groups)
    objective, _, _ = _surrogate_pass(policy, params, groups, refs, cfg, want_grad=False)
    return objective


def grpo_gradient(policy, params: np.ndarray, groups, ref_params: np.ndarray, cfg: GrpoConfig) -> np.ndarray:
    refs = reference_logprobs(policy, ref_params, groups)
    _, grad, _ = _surrogate_pass(policy, params, groups, refs, cfg, want_grad=True)
    return grad


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def new(n: int) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n), 0)


def adam_step(state: AdamState, params: np.ndarray, gradient: np.ndarray, lr: float):
    """One bias-corrected Adam ascent step; returns (new_params, new_state)."""
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * gradient
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * gradient * gradient
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m, v, t)


def finite_diff_check(objective_fn: Callable[[np.ndarray], float], analytic_grad: np.ndarray,
                      params: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between ``analytic_grad`` and central differences
    of ``objective_fn`` at ``params``: |a - n| / max(1e-8, |n|)."""
    worst = 0.0
    for k in range(len(params)):
        bump = np.zeros_like(params)
        bump[k] = h
        numeric = (objective_fn(params + bump) - objective_fn(params - bump)) / (2.0 * h)
        err = abs(analytic_grad[k] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainLogRow:
    iteration: int
    mean_r_acc: float
    mean_r_len: float
    mean_ratio: float
    objective: float
    max_ratio_dev: float


LOG_COLUMNS = ("iter", "mean_r_acc", "mean_r_len", "mean_ratio", "objective", "max_ratio_dev")


def write_train_log(rows: list[TrainLogRow], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(LOG_COLUMNS)
    for r in rows:
        writer.writerow([r.iteration, repr(r.mean_r_acc), repr(r.mean_r_len),
                         repr(r.mean_ratio), repr(r.objective), repr(r.max_ratio_dev)])
    atomic_write_text(path, buf.getvalue())


def read_train_log(path) -> list[TrainLogRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != LOG_COLUMNS:
            raise ValueError(f"{path}: unexpected training log header {reader.fieldnames}")
        for rec in reader:
            rows.append(
                TrainLogRow(
                    iteration=int(rec["iter"]),
                    mean_r_acc=float(rec["mean_r_acc"]),
                    mean_r_len=float(rec["mean_r_len"]),
                    mean_ratio=float(rec["mean_ratio"]),
                    objective=float(rec["objective"]),
                    max_ratio_dev=float(rec["max_ratio_dev"]),
                )
            )
    return rows


def grpo_update(policy, params, adam: AdamState, groups, ref_params: np.ndarray, cfg: GrpoConfig,
                where: str = "training"):
    """Run the inner epochs over one batch of groups.

    Returns (params, adam, objective of the last epoch, max |rho - 1|).
    """
    objective = 0.0
    max_dev = 0.0
    refs = reference_logprobs(policy, ref_params, groups)  # fixed across the inner epochs
    for epoch in range(cfg.inner_epochs):
        objective, grad, dev = _surrogate_pass(policy, params, groups, refs, cfg, want_grad=True)
        if not math.isfinite(objective) or not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite objective/gradient at {where}, inner epoch {epoch + 1}")
        params, adam = adam_step(adam, params, grad, cfg.lr)
        max_dev = max(max_dev, dev)
    return params, adam, objective, max_dev


def sample_groups(policy, params: np.ndarray, batch, seed: int, stream: str, first: int, g: int,
                  eps_adv: float) -> list[RolloutGroup]:
    """G traces under ``params`` for each ``(ctx, reward)`` of ``batch``,
    scored and given group advantages.

    Member i of entry j samples from the substream (``stream``,
    ``first + j * G + i``); all substreams are drawn in lockstep.
    """
    k = max(policy.n_draws(ctx) for ctx, _ in batch)
    uniforms = substream_randoms(seed, stream, first, len(batch) * g, k)
    groups = []
    for j, (ctx, reward) in enumerate(batch):
        trace = policy.sample(params, ctx, uniforms[j * g : (j + 1) * g])
        rewards = reward(trace.choices)
        advantages = group_advantages([r.r_total for r in rewards], eps_adv)
        groups.append(RolloutGroup(ctx, [
            RolloutMember(choices, logprobs, r, float(adv))
            for choices, logprobs, r, adv in zip(trace.choices, trace.logprobs, rewards, advantages)
        ]))
    return groups


def train_grpo(
    policy,
    episodes: list[EpisodeInstance],
    make_ctx: Callable[[EpisodeInstance], tuple[Any, Callable[[np.ndarray], list[RewardBreakdown]]]],
    cfg: GrpoConfig,
    master_seed: int,
    stream: str,
    init_scale: float = 0.0,
    log_path=None,
):
    """Train ``policy`` with GRPO; returns (final param vector, log rows).

    ``make_ctx(episode)`` returns the policy context and the episode's
    reward, ``reward(choices) -> list[RewardBreakdown]`` for a group's
    (G, n_decisions) choices; it runs once per episode and is cached.
    Episodes are drawn by cycling the list in order.  The initial params
    come from substream (``{stream}_init``, 0) and member i of batch slot s
    samples from (``{stream}_rollout``, s * G + i), so results do not
    depend on sampling order.
    """
    cfg.validate()
    if not episodes:
        raise ValueError("no training episodes")
    params = np.zeros(policy.n_params)
    if init_scale:
        init_rng = derive_rng(master_seed, f"{stream}_init", 0)
        params += init_scale * np.array([init_rng.normal() for _ in range(policy.n_params)])
    reference = params.copy()
    adam = AdamState.new(policy.n_params)
    cache: dict[int, tuple[Any, Callable]] = {}
    rows: list[TrainLogRow] = []
    rollout_stream = f"{stream}_rollout"
    n_roll = cfg.batch_episodes * cfg.g

    for it in range(cfg.iterations):
        if it > 0 and it % cfg.ref_refresh_every == 0:
            reference = params.copy()
        old = params.copy()
        batch = []
        for j in range(cfg.batch_episodes):
            idx = (it * cfg.batch_episodes + j) % len(episodes)
            if idx not in cache:
                cache[idx] = make_ctx(episodes[idx])
            batch.append(cache[idx])
        groups = sample_groups(policy, old, batch, master_seed, rollout_stream, it * n_roll, cfg.g, cfg.eps_adv)

        params, adam, objective, max_dev = grpo_update(
            policy, params, adam, groups, reference, cfg, where=f"{stream} iteration {it}"
        )
        acc_sum = len_sum = ratio_sum = 0.0
        for group in groups:
            for member in group.members:
                acc_sum += member.reward.r_acc
                len_sum += member.reward.r_len
                ratio_sum += member.reward.compression_ratio
        rows.append(
            TrainLogRow(it, acc_sum / n_roll, len_sum / n_roll, ratio_sum / n_roll, objective, max_dev)
        )
        if it % 50 == 0 or it == cfg.iterations - 1:
            log.info(
                "%s iter %d: r_acc=%.3f r_len=%.3f ratio=%.3f J=%.4f",
                stream, it, rows[-1].mean_r_acc, rows[-1].mean_r_len, rows[-1].mean_ratio, objective,
            )

    if log_path is not None:
        write_train_log(rows, log_path)
    return params, rows


def stage1_make_ctx(policy, catalog: Catalog, reward: RewardConfig):
    """``make_ctx`` for Stage 1: the verbalizer context, and the oracle
    reward of the context each trace of a group renders, scored from the
    episode's match counts (equal to ``stage1_reward`` of the render)."""

    def make_ctx(episode: EpisodeInstance):
        ctx = policy.make_ctx(episode.history)
        matches = EpisodeMatches(episode, catalog)

        def score(choices) -> list[RewardBreakdown]:
            masks = policy.render_masks(ctx, choices)
            scores = count_scores(matches, masks.starts, masks.enriched, masks.prefs, reward.weights)
            ratios = masks.n_tokens / masks.source_len
            return [
                scores_reward(row, episode.target_index, ratio, reward.alpha, reward.shape, reward.kind)
                for row, ratio in zip(scores.tolist(), ratios.tolist())
            ]

        return ctx, score

    return make_ctx


def train_stage1(
    train_episodes: list[EpisodeInstance],
    policy_kind: str,
    catalog: Catalog,
    cfg: GrpoConfig,
    reward: RewardConfig,
    master_seed: int,
    init_scale: float = 0.0,
    log_path=None,
):
    """Train a verbalizer policy against the oracle reward.

    Returns (params dataclass, log rows).
    """
    reward.validate()
    if policy_kind not in POLICIES:
        raise ValueError(f"policy kind must be one of {list(POLICIES)}, got {policy_kind!r}")
    policy = POLICIES[policy_kind](catalog)
    params, rows = train_grpo(
        policy, train_episodes, stage1_make_ctx(policy, catalog, reward), cfg, master_seed,
        f"stage1_{policy_kind}", init_scale, log_path,
    )
    return policy.params_type.from_vector(params), rows
