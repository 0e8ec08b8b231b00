"""Trainable candidate scorer and its Stage-2 set-up.

Where the oracle's weights are fixed, this reasoner learns a 6-weight linear
softmax over per-candidate features: the oracle's match counts, normalized.
Crucially it sees a watched flag the oracle ignores, so Stage-2 training can
learn to discount the title-match bias toward rewatches and recover
discovery targets.  Predictions are single-decision trajectories; rewards
are +1/-1 on exact target hit, and training runs the same
``grpo.train_grpo`` loop as Stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .domain import Catalog, EpisodeInstance, VerbalizedContext
from .grpo import GrpoConfig, train_grpo
from .oracle import RewardBreakdown, match_counts
from .verbalizer import Trace, frozen_verbalize, load_params, save_params

N_CANDIDATE_FEATURES = 6


@dataclass
class ReasonerParams:
    weights: np.ndarray  # (N_CANDIDATE_FEATURES,)

    ARRAYS: ClassVar = (("weights", (N_CANDIDATE_FEATURES,)),)

    @staticmethod
    def zeros() -> "ReasonerParams":
        return ReasonerParams(np.zeros(N_CANDIDATE_FEATURES))

    def to_vector(self) -> np.ndarray:
        return self.weights.copy()

    @staticmethod
    def from_vector(vec: np.ndarray) -> "ReasonerParams":
        return ReasonerParams(vec.copy())


def episode_candidate_features(
    context: VerbalizedContext, episode: EpisodeInstance, catalog: Catalog
) -> np.ndarray:
    """(n_candidates, 6) feature matrix for one episode; a candidate's row is
    [bias, genre, tag, title, pref match counts, watched flag].

    The match counts are the oracle's (``match_counts``), normalized by
    (1 + context length) so feature scale does not grow with verbosity.
    """
    title, genre, pref, tag = match_counts(context, episode.candidates, catalog).T / (1.0 + len(context.tokens))
    watched = {r.item_id for r in episode.history.records}
    flags = [1.0 if c in watched else 0.0 for c in episode.candidates]
    return np.column_stack([np.ones(len(flags)), genre, tag, title, pref, flags])


def stage2_reward(prediction: int, target_index: int) -> float:
    """+1 on the exact target, -1 otherwise."""
    return 1.0 if prediction == target_index else -1.0


class ReasonerPolicy:
    """Same group adapter surface as the verbalizer policies; the context is
    the per-episode candidate feature matrix and a trajectory is one
    decision, so a group's choices are a (G, 1) array."""

    kind = "reasoner"
    n_params = N_CANDIDATE_FEATURES
    params_type = ReasonerParams

    @staticmethod
    def n_draws(ctx: np.ndarray) -> int:
        return 1

    @staticmethod
    def _log_softmax(params: np.ndarray, feats: np.ndarray) -> np.ndarray:
        z = feats @ params
        z = z - z.max()
        return z - np.log(np.exp(z).sum())

    def sample(self, params: np.ndarray, ctx: np.ndarray, uniforms: np.ndarray) -> Trace:
        logp = self._log_softmax(params, ctx)
        cum = np.cumsum(np.exp(logp))
        cum /= cum[-1]
        choices = (uniforms[:, :1] >= cum).sum(axis=1, keepdims=True)
        return Trace(choices, logp[choices])

    def logprobs(self, params: np.ndarray, ctx: np.ndarray, choices) -> np.ndarray:
        c = np.asarray(choices)
        if c.ndim != 2 or c.shape[1] != 1:
            raise ValueError(f"reasoner trajectories have exactly one decision, got shape {c.shape}")
        return self._log_softmax(params, ctx)[c]

    def grad_accum(self, params: np.ndarray, ctx: np.ndarray, choices, coeffs: np.ndarray) -> np.ndarray:
        probs = np.exp(self._log_softmax(params, ctx))
        return coeffs[:, :1] * (ctx[np.asarray(choices)[:, 0]] - probs @ ctx)

    def greedy(self, params: np.ndarray, ctx: np.ndarray) -> list[int]:
        return [int(np.argmax(ctx @ params))]


def stage2_make_ctx(catalog: Catalog, verbalizer_kind: str, verbalizer_params):
    """``make_ctx`` for Stage 2: the candidate features of the frozen
    verbalizer's context, and the +/-1 hit reward of each member of a group
    (logged with the context's compression ratio)."""

    def make_ctx(episode: EpisodeInstance):
        context = frozen_verbalize(verbalizer_kind, verbalizer_params, episode.history, catalog)
        feats = episode_candidate_features(context, episode, catalog)
        ratio = context.compression_ratio

        def score(choices) -> list[RewardBreakdown]:
            out = []
            for choice in choices[:, 0].tolist():
                r = stage2_reward(choice, episode.target_index)
                out.append(RewardBreakdown(r_acc=(r + 1.0) / 2.0, r_len=0.0, r_total=r, compression_ratio=ratio))
            return out

        return feats, score

    return make_ctx


def train_stage2(
    train_episodes: list[EpisodeInstance],
    catalog: Catalog,
    verbalizer_kind: str,
    verbalizer_params,
    cfg: GrpoConfig,
    master_seed: int,
    init_scale: float = 0.0,
    log_path=None,
):
    """Train the reasoner on contexts from a frozen verbalizer.

    The verbalizer decodes greedily once per episode (contexts are cached);
    only the reasoner's weights move.  Returns (ReasonerParams, log rows).
    """
    policy = ReasonerPolicy()
    params, rows = train_grpo(
        policy, train_episodes, stage2_make_ctx(catalog, verbalizer_kind, verbalizer_params), cfg,
        master_seed, f"stage2_{verbalizer_kind}", init_scale, log_path,
    )
    return policy.params_type.from_vector(params), rows


# ---------------------------------------------------------------------------
# parameter files: the verbalizer's format, with the kind fixed to "reasoner"

_REASONER = {ReasonerPolicy.kind: ReasonerPolicy}


def save_reasoner_params(path, params: ReasonerParams) -> None:
    save_params(path, _REASONER, ReasonerPolicy.kind, params)


def load_reasoner_params(path) -> ReasonerParams:
    return load_params(path, _REASONER)[1]
