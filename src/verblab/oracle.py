"""Deterministic bag-of-token scorer and Stage-1 reward shaping.

The oracle reads a verbalized context as a bag of tokens and scores each
candidate by weighted matches: title tokens count toward the item they name,
genre and preference tokens toward candidates of that genre, tag tokens
toward candidates sharing the tag.  ``match_counts`` is the one place that
applies these rules to a context; the oracle weighs its counts and the
trained reasoner normalizes them.  Title matches deliberately favour
already-watched candidates, which is what makes plain template contexts bad
at discovery and gives the learned verbalizers something to fix.

Stage-1 reward blends oracle accuracy with a trapezoid length reward over
the compression ratio; a rank-linear variant replaces accuracy for the
ranking ablation.  Training scores traces without rendering them:
``EpisodeMatches`` holds an episode's per-record integer match counts, and
``count_scores`` sums them under a group's token masks into exactly the
scores ``oracle_scores`` gives the rendered contexts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .domain import GENRES, Catalog, EpisodeInstance, ItemMeta, Token, VerbalizedContext


@dataclass
class OracleWeights:
    w_title: float = 1.0
    w_genre: float = 1.0
    w_tag: float = 0.5
    w_pref: float = 3.0


@dataclass
class LengthShape:
    """Trapezoid knots for the length reward: 0 below lo_zero, ramps to 1 at
    lo_one, stays 1 through hi_one, ramps back to 0 at hi_zero."""

    lo_zero: float = 0.05
    lo_one: float = 0.3
    hi_one: float = 0.7
    hi_zero: float = 1.2

    def validate(self) -> None:
        if not self.lo_zero < self.lo_one < self.hi_one < self.hi_zero:
            raise ValueError(
                "length shape knots must be strictly increasing: "
                f"{self.lo_zero}, {self.lo_one}, {self.hi_one}, {self.hi_zero}"
            )


@dataclass
class RewardBreakdown:
    r_acc: float  # accuracy (or rank-linear) term, before blending
    r_len: float
    r_total: float
    compression_ratio: float


@dataclass
class RewardConfig:
    """Everything Stage-1 reward computation needs, in one place."""

    alpha: float = 0.9
    weights: OracleWeights = None  # type: ignore[assignment]
    shape: LengthShape = None  # type: ignore[assignment]
    kind: str = "accuracy"

    def __post_init__(self):
        if self.weights is None:
            self.weights = OracleWeights()
        if self.shape is None:
            self.shape = LengthShape()

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.kind not in ("accuracy", "ranking"):
            raise ValueError(f"reward kind must be 'accuracy' or 'ranking', got {self.kind!r}")
        self.shape.validate()


def token_weight(token: Token, candidate: ItemMeta, weights: OracleWeights) -> float:
    """Contribution of one context token to one candidate's score."""
    kind = token.kind
    if kind == "TITLE":
        return weights.w_title if token.payload == candidate.item_id else 0.0
    if kind == "GENRE":
        return weights.w_genre if token.payload == candidate.genre else 0.0
    if kind == "PREF":
        return weights.w_pref if token.payload == candidate.genre else 0.0
    if kind == "TAG":
        return weights.w_tag if token.payload in candidate.tags else 0.0
    return 0.0


def match_counts(context: VerbalizedContext, candidates, catalog: Catalog) -> np.ndarray:
    """(n_candidates, 4) integer counts of the context tokens that match each
    candidate under ``token_weight``'s rules, by kind: title, genre, pref,
    tag.  The tokens are scanned once."""
    counts = Counter(context.tokens)  # a Token is a (kind, payload) tuple
    rows = []
    for cand in candidates:
        meta = catalog.meta(cand)
        rows.append((
            counts[("TITLE", meta.item_id)],
            counts[("GENRE", meta.genre)],
            counts[("PREF", meta.genre)],
            sum(counts[("TAG", tag)] for tag in meta.tags),
        ))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def weigh(weights: OracleWeights, title, genre, pref, tag):
    """The oracle score of match counts (numbers or arrays alike)."""
    return weights.w_title * title + weights.w_genre * genre + weights.w_pref * pref + weights.w_tag * tag


def oracle_scores(
    context: VerbalizedContext, candidates, catalog: Catalog, weights: OracleWeights
) -> list[float]:
    """Per-candidate sum of token_weight over all context tokens."""
    return weigh(weights, *match_counts(context, candidates, catalog).T).tolist()


def oracle_predict(
    context: VerbalizedContext, candidates, catalog: Catalog, weights: OracleWeights
) -> int:
    """Index of the best-scoring candidate; ties go to the lowest index."""
    return best_index(oracle_scores(context, candidates, catalog, weights))


def best_index(scores) -> int:
    """Argmax of ``scores``, ties to the lowest index."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def length_reward(ratio: float, shape: LengthShape | None = None) -> float:
    shape = shape or LengthShape()
    if ratio < 0:
        raise ValueError(f"compression ratio must be >= 0, got {ratio}")
    if ratio <= shape.lo_zero or ratio >= shape.hi_zero:
        return 0.0
    if ratio < shape.lo_one:
        return (ratio - shape.lo_zero) / (shape.lo_one - shape.lo_zero)
    if ratio <= shape.hi_one:
        return 1.0
    return (shape.hi_zero - ratio) / (shape.hi_zero - shape.hi_one)


def ranking_reward(scores, target_index: int) -> float:
    """1 at rank 1, linearly down to 0 at rank N.  The target's rank counts
    strictly-greater scores plus equal scores at lower candidate indices."""
    n = len(scores)
    if not 0 <= target_index < n:
        raise ValueError(f"target_index {target_index} out of range for {n} scores")
    s_t = scores[target_index]
    rank = 1
    for i, s in enumerate(scores):
        if s > s_t or (s == s_t and i < target_index):
            rank += 1
    if n == 1:
        return 1.0
    return 1.0 - (rank - 1) / (n - 1)


def stage1_reward(
    context: VerbalizedContext,
    episode: EpisodeInstance,
    catalog: Catalog,
    alpha: float,
    weights: OracleWeights,
    shape: LengthShape,
    kind: str = "accuracy",
) -> RewardBreakdown:
    """r_total = alpha * r_acc + (1 - alpha) * r_len, computed exactly.

    ``kind`` selects the accuracy term: "accuracy" is 1/0 on the oracle's
    argmax hitting the target, "ranking" is the rank-linear variant.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    scores = oracle_scores(context, episode.candidates, catalog, weights)
    return scores_reward(scores, episode.target_index, context.compression_ratio, alpha, shape, kind)


def scores_reward(scores, target_index: int, ratio: float, alpha: float, shape: LengthShape,
                  kind: str = "accuracy") -> RewardBreakdown:
    """The Stage-1 reward of a context with these candidate scores and
    compression ratio."""
    if kind == "accuracy":
        r_acc = 1.0 if best_index(scores) == target_index else 0.0
    elif kind == "ranking":
        r_acc = ranking_reward(scores, target_index)
    else:
        raise ValueError(f"unknown stage-1 reward kind {kind!r}")
    r_len = length_reward(ratio, shape)
    return RewardBreakdown(
        r_acc=r_acc,
        r_len=r_len,
        r_total=alpha * r_acc + (1.0 - alpha) * r_len,
        compression_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# integer-count scoring of unrendered traces


class EpisodeMatches:
    """Per-record match counts of one episode's history against its candidates.

    Row t of ``title`` / ``genre`` / ``tag`` is what one TITLE token / the
    GENRE token / the TAG tokens of record t's item add to each candidate's
    match count; row g of ``pref`` is what one PREF token of genre g adds.
    """

    __slots__ = ("title", "genre", "tag", "pref")

    def __init__(self, episode: EpisodeInstance, catalog: Catalog):
        cands = [catalog.meta(c) for c in episode.candidates]
        records = episode.history.records
        items = [catalog.meta(r.item_id) for r in records]
        self.title = np.equal.outer([r.item_id for r in records], [c.item_id for c in cands]).astype(np.int8)
        cand_genres = np.array([c.genre for c in cands], dtype=str)
        self.genre = np.equal.outer(np.array([m.genre for m in items], dtype=str), cand_genres).astype(np.int8)
        self.pref = np.equal.outer(np.array(GENRES, dtype=str), cand_genres).astype(np.int8)
        # each candidate tag counted among the tags of the record's item
        vocab: dict[str, int] = {}
        cand_tags = np.zeros((len(cands), sum(len(c.tags) for c in cands)), dtype=np.int16)
        for j, c in enumerate(cands):
            for tag in c.tags:
                cand_tags[j, vocab.setdefault(tag, len(vocab))] += 1
        rec_tags = np.zeros((len(items), cand_tags.shape[1]), dtype=np.int16)
        for i, m in enumerate(items):
            for tag in m.tags:
                if tag in vocab:
                    rec_tags[i, vocab[tag]] += 1
        self.tag = rec_tags @ cand_tags.T


def count_scores(matches: EpisodeMatches, starts, enriched, prefs, weights: OracleWeights) -> np.ndarray:
    """(G, candidates) oracle scores of G traces given their token masks.

    A segment opened at record t emits two TITLE tokens of its item, an
    enriched one its GENRE and TAG tokens, and ``prefs`` marks the PREF
    genres.  The counts are exact integers and go through ``weigh`` as in
    ``oracle_scores``, so each row equals that function's result on the
    rendered context.
    """
    title = 2 * (starts.astype(np.int64) @ matches.title)
    genre = enriched.astype(np.int64) @ matches.genre
    tag = enriched.astype(np.int64) @ matches.tag
    pref = prefs.astype(np.int64) @ matches.pref
    return weigh(weights, title, genre, pref, tag)
