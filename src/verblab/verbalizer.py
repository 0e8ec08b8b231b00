"""History-to-token verbalization: fixed renderers and learnable policies.

Four ways to turn a history into a token context:

* ``render_template``: every record as 8 tokens (date, weekday, hour, id,
  two title tokens, engagement, duration bucket).  This is the uncompressed
  source text; its length is the denominator of every compression ratio.
* ``heuristic_verbalize``: a hand-written keep rule (long-or-engaged records)
  rendered with genre/tag enrichment.
* action policy: per record, two Bernoulli heads decide keep and enrich.
* rewrite policy: per record a masked 4-way choice (drop / keep /
  keep+enrich / merge into the previous same-item segment), then 8 Bernoulli
  heads that may append one preference token per genre.

Policies are linear in a 10-dim per-record feature vector; their log-probs
and gradients are exact, which the training kernels rely on.  The latent
noise flag is generator bookkeeping and is never visible to features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import (
    ENGAGEMENTS,
    GENRES,
    Catalog,
    Token,
    UserHistory,
    VerbalizedContext,
    dow_label,
    dur_bucket,
)
from .fsutil import atomic_write_text
from .rng import Rng

N_FEATURES = 10
TOKENS_PER_TEMPLATE_RECORD = 8

# Run length is normalized by the generator's default repeat cap and clamped,
# so the feature stays in [0, 1] for any history.
_RUN_NORM = 5.0

# Segment choices for the rewrite policy.
DROP, KEEP, KEEP_ENRICH, MERGE_PREV = 0, 1, 2, 3
N_SEGMENT_CHOICES = 4
N_PREF_FEATURES = 3

# Signal-eligibility is the observable stand-in for "not noise" used by the
# preference heads' features: a fixed predicate, not the configurable
# heuristic rules.
_SIG_MIN_DUR = 10.0
_SIG_ENGS = ("thumb_up", "add_to_list")

PARAMS_FORMAT_VERSION = 1


@dataclass
class HeuristicRules:
    """Keep rule for the zero-shot verbalizer."""

    min_duration: float = 10.0
    keep_engagements: tuple[str, ...] = ("thumb_up", "add_to_list")

    def keeps(self, record) -> bool:
        return (
            record.duration_min >= self.min_duration
            or record.engagement in self.keep_engagements
        )


@dataclass
class Trace:
    """Sampled decisions plus their log-probabilities under the sampler."""

    choices: list[int]
    logprobs: np.ndarray  # one per decision, each <= 0


@dataclass
class ActionPolicyParams:
    keep_weights: np.ndarray  # (N_FEATURES,)
    enrich_weights: np.ndarray  # (N_FEATURES,)

    @staticmethod
    def zeros() -> "ActionPolicyParams":
        return ActionPolicyParams(np.zeros(N_FEATURES), np.zeros(N_FEATURES))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.keep_weights, self.enrich_weights])

    @staticmethod
    def from_vector(vec: np.ndarray) -> "ActionPolicyParams":
        return ActionPolicyParams(vec[:N_FEATURES].copy(), vec[N_FEATURES:].copy())


@dataclass
class RewritePolicyParams:
    segment_weights: np.ndarray  # (N_SEGMENT_CHOICES, N_FEATURES)
    pref_weights: np.ndarray  # (N_PREF_FEATURES,)

    @staticmethod
    def zeros() -> "RewritePolicyParams":
        return RewritePolicyParams(
            np.zeros((N_SEGMENT_CHOICES, N_FEATURES)), np.zeros(N_PREF_FEATURES)
        )

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.segment_weights.ravel(), self.pref_weights])

    @staticmethod
    def from_vector(vec: np.ndarray) -> "RewritePolicyParams":
        n_seg = N_SEGMENT_CHOICES * N_FEATURES
        return RewritePolicyParams(
            vec[:n_seg].reshape(N_SEGMENT_CHOICES, N_FEATURES).copy(),
            vec[n_seg:].copy(),
        )


# ---------------------------------------------------------------------------
# features


def history_features(history: UserHistory) -> np.ndarray:
    """(n_records, 10) features; row t is
    [bias, eng one-hot x3, duration one-hot x3, recency bucket (0/0.5/1),
    same_item_as_prev, run_length/5].  All entries lie in [0, 1]."""
    records = history.records
    n = len(records)
    feats = np.zeros((n, N_FEATURES))
    run = 0
    for t, rec in enumerate(records):
        same_prev = t > 0 and records[t - 1].item_id == rec.item_id
        run = run + 1 if same_prev else 1
        feats[t, 0] = 1.0
        feats[t, 1 + ENGAGEMENTS.index(rec.engagement)] = 1.0
        if rec.duration_min < 10.0:
            feats[t, 4] = 1.0
        elif rec.duration_min <= 60.0:
            feats[t, 5] = 1.0
        else:
            feats[t, 6] = 1.0
        feats[t, 7] = min(2, (3 * t) // n) / 2.0
        feats[t, 8] = 1.0 if same_prev else 0.0
        feats[t, 9] = min(run, _RUN_NORM) / _RUN_NORM
    return feats


def _signal_eligible(record) -> bool:
    return record.duration_min >= _SIG_MIN_DUR or record.engagement in _SIG_ENGS


# ---------------------------------------------------------------------------
# policy context: everything derivable from (history, catalog) once


class _VerbCtx:
    __slots__ = ("history", "feats", "merge_ok", "genre_idx", "sig_mask")

    def __init__(self, history: UserHistory, catalog: Catalog):
        self.history = history
        self.feats = history_features(history)
        records = history.records
        # True where MERGE_PREV is legal: the previous record has the same item
        self.merge_ok = np.array(
            [t > 0 and records[t - 1].item_id == records[t].item_id for t in range(len(records))]
        )
        self.genre_idx = np.array([GENRES.index(catalog.meta(r.item_id).genre) for r in records])
        self.sig_mask = np.array([_signal_eligible(r) for r in records])


def make_verb_ctx(history: UserHistory, catalog: Catalog) -> _VerbCtx:
    return _VerbCtx(history, catalog)


# ---------------------------------------------------------------------------
# math helpers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _bernoulli_logprobs(z: np.ndarray, choices: np.ndarray) -> np.ndarray:
    # log p(d) = d*log(sigma(z)) + (1-d)*log(sigma(-z))
    return np.where(choices == 1, _log_sigmoid(z), _log_sigmoid(-z))


def _masked_row_logprobs(logits: np.ndarray, merge_ok: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with the MERGE_PREV column masked where illegal."""
    masked = logits.copy()
    masked[~merge_ok, MERGE_PREV] = -np.inf
    m = np.max(masked[:, :MERGE_PREV], axis=1)
    m = np.maximum(m, np.where(merge_ok, masked[:, MERGE_PREV], -np.inf))
    lse = m + np.log(np.sum(np.exp(masked - m[:, None]), axis=1))
    return masked - lse[:, None]


# ---------------------------------------------------------------------------
# fixed renderers


def render_template(history: UserHistory, catalog: Catalog) -> VerbalizedContext:
    """Every record as [DATE, DOW, HOUR, ID, TITLE, TITLE, ENG, DUR]."""
    tokens: list[Token] = []
    for rec in history.records:
        catalog.meta(rec.item_id)  # unknown items are an error even here
        tokens.append(Token("DATE", rec.day))
        tokens.append(Token("DOW", dow_label(rec.day)))
        tokens.append(Token("HOUR", rec.hour))
        tokens.append(Token("ID", rec.item_id))
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("ENG", rec.engagement))
        tokens.append(Token("DUR", dur_bucket(rec.duration_min)))
    return VerbalizedContext(tokens, TOKENS_PER_TEMPLATE_RECORD * len(history.records))


def _enrichment_tokens(meta) -> list[Token]:
    out = [Token("GENRE", meta.genre)]
    out.extend(Token("TAG", tag) for tag in meta.tags)
    return out


def heuristic_verbalize(
    history: UserHistory, catalog: Catalog, rules: HeuristicRules | None = None
) -> VerbalizedContext:
    """Keep long-or-engaged records, rendered as [TITLE x2, ENG, GENRE, TAG x3]."""
    rules = rules or HeuristicRules()
    tokens: list[Token] = []
    for rec in history.records:
        if not rules.keeps(rec):
            continue
        meta = catalog.meta(rec.item_id)
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("ENG", rec.engagement))
        tokens.extend(_enrichment_tokens(meta))
    return VerbalizedContext(tokens, TOKENS_PER_TEMPLATE_RECORD * len(history.records))


# ---------------------------------------------------------------------------
# action policy (keep/enrich Bernoulli heads)


class ActionPolicy:
    """Adapter with the uniform sample/logprobs/grad/greedy/render surface."""

    kind = "action"
    n_params = 2 * N_FEATURES

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def make_ctx(self, history: UserHistory) -> _VerbCtx:
        return make_verb_ctx(history, self.catalog)

    @staticmethod
    def _heads(params: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return feats @ params[:N_FEATURES], feats @ params[N_FEATURES:]

    def sample(self, params: np.ndarray, ctx: _VerbCtx, rng: Rng) -> Trace:
        z_keep, z_enrich = self._heads(params, ctx.feats)
        n = len(z_keep)
        us = np.array(rng.randoms(2 * n))  # draw order: k_0, m_0, k_1, m_1, ...
        k = (us[0::2] < _sigmoid(z_keep)).astype(np.int64)
        m = (us[1::2] < _sigmoid(z_enrich)).astype(np.int64)
        choices = np.empty(2 * n, dtype=np.int64)
        choices[0::2] = k
        choices[1::2] = m
        return Trace(choices.tolist(), self.logprobs(params, ctx, choices.tolist()))

    def logprobs(self, params: np.ndarray, ctx: _VerbCtx, choices) -> np.ndarray:
        n = len(ctx.history.records)
        if len(choices) != 2 * n:
            raise ValueError(f"action trace must have 2 decisions per record ({2 * n}), got {len(choices)}")
        z_keep, z_enrich = self._heads(params, ctx.feats)
        c = np.asarray(choices)
        out = np.empty(len(c))
        out[0::2] = _bernoulli_logprobs(z_keep, c[0::2])
        out[1::2] = _bernoulli_logprobs(z_enrich, c[1::2])
        return out

    def grad_accum(self, params: np.ndarray, ctx: _VerbCtx, choices, coeffs: np.ndarray) -> np.ndarray:
        """sum_t coeffs[t] * d(log p of decision t)/d(params)."""
        z_keep, z_enrich = self._heads(params, ctx.feats)
        c = np.asarray(choices, dtype=np.float64)
        gk = ((c[0::2] - _sigmoid(z_keep)) * coeffs[0::2]) @ ctx.feats
        gm = ((c[1::2] - _sigmoid(z_enrich)) * coeffs[1::2]) @ ctx.feats
        return np.concatenate([gk, gm])

    def greedy(self, params: np.ndarray, ctx: _VerbCtx) -> list[int]:
        z_keep, z_enrich = self._heads(params, ctx.feats)
        n = len(z_keep)
        choices = np.empty(2 * n, dtype=np.int64)
        choices[0::2] = (z_keep > 0).astype(np.int64)
        choices[1::2] = (z_enrich > 0).astype(np.int64)
        return choices.tolist()

    def render(self, ctx: _VerbCtx, choices) -> VerbalizedContext:
        return render_actions(ctx.history, choices, self.catalog)

    @staticmethod
    def params_from_vector(vec: np.ndarray) -> ActionPolicyParams:
        return ActionPolicyParams.from_vector(vec)


def render_actions(history: UserHistory, choices, catalog: Catalog) -> VerbalizedContext:
    """Kept records render [TITLE x2, ENG]; enriched ones add [GENRE, TAG x3]."""
    records = history.records
    if len(choices) != 2 * len(records):
        raise ValueError(f"expected {2 * len(records)} choices, got {len(choices)}")
    tokens: list[Token] = []
    for t, rec in enumerate(records):
        keep, enrich = choices[2 * t], choices[2 * t + 1]
        if not keep:
            continue
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("TITLE", rec.item_id))
        tokens.append(Token("ENG", rec.engagement))
        if enrich:
            tokens.extend(_enrichment_tokens(catalog.meta(rec.item_id)))
    return VerbalizedContext(tokens, TOKENS_PER_TEMPLATE_RECORD * len(records))


# ---------------------------------------------------------------------------
# rewrite policy (masked 4-way segment choice + per-genre preference heads)


def pref_feature_matrix(ctx: _VerbCtx, seg_choices) -> np.ndarray:
    """(8, 3) features for the preference heads, conditioned on the segment
    choices: [bias, fraction of kept signal-eligible records in this genre,
    is this the top genre by that count]."""
    kept = np.asarray(seg_choices) != DROP
    counted = kept & ctx.sig_mask
    counts = np.zeros(len(GENRES))
    if counted.any():
        np.add.at(counts, ctx.genre_idx[counted], 1.0)
    total = counts.sum()
    phi = np.ones((len(GENRES), N_PREF_FEATURES))
    phi[:, 1] = counts / total if total > 0 else 0.0
    top = counts.max()
    phi[:, 2] = ((counts == top) & (counts > 0)).astype(np.float64)
    return phi


class RewritePolicy:
    kind = "rewrite"
    n_params = N_SEGMENT_CHOICES * N_FEATURES + N_PREF_FEATURES

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def make_ctx(self, history: UserHistory) -> _VerbCtx:
        return make_verb_ctx(history, self.catalog)

    @staticmethod
    def _split(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_seg = N_SEGMENT_CHOICES * N_FEATURES
        return params[:n_seg].reshape(N_SEGMENT_CHOICES, N_FEATURES), params[n_seg:]

    def sample(self, params: np.ndarray, ctx: _VerbCtx, rng: Rng) -> Trace:
        w_seg, w_pref = self._split(params)
        row_logp = _masked_row_logprobs(ctx.feats @ w_seg.T, ctx.merge_ok)
        probs = np.exp(row_logp)
        n = len(probs)
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        us = np.array(rng.randoms(n))
        seg = (us[:, None] >= cum).sum(axis=1)
        phi = pref_feature_matrix(ctx, seg)
        p_pref = _sigmoid(phi @ w_pref)
        prefs = (np.array(rng.randoms(len(GENRES))) < p_pref).astype(np.int64)
        choices = seg.tolist() + prefs.tolist()
        return Trace(choices, self.logprobs(params, ctx, choices))

    def logprobs(self, params: np.ndarray, ctx: _VerbCtx, choices) -> np.ndarray:
        n = len(ctx.history.records)
        if len(choices) != n + len(GENRES):
            raise ValueError(f"rewrite trace must have {n + len(GENRES)} decisions, got {len(choices)}")
        w_seg, w_pref = self._split(params)
        seg = np.asarray(choices[:n])
        if np.any((seg == MERGE_PREV) & ~ctx.merge_ok):
            bad = int(np.argmax((seg == MERGE_PREV) & ~ctx.merge_ok))
            raise ValueError(f"MERGE_PREV at position {bad} is masked (previous item differs)")
        row_logp = _masked_row_logprobs(ctx.feats @ w_seg.T, ctx.merge_ok)
        phi = pref_feature_matrix(ctx, seg)
        pref_lp = _bernoulli_logprobs(phi @ w_pref, np.asarray(choices[n:]))
        return np.concatenate([row_logp[np.arange(n), seg], pref_lp])

    def grad_accum(self, params: np.ndarray, ctx: _VerbCtx, choices, coeffs: np.ndarray) -> np.ndarray:
        n = len(ctx.history.records)
        w_seg, w_pref = self._split(params)
        seg = np.asarray(choices[:n])
        row_logp = _masked_row_logprobs(ctx.feats @ w_seg.T, ctx.merge_ok)
        probs = np.exp(row_logp)  # masked entries are exactly 0
        y = -probs
        y[np.arange(n), seg] += 1.0
        d_seg = (y * coeffs[:n, None]).T @ ctx.feats
        phi = pref_feature_matrix(ctx, seg)
        b = np.asarray(choices[n:], dtype=np.float64)
        d_pref = ((b - _sigmoid(phi @ w_pref)) * coeffs[n:]) @ phi
        return np.concatenate([d_seg.ravel(), d_pref])

    def greedy(self, params: np.ndarray, ctx: _VerbCtx) -> list[int]:
        w_seg, w_pref = self._split(params)
        row_logp = _masked_row_logprobs(ctx.feats @ w_seg.T, ctx.merge_ok)
        seg = np.argmax(row_logp, axis=1)
        phi = pref_feature_matrix(ctx, seg)
        prefs = (phi @ w_pref > 0).astype(np.int64)
        return seg.tolist() + prefs.tolist()

    def render(self, ctx: _VerbCtx, choices) -> VerbalizedContext:
        return render_rewrite(ctx.history, choices, self.catalog)

    @staticmethod
    def params_from_vector(vec: np.ndarray) -> RewritePolicyParams:
        return RewritePolicyParams.from_vector(vec)


def render_rewrite(history: UserHistory, choices, catalog: Catalog) -> VerbalizedContext:
    """Fold segment choices into rendered segments, then preference tokens.

    A merged segment of n records renders [TITLE x2, ENG, COUNT:n]
    (enrichment tokens follow if its base record chose KEEP_ENRICH); a
    MERGE_PREV whose predecessor was dropped starts a fresh plain segment.
    """
    records = history.records
    n = len(records)
    if len(choices) != n + len(GENRES):
        raise ValueError(f"expected {n + len(GENRES)} choices, got {len(choices)}")
    segments: list[dict] = []
    prev_seg: int | None = None
    for t in range(n):
        c = choices[t]
        rec = records[t]
        if c == DROP:
            prev_seg = None
            continue
        if c == MERGE_PREV:
            if t == 0 or records[t - 1].item_id != rec.item_id:
                raise ValueError(f"MERGE_PREV at position {t} without a same-item predecessor")
            if prev_seg is not None:
                segments[prev_seg]["count"] += 1
                cur = prev_seg
            else:  # base was dropped: behaves like a fresh KEEP
                segments.append({"item": rec.item_id, "eng": rec.engagement, "count": 1, "enriched": False})
                cur = len(segments) - 1
        elif c in (KEEP, KEEP_ENRICH):
            segments.append(
                {"item": rec.item_id, "eng": rec.engagement, "count": 1, "enriched": c == KEEP_ENRICH}
            )
            cur = len(segments) - 1
        else:
            raise ValueError(f"unknown segment choice {c!r} at position {t}")
        prev_seg = cur

    tokens: list[Token] = []
    for seg in segments:
        tokens.append(Token("TITLE", seg["item"]))
        tokens.append(Token("TITLE", seg["item"]))
        tokens.append(Token("ENG", seg["eng"]))
        if seg["count"] >= 2:
            tokens.append(Token("COUNT", seg["count"]))
        if seg["enriched"]:
            tokens.extend(_enrichment_tokens(catalog.meta(seg["item"])))
    for g_idx, flag in enumerate(choices[n:]):
        if flag:
            tokens.append(Token("PREF", GENRES[g_idx]))
    return VerbalizedContext(tokens, TOKENS_PER_TEMPLATE_RECORD * n)


# The learnable verbalizer policies by kind.
POLICIES = {"action": ActionPolicy, "rewrite": RewritePolicy}


def frozen_verbalize(kind: str, params, history: UserHistory, catalog: Catalog) -> VerbalizedContext:
    """Deterministic context from a frozen verbalizer.

    Learned kinds decode greedily (argmax per decision, ties to the lower
    choice); "template" and "zero_shot" are the fixed renderers.
    """
    if kind == "template":
        return render_template(history, catalog)
    if kind == "zero_shot":
        return heuristic_verbalize(history, catalog)
    if kind not in POLICIES:
        raise ValueError(f"unknown verbalizer kind {kind!r}")
    policy = POLICIES[kind](catalog)
    ctx = policy.make_ctx(history)
    return policy.render(ctx, policy.greedy(params.to_vector(), ctx))


# ---------------------------------------------------------------------------
# parameter files


def save_policy_params(path, kind: str, params) -> None:
    if kind == "action":
        arrays = {
            "keep_weights": params.keep_weights.tolist(),
            "enrich_weights": params.enrich_weights.tolist(),
        }
    elif kind == "rewrite":
        arrays = {
            "segment_weights": params.segment_weights.tolist(),
            "pref_weights": params.pref_weights.tolist(),
        }
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    payload = {"format_version": PARAMS_FORMAT_VERSION, "kind": kind, "arrays": arrays}
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_policy_params(path):
    """Returns (kind, params dataclass) for a saved verbalizer policy."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != PARAMS_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported params format_version {version!r}")
    kind = payload.get("kind")
    arrays = payload.get("arrays", {})
    if kind == "action":
        params = ActionPolicyParams(
            np.asarray(arrays["keep_weights"], dtype=np.float64),
            np.asarray(arrays["enrich_weights"], dtype=np.float64),
        )
        if params.keep_weights.shape != (N_FEATURES,) or params.enrich_weights.shape != (N_FEATURES,):
            raise ValueError(f"{path}: action weight arrays have the wrong shape")
    elif kind == "rewrite":
        params = RewritePolicyParams(
            np.asarray(arrays["segment_weights"], dtype=np.float64),
            np.asarray(arrays["pref_weights"], dtype=np.float64),
        )
        if params.segment_weights.shape != (N_SEGMENT_CHOICES, N_FEATURES) or params.pref_weights.shape != (
            N_PREF_FEATURES,
        ):
            raise ValueError(f"{path}: rewrite weight arrays have the wrong shape")
    else:
        raise ValueError(f"{path}: unknown policy kind {kind!r}")
    return kind, params
