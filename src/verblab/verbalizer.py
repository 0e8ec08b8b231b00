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
and gradients are exact, which the training kernels rely on.  The policy
adapters sample, score and differentiate a whole rollout group at once, and
``render_masks`` says what a trace's render contains without building its
tokens, which is how training scores it.  The latent noise flag is
generator bookkeeping and is never visible to features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

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
    """A group of sampled traces: one row of decisions per member, plus
    their log-probabilities under the sampler."""

    choices: np.ndarray  # (G, n_decisions) int64
    logprobs: np.ndarray  # (G, n_decisions), each <= 0


@dataclass
class TokenMasks:
    """What G rendered traces contain, without building their tokens.

    ``starts`` marks the records that open a rendered segment (two TITLE
    tokens and an ENG), ``enriched`` those whose segment also carries the
    item's GENRE and TAG tokens, ``prefs`` the genres with a PREF token;
    ``n_tokens`` is each trace's rendered length.
    """

    starts: np.ndarray  # (G, n_records) bool
    enriched: np.ndarray  # (G, n_records) bool
    prefs: np.ndarray  # (G, n_genres) bool
    n_tokens: np.ndarray  # (G,) int
    source_len: int  # template length of the history


@dataclass
class ActionPolicyParams:
    keep_weights: np.ndarray  # (N_FEATURES,)
    enrich_weights: np.ndarray  # (N_FEATURES,)

    # (name, shape) of each array, in file order
    ARRAYS: ClassVar = (("keep_weights", (N_FEATURES,)), ("enrich_weights", (N_FEATURES,)))

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

    ARRAYS: ClassVar = (
        ("segment_weights", (N_SEGMENT_CHOICES, N_FEATURES)),
        ("pref_weights", (N_PREF_FEATURES,)),
    )

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
    """Adapter with the uniform sample/logprobs/grad/greedy/render surface.

    ``sample``, ``logprobs``, ``grad_accum`` and ``render_masks`` work on a
    group: one row per member, all over the same context.
    """

    kind = "action"
    n_params = 2 * N_FEATURES
    params_type = ActionPolicyParams

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def make_ctx(self, history: UserHistory) -> _VerbCtx:
        return make_verb_ctx(history, self.catalog)

    @staticmethod
    def n_draws(ctx: _VerbCtx) -> int:
        """Uniforms one trace consumes."""
        return 2 * len(ctx.feats)

    @staticmethod
    def _heads(params: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return feats @ params[:N_FEATURES], feats @ params[N_FEATURES:]

    def sample(self, params: np.ndarray, ctx: _VerbCtx, uniforms: np.ndarray) -> Trace:
        """One trace per row of ``uniforms`` (G, >= n_draws), read in the
        order k_0, m_0, k_1, m_1, ..."""
        z_keep, z_enrich = self._heads(params, ctx.feats)
        n = len(z_keep)
        choices = np.empty((len(uniforms), 2 * n), dtype=np.int64)
        choices[:, 0::2] = uniforms[:, 0 : 2 * n : 2] < _sigmoid(z_keep)
        choices[:, 1::2] = uniforms[:, 1 : 2 * n : 2] < _sigmoid(z_enrich)
        return Trace(choices, self._logprobs(z_keep, z_enrich, choices))

    @staticmethod
    def _logprobs(z_keep: np.ndarray, z_enrich: np.ndarray, choices: np.ndarray) -> np.ndarray:
        out = np.empty(choices.shape)
        out[:, 0::2] = _bernoulli_logprobs(z_keep, choices[:, 0::2])
        out[:, 1::2] = _bernoulli_logprobs(z_enrich, choices[:, 1::2])
        return out

    def logprobs(self, params: np.ndarray, ctx: _VerbCtx, choices) -> np.ndarray:
        """(G, 2n) log-probs of the (G, 2n) traces ``choices``."""
        n = len(ctx.history.records)
        c = np.asarray(choices)
        if c.ndim != 2 or c.shape[1] != 2 * n:
            raise ValueError(f"action traces must have 2 decisions per record ({2 * n}), got shape {c.shape}")
        return self._logprobs(*self._heads(params, ctx.feats), c)

    def grad_accum(self, params: np.ndarray, ctx: _VerbCtx, choices, coeffs: np.ndarray) -> np.ndarray:
        """(G, n_params): row i is sum_t coeffs[i, t] * d(log p of decision t of trace i)/d(params)."""
        z_keep, z_enrich = self._heads(params, ctx.feats)
        c = np.asarray(choices, dtype=np.float64)
        gk = (((c[:, 0::2] - _sigmoid(z_keep)) * coeffs[:, 0::2])[:, None, :] @ ctx.feats)[:, 0]
        gm = (((c[:, 1::2] - _sigmoid(z_enrich)) * coeffs[:, 1::2])[:, None, :] @ ctx.feats)[:, 0]
        return np.concatenate([gk, gm], axis=1)

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
    def render_masks(ctx: _VerbCtx, choices: np.ndarray) -> TokenMasks:
        """What ``render`` would emit for each row of ``choices``."""
        starts = choices[:, 0::2] != 0
        enriched = starts & (choices[:, 1::2] != 0)
        n_tokens = 3 * starts.sum(axis=1) + 4 * enriched.sum(axis=1)
        prefs = np.zeros((len(choices), len(GENRES)), dtype=bool)
        return TokenMasks(starts, enriched, prefs, n_tokens, TOKENS_PER_TEMPLATE_RECORD * len(ctx.feats))


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


def pref_feature_matrix(ctx: _VerbCtx, seg_choices: np.ndarray) -> np.ndarray:
    """(G, 8, 3) features for the preference heads of G traces, conditioned
    on their (G, n) segment choices: [bias, fraction of kept
    signal-eligible records in this genre, is this the top genre by that
    count]."""
    n_genres = len(GENRES)
    g = len(seg_choices)
    counted = (seg_choices != DROP) & ctx.sig_mask
    slots = (np.arange(g)[:, None] * n_genres + ctx.genre_idx)[counted]
    counts = np.bincount(slots, minlength=g * n_genres).reshape(g, n_genres).astype(np.float64)
    total = counts.sum(axis=1, keepdims=True)
    phi = np.ones((g, n_genres, N_PREF_FEATURES))
    phi[:, :, 1] = counts / np.where(total > 0, total, 1.0)  # an empty row stays 0
    top = counts.max(axis=1, keepdims=True)
    phi[:, :, 2] = (counts == top) & (counts > 0)
    return phi


class RewritePolicy:
    """The rewrite adapter; the same group surface as ``ActionPolicy``."""

    kind = "rewrite"
    n_params = N_SEGMENT_CHOICES * N_FEATURES + N_PREF_FEATURES
    params_type = RewritePolicyParams

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def make_ctx(self, history: UserHistory) -> _VerbCtx:
        return make_verb_ctx(history, self.catalog)

    @staticmethod
    def n_draws(ctx: _VerbCtx) -> int:
        return len(ctx.feats) + len(GENRES)

    @staticmethod
    def _split(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_seg = N_SEGMENT_CHOICES * N_FEATURES
        return params[:n_seg].reshape(N_SEGMENT_CHOICES, N_FEATURES), params[n_seg:]

    @staticmethod
    def _row_logprobs(w_seg: np.ndarray, ctx: _VerbCtx) -> np.ndarray:
        return _masked_row_logprobs(ctx.feats @ w_seg.T, ctx.merge_ok)

    def sample(self, params: np.ndarray, ctx: _VerbCtx, uniforms: np.ndarray) -> Trace:
        """One trace per row of ``uniforms`` (G, >= n_draws): n segment
        draws, then one per genre."""
        w_seg, w_pref = self._split(params)
        row_logp = self._row_logprobs(w_seg, ctx)
        cum = np.cumsum(np.exp(row_logp), axis=1)
        cum /= cum[:, -1:]
        n = len(row_logp)
        seg = (uniforms[:, :n, None] >= cum).sum(axis=2)
        z_pref = pref_feature_matrix(ctx, seg) @ w_pref
        prefs = (uniforms[:, n : n + len(GENRES)] < _sigmoid(z_pref)).astype(np.int64)
        logprobs = np.concatenate([row_logp[np.arange(n), seg], _bernoulli_logprobs(z_pref, prefs)], axis=1)
        return Trace(np.concatenate([seg, prefs], axis=1), logprobs)

    def _check(self, ctx: _VerbCtx, choices) -> np.ndarray:
        n = len(ctx.history.records)
        c = np.asarray(choices)
        if c.ndim != 2 or c.shape[1] != n + len(GENRES):
            raise ValueError(f"rewrite traces must have {n + len(GENRES)} decisions, got shape {c.shape}")
        bad = (c[:, :n] == MERGE_PREV) & ~ctx.merge_ok
        if bad.any():
            member, position = np.argwhere(bad)[0]
            raise ValueError(f"MERGE_PREV at position {position} of trace {member} is masked (previous item differs)")
        return c

    def logprobs(self, params: np.ndarray, ctx: _VerbCtx, choices) -> np.ndarray:
        """(G, n + 8) log-probs of the (G, n + 8) traces ``choices``."""
        c = self._check(ctx, choices)
        n = len(ctx.feats)
        w_seg, w_pref = self._split(params)
        row_logp = self._row_logprobs(w_seg, ctx)
        seg = c[:, :n]
        pref_lp = _bernoulli_logprobs(pref_feature_matrix(ctx, seg) @ w_pref, c[:, n:])
        return np.concatenate([row_logp[np.arange(n), seg], pref_lp], axis=1)

    def grad_accum(self, params: np.ndarray, ctx: _VerbCtx, choices, coeffs: np.ndarray) -> np.ndarray:
        """(G, n_params): row i is sum_t coeffs[i, t] * d(log p of decision t of trace i)/d(params)."""
        c = np.asarray(choices)
        n = len(ctx.feats)
        w_seg, w_pref = self._split(params)
        probs = np.exp(self._row_logprobs(w_seg, ctx))  # masked entries are exactly 0
        seg = c[:, :n]
        y = np.repeat(-probs[None], len(c), axis=0)
        y[np.arange(len(c))[:, None], np.arange(n), seg] += 1.0
        d_seg = (y * coeffs[:, :n, None]).transpose(0, 2, 1) @ ctx.feats
        phi = pref_feature_matrix(ctx, seg)
        b = c[:, n:].astype(np.float64)
        d_pref = ((b - _sigmoid(phi @ w_pref)) * coeffs[:, n:])[:, None, :] @ phi
        return np.concatenate([d_seg.reshape(len(c), -1), d_pref[:, 0]], axis=1)

    def greedy(self, params: np.ndarray, ctx: _VerbCtx) -> list[int]:
        w_seg, w_pref = self._split(params)
        seg = np.argmax(self._row_logprobs(w_seg, ctx), axis=1)
        prefs = (pref_feature_matrix(ctx, seg[None])[0] @ w_pref > 0).astype(np.int64)
        return seg.tolist() + prefs.tolist()

    def render(self, ctx: _VerbCtx, choices) -> VerbalizedContext:
        return render_rewrite(ctx.history, choices, self.catalog)

    @staticmethod
    def render_masks(ctx: _VerbCtx, choices: np.ndarray) -> TokenMasks:
        """What ``render`` would emit for each row of ``choices``: a segment
        opens at KEEP, KEEP_ENRICH, or a MERGE_PREV after a DROP; it gains a
        COUNT token when the next record merges into it."""
        n = len(ctx.feats)
        seg = choices[:, :n]
        after_drop = np.ones(seg.shape, dtype=bool)
        after_drop[:, 1:] = seg[:, :-1] == DROP
        merge = seg == MERGE_PREV
        enriched = seg == KEEP_ENRICH
        starts = (seg == KEEP) | enriched | (merge & after_drop)
        merged_into = np.zeros(seg.shape, dtype=bool)
        merged_into[:, :-1] = merge[:, 1:]
        prefs = choices[:, n:] != 0
        n_tokens = (3 * starts.sum(axis=1) + (starts & merged_into).sum(axis=1) + 4 * enriched.sum(axis=1)
                    + prefs.sum(axis=1))
        return TokenMasks(starts, enriched, prefs, n_tokens, TOKENS_PER_TEMPLATE_RECORD * n)


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
    choice); "template" and "zero_shot" are the fixed renderers, and
    "zero_shot" takes its ``HeuristicRules`` as params (None: the defaults).
    """
    if kind == "template":
        return render_template(history, catalog)
    if kind == "zero_shot":
        return heuristic_verbalize(history, catalog, params)
    if kind not in POLICIES:
        raise ValueError(f"unknown verbalizer kind {kind!r}")
    policy = POLICIES[kind](catalog)
    ctx = policy.make_ctx(history)
    return policy.render(ctx, policy.greedy(params.to_vector(), ctx))


# ---------------------------------------------------------------------------
# parameter files: one format for every policy, read through its adapter's
# ``params_type.ARRAYS``


def save_params(path, policies: dict, kind: str, params) -> None:
    """Write the params of a ``kind`` policy; ``policies`` maps the kinds the
    caller accepts to their adapters."""
    if kind not in policies:
        raise ValueError(f"unknown policy kind {kind!r}")
    arrays = {name: getattr(params, name).tolist() for name, _ in policies[kind].params_type.ARRAYS}
    payload = {"format_version": PARAMS_FORMAT_VERSION, "kind": kind, "arrays": arrays}
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_params(path, policies: dict):
    """(kind, params) of a params file whose kind is one of ``policies``.
    Any malformed file is a ValueError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON params file ({e})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a params file holds a JSON object, not {type(payload).__name__}")
    version = payload.get("format_version")
    if version != PARAMS_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported params format_version {version!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in policies:
        raise ValueError(f"{path}: unknown policy kind {kind!r}; expected one of {list(policies)}")
    params_type = policies[kind].params_type
    arrays = payload.get("arrays")
    if not isinstance(arrays, dict):
        raise ValueError(f"{path}: {kind} params have no 'arrays' object")
    values = {}
    for name, shape in params_type.ARRAYS:
        if name not in arrays:
            raise ValueError(f"{path}: {kind} params have no {name!r} array")
        try:
            values[name] = np.asarray(arrays[name], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path}: {kind} array {name!r} is not an array of numbers") from None
        if values[name].shape != shape:
            raise ValueError(f"{path}: {kind} array {name!r} has the wrong shape {values[name].shape}, expected {shape}")
    return kind, params_type(**values)


def save_policy_params(path, kind: str, params) -> None:
    save_params(path, POLICIES, kind, params)


def load_policy_params(path):
    """Returns (kind, params dataclass) for a saved verbalizer policy."""
    return load_params(path, POLICIES)
