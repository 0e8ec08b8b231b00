"""Evaluation of variants, per-seed training orchestration, and report emission.

The variants are the rows of ``config.VARIANTS``.  ``run_ablation`` walks
variants x seeds, training missing artifacts on demand, and ``emit_report``
writes the CSV/markdown summary with relative improvement over the base
variant (``config.BASE_VARIANT``) on discovery recall.
"""

from __future__ import annotations

import csv
import io
import logging
import os
from dataclasses import dataclass, replace
from typing import Callable

from .config import BASE_VARIANT, VARIANTS, GlobalConfig
from .domain import Catalog, EpisodeInstance, read_catalog, read_episodes
from .fsutil import atomic_write_text
from .grpo import train_stage1
from .oracle import oracle_predict
from .reasoner import (
    ReasonerPolicy,
    episode_candidate_features,
    load_reasoner_params,
    save_reasoner_params,
    train_stage2,
)
from .synthworld import DATA_FILES, gen_dataset
from .verbalizer import frozen_verbalize, load_policy_params, save_policy_params

log = logging.getLogger(__name__)


class EvaluationError(RuntimeError):
    pass


@dataclass
class Metrics:
    """recall1_discovery is None when the episode set has no discovery
    episodes -- undefined stays undefined rather than collapsing to 0 and
    corrupting relative-improvement math downstream."""

    recall1_overall: float
    recall1_discovery: float | None
    n_eval: int
    n_discovery: int
    mean_compression: float

    def to_dict(self) -> dict:
        return {
            "recall1_overall": self.recall1_overall,
            "recall1_discovery": self.recall1_discovery,
            "n_eval": self.n_eval,
            "n_discovery": self.n_discovery,
            "mean_compression": self.mean_compression,
        }


def _require_file(seed_dir: str | None, filename: str, variant: str) -> str:
    if seed_dir is None:
        raise EvaluationError(f"variant {variant!r} needs trained parameters; no artifact directory given")
    path = os.path.join(seed_dir, filename)
    if not os.path.exists(path):
        raise EvaluationError(
            f"variant {variant!r} needs {path}, which does not exist; "
            "train it first (verblab pipeline, train-verbalizer or train-reasoner)"
        )
    return path


def evaluate(
    variant: str,
    episodes: list[EpisodeInstance],
    catalog: Catalog,
    cfg: GlobalConfig,
    seed_dir: str | None = None,
) -> Metrics:
    """Greedy-decode each episode's context and score Recall@1."""
    spec = VARIANTS.get(variant)
    if spec is None:
        raise EvaluationError(f"unknown variant {variant!r}; known: {list(VARIANTS)}")
    if not episodes:
        raise EvaluationError("no evaluation episodes")

    vparams = cfg.verbalizer.heuristic_rules() if spec.verbalizer_kind == "zero_shot" else None
    if spec.verbalizer_file is not None:
        path = _require_file(seed_dir, spec.verbalizer_file, variant)
        kind, vparams = load_policy_params(path)
        if kind != spec.verbalizer_kind:
            raise EvaluationError(
                f"{path} holds {kind!r} parameters but variant {variant!r} needs {spec.verbalizer_kind!r}"
            )
    rparams = None
    if spec.reasoner_file is not None:
        rparams = load_reasoner_params(_require_file(seed_dir, spec.reasoner_file, variant))

    reasoner = ReasonerPolicy()
    hits = disc_hits = n_disc = 0
    ratio_sum = 0.0
    for ep in episodes:
        ctx = frozen_verbalize(spec.verbalizer_kind, vparams, ep.history, catalog)
        if rparams is None:
            pred = oracle_predict(ctx, ep.candidates, catalog, cfg.oracle)
        else:
            pred = reasoner.greedy(rparams.weights, episode_candidate_features(ctx, ep, catalog))[0]
        hit = pred == ep.target_index
        hits += hit
        if ep.is_discovery:
            n_disc += 1
            disc_hits += hit
        ratio_sum += ctx.compression_ratio
    n = len(episodes)
    return Metrics(
        recall1_overall=hits / n,
        recall1_discovery=(disc_hits / n_disc) if n_disc else None,
        n_eval=n,
        n_discovery=n_disc,
        mean_compression=ratio_sum / n,
    )


# ---------------------------------------------------------------------------
# the data step: the only code that reads dataset files


def ensure_dataset(cfg: GlobalConfig, seed: int, out_dir: str, force: bool = False) -> dict[str, str]:
    """Generate the world of ``seed`` under ``out_dir`` unless all its data
    files are already there (``force`` regenerates).  Returns {filename: path}."""
    paths = {name: os.path.join(out_dir, name) for name in DATA_FILES}
    if force or not all(os.path.exists(p) for p in paths.values()):
        log.info("seed %d: generating dataset under %s", seed, out_dir)
        gen_dataset(replace(cfg.world, master_seed=seed), out_dir)
    return paths


def load_split(cfg: GlobalConfig, seed: int, out_dir: str, split: str) -> tuple[Catalog, list[EpisodeInstance]]:
    """Ensure the world of ``seed`` under ``out_dir``, then decode its catalog
    and the episodes of one split ("train" or "eval")."""
    catalog_file, train_file, eval_file = DATA_FILES
    paths = ensure_dataset(cfg, seed, out_dir)
    episodes_file = {"train": train_file, "eval": eval_file}[split]
    return read_catalog(paths[catalog_file]), read_episodes(paths[episodes_file])


# ---------------------------------------------------------------------------
# per-seed artifact pipeline


@dataclass(frozen=True)
class VerbalizerTrainer:
    """Trains a Stage-1 artifact: a ``kind`` policy, optionally under another
    reward kind than the config's."""

    kind: str
    reward_kind: str | None = None

    def __call__(self, cfg: GlobalConfig, seed: int, catalog: Catalog, train_eps, deps, path: str, log_path: str):
        reward = cfg.reward if self.reward_kind is None else replace(cfg.reward, kind=self.reward_kind)
        params, rows = train_stage1(
            train_eps, self.kind, catalog, cfg.grpo_stage1, reward, seed,
            init_scale=cfg.verbalizer.init_scale, log_path=log_path,
        )
        save_policy_params(path, self.kind, params)
        return rows


@dataclass(frozen=True)
class ReasonerTrainer:
    """Trains a Stage-2 artifact on the contexts of a frozen ``verbalizer_kind``
    verbalizer, whose params file is the one dependency (the fixed template
    renderer has none)."""

    verbalizer_kind: str

    def __call__(self, cfg: GlobalConfig, seed: int, catalog: Catalog, train_eps, deps, path: str, log_path: str):
        vparams = None
        if deps:
            kind, vparams = load_policy_params(deps[0])
            if kind != self.verbalizer_kind:
                raise ValueError(f"{deps[0]} holds {kind!r} parameters, not {self.verbalizer_kind!r}")
        params, rows = train_stage2(
            train_eps, catalog, self.verbalizer_kind, vparams, cfg.grpo_stage2, seed,
            init_scale=cfg.reasoner_init_scale, log_path=log_path,
        )
        save_reasoner_params(path, params)
        return rows


@dataclass(frozen=True)
class ArtifactSpec:
    log_file: str  # training log written beside the artifact
    needs: tuple[str, ...]  # artifacts that must exist first
    # train(cfg, seed, catalog, train_eps, deps, path, log_path) trains and
    # writes the artifact and returns its log rows; deps are the paths of
    # ``needs``, in order
    train: Callable[..., list]


# Every trained file under a seed directory, in training order: an
# artifact's needs come before it.  No variant reads reasoner_action.json;
# it is there for ``verblab train-reasoner`` on an action verbalizer.
ARTIFACTS: dict[str, ArtifactSpec] = {
    "verbalizer_action.json": ArtifactSpec("log_stage1_action.csv", (), VerbalizerTrainer("action")),
    "verbalizer_rewrite.json": ArtifactSpec("log_stage1_rewrite.csv", (), VerbalizerTrainer("rewrite")),
    "verbalizer_rewrite_ranking.json": ArtifactSpec(
        "log_stage1_rewrite_ranking.csv", (), VerbalizerTrainer("rewrite", reward_kind="ranking")
    ),
    "reasoner_rewrite.json": ArtifactSpec(
        "log_stage2_rewrite.csv", ("verbalizer_rewrite.json",), ReasonerTrainer("rewrite")
    ),
    "reasoner_raw.json": ArtifactSpec("log_stage2_raw.csv", (), ReasonerTrainer("template")),
    "reasoner_action.json": ArtifactSpec(
        "log_stage2_action.csv", ("verbalizer_action.json",), ReasonerTrainer("action")
    ),
}


def artifact_trained_by(trainer) -> str:
    """The name of the ``ARTIFACTS`` entry whose trainer equals ``trainer``."""
    return next(name for name, spec in ARTIFACTS.items() if spec.train == trainer)


def train_artifact(
    name: str, cfg: GlobalConfig, seed: int, seed_dir: str, data: tuple[Catalog, list], deps
) -> tuple[str, str, list]:
    """Train the artifact ``name`` on ``data`` (the catalog and the train
    split) and write it and its log under ``seed_dir``; ``deps`` are the paths
    of its needs.  Returns (artifact path, log path, log rows)."""
    spec = ARTIFACTS[name]
    path, log_path = os.path.join(seed_dir, name), os.path.join(seed_dir, spec.log_file)
    return path, log_path, spec.train(cfg, seed, *data, list(deps), path, log_path)


def run_seed_pipeline(
    cfg: GlobalConfig,
    seed: int,
    seed_dir: str,
    variants=None,
    force: bool = False,
) -> dict[str, str]:
    """Generate data and train every artifact the variants need, under
    ``seed_dir``; existing artifacts are reused unless ``force``.  The train
    split is decoded only when an artifact is trained.

    The seed overrides the world's master seed, so each seed directory is a
    fully independent world + training run.  Returns {filename: path}.
    """
    variants = tuple(variants) if variants is not None else cfg.ablate.variants
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise EvaluationError(f"unknown variants {unknown}; known: {list(VARIANTS)}")
    paths = ensure_dataset(cfg, seed, seed_dir, force=force)

    needed = {f for v in variants for f in (VARIANTS[v].verbalizer_file, VARIANTS[v].reasoner_file) if f}
    for name, spec in reversed(ARTIFACTS.items()):
        if name in needed:
            needed.update(spec.needs)
    data = None
    for name, spec in ARTIFACTS.items():
        if name not in needed:
            continue
        path = os.path.join(seed_dir, name)
        if force or not os.path.exists(path):
            log.info("seed %d: training %s", seed, name)
            if data is None:
                data = load_split(cfg, seed, seed_dir, "train")
            train_artifact(name, cfg, seed, seed_dir, data, [paths[dep] for dep in spec.needs])
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# ablation table and report files


@dataclass
class ReportRow:
    variant: str
    seed: str  # str(seed number), or "mean" for the aggregate row
    recall1_overall: float
    recall1_discovery: float | None
    rel_improvement_pct: float | None  # None = undefined, inf = base at 0
    mean_compression: float


def _rel_improvement(value: float | None, base: float | None, is_base: bool) -> float | None:
    if is_base:
        return 0.0
    if value is None or base is None:
        return None
    if base == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return 100.0 * (value - base) / base


def run_ablation(cfg: GlobalConfig, out_dir: str, force: bool = False) -> list[ReportRow]:
    """Evaluate every configured variant on every configured seed.

    Missing artifacts are trained on demand (``force`` retrains everything).
    Rows come back in variant-major order followed by one "mean" row per
    variant; relative improvement is against the base variant's discovery
    recall (same seed, or mean vs mean).
    """
    variants = cfg.ablate.variants
    per_seed: dict[int, dict[str, Metrics]] = {}
    for seed in cfg.ablate.seeds:
        seed_dir = os.path.join(out_dir, f"seed_{seed}")
        run_seed_pipeline(cfg, seed, seed_dir, variants=variants, force=force)
        catalog, eval_eps = load_split(cfg, seed, seed_dir, "eval")
        per_seed[seed] = {v: evaluate(v, eval_eps, catalog, cfg, seed_dir) for v in variants}
        del catalog, eval_eps  # nothing decoded for this seed stays alive through the next one
        log.info("seed %d: evaluated %d variants", seed, len(variants))

    rows: list[ReportRow] = []
    for v in variants:
        for seed in cfg.ablate.seeds:
            m = per_seed[seed][v]
            base = per_seed[seed][BASE_VARIANT].recall1_discovery
            rows.append(
                ReportRow(
                    variant=v,
                    seed=str(seed),
                    recall1_overall=m.recall1_overall,
                    recall1_discovery=m.recall1_discovery,
                    rel_improvement_pct=_rel_improvement(m.recall1_discovery, base, v == BASE_VARIANT),
                    mean_compression=m.mean_compression,
                )
            )

    def seed_mean(values) -> float | None:
        vals = [x for x in values if x is not None]
        return sum(vals) / len(vals) if len(vals) == len(list(values)) and vals else None

    mean_disc = {
        v: seed_mean([per_seed[s][v].recall1_discovery for s in cfg.ablate.seeds]) for v in variants
    }
    for v in variants:
        ms = [per_seed[s][v] for s in cfg.ablate.seeds]
        rows.append(
            ReportRow(
                variant=v,
                seed="mean",
                recall1_overall=sum(m.recall1_overall for m in ms) / len(ms),
                recall1_discovery=mean_disc[v],
                rel_improvement_pct=_rel_improvement(mean_disc[v], mean_disc[BASE_VARIANT], v == BASE_VARIANT),
                mean_compression=sum(m.mean_compression for m in ms) / len(ms),
            )
        )
    return rows


REPORT_COLUMNS = ("variant", "seed", "recall1_overall", "recall1_discovery",
                  "rel_improvement_pct", "mean_compression")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "inf" if value == float("inf") else repr(value)
    return str(value)


def emit_report(rows: list[ReportRow], out_dir: str) -> dict[str, str]:
    """Write report.csv and report.md under ``out_dir``; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for r in rows:
        writer.writerow([
            r.variant, r.seed, _csv_cell(r.recall1_overall), _csv_cell(r.recall1_discovery),
            _csv_cell(r.rel_improvement_pct), _csv_cell(r.mean_compression),
        ])
    csv_path = os.path.join(out_dir, "report.csv")
    atomic_write_text(csv_path, buf.getvalue())

    def fmt(x, pct=False) -> str:
        if x is None:
            return "undefined"
        if x == float("inf"):
            return "inf"
        return f"{x:+.1f}" if pct else f"{x:.4f}"

    md = io.StringIO()
    md.write("# Ablation report\n\n")
    md.write("## Seed means\n\n")
    md.write("| variant | recall@1 overall | recall@1 discovery | rel. improvement (%) | mean compression |\n")
    md.write("|---|---|---|---|---|\n")
    for r in rows:
        if r.seed == "mean":
            md.write(
                f"| {r.variant} | {fmt(r.recall1_overall)} | {fmt(r.recall1_discovery)} "
                f"| {fmt(r.rel_improvement_pct, pct=True)} | {fmt(r.mean_compression)} |\n"
            )
    md.write("\n## Per-seed rows\n\n")
    md.write("| variant | seed | recall@1 overall | recall@1 discovery | rel. improvement (%) | mean compression |\n")
    md.write("|---|---|---|---|---|---|\n")
    for r in rows:
        if r.seed != "mean":
            md.write(
                f"| {r.variant} | {r.seed} | {fmt(r.recall1_overall)} | {fmt(r.recall1_discovery)} "
                f"| {fmt(r.rel_improvement_pct, pct=True)} | {fmt(r.mean_compression)} |\n"
            )
    md_path = os.path.join(out_dir, "report.md")
    atomic_write_text(md_path, md.getvalue())
    return {"report.csv": csv_path, "report.md": md_path}


def read_report(path) -> list[ReportRow]:
    """Parse report.csv back into rows (inverse of emit_report for tests)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != REPORT_COLUMNS:
            raise EvaluationError(f"{path}: unexpected report header {reader.fieldnames}")
        for rec in reader:
            rows.append(
                ReportRow(
                    variant=rec["variant"],
                    seed=rec["seed"],
                    recall1_overall=float(rec["recall1_overall"]),
                    recall1_discovery=float(rec["recall1_discovery"]) if rec["recall1_discovery"] else None,
                    rel_improvement_pct=(
                        float(rec["rel_improvement_pct"]) if rec["rel_improvement_pct"] else None
                    ),
                    mean_compression=float(rec["mean_compression"]),
                )
            )
    return rows
