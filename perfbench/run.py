"""verblab benchmark: three GRPO/pipeline workloads against the package's public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload stage1_rewrite --seed 1 --seconds 20 --trace 0

Each workload is one closed-loop, single-client batch job in this process:
set-up (repeated, median reported), then repetitions of one fixed job until
``--seconds`` have passed, then output checks.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repetitions
and prints per-layer metrics taken from spans around calls into each
verblab module.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from statistics import median

import benchlib
from benchlib import Patches, Tracer, percentile, tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Stop adding repetitions after this many seconds of timed phase, whatever
# the other stopping rules say, so a run always ends well inside 180 s.
HARD_CAP_S = 110.0

MODULES = ("rng", "domain", "synthworld", "verbalizer", "oracle", "grpo", "reasoner",
           "evaluation", "config", "cli")
LAYERS = ("rng", "synthworld", "domain", "verbalizer", "oracle", "grpo", "reasoner", "evaluation")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rollouts_per_s", "rollouts/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("gen_episodes_per_s", "episodes/s"),
    ("read_episodes_per_s", "episodes/s"),
    ("eval_episodes_per_s", "episodes/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("rng.substreams", "count"), ("rng.draws", "count"), ("rng.self_s", "s"),
    ("synthworld.episodes", "count"), ("synthworld.self_s", "s"),
    ("domain.encode_s", "s"), ("domain.decode_s", "s"),
    ("domain.bytes_written", "B"), ("domain.bytes_read", "B"), ("domain.self_s", "s"),
    *((f"verbalizer.{op}.{kind}", unit)
      for op in ("sample", "logprobs", "grad", "render", "ctx_build", "frozen")
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("verbalizer.render.tokens", "count"), ("verbalizer.self_s", "s"),
    ("oracle.score.calls", "count"), ("oracle.score.self_s", "s"),
    ("oracle.tokens_scored", "count"), ("oracle.self_s", "s"),
    ("grpo.iterations", "count"), ("grpo.rollouts", "count"), ("grpo.update.self_s", "s"),
    ("grpo.surrogate_passes", "count"), ("grpo.zero_adv_group_frac", "ratio"),
    ("grpo.final_r_acc", "reward"), ("grpo.self_s", "s"),
    ("reasoner.features.calls", "count"), ("reasoner.features.self_s", "s"),
    ("reasoner.policy.self_s", "s"), ("reasoner.ctx_cache_hit_frac", "ratio"), ("reasoner.self_s", "s"),
    ("evaluation.evaluate.calls", "count"), ("evaluation.evaluate.self_s", "s"),
    ("evaluation.recall1_discovery", "recall"),
    ("evaluation.artifacts_trained", "count"), ("evaluation.report.self_s", "s"),
    ("evaluation.self_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.setup_s", "s"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"), ("trace.spans", "count"),
)


def _import_verblab():
    if not os.path.isdir(os.path.join(SRC, "verblab")):
        raise SystemExit(f"benchmark: no verblab sources under {SRC}")
    sys.path.insert(0, SRC)
    vl = importlib.import_module("verblab")
    if not os.path.abspath(vl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported verblab from {vl.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"verblab.{name}") for name in MODULES}
    return argparse.Namespace(**mods)


# ---------------------------------------------------------------------------
# untraced probes: a handful of coarse wrappers for the end-to-end metrics


# eval_episodes_per_s counts evaluate() on the fixed renderers only: their
# cost per episode does not depend on how far a short training run got, which
# varies with the seed.
TIMED_EVAL_VARIANTS = ("template", "zero_shot")

# End-to-end rates: metric name -> (work counter, seconds counter) on Probe.
RATES = {
    "rollouts_per_s": ("rollouts", "train_s"),
    "gen_episodes_per_s": ("gen_eps", "gen_s"),
    "read_episodes_per_s": ("read_eps", "read_s"),
    "eval_episodes_per_s": ("eval_eps", "eval_s"),
}


class Probe:
    """Times coarse calls (one per training iteration at most) for the
    end-to-end metrics; installed for the whole run.  Each rate is reported
    as the median over segments (a set-up, a repetition, an evaluation
    round), so one slow stretch of a shared machine moves it less."""

    def __init__(self):
        self.iter_ms: list[float] = []
        self.train_s = 0.0
        self.rollouts = 0
        self.gen_s = 0.0
        self.gen_eps = 0
        self.read_s = 0.0
        self.read_eps = 0
        self.eval_s = 0.0
        self.eval_eps = 0
        self.evals: list[tuple[str, int, object]] = []
        self.rates: dict[str, list[float]] = {name: [] for name in RATES}
        self._last_mark = None

    @contextlib.contextmanager
    def segment(self):
        """Record one sample of every rate whose calls ran inside the block."""
        before = {name: (getattr(self, w), getattr(self, t)) for name, (w, t) in RATES.items()}
        yield
        for name, (w, t) in RATES.items():
            seconds = getattr(self, t) - before[name][1]
            if seconds > 0:
                self.rates[name].append((getattr(self, w) - before[name][0]) / seconds)

    def install(self, vl, patches: Patches) -> None:
        patches.function(vl.grpo, "train_stage1", lambda f: self._train(f, 3))
        patches.function(vl.reasoner, "train_stage2", lambda f: self._train(f, 4))
        patches.function(vl.grpo, "grpo_update", self._update)
        patches.function(vl.synthworld, "gen_dataset", self._gen)
        patches.function(vl.domain, "read_catalog", self._read)
        patches.function(vl.domain, "read_episodes", self._read)
        patches.function(vl.evaluation, "evaluate", self._evaluate)

    def _train(self, fn, cfg_index):
        def wrapper(*args, **kwargs):
            cfg = args[cfg_index] if len(args) > cfg_index else kwargs["cfg"]
            t0 = time.perf_counter()
            self._last_mark = t0
            try:
                params, rows = fn(*args, **kwargs)
            finally:
                self._last_mark = None
            self.train_s += time.perf_counter() - t0
            self.rollouts += len(rows) * cfg.batch_episodes * cfg.g
            return params, rows

        return wrapper

    def _update(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = time.perf_counter()
            if self._last_mark is not None:
                self.iter_ms.append((now - self._last_mark) * 1000.0)
            self._last_mark = now
            return result

        return wrapper

    def _gen(self, fn):
        def wrapper(cfg, out_dir):
            t0 = time.perf_counter()
            paths = fn(cfg, out_dir)
            self.gen_s += time.perf_counter() - t0
            self.gen_eps += cfg.n_train_episodes + cfg.n_eval_episodes
            return paths

        return wrapper

    def _read(self, fn):
        def wrapper(path):
            t0 = time.perf_counter()
            result = fn(path)
            self.read_s += time.perf_counter() - t0
            if isinstance(result, list):
                self.read_eps += len(result)
            return result

        return wrapper

    def _evaluate(self, fn):
        def wrapper(variant, episodes, catalog, cfg, seed_dir=None):
            t0 = time.perf_counter()
            metrics = fn(variant, episodes, catalog, cfg, seed_dir)
            if variant in TIMED_EVAL_VARIANTS:
                self.eval_s += time.perf_counter() - t0
                self.eval_eps += len(episodes)
            self.evals.append((variant, len(episodes), metrics))
            return metrics

        return wrapper


# ---------------------------------------------------------------------------
# traced runs: spans at every public call into each layer


def _file_bytes(key, index):
    def after(tracer, args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        tracer.count(key, os.path.getsize(path))

    return after


def _token_count(key, context_of):
    def after(tracer, args, kwargs, result):
        tracer.count(key, len(context_of(args, result).tokens))

    return after


def _update_counts(tracer, args, kwargs, result):
    groups = args[3] if len(args) > 3 else kwargs["groups"]
    tracer.count("grpo.iterations")
    tracer.count("grpo.groups", len(groups))
    tracer.count("grpo.rollouts", sum(len(g.members) for g in groups))
    tracer.count("grpo.zero_adv_groups", sum(all(m.advantage == 0.0 for m in g.members) for g in groups))


def install_tracer(vl, patches: Patches, tr: Tracer) -> None:
    """Wrap each layer's public calls; hot leaf calls are timed in bulk."""
    P = patches
    # rng: substream derivation and batched draws are leaves; every draw is counted
    P.function(vl.rng, "derive_rng", lambda f: tr.leaf("rng.derive", f))
    P.method(vl.rng.Rng, "randoms", lambda f: tr.leaf("rng.randoms", f))
    P.method(vl.rng.Rng, "next_u64", lambda f: tr.counter("rng.draws", f))
    # synthworld
    P.function(vl.synthworld, "gen_dataset", lambda f: tr.span("synthworld.gen", f))
    P.function(vl.synthworld, "gen_split", lambda f: tr.span(
        "synthworld.split", f, after=lambda t, a, k, r: t.count("synthworld.episodes", len(r))))
    # domain codecs, including their file I/O
    P.function(vl.domain, "write_catalog", lambda f: tr.span("domain.encode", f, _file_bytes("domain.bytes_written", 1)))
    P.function(vl.domain, "write_episodes", lambda f: tr.span("domain.encode", f, _file_bytes("domain.bytes_written", 1)))
    P.function(vl.domain, "read_catalog", lambda f: tr.span("domain.decode", f, _file_bytes("domain.bytes_read", 0)))
    P.function(vl.domain, "read_episodes", lambda f: tr.span("domain.decode", f, _file_bytes("domain.bytes_read", 0)))
    # verbalizer
    for cls in (vl.verbalizer.ActionPolicy, vl.verbalizer.RewritePolicy):
        P.method(cls, "sample", lambda f: tr.span("verbalizer.sample", f))
        P.method(cls, "logprobs", lambda f: tr.leaf("verbalizer.logprobs", f))
        P.method(cls, "grad_accum", lambda f: tr.leaf("verbalizer.grad", f))
    for name in ("render_template", "render_actions", "render_rewrite", "heuristic_verbalize"):
        P.function(vl.verbalizer, name, lambda f: tr.leaf(
            "verbalizer.render", f, _token_count("verbalizer.render.tokens", lambda a, r: r)))
    P.function(vl.verbalizer, "make_verb_ctx", lambda f: tr.leaf("verbalizer.ctx_build", f))
    P.function(vl.verbalizer, "frozen_verbalize", lambda f: tr.span("verbalizer.frozen", f))
    # oracle
    P.function(vl.oracle, "oracle_scores", lambda f: tr.leaf(
        "oracle.score", f, _token_count("oracle.tokens_scored", lambda a, r: a[0])))
    P.function(vl.oracle, "stage1_reward", lambda f: tr.span("oracle.reward", f))
    P.function(vl.oracle, "oracle_predict", lambda f: tr.span("oracle.predict", f))
    # grpo
    P.function(vl.grpo, "train_stage1", lambda f: _artifact_counted(tr, tr.span("grpo.train", f)))
    P.function(vl.grpo, "grpo_update", lambda f: tr.span("grpo.update", f, _update_counts))
    P.function(vl.grpo, "_surrogate_pass", lambda f: tr.counter("grpo.surrogate_passes", f))
    # reasoner
    P.function(vl.reasoner, "train_stage2", lambda f: _artifact_counted(tr, _cache_counted(tr, f)))
    P.function(vl.reasoner, "episode_candidate_features", lambda f: tr.leaf("reasoner.features", f))
    for name in ("sample", "logprobs", "grad_accum"):
        P.method(vl.reasoner.ReasonerPolicy, name, lambda f: tr.leaf("reasoner.policy", f))
    # evaluation and orchestration
    P.function(vl.evaluation, "evaluate", lambda f: tr.span("evaluation.evaluate", f))
    P.function(vl.evaluation, "emit_report", lambda f: tr.span("evaluation.report", f))
    P.function(vl.evaluation, "run_seed_pipeline", lambda f: tr.span("evaluation.pipeline", f))
    P.function(vl.evaluation, "run_ablation", lambda f: tr.span("evaluation.ablation", f))


def _cache_counted(tr: Tracer, fn):
    """train_stage2 as a span, counting context-cache slots and misses (a
    miss is one candidate-feature build inside the call)."""
    inner = tr.span("reasoner.train", fn)

    def wrapper(*args, **kwargs):
        cfg = args[4] if len(args) > 4 else kwargs["cfg"]
        before = tr.leaf_calls.get("reasoner.features", 0)
        params, rows = inner(*args, **kwargs)
        tr.count("reasoner.ctx_slots", len(rows) * cfg.batch_episodes)
        tr.count("reasoner.ctx_misses", tr.leaf_calls.get("reasoner.features", 0) - before)
        return params, rows

    return wrapper


def _artifact_counted(tr: Tracer, fn):
    """Count training runs started by the evaluation pipeline."""

    def wrapper(*args, **kwargs):
        if tr.inside("evaluation.pipeline"):
            tr.count("evaluation.artifacts_trained")
        return fn(*args, **kwargs)

    return wrapper


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    calls, own = summary["calls"], summary["self_s"]

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    m = {
        "rng.substreams": calls.get("rng.derive", 0),
        "rng.draws": counts.get("rng.draws", 0),
        "synthworld.episodes": counts.get("synthworld.episodes", 0),
        "domain.encode_s": own.get("domain.encode", 0.0),
        "domain.decode_s": own.get("domain.decode", 0.0),
        "domain.bytes_written": counts.get("domain.bytes_written", 0),
        "domain.bytes_read": counts.get("domain.bytes_read", 0),
        "verbalizer.render.tokens": counts.get("verbalizer.render.tokens", 0),
        "oracle.score.calls": calls.get("oracle.score", 0),
        "oracle.score.self_s": own.get("oracle.score", 0.0),
        "oracle.tokens_scored": counts.get("oracle.tokens_scored", 0),
        "grpo.iterations": counts.get("grpo.iterations", 0),
        "grpo.rollouts": counts.get("grpo.rollouts", 0),
        "grpo.update.self_s": own.get("grpo.update", 0.0),
        "grpo.surrogate_passes": counts.get("grpo.surrogate_passes", 0),
        "reasoner.features.calls": calls.get("reasoner.features", 0),
        "reasoner.features.self_s": own.get("reasoner.features", 0.0),
        "reasoner.policy.self_s": own.get("reasoner.policy", 0.0),
        "evaluation.evaluate.calls": calls.get("evaluation.evaluate", 0),
        "evaluation.evaluate.self_s": own.get("evaluation.evaluate", 0.0),
        "evaluation.artifacts_trained": counts.get("evaluation.artifacts_trained", 0),
        "evaluation.report.self_s": own.get("evaluation.report", 0.0),
    }
    for op in ("sample", "logprobs", "grad", "render", "ctx_build", "frozen"):
        m[f"verbalizer.{op}.calls"] = calls.get(f"verbalizer.{op}", 0)
        m[f"verbalizer.{op}.self_s"] = own.get(f"verbalizer.{op}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    min_iters: int  # GRPO iterations timed per run, at least; fixes the tail percentile


WORKLOADS = {
    "stage1_rewrite": Workload("stage1_rewrite", min_iters=100),
    "stage2_reasoner": Workload("stage2_reasoner", min_iters=1000),
    "ablate_2seed": Workload("ablate_2seed", min_iters=300),
}

SETUP_REPS = 3  # set-ups per run; setup_s is their median
# Repetitions per run, at least: the output digest of each is compared with the first.
MIN_REPS = 2
STAGE1_ITERS = 40  # GRPO iterations per stage1_rewrite repetition
STAGE2_ITERS = 300  # GRPO iterations per stage2_reasoner repetition
STAGE2_TRAIN = 256  # stage2 train split: 16 batches, far below 16 x 300 slots per repetition
ABLATE_ITERS = {"grpo_stage1": 10, "grpo_stage2": 60}
HEADLINE = {
    "stage1_rewrite": "rewrite",
    "stage2_reasoner": "raw_trained_reasoner",
    "ablate_2seed": "rewrite_trained_reasoner",
}
EVAL_ROUNDS = 5  # timed evaluation rounds in the stage workloads' checks; eval_episodes_per_s is their median
ORACLE_SAMPLE = 24  # eval episodes per context kind for the brute-force oracle check


class Run:
    """State of one benchmark invocation: config, data, operation tallies."""

    def __init__(self, vl, wl: Workload, seed: int, work: str):
        self.vl = vl
        self.wl = wl
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        cfg = vl.config.default_config()
        world_seed = seed % (1 << 64)
        if wl.name == "stage2_reasoner":
            cfg.world = replace(cfg.world, n_train_episodes=STAGE2_TRAIN, master_seed=world_seed)
            cfg.grpo_stage2 = replace(cfg.grpo_stage2, iterations=STAGE2_ITERS)
        else:
            cfg.world = replace(cfg.world, master_seed=world_seed)
            cfg.grpo_stage1 = replace(cfg.grpo_stage1, iterations=STAGE1_ITERS)
        self.cfg = cfg
        first = seed % ((1 << 64) - 1)
        self.ablate_doc = {
            "ablate": {"seeds": [first, first + 1]},
            **{k: {"iterations": v} for k, v in ABLATE_ITERS.items()},
        }
        self.catalog = self.train_eps = self.eval_eps = None
        self.cfg_path = self.data_dir = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    # ---- set-up --------------------------------------------------------

    def setup_once(self, k: int) -> str:
        """One set-up: a fresh interpreter importing the package, the config,
        and the dataset generated and read back.  For ablate_2seed that is
        the pipeline's first seed, kept to check that the pipeline
        regenerates the same files.  Returns the dataset digest."""
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", "import verblab.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        vl = self.vl
        world = self.cfg.world
        if self.wl.name == "ablate_2seed":
            self.cfg_path = os.path.join(self.work, "config.json")
            with open(self.cfg_path, "w", encoding="utf-8") as fh:
                json.dump(self.ablate_doc, fh)
            world = replace(vl.config.load_config(self.cfg_path).world, master_seed=self.ablate_doc["ablate"]["seeds"][0])
        self.data_dir = os.path.join(self.work, f"data_{k}")
        paths = vl.synthworld.gen_dataset(world, self.data_dir)
        self.catalog = vl.domain.read_catalog(paths["catalog.json"])
        self.train_eps = vl.domain.read_episodes(paths["train.jsonl"])
        self.eval_eps = vl.domain.read_episodes(paths["eval.jsonl"])
        return tree_digest(self.data_dir)

    # ---- one repetition of the job ---------------------------------------

    def rep(self, rep_dir: str):
        vl, cfg = self.vl, self.cfg
        os.makedirs(rep_dir)
        if self.wl.name == "stage1_rewrite":
            params, rows = vl.grpo.train_stage1(
                self.train_eps, "rewrite", self.catalog, cfg.grpo_stage1, cfg.reward, cfg.world.master_seed,
                init_scale=cfg.verbalizer.init_scale, log_path=os.path.join(rep_dir, "log_stage1_rewrite.csv"),
            )
            vl.verbalizer.save_policy_params(os.path.join(rep_dir, "verbalizer_rewrite.json"), "rewrite", params)
            return params, rows
        if self.wl.name == "stage2_reasoner":
            params, rows = vl.reasoner.train_stage2(
                self.train_eps, self.catalog, "template", None, cfg.grpo_stage2, cfg.world.master_seed,
                init_scale=cfg.reasoner_init_scale, log_path=os.path.join(rep_dir, "log_stage2_raw.csv"),
            )
            vl.reasoner.save_reasoner_params(os.path.join(rep_dir, "reasoner_raw.json"), params)
            return params, rows
        workers = str(min(2, os.cpu_count() or 1))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = vl.cli.main(["--config", self.cfg_path, "--out", rep_dir, "--workers", workers, "pipeline"])
        if rc != 0:
            raise RuntimeError(f"verblab pipeline exited with {rc}")
        return None

    # ---- output checks ---------------------------------------------------

    def check_metrics(self, variant: str, n_expected: int, m) -> None:
        in_unit = [m.recall1_overall] + ([m.recall1_discovery] if m.recall1_discovery is not None else [])
        ok = (all(0.0 <= x <= 1.0 for x in in_unit) and m.n_eval == n_expected
              and 0 <= m.n_discovery <= m.n_eval and math.isfinite(m.mean_compression)
              and m.mean_compression >= 0.0)
        self.check(ok, f"metrics of {variant}: {m.to_dict()} (expected n_eval {n_expected})")

    def check_oracle(self, episodes, catalog, weights, rewrite_params=None) -> None:
        """oracle_scores against a brute-force token_weight sum, on template
        and zero-shot contexts (the latter carry GENRE and TAG tokens), plus
        greedy rewrite contexts when a rewrite policy was trained."""
        vl = self.vl
        oracle = vl.oracle
        pairs = [(vl.verbalizer.render_template(ep.history, catalog), ep) for ep in episodes]
        pairs += [(vl.verbalizer.heuristic_verbalize(ep.history, catalog), ep) for ep in episodes]
        if rewrite_params is not None:
            pairs += [(vl.verbalizer.frozen_verbalize("rewrite", rewrite_params, ep.history, catalog), ep)
                      for ep in episodes]
        for ctx, ep in pairs:
            fast = oracle.oracle_scores(ctx, ep.candidates, catalog, weights)
            brute = [sum(oracle.token_weight(t, catalog.meta(c), weights) for t in ctx.tokens)
                     for c in ep.candidates]
            ok = all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(fast, brute))
            self.check(ok and len(fast) == len(brute), f"oracle_scores differs from brute force on user {ep.history.user_id}")

    def check_stage(self, last, rep_dir: str, probe: Probe) -> float | None:
        """Checks on a stage workload's last repetition; returns headline recall."""
        vl, cfg = self.vl, self.cfg
        params, _rows = last
        vec = params.to_vector()
        if self.wl.name == "stage1_rewrite":
            kind, loaded = vl.verbalizer.load_policy_params(os.path.join(rep_dir, "verbalizer_rewrite.json"))
            self.check(kind == "rewrite", f"saved verbalizer has kind {kind!r}")
        else:
            loaded = vl.reasoner.load_reasoner_params(os.path.join(rep_dir, "reasoner_raw.json"))
        back = loaded.to_vector()
        self.check(back.shape == vec.shape and bool((back == vec).all()) and bool(abs(back).max() < math.inf),
                   "saved params do not round-trip or are not finite")
        for _ in range(EVAL_ROUNDS):
            with probe.segment():
                results = [(v, vl.evaluation.evaluate(v, self.eval_eps, self.catalog, cfg, rep_dir))
                           for v in TIMED_EVAL_VARIANTS]
            for variant, m in results:
                self.check_metrics(variant, len(self.eval_eps), m)
        variant = HEADLINE[self.wl.name]  # the trained model, evaluated once as a check
        m = vl.evaluation.evaluate(variant, self.eval_eps, self.catalog, cfg, rep_dir)
        self.check_metrics(variant, len(self.eval_eps), m)
        headline = m.recall1_discovery
        self.check_oracle(self.eval_eps[:ORACLE_SAMPLE], self.catalog, cfg.oracle,
                          params if self.wl.name == "stage1_rewrite" else None)
        return headline

    def check_ablate(self, rep_dir: str, evals) -> float | None:
        vl = self.vl
        cfg = vl.config.load_config(self.cfg_path)
        seeds = cfg.ablate.seeds
        for seed in seeds:
            seed_dir = os.path.join(rep_dir, f"seed_{seed}")
            for fname in sorted(os.listdir(seed_dir)):
                path = os.path.join(seed_dir, fname)
                copy = os.path.join(self.work, "roundtrip.json")
                if fname.startswith("verbalizer_"):
                    kind, p = vl.verbalizer.load_policy_params(path)
                    vl.verbalizer.save_policy_params(copy, kind, p)
                elif fname.startswith("reasoner_"):
                    p = vl.reasoner.load_reasoner_params(path)
                    vl.reasoner.save_reasoner_params(copy, p)
                else:
                    continue
                vec = p.to_vector()
                with open(path, "rb") as a, open(copy, "rb") as b:
                    same = a.read() == b.read()
                self.check(same and bool((abs(vec) < math.inf).all()), f"{path} does not round-trip or is not finite")
        self.check(len(evals) == len(seeds) * len(cfg.ablate.variants),
                   f"expected {len(seeds) * len(cfg.ablate.variants)} evaluate calls, saw {len(evals)}")
        for variant, _n, m in evals:
            self.check_metrics(variant, cfg.world.n_eval_episodes, m)
        rows = vl.evaluation.read_report(os.path.join(rep_dir, "report.csv"))
        expect = {(v, s) for v in cfg.ablate.variants for s in [*map(str, seeds), "mean"]}
        self.check({(r.variant, r.seed) for r in rows} == expect and len(rows) == len(expect),
                   "report.csv rows do not match variants x seeds")
        per_seed = [(r.variant, r.recall1_overall, r.recall1_discovery) for r in rows if r.seed != "mean"]
        seen = sorted((v, m.recall1_overall, m.recall1_discovery) for v, _n, m in evals)
        self.check(sorted(per_seed) == seen, "report.csv per-seed rows differ from the evaluate results")
        headline = next((r.recall1_discovery for r in rows
                         if r.seed == "mean" and r.variant == HEADLINE["ablate_2seed"]), None)
        for name in vl.evaluation.DATA_FILES:
            with open(os.path.join(self.data_dir, name), "rb") as a, \
                    open(os.path.join(rep_dir, f"seed_{seeds[0]}", name), "rb") as b:
                self.check(a.read() == b.read(), f"pipeline's {name} for seed {seeds[0]} differs from gen_dataset's")
        catalog = vl.domain.read_catalog(os.path.join(rep_dir, f"seed_{seeds[0]}", "catalog.json"))
        eps = vl.domain.read_episodes(os.path.join(rep_dir, f"seed_{seeds[0]}", "eval.jsonl"))[:ORACLE_SAMPLE]
        _kind, vparams = vl.verbalizer.load_policy_params(
            os.path.join(rep_dir, f"seed_{seeds[0]}", "verbalizer_rewrite.json"))
        self.check_oracle(eps, catalog, cfg.oracle, vparams)
        return headline

    def final_r_acc(self, rep_dir: str) -> float:
        """Mean r_acc over the last tenth of the repetition's training log(s)."""
        vl = self.vl
        logs = []
        for dirpath, _dirs, files in os.walk(rep_dir):
            for f in files:
                if f.startswith("log_stage1_") or (self.wl.name == "stage2_reasoner" and f.startswith("log_stage2_")):
                    logs.append(os.path.join(dirpath, f))
        vals = []
        for path in sorted(logs):
            rows = vl.grpo.read_train_log(path)
            tail = rows[len(rows) - max(1, len(rows) // 10):]
            vals.append(sum(r.mean_r_acc for r in tail) / len(tail))
        return sum(vals) / len(vals)


# ---------------------------------------------------------------------------
# running one workload


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, bool]:
    vl = _import_verblab()
    wl = WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    modules = [m for name, m in sys.modules.items() if name == "verblab" or name.startswith("verblab.")]
    try:
        with Patches(modules) as base:
            probe = Probe()
            probe.install(vl, base)
            state = Run(vl, wl, seed, work)
            return _measure(vl, wl, state, probe, modules, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(vl, wl, state: Run, probe: Probe, modules, seconds, trace):
    info: dict = {"workload": wl.name, "seed": state.seed, "trace": int(trace)}

    # set-up: repeated untraced (median reported), or once under the tracer
    setup_tracer = Tracer()
    setup_walls, data_digests = [], []
    for k in range(1 if trace else SETUP_REPS):
        with Patches(modules) as p:
            if trace:
                install_tracer(vl, p, setup_tracer)
            with probe.segment():
                t0 = time.perf_counter()
                data_digests.append(state.setup_once(k))
                setup_walls.append(time.perf_counter() - t0)
    for d in data_digests:
        state.check(d == data_digests[0], "dataset digest differs between set-ups")

    # timed phase: repetitions of one job; with tracing, untraced and traced alternate
    rep_tracer = Tracer()
    walls, traced_walls, digests = [], [], []
    cpu_traced = 0.0
    n_evals = len(probe.evals)
    t_start = time.perf_counter()
    while True:
        i = len(digests)
        traced_now = trace and i % 2 == 1
        rep_dir = os.path.join(state.work, f"rep_{i}")
        with Patches(modules) as p:
            if traced_now:
                install_tracer(vl, p, rep_tracer)
            c0 = benchlib.cpu_seconds()
            if traced_now:
                t0 = time.perf_counter()
                last = state.rep(rep_dir)
                traced_walls.append(time.perf_counter() - t0)
                cpu_traced += benchlib.cpu_seconds() - c0
            else:
                with probe.segment():
                    t0 = time.perf_counter()
                    last = state.rep(rep_dir)
                    walls.append(time.perf_counter() - t0)
        digests.append(tree_digest(rep_dir))
        elapsed = time.perf_counter() - t_start
        if trace:
            enough = i % 2 == 1
            step = median(walls) + median(traced_walls) if traced_walls else 0.0
        else:
            enough = i + 1 >= MIN_REPS and len(probe.iter_ms) >= wl.min_iters
            step = median(walls)
        if (enough and elapsed + step > seconds) or elapsed > HARD_CAP_S:
            break
    for d in digests:
        state.check(d == digests[0], "output digest differs between repetitions")
    info["digest"] = digests[0]
    info["repetitions"] = len(digests)
    iter_ms = list(probe.iter_ms)

    # output checks, outside the timed phase
    if wl.name == "ablate_2seed":
        first_rep = os.path.join(state.work, "rep_0")
        evals = probe.evals[n_evals:n_evals + len(state.ablate_doc["ablate"]["seeds"]) * len(vl.config.ALL_VARIANTS)]
        headline = state.check_ablate(first_rep, evals)
    else:
        headline = state.check_stage(last, rep_dir, probe)
    state.check(headline is not None, "no discovery episodes: headline recall undefined")
    info["final_r_acc"] = state.final_r_acc(rep_dir)
    info["recall1_discovery"] = headline
    info["machine"] = benchlib.machine_facts()

    if trace:
        metrics = _trace_metrics(state, setup_tracer, rep_tracer, setup_walls[0], walls, traced_walls, cpu_traced)
        metrics["grpo.final_r_acc"] = info["final_r_acc"]
        metrics["evaluation.recall1_discovery"] = headline if headline is not None else 0.0
        spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{state.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for phase, tr in (("setup", setup_tracer), ("timed", rep_tracer)):
                fh.write(json.dumps({"phase": phase}) + "\n")
                tr.write(fh)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
        units = dict(PER_LAYER)
    else:
        tail_p = benchlib.tail_percentile(wl.min_iters)
        info["iter_samples"] = len(iter_ms)
        info["iter_ms_tail_percentile"] = tail_p
        metrics = {
            "setup_s": median(setup_walls),
            "wall_s": median(walls),
            "iter_ms_p50": median(iter_ms),
            "iter_ms_tail": percentile(iter_ms, tail_p),
            "peak_rss_mb": benchlib.peak_rss_mb(),
            **{name: median(samples) for name, samples in probe.rates.items()},
        }
        units = dict(END_TO_END)
    info["problems"] = state.problems
    result = {
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info, state.failed == 0


def _trace_metrics(state, setup_tr: Tracer, rep_tr: Tracer, setup_wall, walls, traced_walls, cpu_traced):
    n = len(traced_walls)
    setup_m = layer_metrics(setup_tr.summary(), setup_tr.counts)
    rep_m = layer_metrics(rep_tr.summary(), rep_tr.counts)
    m = {k: setup_m[k] + rep_m[k] / n for k in setup_m}
    counts = {k: setup_tr.counts.get(k, 0) + rep_tr.counts.get(k, 0) / n
              for k in set(setup_tr.counts) | set(rep_tr.counts)}
    groups = counts.get("grpo.groups", 0)
    m["grpo.zero_adv_group_frac"] = counts.get("grpo.zero_adv_groups", 0) / groups if groups else 0.0
    slots = counts.get("reasoner.ctx_slots", 0)
    m["reasoner.ctx_cache_hit_frac"] = 1.0 - counts.get("reasoner.ctx_misses", 0) / slots if slots else 0.0
    m["process.cpu_s"] = cpu_traced / n
    traced_wall = sum(traced_walls) / n
    setup_self = sum(setup_m[f"{layer}.self_s"] for layer in LAYERS)
    rep_self = sum(rep_m[f"{layer}.self_s"] for layer in LAYERS) / n
    state.check(setup_self <= setup_wall, f"set-up layer self times {setup_self:.4f}s exceed {setup_wall:.4f}s")
    state.check(rep_self <= traced_wall, f"layer self times {rep_self:.4f}s exceed traced wall {traced_wall:.4f}s")
    m["trace.setup_s"] = setup_wall
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = median(walls)
    m["trace.overhead_s"] = traced_wall - median(walls)
    m["trace.unattributed_s"] = setup_wall + traced_wall - setup_self - rep_self
    m["trace.spans"] = len(setup_tr.spans) + len(rep_tr.spans) / n
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result, info, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{args.workload:16s} {name:30s} {entry['value']:.6g} {entry['unit']}")
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(2)
