"""Command-line entry point.

One JSON config drives everything; flags only pick the subcommand, config
path, output directory and a few per-command selectors.  Exit codes: 0 on
success, 1 when configuration or input validation fails, 2 on runtime
faults (non-finite training, I/O errors, generation dead ends).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

from .checks import run_all_checks
from .config import ALL_VARIANTS, ConfigError, GlobalConfig, default_config, load_config
from .domain import (
    CatalogError,
    DatasetParseError,
    DatasetValidationError,
    read_catalog,
    read_episodes,
)
from .evaluation import EvaluationError, emit_report, ensure_dataset, evaluate, run_ablation
from .grpo import TrainingError, train_stage1
from .reasoner import save_reasoner_params, train_stage2
from .synthworld import GenerationError
from .verbalizer import load_policy_params, save_policy_params

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    raw = os.environ.get("VERBLAB_LOG", "error").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(f"warning: VERBLAB_LOG={raw!r} not in {sorted(_LOG_LEVELS)}; using 'error'", file=sys.stderr)
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="verblab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", help="JSON config file (defaults apply if omitted)")
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides paths.out_dir)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed override for single-artifact commands")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker budget; execution is sequential so results never depend on it")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("gen-data", help="generate catalog + train/eval episodes, print digests")

    p_tv = sub.add_parser("train-verbalizer", help="Stage-1 training against the reward oracle")
    p_tv.add_argument("--policy", choices=("action", "rewrite"), required=True)

    p_tr = sub.add_parser("train-reasoner", help="Stage-2 training on frozen contexts")
    src = p_tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--verbalizer", metavar="PARAMS", help="trained verbalizer params file")
    src.add_argument("--raw", action="store_true", help="train on template contexts instead")

    p_ev = sub.add_parser("eval", help="evaluate one variant, print Metrics JSON")
    p_ev.add_argument("--variant", choices=ALL_VARIANTS, required=True)

    sub.add_parser("ablate", help="evaluate all configured variants x seeds (reuses artifacts)")
    sub.add_parser("pipeline", help="regenerate and retrain everything, then report")
    sub.add_parser("check", help="run the invariant/gradient self-test suites")
    return parser


def _load_config(args) -> GlobalConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.out:
        cfg.out_dir = args.out
    return cfg


def _effective_seed(cfg: GlobalConfig, args) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < (1 << 64):
            raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        return args.seed
    return cfg.world.master_seed


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cmd_gen_data(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    paths = ensure_dataset(cfg, seed, cfg.out_dir, force=True)
    for name in sorted(paths):
        print(f"{name} sha256 {_digest(paths[name])}")
    return 0


def _cmd_train_verbalizer(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    paths = ensure_dataset(cfg, seed, cfg.out_dir)
    catalog = read_catalog(paths["catalog.json"])
    train_eps = read_episodes(paths["train.jsonl"])
    log_path = os.path.join(cfg.out_dir, f"log_stage1_{args.policy}.csv")
    params, rows = train_stage1(
        train_eps, args.policy, catalog, cfg.grpo_stage1, cfg.reward, seed,
        init_scale=cfg.verbalizer.init_scale, log_path=log_path,
    )
    out_path = os.path.join(cfg.out_dir, f"verbalizer_{args.policy}.json")
    save_policy_params(out_path, args.policy, params)
    final = rows[-1] if rows else None
    print(f"wrote {out_path}")
    print(f"wrote {log_path}")
    if final:
        print(f"final r_acc {final.mean_r_acc:.4f}, r_len {final.mean_r_len:.4f}, "
              f"compression {final.mean_ratio:.4f}")
    return 0


def _cmd_train_reasoner(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    paths = ensure_dataset(cfg, seed, cfg.out_dir)
    catalog = read_catalog(paths["catalog.json"])
    train_eps = read_episodes(paths["train.jsonl"])
    if args.raw:
        vkind, vparams, tag = "template", None, "raw"
    else:
        if not os.path.exists(args.verbalizer):
            raise ConfigError(f"--verbalizer file {args.verbalizer} does not exist")
        vkind, vparams = load_policy_params(args.verbalizer)
        tag = vkind
    log_path = os.path.join(cfg.out_dir, f"log_stage2_{tag}.csv")
    params, rows = train_stage2(
        train_eps, catalog, vkind, vparams, cfg.grpo_stage2, seed,
        init_scale=cfg.reasoner_init_scale, log_path=log_path,
    )
    out_path = os.path.join(cfg.out_dir, f"reasoner_{tag}.json")
    save_reasoner_params(out_path, params)
    print(f"wrote {out_path}")
    print(f"wrote {log_path}")
    if rows:
        print(f"final mean reward {rows[-1].mean_r_acc * 2 - 1:.4f}")
    return 0


def _cmd_eval(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    paths = ensure_dataset(cfg, seed, cfg.out_dir)
    catalog = read_catalog(paths["catalog.json"])
    eval_eps = read_episodes(paths["eval.jsonl"])
    metrics = evaluate(args.variant, eval_eps, catalog, cfg, seed_dir=cfg.out_dir)
    print(json.dumps(metrics.to_dict(), indent=2))
    return 0


def _cmd_ablate(cfg: GlobalConfig, args, force: bool) -> int:
    rows = run_ablation(cfg, cfg.out_dir, force=force)
    written = emit_report(rows, cfg.out_dir)
    for name in sorted(written):
        print(f"wrote {written[name]}")
    for row in rows:
        if row.seed == "mean":
            disc = "undefined" if row.recall1_discovery is None else f"{row.recall1_discovery:.4f}"
            print(f"{row.variant}: discovery recall@1 {disc} (mean over {len(cfg.ablate.seeds)} seeds)")
    return 0


def _cmd_check(cfg: GlobalConfig, args) -> int:
    results = run_all_checks()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("verblab: error: a command is required", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        if args.command == "gen-data":
            return _cmd_gen_data(cfg, args)
        if args.command == "train-verbalizer":
            return _cmd_train_verbalizer(cfg, args)
        if args.command == "train-reasoner":
            return _cmd_train_reasoner(cfg, args)
        if args.command == "eval":
            return _cmd_eval(cfg, args)
        if args.command == "ablate":
            return _cmd_ablate(cfg, args, force=False)
        if args.command == "pipeline":
            return _cmd_ablate(cfg, args, force=True)
        return _cmd_check(cfg, args)
    except (ConfigError, DatasetParseError, DatasetValidationError, CatalogError,
            EvaluationError, ValueError) as e:
        print(f"verblab: error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, GenerationError, OSError) as e:
        print(f"verblab: fault: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
