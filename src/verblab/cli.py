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
from .domain import CatalogError, DatasetParseError, DatasetValidationError
from .evaluation import (
    EvaluationError,
    ReasonerTrainer,
    VerbalizerTrainer,
    artifact_trained_by,
    emit_report,
    ensure_dataset,
    evaluate,
    load_split,
    run_ablation,
    train_artifact,
)
from .grpo import TrainingError
from .synthworld import GenerationError
from .verbalizer import POLICIES, load_policy_params

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
    p_tv.add_argument("--policy", choices=tuple(POLICIES), required=True)

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


def _train(cfg: GlobalConfig, seed: int, data, trainer, deps=()) -> list:
    """Train the ``ARTIFACTS`` entry of ``trainer`` under the output
    directory and print the files it wrote; returns its log rows."""
    path, log_path, rows = train_artifact(artifact_trained_by(trainer), cfg, seed, cfg.out_dir, data, deps)
    print(f"wrote {path}")
    print(f"wrote {log_path}")
    return rows


def _cmd_train_verbalizer(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    data = load_split(cfg, seed, cfg.out_dir, "train")
    rows = _train(cfg, seed, data, VerbalizerTrainer(args.policy))
    if rows:
        final = rows[-1]
        print(f"final r_acc {final.mean_r_acc:.4f}, r_len {final.mean_r_len:.4f}, "
              f"compression {final.mean_ratio:.4f}")
    return 0


def _cmd_train_reasoner(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    data = load_split(cfg, seed, cfg.out_dir, "train")
    if args.raw:
        rows = _train(cfg, seed, data, ReasonerTrainer("template"))
    else:
        if not os.path.exists(args.verbalizer):
            raise ConfigError(f"--verbalizer file {args.verbalizer} does not exist")
        vkind, _ = load_policy_params(args.verbalizer)
        rows = _train(cfg, seed, data, ReasonerTrainer(vkind), [args.verbalizer])
    if rows:
        print(f"final mean reward {rows[-1].mean_r_acc * 2 - 1:.4f}")
    return 0


def _cmd_eval(cfg: GlobalConfig, args) -> int:
    seed = _effective_seed(cfg, args)
    catalog, eval_eps = load_split(cfg, seed, cfg.out_dir, "eval")
    metrics = evaluate(args.variant, eval_eps, catalog, cfg, seed_dir=cfg.out_dir)
    print(json.dumps(metrics.to_dict(), indent=2))
    return 0


def _cmd_ablate(cfg: GlobalConfig, args) -> int:
    """``ablate`` reuses the artifacts on disk; ``pipeline`` retrains them all."""
    rows = run_ablation(cfg, cfg.out_dir, force=args.command == "pipeline")
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


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-verbalizer": _cmd_train_verbalizer,
    "train-reasoner": _cmd_train_reasoner,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "pipeline": _cmd_ablate,
    "check": _cmd_check,
}


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
        return _COMMANDS[args.command](_load_config(args), args)
    except (ConfigError, DatasetParseError, DatasetValidationError, CatalogError,
            EvaluationError, ValueError) as e:
        print(f"verblab: error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, GenerationError, OSError) as e:
        print(f"verblab: fault: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
