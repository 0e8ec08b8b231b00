"""Run configuration: one JSON document, strictly validated.

Every tunable lives in a named section; unknown keys anywhere are an error
(silent typos in experiment configs are how results stop meaning anything).
``default_config()`` is the single source of defaults; a config file only
needs the keys it wants to override.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .domain import ENGAGEMENTS
from .grpo import GrpoConfig
from .oracle import OracleWeights, RewardConfig
from .synthworld import WorldConfig
from .verbalizer import HeuristicRules


@dataclass(frozen=True)
class VariantSpec:
    """One cell of the ablation matrix: the verbalizer that writes the
    context and the scorer that picks the candidate.  The files are trained
    artifacts under the seed directory (``evaluation.ARTIFACTS`` entries)."""

    verbalizer_kind: str  # template | zero_shot | action | rewrite
    verbalizer_file: str | None  # None for the fixed renderers
    reasoner_file: str | None  # None: the oracle scores the candidates


# Every variant, in report order.
VARIANTS: dict[str, VariantSpec] = {
    "template": VariantSpec("template", None, None),
    "zero_shot": VariantSpec("zero_shot", None, None),
    "action": VariantSpec("action", "verbalizer_action.json", None),
    "rewrite": VariantSpec("rewrite", "verbalizer_rewrite.json", None),
    "rewrite_trained_reasoner": VariantSpec("rewrite", "verbalizer_rewrite.json", "reasoner_rewrite.json"),
    "raw_trained_reasoner": VariantSpec("template", None, "reasoner_raw.json"),
    "rewrite_ranking_reward": VariantSpec("rewrite", "verbalizer_rewrite_ranking.json", None),
}
ALL_VARIANTS = tuple(VARIANTS)
# The report's relative improvement is measured against this variant.
BASE_VARIANT = "template"


class ConfigError(ValueError):
    pass


@dataclass
class VerbalizerConfig:
    min_duration: float = 10.0
    keep_engagements: tuple[str, ...] = ("thumb_up", "add_to_list")
    init_scale: float = 0.0

    def heuristic_rules(self) -> HeuristicRules:
        return HeuristicRules(self.min_duration, self.keep_engagements)

    def validate(self) -> None:
        if self.min_duration < 0:
            raise ConfigError(f"verbalizer.min_duration must be >= 0, got {self.min_duration}")
        unknown = [e for e in self.keep_engagements if e not in ENGAGEMENTS]
        if unknown:
            raise ConfigError(f"verbalizer.keep_engagements has unknown engagements {unknown}")
        if self.init_scale < 0:
            raise ConfigError(f"verbalizer.init_scale must be >= 0, got {self.init_scale}")


@dataclass
class AblateConfig:
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    variants: tuple[str, ...] = ALL_VARIANTS

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("ablate.seeds must not be empty")
        out_of_range = [s for s in self.seeds if not 0 <= s < (1 << 64)]
        if out_of_range:
            raise ConfigError(f"ablate.seeds must be unsigned 64-bit integers, got {out_of_range}")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"ablate.variants has unknown variants {unknown}; known: {list(VARIANTS)}")
        for key, values in (("seeds", self.seeds), ("variants", self.variants)):
            repeated = list(dict.fromkeys(x for x in values if values.count(x) > 1))
            if repeated:
                raise ConfigError(f"ablate.{key} repeats {repeated}")
        if BASE_VARIANT not in self.variants:
            raise ConfigError(f"ablate.variants must include {BASE_VARIANT!r} (the improvement baseline)")


@dataclass
class GlobalConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    verbalizer: VerbalizerConfig = field(default_factory=VerbalizerConfig)
    oracle: OracleWeights = field(default_factory=OracleWeights)
    reward: RewardConfig = field(default_factory=RewardConfig)
    grpo_stage1: GrpoConfig = field(default_factory=GrpoConfig)
    grpo_stage2: GrpoConfig = field(default_factory=GrpoConfig)
    reasoner_init_scale: float = 0.0
    ablate: AblateConfig = field(default_factory=AblateConfig)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # The reward blend and the retrieval oracle must score tokens with the
        # same weights, or the two reward paths silently diverge.
        self.reward.weights = self.oracle

    def validate(self) -> None:
        try:
            self.world.validate()
            self.grpo_stage1.validate()
            self.grpo_stage2.validate()
            self.reward.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        self.verbalizer.validate()
        self.ablate.validate()
        if self.reasoner_init_scale < 0:
            raise ConfigError(f"reasoner.init_scale must be >= 0, got {self.reasoner_init_scale}")


def default_config() -> GlobalConfig:
    return GlobalConfig()


# ---------------------------------------------------------------------------
# strict parsing

_INT, _FLOAT, _STR = "int", "float", "str"
_INT_LIST, _STR_LIST = "int_list", "str_list"


def _coerce(value, kind: str, where: str):
    if kind == _INT:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == _FLOAT:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == _STR:
        if isinstance(value, str):
            return value
    elif kind == _INT_LIST:
        if isinstance(value, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            return tuple(value)
    elif kind == _STR_LIST:
        if isinstance(value, list) and all(isinstance(x, str) for x in value):
            return tuple(value)
    raise ConfigError(f"{where}: expected {kind.replace('_', ' of ')}, got {value!r}")


def _parse_section(obj: dict, section: str, cfg: GlobalConfig, fields: dict[str, tuple[str, str]]) -> None:
    data = obj.get(section)
    if data is None:
        return
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object")
    unknown = [k for k in data if k not in fields]
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}; known: {sorted(fields)}")
    for key, (kind, path) in fields.items():
        if key in data:
            *owners, attr = path.split(".")
            target = cfg
            for name in owners:
                target = getattr(target, name)
            setattr(target, attr, _coerce(data[key], kind, f"{section}.{key}"))


def _under(prefix: str, kinds: dict[str, str]) -> dict[str, tuple[str, str]]:
    """Section fields stored as same-named attributes of the object at ``prefix``."""
    return {key: (kind, f"{prefix}.{key}") for key, kind in kinds.items()}


_WORLD_FIELDS = {
    "n_items": _INT,
    "n_train_episodes": _INT, "n_eval_episodes": _INT,
    "t_min": _INT, "t_max": _INT,
    "p_noise": _FLOAT, "p_repeat": _FLOAT, "repeat_cap": _INT,
    "p_rewatch_target": _FLOAT, "dirichlet_alpha": _FLOAT, "master_seed": _INT,
}
_GRPO_FIELDS = {
    "g": _INT, "eps_adv": _FLOAT, "eps_clip": _FLOAT, "beta_kl": _FLOAT,
    "inner_epochs": _INT, "lr": _FLOAT, "iterations": _INT,
    "batch_episodes": _INT, "ref_refresh_every": _INT,
}

# Top-level section -> {key: (kind, dotted attribute path on GlobalConfig)}.
# Sections parse in this order.
_SECTIONS = {
    "world": _under("world", _WORLD_FIELDS),
    "verbalizer": _under("verbalizer", {"min_duration": _FLOAT, "keep_engagements": _STR_LIST, "init_scale": _FLOAT}),
    "oracle": _under("oracle", {"w_title": _FLOAT, "w_genre": _FLOAT, "w_tag": _FLOAT, "w_pref": _FLOAT}),
    "reward": {
        **_under("reward", {"alpha": _FLOAT, "kind": _STR}),
        **_under("reward.shape", {"lo_zero": _FLOAT, "lo_one": _FLOAT, "hi_one": _FLOAT, "hi_zero": _FLOAT}),
    },
    "grpo_stage1": _under("grpo_stage1", _GRPO_FIELDS),
    "grpo_stage2": _under("grpo_stage2", _GRPO_FIELDS),
    "reasoner": {"init_scale": (_FLOAT, "reasoner_init_scale")},
    "ablate": _under("ablate", {"seeds": _INT_LIST, "variants": _STR_LIST}),
    "paths": {"out_dir": (_STR, "out_dir")},
}


def config_from_dict(obj: dict) -> GlobalConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be an object, got {type(obj).__name__}")
    unknown = [k for k in obj if k not in _SECTIONS]
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {unknown}; known: {list(_SECTIONS)}")
    cfg = default_config()
    for section, fields in _SECTIONS.items():
        _parse_section(obj, section, cfg, fields)
    cfg.validate()
    return cfg


def load_config(path) -> GlobalConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    return config_from_dict(obj)
