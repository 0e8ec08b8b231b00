"""verblab: a desk-scale lab for two-stage GRPO-trained history verbalization.

A synthetic streaming world emits interaction histories and next-item
episodes; verbalizer policies compress histories into token contexts; a
fixed lexical-overlap oracle scores candidates (and pays Stage-1 rewards);
a small softmax reasoner trains on the frozen contexts in Stage 2.  The
``verblab`` CLI wires data generation, training, evaluation and reporting.
"""

from .config import ALL_VARIANTS, VARIANTS, ConfigError, GlobalConfig, VariantSpec, default_config, load_config
from .domain import (
    Catalog,
    CatalogError,
    DatasetParseError,
    DatasetValidationError,
    EpisodeInstance,
    InteractionRecord,
    ItemMeta,
    Token,
    UserHistory,
    VerbalizedContext,
    read_catalog,
    read_episodes,
    write_catalog,
    write_episodes,
)
from .evaluation import Metrics, emit_report, evaluate, run_ablation, run_seed_pipeline
from .grpo import (
    AdamState,
    GrpoConfig,
    TrainingError,
    adam_step,
    clipped_term,
    finite_diff_check,
    group_advantages,
    grpo_gradient,
    grpo_objective,
    kl_k3,
    train_grpo,
    train_stage1,
)
from .oracle import (
    LengthShape,
    OracleWeights,
    RewardConfig,
    length_reward,
    oracle_predict,
    oracle_scores,
    ranking_reward,
    stage1_reward,
)
from .reasoner import ReasonerParams, stage2_reward, train_stage2
from .rng import Rng, derive_rng, splitmix64_stream, substream_seed
from .synthworld import GenerationError, WorldConfig, gen_catalog, gen_dataset, gen_episode, gen_history
from .verbalizer import (
    ActionPolicyParams,
    HeuristicRules,
    RewritePolicyParams,
    frozen_verbalize,
    heuristic_verbalize,
    load_policy_params,
    render_template,
    save_policy_params,
)

__version__ = "0.1.0"
