"""Byte-identity of short training runs against pinned digests.

Rerun-identity tests cannot see a change that alters the arithmetic the
same way on every run (say, a reordered float sum).  These pin the sha256
of each run's training log plus its saved params file, so any change to
the numbers, their order or their formatting fails here.  The digests were
recorded with numpy 2.4 on x86-64 (Python 3.11); a platform whose float
library rounds differently needs them re-recorded, and such a re-record is
a deliberate baseline change.
"""

import hashlib

import pytest

from verblab.grpo import GrpoConfig, train_stage1
from verblab.oracle import RewardConfig
from verblab.reasoner import save_reasoner_params, train_stage2
from verblab.rng import derive_rng
from verblab.synthworld import WorldConfig, gen_catalog, gen_split
from verblab.verbalizer import save_policy_params

SEED = 2024

# 12 episodes against 4 x 6 slots: the episode cycle wraps, and the
# reference refreshes at iteration 3.
CFG = GrpoConfig(g=4, iterations=6, batch_episodes=4, ref_refresh_every=3)

GOLDEN = {
    "stage1_action": "97d2386f35810864b2aa6f2c89d367811a7540a30007dc5d7b54e2dee2fe971d",
    "stage1_rewrite": "e83e7af514e4eaf10769f145b4852f34c2e89d094e3dab720bff8a6c5eb46bb7",
    "stage1_rewrite_ranking": "11c1c0bd1901b2b193eaa26dcdf076525c7a39b62f2439dbb56926340acd0ad7",
    "stage2_template": "c6b35f0c9347c07e786f9f2091f8db7d248f087646847aaddca0bdcc54e03092",
    "stage2_rewrite": "9cc164e2111bad14adaa31f748e57066d850afe2e0fa018c11d5b5c969004093",
}


@pytest.fixture(scope="module")
def world():
    cfg = WorldConfig(n_items=40, n_train_episodes=12, n_eval_episodes=4, t_min=5, t_max=12, master_seed=SEED)
    catalog = gen_catalog(cfg, derive_rng(SEED, "catalog", 0))
    return catalog, gen_split(catalog, cfg, "train", cfg.n_train_episodes, 0)


def _digest(log_path, params_path) -> str:
    h = hashlib.sha256()
    for path in (log_path, params_path):
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _stage1(world, tmp_path, kind, reward, init_scale):
    catalog, episodes = world
    log_path, params_path = tmp_path / "log.csv", tmp_path / "params.json"
    params, _ = train_stage1(episodes, kind, catalog, CFG, reward, SEED,
                             init_scale=init_scale, log_path=log_path)
    save_policy_params(params_path, kind, params)
    return params, _digest(log_path, params_path)


def _stage2(world, tmp_path, vkind, vparams):
    catalog, episodes = world
    log_path, params_path = tmp_path / "log.csv", tmp_path / "params.json"
    params, _ = train_stage2(episodes, catalog, vkind, vparams, CFG, SEED,
                             init_scale=0.1, log_path=log_path)
    save_reasoner_params(params_path, params)
    return _digest(log_path, params_path)


def test_stage1_action(world, tmp_path):
    _, digest = _stage1(world, tmp_path, "action", RewardConfig(), 0.1)
    assert digest == GOLDEN["stage1_action"]


def test_stage1_rewrite(world, tmp_path):
    _, digest = _stage1(world, tmp_path, "rewrite", RewardConfig(), 0.1)
    assert digest == GOLDEN["stage1_rewrite"]


def test_stage1_rewrite_ranking(world, tmp_path):
    _, digest = _stage1(world, tmp_path, "rewrite", RewardConfig(kind="ranking"), 0.0)
    assert digest == GOLDEN["stage1_rewrite_ranking"]


def test_stage2_template(world, tmp_path):
    assert _stage2(world, tmp_path, "template", None) == GOLDEN["stage2_template"]


def test_stage2_rewrite(world, tmp_path):
    (tmp_path / "stage1").mkdir()
    vparams, _ = _stage1(world, tmp_path / "stage1", "rewrite", RewardConfig(), 0.1)
    assert _stage2(world, tmp_path, "rewrite", vparams) == GOLDEN["stage2_rewrite"]
