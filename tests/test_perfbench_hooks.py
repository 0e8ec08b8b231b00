"""The benchmark's patch points still fit the package.

``perfbench/run.py`` wraps package functions by name and reads their
arguments by position (the training config, an update's groups and their
members).  This runs one tiny Stage-1 and one tiny Stage-2 training under the
benchmark's probe and tracer, so a rename or a moved argument fails here
rather than in a ``--trace 1`` run.
"""

import argparse
import importlib
import importlib.util
import os
import sys

from verblab.grpo import GrpoConfig
from verblab.oracle import RewardConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_run():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)  # run.py imports benchlib by name
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_probe_and_tracer_see_both_training_stages(small_world):
    run = _load_run()
    benchlib = sys.modules["benchlib"]
    vl = argparse.Namespace(**{name: importlib.import_module(f"verblab.{name}") for name in run.MODULES})
    _, catalog, train, _ = small_world
    cfg = GrpoConfig(g=2, iterations=2, batch_episodes=3)
    modules = [m for name, m in sys.modules.items() if name == "verblab" or name.startswith("verblab.")]
    originals = (vl.grpo.train_stage1, vl.reasoner.train_stage2, vl.reasoner.episode_candidate_features)

    probe, tracer = run.Probe(), benchlib.Tracer()
    with benchlib.Patches(modules) as patches:
        probe.install(vl, patches)
        run.install_tracer(vl, patches, tracer)
        assert vl.grpo.train_stage1 is not originals[0]
        vl.grpo.train_stage1(train, "rewrite", catalog, cfg, RewardConfig(), 3)
        vl.reasoner.train_stage2(train, catalog, "template", None, cfg, 3)
    assert (vl.grpo.train_stage1, vl.reasoner.train_stage2, vl.reasoner.episode_candidate_features) == originals

    runs = 2
    assert len(probe.iter_ms) == runs * cfg.iterations
    assert probe.rollouts == runs * cfg.iterations * cfg.batch_episodes * cfg.g
    assert tracer.counts["grpo.iterations"] == runs * cfg.iterations
    assert tracer.counts["grpo.rollouts"] == runs * cfg.iterations * cfg.batch_episodes * cfg.g
    assert tracer.counts["reasoner.ctx_slots"] == cfg.iterations * cfg.batch_episodes
    assert tracer.leaf_calls["reasoner.features"] == tracer.counts["reasoner.ctx_misses"] > 0
    assert tracer.leaf_calls["verbalizer.logprobs"] > 0
