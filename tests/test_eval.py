"""Evaluation variants, the per-seed pipeline, and report files."""

import os
from dataclasses import replace

import numpy as np
import pytest

from verblab.config import (
    ALL_VARIANTS,
    BASE_VARIANT,
    VARIANTS,
    AblateConfig,
    ConfigError,
    GlobalConfig,
    VerbalizerConfig,
)
from verblab.domain import (
    GENRES,
    TAG_POOL,
    Catalog,
    EpisodeInstance,
    InteractionRecord,
    ItemMeta,
    UserHistory,
)
from verblab import evaluation
from verblab.evaluation import (
    ARTIFACTS,
    EvaluationError,
    Metrics,
    ReasonerTrainer,
    ReportRow,
    VerbalizerTrainer,
    _rel_improvement,
    artifact_trained_by,
    emit_report,
    evaluate,
    read_report,
    run_ablation,
    run_seed_pipeline,
)
from verblab.grpo import GrpoConfig
from verblab.synthworld import WorldConfig
from verblab.verbalizer import (
    POLICIES,
    ActionPolicyParams,
    HeuristicRules,
    frozen_verbalize,
    save_policy_params,
)


def small_cfg(variants=("template", "zero_shot"), seeds=(11, 12)):
    return GlobalConfig(
        world=WorldConfig(
            n_items=40, n_train_episodes=10, n_eval_episodes=8, t_min=5, t_max=10, master_seed=77
        ),
        grpo_stage1=GrpoConfig(g=2, iterations=2, batch_episodes=4),
        grpo_stage2=GrpoConfig(g=2, iterations=3, batch_episodes=4),
        ablate=AblateConfig(seeds=seeds, variants=variants),
    )


def mk_catalog(n=10):
    return Catalog(
        [
            ItemMeta(i, (f"w{i}a", f"w{i}b"), GENRES[i % 8], tuple(sorted(TAG_POOL[i : i + 3])), 2000 + i)
            for i in range(n)
        ]
    )


def mk_episode(watch_items, target_index, is_discovery):
    records = tuple(
        InteractionRecord(day=30 + i, hour=8, item_id=item, engagement="play", duration_min=45.0)
        for i, item in enumerate(watch_items)
    )
    return EpisodeInstance(
        history=UserHistory(user_id=0, records=records),
        candidates=tuple(range(10)),
        target_index=target_index,
        is_discovery=is_discovery,
    )


class TestVariantTable:
    def test_every_spec_is_self_consistent(self):
        assert ALL_VARIANTS == tuple(VARIANTS)
        for spec in VARIANTS.values():
            assert spec.verbalizer_kind in ("template", "zero_shot", "action", "rewrite")
            # a trained row's files are artifacts whose trainer has the row's kind
            if spec.verbalizer_file is None:
                assert spec.verbalizer_kind in ("template", "zero_shot")
            else:
                assert ARTIFACTS[spec.verbalizer_file].train.kind == spec.verbalizer_kind
            if spec.reasoner_file is not None:
                assert ARTIFACTS[spec.reasoner_file].train.verbalizer_kind == spec.verbalizer_kind
        # the report base is a fixed renderer scored by the oracle
        assert VARIANTS[BASE_VARIANT].verbalizer_file is None
        assert VARIANTS[BASE_VARIANT].reasoner_file is None

    def test_config_without_the_base_is_rejected(self):
        others = tuple(v for v in ALL_VARIANTS if v != BASE_VARIANT)
        with pytest.raises(ConfigError, match="ablate.variants must include 'template' \\(the improvement baseline\\)"):
            AblateConfig(variants=others).validate()

    def test_artifact_table_order_and_dependencies(self, tmp_path, monkeypatch):
        names = list(ARTIFACTS)
        for i, spec in enumerate(ARTIFACTS.values()):
            assert all(names.index(dep) < i for dep in spec.needs)
        for spec in VARIANTS.values():
            assert {spec.verbalizer_file, spec.reasoner_file} - {None} <= set(ARTIFACTS)
        assert len({spec.log_file for spec in ARTIFACTS.values()}) == len(ARTIFACTS)
        # the CLI's single-artifact commands find their entries by trainer
        for kind in POLICIES:
            assert artifact_trained_by(VerbalizerTrainer(kind)) == f"verbalizer_{kind}.json"
        assert artifact_trained_by(ReasonerTrainer("template")) == "reasoner_raw.json"
        assert artifact_trained_by(ReasonerTrainer("rewrite")) == "reasoner_rewrite.json"
        action_reasoner = ARTIFACTS["reasoner_action.json"]
        assert action_reasoner.needs == ("verbalizer_action.json",)
        assert action_reasoner.log_file == "log_stage2_action.csv"
        assert artifact_trained_by(ReasonerTrainer("action")) == "reasoner_action.json"

        # which entries the pipeline trains, in order, with trainers that only record the call
        trained = []
        monkeypatch.setattr(evaluation, "ARTIFACTS", {
            name: replace(spec, train=lambda *args, name=name: trained.append(name))
            for name, spec in ARTIFACTS.items()
        })

        def plan(variants):
            trained.clear()
            run_seed_pipeline(small_cfg(), 11, str(tmp_path), variants=variants)
            return list(trained)

        assert plan(["template", "zero_shot"]) == []
        assert plan(["action"]) == ["verbalizer_action.json"]
        # the rewrite-context reasoner drags in its verbalizer
        assert plan(["rewrite_trained_reasoner"]) == ["verbalizer_rewrite.json", "reasoner_rewrite.json"]
        assert plan(["raw_trained_reasoner"]) == ["reasoner_raw.json"]
        # no variant reads the action-context reasoner, so the pipeline never trains it
        assert plan(ALL_VARIANTS) == [name for name in ARTIFACTS if name != "reasoner_action.json"]


class TestRelImprovement:
    def test_template_row_is_always_zero(self):
        assert _rel_improvement(0.4, 0.4, is_base=True) == 0.0
        assert _rel_improvement(None, None, is_base=True) == 0.0

    def test_undefined_inputs_stay_undefined(self):
        assert _rel_improvement(None, 0.2, is_base=False) is None
        assert _rel_improvement(0.2, None, is_base=False) is None

    def test_zero_baseline(self):
        assert _rel_improvement(0.0, 0.0, is_base=False) == 0.0
        assert _rel_improvement(0.3, 0.0, is_base=False) == float("inf")

    def test_percent_arithmetic(self):
        assert _rel_improvement(0.3, 0.2, is_base=False) == pytest.approx(50.0)
        assert _rel_improvement(0.1, 0.2, is_base=False) == pytest.approx(-50.0)


class TestEvaluate:
    def setup_method(self):
        self.catalog = mk_catalog()
        self.cfg = GlobalConfig()

    def test_unknown_variant(self):
        ep = mk_episode([3, 3], 3, False)
        with pytest.raises(EvaluationError, match="unknown variant 'prompt'"):
            evaluate("prompt", [ep], self.catalog, self.cfg)

    def test_empty_episode_list(self):
        with pytest.raises(EvaluationError, match="no evaluation episodes"):
            evaluate("template", [], self.catalog, self.cfg)

    def test_template_metrics_on_known_outcomes(self):
        # heavy rewatcher of item 3: the oracle's title matches pick 3
        hit_ep = mk_episode([3, 3, 3, 5], target_index=3, is_discovery=False)
        miss_ep = mk_episode([3, 3, 3, 5], target_index=7, is_discovery=True)
        m = evaluate("template", [hit_ep, miss_ep], self.catalog, self.cfg)
        assert m.recall1_overall == 0.5
        assert m.recall1_discovery == 0.0
        assert m.n_eval == 2
        assert m.n_discovery == 1
        assert m.mean_compression == 1.0

    def test_discovery_recall_undefined_without_discovery_episodes(self):
        m = evaluate("template", [mk_episode([3, 3], 3, False)], self.catalog, self.cfg)
        assert m.recall1_discovery is None
        assert m.n_discovery == 0

    def test_zero_shot_compression_below_one(self):
        # short plays are dropped, keeps are 3 tokens instead of 8
        ep = mk_episode([1, 2, 3, 4], target_index=1, is_discovery=False)
        m = evaluate("zero_shot", [ep], self.catalog, self.cfg)
        assert 0.0 <= m.mean_compression < 1.0

    def test_zero_shot_uses_the_configured_rules(self, monkeypatch):
        # every record is a 45-minute play: the default rules keep it, min_duration=50 drops it
        ep = mk_episode([1, 2, 3, 4], target_index=1, is_discovery=False)
        assert evaluate("zero_shot", [ep], self.catalog, self.cfg).mean_compression == 7 / 8
        calls = []

        def spy(kind, params, history, catalog):
            calls.append((kind, params))
            return frozen_verbalize(kind, params, history, catalog)

        monkeypatch.setattr(evaluation, "frozen_verbalize", spy)
        cfg = GlobalConfig(verbalizer=VerbalizerConfig(min_duration=50.0))
        assert evaluate("zero_shot", [ep], self.catalog, cfg).mean_compression == 0.0
        assert calls == [("zero_shot", HeuristicRules(min_duration=50.0))]

    def test_trained_variant_requires_artifact_directory(self):
        ep = mk_episode([3, 3], 3, False)
        with pytest.raises(EvaluationError, match="no artifact directory"):
            evaluate("rewrite", [ep], self.catalog, self.cfg, seed_dir=None)

    def test_trained_variant_names_missing_file(self, tmp_path):
        ep = mk_episode([3, 3], 3, False)
        with pytest.raises(EvaluationError, match="verbalizer_rewrite.json.*does not exist"):
            evaluate("rewrite", [ep], self.catalog, self.cfg, seed_dir=str(tmp_path))

    def test_params_kind_mismatch_is_rejected(self, tmp_path):
        save_policy_params(tmp_path / "verbalizer_rewrite.json", "action", ActionPolicyParams.zeros())
        ep = mk_episode([3, 3], 3, False)
        with pytest.raises(EvaluationError, match="holds 'action' parameters"):
            evaluate("rewrite", [ep], self.catalog, self.cfg, seed_dir=str(tmp_path))


class TestSeedPipeline:
    def test_unknown_variant_rejected(self, tmp_path):
        cfg = small_cfg()
        with pytest.raises(EvaluationError, match="unknown variants"):
            run_seed_pipeline(cfg, 11, str(tmp_path), variants=("template", "prompt"))

    def test_untrained_variants_only_generate_data(self, tmp_path):
        cfg = small_cfg()
        paths = run_seed_pipeline(cfg, 11, str(tmp_path), variants=("template", "zero_shot"))
        assert sorted(paths) == ["catalog.json", "eval.jsonl", "train.jsonl"]
        assert all(os.path.exists(p) for p in paths.values())

    def test_train_split_is_decoded_only_to_train(self, tmp_path, monkeypatch):
        decoded = []
        real = evaluation.read_episodes
        monkeypatch.setattr(evaluation, "read_episodes", lambda path: decoded.append(path) or real(path))
        cfg = small_cfg()
        run_seed_pipeline(cfg, 11, str(tmp_path), variants=("template", "zero_shot"))
        assert decoded == []
        # two artifacts trained, one decode
        run_seed_pipeline(cfg, 11, str(tmp_path), variants=("rewrite_trained_reasoner",))
        assert decoded == [os.path.join(str(tmp_path), "train.jsonl")]

    def test_reasoner_rejects_a_verbalizer_of_another_kind(self, tmp_path):
        # a reused verbalizer_rewrite.json that holds action params is named, not trained on
        save_policy_params(tmp_path / "verbalizer_rewrite.json", "action", ActionPolicyParams.zeros())
        with pytest.raises(ValueError, match="verbalizer_rewrite.json holds 'action' parameters"):
            run_seed_pipeline(small_cfg(), 11, str(tmp_path), variants=("rewrite_trained_reasoner",))

    def test_trains_reuses_and_retrains_artifacts(self, tmp_path):
        cfg = small_cfg()
        seed_dir = str(tmp_path)
        paths = run_seed_pipeline(cfg, 11, seed_dir, variants=("rewrite_trained_reasoner",))
        vpath = paths["verbalizer_rewrite.json"]
        rpath = paths["reasoner_rewrite.json"]
        assert os.path.exists(vpath) and os.path.exists(rpath)
        assert os.path.exists(os.path.join(seed_dir, "log_stage1_rewrite.csv"))
        assert os.path.exists(os.path.join(seed_dir, "log_stage2_rewrite.csv"))

        # sentinel content survives a non-force rerun (artifact reuse) ...
        with open(vpath, "w") as fh:
            fh.write("sentinel")
        run_seed_pipeline(cfg, 11, seed_dir, variants=("rewrite_trained_reasoner",))
        with open(vpath) as fh:
            assert fh.read() == "sentinel"

        # ... and force retrains it back into valid parameters
        run_seed_pipeline(cfg, 11, seed_dir, variants=("rewrite_trained_reasoner",), force=True)
        catalog_path = os.path.join(seed_dir, "catalog.json")
        from verblab.domain import read_catalog, read_episodes

        catalog = read_catalog(catalog_path)
        eval_eps = read_episodes(os.path.join(seed_dir, "eval.jsonl"))
        m = evaluate("rewrite_trained_reasoner", eval_eps, catalog, cfg, seed_dir)
        assert 0.0 <= m.recall1_overall <= 1.0

    def test_seed_overrides_world_master_seed(self, tmp_path):
        cfg = small_cfg()
        run_seed_pipeline(cfg, 11, str(tmp_path / "a"), variants=("template",))
        run_seed_pipeline(cfg, 12, str(tmp_path / "b"), variants=("template",))
        a = (tmp_path / "a" / "train.jsonl").read_bytes()
        b = (tmp_path / "b" / "train.jsonl").read_bytes()
        assert a != b


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ablation"))
    cfg = small_cfg(variants=("template", "zero_shot"), seeds=(11, 12))
    rows = run_ablation(cfg, out)
    return cfg, out, rows


class TestAblation:
    def test_row_layout(self, ablation):
        _, _, rows = ablation
        key = [(r.variant, r.seed) for r in rows]
        assert key == [
            ("template", "11"),
            ("template", "12"),
            ("zero_shot", "11"),
            ("zero_shot", "12"),
            ("template", "mean"),
            ("zero_shot", "mean"),
        ]

    def test_template_rows_have_zero_improvement(self, ablation):
        _, _, rows = ablation
        assert all(r.rel_improvement_pct == 0.0 for r in rows if r.variant == "template")

    def test_mean_rows_average_per_seed_rows(self, ablation):
        _, _, rows = ablation
        by = {(r.variant, r.seed): r for r in rows}
        for v in ("template", "zero_shot"):
            per_seed = [by[(v, "11")], by[(v, "12")]]
            mean = by[(v, "mean")]
            assert mean.recall1_overall == pytest.approx(
                sum(r.recall1_overall for r in per_seed) / 2
            )
            assert mean.mean_compression == pytest.approx(
                sum(r.mean_compression for r in per_seed) / 2
            )

    def test_report_round_trip(self, ablation, tmp_path):
        _, _, rows = ablation
        files = emit_report(rows, str(tmp_path))
        back = read_report(files["report.csv"])
        assert back == rows

    def test_markdown_lists_every_variant(self, ablation, tmp_path):
        _, _, rows = ablation
        files = emit_report(rows, str(tmp_path))
        with open(files["report.md"]) as fh:
            md = fh.read()
        assert "| template |" in md and "| zero_shot |" in md
        assert "## Seed means" in md and "## Per-seed rows" in md

    def test_rerun_reuses_data(self, ablation):
        cfg, out, rows = ablation
        again = run_ablation(cfg, out)
        assert again == rows


class TestReportIO:
    def test_none_and_inf_cells_round_trip(self, tmp_path):
        rows = [
            ReportRow("template", "1", 0.5, None, 0.0, 1.0),
            ReportRow("zero_shot", "1", 0.25, 0.125, float("inf"), 0.4375),
            ReportRow("zero_shot", "mean", 1 / 3, 0.1, None, 2 / 3),
        ]
        files = emit_report(rows, str(tmp_path))
        assert read_report(files["report.csv"]) == rows

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(EvaluationError, match="unexpected report header"):
            read_report(path)
