"""Config defaults, strict JSON parsing, and validation wiring."""

import pytest

from verblab.config import (
    ALL_VARIANTS,
    ConfigError,
    config_from_dict,
    default_config,
    load_config,
)


class TestDefaults:
    def test_world_defaults(self):
        w = default_config().world
        assert (w.n_items, w.n_train_episodes, w.n_eval_episodes) == (200, 2000, 500)
        assert (w.t_min, w.t_max) == (20, 100)
        assert (w.p_noise, w.p_repeat, w.repeat_cap) == (0.3, 0.25, 5)
        assert (w.p_rewatch_target, w.dirichlet_alpha) == (0.3, 0.3)

    def test_optimizer_defaults(self):
        g = default_config().grpo_stage1
        assert (g.g, g.eps_adv, g.eps_clip, g.beta_kl) == (8, 1e-4, 0.2, 0.02)
        assert (g.inner_epochs, g.lr, g.iterations) == (2, 0.05, 300)
        assert (g.batch_episodes, g.ref_refresh_every) == (16, 100)
        assert default_config().grpo_stage2 == g

    def test_scoring_defaults(self):
        cfg = default_config()
        o = cfg.oracle
        assert (o.w_title, o.w_genre, o.w_tag, o.w_pref) == (1.0, 1.0, 0.5, 3.0)
        r = cfg.reward
        assert r.alpha == 0.9
        assert r.kind == "accuracy"
        s = r.shape
        assert (s.lo_zero, s.lo_one, s.hi_one, s.hi_zero) == (0.05, 0.3, 0.7, 1.2)

    def test_reward_shares_the_oracle_weights_object(self):
        cfg = default_config()
        assert cfg.reward.weights is cfg.oracle

    def test_ablation_defaults(self):
        a = default_config().ablate
        assert a.seeds == (1, 2, 3, 4, 5)
        assert a.variants == ALL_VARIANTS

    def test_default_config_validates(self):
        default_config().validate()


class TestParsing:
    def test_empty_object_gives_defaults(self):
        assert config_from_dict({}).world == default_config().world

    def test_nested_overrides(self):
        cfg = config_from_dict(
            {
                "world": {"n_items": 50, "master_seed": 42},
                "grpo_stage1": {"iterations": 10, "lr": 0.01},
                "oracle": {"w_pref": 2.0},
                "reward": {"alpha": 0.5, "hi_zero": 1.5},
                "reasoner": {"init_scale": 0.1},
                "ablate": {"seeds": [7], "variants": ["template", "zero_shot"]},
                "paths": {"out_dir": "elsewhere"},
            }
        )
        assert cfg.world.n_items == 50
        assert cfg.world.master_seed == 42
        assert cfg.world.n_train_episodes == 2000  # untouched default
        assert cfg.grpo_stage1.iterations == 10
        assert cfg.grpo_stage2.iterations == 300  # stages configured independently
        assert cfg.oracle.w_pref == 2.0
        assert cfg.reward.weights.w_pref == 2.0
        assert cfg.reward.alpha == 0.5
        assert cfg.reward.shape.hi_zero == 1.5
        assert cfg.reasoner_init_scale == 0.1
        assert cfg.ablate.seeds == (7,)
        assert cfg.out_dir == "elsewhere"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level keys \\['extra'\\]"):
            config_from_dict({"extra": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="world: unknown keys \\['n_users'\\]"):
            config_from_dict({"world": {"n_users": 3}})

    @pytest.mark.parametrize("section", ["reward", "reasoner", "paths"])
    def test_unknown_key_names_the_section(self, section):
        with pytest.raises(ConfigError, match=f"{section}: unknown keys \\['extra'\\]"):
            config_from_dict({section: {"extra": 1}})

    def test_determinism_is_not_a_key(self):
        # it was parsed and never read; it is an unknown key like any other
        with pytest.raises(ConfigError, match="unknown top-level keys \\['determinism'\\]"):
            config_from_dict({"determinism": True})

    def test_vocabulary_sizes_are_not_keys(self):
        # the genre and tag vocabularies are fixed, so their sizes are not settings
        for key in ("n_genres", "n_tags"):
            with pytest.raises(ConfigError, match=f"world: unknown keys \\['{key}'\\]"):
                config_from_dict({"world": {key: 8}})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="config root must be an object"):
            config_from_dict([1, 2])

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="world: expected an object"):
            config_from_dict({"world": 3})

    @pytest.mark.parametrize(
        "obj,where",
        [
            ({"world": {"n_items": "many"}}, "world.n_items"),
            ({"world": {"n_items": True}}, "world.n_items"),
            ({"world": {"p_noise": "0.5"}}, "world.p_noise"),
            ({"reward": {"lo_zero": "0.05"}}, "reward.lo_zero"),
            ({"ablate": {"seeds": [1, "2"]}}, "ablate.seeds"),
            ({"ablate": {"variants": "template"}}, "ablate.variants"),
            ({"reasoner": {"init_scale": "0.1"}}, "reasoner.init_scale"),
            ({"paths": {"out_dir": 3}}, "paths.out_dir"),
        ],
    )
    def test_type_errors_name_the_field(self, obj, where):
        with pytest.raises(ConfigError, match=where.replace(".", "\\.")):
            config_from_dict(obj)

    @pytest.mark.parametrize(
        "obj,message",
        [
            # the RNG reads 64 bits, so 2**70 would quietly be seed 0's world
            ({"ablate": {"seeds": [2**70]}}, "ablate.seeds must be unsigned 64-bit integers, got [1180591620717411303424]"),
            ({"ablate": {"seeds": [3, -5]}}, "ablate.seeds must be unsigned 64-bit integers, got [-5]"),
            ({"ablate": {"seeds": [1, 2, 1]}}, "ablate.seeds repeats [1]"),
            ({"ablate": {"variants": ["template", "zero_shot", "template"]}}, "ablate.variants repeats ['template']"),
        ],
    )
    def test_ablate_rejects_seeds_and_variants_it_cannot_honour(self, obj, message):
        with pytest.raises(ConfigError) as err:
            config_from_dict(obj)
        assert str(err.value) == message

    def test_ablate_accepts_the_whole_seed_range(self):
        assert config_from_dict({"ablate": {"seeds": [0, 2**64 - 1]}}).ablate.seeds == (0, 2**64 - 1)

    def test_integers_accepted_for_float_fields(self):
        cfg = config_from_dict({"world": {"p_noise": 0}})
        assert cfg.world.p_noise == 0.0
        assert isinstance(cfg.world.p_noise, float)

    def test_semantic_validation_runs(self):
        with pytest.raises(ConfigError, match="t_min"):
            config_from_dict({"world": {"t_min": 50, "t_max": 10}})
        with pytest.raises(ConfigError, match="must include 'template'"):
            config_from_dict({"ablate": {"variants": ["zero_shot"]}})
        with pytest.raises(ConfigError, match="unknown variants"):
            config_from_dict({"ablate": {"variants": ["template", "prompt"]}})


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"world": {"n_items": 64}}')
        assert load_config(path).world.n_items == 64

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"world": }')
        with pytest.raises(ConfigError, match="invalid JSON at line 1 col 11"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cfg.json"):
            load_config(tmp_path / "cfg.json")
