import json

import pytest

from spinkin.config import RunConfig, config_from_dict, load_config


class TestDefaults:
    def test_minimal_config_expands_defaults(self):
        cfg = config_from_dict({"scenario": "precession", "B0": 1.0})
        assert cfg.scenario == "precession"
        assert cfg.B0 == 1.0
        assert cfg.n_x == 64 and cfg.cadence == 1
        assert cfg.n_steps == round(cfg.t_end / cfg.dt)

    def test_integer_accepted_for_float_field(self):
        cfg = config_from_dict({"scenario": "precession", "B0": 2})
        assert isinstance(cfg.B0, float) and cfg.B0 == 2.0


class TestRejections:
    def test_negative_dt_names_field_and_constraint(self):
        with pytest.raises(ValueError, match=r"dt.*> 0"):
            config_from_dict({"scenario": "precession", "dt": -0.1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            config_from_dict({"scenario": "precession", "bo": 1.0})

    def test_all_violations_listed_at_once(self):
        with pytest.raises(ValueError) as exc:
            config_from_dict({"scenario": "precession", "dt": -1.0,
                              "n_x": "many", "bogus": 7})
        msg = str(exc.value)
        assert "dt" in msg and "n_x" in msg and "bogus" in msg

    def test_dt_must_be_less_than_t_end(self):
        with pytest.raises(ValueError, match="t_end"):
            config_from_dict({"scenario": "precession", "dt": 5.0,
                              "t_end": 1.0})

    def test_cadence_must_divide_step_count(self):
        with pytest.raises(ValueError, match="cadence"):
            config_from_dict({"scenario": "precession", "dt": 0.1,
                              "t_end": 1.0, "cadence": 3})

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ValueError, match="n_x"):
            config_from_dict({"scenario": "precession", "n_x": True})

    @pytest.mark.parametrize("key, value", [("backend", "pic"),
                                            ("quantum_term", True),
                                            ("E0", 0.5)])
    def test_ignored_keys_are_unknown(self, key, value):
        # each scenario fixes its own backend and fields; these keys were
        # accepted and then ignored
        with pytest.raises(ValueError, match=f"{key}: unknown key"):
            config_from_dict({"scenario": "precession", key: value})

    def test_missing_scenario_reported(self):
        with pytest.raises(ValueError, match="scenario.*required"):
            config_from_dict({"B0": 1.0})


class TestRoundTrip:
    def test_write_then_read_equals_expanded(self, tmp_path):
        cfg = config_from_dict({"scenario": "plasma_osc", "n_x": 32,
                                "dt": 0.05, "t_end": 2.0})
        path = tmp_path / "config.json"
        cfg.dump(path)
        again = load_config(path)
        assert again == cfg
        assert isinstance(again, RunConfig)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="object"):
            load_config(path)
