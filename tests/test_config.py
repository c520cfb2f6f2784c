import ast
import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinkin
from spinkin.config import RunConfig, config_from_dict, load_config

POSITIVE_INT = st.integers(1, 2**31)
POSITIVE_FLOAT = st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """A valid raw config: any subset of the optional keys, with dt,
    t_end and cadence drawn so the cross-field constraints hold."""
    cadence = draw(st.integers(1, 1000))
    n_steps = cadence * draw(st.integers(2, 1000))
    dt = draw(st.floats(1e-9, 1e3))
    data = draw(st.fixed_dictionaries(
        {"scenario": st.text(min_size=1)},
        optional={"n_x": POSITIVE_INT, "length": POSITIVE_FLOAT,
                  "n_v": POSITIVE_INT, "v_max": POSITIVE_FLOAT,
                  "hbar": POSITIVE_FLOAT, "c": POSITIVE_FLOAT,
                  "density": POSITIVE_FLOAT, "n_particles": POSITIVE_INT,
                  "B0": FINITE, "B1": FINITE,
                  "mode": POSITIVE_INT, "perturbation": FINITE,
                  "out_dir": st.text(min_size=1)}))
    data.update(dt=dt, t_end=n_steps * dt, cadence=cadence)
    return data


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

    def test_keys_that_change_nothing_are_unknown(self):
        # seed only named the run directory; free_stream's f is constant
        # on the sphere, so n_theta and n_phi changed only rounding
        with pytest.raises(ValueError) as exc:
            config_from_dict({"scenario": "free_stream", "seed": 3,
                              "n_theta": 2, "n_phi": 4, "dt": -1.0})
        msg = str(exc.value)
        for key in ("n_phi", "n_theta", "seed"):
            assert f"{key}: unknown key (strict mode)" in msg
        assert "dt: value -1.0" in msg

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
    @settings(max_examples=100, deadline=None)
    @given(data=valid_configs())
    def test_write_then_read_equals_expanded(self, data):
        cfg = config_from_dict(data)
        with tempfile.TemporaryDirectory() as tmp:
            path, path2 = (os.path.join(tmp, n) for n in ("a.json", "b.json"))
            cfg.dump(path)
            again = load_config(path)
            again.dump(path2)
            with open(path) as fh, open(path2) as fh2:
                # equal text also pins each value's type (1 vs 1.0)
                assert fh.read() == fh2.read()
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


class TestNonFinite:
    @pytest.mark.parametrize("key", ["B0", "B1", "perturbation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_finite_fields_reject_nan_and_inf(self, key, value):
        with pytest.raises(ValueError, match=f"{key}: value .* violates finite"):
            config_from_dict({"scenario": "precession", key: value})

    @pytest.mark.parametrize("key", ["length", "v_max", "hbar", "c",
                                     "density", "dt", "t_end"])
    def test_positive_floats_reject_inf(self, key):
        with pytest.raises(ValueError, match=f"{key}: value inf violates"):
            config_from_dict({"scenario": "precession", key: float("inf")})

    def test_infinite_t_end_is_a_listed_violation(self):
        # once t_end passed its own check, the step count overflowed
        with pytest.raises(ValueError) as exc:
            config_from_dict({"scenario": "precession", "t_end": float("inf"),
                              "n_x": 0})
        msg = str(exc.value)
        assert "t_end: value inf" in msg and "n_x: value 0" in msg

    @pytest.mark.parametrize("key, value", [("B0", 10**400),
                                            ("B1", -10**400),
                                            ("length", 10**400)])
    def test_huge_integer_is_a_listed_violation(self, key, value):
        # float(10**400) raises OverflowError, not a config error
        with pytest.raises(ValueError) as exc:
            config_from_dict({"scenario": "precession", key: value,
                              "n_x": 0})
        msg = str(exc.value)
        assert f"{key}: integer out of float range" in msg
        assert "n_x: value 0" in msg

    @pytest.mark.parametrize("key", ["n_x", "n_particles", "mode"])
    def test_integer_keys_bounded_below_2_pow_63(self, key):
        assert config_from_dict({"scenario": "x", key: 2**63 - 1})
        with pytest.raises(ValueError,
                           match=f"{key}: value <19-digit integer> violates"):
            config_from_dict({"scenario": "x", key: 2**63})
        with pytest.raises(ValueError,
                           match=f"{key}: value <31-digit integer> violates"):
            config_from_dict({"scenario": "x", key: 10**30})

    @pytest.mark.parametrize("key", ["scenario", "out_dir"])
    def test_huge_integer_value_named_by_digit_count(self, key):
        # repr of an integer over 4300 digits raises inside the message
        data = {"scenario": "x", key: 10**5000, "n_x": -(10**5000)}
        with pytest.raises(ValueError) as exc:
            config_from_dict(data)
        msg = str(exc.value)
        assert f"{key}: expected str" in msg and "<5001-digit integer>" in msg
        assert "n_x: value <5001-digit integer> violates" in msg

    def test_json_infinity_literal_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "precession", "B0": NaN, '
                        '"t_end": Infinity}')
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert "B0: value nan" in str(exc.value)
        assert "t_end: value inf" in str(exc.value)


def _attributes_read(tree, owner):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def test_every_key_is_read():
    """No config key that does nothing: each field is read as cfg.<key> in
    the run loop or the checks, or by a RunConfig property read there."""
    package = Path(spinkin.__file__).parent
    read = set()
    for name in ("scenarios.py", "cli.py"):
        read |= _attributes_read(ast.parse((package / name).read_text()),
                                 "cfg")
    config = ast.parse((package / "config.py").read_text())
    (cls,) = [node for node in config.body
              if isinstance(node, ast.ClassDef) and node.name == "RunConfig"]
    for fn in cls.body:
        if (isinstance(fn, ast.FunctionDef) and fn.name in read
                and any(isinstance(d, ast.Name) and d.id == "property"
                        for d in fn.decorator_list)):
            read |= _attributes_read(fn, "self")
    unread = {f.name for f in dataclasses.fields(RunConfig)} - read
    assert not unread, sorted(unread)
