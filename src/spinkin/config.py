"""Run configuration: strict JSON schema with defaults and validation.

A configuration is a flat JSON object.  Unknown keys are rejected, every
violation is reported (all at once) with the expected type and range, and
a write-then-read round trip reproduces the default-expanded config
exactly.
"""

import json
import math
from dataclasses import asdict, dataclass

# key -> (python type(s), range description, validator, default)
_POSITIVE = ("finite, > 0", lambda v: 0 < v < math.inf)
_NONNEG = (">= 0", lambda v: v >= 0)
_FINITE = ("finite", math.isfinite)
_SCHEMA = {
    "scenario": (str, "scenario name", lambda v: bool(v), None),
    "n_x": (int, *_POSITIVE, 64),
    "length": (float, *_POSITIVE, 10.0),
    "n_v": (int, *_POSITIVE, 32),
    "v_max": (float, *_POSITIVE, 4.0),
    "n_theta": (int, *_POSITIVE, 8),
    "n_phi": (int, *_POSITIVE, 16),
    "hbar": (float, *_POSITIVE, 1.0),
    "c": (float, *_POSITIVE, 1.0),
    "density": (float, *_POSITIVE, 1.0),
    "n_particles": (int, *_POSITIVE, 20000),
    "seed": (int, *_NONNEG, 0),
    "dt": (float, *_POSITIVE, 0.01),
    "t_end": (float, *_POSITIVE, 10.0),
    "cadence": (int, *_POSITIVE, 1),
    "B0": (float, *_FINITE, 0.0),
    "B1": (float, *_FINITE, 0.0),
    "mode": (int, *_POSITIVE, 1),
    "perturbation": (float, *_FINITE, 1e-3),
    "out_dir": (str, "directory path", lambda v: bool(v), "runs"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-expanded run configuration."""

    scenario: str
    n_x: int
    length: float
    n_v: int
    v_max: float
    n_theta: int
    n_phi: int
    hbar: float
    c: float
    density: float
    n_particles: int
    seed: int
    dt: float
    t_end: float
    cadence: int
    B0: float
    B1: float
    mode: int
    perturbation: float
    out_dir: str

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def to_dict(self) -> dict:
        return asdict(self)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw mapping against the schema, filling defaults.

    Every violation (unknown key, wrong type, range, cross-field
    constraint) is listed in the single raised error.
    """
    errors = []
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    for key in sorted(set(data) - set(_SCHEMA)):
        errors.append(f"{key}: unknown key (strict mode)")

    values = {}
    for key, (typ, rng, check, default) in _SCHEMA.items():
        if key not in data:
            if default is None:
                errors.append(f"{key}: required ({typ.__name__}, {rng})")
            else:
                values[key] = default
            continue
        val = data[key]
        if typ is float and isinstance(val, int) and not isinstance(val, bool):
            try:
                val = float(val)
            except OverflowError:
                errors.append(f"{key}: integer out of float range ({rng})")
                continue
        if isinstance(val, bool):
            errors.append(f"{key}: expected {typ.__name__}, got bool")
            continue
        if not isinstance(val, typ):
            errors.append(
                f"{key}: expected {typ.__name__} ({rng}), "
                f"got {type(val).__name__} {val!r}")
            continue
        if not check(val):
            errors.append(f"{key}: value {val!r} violates {rng}")
            continue
        values[key] = val

    if not errors:
        if values["dt"] >= values["t_end"]:
            errors.append(
                f"dt: must be smaller than t_end "
                f"({values['dt']} >= {values['t_end']})")
        else:
            n_steps = round(values["t_end"] / values["dt"])
            if abs(n_steps * values["dt"] - values["t_end"]) > 1e-9 * values["t_end"]:
                errors.append(
                    "t_end: must be an integer multiple of dt "
                    f"({values['t_end']} / {values['dt']})")
            elif n_steps % values["cadence"] != 0:
                errors.append(
                    f"cadence: {values['cadence']} does not divide the "
                    f"step count {n_steps}")
    if errors:
        raise ValueError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
