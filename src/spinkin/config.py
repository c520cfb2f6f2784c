"""Run configuration: strict JSON schema with defaults and validation.

Every key is declared once, as a `RunConfig` field: the annotation is its
type, the default its default (a field without one is required), and the
metadata its range text and validator.  An integer key is finite below
2**63.  A configuration is a flat JSON object.  Unknown keys are rejected,
every violation is reported (all at once) with the expected type and
range, and a write-then-read round trip reproduces the default-expanded
config exactly.  Every key is read by a scenario's setup or by the run
loop (`scenario`, `dt`, `t_end`, `cadence`, `out_dir`).
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .params import PlasmaParams

_INT_LIMIT = 2**63


def _key(default, rng, check):
    return field(default=default, metadata={"range": rng, "check": check})


# (range text, validator) pairs shared by several keys
_POSITIVE_INT = ("finite, > 0", lambda v: 0 < v < _INT_LIMIT)
_POSITIVE = ("finite, > 0", lambda v: 0 < v < math.inf)
_FINITE = ("finite", math.isfinite)


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-expanded run configuration."""

    scenario: str = _key(MISSING, "scenario name", bool)
    n_x: int = _key(64, *_POSITIVE_INT)
    length: float = _key(10.0, *_POSITIVE)
    n_v: int = _key(32, *_POSITIVE_INT)
    v_max: float = _key(4.0, *_POSITIVE)
    hbar: float = _key(1.0, *_POSITIVE)
    c: float = _key(1.0, *_POSITIVE)
    density: float = _key(1.0, *_POSITIVE)
    n_particles: int = _key(20000, *_POSITIVE_INT)
    dt: float = _key(0.01, *_POSITIVE)
    t_end: float = _key(10.0, *_POSITIVE)
    cadence: int = _key(1, *_POSITIVE_INT)
    B0: float = _key(0.0, *_FINITE)
    B1: float = _key(0.0, *_FINITE)
    mode: int = _key(1, *_POSITIVE_INT)
    perturbation: float = _key(1e-3, *_FINITE)
    out_dir: str = _key("runs", "directory path", bool)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def params(self) -> PlasmaParams:
        """The run's constants: hbar and c from the config, e = m =
        epsilon0 = 1 and mu0 = 1/c^2."""
        return PlasmaParams(hbar=self.hbar, c=self.c)

    def to_dict(self) -> dict:
        return asdict(self)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _shown(val):
    """repr of a rejected value; an integer past the int bound by its digit
    count, since str() of one over 4300 digits raises."""
    if isinstance(val, int) and abs(val) >= _INT_LIMIT:
        n = abs(val)
        digits = int(n.bit_length() * math.log10(2))
        return f"<{digits + (n >= 10**digits)}-digit integer>"
    return repr(val)


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw mapping against the schema, filling defaults.

    Every violation (unknown key, wrong type, range, cross-field
    constraint) is listed in the single raised error.
    """
    errors = []
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    schema = fields(RunConfig)
    for key in sorted(set(data) - {f.name for f in schema}):
        errors.append(f"{key}: unknown key (strict mode)")

    values = {}
    for f in schema:
        key, typ = f.name, f.type
        rng, check = f.metadata["range"], f.metadata["check"]
        if key not in data:
            if f.default is MISSING:
                errors.append(f"{key}: required ({typ.__name__}, {rng})")
            else:
                values[key] = f.default
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
                f"got {type(val).__name__} {_shown(val)}")
            continue
        if not check(val):
            errors.append(f"{key}: value {_shown(val)} violates {rng}")
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
