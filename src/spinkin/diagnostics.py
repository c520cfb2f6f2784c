"""Time-series diagnostics: CSV ledger and frequency/damping fits."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class DiagnosticsSeries:
    """Scalar time series: a time column plus named value columns."""

    time: np.ndarray
    columns: dict

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.columns = {k: np.asarray(v, dtype=float)
                        for k, v in self.columns.items()}
        if np.any(np.diff(self.time) <= 0):
            raise ValueError("time column must be strictly increasing")
        bad = [k for k, v in self.columns.items()
               if v.shape != self.time.shape or not np.all(np.isfinite(v))]
        if bad or not np.all(np.isfinite(self.time)):
            raise ValueError(
                f"columns must be finite and match the time length: {bad}")

    def write_csv(self, path):
        names = list(self.columns)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time"] + names)
            for i, t in enumerate(self.time):
                writer.writerow([repr(float(t))]
                                + [repr(float(self.columns[k][i]))
                                   for k in names])

    @classmethod
    def read_csv(cls, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ValueError(f"{path}: empty CSV, no header row")
        header, body = rows[0], rows[1:]
        if header[0] != "time":
            raise ValueError("first CSV column must be 'time'")
        data = np.array([[float(c) for c in row] for row in body],
                        dtype=float).reshape(-1, len(header))
        return cls(data[:, 0], {name: data[:, 1 + j]
                                for j, name in enumerate(header[1:])})


@dataclass
class DiagnosticsRecorder:
    """Row-by-row accumulator for a fixed set of column names.

    A row with a non-finite value is rejected when it is added, so a run
    stops at the step where the value appears.
    """

    names: tuple
    _time: list = field(default_factory=list, init=False)
    _rows: list = field(default_factory=list, init=False)

    def add(self, t, **values):
        if set(values) != set(self.names):
            raise ValueError(
                f"row keys {sorted(values)} != declared {sorted(self.names)}")
        row = [float(values[k]) for k in self.names]
        for name, value in zip(self.names, row):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name} = {value!r} at t = {t!r}")
        self._time.append(float(t))
        self._rows.append(row)

    def series(self) -> DiagnosticsSeries:
        rows = np.asarray(self._rows, dtype=float).reshape(-1, len(self.names))
        return DiagnosticsSeries(
            np.asarray(self._time),
            {name: rows[:, j] for j, name in enumerate(self.names)})


@dataclass
class FrequencyFit:
    """Result of a damped-oscillation fit; check `conclusive` before use."""

    conclusive: bool
    omega: float = float("nan")
    gamma: float = float("nan")
    uncertainty: float = float("nan")
    reason: str = ""


# Levenberg-Marquardt limits of fit_frequency: at most FIT_MAX_STEPS trial
# steps; it stops once a step moves the scaled parameters, or an accepted
# step lowers the sum of squares, by at most FIT_TOL relative
FIT_MAX_STEPS = 1000
FIT_TOL = 1e-12


def _levenberg_marquardt(residual, jacobian, p):
    """Least-squares minimum of |residual(p)|^2 from the start point p.

    Marquardt (1963) damping of the Gauss-Newton step, scaled as in
    MINPACK's lmder (More 1978): the damping matrix is the running maximum
    of diag(J^T J).  Returns None when FIT_MAX_STEPS trial steps do not
    meet the FIT_TOL stopping rule.
    """
    r = residual(p)
    cost = r @ r
    jac = jacobian(p)
    scale = np.zeros(len(p))
    lam = 1e-3
    for _ in range(FIT_MAX_STEPS):
        normal = jac.T @ jac
        scale = np.maximum(scale, np.diag(normal))
        step = np.linalg.solve(normal + lam * np.diag(scale), -(jac.T @ r))
        trial = p + step
        r_trial = residual(trial)
        cost_trial = r_trial @ r_trial
        root = np.sqrt(scale)
        small_step = (np.linalg.norm(root * step)
                      <= FIT_TOL * np.linalg.norm(root * p))
        if cost_trial < cost:
            small_drop = cost - cost_trial <= FIT_TOL * cost
            p, r, cost = trial, r_trial, cost_trial
            if small_drop or small_step:
                return p
            jac = jacobian(p)
            lam /= 10
        elif small_step:
            return p
        else:
            lam *= 10
    return None


def fit_frequency(series: DiagnosticsSeries, column) -> FrequencyFit:
    """Frequency and damping of one column via spectral peak + local fit.

    The dominant FFT peak seeds a Levenberg-Marquardt fit (see
    `_levenberg_marquardt`) of a * exp(-gamma t) * cos(omega t + phase)
    + offset with the model's analytic Jacobian, from
    (a0, 0, omega0, 0, mean y).  It stops when a step changes the scaled
    parameters or the sum of squares by at most FIT_TOL = 1e-12 relative,
    so the numbers it reports are the least-squares minimum, not where
    the iteration stopped; the uncertainty is the RMS fit residual
    relative to the oscillation amplitude.  A series of fewer than 2
    samples, without a dominant peak (peak power < 10x the median), with
    fewer than 8 resolved periods or whose fit does not stop within
    FIT_MAX_STEPS trial steps is flagged inconclusive.
    """
    if column not in series.columns:
        raise KeyError(f"no column '{column}' in series")
    t = series.time
    y = series.columns[column]
    if len(t) < 2:
        return FrequencyFit(False, reason=f"{len(t)} samples; a fit needs at least 2")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValueError("frequency fitting requires uniform sampling")

    yc = y - np.mean(y)
    power = np.abs(np.fft.rfft(yc)) ** 2
    power[0] = 0.0
    freqs = 2 * np.pi * np.fft.rfftfreq(len(t), dt[0])
    peak = int(np.argmax(power))
    med = np.median(power[1:])
    if med <= 0 or power[peak] < 10 * med:
        return FrequencyFit(False, reason="no dominant spectral peak")
    omega0 = freqs[peak]
    if omega0 * (t[-1] - t[0]) < 8 * 2 * np.pi:
        return FrequencyFit(False, reason="fewer than 8 oscillation periods")

    tt = t - t[0]

    def model(p):
        a, gamma, omega, phase, offset = p
        return a * np.exp(-gamma * tt) * np.cos(omega * tt + phase) + offset

    def model_jac(p):
        # a forward difference cannot resolve the derivative in gamma or
        # offset near 0 (its step scales with the parameter), so the fit
        # would stall short of the minimum
        a, gamma, omega, phase, _ = p
        decay = np.exp(-gamma * tt)
        cos, sin = np.cos(omega * tt + phase), np.sin(omega * tt + phase)
        return np.column_stack([decay * cos, -tt * a * decay * cos,
                                -tt * a * decay * sin, -a * decay * sin,
                                np.ones_like(tt)])

    a0 = np.sqrt(2 * np.mean(yc**2))
    popt = _levenberg_marquardt(lambda p: model(p) - y, model_jac,
                                np.array([a0, 0.0, omega0, 0.0, np.mean(y)]))
    if popt is None:
        return FrequencyFit(False, reason="nonlinear fit did not converge")
    a, gamma, omega, _, _ = popt
    resid = y - model(popt)
    unc = float(np.sqrt(np.mean(resid**2)) / max(abs(a), 1e-300))
    return FrequencyFit(True, omega=abs(float(omega)), gamma=float(gamma),
                        uncertainty=unc)
