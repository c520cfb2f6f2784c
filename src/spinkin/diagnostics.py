"""Time-series diagnostics: CSV ledger and frequency/damping fits."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit


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
    _time: list = field(default_factory=list)
    _rows: list = field(default_factory=list)

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


def fit_frequency(series: DiagnosticsSeries, column) -> FrequencyFit:
    """Frequency and damping of one column via spectral peak + local fit.

    The dominant FFT peak seeds a nonlinear fit of
    a * exp(-gamma t) * cos(omega t + phase) + offset; the uncertainty is
    the RMS fit residual relative to the oscillation amplitude.  A series
    without a dominant peak (peak power < 10x the median) or with fewer
    than 8 resolved periods is flagged inconclusive.
    """
    if column not in series.columns:
        raise KeyError(f"no column '{column}' in series")
    t = series.time
    y = series.columns[column]
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

    def model(tt, a, gamma, omega, phase, offset):
        return a * np.exp(-gamma * tt) * np.cos(omega * tt + phase) + offset

    a0 = np.sqrt(2 * np.mean(yc**2))
    try:
        popt, _ = curve_fit(
            model, t - t[0], y,
            p0=[a0, 0.0, omega0, 0.0, np.mean(y)],
            maxfev=20000)
    except RuntimeError:
        return FrequencyFit(False, reason="nonlinear fit did not converge")
    a, gamma, omega, _, _ = popt
    resid = y - model(t - t[0], *popt)
    unc = float(np.sqrt(np.mean(resid**2)) / max(abs(a), 1e-300))
    return FrequencyFit(True, omega=abs(float(omega)), gamma=float(gamma),
                        uncertainty=unc)
