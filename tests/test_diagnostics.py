import os

import numpy as np
import pytest

from spinkin import diagnostics
from spinkin.config import config_from_dict
from spinkin.diagnostics import (
    DiagnosticsRecorder,
    DiagnosticsSeries,
    fit_frequency,
)
from spinkin.scenarios import run_case


def make_series(t, **cols):
    return DiagnosticsSeries(t, cols)


def curve_fit_reference(series, column):
    """(omega, gamma) from scipy's curve_fit (MINPACK lmder) on the model,
    analytic Jacobian, start point and tolerances of fit_frequency."""
    from scipy.optimize import curve_fit

    t, y = series.time - series.time[0], series.columns[column]
    power = np.abs(np.fft.rfft(y - np.mean(y))) ** 2
    power[0] = 0.0
    omega0 = 2 * np.pi * np.fft.rfftfreq(len(t), t[1] - t[0])[np.argmax(power)]

    def model(tt, a, gamma, omega, phase, offset):
        return a * np.exp(-gamma * tt) * np.cos(omega * tt + phase) + offset

    def model_jac(tt, a, gamma, omega, phase, offset):
        decay = np.exp(-gamma * tt)
        cos, sin = np.cos(omega * tt + phase), np.sin(omega * tt + phase)
        return np.column_stack([decay * cos, -tt * a * decay * cos,
                                -tt * a * decay * sin, -a * decay * sin,
                                np.ones_like(tt)])

    a0 = np.sqrt(2 * np.mean((y - np.mean(y)) ** 2))
    popt, _ = curve_fit(model, t, y, p0=[a0, 0.0, omega0, 0.0, np.mean(y)],
                        jac=model_jac, maxfev=20000, xtol=1e-12, ftol=1e-12)
    return abs(popt[2]), popt[1]


def fit_case(name, tmp_path):
    """(series, column) of a named test series."""
    if name == "cosine":
        t = np.arange(0, 20, 0.01)
        return make_series(t, y=np.cos(3.7 * t)), "y"
    if name == "damped":
        t = np.arange(0, 40, 0.01)
        return make_series(t, y=np.exp(-0.05 * t) * np.cos(2 * t)), "y"
    cfg = config_from_dict(dict(scenario="plasma_osc", n_x=32, n_particles=2000,
                                length=10.0, dt=0.1, t_end=56.0,
                                perturbation=1e-3))
    run_dir, status = run_case(cfg, out_dir=str(tmp_path))
    assert status == "completed"
    return DiagnosticsSeries.read_csv(os.path.join(run_dir, "diagnostics.csv")), "E_mode"


class TestSeries:
    def test_csv_round_trip_is_exact(self, tmp_path):
        t = np.linspace(0, 1, 11)
        s = make_series(t, a=np.sin(t), b=t**2 / 3)
        path = tmp_path / "d.csv"
        s.write_csv(path)
        again = DiagnosticsSeries.read_csv(path)
        assert np.array_equal(again.time, s.time)
        for k in s.columns:
            assert np.array_equal(again.columns[k], s.columns[k])

    def test_non_monotonic_time_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_series(np.array([0.0, 1.0, 1.0]), a=np.zeros(3))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_series(np.array([0.0, 1.0]), a=np.array([0.0, np.nan]))

    def test_recorder_enforces_declared_columns(self):
        rec = DiagnosticsRecorder(("a", "b"))
        rec.add(0.0, a=1.0, b=2.0)
        with pytest.raises(ValueError, match="row keys"):
            rec.add(1.0, a=1.0)
        rec.add(1.0, b=3.0, a=0.5)
        s = rec.series()
        assert np.array_equal(s.columns["b"], [2.0, 3.0])

    def test_recorder_rejects_non_finite_row(self, tmp_path):
        rec = DiagnosticsRecorder(("a", "b"))
        with pytest.raises(ValueError, match="non-finite b"):
            rec.add(0.0, a=1.0, b=np.nan)
        # the rejected row is not kept; an empty ledger still round-trips
        path = tmp_path / "d.csv"
        rec.series().write_csv(path)
        again = DiagnosticsSeries.read_csv(path)
        assert again.time.shape == (0,) and again.columns["b"].shape == (0,)


class TestFitFrequency:
    def test_pure_cosine_recovered_to_1e6(self):
        t = np.arange(0, 20, 0.01)
        s = make_series(t, y=np.cos(3.7 * t))
        fit = fit_frequency(s, "y")
        assert fit.conclusive
        assert abs(fit.omega - 3.7) / 3.7 < 1e-6
        assert abs(fit.gamma) < 1e-8

    def test_damped_cosine_frequency_and_rate(self):
        t = np.arange(0, 40, 0.01)
        s = make_series(t, y=np.exp(-0.05 * t) * np.cos(2 * t))
        fit = fit_frequency(s, "y")
        assert fit.conclusive
        assert abs(fit.omega - 2.0) < 1e-4
        assert abs(fit.gamma - 0.05) < 1e-3
        assert fit.uncertainty < 1e-6

    def test_constant_series_inconclusive_without_numbers(self):
        t = np.arange(0, 10, 0.01)
        s = make_series(t, y=np.full(len(t), 2.5))
        fit = fit_frequency(s, "y")
        assert not fit.conclusive
        assert np.isnan(fit.omega) and np.isnan(fit.gamma)
        assert fit.reason

    def test_too_few_periods_inconclusive(self):
        t = np.arange(0, 6, 0.01)          # under 8 periods of omega = 2
        s = make_series(t, y=np.cos(2 * t))
        fit = fit_frequency(s, "y")
        assert not fit.conclusive
        assert "period" in fit.reason

    def test_missing_column_raises(self):
        t = np.arange(0, 10, 0.1)
        s = make_series(t, y=np.cos(t))
        with pytest.raises(KeyError):
            fit_frequency(s, "z")

    def test_nonuniform_sampling_rejected(self):
        t = np.concatenate([np.arange(0, 5, 0.01), [5.3]])
        s = make_series(t, y=np.cos(2 * t))
        with pytest.raises(ValueError, match="uniform"):
            fit_frequency(s, "y")

    @pytest.mark.parametrize("case", ["cosine", "damped", "plasma_osc"])
    def test_matches_curve_fit(self, case, tmp_path):
        series, column = fit_case(case, tmp_path)
        fit = fit_frequency(series, column)
        omega, gamma = curve_fit_reference(series, column)
        assert fit.conclusive
        assert abs(fit.omega - omega) <= 1e-10 * omega
        assert abs(fit.gamma - gamma) <= 1e-10

    def test_step_cap_gives_inconclusive_fit(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "FIT_MAX_STEPS", 1)
        series, column = fit_case("cosine", None)
        fit = fit_frequency(series, column)
        assert not fit.conclusive
        assert fit.reason == "nonlinear fit did not converge"
        assert np.isnan(fit.omega) and np.isnan(fit.gamma)
