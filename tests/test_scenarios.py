import dataclasses
import json
import os

import numpy as np
import pytest

from spinkin.config import RunConfig, config_from_dict
from spinkin.diagnostics import DiagnosticsSeries, fit_frequency
from spinkin.params import PlasmaParams
from spinkin.scenarios import SCENARIOS, run_case
from spinkin.snapshots import read_snapshot


def run(tmp_path, **cfg):
    return run_case(config_from_dict(cfg), out_dir=str(tmp_path))


def series_of(run_dir):
    return DiagnosticsSeries.read_csv(os.path.join(run_dir, "diagnostics.csv"))


# one small run of each scenario
SMALL_RUNS = [
    dict(scenario="precession", B0=0.5, n_particles=200, n_x=8,
         dt=0.1, t_end=1.0),
    dict(scenario="plasma_osc", n_x=16, n_particles=2000, dt=0.1,
         t_end=2.0),
    dict(scenario="plasma_osc_fluid", n_x=16, dt=0.05, t_end=2.0),
    dict(scenario="free_stream", n_x=16, n_v=8, dt=0.025, t_end=0.25),
    dict(scenario="stern_gerlach", B1=0.1, n_particles=100, n_x=16,
         dt=0.02, t_end=0.2),
]


class TestRunDirectory:
    def test_self_describing_contents(self, tmp_path):
        d, status = run(tmp_path, scenario="precession", B0=0.5,
                        n_particles=50, n_x=8, dt=0.1, t_end=1.0)
        assert status == "completed"
        cfg = json.load(open(os.path.join(d, "config.json")))
        assert cfg["scenario"] == "precession" and cfg["B0"] == 0.5
        manifest = json.load(open(os.path.join(d, "run.json")))
        assert manifest["status"] == "completed"
        assert manifest["format_version"] == 1
        arr, meta = read_snapshot(os.path.join(d, "snap_initial"))
        assert arr.shape[1] == 8
        s = series_of(d)
        assert len(s.time) == 11        # cadence 1 including t = 0

    def test_existing_directory_not_clobbered(self, tmp_path):
        kw = dict(scenario="precession", B0=0.5, n_particles=20, n_x=8,
                  dt=0.1, t_end=0.5)
        d1, _ = run(tmp_path, **kw)
        d2, _ = run(tmp_path, **kw)
        assert d1 == str(tmp_path / "precession")
        assert d2 == str(tmp_path / "precession-1")
        assert os.path.isdir(d1) and os.path.isdir(d2)

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run(tmp_path, scenario="warp_drive")

    def test_directory_claimed_atomically(self, tmp_path, monkeypatch):
        # another run creates the directory between any existence check
        # and makedirs; the loser must move on to the next suffix
        (tmp_path / "precession").mkdir()
        (tmp_path / "precession-1").mkdir()
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        d, status = run(tmp_path, scenario="precession", B0=0.5,
                        n_particles=20, n_x=8, dt=0.1, t_end=0.2)
        assert status == "completed"
        assert d == str(tmp_path / "precession-2")


class TestDeterminism:
    @pytest.mark.parametrize("kw", SMALL_RUNS, ids=lambda kw: kw["scenario"])
    def test_identical_config_gives_identical_csv(self, tmp_path, kw):
        d1, s1 = run(tmp_path / "a", **kw)
        d2, _ = run(tmp_path / "b", **kw)
        assert s1 == "completed"
        b1 = open(os.path.join(d1, "diagnostics.csv"), "rb").read()
        b2 = open(os.path.join(d2, "diagnostics.csv"), "rb").read()
        assert b1 == b2


class TestConfigKeysRead:
    # read by run_case itself; every other key only by a scenario's setup
    RUN_LOOP_KEYS = {"scenario", "dt", "t_end", "cadence", "out_dir"}

    def test_every_field_is_read_by_a_run(self):
        # strict config: a key no run reads would be accepted and ignored
        # (RunConfig(**values) passes every field, so the layout test's
        # constructor scan cannot see this)
        names = {f.name for f in dataclasses.fields(RunConfig)}
        reads = set()

        class Recording(RunConfig):
            def __getattribute__(self, name):
                if name in names:
                    reads.add(name)
                return super().__getattribute__(name)

        assert {kw["scenario"] for kw in SMALL_RUNS} == set(SCENARIOS)
        for kw in SMALL_RUNS:
            cfg = config_from_dict(kw)
            SCENARIOS[cfg.scenario].setup(Recording(**cfg.to_dict()))
        unread = names - reads - self.RUN_LOOP_KEYS
        assert not unread, f"RunConfig fields no run reads: {sorted(unread)}"
        assert self.RUN_LOOP_KEYS <= names


class TestAbortSafety:
    def test_guard_violation_preserves_artifacts(self, tmp_path):
        # dt * omega_c = 2.0 trips the pusher guard on the first step
        d, status = run(tmp_path, scenario="precession", B0=2.0,
                        n_particles=20, n_x=8, dt=1.0, t_end=5.0)
        assert status.startswith("aborted:")
        assert "dt" in status
        manifest = json.load(open(os.path.join(d, "run.json")))
        assert manifest["status"] == status
        # the initial snapshot and the (single-row) diagnostics survive
        arr, _ = read_snapshot(os.path.join(d, "snap_initial"))
        assert np.all(np.isfinite(arr))
        assert len(series_of(d).time) == 1
        leftovers = [f for f in os.listdir(d) if f.startswith(".tmp")]
        assert leftovers == []

    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_diagnostic_aborts_at_its_step(self, tmp_path):
        # one particle leaves the spin-up beam empty: v_up is NaN at t = 0
        d, status = run(tmp_path, scenario="stern_gerlach", n_particles=1,
                        B0=0.0, B1=0.1, n_x=32, dt=0.02, t_end=2.0)
        assert status.startswith("aborted: non-finite v_up")
        assert status.endswith("(step 0)")
        manifest = json.load(open(os.path.join(d, "run.json")))
        assert manifest["status"] == status
        assert len(series_of(d).time) == 0


class TestScenarioPhysics:
    def test_precession_frequency(self, tmp_path):
        params = PlasmaParams()
        B0 = 1.0
        d, _ = run(tmp_path, scenario="precession", B0=B0, n_particles=64,
                   n_x=8, dt=0.2, t_end=320.0)
        s = series_of(d)
        fit = fit_frequency(s, "sigma_x")
        target = 2 * params.mu_B * B0 / params.hbar
        assert fit.conclusive
        assert abs(fit.omega - target) / target < 1e-3
        assert np.max(s.columns["spin_norm_dev"]) < 1e-12

    def test_plasma_oscillation_frequency(self, tmp_path):
        d, _ = run(tmp_path, scenario="plasma_osc", n_x=64,
                   n_particles=20000, length=10.0, dt=0.1, t_end=56.0)
        s = series_of(d)
        fit = fit_frequency(s, "E_mode")
        assert fit.conclusive
        assert abs(fit.omega - 1.0) < 0.01        # omega_p = 1 in code units
        charge = s.columns["total_charge"]
        assert np.max(np.abs(charge - charge[0])) < 1e-12 * abs(charge[0])

    def test_fluid_bohm_dispersion(self, tmp_path):
        L = 10.0
        d, _ = run(tmp_path, scenario="plasma_osc_fluid",
                   n_x=64, length=L, dt=0.01, t_end=56.0, cadence=10)
        s = series_of(d)
        fit = fit_frequency(s, "n_mode")
        k = 2 * np.pi / L
        target2 = 1.0 + k**4 / 4
        assert fit.conclusive
        assert abs(fit.omega**2 - target2) / target2 < 0.02
        mass = s.columns["mass"]
        assert np.max(np.abs(mass - mass[0])) < 1e-10 * mass[0]

    def test_free_stream_error_drops_at_scheme_order(self, tmp_path):
        errs = []
        for n_x, dt in ((32, 0.025), (64, 0.0125)):
            d, _ = run(tmp_path, scenario="free_stream", n_x=n_x, n_v=24,
                       dt=dt, t_end=1.0)
            errs.append(series_of(d).columns["l1_error"][-1])
        assert errs[0] / errs[1] > 2.8

    def test_stern_gerlach_beam_acceleration(self, tmp_path):
        params = PlasmaParams()
        B1 = 0.1
        d, _ = run(tmp_path, scenario="stern_gerlach", B0=0.0, B1=B1,
                   n_particles=200, n_x=32, dt=0.02, t_end=2.0)
        s = series_of(d)
        target = params.mu_B * B1 / params.mass
        up = np.polyfit(s.time, s.columns["v_up"], 1)[0]
        down = np.polyfit(s.time, s.columns["v_down"], 1)[0]
        assert abs(up + target) / target < 5e-3
        assert abs(down - target) / target < 5e-3
