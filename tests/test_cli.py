import json
import os

import numpy as np
import pytest

from spinkin.cli import main
from spinkin.diagnostics import DiagnosticsSeries
from spinkin.snapshots import read_snapshot, write_snapshot


def write_config(tmp_path, **overrides):
    cfg = dict(scenario="precession", B0=0.5, n_particles=30, n_x=8,
               dt=0.1, t_end=1.0)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_run_writes_directory_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "runs")
        code = main(["run", "--config", cfg, "--out", out])
        assert code == 0
        line = capsys.readouterr().out.strip()
        run_dir = line.split(":")[0]
        assert run_dir.startswith(out)
        assert os.path.exists(os.path.join(run_dir, "diagnostics.csv"))

    def test_invalid_config_reports_and_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt=-1.0)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "dt" in capsys.readouterr().err

    def test_aborted_run_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, B0=2.0, dt=1.0, t_end=5.0)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # no scenario reads a seed, so run takes none
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"),
                     "--seed", "3"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_command_returns_two(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_env_out_override(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        env_out = str(tmp_path / "env-runs")
        monkeypatch.setenv("SPINKIN_OUT", env_out)
        code = main(["run", "--config", cfg])
        assert code == 0
        assert capsys.readouterr().out.startswith(env_out)


class TestCheck:
    def test_single_suite_passes(self, tmp_path, capsys):
        code = main(["check", "precession", "--out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS") and "precession" in out

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        code = main(["check", "warp", "--out", str(tmp_path / "c")])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err


class TestFit:
    def make_csv(self, tmp_path, y, dt=0.01):
        t = np.arange(len(y)) * dt
        path = tmp_path / "series.csv"
        DiagnosticsSeries(t, {"y": np.asarray(y)}).write_csv(path)
        return str(path)

    def test_cosine_fit(self, tmp_path, capsys):
        t = np.arange(0, 20, 0.01)
        path = self.make_csv(tmp_path, np.cos(3.7 * t))
        code = main(["fit", "--input", path, "--column", "y"])
        out = capsys.readouterr().out
        assert code == 0
        omega = float(out.split("omega=")[1].split()[0])
        assert abs(omega - 3.7) / 3.7 < 1e-6

    def test_constant_series_inconclusive(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, np.full(2000, 1.0))
        code = main(["fit", "--input", path, "--column", "y"])
        assert code == 3
        assert "inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("text, code, stream, message", [
        ("time,y\n0.0,1.0\n", 3, "out", "1 samples"),
        ("time,y\n", 3, "out", "0 samples"),
        ("", 2, "err", "empty CSV"),
    ])
    def test_aborted_run_csv(self, tmp_path, capsys, text, code, stream, message):
        # a run that aborts at step 0 or 1 leaves such a file
        path = tmp_path / "diagnostics.csv"
        path.write_text(text)
        assert main(["fit", "--input", str(path), "--column", "y"]) == code
        assert message in getattr(capsys.readouterr(), stream)

    def test_missing_column_is_an_error(self, tmp_path, capsys):
        t = np.arange(0, 20, 0.01)
        path = self.make_csv(tmp_path, np.cos(t))
        code = main(["fit", "--input", path, "--column", "nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err


def write_state(tmp_path, n=64, length=12.0):
    x = np.arange(n) * length / n
    env = np.exp(-((x - length / 2) ** 2) / 2) * np.exp(1j * 0.7 * x)
    psi = np.zeros((2, n), dtype=complex)
    psi[0] = env * 0.8
    psi[1] = env * 0.6
    arr = np.stack([psi.real, psi.imag], axis=-1)
    base = str(tmp_path / "state")
    write_snapshot(base, arr, {"component": {"n": 2},
                               "x": {"n": n, "spacing": length / n},
                               "re_im": {"n": 2}},
                   extra={"length": length, "hbar": 1.0})
    return base


class TestTransform:

    @pytest.mark.parametrize("kind", ["wigner", "spinq", "gi"])
    def test_kinds_produce_snapshots(self, tmp_path, capsys, kind):
        base = write_state(tmp_path)
        code = main(["transform", "--input", base, "--kind", kind])
        assert code == 0
        out_base = capsys.readouterr().out.strip()
        arr, meta = read_snapshot(out_base)
        assert meta["extra"]["kind"] == kind
        assert np.all(np.isfinite(arr))
        if kind == "spinq":
            assert arr.shape == (8, 16)
            assert arr.min() >= -1e-12
        else:
            assert arr.shape == (64, 64)

    def test_gi_and_wigner_make_one_kernel_call_without_sphere(
            self, tmp_path, capsys, monkeypatch):
        from spinkin import transforms
        from spinkin.gauge import gi_wigner_transform, kinetic_wigner_transform
        from spinkin.grid import SpatialGrid1D
        from spinkin.params import PlasmaParams
        from spinkin.pauli import SpinorField
        from spinkin.sphere import SphereQuadrature

        plain = write_state(tmp_path)
        data, meta = read_snapshot(plain)
        extra = meta["extra"]
        grid = SpatialGrid1D(data.shape[1], extra["length"])
        A_x = 0.3 * np.sin(2 * np.pi * grid.x / grid.length) + 0.1 * np.cos(
            4 * np.pi * grid.x / grid.length)
        shifted = str(tmp_path / "shifted")
        write_snapshot(shifted, data, meta["axes"],
                       extra=dict(extra, A_x=A_x.tolist()))

        params = PlasmaParams(hbar=extra["hbar"])
        psi = SpinorField(grid, data[:, :, 0] + 1j * data[:, :, 1]).normalized()
        v = transforms.conjugate_momentum_axis(grid, params.hbar) / params.mass
        refs = {"gi": gi_wigner_transform(psi, A_x, params, v),
                "wigner": kinetic_wigner_transform(psi, np.zeros(grid.n),
                                                   params, v)}

        kernel = transforms.phase_space_correlation
        ops_seen, spheres = [], []

        def counted_kernel(*args, **kwargs):
            ops_seen.append(np.shape(args[4]))
            return kernel(*args, **kwargs)

        def counted_sphere(quad):
            spheres.append((quad.n_theta, quad.n_phi))

        monkeypatch.setattr(transforms, "phase_space_correlation",
                            counted_kernel)
        monkeypatch.setattr(SphereQuadrature, "__post_init__", counted_sphere)
        for base, kind in ((shifted, "gi"), (plain, "wigner")):
            ops_seen.clear()
            assert main(["transform", "--input", base, "--kind", kind]) == 0
            got, _ = read_snapshot(capsys.readouterr().out.strip())
            f = refs[kind]
            ref = np.sum(f.values * f.quad.weights, axis=(2, 3))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert spheres == []
            assert ops_seen == [(1, 2, 2)]

    @pytest.mark.parametrize("kind, budget", [("wigner", 2.5), ("gi", 3.5)])
    def test_transform_peak_memory(self, tmp_path, capsys, kind, budget):
        # traced peak of one N = 512 call, in units of one real (N, N)
        # array: the output plus the half-lag correlation and the dressing
        # factor, with no full-lag arrays or output copies
        import tracemalloc

        n, length = 512, 32.0
        base = write_state(tmp_path, n=n, length=length)
        data, meta = read_snapshot(base)
        k = 2 * np.pi * 2 / length
        A_x = 0.3 * k * np.cos(k * np.arange(n) * length / n)
        write_snapshot(base, data, meta["axes"],
                       extra=dict(meta["extra"], A_x=A_x.tolist()))
        # the first call pays the imports and the parser
        assert main(["transform", "--input", base, "--kind", kind]) == 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["transform", "--input", base, "--kind", kind]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= budget * n * n * 8, f"{peak / (n * n * 8):.2f} N^2 x 8 B"

    @pytest.mark.parametrize("key", ["length", "hbar"])
    def test_sidecar_without_length_or_hbar_rejected(self, tmp_path, capsys,
                                                     key):
        # a missing key was read as a 2 pi domain or hbar = 1
        base = write_state(tmp_path)
        data, meta = read_snapshot(base)
        extra = {k: v for k, v in meta["extra"].items() if k != key}
        write_snapshot(base, data, meta["axes"], extra=extra)
        for kind in ("wigner", "spinq", "gi"):
            assert main(["transform", "--input", base, "--kind", kind]) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error:") and err.endswith(f"lacks {key}")

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        base = str(tmp_path / "bad")
        write_snapshot(base, np.zeros((3, 4)), {"a": {"n": 3}, "b": {"n": 4}})
        code = main(["transform", "--input", base, "--kind", "wigner"])
        assert code == 2


def test_consecutive_main_calls_reuse_one_parser(tmp_path, capsys, monkeypatch):
    from spinkin import cli

    built = []
    build = cli.build_parser

    def counted_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    try:
        t = np.arange(0, 20, 0.01)
        wave = str(tmp_path / "wave.csv")
        DiagnosticsSeries(t, {"y": np.cos(3.7 * t)}).write_csv(wave)
        flat = str(tmp_path / "flat.csv")
        DiagnosticsSeries(t, {"y": np.ones_like(t)}).write_csv(flat)
        state = write_state(tmp_path)
        calls = [
            (["check", "stern_gerlach", "--out", str(tmp_path / "c")], 0,
             "PASS  stern_gerlach"),
            (["transform", "--input", state, "--kind", "wigner"], 0,
             state + ".wigner"),
            (["fit", "--input", flat, "--column", "y"], 3, "inconclusive"),
            (["check", "warp", "--out", str(tmp_path / "c")], 2, ""),
            (["transform", "--input", state, "--kind", "spinq",
              "--out", str(tmp_path / "q")], 0, str(tmp_path / "q")),
            (["fit", "--input", wave, "--column", "y"], 0, "omega=3.7"),
        ]
        for argv, code, out in calls:
            assert main(argv) == code, argv
            assert capsys.readouterr().out.startswith(out), argv
        # options of an earlier call do not carry over
        assert main(["transform", "--kind", "gi"]) == 2
        assert "--input" in capsys.readouterr().err
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
