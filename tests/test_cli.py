import math

import numpy as np
import pytest

from rydfm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from rydfm.scenario import ScanOpts

TWO_PI = 2 * math.pi

COLD_BASE = """
[system]
temperature = 1e-9
n_atoms = 1e13

[drive]
omega_p = 2.5132741228718345e6
omega_c = 7.5398223686155035e6
delta_c = 6.283185307179586e6

[fm]
n_max = 5

[ram]
dphi_n = 0.2
duration_s = 1.0

[noise]
kind = white_fm
coefficient = 4e-22
n_samples = 8192
dt = 1e-3

[scan]
start_hz = -10e6
stop_hz = 10e6
step_hz = 0.5e6
e_start = 0.9
e_stop = 1.8
e_step = 0.9
kernel_hwhm_hz = 2.0e6
e_operating = 0.02
"""


def body_of(path):
    """CSV rows without '#' header lines."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.fixture
def cold_config(tmp_path):
    cfg = tmp_path / "cold.cfg"
    cfg.write_text(COLD_BASE)
    return cfg


class TestExitCodes:
    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[system]\ncell_length = -1\n")
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "cell_length" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        rc = main(["scan", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 4

    def test_numeric_failure(self, tmp_path, capsys):
        # symmetric quadrature point has zero responsivity
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(COLD_BASE.replace("delta_c = 6.283185307179586e6", "delta_c = 0.0"))
        rc = main(["sensitivity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert "derivative" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("step_hz", "1e-6"), ("e_step", "1e-12")])
    def test_oversized_grid_is_a_config_error(self, key, value, tmp_path, capsys, monkeypatch):
        # the point count is checked before any grid exists
        def no_grid(self):
            raise AssertionError("grid built")

        for method in ("detuning_grid_hz", "probe_grid_rad_s", "field_grid"):
            monkeypatch.setattr(ScanOpts, method, no_grid)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(COLD_BASE.replace(f"{key} = ", f"{key} = {value} # "))
        for subcommand in ("scan", "atcal", "matched"):
            rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert "limit is 1000000" in capsys.readouterr().err


class TestOutputs:
    def test_scan_headers_and_columns(self, cold_config, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cold_config), "--out", str(out)]) == EXIT_OK
        text = (out / "spectrum.csv").read_text()
        assert "# config_hash = " in text
        assert "# seed = 12345" in text
        assert "detuning_hz,re_chi,im_chi,power_transmission,phase_rad" in text
        assert len(body_of(out / "spectrum.csv")) == 41

    def test_seed_override_recorded(self, cold_config, tmp_path):
        out = tmp_path / "out"
        main(["noise", "--config", str(cold_config), "--seed", "777", "--out", str(out)])
        assert "# seed = 777" in (out / "timeseries.csv").read_text()

    def test_env_var_output_dir(self, cold_config, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("RYDFM_OUT", str(target))
        assert main(["noise", "--config", str(cold_config)]) == EXIT_OK
        assert (target / "timeseries.csv").exists()

    def test_servo_writes_four_files(self, cold_config, tmp_path):
        out = tmp_path / "out"
        assert main(["servo", "--config", str(cold_config), "--out", str(out)]) == EXIT_OK
        for name in (
            "servo_trace_locked.csv",
            "servo_trace_unlocked.csv",
            "servo_allan_locked.csv",
            "servo_allan_unlocked.csv",
        ):
            assert (out / name).exists()

    def test_allan_classification_written(self, cold_config, tmp_path):
        out = tmp_path / "out"
        assert main(["allan", "--config", str(cold_config), "--out", str(out)]) == EXIT_OK
        lines = body_of(out / "allan_classification.csv")
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_manifest_lists_outputs(self, cold_config, tmp_path):
        out = tmp_path / "out"
        main(["scan", "--config", str(cold_config), "--out", str(out)])
        manifest = (out / "manifest_scan.txt").read_text()
        assert "config_hash" in manifest and "spectrum.csv" in manifest


class TestPhysicsThroughCli:
    def test_fmscan_quadrature_antisymmetric(self, tmp_path):
        cfg = tmp_path / "sym.cfg"
        cfg.write_text(COLD_BASE.replace("delta_c = 6.283185307179586e6", "delta_c = 0.0"))
        out = tmp_path / "out"
        assert main(["fmscan", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = np.array([[float(x) for x in line.split(",")] for line in body_of(out / "fm_spectrum.csv")])
        quad = rows[:, 2]
        step = 1
        i_max, i_min = np.argmax(quad), np.argmin(quad)
        center = rows[:, 0].size // 2
        assert abs((i_max - center) + (i_min - center)) <= 2 * step
        assert np.max(np.abs(quad + quad[::-1])) < 1e-6 * np.max(np.abs(quad))

    def test_atcal_linear_in_resolved_regime(self, cold_config, tmp_path):
        out = tmp_path / "out"
        cfg = cold_config.read_text().replace("start_hz = -10e6", "start_hz = -25e6")
        cfg = cfg.replace("stop_hz = 10e6", "stop_hz = 25e6").replace("step_hz = 0.5e6", "step_hz = 0.1e6")
        path = tmp_path / "at.cfg"
        path.write_text(cfg)
        assert main(["atcal", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = np.array([[float(x) for x in line.split(",")] for line in body_of(out / "at_calibration.csv")])
        resolved = rows[rows[:, 3] == 1.0]
        assert resolved.shape[0] == 2
        assert np.all(np.abs(resolved[:, 1] / resolved[:, 2] - 1) < 0.05)

    def test_sensitivity_keys(self, cold_config, tmp_path):
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cold_config), "--out", str(out)]) == EXIT_OK
        text = (out / "sensitivity.txt").read_text()
        for key in ("responsivity_a_per_v_m", "noise_floor_a_per_sqrt_hz",
                    "e_min_v_per_m_sqrt_hz", "projection_limit_v_per_m_sqrt_hz"):
            assert key in text


class TestDeterminism:
    @pytest.mark.parametrize("subcommand", ["scan", "noise", "allan", "servo", "matched"])
    def test_rerun_byte_identical(self, subcommand, cold_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([subcommand, "--config", str(cold_config), "--out", str(out_a)]) == EXIT_OK
        assert main([subcommand, "--config", str(cold_config), "--out", str(out_b)]) == EXIT_OK
        files_a = sorted(p for p in out_a.iterdir() if p.suffix == ".csv")
        assert files_a
        for file_a in files_a:
            file_b = out_b / file_a.name
            assert file_a.read_bytes() == file_b.read_bytes()
