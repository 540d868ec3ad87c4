import ast
import fnmatch
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rydfm import cli, errors, quantum, scenario
from rydfm.cli import CSV_BLOCK_ROWS, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main, write_csv
from rydfm.scenario import ScanOpts

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = ROOT / "configs"

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


class UnlistedError(errors.RydfmError):
    """A package error that no rydfm module defines or raises."""


PACKAGE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.RydfmError)] + [UnlistedError]


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

    @pytest.mark.parametrize("text, expected", [
        ("[fm]\ndrive_dbm = 8\n", "error: line 2: unknown key 'drive_dbm' in [fm]\n"),
        ("[output]\ndir = results\n", "error: line 1: unknown section [output]\n"),
    ], ids=["fm-drive_dbm", "output-section"])
    def test_second_spellings_are_unknown(self, text, expected, tmp_path, capsys):
        # beta alone sets the modulation index and --out alone the output directory
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr().err) == (EXIT_CONFIG, expected)
        assert not (tmp_path / "o").exists()

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

    def test_cold_self_check_failure_is_numeric(self, cold_config, tmp_path, capsys, monkeypatch):
        direct = quantum._steady_rho21_many
        monkeypatch.setattr(quantum, "_steady_rho21_many", lambda lam: direct(lam) * (1 + 1e-6))
        rc = main(["atcal", "--config", str(cold_config), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert "detuning-pole expansion misses direct solves" in capsys.readouterr().err

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


    def test_fm_medium_samples_capped_before_fm_config(self, tmp_path, capsys, monkeypatch):
        # 41 detunings x 2e12 + 1 sideband orders; FmConfig would try to
        # sum the Bessel closure over all of them
        def no_run(*args, **kwargs):
            raise AssertionError("FM pipeline ran")

        monkeypatch.setattr(cli.pipelines, "fm_probe_scan", no_run)
        monkeypatch.setattr(cli.pipelines, "rf_detuning_scan", no_run)
        cfg = tmp_path / "orders.cfg"
        cfg.write_text(COLD_BASE.replace("n_max = 5", "n_max = 1000000000000"))
        for subcommand in ("fmscan", "matched"):
            rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert "limit is 1000000" in capsys.readouterr().err

    def test_noise_samples_capped_before_any_array(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("noise synthesized")

        monkeypatch.setattr(cli.noise, "gen_powerlaw", no_run)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(COLD_BASE.replace("n_samples = 8192", "n_samples = 8796093022208"))
        for subcommand in ("noise", "allan"):
            rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert "n_samples must lie in [2, 16777216]" in capsys.readouterr().err

    def test_zero_composite_budget_needs_power_of_two_samples(self, tmp_path, capsys):
        cfg = tmp_path / "zeros.cfg"
        cfg.write_text(COLD_BASE.replace("kind = white_fm", "kind = composite")
                       .replace("n_samples = 8192", "n_samples = 1000"))
        for subcommand in ("noise", "allan"):
            rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "error: [noise] n_samples must be a power of two unless kind = shot, got 1000\n")

    def test_servo_steps_capped_before_any_array(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("servo ran")

        monkeypatch.setattr(cli.servo, "run_servo", no_run)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(COLD_BASE.replace("duration_s = 1.0", "duration_s = 1e12"))
        rc = main(["servo", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "limit is 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("key_line, message", [
        ("n_max = 2", "sideband truncation keeps"),
        ("beta = 1e308", "sideband truncation keeps"),
    ])
    def test_scenario_that_fails_to_load_is_a_config_error(self, key_line, message, tmp_path,
                                                           capsys):
        cfg = tmp_path / "fm.cfg"
        cfg.write_text(COLD_BASE.replace("n_max = 5", key_line))
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(COLD_BASE.replace("kernel_hwhm_hz = 2.0e6", "kernel_hwhm_hz = 1e300"))
        rc = main(["matched", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: kernel HWHM 1e+300 Hz is too wide: its square overflows\n")

    def test_failed_linear_solve_is_a_numeric_failure(self, cold_config, tmp_path, capsys,
                                                      monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli.spectroscopy, "scan_probe", singular)
        rc = main(["scan", "--config", str(cold_config), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == "error: LinAlgError: Singular matrix\n"

    @pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
    def test_package_error_while_loading_is_a_config_error(self, error, tmp_path, capsys,
                                                           monkeypatch):
        def failing_load(path):
            raise error("cannot load")

        monkeypatch.setattr(cli, "load_scenario", failing_load)
        rc = main(["scan", "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr().err) == (EXIT_CONFIG, "error: cannot load\n")

    @pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
    def test_package_error_while_running(self, error, cold_config, tmp_path, capsys,
                                         monkeypatch):
        def failing_run(*args):
            raise error("cannot run")

        monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli.SUBCOMMANDS, failing_run))
        rc = main(["scan", "--config", str(cold_config), "--out", str(tmp_path / "o")])
        config = issubclass(error, (errors.ParseError, errors.InvariantViolation))
        assert rc == (EXIT_CONFIG if config else EXIT_NUMERIC)
        assert capsys.readouterr().err == "error: cannot run\n"

    def test_failed_linear_solve_while_loading_is_a_config_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        def failing_load(path):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "load_scenario", failing_load)
        rc = main(["scan", "--out", str(tmp_path / "o")])
        expected = "error: LinAlgError: Singular matrix\n"
        assert (rc, capsys.readouterr().err) == (EXIT_CONFIG, expected)

    @pytest.mark.parametrize("subcommand", ["sensitivity", "matched"])
    def test_non_finite_susceptibility_is_a_numeric_failure(self, subcommand, tmp_path, capsys):
        # omega_rf reaches 1.4e308 rad/s and every velocity pole becomes 0,
        # so the Doppler average is NaN
        text = (SHIPPED_CONFIGS / "default.cfg").read_text()
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text.replace("e_operating = ", "e_operating = 1e300 # "))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: susceptibility is not finite at ")


NUMERIC_KEYS = [
    (section, key)
    for section, keys in scenario._SCHEMA.items()
    for key, (_, parser) in keys.items()
    if parser in (scenario._parse_float, scenario._parse_int)
]


def with_key(text, section, key, value):
    """Scenario `text` with `key` of [section] set to `value` alone."""
    lines, current = [], None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            current = body[1:-1].strip().lower()
        elif current == section and body.partition("=")[0].strip().lower() == key:
            continue
        lines.append(line)
    return "\n".join(lines + [f"[{section}]", f"{key} = {value}"]) + "\n"


# (section, key, value) settings that keep a run of any subcommand small
SMALL_RUN = [("scan", "step_hz", "5e6"), ("noise", "n_samples", "1024"), ("ram", "duration_s", "0.512")]


class TestConfigPerturbations:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        config=st.sampled_from(["default.cfg", "servo_demo.cfg", "at_calibration.cfg"]),
        section_key=st.sampled_from(NUMERIC_KEYS),
        value=st.sampled_from(["0", "-1", "1e308", "nan", "inf", "garbage text"]),
    )
    def test_one_key_loads_or_is_a_config_error(self, config, section_key, value, tmp_path,
                                                monkeypatch, capsys):
        # only loading is exercised: every subcommand runner is a no-op
        monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli.SUBCOMMANDS, lambda *args: ({}, {})))
        cfg = tmp_path / "perturbed.cfg"
        cfg.write_text(with_key((SHIPPED_CONFIGS / config).read_text(), *section_key, value))
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert (rc, err) == (EXIT_OK, "") or (rc == EXIT_CONFIG and err.startswith("error: "))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        config=st.sampled_from(["default.cfg", "servo_demo.cfg", "at_calibration.cfg"]),
        subcommand=st.sampled_from(cli.SUBCOMMANDS),
        section_key=st.sampled_from(NUMERIC_KEYS),
        value=st.sampled_from(["0", "-1", "1e308", "5e-324", "1e-300", "nan", "garbage text"]),
    )
    def test_one_key_runs_or_fails_in_one_line(self, config, subcommand, section_key, value, tmp_path,
                                               capsys):
        # the real runners on small grids, series and servo runs
        text = (SHIPPED_CONFIGS / config).read_text()
        for small in SMALL_RUN:
            text = with_key(text, *small)
        cfg, out = tmp_path / "perturbed.cfg", tmp_path / "o"
        cfg.write_text(with_key(text, *section_key, value))
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc = main([subcommand, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert (rc, err) == (EXIT_OK, "") or (
            rc in (EXIT_CONFIG, EXIT_NUMERIC) and err.startswith("error: ") and err.count("\n") == 1
            and not out.exists())


class TestKernelSpecials:
    """Inputs that would make the kernel meet inf or NaN end in one error line.

    A [system] key that alone overflows a quantity the kernel reads (k_p, k_c,
    the Doppler width or k_p L) fails at load and names itself; n_atoms and
    omega_p overflow only together with other parts of the scenario, in the
    kernel's own line.
    """

    @pytest.mark.parametrize("subcommand", ["scan", "fmscan", "matched", "sensitivity"])
    @pytest.mark.parametrize("config, section, key, value, rc, start", [
        ("default.cfg", "system", "lambda_probe", "5e-324", EXIT_CONFIG,
         "error: [system] lambda_probe = 5e-324: k_probe = 2 pi / lambda_probe overflows\n"),
        ("default.cfg", "system", "lambda_coupling", "5e-324", EXIT_CONFIG,
         "error: [system] lambda_coupling = 5e-324: k_coupling = 2 pi / lambda_coupling overflows\n"),
        ("default.cfg", "system", "temperature", "1e308", EXIT_CONFIG,
         "error: [system] temperature = 1e+308, atom_mass = 2.2069465e-25: the Doppler width "
         "max(k_probe, k_coupling) * v_thermal overflows\n"),
        ("at_calibration.cfg", "system", "cell_length", "1e308", EXIT_CONFIG,
         "error: [system] cell_length = 1e+308: k_probe * cell_length overflows\n"),
        ("default.cfg", "system", "n_atoms", "1e308", EXIT_NUMERIC, "error: susceptibility is not finite at "),
        ("default.cfg", "drive", "omega_p", "1e-300", EXIT_NUMERIC, "error: susceptibility is not finite at "),
    ], ids=["lambda_probe", "lambda_coupling", "temperature", "cell_length", "n_atoms", "omega_p"])
    def test_one_error_line(self, config, section, key, value, rc, start, subcommand, tmp_path, capsys):
        text = with_key((SHIPPED_CONFIGS / config).read_text(), "scan", "step_hz", "5e6")
        cfg = tmp_path / "special.cfg"
        cfg.write_text(with_key(text, section, key, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            got = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert got == rc
        assert err.startswith(start) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


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

    def test_out_alone_names_the_output_directory(self, cold_config, tmp_path, monkeypatch):
        # no environment variable or scenario key moves the outputs from ./out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RYDFM_OUT", str(tmp_path / "from_env"))
        assert main(["noise", "--config", str(cold_config)]) == EXIT_OK
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert not (tmp_path / "from_env").exists()

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

    def test_single_carrier_fmscan(self, cold_config, tmp_path):
        # a step wider than the span leaves one carrier and no grid step
        cfg = tmp_path / "one.cfg"
        cfg.write_text(cold_config.read_text().replace("step_hz = 0.5e6", "step_hz = 30e6"))
        out = tmp_path / "out"
        assert main(["fmscan", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(body_of(out / "fm_spectrum.csv")) == 1

    def test_manifest_lists_outputs(self, cold_config, tmp_path):
        out = tmp_path / "out"
        main(["scan", "--config", str(cold_config), "--out", str(out)])
        manifest = (out / "manifest_scan.txt").read_text()
        assert "config_hash" in manifest and "spectrum.csv" in manifest

    def test_manifest_versions_are_rydfm_numpy_python(self, cold_config, tmp_path):
        # in a new interpreter, as this one has loaded scipy; no subcommand loads it
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        runs = "; ".join(f"main([{sub!r}, '--config', {str(cold_config)!r}, '--out', {str(tmp_path)!r}])"
                         for sub in cli.SUBCOMMANDS)
        subprocess.run([sys.executable, "-c", f"from rydfm.cli import main; {runs}"], env=env, check=True)
        for sub in cli.SUBCOMMANDS:
            manifest = (tmp_path / f"manifest_{sub}.txt").read_text().splitlines()
            line, = (line for line in manifest if line.startswith("versions = "))
            versions = ast.literal_eval(line.removeprefix("versions = "))
            assert list(versions) == ["rydfm", "numpy", "python"], sub


class TestNoPartialOutput:
    """A run that fails leaves no output file and no manifest."""

    def run(self, text, subcommand, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        out.mkdir()
        rc = main([subcommand, "--config", str(cfg), "--out", str(out)])
        return rc, capsys.readouterr().err, sorted(p.name for p in out.iterdir())

    def test_allan_too_short_to_classify(self, tmp_path, capsys):
        # the Allan deviation succeeds, its classification then fails
        text = with_key(COLD_BASE, "noise", "n_samples", "16")
        rc, err, left = self.run(text, "allan", tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: classification needs at least 4 tau points\n")
        assert left == []

    def test_servo_unstable_loop(self, tmp_path, capsys):
        text = COLD_BASE
        for key, value in (("kp", "6000"), ("ki", "0"), ("drift_value", "0.005")):
            text = with_key(text, "ram", key, value)
        rc, err, left = self.run(text, "servo", tmp_path, capsys)
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: error grew from ") and err.count("\n") == 1
        assert left == []


def readme_outputs():
    """{subcommand: output file-name patterns} from README's command-line table."""
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 4 and cells[1].strip("`") in cli.SUBCOMMANDS:
            table[cells[1].strip("`")] = re.findall(r"`([\w*]+\.(?:csv|txt))`", cells[2])
    return table


class TestRunnerContract:
    """Runners return (header fields, outputs by file name) and write nothing."""

    @pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
    def test_outputs_named_in_readme_and_nothing_written(self, subcommand, tmp_path,
                                                         monkeypatch):
        cfg = tmp_path / "cold.cfg"
        cfg.write_text(COLD_BASE)
        scn = scenario.load_scenario(str(cfg))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        fields, outputs = cli._RUNNERS[subcommand](scn, scn.noise.seed)
        assert list(cwd.iterdir()) == []
        assert isinstance(fields, dict)
        patterns = readme_outputs()[subcommand]
        assert all(any(fnmatch.fnmatch(name, p) for p in patterns) for name in outputs)
        assert all(any(fnmatch.fnmatch(name, p) for name in outputs) for p in patterns)
        for output in outputs.values():
            if isinstance(output, tuple):
                columns, rows = output
                assert np.shape(rows) == (len(rows), len(columns))
            else:
                assert all(isinstance(line, str) for line in output)


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


class TestBenchmarkReference:
    """The `timeseries` outputs of the tiny benchmark scenarios, byte for byte."""

    SCENARIOS = ROOT / "perfbench" / "scenarios" / "tiny" / "timeseries"
    OUTPUTS = {
        "servo": ("servo.cfg", ("servo_trace_locked.csv", "servo_trace_unlocked.csv",
                                "servo_allan_locked.csv", "servo_allan_unlocked.csv")),
        "noise": ("noise.cfg", ("timeseries.csv",)),
        "allan": ("noise.cfg", ("allan.csv", "allan_classification.csv")),
    }

    @pytest.mark.parametrize("subcommand", sorted(OUTPUTS))
    def test_body_digests_match_reference(self, subcommand, tmp_path):
        reference = json.loads((ROOT / "perfbench" / "reference" / "tiny.json").read_text())
        config, names = self.OUTPUTS[subcommand]
        assert len(reference["timeseries"][subcommand]) == 16
        for seed, digests in reference["timeseries"][subcommand].items():
            out = tmp_path / seed
            argv = [subcommand, "--config", str(self.SCENARIOS / config), "--seed", seed,
                    "--out", str(out)]
            assert main(argv) == EXIT_OK
            for name in names:
                lines = (out / name).read_text().splitlines(keepends=True)
                body = "".join(line for line in lines if not line.startswith("#"))
                assert hashlib.sha256(body.encode()).hexdigest() == digests[name], (seed, name)


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


def per_value_csv(header, columns, rows):
    """Oracle: the CSV text built one value at a time."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append("# columns: " + ",".join(columns))
    for row in np.atleast_2d(rows):
        lines.append(",".join(f"{float(x):.12e}" for x in row))
    return "\n".join(lines) + "\n"


def _special_values(n_rows, n_cols):
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 1.0, n_rows * n_cols) * 10.0 ** rng.integers(-300, 300, n_rows * n_cols)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1, 1.0, -1.0]
    values[: len(specials)] = specials[: values.size]
    return values.reshape(n_rows, n_cols)


def float_bit_patterns():
    """Any float64, drawn as its 64-bit pattern (NaNs, infinities, subnormals)."""
    return st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


@st.composite
def near_ties(draw):
    """Values a few ulps from a .5 tie in the 13th significant digit."""
    digits = draw(st.integers(10**12, 10**13 - 1))
    exponent = draw(st.integers(-300, 300))
    tie = np.float64(f"{digits}5e{exponent - 13}")
    ulps = draw(st.integers(-3, 3))
    value = float((tie.view(np.int64) + ulps).view(np.float64))
    return draw(st.sampled_from([value, -value]))


@st.composite
def near_decades(draw):
    """Values up to 400 ulps below a power of ten, or just above it.

    Up to a few hundred ulps below 10^k the 13-digit mantissa rounds up to
    10.000000000000, which carries into the exponent.
    """
    power = np.float64(f"1e{draw(st.integers(-300, 300))}")
    value = float((power.view(np.int64) + draw(st.integers(-400, 3))).view(np.float64))
    return draw(st.sampled_from([value, -value]))


class TestWriteCsv:
    HEADER = {"config_hash": "abc", "seed": 7}

    @pytest.mark.parametrize(
        "rows",
        [
            _special_values(4, 3),
            _special_values(1, 5),
            _special_values(9, 1),
            _special_values(CSV_BLOCK_ROWS - 1, 2),
            _special_values(CSV_BLOCK_ROWS, 2),
            _special_values(CSV_BLOCK_ROWS + 1, 2),
            _special_values(2 * CSV_BLOCK_ROWS + 3, 4),
            np.arange(-6, 6, dtype=np.int64).reshape(4, 3),
            np.array([True, False]),
            np.linspace(-1.0, 1.0, 7),
            np.zeros((0, 3)),
            np.zeros(0),
        ],
        ids=["special", "one_row", "one_column", "block_minus_1", "block", "block_plus_1",
             "two_blocks", "integers", "booleans", "one_d", "no_rows", "empty_1d"],
    )
    def test_bytes_match_per_value_oracle(self, rows, tmp_path):
        columns = [f"c{i}" for i in range(np.atleast_2d(rows).shape[1])]
        path = tmp_path / "out.csv"
        write_csv(path, self.HEADER, columns, rows)
        assert path.read_bytes() == per_value_csv(self.HEADER, columns, rows).encode()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(st.one_of(float_bit_patterns(), near_ties(), near_decades()),
                        min_size=1, max_size=50),
        n_cols=st.integers(1, 5),
        extra_rows=st.integers(1, 3),
    )
    def test_bytes_match_per_value_oracle_property(self, values, n_cols, extra_rows, tmp_path):
        # the drawn values, repeated over a table that spans a block boundary
        rows = np.resize(np.array(values), (CSV_BLOCK_ROWS + extra_rows, n_cols))
        columns = [f"c{i}" for i in range(n_cols)]
        path = tmp_path / "out.csv"
        write_csv(path, self.HEADER, columns, rows)
        assert path.read_bytes() == per_value_csv(self.HEADER, columns, rows).encode()

    def test_near_tie_sweep_matches_oracle(self):
        # 100k values within 3 ulps of a 13th-digit tie at every exponent:
        # enough that a tie margin well below the 2.3e-3 bound miswrites some
        rng = np.random.default_rng(11)
        n = 100_000
        digits = rng.integers(10**12, 10**13, n)
        exponents = rng.integers(-300, 301, n)
        ties = np.array([f"{d}5e{k - 13}" for d, k in zip(digits.tolist(), exponents.tolist())],
                        dtype=float)
        values = (ties.view(np.int64) + rng.integers(-3, 4, n)).view(np.float64)
        values *= rng.choice([-1.0, 1.0], n)
        table = values.reshape(-1, 4)
        expected = "".join(",".join(f"{x:.12e}" for x in row) + "\n" for row in table.tolist())
        assert b"".join(cli._csv_blocks(table)) == expected.encode()

    def test_zeros_take_the_fast_path(self, tmp_path, monkeypatch):
        # a fallback value written with a wrong format shows; no zero does
        monkeypatch.setattr(cli, "_PADDED_FORMAT", "%-23.11e")
        assert b"".join(cli._csv_blocks(np.array([[1e-300]]))) != b"1.000000000000e-300\n"
        rng = np.random.default_rng(3)
        rows = np.zeros((CSV_BLOCK_ROWS + 5, 4))
        rows[:, 1] = rng.choice([0.0, -0.0, 1.0, -2.5], rows.shape[0])
        rows[:, 2] = -0.0
        rows[::2, 3] = -0.0
        for table in (rows, rows[:7, :1], rows[:7, 2:3]):  # and all-zero tables
            columns = [f"c{i}" for i in range(table.shape[1])]
            path = tmp_path / "out.csv"
            write_csv(path, self.HEADER, columns, table)
            assert path.read_bytes() == per_value_csv(self.HEADER, columns, table).encode()

    def test_scalar_format_matches_oracle(self):
        for x in _special_values(8, 4).ravel():
            assert cli._fmt(x) == f"{float(x):.12e}"

    def test_failure_part_way_keeps_previous_output(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        write_csv(path, self.HEADER, ["a"], np.arange(3.0))
        before = path.read_bytes()
        real_blocks = cli._csv_blocks

        def failing_blocks(table):
            blocks = real_blocks(table)
            yield next(blocks)
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "_csv_blocks", failing_blocks)
        with pytest.raises(RuntimeError):
            write_csv(path, self.HEADER, ["a"], np.ones((3 * CSV_BLOCK_ROWS, 1)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


class TestBadFieldsThroughCli:
    """Inputs that once ended in a traceback or an error naming no key."""

    def run(self, text, args, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        rc = main(args + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["noise", "allan"])
    def test_negative_seed_key(self, subcommand, tmp_path, capsys):
        text = COLD_BASE.replace("dt = 1e-3", "dt = 1e-3\nseed = -1")
        rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [noise] seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("subcommand", ["noise", "servo"])
    def test_negative_seed_option(self, subcommand, tmp_path, capsys):
        rc, err = self.run(COLD_BASE, [subcommand, "--seed", "-1"], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: --seed must be >= 0, got -1\n")

    def test_negative_random_walk_step(self, tmp_path, capsys):
        text = COLD_BASE.replace(
            "duration_s = 1.0", "duration_s = 1.0\ndrift_model = random_walk\ndrift_step_std = -1")
        rc, err = self.run(text, ["servo"], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [ram] drift_step_std must be >= 0, got -1.0\n")

    @pytest.mark.parametrize("subcommand, text, start", [
        ("scan", COLD_BASE.replace("e_start = 0.9", "e_start = -0.9"),
         "error: [scan] e_start must be >= 0, got -0.9\n"),
        ("atcal", COLD_BASE.replace("e_start = 0.9", "e_start = -0.9"),
         "error: [scan] e_start must be >= 0, got -0.9\n"),
        ("scan", "[drive]\ne_rf = -1\n", "error: [drive] e_rf = -1.0: omega_rf must be >= 0"),
        ("atcal", "[drive]\ne_rf = 1e308\n", "error: [drive] e_rf = 1e+308: omega_rf must be finite"),
        ("scan", "[fm]\nbeta = 2000\nn_max = 1990\n",
         "error: sideband truncation keeps nan of the power at n_max = 1990, beta = 2000.0\n"),
    ], ids=["scan-e_start", "atcal-e_start", "negative-e_rf", "huge-e_rf", "truncating-beta"])
    def test_bad_rf_field_names_its_key(self, subcommand, text, start, tmp_path, capsys):
        rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert rc == EXIT_CONFIG
        assert err.startswith(start) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["servo", "fmscan"])
    def test_m_diff_past_the_bessel_bound(self, subcommand, tmp_path, capsys):
        text = with_key(with_key(COLD_BASE, "fm", "apply_ram", "true"), "ram", "m_diff", "2000")
        rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [ram] m_diff must lie in [-1000, 1000], got 2000.0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["noise", "allan"])
    def test_noise_samples_not_a_power_of_two(self, subcommand, tmp_path, capsys):
        text = COLD_BASE.replace("n_samples = 8192", "n_samples = 1000")
        rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (
            EXIT_CONFIG, "error: [noise] n_samples must be a power of two unless kind = shot, got 1000\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["noise", "allan"])
    def test_time_axis_overflowing_dt(self, subcommand, tmp_path, capsys):
        text = with_key(with_key(COLD_BASE, "noise", "dt", "1e308"), "noise", "n_samples", "1024")
        rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [noise] dt = 1e+308: the last sample time "
                                          "(n_samples - 1) * dt overflows at n_samples = 1024\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["noise", "allan"])
    @pytest.mark.parametrize("text, kind", [
        ("[noise]\ncoefficient = 1e308\n", "white_fm"),
        ("[noise]\nkind = composite\nh_white_fm = 1e-22\nh_flicker_pm = 1e308\n", "flicker_pm"),
    ], ids=["coefficient", "h_flicker_pm"])
    def test_overflowing_noise_shape_names_its_component(self, text, kind, subcommand, tmp_path,
                                                         capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, f"error: coefficient {kind} = 1e+308 shapes non-finite "
                                          "samples at dt = 0.001\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["fmscan", "matched", "sensitivity"])
    def test_sidebands_overflowing_omega_m(self, subcommand, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run("[fm]\nomega_m = 1e308\n", [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [fm] omega_m = 1e+308: the sideband detunings "
                                          "n_max * omega_m past a carrier overflow at n_max = 8\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["scan", "fmscan", "atcal"])
    def test_scan_end_overflowing_in_rad_s(self, subcommand, tmp_path, capsys):
        text = "[scan]\nstart_hz = -1e308\nstop_hz = -9e307\nstep_hz = 1e303\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [scan] start_hz = -1e+308 overflows in rad/s\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, text, message", [
        ("servo", "[ram]\nduration_s = 1.0\ndrift_model = random_walk\ndrift_step_std = 1e308\n",
         "error: drift samples must be finite\n"),
        ("scan", COLD_BASE.replace("n_atoms = 1e13", "n_atoms = 1e13\ncell_length = 1e308"),
         "error: [system] cell_length = 1e+308: k_probe * cell_length overflows\n"),
    ], ids=["servo-drift_step_std", "scan-cell_length"])
    def test_overflow_outside_the_kernel(self, subcommand, text, message, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, message)
        assert not (tmp_path / "o").exists()

    def test_shot_noise_takes_any_sample_count(self, tmp_path, capsys):
        text = (COLD_BASE.replace("kind = white_fm", "kind = shot\nshot_current_a = 1e-3")
                .replace("n_samples = 8192", "n_samples = 1000"))
        rc, err = self.run(text, ["noise"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        assert np.loadtxt(tmp_path / "o" / "timeseries.csv", delimiter=",").shape == (1000, 2)

    def test_atcal_points_capped(self, tmp_path, capsys, monkeypatch):
        # 58,334 detunings x 999,999 fields: each grid is under the cap
        def no_run(*args, **kwargs):
            raise AssertionError("atcal ran")

        monkeypatch.setattr(cli.pipelines, "at_calibration", no_run)
        text = (COLD_BASE.replace("step_hz = 0.5e6", "step_hz = 1.2e3")
                .replace("start_hz = -10e6", "start_hz = -35e6").replace("stop_hz = 10e6", "stop_hz = 35e6")
                .replace("e_start = 0.9", "e_start = 0").replace("e_stop = 1.8", "e_stop = 9.99998")
                .replace("e_step = 0.9", "e_step = 1e-5"))
        rc, err = self.run(text, ["atcal"], tmp_path, capsys)
        assert (rc, err) == (EXIT_CONFIG, "error: [scan] 58333941666 atcal operating points; the limit is 1000000\n")
        assert not (tmp_path / "o").exists()

    def test_kernel_span_overflowing_the_step(self, tmp_path, capsys):
        # 8 * kernel_hwhm_hz / step_hz overflows although the HWHM squared does not
        text = (COLD_BASE.replace("start_hz = -10e6", "start_hz = -1e-153")
                .replace("stop_hz = 10e6", "stop_hz = 1e-153")
                .replace("step_hz = 0.5e6", "step_hz = 1e-155")
                .replace("kernel_hwhm_hz = 2.0e6", "kernel_hwhm_hz = 1e153"))
        rc, err = self.run(text, ["matched"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        rows = np.loadtxt(tmp_path / "o" / "matched.csv", delimiter=",")
        assert rows.shape == (201, 4) and np.all(np.isfinite(rows))

    def test_no_dephasing_has_no_projection_limit(self, tmp_path, capsys):
        text = COLD_BASE.replace("n_atoms = 1e13", "n_atoms = 1e13\ngamma_deph = 0")
        rc, err = self.run(text, ["sensitivity"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        report = (tmp_path / "o" / "sensitivity.txt").read_text()
        assert "projection_limit_v_per_m_sqrt_hz = 0.000000000000e+00" in report

    def test_no_dephasing_on_the_warm_cell(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            rc, err = self.run("[system]\ngamma_deph = 0\n", ["sensitivity"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        report = (tmp_path / "o" / "sensitivity.txt").read_text()
        assert "projection_limit_v_per_m_sqrt_hz = 0.000000000000e+00" in report

    @pytest.mark.parametrize("subcommand, config, section, key, value, code, start", [
        ("scan", "default.cfg", "system", "mu12", "1e300", EXIT_NUMERIC,
         "error: mu12 = 1e+300 C m is too large: its square overflows\n"),
        ("sensitivity", "default.cfg", "scan", "e_operating", "1e300", EXIT_NUMERIC,
         "error: susceptibility is not finite at "),
        ("scan", "default.cfg", "fm", "n_max", "2", EXIT_CONFIG, "error: sideband truncation keeps "),
        ("servo", "servo_demo.cfg", "ram", "e0_sq", "1e300", EXIT_NUMERIC,
         "error: Allan deviation at tau = "),
    ], ids=["warm-mu12", "warm-e_operating", "n_max", "servo_demo-e0_sq"])
    def test_shipped_config_fails_in_one_line(self, subcommand, config, section, key, value, code,
                                              start, tmp_path, capsys):
        text = with_key((SHIPPED_CONFIGS / config).read_text(), section, key, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert rc == code
        assert err.startswith(start) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, text, code, start", [
        ("fmscan", "[fm]\napply_ram = true\nbeta = 1.8411837813406593\n[ram]\ndphi_n = 0.3\n", EXIT_OK, ""),
        ("atcal", "[scan]\ne_start = -0.9\n", EXIT_CONFIG, "error: [scan] e_start must be >= 0, got -0.9\n"),
        ("noise", "[noise]\nn_samples = 1000\n", EXIT_CONFIG,
         "error: [noise] n_samples must be a power of two unless kind = shot, got 1000\n"),
        ("noise", "[noise]\ndt = 1e308\n", EXIT_CONFIG, "error: [noise] dt = 1e+308: the last sample time "),
        ("allan", "[noise]\nn_samples = 16\n", EXIT_CONFIG,
         "error: classification needs at least 4 tau points\n"),
    ], ids=["ram-at-bessel-slope-root", "e_start", "n_samples-not-power-of-two",
            "time-axis-overflowing-dt", "allan-too-short"])
    def test_one_key_on_the_defaults_warns_nothing(self, subcommand, text, code, start, tmp_path,
                                                   capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert rc == code
        if code == EXIT_OK:
            assert err == "" and (tmp_path / "o" / f"manifest_{subcommand}.txt").exists()
        else:
            assert err.startswith(start) and err.count("\n") == 1
            assert not (tmp_path / "o").exists()

    def test_overflowing_allan_deviation(self, tmp_path, capsys):
        text = COLD_BASE.replace("[ram]\n", "[ram]\ne0_sq = 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, ["servo"], tmp_path, capsys)
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: Allan deviation at tau = ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()  # no trace is written before the Allan step

    def test_overflowing_probe_dipole(self, tmp_path, capsys):
        text = COLD_BASE.replace("n_atoms = 1e13", "n_atoms = 1e13\nmu12 = 1e300")
        rc, err = self.run(text, ["scan"], tmp_path, capsys)
        assert (rc, err) == (EXIT_NUMERIC, "error: mu12 = 1e+300 C m is too large: its square overflows\n")

    def test_temperature_underflowing_the_vapor_fit(self, tmp_path, capsys):
        # k_B T underflows to 0 as well as the vapor-pressure fit
        rc, err = self.run("[system]\ntemperature = 5e-324\n", ["scan"], tmp_path, capsys)
        assert rc == EXIT_CONFIG
        assert err.startswith("error: [system] ") and "temperature = 5e-324" in err
        assert err.count("\n") == 1

    def test_participating_atoms_underflowing_the_projection_limit(self, tmp_path, capsys):
        text = COLD_BASE.replace("dt = 1e-3", "dt = 1e-3\nn_participating = 5e-324")
        rc, err = self.run(text, ["sensitivity"], tmp_path, capsys)
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: ") and "n_atoms = 5e-324" in err and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand, text, code, message", [
        ("scan", COLD_BASE.replace("n_atoms = 1e13", "n_atoms = 1e13\ngamma2 = 1e-300\ngamma3 = 1e-300\n"
                                   "gamma4 = 1e-300\ngamma_deph = 0"), EXIT_NUMERIC,
         "detuning-pole expansion misses direct solves"),
        ("scan", "[system]\nlambda_probe = 1e-300\n", EXIT_CONFIG,
         "amplitude transmission must satisfy 0 < t <= 1"),
        ("noise", COLD_BASE.replace("dt = 1e-3", "dt = 5e-324"), EXIT_CONFIG,
         "dt must be finite and > 0 with a finite 1/dt, got 5e-324"),
        ("allan", COLD_BASE.replace("dt = 1e-3", "dt = 5e-324"), EXIT_CONFIG,
         "dt must be finite and > 0 with a finite 1/dt, got 5e-324"),
    ], ids=["cold-rates", "warm-lambda_probe", "noise-dt", "allan-dt"])
    def test_extreme_value_prints_only_its_error_line(self, subcommand, text, code, message, tmp_path,
                                                      capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error line
            rc, err = self.run(text, [subcommand], tmp_path, capsys)
        assert rc == code
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_huge_probe_rabi_frequency_is_an_empty_medium(self, tmp_path, capsys):
        # chi ~ rho21 / omega_p ~ 1e-293 / 1e300 underflows to 0, the physical limit
        text = COLD_BASE.replace("omega_p = 2.5132741228718345e6", "omega_p = 1e300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = self.run(text, ["scan"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        rows = np.loadtxt(tmp_path / "o" / "spectrum.csv", delimiter=",")
        assert rows.shape == (41, 5) and np.all(rows[:, 1:] == [0.0, 0.0, 1.0, 0.0])

    def test_ram_injected_at_the_root_of_the_bessel_slope(self, tmp_path, capsys):
        # beta = 1.8411..., the root of J1', zeroes J0 - J2 = 2 J1'(beta)
        text = "[fm]\napply_ram = true\nbeta = 1.8411837813406593\n[ram]\ndphi_n = 0.3\n"
        rc, err = self.run(text, ["fmscan"], tmp_path, capsys)
        assert (rc, err) == (EXIT_OK, "")
        rows = np.loadtxt(tmp_path / "o" / "fm_spectrum.csv", delimiter=",")
        assert rows.shape == (121, 3) and np.all(np.isfinite(rows))
