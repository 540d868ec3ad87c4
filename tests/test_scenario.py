import math
import operator
import re
from pathlib import Path

import pytest

from rydfm import scenario
from rydfm.errors import InvariantViolation, ParseError, UnknownKeyError
from rydfm.fm import index_from_dbm
from rydfm.scenario import (
    MAX_GRID_POINTS, MAX_NOISE_SAMPLES, ScanOpts, load_scenario, parse_scenario,
)

TWO_PI = 2 * math.pi


class TestDefaults:
    def test_empty_text_gives_default_operating_point(self):
        scn = parse_scenario("")
        assert scn.drive.omega_p == pytest.approx(TWO_PI * 6.7e6)
        assert scn.drive.omega_c == pytest.approx(TWO_PI * 7.0e6)
        assert scn.drive.delta_c == pytest.approx(TWO_PI * 1e6)
        assert scn.fm.omega_m == pytest.approx(TWO_PI * 10e6)
        assert scn.system.cell_length == 0.03
        assert scn.noise.seed == 12345

    def test_comments_and_blank_lines_ignored(self):
        scn = parse_scenario("# a comment\n\n[drive]\nomega_p = 1e6  # trailing\n")
        assert scn.drive.omega_p == 1e6

    def test_hash_stable_and_sensitive(self):
        a = parse_scenario("")
        b = parse_scenario("[drive]\nomega_p = 42.0\n")
        assert a.config_hash() == parse_scenario("").config_hash()
        assert a.config_hash() != b.config_hash()

    def test_hash_ignores_output_dir(self):
        a = parse_scenario("[output]\ndir = a\n")
        b = parse_scenario("[output]\ndir = b\n")
        assert a.config_hash() == b.config_hash() == parse_scenario("").config_hash()


class TestErrors:
    def test_negative_cell_length_names_key(self):
        with pytest.raises(InvariantViolation, match="cell_length"):
            parse_scenario("[system]\ncell_length = -1\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ParseError, match="line 3.*line 2"):
            parse_scenario("[drive]\nomega_p = 1\nomega_p = 2\n")

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError, match="laser"):
            parse_scenario("[laser]\npower = 1\n")

    def test_unknown_key(self):
        for text, key in (("[system]\nbogus = 1\n", "bogus"), ("[ram]\nlock = true\n", "lock")):
            with pytest.raises(UnknownKeyError, match=key):
                parse_scenario(text)

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_scenario("[system]\ntemperature = warm\n")

    def test_assignment_before_section(self):
        with pytest.raises(ParseError, match="before any"):
            parse_scenario("x = 1\n")

    def test_exclusive_rf_keys(self):
        with pytest.raises(ParseError, match="mutually exclusive"):
            parse_scenario("[drive]\nomega_rf = 1e6\ne_rf = 1e-3\n")

    def test_exclusive_beta_keys(self):
        with pytest.raises(ParseError, match="mutually exclusive"):
            parse_scenario("[fm]\nbeta = 0.5\ndrive_dbm = 8\n")


class TestDerivedValues:
    def test_e_rf_sets_rabi(self):
        scn = parse_scenario("[drive]\ne_rf = 0.4479\n")
        assert scn.drive.omega_rf == pytest.approx(TWO_PI * 10e6, rel=1e-3)

    def test_drive_dbm_maps_to_beta(self):
        scn = parse_scenario("[fm]\ndrive_dbm = 8.0\n")
        assert scn.fm.beta == pytest.approx(index_from_dbm(8.0))

    def test_ram_block_feeds_three_objects(self):
        text = "[ram]\nalpha = 0.02\nkp = 10\nki = 5\ndrift_model = ramp\n"
        scn = parse_scenario(text)
        assert scn.ram.alpha == 0.02
        assert scn.gains.kp == 10
        assert scn.servo.drift_model == "ramp"


# (section, key, a valid non-default value, where it lands on the Scenario)
KEY_TARGETS = [
    ("system", "lambda_probe", 850e-9, "system.lambda_probe"),
    ("system", "lambda_coupling", 510e-9, "system.lambda_coupling"),
    ("system", "gamma2", 3.0e7, "system.gamma2"),
    ("system", "gamma3", 1.0e6, "system.gamma3"),
    ("system", "gamma4", 1.1e6, "system.gamma4"),
    ("system", "gamma_deph", 1.2e6, "system.gamma_deph"),
    ("system", "mu12", 3.0e-29, "system.mu12"),
    ("system", "mu_rf", 1.0e-26, "system.mu_rf"),
    ("system", "n_atoms", 1e16, "system.n_atoms"),
    ("system", "temperature", 300.0, "system.temperature"),
    ("system", "atom_mass", 2.2e-25, "system.atom_mass"),
    ("system", "cell_length", 0.05, "system.cell_length"),
    ("drive", "omega_p", 1e7, "drive.omega_p"),
    ("drive", "omega_c", 2e7, "drive.omega_c"),
    ("drive", "omega_rf", 3e6, "drive.omega_rf"),
    ("drive", "delta_p", 1e5, "drive.delta_p"),
    ("drive", "delta_c", -1e6, "drive.delta_c"),
    ("drive", "delta_rf", 2e5, "drive.delta_rf"),
    ("fm", "omega_m", 3e7, "fm.omega_m"),
    ("fm", "beta", 0.5, "fm.beta"),
    ("fm", "n_max", 10, "fm.n_max"),
    ("fm", "lo_phase", 0.3, "fm.lo_phase"),
    ("fm", "apply_ram", True, "apply_ram"),
    ("ram", "alpha", 0.02, "ram.alpha"),
    ("ram", "beta_angle", 0.03, "ram.beta_angle"),
    ("ram", "m_diff", 0.2, "ram.m_diff"),
    ("ram", "dphi_n", 0.1, "ram.dphi_n"),
    ("ram", "dphi_dc", -0.1, "ram.dphi_dc"),
    ("ram", "e0_sq", 2.0, "ram.e0_sq"),
    ("ram", "kp", 10.0, "gains.kp"),
    ("ram", "ki", 5.0, "gains.ki"),
    ("ram", "kd", 0.5, "gains.kd"),
    ("ram", "dt", 2e-3, "gains.dt"),
    ("ram", "output_clamp", 2.0, "gains.output_clamp"),
    ("ram", "integrator_clamp", 20.0, "gains.integrator_clamp"),
    ("ram", "drift_model", "ramp", "servo.drift_model"),
    ("ram", "drift_value", 0.1, "servo.drift_value"),
    ("ram", "drift_rate", 0.02, "servo.drift_rate"),
    ("ram", "drift_amp", 0.2, "servo.drift_amp"),
    ("ram", "drift_freq_hz", 0.1, "servo.drift_freq_hz"),
    ("ram", "drift_step_std", 1e-3, "servo.drift_step_std"),
    ("ram", "duration_s", 8.0, "servo.duration_s"),
    ("noise", "h_white_pm", 1e-20, "noise.budget.white_pm"),
    ("noise", "h_flicker_pm", 2e-20, "noise.budget.flicker_pm"),
    ("noise", "h_white_fm", 3e-20, "noise.budget.white_fm"),
    ("noise", "h_rw_fm", 4e-20, "noise.budget.rw_fm"),
    ("noise", "kind", "composite", "noise.kind"),
    ("noise", "coefficient", 1e-20, "noise.coefficient"),
    ("noise", "n_samples", 1024, "noise.n_samples"),
    ("noise", "dt", 1e-2, "noise.dt"),
    ("noise", "seed", 7, "noise.seed"),
    ("noise", "shot_current_a", 1e-6, "noise.shot_current_a"),
    ("noise", "eta", 0.5, "detector.eta"),
    ("noise", "detected_power_w", 1e-4, "detector.power_w"),
    ("noise", "signal_fraction", 0.02, "detector.signal_fraction"),
    ("noise", "n_participating", 1e6, "detector.n_participating"),
    ("scan", "quantity", "rf_field", "scan.quantity"),
    ("scan", "start_hz", -20e6, "scan.start_hz"),
    ("scan", "stop_hz", 20e6, "scan.stop_hz"),
    ("scan", "step_hz", 1e6, "scan.step_hz"),
    ("scan", "e_start", 1e-3, "scan.e_start"),
    ("scan", "e_stop", 5e-3, "scan.e_stop"),
    ("scan", "e_step", 1e-3, "scan.e_step"),
    ("scan", "kernel_hwhm_hz", 2e6, "scan.kernel_hwhm_hz"),
    ("scan", "e_operating", 5e-3, "scan.e_operating"),
    ("scan", "line_noise_rms", 0.1, "scan.line_noise_rms"),
    ("output", "dir", "results", "output.dir"),
]
# set no field of their own; see TestDerivedValues
DERIVED_KEYS = {("drive", "e_rf"), ("fm", "drive_dbm")}


class TestKeyTable:
    def test_targets_cover_every_key(self):
        schema_keys = {(section, key) for section, keys in scenario._SCHEMA.items() for key in keys}
        assert {(section, key) for section, key, _, _ in KEY_TARGETS} == schema_keys - DERIVED_KEYS

    @pytest.mark.parametrize("section, key, value, target", KEY_TARGETS,
                             ids=[f"{s}.{k}" for s, k, _, _ in KEY_TARGETS])
    def test_key_reaches_its_field(self, section, key, value, target):
        get = operator.attrgetter(target)
        assert get(parse_scenario("")) != value
        scn = parse_scenario(f"[{section}]\n{key} = {value}\n")
        assert get(scn) == value and type(get(scn)) is type(value)

    def test_non_float_keys_keep_their_parser(self):
        non_float = {
            (section, key): parser
            for section, keys in scenario._SCHEMA.items()
            for key, (_, parser) in keys.items()
            if parser is not scenario._parse_float
        }
        assert non_float == {
            ("fm", "n_max"): scenario._parse_int,
            ("noise", "n_samples"): scenario._parse_int,
            ("noise", "seed"): scenario._parse_int,
            ("scan", "quantity"): scenario._parse_str,
            ("ram", "drift_model"): scenario._parse_str,
            ("noise", "kind"): scenario._parse_str,
            ("output", "dir"): scenario._parse_str,
            ("fm", "apply_ram"): scenario._parse_bool,
        }

    def test_readme_key_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, flags=re.MULTILINE)
        listed = {section: set(re.findall(r"`([a-z_][a-z0-9_]*)`", keys)) for section, keys in rows}
        assert listed == {section: set(keys) for section, keys in scenario._SCHEMA.items()}


class TestGridBounds:
    def test_grid_at_the_cap_allowed(self):
        opts = ScanOpts(start_hz=0.0, stop_hz=MAX_GRID_POINTS - 1.0, step_hz=1.0)
        assert opts.detuning_grid_hz().size == MAX_GRID_POINTS

    def test_grid_above_the_cap_rejected(self):
        with pytest.raises(InvariantViolation, match="detuning grid"):
            ScanOpts(start_hz=0.0, stop_hz=float(MAX_GRID_POINTS), step_hz=1.0)
        with pytest.raises(InvariantViolation, match="detuning grid"):
            ScanOpts(start_hz=-1e308, stop_hz=1e308)


    def test_servo_steps_at_the_cap_allowed(self):
        scn = parse_scenario("[ram]\ndt = 1e-3\nduration_s = 1000.0\n")
        assert round(scn.servo.duration_s / scn.gains.dt) == MAX_GRID_POINTS

    @pytest.mark.parametrize("duration", ["1000.001", "1e12", "1e300"])
    def test_servo_steps_above_the_cap_rejected(self, duration):
        with pytest.raises(InvariantViolation, match="servo run"):
            parse_scenario(f"[ram]\ndt = 1e-3\nduration_s = {duration}\n")
        with pytest.raises(InvariantViolation, match="servo run"):
            parse_scenario(f"[ram]\ndt = 1e-300\nduration_s = {duration}\n")

    # 64 detuning points x 15,625 sideband orders is exactly the cap
    @pytest.mark.parametrize("scan, n_max", [
        ("stop_hz = 63\n", "7812"),
        ("stop_hz = 58822\n", "8"),
    ])
    def test_fm_medium_samples_at_the_cap_allowed(self, scan, n_max):
        scn = parse_scenario(f"[scan]\nstart_hz = 0\nstep_hz = 1\n{scan}[fm]\nn_max = {n_max}\n")
        assert scn.scan.detuning_points() * (2 * scn.fm.n_max + 1) <= MAX_GRID_POINTS

    @pytest.mark.parametrize("scan, n_max", [
        ("stop_hz = 63\n", "7813"),
        ("stop_hz = 58823\n", "8"),
        ("stop_hz = 63\n", "1000000000000"),
    ])
    def test_fm_medium_samples_above_the_cap_rejected(self, scan, n_max):
        # checked before FmConfig sums the Bessel closure over every order
        with pytest.raises(InvariantViolation, match=r"\[fm\].*limit is 1000000"):
            parse_scenario(f"[scan]\nstart_hz = 0\nstep_hz = 1\n{scan}[fm]\nn_max = {n_max}\n")

    def test_noise_samples_at_the_cap_allowed(self):
        scn = parse_scenario(f"[noise]\nn_samples = {MAX_NOISE_SAMPLES}\n")
        assert scn.noise.n_samples == MAX_NOISE_SAMPLES == 2 ** 24

    @pytest.mark.parametrize("kind", ["white_pm", "flicker_pm", "white_fm", "rw_fm", "composite"])
    def test_shaped_noise_samples_must_be_a_power_of_two(self, kind):
        with pytest.raises(InvariantViolation, match=r"\[noise\] n_samples must be a power of two"):
            parse_scenario(f"[noise]\nkind = {kind}\nn_samples = {2 ** 20 + 1}\n")
        assert parse_scenario(f"[noise]\nkind = shot\nn_samples = {2 ** 20 + 1}\n").noise.n_samples == 2 ** 20 + 1

    def test_atcal_points_at_the_cap_allowed(self):
        scn = parse_scenario("[scan]\nstart_hz = 0\nstop_hz = 999\nstep_hz = 1\n"
                             "e_start = 0\ne_stop = 999\ne_step = 1\n")
        assert scn.scan.detuning_points() * scn.scan.field_grid().size == MAX_GRID_POINTS

    @pytest.mark.parametrize("e_stop", ["1000", "9.99998e5"])
    def test_atcal_points_above_the_cap_rejected(self, e_stop):
        # each grid is under the cap, their product is not
        with pytest.raises(InvariantViolation, match=r"^\[scan\] \d+ atcal operating points; the limit is 1000000$"):
            parse_scenario(f"[scan]\nstart_hz = 0\nstop_hz = 999\nstep_hz = 1\n"
                           f"e_start = 0\ne_stop = {e_stop}\ne_step = 1\n")

    @pytest.mark.parametrize("n_samples", [MAX_NOISE_SAMPLES + 1, 2 ** 43, 1])
    def test_noise_samples_outside_the_range_rejected(self, n_samples):
        with pytest.raises(InvariantViolation, match=r"\[noise\] n_samples"):
            parse_scenario(f"[noise]\nn_samples = {n_samples}\n")


class TestLoadScenario:
    def test_none_gives_defaults(self):
        assert load_scenario(None).config_hash() == parse_scenario("").config_hash()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[drive]\nomega_p = 7e6\n")
        assert load_scenario(str(path)).drive.omega_p == 7e6
