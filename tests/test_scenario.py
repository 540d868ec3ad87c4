import math

import pytest

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
