import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks, peak_widths

from rydfm import pipelines, quantum
from rydfm.constants import A0, E_CHARGE, H_PLANCK
from rydfm.errors import DomainError, InvariantViolation
from rydfm.pipelines import at_calibration, drive_at_field
from rydfm.quantum import CHUNK, FieldDrive, susceptibility_batch
from rydfm.scenario import load_scenario
from rydfm.spectroscopy import (
    AtResult,
    MediumSpectrum,
    _doublet_peaks,
    at_splitting,
    field_from_splitting,
    scan_probe,
    spectrum_rows,
    splitting_from_field,
)

TWO_PI = 2 * math.pi
MU_RF = 1745 * E_CHARGE * A0


def lorentzian_peak(grid, center, hwhm, height):
    return height * hwhm ** 2 / ((grid - center) ** 2 + hwhm ** 2)


def synthetic_spectrum(centers, hwhm=TWO_PI * 1e6, height=0.2):
    grid = TWO_PI * np.linspace(-15e6, 15e6, 1501)
    t = np.full(grid.size, 0.4)
    for c in centers:
        t = t + lorentzian_peak(grid, c, hwhm, height)
    return MediumSpectrum(grid=grid, chi=np.zeros(grid.size, complex),
                          amp_transmission=t, phase=np.zeros(grid.size))


class TestScanProbe:
    def test_vacuum_cell(self, cold_system):
        sys = replace(cold_system, n_atoms=0.0)
        grid = TWO_PI * np.linspace(-5e6, 5e6, 11)
        spec = scan_probe(sys, FieldDrive(omega_p=TWO_PI * 1e6), grid)
        assert np.all(spec.amp_transmission == 1.0)
        assert np.all(spec.phase == 0.0)

    def test_single_interior_maximum_on_resonance(self, cold_system):
        drive = FieldDrive(omega_p=TWO_PI * 0.5e6, omega_c=TWO_PI * 3e6)
        grid = TWO_PI * np.linspace(-10e6, 10e6, 81)
        spec = scan_probe(cold_system, drive, grid)
        t = spec.amp_transmission
        peaks, _ = find_peaks(t, prominence=1e-4 * (t.max() - t.min()))
        assert peaks.tolist() == [40]

    def test_warm_symmetry(self, warm_system):
        drive = FieldDrive(omega_p=TWO_PI * 6.7e6, omega_c=TWO_PI * 7.0e6)
        grid = TWO_PI * np.linspace(-12e6, 12e6, 25)
        spec = scan_probe(warm_system, drive, grid)
        t = spec.amp_transmission
        assert np.max(np.abs(t - t[::-1])) < 1e-6

    def test_passivity(self, warm_system, default_drive):
        grid = TWO_PI * np.linspace(-10e6, 10e6, 9)
        spec = scan_probe(warm_system, default_drive, grid)
        assert np.all(spec.amp_transmission <= 1.0)
        assert np.all(spec.power_transmission == spec.amp_transmission ** 2)

    def test_rejects_decreasing_grid(self, cold_system):
        with pytest.raises(InvariantViolation):
            scan_probe(cold_system, FieldDrive(omega_p=1e6), np.array([1.0, 0.0]))

    def test_rows_format(self, cold_system):
        grid = TWO_PI * np.linspace(-2e6, 2e6, 5)
        spec = scan_probe(cold_system, FieldDrive(omega_p=TWO_PI * 1e6), grid)
        rows = spectrum_rows(spec)
        assert rows.shape == (5, 5)
        assert rows[0, 0] == pytest.approx(-2e6)


    def test_matches_per_point_susceptibility(self, warm_system, default_drive):
        grid = TWO_PI * np.linspace(-20e6, 20e6, 7)
        spec = scan_probe(warm_system, default_drive, grid)
        for d, chi in zip(grid, spec.chi):
            single = susceptibility_batch(warm_system, default_drive, d)
            assert chi == pytest.approx(single, rel=1e-12)


class TestMediumSpectrum:
    @pytest.mark.parametrize("field", ["grid", "chi", "amp_transmission", "phase"])
    def test_nan_rejected(self, field):
        arrays = {"grid": np.array([0.0, 1.0]), "chi": np.zeros(2, complex),
                  "amp_transmission": np.full(2, 0.5), "phase": np.zeros(2)}
        arrays[field] = arrays[field].copy()
        arrays[field][0] = math.nan
        with pytest.raises(InvariantViolation):
            MediumSpectrum(**arrays)


class TestAtSplitting:
    def test_synthetic_doublet(self):
        spec = synthetic_spectrum([-TWO_PI * 5e6, TWO_PI * 5e6])
        result = at_splitting(spec)
        assert result.confidence == "resolved"
        step_hz = np.median(np.diff(spec.grid)) / TWO_PI
        assert abs(result.split_hz - 10e6) < step_hz

    def test_single_peak_unresolved(self):
        result = at_splitting(synthetic_spectrum([0.0]))
        assert result.confidence == "unresolved"
        assert result.split_hz is None

    def test_overlapping_peaks_unresolved(self):
        # separation below one FWHM (2 * hwhm)
        spec = synthetic_spectrum([-TWO_PI * 0.8e6, TWO_PI * 0.8e6])
        assert at_splitting(spec).confidence == "unresolved"

    def test_full_simulation_20mhz(self, cold_system):
        omega_rf = TWO_PI * 20e6
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6, omega_rf=omega_rf)
        grid = TWO_PI * np.linspace(-16e6, 16e6, 641)
        result = at_splitting(scan_probe(cold_system, drive, grid))
        assert result.confidence == "resolved"
        assert result.split_hz == pytest.approx(20e6, rel=0.05)

    def test_warm_splitting_compressed_by_wavelength_ratio(self, warm_system):
        # residual Doppler rescales the observed splitting by lambda_c/lambda_p
        omega_rf = TWO_PI * 20e6
        drive = FieldDrive(omega_p=TWO_PI * 6.7e6, omega_c=TWO_PI * 7.0e6, omega_rf=omega_rf)
        grid = TWO_PI * np.linspace(-12e6, 12e6, 97)
        result = at_splitting(scan_probe(warm_system, drive, grid))
        ratio = warm_system.lambda_coupling / warm_system.lambda_probe
        assert result.confidence == "resolved"
        assert result.split_hz == pytest.approx(20e6 * ratio, rel=0.10)

    def test_rejects_row_stacked_spectrum(self):
        spec = synthetic_spectrum([-TWO_PI * 5e6, TWO_PI * 5e6])
        rows = MediumSpectrum(grid=spec.grid, chi=np.stack([spec.chi] * 2),
                              amp_transmission=np.stack([spec.amp_transmission] * 2),
                              phase=np.stack([spec.phase] * 2))
        with pytest.raises(InvariantViolation, match="single spectrum row"):
            at_splitting(rows)

    def test_confidence_follows_split(self):
        assert AtResult(split_hz=None, peak_locations=None).confidence == "unresolved"
        assert AtResult(split_hz=0.0, peak_locations=(0.0, 0.0)).confidence == "resolved"
        assert AtResult(split_hz=1.0, peak_locations=(-1.0, 1.0)).confidence == "resolved"
        with pytest.raises(InvariantViolation):
            AtResult(split_hz=-1.0, peak_locations=None)


def scipy_doublet(t, min_prominence):
    """The doublet selection made with scipy's find_peaks and peak_widths.

    Ties in height are ordered by a stable sort: the default argsort kind
    orders them differently with different CPU sort kernels.
    """
    peaks, _ = find_peaks(t, prominence=min_prominence)
    if peaks.size < 2:
        return None
    chosen = np.sort(peaks[np.argsort(t[peaks], kind="stable")[::-1][:2]])
    return chosen, peak_widths(t, chosen, rel_height=0.5)[0]


@st.composite
def transmissions(draw):
    """Smooth doublets and triplets, single peaks, plateaus, flat and monotone spectra."""
    n = draw(st.integers(3, 300))
    x = np.linspace(-1.0, 1.0, n)
    kind = draw(st.sampled_from(["doublet", "triplet", "single", "clipped", "rounded",
                                 "flat", "monotone"]))
    if kind == "flat":
        return np.full(n, draw(st.floats(0.01, 1.0)))
    if kind == "monotone":
        steps = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        return np.cumsum(steps) * draw(st.sampled_from([1.0, -1.0]))
    t = np.full(n, draw(st.floats(0.0, 0.5)))
    lines = {"single": 1, "triplet": 3}.get(kind, 2)
    for center in np.linspace(-0.6, 0.6, lines) if lines > 1 else [0.0]:
        center += draw(st.floats(-0.3, 0.3))
        hwhm = draw(st.floats(1e-3, 0.3))
        height = draw(st.floats(1e-3, 0.5))
        t = t + height * hwhm ** 2 / ((x - center) ** 2 + hwhm ** 2)
    if kind == "clipped":
        t = np.minimum(t, t.min() + draw(st.floats(0.1, 1.0)) * (t.max() - t.min()))
    if kind == "rounded":
        t = np.round(t, draw(st.integers(1, 3)))
    return t


class TestDoubletPeaksOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(t=transmissions(), fraction=st.sampled_from([0.0, 1e-6, 0.05, 0.3]))
    def test_matches_scipy(self, t, fraction):
        min_prominence = fraction * (t.max() - t.min())
        expected = scipy_doublet(t, min_prominence)
        actual = _doublet_peaks(t, min_prominence)
        if expected is None:
            assert actual is None
            return
        assert actual is not None
        assert actual[0].tolist() == expected[0].tolist()
        assert np.max(np.abs(actual[1] - expected[1])) <= 1e-12

    def test_equal_heights_go_to_the_higher_index(self):
        t = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.0])
        assert _doublet_peaks(t, 0.0)[0].tolist() == [5, 7]

    def test_prominence_threshold_is_inclusive(self):
        t = np.array([0.0, 1.0, 0.0, 2.0, 0.0])  # prominences exactly 1 and 2
        assert _doublet_peaks(t, 1.0)[0].tolist() == [1, 3]
        assert _doublet_peaks(t, np.nextafter(1.0, 2.0)) is None


class TestFieldConversion:
    def test_zero_split(self):
        assert field_from_splitting(0.0, MU_RF) == 0.0

    def test_hand_value_10mhz(self):
        # h * 1e7 / (1745 e a0) = 0.4479 V/m
        assert field_from_splitting(10e6, MU_RF) == pytest.approx(0.4479, rel=1e-3)

    def test_formula_exact(self):
        assert field_from_splitting(3.7e6, MU_RF) == H_PLANCK * 3.7e6 / MU_RF

    def test_round_trip_at_75_uv_per_cm(self):
        e_field = 75e-6 * 100  # V/m
        back = field_from_splitting(splitting_from_field(e_field, MU_RF), MU_RF)
        assert back == pytest.approx(e_field, rel=1e-12)

    def test_zero_dipole_rejected(self):
        with pytest.raises(DomainError):
            field_from_splitting(1e6, 0.0)
        with pytest.raises(DomainError):
            splitting_from_field(1.0, 0.0)


class TestLinearity:
    def test_splitting_slope_matches_dipole(self, cold_system):
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6)
        fields = np.array([0.9, 1.35, 1.8])
        grid = TWO_PI * np.linspace(-35e6, 35e6, 1401)
        results = at_calibration(cold_system, drive, fields, grid)
        splits = np.array([at.split_hz for _, at in results])
        assert all(at.confidence == "resolved" for _, at in results)
        slope = np.polyfit(fields, splits, 1)[0]
        assert slope == pytest.approx(MU_RF / H_PLANCK, rel=0.05)

    def test_drive_at_field(self, cold_system):
        drive = drive_at_field(cold_system, FieldDrive(), 0.4479)
        assert drive.omega_rf == pytest.approx(TWO_PI * 10e6, rel=1e-3)


SHIPPED_ATCAL = Path(__file__).resolve().parents[1] / "configs" / "at_calibration.cfg"


def per_field_calibration(sys, drive, fields, grid):
    """The AT calibration as one probe scan and one splitting per field."""
    return [(float(e_rf), at_splitting(scan_probe(sys, drive_at_field(sys, drive, float(e_rf)), grid)))
            for e_rf in fields]


class TestBatchedAtCalibration:
    def test_shipped_cold_calibration_matches_per_field_scans(self):
        scn = load_scenario(SHIPPED_ATCAL)
        fields, grid = scn.scan.field_grid(), scn.scan.probe_grid_rad_s()
        assert grid.size % CHUNK != 0
        results = at_calibration(scn.system, scn.drive, fields, grid)
        assert results == per_field_calibration(scn.system, scn.drive, fields, grid)
        assert all(at.confidence == "resolved" for _, at in results)

    def test_warm_calibration_matches_per_field_scans(self, warm_system):
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6)
        fields = np.array([0.0, 0.9, 2.7])
        grid = TWO_PI * np.linspace(-35e6, 35e6, 201)  # 6 stacks of CHUNK and 9 points
        results = at_calibration(warm_system, drive, fields, grid)
        assert results == per_field_calibration(warm_system, drive, fields, grid)
        assert [at.confidence for _, at in results] == ["unresolved", "resolved", "resolved"]

    def test_self_check_solves_as_many_matrices_as_per_field_scans(self, monkeypatch):
        scn = load_scenario(SHIPPED_ATCAL)
        fields, grid = scn.scan.field_grid(), scn.scan.probe_grid_rad_s()
        stacks = []
        direct = quantum._steady_rho21_many
        monkeypatch.setattr(quantum, "_steady_rho21_many", lambda lam: stacks.append(len(lam)) or direct(lam))
        at_calibration(scn.system, scn.drive, fields, grid)
        batched, stacks[:] = list(stacks), []
        per_field_calibration(scn.system, scn.drive, fields, grid)
        # 5 fields x 46 points: every CHUNK-th of the 1401, the last and the largest |rho21|
        assert sum(batched) == sum(stacks) == 5 * 46
        # pooled over the fields, every stack but the last is full
        assert batched[:-1] == [CHUNK] * (len(batched) - 1) and len(batched) < len(stacks)

    @staticmethod
    def count_batch_points(monkeypatch):
        """Record the operating points of each kernel call `at_calibration` makes."""
        sizes, batch = [], pipelines.susceptibility_batch

        def counted(*args, **kwargs):
            chi = batch(*args, **kwargs)
            sizes.append(chi.size)
            return chi
        monkeypatch.setattr(pipelines, "susceptibility_batch", counted)
        return sizes

    def test_many_fields_stay_within_the_batch_bound(self, monkeypatch):
        scn = load_scenario(SHIPPED_ATCAL)
        grid = scn.scan.probe_grid_rad_s()
        sizes = self.count_batch_points(monkeypatch)
        results = at_calibration(scn.system, scn.drive, np.linspace(0.9, 2.7, 60), grid)
        per_call = pipelines.AT_BLOCK_POINTS // grid.size  # 46 fields of 1401 points
        assert len(results) == 60 and sizes == [per_call * grid.size, (60 - per_call) * grid.size]
        assert max(sizes) <= pipelines.AT_BLOCK_POINTS

    def test_blocks_of_fields_match_per_field_scans(self, monkeypatch):
        scn = load_scenario(SHIPPED_ATCAL)
        fields, grid = np.linspace(0.9, 2.7, 7), scn.scan.probe_grid_rad_s()
        sizes = self.count_batch_points(monkeypatch)
        monkeypatch.setattr(pipelines, "AT_BLOCK_POINTS", 3 * grid.size - 1)  # two fields a call
        results = at_calibration(scn.system, scn.drive, fields, grid)
        assert sizes == [2 * grid.size] * 3 + [grid.size]
        assert results == per_field_calibration(scn.system, scn.drive, fields, grid)

    def test_grid_above_the_bound_takes_one_field_a_call(self, cold_system, monkeypatch):
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6)
        grid = TWO_PI * np.linspace(-35e6, 35e6, 71)
        sizes = self.count_batch_points(monkeypatch)
        monkeypatch.setattr(pipelines, "AT_BLOCK_POINTS", 50)
        results = at_calibration(cold_system, drive, [0.9, 1.8], grid)
        assert sizes == [71, 71]
        assert results == per_field_calibration(cold_system, drive, [0.9, 1.8], grid)

    def test_no_fields(self, cold_system):
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6)
        assert at_calibration(cold_system, drive, [], TWO_PI * np.linspace(-35e6, 35e6, 71)) == []
