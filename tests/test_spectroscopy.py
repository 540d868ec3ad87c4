import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks, peak_widths

from rydfm.constants import A0, E_CHARGE, H_PLANCK
from rydfm.errors import DomainError, InvariantViolation
from rydfm.pipelines import at_calibration, drive_at_field
from rydfm.quantum import FieldDrive, susceptibility
from rydfm.spectroscopy import (
    AtResult,
    MediumSpectrum,
    _doublet_peaks,
    at_splitting,
    field_from_splitting,
    rabi_from_power,
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
            single = susceptibility(warm_system, replace(default_drive, delta_p=d))
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


class TestRabiFromPower:
    def test_zero_power(self):
        assert rabi_from_power(0.0, 1.5e-3, 1e-29) == 0.0

    def test_sqrt_power_law(self):
        low = rabi_from_power(10e-6, 1.5e-3, 1e-29)
        assert rabi_from_power(40e-6, 1.5e-3, 1e-29) == pytest.approx(2 * low, rel=1e-12)

    def test_anchored_probe_powers(self):
        # dipole chosen so 45 uW in a 1.5 mm beam gives 2pi x 5.6 MHz,
        # then 65 uW must give 2pi x 6.7 MHz (sqrt(65/45) scaling)
        target = TWO_PI * 5.6e6
        trial = rabi_from_power(45e-6, 1.5e-3, 1e-29)
        dipole = 1e-29 * target / trial
        assert rabi_from_power(45e-6, 1.5e-3, dipole) == pytest.approx(target, rel=1e-12)
        scaled = rabi_from_power(65e-6, 1.5e-3, dipole)
        assert scaled == pytest.approx(target * math.sqrt(65 / 45), rel=1e-12)
        assert scaled == pytest.approx(TWO_PI * 6.7e6, rel=0.01)

    def test_bad_diameter(self):
        with pytest.raises(InvariantViolation):
            rabi_from_power(1e-6, 0.0, 1e-29)


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
