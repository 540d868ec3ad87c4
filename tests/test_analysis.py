import math
import warnings

import numpy as np
import pytest

from rydfm.analysis import (
    AllanResult,
    DetectorModel,
    LorentzParams,
    allan_deviation,
    classify_noise,
    lorentzian_fit,
    _lorentz_model,
    lorentzian_kernel,
    matched_filter,
    octave_taus,
    projection_limit,
    sensitivity_estimate,
)
from rydfm.constants import A0, E_CHARGE, HBAR
from rydfm.errors import (
    DomainError,
    InsufficientDataError,
    InvariantViolation,
    KernelTooNarrowError,
    NonConvergenceError,
    ZeroResponsivityError,
)
from rydfm.fm import FmConfig
from rydfm.noise import TimeSeries, gen_powerlaw
from rydfm import pipelines
from rydfm.pipelines import drive_at_field, rf_detuning_scan
from rydfm.quantum import FieldDrive

TWO_PI = 2 * math.pi
MU_RF = 1745 * E_CHARGE * A0


def series(values, dt=1.0):
    return TimeSeries(dt=dt, values=np.asarray(values, dtype=float), seed=0, kind="composite")


def allan_by_definition(values, m):
    """Direct loop evaluation of the two-sample definition (oracle)."""
    bins = [values[i * m:(i + 1) * m].mean() for i in range(len(values) // m)]
    diffs = np.diff(bins)
    return math.sqrt(np.mean(diffs ** 2) / 2)


class TestAllanDeviation:
    def test_constant_series(self):
        result = allan_deviation(series(np.full(64, 2.5)), [1.0, 2.0, 4.0])
        assert np.all(result.sigma_y == 0.0)

    def test_alternating_series(self):
        values = np.tile([1.0, -1.0], 32)
        result = allan_deviation(series(values), [1.0])
        assert result.sigma_y[0] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_linear_ramp_closed_form(self):
        c = 0.37
        dt = 0.25
        t = np.arange(512) * dt
        for tau in (dt, 4 * dt, 16 * dt):
            result = allan_deviation(series(c * t, dt), [tau])
            assert result.sigma_y[0] == pytest.approx(c * tau / math.sqrt(2), rel=1e-12)

    def test_matches_definition_loop(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=1024)
        for m in (1, 3, 10):
            result = allan_deviation(series(values), [float(m)])
            assert result.sigma_y[0] == pytest.approx(allan_by_definition(values, m), rel=1e-12)

    def test_white_fm_slope(self):
        ts = gen_powerlaw("white_fm", 1e-22, 2 ** 16, 1e-3, 13)
        taus = octave_taus(ts)
        result = allan_deviation(ts, taus)
        slope = np.polyfit(np.log(result.taus), np.log(result.sigma_y), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_insufficient_bins(self):
        with pytest.raises(InsufficientDataError):
            allan_deviation(series(np.ones(8)), [4.0])

    def test_non_multiple_tau(self):
        with pytest.raises(InvariantViolation):
            allan_deviation(series(np.ones(64)), [1.5])


class TestClassifyNoise:
    def test_pure_white_fm(self):
        # octaves capped so every tau keeps >= 512 bins and the per-octave
        # slope scatter stays inside the 0.15 ambiguity band
        ts = gen_powerlaw("white_fm", 1e-22, 2 ** 16, 1e-3, 23)
        taus = octave_taus(ts, max_fraction=512)
        labels = classify_noise(allan_deviation(ts, taus))
        assert all(lab.label == "white_fm" for lab in labels)

    def test_white_fm_plus_drift(self):
        dt = 1e-3
        base = gen_powerlaw("white_fm", 1e-22, 2 ** 16, dt, 29)
        drift = 2e-9 * np.arange(base.values.size) * dt
        ts = series(base.values + drift, dt)
        labels = classify_noise(allan_deviation(ts, octave_taus(ts, max_fraction=64)))
        assert labels[0].label == "white_fm"
        assert labels[-1].label == "drift"

    def test_constant_labeled_none(self):
        result = allan_deviation(series(np.full(128, 1.0)), [1.0, 2.0, 4.0, 8.0])
        labels = classify_noise(result)
        assert all(lab.label == "none" for lab in labels)

    def test_needs_four_points(self):
        result = allan_deviation(series(np.arange(64.0)), [1.0, 2.0])
        with pytest.raises(InvariantViolation):
            classify_noise(result)

    def test_ambiguity_reported(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0])
        sigma = taus ** -0.25  # slope -0.25, between canonical values
        result = AllanResult(taus=taus, sigma_y=sigma, counts=np.full(4, 10))
        labels = classify_noise(result)
        assert all(lab.ambiguous for lab in labels)
        assert all(lab.label == "ambiguous" for lab in labels)


class TestMatchedFilter:
    def test_impulse_reproduces_kernel(self):
        freqs = np.arange(201) * 0.1e6
        values = np.zeros(201)
        values[100] = 1.0
        kernel = LorentzParams(amplitude=1.0, sigma=1.0e6, nu_c=0.0)
        out = matched_filter(freqs, values, kernel)
        expected = lorentzian_kernel(1.0e6, 0.1e6, max_len=201)
        half = expected.size // 2
        assert np.allclose(out.values[100 - half:100 + half + 1], expected)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        freqs = np.arange(256) * 0.2e6
        x = rng.normal(size=256)
        y = rng.normal(size=256)
        kernel = LorentzParams(amplitude=1.0, sigma=1.5e6, nu_c=0.0)
        lhs = matched_filter(freqs, 2.0 * x - 3.0 * y, kernel).values
        rhs = 2.0 * matched_filter(freqs, x, kernel).values - 3.0 * matched_filter(freqs, y, kernel).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_kernel_too_narrow(self):
        freqs = np.arange(64) * 1e6
        with pytest.raises(KernelTooNarrowError):
            matched_filter(freqs, np.zeros(64), LorentzParams(1.0, 1.5e6, 0.0))

    def test_peak_position_preserved(self):
        freqs = np.arange(401) * 0.1e6
        line = LorentzParams(amplitude=1.0, sigma=1.2e6, nu_c=20e6)
        values = line.evaluate(freqs)
        out = matched_filter(freqs, values, line)
        assert abs(freqs[np.argmax(out.values)] - 20e6) <= 0.1e6

    def test_snr_gain_against_width_oracle(self):
        # amplitude gain of a matched filter in white noise is the L2 norm
        # of the unit-peak template, sqrt(effective width in samples)
        step = 0.125e6
        hwhm = 2.75e6
        freqs = np.arange(481) * step
        line = LorentzParams(amplitude=1.0, sigma=hwhm, nu_c=freqs[240])
        template = line.evaluate(freqs)
        template /= template.max()
        gain_oracle = math.sqrt(np.sum(template ** 2))
        kernel = LorentzParams(amplitude=1.0, sigma=hwhm, nu_c=0.0)
        # unit-energy kernel -> filtered white noise keeps sigma = 1, so the
        # filtered value at the line center is the output SNR directly
        center_values = []
        noise_center = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = template + rng.normal(0.0, 1.0, freqs.size)
            center_values.append(matched_filter(freqs, noisy, kernel).values[240])
            noise_center.append(
                matched_filter(freqs, rng.normal(0.0, 1.0, freqs.size), kernel).values[240]
            )
        assert np.std(noise_center) == pytest.approx(1.0, rel=0.2)
        assert np.mean(center_values) == pytest.approx(gain_oracle, rel=0.2)

    def test_valid_region_annotation(self):
        freqs = np.arange(101) * 1e6
        out = matched_filter(freqs, np.ones(101), LorentzParams(1.0, 2.5e6, 0.0))
        assert out.valid.start > 0 and out.valid.stop < 101


class TestLorentzianBits:
    """The kernel and the fit model evaluate `LorentzParams.evaluate`: the same bits
    as the Lorentzian written out."""

    # HWHM in steps, from the narrowest matched_filter accepts; above 16 steps the
    # +-8 HWHM support is truncated to max_len samples
    @pytest.mark.parametrize("hwhm_steps", [2.0, 2.7, 5.0, 12.5, 40.0, 1e3])
    def test_kernel_matches_written_out_form(self, hwhm_steps):
        step, max_len = 0.3e6, 257
        hwhm = hwhm_steps * step
        half = math.ceil(min(8 * hwhm / step, (max_len - 1) // 2))
        offsets = np.arange(-half, half + 1) * step
        written = hwhm / (offsets ** 2 + hwhm ** 2)
        kernel = lorentzian_kernel(hwhm, step, max_len)
        assert kernel.tobytes() == (written / np.linalg.norm(written)).tobytes()

    def test_fit_model_matches_written_out_form(self):
        rng = np.random.default_rng(11)
        nu = np.linspace(-20e6, 20e6, 301)
        for _ in range(20):
            amplitude, sigma, nu_c, offset = (rng.normal() * 1e6, rng.uniform(1e4, 1e7),
                                              rng.uniform(-5e6, 5e6), rng.normal())
            written = amplitude * sigma / ((nu - nu_c) ** 2 + sigma ** 2) + offset
            assert _lorentz_model(nu, amplitude, sigma, nu_c, offset).tobytes() == written.tobytes()


class TestLorentzianFit:
    def test_noiseless_recovery(self):
        freqs = np.linspace(-20e6, 20e6, 301)
        truth = LorentzParams(amplitude=3.0e6, sigma=2.75e6, nu_c=1.5e6)
        params, residual = lorentzian_fit(freqs, truth.evaluate(freqs))
        assert params.amplitude == pytest.approx(truth.amplitude, rel=1e-6)
        assert params.sigma == pytest.approx(truth.sigma, rel=1e-6)
        assert params.nu_c == pytest.approx(truth.nu_c, abs=1.0)
        assert residual < 1e-8 * abs(truth.amplitude) / truth.sigma

    def test_fwhm_reported_as_twice_hwhm(self):
        params = LorentzParams(amplitude=1.0, sigma=2.75e6, nu_c=0.0)
        assert params.fwhm == 5.5e6

    def test_noisy_recovery_monte_carlo(self):
        freqs = np.linspace(-20e6, 20e6, 301)
        truth = LorentzParams(amplitude=3.0e6, sigma=2.75e6, nu_c=0.0)
        clean = truth.evaluate(freqs)
        widths = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.01 * clean.max() * rng.normal(size=freqs.size)
            params, _ = lorentzian_fit(freqs, noisy)
            widths.append(params.fwhm)
        assert np.mean(widths) == pytest.approx(truth.fwhm, rel=0.02)

    def test_too_few_points(self):
        with pytest.raises(InvariantViolation):
            lorentzian_fit(np.arange(5.0), np.ones(5))

    def test_simulated_linewidth_stable_across_fields(self, warm_system, default_drive):
        # fitted width of the demodulated RF line must not move with the
        # (perturbative) field amplitude; the in-phase channel carries the
        # absorption-like peak
        cfg = FmConfig(n_max=5)
        rf_grid = TWO_PI * np.linspace(-8e6, 10e6, 37)
        widths = []
        amps = []
        for e_field in (2e-4, 5e-4, 1e-3):  # 2, 5, 10 uV/cm
            drive = drive_at_field(warm_system, default_drive, e_field)
            signal = rf_detuning_scan(warm_system, drive, cfg, rf_grid, lo_phase=0.0)
            params, _ = lorentzian_fit(rf_grid / TWO_PI, signal)
            widths.append(params.fwhm)
            amps.append(params.amplitude)
        widths = np.array(widths)
        assert np.max(np.abs(widths - widths.mean())) < 0.05 * widths.mean()
        # response stays quadratic (perturbative) over the tested range
        assert amps[1] / amps[0] == pytest.approx(6.25, rel=0.05)
        assert amps[2] / amps[1] == pytest.approx(4.0, rel=0.05)


class TestProjectionLimit:
    def test_hand_value(self):
        # h / (1745 e a0 sqrt(1e5 * 0.5e-6)) = 2.0e-7 V/m/sqrt(Hz)
        value = projection_limit(MU_RF, 1e5, 0.5e-6)
        assert value == pytest.approx(2.0029e-7, rel=1e-4)

    def test_scaling_laws(self):
        base = projection_limit(MU_RF, 1e5, 0.5e-6)
        assert projection_limit(MU_RF, 4e5, 0.5e-6) == pytest.approx(base / 2, rel=1e-12)
        assert projection_limit(2 * MU_RF, 1e5, 0.5e-6) == pytest.approx(base / 2, rel=1e-12)
        assert projection_limit(MU_RF, 1e5, 2e-6) == pytest.approx(base / 2, rel=1e-12)

    def test_strictly_decreasing(self):
        for scale in (1.5, 2.0, 5.0):
            assert projection_limit(scale * MU_RF, 1e5, 0.5e-6) < projection_limit(MU_RF, 1e5, 0.5e-6)
            assert projection_limit(MU_RF, scale * 1e5, 0.5e-6) < projection_limit(MU_RF, 1e5, 0.5e-6)
            assert projection_limit(MU_RF, 1e5, scale * 0.5e-6) < projection_limit(MU_RF, 1e5, 0.5e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            projection_limit(0.0, 1e5, 0.5e-6)


class TestSensitivity:
    @pytest.fixture
    def fast_setup(self, cold_system):
        drive = FieldDrive(
            omega_p=TWO_PI * 2e6, omega_c=TWO_PI * 3e6, delta_c=TWO_PI * 1e6
        )
        return cold_system, drive, FmConfig(n_max=5), DetectorModel()

    def test_shot_noise_floor(self, fast_setup):
        # e_min = sqrt(2 e I_dc) / responsivity, I_dc the detected DC current
        sys, drive, cfg, det = fast_setup
        report = sensitivity_estimate(sys, drive, cfg, det, 0.02)
        _, dc_rel = pipelines.fm_response(sys, drive_at_field(sys, drive, 0.02), cfg,
                                          carrier_detuning=drive.delta_p)
        dc_current = det.responsivity_a_per_w(sys.lambda_probe) * det.power_w * dc_rel
        assert report.noise_floor == pytest.approx(math.sqrt(2 * E_CHARGE * dc_current),
                                                   rel=1e-12)
        assert report.e_min == report.noise_floor / report.responsivity

    def test_report_fields(self, fast_setup):
        sys, drive, cfg, det = fast_setup
        report = sensitivity_estimate(sys, drive, cfg, det, 0.02)
        assert report.responsivity > 0
        assert report.noise_floor > 0
        assert report.e_min > 0
        assert report.projection_limit_value == pytest.approx(
            projection_limit(sys.mu_rf, det.n_participating, 1 / sys.gamma_deph)
        )

    @staticmethod
    def fake_response(monkeypatch, signal_of_field):
        """Replace fm_response by signal_of_field(E) at DC 0.5; return the call log."""
        calls = []

        def fm_response(sys, drive, cfg, carrier_detuning):
            e_rf = drive.omega_rf * HBAR / sys.mu_rf
            calls.append(e_rf)
            return signal_of_field(e_rf), 0.5

        monkeypatch.setattr(pipelines, "fm_response", fm_response)
        return calls

    def test_converges_in_five_responses(self, fast_setup, monkeypatch):
        # the operating point once, then two central differences
        calls = self.fake_response(monkeypatch, lambda e: 1e-3 * e + 2e-2 * e ** 2)
        sys, drive, cfg, det = fast_setup
        report = sensitivity_estimate(sys, drive, cfg, det, 0.02)
        assert len(calls) == 5
        scale = det.responsivity_a_per_w(sys.lambda_probe) * det.power_w * det.signal_fraction
        assert report.responsivity == pytest.approx(scale * (1e-3 + 4e-2 * 0.02), rel=1e-9)

    def test_rounding_level_difference_vanishes(self, fast_setup, monkeypatch):
        # a difference of a few ulps of the DC signal is not a slope
        noise = iter([1e-18, -1e-18] * 12)
        calls = self.fake_response(monkeypatch, lambda e: next(noise))
        with pytest.raises(ZeroResponsivityError, match="derivative vanished"):
            sensitivity_estimate(*fast_setup, 0.02)
        assert len(calls) == 3

    def test_unconverged_difference_raises(self, fast_setup, monkeypatch):
        # a square-root cusp at the operating point: every halving moves the
        # central difference by sqrt(2)
        calls = self.fake_response(
            monkeypatch, lambda e: math.copysign(math.sqrt(abs(e - 0.02)), e - 0.02)
        )
        with pytest.raises(NonConvergenceError, match="12 step halvings"):
            sensitivity_estimate(*fast_setup, 0.02)
        assert len(calls) == 1 + 2 * 12

    def test_detector_validation(self):
        with pytest.raises(InvariantViolation):
            DetectorModel(eta=0.0)
        with pytest.raises(InvariantViolation):
            DetectorModel(signal_fraction=2.0)


class TestAllanOverflow:
    @pytest.mark.parametrize("values, tau", [
        (np.tile([1e300, -1e300], 32), "1"),       # the squared differences overflow
        (np.full(64, 1.7e308), "2"),               # the two-sample block sums overflow
    ])
    def test_non_finite_sigma_is_a_numeric_error(self, values, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error
            with pytest.raises(DomainError, match=f"tau = {tau} s overflows"):
                allan_deviation(series(values), [1.0, 2.0])
