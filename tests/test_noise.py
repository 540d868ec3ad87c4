import math

import numpy as np
import pytest
from scipy.signal import welch

from rydfm.constants import E_CHARGE, H_PLANCK, C_LIGHT
from rydfm.errors import InvariantViolation, UnsupportedKindError
from rydfm.noise import (
    NoiseBudget,
    SPECTRAL_SLOPES,
    TimeSeries,
    gen_composite,
    gen_powerlaw,
    shot_noise_series,
    shot_noise_snr,
)


def fitted_slope(values, dt):
    f, p = welch(values, fs=1.0 / dt, nperseg=4096)
    band = (f > 2.0) & (f < 100.0)
    return np.polyfit(np.log(f[band]), np.log(p[band]), 1)[0]


class TestGenPowerlaw:
    def test_zero_coefficient_all_zero(self):
        ts = gen_powerlaw("white_fm", 0.0, 256, 1e-3, 1)
        assert np.all(ts.values == 0.0)

    def test_deterministic(self):
        a = gen_powerlaw("flicker_pm", 1e-20, 1024, 1e-3, 99)
        b = gen_powerlaw("flicker_pm", 1e-20, 1024, 1e-3, 99)
        assert np.array_equal(a.values, b.values)
        c = gen_powerlaw("flicker_pm", 1e-20, 1024, 1e-3, 100)
        assert not np.array_equal(a.values, c.values)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedKindError):
            gen_powerlaw("pink_elephant", 1.0, 256, 1e-3, 1)

    def test_n_must_be_power_of_two(self):
        with pytest.raises(InvariantViolation):
            gen_powerlaw("white_fm", 1.0, 1000, 1e-3, 1)

    def test_white_fm_allan_law(self):
        h0 = 4e-22
        dt = 1e-3
        ts = gen_powerlaw("white_fm", h0, 2 ** 16, dt, 7)
        for m in (1, 4, 16, 64, 256):
            tau = m * dt
            bins = ts.values[: (ts.values.size // m) * m].reshape(-1, m).mean(axis=1)
            sigma = math.sqrt(np.mean(np.diff(bins) ** 2) / 2)
            assert sigma == pytest.approx(math.sqrt(h0 / (2 * tau)), rel=0.10)

    @pytest.mark.parametrize("kind", sorted(SPECTRAL_SLOPES))
    def test_spectral_slope_recovered(self, kind):
        ts = gen_powerlaw(kind, 1e-20, 2 ** 16, 1e-3, 11)
        assert fitted_slope(ts.values, ts.dt) == pytest.approx(SPECTRAL_SLOPES[kind], abs=0.2)


class TestComposite:
    def test_sum_of_component_streams(self):
        budget = NoiseBudget(white_fm=1e-22, rw_fm=1e-24)
        total = gen_composite(budget, 4096, 1e-3, 5)
        parts = sum(
            gen_powerlaw(kind, coeff, 4096, 1e-3, 5).values
            for kind, coeff in budget.items()
            if coeff > 0
        )
        assert np.array_equal(total.values, parts)
        assert total.kind == "composite"

    def test_kind_streams_independent(self):
        a = gen_powerlaw("white_fm", 1.0, 2 ** 14, 1e-3, 5)
        b = gen_powerlaw("white_pm", 1.0, 2 ** 14, 1e-3, 5)
        corr = np.corrcoef(a.values, b.values)[0, 1]
        assert abs(corr) < 0.05

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvariantViolation):
            NoiseBudget(white_fm=-1.0)

    @pytest.mark.parametrize("kind", sorted(SPECTRAL_SLOPES))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficient_rejected(self, kind, value):
        with pytest.raises(InvariantViolation, match=kind):
            NoiseBudget(**{kind: value})


class TestShotNoise:
    def test_zero_current_constant(self):
        ts = shot_noise_series(0.0, 1e-6, 64, 2)
        assert np.all(ts.values == 0.0)

    def test_variance_law(self):
        current = 1e-6
        dt = 1e-6
        ts = shot_noise_series(current, dt, 10 ** 6, 3)
        expected = 2 * E_CHARGE * current / (2 * dt)
        assert ts.values.var() == pytest.approx(expected, rel=0.02)
        assert ts.values.mean() == pytest.approx(current, rel=1e-3)

    def test_variance_linear_in_current(self):
        dt = 1e-6
        base = shot_noise_series(1e-6, dt, 4096, 3).values
        doubled = shot_noise_series(2e-6, dt, 4096, 3).values
        assert doubled.var() / base.var() == pytest.approx(2.0, rel=1e-9)


class TestShotNoiseSnr:
    def test_inverse_sqrt_bandwidth(self):
        base = shot_noise_snr(0.8, 1e-6, 852e-9, 1.0)
        assert shot_noise_snr(0.8, 1e-6, 852e-9, 4.0) == pytest.approx(base / 2, rel=1e-12)

    def test_unity_boundary(self):
        eta = 0.8
        bandwidth = 1.0
        nu = C_LIGHT / 852e-9
        power = H_PLANCK * nu * 2 * bandwidth / eta
        assert shot_noise_snr(eta, power, 852e-9, bandwidth) == pytest.approx(1.0, rel=1e-12)

    def test_reference_detector_order(self):
        snr = shot_noise_snr(0.8, 6.5e-6, 852e-9, 1.0)
        assert 2e6 / 3 < snr < 2e6 * 3

    def test_rejects_non_positive(self):
        with pytest.raises(InvariantViolation):
            shot_noise_snr(0.0, 1e-6, 852e-9, 1.0)


class TestTimeSeries:
    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            TimeSeries(dt=0.0, values=np.zeros(4), seed=0, kind="shot")
        with pytest.raises(InvariantViolation):
            TimeSeries(dt=1.0, values=np.array([1.0]), seed=0, kind="shot")
        with pytest.raises(InvariantViolation):
            TimeSeries(dt=1.0, values=np.array([1.0, np.inf]), seed=0, kind="shot")

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -1.0])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(InvariantViolation, match="dt"):
            TimeSeries(dt=dt, values=[1.0, 2.0], seed=0, kind="shot")

    def test_time_axis(self):
        ts = TimeSeries(dt=0.5, values=np.zeros(4), seed=0, kind="shot")
        assert np.array_equal(ts.time, [0.0, 0.5, 1.0, 1.5])
        assert ts.duration == 2.0
