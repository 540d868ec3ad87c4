import math

import numpy as np
import pytest
from scipy.signal import welch

from rydfm.constants import E_CHARGE, H_PLANCK, C_LIGHT
from rydfm import noise
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


def reference_powerlaw(kind, coefficient, n, dt, seed):
    """Oracle: one component shaped on fresh arrays, as first written."""
    if coefficient == 0.0:
        return np.zeros(n)
    white = noise._rng_for(seed, kind).standard_normal(n)
    freqs = np.fft.rfftfreq(n, dt)
    shaping = np.zeros_like(freqs)
    shaping[1:] = np.sqrt(coefficient * freqs[1:] ** SPECTRAL_SLOPES[kind] * (1.0 / dt) / 2.0)
    return np.fft.irfft(np.fft.rfft(white) * shaping, n)


def reference_composite(budget, n, dt, seed):
    """Oracle: a fresh sum over the components with a coefficient > 0."""
    total = np.zeros(n)
    for kind, coefficient in budget.items():
        if coefficient > 0:
            total = total + reference_powerlaw(kind, coefficient, n, dt, seed)
    return total


BUDGETS = {
    "none": NoiseBudget(),
    "one": NoiseBudget(white_fm=1e-22),
    "all": NoiseBudget(white_pm=1e-24, flicker_pm=1e-24, white_fm=1e-22, rw_fm=1e-26),
}


class TestBitwiseOracle:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("n", [2, 4, 4096])
    @pytest.mark.parametrize("kind", sorted(SPECTRAL_SLOPES))
    def test_powerlaw(self, kind, n, seed):
        values = gen_powerlaw(kind, 1e-20, n, 1e-3, seed).values
        assert values.tobytes() == reference_powerlaw(kind, 1e-20, n, 1e-3, seed).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("n", [2, 4, 4096])
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_composite(self, budget, n, seed):
        values = gen_composite(BUDGETS[budget], n, 2.5e-4, seed).values
        assert values.tobytes() == reference_composite(BUDGETS[budget], n, 2.5e-4, seed).tobytes()


class TestArgumentsCheckedFirst:
    """A non-finite argument fails, naming it, before any series is drawn."""

    @pytest.fixture(autouse=True)
    def no_synthesis(self, monkeypatch):
        def no_rng(*args):
            raise AssertionError("noise synthesized")

        monkeypatch.setattr(noise, "_rng_for", no_rng)

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD + [-1.0])
    def test_powerlaw_coefficient(self, value):
        with pytest.raises(InvariantViolation, match="coefficient white_pm"):
            gen_powerlaw("white_pm", value, 256, 1e-3, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD + [0.0])
    def test_powerlaw_dt(self, value):
        with pytest.raises(InvariantViolation, match="dt"):
            gen_powerlaw("white_pm", 1.0, 256, value, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD)
    def test_composite_coefficient(self, value):
        budget = NoiseBudget(white_fm=1e-22)
        budget.rw_fm = value  # set after the budget's own check
        with pytest.raises(InvariantViolation, match="coefficient rw_fm"):
            gen_composite(budget, 256, 1e-3, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD + [0.0])
    def test_composite_dt(self, value):
        with pytest.raises(InvariantViolation, match="dt"):
            gen_composite(NoiseBudget(white_fm=1e-22), 256, value, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD + [-1.0])
    def test_shot_photocurrent(self, value):
        with pytest.raises(InvariantViolation, match="photocurrent"):
            shot_noise_series(value, 1e-6, 256, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD + [0.0])
    def test_shot_dt(self, value):
        with pytest.raises(InvariantViolation, match="dt"):
            shot_noise_series(1e-6, value, 256, 1)


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

    def test_zero_budget_n_must_be_power_of_two(self):
        # checked like gen_powerlaw's n, although no component is drawn
        with pytest.raises(InvariantViolation, match="power of two"):
            gen_composite(NoiseBudget(), 1000, 1e-3, 1)

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


class TestOverflowingShape:
    """A shape that overflows fails, naming its component, with no numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_powerlaw_coefficient(self):
        with pytest.raises(InvariantViolation, match=r"^coefficient white_fm = 1e\+308 shapes non-finite"):
            gen_powerlaw("white_fm", 1e308, 256, 1e-3, 1)

    @pytest.mark.filterwarnings("error")
    def test_powerlaw_dt(self):
        # 1 / dt is finite, but f**2 at the Nyquist frequency is not
        with pytest.raises(InvariantViolation, match=r"coefficient white_pm = 1.0 .* at dt = 1e-200"):
            gen_powerlaw("white_pm", 1.0, 256, 1e-200, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(SPECTRAL_SLOPES))
    def test_composite_coefficient(self, kind):
        budget = NoiseBudget(**{"white_fm": 1e-22} | {kind: 1e308})
        with pytest.raises(InvariantViolation, match=f"^coefficient {kind} = 1e\\+308"):
            gen_composite(budget, 256, 1e-3, 1)

    @pytest.mark.filterwarnings("error")
    def test_largest_shape_is_finite(self):
        assert np.all(np.isfinite(gen_powerlaw("white_fm", 1e300, 256, 1e-3, 1).values))
