import cmath
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

from rydfm.analysis import allan_deviation, octave_taus
from rydfm.errors import InvariantViolation, UnstableLoopError
from rydfm.fm import RamParams, _ram_amplitude, apply_ram, demodulate, ram_mod_depth, sidebands
from rydfm.noise import TimeSeries
from rydfm.scenario import load_scenario
from rydfm.servo import (
    PidGains,
    constant_drift,
    plant_gain,
    ramp_drift,
    random_walk_drift,
    run_servo,
    sinusoid_drift,
    ziegler_nichols_gains,
)

RAM = RamParams(alpha=0.05, beta_angle=0.05, m_diff=0.1)
GAIN = plant_gain(RAM)
GAINS = ziegler_nichols_gains(GAIN, 1e-3)


@dataclass
class PidState:
    integral: float = 0.0
    prev_error: float | None = None


def pid_step(state: PidState, error: float, gains: PidGains) -> tuple[PidState, float]:
    """Oracle of `run_servo`'s inlined loop: one controller update.

    Standard discrete PID with a per-step integrator clamped to
    +-integrator_clamp (anti-windup); returns the new state and the control
    increment, which the caller accumulates and clamps to +-output_clamp.
    """
    if not math.isfinite(error):
        raise InvariantViolation("error must be finite")
    integral = min(max(state.integral + error, -gains.integrator_clamp), gains.integrator_clamp)
    derivative = 0.0 if state.prev_error is None else error - state.prev_error
    increment = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return PidState(integral=integral, prev_error=error), increment


class TestDemodError:
    def test_default_plant_gain_bitwise(self):
        # the stored servo digests rest on this double: scipy's J_1(0.1) is one
        # ulp above fm._bessel_j's, and either times the prefactor rounds to it
        p = RamParams()
        prefactor = -p.e0_sq * math.sin(2 * p.alpha) * math.sin(2 * p.beta_angle)
        assert plant_gain(p) == abs(prefactor * float(jv(1, 0.1))) == 0.0004977128940221997

    def test_null(self):
        assert ram_mod_depth(replace(RAM, dphi_n=0.4, dphi_dc=-0.4)) == 0.0

    def test_odd_in_total_phase(self):
        plus = ram_mod_depth(replace(RAM, dphi_n=0.3))
        minus = ram_mod_depth(replace(RAM, dphi_n=-0.3))
        assert plus == -minus
        assert plus != 0.0

    def test_sine_ratio(self):
        big = ram_mod_depth(replace(RAM, dphi_n=0.1))
        small = ram_mod_depth(replace(RAM, dphi_n=0.05))
        assert big / small == pytest.approx(math.sin(0.1) / math.sin(0.05), rel=1e-12)

    def test_matches_full_demodulation_chain(self):
        # dual route: analytic coefficient vs time-domain lock-in of the
        # RAM-perturbed sidebands through a transparent medium
        p = replace(RAM, dphi_n=0.25)
        sb = apply_ram(sidebands(0.7, 8, omega_m=2 * math.pi * 10e6), p)
        assert demodulate(sb, -math.pi / 2) == pytest.approx(ram_mod_depth(p), rel=1e-9)


class TestPidStep:
    def test_zero_error_zero_state(self):
        state, out = pid_step(PidState(), 0.0, PidGains(kp=2.0, ki=0.5, kd=0.1))
        assert out == 0.0
        assert state.integral == 0.0

    def test_pure_p(self):
        _, out = pid_step(PidState(), 0.37, PidGains(kp=4.0))
        assert out == 4.0 * 0.37

    def test_integrator_clamped(self):
        gains = PidGains(kp=0.0, ki=1.0, integrator_clamp=1.0)
        state = PidState()
        for _ in range(10):
            state, _ = pid_step(state, 0.5, gains)
        assert state.integral == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            pid_step(PidState(), float("nan"), GAINS)


class TestPidGains:
    @pytest.mark.parametrize("field", ["kp", "ki", "kd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gains_must_be_finite(self, field, value):
        with pytest.raises(InvariantViolation):
            PidGains(**{field: value})

    @pytest.mark.parametrize("field", ["dt", "output_clamp", "integrator_clamp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_positive_finite_fields(self, field, value):
        with pytest.raises(InvariantViolation):
            PidGains(**{field: value})

    def test_negative_gains_allowed(self):
        # a sign flip of the plant is compensated by negative gains
        gains = PidGains(kp=-1.0, ki=-0.5, kd=-0.1)
        assert (gains.kp, gains.ki, gains.kd) == (-1.0, -0.5, -0.1)


class TestSingleLoopDynamics:
    def test_p_only_geometric_ratio(self):
        # difference equation e_{k+1} = (1 - kp g) e_k for the
        # increment-accumulating P loop
        kp = 0.5 / GAIN
        gains = PidGains(kp=kp, ki=0.0, kd=0.0, dt=1e-3)
        trace = run_servo(constant_drift(0.1), gains, 0.05, ram=RAM)
        e = np.abs(trace.error)
        ratios = e[2:12] / e[1:11]
        assert np.allclose(ratios, abs(1 - kp * GAIN), atol=5e-3)

    def test_constant_drift_converges(self):
        trace = run_servo(constant_drift(0.2), GAINS, 0.2, ram=RAM)
        assert abs(trace.error[100]) < 1e-6
        assert abs(math.sin(trace.dphi_n[-1] + trace.dphi_dc[-1])) < 1e-3

    def test_slow_ramp_tracked(self):
        gains = GAINS
        trace = run_servo(ramp_drift(0.05), gains, 2.0, ram=RAM)
        settled = slice(trace.time.size // 4, None)
        residual = np.abs(np.sin(trace.dphi_n[settled] + trace.dphi_dc[settled]))
        assert residual.max() < 1e-3
        # the double-integrating loop beats the single-integrator PI bound
        rate_bound = 0.05 * gains.dt / gains.ki
        assert np.abs(trace.error[settled]).max() < GAIN * rate_bound

    def test_unstable_gains_detected(self):
        bad = PidGains(kp=3.0 / GAIN, ki=0.0, kd=0.0, dt=1e-3)
        with pytest.raises(UnstableLoopError):
            run_servo(constant_drift(0.005), bad, 0.5, ram=RAM)

    def test_duration_precondition(self):
        with pytest.raises(InvariantViolation):
            run_servo(constant_drift(0.1), GAINS, 5 * GAINS.dt, ram=RAM)


class TestDriftModels:
    def test_shapes(self):
        t = np.linspace(0, 1, 101)
        assert np.all(constant_drift(0.3)(t) == 0.3)
        ramp = ramp_drift(0.2, 0.1)(t)
        assert ramp[0] == 0.1 and ramp[-1] == pytest.approx(0.3)
        sin = sinusoid_drift(0.5, 1.0)(t)
        assert np.max(np.abs(sin)) <= 0.5 + 1e-12
        walk = random_walk_drift(1e-2, seed=3)(t)
        assert walk.size == t.size

    def test_random_walk_deterministic(self):
        t = np.linspace(0, 1, 50)
        a = random_walk_drift(1e-2, seed=9)(t)
        b = random_walk_drift(1e-2, seed=9)(t)
        assert np.array_equal(a, b)
        c = random_walk_drift(1e-2, seed=10)(t)
        assert not np.array_equal(a, c)


class TestServoRuns:
    def test_trace_determinism(self):
        drift = random_walk_drift(2e-3, seed=21)
        a = run_servo(drift, GAINS, 2.0, ram=RAM)
        b = run_servo(drift, GAINS, 2.0, ram=RAM)
        assert np.array_equal(a.error, b.error)
        assert np.array_equal(a.dphi_dc, b.dphi_dc)

    def test_unlocked_tracks_drift(self):
        drift = sinusoid_drift(0.3, 0.5)
        trace = run_servo(drift, GAINS, 4.0, ram=RAM, lock=False)
        expected = np.array([ram_mod_depth(replace(RAM, dphi_n=x)) for x in trace.dphi_n])
        assert np.allclose(trace.error, expected)
        assert np.all(trace.dphi_dc == 0.0)

    def test_locked_vs_unlocked_allan_contrast(self):
        drift = random_walk_drift(2e-3, seed=42)
        duration = 8.192
        locked = run_servo(drift, GAINS, duration, ram=RAM, lock=True)
        unlocked = run_servo(drift, GAINS, duration, ram=RAM, lock=False)
        skip = 1024
        results = {}
        for label, trace in (("locked", locked), ("unlocked", unlocked)):
            ts = TimeSeries(dt=GAINS.dt, values=trace.error[skip:], seed=0, kind="composite")
            results[label] = allan_deviation(ts, octave_taus(ts))
        lo = results["locked"].sigma_y
        hi = results["unlocked"].sigma_y
        # unlocked drift accumulates at long tau; the lock removes it
        assert hi[-1] > hi[0]
        assert lo[-1] < 0.1 * hi[-1]

    def test_lock_suppresses_fm_baseline(self):
        # closed-loop dphi_dc nulls the RAM baseline in the FM readout
        drift_level = 0.3
        trace = run_servo(constant_drift(drift_level), GAINS, 1.0, ram=RAM)
        locked_p = replace(RAM, dphi_n=drift_level, dphi_dc=trace.dphi_dc[-1])
        unlocked_p = replace(RAM, dphi_n=drift_level, dphi_dc=0.0)
        sb = sidebands(0.7, 8, omega_m=2 * math.pi * 10e6)
        locked_offset = abs(demodulate(apply_ram(sb, locked_p), math.pi / 2))
        unlocked_offset = abs(demodulate(apply_ram(sb, unlocked_p), math.pi / 2))
        assert locked_offset < 1e-3 * unlocked_offset


def stepwise_servo(drift, gains, duration, ram, lock):
    """Oracle: rebuild RamParams and call ram_mod_depth on every step."""
    n = int(round(duration / gains.dt))
    phi_n = np.asarray(drift(np.arange(n) * gains.dt), dtype=float)
    control = np.zeros(n)
    error = np.zeros(n)
    state = PidState()
    u = 0.0
    for k in range(n):
        e = ram_mod_depth(replace(ram, dphi_n=float(phi_n[k]), dphi_dc=u))
        error[k] = e
        control[k] = u
        if lock:
            state, du = pid_step(state, e, gains)
            u = min(max(u + du, -gains.output_clamp), gains.output_clamp)
    return control, error


def assert_bitwise(actual, expected):
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestRunServoOracle:
    @pytest.mark.parametrize("lock", [True, False])
    @pytest.mark.parametrize(
        "drift",
        [
            constant_drift(0.2),
            constant_drift(-0.0),
            sinusoid_drift(0.3, 0.5),
            random_walk_drift(2e-3, seed=21),
        ],
        ids=["constant", "negative_zero", "sinusoid", "random_walk"],
    )
    def test_matches_stepwise_loop(self, drift, lock):
        ram = replace(RAM, dphi_n=0.7, dphi_dc=-0.3)  # ignored by run_servo
        trace = run_servo(drift, GAINS, 2.0, ram=ram, lock=lock)
        control, error = stepwise_servo(drift, GAINS, 2.0, ram, lock)
        assert_bitwise(trace.error, error)
        assert_bitwise(trace.dphi_dc, control)

    @pytest.mark.parametrize(
        "drift", [sinusoid_drift(0.3, 0.5), random_walk_drift(2e-3, seed=21)],
        ids=["sinusoid", "random_walk"],
    )
    def test_matches_stepwise_loop_with_derivative_and_clamps(self, drift):
        # a derivative term, and clamps that the runs reach
        gains = PidGains(kp=0.5 / GAIN, ki=0.2 / GAIN, kd=0.2 / GAIN, dt=1e-3,
                         integrator_clamp=2 * GAIN, output_clamp=0.25)
        trace = run_servo(drift, gains, 2.0, ram=RAM)
        control, error = stepwise_servo(drift, gains, 2.0, RAM, True)
        assert_bitwise(trace.error, error)
        assert_bitwise(trace.dphi_dc, control)

    @pytest.mark.parametrize("lock", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_drift(self, bad, lock):
        def drift(t):
            phi = np.zeros_like(t)
            phi[t.size // 2] = bad
            return phi

        with pytest.raises(InvariantViolation):
            run_servo(drift, GAINS, 0.1, ram=RAM, lock=lock)


    def test_rejects_non_finite_control(self):
        # kp * e and ki * integral overflow to opposite infinities, so the
        # increment, and from then on the control and the error, are NaN
        ram = replace(RAM, e0_sq=1e4)
        gains = PidGains(kp=1e308, ki=-1e308, integrator_clamp=1e3)
        with pytest.raises(InvariantViolation, match="finite"):
            run_servo(constant_drift(1.0), gains, 0.1, ram=ram)


class TestZieglerNichols:
    def test_gains_scale_with_plant(self):
        gains = ziegler_nichols_gains(0.01, 1e-3)
        assert gains.kp == pytest.approx(90.0)
        assert gains.ki == pytest.approx(54.0)

    def test_rejects_bad_gain(self):
        with pytest.raises(InvariantViolation):
            ziegler_nichols_gains(0.0, 1e-3)


def closed_loop_impulse(a: float, b: float, n: int = 200) -> np.ndarray:
    """Impulse response of z (z - 1) / (z^2 - (2 - a - b) z + (1 - a)).

    The linearized lock: with x = dphi_n + dphi_dc, e = g x, a = -g kp and
    b = -g ki, a drift step w_k enters x through this transfer function.
    """
    h, num = np.zeros(n), np.zeros(n)
    num[:2] = 1.0, -1.0  # z (z - 1) / z^2 = 1 - 1/z
    for k in range(n):  # h[-1] and h[-2] are still 0 at k = 0 and 1
        h[k] = num[k] + (2 - a - b) * h[k - 1] - (1 - a) * h[k - 2]
    return h


class TestClosedLoopSensitivity:
    """`servo_demo`'s lock against the linear loop's sensitivity function
    S(z) = (z - 1)^2 / (z^2 - (2 - a - b) z + (1 - a)), for both drift models."""

    SETTLE = 1024  # steps dropped while the loop pulls in

    @staticmethod
    def demo():
        scn = load_scenario(str(Path(__file__).resolve().parents[1] / "configs" / "servo_demo.cfg"))
        g = _ram_amplitude(scn.ram, 1)
        a, b = -g * scn.gains.kp, -g * scn.gains.ki
        assert a == pytest.approx(0.9, rel=1e-12) and b == pytest.approx(0.54, rel=1e-12)
        return scn, a, b

    @staticmethod
    def assert_no_clamp_acts(trace, gains, label):
        # neither clamp acts, so the linear loop is the whole loop
        assert np.max(np.abs(trace.dphi_dc)) < gains.output_clamp, label
        assert np.max(np.abs(np.cumsum(trace.error))) < gains.integrator_clamp, label

    def test_residual_variance_matches_the_linear_loop(self):
        scn, a, b = self.demo()
        h = closed_loop_impulse(a, b)
        assert abs(h[-1]) < 1e-30  # poles at |z| = sqrt(1 - a) ~ 0.32
        norm = float(np.sum(h ** 2))
        assert norm == pytest.approx(1.33869, abs=1e-5)
        sigma = scn.servo.drift_step_std
        for seed in range(42, 47):
            trace = run_servo(random_walk_drift(sigma, seed), scn.gains, scn.servo.duration_s,
                              ram=scn.ram)
            x = (trace.dphi_n + trace.dphi_dc)[self.SETTLE:]
            ratio = float(np.var(x)) / (sigma ** 2 * norm)
            assert abs(ratio - 1.0) <= 4 * math.sqrt(2 / x.size), (seed, ratio)  # NaN fails
            self.assert_no_clamp_acts(trace, scn.gains, seed)

    @pytest.mark.parametrize("freq_hz, s_abs", [(1.0, 7.3e-5), (10.0, 7.3e-3), (50.0, 0.175),
                                                (150.0, 1.124)])
    def test_sinusoidal_drift_is_scaled_by_the_sensitivity(self, freq_hz, s_abs):
        scn, a, b = self.demo()
        amplitude, dt = 1e-3, scn.gains.dt
        z = cmath.exp(2j * math.pi * freq_hz * dt)
        s = (z - 1) ** 2 / (z * z - (2 - a - b) * z + (1 - a))
        assert abs(s) == pytest.approx(s_abs, rel=5e-3)
        trace = run_servo(sinusoid_drift(amplitude, freq_hz), scn.gains, 8.192, ram=scn.ram)
        self.assert_no_clamp_acts(trace, scn.gains, freq_hz)
        # the poles' transient, |z| ~ 0.32 per step, is below rounding long before the last half
        half = slice(trace.time.size // 2, None)
        x = (trace.dphi_n + trace.dphi_dc)[half]
        phase = 2 * math.pi * freq_hz * trace.time[half]
        # x = Im(X exp(i w t)) with X = S * amplitude in the linear loop; sin and cos at the
        # drive frequency fitted together leak nothing of the drive into each other
        (c_sin, c_cos), *_ = np.linalg.lstsq(np.stack([np.sin(phase), np.cos(phase)], axis=1), x,
                                             rcond=None)
        fitted = complex(c_sin, c_cos) / amplitude
        # what is left: the plant's sin x, whose first harmonic is X (1 - X^2 / 8 + ...), bounded
        # with a factor 4 to spare, and the rounding of x = dphi_n + dphi_dc, a few ulps of the drift
        size = abs(s) * amplitude
        bound = size ** 2 / 2 + 16 * np.finfo(float).eps * amplitude / size
        assert abs(fitted - s) <= bound * abs(s), (fitted, s)  # NaN fails
