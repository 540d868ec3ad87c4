"""Discrete-time PID lock that nulls the demodulated residual-AM error.

The loop applies the PID output as an increment to the control phase, so
the proportional channel alone already integrates the error: a pure-P loop
on the linearized plant converges geometrically with ratio |1 - kp * g|
where g is the plant gain d(error)/d(control) at the operating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, UnstableLoopError, require
from .fm import RamParams, _ram_amplitude


@dataclass
class PidGains:
    """Dimensionless per-step PID gains and loop bookkeeping."""

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    dt: float = 1e-3
    output_clamp: float = math.pi
    integrator_clamp: float = 50.0

    def __post_init__(self) -> None:
        require(self, positive=("dt", "output_clamp", "integrator_clamp"))


@dataclass
class ServoTrace:
    """Time series of one closed- or open-loop run."""

    time: np.ndarray
    dphi_n: np.ndarray
    dphi_dc: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        n = self.time.size
        if not (self.dphi_n.size == self.dphi_dc.size == self.error.size == n):
            raise InvariantViolation("trace arrays have unequal lengths")
        if n > 1 and not np.all(np.diff(self.time) > 0):
            raise InvariantViolation("trace time must be strictly increasing")


def plant_gain(p: RamParams) -> float:
    """|d error / d dphi_dc| of the linearized plant at the null."""
    return abs(_ram_amplitude(p, 1))


def ziegler_nichols_gains(plant_gain_value: float, dt: float) -> PidGains:
    """PI gains from Ziegler-Nichols on the one-step linearized loop.

    The increment-accumulating P loop has ultimate gain 2/g and a 2-sample
    ultimate period, giving kp = 0.9/g and ki = 0.54/g per step.
    """
    if plant_gain_value <= 0:
        raise InvariantViolation("plant gain must be > 0")
    kp = 0.9 / plant_gain_value
    ki = 0.54 / plant_gain_value
    return PidGains(kp=kp, ki=ki, kd=0.0, dt=dt)


# --- drift models ------------------------------------------------------------

def constant_drift(value: float):
    """dphi_n(t) = value."""
    def model(t: np.ndarray) -> np.ndarray:
        return np.full_like(t, value, dtype=float)
    return model


def ramp_drift(rate: float, start: float = 0.0):
    """dphi_n(t) = start + rate * t."""
    def model(t: np.ndarray) -> np.ndarray:
        return start + rate * t
    return model


def sinusoid_drift(amplitude: float, freq_hz: float):
    """dphi_n(t) = amplitude * sin(2 pi f t)."""
    def model(t: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(2 * np.pi * freq_hz * t)
    return model


def random_walk_drift(step_std: float, seed: int):
    """Cumulative Gaussian steps from 0, deterministic for a given seed."""
    def model(t: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.normal(0.0, step_std, t.size))
    return model


def run_servo(
    drift,
    gains: PidGains,
    duration: float,
    *,
    ram: RamParams,
    lock: bool = True,
) -> ServoTrace:
    """Closed- (or open-) loop simulation against a drifting dphi_n(t).

    The recorded error at each step is `fm.ram_mod_depth` at dphi_n = drift and
    dphi_dc = control, taken before the controller acts on it.  Error
    amplitude growth beyond 10x its initial level over a trailing window
    raises UnstableLoopError.
    """
    if not (duration > 10 * gains.dt):
        raise InvariantViolation("duration must exceed 10 control periods")
    amp = _ram_amplitude(ram, 1)
    n = int(round(duration / gains.dt))
    t = np.arange(n) * gains.dt
    with np.errstate(all="ignore"):  # a drift that overflows fails the check below
        phi_n = np.asarray(drift(t), dtype=float)
    if not np.all(np.isfinite(phi_n)):
        raise InvariantViolation("drift samples must be finite")

    kp, ki, kd = gains.kp, gains.ki, gains.kd
    i_clamp, u_clamp = gains.integrator_clamp, gains.output_clamp
    # a standard discrete PID whose per-step integrator is clamped to
    # +-integrator_clamp (anti-windup) and whose increment accumulates into u,
    # clamped to +-output_clamp; each min(max(v, -c), c) is written as the
    # comparisons it makes
    integral, prev, u = 0.0, None, 0.0
    if lock:
        control, error = [], []
        sin, record_u, record_e = math.sin, control.append, error.append
        for phi in phi_n.tolist():
            e = amp * sin(phi + u)
            record_e(e)
            record_u(u)
            v = integral + e
            v = -i_clamp if -i_clamp > v else v
            integral = i_clamp if i_clamp < v else v
            derivative = 0.0 if prev is None else e - prev
            prev = e
            v = u + (kp * e + ki * integral + kd * derivative)
            v = -u_clamp if -u_clamp > v else v
            u = u_clamp if u_clamp < v else v
    else:  # u stays 0.0; `+ u` still turns a -0.0 drift into +0.0
        error = [amp * math.sin(phi + u) for phi in phi_n.tolist()]
        control = [u] * len(error)
    control, error = np.array(control), np.array(error)
    if not np.all(np.isfinite(error)):
        raise InvariantViolation("error must be finite")

    if lock:
        # Growth beyond 10x the initial error amplitude flags divergence.
        # The initial amplitude is floored by the slew-scaled tracking
        # residual so that a healthy loop catching up with a drift that
        # happens to start near a stationary point is not misflagged.
        slew = float(np.max(np.abs(np.diff(phi_n)))) if n > 1 else 0.0
        full_scale = abs(amp)
        initial_amp = max(
            float(np.max(np.abs(error[: min(5, n)]))),
            full_scale * min(1.0, 20 * slew),
            1e-30,
        )
        window = max(10, n // 20)
        for k in range(window, n, window):
            recent = float(np.max(np.abs(error[k : k + window])))
            if recent > 10 * initial_amp:
                raise UnstableLoopError(
                    f"error grew from {initial_amp:.3e} to {recent:.3e} with gains "
                    f"kp={gains.kp:g}, ki={gains.ki:g}, kd={gains.kd:g}"
                )
    return ServoTrace(time=t, dphi_n=phi_n, dphi_dc=control, error=error)
