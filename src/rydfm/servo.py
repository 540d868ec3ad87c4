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

from .errors import InvariantViolation, UnstableLoopError
from .fm import RamParams, _ram_amplitude, ram_mod_depth


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
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"{name} must be finite")
        for name in ("dt", "output_clamp", "integrator_clamp"):
            if not (0 < getattr(self, name) < math.inf):
                raise InvariantViolation(f"{name} must be finite and > 0")


@dataclass
class PidState:
    integral: float = 0.0
    prev_error: float | None = None


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


def demod_error(p: RamParams) -> float:
    """Residual-AM error signal at the error-maximizing LO phase.

    Returns the signed sin(omega_m t) coefficient of the first-harmonic
    photocurrent, proportional to sin(dphi_n + dphi_dc).
    """
    return ram_mod_depth(p)


def plant_gain(p: RamParams) -> float:
    """|d error / d dphi_dc| of the linearized plant at the null."""
    return abs(_ram_amplitude(p, 1))


def pid_step(state: PidState, error: float, gains: PidGains) -> tuple[PidState, float]:
    """One controller update; returns the new state and the control increment.

    Standard discrete PID with a per-step integrator clamped to
    +-integrator_clamp (anti-windup).  The caller accumulates the increment
    into the control variable and clamps that to +-output_clamp.
    """
    if not math.isfinite(error):
        raise InvariantViolation("error must be finite")
    integral = min(max(state.integral + error, -gains.integrator_clamp), gains.integrator_clamp)
    derivative = 0.0 if state.prev_error is None else error - state.prev_error
    increment = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return PidState(integral=integral, prev_error=error), increment


def ziegler_nichols_gains(plant_gain_value: float, dt: float, **overrides) -> PidGains:
    """PI gains from Ziegler-Nichols on the one-step linearized loop.

    The increment-accumulating P loop has ultimate gain 2/g and a 2-sample
    ultimate period, giving kp = 0.9/g and ki = 0.54/g per step.
    """
    if plant_gain_value <= 0:
        raise InvariantViolation("plant gain must be > 0")
    kp = 0.9 / plant_gain_value
    ki = 0.54 / plant_gain_value
    return PidGains(kp=kp, ki=ki, kd=0.0, dt=dt, **overrides)


# --- drift models ------------------------------------------------------------

def constant_drift(value: float):
    """dphi_n(t) = value."""
    def model(t: np.ndarray) -> np.ndarray:
        return np.full_like(t, value, dtype=float)
    model.kind = "constant"
    return model


def ramp_drift(rate: float, start: float = 0.0):
    """dphi_n(t) = start + rate * t."""
    def model(t: np.ndarray) -> np.ndarray:
        return start + rate * t
    model.kind = "ramp"
    return model


def sinusoid_drift(amplitude: float, freq_hz: float, phase: float = 0.0):
    """dphi_n(t) = amplitude * sin(2 pi f t + phase)."""
    def model(t: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(2 * np.pi * freq_hz * t + phase)
    model.kind = "sinusoid"
    return model


def random_walk_drift(step_std: float, seed: int, start: float = 0.0):
    """Cumulative Gaussian steps, deterministic for a given seed."""
    def model(t: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return start + np.cumsum(rng.normal(0.0, step_std, t.size))
    model.kind = "random_walk"
    return model


def run_servo(
    drift,
    gains: PidGains,
    duration: float,
    *,
    ram: RamParams | None = None,
    lock: bool = True,
) -> ServoTrace:
    """Closed- (or open-) loop simulation against a drifting dphi_n(t).

    The recorded error at each step is demod_error at dphi_n = drift and
    dphi_dc = control, taken before the controller acts on it.  Error
    amplitude growth beyond 10x its initial level over a trailing window
    raises UnstableLoopError.
    """
    if not (duration > 10 * gains.dt):
        raise InvariantViolation("duration must exceed 10 control periods")
    base = ram if ram is not None else RamParams()
    n = int(round(duration / gains.dt))
    t = np.arange(n) * gains.dt
    phi_n = np.asarray(drift(t), dtype=float)
    if not np.all(np.isfinite(phi_n)):
        raise InvariantViolation("drift samples must be finite")

    amp = _ram_amplitude(base, 1)
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    i_clamp, u_clamp = gains.integrator_clamp, gains.output_clamp
    # pid_step's arithmetic, inlined, with each min(max(v, -c), c) written as
    # the comparisons it makes; the state is `integral` and `prev`
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
