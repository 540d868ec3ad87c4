"""Phase-modulated probe: sidebands, propagation, lock-in demodulation, RAM.

The modulated field is written as a sideband sum E(t) = sum_n a_n
exp(i (omega_0 + n omega_m) t) with pre-propagation amplitudes
a_n = J_n(beta).  The detected photocurrent is |sum_n a_n exp(i n omega_m
t)|^2, synthesized in the time domain over one exact modulation period and
mixed with cos(omega_m t + theta).  The demodulated output is twice the
period average, i.e. the amplitude of the omega_m Fourier component
projected on the LO, so an intensity modulation (1 + m sin omega_m t)
demodulates to -m sin(theta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import (
    EvenHarmonicError,
    InvariantViolation,
    OutOfGridError,
    TruncationError,
)
from .spectroscopy import MediumSpectrum

BESSEL_CLOSURE_TOL = 1e-9
DEMOD_SAMPLES = 256


def bessel_closure(beta: float, n_max: int) -> float:
    """Retained optical power sum_{|n|<=n_max} J_n(beta)^2 (exactly 1 at inf)."""
    orders = np.arange(-n_max, n_max + 1)
    return float(np.sum(jv(orders, beta) ** 2))


def _check_truncation(beta: float, n_max: int) -> None:
    """Raise unless orders -n_max..n_max keep 1 - 1e-9 of the power (NaN fails)."""
    if not (n_max >= 1):
        raise InvariantViolation("n_max must be >= 1")
    closure = bessel_closure(beta, n_max)
    if not (closure >= 1 - BESSEL_CLOSURE_TOL):
        raise TruncationError(
            f"sideband truncation keeps {closure:.12f} of the power at "
            f"n_max = {n_max}, beta = {beta}"
        )


@dataclass
class FmConfig:
    """Modulation and demodulation settings of the FM readout."""

    omega_m: float = 2 * math.pi * 10e6
    beta: float = 0.7
    n_max: int = 8
    lo_phase: float = math.pi / 2

    def __post_init__(self) -> None:
        if not (0 < self.omega_m < math.inf):
            raise InvariantViolation("omega_m must be finite and > 0")
        if not math.isfinite(self.lo_phase):
            raise InvariantViolation("lo_phase must be finite")
        _check_truncation(self.beta, self.n_max)


@dataclass
class RamParams:
    """Residual-amplitude-modulation parameters of the phase modulator.

    `alpha` and `beta_angle` are the polarizer/analyzer angles against the
    crystal axes, `m_diff` the differential modulation index between the
    extraordinary and ordinary waves, `dphi_n` the uncontrolled
    birefringence phase, `dphi_dc` the control phase and `e0_sq` the
    optical power scale of the detected beam.
    """

    alpha: float = 0.05
    beta_angle: float = 0.05
    m_diff: float = 0.1
    dphi_n: float = 0.0
    dphi_dc: float = 0.0
    e0_sq: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta_angle"):
            if not -math.pi / 2 < getattr(self, name) < math.pi / 2:
                raise InvariantViolation(f"{name} must lie in (-pi/2, pi/2)")
        for name in ("m_diff", "dphi_n", "dphi_dc"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"{name} must be finite")
        if not (0 <= self.e0_sq < math.inf):
            raise InvariantViolation("e0_sq must be finite and >= 0")


@dataclass
class SidebandSet:
    """Complex sideband amplitudes on orders -n_max..n_max."""

    orders: np.ndarray
    amps: np.ndarray
    omega_m: float | None = None

    def __post_init__(self) -> None:
        self.orders = np.asarray(self.orders, dtype=int)
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.orders.size != self.amps.size:
            raise InvariantViolation("orders and amplitudes differ in length")

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def amplitude(self, order: int) -> complex:
        idx = np.nonzero(self.orders == order)[0]
        return complex(self.amps[idx[0]]) if idx.size else 0.0


def sidebands(beta: float, n_max: int, omega_m: float | None = None) -> SidebandSet:
    """Phase-modulation sideband set with amplitudes J_n(beta).

    Raises TruncationError when the retained power falls below
    1 - 1e-9 at the requested order cutoff.
    """
    _check_truncation(beta, n_max)
    orders = np.arange(-n_max, n_max + 1)
    return SidebandSet(orders=orders, amps=jv(orders, beta).astype(complex), omega_m=omega_m)


def propagate(
    sb: SidebandSet,
    spec: MediumSpectrum,
    carrier_detuning: float,
    omega_m: float | None = None,
) -> SidebandSet:
    """Apply the medium response t exp(i phi) to each spectral component.

    Each order n samples the medium at carrier_detuning + n * omega_m with
    linear interpolation on the scanned grid; a sample outside the grid
    raises OutOfGridError.
    """
    w_m = omega_m if omega_m is not None else sb.omega_m
    if w_m is None:
        raise InvariantViolation("omega_m needed: set it on the SidebandSet or pass it")
    detunings = carrier_detuning + sb.orders * w_m
    lo, hi = spec.grid[0], spec.grid[-1]
    if detunings.min() < lo or detunings.max() > hi:
        raise OutOfGridError(
            f"sideband detunings span [{detunings.min():.6g}, {detunings.max():.6g}] rad/s "
            f"but the spectrum covers [{lo:.6g}, {hi:.6g}]"
        )
    t = np.interp(detunings, spec.grid, spec.amp_transmission)
    phi = np.interp(detunings, spec.grid, spec.phase)
    return SidebandSet(orders=sb.orders, amps=sb.amps * t * np.exp(1j * phi), omega_m=w_m)


def photocurrent_samples(sb: SidebandSet, n_time: int = DEMOD_SAMPLES) -> np.ndarray:
    """|E(t)|^2 over one modulation period at n_time uniform samples."""
    theta = 2 * np.pi * np.arange(n_time) / n_time
    field = np.exp(1j * np.outer(theta, sb.orders)) @ sb.amps
    return np.abs(field) ** 2


def demodulate(sb: SidebandSet, lo_phase: float, n_time: int = DEMOD_SAMPLES) -> float:
    """Lock-in output at omega_m for the given LO phase.

    Twice the one-period average of photocurrent * cos(omega_m t +
    lo_phase); exact for band-limited sets with n_max < n_time / 4.
    """
    theta = 2 * np.pi * np.arange(n_time) / n_time
    current = photocurrent_samples(sb, n_time)
    return float(2.0 * np.mean(current * np.cos(theta + lo_phase)))


def dc_power(sb: SidebandSet, n_time: int = DEMOD_SAMPLES) -> float:
    """Period-averaged detected power; equals sum |a_n|^2."""
    return float(np.mean(photocurrent_samples(sb, n_time)))


def ram_photocurrent(p: RamParams, n: int, omega_m: float, t) -> np.ndarray | float:
    """Residual-AM photocurrent at the n-th odd harmonic of omega_m.

    Returns -e0_sq sin(2 alpha) sin(2 beta_angle) J_n(M) sin(n omega_m t)
    sin(dphi_n + dphi_dc).  Only odd positive n are physical; even n raise
    EvenHarmonicError.
    """
    if n <= 0:
        raise InvariantViolation("harmonic order must be positive")
    if n % 2 == 0:
        raise EvenHarmonicError(f"residual-AM formula applies to odd harmonics, got n = {n}")
    amplitude = _ram_amplitude(p, n) * math.sin(p.dphi_n + p.dphi_dc)
    return amplitude * np.sin(n * omega_m * np.asarray(t, dtype=float))


def _ram_amplitude(p: RamParams, n: int) -> float:
    """-e0_sq sin(2 alpha) sin(2 beta_angle) J_n(M), the RAM factor of sin(dphi_n + dphi_dc)."""
    return -p.e0_sq * math.sin(2 * p.alpha) * math.sin(2 * p.beta_angle) * float(jv(n, p.m_diff))


def ram_mod_depth(p: RamParams) -> float:
    """Signed sin(omega_m t) coefficient of the residual-AM photocurrent."""
    return _ram_amplitude(p, 1) * math.sin(p.dphi_n + p.dphi_dc)


def apply_ram(sb: SidebandSet, p: RamParams) -> SidebandSet:
    """Inject residual AM into the +-1 sidebands of a pre-propagation set.

    The common-mode perturbation is scaled so that, for a transparent
    medium, the demodulated omega_m component equals the first-harmonic
    residual-AM photocurrent amplitude.  At the null condition the set is
    returned unchanged.
    """
    if sb.orders.max() < 1:
        raise InvariantViolation("apply_ram needs n_max >= 1")
    depth = ram_mod_depth(p)
    if depth == 0.0:
        return SidebandSet(orders=sb.orders.copy(), amps=sb.amps.copy(), omega_m=sb.omega_m)
    # beat normalization: carrier term minus the +-2 sideband back-action
    gain = float(sb.amplitude(0).real) - 0.5 * float(
        (sb.amplitude(2) + np.conj(sb.amplitude(-2))).real
    )
    if abs(gain) < 1e-12:
        raise InvariantViolation("carrier-dominated sideband set required for RAM injection")
    delta = depth / (4 * gain)
    amps = sb.amps.copy()
    amps[sb.orders == 1] += -1j * delta
    amps[sb.orders == -1] += 1j * delta
    return SidebandSet(orders=sb.orders.copy(), amps=amps, omega_m=sb.omega_m)


def index_from_dbm(dbm: float, v_pi: float = 3.5, impedance: float = 50.0) -> float:
    """Modulation index from RF drive power using a linear volts-to-index map.

    The drive voltage amplitude is sqrt(2 P Z) with P = 10**(dbm/10) mW and
    beta = pi V / V_pi.  V_pi defaults to a placeholder 3.5 V typical of
    waveguide modulators; calibrate it per device.
    """
    if v_pi <= 0 or impedance <= 0:
        raise InvariantViolation("v_pi and impedance must be > 0")
    power_w = 1e-3 * 10 ** (dbm / 10)
    volts = math.sqrt(2 * power_w * impedance)
    return math.pi * volts / v_pi
