"""Seeded stochastic time series: power-law noises and detector shot noise.

Power-law series are synthesized by FFT spectral shaping of white Gaussian
noise.  A series of kind `k` has one-sided PSD S(f) = coefficient * f**alpha
with the slopes below; all samples are interpreted as frequency-like data,
so white phase noise appears as alpha = +2 and random-walk frequency noise
as alpha = -2.  The white-FM coefficient h0 follows the two-sample-variance
convention sigma_y^2(tau) = h0 / (2 tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, E_CHARGE, H_PLANCK
from .errors import InvariantViolation, UnsupportedKindError, require

SPECTRAL_SLOPES = {
    "white_pm": 2.0,
    "flicker_pm": -1.0,
    "white_fm": 0.0,
    "rw_fm": -2.0,
}

# stable per-kind RNG stream indices for seed derivation
_KIND_STREAM = {"white_pm": 1, "flicker_pm": 2, "white_fm": 3, "rw_fm": 4, "shot": 5}


@dataclass
class TimeSeries:
    """Uniformly sampled real record with RNG provenance."""

    dt: float
    values: np.ndarray
    seed: int
    kind: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        require(self, positive=("dt",))
        if self.values.size < 2:
            raise InvariantViolation("a time series needs at least 2 samples")
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolation("time series contains non-finite samples")

    @property
    def duration(self) -> float:
        return self.dt * self.values.size

    @property
    def time(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


@dataclass
class NoiseBudget:
    """PSD coefficients per noise kind (h-coefficient normalization)."""

    white_pm: float = 0.0
    flicker_pm: float = 0.0
    white_fm: float = 0.0
    rw_fm: float = 0.0

    def __post_init__(self) -> None:
        require(self, nonnegative=tuple(SPECTRAL_SLOPES))

    def items(self):
        return [(kind, getattr(self, kind)) for kind in SPECTRAL_SLOPES]


def _rng_for(seed: int, kind: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_KIND_STREAM[kind],)))


def _shaped_sum(components, n: int, dt: float, seed: int) -> np.ndarray:
    """Sum of the FFT-shaped series of `components`, (kind, coefficient) pairs.

    Every component is shaped in place in one buffer and one spectrum, by the
    operations fresh arrays would get, so each value is bit for bit the same.
    """
    for kind, coefficient in components:
        if kind not in SPECTRAL_SLOPES:
            raise UnsupportedKindError(f"unsupported noise kind {kind!r}")
        if not (0 <= coefficient < math.inf):
            raise InvariantViolation(f"coefficient {kind} must be finite and >= 0")
    if n < 2 or (n & (n - 1)) != 0:
        raise InvariantViolation("n must be a power of two >= 2")
    if not (0 < dt < math.inf and 1.0 / dt < math.inf):
        raise InvariantViolation(f"dt must be finite and > 0 with a finite 1/dt, got {dt!r}")
    total, buf = np.zeros(n), np.empty(n)
    spectrum = np.empty(n // 2 + 1, dtype=complex)
    freqs = np.fft.rfftfreq(n, dt)
    fs = 1.0 / dt
    shaping = np.zeros_like(freqs)
    for kind, coefficient in components:
        if coefficient > 0:
            with np.errstate(all="ignore"):  # an overflowing shape is raised below
                shaping[1:] = np.sqrt(coefficient * freqs[1:] ** SPECTRAL_SLOPES[kind] * fs / 2.0)
            if not np.all(np.isfinite(shaping)):
                raise InvariantViolation(f"coefficient {kind} = {coefficient!r} shapes non-finite "
                                         f"samples at dt = {dt!r}")
            _rng_for(seed, kind).standard_normal(out=buf)
            np.fft.rfft(buf, out=spectrum)
            spectrum *= shaping
            np.fft.irfft(spectrum, n, out=buf)
            total += buf
    return total


def gen_powerlaw(kind: str, coefficient: float, n: int, dt: float, seed: int) -> TimeSeries:
    """Series with one-sided PSD coefficient * f**alpha for the given kind.

    `n` must be a power of two (FFT shaping).  The DC bin is zeroed, so
    every generated series has zero mean by construction.
    """
    values = _shaped_sum([(kind, coefficient)], n, dt, seed)
    return TimeSeries(dt=dt, values=values, seed=seed, kind=kind)


def gen_composite(budget: NoiseBudget, n: int, dt: float, seed: int) -> TimeSeries:
    """Sum of independent power-law components, one RNG stream per kind."""
    values = _shaped_sum(budget.items(), n, dt, seed)
    return TimeSeries(dt=dt, values=values, seed=seed, kind="composite")


def shot_noise_series(photocurrent: float, dt: float, n: int, seed: int) -> TimeSeries:
    """Gaussian shot noise of a DC photocurrent at the Nyquist bandwidth.

    Mean `photocurrent`, per-sample variance 2 e I * (1 / (2 dt)).
    """
    if not (0 <= photocurrent < math.inf):
        raise InvariantViolation("photocurrent must be finite and >= 0")
    if not (0 < dt < math.inf):
        raise InvariantViolation("dt must be finite and > 0")
    if n < 2:
        raise InvariantViolation("n must be >= 2")
    sigma = np.sqrt(2 * E_CHARGE * photocurrent / (2 * dt))
    rng = _rng_for(seed, "shot")
    values = photocurrent + sigma * rng.standard_normal(n)
    return TimeSeries(dt=dt, values=values, seed=seed, kind="shot")


def shot_noise_snr(eta: float, power: float, wavelength: float, bandwidth: float) -> float:
    """Photocurrent-over-shot-noise ratio sqrt(eta P / (2 h nu Delta f)).

    This is the standard detector SNR; the commonly printed radicand
    2 eta e^2 P Delta f / (h nu) has units of current squared (it is the
    shot-noise current variance for I = eta e P / (h nu)), so the
    dimensionless ratio above is what this function implements.
    """
    if not (eta > 0 and power > 0 and wavelength > 0 and bandwidth > 0):
        raise InvariantViolation("all shot-noise SNR inputs must be > 0")
    photon_energy = H_PLANCK * C_LIGHT / wavelength
    return float(np.sqrt(eta * power / (2 * photon_energy * bandwidth)))
