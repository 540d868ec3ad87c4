"""Phase-modulated probe: sidebands, propagation, lock-in demodulation, RAM.

The modulated field is written as a sideband sum E(t) = sum_n a_n
exp(i (omega_0 + n omega_m) t) with pre-propagation amplitudes
a_n = J_n(beta) on consecutive orders n.  The detected photocurrent
|sum_n a_n exp(i n omega_m t)|^2 has the omega_m Fourier coefficient
c_1 = sum_n a_(n+1) conj(a_n), the beat of neighbouring sidebands.  The
lock-in mixes the photocurrent with cos(omega_m t + theta) and reports
twice the period average, which is exactly 2 Re(exp(-i theta) c_1), so an
intensity modulation (1 + m sin omega_m t) demodulates to -m sin(theta);
`apply_ram` injects residual AM as such a modulation, the field AM of index
m / 2.  The DC power is sum_n |a_n|^2.  Amplitude arrays may carry leading
axes (one row per carrier); the orders run along the last axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvenHarmonicError,
    InvariantViolation,
    OutOfGridError,
    TruncationError,
    require,
)
from .spectroscopy import MediumSpectrum

BESSEL_CLOSURE_TOL = 1e-9
V_PI = 3.5  # V, a placeholder half-wave voltage typical of waveguide modulators
IMPEDANCE = 50.0  # ohm, the modulator's RF input


# Work bound: below |beta| the recurrence takes O(|beta|) steps, and fewer
# than |beta| orders fail the truncation check anyway
_RECURRENCE_X = 1000.0


def _bessel_j(beta: float, n_max: int) -> np.ndarray:
    """J_n(beta) for n = -n_max..n_max, all NaN unless |beta| <= max(n_max, _RECURRENCE_X).

    With x = |beta|, J_k > 0 for every order k >= x, so there the ratios
    J_k / J_(k-1) = x / (2 k - x J_(k+1) / J_k) run down from past the
    turning point (continued fraction) and give each order to full relative
    accuracy; below ceil(x) the recurrence J_(k-1) = (2 k / x) J_k - J_(k+1)
    runs down, and J_0 + 2 sum_k J_2k = 1 normalizes (Miller).  Past the
    bound, the orders from ceil(x) on carry over 1e-9 of the power, so no set
    of fewer orders passes the truncation check of `sidebands`, which rejects
    the NaN as it does that of a NaN or infinite beta.  J_n(-x) = J_(-n)(x) = (-1)^n J_n(x).
    """
    x = abs(beta)
    if not x <= max(n_max, _RECURRENCE_X):
        return np.full(2 * n_max + 1, math.nan)
    top = math.ceil(x)
    ratios, r = [], 0.0
    for k in range(max(n_max, top) + 4 + math.ceil(12 * x ** (1 / 3)), top, -1):
        r = x / (2 * k - x * r)
        ratios.append(r)
    # scaled f_top, f_(top - 1), ..., f_0: f_top = x below x = 1, so 2 k f_k / x
    # cannot overflow, and the product by the first ratio is f_(top + 1)
    down = [x if 0 < x < 1 else 1.0]
    after = down[0] * r
    for k in range(top, 0, -1):
        down.append(2 * k * down[-1] / x - after)
        after = down[-2]
    f = np.concatenate([down[::-1], down[0] * np.cumprod(ratios[::-1])])
    j = f[: n_max + 1] / (f[0] + 2.0 * np.sum(f[2::2]))
    odd = np.arange(n_max + 1) % 2 == 1
    if beta < 0:
        j = np.where(odd, -j, j)
    return np.concatenate([np.where(odd, -j, j)[:0:-1], j])


@dataclass
class FmConfig:
    """Modulation and demodulation settings of the FM readout."""

    omega_m: float = 2 * math.pi * 10e6
    beta: float = 0.7
    n_max: int = 8
    lo_phase: float = math.pi / 2

    def __post_init__(self) -> None:
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer)):
            raise InvariantViolation(f"n_max must be an integer, got {self.n_max!r}")
        sidebands(self.beta, self.n_max)  # first, so a NaN beta is a TruncationError
        require(self, positive=("omega_m",))


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
        require(self, nonnegative=("e0_sq",))
        for name in ("alpha", "beta_angle"):
            if not -math.pi / 2 < getattr(self, name) < math.pi / 2:
                raise InvariantViolation(f"{name} must lie in (-pi/2, pi/2)")
        if not abs(self.m_diff) <= _RECURRENCE_X:  # past it, _bessel_j gives NaN
            raise InvariantViolation(f"m_diff must lie in [-{_RECURRENCE_X:g}, {_RECURRENCE_X:g}], "
                                     f"got {self.m_diff!r}")


@dataclass
class SidebandSet:
    """Complex sideband amplitudes on consecutive ascending orders.

    `amps` holds the orders along its last axis; a propagated set has one
    row per carrier detuning.
    """

    orders: np.ndarray
    amps: np.ndarray
    omega_m: float | None = None

    def __post_init__(self) -> None:
        self.orders = np.asarray(self.orders, dtype=int)
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape[-1:] != self.orders.shape:
            raise InvariantViolation("orders and amplitudes differ in length")
        if not np.all(np.diff(self.orders) == 1):
            raise InvariantViolation("sideband orders must be consecutive ascending integers")


def sidebands(beta: float, n_max: int, omega_m: float | None = None) -> SidebandSet:
    """Phase-modulation sideband set with amplitudes J_n(beta), and the one truncation check.

    Raises TruncationError unless orders -n_max..n_max keep 1 - 1e-9 of the
    power, summed from the same J_n (NaN fails); `FmConfig` runs it at load.
    """
    if not (n_max >= 1):
        raise InvariantViolation("n_max must be >= 1")
    amps = _bessel_j(beta, n_max)
    closure = float(np.sum(amps ** 2))
    if not (closure >= 1 - BESSEL_CLOSURE_TOL):
        raise TruncationError(f"sideband truncation keeps {closure:.12f} of the power at "
                              f"n_max = {n_max}, beta = {beta}")
    return SidebandSet(orders=np.arange(-n_max, n_max + 1), amps=amps.astype(complex), omega_m=omega_m)


def propagate(sb: SidebandSet, spec: MediumSpectrum, carrier_detuning) -> SidebandSet:
    """Apply the medium response t exp(i phi) to each spectral component.

    `carrier_detuning` is a scalar or an array of carriers; the result has
    one row of amplitudes per carrier.  Order n reads the one-row spectrum at
    carrier_detuning + n * sb.omega_m by linear interpolation (exact on grid
    points); a sample of any carrier outside the grid raises OutOfGridError.
    """
    if sb.omega_m is None:
        raise InvariantViolation("omega_m needed: set it on the SidebandSet")
    if spec.amp_transmission.ndim != 1:
        raise InvariantViolation("propagate needs a spectrum of one row")
    detunings = np.add.outer(carrier_detuning, sb.orders * sb.omega_m)
    lo, hi = spec.grid[0], spec.grid[-1]
    if detunings.min() < lo or detunings.max() > hi:
        raise OutOfGridError(
            f"sideband detunings span [{detunings.min():.6g}, {detunings.max():.6g}] rad/s "
            f"but the spectrum covers [{lo:.6g}, {hi:.6g}]"
        )
    t = np.interp(detunings, spec.grid, spec.amp_transmission)
    phi = np.interp(detunings, spec.grid, spec.phase)
    return SidebandSet(orders=sb.orders, amps=sb.amps * t * np.exp(1j * phi), omega_m=sb.omega_m)


def demodulate(sb: SidebandSet, lo_phase: float) -> float | np.ndarray:
    """Lock-in output at omega_m for the given LO phase, per carrier row.

    The closed form 2 Re(exp(-i lo_phase) sum_n a_(n+1) conj(a_n)) of twice
    the one-period average of photocurrent * cos(omega_m t + lo_phase).
    """
    beat = np.sum(sb.amps[..., 1:] * np.conj(sb.amps[..., :-1]), axis=-1)
    out = 2.0 * (np.exp(-1j * lo_phase) * beat).real
    return float(out) if out.ndim == 0 else out


def dc_power(sb: SidebandSet) -> float | np.ndarray:
    """Period-averaged detected power sum_n |a_n|^2, per carrier row."""
    out = np.sum(np.abs(sb.amps) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


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
    j_n = float(_bessel_j(p.m_diff, n)[-1])
    return -p.e0_sq * math.sin(2 * p.alpha) * math.sin(2 * p.beta_angle) * j_n


def ram_mod_depth(p: RamParams) -> float:
    """Signed sin(omega_m t) coefficient of the residual-AM photocurrent."""
    return _ram_amplitude(p, 1) * math.sin(p.dphi_n + p.dphi_dc)


def apply_ram(sb: SidebandSet, p: RamParams) -> SidebandSet:
    """Inject residual AM of depth M = ram_mod_depth(p) into a pre-propagation set.

    The intensity AM 1 + M sin(omega_m t) is, to first order in M, the field AM
    of index M / 2: order n becomes a_n + (M / 4i) (a_(n-1) - a_(n+1)), with
    a = 0 beyond +-n_max.  A transparent medium demodulates to -M sin(lo_phase)
    at every beta.  At M = 0 (the RAM null) the set is returned unchanged.
    """
    if sb.orders.max() < 1:
        raise InvariantViolation("apply_ram needs n_max >= 1")
    depth = ram_mod_depth(p)
    if depth == 0.0:
        return SidebandSet(orders=sb.orders.copy(), amps=sb.amps.copy(), omega_m=sb.omega_m)
    kick = depth / 4j
    amps = sb.amps.copy()
    amps[..., 1:] += kick * sb.amps[..., :-1]
    amps[..., :-1] -= kick * sb.amps[..., 1:]
    return SidebandSet(orders=sb.orders.copy(), amps=amps, omega_m=sb.omega_m)


def index_from_dbm(dbm: float) -> float:
    """Modulation index from RF drive power using a linear volts-to-index map.

    The drive voltage amplitude is sqrt(2 P Z) with P = 10**(dbm/10) mW,
    Z = IMPEDANCE, and beta = pi V / V_PI; calibrate V_PI per device.
    """
    power_w = 1e-3 * 10 ** (dbm / 10)
    volts = math.sqrt(2 * power_w * IMPEDANCE)
    return math.pi * volts / V_PI
