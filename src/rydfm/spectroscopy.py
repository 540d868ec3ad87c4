"""Probe transmission spectra, AT-splitting extraction and field conversion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import H_PLANCK
from .errors import DomainError, InvariantViolation, require
from .quantum import FieldDrive, LadderSystem, susceptibility_batch


@dataclass
class MediumSpectrum:
    """Complex susceptibility and single-pass response on a detuning grid.

    `grid` holds probe detunings in rad/s, strictly increasing; the other
    arrays run over it along their last axis, with one row per spectrum
    when several share the grid.  `amp_transmission` is the field-amplitude
    transmission t(Delta); the power transmission is t**2.  `phase` is the
    single-pass phase shift in radians.
    """

    grid: np.ndarray
    chi: np.ndarray
    amp_transmission: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.chi = np.asarray(self.chi, dtype=complex)
        self.amp_transmission = np.asarray(self.amp_transmission, dtype=float)
        self.phase = np.asarray(self.phase, dtype=float)
        n = self.grid.size
        if n == 0:
            raise InvariantViolation("spectrum grid is empty")
        if not (self.chi.shape == self.amp_transmission.shape == self.phase.shape
                and self.chi.shape[-1:] == (n,)):
            raise InvariantViolation("spectrum arrays have unequal lengths")
        if not all(np.all(np.isfinite(a)) for a in (self.grid, self.chi, self.phase)):
            raise InvariantViolation("spectrum grid, chi and phase must be finite")
        if n > 1 and not np.all(np.diff(self.grid) > 0):
            raise InvariantViolation("spectrum grid must be strictly increasing")
        if not np.all((self.amp_transmission > 0) & (self.amp_transmission <= 1 + 1e-12)):
            raise InvariantViolation("amplitude transmission must satisfy 0 < t <= 1")

    @classmethod
    def from_chi(cls, sys: LadderSystem, grid: np.ndarray, chi: np.ndarray) -> MediumSpectrum:
        """Single-pass response of the cell to the susceptibility on `grid`.

        The field-amplitude transmission is exp(-k_p L Im chi / 2) and the
        phase shift is k_p L Re chi / 2 over the cell length L.
        """
        half_optical = 0.5 * sys.k_probe * sys.cell_length
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN t or phase fails a check
            return cls(grid=grid, chi=chi, amp_transmission=np.exp(-half_optical * chi.imag),
                       phase=half_optical * chi.real)

    @property
    def power_transmission(self) -> np.ndarray:
        return self.amp_transmission ** 2


@dataclass
class AtResult:
    """Autler-Townes splitting of one scan.

    `split_hz` is None when the two highest transmission maxima are closer
    than one single-peak FWHM (or fewer than two maxima exist).
    """

    split_hz: float | None
    peak_locations: tuple[float, float] | None  # rad/s detunings

    def __post_init__(self) -> None:
        require(self, nonnegative=("split_hz",))

    @property
    def confidence(self) -> str:
        """"resolved" when the scan carries a splitting, else "unresolved"."""
        return "unresolved" if self.split_hz is None else "resolved"


def scan_probe(sys: LadderSystem, drive: FieldDrive, grid: np.ndarray) -> MediumSpectrum:
    """Probe-detuning scan of the Doppler-averaged medium response.

    Every detuning on `grid` (rad/s) is solved in one batched call; the
    response follows `MediumSpectrum.from_chi`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvariantViolation("scan grid is empty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvariantViolation("scan grid must be strictly increasing")
    return MediumSpectrum.from_chi(sys, grid, susceptibility_batch(sys, drive, grid))


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Sub-step peak location from a 3-point parabola around index i."""
    if i == 0 or i == x.size - 1:
        return float(x[i])
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom == 0:
        return float(x[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    step = 0.5 * (x[i + 1] - x[i - 1])
    return float(x[i] + shift * step)


def _local_maxima(t: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of `t`, by the rules of scipy's find_peaks.

    A maximum is a run of equal samples whose neighbours on both sides are
    lower, so neither end of the array can hold one; a run longer than one
    sample is reported at its middle index, rounded down.
    """
    d = np.diff(t)
    steps = np.flatnonzero(d)
    rising = d[steps] > 0
    peak = rising[:-1] & ~rising[1:]
    return (steps[:-1][peak] + 1 + steps[1:][peak]) // 2


def _prominence(t: np.ndarray, p: int) -> float:
    """Prominence of the maximum at `p`.

    On each side take the lowest sample between `p` and the nearest
    strictly higher sample (or the array end); the prominence is t[p] less
    the higher of the two.
    """
    higher = np.flatnonzero(t > t[p])
    k = np.searchsorted(higher, p)
    lo = higher[k - 1] + 1 if k > 0 else 0
    hi = higher[k] if k < higher.size else t.size
    return t[p] - max(t[lo:p + 1].min(), t[p:hi].min())


def _half_width(t: np.ndarray, p: int, prominence: float) -> float:
    """Width in samples at half prominence, between linearly interpolated crossings.

    Each crossing lies between `p` and that side's lowest sample, which is
    at or below the half-prominence level.
    """
    height = t[p] - prominence * 0.5
    i = np.flatnonzero(t[:p + 1] <= height)[-1]
    left = i + (height - t[i]) / (t[i + 1] - t[i]) if t[i] < height else float(i)
    i = p + np.flatnonzero(t[p:] <= height)[0]
    right = i - (height - t[i]) / (t[i - 1] - t[i]) if t[i] < height else float(i)
    return right - left


def _doublet_peaks(t: np.ndarray, min_prominence: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The two highest maxima of `t` with prominence >= `min_prominence`.

    Returns their indices in ascending order and their widths in samples at
    half prominence, or None when fewer than two such maxima exist.  Equal
    heights go to the higher index.  Only the maxima down to the second
    accepted one have their prominence evaluated.
    """
    maxima = _local_maxima(t)
    found = []
    for p in maxima[np.argsort(t[maxima], kind="stable")[::-1]].tolist():
        prominence = _prominence(t, p)
        if prominence >= min_prominence:
            found.append((p, prominence))
            if len(found) == 2:
                found.sort()
                return np.array([p for p, _ in found]), np.array([_half_width(t, *f) for f in found])
    return None


def at_splitting(spec: MediumSpectrum) -> AtResult:
    """Detect the AT doublet in a transmission spectrum.

    The two highest local transmission maxima are refined by 3-point
    parabolic interpolation.  The result is unresolved when fewer than two
    maxima exist or their separation is below one FWHM of a single peak.
    """
    t = spec.amp_transmission
    if t.ndim != 1:
        raise InvariantViolation("AT splitting needs a single spectrum row")
    span = float(t.max() - t.min())
    if span <= 0:
        return AtResult(None, None)
    doublet = _doublet_peaks(t, 1e-6 * span)
    if doublet is None:
        return AtResult(None, None)
    chosen, widths_samples = doublet
    step = float(np.median(np.diff(spec.grid)))
    fwhm = float(widths_samples.max() * step)
    locations = tuple(sorted(_parabolic_refine(spec.grid, t, i) for i in chosen))
    separation = locations[1] - locations[0]
    if separation <= fwhm:
        return AtResult(None, None)
    return AtResult(separation / (2 * np.pi), locations)


def field_from_splitting(split_hz: float, mu_rf: float) -> float:
    """RF field amplitude (V/m) from an AT splitting via E = h * split / mu."""
    if not (0 < mu_rf < math.inf):
        raise DomainError(f"mu_rf must be positive and finite, got {mu_rf!r}")
    if not (0 <= split_hz < math.inf):
        raise InvariantViolation(f"split_hz must be >= 0 and finite, got {split_hz!r}")
    return H_PLANCK * split_hz / mu_rf


def splitting_from_field(e_field: float, mu_rf: float) -> float:
    """AT splitting (Hz) produced by an RF field, split = mu * E / h."""
    if not (0 < mu_rf < math.inf):
        raise DomainError(f"mu_rf must be positive and finite, got {mu_rf!r}")
    if not (0 <= e_field < math.inf):
        raise InvariantViolation(f"e_field must be >= 0 and finite, got {e_field!r}")
    return mu_rf * e_field / H_PLANCK


def spectrum_rows(spec: MediumSpectrum) -> np.ndarray:
    """Rows (detuning_hz, re_chi, im_chi, power_transmission, phase_rad)."""
    return np.column_stack([
        spec.grid / (2 * np.pi),
        spec.chi.real,
        spec.chi.imag,
        spec.power_transmission,
        spec.phase,
    ])
