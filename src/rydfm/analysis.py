"""Allan deviation, noise classification, Lorentzian matched filtering and
fitting, and sensitivity-limit estimation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, E_CHARGE, H_PLANCK
from .errors import (
    DomainError,
    InsufficientDataError,
    InvariantViolation,
    KernelTooNarrowError,
    NonConvergenceError,
    ZeroResponsivityError,
)
from .fm import FmConfig
from .noise import TimeSeries
from .quantum import FieldDrive, LadderSystem
from . import pipelines

# log-log Allan slopes of the canonical noise processes
SLOPE_LABELS = {
    -1.0: "white_pm_or_flicker_pm",
    -0.5: "white_fm",
    0.5: "rw_fm",
    1.0: "drift",
}
SLOPE_AMBIGUITY = 0.15


@dataclass
class AllanResult:
    """Allan deviation per sampling time."""

    taus: np.ndarray
    sigma_y: np.ndarray
    counts: np.ndarray
    estimator: str

    def __post_init__(self) -> None:
        self.taus = np.asarray(self.taus, dtype=float)
        self.sigma_y = np.asarray(self.sigma_y, dtype=float)
        self.counts = np.asarray(self.counts, dtype=int)
        if not (self.taus.size == self.sigma_y.size == self.counts.size):
            raise InvariantViolation("Allan result arrays have unequal lengths")
        if self.taus.size > 1 and not np.all(np.diff(self.taus) > 0):
            raise InvariantViolation("taus must be strictly increasing")
        if np.any(self.sigma_y < 0):
            raise InvariantViolation("sigma_y must be >= 0")
        if np.any(self.counts < 2):
            raise InvariantViolation("each tau needs at least 2 differences")
        if self.estimator not in ("nonoverlapping", "overlapping"):
            raise InvariantViolation("estimator must be nonoverlapping or overlapping")


@dataclass
class LorentzParams:
    """Lorentzian A * sigma / ((nu - nu_c)^2 + sigma^2) with sigma the HWHM.

    The half-width parameterization follows the kernel algebra; reported
    full widths are 2 * sigma (see `fwhm`).
    """

    amplitude: float
    sigma: float
    nu_c: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise InvariantViolation("sigma must be > 0")

    @property
    def fwhm(self) -> float:
        return 2 * self.sigma

    def evaluate(self, nu: np.ndarray) -> np.ndarray:
        nu = np.asarray(nu, dtype=float)
        return self.amplitude * self.sigma / ((nu - self.nu_c) ** 2 + self.sigma ** 2)


@dataclass
class OctaveLabel:
    """Noise classification of one tau interval."""

    tau_lo: float
    tau_hi: float
    slope: float
    label: str
    ambiguous: bool


@dataclass
class FilteredScan:
    """Matched-filter output with its fully-overlapped valid region."""

    freqs: np.ndarray
    values: np.ndarray
    valid: slice


@dataclass
class DetectorModel:
    """Photodetection parameters of the sensitivity pipeline.

    `signal_fraction` is the part of the detected power that interacts
    with the coupling beam; the default is the (0.16 mm / 1.5 mm)^2
    probe/coupling beam area ratio.
    """

    eta: float = 0.8
    power_w: float = 65e-6
    signal_fraction: float = 0.011
    n_participating: float = 1e5

    def __post_init__(self) -> None:
        if not 0 < self.eta <= 1:
            raise InvariantViolation("eta must lie in (0, 1]")
        if self.power_w <= 0 or not 0 < self.signal_fraction <= 1:
            raise InvariantViolation("power must be > 0 and signal_fraction in (0, 1]")
        if self.n_participating <= 0:
            raise InvariantViolation("n_participating must be > 0")

    def responsivity_a_per_w(self, wavelength: float) -> float:
        """Detector responsivity eta e / (h nu)."""
        return self.eta * E_CHARGE * wavelength / (H_PLANCK * C_LIGHT)


@dataclass
class SensitivityReport:
    responsivity: float       # signal amps per (V/m)
    noise_floor: float        # amps per sqrt(Hz)
    e_min: float              # V/m per sqrt(Hz)
    projection_limit_value: float  # V/m per sqrt(Hz)

    def __post_init__(self) -> None:
        for name in ("responsivity", "noise_floor", "e_min", "projection_limit_value"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"{name} must be >= 0")


def allan_deviation(ts: TimeSeries, taus, estimator: str = "nonoverlapping") -> AllanResult:
    """Two-sample deviation of successive tau averages.

    The non-overlapping estimator is the plain definition
    sigma_y^2(tau) = <(y_{i+1} - y_i)^2> / 2 over adjacent block means;
    the overlapping variant strides the blocks by one sample.
    """
    if estimator not in ("nonoverlapping", "overlapping"):
        raise InvariantViolation("estimator must be nonoverlapping or overlapping")
    values = ts.values
    n = values.size
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sigma = np.empty(taus.size)
    counts = np.empty(taus.size, dtype=int)
    if estimator == "overlapping":
        cumulative = np.concatenate([[0.0], np.cumsum(values)])
    for i, tau in enumerate(taus):
        m_float = tau / ts.dt
        m = int(round(m_float))
        if m < 1 or abs(m_float - m) > 1e-9 * max(m, 1):
            raise InvariantViolation(f"tau = {tau} is not an integer multiple of dt = {ts.dt}")
        bins = n // m
        if bins < 3:
            raise InsufficientDataError(
                f"tau = {tau} leaves {bins} averaging bins; at least 3 required"
            )
        if estimator == "nonoverlapping":
            # per-block mean (not a cumsum difference) so identical blocks
            # give bit-identical means and e.g. a constant series yields
            # exactly zero
            means = values[: bins * m].reshape(bins, m).mean(axis=1)
            diffs = np.diff(means)
        else:
            means = (cumulative[m:] - cumulative[:-m]) / m
            diffs = means[m:] - means[:-m]
        sigma[i] = math.sqrt(float(np.mean(diffs ** 2)) / 2.0)
        counts[i] = diffs.size
    return AllanResult(taus=taus, sigma_y=sigma, counts=counts, estimator=estimator)


def octave_taus(ts: TimeSeries, max_fraction: int = 8) -> np.ndarray:
    """Octave-spaced taus dt * 2^k usable with at least 3 bins."""
    taus = []
    m = 1
    while m <= ts.values.size // max(3, max_fraction):
        taus.append(m * ts.dt)
        m *= 2
    return np.asarray(taus)


def classify_noise(result: AllanResult) -> list[OctaveLabel]:
    """Label each tau octave by its log-log Allan slope.

    Slopes within +-0.15 of a canonical value get that process label;
    anything else is reported as ambiguous with the nearest label.  A
    degenerate (zero sigma) interval is labeled "none".
    """
    if result.taus.size < 4:
        raise InvariantViolation("classification needs at least 4 tau points")
    labels: list[OctaveLabel] = []
    for i in range(result.taus.size - 1):
        t0, t1 = result.taus[i], result.taus[i + 1]
        s0, s1 = result.sigma_y[i], result.sigma_y[i + 1]
        if s0 <= 0 or s1 <= 0:
            labels.append(OctaveLabel(t0, t1, 0.0, "none", False))
            continue
        slope = math.log(s1 / s0) / math.log(t1 / t0)
        canonical = min(SLOPE_LABELS, key=lambda c: abs(slope - c))
        ambiguous = abs(slope - canonical) > SLOPE_AMBIGUITY
        label = "ambiguous" if ambiguous else SLOPE_LABELS[canonical]
        labels.append(OctaveLabel(t0, t1, slope, label, ambiguous))
    return labels


def lorentzian_kernel(hwhm: float, step: float, max_len: int | None = None) -> np.ndarray:
    """Unit-energy Lorentzian kernel sampled on the scan step.

    Support is +-8 HWHM (99.9% of the kernel energy), re-normalized after
    truncation.
    """
    half = int(math.ceil(8 * hwhm / step))
    if max_len is not None:
        half = min(half, (max_len - 1) // 2)
    offsets = np.arange(-half, half + 1) * step
    kernel = hwhm / (offsets ** 2 + hwhm ** 2)
    return kernel / np.linalg.norm(kernel)


def matched_filter(freqs: np.ndarray, values: np.ndarray, kernel: LorentzParams) -> FilteredScan:
    """Convolve a scan with the unit-energy Lorentzian of the kernel width.

    The kernel is centered (its nu_c is irrelevant to a convolution);
    output edges are zero-padded and `valid` marks the fully-overlapped
    region.  A kernel narrower than two grid steps raises
    KernelTooNarrowError.
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if freqs.size != values.size or freqs.size < 3:
        raise InvariantViolation("scan needs matching freq/value arrays of length >= 3")
    steps = np.diff(freqs)
    step = float(steps[0])
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * step:
        raise InvariantViolation("matched filter requires a uniform increasing grid")
    if kernel.sigma < 2 * step:
        raise KernelTooNarrowError(
            f"kernel HWHM {kernel.sigma:g} Hz is below two grid steps ({2 * step:g} Hz)"
        )
    k = lorentzian_kernel(kernel.sigma, step, max_len=values.size)
    filtered = np.convolve(values, k, mode="same")
    half = k.size // 2
    valid = slice(half, values.size - half) if values.size > 2 * half else slice(0, 0)
    return FilteredScan(freqs=freqs, values=filtered, valid=valid)


def _lorentz_model(nu, amplitude, sigma, nu_c, offset):
    return amplitude * sigma / ((nu - nu_c) ** 2 + sigma ** 2) + offset


def lorentzian_fit(freqs: np.ndarray, values: np.ndarray) -> tuple[LorentzParams, float]:
    """Least-squares Lorentzian fit; returns parameters and rms residual."""
    from scipy.optimize import curve_fit  # ~0.7 s to import, so only when fitting

    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if freqs.size < 10:
        raise InvariantViolation("fit needs at least 10 points")
    offset0 = float(np.median(values))
    centered = values - offset0
    peak_idx = int(np.argmax(np.abs(centered)))
    height = centered[peak_idx]
    span = float(freqs[-1] - freqs[0])
    above = np.abs(centered) > abs(height) / 2
    sigma0 = max(0.5 * span * np.count_nonzero(above) / freqs.size, span / freqs.size)
    p0 = [height * sigma0, sigma0, float(freqs[peak_idx]), offset0]
    try:
        popt, _ = curve_fit(
            _lorentz_model,
            freqs,
            values,
            p0=p0,
            bounds=([-np.inf, span * 1e-6, freqs[0] - span, -np.inf],
                    [np.inf, 10 * span, freqs[-1] + span, np.inf]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise NonConvergenceError(f"Lorentzian fit did not converge: {exc}") from exc
    params = LorentzParams(amplitude=float(popt[0]), sigma=float(popt[1]), nu_c=float(popt[2]))
    residual = float(np.sqrt(np.mean((_lorentz_model(freqs, *popt) - values) ** 2)))
    return params, residual


def projection_limit(mu_rf: float, n_atoms: float, t2: float) -> float:
    """Atomic projection-noise field limit h / (mu sqrt(N T2)), V/m/sqrt(Hz)."""
    if mu_rf <= 0 or n_atoms <= 0 or t2 <= 0:
        raise DomainError("mu_rf, n_atoms and t2 must all be > 0")
    return H_PLANCK / (mu_rf * math.sqrt(n_atoms * t2))


def sensitivity_estimate(
    sys: LadderSystem,
    drive: FieldDrive,
    fm_cfg: FmConfig,
    detector: DetectorModel,
    e_operating: float,
    noise_floor: float | None = None,
) -> SensitivityReport:
    """Minimum detectable field from responsivity and the noise floor.

    The responsivity is the numerical derivative of the demodulated signal
    photocurrent with respect to the RF field at the operating point,
    obtained by a central difference with step halving until 1%
    convergence.  A difference at the rounding level of the DC signal at
    the operating point raises ZeroResponsivityError, and no convergence in
    12 halvings raises NonConvergenceError.  The noise floor defaults to the
    shot-noise current density of the detected DC power; e_min =
    noise_floor / responsivity.
    """
    if e_operating <= 0:
        raise InvariantViolation("e_operating must be > 0")
    if noise_floor is not None and noise_floor < 0:
        raise InvariantViolation("noise_floor must be >= 0")
    responsivity_pd = detector.responsivity_a_per_w(sys.lambda_probe)
    signal_power = detector.power_w * detector.signal_fraction

    def signal_current(e_rf: float) -> tuple[float, float]:
        rel, dc_rel = pipelines.fm_response(
            sys,
            pipelines.drive_at_field(sys, drive, e_rf),
            fm_cfg,
            carrier_detuning=drive.delta_p,
        )
        return responsivity_pd * signal_power * rel, dc_rel

    _, dc_rel = signal_current(e_operating)
    # a few ulps of the DC signal: below this a difference is rounding noise
    rounding = 8 * np.finfo(float).eps * responsivity_pd * signal_power * dc_rel
    step = e_operating / 4
    previous = None
    for _ in range(12):
        hi, _ = signal_current(e_operating + step)
        lo, _ = signal_current(e_operating - step)
        if not (abs(hi - lo) > rounding):
            raise ZeroResponsivityError(
                f"signal derivative vanished at E = {e_operating:g} V/m: the difference "
                f"{hi - lo:.3g} A is at the rounding level of the DC signal"
            )
        derivative = (hi - lo) / (2 * step)
        if previous is not None and abs(derivative - previous) <= 0.01 * abs(derivative):
            break
        previous = derivative
        step /= 2
    else:
        raise NonConvergenceError(
            f"signal derivative did not converge to 1% in 12 step halvings at E = {e_operating:g} V/m"
        )
    responsivity = abs(derivative)

    if noise_floor is None:
        dc_current = responsivity_pd * detector.power_w * dc_rel
        noise_floor = math.sqrt(2 * E_CHARGE * dc_current)

    e_min = noise_floor / responsivity
    limit = projection_limit(sys.mu_rf, detector.n_participating, 1.0 / sys.gamma_deph)
    return SensitivityReport(
        responsivity=responsivity,
        noise_floor=noise_floor,
        e_min=e_min,
        projection_limit_value=limit,
    )
