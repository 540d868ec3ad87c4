"""Composite signal-chain evaluations used by the CLI and analysis layers."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .constants import HBAR
from .errors import InvariantViolation
from .fm import (
    FmConfig, RamParams, SidebandSet, apply_ram, dc_power, demodulate, propagate, sidebands,
)
from .quantum import FieldDrive, LadderSystem, susceptibility_batch
from .spectroscopy import AtResult, MediumSpectrum, at_splitting, scan_probe

MERGE_ULPS = 4  # sideband detunings this close (in ulps) are one medium sample


def drive_at_field(sys: LadderSystem, drive: FieldDrive, e_rf: float) -> FieldDrive:
    """Operating point with the RF Rabi frequency set by a field amplitude."""
    return replace(drive, omega_rf=sys.mu_rf * e_rf / HBAR)


def _sideband_grid(cfg: FmConfig, carriers) -> np.ndarray:
    """Sorted detunings carrier + n * omega_m over every carrier and |n| <= n_max.

    The only builder of FM medium samples.  Detunings within `MERGE_ULPS` ulps
    of the largest |detuning| are one sample; the ends are the exact extreme
    detunings, and one carrier gives carrier + arange(-n_max, n_max + 1) * omega_m.
    """
    d = np.sort(np.add.outer(carriers, np.arange(-cfg.n_max, cfg.n_max + 1) * cfg.omega_m),
                axis=None)
    last_of_run = np.append(np.diff(d) > MERGE_ULPS * np.spacing(max(-d[0], d[-1])), True)
    return np.unique(np.append(d[0], d[last_of_run]))


def _sideband_set(cfg: FmConfig, ram: RamParams | None) -> SidebandSet:
    sb = sidebands(cfg.beta, cfg.n_max, omega_m=cfg.omega_m)
    return sb if ram is None else apply_ram(sb, ram)


def sideband_spectrum(
    sys: LadderSystem,
    drive: FieldDrive,
    cfg: FmConfig,
    carrier_detuning: float,
) -> MediumSpectrum:
    """Medium response sampled exactly at the carrier and sideband detunings."""
    return scan_probe(sys, drive, _sideband_grid(cfg, carrier_detuning))


def fm_response(
    sys: LadderSystem,
    drive: FieldDrive,
    cfg: FmConfig,
    carrier_detuning: float,
    *,
    lo_phase: float | None = None,
    ram: RamParams | None = None,
) -> tuple[float, float]:
    """Demodulated FM signal and relative DC power at one carrier detuning."""
    spec = sideband_spectrum(sys, drive, cfg, carrier_detuning)
    prop = propagate(_sideband_set(cfg, ram), spec, carrier_detuning)
    return demodulate(prop, cfg.lo_phase if lo_phase is None else lo_phase), dc_power(prop)


def fm_probe_scan(
    sys: LadderSystem,
    drive: FieldDrive,
    cfg: FmConfig,
    carrier_grid: np.ndarray,
    *,
    ram: RamParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """In-phase and quadrature FM spectra over a carrier-detuning grid.

    The medium is solved once at every carrier + n * omega_m, so each
    sideband reads its own sample whatever the ratio of omega_m to the step.
    """
    carrier_grid = np.asarray(carrier_grid, dtype=float)
    spec = scan_probe(sys, drive, _sideband_grid(cfg, carrier_grid))
    prop = propagate(_sideband_set(cfg, ram), spec, carrier_grid)
    return demodulate(prop, 0.0), demodulate(prop, np.pi / 2)


def rf_detuning_scan(
    sys: LadderSystem,
    drive: FieldDrive,
    cfg: FmConfig,
    rf_grid: np.ndarray,
    *,
    lo_phase: float | None = None,
) -> np.ndarray:
    """Demodulated FM signal versus RF detuning at a fixed probe carrier.

    The sideband detunings of every RF detuning are solved in one batched
    call and demodulated as one row each.
    """
    grid = _sideband_grid(cfg, drive.delta_p)
    if grid.size != 2 * cfg.n_max + 1:
        raise InvariantViolation("omega_m is below the float resolution of the probe detuning")
    rf = np.asarray(rf_grid, dtype=float)
    chi = susceptibility_batch(sys, drive, grid[None, :], rf[:, None])
    spec = MediumSpectrum.from_chi(sys, grid, chi)
    sb = _sideband_set(cfg, None)
    prop = SidebandSet(sb.orders, sb.amps * spec.amp_transmission * np.exp(1j * spec.phase))
    return demodulate(prop, cfg.lo_phase if lo_phase is None else lo_phase)


def at_calibration(
    sys: LadderSystem,
    drive: FieldDrive,
    fields: np.ndarray,
    grid: np.ndarray,
) -> list[tuple[float, AtResult]]:
    """AT splitting extracted from a probe scan at each RF field amplitude."""
    results = []
    for e_rf in np.asarray(fields, dtype=float):
        spec = scan_probe(sys, drive_at_field(sys, drive, float(e_rf)), grid)
        results.append((float(e_rf), at_splitting(spec)))
    return results
