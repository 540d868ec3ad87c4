"""Composite signal-chain evaluations used by the CLI and analysis layers."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .constants import HBAR
from .fm import (
    FmConfig, RamParams, SidebandSet, apply_ram, dc_power, demodulate, propagate, sidebands,
)
from .quantum import CHUNK, FieldDrive, LadderSystem, susceptibility_batch
from .spectroscopy import AtResult, MediumSpectrum, at_splitting, scan_probe


def drive_at_field(sys: LadderSystem, drive: FieldDrive, e_rf: float) -> FieldDrive:
    """Operating point with the RF Rabi frequency set by a field amplitude."""
    return replace(drive, omega_rf=sys.mu_rf * e_rf / HBAR)


def _sideband_grid(cfg: FmConfig, carrier_detuning: float) -> np.ndarray:
    """Probe detunings of the carrier and its +-n_max sidebands."""
    return carrier_detuning + np.arange(-cfg.n_max, cfg.n_max + 1) * cfg.omega_m


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
    grid = _sideband_grid(cfg, carrier_detuning)
    return MediumSpectrum.from_chi(sys, grid, susceptibility_batch(sys, drive, grid))


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

    The medium is evaluated once on the carrier grid extended by
    n_max * omega_m on both sides with the same step; sidebands then sample
    it by linear interpolation.  Carriers are propagated and demodulated in
    blocks of `CHUNK`, which bounds the memory of the amplitude stacks.
    """
    carrier_grid = np.asarray(carrier_grid, dtype=float)
    # a single carrier has no grid step: sample the medium at the sideband spacing
    step = float(np.median(np.diff(carrier_grid))) if carrier_grid.size > 1 else cfg.omega_m
    pad = int(np.ceil(cfg.n_max * cfg.omega_m / step)) + 1
    extended = np.concatenate([
        carrier_grid[0] + step * np.arange(-pad, 0),
        carrier_grid,
        carrier_grid[-1] + step * np.arange(1, pad + 1),
    ])
    spec = scan_probe(sys, drive, extended)
    sb = _sideband_set(cfg, ram)
    inphase = np.empty(carrier_grid.size)
    quadrature = np.empty(carrier_grid.size)
    for start in range(0, carrier_grid.size, CHUNK):
        block = slice(start, start + CHUNK)
        prop = propagate(sb, spec, carrier_grid[block])
        inphase[block] = demodulate(prop, 0.0)
        quadrature[block] = demodulate(prop, np.pi / 2)
    return inphase, quadrature


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
    call, and each row of the medium response is applied to its own copy of
    the sidebands, so all rows are demodulated at once.
    """
    grid = _sideband_grid(cfg, drive.delta_p)
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
