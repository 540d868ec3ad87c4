"""Composite signal-chain evaluations used by the CLI and analysis layers."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .constants import HBAR
from .fm import FmConfig, RamParams, SidebandSet, apply_ram, dc_power, demodulate, sidebands
from .quantum import FieldDrive, LadderSystem, susceptibility_batch
from .spectroscopy import AtResult, MediumSpectrum, at_splitting

MERGE_ULPS = 4  # sideband detunings this close (in ulps) are one medium sample
AT_BLOCK_POINTS = 2 ** 16  # most operating points one `at_calibration` batch holds


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


def sideband_spectrum(
    sys: LadderSystem, drive: FieldDrive, cfg: FmConfig, carrier_detuning, delta_rf=None
) -> MediumSpectrum:
    """Medium response sampled exactly at the sideband detunings of one or more carriers.

    The one FM medium sampler: one row at `drive.delta_rf`, or one per entry of `delta_rf`.
    """
    grid = _sideband_grid(cfg, carrier_detuning)
    rf = None if delta_rf is None else np.asarray(delta_rf, dtype=float)[..., None]
    return MediumSpectrum.from_chi(sys, grid, susceptibility_batch(sys, drive, grid, rf))


def _propagated(
    sys: LadderSystem, drive: FieldDrive, cfg: FmConfig, carriers, delta_rf=None, ram=None
) -> SidebandSet:
    """Sidebands (and RAM) of each carrier and RF row after one pass through the medium.

    Order n reads its sample of carrier + n * omega_m by lookup, exact because a merge
    keeps the last detuning of its run: the first sample at or above a detuning is its own.
    """
    spec = sideband_spectrum(sys, drive, cfg, carriers, delta_rf)
    sb = sidebands(cfg.beta, cfg.n_max, omega_m=cfg.omega_m)
    sb = sb if ram is None else apply_ram(sb, ram)
    idx = np.searchsorted(spec.grid, np.add.outer(carriers, sb.orders * cfg.omega_m))
    # amps * t * exp(1j * phi) in that order, with two complex arrays alive, not four;
    # np.take, unlike [..., idx], keeps rows contiguous: demodulate's sums round by layout
    rotation = 1j * np.take(spec.phase, idx, axis=-1)
    np.exp(rotation, out=rotation)
    amps = sb.amps * np.take(spec.amp_transmission, idx, axis=-1)
    amps *= rotation
    return SidebandSet(orders=sb.orders, amps=amps, omega_m=cfg.omega_m)


def fm_response(
    sys: LadderSystem, drive: FieldDrive, cfg: FmConfig, carrier_detuning: float
) -> tuple[float, float]:
    """Demodulated FM signal at `cfg.lo_phase` and relative DC power at one carrier."""
    prop = _propagated(sys, drive, cfg, carrier_detuning)
    return demodulate(prop, cfg.lo_phase), dc_power(prop)


def fm_probe_scan(
    sys: LadderSystem, drive: FieldDrive, cfg: FmConfig, carrier_grid: np.ndarray, *,
    ram: RamParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """In-phase and quadrature FM spectra over a carrier-detuning grid.

    The medium is solved once at every carrier + n * omega_m, so each
    sideband reads its own sample whatever the ratio of omega_m to the step.
    """
    prop = _propagated(sys, drive, cfg, np.asarray(carrier_grid, dtype=float), ram=ram)
    return demodulate(prop, 0.0), demodulate(prop, np.pi / 2)


def rf_detuning_scan(
    sys: LadderSystem, drive: FieldDrive, cfg: FmConfig, rf_grid: np.ndarray, *,
    lo_phase: float | None = None,
) -> np.ndarray:
    """Demodulated FM signal versus RF detuning at the probe carrier `drive.delta_p`.

    Every RF detuning's sidebands are solved in one batched call and demodulated
    as one row each; orders that merge into one medium sample share it.
    """
    prop = _propagated(sys, drive, cfg, drive.delta_p, delta_rf=rf_grid)
    return demodulate(prop, cfg.lo_phase if lo_phase is None else lo_phase)


def at_calibration(
    sys: LadderSystem,
    drive: FieldDrive,
    fields: np.ndarray,
    grid: np.ndarray,
) -> list[tuple[float, AtResult]]:
    """AT splitting of a probe scan at each RF field, solved in batches of whole fields."""
    fields, per_call = [float(e_rf) for e_rf in fields], max(1, AT_BLOCK_POINTS // max(1, len(grid)))
    results = []
    for i in range(0, len(fields), per_call):
        omega_rf = [[drive_at_field(sys, drive, e_rf).omega_rf] for e_rf in fields[i:i + per_call]]
        spec = MediumSpectrum.from_chi(sys, grid, susceptibility_batch(sys, drive, grid, omega_rf=omega_rf))
        results += [(e_rf, at_splitting(MediumSpectrum(spec.grid, *row)))
                    for e_rf, *row in zip(fields[i:], spec.chi, spec.amp_transmission, spec.phase)]
    return results
