"""Scenario-driven batch front end.

Usage: rydfm <subcommand> --config <path> [--seed N] [--out DIR]

Subcommands: scan, fmscan, atcal, servo, noise, allan, matched,
sensitivity.  Every output is CSV (or key-value text) with '#' header
lines carrying the config hash and seed, in the --out directory (default
out); numeric bodies are byte-identical across reruns of one configuration.

Each subcommand's runner `run_<name>(scn, seed)` only computes: it returns
its header fields and its outputs by file name.  `run` writes them, then
the manifest, so a failed run writes no file.

Exit codes: 0 success, 2 configuration error (a parse error or a broken
invariant, and every scenario that fails to load), 3 numeric failure of a
run (any other package error, an arithmetic overflow or a failed linear
solve), 4 I/O.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import platform
import sys
import tempfile
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, noise, pipelines, servo, spectroscopy
from .errors import InvariantViolation, ParseError, RydfmError
from .scenario import Scenario, load_scenario

SUBCOMMANDS = ("scan", "fmscan", "atcal", "servo", "noise", "allan", "matched", "sensitivity")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


_FLOAT_FORMAT = "%.12e"  # `_FLOAT_FORMAT % x` gives the bytes of f"{x:.12e}"
_PADDED_FORMAT = "%-23.12e"  # the same, then spaces up to 23 bytes
CSV_BLOCK_ROWS = 4096  # CSV body rows formatted and written at once

# The numpy CSV formatter.  It writes |x| as a 13-digit integer mantissa m =
# rint(|x| * 10^(12 - e)) with e = floor(log10|x|).  10^k is read from a
# table of correctly rounded powers and the product is rounded once, so the
# scaled value is within (2u + u^2) of the exact |x| * 10^(12 - e) relatively
# (u = 2^-53), i.e. off by less than 2.3e-3 of a unit in the 13th digit
# while it lies below 1e13.  A scaled value farther than _TIE_MARGIN from a
# .5 tie therefore rounds as the exact decimal value of x does.  Zeros are
# written as m = 0, e = 0.  Values closer to a tie, outside [_SURE_MIN,
# _SURE_MAX] (non-finite, subnormal, or with 10^(12 - e) out of the table)
# or whose exponent estimate is off are formatted by `_FLOAT_FORMAT` instead.
_TIE_MARGIN = 1e-2
_SURE_MIN, _SURE_MAX = 1e-290, 1e290
_POW10_MIN = -280
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 305)])


def _byte_table(rows: Iterable[bytes], dtype) -> np.ndarray:
    """Equal-length byte strings as one `dtype` word each, in memory order."""
    return np.frombuffer(b"".join(rows), dtype=dtype)


# A value's 24-byte record: separator, sign, lead digit and '.' (one
# uint32), three uint32 groups of 4 digits, then 'e', the exponent sign, the
# exponent's 2 or 3 digits and a newline slot (one uint64).  0 bytes are
# padding, dropped when the block is written.
_LEAD = _byte_table((bytes([0, sign, ord("0") + d, ord(".")]) for sign in (0, ord("-"))
                     for d in range(10)), np.uint32)
_PAIRS = _byte_table((b"%02d" % i for i in range(100)), np.uint16)
_DIGITS4 = np.empty((100, 100, 2), dtype=np.uint16)  # from pairs: a 10000 x 4 build costs 1 MB RSS
_DIGITS4[..., 0], _DIGITS4[..., 1] = _PAIRS[:, None], _PAIRS
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()  # "0000" ... "9999"
_EXP_MIN = -300
_EXPONENT = _byte_table(((b"e%+03d" % k).ljust(8, b"\0") for k in range(_EXP_MIN, 301)),
                        np.uint64)


def _fmt(value: float) -> str:
    return _FLOAT_FORMAT % value


def _atomic_write(path: Path, lines: list[str], blocks: Iterable[bytes] = ()) -> None:
    """Write `lines`, then the byte `blocks`, to a temp file renamed over `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(("\n".join(lines) + "\n").encode("utf-8"))
            handle.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_blocks(table: np.ndarray) -> Iterator[bytes]:
    """CSV lines of a 2-D float table, CSV_BLOCK_ROWS rows per byte string."""
    n_rows, n_cols = table.shape
    if not n_cols:
        yield b"\n" * n_rows
        return
    for start in range(0, n_rows, CSV_BLOCK_ROWS):  # a call per block frees its arrays
        yield _csv_block(table[start:start + CSV_BLOCK_ROWS])


def _csv_block(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D float table of at least one column.

    Each value is written as f"{x:.12e}" would write it: by the numpy fast
    path when it is sure of every digit, else by one batched `%`.
    """
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    sure = (a >= _SURE_MIN) & (a <= _SURE_MAX)  # False for NaN
    a = np.where(sure, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[12 - e - _POW10_MIN]
    # y outside [1e12, 1e13) means e was off
    sure &= (y >= 1e12) & (y < 1e13) & (np.abs(y - np.floor(y) - 0.5) >= _TIE_MARGIN)
    # m = 0 for zeros (e = 0, as a = 1.0) and for unsure values (overwritten below)
    m = np.rint(np.where(sure, y, 0.0)).astype(np.int64)
    sure |= zero
    carry = m == 10**13  # 9.9999999999995e12 <= y < 1e13 rounds up a decade
    m[carry] = 10**12
    e += carry

    records = np.empty((x.size, 6), dtype=np.uint32)
    lead = m // 10**12
    records[:, 0] = _LEAD[np.signbit(x) * 10 + lead]
    m -= lead * 10**12
    high = m // 10**8
    m -= high * 10**8
    middle = m // 10**4
    records[:, 1] = _DIGITS4[high]
    records[:, 2] = _DIGITS4[middle]
    records[:, 3] = _DIGITS4[m - middle * 10**4]
    records[:, 4:].view(np.uint64)[:, 0] = _EXPONENT[e - _EXP_MIN]
    text = records.view(np.uint8)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        # one `%` for all of them, each left-justified in the 23 bytes after
        # the separator (a bytes object per value raised peak RSS in some runs)
        exact = (_PADDED_FORMAT * unsure.size) % tuple(x[unsure].tolist())
        exact = exact.encode().replace(b" ", b"\0")
        text[unsure, 1:] = np.frombuffer(exact, np.uint8).reshape(-1, 23)
    text = text.reshape(*block.shape, 24)
    text[:, 1:, 0] = ord(",")
    text[:, -1, 23] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _header_lines(header: dict) -> list[str]:
    return [f"# {key} = {value}" for key, value in header.items()]


def write_csv(path: Path, header: dict, columns: list[str], rows: np.ndarray) -> None:
    table = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = _header_lines(header) + ["# columns: " + ",".join(columns)]
    _atomic_write(path, lines, _csv_blocks(table))


# --- subcommand implementations ----------------------------------------------
# A runner computes and writes nothing.  It returns the header fields it adds
# to config_hash and seed, and its outputs by file name: a CSV table
# (columns, rows) or the lines of a key-value text file.

def run_scan(scn: Scenario, seed: int) -> tuple[dict, dict]:
    spec = spectroscopy.scan_probe(scn.system, scn.drive, scn.scan.probe_grid_rad_s())
    columns = ["detuning_hz", "re_chi", "im_chi", "power_transmission", "phase_rad"]
    return {}, {"spectrum.csv": (columns, spectroscopy.spectrum_rows(spec))}


def run_fmscan(scn: Scenario, seed: int) -> tuple[dict, dict]:
    grid = scn.scan.probe_grid_rad_s()
    ram = scn.ram if scn.apply_ram else None
    inphase, quadrature = pipelines.fm_probe_scan(scn.system, scn.drive, scn.fm, grid, ram=ram)
    rows = np.column_stack([grid / (2 * math.pi), inphase, quadrature])
    return {}, {"fm_spectrum.csv": (["detuning_hz", "signal_inphase", "signal_quadrature"], rows)}


def run_atcal(scn: Scenario, seed: int) -> tuple[dict, dict]:
    fields = scn.scan.field_grid()
    grid = scn.scan.probe_grid_rad_s()
    results = pipelines.at_calibration(scn.system, scn.drive, fields, grid)
    rows = []
    for e_rf, at in results:
        split_linear = spectroscopy.splitting_from_field(e_rf, scn.system.mu_rf)
        split_sim = at.split_hz if at.split_hz is not None else float("nan")
        rows.append([e_rf, split_sim, split_linear, 1.0 if at.confidence == "resolved" else 0.0])
    columns = ["e_rf_v_per_m", "split_sim_hz", "split_linear_hz", "resolved"]
    return {}, {"at_calibration.csv": (columns, np.asarray(rows))}


def _drift_from_opts(opts, seed: int):
    if opts.drift_model == "constant":
        return servo.constant_drift(opts.drift_value)
    if opts.drift_model == "ramp":
        return servo.ramp_drift(opts.drift_rate, opts.drift_value)
    if opts.drift_model == "sinusoid":
        return servo.sinusoid_drift(opts.drift_amp, opts.drift_freq_hz)
    return servo.random_walk_drift(opts.drift_step_std, seed)


def _allan_table(result: analysis.AllanResult) -> tuple[list[str], np.ndarray]:
    rows = np.column_stack([result.taus, result.sigma_y, result.counts])
    return ["tau_s", "sigma_y", "n_bins"], rows


def run_servo(scn: Scenario, seed: int) -> tuple[dict, dict]:
    drift = _drift_from_opts(scn.servo, seed)
    columns = ["time_s", "dphi_n_rad", "dphi_dc_rad", "error"]
    traces, allans = {}, {}
    for label, lock in (("locked", True), ("unlocked", False)):
        trace = servo.run_servo(drift, scn.gains, scn.servo.duration_s, ram=scn.ram, lock=lock)
        ts = noise.TimeSeries(dt=scn.gains.dt, values=trace.error, seed=seed, kind="composite")
        rows = np.column_stack([trace.time, trace.dphi_n, trace.dphi_dc, trace.error])
        traces[f"servo_trace_{label}.csv"] = (columns, rows)
        allan = analysis.allan_deviation(ts, analysis.octave_taus(ts))
        allans[f"servo_allan_{label}.csv"] = _allan_table(allan)
    return {}, traces | allans


def _make_series(scn: Scenario, seed: int) -> noise.TimeSeries:
    opts = scn.noise
    if opts.kind == "shot":
        return noise.shot_noise_series(opts.shot_current_a, opts.dt, opts.n_samples, seed)
    if opts.kind == "composite":
        return noise.gen_composite(opts.budget, opts.n_samples, opts.dt, seed)
    return noise.gen_powerlaw(opts.kind, opts.coefficient, opts.n_samples, opts.dt, seed)


def run_noise(scn: Scenario, seed: int) -> tuple[dict, dict]:
    series = _make_series(scn, seed)
    rows = np.column_stack([series.time, series.values])
    return {"kind": series.kind, "dt_s": series.dt}, {"timeseries.csv": (["time_s", "value"], rows)}


def run_allan(scn: Scenario, seed: int) -> tuple[dict, dict]:
    series = _make_series(scn, seed)
    taus = analysis.octave_taus(series)
    result = analysis.allan_deviation(series, taus)
    labels = analysis.classify_noise(result)
    lines = ["# columns: tau_lo_s,tau_hi_s,slope,label,ambiguous"]
    for lab in labels:
        lines.append(
            f"{_fmt(lab.tau_lo)},{_fmt(lab.tau_hi)},{_fmt(lab.slope)},{lab.label},{int(lab.ambiguous)}"
        )
    outputs = {"allan.csv": _allan_table(result), "allan_classification.csv": lines}
    return {"kind": series.kind, "estimator": "nonoverlapping"}, outputs


def run_matched(scn: Scenario, seed: int) -> tuple[dict, dict]:
    grid_hz = scn.scan.detuning_grid_hz()
    drive = pipelines.drive_at_field(scn.system, scn.drive, scn.scan.e_operating)
    signal = pipelines.rf_detuning_scan(scn.system, drive, scn.fm, 2 * math.pi * grid_hz)
    if scn.scan.line_noise_rms > 0:
        rng = np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, scn.scan.line_noise_rms, signal.size)
    kernel = analysis.LorentzParams(amplitude=1.0, sigma=scn.scan.kernel_hwhm_hz, nu_c=0.0)
    filtered = analysis.matched_filter(grid_hz, signal, kernel)
    in_valid = np.zeros(grid_hz.size)
    in_valid[filtered.valid] = 1.0
    rows = np.column_stack([grid_hz, signal, filtered.values, in_valid])
    return {}, {"matched.csv": (["freq_hz", "raw", "filtered", "in_valid_region"], rows)}


def run_sensitivity(scn: Scenario, seed: int) -> tuple[dict, dict]:
    report = analysis.sensitivity_estimate(
        scn.system, scn.drive, scn.fm, scn.detector, scn.scan.e_operating
    )
    lines = [
        f"responsivity_a_per_v_m = {_fmt(report.responsivity)}",
        f"noise_floor_a_per_sqrt_hz = {_fmt(report.noise_floor)}",
        f"e_min_v_per_m_sqrt_hz = {_fmt(report.e_min)}",
        f"e_min_uv_per_cm_sqrt_hz = {_fmt(report.e_min * 1e4)}",
        f"projection_limit_v_per_m_sqrt_hz = {_fmt(report.projection_limit_value)}",
        f"e_operating_v_per_m = {_fmt(scn.scan.e_operating)}",
    ]
    return {}, {"sensitivity.txt": lines}


_RUNNERS = {
    "scan": run_scan,
    "fmscan": run_fmscan,
    "atcal": run_atcal,
    "servo": run_servo,
    "noise": run_noise,
    "allan": run_allan,
    "matched": run_matched,
    "sensitivity": run_sensitivity,
}


def run(subcommand: str, scn: Scenario, seed: int, outdir: Path) -> None:
    """Execute one subcommand; once it has succeeded, write its outputs and manifest."""
    started = datetime.now(timezone.utc).isoformat()
    fields, outputs = _RUNNERS[subcommand](scn, seed)
    header = {"config_hash": scn.config_hash(), "seed": seed} | fields
    for name, output in outputs.items():
        if isinstance(output, tuple):
            write_csv(outdir / name, header, *output)
        else:
            _atomic_write(outdir / name, _header_lines(header) + output)
    versions = {"rydfm": __version__, "numpy": np.__version__, "python": platform.python_version()}
    lines = [
        f"config_hash = {header['config_hash']}",
        f"seed = {seed}",
        f"versions = {versions}",
        f"started = {started}",
        f"finished = {datetime.now(timezone.utc).isoformat()}",
    ] + [f"output = {outdir / name}" for name in outputs]
    _atomic_write(outdir / f"manifest_{subcommand}.txt", lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser and its subparsers form reference cycles (about 330 objects),
    so building one per `main` call leaves that much garbage for the
    cyclic collector on every call of a long-lived caller.
    """
    parser = argparse.ArgumentParser(
        prog="rydfm",
        description="Rydberg RF electrometry simulator with FM readout",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None, help="scenario file (defaults when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    loaded = False
    try:
        if args.seed is not None and args.seed < 0:
            raise InvariantViolation(f"--seed must be >= 0, got {args.seed}")
        scn = load_scenario(args.config)
        loaded = True
        seed = args.seed if args.seed is not None else scn.noise.seed
        run(args.subcommand, scn, seed, Path(args.out))
    except (ParseError, InvariantViolation) as exc:
        code, message = EXIT_CONFIG, str(exc)
    except RydfmError as exc:  # every scenario that fails to load is a config error
        code, message = EXIT_NUMERIC if loaded else EXIT_CONFIG, str(exc)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        code, message = EXIT_NUMERIC if loaded else EXIT_CONFIG, f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    else:
        return EXIT_OK
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
