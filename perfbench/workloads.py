"""Workloads of the rydfm benchmark and the checks on their outputs.

A workload is a fixed sequence of CLI subcommands, each reading one
scenario file under ``scenarios/<size>/<workload>/``.  After every call
the benchmark checks that call's outputs against ``reference/<size>.json``
(written once from the seed code by ``make_reference.py``).  Every check
is one attempted operation; a check outside its tolerance is a failure.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
REFERENCE = HERE / "reference"
SIZES = ("full", "tiny")

# Every subcommand gets --seed <workload seed mod this>.  It sets the drift
# and noise realizations of `timeseries` (the reference holds digests for
# each of them); the quantum workloads only print it in their headers.
REALIZATIONS = 16

# Tolerances.  Warm-cell outputs are compared with a reference whose
# Doppler average converged to a relative 1e-10, so they bound the error
# of the shipped adaptive quadrature (nominal rel_tol 1e-3) with headroom,
# while a looser average fails them.  The single-velocity path of the
# Doppler-free workload is exact, so its outputs may only move by
# floating-point reordering.
WARM_CHI_TOL = 1e-3         # per point, |chi - chi_ref| / |chi_ref|
WARM_SIGNAL_TOL = 5e-3      # per column, max |x - x_ref| / max |x_ref|
WARM_SENSITIVITY_TOL = 5e-2  # responsivity is a 1%-converged finite difference
COLD_TOL = 1e-8             # per column, max |x - x_ref| / max |x_ref|
COLD_SPLIT_TOL = 1e-6       # per point, relative, on the AT splitting


@dataclass(frozen=True)
class Step:
    subcommand: str
    scenario: str


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "warm_cell",
            (Step("scan", "scan.cfg"), Step("fmscan", "fmscan.cfg"),
             Step("matched", "matched.cfg"), Step("sensitivity", "sensitivity.cfg")),
        ),
        Workload(
            "doppler_free",
            (Step("atcal", "atcal.cfg"), Step("fmscan", "fmscan.cfg")),
        ),
        Workload(
            "timeseries",
            (Step("servo", "servo.cfg"), Step("noise", "noise.cfg"), Step("allan", "noise.cfg")),
        ),
    )
}


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    limit: float


def import_rydfm(root: Path):
    """Import rydfm from <root>/src, never from anywhere else on the path."""
    src = (root / "src").resolve()
    if not (src / "rydfm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rydfm sources under {src}")
    sys.path.insert(0, str(src))
    import rydfm
    import rydfm.cli

    if Path(rydfm.__file__).resolve().parent != src / "rydfm":
        raise ImportError(f"rydfm was imported from {rydfm.__file__}, not from {src}")
    return rydfm


def scenario_path(size: str, workload: str, step: Step) -> Path:
    return SCENARIOS / size / workload / step.scenario


def load_reference(size: str) -> dict:
    with open(REFERENCE / f"{size}.json", encoding="utf-8") as handle:
        return json.load(handle)


# --- reading outputs ----------------------------------------------------------

def body_text(path: Path) -> str:
    """The numeric body of an output: every line that is not a '#' header."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


def body_digest(path: Path) -> str:
    return hashlib.sha256(body_text(path).encode()).hexdigest()


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV output, named by its '# columns:' header line."""
    names = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# columns:"):
            names = [n.strip() for n in line.split(":", 1)[1].split(",")]
            break
    if names is None:
        raise ValueError(f"{path.name} has no '# columns:' header")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def read_keyvalues(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    return out


# --- comparisons (written so that NaN fails) ----------------------------------

def _column_error(out: np.ndarray, ref: np.ndarray) -> float:
    """max |out - ref| / max |ref|; inf on a shape mismatch."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = float(np.max(np.abs(out - ref))) if ref.size else 0.0
    if err == 0.0:
        return 0.0
    return err / scale if scale > 0 else math.inf


def _pointwise_error(out: np.ndarray, ref: np.ndarray) -> float:
    """max_i |out_i - ref_i| / |ref_i| over the points where the reference is
    a number; inf on a shape mismatch or where exactly one side is NaN (an
    unresolved AT splitting is written as NaN)."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape or np.any(np.isnan(out) != np.isnan(ref)):
        return math.inf
    known = ~np.isnan(ref)
    if not np.any(known):
        return 0.0
    return float(np.max(np.abs(out[known] - ref[known]) / np.abs(ref[known])))


def _check(name: str, value: float, limit: float) -> Check:
    return Check(name, bool(value <= limit), float(value), float(limit))


def _columns_checks(prefix: str, cols: dict, ref: dict, names, tol: float) -> list[Check]:
    return [
        _check(f"{prefix}.{n}", _column_error(cols[n], ref[n]) if n in cols else math.inf, tol)
        for n in names
    ]


# --- per-subcommand checks ----------------------------------------------------

def chi_rel_err(out_dir: Path, ref: dict) -> float:
    """Largest per-point relative deviation of `scan`'s chi from the reference."""
    cols = read_columns(out_dir / "spectrum.csv")
    chi = cols["re_chi"] + 1j * cols["im_chi"]
    chi_ref = np.asarray(ref["re_chi"]) + 1j * np.asarray(ref["im_chi"])
    return _pointwise_error(chi, chi_ref)


def _warm_scan(out_dir: Path, ref: dict) -> list[Check]:
    cols = read_columns(out_dir / "spectrum.csv")
    return [
        _check("scan.grid", _column_error(cols["detuning_hz"], ref["detuning_hz"]), 1e-12),
        _check("scan.chi", chi_rel_err(out_dir, ref), WARM_CHI_TOL),
    ]


def _warm_fmscan(out_dir: Path, ref: dict) -> list[Check]:
    cols = read_columns(out_dir / "fm_spectrum.csv")
    return [_check("fmscan.grid", _column_error(cols["detuning_hz"], ref["detuning_hz"]), 1e-12)] + \
        _columns_checks("fmscan", cols, ref, ("signal_inphase", "signal_quadrature"), WARM_SIGNAL_TOL)


def _warm_matched(out_dir: Path, ref: dict) -> list[Check]:
    cols = read_columns(out_dir / "matched.csv")
    return [
        _check("matched.grid", _column_error(cols["freq_hz"], ref["freq_hz"]), 1e-12),
        _check("matched.valid", _column_error(cols["in_valid_region"], ref["in_valid_region"]), 0.0),
    ] + _columns_checks("matched", cols, ref, ("raw", "filtered"), WARM_SIGNAL_TOL)


_SENSITIVITY_KEYS = (
    "responsivity_a_per_v_m",
    "noise_floor_a_per_sqrt_hz",
    "e_min_v_per_m_sqrt_hz",
    "projection_limit_v_per_m_sqrt_hz",
)


def _warm_sensitivity(out_dir: Path, ref: dict) -> list[Check]:
    values = read_keyvalues(out_dir / "sensitivity.txt")
    return [
        _check(
            f"sensitivity.{key}",
            abs(values[key] - ref[key]) / abs(ref[key]) if key in values else math.inf,
            WARM_SENSITIVITY_TOL,
        )
        for key in _SENSITIVITY_KEYS
    ]


def _cold_atcal(out_dir: Path, ref: dict) -> list[Check]:
    cols = read_columns(out_dir / "at_calibration.csv")
    return [
        _check("atcal.e_rf", _column_error(cols["e_rf_v_per_m"], ref["e_rf_v_per_m"]), 1e-12),
        _check("atcal.resolved", _column_error(cols["resolved"], ref["resolved"]), 0.0),
        _check("atcal.split_sim", _pointwise_error(cols["split_sim_hz"], ref["split_sim_hz"]),
               COLD_SPLIT_TOL),
        _check("atcal.split_linear", _column_error(cols["split_linear_hz"], ref["split_linear_hz"]),
               COLD_TOL),
    ]


def _cold_fmscan(out_dir: Path, ref: dict) -> list[Check]:
    cols = read_columns(out_dir / "fm_spectrum.csv")
    return [_check("fmscan.grid", _column_error(cols["detuning_hz"], ref["detuning_hz"]), 1e-12)] + \
        _columns_checks("fmscan", cols, ref, ("signal_inphase", "signal_quadrature"), COLD_TOL)


TIMESERIES_OUTPUTS = {
    "servo": ("servo_trace_locked.csv", "servo_trace_unlocked.csv",
              "servo_allan_locked.csv", "servo_allan_unlocked.csv"),
    "noise": ("timeseries.csv",),
    "allan": ("allan.csv", "allan_classification.csv"),
}


def _digests(subcommand: str):
    def check(out_dir: Path, ref: dict) -> list[Check]:
        checks = []
        for name in TIMESERIES_OUTPUTS[subcommand]:
            path = out_dir / name
            same = path.exists() and body_digest(path) == ref[name]
            checks.append(Check(f"{subcommand}.{name}", same, 0.0 if same else 1.0, 0.0))
        return checks
    return check


_CHECKS = {
    ("warm_cell", "scan"): _warm_scan,
    ("warm_cell", "fmscan"): _warm_fmscan,
    ("warm_cell", "matched"): _warm_matched,
    ("warm_cell", "sensitivity"): _warm_sensitivity,
    ("doppler_free", "atcal"): _cold_atcal,
    ("doppler_free", "fmscan"): _cold_fmscan,
    ("timeseries", "servo"): _digests("servo"),
    ("timeseries", "noise"): _digests("noise"),
    ("timeseries", "allan"): _digests("allan"),
}


def step_reference(reference: dict, workload: str, subcommand: str, cli_seed: int) -> dict:
    ref = reference[workload][subcommand]
    return ref[str(cli_seed)] if workload == "timeseries" else ref


def check_outputs(workload: str, subcommand: str, out_dir: Path, ref: dict) -> list[Check]:
    """Checks of one subcommand's outputs; an unreadable output fails them all."""
    try:
        return _CHECKS[(workload, subcommand)](out_dir, ref)
    except (OSError, ValueError, KeyError) as exc:
        return [Check(f"{subcommand}.readable ({type(exc).__name__}: {exc})", False, math.inf, 0.0)]
