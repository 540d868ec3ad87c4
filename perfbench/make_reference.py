"""Write the benchmark's reference outputs, reference/<size>.json.

Run once, from the repository root, on the code the references describe:

    python3 perfbench/make_reference.py            # both sizes
    python3 perfbench/make_reference.py --size tiny

* warm_cell: every output is recomputed with the Doppler average forced
  to converge to a relative REF_REL_TOL (the shipped default is 1e-3),
  and `fmscan` samples the medium exactly at each carrier +- n * omega_m
  instead of interpolating a padded grid.
* doppler_free: the outputs of the code as it is; the single-velocity
  path involves no quadrature.
* timeseries: SHA-256 digests of the numeric bodies of every output, for
  each of the REALIZATIONS seeds.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

REF_REL_TOL = 1e-10
REF_MAX_REFINE = 1024
CHUNK = 4096  # velocity nodes per solve, to bound the memory of fine levels


@contextlib.contextmanager
def tight_doppler(quantum):
    """Force every Doppler average to converge to REF_REL_TOL."""
    original = quantum.doppler_average

    def tight(sys_, drive, f, **kwargs):
        if kwargs.get("vectorized"):
            inner = f

            def f(v):  # noqa: F811
                v = np.asarray(v)
                return np.concatenate([inner(v[i:i + CHUNK]) for i in range(0, v.size, CHUNK)])
        kwargs.update(rel_tol=REF_REL_TOL, max_refine=REF_MAX_REFINE)
        return original(sys_, drive, f, **kwargs)

    quantum.doppler_average = tight
    try:
        yield
    finally:
        quantum.doppler_average = original


def run_cli(rydfm, subcommand: str, scenario: Path, out: Path, seed: int = 0) -> Path:
    rc = rydfm.cli.main([subcommand, "--config", str(scenario), "--out", str(out), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"{subcommand} on {scenario} exited with {rc}")
    return out


def columns(path: Path, names) -> dict:
    cols = wl.read_columns(path)
    return {n: cols[n].tolist() for n in names}


def exact_fmscan(rydfm, scenario: Path) -> dict:
    """FM spectrum with the medium sampled exactly at every sideband."""
    from rydfm import fm, pipelines

    scn = rydfm.load_scenario(str(scenario))
    grid = scn.scan.probe_grid_rad_s()
    sb = fm.sidebands(scn.fm.beta, scn.fm.n_max, omega_m=scn.fm.omega_m)
    if scn.apply_ram:
        sb = fm.apply_ram(sb, scn.ram)
    inphase, quadrature = [], []
    for d in grid:
        prop = fm.propagate(sb, pipelines.sideband_spectrum(scn.system, scn.drive, scn.fm, float(d)), float(d))
        inphase.append(fm.demodulate(prop, 0.0))
        quadrature.append(fm.demodulate(prop, math.pi / 2))
    return {"detuning_hz": (grid / (2 * math.pi)).tolist(),
            "signal_inphase": inphase, "signal_quadrature": quadrature}


def warm_cell(rydfm, size: str, work: Path) -> dict:
    steps = {s.subcommand: wl.scenario_path(size, "warm_cell", s) for s in wl.WORKLOADS["warm_cell"].steps}
    shipped = run_cli(rydfm, "scan", steps["scan"], work / "scan_shipped")
    with tight_doppler(rydfm.quantum):
        scan = columns(run_cli(rydfm, "scan", steps["scan"], work / "scan") / "spectrum.csv",
                       ("detuning_hz", "re_chi", "im_chi"))
        fmscan = exact_fmscan(rydfm, steps["fmscan"])
        matched = columns(run_cli(rydfm, "matched", steps["matched"], work / "matched") / "matched.csv",
                          ("freq_hz", "raw", "filtered", "in_valid_region"))
        sens = wl.read_keyvalues(run_cli(rydfm, "sensitivity", steps["sensitivity"], work / "sens")
                                 / "sensitivity.txt")
    scan["doppler_rel_tol"] = REF_REL_TOL
    scan["doppler_max_refine"] = REF_MAX_REFINE
    scan["shipped_chi_rel_err"] = wl.chi_rel_err(shipped, scan)
    return {"scan": scan, "fmscan": fmscan, "matched": matched, "sensitivity": sens}


def doppler_free(rydfm, size: str, work: Path) -> dict:
    steps = {s.subcommand: wl.scenario_path(size, "doppler_free", s) for s in wl.WORKLOADS["doppler_free"].steps}
    atcal = run_cli(rydfm, "atcal", steps["atcal"], work / "atcal") / "at_calibration.csv"
    fmscan = run_cli(rydfm, "fmscan", steps["fmscan"], work / "fmscan") / "fm_spectrum.csv"
    return {
        "atcal": columns(atcal, ("e_rf_v_per_m", "split_sim_hz", "split_linear_hz", "resolved")),
        "fmscan": columns(fmscan, ("detuning_hz", "signal_inphase", "signal_quadrature")),
    }


def timeseries(rydfm, size: str, work: Path) -> dict:
    out: dict = {}
    for step in wl.WORKLOADS["timeseries"].steps:
        digests = out.setdefault(step.subcommand, {})
        for seed in range(wl.REALIZATIONS):
            d = run_cli(rydfm, step.subcommand, wl.scenario_path(size, "timeseries", step),
                        work / f"{step.subcommand}_{seed}", seed)
            digests[str(seed)] = {name: wl.body_digest(d / name)
                                  for name in wl.TIMESERIES_OUTPUTS[step.subcommand]}
            shutil.rmtree(d)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=wl.SIZES, action="append")
    args = parser.parse_args()
    root = Path.cwd()
    rydfm = wl.import_rydfm(root)
    work = root / ".perfbench_out" / "make_reference"
    for size in args.size or wl.SIZES:
        shutil.rmtree(work, ignore_errors=True)
        ref = {
            "rydfm_version": rydfm.__version__,
            "warm_cell": warm_cell(rydfm, size, work),
            "doppler_free": doppler_free(rydfm, size, work),
            "timeseries": timeseries(rydfm, size, work),
        }
        path = wl.REFERENCE / f"{size}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(root)}; shipped scan chi_rel_err = "
              f"{ref['warm_cell']['scan']['shipped_chi_rel_err']:.3e}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
