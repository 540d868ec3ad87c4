"""Benchmark of the rydfm CLI: wall time per subcommand on one workload.

Run from the root of a checkout (the code under test is <root>/src/rydfm):

    python3 perfbench/run.py --workload warm_cell --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload warm_cell --seed 1 --seconds 25 --trace 1

Closed loop: one caller in this one process runs the workload's
subcommands one after another through ``rydfm.cli.main(argv)``, and
repeats the whole sequence until ``--seconds`` have passed.  Outputs go to
``.perfbench_out/<workload>/`` and each call's outputs are checked against
the stored reference after the call, outside the timed region.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; a readable summary with provenance
goes to standard error, and the full result to
``.perfbench_out/<workload>-trace<0|1>.json``.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, on every commit measured: the
# 16x16 solves and 17-sideband lock-ins are too small to gain from threads.
# On a 2-core machine a second thread made fm.demodulate 3x slower, and
# far less steady when another process shared the cores.
BLAS_THREADS = "1"
os.environ.update(
    OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS
)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# Fresh interpreters timed per run for setup_s; each takes about a second.
SETUP_SAMPLES = {"full": 5, "tiny": 1}
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import rydfm; "
    "[rydfm.load_scenario(p) for p in sys.argv[1:]]"
)


@dataclass
class Pass:
    seconds: dict = field(default_factory=dict)   # subcommand -> wall time
    bytes_written: int = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Ledger:
    """Operations attempted and failed: subcommand calls and output checks."""

    attempted: int = 0
    failed: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)   # check name -> (largest value, limit)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name} {detail}".strip())

    def record_check(self, check: wl.Check) -> None:
        self.record(check.name, check.ok, f"{check.value:.3e} > {check.limit:.3e}")
        value = self.worst.get(check.name, (-math.inf,))[0]
        self.worst[check.name] = (max(value, check.value), check.limit)

    @property
    def error_rate(self) -> float:
        return len(self.failed) / self.attempted

    @property
    def chi_rel_err(self) -> float:
        """Largest relative error of `scan`'s chi seen (warm_cell only, else 0)."""
        return self.worst.get("scan.chi", (0.0,))[0]


class Bench:
    def __init__(self, rydfm, workload: str, size: str, seed: int, root: Path, reference: dict):
        self.rydfm = rydfm
        self.workload = wl.WORKLOADS[workload]
        self.size = size
        self.cli_seed = seed % wl.REALIZATIONS
        self.out = root / ".perfbench_out" / workload
        self.reference = reference
        self.ledger = Ledger()

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        result = Pass()
        for i, step in enumerate(self.workload.steps):
            out_dir = self.out / f"{i}_{step.subcommand}"
            argv = [step.subcommand, "--config", str(wl.scenario_path(self.size, self.workload.name, step)),
                    "--out", str(out_dir), "--seed", str(self.cli_seed)]
            result.seconds[step.subcommand], rc = self._call(argv, tracer)
            self.ledger.record(step.subcommand, rc == 0, f"exit {rc}")
            result.bytes_written += sum(p.stat().st_size for p in out_dir.glob("*") if p.is_file())
            ref = wl.step_reference(self.reference, self.workload.name, step.subcommand, self.cli_seed)
            for check in wl.check_outputs(self.workload.name, step.subcommand, out_dir, ref):
                self.ledger.record_check(check)
        return result

    def _call(self, argv, tracer):
        main = self.rydfm.cli.main  # looked up per call so a tracer's wrapper is used
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.root(f"cmd.{argv[0]}"):
                    rc = main(argv)
        except Exception as exc:  # an escaped exception is a failed call, not a crash
            traceback.print_exc(file=sys.stderr)
            rc = f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, rc


def measure_setup(root: Path, workload: str, size: str, samples: int) -> list[float]:
    """Wall time of fresh interpreters that import rydfm and load the scenarios."""
    files = sorted({str(wl.scenario_path(size, workload, s)) for s in wl.WORKLOADS[workload].steps})
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *files], cwd=root, check=True)
        times.append(perf_counter() - t0)
    return times


def provenance(root: Path, args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "cli_seed": args.seed % wl.REALIZATIONS,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


# --- metrics -----------------------------------------------------------------

def median_seconds(passes: list[Pass]) -> dict[str, float]:
    return {sub: statistics.median(p.seconds[sub] for p in passes) for sub in passes[0].seconds}


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    per_sub = median_seconds(passes)
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_sub.values())),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Per-layer values of one traced pass, for every name that maps to one."""
    values = {}
    self_s = tracer.self_by_name()
    for name in names:
        fn, _, stat = name.rpartition(".")
        if fn in tracer.functions and stat in ("calls", "self_s"):
            values[name] = float(tracer.calls[fn]) if stat == "calls" else self_s.get(fn, 0.0)
    values["quantum.velocity_nodes"] = float(tracer.velocity_nodes)
    values["quantum.doppler_average.useful_node_frac"] = (
        tracer.final_level_nodes / tracer.velocity_nodes if tracer.velocity_nodes else 0.0
    )
    values["pipelines.fm_probe_scan.medium_pts_per_carrier"] = (
        tracer.nested[("pipelines.fm_probe_scan", "quantum.susceptibility")] / tracer.carriers
        if tracer.carriers else 0.0
    )
    calls = tracer.calls["analysis.sensitivity_estimate"]
    values["analysis.sensitivity_estimate.fm_response_calls"] = (
        tracer.nested[("analysis.sensitivity_estimate", "pipelines.fm_response")] / calls if calls else 0.0
    )
    return values


def per_layer(untraced: list[Pass], traced: list[Pass], layer_passes: list[dict], ledger: Ledger,
              absent: list[str]) -> dict[str, float]:
    values = {f"{sub}_s": t for sub, t in median_seconds(untraced).items()}
    for name in layer_passes[0]:
        values[name] = statistics.median(p[name] for p in layer_passes)
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in untraced))
    values["trace.absent_functions"] = float(len(absent))
    values["cli.bytes_written"] = float(untraced[-1].bytes_written)
    values["error_rate"] = ledger.error_rate
    values["chi_rel_err"] = ledger.chi_rel_err
    return values


# --- running a workload ------------------------------------------------------

def run(args, root: Path, rydfm, spec: dict, reference: dict) -> dict:
    bench = Bench(rydfm, args.workload, args.size, args.seed, root, reference)
    shutil.rmtree(bench.out, ignore_errors=True)
    setup = [] if args.trace else measure_setup(root, args.workload, args.size, SETUP_SAMPLES[args.size])
    tracer = Tracer(rydfm) if args.trace else None
    untraced, traced, layer_passes = [], [], []
    layer_names = [m["name"] for m in spec["per_layer"]]
    t_start = perf_counter()
    while True:
        untraced.append(bench.run_pass())
        if tracer is not None:
            tracer.reset()
            with tracer:
                traced.append(bench.run_pass(tracer))
            layer_passes.append(traced_pass_metrics(tracer, layer_names))
        if perf_counter() - t_start >= args.seconds:
            break

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    absent = []
    if tracer is not None:
        absent = sorted({n.rpartition(".")[0] for n in units
                         if n.endswith((".calls", ".self_s")) and n.rpartition(".")[0] not in tracer.functions})
        values = per_layer(untraced, traced, layer_passes, bench.ledger, absent)
        tracer.write_spans(root / ".perfbench_out" / f"{args.workload}-spans.csv")
    else:
        values = end_to_end(untraced, setup)
    # a per-layer metric of a subcommand or function this workload never reaches reads 0
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    shutil.rmtree(bench.out, ignore_errors=True)
    ledger = bench.ledger
    detail = {
        "provenance": provenance(root, args),
        "passes": [asdict(p) for p in untraced],
        "traced_passes": [asdict(p) for p in traced],
        "setup_samples_s": setup,
        "error_rate": ledger.error_rate,
        "chi_rel_err": ledger.chi_rel_err,
        "failed_operations": ledger.failed,
        "checks": ledger.worst,
        "absent_functions": absent,
        "metrics": metrics,
    }
    if tracer is not None:
        detail["self_s_by_subcommand"] = self_time_table(tracer)
    (root / ".perfbench_out" / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    report(detail)
    return {"correct": not ledger.failed, "attempted": ledger.attempted,
            "failed": len(ledger.failed), "metrics": metrics}


def self_time_table(tracer: Tracer) -> dict:
    """{subcommand: [(layer, self_s, share of the subcommand's wall time)]} of the last traced pass."""
    totals, rows = {}, {}
    for (root, name), value in tracer.self_s.items():
        if root:
            rows.setdefault(root, []).append((name, value))
            totals[root] = totals.get(root, 0.0) + value
    return {root.removeprefix("cmd."): [(n, v, v / totals[root]) for n, v in sorted(r, key=lambda x: -x[1])]
            for root, r in rows.items()}


def report(detail: dict) -> None:
    out = sys.stderr
    prov = detail["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()), file=out)
    for name, metric in detail["metrics"].items():
        print(f"  {name:52s} {metric['value']:.6g} {metric['unit']}", file=out)
    print(f"  {'error_rate':52s} {detail['error_rate']:.6g} (failed / attempted operations)", file=out)
    if prov["workload"] == "warm_cell":
        print(f"  {'chi_rel_err':52s} {detail['chi_rel_err']:.6g} (scan chi vs tight reference)", file=out)
    for sub in detail["passes"][0]["seconds"]:
        times = [p["seconds"][sub] for p in detail["passes"]]
        print(f"  {sub + '_s':52s} {statistics.median(times):.6g} s (median of {len(times)})", file=out)
    for sub, rows in detail.get("self_s_by_subcommand", {}).items():
        top = ", ".join(f"{n} {share:.0%}" for n, _, share in rows[:4])
        print(f"  self time in {sub}: {top}", file=out)
    for failure in detail["failed_operations"][:20]:
        print(f"  FAILED {failure}", file=out)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the rydfm CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="'tiny' is the smoke-test size used by the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference JSON to check against (default reference/<size>.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        rydfm = wl.import_rydfm(root)
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot run from {root}: {exc}", file=sys.stderr)
        return 2
    if args.reference is None:
        reference = wl.load_reference(args.size)
    else:
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
    print(json.dumps(run(args, root, rydfm, spec, reference)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
