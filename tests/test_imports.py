import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rydfm

ROOT = Path(__file__).resolve().parents[1]

# scipy and the submodules that take most of a second to import: the package
# needs none of them to import, load a scenario, run any subcommand or fit a line
WATCHED = ("scipy", "scipy.special", "scipy.signal", "scipy.optimize", "scipy.stats")
WARM_FM = ("scan", "fmscan", "matched", "sensitivity")
# cold runs: the shipped AT calibration and an fmscan with apply_ram = true at
# dphi_n = dphi_dc = 0, read from the benchmark's scenarios
COLD = (("atcal", "configs/at_calibration.cfg"),
        ("fmscan", "perfbench/scenarios/full/doppler_free/fmscan.cfg"))
# the same fmscan off the RAM null, where apply_ram evaluates J_1
RAM_STAGE = "rydfm fmscan off the RAM null"
FIT_STAGE = "rydfm.lorentzian_fit"

PROBE = f"""
import json, sys
from pathlib import Path
watched = {WATCHED!r}
root, out = Path(sys.argv[1]), sys.argv[2]
stages, exits = {{}}, {{}}

def record(stage):
    stages[stage] = [m for m in watched if m in sys.modules]

import rydfm
record("import rydfm")
import rydfm.cli
record("import rydfm.cli")
configs = sorted((root / "configs").glob("*.cfg"))
configs += sorted((root / "perfbench" / "scenarios" / "full").glob("*/*.cfg"))
for path in configs:
    rydfm.load_scenario(str(path))
    record(f"load_scenario {{path.relative_to(root).as_posix()}}")
noise_cfg = root / "perfbench" / "scenarios" / "tiny" / "timeseries" / "noise.cfg"
for sub in ("noise", "allan"):
    exits[sub] = rydfm.cli.main([sub, "--config", str(noise_cfg), "--out", out])
    record(f"rydfm {{sub}}")
tiny = root / "perfbench" / "scenarios" / "tiny" / "warm_cell"
runs = [(sub, tiny / f"{{sub}}.cfg") for sub in {WARM_FM!r}]
runs += [(sub, root / "configs" / "default.cfg") for sub in {WARM_FM!r}]
runs += [(sub, root / rel) for sub, rel in {COLD!r}]
for sub, path in runs:
    stage = f"rydfm {{sub}} {{path.relative_to(root).as_posix()}}"
    exits[stage] = rydfm.cli.main([sub, "--config", str(path), "--out", out])
    record(stage)
ram_cfg = Path(out) / "fmscan_ram.cfg"
ram_cfg.write_text((root / {COLD[1][1]!r}).read_text() + "\\n[ram]\\ndphi_n = 0.3\\n")
exits[{RAM_STAGE!r}] = rydfm.cli.main(["fmscan", "--config", str(ram_cfg), "--out", out])
record({RAM_STAGE!r})
servo_cfg = root / "configs" / "servo_demo.cfg"
exits["servo"] = rydfm.cli.main(["servo", "--config", str(servo_cfg), "--out", out])
record("rydfm servo")
import numpy as np
freqs = np.linspace(-1e6, 1e6, 21)
rydfm.lorentzian_fit(freqs, rydfm.LorentzParams(1.0, 2e5, 1e5).evaluate(freqs))
record({FIT_STAGE!r})
print(json.dumps({{"stages": stages, "exits": exits}}))
"""


def run_probe(out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(rydfm.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", PROBE, str(ROOT), str(out)], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_heavy_scipy_module(tmp_path):
    report = run_probe(tmp_path)
    stages = report["stages"]
    assert list(stages)[:2] == ["import rydfm", "import rydfm.cli"]
    loads = [s for s in stages if s.startswith("load_scenario ")]
    assert len(loads) == 3 + 8  # the shipped configs and perfbench/scenarios/full
    assert "load_scenario configs/default.cfg" in loads
    cold = [f"rydfm {sub} {rel}" for sub, rel in COLD] + [RAM_STAGE]
    warm = [s for s in stages if s.startswith(tuple(f"rydfm {sub} " for sub in WARM_FM))
            and s not in cold]
    assert len(warm) == 2 * 4  # on perfbench/scenarios/tiny/warm_cell and on default.cfg
    assert {"rydfm matched perfbench/scenarios/tiny/warm_cell/matched.cfg",
            "rydfm sensitivity configs/default.cfg"} <= set(warm)
    assert list(stages)[-len(cold) - 2:] == [*cold, "rydfm servo", FIT_STAGE]
    assert list(stages)[-len(warm) - len(cold) - 4:-len(warm) - len(cold) - 2] == [
        "rydfm noise", "rydfm allan"]
    assert {stage: loaded for stage, loaded in stages.items() if loaded} == {}
    assert set(report["exits"].values()) == {0}
    assert len(report["exits"]) == 2 + len(warm) + len(cold) + 1
    names = {p.name for p in tmp_path.iterdir()}
    assert {f"manifest_{sub}.txt" for sub in ("noise", "allan", *WARM_FM, "atcal", "servo")} <= names


def test_all_is_exactly_what_init_imports():
    # a name dropped from __init__'s imports but left in __all__ fails here
    tree = ast.parse(Path(rydfm.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(rydfm.__all__)) == len(rydfm.__all__)
    assert set(rydfm.__all__) == imported | {"__version__"}
    assert [name for name in rydfm.__all__ if not hasattr(rydfm, name)] == []
