import json
import os
import subprocess
import sys
from pathlib import Path

import rydfm

ROOT = Path(__file__).resolve().parents[1]

# scipy submodules that take most of a second to import; the package never
# needs them at import time
HEAVY = ("scipy.signal", "scipy.optimize", "scipy.stats")
# loaded on first use by the quantum, FM and servo paths only: importing,
# loading a scenario, `noise` and `allan` never need it
DEFERRED = ("scipy.special",)

PROBE = f"""
import json, sys
from pathlib import Path
watched = {HEAVY + DEFERRED!r}
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
    assert list(stages)[-2:] == ["rydfm noise", "rydfm allan"]
    assert {stage: loaded for stage, loaded in stages.items() if loaded} == {}
    assert report["exits"] == {"noise": 0, "allan": 0}
    assert {"manifest_noise.txt", "manifest_allan.txt"} <= {p.name for p in tmp_path.iterdir()}
