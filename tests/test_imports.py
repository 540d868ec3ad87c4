import os
import subprocess
import sys
from pathlib import Path

import rydfm

# scipy submodules that take most of a second to import; the package needs
# only scipy.special at import time
HEAVY = ("scipy.signal", "scipy.optimize", "scipy.stats")

PROBE = f"""
import sys
heavy = {HEAVY!r}
import rydfm
print(",".join(m for m in heavy if m in sys.modules))
import rydfm.cli
print(",".join(m for m in heavy if m in sys.modules))
"""


def test_import_loads_no_heavy_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(Path(rydfm.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                            text=True, check=True)
    after_package, after_cli = result.stdout.splitlines()
    assert after_package == ""
    assert after_cli == ""

