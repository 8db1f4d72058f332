"""What a trisre process loads: numpy and the standard library only, all of
it at `import trisre`, so no run pays for an import midway. The quadrature
rules come from numpy.linalg, which numpy loads anyway, not from
numpy.polynomial, which it does not."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import dataclasses, json, sys
import trisre
from trisre.scenarios import builtin_scenarios, run_scenario
before = set(sys.modules)
for config in builtin_scenarios(quick=True):
    run_scenario(dataclasses.replace(config, n_samples=2000,
                                     constant_samples=2000, mn_horizon=20),
                 workers=2)
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "polynomial": sorted(m for m in sys.modules
                                       if m.startswith("numpy.polynomial")),
                  "late": sorted(set(sys.modules) - before)}))
"""


def test_runs_import_no_scipy_and_nothing_after_import_trisre():
    # nor numpy.polynomial, at import or later
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"scipy": [], "polynomial": [], "late": []}
