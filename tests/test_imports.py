"""Run-time import graph: the package loads numpy and scipy.special only.

``scipy.stats`` and ``scipy.integrate`` cost most of a cold ``import qndsim``
and serve the tests as oracles only.  pytest's own process has loaded them
already, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ONLY = ("scipy.stats", "scipy.integrate")

_IMPORT_AND_RUN = """
import json, sys
from pathlib import Path

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import qndsim, qndsim.cli
after_import = loaded()
config = qndsim.ExperimentConfig.from_dict(
    json.loads(Path("configs/assumption_validation.json").read_text())
)
qndsim.run_experiment(config, out_dir=sys.argv[1])
print(json.dumps({"import": after_import, "run": loaded()}))
"""


def test_run_time_imports_exclude_test_only_scipy(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_AND_RUN, str(tmp_path / "bundle")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "scipy.special" in modules["import"]
    for stage, names in modules.items():
        leaked = [m for m in names if ".".join(m.split(".")[:2]) in TEST_ONLY]
        assert not leaked, f"{stage} loaded {leaked[:5]}"
