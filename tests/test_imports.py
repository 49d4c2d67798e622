"""Run-time import graph: the package and its runs load no scipy.

``import qndsim`` and the ``rate``, ``kernel``, ``born`` and assumption runs
need numpy only; the CLT Kolmogorov-Smirnov test loads ``scipy.special``
when it runs, and ``scipy.stats`` / ``scipy.integrate`` serve the tests as
oracles only.  A run that loads a module the import did not load pays for it
inside its own wall time, so the runs below must load nothing new.  Neither
the import nor those runs load ``numpy.ma`` (``np.median`` would, in 8-13 ms)
or ``numpy.polynomial`` (``leggauss`` would, in about 2.4 ms: the quadrature
rule is written out); ``scipy.special`` loads both with a CLT run.  pytest's
own process has loaded scipy already, so the checks run in a fresh
interpreter.  The exports are checked too: every name in a module's
``__all__`` exists, and ``qndsim/__init__`` imports at most ``MAX_EXPORTS``.
The ``src/qndsim`` modules hold at most ``MAX_SRC_LINES`` lines, so that
growth is a stated decision.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# shipped configs at reduced size: (config, overrides)
NUMPY_ONLY_RUNS = {
    "rate": ("rate_convergence.json", {"ensemble": 3, "k_max": 1000, "checkpoints": [10, 1000]}),
    "kernel": ("kernel_convergence.json", {"ensemble": 2}),
    "born": ("born_frequency.json", {"ensemble": 20}),
    "assumptions": ("assumption_validation.json", {}),
}
CLT_RUN = ("clt_gaussian.json", {"ensemble": 100})
TEST_ONLY = ("scipy.stats", "scipy.integrate")

_IMPORT_AND_RUN = """
import json, sys
from pathlib import Path

import qndsim, qndsim.cli

after_import = set(sys.modules)
runs, out = json.loads(sys.argv[1]), Path(sys.argv[2])
new = {}
for name, (config, overrides) in runs.items():
    tree = {**json.loads(Path("configs", config).read_text()), **overrides}
    qndsim.run_experiment(qndsim.ExperimentConfig.from_dict(tree), out_dir=out / name)
    new[name] = sorted(set(sys.modules) - after_import)
print(json.dumps({"import": sorted(after_import), "new": new}))
"""


def _modules_loaded_by(runs: dict, out: Path) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_AND_RUN, json.dumps(runs), str(out)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _scipy(names) -> list[str]:
    return [m for m in names if m.split(".")[0] == "scipy"]


def test_run_time_imports_exclude_test_only_scipy(tmp_path):
    modules = _modules_loaded_by(NUMPY_ONLY_RUNS, tmp_path)
    assert not _scipy(modules["import"])
    assert "numpy.ma" not in modules["import"]  # np.median would load it
    assert "numpy.polynomial" not in modules["import"]  # leggauss would load it
    for name, new in modules["new"].items():
        assert not new, f"the {name} run loaded {new[:5]}"


def test_clt_run_loads_scipy_special_only(tmp_path):
    modules = _modules_loaded_by({"clt": CLT_RUN}, tmp_path)
    loaded = _scipy(modules["new"]["clt"])
    assert "scipy.special" in loaded
    leaked = [m for m in loaded if ".".join(m.split(".")[:2]) in TEST_ONLY]
    assert not leaked, f"the clt run loaded {leaked[:5]}"




MAX_EXPORTS = 63  # names qndsim/__init__ may import
MAX_SRC_LINES = 3594  # newline count of src/qndsim/*.py, as ``wc -l``


def test_exports_exist_and_stay_few():
    tree = ast.parse((ROOT / "src" / "qndsim" / "__init__.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    for node in imports:
        module = importlib.import_module(f"qndsim.{node.module}")
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert not stale, f"qndsim.{node.module}.__all__ names missing {stale}"
    count = sum(len(node.names) for node in imports)
    assert count <= MAX_EXPORTS, f"qndsim/__init__ imports {count} names"


def test_source_lines_stay_few():
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "qndsim").glob("*.py"))
    assert lines <= MAX_SRC_LINES, f"src/qndsim/*.py hold {lines} lines"
