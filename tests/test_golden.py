"""Golden bundles: shipped configs reproduce committed sha256 digests.

The digests were recorded with one BLAS thread, in a subprocess that pins the
thread count before numpy loads.  No bundle depends on that count today, and
a second run at two threads pins it: a threaded reduction whose order moved
the last bits would show there.  A change that moves these bytes must update
the digests and say why.

``VARIANTS`` are test-only configs, a shipped config with some keys replaced,
that pin paths no shipped config takes.
"""

import json

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from qndsim.harness import KINDS

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "assumption_validation": {
        "summary.json": "3a63cc66dd1a7b81acbe0f9f05456b5a0e19a905355365158cbc241950c53508",
        "estimator_report.json": "88728c5681f5f464d481912f6ed6efb76ad4f0dd0e5a378e7eb77d171721b4bc",
        # every validator check's verdict, worst value and location; identifiability
        # 0.007978452750479186 -> ...169 when pairs were summed a row block at a time
        "tables/assumptions.csv": "dbebd9f8d93a658ae29cf431c142d635cf4842b86614ebe72a1a9e286014fdee",
    },
    "born_frequency": {
        "summary.json": "ce20c57285e1f607e7245996a0a358ac0ffc7e295e679272880342c397d5c2dd",
        "estimator_report.json": "a0f0dad22b756d8b34810a99b3be0145be8c27f58050eb24d0ca92f2cc72e8c3",
    },
    "clt_binary": {
        "summary.json": "d8fe6681e0ed3d96c976ea8577bee9c3d6391431ac583ee798d4121dd543924e",
        "estimator_report.json": "cf7220241dda0b0c2dcb7506fb8e34ae259a8218fddf3cc5e7e380e089a131b0",
    },
    "clt_gaussian": {
        "summary.json": "6e0fa30ee5b2d0b544354cf5418583634717c9491d21c5c41c5f42e232b95250",
        "estimator_report.json": "85874aa3f74fe57b9e34207e5dbf6be6d9df766a0ac7bef792fa712e92fdea97",
    },
    "kernel_convergence": {
        # the Laplace ratios are midpoint sums on the k_max windows: each moved by at
        # most 4.3e-13 relative from the whole-interval Gauss-Legendre rule
        "summary.json": "8eb8a29d4ac08e68b65f7bc14eb1b38a3a050a6fa30c33445392b01dfa58358c",
        "estimator_report.json": "b53ab33394405ad837527f85b5839691c440be7b729271b8d37c47b55fd6dd90",
    },
    "rate_convergence": {
        "summary.json": "abf7603486b0e7952ecda18e24c306de01a68f79496c37577adf125e6c09208b",
        "estimator_report.json": "101bfbe761da996cc374c76adda443a5a24b073c38d1e868cf91cabad69d9ac4",
    },
    "born_frequency_sequential": {
        "summary.json": "7a47d8cc1366d7d930759905ea85d9b5651359b257bd2e32c8e3be4e3f6654ba",
        "estimator_report.json": "66c77189219a4c51e5cffe2269c6e4e4c2c87ab9009f88fd13f96a9e00899bf8",
    },
}

VARIANTS = {
    # the chain-rule sampler (it draws no hidden value, so a declaration that
    # pins one, as rate_convergence does, is refused with it)
    "born_frequency_sequential": (
        "born_frequency",
        {"sampler": "sequential", "ensemble": 200, "k_max": 50, "checkpoints": [10, 50]},
    ),
}

_VERIFY_ALL = """
import sys
from pathlib import Path
from qndsim.cli import main
out, configs = sys.argv[1], sys.argv[2:]
for config in configs:
    name = Path(config).stem
    if main(["verify", "--config", config, "--out", f"{out}/{name}"]) != 0:
        sys.exit(f"{name}: verify failed")
"""


def _config_paths(tmp_path) -> list[str]:
    """The shipped configs, and each variant written beside the bundles."""
    paths = []
    for name in GOLDEN:
        if name not in VARIANTS:
            paths.append(f"configs/{name}.json")
            continue
        shipped, overrides = VARIANTS[name]
        tree = {**json.loads((ROOT / "configs" / f"{shipped}.json").read_text()), **overrides}
        path = tmp_path / "variants" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(tree, indent=2) + "\n")
        paths.append(str(path))
    return paths


def _moved_digests(tmp_path, threads: int) -> list[str]:
    """Each golden file whose digest moved when the configs ran with ``threads``
    BLAS threads, as ``name/file: old -> new``."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_ALL, str(tmp_path), *_config_paths(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    moved = []
    for name, files in GOLDEN.items():
        for f, old in files.items():
            new = hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
            if new != old:
                moved.append(f"{name}/{f}: {old} -> {new}")
    return moved


def test_shipped_bundles_match_golden_digests(tmp_path):
    moved = _moved_digests(tmp_path, threads=1)
    assert not moved, "bundle digests moved:\n" + "\n".join(moved)


def test_golden_digests_do_not_depend_on_the_blas_thread_count(tmp_path):
    moved = _moved_digests(tmp_path, threads=2)
    assert not moved, "bundle digests moved at two BLAS threads:\n" + "\n".join(moved)


def test_every_run_kind_has_a_golden_bundle():
    def kind(name):
        shipped, overrides = VARIANTS.get(name, (name, {}))
        tree = json.loads((ROOT / "configs" / f"{shipped}.json").read_text())
        return {**tree, **overrides}["kind"]

    assert set(KINDS) <= {kind(name) for name in GOLDEN}
