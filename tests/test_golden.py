"""Golden bundles: shipped configs reproduce committed sha256 digests.

The digests were recorded with one BLAS thread.  Some bundles depend on the
BLAS thread count (the order of a threaded reduction changes the last bits),
so the configs run in a subprocess that pins it before numpy loads.  A
change that moves these bytes must update the digests and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "assumption_validation": {
        "summary.json": "3a63cc66dd1a7b81acbe0f9f05456b5a0e19a905355365158cbc241950c53508",
        "estimator_report.json": "fbb0e4bf418b07447224f7a95f664d2d437bfd9a38ca0b97c37a662c209ff24d",
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
        "summary.json": "d48a63e8d2e8ad7870ca2786018e5d5a84f103866f7a27c185ef51404435b978",
        "estimator_report.json": "04db96a145df8c73d8db9448b490843d6efbafa146e6a9dab6186320955416a1",
    },
    "kernel_convergence": {
        "summary.json": "73d2c4c0b59f241f44dc3f861761e3e5dd8750659bae4abc04b307230282ca5b",
        "estimator_report.json": "68cb3c875ae1f170c28759a47d055f71af44d4207b8fb9713286918eb9aab45b",
    },
    "rate_convergence": {
        "summary.json": "8cff48f00d970eb990a186b6b4e1f72d741017dd159f384a6e18e0df7034ea8c",
        "estimator_report.json": "83e20739919138563d5ab30c9edf59b430feeb95e34b07e8d5a3a10741ecc173",
    },
}

_VERIFY_ALL = """
import sys
from qndsim.cli import main
out, names = sys.argv[1], sys.argv[2:]
for name in names:
    argv = ["verify", "--config", f"configs/{name}.json", "--out", f"{out}/{name}"]
    if main(argv) != 0:
        sys.exit(f"{name}: verify failed")
"""


def test_shipped_bundles_match_golden_digests(tmp_path):
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_ALL, str(tmp_path), *GOLDEN],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        name: {
            f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
            for f in files
        }
        for name, files in GOLDEN.items()
    }
    assert digests == GOLDEN
