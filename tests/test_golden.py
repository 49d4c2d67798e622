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
        "estimator_report.json": "130240bbc95d705dbe7268d5fb41877b2c584b1f1911485de3917cca7b6c1583",
        # every validator check's verdict, worst value and location
        "tables/assumptions.csv": "865e5b1a37a160aa64044b50fe0e9a42c9c28297c7b3b5fd00f230c62b0c6c9d",
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
        "summary.json": "06119abeea97391aa57357556f5467a9da468710fff900ec0be85865f949dd9a",
        "estimator_report.json": "f1aa70a4c41c4e066784cf688c24d7c249a158766bb0899d1e44869b3c23bbe0",
    },
    "kernel_convergence": {
        "summary.json": "b3e0a2e73e51d6394432cb71b21656c4079cd089958b50424ec2011e3a44222f",
        "estimator_report.json": "7e8d6d82426b422091551095f04d227ec9fdda59ddb5e182dad4e5f21befef27",
    },
    "rate_convergence": {
        "summary.json": "62a5412f6c2938fcb17a64d585b320551bc46551a67bcccd0517445887c8a1f6",
        "estimator_report.json": "652e7eae13450bd52509e056be325b53a194a3dd446a043ec9dea32344ab7245",
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
