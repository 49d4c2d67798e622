"""Every demo runs end to end and writes its CSV, byte for byte the pinned one."""

import csv
import hashlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

CSV_OF = {
    "clt_demo": "clt_residuals.csv",
    "kernel_demo": "kernel_distance.csv",
    "purification_demo": "purification_weights.csv",
    "rate_demo": "rate_trace.csv",
}

# sha256 of each CSV, the same at 1, 2 and 4 BLAS threads: a change that moves a
# demo's numbers updates these and says why
CSV_SHA256 = {
    "clt_demo": "41358b6bcb1456c8c06c686fb53ec5e0e8a6b5158f843b577c383b965f45fc62",
    "kernel_demo": "b3612dfac9985b99d5a54ccb0a97e5b32045b3cfc1a89c868665514e18185dca",
    "purification_demo": "cdc9c9f3590250c72590d5b3258bd9ddd6e6242833a5428af0daa0939462eb84",
    "rate_demo": "1b11ac22814f0535bd61344eebc817845718fab5c095b94381a7106c5599e180",
}


def _run_demo(name: str, out: Path) -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = out
    module.main()
    with open(out / CSV_OF[name], newline="") as fh:
        return list(csv.reader(fh))


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(CSV_OF)


@pytest.mark.parametrize("name", sorted(CSV_OF))
def test_demo_writes_its_csv(name, tmp_path):
    rows = _run_demo(name, tmp_path)
    assert len(rows) > 1  # a header and at least one data row
    digest = hashlib.sha256((tmp_path / CSV_OF[name]).read_bytes()).hexdigest()
    assert digest == CSV_SHA256[name]
    if name == "kernel_demo":
        medians = [float(row[1]) for row in rows[1:]]
        assert len(medians) == 3
        assert all(b < a for a, b in zip(medians, medians[1:]))
