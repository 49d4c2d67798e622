"""Smoke tests: every demo runs end to end and writes its CSV."""

import csv
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
    if name == "kernel_demo":
        medians = [float(row[1]) for row in rows[1:]]
        assert len(medians) == 3
        assert all(b < a for a, b in zip(medians, medians[1:]))
