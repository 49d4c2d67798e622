"""Self-test of the benchmark on one tiny generated config.

usage: python3 -m pytest perfbench/selftest

Runs the config through the timed path and the traced path of
``perfbench/run.py`` and checks that every metric is emitted by name with
the unit ``BENCHMARK.json`` declares, that the computed operation counts
repeat exactly, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

TINY = {
    "kind": "kernel-convergence",
    "spectral": {"intervals": [[0.0, 1.0]], "h": {"name": "uniform"}, "nodes_per_interval": 20},
    "probe": {"kind": "gaussian-readout", "sigma": 1.0},
    "state": {"type": "pure", "psi": {"name": "exp", "rate": 0.5}},
    "k_max": 1000,
    "checkpoints": [100, 1000],
    "ensemble": 3,
    "hidden_nu": 0.5,
    "window": {"sigmas": 8.0, "nodes": 21},
}
SEED = 7
# metrics the benchmark was specified to report, beyond the ones derived
# from them (their unit comes from BENCHMARK.json)
NAMED = {
    "run_s", "setup_s", "peak_rss_mb",
    "harness.validate_s", "harness.simulate_s", "harness.estimate_s", "harness.write_s",
    "harness.other_s", "harness.coverage_pct", "harness.trace_overhead_s", "harness.cpu_s",
    "harness.bundle_digest_match",
    "probes.loglik_s", "probes.loglik_calls", "probes.loglik_cells",
    "trajectories.sample_s", "trajectories.outcomes",
    "estimators.mle_s", "estimators.mle_calls",
    "probes.relative_entropy_s", "probes.relative_entropy_calls", "probes.relative_entropy_cells",
    "probes.fisher_s", "probes.fisher_calls",
    "estimators.rescaled_kernel_s", "estimators.rescaled_kernel_calls",
    "estimators.trace_norm_s", "estimators.limit_kernel_s", "estimators.laplace_s",
    "spectral.build_s", "spectral.state_bytes",
}
COUNTS = (
    "trajectories.outcomes", "probes.loglik_cells", "probes.loglik_calls",
    "estimators.mle_calls", "estimators.rescaled_kernel_calls", "probes.fisher_calls",
    "spectral.state_bytes",
)


def declared(kind):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    config = tmp / "tiny.json"
    config.write_text(json.dumps(TINY))
    first = run.spawn(run.ROOT, config, SEED, "run", tmp / "record", 0, 120)
    assert "error" not in first, first["error"]
    reference = {"verdicts": first["verdicts"], "digests": first["digests"]}
    return tmp, config, reference


def emitted(summary):
    return {name: m["unit"] for name, m in summary["metrics"].items()}


def test_timed_path_emits_end_to_end_metrics(tiny):
    tmp, config, reference = tiny
    summary = run.measure(run.ROOT, config, SEED, reference, 0.1, False, tmp / "timed")
    assert summary["correct"] and summary["failed"] == 0
    assert summary["digest_match"] == summary["attempted"] >= 1
    assert emitted(summary) == declared("end_to_end")
    assert summary["samples"]["setup_s"] >= run.SETUP_SAMPLES
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    machine = summary["machine"]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= machine.keys()
    assert machine["openblas_threads"] == int(run.BLAS_ENV["OPENBLAS_NUM_THREADS"])


def test_traced_path_emits_per_layer_metrics_with_repeatable_counts(tiny):
    tmp, config, reference = tiny
    runs = [
        run.measure(run.ROOT, config, SEED, reference, 0.1, True, tmp / f"traced{i}")
        for i in range(2)
    ]
    for summary in runs:
        assert summary["correct"] and summary["failed"] == 0
        assert emitted(summary) == declared("per_layer")
    first, second = ({n: s["metrics"][n]["value"] for n in COUNTS} for s in runs)
    assert first == second
    assert first["estimators.rescaled_kernel_calls"] == 3 * 2
    assert first["trajectories.outcomes"] == 3 * 1000


def test_every_named_metric_is_declared():
    assert NAMED <= set(declared("end_to_end")) | set(declared("per_layer"))


def test_changed_verdict_fails_the_repetition(tiny):
    tmp, config, reference = tiny
    wrong = {**reference, "verdicts": {n: not v for n, v in reference["verdicts"].items()}}
    summary = run.measure(run.ROOT, config, SEED, wrong, 0.1, False, tmp / "wrong")
    assert not summary["correct"] and summary["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "born", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
