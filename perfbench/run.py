"""Benchmark of the shipped qndsim experiments, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of ``WORKLOADS`` or ``all``.  Each repetition runs one shipped
config, unmodified, through ``run_experiment`` in a fresh interpreter (see
``child.py``); one repetition follows another.  A fresh process pays for
imports, the model build and ``validate_probe`` the way every ``qndsim
verify`` does, and no in-process cache can carry over between repetitions.

Seed N runs the config with seed ``SHIPPED_SEED + N % SEED_COUNT`` (the
shipped seed when N is left out).  Those are the seeds whose verdicts and
bundle digests ``reference.json`` holds, recorded by ``record.py`` at the
commit that added the benchmark.  A repetition fails when it raises or when
a verdict differs from the reference; a bundle digest that differs is only
counted, in ``bundle_digest_match``.

With ``--trace 0`` the run reports the end-to-end metrics, measured without
tracing.  With ``--trace 1`` untraced and traced repetitions alternate; the
traced ones give the per-layer metrics of ``spans.py`` and the difference
of the medians gives the tracing overhead.  The last line of standard
output is one JSON object; the lines before it print every metric by name
with its unit, and ``.perfbench_out/`` keeps the full result with a record
of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# workload -> (shipped config, the layer it is chosen for).  BENCHMARK.json
# gates only rate and kernel: born and clt_binary spend their time in the
# interpreter, and on a shared 2-core VM their run time swings by 30-40 %
# from one minute to the next, wider than any bound a gate can use.
WORKLOADS = {
    "born": ("born_frequency.json", "probes.loglik_s"),
    "clt_binary": ("clt_binary.json", "estimators.mle_s"),
    "rate": ("rate_convergence.json", "probes.relative_entropy_s"),
    "kernel": ("kernel_convergence.json", "estimators.rescaled_kernel_s"),
}
SHIPPED_SEED = 20260810
SEED_COUNT = 10
# one BLAS thread: both commits of a comparison run alike, and a neighbour
# on a small shared machine disturbs a single-threaded run least
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "harness.validate_s": "s",
    "harness.simulate_s": "s",
    "harness.estimate_s": "s",
    "harness.write_s": "s",
    "harness.other_s": "s",
    "harness.coverage_pct": "%",
    "harness.traced_run_s": "s",
    "harness.trace_overhead_s": "s",
    "harness.cpu_s": "s",
    "harness.bundle_digest_match": "count",
    "probes.loglik_s": "s",
    "probes.loglik_calls": "count",
    "probes.loglik_cells": "count",
    "trajectories.sample_s": "s",
    "trajectories.outcomes": "count",
    "estimators.mle_s": "s",
    "estimators.mle_calls": "count",
    "probes.relative_entropy_s": "s",
    "probes.relative_entropy_calls": "count",
    "probes.relative_entropy_cells": "count",
    "probes.fisher_s": "s",
    "probes.fisher_calls": "count",
    "estimators.rescaled_kernel_s": "s",
    "estimators.rescaled_kernel_calls": "count",
    "estimators.trace_norm_s": "s",
    "estimators.limit_kernel_s": "s",
    "estimators.laplace_s": "s",
    "spectral.build_s": "s",
    "spectral.state_bytes": "bytes",
}
# layer self times, among which the chosen layer of a workload should lead
SELF_TIMES = [
    n for n in PER_LAYER
    if n.endswith("_s") and n not in ("harness.traced_run_s", "harness.trace_overhead_s", "harness.cpu_s")
]


def config_seed(seed: int | None) -> int:
    return SHIPPED_SEED if seed is None else SHIPPED_SEED + seed % SEED_COUNT


def machine_record(blas_threads) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": BLAS_ENV,
        "openblas_threads": blas_threads,
    }


def spawn(root: Path, config: Path, seed: int, mode: str, rep_dir: Path, rep: int, timeout: float) -> dict:
    """Run one child repetition; the result carries ``error`` when it failed."""
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(config), str(seed), mode, str(rep_dir), str(rep)]
    env = {**os.environ, **BLAS_ENV}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    shutil.rmtree(rep_dir / "bundle", ignore_errors=True)
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        return {"mode": mode, "error": lines[-1] if lines else f"exit code {proc.returncode}"}
    result = json.loads(result_path.read_text())
    result["mode"] = mode
    result["setup_s"] = result.pop("bound_at") - spawned_at
    return result


def check(result: dict, reference: dict | None) -> None:
    """Mark a repetition failed unless its verdicts equal the reference."""
    if "error" in result:
        return
    if reference is None:
        result["error"] = "no reference outputs for this seed"
    elif result["verdicts"] != reference["verdicts"]:
        result["error"] = f"verdicts {result['verdicts']} differ from {reference['verdicts']}"
    result["digest_match"] = reference is not None and result["digests"] == reference["digests"]


def measure(root: Path, config: Path, seed: int, reference: dict | None, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Repeat the workload for ``seconds`` and summarise it (see module doc)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    children = 0

    def child(mode):
        nonlocal children
        children += 1
        left = deadline - time.monotonic()
        return spawn(root, config, seed, mode, out_dir / f"rep{children}", children, left)

    child("setup")  # warm-up: page cache and bytecode, untimed
    modes = ("run", "trace") if trace else ("run",)
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        for mode in modes:
            reps.append(child(mode))
            check(reps[-1], reference)
        elapsed = time.monotonic() - start
        cycle = elapsed * len(modes) / len(reps)
        if elapsed + cycle > seconds or time.monotonic() + cycle > deadline:
            break
    setups = [r["setup_s"] for r in reps if "error" not in r and r["mode"] == "run"]
    extra = []
    while not trace and len(setups) < SETUP_SAMPLES and deadline - time.monotonic() > 10:
        extra.append(child("setup"))
        if "error" in extra[-1]:
            break
        setups.append(extra[-1]["setup_s"])

    # a set-up child is an attempt of its own only when it fails
    failed = [r for r in reps + extra if "error" in r]
    ok = {m: [r for r in reps if r["mode"] == m and "error" not in r] for m in modes}
    summary = {
        "attempted": len(reps) + sum("error" in r for r in extra),
        "failed": len(failed),
        "digest_match": sum(bool(r.get("digest_match")) for r in reps),
        "reps": reps + extra,
        "machine": machine_record(next((r["blas_threads"] for r in reps if "blas_threads" in r), None)),
        "metrics": {},
    }
    summary["correct"] = not failed and all(ok.values())
    if not summary["correct"]:
        return summary
    run_s = statistics.median(r["run_s"] for r in ok["run"])
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in ok["trace"])
            for name in ok["trace"][0]["layers"]
        }
        layers["harness.trace_overhead_s"] = layers["harness.traced_run_s"] - run_s
        layers["harness.bundle_digest_match"] = summary["digest_match"]
        summary["metrics"] = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
        summary["layers.largest"] = max(SELF_TIMES, key=layers.__getitem__)
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok["run"]),
        }
        summary["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    summary["samples"] = {"run_s": len(ok["run"]), "setup_s": len(setups), "peak_rss_mb": len(ok["run"])}
    return summary


def print_summary(name: str, seed: int, summary: dict) -> None:
    config, chosen = WORKLOADS[name]
    reps = [r for r in summary["reps"] if r["mode"] != "setup"]
    print(f"{name}: configs/{config}, seed {seed}, {len(reps)} repetitions")
    for r in summary["reps"]:
        if "error" in r:
            print(f"  failed {r['mode']} repetition: {r['error']}")
    samples = summary.get("samples", {})
    for metric, m in summary["metrics"].items():
        n = samples.get(metric)
        tail = f"  (median of {n})" if n else ""
        print(f"  {metric:32s} {m['value']:.6g} {m['unit']}{tail}")
    rate = summary["failed"] / max(summary["attempted"], 1)
    print(f"  {'error_rate':32s} {rate:.6g} ratio  ({summary['failed']} failed of {summary['attempted']})")
    print(f"  {'bundle_digest_match':32s} {summary['digest_match']} of {len(reps)}")
    if "layers.largest" in summary:
        print(f"  largest self time: {summary['layers.largest']} (chosen for {chosen})")
    print("  machine: " + json.dumps(summary["machine"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [ROOT / "src" / "qndsim" / "__init__.py"] + [ROOT / "configs" / WORKLOADS[n][0] for n in names]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "reference.json").read_text())
    seed = config_seed(args.seed)
    status = 0
    for name in names:
        config = WORKLOADS[name][0]
        out_dir = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
        reference = references.get(name, {}).get(str(seed))
        summary = measure(ROOT, ROOT / "configs" / config, seed, reference, args.seconds, bool(args.trace), out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "result.json", "w") as fh:
            json.dump({"workload": name, "config_seed": seed, **summary}, fh, indent=1)
        print_summary(name, seed, summary)
        line = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
        status = status or (0 if summary["metrics"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
