"""Where one cold run of a shipped config spends its page faults and time.

usage: python tools/coldrun.py CONFIG

CONFIG names a file in ``configs/`` (``kernel_convergence``).  In this
fresh interpreter, runs ``run_experiment`` once as ``qndsim verify`` does,
with the bundle in a temporary directory, and prints one JSON line: for
the set-up (importing ``qndsim``, parsing the config and building its
model, state and probe, as perfbench's ``setup_s`` does; the run builds
its own), for each of the stages validate, simulate, estimate and write,
and for the whole run, the minor page faults (``ru_minflt``), the
high-water resident set size in MB after it (``ru_maxrss``: the process's
peak so far, so the stage where it grows is the one that set the peak),
the resident set size in MB after it (``VmRSS`` of ``/proc/self/status``:
what the stage left resident), user and system CPU milliseconds and wall
milliseconds.  A stage is timed around the harness call that does it,
which is looked up by name, as a tracer would; nothing in the run changes.
Not part of tier-1 (its smoke test is).
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_utime, r.ru_stime, time.perf_counter(), r.ru_maxrss


def _vmrss_mb() -> float:
    """The resident set size now, in MB (``VmRSS`` is in kB)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return round(int(line.split()[1]) / 1024, 2)
    raise RuntimeError("no VmRSS line in /proc/self/status")


def _stage(start, end) -> dict:
    faults, user, sys_, wall, _ = (b - a for a, b in zip(start, end))
    return {
        "minflt": faults,
        "maxrss_mb": round(end[-1] / 1024, 2),  # ru_maxrss is in KiB on Linux
        "vmrss_mb": _vmrss_mb(),
        "user_ms": round(1e3 * user, 3),
        "sys_ms": round(1e3 * sys_, 3),
        "wall_ms": round(1e3 * wall, 3),
    }


def _record(stages: dict, name: str, func):
    def timed(*args, **kwargs):
        start = _usage()
        try:
            return func(*args, **kwargs)
        finally:
            stages[name] = _stage(start, _usage())

    return timed


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    path = ROOT / "configs" / f"{argv[0]}.json"
    if not path.is_file():
        print(f"no shipped config {argv[0]!r} in {path.parent}", file=sys.stderr)
        return 2
    start = _usage()
    sys.path.insert(0, str(ROOT / "src"))
    from qndsim import harness

    raw = path.read_bytes()
    config = harness.ExperimentConfig.from_dict(json.loads(raw))
    model = harness.build_model(config)  # held through the run, as perfbench's child holds it
    state, probe = harness.build_state(model, config.state), harness.build_probe(config, model)
    stages: dict = {"setup": _stage(start, _usage())}
    for owner, attr, name in (
        (harness, "validate_probe", "validate"),
        (harness, "simulate_ensemble", "simulate"),
        (harness, "estimate_ensemble", "estimate"),
        (harness.ReportBundle, "write", "write"),
    ):
        setattr(owner, attr, _record(stages, name, getattr(owner, attr)))
    run = _record(stages, "run", harness.run_experiment)
    with tempfile.TemporaryDirectory(prefix="coldrun-") as tmp:
        run(config, out_dir=Path(tmp) / "bundle", content_hash=harness.git_blob_sha1(raw))
    print(json.dumps({"config": argv[0], **stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
