"""One repetition of a workload, in a fresh interpreter.

usage: child.py ROOT CONFIG SEED MODE REP_DIR REP_ID

Calls ``run_experiment`` the way ``qndsim verify --seed SEED`` does:
the seed overrides the config's, the content hash is the git blob hash of
the raw config bytes, the bundle goes to ``REP_DIR/bundle`` and
``workers=1``.  MODE is ``setup`` (stop once model, state and probe are
bound), ``run`` (untraced) or ``trace`` (spans around every layer, see
``spans.py``).  The result goes to ``REP_DIR/result.json``; the parent
treats a missing result as a failed repetition.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    root, config_path, seed, mode, rep_dir, rep_id = argv
    root, rep_dir = Path(root), Path(rep_dir)
    sys.path.insert(0, str(root / "src"))
    import qndsim.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(root.resolve() / "src"):
        raise SystemExit(f"qndsim imported from {harness.__file__}, not from {root}/src")

    raw = Path(config_path).read_bytes()
    tree = json.loads(raw)
    tree["seed"] = int(seed)
    config = harness.ExperimentConfig.from_dict(tree)
    content_hash = harness.git_blob_sha1(raw)

    def build():
        model = harness.build_model(config)
        return model, harness.build_state(model, config.state)

    tracer = None
    if mode == "trace":
        from spans import BUILD_SPAN, RUN_SPAN, Tracer

        tracer = Tracer(int(rep_id))
        build = tracer.wrap(build, BUILD_SPAN)
    model, state = build()
    harness.build_probe(config, model)
    bound_at = time.monotonic()
    result = {"bound_at": bound_at}

    if mode != "setup":
        bundle_dir = rep_dir / "bundle"
        run = harness.run_experiment
        if tracer is not None:
            tracer.install()
            run = tracer.wrap(run, RUN_SPAN)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        bundle = run(config, out_dir=bundle_dir, workers=1, content_hash=content_hash)
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["verdicts"] = {r.name: bool(r.passed) for r in bundle.results}
        result["digests"] = {
            name: _sha256(bundle_dir / name)
            for name in ("summary.json", "estimator_report.json")
        }
        result["blas_threads"] = blas_threads()
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers["spectral.state_bytes"] = int(state.values.nbytes)
            layers["harness.cpu_s"] = result["cpu_s"]
            result["layers"] = layers
            tracer.write(rep_dir / "spans.json")
    with open(rep_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
