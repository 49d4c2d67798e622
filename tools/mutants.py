"""Mutation check: apply listed source mutants to a copy of the repo, run tier-1 on each.

usage: python tools/mutants.py [NAME ...]

Each mutant replaces one piece of text, which must occur exactly once, in a
temporary copy of the working tree.  The tier-1 suite then runs in that copy
with ``-x``: a mutant the suite passes survives.  Mutants judged equivalent
are listed with the reason and not run.  Names select mutants; none selects
all.  Prints one line per mutant, then the score.  Not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/qndsim, text, replacement)
MUTANTS = {
    # a rejection envelope that does not dominate the density draws from another law
    "tabulated-min-envelope": (
        "probes.py",
        "env = np.maximum(rows[:-1], rows[1:])",
        "env = np.minimum(rows[:-1], rows[1:])",
    ),
    "slice-reverses-hidden": (
        "trajectories.py",
        "hidden = None if self.hidden is None else self.hidden[i]",
        "hidden = None if self.hidden is None else self.hidden[i][::-1]",
    ),
    # a declared kind of [] or {} must exit 2, not raise TypeError from a dict lookup
    "kind-lookup-hashes": (
        "harness.py",
        "if not isinstance(self.kind, str) or self.kind not in KINDS:",
        "if self.kind not in KINDS:",
    ),
    # a summary.json whose results are not objects must exit 2
    "report-misses-attribute-error": (
        "cli.py",
        "except (AttributeError, KeyError, TypeError, ValueError) as exc:",
        "except (KeyError, TypeError, ValueError) as exc:",
    ),
    # validate must refuse what _build_cached refuses
    "validate-builds-uncached": (
        "harness.py",
        "    model, state, probe = _build_cached(config.canonical_json())\n    return validate_probe",
        "    model = build_model(config)\n    state = build_state(model, config.state)\n"
        "    probe = build_probe(config, model)\n    return validate_probe",
    ),
    # the flag of the kind table: which kinds search every trajectory
    "born-searches-every-row": (
        "harness.py",
        '"born-frequency": (_estimate_born, False)',
        '"born-frequency": (_estimate_born, True)',
    ),
    "rate-searches-paths-only": (
        "harness.py",
        '"rate-convergence": (_estimate_rate, True)',
        '"rate-convergence": (_estimate_rate, False)',
    ),
    # the dispatch itself
    "clt-dispatches-to-kernel": (
        "harness.py",
        '"clt": (_estimate_clt, True)',
        '"clt": (_estimate_kernel, True)',
    ),
    # estimate_ensemble derives the config hash from the config it estimates
    "config-hash-from-content": (
        "harness.py",
        "    config_hash = config.config_hash()\n    results = [",
        "    config_hash = content_hash\n    results = [",
    ),
    # the shared steps read only the first 100 trajectories
    "paths-of-every-row": (
        "harness.py",
        "    for row in table[:100]:",
        "    for row in table:",
    ),
    "posterior-means-of-every-row": (
        "harness.py",
        "posterior_means(run.state, ensemble[:100], config.k_max)",
        "posterior_means(run.state, ensemble, config.k_max)",
    ),
    # windows sized block by block: an earlier block's zero trace wins over a later
    # block's window that cannot be sized, so the error depends on BLOCK_CELLS
    "sizing-inside-row-blocks": (
        "estimators.py",
        "    halves, subgrids = _window_sizes(model, nus, all_ks, fisher, window_sigmas, min_sigmas)\n"
        "    out = np.empty((2,) + estimates.shape)  # distances, window masses\n"
        "    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors\n"
        "    for block, sums in _sums_blocks(ensemble, ks, row_cells):\n"
        "        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows\n",
        "    out = np.empty((2,) + estimates.shape)  # distances, window masses\n"
        "    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors\n"
        "    for block, sums in _sums_blocks(ensemble, ks, row_cells):\n"
        "        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows\n"
        "        halves, subgrids = _window_sizes(\n"
        "            model, nus[: w.stop], all_ks[: w.stop], fisher[: w.stop],\n"
        "            window_sigmas, min_sigmas,\n"
        "        )\n",
    ),
    # a zero-trace window must exit 2 with one line, not a traceback
    "zero-trace-value-error": (
        "estimators.py",
        "            if trace[i] <= 0:\n"
        '                raise WindowError("rescaled kernel has zero trace on its window")',
        "            if trace[i] <= 0:\n"
        '                raise ValueError("rescaled kernel has zero trace on its window")',
    ),
    # an interval's slice must stop at its last node, not take the atom after it
    "interval-range-off-by-one": (
        "spectral.py",
        'int(np.searchsorted(self.nodes, b, "right")))',
        'int(np.searchsorted(self.nodes, b, "right")) + 1)',
    ),
    # a hidden value off the spectrum (outside the hull or in a gap) must exit 2
    "hidden-nu-unchecked": (
        "harness.py",
        "    if config.hidden_nu is not None:\n        model.region_mask([config.hidden_nu])\n",
        "",
    ),
    # the outcome rule of the laws on the hull is bounded when the probe is built
    "probe-rule-unbounded": (
        "harness.py",
        "    probe._quadrature(np.array(model.hull))",
        "    pass",
    ),
    # a subnormal cell width must be refused with the grid, not fail validation
    "subnormal-cells-accepted": (
        "spectral.py",
        "        if not dx >= np.finfo(float).tiny:",
        "        if not dx > 0:",
    ),
}

EQUIVALENT = {
    "laplace-clip-30": (
        "estimators.py",
        "np.exp(np.clip(expo, None, 50.0))",
        "np.exp(np.clip(expo, None, 30.0))",
        "expo is the log-likelihood less its value at the refined maximum, so it is at "
        "most the quadratic stencil's overshoot inside one cell, far below 30; either "
        "clip only guards an estimate that is not a maximum",
    ),
}


_SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"}


def _ignore(_dir, names):
    return [n for n in names if n in _SKIP]


def run_mutant(path: str, text: str, replacement: str) -> tuple[str, float]:
    """'killed' or 'survived' (or 'stale' if the text is not found once), and seconds."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        source = copy / "src" / "qndsim" / path
        code = source.read_text()
        if code.count(text) != 1:
            return "stale", 0.0
        source.write_text(code.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return ("survived" if proc.returncode == 0 else "killed"), time.monotonic() - start


def main(argv) -> int:
    unknown = sorted(set(argv) - set(MUTANTS) - set(EQUIVALENT))
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [n for n in MUTANTS if not argv or n in argv]
    outcomes = {}
    for name in chosen:
        outcomes[name], seconds = run_mutant(*MUTANTS[name])
        print(f"{name}: {outcomes[name]} ({seconds:.1f} s)", flush=True)
    for name, (*_, reason) in EQUIVALENT.items():
        if not argv or name in argv:
            print(f"{name}: equivalent, not run ({reason})")
    killed = sum(v == "killed" for v in outcomes.values())
    print(f"score: {killed} of {len(outcomes)} killed")
    survivors = [n for n, v in outcomes.items() if v != "killed"]
    if survivors:
        print("not killed: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
