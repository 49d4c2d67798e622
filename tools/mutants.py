"""Mutation check: apply listed source mutants to a copy of the repo, run tier-1 on each.

usage: python tools/mutants.py [NAME ...]

Each mutant replaces one piece of text, which must occur exactly once, in a
temporary copy of the working tree.  The tier-1 suite then runs in that copy
with ``-x``: a mutant the suite passes survives.  Mutants judged equivalent
are listed with the reason and not run.  A run longer than ``TIME_LIMIT_S``
is stopped, with every process it started, and reported as ``timed out``: the
suite did not pass, but it did not fail either.  Names select mutants; none
selects all.  Prints one line per mutant, then the score.  Not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 300  # a mutant's tier-1 run; an unmutated run takes under a minute

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
    # the kind table's dispatch
    "clt-dispatches-to-kernel": (
        "harness.py",
        '"clt": _estimate_clt,',
        '"clt": _estimate_kernel,',
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
        "    halves, js = _window_sizes(model, nus, all_ks, fisher, window_sigmas, min_sigmas)\n"
        "    out = np.empty((3,) + estimates.shape)  # distances, window masses, Laplace ratios\n"
        "    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors\n"
        "    for block, sums in _sums_blocks(ensemble, ks, row_cells):\n"
        "        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows\n",
        "    out = np.empty((3,) + estimates.shape)  # distances, window masses, Laplace ratios\n"
        "    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors\n"
        "    for block, sums in _sums_blocks(ensemble, ks, row_cells):\n"
        "        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows\n"
        "        halves, js = _window_sizes(\n"
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
        "slice(s, s + int(nodes_per_interval))",
        "slice(s, s + int(nodes_per_interval) + 1)",
    ),
    # interval_of: a value on a lower end, on an upper end, and on no interval
    "interval-of-lower-end-left": (
        "spectral.py",
        'j = np.searchsorted(lo, values, side="right") - 1',
        'j = np.searchsorted(lo, values, side="left") - 1',
    ),
    "interval-of-upper-end-open": (
        "spectral.py",
        "np.where(values <= np.append(hi, np.nan)[j], j, -1)",
        "np.where(values < np.append(hi, np.nan)[j], j, -1)",
    ),
    "interval-of-sentinel-zero": (
        "spectral.py",
        "np.where(values <= np.append(hi, np.nan)[j], j, -1)",
        "np.where(values <= np.append(hi, np.nan)[j], j, 0)",
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
    # a value absent from a record adds exactly 0, not 0 * log 0 = nan
    "absent-values-unmasked": (
        "probes.py",
        "np.where(stats[:, :, None] > 0, np.moveaxis(logf, 0, 1), 0.0)",
        "np.where(stats[:, :, None] >= 0, np.moveaxis(logf, 0, 1), 0.0)",
    ),
    # each search reads the statistic after its own k, not after the last one
    "statistics-gathered-after-k": (
        "estimators.py",
        "stats = ensemble.stats[rows, np.asarray(ensemble._columns(checkpoints))[cols]]",
        "stats = ensemble.stats[rows, -1]",
    ),
    # a Gaussian record of no outcomes has log-likelihood 0 at every nu
    "gaussian-empty-statistic-nan": (
        "probes.py",
        "stats = np.zeros((len(rows), 4))",
        "stats = np.full((len(rows), 4), np.nan)",
    ),
    # a tabulated law of no mass is refused with its declaration
    "zero-mass-table-accepted": (
        "probes.py",
        "        if empty:\n            raise ProbeError(",
        "        if False:\n            raise ProbeError(",
    ),
    # a non-adjacent survivor needs its own sum, not its row's adjacent one
    "far-pairs-read-adjacent-sums": (
        "probes.py",
        "            distances[far] = _far_distances(probe, xs, wq, nodes, first[far], second[far])\n",
        "            pass\n",
    ),
    # near-equal distances are located at the first pair in (i, j) order
    "identifiability-last-near-pair": (
        "probes.py",
        "        k = _first_near(distances, worst)\n",
        "        k = distances.size - 1 - _first_near(distances[::-1], worst)\n",
    ),
    # a matrix-vector product over a (block rows x pairs) table rounds by width
    "pair-sums-by-matrix-product": (
        "probes.py",
        "return np.add.accumulate(d, axis=0, out=d)[-1]",
        "return np.ones(len(d)) @ d",
    ),
    # a sum along axis 0 adds a contiguous lone column in unrolled order, not row after row
    "pair-sums-along-axis-0": (
        "probes.py",
        "return np.add.accumulate(d, axis=0, out=d)[-1]",
        "return d.sum(axis=0)",
    ),
    # every row block adds its part of each adjacent distance
    "sweep-drops-a-blocks-adjacent-sums": (
        "probes.py",
        "        near += _l1_sums(w, f[:, 1:], f[:, :-1], work[1])\n",
        "        near += _l1_sums(w, f[:, 1:], f[:, :-1], work[1]) * (sl.start > 0)\n",
    ),
    # a region component is closed: an atom on its lower end belongs to it
    "region-open-at-lower-atom": (
        "spectral.py",
        "sel = self.is_atom & (self.nodes >= r0) & (self.nodes <= r1)",
        "sel = self.is_atom & (self.nodes > r0) & (self.nodes <= r1)",
    ),
    # a 1-D wave function fills every entry of a multiplicity-n block
    "pure-state-one-block-entry": (
        "spectral.py",
        "psi = psi[:, None] if n == 1 else np.tile(psi[:, None], (1, n))",
        "psi = psi[:, None] if n != 1 else np.tile(psi[:, None], (1, n))",
    ),
    # a bracket reaching down to its interval's lower end, or below the spectrum
    "bracket-lower-end-by-minimum": (
        "estimators.py",
        "np.maximum(a, nodes - delta)",
        "np.minimum(a, nodes - delta)",
    ),
    # each row of the posterior weights is normalised over its own nodes
    "posterior-weights-normalised-over-rows": (
        "trajectories.py",
        "np.divide(w, w.sum(axis=-1, keepdims=True), out=out[sl])",
        "np.divide(w, w.sum(axis=0, keepdims=True), out=out[sl])",
    ),
    # a posterior mean is one dot of its own row, not a row of a matrix-vector product
    "posterior-means-one-matrix-product": (
        "trajectories.py",
        "return [float(np.dot(w, nodes)) for w in posterior_weights(state, ensemble, k)]",
        "return (posterior_weights(state, ensemble, k) @ nodes).tolist()",
    ),
    # a negative tolerance can never pass; a nan one passes or fails without a message
    "tolerance-negative-accepted": (
        "harness.py",
        'if not 0.0 <= v < math.inf or (k == "ks_alpha" and v > 1.0):',
        'if not -math.inf < v < math.inf or (k == "ks_alpha" and v > 1.0):',
    ),
    "tolerance-nan-accepted": (
        "harness.py",
        'if not 0.0 <= v < math.inf or (k == "ks_alpha" and v > 1.0):',
        'if v < 0.0 or v == math.inf or (k == "ks_alpha" and v > 1.0):',
    ),
    "ks-alpha-above-one-accepted": (
        "harness.py",
        'if not 0.0 <= v < math.inf or (k == "ks_alpha" and v > 1.0):',
        "if not 0.0 <= v < math.inf:",
    ),
    # a zoom window of zero, negative or nan sigmas
    "window-zero-sigmas-accepted": (
        "harness.py",
        "            if not 0.0 < v < math.inf:\n",
        "            if not 0.0 <= v < math.inf:\n",
    ),
    "window-nan-sigmas-accepted": (
        "harness.py",
        "            if not 0.0 < v < math.inf:\n",
        "            if v <= 0.0 or v == math.inf:\n",
    ),
    # a nan region end would snap to the interval start
    "region-nan-end-accepted": (
        "spectral.py",
        "if not (np.isfinite(r0) and np.isfinite(r1)):",
        "if not (np.isfinite(r0) or np.isfinite(r1)):",
    ),
    "region-nan-point-accepted": (
        "spectral.py",
        "                if not np.isfinite(p):\n",
        "                if False:\n",
    ),
    # a check point is left out only when its central difference holds a knot
    "knot-test-leaves-out-every-point": (
        "probes.py",
        "        straddles = (np.searchsorted(probe._nus, nu - FD_STEP)\n                     < ",
        "        straddles = (np.searchsorted(probe._nus, nu - FD_STEP)\n                     <= ",
    ),
    "knot-test-drops-a-knot": (
        "probes.py",
        "        straddles = (np.searchsorted(probe._nus, nu - FD_STEP)\n"
        '                     < np.searchsorted(probe._nus, nu + FD_STEP, "right"))\n',
        "        knots = np.delete(probe._nus, len(probe._nus) // 2)  # the middle knot\n"
        "        straddles = (np.searchsorted(knots, nu - FD_STEP)\n"
        '                     < np.searchsorted(knots, nu + FD_STEP, "right"))\n',
    ),
    # f1^2 / f is divided everywhere: where a narrow density underflows to 0
    # (sigma = 0.01) it is 0 / 0 unless zeroed
    "ratio-not-zeroed-where-f-vanishes": (
        "probes.py",
        "    ratio[~(f > 0)] = 0.0\n",
        "",
    ),
    "workspace-row-too-long": (
        "probes.py",
        "planes = [plane[: len(xs[sl]) * n].reshape(-1, n) for plane in work]",
        "planes = [plane.reshape(-1, n) for plane in work]",
    ),
    # each panel's partial sums hold its own rows: one row later drops the first row
    "panel-sums-one-row-late": (
        "probes.py",
        "np.diff((np.arange(rows) + sl.start) // panel, prepend=-1)",
        "np.diff((np.arange(rows) + sl.start - 1) // panel, prepend=-1)",
    ),
    # the ensemble keeps each prefix's statistic: counts accumulate over segments,
    # and any other statistic is taken of the whole prefix
    "prefix-counts-of-one-segment": (
        "trajectories.py",
        "stats.append(stats[-1] + seg if j else seg)",
        "stats.append(seg)",
    ),
    "prefix-statistic-of-one-segment": (
        "trajectories.py",
        "stats.append(probe.statistic(block[:, :b]))",
        "stats.append(probe.statistic(block[:, a:b]))",
    ),
    # the prefix k held twice when it is a checkpoint, the layout before the held prefixes
    "k-column-held-twice": (
        "trajectories.py",
        "return tuple(sorted({int(c) for c in checkpoints if 0 <= int(c) <= k} | {k}))",
        "return (*sorted({int(c) for c in checkpoints if 0 <= int(c) <= k}), k)",
    ),
    # every row's generator made before the first block (9 MB for born_frequency)
    "generators-before-first-block": (
        "trajectories.py",
        "rngs = (trajectory_rng(master_seed, i) for i in range(size))",
        "rngs = iter([trajectory_rng(master_seed, i) for i in range(size)])",
    ),
    # a block sized by its outcomes alone builds a (rows x N) sum table of
    # every row when k is short (clt_gaussian: one 2,000-row block)
    "sampler-block-sized-by-k": (
        "trajectories.py",
        "for sl in _blocks(size, max(k, width * nodes.size)):",
        "for sl in _blocks(size, k):",
    ),
    # the Gaussian hook must round as density_derivs does: u = d / sigma^2, not z / sigma
    "gaussian-hook-score-from-z": (
        "probes.py",
        "u = np.divide(d, self.sigma**2, out=f2)",
        "u = np.divide(z, self.sigma, out=f2)",
    ),
    # the one quadratic rule: its derivative weights, and who reads which
    "lagrange-slope-numerator-flipped": (
        "spectral.py",
        "((a1 + a2) / d0, (a0 + a2) / d1, (a0 + a1) / d2)",
        "((a1 - a2) / d0, (a0 + a2) / d1, (a0 + a1) / d2)",
    ),
    "lagrange-curve-weight-one": (
        "spectral.py",
        "(2.0 / d0, 2.0 / d1, 2.0 / d2)",
        "(1.0 / d0, 2.0 / d1, 2.0 / d2)",
    ),
    # a density clipped to 0 has derivatives 0, not those of the negative interpolant
    "tabulated-derivs-where-clipped": (
        "probes.py",
        "return f, np.where(f > 0, slope, 0.0), np.where(f > 0, curve, 0.0)",
        "return f, slope, curve",
    ),
    # the stencil's weight of each node, one node at a time, and their sum in index
    # order: (w0 v0 + w2 v2) + w1 v1 rounds differently
    "stencil-weight-of-wrong-node": (
        "estimators.py",
        "enumerate([(1, 2), (0, 2), (0, 1)])",
        "enumerate([(1, 2), (0, 1), (0, 2)])",
    ),
    "stencil-sum-reordered": (
        "estimators.py",
        "    for s in (1, 2):\n",
        "    for s in (2, 1):\n",
    ),
    # the zoom windows interpolated in sub-stacks: each window once
    "zoom-sub-stack-off-by-one": (
        "estimators.py",
        "r = rows[sub]",
        "r = rows[sub.start : sub.stop - 1]",
    ),
    # each weighted factor in its own columns of the Gram's one buffer
    "gram-buffer-column-off-by-one": (
        "spectral.py",
        "out=w[..., end - psi.shape[-1] : end]",
        "out=w[..., end - psi.shape[-1] + 1 : end + 1]",
    ),
    # the Laplace ratio of a window: L-hat is the sums interpolated at the estimate,
    # not the grid maximum; the run reads the k_max column; the sum is times spacing
    "laplace-l-hat-from-grid-max": (
        "estimators.py",
        "np.exp(logl[:, :-1] - logl[:, -1:])",
        "np.exp(logl[:, :-1] - shift[rows, None])",
    ),
    "laplace-ratio-at-first-checkpoint": (
        "harness.py",
        "ratios = ratios[:, col[config.k_max]].tolist()",
        "ratios = ratios[:, 0].tolist()",
    ),
    "laplace-spacing-dropped": (
        "estimators.py",
        "ratio = laplace * grids.spacing[:, 0] / np.sqrt(",
        "ratio = laplace / np.sqrt(",
    ),
    # exact ties of a uniform draw: Generator.random can return 0.0 exactly
    "binary-one-at-p1": (
        "probes.py",
        "return (rng.random(size) < p1).astype(float)",
        "return (rng.random(size) <= p1).astype(float)",
    ),
    "tabulated-accepts-zero-density": (
        "probes.py",
        "accept = rng.random(m) * env[cells] < self.density(",
        "accept = rng.random(m) * env[cells] <= self.density(",
    ),
    # a rejection loop that never exits: the time limit reports it
    "tabulated-rejection-loop-never-ends": (
        "probes.py",
        "        while filled < size:\n",
        "        while filled <= size:\n",
    ),
}

EQUIVALENT = {
    "golden-width-at-tol": (
        "estimators.py",
        "if w > tol else 0 for w in h",
        "if w >= tol else 0 for w in h",
        "a width equal to tol gives log(tol / w) = 0, so ceil(0 / log(1 / phi)) = 0 steps, "
        "as the else branch does",
    ),
    "gaussian-hook-regroups-exponent": (
        "probes.py",
        "np.exp(np.multiply(np.multiply(-0.5, z, out=f), z, out=f), out=f)",
        "np.exp(np.multiply(-0.5, np.multiply(z, z, out=f), out=f), out=f)",
        "halving is exact, so (-0.5 z) z and -0.5 (z z) round alike unless z z is "
        "subnormal or overflows; there the exponent is below 1e-300 in size, or past "
        "-1e308, and exp gives 1.0, or 0.0, either way",
    ),
}


_SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"}


def _ignore(_dir, names):
    return [n for n in names if n in _SKIP]


def run_mutant(path: str, text: str, replacement: str) -> tuple[str, float]:
    """'killed', 'survived' or 'timed out' (or 'stale' if the text is not found
    once), and seconds."""
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
        proc = subprocess.Popen(  # its own process group: the suite starts subprocesses
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            status = proc.wait(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out", time.monotonic() - start
        return ("survived" if status == 0 else "killed"), time.monotonic() - start


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
    timed_out = sum(v == "timed out" for v in outcomes.values())
    print(f"score: {killed} of {len(outcomes)} killed, {timed_out} timed out")
    survivors = [n for n, v in outcomes.items() if v not in ("killed", "timed out")]
    if survivors:
        print("not killed: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
