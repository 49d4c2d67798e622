"""Estimators and limit diagnostics built on trajectory log-likelihoods.

The maximum-likelihood estimate of the observable's value is the argmax of
the running log-likelihood sums over the grid, refined below the grid scale
by golden-section search on the probe's exact log-likelihood objective
(``ProbeModel.loglik_objective``: counts for finite outcomes, the sample mean
and centred sum for the Gaussian readout, the per-outcome sum otherwise).  On top of it sit the statistics that make the asymptotic claims
measurable at finite k, each read from the row blocks of an ``Ensemble``:

* consistency frequencies against exact spectral probabilities,
* posterior decay rates of excluded regions against relative entropy,
* standardized residuals ``sqrt(k F) (estimate - hidden)`` for normality
  tests,
* the Laplace-integral ratio that the Gaussian posterior limit rests on,
* rescaled posterior kernels on a zoom window around the estimate, and the
  Gaussian kernel they converge to, compared in trace norm on the
  mass-weighted matrices.  All kernels are held as factors
  ``Psi diag(d) Psi*`` (rank one for a pure initial state), and the trace
  norm of a difference is the sum of absolute eigenvalues of a Hermitian
  matrix as small as the two factors have columns.

Sub-grid evaluation interpolates grid values by local three-point
(piecewise-quadratic) Lagrange rules, matching the second-order Taylor
structure of the log-likelihood near its maximum.  The zoom window spans
``8 / sqrt(F)`` rescaled units by default and is shrunk symmetrically when
it would leave the spectrum; it must retain at least ``2 / sqrt(F)``.

``kernel_distances`` evaluates all windows of a run as one stack: all sized
first, interpolated with one stencil per interval, and compared in groups of
windows with the same live zoom columns and limit rank (never padded, as a
zero column changes the QR bits); the per-window functions are 1-row views.
The Laplace check stays per trajectory, as one stencil of all trajectories'
quadrature points falls out of cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .probes import relative_entropy
from .spectral import (
    RegionError,
    SpectralModel,
    StateKernel,
    _composite_gauss,
    _weighted_gram,
    spectral_probability,
)
from .trajectories import Ensemble, _logsumexp, _row_sums, _sums_blocks, log_prior_weights

__all__ = [
    "RateTrace",
    "CltSamples",
    "ConsistencyResult",
    "LaplaceCheck",
    "RescaledKernelResult",
    "WindowGrid",
    "WindowError",
    "EstimatorReport",
    "mle",
    "mle_table",
    "mle_consistency_stat",
    "rate_region",
    "rate_traces",
    "clt_samples",
    "laplace_condition_check",
    "kernel_distances",
    "build_window_grid",
    "rescaled_posterior_kernel",
    "limit_kernel",
    "trace_norm_distance",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_WINDOW_SIGMAS = 8.0    # captures all but ~1e-14 of the Gaussian mass
MIN_WINDOW_SIGMAS = 2.0        # narrower zoom windows are rejected
REFINE_TOL_FACTOR = 1e-8       # golden-section tolerance, times hull width


class WindowError(ValueError):
    """Raised when a rescaled zoom window cannot be built: it does not fit inside
    the spectrum, its kernel has zero trace, or the density vanishes at its center."""


# ---------------------------------------------------------------------------
# sub-grid interpolation

def _stencil(xs: np.ndarray, x, domain) -> tuple[np.ndarray, np.ndarray]:
    """Local three-point Lagrange rule on sorted nodes ``xs``.

    Each query uses the parabola through the three nodes nearest to it, the
    standard second-order reconstruction: query ``m`` is interpolated by
    weights ``w[m]`` (shape (M, 3), or x.shape + (3,)) on nodes
    ``first[m] + (0, 1, 2)``.
    Queries outside ``domain`` (the node hull widened to the owning
    interval) raise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ValueError(f"interpolation bracket failure: query outside [{lo}, {hi}]")
    j = np.searchsorted(xs, x)
    left = np.clip(j - 1, 0, xs.size - 1)
    right = np.clip(j, 0, xs.size - 1)
    c = np.where(np.abs(x - xs[left]) <= np.abs(x - xs[right]), left, right)
    c = np.clip(c, 1, xs.size - 2)
    x0, x1, x2 = xs[c - 1], xs[c], xs[c + 1]
    w = np.stack(
        [
            (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2)),
            (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2)),
            (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1)),
        ],
        axis=-1,
    )
    return c - 1, w


def _apply_stencil(first: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_s w[..., s] * values[first + s]`` along axis 0, in index order;
    ``first`` may stack queries on any leading axes."""
    w = np.moveaxis(w, -1, 0).reshape((3,) + first.shape + (1,) * (values.ndim - 1))
    return w[0] * values[first] + w[1] * values[first + 1] + w[2] * values[first + 2]


def _interpolate(xs: np.ndarray, ys: np.ndarray, x, domain) -> np.ndarray:
    """Values at ``x`` of the three-point rule through ``(xs, ys)``."""
    return _apply_stencil(*_stencil(xs, x, domain), ys)


def _interval_subgrid(model: SpectralModel, nu: float):
    """Nodes of the interval containing nu, its slice, and its bounds."""
    j = model.interval_index(nu)
    if j is None:
        raise WindowError(
            f"nu={nu} has no absolutely continuous neighborhood in the spectrum"
        )
    sl = model.interval_node_range(j)
    if sl.stop - sl.start < 3:
        raise WindowError("interval has fewer than 3 nodes; refine the grid")
    return sl, model.intervals[j]


# ---------------------------------------------------------------------------
# maximum likelihood

def _golden_table(objective, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Golden-section maxima of unimodal objectives on the brackets [a, b], all
    advanced together: each bracket takes the steps a search on its own would,
    and ``objective(idx, nus)`` is asked only for the live brackets ``idx``."""
    h = b - a
    n = np.array([math.ceil(math.log(tol / w) / math.log(_INV_PHI)) if w > tol else 0 for w in h])
    a, b = a.copy(), b.copy()
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    live = np.flatnonzero(n > 0)
    yc, yd = np.zeros(h.size), np.zeros(h.size)
    yc[live], yd[live] = objective(live, c[live]), objective(live, d[live])
    for step in range(1, n.max(initial=0)):
        live = live[n[live] > step]
        h[live] *= _INV_PHI
        up = yc[live] > yd[live]  # keep [a, d] and its point c, else [c, b] and d
        a[live], b[live] = np.where(up, a[live], c[live]), np.where(up, d[live], b[live])
        keep_x, keep_y = np.where(up, c[live], d[live]), np.where(up, yc[live], yd[live])
        new_x = a[live] + np.where(up, _INV_PHI2, _INV_PHI) * h[live]
        new_y = objective(live, new_x)
        c[live], d[live] = np.where(up, new_x, keep_x), np.where(up, keep_x, new_x)
        yc[live], yd[live] = np.where(up, new_y, keep_y), np.where(up, keep_y, new_y)
    return np.where(n > 0, 0.5 * np.where(yc > yd, a + d, c + b), 0.5 * (a + b))


def mle_table(
    ensemble: Ensemble, checkpoints: Sequence[int], model: SpectralModel, probe
) -> np.ndarray:
    """Maximum-likelihood estimates after each k in ``checkpoints``, one row per trajectory.

    The grid argmax breaks ties toward the smallest node.  Interval-node
    maxima are polished by golden-section search over the bracketing cells
    (tolerance 1e-8 of the hull width) on the exact log-likelihood of the
    first k outcomes, all searches in one lock-step loop on the batched
    ``probe.loglik_objective`` (O(1) per step for finite outcome spaces and
    the Gaussian readout, O(k) otherwise).  Estimates never leave the spectrum.
    """
    table = np.empty((len(ensemble), len(checkpoints)))
    brackets, prefixes = [], []  # (row, column, lo, hi) of each search, its outcomes
    for sl, sums in _sums_blocks(ensemble, checkpoints):
        best = np.argmax(sums, axis=-1)  # first occurrence: smallest node wins ties
        table[sl] = model.nodes[best]
        for (r, i), idx in np.ndenumerate(best):
            nu0 = float(model.nodes[idx])
            j = None if model.is_atom[idx] else model.interval_index(nu0)
            if j is None:
                continue
            a, b = model.intervals[j]
            delta = (b - a) / model.nodes_per_interval
            brackets.append((sl.start + r, i, max(a, nu0 - delta), min(b, nu0 + delta)))
            prefixes.append(ensemble.outcomes[sl.start + r, : checkpoints[i]])
    if brackets:
        rows, cols, lo, hi = (np.asarray(v) for v in zip(*brackets))
        tol = REFINE_TOL_FACTOR * max(model.hull[1] - model.hull[0], 1.0)
        found = _golden_table(probe.loglik_objective(prefixes, lo, hi), lo, hi, tol)
        table[rows, cols] = np.clip(found, lo, hi)
    return table


def mle(trajectory: Ensemble, k: int, model: SpectralModel, probe) -> float:
    """Maximum-likelihood estimate after k outcomes of a one-row ensemble: its
    1 x 1 ``mle_table``."""
    _row_sums(trajectory, k)  # one row, holding sums after k
    return float(mle_table(trajectory, [k], model, probe)[0, 0])


@dataclass(frozen=True)
class ConsistencyResult:
    """Empirical frequency of estimates in a region vs the exact probability."""

    frequency: float
    exact_probability: float
    ci_halfwidth: float
    count: int


def mle_consistency_stat(
    ensemble: Ensemble, k: int, model: SpectralModel, region, state: StateKernel,
    ci_sigmas: float = 3.0,
) -> ConsistencyResult:
    """Frequency of grid estimates falling in a region, with its exact target.

    Membership is decided on grid nodes (no sub-grid refinement), so the
    region mask and the estimate live on the same discretization.
    """
    if len(ensemble) == 0:
        raise ValueError("empty ensemble")
    mask = model.region_mask(region)
    hits = 0
    for _, sums in _sums_blocks(ensemble, [k]):
        hits += int(np.count_nonzero(mask[np.argmax(sums[:, 0], axis=-1)]))
    exact = spectral_probability(state, region)
    ci = ci_sigmas * math.sqrt(max(exact * (1.0 - exact), 0.0) / len(ensemble))
    return ConsistencyResult(
        frequency=hits / len(ensemble),
        exact_probability=exact,
        ci_halfwidth=ci,
        count=len(ensemble),
    )


# ---------------------------------------------------------------------------
# large-deviation rate

@dataclass(frozen=True)
class RateTrace:
    """Per-checkpoint decay rates of posterior mass on a region.

    ``values[c] = -(1/k_c) log posterior_mass(region)``; the target is the
    relative entropy from the final estimate's law to the region.
    """

    checkpoints: tuple[int, ...]
    values: tuple[float, ...]
    target: float
    estimate: float


def rate_region(model: SpectralModel, state: StateKernel, region):
    """Node mask of a rate region and the log prior weights.

    Raises ``RegionError`` when the region misses the grid or carries no
    prior spectral mass.
    """
    mask = model.region_mask(region)
    log_prior = log_prior_weights(state)
    if not np.any(np.isfinite(log_prior[mask])):
        raise RegionError(
            "region has zero prior spectral mass; the rate statement assumes "
            "the region meets the support of the initial spectral measure"
        )
    return mask, log_prior


def rate_traces(
    state: StateKernel, ensemble: Ensemble, region, checkpoints: Iterable[int],
    model: SpectralModel, probe, *, estimates: Sequence[float],
) -> list[RateTrace]:
    """Posterior decay rates on ``region`` at the checkpoints in (0, k], k the
    trajectory length, one trace per trajectory (sums read in row blocks).

    ``estimates`` holds each trajectory's refined estimate after the last
    checkpoint (its ``mle_table`` entry); the target rate is the relative
    entropy from its law to the region.
    """
    mask, log_prior = rate_region(model, state, region)
    k = ensemble.outcomes.shape[1]
    cps = sorted({int(c) for c in checkpoints if 0 < int(c) <= k})
    values = np.empty((len(ensemble), len(cps)))
    for sl, sums in _sums_blocks(ensemble, cps):
        logw = log_prior + sums  # (rows x checkpoints x nodes)
        # region terms node-major in each row, as in one trajectory's logw[:, mask]: same sums
        region_w = np.ascontiguousarray(logw.swapaxes(1, 2)[:, mask]).swapaxes(1, 2)
        values[sl] = -(_logsumexp(region_w, axis=-1) - _logsumexp(logw, axis=-1)) / np.asarray(cps)
    return [
        RateTrace(
            checkpoints=tuple(cps),
            values=tuple(float(v) for v in row),
            target=float(relative_entropy(probe, float(estimate), model.nodes[mask])),
            estimate=float(estimate),
        )
        for row, estimate in zip(values, estimates)
    ]


# ---------------------------------------------------------------------------
# central-limit statistics

@dataclass(frozen=True)
class CltSamples:
    """Standardized residuals sqrt(k F(nu)) (estimate - nu) of an ensemble."""

    residuals: np.ndarray
    excluded_boundary: int
    excluded_atoms: int

    @property
    def count(self) -> int:
        return int(self.residuals.size)


def clt_samples(
    ensemble: Ensemble, k: int, model: SpectralModel, probe, *,
    estimates: Sequence[float], margin_stds: float = 5.0,
) -> CltSamples:
    """Standardized estimator residuals against the hidden values.

    Needs mixture-sampled trajectories (hidden value recorded) and sub-grid
    refinement.  Hidden values within ``margin_stds / sqrt(k F)`` of their
    interval's boundary, or sitting on atoms, are excluded and counted; the
    residuals of the rest are returned, possibly none.  ``estimates`` holds
    the refined estimate of each trajectory after k outcomes (the ``mle_table``
    column at k).
    """
    if ensemble.hidden is None:
        raise ValueError("clt_samples needs trajectories with hidden values")
    residuals = []
    excluded_boundary = 0
    excluded_atoms = 0
    fisher_cache: dict[float, float] = {}
    for nu, estimate in zip(ensemble.hidden.tolist(), estimates):
        j = model.interval_index(nu)
        if j is None:
            excluded_atoms += 1
            continue
        if nu not in fisher_cache:
            fisher_cache[nu] = float(probe.fisher(np.asarray([nu]))[0])
        fisher = fisher_cache[nu]
        margin = margin_stds / math.sqrt(k * fisher)
        a, b = model.intervals[j]
        if nu - a < margin or b - nu < margin:
            excluded_boundary += 1
            continue
        residuals.append(math.sqrt(k * fisher) * (float(estimate) - nu))
    return CltSamples(
        residuals=np.asarray(residuals),
        excluded_boundary=excluded_boundary,
        excluded_atoms=excluded_atoms,
    )


@dataclass(frozen=True)
class LaplaceCheck:
    """Ratio of the rescaled likelihood integral to its Gaussian value.

    The numerator integrates ``exp(L(u) - L(nu_hat))`` in the rescaled
    variable ``x = sqrt(k)(u - nu_hat)`` over the interval owning the
    estimate (other spectral components are exponentially suppressed);
    the denominator is ``sqrt(2 pi / F(nu_hat))``.  Values near 1 support
    the Gaussian posterior limit; this is a diagnostic, small-k values
    far from 1 are expected.
    """

    ratio: float
    numerator: float
    denominator: float
    estimate: float
    fisher: float


_GL16 = np.polynomial.legendre.leggauss(16)


def laplace_condition_check(
    trajectory: Ensemble, k: int, model: SpectralModel, probe, *, estimate: float,
) -> LaplaceCheck:
    """``LaplaceCheck`` after k outcomes of a one-row ensemble around
    ``estimate``, the refined estimate at k (its ``mle_table`` entry)."""
    sums = _row_sums(trajectory, k)
    nu_hat = float(estimate)
    sl, (a, b) = _interval_subgrid(model, nu_hat)
    xs, ys = model.nodes[sl], sums[sl]
    fisher = float(probe.fisher(np.asarray([nu_hat]))[0])
    l_hat = float(_interpolate(xs, ys, nu_hat, (a, b))[0])

    sqrt_k = math.sqrt(k)
    edges = sqrt_k * (np.linspace(a, b, (sl.stop - sl.start) + 1) - nu_hat)
    xq, wq = _composite_gauss(edges, _GL16)
    expo = _interpolate(xs, ys, nu_hat + xq / sqrt_k, (a, b)) - l_hat
    numerator = float(wq @ np.exp(np.clip(expo, None, 50.0)))
    denominator = math.sqrt(2.0 * math.pi / fisher)
    return LaplaceCheck(
        ratio=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        estimate=nu_hat,
        fisher=fisher,
    )


# ---------------------------------------------------------------------------
# rescaled posterior kernels and the Gaussian limit

@dataclass(frozen=True, eq=False)
class WindowGrid:
    """Midpoint grid on a rescaled zoom window around an estimate.

    Nodes are rescaled offsets ``x`` with original positions
    ``center + x / scale``; node mass is ``spacing * hvals`` with the
    spectral density evaluated at the original positions, matching the
    weighted space the kernel comparison lives in.  A stack of M windows
    holds (M x W) ``offsets`` and ``hvals``, and the rest as (M x 1).
    """

    offsets: np.ndarray
    spacing: float
    center: float
    scale: float
    hvals: np.ndarray
    multiplicity: int = 1

    @property
    def nodes(self) -> np.ndarray:
        return self.offsets

    @property
    def mass(self) -> np.ndarray:
        return self.spacing * self.hvals

    @property
    def positions(self) -> np.ndarray:
        """Original-variable positions of the window nodes."""
        return self.center + self.offsets / self.scale

    def row(self, m: int) -> "WindowGrid":
        """Window ``m`` of a stack."""
        at = [float(v[m, 0]) for v in (self.spacing, self.center, self.scale)]
        return WindowGrid(self.offsets[m], *at, self.hvals[m], self.multiplicity)


def _window_sizes(model, nus, ks, fisher, window_sigmas, min_sigmas):
    """Half-widths of the zoom windows around ``nus`` after ``ks`` outcomes, and the
    (node slice, bounds) of each window's interval; the first unsizable window raises."""
    nus, ks, fisher = (np.atleast_1d(v) for v in (nus, ks, fisher))
    halves, subgrids = [], []
    for nu, k, f in zip(nus.tolist(), ks.tolist(), fisher.tolist()):
        sl, (a, b) = _interval_subgrid(model, nu)
        want, need = window_sigmas / math.sqrt(f), min_sigmas / math.sqrt(f)
        fit = math.sqrt(k) * min(nu - a, b - nu)
        if min(want, fit) < need:
            raise WindowError(
                f"rescaled window of half-width {want:.3g} exits the spectrum at "
                f"k={k} (room for {fit:.3g}, need {need:.3g})"
            )
        halves.append(min(want, fit))
        subgrids.append((sl, (a, b)))
    return np.asarray(halves), subgrids


def _window_grids(model, nus, ks, halves, window_nodes) -> WindowGrid:
    """Midpoint grids of sized windows around the estimates ``nus`` as one stack."""
    half = np.reshape(halves, (-1, 1))
    spacing = 2.0 * half / window_nodes
    offsets = -half + (np.arange(window_nodes) + 0.5) * spacing
    center, scale = np.reshape(nus, (-1, 1)), np.sqrt(np.reshape(ks, (-1, 1)))
    hvals = np.asarray(model.h_fn((center + offsets / scale).ravel()), dtype=float)
    hvals = hvals.reshape(offsets.shape)
    return WindowGrid(offsets, spacing, center, scale, hvals, model.multiplicity)


def _groups(keys) -> list:
    """(key, rows) for each distinct row of ``keys`` (one value or a row a window),
    by the row's bytes (``np.unique(axis=0)`` takes 3.5 ms for 60 x 400 bools)."""
    groups: dict = {}
    for i, key in enumerate(np.reshape(keys, (len(keys), -1))):
        groups.setdefault(key.tobytes(), (key, []))[1].append(i)
    return [(key, np.array(rows)) for key, rows in groups.values()]


def build_window_grid(
    model: SpectralModel,
    nu_hat: float,
    k: int,
    fisher: float,
    window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    window_nodes: int = 201,
    min_sigmas: float = MIN_WINDOW_SIGMAS,
) -> WindowGrid:
    """Zoom window of half-width ``window_sigmas / sqrt(fisher)`` (rescaled).

    The window is shrunk symmetrically so its original-variable image stays
    inside the interval owning the estimate; if that leaves less than
    ``min_sigmas / sqrt(fisher)``, the window cannot fit and a
    ``WindowError`` is raised.
    """
    halves, _ = _window_sizes(model, nu_hat, k, fisher, window_sigmas, min_sigmas)
    return _window_grids(model, nu_hat, k, halves, window_nodes).row(0)


@dataclass(frozen=True)
class RescaledKernelResult:
    """Rescaled posterior kernel on a zoom window, with its context."""

    kernel: StateKernel
    window: WindowGrid
    estimate: float
    fisher: float
    window_mass: float


def _zoom_stack(state: StateKernel, model: SpectralModel, sums, grids, subgrids, keys):
    """Rescaled posterior kernels on stacked windows, one row of ``sums`` each: the
    (key, rows) groups of one live-column mask and ``keys`` row, each group's
    factors less the columns its windows miss, the raw traces, and each row's
    posterior normalizer over the whole grid."""
    psi, d = state.factor
    shift = sums.max(axis=-1)
    phi = np.empty(grids.offsets.shape + psi.shape[1:], dtype=complex)
    for _, rows in _groups([sl.start for sl, _ in subgrids]):  # one stencil an interval
        sl, bounds = subgrids[rows[0]]
        first, w = _stencil(model.nodes[sl], grids.positions[rows], bounds)
        local = sums[rows][:, sl]  # each window reads its own row, as take_along_axis
        along = first + local.shape[1] * np.arange(rows.size)[:, None]
        amp = np.exp(0.5 * (_apply_stencil(along, w, local.ravel()) - shift[rows, None]))
        # K(x, y) = Phi(x) diag(d) Phi(y)*: the stencil acts on the factor's rows
        phi[rows] = _apply_stencil(first, w, psi[sl]) * amp[..., None, None]
    groups = _groups(np.column_stack([np.any(phi != 0, axis=(1, 2)), keys]))
    zooms = [np.ascontiguousarray(phi[rows][..., key[: d.size]]) for key, rows in groups]
    raw = np.empty(len(sums))
    for (key, rows), zoom in zip(groups, zooms):  # StateKernel.trace, one np.dot a row
        block_traces = (np.abs(zoom) ** 2).sum(axis=-2) @ d[key[: d.size]]
        raw[rows] = [np.dot(m, t) for m, t in zip(grids.mass[rows], block_traces)]
    log_terms = sums - shift[:, None] + state.log_weights[0]
    norm = np.empty(len(sums))
    for finite, rows in _groups(np.isfinite(log_terms)):  # finite terms, as a row alone
        norm[rows] = _logsumexp(np.ascontiguousarray(log_terms[rows][:, finite]), axis=-1)
    return groups, zooms, raw, np.exp(norm)


def rescaled_posterior_kernel(
    state: StateKernel, trajectory: Ensemble, k: int, model: SpectralModel, probe, *,
    estimate: float, window_sigmas: float = DEFAULT_WINDOW_SIGMAS, window_nodes: int = 201,
    min_sigmas: float = MIN_WINDOW_SIGMAS,
) -> RescaledKernelResult:
    """Posterior kernel of a one-row ensemble zoomed by sqrt(k) around
    ``estimate``, the refined estimate at k (its ``mle_table`` entry).

    Evaluates ``rho_k(nu_hat + x / sqrt(k), nu_hat + y / sqrt(k)) / sqrt(k)``
    on the window grid, interpolating both the log-likelihood sums and the
    rows of the initial kernel's factor piecewise-quadratically, and holds
    the result as a factor with the initial kernel's weights (less the
    columns that vanish on the window), normalized to unit discrete trace
    on its own window (the discrete image of trace preservation under the
    zoom); ``window_mass`` records the posterior mass the window captured
    relative to the whole grid.
    """
    sums = _row_sums(trajectory, k)
    nu_hat = float(estimate)
    fisher = float(probe.fisher(np.asarray([nu_hat]))[0])
    halves, subgrids = _window_sizes(model, nu_hat, k, fisher, window_sigmas, min_sigmas)
    grids = _window_grids(model, nu_hat, k, halves, window_nodes)
    [(live, _)], [phi], raw, grid_norm = _zoom_stack(
        state, model, sums[None], grids, subgrids, np.empty((1, 0), dtype=bool)
    )
    raw_trace, window = float(raw[0]), grids.row(0)
    if raw_trace / window.scale <= 0:
        raise WindowError("rescaled kernel has zero trace on its window")
    return RescaledKernelResult(
        kernel=StateKernel(None, window, factor=(phi[0], state.factor[1][live] / raw_trace)),
        window=window,
        estimate=nu_hat,
        fisher=fisher,
        window_mass=raw_trace / window.scale / float(grid_norm[0]),
    )


def _limit_stack(model: SpectralModel, state: StateKernel, nus, fisher, offsets, subgrids):
    """Gaussian limits on stacked windows: ``g`` times the eigenvectors of each
    normalized block, their eigenvalues (columns only where ``live``, the block
    trace positive), and the density at each estimate."""
    psi, d = state.factor
    n = psi.shape[1]
    block = np.empty((nus.size, n, n), dtype=complex)
    for _, rows in _groups([sl.start for sl, _ in subgrids]):
        sl, bounds = subgrids[rows[0]]
        first, w = _stencil(model.nodes[sl], nus[rows], bounds)
        near = psi[sl][first[:, None] + np.arange(3)]  # K[i, i] = Psi[i] diag(d) Psi[i]*
        block[rows] = np.einsum("mi,miab->mab", w, (near * d) @ near.conj().swapaxes(-1, -2))
    trace = np.trace(block, axis1=1, axis2=2).real
    live = trace > 0.0
    lam, vecs = np.zeros((nus.size, n)), np.zeros((nus.size, n, n), dtype=complex)
    c_block = block[live] / trace[live, None, None]
    lam[live], vecs[live] = np.linalg.eigh(0.5 * (c_block + c_block.conj().swapaxes(-1, -2)))
    coef = np.array([(f / (2.0 * math.pi)) ** 0.25 for f in fisher.tolist()])  # scalar pow
    g = coef[:, None] * np.exp(-0.25 * fisher[:, None] * offsets**2)
    return g[..., None, None] * vecs[:, None], lam, live, np.asarray(model.h_fn(nus), dtype=float)


def limit_kernel(
    model: SpectralModel,
    state: StateKernel,
    nu_hat: float,
    fisher: float,
    window: WindowGrid,
) -> StateKernel:
    """The Gaussian limit of the rescaled posterior on a zoom window.

    Builds ``c(nu_hat) * G(x, y) / h(nu_hat)`` where ``c`` is the initial
    kernel's diagonal block at the estimate normalized by its block trace
    (the zero kernel when that diagonal vanishes), ``G`` the normalized
    Gaussian kernel with inverse variance ``fisher``, and ``h`` the
    spectral density at the estimate.  ``G(x, y) = g(x) g(y)`` with
    ``g(x) = (F / 2 pi)^(1/4) exp(-F x^2 / 4)``, so the kernel is held as
    the factor ``g`` times the eigenvectors of the Hermitian part of ``c``,
    weighted by its eigenvalues over ``h`` (no columns for the zero kernel).
    """
    if fisher <= 0:
        raise ValueError("fisher must be positive")
    subgrids = [_interval_subgrid(model, nu_hat)]
    (psi,), (lam,), (live,), (h_at,) = _limit_stack(
        model, state, np.array([nu_hat]), np.array([fisher]), window.offsets[None], subgrids
    )
    if h_at <= 0:
        raise WindowError(f"spectral density vanishes at nu={nu_hat}")
    n = lam.size if live else 0
    return StateKernel(None, window, factor=(psi[..., :n], lam[:n] / h_at))


def kernel_distances(
    state: StateKernel, ensemble: Ensemble, checkpoints: Sequence[int],
    model: SpectralModel, probe, *, estimates, window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    window_nodes: int = 201, min_sigmas: float = MIN_WINDOW_SIGMAS,
) -> tuple[np.ndarray, np.ndarray]:
    """Trace-norm distances of the rescaled posterior kernels to their Gaussian
    limits, and the window masses, at the refined ``estimates`` (E x C) after each
    checkpoint of each trajectory: two E x C arrays, bit for bit the per-window
    functions'.  All windows are sized first: the first that cannot be sized raises
    ``WindowError``, else the first with zero kernel trace or density at its estimate."""
    psi, d = state.factor
    ks = np.asarray(checkpoints)
    estimates = np.asarray(estimates, dtype=float)
    nus, all_ks = estimates.ravel(), np.tile(ks, len(estimates))
    fisher = np.array([probe.fisher(np.asarray([nu]))[0] for nu in nus.tolist()], dtype=float)
    halves, subgrids = _window_sizes(model, nus, all_ks, fisher, window_sigmas, min_sigmas)
    out = np.empty((2,) + estimates.shape)  # distances, window masses
    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors
    for block, sums in _sums_blocks(ensemble, ks, row_cells):
        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows
        grids = _window_grids(model, nus[w], all_ks[w], halves[w], window_nodes)
        vecs, lam, rank, h_at = _limit_stack(
            model, state, nus[w], fisher[w], grids.offsets, subgrids[w]
        )
        groups, zooms, raw, grid_norm = _zoom_stack(
            state, model, sums.reshape(-1, sums.shape[-1]), grids, subgrids[w], rank[:, None]
        )
        trace = raw / grids.scale[:, 0]
        for i in np.flatnonzero((trace <= 0) | (h_at <= 0))[:1]:
            if trace[i] <= 0:
                raise WindowError("rescaled kernel has zero trace on its window")
            raise WindowError(f"spectral density vanishes at nu={nus[w][i]}")
        dist = np.empty(len(trace))
        for (key, rows), zoom in zip(groups, zooms):
            n = psi.shape[1] if key[-1] else 0
            limit = (vecs[rows][..., :n], lam[rows, :n] / h_at[rows, None])
            zoom = (zoom, d[key[:-1]] / raw[rows, None])
            dist[rows] = _trace_norms(grids.mass[rows], zoom, limit)
        out[:, block] = np.stack([dist, trace / grid_norm]).reshape(2, -1, ks.size)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# trace norm

def trace_norm_distance(a: StateKernel, b: StateKernel) -> float:
    """Trace norm of the difference of mass-weighted matrices: sum |eigenvalues|.

    With mass-weighted factors ``A = U diag(d_a) U*``, ``B = V diag(d_b) V*``
    and the QR factorization ``[U V] = Q R``, ``A - B = Q R diag(d_a, -d_b) R* Q*``:
    the nonzero spectrum of the difference is that of the small Gram
    ``R diag(d_a, -d_b) R*`` (``spectral._weighted_gram``, square in
    ``min(N n, r_a + r_b)``).  A norm distance: symmetric, triangle
    inequality, zero only for equal kernels, and exactly 0 for equal factors
    (so for equal declared values).  Both kernels must live on one grid: the
    same object, or grids with equal nodes and masses.
    """
    ga, gb = a.grid, b.grid
    if ga is not gb and not (
        np.array_equal(ga.nodes, gb.nodes) and np.array_equal(ga.mass, gb.mass)
    ):
        raise ValueError("kernels live on mismatched grids")
    return float(_trace_norms(ga.mass, a.factor, b.factor))


def _trace_norms(mass: np.ndarray, a, b) -> np.ndarray:
    """``trace_norm_distance`` of stacked factor pairs: leading axes of ``mass``
    (..., N) and of the factors stack windows with one column count each."""
    (psi_a, d_a), (psi_b, d_b) = a, b
    equal = np.zeros(d_a.shape[:-1], dtype=bool)
    if psi_a.shape == psi_b.shape:
        equal = (d_a == d_b).all(axis=-1) & (psi_a == psi_b).all(axis=(-3, -2, -1))
    if equal.all():
        return np.zeros(equal.shape)  # R D R* of [U U] does not cancel to exact zeros
    gram = _weighted_gram(mass, (psi_a, d_a), (psi_b, -d_b))
    return np.where(equal, 0.0, np.abs(np.linalg.eigvalsh(gram)).sum(axis=-1))


# ---------------------------------------------------------------------------
# report container

@dataclass
class EstimatorReport:
    """Estimator outputs of one experiment, ready for serialization."""

    kind: str
    seeds: dict
    tolerances: dict
    mle_paths: list[dict] = field(default_factory=list)
    rate_traces: list[dict] = field(default_factory=list)
    clt_residuals: list[float] = field(default_factory=list)
    distance_series: list[dict] = field(default_factory=list)
    laplace_checks: list[dict] = field(default_factory=list)
    consistency: dict | None = None
    posterior_means: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
