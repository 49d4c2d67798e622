"""Estimators and limit diagnostics built on trajectory log-likelihoods.

The maximum-likelihood estimate of the observable's value is the argmax of
the running log-likelihood sums over the grid, refined below the grid scale
by golden-section search on the probe's exact log-likelihood, read from one
sufficient-statistic table (``ProbeModel.statistic`` and ``stat_loglik``:
counts for finite outcomes, the sample mean and centred sum for the Gaussian
readout, the outcomes themselves otherwise).  On top of it sit the statistics
that make the asymptotic claims measurable at finite k, each read from the row
blocks of an ``Ensemble``:

* consistency frequencies against exact spectral probabilities,
* posterior decay rates of excluded regions against relative entropy,
* standardized residuals ``sqrt(k F) (estimate - hidden)`` for normality
  tests,
* rescaled posterior kernels on a zoom window around the estimate, and the
  Gaussian kernel they converge to, compared in trace norm on the
  mass-weighted matrices.  All kernels are held as factors
  ``Psi diag(d) Psi*`` (rank one for a pure initial state), and the trace
  norm of a difference is the sum of absolute eigenvalues of a Hermitian
  matrix as small as the two factors have columns,
* on the same windows, the Laplace-integral ratio that the Gaussian posterior
  limit rests on.

Sub-grid evaluation interpolates grid values by local three-point
(piecewise-quadratic) Lagrange rules, matching the second-order Taylor
structure of the log-likelihood near its maximum.  The zoom window spans
``8 / sqrt(F)`` rescaled units by default and is shrunk symmetrically when
it would leave the spectrum; it must retain at least ``2 / sqrt(F)``.

The CLT and the Gaussian limits hold on the absolutely continuous spectrum only:
an estimator places all its values on the intervals with one ``interval_of`` call
and carries each value's interval index, which selects the interval's nodes,
bounds and edges and groups the values that share them.

``kernel_distances`` evaluates all windows of a run as one stack: all sized
first, interpolated with one stencil per interval, and compared in groups of
windows with the same live zoom columns and limit rank (never padded, as a
zero column changes the QR bits); the per-window functions are 1-row views.
Each window's Laplace ratio is a midpoint sum, on the window's own nodes, of the
log-likelihood the kernel interpolates there, over the Gaussian value of the
Fisher information that sized the window: no second quadrature rule and no
second Fisher call.  ``laplace_condition_check`` is its one-checkpoint view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .probes import _blocks, relative_entropy
from .spectral import (
    RegionError,
    SpectralModel,
    StateKernel,
    _weighted_gram,
    pure_state,
    spectral_probability,
)
from .trajectories import Ensemble, _logsumexp, _sums_blocks, log_prior_weights

__all__ = [
    "RateTrace",
    "CltSamples",
    "ConsistencyResult",
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
    "rescaled_posterior_kernel",
    "limit_kernel",
    "trace_norm_distance",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_WINDOW_SIGMAS = 8.0    # captures all but ~1e-14 of the Gaussian mass
MIN_WINDOW_SIGMAS = 2.0        # narrower zoom windows are rejected
DEFAULT_WINDOW_NODES = 201     # nodes of a zoom window's grid
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
    ``first[m] + (0, 1, 2)``, the value triple of ``spectral._lagrange3``
    written one node at a time.  Queries outside ``domain`` (the node hull
    widened to the owning interval) raise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ValueError(f"interpolation bracket failure: query outside [{lo}, {hi}]")
    j = np.searchsorted(xs, x)
    left = np.clip(j - 1, 0, xs.size - 1)
    right = np.clip(j, 0, xs.size - 1, out=j)
    first = np.where(np.abs(x - xs[left]) <= np.abs(x - xs[right]), left, right)
    first = np.subtract(np.clip(first, 1, xs.size - 2, out=first), 1, out=first)
    m = xs.size - 2  # stencils; w[s] = (x - x_t)(x - x_u) / ((x_s - x_t)(x_s - x_u))
    w = np.empty((3,) + x.shape)  # each node's weights contiguous, seen as (..., 3)
    for s, (t, u) in enumerate([(1, 2), (0, 2), (0, 1)]):
        den = (xs[s : s + m] - xs[t : t + m]) * (xs[s : s + m] - xs[u : u + m])
        np.multiply(np.subtract(x, xs[t:][first], out=w[s]), x - xs[u:][first], out=w[s])
        np.divide(w[s], den[first], out=w[s])
    return first, np.moveaxis(w, 0, -1)


def _apply_stencil(first: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_s w[..., s] * values[first + s]`` along axis 0, in index order
    (``(w0 v0 + w1 v1) + w2 v2``) through two tables; ``first`` may stack
    queries on any leading axes."""
    w = np.moveaxis(w, -1, 0).reshape((3,) + first.shape + (1,) * (values.ndim - 1))
    term = values[first]
    out = np.multiply(w[0], term)
    for s in (1, 2):
        np.take(values[s:], first, axis=0, out=term, mode="clip")  # "raise" copies out
        out += np.multiply(w[s], term, out=term)
    return out


def _intervals(model: SpectralModel, nus) -> np.ndarray:
    """The interval holding each of ``nus``; the first value that lies on none,
    or on an interval of fewer than 3 nodes, raises ``WindowError``."""
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    js = model.interval_of(nus)
    for i in np.flatnonzero((js < 0) | (model.nodes_per_interval < 3))[:1]:
        if js[i] < 0:
            raise WindowError(
                f"nu={float(nus[i])} has no absolutely continuous neighborhood in the spectrum"
            )
        raise WindowError("interval has fewer than 3 nodes; refine the grid")
    return js


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
    first k outcomes, all searches in one lock-step loop on
    ``probe.stat_loglik`` of the statistics the ensemble holds after each k
    (``Ensemble.stats``, gathered once; O(1) per step for finite outcome
    spaces and the Gaussian readout, O(k) otherwise).  Estimates never leave
    the spectrum.
    """
    lo, hi = np.empty(model.size), np.empty(model.size)  # the bracket of each interval node
    for (a, b), sl in zip(model.intervals, model.interval_slices):
        delta, nodes = (b - a) / model.nodes_per_interval, model.nodes[sl]
        lo[sl], hi[sl] = np.maximum(a, nodes - delta), np.minimum(b, nodes + delta)
    best = np.empty((len(ensemble), len(checkpoints)), dtype=np.intp)
    for sl, sums in _sums_blocks(ensemble, checkpoints):
        best[sl] = np.argmax(sums, axis=-1)  # first occurrence: smallest node wins ties
    table = model.nodes[best]
    cols, rows = np.nonzero(~model.is_atom[best].T)  # the searches, by k, then row
    if rows.size:
        lo, hi = lo[best[rows, cols]], hi[best[rows, cols]]
        stats = ensemble.stats[rows, np.asarray(ensemble._columns(checkpoints))[cols]]
        tol = REFINE_TOL_FACTOR * max(model.hull[1] - model.hull[0], 1.0)
        found = _golden_table(
            lambda idx, nus: probe.stat_loglik(stats[idx], nus[:, None])[:, 0], lo, hi, tol
        )
        table[rows, cols] = np.clip(found, lo, hi)
    return table


def _row_sums(trajectory: Ensemble, k: int) -> np.ndarray:
    """Sums after k of a one-row ensemble, the input of the per-trajectory functions."""
    if len(trajectory) != 1:
        raise ValueError(f"expected a one-row ensemble, got {len(trajectory)} rows")
    return trajectory.sums_after([k])[0, 0]


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
    cps = sorted({int(c) for c in checkpoints if 0 < int(c) <= ensemble.k})
    values = np.empty((len(ensemble), len(cps)))
    for sl, sums in _sums_blocks(ensemble, cps):
        logw = np.add(log_prior, sums, out=sums)  # (rows x checkpoints x nodes), a copy
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
    js = model.interval_of(ensemble.hidden)
    on = js >= 0
    nus, estimates = ensemble.hidden[on], np.asarray(estimates, dtype=float)[on]
    # one one-value Fisher call per distinct hidden value: the rule may depend on the values
    fisher = {nu: float(probe.fisher(np.asarray([nu]))[0]) for nu in dict.fromkeys(nus.tolist())}
    root = np.sqrt(k * np.array([fisher[nu] for nu in nus.tolist()]))
    margin, (lo, hi) = margin_stds / root, np.reshape(model.intervals, (-1, 2))[js[on]].T
    inner = ~((nus - lo < margin) | (hi - nus < margin))
    return CltSamples(
        residuals=root[inner] * (estimates[inner] - nus[inner]),
        excluded_boundary=int(np.count_nonzero(~inner)),
        excluded_atoms=int(np.count_nonzero(~on)),
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
    interval of each window; the first window that cannot be sized raises."""
    nus, ks, fisher = (np.atleast_1d(v) for v in (nus, ks, fisher))
    js = model.interval_of(nus)  # -1 reads the nan bounds past the last interval
    lo, hi = np.append(np.reshape(model.intervals, (-1, 2)), [[np.nan] * 2], axis=0)[js].T
    want, need = window_sigmas / np.sqrt(fisher), min_sigmas / np.sqrt(fisher)
    fit = np.sqrt(ks) * np.minimum(nus - lo, hi - nus)
    halves = np.minimum(want, fit)
    for i in np.flatnonzero((js < 0) | (model.nodes_per_interval < 3) | (halves < need))[:1]:
        _intervals(model, nus[i])  # raises for a window on no interval of 3 nodes
        raise WindowError(
            f"rescaled window of half-width {want[i]:.3g} exits the spectrum at "
            f"k={ks[i]} (room for {fit[i]:.3g}, need {need[i]:.3g})"
        )
    return halves, js


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


@dataclass(frozen=True)
class RescaledKernelResult:
    """Rescaled posterior kernel on a zoom window, with its context."""

    kernel: StateKernel
    window: WindowGrid
    estimate: float
    fisher: float
    window_mass: float


def _zoom_stack(state: StateKernel, model: SpectralModel, sums, grids, js, keys):
    """Rescaled posterior kernels on stacked windows, one row of ``sums`` each: the
    (key, rows) groups of one live-column mask and ``keys`` row, each group's
    factors less the columns its windows miss, the raw traces, each row's
    posterior normalizer over the whole grid, and each window's sum of
    ``exp(L(x) - L(center))`` over its nodes."""
    psi, d = state.factor
    shift = sums.max(axis=-1)
    phi = np.empty(grids.offsets.shape + psi.shape[1:], dtype=complex)
    laplace = np.empty(len(sums))
    positions = grids.positions
    for (j,), rows in _groups(js):  # one stencil an interval, in sub-stacks of windows
        sl = model.interval_slices[j]
        # a window's tables: its queries, their stencil (4), log-likelihood, amplitude
        # and two transients, two complex ones of factor rows, and its row of sums
        cells = (9 + 4 * psi[0].size) * (positions.shape[1] + 1) + sl.stop - sl.start
        for sub in _blocks(rows.size, cells):
            r = rows[sub]
            at = np.concatenate([positions[r], grids.center[r]], axis=1)  # center last
            first, w = _stencil(model.nodes[sl], at, model.intervals[j])
            local = sums[r, sl]  # each window reads its own row, as take_along_axis
            along = first + local.shape[1] * np.arange(r.size)[:, None]
            logl = _apply_stencil(along, w, local.ravel())
            amp = np.exp(0.5 * (logl[:, :-1] - shift[r, None]))
            with np.errstate(over="ignore"):  # inf only around an estimate far below the maximum
                laplace[r] = np.exp(logl[:, :-1] - logl[:, -1:]).sum(axis=-1)
            # K(x, y) = Phi(x) diag(d) Phi(y)*: the stencil acts on the factor's rows
            terms = _apply_stencil(first[:, :-1], w[:, :-1], psi[sl])
            phi[r] = np.multiply(terms, amp[..., None, None], out=terms)
            del at, first, w, local, along, logl, amp, terms  # before the next sub-stack's
    groups = _groups(np.column_stack([np.any(phi != 0, axis=(1, 2)), keys]))
    zooms = [np.ascontiguousarray(phi[rows][..., key[: d.size]]) for key, rows in groups]
    del phi  # the zooms hold what the windows read
    raw = np.empty(len(sums))
    for (key, rows), zoom in zip(groups, zooms):  # StateKernel.trace, one np.dot a row
        block_traces = (np.abs(zoom) ** 2).sum(axis=-2) @ d[key[: d.size]]
        raw[rows] = [np.dot(m, t) for m, t in zip(grids.mass[rows], block_traces)]
    log_terms = sums - shift[:, None]
    log_terms += state.log_weights[0]
    norm = np.empty(len(sums))
    for finite, rows in _groups(np.isfinite(log_terms)):  # finite terms, as a row alone
        norm[rows] = _logsumexp(log_terms[np.ix_(rows, np.flatnonzero(finite))], axis=-1)
    return groups, zooms, raw, np.exp(norm), laplace


def rescaled_posterior_kernel(
    state: StateKernel, trajectory: Ensemble, k: int, model: SpectralModel, probe, *,
    estimate: float, window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    window_nodes: int = DEFAULT_WINDOW_NODES, min_sigmas: float = MIN_WINDOW_SIGMAS,
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
    halves, js = _window_sizes(model, nu_hat, k, fisher, window_sigmas, min_sigmas)
    grids = _window_grids(model, nu_hat, k, halves, window_nodes)
    [(live, _)], [phi], raw, grid_norm, _ = _zoom_stack(
        state, model, sums[None], grids, js, np.empty((1, 0), dtype=bool)
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


def _limit_stack(model: SpectralModel, state: StateKernel, nus, fisher, offsets, js):
    """Gaussian limits on stacked windows: ``g`` times the eigenvectors of each
    normalized block, their eigenvalues (columns only where ``live``, the block
    trace positive), and the density at each estimate."""
    psi, d = state.factor
    n = psi.shape[1]
    block = np.empty((nus.size, n, n), dtype=complex)
    for (j,), rows in _groups(js):
        sl = model.interval_slices[j]
        first, w = _stencil(model.nodes[sl], nus[rows], model.intervals[j])
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
    (psi,), (lam,), (live,), (h_at,) = _limit_stack(
        model, state, np.array([nu_hat]), np.array([fisher]), window.offsets[None],
        _intervals(model, nu_hat),
    )
    if h_at <= 0:
        raise WindowError(f"spectral density vanishes at nu={nu_hat}")
    n = lam.size if live else 0
    return StateKernel(None, window, factor=(psi[..., :n], lam[:n] / h_at))


def kernel_distances(
    state: StateKernel, ensemble: Ensemble, checkpoints: Sequence[int],
    model: SpectralModel, probe, *, estimates, window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    window_nodes: int = DEFAULT_WINDOW_NODES, min_sigmas: float = MIN_WINDOW_SIGMAS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace-norm distances of the rescaled posterior kernels to their Gaussian
    limits, the window masses and the Laplace ratios, at the refined ``estimates``
    (E x C) after each checkpoint of each trajectory: three E x C arrays, the first
    two bit for bit the per-window functions'.  All windows are sized first: the
    first that cannot be sized raises ``WindowError``, else the first with zero
    kernel trace or density at its estimate.

    A Laplace ratio is the window's midpoint sum of ``exp(L(u) - L(nu_hat))`` in
    ``x = sqrt(k)(u - nu_hat)``, L the sums interpolated as for the kernel, over
    ``sqrt(2 pi / F)``; near 1 it supports the Gaussian limit.  A window cut by the
    spectrum edge reports the mass it holds, missing the tails past both ends."""
    psi, d = state.factor
    ks = np.asarray(checkpoints)
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != (len(ensemble), ks.size):
        raise ValueError(f"estimates of shape {estimates.shape} for an ensemble of "
                         f"{len(ensemble)} rows and {ks.size} checkpoints")
    nus, all_ks = estimates.ravel(), np.tile(ks, len(estimates))
    fisher = np.array([probe.fisher(np.asarray([nu]))[0] for nu in nus.tolist()], dtype=float)
    halves, js = _window_sizes(model, nus, all_ks, fisher, window_sigmas, min_sigmas)
    out = np.empty((3,) + estimates.shape)  # distances, window masses, Laplace ratios
    row_cells = ks.size * window_nodes * psi[0].size  # a row's zoom factors
    for block, sums in _sums_blocks(ensemble, ks, row_cells):
        w = slice(block.start * ks.size, block.stop * ks.size)  # the block's windows
        grids = _window_grids(model, nus[w], all_ks[w], halves[w], window_nodes)
        vecs, lam, rank, h_at = _limit_stack(
            model, state, nus[w], fisher[w], grids.offsets, js[w]
        )
        groups, zooms, raw, grid_norm, laplace = _zoom_stack(
            state, model, sums.reshape(-1, sums.shape[-1]), grids, js[w], rank[:, None]
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
        ratio = laplace * grids.spacing[:, 0] / np.sqrt(2.0 * math.pi / fisher[w])
        out[:, block] = np.stack([dist, trace / grid_norm, ratio]).reshape(3, -1, ks.size)
    return tuple(out)


def laplace_condition_check(
    ensemble: Ensemble, k: int, model: SpectralModel, probe, *, estimates: Sequence[float],
) -> np.ndarray:
    """The Laplace ratio after k outcomes of each trajectory around ``estimates``,
    its refined estimate at k (the ``mle_table`` column at k), as an (E,) array: the
    ratio column of a one-checkpoint ``kernel_distances`` under a flat pure state."""
    state = pure_state(model, np.ones(model.size))
    estimates = np.asarray(estimates, dtype=float)[:, None]
    return kernel_distances(state, ensemble, [k], model, probe, estimates=estimates)[2][:, 0]


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
