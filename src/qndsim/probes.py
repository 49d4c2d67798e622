"""Probe-outcome statistics: conditional densities, scores, and validators.

A probe model is a family of outcome densities ``f(xi | nu)`` indexed by the
value ``nu`` of the measured observable, together with its log-likelihood
``l(nu | xi) = log f(xi | nu)`` and the first two nu-derivatives.  The jump
amplitude attached to an outcome is the nonnegative square root
``sqrt(f(xi | nu))``; families carrying complex phases are rejected at
construction.

Three built-in families are provided, each with exact derivatives:

* ``GaussianReadout``: a homodyne-style readout, ``xi ~ Normal(nu, sigma^2)``
  on the real line.
* ``BinaryPhase``: a two-outcome phase probe with ``f(0|nu) = cos^2(phi/2)``
  and ``f(1|nu) = sin^2(phi/2)`` for an affine phase ``phi = offset +
  slope * nu``; with the identity phase map the family is valid for spectra
  inside (0, pi).  This mirrors dispersive photon-number probes of a cavity
  mode.
* ``TabulatedProbe``: a density table, quadratic in nu on three-knot stencils;
  its derivatives are the parabola's (one-sided at a knot).

The jump operators are functions of the observable, so a law ``f(. | nu)`` is
only ever needed for ``nu`` on its spectrum; the harness refuses a pinned
hidden value off it.

Every expectation over outcomes (normalization, mean score, Fisher
information, relative entropy and the validator's checks) uses one rule per
probe, ``ProbeModel._quadrature``: exact sums on finite outcome spaces, and
otherwise 32 Gauss-Legendre points on each panel the family places.  The
Gaussian family cuts its window of radius 8 sigma around the laws into panels
no wider than sigma / 2, at most ``MAX_RULE_PANELS`` of them (a rule that
would need more raises ``ProbeError``); a continuous tabulated family puts
one panel on each cell of its ``xi_grid``, so no kink of the linear
interpolation falls inside a panel.  Outcome x node products are evaluated in
blocks of at most ``BLOCK_CELLS`` cells; the validator's blocks share one
workspace.  The Gaussian relative entropy and Fisher information have closed
forms.  Given nu the outcomes are i.i.d., so each family states one sufficient
statistic (``ProbeModel.statistic``) for the grid sums and the MLE objective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import _GL32, _composite_gauss, _distinct, _lagrange3

__all__ = [
    "ProbeModel",
    "ProbeError",
    "GaussianReadout",
    "BinaryPhase",
    "TabulatedProbe",
    "AssumptionCheck",
    "ProbeValidationReport",
    "relative_entropy",
    "validate_probe",
    "probe_from_config",
]

GAUSS_WINDOW_SIGMAS = 8.0        # tail mass below 1.3e-15 per side
GAUSS_PANEL_SIGMAS = 0.5         # widest Gauss-Legendre panel, in sigmas
MAX_RULE_PANELS = 100_000        # panels of one Gaussian outcome rule (3.2e6 nodes)
FD_STEP = 1e-5                   # declared central-difference step
BLOCK_CELLS = 100_000            # cells per outcome x node block (0.8 MB of float64)
LOCATION_RTOL = 1e-12            # values this close to the worst share its location
PRUNE_SLACK = 1e3 * LOCATION_RTOL  # pruning margin: every pair the near-tie rule names survives
ROUNDING_SHARE = 1e-3            # defects below this share of their tolerance are rounding
NORMALIZATION_TOL = 1e-8         # validate_probe: largest |integral of f(.|nu) - 1|
IDENTIFIABILITY_THRESHOLD = 1e-6  # validate_probe: smallest L1 distance between two laws
DERIVATIVE_TOL = 1e-6            # validate_probe: analytic vs central-difference score
DERIVATIVE_PAIRS = 100           # validate_probe: (nu, xi) draws of the derivative check
DERIVATIVE_SEED = 7              # validate_probe: seed of those draws
SCORE_TOL = 1e-6                 # validate_probe: largest |mean score|

class ProbeError(ValueError):
    """Raised for invalid probe construction or use."""


def _blocks(n: int, width: int, share: int = 1) -> list[slice]:
    """Slices of range(n), each holding at most BLOCK_CELLS // share cells of
    ``width`` columns (but at least one row)."""
    step = max(BLOCK_CELLS // share // max(width, 1), 1)
    return [slice(start, start + step) for start in range(0, n, step)]


def _centred_sums(xi: np.ndarray):
    """Mean m of nonempty outcomes, and sum r and sum r^2 of r = xi - m, along
    the last axis (a row of a block gives the bits of the row alone); r is
    squared in place once summed."""
    m = xi.mean(axis=-1)
    r = xi - m[..., None]
    return m, r.sum(axis=-1), np.square(r, out=r).sum(axis=-1)


def _add_expectations(out: dict, w, f, f1, f2) -> None:
    """Add one block of outcome rows to the expectations in ``out``: ``norm``
    sums f, ``score`` f1, ``fisher`` f1^2 / f and ``d2`` f2 - f1^2 / f, each
    weighted by ``w``.  The ratio is written over f1 and is 0 wherever f is
    not positive; f1 and f2 are overwritten."""
    if "norm" in out:
        out["norm"] += w @ f
    if "score" in out:
        out["score"] += w @ f1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(np.multiply(f1, f1, out=f1), f, out=f1)
    ratio[~(f > 0)] = 0.0
    if "fisher" in out:
        out["fisher"] += w @ ratio
    if "d2" in out:
        out["d2"] += w @ np.subtract(f2, ratio, out=f2)


class ProbeModel:
    """Base class wiring density families to the common contract.

    Subclasses provide ``density``, ``density_derivs``, ``sample`` and, for
    continuous outcomes, ``_xi_panels``; the base class layers
    log-likelihood plumbing and outcome-space expectations on top.
    """

    outcomes: tuple[float, ...] | None  # values of a finite outcome space; None on the real line

    # -- family hooks ---------------------------------------------------------

    def density(self, xi, nu) -> np.ndarray:
        raise NotImplementedError

    def density_derivs(self, xi, nu):  # (f, df/dnu, d2f/dnu2)
        raise NotImplementedError

    def sample(self, nu: float, size: int, rng) -> np.ndarray:
        raise NotImplementedError

    def _xi_panels(self, nus: np.ndarray) -> np.ndarray:
        """Panel edges of the outcome rule covering the laws at ``nus``."""
        raise NotImplementedError

    # -- log-likelihood ------------------------------------------------------

    def loglik_values(self, nodes: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Matrix log f(xi_j | nu_i) with shape (len(outcomes), len(nodes))."""
        with np.errstate(divide="ignore"):
            return np.log(
                self.density(np.asarray(outcomes)[:, None], np.asarray(nodes)[None, :])
            )

    def statistic(self, rows: np.ndarray) -> np.ndarray:
        """Sufficient statistic of each row of outcomes (R x k) as an (R x S) table,
        with the bits of the row alone: the count of each value of a finite outcome
        space (a pass over the table a value), else the row itself (a view, one object)."""
        if self.outcomes is None:
            stats = np.empty((len(rows), 1), dtype=object)
            for r, row in enumerate(rows):
                stats[r, 0] = row
            return stats
        values = _distinct(self.outcomes)
        counts = np.stack([np.count_nonzero(rows == v, axis=-1) for v in values], -1)
        if not np.all(counts.sum(axis=-1) == rows.shape[-1]):
            raise ProbeError("outcomes must be values of the finite outcome space")
        return counts

    def stat_loglik(self, stats: np.ndarray, nus: np.ndarray) -> np.ndarray:
        """Log-likelihood of each statistic row at the values ``nus`` (R x M, or
        one row 1 x M for all), up to a nu-free constant per row: (R x M).

        Finite outcome spaces weigh ``log f(values | nu)`` by the counts in one
        batched ``np.matmul`` (an absent value adds exactly 0, even where f
        vanishes); otherwise the cells of a row are summed in blocks of outcomes.
        """
        nus = np.asarray(nus, dtype=float)
        if self.outcomes is None:
            out = np.zeros((len(stats), nus.shape[-1]))
            for (row,), at, total in zip(stats, np.broadcast_to(nus, out.shape), out):
                for sl in _blocks(row.size, at.size):
                    total += self.loglik_values(at, row[sl]).sum(axis=0)
            return out
        values = _distinct(self.outcomes)
        logf = self.loglik_values(nus.ravel(), values).reshape(values.size, *nus.shape)
        logf = np.where(stats[:, :, None] > 0, np.moveaxis(logf, 0, 1), 0.0)
        return np.matmul(stats[:, None, :], logf)[:, 0]

    def _node_sums(self, stats: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Summed log-likelihood at each node (R x N) of the statistic rows of
        one block of outcome rows, all of one length."""
        return self.stat_loglik(stats, nodes[None, :])

    # -- expectations over outcomes -------------------------------------------

    def _quadrature(self, nus: np.ndarray):
        """The outcome rule (points, weights) covering the laws at ``nus``."""
        if self.outcomes is not None:
            xq = np.asarray(self.outcomes, dtype=float)
            return xq, np.ones_like(xq)
        return _composite_gauss(self._xi_panels(np.asarray(nus, dtype=float)))

    def _rule_block(self, xq, nus, f, f1, f2):
        """Row minima and row maxima of |log f| over the rule rows ``xq`` at
        ``nus``; writes f and its two nu-derivatives into the (rows x nodes) views."""
        f[...], f1[...], f2[...] = self.density_derivs(xq[:, None], nus[None, :])
        with np.errstate(divide="ignore"):
            logf = np.log(f)  # loglik_values, from the one density evaluation
        return logf.min(axis=1), np.abs(logf, out=logf).max(axis=1)

    def _expect(self, nus: np.ndarray, quantities: Sequence[str]):
        """Outcome-space expectations at each nu, in one sweep over outcome rows.

        Supported quantities: ``norm`` = int f, ``score`` = E[dl],
        ``fisher`` = E[dl^2] and ``d2`` = E[d2l].
        """
        nus = np.atleast_1d(np.asarray(nus, dtype=float))
        xq, wq = self._quadrature(nus)
        out = {q: np.zeros(nus.size) for q in quantities}
        for sl in _blocks(xq.size, nus.size):
            f, f1, f2 = self.density_derivs(xq[sl, None], nus[None, :])
            _add_expectations(out, wq[sl], f, f1, f2)
        return out

    def fisher(self, nus) -> np.ndarray:
        return self._expect(nus, ("fisher",))["fisher"]

    def relative_entropy(self, nu: float, nodes: np.ndarray) -> float:
        """min over nodes of KL(f(.|nu) || f(.|node)) by outcome quadrature:
        E_nu[log f(xi | nu)] less the largest E_nu[log f(xi | node)]."""
        xq, wq = self._quadrature(np.asarray([nu]))
        f_nu = self.density(xq, np.float64(nu))
        w, expected = wq * f_nu, np.empty(nodes.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            base = float(np.dot(wq, f_nu * np.where(f_nu > 0, np.log(f_nu), 0.0)))
            for sl in _blocks(nodes.size, xq.size):
                logf = np.log(self.density(xq[:, None], nodes[None, sl]))
                expected[sl] = w @ np.where(f_nu[:, None] > 0, logf, 0.0)
        return float(base - expected.max())


# ---------------------------------------------------------------------------
# built-in families

@dataclass(frozen=True)
class GaussianReadout(ProbeModel):
    """Gaussian readout of the observable: xi ~ Normal(nu, sigma^2)."""

    sigma: float = 1.0
    outcomes = None

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ProbeError(f"sigma must be finite and positive, got {self.sigma!r}")

    def density(self, xi, nu):
        z = (np.asarray(xi, dtype=float) - np.asarray(nu, dtype=float)) / self.sigma
        return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * self.sigma)

    def density_derivs(self, xi, nu):
        f = self.density(xi, nu)
        u = (np.asarray(xi, dtype=float) - np.asarray(nu, dtype=float)) / self.sigma**2
        return f, f * u, f * (u * u - 1.0 / self.sigma**2)

    def loglik_values(self, nodes, outcomes):
        d = np.asarray(outcomes, dtype=float)[:, None] - np.asarray(nodes, dtype=float)[None, :]
        return -0.5 * (d / self.sigma) ** 2 - np.log(np.sqrt(2.0 * np.pi) * self.sigma)

    def _rule_block(self, xq, nus, f, f1, f2):
        """The base hook with no table beyond the views, in the operation order
        of ``loglik_values``, ``density`` and ``density_derivs``: the same bits."""
        norm = np.sqrt(2.0 * np.pi) * self.sigma
        d = np.subtract(xq[:, None], nus[None, :], out=f1)
        z = np.divide(d, self.sigma, out=f2)
        logf = np.multiply(-0.5, np.square(z, out=f), out=f)
        logf -= np.log(norm)
        extremes = logf.min(axis=1), np.abs(logf, out=logf).max(axis=1)
        np.exp(np.multiply(np.multiply(-0.5, z, out=f), z, out=f), out=f)
        f /= norm
        u = np.divide(d, self.sigma**2, out=f2)
        np.multiply(f, u, out=f1)
        np.subtract(np.multiply(u, u, out=f2), 1.0 / self.sigma**2, out=f2)
        np.multiply(f, f2, out=f2)
        return extremes

    def statistic(self, rows):
        """``(k, m, sum r, sum r^2)`` of each row, m its mean and r = xi - m (two
        temporaries the size of the table); zeros for rows of no outcomes."""
        stats = np.zeros((len(rows), 4))
        if rows.shape[1]:
            stats[:, 0] = rows.shape[1]
            stats[:, 1:] = np.column_stack(_centred_sums(rows))
        return stats

    def stat_loglik(self, stats, nus):
        """Each row's log-likelihood ratio against its sample mean m,
        ``-d (2 sum r + k d) / 2 sigma^2`` with ``d = m - nu``, O(1).

        The nu-free ``sum r^2`` and ``k log(sqrt(2 pi) sigma)`` are left out:
        near the optimum values about 1e-12 apart are compared, and terms of
        size 1e4 would round the differences away.
        """
        k, m, sum_r, _ = (s[:, None] for s in stats.T)
        d = m - nus
        return -d * (2.0 * sum_r + k * d) / (2.0 * self.sigma**2)

    def _node_sums(self, stats, nodes):
        """Full sums from the statistic: sum (xi - nu)^2 = sum r^2 + (m - nu)
        (2 sum r + k (m - nu)), less k log(sqrt(2 pi) sigma); the rows share k,
        taken as one scalar (a column of k costs a loop per row)."""
        _, m, sum_r, sum_r2 = (s[:, None] for s in stats.T)
        k, d = stats[0, 0], m - nodes
        norm = k * np.log(np.sqrt(2.0 * np.pi) * self.sigma)
        return -(sum_r2 + d * (2.0 * sum_r + k * d)) / (2.0 * self.sigma**2) - norm

    def fisher(self, nus):
        """Closed form 1 / sigma^2."""
        return np.full(np.size(nus), 1.0 / self.sigma**2)

    def relative_entropy(self, nu, nodes):
        """Closed form min (nu - node)^2 / 2 sigma^2."""
        nodes = np.asarray(nodes, dtype=float)
        return float(0.5 * (np.abs(nodes - nu).min() / self.sigma) ** 2)

    def sample(self, nu, size, rng):
        return nu + self.sigma * rng.standard_normal(size)

    def _xi_panels(self, nus):
        """Panels no wider than sigma / 2 on the 8-sigma window around the laws,
        at most ``MAX_RULE_PANELS`` of them."""
        pad = GAUSS_WINDOW_SIGMAS * self.sigma
        lo, hi = nus.min() - pad, nus.max() + pad
        panels = np.ceil(float(hi - lo) / (GAUSS_PANEL_SIGMAS * self.sigma))  # inf, not a warning
        if not panels <= MAX_RULE_PANELS:  # an overflowing window is inf
            raise ProbeError(
                f"the outcome rule of sigma={self.sigma:g} on [{nus.min():g}, {nus.max():g}] "
                f"needs {panels:g} panels of sigma/2 (at most {MAX_RULE_PANELS})"
            )
        return np.linspace(lo, hi, int(panels) + 1)


@dataclass(frozen=True)
class BinaryPhase(ProbeModel):
    """Two-outcome phase probe: f(0|nu)=cos^2(phi/2), f(1|nu)=sin^2(phi/2).

    The phase is affine in the observable, ``phi = offset + slope * nu``.
    With the identity map the family is strictly positive for spectra
    inside (0, pi); ``embedded`` builds the affine map sending a spectrum
    hull into a safe phase range.
    """

    offset: float = 0.0
    slope: float = 1.0
    outcomes = (0.0, 1.0)

    def __post_init__(self):
        # the density's curvature carries slope ** 2
        if not (np.isfinite(self.offset) and abs(self.slope) < np.sqrt(np.finfo(float).max)):
            raise ProbeError(
                f"offset and slope ** 2 must be finite, got {self.offset!r} and {self.slope!r}"
            )

    @classmethod
    def embedded(
        cls,
        source_lo: float,
        source_hi: float,
        target_lo: float = np.pi / 4,
        target_hi: float = 3 * np.pi / 4,
    ) -> "BinaryPhase":
        """Map the spectrum hull [source_lo, source_hi] to a phase range."""
        if source_hi <= source_lo:
            raise ProbeError("embedding source interval is degenerate")
        if not (0.0 < target_lo < target_hi < np.pi):
            raise ProbeError("embedding target must sit strictly inside (0, pi)")
        slope = (target_hi - target_lo) / (source_hi - source_lo)
        return cls(offset=target_lo - slope * source_lo, slope=slope)

    def _phase(self, nu):
        return self.offset + self.slope * np.asarray(nu, dtype=float)

    def density(self, xi, nu):
        phi = self._phase(nu)
        f0 = np.cos(0.5 * phi) ** 2
        return np.where(np.asarray(xi, dtype=float) < 0.5, f0, 1.0 - f0)

    def density_derivs(self, xi, nu):
        phi = self._phase(nu)
        is0 = np.asarray(xi, dtype=float) < 0.5
        f0 = np.cos(0.5 * phi) ** 2
        d0 = -0.5 * self.slope * np.sin(phi)
        dd0 = -0.5 * self.slope**2 * np.cos(phi)
        return (
            np.where(is0, f0, 1.0 - f0),
            np.where(is0, d0, -d0),
            np.where(is0, dd0, -dd0),
        )

    def sample(self, nu, size, rng):
        p1 = float(np.sin(0.5 * self._phase(nu)) ** 2)
        return (rng.random(size) < p1).astype(float)


@dataclass(frozen=True)
class TabulatedProbe(ProbeModel):
    """Probe family given by a value table over (outcome, nu) points.

    For finite outcome spaces ``values[o, j] = f(outcomes[o] | nu_grid[j])``;
    for continuous outcomes ``values[q, j] = f(xi_grid[q] | nu_grid[j])``,
    interpolated linearly in xi and by local quadratic interpolation in nu,
    whose nu-derivatives are taken exactly (``spectral._lagrange3``); sampling
    uses exact inversion (finite) or rejection against a per-cell constant
    envelope (continuous).
    """

    nu_grid: tuple[float, ...] = ()
    values: tuple = ()
    outcomes: tuple[float, ...] | None = None
    xi_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if np.iscomplexobj(np.asarray(self.values)):
            raise ProbeError(
                "complex amplitudes are not supported: densities must be "
                "real so amplitudes are their nonnegative square roots"
            )
        table = np.asarray(self.values, dtype=float)
        if (self.outcomes is None) == (self.xi_grid is None):
            raise ProbeError("provide exactly one of outcomes or xi_grid")
        if len(self.nu_grid) < 3:
            raise ProbeError("nu_grid needs at least 3 points")
        if self.xi_grid is not None and len(self.xi_grid) < 2:
            raise ProbeError("xi_grid needs at least 2 points")
        for name, grid in (("nu_grid", self.nu_grid), ("xi_grid", self.xi_grid or ())):
            grid = np.asarray(grid, dtype=float)
            if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
                raise ProbeError(f"{name} must be finite and strictly increasing")
        if self.outcomes is not None:
            try:
                outs = np.asarray(self.outcomes, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ProbeError(f"outcomes must be numbers: {exc}") from exc
            if not (outs.ndim == 1 and np.all(np.isfinite(outs))
                    and _distinct(outs).size == outs.size):
                raise ProbeError("outcomes must be a list of finite, distinct numbers")
        rows = "outcomes" if self.xi_grid is None else "xi_grid"
        shape = (len(getattr(self, rows)), len(self.nu_grid))
        if table.shape != shape:
            raise ProbeError(
                f"values must be a {shape[0]} x {shape[1]} table ({rows} x nu_grid), "
                f"got shape {table.shape}"
            )
        if not np.all((table >= 0) & (table < np.inf)):
            raise ProbeError("tabulated densities must be finite and nonnegative")
        empty = [nu for nu, mass in zip(self.nu_grid, np.any(table > 0, axis=0)) if not mass]
        if empty:
            raise ProbeError(f"the tabulated law has no mass at nu_grid points {empty}")

    # built once per instance; a frozen dataclass still has an instance dict
    @functools.cached_property
    def _table(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @functools.cached_property
    def _nus(self) -> np.ndarray:
        return np.asarray(self.nu_grid, dtype=float)

    def _rows_at(self, nu, rows=slice(None), order=0):
        """Quadratic interpolation of table rows in nu and its first ``order``
        nu-derivatives (a list), from one gather of each stencil's three columns:
        all rows (R, *nu.shape) by default; with an index array ``rows``
        broadcasting against nu, only row ``rows[..., m]`` at ``nu[m]``.  The
        stencil is computed on ``nu`` as given, so pass it unbroadcast."""
        nus, table = self._nus, self._table
        j = np.clip(np.searchsorted(nus, nu) - 1, 1, nus.size - 2)
        t0, t1, t2 = table[rows, j - 1], table[rows, j], table[rows, j + 1]
        weights = _lagrange3(nu, nus[j - 1], nus[j], nus[j + 1], order)
        return [w0 * t0 + w1 * t1 + w2 * t2 for w0, w1, w2 in weights]

    def _value_at(self, xi, nu, order=0):
        """Table value at broadcasting ``xi`` and ``nu`` and its first ``order``
        nu-derivatives: the outcome index and the nu-stencil are computed once
        per given value, not per cell."""
        xi, nu = np.asarray(xi, dtype=float), np.asarray(nu, dtype=float)
        if self.outcomes is not None:
            outs = np.asarray(self.outcomes, dtype=float)
            return self._rows_at(nu, np.argmin(np.abs(xi[..., None] - outs), axis=-1), order)
        grid = np.asarray(self.xi_grid, dtype=float)
        q = np.clip(np.searchsorted(grid, xi) - 1, 0, grid.size - 2)
        t = np.clip((xi - grid[q]) / (grid[q + 1] - grid[q]), 0.0, 1.0)
        q = q[(None,) * (nu.ndim - q.ndim)]  # the cell pair stacks ahead of nu's axes
        pairs = self._rows_at(nu, np.stack([q, q + 1]), order)
        return [(1.0 - t) * below + t * above for below, above in pairs]

    def density(self, xi, nu):
        return np.clip(self._value_at(xi, nu)[0], 0.0, None)

    def density_derivs(self, xi, nu):
        """The interpolant's exact nu-derivatives (one-sided at a ``nu_grid``
        knot), 0 where the density is clipped to 0."""
        value, slope, curve = self._value_at(xi, nu, 2)
        f = np.clip(value, 0.0, None)
        return f, np.where(f > 0, slope, 0.0), np.where(f > 0, curve, 0.0)

    def sample(self, nu, size, rng):
        rows = np.clip(self._rows_at(np.float64(nu))[0], 0.0, None)
        if not rows.sum() > 0:  # the interpolated law between nu_grid points
            raise ProbeError(f"the tabulated law at nu={nu:g} has no mass to sample")
        if self.outcomes is not None:
            return np.asarray(self.outcomes, dtype=float)[
                rng.choice(len(self.outcomes), size=size, p=rows / rows.sum())
            ]
        grid = np.asarray(self.xi_grid, dtype=float)
        env = np.maximum(rows[:-1], rows[1:]) * (1.0 + 1e-12)  # exact for linear interp
        cell_mass = env * np.diff(grid)
        cdf = np.cumsum(cell_mass) / cell_mass.sum()
        out = np.empty(size)
        filled = 0
        while filled < size:
            m = 2 * (size - filled) + 16
            cells = np.searchsorted(cdf, rng.random(m))
            xi = grid[cells] + rng.random(m) * np.diff(grid)[cells]
            accept = rng.random(m) * env[cells] < self.density(xi, np.float64(nu))  # never f = 0
            take = xi[accept][: size - filled]
            out[filled : filled + take.size] = take
            filled += take.size
        return out

    def _xi_panels(self, nus):
        """One panel per cell of the outcome grid."""
        return np.asarray(self.xi_grid, dtype=float)


# ---------------------------------------------------------------------------
# operations (module-level face of the probe contract)

def relative_entropy(probe: ProbeModel, nu: float, region_nodes) -> float:
    """Minimal KL divergence from the law at nu to laws over region nodes.

    ``region_nodes`` is the region as a set of grid nodes; minimization is
    exhaustive over them.  Nonnegative, and zero when nu is in the region.
    """
    region_nodes = np.atleast_1d(np.asarray(region_nodes, dtype=float))
    if region_nodes.size == 0:
        raise ProbeError("relative entropy needs a nonempty region")
    return probe.relative_entropy(nu, region_nodes)


# ---------------------------------------------------------------------------
# assumption validation

@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    worst_value: float
    worst_location: str
    threshold: float
    note: str = ""

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = (
            f"{self.name}: {status} (worst {self.worst_value:.3e} "
            f"vs {self.threshold:.1e} at {self.worst_location})"
        )
        return line + (f" [{self.note}]" if self.note else "")


@dataclass(frozen=True)
class ProbeValidationReport:
    checks: tuple[AssumptionCheck, ...]
    caveats: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = [c.summary() for c in self.checks]
        lines += [f"caveat: {c}" for c in self.caveats]
        return "\n".join(lines)


def _first_near(values: np.ndarray, worst: float) -> int:
    """First index whose value lies within LOCATION_RTOL (relative) of ``worst``.

    Rounding decides which of several near-equal values is the extreme one,
    so the location reported is the first of them in grid order instead.
    """
    near = np.isclose(values, worst, rtol=LOCATION_RTOL, atol=0.0, equal_nan=True)
    return int(np.argmax(near))


def _l1_sums(w, a, b, scratch) -> np.ndarray:
    """``sum_r w_r |a_rc - b_rc|`` of each column c of two equal tables, added
    row after row from 0 by ``np.add.accumulate``, so the bits of a column are
    its own at any width or layout (a BLAS matrix-vector product rounds by
    width).  The terms are written over the flat ``scratch``."""
    d = np.subtract(a, b, out=scratch[: a.size].reshape(a.shape))
    np.multiply(np.abs(d, out=d), w[:, None], out=d)
    return np.add.accumulate(d, axis=0, out=d)[-1]


def _rule_planes(probe, xs, nodes):
    """Each row block of the outcome rule (``_blocks(xs.size, N)``): its slice,
    its log-density row extremes and its density and two nu-derivatives at
    ``nodes`` (``_rule_block``) in three (block rows x N) planes, and the flat
    workspace the planes view, made once and reused by every block."""
    blocks, n = _blocks(xs.size, nodes.size), nodes.size
    work = np.empty((3, len(xs[blocks[0]]) * n))
    for sl in blocks:
        planes = [plane[: len(xs[sl]) * n].reshape(-1, n) for plane in work]
        yield sl, probe._rule_block(xs[sl], nodes, *planes), planes, work


def _far_distances(probe, xs, wq, nodes, first, second) -> np.ndarray:
    """L1 distances of the given node pairs, summed as the validator sums the
    adjacent ones: over each of its row blocks, then block after block, from
    the density made again a block at a time; the pairs are taken N at a time."""
    n, out = nodes.size, np.zeros(first.size)
    for sl, _, (f, _, _), work in _rule_planes(probe, xs, nodes):
        for pc in (slice(start, start + n) for start in range(0, first.size, n)):
            cells = len(f) * len(first[pc])  # unbuffered takes (mode="clip") into two planes
            a, b = (np.take(f, at[pc], axis=1, mode="clip", out=plane[:cells].reshape(len(f), -1))
                    for at, plane in ((first, work[1]), (second, work[2])))
            out[pc] += _l1_sums(wq[sl], a, b, work[1])  # a - b is written over a
    return out


def _pair_bounds(cdf, total, first, second) -> np.ndarray:
    """Lower bounds ``2 max_m |G_first(m) - G_second(m)| - |n_first - n_second|``
    of the given node pairs, gathered in blocks of at most BLOCK_CELLS cells."""
    out = np.empty(first.size)
    for sl in _blocks(first.size, cdf.shape[0]):
        diff = cdf[:, first[sl]] - cdf[:, second[sl]]
        gap = np.abs(diff, out=diff).max(axis=0)
        out[sl] = 2.0 * gap - np.abs(total[first[sl]] - total[second[sl]])
    return out


def _unpruned_pairs(sums, terms: int, limit: float):
    """Node pairs i < j whose L1 lower bound is not above ``limit``, in
    (i, j) order, from the weighted sums ``sums`` (panels x N) of each law
    over each rule panel, ``terms`` rule points in all.

    With G_i(m) the weighted partial sum of column i over the first m rule
    points and n_i its total, the triangle inequality gives
    ``sum_q w_q |f_qi - f_qj| >= 2 |G_i(m) - G_j(m)| - |n_i - n_j|`` for
    every m (the discrete form of total variation dominating the Kolmogorov
    distance), and the bound is the maximum over the panel ends.  A pair the
    bound at one panel end drops is dropped by the maximum, so pairs are
    screened first at the panel end where G spreads most: with the nodes
    sorted by G there, only partners within ``(limit + max |n_i - n_j|) / 2``
    (plus a rounding allowance) get the full bound.  The pairs kept are
    those of the full bound over all pairs; with a non-finite G, n or limit
    every pair gets the full bound, and a nan bound is kept.
    """
    n = sums.shape[1]
    cdf = np.cumsum(sums, axis=0)
    total = cdf[-1]
    # the bound is summed in floating point; allow for the rounding of G and
    # n.  Shifting G by the largest total keeps tail sums out of the slow
    # subnormal range and rounds within that allowance.
    scale = np.abs(total).max()
    eps = np.finfo(float).eps
    limit = limit + 8 * terms * eps * scale
    cdf = cdf + scale
    if np.all(np.isfinite(cdf)) and np.isfinite(limit):
        g = cdf[np.argmax(np.ptp(cdf, axis=1))]
        order = np.argsort(g, kind="stable")
        g = g[order]
        reach = 0.5 * (limit + np.ptp(total))
        reach += 8 * eps * (abs(reach) + np.abs(g).max())  # rounding of G, n and reach
        # sorted positions p < q with g[q] <= g[p] + reach, then as node
        # pairs (i, j), i < j, in the order the full bound lists them
        ends = np.searchsorted(g, g + reach, side="right")
        counts = np.maximum(ends - np.arange(1, n + 1), 0)
        lo = np.repeat(np.arange(n), counts)
        hi = lo + 1 + np.arange(lo.size) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = order[lo], order[hi]
        first, second = np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)
    else:
        first, second = np.triu_indices(n, 1)
    keep = ~(_pair_bounds(cdf, total, first, second) > limit)
    return first[keep], second[keep]


def validate_probe(probe: ProbeModel, model) -> ProbeValidationReport:
    """Check the estimation-theoretic assumptions on the model grid.

    Verifies normalization, strict positivity, pairwise identifiability in
    L1, dominance of the log-likelihood envelope, consistency of analytic
    and finite-difference derivatives, mean-zero score, and strictly
    positive expected curvature.  Always returns a report; nothing raises.

    One sweep over the rule's row blocks (``_rule_planes``), through three
    (block rows x N) planes, adds each block's part to every result the
    checks read: log-density row extremes; normalization, mean score and
    curvature in ``_expect``'s blocks and order; the dominance sums; the
    adjacent pairs' L1 sums; and each law's weighted sums over each panel.
    A continuous rule keeps no (rule x N) table; a finite outcome space has
    one outcome a panel, so its panel sums are its (outcomes x N) table.

    Identifiability is the smallest L1 distance ``sum_q w_q |f_qi - f_qj|``
    over node pairs, summed over each row block one row after another and
    then block after block, so its bits depend on the pair alone.  The
    smallest adjacent distance U bounds it from above; the partial sums G at
    the panel ends bound every pair from below (``_unpruned_pairs``), and
    pairs whose bound exceeds U by more than ``PRUNE_SLACK`` are dropped.
    Adjacent survivors keep their sums; the others are summed in a second
    sweep that makes the density again (``_far_distances``).  The worst value
    and its location (the first pair in (i, j) order near it) are those of
    the loop over all pairs, bit for bit; for a location family only near
    neighbours survive: O(N x panels) bound work and O(N) sums.
    """
    nodes = model.nodes
    checks: list[AssumptionCheck] = []

    # log-density extremes stay finite where a narrow density underflows to
    # 0 (a genuine zero is log 0 = -inf).  Each block of whole rule rows adds
    # its part to every table the checks read; its three planes are reused
    xs, wq = probe._quadrature(nodes)
    n, panel = nodes.size, 1 if probe.outcomes is not None else _GL32[0].size
    sup_abs, row_min = np.empty(xs.size), np.empty(xs.size)
    stats = {q: np.zeros(n) for q in ("norm", "score", "d2")}
    dom, near, sums = np.zeros(n), np.zeros(n - 1), np.zeros((xs.size // panel, n))
    for sl, extremes, (f, f1, f2), work in _rule_planes(probe, xs, nodes):
        w, rows = wq[sl], len(f)
        row_min[sl], sup_abs[sl] = extremes
        _add_expectations(stats, w, f, f1, f2)
        with np.errstate(invalid="ignore"):  # inf * 0 marks a genuine failure
            dom += (w * sup_abs[sl]) @ f
        near += _l1_sums(w, f[:, 1:], f[:, :-1], work[1])
        cuts = np.flatnonzero(np.diff((np.arange(rows) + sl.start) // panel, prepend=-1))
        at = sl.start // panel  # a block holds whole rows, and adds to the panels they meet
        sums[at : at + cuts.size] += np.add.reduceat(np.multiply(f, w[:, None], out=f1), cuts)
    del work, f, f1, f2  # the screen and the far pairs peak without it

    def defect_check(name, defects, tol):
        worst = float(defects.max())
        where = "n/a (rounding)"
        if not worst <= ROUNDING_SHARE * tol:
            where = f"nu={nodes[_first_near(defects, worst)]:.6g}"
        return AssumptionCheck(name, bool(worst <= tol), worst, where, tol)

    # normalization: int f(.|nu) dmu = 1 on the spectrum
    checks.append(
        defect_check("normalization", np.abs(stats["norm"] - 1.0), NORMALIZATION_TOL)
    )

    worst = float(row_min.min())
    qi = _first_near(row_min, worst)
    ni = _first_near(probe.loglik_values(nodes, xs[qi : qi + 1])[0], worst)
    checks.append(
        AssumptionCheck(
            "positivity",
            bool(worst > -np.inf),
            worst,
            f"xi={xs[qi]:.6g}, nu={nodes[ni]:.6g}",
            -np.inf,
        )
    )

    # identifiability: pairwise L1 distances above the threshold, each pair
    # summed once.  A nan distance is the worst, as in the loop over all pairs
    worst, i, j = np.inf, 0, 0
    if n > 1:
        first, second = _unpruned_pairs(sums, xs.size, near.min() * (1.0 + PRUNE_SLACK))
        distances = near[first]
        far = second > first + 1
        if np.any(far):
            distances[far] = _far_distances(probe, xs, wq, nodes, first[far], second[far])
        worst = float(distances.min())
        k = _first_near(distances, worst)
        i, j = first[k], second[k]
    checks.append(
        AssumptionCheck(
            "identifiability",
            bool(worst > IDENTIFIABILITY_THRESHOLD),
            worst,
            f"nu={nodes[i]:.6g} vs nu={nodes[j]:.6g}",
            IDENTIFIABILITY_THRESHOLD,
        )
    )

    # dominance: E_nu[ sup_nu' |l(nu'|xi)| ] finite for all grid nu
    worst = float(dom[np.argmax(dom)])  # argmax meets a nan first
    checks.append(
        AssumptionCheck(
            "dominance",
            bool(np.all(np.isfinite(dom))),
            worst,
            f"nu={nodes[_first_near(dom, worst)]:.6g}",
            np.inf,
        )
    )
    caveat = ("dominance is certified on the grid only; off-grid behaviour of a "
              "tabulated family is interpolation, not evidence")

    # differentiability: analytic derivatives match central differences.  The pairs
    # are drawn as a loop over them would; one call gives the densities at nu, nu +- FD_STEP
    rng = np.random.default_rng(DERIVATIVE_SEED)
    lo, hi = model.hull
    pairs = []
    for _ in range(DERIVATIVE_PAIRS):
        nu = float(rng.uniform(lo, hi))
        pairs.append((nu, float(probe.sample(nu, 1, rng)[0])))
    nu, xi = np.reshape(pairs, (-1, 2)).T
    f, f1, _ = probe.density_derivs(xi, nu + [[0.0], [FD_STEP], [-FD_STEP]])
    kept, note = ~(f[0] <= 0.0), ""  # a vanishing density has no log-derivative
    if isinstance(probe, TabulatedProbe):  # only piecewise smooth: its stencil changes at knots
        straddles = (np.searchsorted(probe._nus, nu - FD_STEP)
                     < np.searchsorted(probe._nus, nu + FD_STEP, "right"))
        kept &= ~straddles
        note = f"{straddles.sum()} of {nu.size} points within FD_STEP of a knot left out"
    kept = np.flatnonzero(kept)
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = np.log(f[:, kept])
        err = np.abs((logf[1] - logf[2]) / (2 * FD_STEP) - f1[0, kept] / f[0, kept])
    ok = bool(np.all(err <= DERIVATIVE_TOL))
    worst_d, worst_where = 0.0, ""
    if np.any(err > 0):  # the first largest error; nan is never the worst
        j = int(np.argmax(np.where(err > 0, err, 0.0)))
        worst_d, worst_where = float(err[j]), f"nu={nu[kept[j]]:.6g}, xi={xi[kept[j]]:.6g}"
    checks.append(
        AssumptionCheck(
            "differentiability", ok, worst_d, worst_where or "n/a", DERIVATIVE_TOL, note
        )
    )

    # score mean-zero and strictly positive curvature
    checks.append(defect_check("score-mean-zero", np.abs(stats["score"]), SCORE_TOL))
    worst = float(stats["d2"].max())
    checks.append(
        AssumptionCheck(
            "positive-curvature",
            bool(np.all(stats["d2"] < 0.0)),
            -worst,
            f"nu={nodes[_first_near(stats['d2'], worst)]:.6g}",
            0.0,
        )
    )

    return ProbeValidationReport(
        tuple(checks), (caveat,) if isinstance(probe, TabulatedProbe) else ())


# ---------------------------------------------------------------------------
# configuration

def _number_pair(name: str, value) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ProbeError(f"{name} must be a pair of numbers, got {value!r}") from exc
    return lo, hi


def probe_from_config(config: dict) -> ProbeModel:
    """Build a probe from its JSON declaration (kind plus parameters)."""
    kind = config.get("kind")
    if kind == "gaussian-readout":
        return GaussianReadout(sigma=float(config.get("sigma", 1.0)))
    if kind == "binary-phase":
        embed = config.get("embed")
        if embed is None:
            return BinaryPhase(
                offset=float(config.get("offset", 0.0)),
                slope=float(config.get("slope", 1.0)),
            )
        if not isinstance(embed, dict):  # a bare source pair
            embed = {"source": embed}
        target = embed.get("target", (np.pi / 4, 3 * np.pi / 4))
        return BinaryPhase.embedded(*_number_pair("embed source", embed["source"]),
                                    *_number_pair("embed target", target))
    if kind == "tabulated":
        return TabulatedProbe(
            nu_grid=tuple(config["nu_grid"]),
            values=tuple(map(tuple, config["values"])),
            outcomes=tuple(config["outcomes"]) if "outcomes" in config else None,
            xi_grid=tuple(config["xi_grid"]) if "xi_grid" in config else None,
        )
    raise ProbeError(f"unknown probe kind: {kind!r}")
