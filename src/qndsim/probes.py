"""Probe-outcome statistics: conditional densities, scores, and validators.

A probe model is a family of outcome densities ``f(xi | nu)`` indexed by the
value ``nu`` of the measured observable, together with its log-likelihood
``l(nu | xi) = log f(xi | nu)`` and the first two nu-derivatives.  The jump
amplitude attached to an outcome is the nonnegative square root
``sqrt(f(xi | nu))``; families carrying complex phases are rejected at
construction.

Two built-in families are provided:

* ``GaussianReadout``: a homodyne-style readout, ``xi ~ Normal(nu, sigma^2)``
  on the real line.
* ``BinaryPhase``: a two-outcome phase probe with ``f(0|nu) = cos^2(phi/2)``
  and ``f(1|nu) = sin^2(phi/2)`` for an affine phase ``phi = offset +
  slope * nu``; with the identity phase map the family is valid for spectra
  inside (0, pi).  This mirrors dispersive photon-number probes of a cavity
  mode.

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
blocks of at most ``BLOCK_CELLS`` cells.  The Gaussian log-likelihood sums,
MLE objective, relative entropy and Fisher information have closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import _GL32, _composite_gauss

__all__ = [
    "ProbeModel",
    "ProbeError",
    "ZeroDensityError",
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
PRUNE_SLACK = 1e3 * LOCATION_RTOL  # pruning margin: the near-tie rule plus L1 rounding
ROUNDING_SHARE = 1e-3            # defects below this share of their tolerance are rounding
NORMALIZATION_TOL = 1e-8         # validate_probe: largest |integral of f(.|nu) - 1|
IDENTIFIABILITY_THRESHOLD = 1e-6  # validate_probe: smallest L1 distance between two laws
DERIVATIVE_TOL = 1e-6            # validate_probe: analytic vs central-difference score
SCORE_TOL = 1e-6                 # validate_probe: largest |mean score|

class ProbeError(ValueError):
    """Raised for invalid probe construction or use."""


class ZeroDensityError(ProbeError):
    """Raised when a density vanishes where positivity is assumed."""


def _blocks(n: int, width: int, share: int = 1) -> list[slice]:
    """Slices of range(n), each holding at most BLOCK_CELLS // share cells of
    ``width`` columns (but at least one row)."""
    step = max(BLOCK_CELLS // share // max(width, 1), 1)
    return [slice(start, start + step) for start in range(0, n, step)]


def _centred_sums(xi: np.ndarray):
    """Mean m of nonempty outcomes, and sum r and sum r^2 of r = xi - m, along
    the last axis (a row of a block gives the bits of the row alone)."""
    m = xi.mean(axis=-1)
    r = xi - m[..., None]
    return m, r.sum(axis=-1), (r * r).sum(axis=-1)


def _value_counts(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Counts of each of ``values`` in each row of outcomes, one pass per value."""
    counts = np.stack([np.count_nonzero(rows == v, axis=-1) for v in values], axis=-1)
    if not np.all(counts.sum(axis=-1) == rows.shape[-1]):
        raise ProbeError("outcomes must be values of the finite outcome space")
    return counts


def _add_expectations(out: dict, w, f, f1, f2) -> None:
    """Add one block of outcome rows to the expectations in ``out``: ``norm``
    sums f, ``score`` f1, ``fisher`` f1^2 / f and ``d2`` f2 - f1^2 / f (the
    ratio is 0 where f vanishes), each weighted by ``w``.  Overwrites f1 and
    f2, so a block holds no more than four tables at once."""
    if "norm" in out:
        out["norm"] += w @ f
    if "score" in out:
        out["score"] += w @ f1
    ratio = np.divide(np.multiply(f1, f1, out=f1), f, out=np.zeros_like(f), where=f > 0)
    if "fisher" in out:
        out["fisher"] += w @ ratio
    if "d2" in out:
        out["d2"] += w @ np.subtract(f2, ratio, out=f2)


def _row_stats(prefixes: Sequence[np.ndarray], stat, width: int) -> np.ndarray:
    """``stat`` (``width`` values per row) of each outcome prefix: prefixes of one
    length are stacked in row blocks of at most BLOCK_CELLS // 4 cells."""
    sizes, out = np.array([xi.size for xi in prefixes]), np.zeros((len(prefixes), width))
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        for rows in (group[sl] for sl in _blocks(group.size, size, 4)):
            out[rows] = stat(np.stack([prefixes[b] for b in rows]))
    return out


class ProbeModel:
    """Base class wiring density families to the common contract.

    Subclasses provide ``density``, ``sample`` and, for continuous outcomes,
    ``_xi_panels``, and may provide ``density_derivs``; the base class layers
    log-likelihood plumbing and outcome-space expectations on top.
    """

    outcomes: tuple[float, ...] | None  # values of a finite outcome space; None on the real line

    # -- family hooks ---------------------------------------------------------

    def density(self, xi, nu) -> np.ndarray:
        raise NotImplementedError

    def density_derivs(self, xi, nu):
        """(f, df/dnu, d2f/dnu2); by default central differences (declared step)."""
        xi = np.asarray(xi, dtype=float)
        nu = np.asarray(nu, dtype=float)
        e = FD_STEP
        f = self.density(xi, nu)
        fp = self.density(xi, nu + e)
        fm = self.density(xi, nu - e)
        return f, (fp - fm) / (2.0 * e), (fp - 2.0 * f + fm) / e**2

    def sample(self, nu: float, size: int, rng) -> np.ndarray:
        raise NotImplementedError

    def _xi_panels(self, nus: np.ndarray) -> np.ndarray:
        """Panel edges of the outcome rule covering the laws at ``nus``."""
        raise NotImplementedError

    def amplitude(self, xi, nu) -> np.ndarray:
        """Jump amplitude: the nonnegative square root of the density."""
        return np.sqrt(self.density(xi, nu))

    # -- log-likelihood ------------------------------------------------------

    def log_likelihood(self, nu: float, xi: float):
        """Return (l, dl/dnu, d2l/dnu2) at a single (nu, xi) pair."""
        f, f1, f2 = self.density_derivs(np.float64(xi), np.float64(nu))
        f = float(f)
        if f <= 0.0:
            raise ZeroDensityError(
                f"density vanishes at xi={xi}, nu={nu}; positivity is violated"
            )
        dl = float(f1) / f
        return float(np.log(f)), dl, float(f2) / f - dl * dl

    def loglik_values(self, nodes: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Matrix log f(xi_j | nu_i) with shape (len(outcomes), len(nodes))."""
        with np.errstate(divide="ignore"):
            return np.log(
                self.density(np.asarray(outcomes)[:, None], np.asarray(nodes)[None, :])
            )

    def loglik_node_sums(self, nodes: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Summed log-likelihood over outcomes, one entry per grid node (per row of a
        2-D block, with the bits of the row alone): finite outcome spaces weigh the
        log f of the values present by their counts, others sum over the outcomes."""
        nodes = np.asarray(nodes, dtype=float)
        outcomes = np.asarray(outcomes, dtype=float)
        rows = np.atleast_2d(outcomes)
        total = np.zeros((rows.shape[0], nodes.size))
        if self.outcomes is not None and rows.size:
            vals = np.unique(np.asarray(self.outcomes, dtype=float))
            counts = np.concatenate([_value_counts(vals, rows[sl]) for sl in _blocks(*rows.shape)])
            logf = self.loglik_values(nodes, vals)
            patterns, which = np.unique(counts > 0, axis=0, return_inverse=True)
            for g, present in enumerate(patterns):  # values a row lacks add nothing, not 0 * -inf
                r = np.flatnonzero(which.ravel() == g)
                total[r] = np.matmul(counts[r][:, None, present], logf[present])[:, 0]
        elif rows.size:
            for row, out in zip(rows, total):
                for sl in _blocks(row.size, nodes.size):
                    out += self.loglik_values(nodes, row[sl]).sum(axis=0)
        return total if outcomes.ndim == 2 else total[0]

    def loglik_objective(self, prefixes: Sequence[np.ndarray], lo, hi):
        """``objective(idx, nus)``: log-likelihoods of the brackets ``idx`` (bracket b
        holds the outcomes ``prefixes[b]`` and ``[lo[b], hi[b]]``) at one nu each,
        up to a constant per bracket.  Finite outcome spaces weigh ``log f(values
        | nu)`` by count rows in one batched ``np.matmul`` (a zero count adds
        exactly 0, even where f vanishes); other families sum over the outcomes.
        """
        if self.outcomes is None:
            return lambda idx, nus: np.array([
                self.loglik_values(np.asarray([nu]), prefixes[b]).sum() for b, nu in zip(idx, nus)
            ])
        values = np.unique(np.asarray(self.outcomes, dtype=float))
        counts = _row_stats(prefixes, lambda rows: _value_counts(values, rows), values.size)

        def objective(idx, nus):
            rows = counts[idx]
            logf = np.where(rows.T > 0, self.loglik_values(nus, values), 0.0)
            return np.matmul(rows[:, None, :], logf.T[:, :, None])[:, 0, 0]

        return objective

    # -- expectations over outcomes -------------------------------------------

    def _quadrature(self, nus: np.ndarray):
        """The outcome rule (points, weights) covering the laws at ``nus``."""
        if self.outcomes is not None:
            xq = np.asarray(self.outcomes, dtype=float)
            return xq, np.ones_like(xq)
        return _composite_gauss(self._xi_panels(np.asarray(nus, dtype=float)))

    def _expect(self, nus: np.ndarray, quantities: Sequence[str]):
        """Outcome-space expectations at each nu, in one sweep over outcome rows.

        Supported quantities: ``norm`` = int f, ``score`` = E[dl],
        ``fisher`` = E[dl^2] and ``d2`` = E[d2l].
        """
        nus = np.atleast_1d(np.asarray(nus, dtype=float))
        xq, wq = self._quadrature(nus)
        out = {q: np.zeros(nus.size) for q in quantities}
        for sl in _blocks(xq.size, nus.size):
            _add_expectations(out, wq[sl], *self.density_derivs(xq[sl, None], nus[None, :]))
        return out

    def normalization(self, nus) -> np.ndarray:
        return self._expect(nus, ("norm",))["norm"]

    def score_mean(self, nus) -> np.ndarray:
        return self._expect(nus, ("score",))["score"]

    def fisher(self, nus) -> np.ndarray:
        return self._expect(nus, ("fisher",))["fisher"]

    def mean_d2_loglik(self, nus) -> np.ndarray:
        return self._expect(nus, ("d2",))["d2"]

    def expected_loglik(self, nu: float, nodes) -> np.ndarray:
        """E over outcomes at nu of log f(xi | node), one entry per node."""
        nodes = np.asarray(nodes, dtype=float)
        xq, wq = self._quadrature(np.asarray([nu]))
        f_nu = self.density(xq, np.float64(nu))
        w = wq * f_nu
        out = np.empty(nodes.size)
        for sl in _blocks(nodes.size, xq.size):
            with np.errstate(divide="ignore"):
                logf = np.log(self.density(xq[:, None], nodes[None, sl]))
            out[sl] = w @ np.where(f_nu[:, None] > 0, logf, 0.0)
        return out

    def relative_entropy(self, nu: float, nodes: np.ndarray) -> float:
        """min over nodes of KL(f(.|nu) || f(.|node)) by outcome quadrature."""
        xq, wq = self._quadrature(np.asarray([nu]))
        f_nu = self.density(xq, np.float64(nu))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f_nu = np.where(f_nu > 0, np.log(np.where(f_nu > 0, f_nu, 1.0)), 0.0)
        base = float(np.dot(wq, f_nu * log_f_nu))
        return float(base - self.expected_loglik(nu, nodes).max())


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

    def loglik_node_sums(self, nodes, outcomes):
        """Sums from centred outcome statistics: with m the mean and r = xi - m,
        sum (xi - nu)^2 = sum r^2 + (m - nu)(2 sum r + k (m - nu)), for the rows
        of a 2-D block in blocks of at most BLOCK_CELLS // 4 cells."""
        nodes = np.asarray(nodes, dtype=float)
        xi = np.asarray(outcomes, dtype=float)
        if xi.size == 0:
            return super().loglik_node_sums(nodes, xi)
        rows, k = np.atleast_2d(xi), xi.shape[-1]
        total = np.empty((rows.shape[0], nodes.size))
        norm = k * np.log(np.sqrt(2.0 * np.pi) * self.sigma)
        for sl in _blocks(rows.shape[0], k + 2 * nodes.size, 4):  # temporaries: 2 k, 4 N a row
            m, sum_r, sum_r2 = (s[:, None] for s in _centred_sums(rows[sl]))
            d = m - nodes
            total[sl] = -(sum_r2 + d * (2.0 * sum_r + k * d)) / (2.0 * self.sigma**2) - norm
        return total if xi.ndim == 2 else total[0]

    def loglik_objective(self, prefixes, lo, hi):
        """Each bracket's log-likelihood ratio against its sample mean m,
        ``-d (2 sum r + k d) / 2 sigma^2`` with ``d = m - nu``, O(1).

        The nu-free ``sum r^2`` and ``k log(sqrt(2 pi) sigma)`` are left out:
        near the optimum values about 1e-12 apart are compared, and terms of
        size 1e4 would round the differences away.  A bracket that holds no
        outcomes takes the generic sum for its whole search, so no two values
        with different offsets are ever compared.
        """
        fast = np.array([xi.size > 0 for xi in prefixes])
        stats = np.zeros((len(prefixes), 3))  # (m, sum r, k) per bracket
        stats[fast] = _row_stats([xi for xi, f in zip(prefixes, fast) if f], lambda rows: (
            np.column_stack([*_centred_sums(rows)[:2], np.full(rows.shape[0], rows.shape[1])])
        ), 3)
        generic = super().loglik_objective(prefixes, lo, hi)

        def objective(idx, nus):
            m, sum_r, k = stats[idx].T
            d = m - nus
            out = -d * (2.0 * sum_r + k * d) / (2.0 * self.sigma**2)
            slow = ~fast[idx]
            out[slow] = generic(idx[slow], nus[slow])
            return out

        return objective

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
    interpolated linearly in xi and by local quadratic interpolation in nu.
    Derivatives are central differences with the declared step; sampling
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
        if np.any(table < 0):
            raise ProbeError("tabulated densities must be nonnegative")
        if (self.outcomes is None) == (self.xi_grid is None):
            raise ProbeError("provide exactly one of outcomes or xi_grid")
        if len(self.nu_grid) < 3:
            raise ProbeError("nu_grid needs at least 3 points")

    # built once per instance; a frozen dataclass still has an instance dict
    @functools.cached_property
    def _table(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @functools.cached_property
    def _nus(self) -> np.ndarray:
        return np.asarray(self.nu_grid, dtype=float)

    def _rows_at(self, nu, rows=slice(None)):
        """Quadratic interpolation of table rows in nu.

        All rows by default, shape (R, *nu.shape); with an index array
        ``rows`` broadcasting against nu, only row ``rows[..., m]`` at ``nu[m]``.
        The stencil is computed on ``nu`` as given, so pass it unbroadcast.
        """
        nus = self._nus
        nu = np.asarray(nu, dtype=float)
        j = np.clip(np.searchsorted(nus, nu) - 1, 1, nus.size - 2)
        x0, x1, x2 = nus[j - 1], nus[j], nus[j + 1]
        w0 = (nu - x1) * (nu - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (nu - x0) * (nu - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (nu - x0) * (nu - x1) / ((x2 - x0) * (x2 - x1))
        t = self._table
        return w0 * t[rows, j - 1] + w1 * t[rows, j] + w2 * t[rows, j + 1]

    def _value_at(self, xi, nu):
        """Table value at broadcasting ``xi`` and ``nu``: the outcome index and
        the nu-stencil are computed once per given value, not per cell."""
        if self.outcomes is not None:
            outs = np.asarray(self.outcomes, dtype=float)
            idx = np.argmin(np.abs(xi[..., None] - outs), axis=-1)
            return self._rows_at(nu, idx)
        grid = np.asarray(self.xi_grid, dtype=float)
        q = np.clip(np.searchsorted(grid, xi) - 1, 0, grid.size - 2)
        t = np.clip((xi - grid[q]) / (grid[q + 1] - grid[q]), 0.0, 1.0)
        return (1.0 - t) * self._rows_at(nu, q) + t * self._rows_at(nu, q + 1)

    def density(self, xi, nu):
        xi = np.asarray(xi, dtype=float)
        nu = np.asarray(nu, dtype=float)
        return np.clip(self._value_at(xi, nu), 0.0, None)

    def sample(self, nu, size, rng):
        if self.outcomes is not None:
            probs = np.clip(self._rows_at(np.float64(nu)), 0.0, None)
            probs = probs / probs.sum()
            return np.asarray(self.outcomes, dtype=float)[
                rng.choice(len(self.outcomes), size=size, p=probs)
            ]
        grid = np.asarray(self.xi_grid, dtype=float)
        rows = np.clip(self._rows_at(np.float64(nu)), 0.0, None)
        env = np.maximum(rows[:-1], rows[1:]) * (1.0 + 1e-12)  # exact for linear interp
        cell_mass = env * np.diff(grid)
        cdf = np.cumsum(cell_mass) / cell_mass.sum()
        out = np.empty(size)
        filled = 0
        while filled < size:
            m = 2 * (size - filled) + 16
            cells = np.searchsorted(cdf, rng.random(m))
            xi = grid[cells] + rng.random(m) * np.diff(grid)[cells]
            accept = rng.random(m) * env[cells] <= self.density(xi, np.float64(nu))
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


def _pair_distances(fmat, wq, first, second) -> np.ndarray:
    """L1 distances ``sum_q w_q |f_q,first - f_q,second|`` of the given node
    pairs, gathered in blocks of at most BLOCK_CELLS cells."""
    out = np.empty(first.size)
    for sl in _blocks(first.size, fmat.shape[0]):
        diff = fmat[:, first[sl]] - fmat[:, second[sl]]
        out[sl] = wq @ np.abs(diff, out=diff)
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


def _unpruned_pairs(fmat, wq, panel: int, limit: float):
    """Node pairs i < j whose L1 lower bound is not above ``limit``, in
    (i, j) order.

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
    n = fmat.shape[1]
    sums = np.einsum("ps,psn->pn", wq.reshape(-1, panel), fmat.reshape(-1, panel, n))
    cdf = np.cumsum(sums, axis=0)
    total = cdf[-1]
    # the bound is summed in floating point; allow for the rounding of G and
    # n.  Shifting G by the largest total keeps tail sums out of the slow
    # subnormal range and rounds within that allowance.
    scale = np.abs(total).max()
    eps = np.finfo(float).eps
    limit = limit + 8 * wq.size * eps * scale
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


def validate_probe(
    probe: ProbeModel,
    model,
    n_derivative_pairs: int = 100,
    seed: int = 7,
) -> ProbeValidationReport:
    """Check the estimation-theoretic assumptions on the model grid.

    Verifies normalization, strict positivity, pairwise identifiability in
    L1, dominance of the log-likelihood envelope, consistency of analytic
    and finite-difference derivatives, mean-zero score, and strictly
    positive expected curvature.  Always returns a report; nothing raises.

    One sweep over the row blocks of the probe's outcome rule gives every
    table the checks read: log-density row extremes, the density table, and
    normalization, mean score and curvature summed as ``_expect`` sums them.

    Identifiability is the smallest L1 distance ``sum_q w_q |f_qi - f_qj|``
    over node pairs on the outcome rule, found without summing every pair.
    The smallest adjacent distance U bounds it from above.  The partial sums
    of each law at the rule's panel ends bound every pair from below
    (``2 |G_i - G_j| - |n_i - n_j|``, total variation over the Kolmogorov
    distance); pairs whose bound exceeds U by more than ``PRUNE_SLACK`` (and
    a rounding allowance) are dropped, the survivors are summed, and every
    row whose minimum lies within ``PRUNE_SLACK`` of the overall minimum is
    summed again in full.  The worst value and its location are those of
    the loop over all pairs, bit for bit.  The bound is built only for the
    pairs a sorted screen at one panel end cannot drop (``_unpruned_pairs``);
    for a location family those are near neighbours: O(N x panels) work for
    the bound and O(N) exact pairs instead of N (N - 1) / 2.
    """
    nodes = model.nodes
    checks: list[AssumptionCheck] = []
    caveats: list[str] = []

    # the probe's one outcome rule serves every check, in one sweep over its
    # row blocks.  Positivity and dominance read log-densities, which stay
    # finite where a narrow density underflows to 0; a genuine zero is log 0
    # = -inf.  Of the log table only row extremes stay.  Normalization, mean
    # score and curvature are summed as ``_expect`` sums them, and the
    # density table is kept for identifiability and dominance.  Each table
    # of a block is dropped before the next is built: kept beside the
    # density table, they would raise the validator's peak by half.
    xs, wq = probe._quadrature(nodes)
    fmat = np.empty((xs.size, nodes.size))
    sup_abs, row_min = np.empty(xs.size), np.empty(xs.size)
    stats = {q: np.zeros(nodes.size) for q in ("norm", "score", "d2")}
    for sl in _blocks(xs.size, nodes.size):
        logf = probe.loglik_values(nodes, xs[sl])
        row_min[sl] = logf.min(axis=1)
        sup_abs[sl] = np.abs(logf, out=logf).max(axis=1)
        del logf
        f, f1, f2 = probe.density_derivs(xs[sl, None], nodes[None, :])
        _add_expectations(stats, wq[sl], f, f1, f2)
        fmat[sl] = f
        del f, f1, f2

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

    # identifiability: pairwise L1 distances above the threshold.  The
    # smallest adjacent distance bounds the minimum; a lower bound rules out
    # the pairs above it, the rest get their exact sum, and the rows near the
    # minimum are summed again as distances_from(i), so the worst value and
    # location are those of the loop over all pairs, bit for bit.
    def distances_from(i):
        diff = fmat[:, i + 1 :] - fmat[:, i : i + 1]
        return wq @ np.abs(diff, out=diff)

    worst, i, j = np.inf, 0, 0
    if nodes.size > 1:
        adjacent = np.arange(nodes.size - 1)
        upper = _pair_distances(fmat, wq, adjacent, adjacent + 1).min()
        panel = 1 if probe.outcomes is not None else _GL32[0].size
        first, second = _unpruned_pairs(fmat, wq, panel, upper * (1.0 + PRUNE_SLACK))
        row_min = np.full(nodes.size - 1, np.inf)
        np.minimum.at(row_min, first, _pair_distances(fmat, wq, first, second))
        least = row_min.min()
        nearest = np.full(nodes.size - 1, np.inf)
        for r in np.flatnonzero(~(row_min > least * (1.0 + PRUNE_SLACK))):
            nearest[r] = distances_from(r).min()
        worst = float(nearest.min())
        i = _first_near(nearest, worst)
        j = i + 1 + _first_near(distances_from(i), worst)
    checks.append(
        AssumptionCheck(
            "identifiability",
            bool(worst > IDENTIFIABILITY_THRESHOLD),
            worst,
            f"nu={nodes[i]:.6g} vs nu={nodes[j]:.6g}",
            IDENTIFIABILITY_THRESHOLD,
        )
    )

    # dominance: E_nu[ sup_nu' |l(nu'|xi)| ] finite for all grid nu; inf * 0
    # marks a genuine failure
    with np.errstate(invalid="ignore"):
        dom = (wq * sup_abs) @ fmat
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
    if isinstance(probe, TabulatedProbe):
        caveats.append(
            "dominance is certified on the grid only; off-grid behaviour of a "
            "tabulated family is interpolation, not evidence"
        )
        caveats.append(
            "derivatives of a tabulated family are finite differences of the "
            "interpolated table"
        )

    # differentiability: analytic derivatives match central differences.  The pairs
    # are drawn as a loop over them would; one call gives the densities at nu, nu +- FD_STEP
    rng = np.random.default_rng(seed)
    lo, hi = model.hull
    pairs = []
    for _ in range(n_derivative_pairs):
        nu = float(rng.uniform(lo, hi))
        pairs.append((nu, float(probe.sample(nu, 1, rng)[0])))
    nu, xi = np.reshape(pairs, (-1, 2)).T
    f, f1, _ = probe.density_derivs(np.tile(xi, 3), (nu + [[0.0], [FD_STEP], [-FD_STEP]]).ravel())
    f, f1 = f.reshape(3, -1), f1.reshape(3, -1)
    kept = np.flatnonzero(~(f[0] <= 0.0))  # a vanishing density has no log-derivative
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
            "differentiability", ok, worst_d, worst_where or "n/a", DERIVATIVE_TOL
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

    return ProbeValidationReport(tuple(checks), tuple(caveats))


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
        source = embed["source"] if isinstance(embed, dict) else embed
        target = (
            embed.get("target", (np.pi / 4, 3 * np.pi / 4))
            if isinstance(embed, dict)
            else (np.pi / 4, 3 * np.pi / 4)
        )
        return BinaryPhase.embedded(*_number_pair("embed source", source),
                                    *_number_pair("embed target", target))
    if kind == "tabulated":
        return TabulatedProbe(
            nu_grid=tuple(config["nu_grid"]),
            values=tuple(map(tuple, config["values"])),
            outcomes=tuple(config["outcomes"]) if "outcomes" in config else None,
            xi_grid=tuple(config["xi_grid"]) if "xi_grid" in config else None,
        )
    raise ProbeError(f"unknown probe kind: {kind!r}")
