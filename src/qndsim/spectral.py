"""Spectral models: the measured observable, its quadrature grid, and states.

An observable with mixed discrete/continuous spectrum is represented by a
finite quadrature grid.  Atoms of the spectrum appear as grid nodes with
their exact weights; each closed interval of absolutely continuous spectrum
carries a composite midpoint rule against its spectral density ``h``.  A
state is a matrix-valued kernel over the grid, and traces / norms are taken
on the mass-weighted matrix, so the discrete trace of a kernel is the
quadrature image of the continuum trace formula
``tr(rho) = integral of tr_block(rho(nu, nu)) h(nu) dnu  +  atom sums``.

Numeric contracts
-----------------
* Quadrature: composite midpoint, uniform spacing per interval.  Nodes are
  cell midpoints, so interval endpoints never appear as grid nodes.
* Node mass: ``mass[i] = weights[i] * hvals[i]``, with ``hvals = 1`` at
  atoms so that an atom's mass is its weight itself.
* Intervals are closed: an endpoint belongs to its interval (``interval_of``).
* Region snapping: interval-region endpoints snap to the nearest cell
  boundary of the interval they land in; a point region selects the atom
  it names, or stands for the grid cell containing it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SpectralModel",
    "SpectralModelError",
    "RegionError",
    "StateKernel",
    "StateValidationReport",
    "build_spectral_model",
    "pure_state",
    "diagonal_state",
    "spectral_probability",
    "validate_state",
    "model_from_dict",
    "state_from_dict",
]

MAX_NODES_PER_INTERVAL = 1_000_000  # larger counts fail here, not in an allocation
MAX_MULTIPLICITY = 1_000  # a diagonal state's factor is (N n)^2: 64 MB on two nodes here
HERMITICITY_TOL = 1e-10  # validate_state: largest Hermiticity defect
PSD_TOL = 1e-10  # validate_state: most negative weighted eigenvalue, negated
TRACE_TOL = 1e-8  # validate_state: largest |trace - 1|


class SpectralModelError(ValueError):
    """Raised when a spectral model cannot be constructed as requested."""


class RegionError(ValueError):
    """Raised when a region does not intersect the spectrum."""


# ---------------------------------------------------------------------------
# spectral densities

def _h_from_spec(spec) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray | None]:
    """Resolve a density declaration to a vectorized callable, and the sorted
    knots of a ``table`` density (None for any other).

    Accepts a positive scalar, a callable, or a JSON-compatible dict with
    either a built-in ``name`` ("uniform", "linear", "cosine") or a
    ``table`` of (nu, value) pairs interpolated linearly.
    """
    if spec is None:
        spec = {}
    if np.isscalar(spec) and not isinstance(spec, (dict, str)):
        spec = {"value": spec}
    if callable(spec):
        return (lambda nu: np.asarray(spec(np.asarray(nu, dtype=float)), dtype=float)), None
    if not isinstance(spec, dict):
        raise SpectralModelError(f"unrecognized density spec: {spec!r}")

    if "table" in spec:
        table = np.asarray(spec["table"], dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise SpectralModelError("density table must be (nu, value) pairs")
        if not np.isfinite(table).all():
            raise SpectralModelError("density table entries must be finite")
        xs, ys = table[np.argsort(table[:, 0])].T
        return (lambda nu: np.interp(np.asarray(nu, dtype=float), xs, ys)), xs

    name = spec.get("name", "uniform")
    if name == "uniform":
        value = float(spec.get("value", 1.0))
        return (lambda nu: np.full_like(np.asarray(nu, dtype=float), value)), None
    if name == "linear":
        a = float(spec.get("intercept", 0.0))
        b = float(spec.get("slope", 1.0))
        return (lambda nu: a + b * np.asarray(nu, dtype=float)), None
    if name == "cosine":
        offset = float(spec.get("offset", 1.0))
        amp = float(spec.get("amplitude", 0.5))
        freq = float(spec.get("frequency", np.pi))
        phase = float(spec.get("phase", 0.0))
        return (lambda nu: offset + amp * np.cos(freq * np.asarray(nu, dtype=float) + phase)), None
    raise SpectralModelError(f"unknown density name: {name!r}")


# numpy's ``leggauss(32)`` written out, so that no run loads numpy.polynomial
# (a test pins the bits): the rule is symmetric, and its positive nodes and
# their weights are listed
_GL32 = tuple(np.concatenate([sign * half[::-1], half]) for sign, half in (
    (-1.0, np.array([
        0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
        0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
        0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
        0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
    ])),
    (1.0, np.array([
        0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
        0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
        0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
        0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
    ])),
))


def _composite_gauss(edges: np.ndarray, rule=_GL32):
    """Gauss-Legendre ``rule`` (nodes, weights; 32 points by default) on each
    panel between consecutive edges."""
    x0, w0 = rule
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xq = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    wq = (half[:, None] * w0[None, :]).ravel()
    return xq, wq


def _lagrange3(x, x0, x1, x2, order=0):
    """Weights on (x0, x1, x2) of the parabola through them at x: a list of one
    triple each for its value and its first ``order`` (at most 2) derivatives in x."""
    d0, d1, d2 = (x0 - x1) * (x0 - x2), (x1 - x0) * (x1 - x2), (x2 - x0) * (x2 - x1)
    a0, a1, a2 = x - x0, x - x1, x - x2
    triples = [(a1 * a2 / d0, a0 * a2 / d1, a0 * a1 / d2)]
    if order > 0:
        triples.append(((a1 + a2) / d0, (a0 + a2) / d1, (a0 + a1) / d2))
    if order > 1:
        triples.append((2.0 / d0, 2.0 / d1, 2.0 / d2))
    return triples


def _distinct(values) -> np.ndarray:
    """Sorted distinct values, as ``np.unique`` (which imports ``numpy.ma``) gives them."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    return values[np.insert(values[1:] != values[:-1], 0, True)]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# the model

@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Discretized spectrum of the measured observable.

    Attributes
    ----------
    atoms : tuple of (position, weight)
        Discrete spectral atoms; weights are strictly positive.
    intervals : tuple of (lo, hi)
        Closed, pairwise disjoint intervals of absolutely continuous
        spectrum.
    nodes, weights, hvals : ndarray
        Sorted grid nodes, their quadrature weights and density values.
        At atoms ``weights`` holds the atom weight and ``hvals`` is 1.
    is_atom : ndarray of bool
        Marks atom nodes.
    multiplicity : int
        Block size n of matrix-valued kernels over the grid.
    interval_slices : tuple of slice
        The grid indices of each interval's nodes (no atom lies among them).
    """

    atoms: tuple[tuple[float, float], ...]
    intervals: tuple[tuple[float, float], ...]
    nodes: np.ndarray
    weights: np.ndarray
    hvals: np.ndarray
    is_atom: np.ndarray
    multiplicity: int
    h_fn: Callable[[np.ndarray], np.ndarray]
    interval_edges: tuple[np.ndarray, ...]
    interval_slices: tuple[slice, ...]
    nodes_per_interval: int
    quadrature_errors: tuple[float, ...]

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def mass(self) -> np.ndarray:
        """Discrete measure of each node: quadrature weight times density."""
        return self.weights * self.hvals

    @property
    def hull(self) -> tuple[float, float]:
        """Smallest closed interval containing the whole spectrum."""
        lo = min([a for a, _ in self.atoms] + [a for a, _ in self.intervals])
        hi = max([a for a, _ in self.atoms] + [b for _, b in self.intervals])
        return lo, hi

    def interval_of(self, values) -> np.ndarray:
        """Index of the closed interval holding each value (an endpoint belongs
        to its interval), -1 where none does, nan included."""
        values = np.asarray(values, dtype=float)
        lo, hi = np.reshape(self.intervals, (-1, 2)).T
        j = np.searchsorted(lo, values, side="right") - 1
        # j = -1, below every interval, reads the nan past the last upper end
        return np.where(values <= np.append(hi, np.nan)[j], j, -1)

    def region_mask(self, region) -> np.ndarray:
        """Boolean node mask of a region after snapping.

        ``region`` is a nonempty sequence of components, each either a point
        (scalar) or an interval (pair).  Interval endpoints snap to the
        nearest cell boundary; atoms are selected by closed containment.
        A point selects the atom it names exactly (within 1e-9 of the
        hull width) or the grid cell containing it.  Points and endpoints
        must be finite.
        """
        mask = np.zeros(self.size, dtype=bool)
        lo_h, hi_h = self.hull
        scale = max(hi_h - lo_h, 1.0)
        hit_any = False
        for comp in region:
            if np.isscalar(comp):
                p = float(comp)
                if not np.isfinite(p):
                    raise RegionError(f"region point {p} is not finite")
                d = np.abs(self.nodes - p)
                d[~self.is_atom] = np.inf
                if self.is_atom.any() and d.min() <= 1e-9 * scale:
                    mask[int(np.argmin(d))] = True
                    hit_any = True
                    continue
                j = int(self.interval_of(p))
                if j < 0:
                    raise RegionError(f"point {p} lies outside the spectrum")
                edges = self.interval_edges[j]
                cell = int(np.clip(np.searchsorted(edges, p) - 1, 0, edges.size - 2))
                mask[self.interval_slices[j].start + cell] = True
                hit_any = True
            elif len(comp) != 2:
                raise RegionError(f"region component {list(comp)} is neither a point nor a pair")
            else:
                r0, r1 = float(comp[0]), float(comp[1])
                if not (np.isfinite(r0) and np.isfinite(r1)):  # nan would snap to an edge
                    raise RegionError(f"region component ({r0}, {r1}) is not finite")
                if r1 < r0:
                    raise RegionError(f"empty region component ({r0}, {r1})")
                # atoms: closed containment, no snapping
                sel = self.is_atom & (self.nodes >= r0) & (self.nodes <= r1)
                # interval nodes: snap each endpoint to the nearest cell edge
                for edges, sl in zip(self.interval_edges, self.interval_slices):
                    if r1 < edges[0] or r0 > edges[-1]:
                        continue
                    s0 = edges[np.argmin(np.abs(edges - max(r0, edges[0])))]
                    s1 = edges[np.argmin(np.abs(edges - min(r1, edges[-1])))]
                    sel[sl] |= (self.nodes[sl] > s0) & (self.nodes[sl] < s1)
                if sel.any():
                    hit_any = True
                elif r1 >= lo_h and r0 <= hi_h:
                    hit_any = True  # inside hull but between components
                mask |= sel
        if not hit_any:
            raise RegionError("region is empty" if len(region) == 0 else
                              "region lies outside the grid hull")
        return mask


def build_spectral_model(
    atoms: Sequence[tuple[float, float]] = (),
    intervals: Sequence[tuple[float, float]] = (),
    h=None,
    nodes_per_interval: int = 64,
    multiplicity: int = 1,
    quadrature_tol: float = 1e-3,
) -> SpectralModel:
    """Build a spectral model with a composite-midpoint quadrature grid.

    Parameters
    ----------
    atoms : sequence of (position, weight)
        Discrete spectrum; weights must be positive.
    intervals : sequence of (lo, hi)
        Closed disjoint intervals of absolutely continuous spectrum.
    h : scalar, callable or dict
        Spectral density on the intervals; must be strictly positive on
        interval interiors.  Defaults to the uniform density 1.
    nodes_per_interval : int
        Midpoint nodes per interval, from 2 to ``MAX_NODES_PER_INTERVAL``.
    multiplicity : int
        Block size of matrix-valued kernels, from 1 to ``MAX_MULTIPLICITY``.
    quadrature_tol : float
        Finite and positive: the maximum allowed relative error of the midpoint mass of each
        interval against a reference integral: 32 Gauss-Legendre points
        per grid cell (exact for ``uniform`` and ``linear`` densities), or
        for a ``table`` density the trapezoid rule over its knots (exact
        for its linear interpolant).
    """
    try:
        atoms = tuple((float(p), float(w)) for p, w in atoms)
        intervals = tuple((float(a), float(b)) for a, b in sorted(intervals))
    except (TypeError, ValueError) as exc:
        raise SpectralModelError(f"atoms and intervals must be numeric pairs: {exc}") from exc
    if not atoms and not intervals:
        raise SpectralModelError("empty spectrum: no atoms and no intervals")
    if intervals and not 2 <= nodes_per_interval <= MAX_NODES_PER_INTERVAL:
        raise SpectralModelError(
            f"nodes_per_interval must lie in [2, {MAX_NODES_PER_INTERVAL}], got {nodes_per_interval}"
        )
    if not 1 <= multiplicity <= MAX_MULTIPLICITY:
        raise SpectralModelError(
            f"multiplicity must lie in [1, {MAX_MULTIPLICITY}], got {multiplicity}"
        )
    if not (np.isfinite(quadrature_tol) and quadrature_tol > 0):  # nan would pass every grid
        raise SpectralModelError(
            f"quadrature_tol must be finite and positive, got {quadrature_tol}"
        )
    for p, w in atoms:
        if not (np.isfinite(p) and np.isfinite(w) and w > 0):
            raise SpectralModelError(
                f"atom ({p}, {w}): atom positions must be finite and weights finite and positive"
            )
    for (a, b) in intervals:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise SpectralModelError(f"interval endpoints must be finite, got [{a}, {b}]")
        if not np.isfinite([b - a, 2.0 * a, 2.0 * b]).all():  # width, cell midpoints
            raise SpectralModelError(f"interval [{a}, {b}] overflows float64 in its cells")
        if b <= a:
            raise SpectralModelError(f"degenerate interval [{a}, {b}]")
        dx = (b - a) / nodes_per_interval
        if not dx >= np.finfo(float).tiny:
            raise SpectralModelError(
                f"the cells of [{a}, {b}] are {dx:.3g} wide, not a positive normal float"
            )
    for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
        if a1 <= b0:
            raise SpectralModelError(
                f"intervals [{a0}, {b0}] and [{a1}, {b1}] overlap"
            )
    for p, _ in atoms:
        for a, b in intervals:
            if a <= p <= b:
                raise SpectralModelError(
                    f"atom at {p} lies inside interval [{a}, {b}]"
                )

    h_fn, knots = _h_from_spec(h)

    node_list: list[float] = []
    weight_list: list[float] = []
    hval_list: list[float] = []
    atom_list: list[bool] = []
    edges_list: list[np.ndarray] = []
    quad_errors: list[float] = []

    for p, w in atoms:
        node_list.append(p)
        weight_list.append(w)
        hval_list.append(1.0)
        atom_list.append(True)

    for a, b in intervals:
        edges = np.linspace(a, b, nodes_per_interval + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        hv = np.asarray(h_fn(mids), dtype=float)
        if not np.all(np.isfinite(hv) & (hv > 0)):
            bad = mids[np.flatnonzero(~(np.isfinite(hv) & (hv > 0)))[0]]
            raise SpectralModelError(
                f"density is not finite and positive at nu={bad} inside [{a}, {b}]"
            )
        dx = (b - a) / nodes_per_interval
        if knots is not None:
            # trapezoid over the knots is exact for a linear interpolant
            pts = _distinct(np.concatenate([[a, b], knots[(knots > a) & (knots < b)]]))
            ref = float(np.trapezoid(h_fn(pts), pts))
        else:
            xq, wq = _composite_gauss(edges)
            ref = float(wq @ h_fn(xq))
        with np.errstate(over="ignore"):
            mass = dx * hv.sum()
        if not np.isfinite(mass):
            raise SpectralModelError(f"the spectral mass of [{a}, {b}] overflows float64")
        err = abs(mass - ref) / max(abs(ref), 1e-300)
        if not err <= quadrature_tol:
            raise SpectralModelError(
                f"midpoint mass of [{a}, {b}] off by {err:.2e} (> {quadrature_tol:.0e}); "
                "increase nodes_per_interval or quadrature_tol"
            )
        quad_errors.append(err)
        node_list.extend(mids.tolist())
        weight_list.extend([dx] * nodes_per_interval)
        hval_list.extend(hv.tolist())
        atom_list.extend([False] * nodes_per_interval)
        edges_list.append(_readonly(edges))

    order = np.argsort(node_list, kind="stable")
    nodes = _readonly(np.asarray(node_list, dtype=float)[order])
    starts = np.searchsorted(nodes, [a for a, _ in intervals]).tolist()  # no atom lies inside
    if np.any(np.diff(nodes) <= 0):
        raise SpectralModelError("grid nodes are not strictly increasing")
    return SpectralModel(
        atoms=atoms,
        intervals=intervals,
        nodes=nodes,
        weights=_readonly(np.asarray(weight_list, dtype=float)[order]),
        hvals=_readonly(np.asarray(hval_list, dtype=float)[order]),
        is_atom=_readonly(np.asarray(atom_list, dtype=bool)[order]),
        multiplicity=int(multiplicity),
        h_fn=h_fn,
        interval_edges=tuple(edges_list),
        interval_slices=tuple(slice(s, s + int(nodes_per_interval)) for s in starts),
        nodes_per_interval=int(nodes_per_interval),
        quadrature_errors=tuple(quad_errors),
    )


# ---------------------------------------------------------------------------
# states

class StateKernel:
    """Density matrix as an n x n block kernel over a grid.

    The only stored form is a factor: ``K = Psi diag(d) Psi*`` with ``Psi``
    of shape (N, n, r) and r real, possibly signed, weights ``d``, so K is
    Hermitian by construction; a valid state is also positive semidefinite
    with unit trace.  Dense ``values`` (N, N, n, n) given instead (declared
    kernels) are factored on the spot by ``eigh`` of their mass-weighted
    Hermitian part, every eigenpair kept; their ``hermiticity_defect`` is
    kept for ``validate_state`` and reaches nothing else.  ``values``
    expands the factor on each read.  The grid only needs ``nodes`` and
    ``mass``, so kernels also live on rescaled windows.
    """

    def __init__(self, values: np.ndarray | None, grid, factor=None):
        n = getattr(grid, "multiplicity", 1)
        size = grid.nodes.size
        if (values is None) == (factor is None):
            raise ValueError("a kernel needs either values or a factor")
        self.hermiticity_defect = 0.0
        if factor is None:
            values = np.asarray(values, dtype=complex)
            if values.ndim == 2:
                values = values[:, :, None, None]
            if values.ndim != 4 or values.shape[0] != values.shape[1]:
                raise ValueError("kernel values must have shape (N, N, n, n)")
            if values.shape[0] != size or values.shape[2] != n:
                raise ValueError("kernel shape does not match its grid")
            herm = np.abs(values - values.conj().transpose(1, 0, 3, 2))
            self.hermiticity_defect = float(np.max(herm))
            s = np.sqrt(grid.mass)
            m = values * s[:, None, None, None] * s[None, :, None, None]
            m = m.transpose(0, 2, 1, 3).reshape(size * n, size * n)
            d, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
            factor = (vecs.reshape(size, n, -1) * inv[:, None, None], d)
        psi = np.asarray(factor[0], dtype=complex)
        d = np.asarray(factor[1], dtype=float)
        if psi.ndim != 3 or psi.shape[:2] != (size, n):
            raise ValueError("kernel factor must have shape (N, n, r)")
        if d.shape != psi.shape[2:]:
            raise ValueError("kernel factor needs one weight per column")
        self.factor = (_readonly(psi), _readonly(d))
        self.grid = grid

    @property
    def size(self) -> int:
        return self.grid.nodes.size

    @property
    def block_size(self) -> int:
        return getattr(self.grid, "multiplicity", 1)

    @property
    def values(self) -> np.ndarray:
        """Dense (N, N, n, n) kernel, expanded from the factor on each read."""
        return _expand_factor(*self.factor)

    def block_traces(self) -> np.ndarray:
        """Per-node block traces tr_block(K[i, i]), shape (N,)."""
        psi, d = self.factor
        return (np.abs(psi) ** 2).sum(axis=1) @ d

    def trace(self) -> float:
        """Discrete trace: sum of mass-weighted diagonal block traces."""
        return float(np.dot(self.grid.mass, self.block_traces()))

    @functools.cached_property
    def log_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``log w`` and ``log(w / sum w)`` of the node weights ``w = mass * block
        trace`` (-inf where w vanishes), computed once: the factor is read-only."""
        w = np.clip(self.grid.mass * self.block_traces(), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _readonly(np.log(w)), _readonly(np.log(w / w.sum()))


def _expand_factor(psi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Dense (N, N, n, n) values of ``Psi diag(d) Psi*``."""
    n_nodes, n, r = psi.shape
    flat = psi.reshape(n_nodes * n, r)
    dense = ((flat * d) @ flat.conj().T).reshape(n_nodes, n, n_nodes, n)
    return _readonly(dense.transpose(0, 2, 1, 3))


def _weighted_gram(mass, *factors) -> np.ndarray:
    """``R diag(d) R*`` for the QR ``Q R`` of the mass-weighted ``[Psi_1 Psi_2 ...]``.

    Its eigenvalues are those of the weighted ``sum_j Psi_j diag(d_j) Psi_j*``,
    less ``N n - r`` zeros when the r columns are fewer than N n.  Leading axes
    of ``mass`` (..., N), ``Psi_j`` (..., N, n, r_j) and ``d_j`` stack Grams.
    """
    s = np.sqrt(mass)[..., None, None]
    psis, ends = [psi for psi, _ in factors], np.cumsum([psi.shape[-1] for psi, _ in factors])
    w = np.empty(psis[0].shape[:-1] + (ends[-1],), dtype=np.result_type(s, *psis))
    for psi, end in zip(psis, ends):  # each weighted factor straight into its columns
        np.multiply(psi, s, out=w[..., end - psi.shape[-1] : end])
    r = np.linalg.qr(w.reshape(w.shape[:-3] + (w.shape[-3] * w.shape[-2], w.shape[-1])), mode="r")
    d = np.concatenate([d for _, d in factors], axis=-1)
    return (r * d[..., None, :]) @ r.conj().swapaxes(-1, -2)


def pure_state(model, psi) -> StateKernel:
    """Rank-one state from a wave function on the grid.

    ``psi`` may be a callable of nu, an (N,) array, or an (N, n) array for
    multiplicity n; it is normalized against the grid mass.  The factor is
    the normalized wave function itself, with weight 1.
    """
    n = getattr(model, "multiplicity", 1)
    if callable(psi):
        psi = np.asarray(psi(model.nodes), dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 1:
        psi = psi[:, None] if n == 1 else np.tile(psi[:, None], (1, n))
    norm2 = float(np.sum(model.mass * np.sum(np.abs(psi) ** 2, axis=1)))
    if not 0 < norm2 < np.inf:  # nan fails both
        raise ValueError(f"wave function has norm^2 {norm2} on the grid, not finite and positive")
    psi = psi / np.sqrt(norm2)
    return StateKernel(None, model, factor=(psi[:, :, None], np.ones(1)))


def diagonal_state(model, node_probs) -> StateKernel:
    """Diagonal (classical) state whose spectral weights are ``node_probs``.

    ``node_probs`` are per-node probabilities summing to 1; the kernel
    diagonal is ``probs / mass`` so the discrete trace is exactly 1.  The
    factor is the identity columns, weighted ``probs / mass / n``.
    """
    p = np.asarray(node_probs, dtype=float)
    if p.shape != (model.size,):
        raise ValueError("node_probs must have one entry per grid node")
    if not np.all(np.isfinite(p) & (p >= 0)):
        raise ValueError("node probabilities must be finite and nonnegative")
    total = p.sum()
    if total <= 0:
        raise ValueError("node probabilities sum to zero")
    p = p / total
    n = model.multiplicity
    psi = np.eye(model.size * n, dtype=complex).reshape(model.size, n, -1)
    return StateKernel(None, model, factor=(psi, np.repeat(p / model.mass / n, n)))


def spectral_probability(state: StateKernel, region) -> float:
    """Probability that the observable's value lies in ``region``.

    Sums mass-weighted diagonal block traces over the region's nodes
    after snapping; see ``SpectralModel.region_mask`` for the rule.
    """
    mask = state.grid.region_mask(region)
    return float(np.dot(state.grid.mass[mask], state.block_traces()[mask]))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class StateValidationReport:
    hermiticity_defect: float
    min_weighted_eigenvalue: float
    trace_defect: float
    hermiticity_tol: float
    psd_tol: float
    trace_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= self.hermiticity_tol
            and self.min_weighted_eigenvalue >= -self.psd_tol
            and self.trace_defect <= self.trace_tol
        )

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"state validation: {status} "
            f"(hermiticity {self.hermiticity_defect:.3e}, "
            f"min eigenvalue {self.min_weighted_eigenvalue:.3e}, "
            f"trace defect {self.trace_defect:.3e})"
        )


def validate_state(state: StateKernel) -> StateValidationReport:
    """Report Hermiticity, positivity and trace defects of a kernel.

    Weighted eigenvalues come from the small Gram of the factor.
    """
    gram = _weighted_gram(state.grid.mass, state.factor)
    eigs = np.linalg.eigvalsh(gram)
    if gram.shape[0] < state.size * state.block_size:
        eigs = np.append(eigs, 0.0)
    return StateValidationReport(
        hermiticity_defect=state.hermiticity_defect,
        min_weighted_eigenvalue=float(eigs.min()),
        trace_defect=abs(state.trace() - 1.0),
        hermiticity_tol=HERMITICITY_TOL,
        psd_tol=PSD_TOL,
        trace_tol=TRACE_TOL,
    )


# ---------------------------------------------------------------------------
# construction from JSON-compatible trees

def model_from_dict(d: dict) -> SpectralModel:
    def number(name, default, integer=False):
        try:
            x = float(d.get(name, default))
            if integer and x != int(x):  # int overflows on inf, fails on nan
                raise ValueError(x)
        except (TypeError, ValueError, OverflowError) as exc:
            kind = "an integer" if integer else "numeric"
            raise SpectralModelError(f"{name} must be {kind}, got {d[name]!r}") from exc
        return int(x) if integer else x

    return build_spectral_model(
        atoms=[tuple(a) for a in d.get("atoms", [])],
        intervals=[tuple(i) for i in d.get("intervals", [])],
        h=d.get("h"),
        nodes_per_interval=number("nodes_per_interval", 64, integer=True),
        multiplicity=number("multiplicity", 1, integer=True),
        quadrature_tol=number("quadrature_tol", 1e-3),
    )


def state_from_dict(model, d: dict) -> StateKernel:
    values = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    return StateKernel(values.reshape(d["shape"]), model)
