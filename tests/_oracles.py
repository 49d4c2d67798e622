"""Oracles the tests check the library against; nothing in ``src`` calls them.

``exact_tuple_distribution`` enumerates the exact law of short outcome
tuples in the mixture and the chain-rule form; ``weighted_matrix`` expands
a kernel's factor into its dense mass-weighted matrix; ``rule_blocks`` is
the validator's sweep over its outcome rule with new tables for each block;
``build_window_grid`` sizes and builds one zoom window;
``sampled_with_outcomes`` returns a sampler's ensemble with the outcomes
it drew and did not keep; ``loglik_node_sums`` sums outcome rows at each
node from their statistic, as the sampler sums a segment;
``blocked_distances`` is the L1 distance of every node pair as the
validator sums it, and ``contiguous_distances`` the former dense form;
``lagrange3``, ``stencil`` and ``apply_stencil`` are the quadratic rule, the
estimators' stencil and its application as they were before the stencil
wrote its weights one node at a time and the application used two tables.
"""

import itertools
from unittest import mock

import numpy as np

from qndsim import trajectories
from qndsim.estimators import (
    DEFAULT_WINDOW_NODES,
    DEFAULT_WINDOW_SIGMAS,
    MIN_WINDOW_SIGMAS,
    WindowGrid,
    _window_grids,
    _window_sizes,
)
from qndsim.probes import _blocks
from qndsim.spectral import StateKernel
from qndsim.trajectories import log_prior_weights


def sampled_with_outcomes(sample, *args, **kwargs):
    """A sampler call (``sample_ensemble``, ``definetti_sample`` or a run that
    makes one) and the (E x k) outcomes its rows drew: the row blocks given to
    ``trajectories._summarize``, the sampler's one reader of them, stacked."""
    blocks, summarize = [], trajectories._summarize

    def spy(probe, nodes, block, cps, sums):
        blocks.append(block.copy())
        return summarize(probe, nodes, block, cps, sums)

    with mock.patch.object(trajectories, "_summarize", spy):
        result = sample(*args, **kwargs)
    return result, np.concatenate(blocks)


def loglik_node_sums(probe, nodes, outcomes):
    """Summed log-likelihood of the outcomes at each node, (N,) for one row and
    (R x N) for a 2-D block: ``probe._node_sums`` of the rows' statistic, with
    the bits of each row alone; rows of no outcomes sum to 0."""
    nodes = np.asarray(nodes, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    rows = np.atleast_2d(outcomes)
    if rows.size:
        total = probe._node_sums(probe.statistic(rows), nodes)
    else:
        total = np.zeros((rows.shape[0], nodes.size))
    return total if outcomes.ndim == 2 else total[0]


def weighted_matrix(state: StateKernel) -> np.ndarray:
    """Dense mass-weighted (N*n, N*n) matrix, expanded from the factor."""
    psi, d = state.factor
    w = psi * np.sqrt(state.grid.mass)[:, None, None]
    w = w.reshape(state.size * state.block_size, d.size)
    return (w * d) @ w.conj().T


def exact_tuple_distribution(
    state: StateKernel, probe, k: int, method: str = "de-finetti"
) -> dict[tuple[float, ...], float]:
    """Exact law of the first k outcomes for a finite outcome space.

    ``de-finetti`` enumerates the mixture form; ``sequential`` applies the
    chain rule with explicit Bayes updates.  The two must agree — this is
    exchangeability made literal, and the sampler-equivalence tests lean
    on it.
    """
    if probe.outcomes is None:
        raise ValueError("exact enumeration needs a finite outcome space")
    values = np.asarray(probe.outcomes, dtype=float)
    if values.size**k > 2_000_000:
        raise ValueError("outcome tuple space too large to enumerate")
    nodes = state.grid.nodes
    prior = np.exp(log_prior_weights(state))
    prior = prior / prior.sum()
    dens = probe.density(values[:, None], nodes[None, :])  # (O, N)
    out: dict[tuple[float, ...], float] = {}
    for combo in itertools.product(range(values.size), repeat=int(k)):
        if method == "de-finetti":
            prob = float(np.dot(prior, np.prod(dens[list(combo)], axis=0)))
        elif method == "sequential":
            w = prior.copy()
            prob = 1.0
            for o in combo:
                step_prob = float(np.dot(w, dens[o]))
                prob *= step_prob
                w = w * dens[o] / step_prob
            prob = float(prob)
        else:
            raise ValueError(f"unknown method: {method!r}")
        out[tuple(float(values[o]) for o in combo)] = prob
    return out


def rule_blocks(probe, nodes):
    """For each row block of the outcome rule, as ``validate_probe`` cuts it: the
    block, the row minima and row maxima of |log f|, and new f, df/dnu and
    d2f/dnu2 tables (the sweep ``ProbeModel._rule_block`` writes in place)."""
    xs, _ = probe._quadrature(nodes)
    for sl in _blocks(xs.size, nodes.size):
        logf = probe.loglik_values(nodes, xs[sl])
        lo, hi = logf.min(axis=1), np.abs(logf).max(axis=1)
        yield (sl, lo, hi, *probe.density_derivs(xs[sl, None], nodes[None, :]))


def density_table(probe, nodes):
    """The (rule x N) density table of the probe's outcome rule, built in the
    validator's row blocks, and the rule's weights."""
    xs, wq = probe._quadrature(nodes)
    fmat = np.empty((xs.size, nodes.size))
    for sl in _blocks(xs.size, nodes.size):
        fmat[sl] = probe.density(xs[sl, None], nodes[None, :])
    return fmat, wq


def blocked_distances(fmat, wq):
    """(N x N) L1 distances ``sum_q w_q |f_qi - f_qj|`` of every column pair of
    the table, summed as ``validate_probe`` sums them: over each of its row
    blocks (``_blocks(rule, N)``) the terms are added one row after another
    from 0, then the block sums one block after another.  An explicit row
    loop, vectorised over the pairs."""
    total = np.zeros((fmat.shape[1],) * 2)
    for sl in _blocks(*fmat.shape):
        part = np.zeros_like(total)
        for w, row in zip(wq[sl], fmat[sl]):
            part += w * np.abs(row[:, None] - row[None, :])
        total += part
    return total


def contiguous_distances(fmat, wq, first, second):
    """The former L1 distances of the given column pairs: each pair's terms in
    one contiguous row of rule length, summed by numpy's pairwise rule."""
    out = np.empty(first.size)
    for sl in _blocks(first.size, fmat.shape[0]):
        diff = fmat.T[first[sl]]  # one law per row
        diff -= fmat.T[second[sl]]
        out[sl] = np.multiply(np.abs(diff, out=diff), wq, out=diff).sum(axis=1)
    return out


def build_window_grid(
    model,
    nu_hat: float,
    k: int,
    fisher: float,
    window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
    window_nodes: int = DEFAULT_WINDOW_NODES,
    min_sigmas: float = MIN_WINDOW_SIGMAS,
) -> WindowGrid:
    """Zoom window of half-width ``window_sigmas / sqrt(fisher)`` (rescaled), as
    ``kernel_distances`` sizes and builds its windows.

    The window is shrunk symmetrically so its original-variable image stays
    inside the interval owning the estimate; if that leaves less than
    ``min_sigmas / sqrt(fisher)``, the window cannot fit and a
    ``WindowError`` is raised.
    """
    halves, _ = _window_sizes(model, nu_hat, k, fisher, window_sigmas, min_sigmas)
    return _window_grids(model, nu_hat, k, halves, window_nodes).row(0)


def lagrange3(x, x0, x1, x2):
    """Weights on (x0, x1, x2) of the parabola through them at x: one triple
    each for its value and its first and second derivatives in x."""
    d0, d1, d2 = (x0 - x1) * (x0 - x2), (x1 - x0) * (x1 - x2), (x2 - x0) * (x2 - x1)
    a0, a1, a2 = x - x0, x - x1, x - x2
    return ((a1 * a2 / d0, a0 * a2 / d1, a0 * a1 / d2),
            ((a1 + a2) / d0, (a0 + a2) / d1, (a0 + a1) / d2), (2.0 / d0, 2.0 / d1, 2.0 / d2))


def stencil(xs, x, domain):
    """The nearest node's three-point stencil of each query, (first, (M, 3)
    weights), from the value triple of all three of ``lagrange3``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ValueError(f"interpolation bracket failure: query outside [{lo}, {hi}]")
    j = np.searchsorted(xs, x)
    left = np.clip(j - 1, 0, xs.size - 1)
    right = np.clip(j, 0, xs.size - 1)
    c = np.where(np.abs(x - xs[left]) <= np.abs(x - xs[right]), left, right)
    c = np.clip(c, 1, xs.size - 2)
    return c - 1, np.stack(lagrange3(x, xs[c - 1], xs[c], xs[c + 1])[0], axis=-1)


def apply_stencil(first, w, values):
    """``sum_s w[..., s] * values[first + s]`` along axis 0 in one expression."""
    w = np.moveaxis(w, -1, 0).reshape((3,) + first.shape + (1,) * (values.ndim - 1))
    return w[0] * values[first] + w[1] * values[first + 1] + w[2] * values[first + 2]
