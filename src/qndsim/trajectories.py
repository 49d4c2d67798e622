"""Trajectory engine: sampled outcome statistics and posterior evolution over the grid.

``sample_ensemble`` draws E independent trajectories; row i draws from
``trajectory_rng(master, i)``.  Two samplers give outcome sequences with
provably identical laws:

* ``de-finetti`` draws a hidden value of the observable from the initial
  spectral weights and then i.i.d. outcomes from its law — the mixture form
  of the outcome process (``definetti_sample`` is its one-row ensemble).
* ``sequential`` draws each outcome from the one-step predictive density
  given the running posterior — the chain-rule form.

The result is an ``Ensemble``: the (E x C x N) stack of the per-node
log-likelihood sums ``L_k[i] = sum_{j<=k} log f(xi_j | nu_i)`` after each of
the C held prefix lengths (``_held_prefixes``: the distinct checkpoints and
k), and the probe's sufficient statistic (``ProbeModel.statistic``) of the
same prefixes, (E x C x S).  Rows are drawn a block at a time, at most
``BLOCK_CELLS`` cells of its widest table (outcomes, or statistic x node
sums); ``_summarize`` sums each segment at every node from its statistic, so
the sums depend on the outcomes alone, and keeps the prefix statistics.  The
outcomes are not kept (a continuous tabulated family's statistic is the row
itself, a view of its block).  The sums are all the posterior needs:
``posterior_weights`` gives each row's ``prior * exp(L_k)`` renormalized
(E x N), in log space with max subtraction, so sequences of length 1e4 and
beyond are safe from underflow, and ``posterior_means`` reads them.
``Ensemble.sums_after`` reads the sums after chosen k, the estimators read
them in row blocks, and each row's result has the bits it has alone
(``ensemble[i]`` is row i as a one-row ensemble).

Reproducibility: per-trajectory generators are spawned from a master seed
as ``default_rng(SeedSequence(master, spawn_key=(index,)))``; identical
seeds give bitwise-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # numpy 2 loads np.random on first use, which would fall inside a run

from .probes import _blocks
from .spectral import StateKernel

__all__ = [
    "Ensemble",
    "trajectory_rng",
    "definetti_sample",
    "sample_ensemble",
    "log_prior_weights",
    "posterior_weights",
    "posterior_means",
]


def _logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` along ``axis``, bitwise equal to scipy 1.17's real path.

    The maxima are split out of the sum (Blanchard, Higham & Higham 2021):
    ``log1p(s / m) + log(m) + a_max`` with m the tie count.  Where that is not
    finite (all -inf, +inf, nan) the direct ``log(sum(exp(a)))`` stands.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axes, keepdims=True, initial=-np.inf)
        mask = a == a_max
        m = np.sum(mask, axis=axes, keepdims=True, dtype=a.dtype)
        t = np.where(mask, -np.inf, a)  # one table, shifted and exponentiated in place
        s = np.sum(np.exp(np.subtract(t, a_max, out=t), out=t), axis=axes, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        if not np.all(np.isfinite(out)):  # the direct form only where it is read
            direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def trajectory_rng(master: int, index: int) -> np.random.Generator:
    """The documented splitting rule: child ``index`` of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(index,)))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """E trajectories of one length ``k`` as arrays.

    ``sums`` (E x C x N) holds each row's log-likelihood sums after each of its
    C held prefix lengths, the ``checkpoints`` (ascending, k last), and
    ``stats`` (E x C x S) the probe's statistic of the same prefixes
    (``ProbeModel.statistic``: counts, the Gaussian ``(k, m, sum r, sum r^2)``,
    or the row prefix itself); ``hidden`` holds the mixture sampler's hidden
    values (None for the sequential sampler) and ``master`` the master seed.
    ``ensemble[i]`` is row i as a one-row ensemble, ``ensemble[a:b]`` rows a to b.
    """

    stats: np.ndarray
    sums: np.ndarray
    k: int
    checkpoints: tuple[int, ...]
    hidden: np.ndarray | None
    master: int | None = None

    def __post_init__(self):
        cps = tuple(self.checkpoints)
        if not (cps and cps == tuple(sorted(set(cps))) and cps[0] >= 0 and cps[-1] == self.k
                and self.sums.shape[1:2] == self.stats.shape[1:2] == (len(cps),)):
            raise ValueError(
                f"an ensemble of length {self.k} holds one column a checkpoint, ascending, "
                f"distinct, in [0, k] and ending at k: got checkpoints {cps} for sums of shape "
                f"{self.sums.shape} and statistics of shape {self.stats.shape}")

    def __len__(self) -> int:
        return len(self.sums)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # negatives from the end; IndexError past it ends iteration
            i = slice(i, i + 1)
        hidden = None if self.hidden is None else self.hidden[i]
        return Ensemble(self.stats[i], self.sums[i], self.k, self.checkpoints, hidden, self.master)

    def _columns(self, ks: Sequence[int]) -> list[int]:
        """The column of ``sums`` and ``stats`` after each k in ``ks`` (held, or ValueError)."""
        missing = sorted({int(c) for c in ks} - set(self.checkpoints))
        if missing:
            raise ValueError(f"no sums after k={missing}; the ensemble holds {self.checkpoints}")
        return [self.checkpoints.index(c) for c in ks]

    def sums_after(self, ks: Sequence[int]) -> np.ndarray:
        """Copy of each row's sums after each k in ``ks`` (rows x len(ks) x N)."""
        return self.sums[:, self._columns(ks)]


def _held_prefixes(checkpoints: Iterable[int], k: int) -> tuple[int, ...]:
    """The prefixes an ensemble of length k holds: its distinct checkpoints in [0, k], and k."""
    return tuple(sorted({int(c) for c in checkpoints if 0 <= int(c) <= k} | {k}))


def log_prior_weights(state: StateKernel) -> np.ndarray:
    """Log of the initial spectral weights; -inf where the prior vanishes.
    Computed once per state (``StateKernel.log_weights``, read-only)."""
    log_prior = state.log_weights[1]
    if not np.isfinite(log_prior).any():  # 0 / 0 where every weight vanishes
        raise ValueError("state has degenerate spectral weights (all zero)")
    return log_prior


def definetti_sample(
    state: StateKernel,
    probe,
    k: int,
    rng: np.random.Generator,
    checkpoints: Iterable[int] = (),
    hidden_nu: float | None = None,
) -> Ensemble:
    """Mixture sampler: hidden value first, then i.i.d. outcomes from its law.

    The hidden value is drawn from the initial spectral weights unless
    ``hidden_nu`` pins it (it need not be a grid node).  Returns the one-row
    ensemble of the trajectory, hidden value recorded: the one-member
    ``sample_ensemble``.
    """
    return _sample(state, probe, k, 1, iter([rng]), "de-finetti", checkpoints, hidden_nu)


def _sample(state, probe, k, size, rngs, sampler, checkpoints, hidden_nu=None, master=None):
    """``size`` rows, each from the next generator ``rngs`` yields, a block of
    rows at a time into one scratch table that ``_summarize`` reads: at most
    BLOCK_CELLS cells of its widest table, ``max(k, S x N)`` a row (at least one
    row).  A chain-rule row keeps running sums only to draw its next node."""
    nodes, k = state.grid.nodes, int(k)
    width = probe.statistic(np.empty((1, 0))).shape[1]
    cps = _held_prefixes(checkpoints, k)
    if sampler == "de-finetti":
        if hidden_nu is None:
            prior = np.exp(log_prior_weights(state))
            prior = prior / prior.sum()
        hidden = np.empty(size)
    elif sampler == "sequential":
        log_prior, one, hidden = log_prior_weights(state), np.empty(1), None
    else:
        raise ValueError(f"unknown sampler: {sampler!r}")
    sums, stats = np.empty((size, len(cps), nodes.size)), []
    for sl in _blocks(size, max(k, width * nodes.size)):
        block = np.empty((len(sums[sl]), k))  # new each block: a statistic may be a view of it
        for e, (row, rng) in enumerate(zip(block, rngs), sl.start):  # rngs: one a row, lazily
            if hidden is not None:
                nu = (float(nodes[rng.choice(nodes.size, p=prior)]) if hidden_nu is None
                      else hidden_nu)
                hidden[e] = nu
                row[:] = probe.sample(nu, k, rng)
            else:
                running = np.zeros(nodes.size)
                for step in range(k):
                    logw = log_prior + running
                    cdf = np.cumsum(np.exp(logw - logw.max()))
                    node = int(np.searchsorted(cdf, rng.random() * cdf[-1]))
                    row[step] = one[0] = probe.sample(float(nodes[node]), 1, rng)[0]
                    running += probe.loglik_values(nodes, one)[0]
        stats.append(_summarize(probe, nodes, block, cps, sums[sl]))
    return Ensemble(np.concatenate(stats), sums, k, cps, hidden, master)


def _summarize(probe, nodes, block, cps, sums) -> np.ndarray:
    """The one reader of a block of outcome rows (rows x k): writes their sums
    after each held prefix length ``cps`` into ``sums`` (rows x C x N), segment
    by segment in a single trajectory's order, each from its statistic, and
    returns the statistic of each prefix (rows x C x S): its segments' counts
    summed, exactly, or else the statistic of the prefix itself."""
    stats = []
    for j, (a, b) in enumerate(zip([0, *cps], cps)):
        seg = probe.statistic(block[:, a:b])
        np.add(sums[:, j - 1] if j else 0.0, probe._node_sums(seg, nodes), out=sums[:, j])
        if probe.outcomes is not None:
            stats.append(stats[-1] + seg if j else seg)
        else:
            stats.append(probe.statistic(block[:, :b]))
    return np.stack(stats, 1)


def sample_ensemble(
    state: StateKernel,
    probe,
    k: int,
    size: int,
    master_seed: int,
    sampler: str = "de-finetti",
    checkpoints: Iterable[int] = (),
    hidden_nu: float | None = None,
) -> Ensemble:
    """Independent trajectories; row i draws from ``trajectory_rng(master_seed, i)``."""
    if size < 1:
        raise ValueError("ensemble size must be at least 1")
    rngs = (trajectory_rng(master_seed, i) for i in range(size))  # each made as its row is drawn
    return _sample(state, probe, k, size, rngs, sampler, checkpoints, hidden_nu, master_seed)


def _sums_blocks(ensemble: Ensemble, ks: Sequence[int], row_cells: int = 0):
    """(slice, ``sums_after(ks)`` of its rows) for row blocks of the ensemble of
    at most BLOCK_CELLS // 4 cells (rows x len(ks) x nodes, or ``row_cells`` a
    row where the caller stacks more)."""
    for sl in _blocks(len(ensemble), max(len(ks) * ensemble.sums.shape[-1], row_cells), 4):
        yield sl, ensemble[sl].sums_after(ks)


def posterior_weights(state: StateKernel, ensemble: Ensemble, k: int) -> np.ndarray:
    """Spectral weights of the posterior after k outcomes (log-space), one row
    (E x N) a trajectory, read in row blocks: each row has the bits it has alone."""
    log_prior = log_prior_weights(state)
    out = np.empty((len(ensemble), state.size))
    for sl, sums in _sums_blocks(ensemble, [k]):
        logw = np.add(log_prior, sums[:, 0], out=sums[:, 0])  # sums is a copy
        shift = _logsumexp(logw, axis=-1)
        if not np.all(np.isfinite(shift)):
            raise AssertionError("posterior weights underflowed despite max subtraction")
        w = np.exp(np.subtract(logw, shift[:, None], out=logw), out=logw)
        np.divide(w, w.sum(axis=-1, keepdims=True), out=out[sl])
    return out


def posterior_means(state: StateKernel, ensemble: Ensemble, k: int) -> list[float]:
    """Posterior mean of the observable after k outcomes for each trajectory."""
    nodes = state.grid.nodes
    return [float(np.dot(w, nodes)) for w in posterior_weights(state, ensemble, k)]  # a dot a row
