"""Maximum likelihood, rate traces, CLT residuals, Laplace diagnostic,
rescaled kernels, the Gaussian limit, and the trace-norm distance."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qndsim import probes, spectral
from qndsim.estimators import (
    _INV_PHI,
    _INV_PHI2,
    REFINE_TOL_FACTOR,
    WindowError,
    WindowGrid,
    _interpolate,
    _interval_subgrid,
    _stencil,
    build_window_grid,
    clt_samples,
    kernel_distances,
    laplace_condition_check,
    limit_kernel,
    mle,
    mle_consistency_stat,
    mle_table,
    rate_traces,
    rescaled_posterior_kernel,
    trace_norm_distance,
)
from qndsim.harness import ExperimentConfig, prepare_run, run_experiment, simulate_ensemble
from qndsim.probes import (
    BinaryPhase,
    GaussianReadout,
    ProbeError,
    TabulatedProbe,
    _centred_sums,
)
from qndsim.spectral import (
    StateKernel,
    build_spectral_model,
    diagonal_state,
    pure_state,
)
from qndsim.trajectories import (
    Ensemble,
    _logsumexp,
    _sums_blocks,
    definetti_sample,
    sample_ensemble,
    trajectory_rng,
)

SEED = 20260810
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _gaussian_setup(n=100, sigma=1.0, psi=None):
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=n)
    probe = GaussianReadout(sigma=sigma)
    state = pure_state(model, psi or (lambda nu: np.ones_like(nu)))
    return model, probe, state


def _manual_ensemble(probe, model, rows, checkpoints=()):
    """Outcome rows (one row for a 1-D input) with their sums after each
    checkpoint and k, each summed from the outcomes in one call."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    ks = [*checkpoints, rows.shape[1]]
    sums = np.array([[probe.loglik_node_sums(model.nodes, row[:c]) for c in ks] for row in rows])
    return Ensemble(rows, sums, tuple(checkpoints), None)


# ---------------------------------------------------------------------------
# maximum likelihood

def test_mle_interior_refined_to_sample_mean():
    model, probe, _ = _gaussian_setup(50)
    traj = _manual_ensemble(probe, model, [0.2, 0.4])
    assert mle(traj, 2, model, probe) == pytest.approx(0.3, abs=1e-7)


def test_mle_clamps_to_spectrum_boundary():
    model, probe, _ = _gaussian_setup(50)
    traj = _manual_ensemble(probe, model, [1.6, 1.8])
    assert mle(traj, 2, model, probe) == pytest.approx(1.0, abs=1e-6)


def test_mle_tie_breaks_to_smallest_node():
    model = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    traj = Ensemble(np.empty((1, 0)), np.full((1, 1, 2), -1.0), (), None)
    assert mle(traj, 0, model, probe) == 0.0


def test_mle_shift_invariance():
    model, probe, _ = _gaussian_setup(40)
    traj = _manual_ensemble(probe, model, [0.1, 0.6, 0.5])
    base = mle(traj, 3, model, probe)
    for shift in (-1e6, -3.0, 7.5, 1e8):
        shifted = Ensemble(traj.outcomes, traj.sums + shift, (), None)
        assert mle(shifted, 3, model, probe) == base


@pytest.mark.parametrize("k", [1, 2, 7, 50, 400])
def test_binary_mle_table_is_the_closed_form_maximum_for_every_count(k):
    # c ones in k draws: sin^2(phi / 2) = c / k maximizes the likelihood, and the
    # phase is increasing on [0, 1], so the estimate is the clipped inversion
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=200)
    probe = BinaryPhase.embedded(0.0, 1.0)
    counts = np.arange(k + 1)
    outcomes = (np.arange(k)[None, :] < counts[:, None]).astype(float)
    half = 0.5 * (probe.offset + probe.slope * model.nodes)
    sums = counts[:, None] * np.log(np.sin(half) ** 2) + (k - counts)[:, None] * np.log(
        np.cos(half) ** 2
    )
    ensemble = Ensemble(outcomes, sums[:, None, :], (), None)
    exact = np.clip((2.0 * np.arcsin(np.sqrt(counts / k)) - probe.offset) / probe.slope, 0.0, 1.0)
    # the golden-section tolerance plus the sqrt(eps) flatness at the maximum
    assert np.abs(mle_table(ensemble, [k], model, probe)[:, 0] - exact).max() <= 5e-8


def test_mle_path_lies_in_spectrum():
    model, probe, state = _gaussian_setup(40)
    traj = definetti_sample(
        state, probe, 300, trajectory_rng(SEED, 0), checkpoints=[10, 100]
    )
    path = mle_table(traj, [10, 100, 300], model, probe)
    lo, hi = model.hull
    assert path.shape == (1, 3) and np.all((lo <= path) & (path <= hi))


# ---------------------------------------------------------------------------
# the scalar search the lock-step table replaced, kept as its oracle

def _golden_max(f, a, b, tol):
    """Golden-section maximization of a unimodal f on [a, b], one step at a time."""
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return 0.5 * ((a + d) if yc > yd else (c + b))


def _per_outcome_objective(probe, outcomes, lo, hi):
    """Reference closure: counts of the distinct outcomes for finite outcome
    spaces, otherwise a sum over every outcome at each call."""
    if probe.outcomes is not None:
        vals, counts = np.unique(outcomes, return_counts=True)
        return lambda nu: float(counts @ probe.loglik_values(np.asarray([nu]), vals)[:, 0])
    return lambda nu: float(probe.loglik_values(np.asarray([nu]), outcomes).sum())


def _scalar_objective(probe, outcomes, lo, hi):
    """The per-estimate closure of each family: the Gaussian ratio against the
    sample mean, the reference otherwise (and for a bracket without outcomes)."""
    if not isinstance(probe, GaussianReadout) or outcomes.size == 0:
        return _per_outcome_objective(probe, outcomes, lo, hi)
    m, sum_r, _ = _centred_sums(outcomes)
    k, two_var = outcomes.size, 2.0 * probe.sigma**2

    def objective(nu):
        d = m - nu
        return -d * (2.0 * sum_r + k * d) / two_var

    return objective


def _oracle_mle(sums, prefix, model, probe, objective=_scalar_objective):
    """One refined estimate by one scalar search from the sums after the first
    k outcomes and those outcomes: grid argmax, bracketing cells, golden
    section on a closure of the outcomes, clip."""
    idx = int(np.argmax(sums))
    nu0 = float(model.nodes[idx])
    j = None if model.is_atom[idx] else model.interval_index(nu0)
    if j is None:
        return nu0
    a, b = model.intervals[j]
    delta = (b - a) / model.nodes_per_interval
    lo, hi = max(a, nu0 - delta), min(b, nu0 + delta)
    hull_lo, hull_hi = model.hull
    tol = REFINE_TOL_FACTOR * max(hull_hi - hull_lo, 1.0)
    f = objective(probe, prefix, lo, hi)
    return float(np.clip(_golden_max(f, lo, hi, tol), lo, hi))


def _tabulated_probes():
    nu_grid = np.linspace(-0.5, 1.5, 21)
    xi_grid = np.linspace(-5.0, 6.0, 89)
    table = np.exp(-0.5 * (xi_grid[:, None] - nu_grid[None, :]) ** 2) / np.sqrt(2 * np.pi)
    return {
        "tabulated-continuous": TabulatedProbe(
            nu_grid=tuple(nu_grid), values=tuple(map(tuple, table)), xi_grid=tuple(xi_grid)
        ),
        "tabulated-finite": TabulatedProbe(
            nu_grid=(-0.5, 0.25, 0.75, 1.5),
            values=((0.2, 0.3, 0.6, 0.7), (0.8, 0.7, 0.4, 0.3)),
            outcomes=(0.0, 1.0),
        ),
    }


@pytest.mark.parametrize("name", ["binary", "tabulated-continuous", "tabulated-finite"])
def test_refined_mle_equals_the_per_outcome_objective_bitwise(name):
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=40)
    families = {"binary": BinaryPhase.embedded(0.0, 1.0), **_tabulated_probes()}
    probe = families[name]
    state = pure_state(model, lambda nu: np.ones_like(nu))
    trajs = [
        definetti_sample(state, probe, 300, trajectory_rng(SEED, i), checkpoints=[30])
        for i in range(5)
    ]
    got = [mle(t, k, model, probe) for t in trajs for k in (30, 300)]
    oracle = [
        _oracle_mle(t.sums_after([k])[0, 0], t.outcomes[0, :k], model, probe, _per_outcome_objective)
        for t in trajs for k in (30, 300)
    ]
    assert np.array(got).tobytes() == np.array(oracle).tobytes()


def test_refined_gaussian_mle_reads_no_outcome_under_a_covering_extension(monkeypatch):
    model, probe, _ = _gaussian_setup(50)
    traj = _manual_ensemble(probe, model, np.linspace(0.1, 0.7, 1000))

    def refuse(*args):
        raise AssertionError("loglik_values called during refinement")

    monkeypatch.setattr(GaussianReadout, "loglik_values", refuse)
    assert mle(traj, 1000, model, probe) == pytest.approx(0.4, abs=1e-8)


def test_finite_objective_counts_many_outcomes_and_rejects_foreign_ones():
    values = np.linspace(-1.0, 1.0, 25)
    nu_grid = (0.0, 0.5, 1.0)
    dens = np.exp(-4.0 * np.subtract.outer(values, nu_grid) ** 2)
    dens /= dens.sum(axis=0)
    probe = TabulatedProbe(nu_grid=nu_grid, values=tuple(map(tuple, dens)), outcomes=tuple(values))
    rng = np.random.default_rng(SEED)
    prefixes = [rng.choice(values, size) for size in (0, 1, 7, 500)]
    nus = np.array([0.1, 0.3, 0.6, 0.9])
    got = probe.loglik_objective(prefixes, np.zeros(4), np.ones(4))(np.arange(4), nus)
    oracle = [_per_outcome_objective(probe, xi, 0.0, 1.0)(nu) for xi, nu in zip(prefixes, nus)]
    assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)
    for foreign in (0.05, np.nan, 2.0):
        with pytest.raises(ProbeError):
            probe.loglik_objective([values[:3], np.array([values[0], foreign])], 0.0, 1.0)


def _zero_table_probe():
    """Finite table whose third outcome has density exactly 0 for nu <= 0.75."""
    return TabulatedProbe(
        nu_grid=(-0.5, 0.25, 0.75, 1.5),
        values=((0.3, 0.3, 0.6, 0.5), (0.7, 0.7, 0.4, 0.2), (0.0, 0.0, 0.0, 0.3)),
        outcomes=(0.0, 1.0, 2.0),
    )


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "tabulated-continuous", "binary", "tabulated-zero"]),
    two_intervals=st.booleans(),
    atoms=st.sampled_from([(), (1.25,), (-0.25, 1.25)]),
    nodes=st.integers(3, 30),
    k_max=st.integers(1, 400),
    extra=st.lists(st.integers(0, 400), max_size=4),
    ensemble=st.integers(1, 4),
    sigma=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mle_table_equals_the_scalar_search_bitwise(
    family, two_intervals, atoms, nodes, k_max, extra, ensemble, sigma, seed
):
    rng = np.random.default_rng(seed)
    intervals = [(0.0, 0.45), (0.55, 1.0)] if two_intervals else [(0.0, 1.0)]
    model = build_spectral_model(
        atoms=[(p, 0.2) for p in atoms], intervals=intervals, nodes_per_interval=nodes
    )
    lo, hi = model.hull
    probe = {
        "gaussian": GaussianReadout(sigma=sigma),
        # the per-outcome objective of a continuous family without a closed form
        "tabulated-continuous": _tabulated_probes()["tabulated-continuous"],
        "binary": BinaryPhase.embedded(lo, hi),
        "tabulated-zero": _zero_table_probe(),
    }[family]
    rows = [probe.sample(rng.uniform(lo, hi), k_max, rng) for _ in range(ensemble)]
    checkpoints = sorted({0, k_max, *(c for c in extra if c <= k_max)})
    table = mle_table(_manual_ensemble(probe, model, rows, checkpoints), checkpoints, model, probe)
    oracle = [
        [_oracle_mle(probe.loglik_node_sums(model.nodes, o[:k]), o[:k], model, probe)
         for k in checkpoints]
        for o in rows
    ]
    assert table.tobytes() == np.array(oracle).tobytes()
    in_spectrum = np.isin(table, model.nodes[model.is_atom]) | np.any(
        [(a <= table) & (table <= b) for a, b in model.intervals], axis=0
    )
    assert in_spectrum.all()


def _reduced_run(kind):
    """Reduced shipped configs that keep the ensemble and checkpoint counts."""
    gaussian = {"kind": "gaussian-readout", "sigma": 1.0}
    base = {
        "spectral": {"intervals": [[0.0, 1.0]], "h": {"name": "uniform"}, "nodes_per_interval": 100},
        "state": {"type": "pure", "psi": {"name": "flat"}},
        "sampler": "de-finetti",
        "seed": SEED,
    }
    return ExperimentConfig.from_dict({**base, **{
        "rate-convergence": {
            "kind": kind, "probe": gaussian, "k_max": 3000,
            "checkpoints": [3, 10, 30, 100, 300, 1000, 3000], "ensemble": 50,
            "hidden_nu": 0.2, "region": [[0.6, 1.0]],
        },
        "kernel-convergence": {
            "kind": kind, "probe": gaussian, "k_max": 3000,
            "checkpoints": [100, 1000, 3000], "ensemble": 20, "hidden_nu": 0.5,
            "state": {"type": "pure", "psi": {"name": "exp", "rate": 0.5}},
        },
        "clt": {
            "kind": kind, "k_max": 200, "checkpoints": [200], "ensemble": 2000,
            "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
        },
    }[kind]})


@pytest.mark.parametrize(
    "kind, searches",
    [("rate-convergence", 350), ("kernel-convergence", 60), ("clt", 2000)],
)
def test_a_run_searches_each_estimate_once_in_one_table(kind, searches, monkeypatch):
    cfg = _reduced_run(kind)
    probe_cls = GaussianReadout if cfg.probe["kind"] == "gaussian-readout" else BinaryPhase
    original = probe_cls.loglik_objective
    asked = []

    def counting(self, prefixes, lo, hi):
        asked.append(np.size(lo))  # brackets asked for in this call
        return original(self, prefixes, lo, hi)

    monkeypatch.setattr(probe_cls, "loglik_objective", counting)
    run_experiment(cfg)
    assert asked == [searches]


ACCURACY_MODEL = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=50)


@given(
    k=st.integers(1, 10_000),
    sigma=st.floats(0.05, 5.0),
    nu=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_refined_gaussian_mle_is_the_clipped_sample_mean(k, sigma, nu, seed):
    model = ACCURACY_MODEL
    probe = GaussianReadout(sigma=sigma)
    outcomes = probe.sample(nu, k, np.random.default_rng(seed))
    traj = _manual_ensemble(probe, model, outcomes)
    lo, hi = model.hull
    exact = float(np.clip(outcomes.mean(), lo, hi))
    assert abs(mle(traj, k, model, probe) - exact) <= REFINE_TOL_FACTOR * (hi - lo)


def test_consistency_stat_trivial_cases():
    model = build_spectral_model(atoms=[(0.4, 1.0)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([1.0]))
    trajs = sample_ensemble(state, probe, 20, 50, SEED)
    inside = mle_consistency_stat(trajs, 20, model, [0.4], state)
    assert inside.frequency == 1.0 and inside.exact_probability == 1.0
    full = mle_consistency_stat(trajs, 20, model, [(0.0, 1.0)], state)
    assert full.frequency == 1.0
    with pytest.raises(ValueError):
        mle_consistency_stat(trajs[:0], 20, model, [0.4], state)


# ---------------------------------------------------------------------------
# rate traces

def test_rate_vanishes_on_region_containing_estimate():
    model, probe, state = _gaussian_setup(100)
    traj = definetti_sample(
        state, probe, 2000, trajectory_rng(SEED, 1), hidden_nu=0.5,
        checkpoints=[100, 2000],
    )
    (trace,) = rate_traces(
        state, traj, [(0.3, 0.7)], [100, 2000], model, probe,
        estimates=[mle(traj, 2000, model, probe)],
    )
    assert abs(trace.values[-1]) < 1e-3
    # zero up to grid resolution: the refined estimate sits between nodes,
    # half a cell of 0.01 away at worst, and the entropy is quadratic there
    assert trace.target <= (0.005**2) / 2.0 + 1e-12


def test_rate_positive_when_region_excludes_estimate():
    model, probe, state = _gaussian_setup(200)
    traj = definetti_sample(
        state, probe, 5000, trajectory_rng(SEED, 2), hidden_nu=0.2,
        checkpoints=[10, 100, 1000, 5000],
    )
    (trace,) = rate_traces(
        state, traj, [(0.6, 1.0)], [10, 100, 1000, 5000], model, probe,
        estimates=[mle(traj, 5000, model, probe)],
    )
    assert all(v >= -1e-10 for v in trace.values)
    assert trace.values[-1] > 0.05


def test_two_atom_rate_matches_relative_entropy_oracle():
    model = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([0.5, 0.5]))
    phase = probe.offset + probe.slope * model.nodes
    f0 = np.cos(phase / 2) ** 2
    rates = []
    for i in range(5):
        traj = definetti_sample(
            state, probe, 10_000, trajectory_rng(SEED, i), hidden_nu=0.0,
            checkpoints=[10_000],
        )
        estimate = mle(traj, 10_000, model, probe)
        (trace,) = rate_traces(
            state, traj, [1.0], [10_000], model, probe, estimates=[estimate]
        )
        rates.append(trace.values[-1])
    # direct two-term relative entropy between the atom laws
    oracle = f0[0] * np.log(f0[0] / f0[1]) + (1 - f0[0]) * np.log(
        (1 - f0[0]) / (1 - f0[1])
    )
    assert np.median(rates) == pytest.approx(oracle, rel=0.1)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
def test_rate_traces_equal_the_exact_gaussian_posterior(sigma):
    """Given nu the outcomes are i.i.d. N(nu, sigma^2), so after c of them the
    log posterior weights are ``log prior - c (m_c - nu)^2 / 2 sigma^2`` plus a
    constant, m_c the prefix mean; each rate is ``-(LSE_region - LSE_all) / c``."""
    wave = lambda nu: np.exp(nu) * (1.0 + 0.5 * nu)  # noqa: E731
    model, probe, state = _gaussian_setup(100, sigma=sigma, psi=wave)
    cps = [3, 10, 30, 100, 300, 1000, 3000]
    ensemble = sample_ensemble(state, probe, 3000, 20, SEED, checkpoints=cps, hidden_nu=0.2)
    region = [(0.6, 1.0)]
    traces = rate_traces(state, ensemble, region, cps, model, probe, estimates=np.full(20, 0.2))
    mask = model.region_mask(region)
    log_prior = np.log(model.mass * np.abs(wave(model.nodes)) ** 2)
    for trace, outcomes in zip(traces, ensemble.outcomes):
        exact = []
        for c in cps:
            logw = log_prior - c * (outcomes[:c].mean() - model.nodes) ** 2 / (2.0 * sigma**2)
            exact.append(-(logsumexp(logw[mask]) - logsumexp(logw)) / c)
        np.testing.assert_allclose(trace.values, exact, rtol=1e-12, atol=0.0)


def test_rate_trace_rejects_zero_prior_region():
    model = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([1.0, 0.0]))
    traj = definetti_sample(state, probe, 10, trajectory_rng(SEED, 3))
    estimate = mle(traj, 10, model, probe)
    with pytest.raises(Exception, match="prior"):
        rate_traces(state, traj, [1.0], [10], model, probe, estimates=[estimate])


# ---------------------------------------------------------------------------
# central-limit statistics

def test_gaussian_residuals_reduce_to_sample_mean():
    model, probe, state = _gaussian_setup(120, sigma=0.05)
    trajs = sample_ensemble(state, probe, 100, 80, SEED)
    estimates = mle_table(trajs, [100], model, probe)[:, 0]
    samples = clt_samples(trajs, 100, model, probe, estimates=estimates)
    margin = 5.0 / np.sqrt(100 * 400)  # five estimator sigmas off the boundary
    analytic = np.array(
        [
            np.sqrt(100 * 400) * (outcomes.mean() - nu)
            for outcomes, nu in zip(trajs.outcomes, trajs.hidden)
            if margin < nu < 1.0 - margin
        ]
    )
    # unclamped estimates equal the sample mean, so residuals are exact
    assert samples.residuals.size == analytic.size
    assert np.max(np.abs(np.sort(samples.residuals) - np.sort(analytic))) < 1e-3


def test_clt_exclusions_are_reported():
    model = build_spectral_model(
        atoms=[(2.0, 0.5)], intervals=[(0.0, 1.0)], nodes_per_interval=50
    )
    probe = GaussianReadout(sigma=0.1)
    probs = np.full(51, 0.5 / 50)
    probs[model.is_atom] = 0.5
    state = diagonal_state(model, probs)
    trajs = sample_ensemble(state, probe, 25, 60, SEED)
    estimates = mle_table(trajs, [25], model, probe)[:, 0]
    samples = clt_samples(trajs, 25, model, probe, estimates=estimates)
    assert samples.excluded_atoms > 0
    assert samples.excluded_boundary + samples.excluded_atoms + samples.count == 60


def test_clt_requires_hidden_values():
    model, probe, state = _gaussian_setup(30)
    traj = Ensemble(np.zeros((1, 5)), np.zeros((1, 1, model.size)), (), None)
    with pytest.raises(ValueError):
        clt_samples(traj, 5, model, probe, estimates=[mle(traj, 5, model, probe)])


# ---------------------------------------------------------------------------
# Laplace-integral diagnostic

def test_laplace_ratio_exact_for_gaussian():
    model, probe, state = _gaussian_setup(200)
    for i in range(3):
        traj = definetti_sample(
            state, probe, 400, trajectory_rng(SEED, i), hidden_nu=0.5,
            checkpoints=[400],
        )
        estimate = mle(traj, 400, model, probe)
        check = laplace_condition_check(traj, 400, model, probe, estimate=estimate)
        assert check.ratio == pytest.approx(1.0, abs=1e-8)
        assert check.fisher == pytest.approx(1.0, abs=1e-9)


def test_laplace_ratio_binary_near_one_at_large_k():
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=200)
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = pure_state(model, lambda nu: np.ones_like(nu))
    traj = definetti_sample(
        state, probe, 10_000, trajectory_rng(SEED, 5), hidden_nu=0.5,
        checkpoints=[10_000],
    )
    estimate = mle(traj, 10_000, model, probe)
    check = laplace_condition_check(traj, 10_000, model, probe, estimate=estimate)
    assert abs(check.ratio - 1.0) < 0.05


def test_laplace_small_k_is_diagnostic_only():
    model, probe, state = _gaussian_setup(100)
    traj = definetti_sample(
        state, probe, 1, trajectory_rng(SEED, 6), hidden_nu=0.5, checkpoints=[1]
    )
    check = laplace_condition_check(traj, 1, model, probe, estimate=mle(traj, 1, model, probe))
    assert np.isfinite(check.ratio) and check.ratio > 0


# ---------------------------------------------------------------------------
# rescaled kernels and the Gaussian limit

def test_rescaled_kernel_trace_and_rank():
    model, probe, state = _gaussian_setup(300)
    traj = definetti_sample(
        state, probe, 10_000, trajectory_rng(SEED, 7), hidden_nu=0.5,
        checkpoints=[10_000],
    )
    estimate = mle(traj, 10_000, model, probe)
    zoom = rescaled_posterior_kernel(state, traj, 10_000, model, probe, estimate=estimate)
    assert abs(zoom.kernel.trace() - 1.0) < 1e-8
    svals = np.linalg.svd(zoom.kernel.weighted_matrix(), compute_uv=False)
    assert svals[1] < 1e-8  # pure initial state stays rank one
    assert zoom.window_mass == pytest.approx(1.0, abs=1e-6)


def test_rescaled_kernel_matches_gaussian_for_flat_state():
    model, probe, state = _gaussian_setup(300)
    traj = definetti_sample(
        state, probe, 10_000, trajectory_rng(SEED, 8), hidden_nu=0.5,
        checkpoints=[10_000],
    )
    estimate = mle(traj, 10_000, model, probe)
    zoom = rescaled_posterior_kernel(state, traj, 10_000, model, probe, estimate=estimate)
    limit = limit_kernel(model, state, zoom.estimate, zoom.fisher, zoom.window)
    assert trace_norm_distance(zoom.kernel, limit) < 1e-4


def test_window_clamps_at_small_k():
    model, probe, state = _gaussian_setup(300)
    traj = definetti_sample(
        state, probe, 100, trajectory_rng(SEED, 9), hidden_nu=0.5, checkpoints=[100]
    )
    estimate = mle(traj, 100, model, probe)
    zoom = rescaled_posterior_kernel(state, traj, 100, model, probe, estimate=estimate)
    halfwidth = -zoom.window.offsets[0] + 0.5 * zoom.window.spacing
    assert 2.0 < halfwidth < 8.0  # shrunk from the default eight sigmas
    assert abs(zoom.kernel.trace() - 1.0) < 1e-8


def test_window_error_near_boundary():
    model, probe, state = _gaussian_setup(300)
    traj = _manual_ensemble(probe, model, np.full(100, -1.0))  # argmax at the edge
    with pytest.raises(WindowError):
        rescaled_posterior_kernel(
            state, traj, 100, model, probe, estimate=mle(traj, 100, model, probe)
        )


def test_window_error_without_continuum():
    model = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([0.5, 0.5]))
    traj = definetti_sample(state, probe, 50, trajectory_rng(SEED, 10))
    with pytest.raises(WindowError):
        rescaled_posterior_kernel(
            state, traj, 50, model, probe, estimate=mle(traj, 50, model, probe)
        )


def test_limit_kernel_gaussian_normalization():
    # flat h and unit block: the window trace is the integral of the diagonal
    model, _, state = _gaussian_setup(200)
    for fisher in (0.25, 1.0, 9.0):
        window = build_window_grid(model, 0.5, 10_000, fisher, window_nodes=401)
        assert -window.offsets[0] > 7.9 / np.sqrt(fisher)  # the full eight sigmas
        limit = limit_kernel(model, state, 0.5, fisher, window)
        assert abs(limit.trace() - 1.0) < 1e-8
    with pytest.raises(ValueError, match="fisher"):
        limit_kernel(model, state, 0.5, 0.0, window)


def test_limit_kernel_unit_block_and_zero_case():
    model, probe, state = _gaussian_setup(200)
    window = build_window_grid(model, 0.5, 10_000, 1.0)
    limit = limit_kernel(model, state, 0.5, 1.0, window)
    # flat h and unit block: the diagonal is the normalized Gaussian itself
    x = window.offsets[100]
    assert limit.values[100, 100, 0, 0].real == pytest.approx(
        np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi), rel=1e-12
    )
    assert abs(limit.trace() - 1.0) < 1e-6

    # vanishing diagonal at the estimate produces the zero kernel
    probs = np.full(model.size, 1.0)
    dead = int(np.argmin(np.abs(model.nodes - 0.5)))
    probs[dead] = 0.0
    state0 = diagonal_state(model, probs / probs.sum())
    limit0 = limit_kernel(model, state0, float(model.nodes[dead]), 1.0, window)
    assert np.all(limit0.values == 0)


def test_limit_kernel_trace_under_varying_density():
    model = build_spectral_model(
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=200,
    )
    state = pure_state(model, lambda nu: np.ones_like(nu))
    for k, tol in ((100, 2e-3), (10_000, 1e-4)):
        window = build_window_grid(model, 0.5, k, 1.0, window_sigmas=4.0)
        limit = limit_kernel(model, state, 0.5, 1.0, window)
        assert abs(limit.trace() - 1.0) < tol + 1e-4  # schedule tightens with k


@pytest.mark.parametrize("multiplicity", [1, 2])
@pytest.mark.parametrize("pure", [True, False])
def test_limit_kernel_factor_matches_dense_formula(multiplicity, pure):
    rng = np.random.default_rng(SEED + multiplicity)
    model = build_spectral_model(
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=80,
        multiplicity=multiplicity,
    )
    if pure:
        shape = (model.size, multiplicity)
        state = pure_state(model, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        state = diagonal_state(model, rng.random(model.size) + 0.01)
    nu_hat, fisher = 0.43, 2.5
    window = build_window_grid(model, nu_hat, 400, fisher, window_nodes=51)
    limit = limit_kernel(model, state, nu_hat, fisher, window)

    # the dense g(x, y) c / h formula, block c interpolated at the estimate
    sl, (a, b) = _interval_subgrid(model, nu_hat)
    first, w = _stencil(model.nodes[sl], nu_hat, (a, b))
    idx = sl.start + first[0] + np.arange(3)
    block = np.einsum("i,iab->ab", w[0], state.values[idx, idx])
    c = block / np.trace(block).real
    x = window.offsets
    g = np.exp(-0.25 * fisher * (x[:, None] ** 2 + x[None, :] ** 2)) / np.sqrt(2.0 * np.pi / fisher)
    oracle = g[:, :, None, None] * c[None, None] / float(model.h_fn(np.asarray([nu_hat]))[0])

    psi, d = limit.factor
    assert psi.shape == (window.offsets.size, multiplicity, multiplicity)
    got = np.einsum("xar,r,ybr->xyab", psi, d, psi.conj())
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


# ---------------------------------------------------------------------------
# trace-norm distance

def _random_kernel(model, rng):
    n = model.size
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = a @ a.conj().T
    state = StateKernel(k, model)
    return StateKernel(k / state.trace(), model)


def test_trace_norm_identical_kernels():
    model, _, state = _gaussian_setup(30)
    assert trace_norm_distance(state, state) == 0.0


def test_trace_norm_orthogonal_pure_states():
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=20)
    left = np.where(model.nodes < 0.5, 1.0, 0.0)
    right = np.where(model.nodes >= 0.5, 1.0, 0.0)
    a = pure_state(model, left)
    b = pure_state(model, right)
    assert trace_norm_distance(a, b) == pytest.approx(2.0, abs=1e-10)


def test_trace_norm_is_a_norm():
    model, _, _ = _gaussian_setup(12)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        a, b, c = (_random_kernel(model, rng) for _ in range(3))
        dab = trace_norm_distance(a, b)
        dba = trace_norm_distance(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= trace_norm_distance(a, c) + trace_norm_distance(c, b) + 1e-12
        assert dab > 1e-12  # distinct random kernels never coincide


def test_trace_norm_equal_factors_give_exact_zero():
    # distinct kernel objects with equal factors: R D R* of [U U] would leave
    # rounding-level eigenvalues
    model, _, _ = _gaussian_setup(50)
    rng = np.random.default_rng(SEED)
    psi = rng.standard_normal(model.size) + 1j * rng.standard_normal(model.size)
    assert trace_norm_distance(pure_state(model, psi), pure_state(model, psi)) == 0.0


def test_trace_norm_mismatched_grids():
    m1, _, s1 = _gaussian_setup(10)
    m2, _, s2 = _gaussian_setup(12)
    with pytest.raises(ValueError):
        trace_norm_distance(s1, s2)
    # equal nodes and masses on distinct grid objects are one grid
    m3, _, s3 = _gaussian_setup(10)
    assert m3 is not m1 and trace_norm_distance(s1, s3) == 0.0
    # equal nodes but different masses are not
    tilted = build_spectral_model(
        intervals=[(0.0, 1.0)], h={"name": "linear"}, nodes_per_interval=10
    )
    with pytest.raises(ValueError):
        trace_norm_distance(s1, pure_state(tilted, lambda nu: np.ones_like(nu)))


def _oracle_kernel(kind, model, r, rng):
    """A kernel of the named kind on ``model`` for the trace-norm oracle."""
    size, n = model.size, model.multiplicity
    if kind == "pure":
        return pure_state(model, rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n)))
    if kind == "diagonal":
        return diagonal_state(model, rng.random(size) + 0.01)
    if kind == "factor":  # low rank with signed weights: indefinite
        psi = rng.standard_normal((size, n, r)) + 1j * rng.standard_normal((size, n, r))
        return StateKernel(None, model, factor=(psi, rng.standard_normal(r)))
    a = rng.standard_normal((size * n,) * 2) + 1j * rng.standard_normal((size * n,) * 2)
    h = a @ a.conj().T if kind == "dense-psd" else a + a.conj().T  # else indefinite
    return StateKernel(h.reshape(size, n, size, n).transpose(0, 2, 1, 3), model)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["pure", "diagonal", "factor", "dense-psd", "dense"])] * 2),
    n_nodes=st.integers(2, 30),
    multiplicity=st.integers(1, 2),
    ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_norm_equals_dense_svd_oracle(kinds, n_nodes, multiplicity, ranks, seed):
    rng = np.random.default_rng(seed)
    model = build_spectral_model(
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=n_nodes,
        multiplicity=multiplicity,
    )
    a, b = (_oracle_kernel(k, model, r, rng) for k, r in zip(kinds, ranks))
    oracle = np.linalg.svd(a.weighted_matrix() - b.weighted_matrix(), compute_uv=False).sum()
    assert abs(trace_norm_distance(a, b) - oracle) <= 1e-12 * max(1.0, oracle)


def test_trace_norm_reads_the_hermitian_part_of_dense_values():
    # a dense kernel Hermitian only to within 1e-12 is held as the factor of
    # its Hermitian part (one triangle alone would move the distance by about
    # 5e-13 here), so the singular-value sum of the expanded difference agrees
    model, _, _ = _gaussian_setup(20)
    rng = np.random.default_rng(SEED)
    herm, other = _random_kernel(model, rng), _random_kernel(model, rng)
    s = rng.standard_normal((model.size, model.size))
    defect = 1e-12 * 1j * (s + s.T)  # anti-Hermitian
    skewed = StateKernel(herm.values + defect[:, :, None, None], model)
    assert skewed.hermiticity_defect > 1e-12
    dist = trace_norm_distance(skewed, other)
    expected = trace_norm_distance(herm, other)
    assert abs(dist - expected) <= 1e-14 * expected
    svd_sum = np.linalg.svd(
        skewed.weighted_matrix() - other.weighted_matrix(), compute_uv=False
    ).sum()
    assert abs(dist - svd_sum) <= 1e-14 * svd_sum


# ---------------------------------------------------------------------------
# interpolation

def test_quadratic_interpolant_reproduces_parabolas():
    xs = np.linspace(0.0, 1.0, 11)
    ys = 3.0 * xs**2 - 2.0 * xs + 0.5
    qs = np.linspace(0.0, 1.0, 57)
    got = _interpolate(xs, ys, qs, (0.0, 1.0))
    assert np.max(np.abs(got - (3.0 * qs**2 - 2.0 * qs + 0.5))) < 1e-12


def test_quadratic_interpolant_bracket_failure():
    with pytest.raises(ValueError, match="bracket"):
        _stencil(np.linspace(0.0, 1.0, 5), 1.5, (0.0, 1.0))


def _dense_weights(first, w, n):
    """The stencil as the dense (M, n) matrix with three weights per row."""
    dense = np.zeros((first.size, n))
    rows = np.arange(first.size)
    for s in range(3):
        dense[rows, first + s] = w[:, s]
    return dense


@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(3, 60),
    multiplicity=st.integers(1, 2),
    kind=st.sampled_from(["pure", "diagonal", "dense"]),
    k=st.integers(4, 400),
    window_nodes=st.integers(1, 80),
    window_sigmas=st.floats(2.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescaled_kernel_equals_dense_einsum_oracle(
    n_nodes, multiplicity, kind, k, window_nodes, window_sigmas, seed
):
    rng = np.random.default_rng(seed)
    model = build_spectral_model(  # unequal node masses
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=n_nodes,
        multiplicity=multiplicity,
    )
    probe = GaussianReadout(sigma=0.1)
    # a dense kernel is factored by eigh before the zoom
    state = _oracle_kernel("dense-psd" if kind == "dense" else kind, model, 1, rng)
    traj = _manual_ensemble(probe, model, 0.5 + 0.1 * rng.standard_normal(k))
    zoom = rescaled_posterior_kernel(
        state, traj, k, model, probe, estimate=mle(traj, k, model, probe),
        window_sigmas=window_sigmas, window_nodes=window_nodes,
    )

    # the dense two-einsum formula the stencil replaced
    sl, (a, b) = _interval_subgrid(model, zoom.estimate)
    xs = model.nodes[sl]
    wmat = _dense_weights(*_stencil(xs, zoom.window.positions, (a, b)), xs.size)
    base = np.einsum("qi,ijab->qjab", wmat, state.values[sl, sl])
    base = np.einsum("qjab,rj->qrab", base, wmat)
    sums = traj.sums[0, -1]
    amp = np.exp(0.5 * (_interpolate(xs, sums[sl], zoom.window.positions, (a, b)) - sums.max()))
    values = base * amp[:, None, None, None] * amp[None, :, None, None]
    oracle = values / StateKernel(values, zoom.window).trace()
    # the factored kernel reaches the dense values in another summation order
    assert np.max(np.abs(zoom.kernel.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_zoomed_diagonal_state_keeps_only_the_columns_its_window_reads():
    model, probe, _ = _gaussian_setup(200)
    state = diagonal_state(model, np.full(model.size, 1.0 / model.size))
    rng = np.random.default_rng(SEED)
    traj = _manual_ensemble(probe, model, 0.5 + rng.standard_normal(10_000))
    estimate = mle(traj, 10_000, model, probe)
    zoom = rescaled_posterior_kernel(
        state, traj, 10_000, model, probe, estimate=estimate, window_nodes=51
    )
    psi, d = zoom.kernel.factor
    assert psi.shape[2] == d.size < model.size // 2
    assert np.all(np.any(psi != 0, axis=(0, 1)))


def test_kernel_convergence_estimate_builds_no_dense_window_kernel(monkeypatch):
    def refuse(psi, d):
        raise AssertionError("dense kernel expanded from a factor")

    monkeypatch.setattr(spectral, "_expand_factor", refuse)
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "kernel-convergence",
            "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 100},
            "probe": {"kind": "gaussian-readout", "sigma": 1.0},
            "state": {"type": "pure", "psi": {"name": "exp", "rate": 0.5}},
            "k_max": 1000,
            "checkpoints": [100, 1000],
            "ensemble": 3,
            "seed": SEED,
            "hidden_nu": 0.5,
        }
    )
    bundle = run_experiment(cfg)
    assert len(bundle.tables["kernel_distance"][1]) == 2


# ---------------------------------------------------------------------------
# the per-window kernel loop the stacked kernel_distances replaced, kept as its oracle

def _loop_window(model, nu_hat, k, fisher, window_sigmas, window_nodes, min_sigmas):
    _, (a, b) = _interval_subgrid(model, nu_hat)
    sqrt_k = math.sqrt(k)
    want = window_sigmas / math.sqrt(fisher)
    fit = sqrt_k * min(nu_hat - a, b - nu_hat)
    half = min(want, fit)
    if half < min_sigmas / math.sqrt(fisher):
        raise WindowError(
            f"rescaled window of half-width {want:.3g} exits the spectrum at "
            f"k={k} (room for {fit:.3g}, need {min_sigmas / math.sqrt(fisher):.3g})"
        )
    spacing = 2.0 * half / window_nodes
    offsets = -half + (np.arange(window_nodes) + 0.5) * spacing
    hvals = np.asarray(model.h_fn(nu_hat + offsets / sqrt_k), dtype=float)
    return WindowGrid(offsets, spacing, float(nu_hat), sqrt_k, hvals, model.multiplicity)


def _loop_apply(first, w, values):
    w = w.reshape(w.shape + (1,) * (values.ndim - 1))
    return w[:, 0] * values[first] + w[:, 1] * values[first + 1] + w[:, 2] * values[first + 2]


def _loop_zoom(state, sums, model, nu_hat, grid):
    sl, (a, b) = _interval_subgrid(model, nu_hat)
    first, w = _stencil(model.nodes[sl], grid.positions, (a, b))
    shift = float(sums.max())
    amp = np.exp(0.5 * (_loop_apply(first, w, sums[sl]) - shift))
    psi, d = state.factor
    phi = _loop_apply(first, w, psi[sl]) * amp[:, None, None]
    live = np.any(phi != 0, axis=(0, 1))
    phi, d = phi[:, :, live], d[live]
    raw_trace = StateKernel(None, grid, factor=(phi, d)).trace()
    window_trace = raw_trace / grid.scale
    log_terms = sums - shift + state.log_weights[0]
    grid_norm = float(np.exp(_logsumexp(log_terms[np.isfinite(log_terms)])))
    if window_trace <= 0:
        raise WindowError("rescaled kernel has zero trace on its window")
    return StateKernel(None, grid, factor=(phi, d / raw_trace)), window_trace / grid_norm


def _loop_limit(model, state, nu_hat, fisher, window):
    if fisher <= 0:
        raise ValueError("fisher must be positive")
    sl, (a, b) = _interval_subgrid(model, nu_hat)
    h_at = float(np.asarray(model.h_fn(np.asarray([nu_hat])))[0])
    if h_at <= 0:
        raise WindowError(f"spectral density vanishes at nu={nu_hat}")
    first, w = _stencil(model.nodes[sl], nu_hat, (a, b))
    psi, d = state.factor
    rows = psi[sl.start + first[0] + np.arange(3)]
    block = np.einsum("i,iab->ab", w[0], (rows * d) @ rows.conj().transpose(0, 2, 1))
    trace = float(np.trace(block).real)
    if trace <= 0.0:
        lam, vecs = np.zeros(0), np.zeros((window.multiplicity, 0))
    else:
        c_block = block / trace
        lam, vecs = np.linalg.eigh(0.5 * (c_block + c_block.conj().T))
    g = (fisher / (2.0 * math.pi)) ** 0.25 * np.exp(-0.25 * fisher * window.offsets**2)
    return StateKernel(None, window, factor=(g[:, None, None] * vecs, lam / h_at))


def _loop_trace_norm(a, b):
    (psi_a, d_a), (psi_b, d_b) = a.factor, b.factor
    if np.array_equal(d_a, d_b) and np.array_equal(psi_a, psi_b):
        return 0.0
    s = np.sqrt(a.grid.mass)[:, None, None]
    w = np.concatenate([psi_a * s, psi_b * s], axis=2)
    r = np.linalg.qr(w.reshape(w.shape[0] * w.shape[1], w.shape[2]), mode="r")
    gram = (r * np.concatenate([d_a, -d_b])) @ r.conj().T
    return float(np.abs(np.linalg.eigvalsh(gram)).sum())


def _loop_kernel_distances(state, sums, cps, model, probe, estimates, window=(8.0, 201, 2.0)):
    """Distances and window masses from the sums (E x C x N) after each of ``cps``:
    every window sized first, then built one at a time, in (trajectory, checkpoint)
    order."""
    windows = {}  # (e, i) -> (estimate, fisher, grid)
    for e, row in enumerate(estimates):
        for i, c in enumerate(cps):
            nu_hat = float(row[i])
            fisher = float(probe.fisher(np.asarray([nu_hat]))[0])
            windows[e, i] = nu_hat, fisher, _loop_window(model, nu_hat, c, fisher, *window)
    out = np.empty((2, len(sums), len(cps)))
    for (e, i), (nu_hat, fisher, grid) in windows.items():
        zoom, mass = _loop_zoom(state, sums[e, i], model, nu_hat, grid)
        limit = _loop_limit(model, state, nu_hat, fisher, grid)
        out[:, e, i] = _loop_trace_norm(zoom, limit), mass
    return out


def _stacked(state, trajs, cps, model, probe, estimates, window=(8.0, 201, 2.0)):
    sigmas, nodes, min_sigmas = window
    return np.array(kernel_distances(
        state, trajs, cps, model, probe, estimates=estimates,
        window_sigmas=sigmas, window_nodes=nodes, min_sigmas=min_sigmas,
    ))


@pytest.mark.parametrize("seed", [20260810, 20260813, 20260817])
def test_kernel_distances_equal_the_window_loop_on_the_shipped_config(seed):
    tree = json.loads((CONFIGS / "kernel_convergence.json").read_text())
    config = ExperimentConfig.from_dict({**tree, "seed": seed})
    model, state, probe = prepare_run(config)
    trajs = simulate_ensemble(config)
    cps = list(config.checkpoints)
    estimates = mle_table(trajs, cps, model, probe)
    window = (config.window["sigmas"], int(config.window["nodes"]), config.window["min_sigmas"])
    got = _stacked(state, trajs, cps, model, probe, estimates, window)
    sums = trajs.sums_after(cps)
    want = _loop_kernel_distances(state, sums, cps, model, probe, estimates, window)
    assert got.tobytes() == want.tobytes()


def _mixed_setup(intervals, multiplicity, state_kind, h=None, sigma=0.2):
    model = build_spectral_model(
        intervals=intervals, h=h, nodes_per_interval=60, multiplicity=multiplicity
    )
    probe = GaussianReadout(sigma=sigma)
    rng = np.random.default_rng(SEED)
    if state_kind == "diagonal":  # some nodes without prior weight
        state = diagonal_state(model, rng.random(model.size) * (rng.random(model.size) > 0.2))
    else:
        state = _oracle_kernel(state_kind, model, 2, rng)
    return model, probe, state, rng


@pytest.mark.parametrize("state_kind", ["diagonal", "dense-psd", "factor"])
def test_kernel_distances_equal_the_window_loop_for_mixed_states_of_multiplicity_two(
    state_kind, monkeypatch
):
    model, probe, state, rng = _mixed_setup(
        [(0.0, 1.0)], 2, state_kind, h={"name": "cosine", "amplitude": 0.3}
    )
    cps = [60, 400, 2000]
    rows = [nu + 0.2 * rng.standard_normal(2000) for nu in (0.31, 0.45, 0.5, 0.62, 0.7)]
    trajs = _manual_ensemble(probe, model, rows, cps)
    estimates = mle_table(trajs, cps, model, probe)
    sums = trajs.sums_after(cps)
    want = _loop_kernel_distances(state, sums, cps, model, probe, estimates, (6.0, 41, 2.0))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
    got = _stacked(state, trajs, cps, model, probe, estimates, (6.0, 41, 2.0))
    assert got.tobytes() == want.tobytes()
    # one QR per group of windows with the same live columns in a row block: a
    # diagonal state's windows each read other node columns; the 120 columns
    # of a dense state fill a block with one trajectory's windows
    assert len(calls) == {"diagonal": 15, "dense-psd": 5, "factor": 1}[state_kind]


def test_kernel_distances_equal_the_window_loop_across_two_intervals():
    model, probe, state, rng = _mixed_setup(
        [(0.0, 0.45), (0.55, 1.0)], 1, "pure", h={"name": "linear", "intercept": 0.5}, sigma=0.05
    )
    cps = [300, 3000]
    rows = [nu + 0.05 * rng.standard_normal(3000) for nu in (0.2, 0.8, 0.3, 0.7)]
    trajs = _manual_ensemble(probe, model, rows, cps)
    estimates = mle_table(trajs, cps, model, probe)
    assert len({model.interval_index(nu) for nu in estimates.ravel()}) == 2
    got = _stacked(state, trajs, cps, model, probe, estimates, (8.0, 51, 2.0))
    assert got.tobytes() == _loop_kernel_distances(
        state, trajs.sums_after(cps), cps, model, probe, estimates, (8.0, 51, 2.0)
    ).tobytes()


def _first_error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return type(info.value), str(info.value)


def _error_setup(estimates):
    # the wave function vanishes on [0.7, 1], the density at 0.25 exactly; the
    # trajectories peak at 0.5, 0.01 and 0.85
    model = build_spectral_model(
        atoms=[(1.2, 0.1)], intervals=[(0.0, 1.0)], nodes_per_interval=80,
        h=lambda nu: np.where(nu == 0.25, 0.0, 1.0),
    )
    probe = GaussianReadout(sigma=0.1)
    state = pure_state(model, np.where(model.nodes < 0.7, 1.0, 0.0))
    rng = np.random.default_rng(SEED)
    cps = [100, 400]
    rows = [nu + 0.1 * rng.standard_normal(400) for nu in (0.5, 0.01, 0.85)]
    return state, _manual_ensemble(probe, model, rows, cps), cps, model, probe, np.array(estimates)


@pytest.mark.parametrize(
    "estimates, message",
    [
        ([[0.5, 0.5], [0.005, 0.03], [0.85, 0.85]], "exits the spectrum"),
        # a window that cannot be sized wins over an earlier zero trace or density
        ([[0.5, 0.85], [0.005, 0.03], [0.85, 0.85]], "exits the spectrum at k=100"),
        ([[0.25, 0.5], [0.005, 0.03], [0.85, 0.85]], "exits the spectrum at k=100"),
        ([[1.2, 0.5], [0.005, 0.03], [0.85, 0.85]], "no absolutely continuous neighborhood"),
        # every window sizable: the first zero trace or zero density raises
        ([[0.5, 0.85], [0.5, 0.5], [0.85, 0.85]], "rescaled kernel has zero trace on its window"),
        ([[0.25, 0.5], [0.5, 0.5], [0.85, 0.85]], "spectral density vanishes at nu=0.25"),
    ],
    ids=[
        "leaves-spectrum", "zero-trace-first", "zero-density-first", "on-an-atom",
        "zero-trace", "zero-density",
    ],
)
def test_kernel_distances_raise_the_first_error_of_the_window_loop(estimates, message):
    # every case fails again later
    state, trajs, cps, model, probe, estimates = _error_setup(estimates)
    got = _first_error(lambda: _stacked(state, trajs, cps, model, probe, estimates))
    assert got[0] is WindowError and message in got[1]
    if message.startswith(("rescaled", "spectral")):
        assert got[1] == message
    assert got == _first_error(
        lambda: _loop_kernel_distances(state, trajs.sums_after(cps), cps, model, probe, estimates)
    )


@pytest.mark.parametrize("cells", [4, 10**9], ids=["a-trajectory-a-block", "one-block"])
def test_kernel_distances_raise_the_same_error_whatever_the_row_blocks(cells, monkeypatch):
    # trajectory 0 has a zero-trace window, trajectory 2 one that cannot be sized
    state, trajs, cps, model, probe, estimates = _error_setup(
        [[0.5, 0.85], [0.5, 0.5], [0.005, 0.5]]
    )
    monkeypatch.setattr(probes, "BLOCK_CELLS", cells)
    row_cells = len(cps) * 201  # a row's zoom factors, as kernel_distances stacks them
    assert len(list(_sums_blocks(trajs, cps, row_cells))) == {4: 3, 10**9: 1}[cells]
    with pytest.raises(WindowError, match="exits the spectrum at k=100"):
        _stacked(state, trajs, cps, model, probe, estimates)


def test_kernel_run_takes_one_qr_for_the_whole_stack(monkeypatch):
    tree = json.loads((CONFIGS / "kernel_convergence.json").read_text())
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(a[0].shape) or qr(*a, **kw))
    run_experiment(ExperimentConfig.from_dict(tree))
    assert calls == [(60, 201, 2)]  # 20 trajectories x 3 checkpoints, the loop took 60
