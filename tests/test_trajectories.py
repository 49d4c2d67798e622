"""Samplers, posterior updates, exchangeability, and reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qndsim import probes
from qndsim.estimators import (
    RateTrace,
    laplace_condition_check,
    mle,
    mle_table,
    rate_region,
    rate_traces,
    rescaled_posterior_kernel,
)
from qndsim.probes import (
    BinaryPhase,
    GaussianReadout,
    TabulatedProbe,
    relative_entropy,
)
from qndsim.spectral import (
    StateKernel,
    build_spectral_model,
    diagonal_state,
    pure_state,
)
from qndsim.trajectories import (
    _logsumexp,
    definetti_sample,
    exact_tuple_distribution,
    log_prior_weights,
    posterior_kernel,
    posterior_means,
    posterior_weights,
    sample_ensemble,
    sequential_sample,
    trajectory_rng,
)
from test_estimators import _oracle_mle, _tabulated_probes, _zero_table_probe

SEED = 20260810


def _two_atoms(w0=0.3, w1=0.7):
    model = build_spectral_model(atoms=[(0.0, w0), (1.0, w1)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([w0, w1]))
    return model, probe, state


def _gaussian_setup(n=100):
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=n)
    probe = GaussianReadout(sigma=1.0)
    state = pure_state(model, lambda nu: np.ones_like(nu))
    return model, probe, state


# ---------------------------------------------------------------------------
# mixture sampler

def test_point_mass_hidden_value_is_constant():
    model = build_spectral_model(atoms=[(0.7, 1.0)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([1.0]))
    for i in range(5):
        traj = definetti_sample(state, probe, 3, trajectory_rng(SEED, i))
        assert traj.hidden.tolist() == [0.7]


def test_hidden_value_frequencies():
    _, probe, state = _two_atoms()
    hits = 0
    m = 2000
    for i in range(m):
        traj = definetti_sample(state, probe, 1, trajectory_rng(SEED, i))
        hits += traj.hidden[0] == 1.0
    assert abs(hits / m - 0.7) <= 3.0 * np.sqrt(0.3 * 0.7 / m)


def test_outcome_mean_at_fixed_hidden_value():
    _, probe, state = _gaussian_setup()
    traj = definetti_sample(
        state, probe, 10_000, trajectory_rng(SEED, 0), hidden_nu=0.37
    )
    assert abs(traj.outcomes.mean() - 0.37) <= 3.0 / np.sqrt(10_000)


def test_degenerate_spectral_weights_raise():
    model = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    values = np.zeros((2, 2, 1, 1), dtype=complex)
    state = StateKernel(values, model)
    with pytest.raises(ValueError):
        log_prior_weights(state)


# ---------------------------------------------------------------------------
# sampler equivalence (exchangeability made literal)

@settings(max_examples=60, deadline=None)
@given(
    outcomes=st.integers(2, 3),
    atoms=st.integers(2, 5),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_exact_laws_agree_for_all_short_tuples(outcomes, atoms, k, data):
    positive = st.floats(1e-3, 1.0)
    nu_grid = np.linspace(0.0, 1.0, 6)
    table = np.array(data.draw(st.lists(
        st.lists(positive, min_size=nu_grid.size, max_size=nu_grid.size),
        min_size=outcomes, max_size=outcomes,
    ), label="table"))
    table /= table.sum(axis=0)  # a law at every tabulated nu
    probe = TabulatedProbe(
        nu_grid=tuple(nu_grid), values=tuple(map(tuple, table)),
        outcomes=tuple(float(o) for o in range(outcomes)),
    )
    # atoms on tabulated nu, where the interpolated law is the table column
    at = sorted(data.draw(st.sets(st.integers(0, nu_grid.size - 1), min_size=atoms,
                                  max_size=atoms), label="atoms"))
    weights = np.array(data.draw(st.lists(positive, min_size=atoms, max_size=atoms),
                                 label="weights"))
    weights /= weights.sum()
    model = build_spectral_model(atoms=[(nu_grid[j], w) for j, w in zip(at, weights)])
    state = diagonal_state(model, weights)
    d_mix = exact_tuple_distribution(state, probe, k, "de-finetti")
    d_seq = exact_tuple_distribution(state, probe, k, "sequential")
    assert len(d_mix) == len(d_seq) == outcomes**k
    assert sum(d_mix.values()) == pytest.approx(1.0, rel=1e-12)
    assert sum(d_seq.values()) == pytest.approx(1.0, rel=1e-12)
    for key, p in d_mix.items():
        assert d_seq[key] == pytest.approx(p, rel=1e-12)


def test_exact_law_against_hand_rolled_chain_rule():
    model, probe, state = _two_atoms(0.4, 0.6)
    f = probe.density(np.array([0.0, 1.0])[:, None], model.nodes[None, :])  # (2, 2)
    prior = np.array([0.4, 0.6])
    # two-step chain rule written out longhand
    for o1 in (0, 1):
        p1 = prior @ f[o1]
        w = prior * f[o1] / p1
        for o2 in (0, 1):
            expected = p1 * (w @ f[o2])
            got = exact_tuple_distribution(state, probe, 2, "sequential")[
                (float(o1), float(o2))
            ]
            assert got == pytest.approx(expected, abs=1e-14)


def test_point_mass_samplers_share_one_law():
    model = build_spectral_model(atoms=[(0.6, 1.0)])
    probe = BinaryPhase.embedded(0.0, 1.0)
    state = diagonal_state(model, np.array([1.0]))
    d_mix = exact_tuple_distribution(state, probe, 3, "de-finetti")
    d_seq = exact_tuple_distribution(state, probe, 3, "sequential")
    for key in d_mix:
        assert abs(d_mix[key] - d_seq[key]) < 1e-14


def test_first_outcome_marginal():
    model, probe, state = _two_atoms(0.25, 0.75)
    f = probe.density(np.array([0.0])[:, None], model.nodes[None, :])[0]
    target = float(np.array([0.25, 0.75]) @ f)
    m = 20_000
    # row i draws from trajectory_rng(SEED, i), as sequential_sample would
    ens = sample_ensemble(state, probe, 1, m, SEED, sampler="sequential")
    hits = int(np.count_nonzero(ens.outcomes[:, 0] == 0.0))
    assert abs(hits / m - target) <= 4.0 * np.sqrt(target * (1 - target) / m)


# ---------------------------------------------------------------------------
# posterior updates

def test_posterior_weights_at_zero_steps():
    _, probe, state = _two_atoms()
    traj = definetti_sample(state, probe, 5, trajectory_rng(SEED, 0), checkpoints=[0])
    w = posterior_weights(state, traj, 0)
    assert np.allclose(w.values, [0.3, 0.7], atol=1e-14)


def test_single_step_bayes_ratio():
    model, probe, state = _two_atoms(0.3, 0.7)
    traj = definetti_sample(state, probe, 1, trajectory_rng(SEED, 1))
    xi = traj.outcomes[0, 0]
    f = probe.density(np.array([xi])[:, None], model.nodes[None, :])[0]
    w = posterior_weights(state, traj, 1)
    expected_ratio = (0.7 / 0.3) * (f[1] / f[0])
    assert w.values[1] / w.values[0] == pytest.approx(expected_ratio, rel=1e-12)


def test_iterative_updates_match_batch_formula():
    model, probe, state = _gaussian_setup(60)
    traj = definetti_sample(state, probe, 50, trajectory_rng(SEED, 2))
    # iterate one-step Bayes updates by hand in plain probability space
    w = np.exp(log_prior_weights(state))
    for xi in traj.outcomes[0]:
        f = probe.density(np.array([xi])[:, None], model.nodes[None, :])[0]
        w = w * f
        w = w / w.sum()
    batch = posterior_weights(state, traj, 50)
    assert np.max(np.abs(w - batch.values)) < 1e-10


def test_posterior_weights_sum_to_one_deep():
    _, probe, state = _gaussian_setup(60)
    traj = definetti_sample(state, probe, 10_000, trajectory_rng(SEED, 3))
    w = posterior_weights(state, traj, 10_000)
    assert abs(w.values.sum() - 1.0) < 1e-12


def test_posterior_kernel_at_zero_is_initial():
    _, probe, state = _gaussian_setup(30)
    traj = definetti_sample(state, probe, 4, trajectory_rng(SEED, 4), checkpoints=[0])
    k0 = posterior_kernel(state, traj, 0)
    assert np.allclose(k0.values, state.values, atol=1e-14)


def test_posterior_kernel_diagonal_matches_weights():
    model, probe, state = _gaussian_setup(40)
    traj = definetti_sample(state, probe, 200, trajectory_rng(SEED, 5))
    kern = posterior_kernel(state, traj, 200)
    diag = model.mass * kern.block_traces()
    w = posterior_weights(state, traj, 200)
    assert np.max(np.abs(diag - w.values)) < 1e-10


def test_posterior_kernel_stays_rank_one():
    model, probe, state = _gaussian_setup(40)
    traj = definetti_sample(state, probe, 500, trajectory_rng(SEED, 6))
    kern = posterior_kernel(state, traj, 500)
    svals = np.linalg.svd(kern.weighted_matrix(), compute_uv=False)
    assert svals[0] == pytest.approx(1.0, abs=1e-10)
    assert svals[1] < 1e-8


def test_martingale_property_binary_exact():
    model, probe, state = _two_atoms(0.35, 0.65)
    traj = definetti_sample(state, probe, 7, trajectory_rng(SEED, 8))
    w = posterior_weights(state, traj, 7).values
    f = probe.density(np.array([0.0, 1.0])[:, None], model.nodes[None, :])
    avg = np.zeros_like(w)
    for o in (0, 1):
        pred = float(w @ f[o])
        avg += pred * (w * f[o] / pred)
    assert np.max(np.abs(avg - w)) < 1e-12


def test_martingale_property_gaussian_quadrature():
    model, probe, state = _gaussian_setup(30)
    traj = definetti_sample(state, probe, 5, trajectory_rng(SEED, 9))
    w = posterior_weights(state, traj, 5).values
    # average the one-step update over outcomes with a dense rule
    xs, wq = np.polynomial.legendre.leggauss(96)
    lo, hi = -9.0, 10.0
    xq = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xs
    qw = 0.5 * (hi - lo) * wq
    f = probe.density(xq[:, None], model.nodes[None, :])  # (Q, N)
    pred = f @ w
    avg = ((qw * pred)[:, None] * (w[None, :] * f / pred[:, None])).sum(axis=0)
    assert np.max(np.abs(avg - w)) < 1e-8


def test_purification_onto_hidden_atom():
    model, probe, state = _two_atoms(0.5, 0.5)
    weights = []
    for i in range(200):
        traj = definetti_sample(state, probe, 500, trajectory_rng(SEED, i))
        node = int(np.argmin(np.abs(model.nodes - traj.hidden[0])))
        weights.append(posterior_weights(state, traj, 500).values[node])
    assert np.median(weights) > 0.99


# ---------------------------------------------------------------------------
# reproducibility and bookkeeping

def test_identical_seeds_reproduce_bitwise():
    _, probe, state = _gaussian_setup(20)
    a = definetti_sample(state, probe, 100, trajectory_rng(123, 4), checkpoints=[50])
    b = definetti_sample(state, probe, 100, trajectory_rng(123, 4), checkpoints=[50])
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.sums, b.sums) and a.checkpoints == b.checkpoints == (50,)
    c = definetti_sample(state, probe, 100, trajectory_rng(123, 5))
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_sequential_reproducible_and_checkpointed():
    _, probe, state = _two_atoms()
    a = sequential_sample(state, probe, 40, trajectory_rng(9, 0), checkpoints=[0, 20])
    b = sequential_sample(state, probe, 40, trajectory_rng(9, 0), checkpoints=[0, 20])
    assert np.array_equal(a.outcomes, b.outcomes)
    assert a.hidden is None and a.checkpoints == (0, 20)
    assert np.array_equal(a.sums, b.sums)
    assert np.array_equal(a.sums_after([0]), np.zeros((1, 1, 2)))


def test_sums_after_contract():
    model, probe, state = _gaussian_setup(15)
    ens = sample_ensemble(state, probe, 30, 3, SEED, checkpoints=[10])
    got = ens.sums_after([30, 10, 30])
    assert got.shape == (3, 3, model.size)
    assert _bits(got) == _bits(ens.sums[:, [1, 0, 1]])
    got[:] = 0.0  # a copy
    assert np.all(ens.sums[:, 1] != 0.0)
    for k in (0, 17, 31, -5):  # the prior, between checkpoints, past k, negative
        with pytest.raises(ValueError, match=f"no sums after k=\\[{k}\\]"):
            ens.sums_after([10, k])


def test_exact_enumeration_guards():
    model, probe, state = _gaussian_setup(10)
    with pytest.raises(ValueError):
        exact_tuple_distribution(state, probe, 2)
    _, bprobe, bstate = _two_atoms()
    with pytest.raises(ValueError):
        exact_tuple_distribution(bstate, bprobe, 64)


def test_posterior_snapshot():
    # two atoms at step 12: weights and kernel both normalized
    _, probe, state = _two_atoms()
    traj = definetti_sample(state, probe, 12, trajectory_rng(SEED, 12))
    assert abs(posterior_weights(state, traj, 12).values.sum() - 1.0) < 1e-12
    assert abs(posterior_kernel(state, traj, 12).trace() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["binary", "gaussian"]),
    k=st.integers(0, 6),
    n_nodes=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_weights_are_prior_times_likelihood(family, k, n_nodes, seed):
    rng = np.random.default_rng(seed)
    model = build_spectral_model(
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=n_nodes,
    )
    probe = BinaryPhase.embedded(0.0, 1.0) if family == "binary" else GaussianReadout(sigma=0.3)
    psi = rng.standard_normal(model.size) + 1j * rng.standard_normal(model.size)
    state = pure_state(model, psi)
    traj = definetti_sample(state, probe, k, rng)
    prior = model.mass * np.abs(psi) ** 2
    likelihood = np.ones(model.size)
    for xi in traj.outcomes[0]:
        likelihood *= probe.density(np.asarray([[xi]]), model.nodes[None, :])[0]
    direct = prior / prior.sum() * likelihood
    np.testing.assert_allclose(
        posterior_weights(state, traj, k).values, direct / direct.sum(), rtol=0, atol=1e-12
    )


_LOG_TERM = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-3, 3).map(float),  # ties at the maximum
    st.just(-np.inf),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 4),  # 0 draws a 1-D input
    cols=st.integers(1, 8),
    whole=st.booleans(),
    dead_row=st.booleans(),
    data=st.data(),
)
def test_logsumexp_is_bitwise_scipy(rows, cols, whole, dead_row, data):
    shape = (rows, cols) if rows else (cols,)
    size = int(np.prod(shape))
    terms = data.draw(st.lists(_LOG_TERM, min_size=size, max_size=size))
    a = np.asarray(terms).reshape(shape)
    if dead_row:
        a[0] = -np.inf  # an all -inf row (the whole input when 1-D)
    axis = None if whole else a.ndim - 1
    ours, oracle = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
    assert type(ours) is type(oracle) and np.shape(ours) == np.shape(oracle)
    assert np.array_equal(ours, oracle, equal_nan=True)


# ---------------------------------------------------------------------------
# the ensemble arrays against the per-trajectory loops they replaced

def _oracle_node_sums(probe, nodes, outcomes):
    """One segment's log-likelihood sums as the per-trajectory sampler took them:
    counts of the distinct outcomes, the Gaussian closed form, or the blocked
    cell sums."""
    if outcomes.size == 0:
        return np.zeros(nodes.size)
    if probe.outcomes is not None:
        vals, counts = np.unique(outcomes, return_counts=True)
        return counts @ probe.loglik_values(nodes, vals)
    if isinstance(probe, GaussianReadout):
        m = outcomes.mean()
        r = outcomes - m
        d = m - nodes
        quad = (r * r).sum() + d * (2.0 * r.sum() + outcomes.size * d)
        norm = outcomes.size * np.log(np.sqrt(2.0 * np.pi) * probe.sigma)
        return -quad / (2.0 * probe.sigma**2) - norm
    total = np.zeros(nodes.size)
    for sl in probes._blocks(outcomes.size, nodes.size):
        total += probe.loglik_values(nodes, outcomes[sl]).sum(axis=0)
    return total


def _oracle_segment_sums(probe, nodes, outcomes, checkpoints):
    """One trajectory's sums after each checkpoint in [0, k] and then after k,
    segment by segment: {k: sums}, the final sums under k."""
    k = outcomes.size
    sums, at, prev = np.zeros(nodes.size), {}, 0
    for cp in [*sorted({int(c) for c in checkpoints if 0 <= int(c) <= k}), k]:
        sums = sums + _oracle_node_sums(probe, nodes, outcomes[prev:cp])
        at[cp] = sums
        prev = cp
    return at


def _oracle_definetti(state, probe, k, rng, checkpoints, hidden_nu):
    """The mixture sampler one trajectory at a time: its outcomes, its sums
    after each checkpoint and k, and its hidden value."""
    nodes = state.grid.nodes
    if hidden_nu is None:
        prior = np.exp(log_prior_weights(state))
        prior = prior / prior.sum()
        hidden_nu = float(nodes[rng.choice(nodes.size, p=prior)])
    outcomes = probe.sample(hidden_nu, int(k), rng)
    return outcomes, _oracle_segment_sums(probe, nodes, outcomes, checkpoints), hidden_nu


def _oracle_rate_trace(state, at, region, checkpoints, model, probe, estimate):
    """One trajectory's decay rates from its sums ``at`` each k, two _logsumexp
    calls over its checkpoints."""
    mask, log_prior = rate_region(model, state, region)
    cps = sorted({int(c) for c in checkpoints if 0 < int(c) <= max(at)})
    logw = log_prior + np.stack([at[c] for c in cps])
    values = -(_logsumexp(logw[:, mask], axis=1) - _logsumexp(logw, axis=1)) / np.asarray(cps)
    target = relative_entropy(probe, float(estimate), model.nodes[mask])
    return RateTrace(tuple(cps), tuple(float(v) for v in values), float(target), float(estimate))


def _oracle_posterior_mean(state, sums):
    """One trajectory's posterior mean from its own weights."""
    logw = log_prior_weights(state) + sums
    w = np.exp(logw - _logsumexp(logw))
    return float(np.dot(w / w.sum(), state.grid.nodes))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(
        ["gaussian", "binary", "tabulated-zero", "tabulated-continuous"]
    ),
    atoms=st.sampled_from([(), (1.25,)]),
    nodes=st.integers(3, 25),
    k=st.integers(0, 60),
    extra=st.lists(st.integers(0, 60), max_size=4),
    size=st.integers(1, 5),
    pin=st.booleans(),
    sigma=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ensemble_arrays_equal_the_per_trajectory_loops_bitwise(
    family, atoms, nodes, k, extra, size, pin, sigma, seed, data
):
    model = build_spectral_model(
        atoms=[(p, 0.2) for p in atoms], intervals=[(0.0, 1.0)], nodes_per_interval=nodes
    )
    probe = {
        "gaussian": GaussianReadout(sigma=sigma),
        "binary": BinaryPhase.embedded(*model.hull),
        # f(2 | nu) = 0 for nu <= 0.75: rows without outcome 2 meet log f = -inf
        "tabulated-zero": _zero_table_probe(),
        "tabulated-continuous": _tabulated_probes()["tabulated-continuous"],
    }[family]
    state = pure_state(model, lambda nu: 1.0 + nu)
    hidden = data.draw(st.floats(0.0, 1.0), label="hidden") if pin else None
    checkpoints = [0, k, k, *extra]  # duplicates, both ends, and some past k
    got = sample_ensemble(state, probe, k, size, seed, checkpoints=checkpoints, hidden_nu=hidden)
    want = [
        _oracle_definetti(state, probe, k, trajectory_rng(seed, i), checkpoints, hidden)
        for i in range(size)
    ]
    columns = sorted({c for c in checkpoints if c <= k})
    assert got.master == seed and len(got) == size and got.checkpoints == tuple(columns)
    for i, (outcomes, at, hidden_nu) in enumerate(want):
        assert _bits(got.outcomes[i]) == _bits(outcomes)
        assert got.hidden[i] == hidden_nu
        assert _bits(got.sums[i]) == _bits([at[c] for c in [*columns, k]])

    table = mle_table(got, columns, model, probe)
    assert _bits(table) == _bits(
        [[_oracle_mle(at[c], o[:c], model, probe) for c in columns] for o, at, _ in want]
    )
    assert _bits(posterior_means(state, got, k)) == _bits(
        [_oracle_posterior_mean(state, at[k]) for _, at, _ in want]
    )
    if k > 0:
        region = [(0.6, 1.0)]
        traces = rate_traces(state, got, region, columns, model, probe, estimates=table[:, -1])
        oracle = [
            _oracle_rate_trace(state, at, region, columns, model, probe, t)
            for (_, at, _), t in zip(want, table[:, -1])
        ]
        assert [vars(t) for t in traces] == [vars(t) for t in oracle]


def _oracle_sequential(state, probe, k, rng):
    """The chain-rule sampler one trajectory at a time, on its running sums."""
    nodes, log_prior = state.grid.nodes, log_prior_weights(state)
    sums, outcomes = np.zeros(nodes.size), np.empty(k)
    for step in range(k):
        w = np.exp(log_prior + sums - (log_prior + sums).max())
        cdf = np.cumsum(w)
        node = int(np.searchsorted(cdf, rng.random() * cdf[-1]))
        outcomes[step] = float(probe.sample(float(nodes[node]), 1, rng)[0])
        sums = sums + probe.loglik_values(nodes, outcomes[step : step + 1])[0]
    return outcomes


@pytest.mark.parametrize("family", ["binary", "gaussian"])
def test_sequential_sums_are_the_segment_sums_of_its_own_outcomes(family):
    model, probe, state = _two_atoms() if family == "binary" else _gaussian_setup(30)
    ens = sample_ensemble(state, probe, 40, 5, SEED, sampler="sequential", checkpoints=[0, 7, 25])
    for i, (outcomes, sums) in enumerate(zip(ens.outcomes, ens.sums)):
        oracle = _oracle_sequential(state, probe, 40, trajectory_rng(SEED, i))
        assert _bits(outcomes) == _bits(oracle)
        at = _oracle_segment_sums(probe, model.nodes, outcomes, ens.checkpoints)
        assert _bits(sums) == _bits([at[c] for c in [*ens.checkpoints, 40]])


def test_ensemble_views_slices_and_stacking_agree():
    model, probe, state = _gaussian_setup(12)
    ens = sample_ensemble(state, probe, 30, 6, SEED, checkpoints=[30, 5, 0])
    assert ens.checkpoints == (0, 5, 30) and ens.sums.shape == (6, 4, model.size)
    rows = list(ens)
    assert [len(r) for r in rows] == [1] * 6 and {r.checkpoints for r in rows} == {ens.checkpoints}
    for name in ("outcomes", "sums", "hidden"):  # the one-row views stack back to the ensemble
        assert _bits(np.concatenate([getattr(r, name) for r in rows])) == _bits(getattr(ens, name))
    part = ens[2:4]
    assert len(part) == 2 and part.master == SEED
    for one in (part[1], part[-1], ens[np.int64(3)], ens[-3]):
        assert len(one) == 1 and one.master == SEED
        assert _bits(one.sums) == _bits(ens.sums[3:4]) and one.hidden.tolist() == [ens.hidden[3]]
    for out_of_range in (6, -7):
        with pytest.raises(IndexError):
            ens[out_of_range]
    seq = sample_ensemble(state, probe, 4, 3, SEED, sampler="sequential", checkpoints=[2])
    assert seq.hidden is None and seq.master == SEED and [t.hidden for t in seq] == [None] * 3
    alone = sequential_sample(state, probe, 4, trajectory_rng(SEED, 1), checkpoints=[2])
    assert alone.master is None and _bits(seq[1].sums) == _bits(alone.sums)


def test_multi_row_slices_hold_the_parent_rows():
    _, probe, state = _gaussian_setup(12)
    ens = sample_ensemble(state, probe, 30, 6, SEED, checkpoints=[5])
    for a in range(6):
        for b in range(a + 2, 7):
            part = ens[a:b]
            for name in ("outcomes", "sums", "hidden"):
                assert _bits(getattr(part, name)) == _bits(getattr(ens, name)[a:b]), (a, b, name)


def test_per_trajectory_functions_take_one_row():
    model, probe, state = _gaussian_setup(40)
    ens = sample_ensemble(state, probe, 200, 3, SEED, hidden_nu=0.5)
    calls = [
        lambda t: posterior_weights(state, t, 200),
        lambda t: posterior_kernel(state, t, 200),
        lambda t: mle(t, 200, model, probe),
        lambda t: laplace_condition_check(t, 200, model, probe, estimate=0.5),
        lambda t: rescaled_posterior_kernel(state, t, 200, model, probe, estimate=0.5),
    ]
    for call in calls:
        call(ens[1])
        for rows, many in ((3, ens), (0, ens[1:1])):
            with pytest.raises(ValueError, match=f"got {rows} rows"):
                call(many)
