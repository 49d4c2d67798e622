"""Spectral model construction, probabilities, state validation, serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from _oracles import build_window_grid, loglik_node_sums, weighted_matrix

from qndsim import spectral
from qndsim.estimators import limit_kernel
from qndsim.probes import GaussianReadout
from qndsim.trajectories import Ensemble, log_prior_weights, posterior_weights
from qndsim.spectral import (
    RegionError,
    SpectralModelError,
    StateKernel,
    _distinct,
    build_spectral_model,
    diagonal_state,
    model_from_dict,
    pure_state,
    spectral_probability,
    state_from_dict,
    validate_state,
)


def test_atoms_map_directly_to_grid():
    m = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    assert np.array_equal(m.nodes, [0.0, 1.0])
    assert np.array_equal(m.mass, [0.5, 0.5])
    assert m.is_atom.all()


def test_composite_midpoint_grid():
    m = build_spectral_model(intervals=[(0.0, 1.0)], h=1.0, nodes_per_interval=4)
    assert np.allclose(m.nodes, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(m.weights, 0.25)


def test_linear_density_mass():
    # oracle: integral of 2 nu over [0, 1] is exactly 1
    m = build_spectral_model(
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "slope": 2.0},
        nodes_per_interval=200,
    )
    assert abs(m.mass.sum() - 1.0) < 1e-4


def test_full_spectrum_probability_is_one():
    m = build_spectral_model(
        atoms=[(-0.5, 0.25)], intervals=[(0.0, 1.0)], nodes_per_interval=64
    )
    probs = np.full(m.size, 1.0 / m.size)
    state = diagonal_state(m, probs)
    assert abs(spectral_probability(state, [(-1.0, 2.0)]) - 1.0) < 1e-10


def test_atom_region_read_off():
    m = build_spectral_model(atoms=[(0.0, 0.3), (1.0, 0.7)])
    state = diagonal_state(m, np.array([0.3, 0.7]))
    assert abs(spectral_probability(state, [1.0]) - 0.7) < 1e-12


def test_region_closes_on_an_atom_at_either_end():
    m = build_spectral_model(atoms=[(0.2, 0.5), (0.8, 0.5)], intervals=[(0.4, 0.6)])
    for region, atoms in (((0.2, 0.5), [0.2]), ((0.5, 0.8), [0.8]), ((0.2, 0.8), [0.2, 0.8])):
        assert np.array_equal(m.nodes[m.region_mask([region]) & m.is_atom], atoms), region


def test_pure_state_region_probability():
    # oracle: integral of 3 nu^2 over [0, 0.5] by adaptive quadrature
    oracle, _ = integrate.quad(lambda v: 3.0 * v**2, 0.0, 0.5)
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=200)
    state = pure_state(m, lambda nu: np.sqrt(3.0) * nu)
    assert abs(spectral_probability(state, [(0.0, 0.5)]) - oracle) < 1e-3


def test_probability_additive_over_disjoint_regions():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=128)
    rng = np.random.default_rng(20260810)
    state = pure_state(m, rng.standard_normal(m.size) + 0.5)
    cuts = [0.0, 0.3, 0.45, 0.7, 1.0]
    parts = [
        spectral_probability(state, [(a, b)]) for a, b in zip(cuts, cuts[1:])
    ]
    total = spectral_probability(state, [(0.0, 1.0)])
    assert abs(sum(parts) - total) < 1e-10


def test_interval_slices_hold_exactly_the_interval_nodes():
    # atoms just outside each end of both intervals
    m = build_spectral_model(
        atoms=[(-0.5, 0.1), (1.0 + 1e-9, 0.1), (1.5, 0.1), (2.6, 0.1)],
        intervals=[(0.0, 1.0), (2.0, 2.5)],
        nodes_per_interval=5,
    )
    assert len(m.interval_slices) == len(m.intervals)
    for (a, b), sl in zip(m.intervals, m.interval_slices):
        inside = np.flatnonzero(~m.is_atom & (m.nodes >= a) & (m.nodes <= b))
        assert (sl.start, sl.stop) == (inside[0], inside[-1] + 1) and sl.stop - sl.start == 5


@settings(max_examples=200, deadline=None)
@given(
    cuts=st.lists(st.integers(-40, 40), max_size=6, unique=True).map(sorted),
    atoms=st.lists(st.integers(-50, 50), max_size=3, unique=True),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
)
@example(cuts=[], atoms=[-3, 5], extra=[])  # atoms only
@example(cuts=[-8, 0, 8, 16], atoms=[-20, 4, 30], extra=[])  # two intervals, a gap, atoms
def test_interval_of_agrees_with_a_scalar_loop(cuts, atoms, extra):
    # consecutive pairs of distinct sorted cuts are disjoint; fewer than two, none
    ends = [c / 8 for c in cuts]
    intervals = list(zip(ends[0::2], ends[1::2]))
    # atoms at half steps, never on an end, and none inside an interval
    atoms = [a / 8 + 1 / 16 for a in atoms]
    atoms = [(p, 0.1) for p in atoms if not any(a <= p <= b for a, b in intervals)]
    assume(intervals or atoms)
    m = build_spectral_model(atoms=atoms, intervals=intervals, nodes_per_interval=4)
    lo, hi = m.hull
    flat = [e for pair in intervals for e in pair]
    values = (
        flat  # endpoints belong to their interval
        + [np.nextafter(e, d) for e in flat for d in (-np.inf, np.inf)]
        + [0.5 * (b + a) for (_, b), (a, _) in zip(intervals, intervals[1:])]  # gaps
        + [p for p, _ in atoms]
        + [lo - 1.0, hi + 1.0, np.nan, np.inf, -np.inf]
        + extra
    )

    def oracle(v):
        return next((j for j, (a, b) in enumerate(m.intervals) if a <= v <= b), -1)

    got = m.interval_of(values)
    assert got.shape == (len(values),)
    assert got.tolist() == [oracle(v) for v in values]
    assert int(m.interval_of(values[0])) == oracle(values[0])


def test_point_region_in_interval_selects_cell():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=10)
    state = diagonal_state(m, np.full(10, 0.1))
    assert abs(spectral_probability(state, [0.42]) - 0.1) < 1e-12


def test_region_outside_hull_raises():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=8)
    state = diagonal_state(m, np.full(8, 0.125))
    with pytest.raises(RegionError):
        spectral_probability(state, [(2.0, 3.0)])
    with pytest.raises(RegionError):
        spectral_probability(state, [5.0])


def test_refinement_halves_snapping_error():
    # region edge at 1/3 sits a third of a cell from the nearest boundary at
    # every dyadic refinement, so the midpoint-rule error halves exactly
    errors = []
    for n in (4, 8, 16, 32):
        m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=n)
        state = diagonal_state(m, np.full(n, 1.0 / n))
        errors.append(abs(spectral_probability(state, [(0.0, 1.0 / 3.0)]) - 1.0 / 3.0))
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    assert np.allclose(ratios, 0.5, atol=1e-9)


def test_validate_pure_state():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=32)
    report = validate_state(pure_state(m, lambda nu: 1.0 + 0.5j * nu))
    assert report.passed
    assert report.hermiticity_defect < 1e-12
    assert report.trace_defect < 1e-12
    assert report.min_weighted_eigenvalue > -1e-12


def test_validate_flags_broken_hermiticity():
    m = build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    values = np.zeros((2, 2, 1, 1), dtype=complex)
    values[0, 0] = values[1, 1] = 1.0
    values[0, 1] = 0.3
    values[1, 0] = 0.1  # not the conjugate of K[0][1]
    report = validate_state(StateKernel(values, m))
    assert not report.passed
    assert report.hermiticity_defect > 0.1


def test_maximally_mixed_state_is_psd():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=16)
    report = validate_state(diagonal_state(m, np.full(16, 1.0 / 16)))
    assert report.passed
    assert report.min_weighted_eigenvalue >= 0.0


def test_any_normalized_wave_function_validates():
    m = build_spectral_model(
        atoms=[(1.5, 0.2)], intervals=[(0.0, 1.0)], nodes_per_interval=25
    )
    rng = np.random.default_rng(4)
    for _ in range(5):
        psi = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
        assert validate_state(pure_state(m, psi)).passed


def test_multiplicity_two_state():
    m = build_spectral_model(
        intervals=[(0.0, 1.0)], nodes_per_interval=12, multiplicity=2
    )
    psi = np.stack([np.ones(12), np.linspace(0, 1, 12)], axis=1)
    state = pure_state(m, psi)
    assert state.block_size == 2
    assert abs(state.trace() - 1.0) < 1e-12
    assert validate_state(state).passed


def test_multiplicity_two_state_from_one_wave_function():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=12, multiplicity=2)
    state = pure_state(m, np.linspace(1, 2, 12))  # the same amplitude in both block entries
    psi, d = state.factor
    assert psi.shape == (12, 2, 1) and np.array_equal(d, [1.0])
    assert abs(state.trace() - 1.0) < 1e-12
    assert np.array_equal(psi[:, 0], psi[:, 1])


def test_spectral_weights_normalize():
    m = build_spectral_model(intervals=[(0.0, 2.0)], nodes_per_interval=40)
    state = pure_state(m, lambda nu: np.exp(-nu))
    w = np.exp(log_prior_weights(state))
    assert abs(w.sum() - 1.0) < 1e-12
    assert 0.0 < np.dot(w, m.nodes) < 2.0


def test_builder_errors():
    with pytest.raises(SpectralModelError):
        build_spectral_model()  # empty spectrum
    with pytest.raises(SpectralModelError):
        build_spectral_model(atoms=[(0.5, 1.0)], intervals=[(0.0, 1.0)])
    with pytest.raises(SpectralModelError):
        build_spectral_model(intervals=[(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(SpectralModelError):
        build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=1)
    with pytest.raises(SpectralModelError):
        build_spectral_model(atoms=[(0.0, -0.1)])
    with pytest.raises(SpectralModelError):
        # density turns negative inside the interval
        build_spectral_model(
            intervals=[(0.0, 1.0)],
            h={"name": "linear", "intercept": 1.0, "slope": -2.0},
            nodes_per_interval=16,
        )
    with pytest.raises(SpectralModelError):
        build_spectral_model(intervals=[(0.0, 1.0)], multiplicity=0)


def test_quadrature_tolerance_enforced():
    wiggly = {"name": "cosine", "offset": 2.0, "amplitude": 1.0, "frequency": 30.0}
    with pytest.raises(SpectralModelError):
        build_spectral_model(
            intervals=[(0.0, 1.0)], h=wiggly, nodes_per_interval=4, quadrature_tol=1e-8
        )
    m = build_spectral_model(
        intervals=[(0.0, 1.0)], h=wiggly, nodes_per_interval=400, quadrature_tol=1e-4
    )
    assert max(m.quadrature_errors) < 1e-4


def _quad_errors(m):
    """Midpoint-mass errors against an adaptive reference integral."""
    errors = []
    for (a, b), edges in zip(m.intervals, m.interval_edges):
        mids = 0.5 * (edges[:-1] + edges[1:])
        ref, _ = integrate.quad(
            lambda x: float(m.h_fn(np.asarray([x]))[0]), a, b,
            limit=400, epsabs=0.0, epsrel=1e-13,
        )
        errors.append(abs((b - a) / m.nodes_per_interval * m.h_fn(mids).sum() - ref) / ref)
    return errors


@pytest.mark.parametrize("h", [
    {"name": "uniform", "value": 2.5},
    {"name": "linear", "intercept": 4.0, "slope": 3.0},
    {"name": "cosine", "offset": 2.0, "amplitude": 1.0, "frequency": np.pi},
    {"name": "cosine", "offset": 2.0, "amplitude": 1.0, "frequency": 10.0, "phase": 0.3},
    {"name": "cosine", "offset": 2.0, "amplitude": 1.0, "frequency": 40.0},
    lambda v: np.exp(-v) + 1.0 / (1.0 + v * v),
])
def test_reference_integral_matches_adaptive_quadrature(h):
    m = build_spectral_model(
        intervals=[(-1.0, 0.5), (1.0, 3.0)], h=h, nodes_per_interval=64, quadrature_tol=1.0
    )
    np.testing.assert_allclose(m.quadrature_errors, _quad_errors(m), rtol=0, atol=1e-12)


def test_reference_integral_with_a_kink_inside_a_cell():
    # the kink at 0.33 sits inside a cell of the 10-cell grid
    m = build_spectral_model(
        intervals=[(0.0, 1.0)], h=lambda v: 1.0 + np.abs(v - 0.33), nodes_per_interval=10
    )
    # the Gauss-Legendre panel across the kink is off by about 3e-7 of the mass,
    # far below the default quadrature_tol of 1e-3
    assert abs(m.quadrature_errors[0] - _quad_errors(m)[0]) < 1e-5


def test_model_serialization_round_trip():
    tree = {
        "atoms": [[2.0, 0.25]],
        "intervals": [[0.0, 1.0]],
        "h": {"name": "linear", "intercept": 0.5, "slope": 1.0},
        "nodes_per_interval": 20,
        "multiplicity": 1,
    }
    m = build_spectral_model(
        atoms=[(2.0, 0.25)],
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=20,
    )
    m2 = model_from_dict(json.loads(json.dumps(tree)))
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.mass, m2.mass)
    assert m.multiplicity == m2.multiplicity


def test_tabulated_density_round_trip():
    table = [[0.0, 1.0], [0.5, 2.0], [1.0, 1.0]]
    m = build_spectral_model(
        intervals=[(0.0, 1.0)], h={"table": table}, nodes_per_interval=50
    )
    tree = {"intervals": [[0.0, 1.0]], "h": {"table": table}, "nodes_per_interval": 50}
    m2 = model_from_dict(json.loads(json.dumps(tree)))
    assert np.allclose(m.hvals, m2.hvals)


def test_state_serialization_round_trip():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=8)
    state = pure_state(m, lambda nu: np.exp(1j * nu))
    values = state.values
    tree = {"shape": list(values.shape), "re": values.real.tolist(), "im": values.imag.tolist()}
    state2 = state_from_dict(m, json.loads(json.dumps(tree)))
    assert np.allclose(state.values, state2.values)


def test_kernels_are_immutable():
    m = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=8)
    state = pure_state(m, lambda nu: np.ones_like(nu))
    with pytest.raises(ValueError):
        state.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        m.nodes[0] = -1.0


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=200, deadline=None)
@given(
    ends=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(sorted),
    n_nodes=st.integers(2, 50),
    with_atom=st.booleans(),
)
def test_snapped_regions_are_finitely_additive(ends, n_nodes, with_atom):
    atoms = [(1.5, 0.2)] if with_atom else []
    m = build_spectral_model(atoms=atoms, intervals=[(0.0, 1.0)], nodes_per_interval=n_nodes)
    a, b, c = (1.5 * e if with_atom else e for e in ends)
    assume(not with_atom or b != 1.5)  # an atom on the shared endpoint is in both
    left, right = m.region_mask([(a, b)]), m.region_mask([(b, c)])
    assert not np.any(left & right)
    assert np.array_equal(left | right, m.region_mask([(a, c)]))


def _dense_oracle_state(kind, model, rng):
    """A state of the named kind and the dense (N, N, n, n) values it stands for."""
    size, n = model.size, model.multiplicity
    if kind == "pure":
        state = pure_state(model, rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n)))
        return state, state.values
    if kind == "diagonal":
        state = diagonal_state(model, rng.random(size) + 0.01)
        return state, state.values
    a = rng.standard_normal((size * n,) * 2) + 1j * rng.standard_normal((size * n,) * 2)
    h = a @ a.conj().T if kind == "dense-psd" else a + a.conj().T  # else indefinite
    values = h.reshape(size, n, size, n).transpose(0, 2, 1, 3)
    return StateKernel(values, model), values


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["pure", "diagonal", "dense-psd", "dense"]),
    n_nodes=st.integers(2, 20),
    multiplicity=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_state_matches_its_dense_values(kind, n_nodes, multiplicity, seed):
    model = build_spectral_model(  # unequal node masses
        intervals=[(0.0, 1.0)],
        h={"name": "linear", "intercept": 0.5, "slope": 1.0},
        nodes_per_interval=n_nodes,
        multiplicity=multiplicity,
    )
    state, values = _dense_oracle_state(kind, model, np.random.default_rng(seed))
    s = np.sqrt(model.mass)
    nn = model.size * multiplicity
    weighted = (values * s[:, None, None, None] * s[None, :, None, None]).transpose(0, 2, 1, 3)
    eigs = np.linalg.eigvalsh(weighted.reshape(nn, nn))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(weighted_matrix(state)), eigs, rtol=0, atol=1e-12 * np.abs(eigs).max()
    )

    traces = np.einsum("iiaa->i", values).real
    bt = state.block_traces()
    assert np.max(np.abs(bt - traces)) <= 1e-12 * np.abs(traces).max()
    dense_trace = float(np.dot(model.mass, traces))
    assert abs(state.trace() - dense_trace) <= 1e-12 * max(1.0, abs(dense_trace))
    report = validate_state(state)
    assert abs(report.min_weighted_eigenvalue - eigs.min()) <= 1e-12 * np.abs(eigs).max()
    # a factor is Hermitian by construction; declared values keep their defect
    defect = np.abs(values - values.conj().transpose(1, 0, 3, 2)).max()
    assert report.hermiticity_defect == (defect if kind.startswith("dense") else 0.0)


def test_fine_pure_state_stays_a_vector():
    # dense values of this state would take 1.6 GB
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=10_000)
    probe = GaussianReadout(sigma=1.0)
    outcomes = 0.4 + np.random.default_rng(7).standard_normal(1000)
    sums = loglik_node_sums(probe, model.nodes, outcomes)
    traj = Ensemble(probe.statistic(outcomes[None])[:, None], sums[None, None], 1000, (1000,), None)
    window = build_window_grid(model, 0.4, 1000, 1.0)
    tracemalloc.start()
    try:
        state = pure_state(model, lambda nu: np.exp(0.5 * nu))
        log_prior_weights(state)
        assert validate_state(state).passed
        posterior_weights(state, traj, 1000)
        limit_kernel(model, state, 0.4, 1.0, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0) | st.integers(-2, 2).map(float), min_size=1, max_size=12))
def test_distinct_values_are_numpy_unique(values):
    # ties (0.0 and -0.0 among them) collapse to one value, sorted
    assert np.array_equal(_distinct(values), np.unique(values))


def test_gauss_legendre_rule_is_numpys_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(32)
    assert spectral._GL32[0].tobytes() == x.tobytes()
    assert spectral._GL32[1].tobytes() == w.tobytes()
