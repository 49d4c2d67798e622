"""Probe families: densities, scores, Fisher information, relative entropy,
sampling, and the assumption validators."""

import functools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erf, kolmogorov

from qndsim import probes
from qndsim.harness import ExperimentConfig, build_model, build_probe
from qndsim.probes import (
    BinaryPhase,
    GaussianReadout,
    ProbeError,
    ProbeModel,
    TabulatedProbe,
    ZeroDensityError,
    probe_from_config,
    relative_entropy,
    validate_probe,
)
from qndsim.spectral import build_spectral_model

RNG_SEED = 20260810


def _grid(lo=0.0, hi=1.0, n=50):
    return build_spectral_model(intervals=[(lo, hi)], nodes_per_interval=n)


# ---------------------------------------------------------------------------
# closed forms and derivatives

def test_gaussian_loglik_closed_form():
    probe = GaussianReadout(sigma=1.0)
    nu, xi = 0.4, 1.1
    l, dl, d2l = probe.log_likelihood(nu, xi)
    assert l == pytest.approx(-0.5 * (xi - nu) ** 2 - 0.5 * np.log(2 * np.pi), abs=1e-12)
    assert dl == pytest.approx(xi - nu, abs=1e-12)
    assert d2l == pytest.approx(-1.0, abs=1e-12)


def test_binary_score_closed_form():
    probe = BinaryPhase()
    for nu in (0.3, 1.2, 2.8):
        _, dl, _ = probe.log_likelihood(nu, 0.0)
        assert dl == pytest.approx(-np.tan(nu / 2.0), abs=1e-12)


def test_score_vanishes_at_density_maximum():
    probe = GaussianReadout(sigma=0.7)
    _, dl, _ = probe.log_likelihood(0.31, 0.31)  # density in nu peaks at xi
    assert abs(dl) < 1e-12


@pytest.mark.parametrize(
    "probe", [GaussianReadout(sigma=1.0), GaussianReadout(sigma=0.3), BinaryPhase()]
)
def test_derivatives_match_central_differences(probe):
    rng = np.random.default_rng(RNG_SEED)
    lo, hi = (0.1, 0.9) if isinstance(probe, GaussianReadout) else (0.4, 2.7)
    step = 1e-5
    for _ in range(100):
        nu = float(rng.uniform(lo, hi))
        xi = float(probe.sample(nu, 1, rng)[0])
        l, dl, d2l = probe.log_likelihood(nu, xi)
        lp = probe.log_likelihood(nu + step, xi)[0]
        lm = probe.log_likelihood(nu - step, xi)[0]
        assert abs((lp - lm) / (2 * step) - dl) < 1e-6
    # curvature with a wider step to keep roundoff below truncation
    step = 1e-4
    for nu in np.linspace(lo, hi, 7):
        xi = float(probe.sample(float(nu), 1, rng)[0])
        l, _, d2l = probe.log_likelihood(float(nu), xi)
        lp = probe.log_likelihood(float(nu) + step, xi)[0]
        lm = probe.log_likelihood(float(nu) - step, xi)[0]
        assert abs((lp - 2 * l + lm) / step**2 - d2l) < 1e-5


def test_zero_density_raises():
    with pytest.raises(ZeroDensityError):
        BinaryPhase().log_likelihood(0.0, 1.0)  # sin^2(0) = 0


# ---------------------------------------------------------------------------
# sampling

def test_binary_sampling_frequency():
    rng = np.random.default_rng(RNG_SEED)
    draws = BinaryPhase().sample(np.pi / 2, 100_000, rng)
    assert abs(np.mean(draws == 0.0) - 0.5) < 0.005


def test_gaussian_sampling_mean():
    rng = np.random.default_rng(RNG_SEED)
    draws = GaussianReadout(sigma=1.0).sample(0.0, 100_000, rng)
    assert abs(draws.mean()) < 0.01


def test_gaussian_sampling_variance():
    rng = np.random.default_rng(RNG_SEED)
    draws = GaussianReadout(sigma=0.5).sample(0.3, 100_000, rng)
    assert abs(draws.var() - 0.25) < 0.01


# ---------------------------------------------------------------------------
# information quantities

def test_gaussian_fisher_information():
    for sigma in (1.0, 0.5):
        probe = GaussianReadout(sigma=sigma)
        nodes = np.linspace(0.1, 0.9, 9)
        f = probe.fisher(nodes)
        assert np.max(np.abs(f - 1.0 / sigma**2)) < 1e-6
        # independent oracle: E[(xi - nu)^2] / sigma^4 by adaptive quadrature
        for nu in nodes[::4]:
            oracle, _ = integrate.quad(
                lambda x: (x - nu) ** 2
                * np.exp(-0.5 * ((x - nu) / sigma) ** 2)
                / (np.sqrt(2 * np.pi) * sigma),
                nu - 10 * sigma,
                nu + 10 * sigma,
            )
            assert abs(f[list(nodes).index(nu)] - oracle / sigma**4) < 1e-6


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.01, 10.0))
def test_gaussian_fisher_closed_form_matches_quadrature(sigma):
    probe = GaussianReadout(sigma=sigma)
    nodes = FAMILY_MODEL.nodes
    closed = probe.fisher(nodes)
    assert np.all(closed == 1.0 / sigma**2)
    # the outcome quadrature of the base class is the oracle
    np.testing.assert_allclose(closed, ProbeModel.fisher(probe, nodes), rtol=1e-10)


def test_binary_fisher_information():
    probe = BinaryPhase()
    nodes = np.linspace(0.3, 2.8, 11)
    f = probe.fisher(nodes)
    # two-term oracle: cos^2 tan^2 + sin^2 cot^2 = 1
    oracle = (
        np.cos(nodes / 2) ** 2 * np.tan(nodes / 2) ** 2
        + np.sin(nodes / 2) ** 2 / np.tan(nodes / 2) ** 2
    )
    assert np.max(np.abs(f - oracle)) < 1e-12
    assert np.max(np.abs(f - 1.0)) < 1e-6


def test_embedded_binary_fisher_is_slope_squared():
    probe = BinaryPhase.embedded(0.0, 1.0)
    f = probe.fisher(np.asarray([0.5]))[0]
    assert f == pytest.approx(probe.slope**2, abs=1e-9)


@pytest.mark.parametrize(
    "probe,nodes",
    [
        (GaussianReadout(sigma=1.0), np.linspace(0.0, 1.0, 21)),
        (GaussianReadout(sigma=0.5), np.linspace(0.0, 1.0, 21)),
        (BinaryPhase(), np.linspace(0.4, 2.7, 21)),
    ],
)
def test_information_identity(probe, nodes):
    # E[d2 log f] = -E[(d log f)^2], both sides by the same outcome rule
    assert np.max(np.abs(probe.mean_d2_loglik(nodes) + probe.fisher(nodes))) < 1e-6


@pytest.mark.parametrize(
    "probe,nodes",
    [
        (GaussianReadout(sigma=1.0), np.linspace(0.0, 1.0, 21)),
        (BinaryPhase(), np.linspace(0.4, 2.7, 21)),
    ],
)
def test_score_mean_zero(probe, nodes):
    assert np.max(np.abs(probe.score_mean(nodes))) < 1e-6


def test_normalization_on_grid():
    for probe in (GaussianReadout(sigma=1.0), GaussianReadout(sigma=0.05), BinaryPhase()):
        nodes = np.linspace(0.2, 0.9, 15)
        assert np.max(np.abs(probe.normalization(nodes) - 1.0)) < 1e-8
    # adaptive oracle for the continuous family
    oracle, _ = integrate.quad(
        lambda x: np.exp(-0.5 * (x - 0.4) ** 2) / np.sqrt(2 * np.pi), -12, 12
    )
    assert abs(oracle - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# relative entropy

def test_relative_entropy_zero_inside_region():
    probe = GaussianReadout(sigma=1.0)
    assert abs(relative_entropy(probe, 0.3, [0.1, 0.3, 0.9])) < 1e-10


def test_gaussian_relative_entropy_closed_form_and_oracle():
    probe = GaussianReadout(sigma=1.0)
    nu, nu2 = 0.2, 0.6

    def integrand(x):
        f = np.exp(-0.5 * (x - nu) ** 2) / np.sqrt(2 * np.pi)
        g = np.exp(-0.5 * (x - nu2) ** 2) / np.sqrt(2 * np.pi)
        return f * (np.log(f) - np.log(g))

    oracle, _ = integrate.quad(integrand, nu - 12, nu + 12)
    value = relative_entropy(probe, nu, [nu2])
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx((nu - nu2) ** 2 / 2.0, abs=1e-9)


def test_binary_relative_entropy_two_term_oracle():
    probe = BinaryPhase()
    nu, nu2 = np.pi / 2, np.pi / 3
    f = np.array([np.cos(nu / 2) ** 2, np.sin(nu / 2) ** 2])
    g = np.array([np.cos(nu2 / 2) ** 2, np.sin(nu2 / 2) ** 2])
    oracle = float(np.sum(f * (np.log(f) - np.log(g))))
    assert relative_entropy(probe, nu, [nu2]) == pytest.approx(oracle, abs=1e-12)


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(RNG_SEED)
    for probe, lo, hi in (
        (GaussianReadout(sigma=0.5), 0.0, 1.0),
        (BinaryPhase(), 0.4, 2.7),
    ):
        for _ in range(25):
            nu = float(rng.uniform(lo, hi))
            region = rng.uniform(lo, hi, size=rng.integers(1, 6))
            assert relative_entropy(probe, nu, region) >= -1e-10


def test_relative_entropy_empty_region():
    with pytest.raises(ProbeError):
        relative_entropy(GaussianReadout(), 0.5, [])


KL_MODEL = _grid(0.0, 1.0, 40)


def _region_nodes(data):
    mask = data.draw(
        st.lists(st.booleans(), min_size=KL_MODEL.size, max_size=KL_MODEL.size)
        .filter(any),
        label="region mask",
    )
    return KL_MODEL.nodes[np.asarray(mask)]


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(0.3, 3.0),
    nu=st.floats(*KL_MODEL.hull),
    data=st.data(),
)
def test_gaussian_relative_entropy_closed_form_matches_quadrature(sigma, nu, data):
    probe = GaussianReadout(sigma=sigma)
    nodes = _region_nodes(data)
    closed = probe.relative_entropy(nu, nodes)
    assert closed == 0.5 * (np.abs(nodes - nu).min() / sigma) ** 2
    # the outcome quadrature of the base class is the oracle
    assert closed == pytest.approx(ProbeModel.relative_entropy(probe, nu, nodes), abs=1e-12)


# ---------------------------------------------------------------------------
# Gaussian log-likelihood sums from sufficient statistics

def _fsum_oracle(sigma, nodes, outcomes):
    """Per node, the fsum of the log-likelihood terms and the summed magnitude
    of their two parts (the two can cancel in a term, or across terms)."""
    quad = 0.5 * ((outcomes[:, None] - nodes[None, :]) / sigma) ** 2
    const = np.log(np.sqrt(2.0 * np.pi) * sigma)
    oracle = np.array([math.fsum(col) for col in (-quad - const).T])
    scale = np.array([math.fsum(col) for col in quad.T]) + outcomes.size * abs(const)
    return oracle, scale


@settings(max_examples=25, deadline=None)
@given(
    log10_sigma=st.floats(-3.0, 0.5),
    k=st.integers(1, 10_000),
    mean=st.one_of(st.floats(-50.0, 50.0), st.floats(*KL_MODEL.hull)),
    seed=st.integers(0, 2**32 - 1),
)
# a narrow law centred between nodes: the rounding of the float mean alone
# would cost more than the cell-by-cell sums lose
@example(log10_sigma=-3.0, k=3_000, mean=0.51, seed=1)
def test_gaussian_loglik_sums_from_sufficient_statistics(log10_sigma, k, mean, seed):
    sigma = 10.0**log10_sigma
    probe = GaussianReadout(sigma=sigma)
    nodes = KL_MODEL.nodes
    outcomes = mean + sigma * np.random.default_rng(seed).standard_normal(k)
    fast = probe.loglik_node_sums(nodes, outcomes)
    cells = ProbeModel.loglik_node_sums(probe, nodes, outcomes)
    oracle, scale = _fsum_oracle(sigma, nodes, outcomes)
    # no less accurate than the cell-by-cell sums, up to a few units of rounding
    err_fast = np.abs(fast - oracle) / scale
    err_cells = np.abs(cells - oracle) / scale
    assert err_fast.max() <= err_cells.max() + 4 * np.finfo(float).eps
    # rtol 1e-12 against that magnitude, as the sums themselves can cancel
    assert np.all(np.abs(fast - cells) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# block evaluation of outcome x node products

def _block_fixture():
    model = _grid(0.0, 1.0, 4)
    xi_grid = np.linspace(-6.0, 7.0, 8)
    nu_grid = np.linspace(-0.5, 1.5, 5)
    # a floor keeps the quadratic nu-interpolation of the tails positive
    table = 0.01 + np.exp(-0.5 * (xi_grid[:, None] - nu_grid[None, :]) ** 2)
    tabulated = TabulatedProbe(
        nu_grid=tuple(nu_grid), values=tuple(map(tuple, table)), xi_grid=tuple(xi_grid)
    )
    probes_by_name = {
        "gaussian": GaussianReadout(sigma=1.0),
        "tabulated": tabulated,
    }
    # two more nodes beyond the hull of the grid
    return model, np.append(model.nodes, [-0.3, 1.4]), probes_by_name


BLOCK_MODEL, BLOCK_NODES, BLOCK_PROBES = _block_fixture()
UNBLOCKED = 10**15


def _cells_splitting(data, n, width, min_step=1):
    """A BLOCK_CELLS value whose block edges fall strictly inside range(n)."""
    step = data.draw(st.integers(min_step, n - 1), label="rows per block")
    return step * width + data.draw(st.integers(0, width - 1), label="spare cells")


def _with_cells(cells, fn):
    with mock.patch.object(probes, "BLOCK_CELLS", cells):
        return fn()


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_PROBES)), data=st.data())
def test_blocked_loglik_sums_match_unblocked(name, data):
    probe = BLOCK_PROBES[name]
    outcomes = np.random.default_rng(RNG_SEED).normal(0.4, 1.0, 40)
    cells = _cells_splitting(data, outcomes.size, BLOCK_NODES.size)

    def run():
        return probe.loglik_node_sums(BLOCK_NODES, outcomes)

    blocked, whole = _with_cells(cells, run), _with_cells(UNBLOCKED, run)
    np.testing.assert_allclose(blocked, whole, rtol=1e-12)


def _outcome_expectations(probe, nu=0.3):
    return {
        "expected_loglik": probe.expected_loglik(nu, BLOCK_NODES),
        "relative_entropy": relative_entropy(probe, nu, BLOCK_NODES[2:]),
        **probe._expect(BLOCK_NODES, ("norm", "score", "fisher", "d2")),
    }


@functools.lru_cache(maxsize=None)
def _unblocked_expectations(name):
    return _with_cells(UNBLOCKED, lambda: _outcome_expectations(BLOCK_PROBES[name]))


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_PROBES)), data=st.data())
def test_blocked_outcome_expectations_match_unblocked(name, data):
    probe = BLOCK_PROBES[name]
    # block edges fall inside the outcome rows of the one expectation sweep
    xi_rows = probe._quadrature(BLOCK_NODES)[0].size
    cells = _cells_splitting(data, xi_rows, BLOCK_NODES.size, min_step=max(xi_rows // 40, 1))
    blocked = _with_cells(cells, lambda: _outcome_expectations(probe))
    whole = _unblocked_expectations(name)
    assert blocked.keys() == whole.keys()
    for key in whole:
        # the mean score cancels to rounding level, hence the absolute floor
        np.testing.assert_allclose(blocked[key], whole[key], rtol=1e-12, atol=1e-12)


@settings(max_examples=4, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_PROBES)), data=st.data())
def test_blocked_dominance_matches_dense_formula(name, data):
    probe = BLOCK_PROBES[name]
    nodes = BLOCK_MODEL.nodes
    # the dense quadrature x grid formula the validator used to evaluate
    xq, wq = probe._quadrature(nodes)
    dens_at = probe.density(xq[:, None], nodes[None, :])
    with np.errstate(divide="ignore"):
        sup_abs = np.abs(np.log(dens_at)).max(axis=1)
    dense = (wq * sup_abs) @ dens_at
    cells = _cells_splitting(data, xq.size, nodes.size, min_step=xq.size // 40)
    check = _with_cells(cells, lambda: validate_probe(probe, BLOCK_MODEL))["dominance"]
    assert check.worst_value == pytest.approx(dense.max(), rel=1e-12)
    assert check.passed


FAMILY_MODEL = _grid(0.0, 1.0, 20)
FAMILY_PROBES = {
    "gaussian": GaussianReadout(sigma=1.0),
    "binary": BinaryPhase.embedded(0.0, 1.0),
    "tabulated": BLOCK_PROBES["tabulated"],
    "tabulated-finite": TabulatedProbe(
        nu_grid=(-0.5, 0.25, 0.75, 1.5),
        values=((0.2, 0.3, 0.6, 0.7), (0.8, 0.7, 0.4, 0.3)),
        outcomes=(0.0, 1.0),
    ),
}


def test_amplitude_is_sqrt_density():
    probe = GaussianReadout(sigma=0.8)
    xi, nu = 0.3, 0.7
    assert float(probe.amplitude(xi, nu)) == pytest.approx(
        np.sqrt(float(probe.density(xi, nu)))
    )


# ---------------------------------------------------------------------------
# the outcome rule each family sizes for itself

EXPECTATIONS = ("norm", "score", "fisher", "d2")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped_gaussian_grids():
    """Distinct (model, probe) pairs of the shipped Gaussian configs."""
    grids = {}
    for path in sorted(CONFIGS.glob("*.json")):
        config = ExperimentConfig.from_dict(json.loads(path.read_text()))
        if config.probe["kind"] == "gaussian-readout":
            model = build_model(config)
            probe = build_probe(config, model)
            grids[(probe.sigma, model.size)] = (model, probe)
    return [grids[key] for key in sorted(grids)]


SHIPPED_GAUSSIAN = _shipped_gaussian_grids()


def _uniform_rule(lo, hi, size=100_096):
    """A rule of fixed size: 32 Gauss-Legendre points on each of size / 32 equal panels."""
    return probes._composite_gauss(np.linspace(lo, hi, size // 32 + 1))


def _expect_on(rule, probe, nodes, quantities=EXPECTATIONS):
    with mock.patch.object(type(probe), "_quadrature", lambda self, nus: rule):
        return probe._expect(nodes, quantities)


def _assert_close(got, want, tol):
    for key in want:
        scale = np.maximum(1.0, np.abs(want[key]))
        assert np.all(np.abs(got[key] - want[key]) <= tol * scale), key


def _gaussian_oracle(probe, nodes):
    pad = probes.GAUSS_WINDOW_SIGMAS * probe.sigma
    return _expect_on(_uniform_rule(nodes.min() - pad, nodes.max() + pad), probe, nodes)


@settings(max_examples=10, deadline=None)
@given(log10_sigma=st.floats(-2.0, 1.0))
def test_gaussian_rule_matches_the_fixed_uniform_rule(log10_sigma):
    probe = GaussianReadout(sigma=10.0**log10_sigma)
    nodes = FAMILY_MODEL.nodes
    _assert_close(probe._expect(nodes, EXPECTATIONS), _gaussian_oracle(probe, nodes), 1e-12)


@pytest.mark.parametrize("grid", range(len(SHIPPED_GAUSSIAN)))
def test_gaussian_rule_on_shipped_grids(grid):
    model, probe = SHIPPED_GAUSSIAN[grid]
    nodes = model.nodes
    _assert_close(probe._expect(nodes, EXPECTATIONS), _gaussian_oracle(probe, nodes), 1e-12)
    # adjacent laws are L1-apart by exactly 2 erf(delta / 2 sqrt(2) sigma)
    spacing = min((b - a) / model.nodes_per_interval for a, b in model.intervals)
    exact = 2.0 * erf(spacing / (2.0 * np.sqrt(2.0) * probe.sigma))
    report = validate_probe(probe, model, n_derivative_pairs=1)
    assert report["identifiability"].worst_value == pytest.approx(exact, rel=1e-4)


def test_gaussian_rule_size():
    for sigma in (0.05, 1.0, 3.0):
        nus = np.array([0.0, 1.0])
        xq, wq = GaussianReadout(sigma=sigma)._quadrature(nus)
        width = 1.0 + 2.0 * probes.GAUSS_WINDOW_SIGMAS * sigma
        assert xq.size == wq.size == 32 * math.ceil(width / (probes.GAUSS_PANEL_SIGMAS * sigma))
    assert GaussianReadout(sigma=1.0)._quadrature(np.array([0.0, 1.0]))[0].size == 1088
    sizes = [probe._quadrature(model.nodes)[0].size for model, probe in SHIPPED_GAUSSIAN]
    assert sizes == [2304, 1088, 1088]  # clt_gaussian; assumption_validation; rate and kernel


TABLE_MODEL = _grid(0.0, 1.0, 4)


@settings(max_examples=5, deadline=None)
@given(knots=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
def test_tabulated_rule_has_one_panel_per_knot_cell(knots, seed):
    rng = np.random.default_rng(seed)
    xi_grid = np.sort(rng.uniform(-5.0, 6.0, knots)) + np.arange(knots) * 1e-3
    nu_grid = np.linspace(-0.5, 1.5, 5)
    # values within a factor 2 keep the quadratic nu-interpolation positive
    table = rng.uniform(0.5, 1.0, (knots, nu_grid.size))
    probe = TabulatedProbe(
        nu_grid=tuple(nu_grid), values=tuple(map(tuple, table)), xi_grid=tuple(xi_grid)
    )
    nodes = TABLE_MODEL.nodes
    assert probe._quadrature(nodes)[0].size == 32 * (knots - 1)
    # reference: 200 Gauss-Legendre points on each knot cell; d2 carries
    # finite-difference noise near 1e-6 under every rule, so it is left out
    x200, w200 = np.polynomial.legendre.leggauss(200)
    mid, half = 0.5 * (xi_grid[:-1] + xi_grid[1:]), 0.5 * np.diff(xi_grid)
    reference_rule = ((mid[:, None] + half[:, None] * x200).ravel(), (half[:, None] * w200).ravel())
    quantities = ("norm", "score", "fisher")
    reference = _expect_on(reference_rule, probe, nodes, quantities)
    got = probe._expect(nodes, quantities)
    _assert_close(got, reference, 1e-10)
    # the fixed uniform rule puts knots inside its panels and does no better,
    # down to the rounding noise of central differences with step 1e-5
    uniform = _expect_on(_uniform_rule(xi_grid[0], xi_grid[-1]), probe, nodes, quantities)
    for key in quantities:
        err_uniform = np.abs(uniform[key] - reference[key]).max()
        assert np.abs(got[key] - reference[key]).max() <= max(err_uniform, 1e-11)


# ---------------------------------------------------------------------------
# validators

def test_validator_accepts_gaussian():
    model = _grid(0.0, 1.0, 40)
    report = validate_probe(GaussianReadout(sigma=1.0), model)
    assert report.passed, report.summary()


def test_validator_accepts_narrow_gaussian():
    # exp(-z^2/2) underflows to 0 about 40 sigma from nu; the log-density does not
    model = _grid(0.0, 1.0, 200)
    probe = GaussianReadout(sigma=0.01)
    assert probe.density(0.0, 1.0) == 0.0
    report = validate_probe(probe, model, n_derivative_pairs=10)
    assert report.passed, report.summary()
    assert np.isfinite(report["positivity"].worst_value)
    assert np.isfinite(report["dominance"].worst_value)


def test_validator_tables_are_built_in_blocks():
    # 521 knots: a rule of 16,640 rows; one unblocked density call on all
    # 332,800 cells would take about 50 MB of temporaries
    model = _grid(0.0, 1.0, 20)
    probe = _tabulated_gaussian()
    tracemalloc.start()
    try:
        report = validate_probe(probe, model, n_derivative_pairs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, report.summary()
    assert peak < 30e6


@pytest.mark.parametrize("name", sorted(FAMILY_PROBES))
def test_validator_single_pass_matches_separate_expectations(name):
    probe = FAMILY_PROBES[name]
    report = validate_probe(probe, FAMILY_MODEL, n_derivative_pairs=1)
    nodes = FAMILY_MODEL.nodes
    assert report["normalization"].worst_value == np.abs(probe.normalization(nodes) - 1.0).max()
    assert report["score-mean-zero"].worst_value == np.abs(probe.score_mean(nodes)).max()
    assert report["positive-curvature"].worst_value == -probe.mean_d2_loglik(nodes).max()


def _differentiability_loop(probe, model, n_pairs=100, seed=7):
    """The differentiability check one pair at a time: worst error, location, verdict."""
    rng = np.random.default_rng(seed)
    lo, hi = model.hull
    worst, where, ok = 0.0, "n/a", True
    for _ in range(n_pairs):
        nu = float(rng.uniform(lo, hi))
        xi = float(probe.sample(nu, 1, rng)[0])
        try:
            _, dl, _ = probe.log_likelihood(nu, xi)
        except ZeroDensityError:
            continue
        lp = probe.log_likelihood(nu + probes.FD_STEP, xi)[0]
        lm = probe.log_likelihood(nu - probes.FD_STEP, xi)[0]
        err = abs((lp - lm) / (2 * probes.FD_STEP) - dl)
        if err > worst:
            worst, where = err, f"nu={nu:.6g}, xi={xi:.6g}"
        ok = ok and err <= 1e-6
    return worst, where, ok


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(c.stem for c in CONFIG_DIR.glob("*.json"))


def _shipped_probe(name):
    config = ExperimentConfig.from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    model = build_model(config)
    return build_probe(config, model), model


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.05, 2.0), nodes=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
def test_one_call_gaussian_differentiability_is_the_pair_loop_bitwise(sigma, nodes, seed):
    model = _grid(0.0, 1.0, nodes)
    probe = GaussianReadout(sigma=sigma)
    check = validate_probe(probe, model, seed=seed)["differentiability"]
    assert (check.worst_value, check.worst_location, check.passed) == _differentiability_loop(
        probe, model, seed=seed
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_one_call_differentiability_on_shipped_configs(name):
    # BinaryPhase evaluates its cosines on arrays, which differ from scalar
    # calls in the last bits; the central difference magnifies that by 1 / FD_STEP
    probe, model = _shipped_probe(name)
    check = validate_probe(probe, model)["differentiability"]
    worst, where, ok = _differentiability_loop(probe, model)
    assert (check.worst_location, check.passed) == (where, ok)
    if isinstance(probe, GaussianReadout):
        assert check.worst_value == worst
    else:
        assert check.worst_value == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_validator_accepts_binary_inside_safe_range():
    model = _grid(0.5, 2.5, 40)
    report = validate_probe(BinaryPhase(), model)
    assert report.passed, report.summary()


def test_validator_flags_phase_symmetry():
    # spectrum symmetric around pi: f(.|nu) equals f(.|2 pi - nu)
    model = build_spectral_model(
        intervals=[(np.pi - 1.0, np.pi + 1.0)], nodes_per_interval=10
    )
    report = validate_probe(BinaryPhase(), model)
    assert not report["identifiability"].passed
    assert report["positivity"].passed


def test_validator_flags_zero_density_with_location():
    table = np.array(
        [
            [0.5, 0.5, 0.0, 0.5, 0.5],  # a hard zero at the middle grid point
            [0.5, 0.5, 1.0, 0.5, 0.5],
        ]
    )
    probe = TabulatedProbe(
        nu_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        values=tuple(map(tuple, table)),
        outcomes=(0.0, 1.0),
    )
    # five midpoint nodes put a grid point exactly on the tabulated zero
    model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=5)
    report = validate_probe(probe, model)
    assert not report["positivity"].passed
    assert "nu=0.5" in report["positivity"].worst_location
    assert "xi=0" in report["positivity"].worst_location
    assert any("grid only" in c for c in report.caveats)


def test_validator_locations_do_not_follow_rounding():
    # the block width changes the summation order of norm, score and
    # curvature, so argmax locations of rounding noise would move
    cfg = ExperimentConfig.from_dict(
        json.loads((CONFIGS / "assumption_validation.json").read_text())
    )
    model = build_model(cfg)
    probe = build_probe(cfg, model)
    locations = [
        _with_cells(cells, lambda: [c.worst_location for c in validate_probe(probe, model).checks])
        for cells in (100_000, 7_000)
    ]
    assert locations[0] == locations[1]
    report = validate_probe(probe, model)
    assert report["normalization"].worst_location == "n/a (rounding)"
    assert report["score-mean-zero"].worst_location == "n/a (rounding)"
    # every node ties for the Gaussian curvature: the first one is named
    assert report["positive-curvature"].worst_location == f"nu={model.nodes[0]:.6g}"


# ---------------------------------------------------------------------------
# pruned identifiability against the loop over all pairs

def _exhaustive_identifiability(probe, model):
    """Worst pairwise L1 distance and its location, from every node pair."""
    nodes = model.nodes
    xs, wq = probe._quadrature(nodes)
    fmat = np.empty((xs.size, nodes.size))
    for sl in probes._blocks(xs.size, nodes.size):
        fmat[sl] = probe.density(xs[sl, None], nodes[None, :])

    def distances_from(i):
        diff = fmat[:, i + 1 :] - fmat[:, i : i + 1]
        return wq @ np.abs(diff, out=diff)

    nearest = np.array([distances_from(i).min() for i in range(nodes.size - 1)])
    worst = float(nearest.min())
    i = probes._first_near(nearest, worst)
    j = i + 1 + probes._first_near(distances_from(i), worst)
    return repr(worst), f"nu={nodes[i]:.6g} vs nu={nodes[j]:.6g}"


def _draw_grid(data, lo, hi):
    """One to three intervals inside [lo, hi], plus up to two atoms beyond hi."""
    count = data.draw(st.integers(1, 3), label="intervals")
    cuts = np.sort(data.draw(
        st.lists(st.floats(lo, hi), min_size=2 * count, max_size=2 * count), label="cuts"
    ))
    # spread the sorted draws so every interval and gap is at least
    # (hi - lo) / (hi - lo + 6)
    cuts = lo + (hi - lo) * (cuts - lo + np.arange(cuts.size)) / (hi - lo + cuts.size)
    intervals = list(zip(cuts[::2], cuts[1::2]))
    atoms = [
        (hi + 0.1 * (k + 1), 0.5)
        for k in range(data.draw(st.integers(0, 2), label="atoms"))
    ]
    nodes = data.draw(st.integers(2, 30), label="nodes per interval")
    return build_spectral_model(atoms=atoms, intervals=intervals, nodes_per_interval=nodes)


def _gaussian_case(data):
    sigma = 10.0 ** data.draw(st.floats(-2.0, 1.0), label="log10 sigma")
    model = _draw_grid(data, 0.0, 1.0)
    return GaussianReadout(sigma=sigma), model


def _binary_case(data):
    if data.draw(st.booleans(), label="symmetric about pi"):
        # f(.|nu) = f(.|2 pi - nu): mirrored nodes have equal laws
        half = data.draw(st.floats(0.2, 1.5), label="half width")
        model = build_spectral_model(
            intervals=[(np.pi - half, np.pi + half)],
            nodes_per_interval=data.draw(st.integers(2, 30), label="nodes"),
        )
    else:
        model = _draw_grid(data, 0.2, 2.8)
    return BinaryPhase(), model


def _draw_table(data, rows, zero=False):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    nu_grid = np.linspace(-0.5, 1.5, data.draw(st.integers(3, 8), label="nu knots"))
    # values within a factor 2 keep the quadratic nu-interpolation positive
    table = rng.uniform(0.5, 1.0, (rows, nu_grid.size))
    if zero:
        table[rng.integers(rows), rng.integers(nu_grid.size)] = 0.0
    return tuple(nu_grid), tuple(map(tuple, table)), rng


def _finite_table_case(data, zero=False):
    outcomes = data.draw(st.integers(2, 5), label="outcomes")
    nu_grid, values, _ = _draw_table(data, outcomes, zero)
    probe = TabulatedProbe(
        nu_grid=nu_grid, values=values, outcomes=tuple(float(o) for o in range(outcomes))
    )
    model = _draw_grid(data, 0.0, 1.0)
    return probe, model


def _continuous_table_case(data):
    knots = data.draw(st.integers(3, 12), label="xi knots")
    nu_grid, values, rng = _draw_table(data, knots)
    xi_grid = np.sort(rng.uniform(-5.0, 6.0, knots)) + np.arange(knots) * 1e-3
    probe = TabulatedProbe(nu_grid=nu_grid, values=values, xi_grid=tuple(xi_grid))
    model = _draw_grid(data, 0.0, 1.0)
    return probe, model


IDENTIFIABILITY_CASES = {
    "gaussian": _gaussian_case,
    "binary": _binary_case,
    "tabulated-finite": _finite_table_case,
    "tabulated-continuous": _continuous_table_case,
    "tabulated-hard-zero": functools.partial(_finite_table_case, zero=True),
}


@pytest.mark.parametrize("name", sorted(IDENTIFIABILITY_CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pruned_identifiability_equals_the_exhaustive_loop(name, data):
    probe, model = IDENTIFIABILITY_CASES[name](data)
    check = validate_probe(probe, model, n_derivative_pairs=0)["identifiability"]
    assert (repr(check.worst_value), check.worst_location) == _exhaustive_identifiability(
        probe, model
    )


@pytest.mark.parametrize("name", ["phase-symmetry", "mirrored-atoms", "hard-zero"])
def test_pruned_identifiability_finds_distant_equal_laws(name):
    # equal laws at nodes that are not neighbours; with mirrored atoms the
    # neighbours of the atom at pi - 1 are the farthest apart on the grid
    if name == "phase-symmetry":
        model = build_spectral_model(
            intervals=[(np.pi - 1.0, np.pi + 1.0)], nodes_per_interval=10
        )
        probe = BinaryPhase()
        location = "nu=3.04159 vs nu=3.24159"
    elif name == "mirrored-atoms":
        model = build_spectral_model(
            atoms=[(np.pi - 1.0, 0.5), (np.pi + 1.0, 0.5)],
            intervals=[(np.pi + 0.1, np.pi + 0.6)],
            nodes_per_interval=10,
        )
        probe = BinaryPhase()
        location = "nu=2.14159 vs nu=4.14159"
    else:
        probe = TabulatedProbe(
            nu_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
            values=((0.5, 0.5, 0.0, 0.5, 0.5), (0.5, 0.5, 1.0, 0.5, 0.5)),
            outcomes=(0.0, 1.0),
        )
        model = build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=5)
        location = "nu=0.1 vs nu=0.9"
    check = validate_probe(probe, model, n_derivative_pairs=0)["identifiability"]
    assert not check.passed
    assert check.worst_location == location
    assert (repr(check.worst_value), location) == _exhaustive_identifiability(probe, model)


@settings(max_examples=30, deadline=None)
@given(
    panel=st.sampled_from([1, 32]),
    panels=st.integers(1, 6),
    nodes=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_bound_never_exceeds_the_discrete_l1(panel, panels, nodes, seed):
    rng = np.random.default_rng(seed)
    fmat = rng.uniform(0.0, 1.0, (panel * panels, nodes)) * rng.uniform(0.1, 2.0, nodes)
    # a pair of laws one ulp apart: its L1 distance is below the rounding
    # of the partial sums, which the bound must allow for
    fmat[:, -1] = np.nextafter(fmat[:, 0], np.inf)
    wq = rng.uniform(0.1, 1.0, panel * panels)
    first, second = np.triu_indices(nodes, 1)
    distances = probes._pair_distances(fmat, wq, first, second)
    # a pair survives a limit at its own distance: its bound lies below it
    # (up to the rounding allowance of the bound, near 1e-13 here)
    for i, j, d in zip(first, second, distances):
        kept = probes._unpruned_pairs(fmat, wq, panel, d)
        assert (i, j) in set(zip(*kept))


def _every_pair_bound(fmat, wq, panel, limit):
    """The lower bound of every node pair, built in blocks of node rows, and
    the limit with its rounding allowance (the former ``_unpruned_pairs``)."""
    n = fmat.shape[1]
    sums = np.einsum("ps,psn->pn", wq.reshape(-1, panel), fmat.reshape(-1, panel, n))
    cdf = np.cumsum(sums, axis=0)
    total = cdf[-1]
    scale = np.abs(total).max()
    limit = limit + 8 * wq.size * np.finfo(float).eps * scale
    cdf = cdf + scale
    bounds = np.empty((n, n))
    for sl in probes._blocks(n, n * cdf.shape[0]):
        cols = np.arange(sl.start + 1, n)
        diff = cdf[:, sl, None] - cdf[:, None, cols]
        gap = np.abs(diff, out=diff).max(axis=0)
        bounds[sl, sl.start + 1 :] = 2.0 * gap - np.abs(total[sl, None] - total[None, cols])
    return bounds[np.triu_indices(n, 1)], limit


def _unpruned_pairs_of_every_pair(fmat, wq, panel, limit):
    """The oracle of the sorted screen in ``_unpruned_pairs``: pairs i < j
    whose bound, built for every pair, is not above the limit."""
    bounds, limit = _every_pair_bound(fmat, wq, panel, limit)
    first, second = np.triu_indices(fmat.shape[1], 1)
    keep = ~(bounds > limit)
    return first[keep], second[keep]


@settings(max_examples=80, deadline=None)
@given(
    panel=st.sampled_from([1, 32]),
    panels=st.integers(1, 6),
    nodes=st.integers(2, 40),
    table=st.sampled_from(["random", "location", "one-ulp", "tied", "nan"]),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sorted_screen_keeps_the_pairs_of_every_pair_bound(panel, panels, nodes, table, share, seed):
    rng = np.random.default_rng(seed)
    rows = panel * panels
    if table == "location":  # near neighbours only: the screen drops most pairs
        x = np.linspace(-3.0, 4.0, rows)[:, None] - np.sort(rng.uniform(0.0, 1.0, nodes))
        fmat = np.exp(-0.5 * (x / rng.uniform(0.05, 1.0)) ** 2)
    else:
        fmat = rng.uniform(0.0, 1.0, (rows, nodes)) * rng.uniform(0.1, 2.0, nodes)
    if table == "one-ulp":
        fmat[:, -1] = np.nextafter(fmat[:, 0], np.inf)
    elif table == "tied":
        fmat[:, rng.integers(nodes, size=max(nodes // 2, 2))] = fmat[:, [0]]
    elif table == "nan":
        fmat[rng.integers(rows), rng.integers(nodes)] = np.nan
    wq = rng.uniform(0.1, 1.0, rows)
    first, second = np.triu_indices(nodes, 1)
    distances = probes._pair_distances(fmat, wq, first, second)
    # limits at a pair's own distance or bound, between the distances, and at
    # 0; a pair's own bound puts it on the edge of the screen
    limit = np.nanquantile(distances, share) if np.any(distances >= 0) else share
    bounds, allowance = _every_pair_bound(fmat, wq, panel, 0.0)
    edge = bounds[rng.integers(bounds.size)] - allowance
    for cut in (limit, 0.0, distances[rng.integers(distances.size)],
                edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
        got = probes._unpruned_pairs(fmat, wq, panel, cut)
        want = _unpruned_pairs_of_every_pair(fmat, wq, panel, cut)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_identifiability_work_is_linear_on_the_rate_grid():
    cfg = ExperimentConfig.from_dict(
        json.loads((CONFIGS / "rate_convergence.json").read_text())
    )
    model = build_model(cfg)
    probe = build_probe(cfg, model)
    pairs, bounds = [], []
    exact, bound = probes._pair_distances, probes._pair_bounds

    def counted(fmat, wq, first, second):
        pairs.append(first.size)
        return exact(fmat, wq, first, second)

    def counted_bounds(cdf, total, first, second):
        bounds.append(first.size)
        return bound(cdf, total, first, second)

    with mock.patch.object(probes, "_pair_distances", counted), \
            mock.patch.object(probes, "_pair_bounds", counted_bounds):
        report = validate_probe(probe, model, n_derivative_pairs=0)
    assert report["identifiability"].passed
    # the loop over all pairs would sum 79,800, and bound as many
    assert 0 < sum(pairs) <= 2 * model.size
    assert 0 < sum(bounds) <= 2 * model.size


def test_validator_memory_on_the_rate_grid():
    # one rule x grid density table (3.5 MB) and one block of temporaries at
    # a time; keeping every derivative block beside the table peaks near 10 MB
    cfg = ExperimentConfig.from_dict(
        json.loads((CONFIGS / "rate_convergence.json").read_text())
    )
    model = build_model(cfg)
    probe = build_probe(cfg, model)
    tracemalloc.start()
    try:
        validate_probe(probe, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


# ---------------------------------------------------------------------------
# tabulated probes

def _tabulated_gaussian(sigma=1.0):
    xi_grid = np.linspace(-6.0, 7.0, 521)
    nu_grid = np.linspace(0.0, 1.0, 41)
    values = np.exp(-0.5 * ((xi_grid[:, None] - nu_grid[None, :]) / sigma) ** 2) / (
        np.sqrt(2 * np.pi) * sigma
    )
    return TabulatedProbe(
        nu_grid=tuple(nu_grid),
        values=tuple(map(tuple, values)),
        xi_grid=tuple(xi_grid),
    )


def test_tabulated_density_matches_source():
    probe = _tabulated_gaussian()
    exact = GaussianReadout(sigma=1.0)
    xs = np.linspace(-2.0, 3.0, 40)
    nus = np.linspace(0.05, 0.95, 7)
    approx = probe.density(xs[:, None], nus[None, :])
    truth = exact.density(xs[:, None], nus[None, :])
    assert np.max(np.abs(approx - truth)) < 1e-3


def _all_rows_value_at(probe, xi, nu):
    """The former evaluation: every table row interpolated at every cell."""
    shape = xi.shape
    xi = np.atleast_1d(xi).ravel()
    nu = np.atleast_1d(nu).ravel()
    rows = probe._rows_at(nu)  # (R, M)
    cols = np.arange(xi.size)
    if probe.outcomes is not None:
        outs = np.asarray(probe.outcomes, dtype=float)
        idx = np.argmin(np.abs(xi[:, None] - outs[None, :]), axis=1)
        vals = rows[idx, cols]
    else:
        grid = np.asarray(probe.xi_grid, dtype=float)
        q = np.clip(np.searchsorted(grid, xi) - 1, 0, grid.size - 2)
        t = np.clip((xi - grid[q]) / (grid[q + 1] - grid[q]), 0.0, 1.0)
        vals = (1.0 - t) * rows[q, cols] + t * rows[q + 1, cols]
    return vals.reshape(shape)


@settings(max_examples=30, deadline=None)
@given(
    finite=st.booleans(),
    n_rows=st.integers(2, 6),
    n_nus=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tabulated_value_at_matches_all_rows_formula(finite, n_rows, n_nus, seed):
    rng = np.random.default_rng(seed)
    nu_grid = np.sort(rng.uniform(-1.0, 2.0, n_nus)) + np.arange(n_nus)
    table = rng.uniform(0.0, 1.0, (n_rows, n_nus))
    points = np.sort(rng.uniform(-3.0, 3.0, n_rows)) + np.arange(n_rows)
    probe = TabulatedProbe(
        nu_grid=tuple(nu_grid),
        values=tuple(map(tuple, table)),
        outcomes=tuple(points) if finite else None,
        xi_grid=None if finite else tuple(points),
    )
    # cells inside, between and beyond both grids
    xi = rng.uniform(points[0] - 1.0, points[-1] + 1.0, (7, 5))
    nu = rng.uniform(nu_grid[0] - 1.0, nu_grid[-1] + 1.0, (7, 5))
    np.testing.assert_array_equal(probe._value_at(xi, nu), _all_rows_value_at(probe, xi, nu))


def test_tabulated_tables_are_built_once():
    probe = _tabulated_gaussian()
    assert probe._table is probe._table and probe._nus is probe._nus
    np.testing.assert_array_equal(probe._table, np.asarray(probe.values, dtype=float))
    np.testing.assert_array_equal(probe._nus, np.asarray(probe.nu_grid, dtype=float))


def test_tabulated_value_at_memory_is_per_cell():
    probe = _tabulated_gaussian()  # 521 rows: the former rule took about 240 MB here
    rng = np.random.default_rng(RNG_SEED)
    xi = rng.uniform(-6.0, 7.0, 20_000)
    nu = rng.uniform(0.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        probe._value_at(xi, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def _per_cell_density(probe, xi, nu):
    """The per-cell formula: broadcast, then one nu-stencil per (xi, nu) cell."""
    xi, nu = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(nu, dtype=float))
    shape = xi.shape
    xi, nu = np.atleast_1d(xi).ravel(), np.atleast_1d(nu).ravel()
    nus, table = probe._nus, probe._table
    j = np.clip(np.searchsorted(nus, nu) - 1, 1, nus.size - 2)
    x0, x1, x2 = nus[j - 1], nus[j], nus[j + 1]
    w0 = (nu - x1) * (nu - x2) / ((x0 - x1) * (x0 - x2))
    w1 = (nu - x0) * (nu - x2) / ((x1 - x0) * (x1 - x2))
    w2 = (nu - x0) * (nu - x1) / ((x2 - x0) * (x2 - x1))

    def rows_at(rows):
        return w0 * table[rows, j - 1] + w1 * table[rows, j] + w2 * table[rows, j + 1]

    if probe.outcomes is not None:
        outs = np.asarray(probe.outcomes, dtype=float)
        vals = rows_at(np.argmin(np.abs(xi[:, None] - outs[None, :]), axis=1))
    else:
        grid = np.asarray(probe.xi_grid, dtype=float)
        q = np.clip(np.searchsorted(grid, xi) - 1, 0, grid.size - 2)
        t = np.clip((xi - grid[q]) / (grid[q + 1] - grid[q]), 0.0, 1.0)
        below, above = rows_at(np.stack([q, q + 1]))
        vals = (1.0 - t) * below + t * above
    return np.clip(vals.reshape(shape), 0.0, None)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), finite=st.booleans())
def test_tabulated_density_equals_the_per_cell_formula(data, finite):
    rows = data.draw(st.integers(2, 12), label="rows")
    nu_grid, values, rng = _draw_table(data, rows)
    if finite:
        probe = TabulatedProbe(nu_grid=nu_grid, values=values,
                               outcomes=tuple(float(o) for o in range(rows)))
        xi = np.concatenate([np.arange(rows), rng.uniform(-1.0, rows, 9)])
    else:
        xi_grid = np.sort(rng.uniform(-5.0, 6.0, rows)) + np.arange(rows) * 1e-3
        probe = TabulatedProbe(nu_grid=nu_grid, values=values, xi_grid=tuple(xi_grid))
        xi = np.concatenate([xi_grid, rng.uniform(-7.0, 8.0, 9)])
    # knots, points between and beyond them, and one value repeated
    nu = np.concatenate([nu_grid, rng.uniform(-1.0, 2.0, 7), [0.25, 0.25]])
    for x, v in ((xi[:, None], nu[None, :]), (xi[:9], nu[:9]), (xi[:, None], nu[3]),
                 (xi[2], nu[None, :]), (xi[2], nu[3])):
        got = probe.density(x, v)
        want = _per_cell_density(probe, x, v)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want)
    # the finite-difference derivatives evaluate the density at shifted nu
    f, f1, f2 = probe.density_derivs(xi[:, None], nu[None, :])
    e = probes.FD_STEP
    plus = _per_cell_density(probe, xi[:, None], nu[None, :] + e)
    minus = _per_cell_density(probe, xi[:, None], nu[None, :] - e)
    mid = _per_cell_density(probe, xi[:, None], nu[None, :])
    assert np.array_equal(f1, (plus - minus) / (2.0 * e))
    assert np.array_equal(f2, (plus - 2.0 * mid + minus) / e**2)


def test_tabulated_rejection_sampler_moments():
    probe = _tabulated_gaussian()
    rng = np.random.default_rng(RNG_SEED)
    draws = probe.sample(0.4, 20_000, rng)
    assert abs(draws.mean() - 0.4) < 0.03
    assert abs(draws.var() - 1.0) < 0.05


def test_tabulated_finite_outcome_sampler():
    probe = TabulatedProbe(
        nu_grid=(0.0, 0.5, 1.0),
        values=((0.8, 0.5, 0.2), (0.2, 0.5, 0.8)),
        outcomes=(0.0, 1.0),
    )
    rng = np.random.default_rng(RNG_SEED)
    draws = probe.sample(0.0, 20_000, rng)
    assert abs(np.mean(draws == 0.0) - 0.8) < 0.01


def _ks_pvalue(probe, nu: float, draws) -> float:
    """Asymptotic Kolmogorov-Smirnov p-value of draws against the probe's own
    law at nu: the step CDF of a finite outcome space, compared at its jumps,
    else the running trapezoid integral of the density over its outcome panels."""
    x, n = np.sort(draws), len(draws)
    if probe.outcomes is not None:
        outs = np.asarray(probe.outcomes, dtype=float)
        cdf = np.cumsum(probe.density(outs, nu))
        d = np.abs(np.searchsorted(x, outs, side="right") / n - cdf).max()
    else:
        panels = probe._xi_panels(np.array([nu]))
        xs = np.linspace(panels[0], panels[-1], 400_001)
        f = probe.density(xs, nu)
        running = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2 * np.diff(xs))])
        cdf = np.interp(x, xs, running)
        steps = np.arange(1, n + 1) / n
        d = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
    return float(kolmogorov(math.sqrt(n) * d))


# a density that varies strongly inside each xi-cell: a rejection envelope
# that does not dominate it draws from another law
_RAMP = TabulatedProbe(
    nu_grid=(0.0, 0.5, 1.0), values=((0.2,) * 3, (0.8,) * 3, (0.2,) * 3), xi_grid=(0.0, 1.0, 2.0)
)


@pytest.mark.parametrize(
    "probe, nu",
    [
        (BinaryPhase.embedded(0.0, 1.0), 0.3),
        (GaussianReadout(sigma=0.5), 0.3),
        (TabulatedProbe(
            nu_grid=(0.0, 0.5, 1.0),
            values=((0.5, 0.3, 0.1), (0.3, 0.3, 0.3), (0.2, 0.4, 0.6)),
            outcomes=(-1.0, 0.0, 2.0),
        ), 0.7),
        (_RAMP, 0.5),
        (_tabulated_gaussian(), 0.4),
    ],
    ids=["binary-phase", "gaussian", "tabulated-finite", "tabulated-ramp", "tabulated-gaussian"],
)
def test_samples_follow_the_family_law(probe, nu):
    draws = probe.sample(nu, 2_000, np.random.default_rng(RNG_SEED))
    assert _ks_pvalue(probe, nu, draws) > 0.01


def test_tabulated_finite_difference_loglik():
    probe = _tabulated_gaussian()
    l, dl, d2l = probe.log_likelihood(0.5, 1.2)
    assert np.isfinite([l, dl, d2l]).all()
    assert dl == pytest.approx(1.2 - 0.5, abs=1e-3)


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ProbeError):
        TabulatedProbe(
            nu_grid=(0.0, 0.5, 1.0),
            values=((0.5, -0.1, 0.5), (0.5, 1.1, 0.5)),
            outcomes=(0.0, 1.0),
        )
    with pytest.raises(ProbeError):
        TabulatedProbe(
            nu_grid=(0.0, 0.5, 1.0),
            values=((0.5j, 0.5, 0.5),),
            outcomes=(0.0,),
        )


# ---------------------------------------------------------------------------
# configuration

def test_probe_from_config():
    g = probe_from_config({"kind": "gaussian-readout", "sigma": 0.25})
    assert isinstance(g, GaussianReadout) and g.sigma == 0.25
    b = probe_from_config({"kind": "binary-phase", "embed": {"source": [0.0, 2.0]}})
    assert isinstance(b, BinaryPhase)
    lo, hi = b.offset, b.offset + 2.0 * b.slope
    assert 0.0 < lo < hi < np.pi
    with pytest.raises(ProbeError):
        probe_from_config({"kind": "unknown"})


def test_embedded_rejects_bad_targets():
    with pytest.raises(ProbeError):
        BinaryPhase.embedded(0.0, 1.0, target_lo=-0.1)
    with pytest.raises(ProbeError):
        BinaryPhase.embedded(1.0, 1.0)
