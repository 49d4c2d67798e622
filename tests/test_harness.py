"""Experiment orchestration: statistical tests, determinism, persistence."""

import inspect
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from qndsim import estimators, harness, probes, spectral
from qndsim.harness import (
    ConfigError,
    DEFAULT_SEED,
    ExperimentConfig,
    ValidationFailure,
    build_model,
    build_probe,
    build_state,
    estimate_ensemble,
    git_blob_sha1,
    ks_test,
    load_trajectories,
    persist_trajectories,
    prepare_run,
    run_experiment,
    simulate_ensemble,
    validate_config,
)
from qndsim.probes import validate_probe
from qndsim.trajectories import definetti_sample, sample_ensemble, trajectory_rng

SEED = 20260810


def _born_config(**overrides):
    base = {
        "kind": "born-frequency",
        "spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]]},
        "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
        "state": {"type": "diagonal", "weights": [0.3, 0.7]},
        "k_max": 60,
        "ensemble": 60,
        "seed": SEED,
        "region": [1.0],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov

def test_ks_calibration_under_the_null():
    rng = np.random.default_rng(SEED)
    rejects = 0
    pvals = []
    for _ in range(500):
        result = ks_test(rng.standard_normal(2000), ndtr)
        pvals.append(result.pvalue)
        rejects += result.pvalue < 0.01
    # about 1% of 500 draws; a 3-sigma binomial band around 5
    assert rejects <= 13
    assert 0.4 < np.mean(pvals) < 0.6


def test_ks_degenerate_sample():
    samples = np.zeros(100)
    assert ks_test(samples, ndtr).statistic >= 0.5


def test_ks_power_against_shift():
    rng = np.random.default_rng(SEED)
    result = ks_test(rng.standard_normal(2000) + 1.0, ndtr)
    assert result.pvalue < 1e-6


def test_ks_needs_fifty_samples():
    with pytest.raises(ValueError):
        ks_test(np.zeros(49), ndtr)


def test_ks_agrees_with_scipy():
    rng = np.random.default_rng(SEED)
    samples = rng.standard_normal(1500)
    ours = ks_test(samples, ndtr)
    ref = stats.kstest(samples, "norm", mode="asymp")
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.pvalue == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# determinism, persistence

_MEDIAN_VALUE = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-2, 2).map(float),  # ties
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_MEDIAN_VALUE, min_size=1, max_size=9))
def test_median_is_bitwise_numpy(values):
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 1e308, inf - inf
        ours, want = harness._median(values), np.median(values)
    assert type(ours) is float
    assert np.isnan(ours) == np.isnan(want)
    if not np.isnan(want):
        assert np.float64(ours).tobytes() == np.float64(want).tobytes()


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = _born_config()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("summary.json", "estimator_report.json", "tables/born_frequency.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_trajectory_persistence_round_trip(tmp_path):
    cfg = _born_config(ensemble=8, k_max=30)
    trajs = simulate_ensemble(cfg)
    persist_trajectories(tmp_path, trajs, cfg)
    loaded = load_trajectories(tmp_path, cfg)
    assert len(loaded) == 8 and loaded.master == trajs.master == cfg.seed
    assert loaded.checkpoints == trajs.checkpoints and loaded.k == trajs.k == 30
    for name in ("stats", "sums", "hidden"):
        assert np.array_equal(getattr(trajs, name), getattr(loaded, name))
    assert not (tmp_path / "trajectories" / "outcomes.npy").exists()


@settings(max_examples=25, deadline=None)
@given(
    probe=st.sampled_from([
        {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
        {"kind": "gaussian-readout", "sigma": 0.3},
        {"kind": "tabulated", "nu_grid": [-0.5, 0.25, 0.75, 1.5], "outcomes": [0, 1, 2],
         "values": [[0.2, 0.3, 0.5, 0.6], [0.7, 0.6, 0.1, 0.3], [0.1, 0.1, 0.4, 0.1]]},
        {"kind": "tabulated", "nu_grid": [-0.5, 0.5, 1.0, 2.0], "xi_grid": [-1, 0, 1, 2, 3],
         "values": [[0.1, 0.2, 0.2, 0.3], [0.3, 0.2, 0.2, 0.2], [0.2, 0.3, 0.2, 0.1],
                    [0.3, 0.2, 0.3, 0.2], [0.1, 0.1, 0.1, 0.2]]},
    ]),
    k_max=st.integers(1, 40),
    checkpoints=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    ensemble=st.integers(1, 5),
    hidden=st.one_of(st.none(), st.floats(0.0, 1.0)),
    sampler=st.sampled_from(["de-finetti", "sequential"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_persisted_trajectories_load_back_bitwise(
    probe, k_max, checkpoints, ensemble, hidden, sampler, seed
):
    cfg = ExperimentConfig.from_dict({
        "kind": "rate-convergence",
        "sampler": sampler,
        "spectral": {"atoms": [[1.5, 0.2]], "intervals": [[0.0, 1.0]], "nodes_per_interval": 7},
        "probe": probe,
        "state": {"type": "pure", "psi": {"name": "flat"}},
        "k_max": k_max,
        "checkpoints": sorted({c for c in checkpoints if c <= k_max} | {k_max}),
        "ensemble": ensemble,
        "seed": seed,
        "region": [[0.5, 1.0]],
    })
    model = build_model(cfg)
    state = build_state(model, cfg.state)
    trajs = sample_ensemble(
        state, build_probe(cfg, model), k_max, ensemble, seed,
        sampler=sampler, checkpoints=cfg.checkpoints, hidden_nu=hidden,
    )
    with tempfile.TemporaryDirectory() as out:
        persist_trajectories(out, trajs, cfg)
        loaded = load_trajectories(out, cfg)
    assert len(loaded) == len(trajs) and loaded.master == trajs.master == seed
    assert loaded.checkpoints == trajs.checkpoints == tuple(cfg.checkpoints)  # k_max among them
    assert loaded.k == trajs.k == k_max and loaded.stats.dtype == trajs.stats.dtype
    assert loaded.stats.shape == trajs.stats.shape == (ensemble, len(cfg.checkpoints),
                                                       trajs.stats.shape[2])
    if trajs.stats.dtype == object:  # the row prefixes themselves
        assert [s.tobytes() for s in loaded.stats.ravel()] == [
            s.tobytes() for s in trajs.stats.ravel()
        ]
    else:
        assert loaded.stats.tobytes() == trajs.stats.tobytes()
    assert loaded.sums.tobytes() == trajs.sums.tobytes()
    if sampler == "sequential":
        assert trajs.hidden is None and loaded.hidden is None
    else:
        assert loaded.hidden.tobytes() == trajs.hidden.tobytes()


def test_replay_audit_matches_bundle(tmp_path):
    cfg = _born_config(ensemble=40, persist_trajectories=True)
    bundle = run_experiment(cfg, out_dir=tmp_path)
    loaded = load_trajectories(tmp_path, cfg)
    model = build_model(cfg)
    mask = model.region_mask(cfg.region)
    hits = int(np.count_nonzero(mask[np.argmax(loaded.sums[:, -1], axis=-1)]))
    assert hits / len(loaded) == bundle.report.consistency["frequency"]


def test_missing_trajectories_raise(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trajectories(tmp_path, _born_config())


# ---------------------------------------------------------------------------
# configuration and validation

def test_config_defaults_and_checkpoints():
    cfg = _born_config()
    assert cfg.checkpoints == (10, 30, 60)
    assert cfg.tolerances["ks_alpha"] == 0.01
    assert cfg.seed == SEED
    assert ExperimentConfig.from_dict(
        {
            "kind": "born-frequency",
            "spectral": {"atoms": [[0.0, 1.0]]},
            "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
            "state": {"type": "diagonal", "weights": [1.0]},
        }
    ).seed == DEFAULT_SEED


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "nope", "spectral": {}, "probe": {}, "state": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "clt"})
    with pytest.raises(ConfigError):
        _born_config(checkpoints=[10, 500])  # beyond k_max
    with pytest.raises(ConfigError):
        _born_config(typo=1)
    with pytest.raises(ConfigError):
        _born_config(ensemble=0)
    with pytest.raises(ConfigError):
        _born_config(sampler="bogus")


def _wave(nu):
    return np.exp(0.5 * nu) * (1.0 + 0.5j * nu)


def _kernel_declaration(model):
    values = spectral.pure_state(model, _wave).values
    return {
        "type": "kernel",
        "re": values.real.tolist(),
        "im": values.imag.tolist(),
        "shape": list(values.shape),
    }


@pytest.mark.parametrize(
    "declare, oracle, atol",
    [
        (
            lambda m: {"psi": {"name": "linear", "intercept": 0.3, "slope": 2.0}},
            lambda m: spectral.pure_state(m, lambda nu: 0.3 + 2.0 * nu),
            None,
        ),
        (
            lambda m: {"type": "pure", "psi": {"name": "cosine", "amplitude": 0.25}},
            lambda m: spectral.pure_state(m, lambda nu: 1.0 + 0.25 * np.cos(np.pi * nu)),
            None,
        ),
        (
            lambda m: {"psi": {"re": np.ones(m.size).tolist(), "im": np.zeros(m.size).tolist()}},
            lambda m: build_state(m, {"type": "pure", "psi": {"name": "flat"}}),
            None,
        ),
        (_kernel_declaration, lambda m: spectral.pure_state(m, _wave), 1e-12),
    ],
    ids=["linear", "cosine", "re-im-flat", "kernel"],
)
def test_declared_states_equal_their_constructors(declare, oracle, atol):
    model = spectral.build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=40)
    state, expected = build_state(model, declare(model)), oracle(model)
    if atol is None:  # the same wave function on the grid, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(state.factor, expected.factor))
    else:  # dense values are factored afresh by eigh
        got, want = (np.exp(s.log_weights[1]) for s in (state, expected))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert spectral.validate_state(state).passed


def test_config_hash_tracks_content():
    a, b = _born_config(), _born_config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != _born_config(seed=1).config_hash()


def test_git_blob_hash_matches_git_convention():
    # `echo -n '' | git hash-object --stdin` is the well-known empty blob
    assert git_blob_sha1(b"") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"


def test_validation_failure_aborts_run():
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "born-frequency",
            "spectral": {
                "intervals": [[np.pi - 1.0, np.pi + 1.0]],
                "nodes_per_interval": 10,
            },
            "probe": {"kind": "binary-phase"},
            "state": {"type": "pure", "psi": {"name": "flat"}},
            "k_max": 10,
            "ensemble": 2,
            "region": [[np.pi - 0.5, np.pi]],
        }
    )
    with pytest.raises(ValidationFailure, match="identifiability"):
        run_experiment(cfg)


def test_validate_config_returns_both_reports():
    probe_report, state_report = validate_config(_born_config())
    assert probe_report.passed
    assert state_report.passed


def test_assumption_validation_experiment(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "assumption-validation",
            "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 30},
            "probe": {"kind": "gaussian-readout", "sigma": 1.0},
            "state": {"type": "pure", "psi": {"name": "flat"}},
            "k_max": 5,
            "ensemble": 1,
            "seed": SEED,
        }
    )
    bundle = run_experiment(cfg, out_dir=tmp_path)
    assert bundle.passed
    names = {r.name for r in bundle.results}
    assert "assumption-normalization" in names
    assert "state-validity" in names
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config_hash"] == cfg.config_hash()


# ---------------------------------------------------------------------------
# states stay factored

_INTERVAL = {"intervals": [[0.0, 1.0]], "nodes_per_interval": 40}
_SMALL_RUNS = {
    "born-frequency": {
        "kind": "born-frequency",
        "spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]]},
        "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
        "k_max": 30,
        "checkpoints": [10, 30],
        "ensemble": 20,
        "seed": SEED,
        "region": [1.0],
    },
    "rate-convergence": {
        "kind": "rate-convergence",
        "spectral": _INTERVAL,
        "probe": {"kind": "gaussian-readout", "sigma": 1.0},
        "k_max": 300,
        "checkpoints": [10, 100, 300],
        "ensemble": 5,
        "seed": SEED,
        "hidden_nu": 0.2,
        "region": [[0.6, 1.0]],
    },
    "clt": {
        "kind": "clt",
        "spectral": _INTERVAL,
        "probe": {"kind": "gaussian-readout", "sigma": 0.05},
        "k_max": 10,
        "checkpoints": [10],
        "ensemble": 80,
        "seed": SEED,
    },
    "kernel-convergence": {
        "kind": "kernel-convergence",
        "spectral": _INTERVAL,
        "probe": {"kind": "gaussian-readout", "sigma": 1.0},
        "k_max": 1000,
        "checkpoints": [100, 1000],
        "ensemble": 3,
        "seed": SEED,
        "hidden_nu": 0.5,
        "window": {"nodes": 51},
    },
    "assumption-validation": {
        "kind": "assumption-validation",
        "spectral": _INTERVAL,
        "probe": {"kind": "gaussian-readout", "sigma": 1.0},
        "k_max": 10,
        "ensemble": 1,
        "seed": SEED,
    },
}


@pytest.mark.parametrize("state_type", ["pure", "diagonal"])
@pytest.mark.parametrize("kind", sorted(_SMALL_RUNS))
def test_runs_never_expand_a_state_to_dense_values(kind, state_type, monkeypatch):
    def refuse(psi, d):
        raise AssertionError("dense kernel expanded from a factor")

    monkeypatch.setattr(spectral, "_expand_factor", refuse)
    tree = {**_SMALL_RUNS[kind]}
    size = spectral.model_from_dict(tree["spectral"]).size
    tree["state"] = (
        {"type": "pure", "psi": {"name": "exp", "rate": 0.5}}
        if state_type == "pure"
        else {"type": "diagonal", "weights": np.linspace(1.0, 2.0, size).tolist()}
    )
    bundle = run_experiment(ExperimentConfig.from_dict(tree))
    assert bundle.results


@pytest.mark.parametrize("kind", sorted(_SMALL_RUNS))
def test_estimate_searches_every_row_once(kind, monkeypatch):
    """Every kind reads one estimate table of all trajectories; its first 100
    rows, the estimator paths, have the bits of a table of those rows alone."""
    calls = []

    def mle_table(ensemble, *args):
        calls.append((ensemble, args, table(ensemble, *args)))
        return calls[-1][-1]

    table = estimators.mle_table
    monkeypatch.setattr(estimators, "mle_table", mle_table)
    tree = {**_SMALL_RUNS[kind], "state": {"type": "pure"}, "ensemble": 101}
    run_experiment(ExperimentConfig.from_dict(tree))
    [(ensemble, args, got)] = calls
    assert len(ensemble) == 101
    assert got[:100].tobytes() == table(ensemble[:100], *args).tobytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# tracemalloc peak budgets of each stage, in bytes.  Simulate and estimate keep the
# validator's former peak on both configs (6.06 MB, the same 400-node Gaussian grid),
# from when every stage was bounded by it.  The validator holds no (rule x grid)
# table since it sums identifiability and dominance a row block at a time: its
# budget is its peak there, 2,762,776 bytes, plus 5 %.  A fixed budget keeps each
# bound from moving with another stage's peak.  The kernel estimate holds a few
# window-stack tables at a time: its budget is its peak, 2,174,720 bytes, plus half
# of one (60 windows x 201 nodes) complex table, 96,480 bytes, so one more such
# table held at the peak fails it (the peak moves by about 200 bytes run to run).
STAGE_BUDGETS = {
    name: {"validate": 2_900_000, "simulate": 6_057_840, "estimate": 6_057_840}
    for name in ("rate_convergence", "kernel_convergence")
}
STAGE_BUDGETS["kernel_convergence"]["estimate"] = 2_271_200


@pytest.mark.parametrize("name", sorted(STAGE_BUDGETS))
def test_simulate_and_estimate_stay_below_the_validator_peak(name):
    """The probe validator, the ensemble arrays and every blocked temporary of
    simulation and estimation stay within their fixed budgets, the validator's
    peak when they were fixed (the estimate counts the live trajectories it reads)."""
    config = ExperimentConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    model, state, probe = prepare_run(config)
    peaks = {}

    def traced(stage, fn):
        tracemalloc.reset_peak()
        out = fn()
        peaks[stage] = tracemalloc.get_traced_memory()[1]
        return out

    tracemalloc.start()
    try:
        traced("validate", lambda: validate_probe(probe, model))
        trajectories = traced("simulate", lambda: simulate_ensemble(config))
        traced("estimate", lambda: estimate_ensemble(config, trajectories, ""))
    finally:
        tracemalloc.stop()
    over = {k: v / 1e6 for k, v in peaks.items() if v > STAGE_BUDGETS[name][k]}
    assert not over, f"stages over budget (MB): {over}"


def test_a_clt_binary_ensemble_holds_no_outcome_block():
    """The sampler draws a block of rows at a time and keeps their statistics:
    its tracemalloc peak stays below the ensemble's own arrays plus half a
    byte an outcome, which any (E x k) block, even of one byte a cell, exceeds
    (the float64 one is 160 MB here)."""
    config = ExperimentConfig.from_dict(json.loads((CONFIGS / "clt_binary.json").read_text()))
    tracemalloc.start()
    try:
        ensemble = simulate_ensemble(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outcomes = config.ensemble * config.k_max
    held = ensemble.sums.nbytes + ensemble.stats.nbytes + ensemble.hidden.nbytes
    assert ensemble.stats.shape == (config.ensemble, 1, 2) and outcomes == 2 * 10**7
    assert peak < held + outcomes // 2 < outcomes, (peak, held)


def test_the_window_default_is_the_estimators_own():
    """One stated default: the config's window is the estimators' keyword
    defaults, with the values (and types) every config hash was taken with."""
    assert harness.DEFAULT_WINDOW == {"sigmas": 8.0, "nodes": 201, "min_sigmas": 2.0}
    assert [type(v) for v in harness.DEFAULT_WINDOW.values()] == [float, int, float]
    for fn in (estimators.kernel_distances, estimators.rescaled_posterior_kernel):
        params = inspect.signature(fn).parameters
        defaults = [params[n].default for n in ("window_sigmas", "window_nodes", "min_sigmas")]
        assert defaults == list(harness.DEFAULT_WINDOW.values()), fn.__name__


def _block_generators(config, ensemble) -> int:
    """Traced bytes of the generators of one of the sampler's row blocks:
    ``BLOCK_CELLS // max(k, S x N)`` rows (tracemalloc must be tracing)."""
    width = max(config.k_max, ensemble.stats.shape[-1] * ensemble.sums.shape[-1])
    rows = range(config.ensemble)[probes._blocks(config.ensemble, width)[0]]
    before = tracemalloc.get_traced_memory()[0]
    rngs = [trajectory_rng(config.seed, i) for i in rows]
    size = tracemalloc.get_traced_memory()[0] - before
    del rngs
    return size


def test_a_clt_gaussian_block_is_sized_by_its_widest_table():
    """The sampler's row blocks hold at most BLOCK_CELLS cells of the widest
    table they make, here the (rows x N) node sums (S x N = 800 cells a row
    against k = 10), not the (rows x k) outcomes alone.  Beyond the ensemble's
    own arrays, the per-block statistic pieces and one block's generators, a
    block holds its outcomes and the Gaussian statistic's two temporaries (three
    tables of at most BLOCK_CELLS float64 cells); the node sums, taken after
    the statistic, hold at most three of BLOCK_CELLS / S.  Four tables bound
    both; an (E x N) sum table of one 2,000-row block is 3.2 MB on its own."""
    config = ExperimentConfig.from_dict(json.loads((CONFIGS / "clt_gaussian.json").read_text()))
    prepare_run(config)  # the cached model, state and probe are not the sampler's
    tracemalloc.start()
    try:
        ensemble = simulate_ensemble(config)
        _, peak = tracemalloc.get_traced_memory()
        generators = _block_generators(config, ensemble)
    finally:
        tracemalloc.stop()
    assert (config.k_max, config.ensemble, ensemble.sums.shape[-1]) == (10, 2000, 200)
    held = ensemble.sums.nbytes + 2 * ensemble.stats.nbytes + ensemble.hidden.nbytes
    tables = 4 * probes.BLOCK_CELLS * 8
    assert peak <= held + generators + tables, (peak, held, generators)


def test_a_born_frequency_run_holds_one_block_of_generators():
    """Each row's generator is made as its row is drawn, so the sampler never
    holds the generators of all rows (about 0.9 kB each under tracemalloc,
    9 MB for born_frequency's 10^4 rows).  Its peak stays below the ensemble's
    own arrays, the per-block statistic pieces, one block's generators and two
    tables of BLOCK_CELLS float64 cells: the (rows x k) outcome block and, at
    most as large, the temporaries of a pass that counts it."""
    config = ExperimentConfig.from_dict(json.loads((CONFIGS / "born_frequency.json").read_text()))
    prepare_run(config)
    tracemalloc.start()
    try:
        ensemble = simulate_ensemble(config)
        _, peak = tracemalloc.get_traced_memory()
        generators = _block_generators(config, ensemble)
    finally:
        tracemalloc.stop()
    held = ensemble.sums.nbytes + 2 * ensemble.stats.nbytes + ensemble.hidden.nbytes
    tables = 2 * probes.BLOCK_CELLS * 8
    assert peak <= held + generators + tables, (peak, held, generators)
    assert (config.k_max, config.ensemble, ensemble.sums.shape[1:]) == (200, 10**4, (4, 2))


def test_coldrun_reports_the_stages_of_one_cold_run():
    tool = CONFIGS.parent / "tools" / "coldrun.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "kernel_convergence"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert report.pop("config") == "kernel_convergence"
    assert list(report) == ["setup", "validate", "simulate", "estimate", "write", "run"]
    for stage in report.values():
        assert list(stage) == ["minflt", "maxrss_mb", "vmrss_mb", "user_ms", "sys_ms", "wall_ms"]
        assert all(value >= 0 for value in stage.values())
        assert stage["maxrss_mb"] > 0 and stage["vmrss_mb"] > 0
    # the high-water mark after each stage, in the order they ran, never falls
    peaks = [stage["maxrss_mb"] for stage in report.values()]
    assert peaks == sorted(peaks)
    report.pop("setup")  # before the run: the run builds its own model, state and probe
    run = report.pop("run")
    for key in ("minflt", "wall_ms"):  # the stages nest inside the run
        assert sum(stage[key] for stage in report.values()) <= run[key]
    unknown = subprocess.run([sys.executable, str(tool), "no_such_config"], capture_output=True)
    assert unknown.returncode == 2
