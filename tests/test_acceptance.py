"""Acceptance gate: quantitative criteria at full scale, one test each.

Every test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts its stated tolerance and runtime budget.  The heavy
statistical criteria run the shipped configuration files under
``configs/`` so the suite certifies exactly what the command line would
verify.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import qndsim as q
from qndsim.trajectories import exact_tuple_distribution

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEED = 20260810


def _load(name: str) -> q.ExperimentConfig:
    return q.ExperimentConfig.from_dict(
        json.loads((CONFIG_DIR / name).read_text())
    )


def _line(num: int, name: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.1f}s)")


def test_criterion_1_born_rule_purification():
    start = time.perf_counter()
    bundle = q.run_experiment(_load("born_frequency.json"))
    elapsed = time.perf_counter() - start
    freq = bundle.report.consistency["frequency"]
    band = 3.0 * np.sqrt(0.3 * 0.7 / 10_000)
    ok = abs(freq - 0.7) <= band and bundle.passed
    _line(1, "Born-rule purification", ok, f"|{freq:.4f} - 0.7| <= {band:.4f}", elapsed)
    assert abs(freq - 0.7) <= band
    assert bundle.passed
    assert elapsed < 60.0


def test_criterion_2_large_deviation_rate():
    start = time.perf_counter()
    bundle = q.run_experiment(_load("rate_convergence.json"))
    elapsed = time.perf_counter() - start

    # independent oracle: Kullback-Leibler divergence of unit-variance
    # Gaussians at distance 0.4, by adaptive quadrature
    def integrand(x):
        f = np.exp(-0.5 * (x - 0.2) ** 2) / np.sqrt(2 * np.pi)
        g = np.exp(-0.5 * (x - 0.6) ** 2) / np.sqrt(2 * np.pi)
        return f * (np.log(f) - np.log(g))

    oracle, _ = integrate.quad(integrand, -12.0, 12.0)
    assert oracle == pytest.approx(0.08, abs=1e-12)

    rows = bundle.tables["rate_trace"][1]
    median_final = rows[-1][1]
    rel = abs(median_final / oracle - 1.0)
    ok = rel <= 0.10 and bundle.passed
    _line(2, "large-deviation rate", ok, f"median {median_final:.4f} vs {oracle:.4f}, rel {rel:.3f}", elapsed)
    assert rel <= 0.10
    assert bundle.passed
    assert elapsed < 120.0


def test_criterion_3_central_limit_theorem():
    start = time.perf_counter()
    gauss = q.run_experiment(_load("clt_gaussian.json"))
    binary = q.run_experiment(_load("clt_binary.json"))
    elapsed = time.perf_counter() - start

    p_gauss = next(r for r in gauss.results if r.name == "clt-ks").statistic
    p_binary = next(r for r in binary.results if r.name == "clt-ks").statistic

    # the gaussian family is exact at every k: residuals equal the
    # standardized sample mean whenever the estimate is unclamped
    cfg = _load("clt_gaussian.json")
    model = q.build_model(cfg)
    state = q.build_state(model, cfg.state)
    probe = q.build_probe(cfg, model)
    trajs = q.simulate_ensemble(cfg)
    estimates = q.mle_table(trajs, [cfg.k_max], model, probe)[:, 0]
    samples = q.clt_samples(trajs, cfg.k_max, model, probe, estimates=estimates)
    sigma = 0.05
    margin = 5.0 * sigma / np.sqrt(cfg.k_max)
    analytic = np.sort(
        [
            np.sqrt(cfg.k_max) * (outcomes.mean() - nu) / sigma
            for outcomes, nu in zip(trajs.outcomes, trajs.hidden)
            if margin < nu < 1.0 - margin
        ]
    )
    exact = np.max(np.abs(np.sort(samples.residuals) - analytic))

    ok = p_gauss >= 0.01 and p_binary >= 0.01 and exact < 1e-3
    _line(3, "central limit theorem", ok,
          f"KS p gaussian {p_gauss:.3f}, binary {p_binary:.3f}, exactness {exact:.1e}",
          elapsed)
    assert gauss.passed and binary.passed
    assert p_gauss >= 0.01 and p_binary >= 0.01
    assert exact < 1e-3
    assert elapsed < 300.0


def test_criterion_4_fisher_identity():
    start = time.perf_counter()
    gauss_model = q.build_spectral_model(
        intervals=[(0.0, 1.0)], nodes_per_interval=100
    )
    binary_model = q.build_spectral_model(
        intervals=[(0.5, 2.5)], nodes_per_interval=100
    )
    worst_identity = 0.0
    worst_value = 0.0
    for probe, model, target in (
        (q.GaussianReadout(sigma=1.0), gauss_model, 1.0),
        (q.GaussianReadout(sigma=0.5), gauss_model, 4.0),
        (q.BinaryPhase(), binary_model, 1.0),
    ):
        fisher = probe.fisher(model.nodes)
        mean_d2 = probe.mean_d2_loglik(model.nodes)
        worst_identity = max(worst_identity, float(np.max(np.abs(mean_d2 + fisher))))
        worst_value = max(worst_value, float(np.max(np.abs(fisher - target))))

    # adaptive-quadrature oracle for the continuous family, spot nodes
    sigma = 0.5
    for nu in (0.11, 0.52, 0.93):
        oracle, _ = integrate.quad(
            lambda x: ((x - nu) / sigma**2) ** 2
            * np.exp(-0.5 * ((x - nu) / sigma) ** 2)
            / (np.sqrt(2 * np.pi) * sigma),
            nu - 10 * sigma,
            nu + 10 * sigma,
        )
        value = q.GaussianReadout(sigma=sigma).fisher(np.asarray([nu]))[0]
        worst_value = max(worst_value, abs(value - oracle))

    elapsed = time.perf_counter() - start
    ok = worst_identity < 1e-6 and worst_value < 1e-6
    _line(4, "Fisher identity", ok,
          f"identity defect {worst_identity:.1e}, value defect {worst_value:.1e}",
          elapsed)
    assert worst_identity < 1e-6
    assert worst_value < 1e-6


def test_criterion_5_gaussian_kernel_convergence():
    start = time.perf_counter()
    bundle = q.run_experiment(_load("kernel_convergence.json"))
    elapsed = time.perf_counter() - start

    laplace = next(r for r in bundle.results if r.name == "laplace-ratio")
    assert laplace.passed, "Laplace-integral gate failed; kernel claim not tested"

    rows = bundle.tables["kernel_distance"][1]
    distances = [row[1] for row in rows]
    decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    ok = decreasing and distances[-1] < 0.1 and abs(laplace.statistic) <= 0.05
    _line(5, "Gaussian kernel convergence", ok,
          "distances " + " > ".join(f"{d:.4f}" for d in distances)
          + f", laplace defect {laplace.statistic:.1e}", elapsed)
    assert decreasing
    assert distances[-1] < 0.1
    assert bundle.passed
    assert elapsed < 300.0


def test_criterion_6_sampler_equivalence():
    start = time.perf_counter()
    model = q.build_spectral_model(atoms=[(0.0, 0.5), (1.0, 0.5)])
    probe = q.BinaryPhase.embedded(0.0, 1.0)
    state = q.diagonal_state(model, np.array([0.5, 0.5]))

    mixture = exact_tuple_distribution(state, probe, 3, "de-finetti")
    chain = exact_tuple_distribution(state, probe, 3, "sequential")
    keys = sorted(mixture)
    gap = max(abs(mixture[key] - chain[key]) for key in keys)

    trajs = q.sample_ensemble(state, probe, 3, 100_000, SEED, sampler="sequential")
    counts = {}
    for row in trajs.outcomes:
        key = tuple(row.tolist())
        counts[key] = counts.get(key, 0) + 1
    observed = np.array([counts.get(key, 0) for key in keys], dtype=float)
    probs = np.array([mixture[key] for key in keys])
    pvalue = stats.chisquare(observed, observed.sum() * probs / probs.sum()).pvalue
    elapsed = time.perf_counter() - start
    ok = gap < 1e-10 and pvalue > 0.01
    _line(6, "sampler equivalence", ok,
          f"law gap {gap:.1e}, chi2 p {pvalue:.3f} over 8 cells", elapsed)
    assert gap < 1e-10
    assert pvalue > 0.01


def test_criterion_7_invariant_suites(tmp_path):
    start = time.perf_counter()
    model = q.build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=60)
    probe = q.GaussianReadout(sigma=1.0)
    state = q.pure_state(model, lambda nu: np.ones_like(nu))
    rng = np.random.default_rng(SEED)

    # normalization and score on the whole grid
    assert np.max(np.abs(probe.normalization(model.nodes) - 1.0)) < 1e-8
    assert np.max(np.abs(probe.score_mean(model.nodes))) < 1e-6

    # relative-entropy nonnegativity on sampled pairs
    for _ in range(10):
        nu = float(rng.uniform(0, 1))
        region = rng.uniform(0, 1, size=3)
        assert q.relative_entropy(probe, nu, region) >= -1e-10

    # batch posterior equals iterated one-step updates
    traj = q.definetti_sample(state, probe, 50, q.trajectory_rng(SEED, 0))
    w = np.exp(q.log_prior_weights(state))
    for xi in traj.outcomes[0]:
        f = probe.density(np.asarray([xi])[:, None], model.nodes[None, :])[0]
        w = w * f
        w /= w.sum()
    batch = q.posterior_weights(state, traj, 50).values
    assert np.max(np.abs(w - batch)) < 1e-10

    # trace-norm axioms on random kernels
    def random_kernel():
        a = rng.standard_normal((model.size, model.size)) + 1j * rng.standard_normal(
            (model.size, model.size)
        )
        kern = q.StateKernel(a @ a.conj().T, model)
        return q.StateKernel(kern.values[:, :, 0, 0] / kern.trace(), model)

    a, b, c = random_kernel(), random_kernel(), random_kernel()
    assert q.trace_norm_distance(a, a) == 0.0
    assert q.trace_norm_distance(a, b) == pytest.approx(
        q.trace_norm_distance(b, a), abs=1e-12
    )
    assert q.trace_norm_distance(a, b) <= (
        q.trace_norm_distance(a, c) + q.trace_norm_distance(c, b) + 1e-12
    )

    # estimator invariance under log-likelihood shifts
    base = q.mle(traj, 50, model, probe)
    shifted = q.Ensemble(traj.outcomes, traj.sums + 1e7, traj.checkpoints, None)
    assert q.mle(shifted, 50, model, probe) == base

    # determinism and replay audit
    cfg = q.ExperimentConfig.from_dict(
        {
            "kind": "born-frequency",
            "spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]]},
            "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
            "state": {"type": "diagonal", "weights": [0.3, 0.7]},
            "k_max": 50,
            "ensemble": 50,
            "seed": SEED,
            "region": [1.0],
            "persist_trajectories": True,
        }
    )
    q.run_experiment(cfg, out_dir=tmp_path / "a")
    bundle = q.run_experiment(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    reloaded = q.load_trajectories(tmp_path / "a", cfg)
    mask = q.build_model(cfg).region_mask(cfg.region)
    hits = int(np.count_nonzero(mask[np.argmax(reloaded.sums[:, -1], axis=-1)]))
    assert hits / len(reloaded) == bundle.report.consistency["frequency"]

    elapsed = time.perf_counter() - start
    _line(7, "invariant suites", True, "all invariants green", elapsed)
    assert elapsed < 180.0
