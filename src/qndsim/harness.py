"""Experiment harness: declarative configs, statistical tests, report bundles.

An experiment is a JSON-compatible configuration naming a spectral model,
an initial state, a probe family, a sampler, an ensemble size, a master
seed, and the kind of statistical question being asked:

* ``born-frequency``: frequency of the limiting estimate in a region
  against the exact spectral probability,
* ``rate-convergence``: decay rate of posterior mass on an excluded region
  against the relative-entropy target,
* ``clt``: normality of standardized estimator residuals,
* ``kernel-convergence``: trace-norm approach of the rescaled posterior
  kernel to its Gaussian limit, gated by the Laplace ratios of its k_max windows,
* ``assumption-validation``: the probe and state validator suites.

``KINDS`` maps each kind to its estimator.  Every command builds a config's
model, state and probe through one cached function, which refuses what a run
cannot use.  Runs are deterministic given the master seed: per-trajectory
streams come from the documented splitting rule, results keep ensemble
order, and reports carry no timestamps, so identical configs produce
byte-identical bundles.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimators as est
from .probes import ProbeModel, probe_from_config, validate_probe
from .spectral import (
    SpectralModel,
    StateKernel,
    diagonal_state,
    model_from_dict,
    pure_state,
    state_from_dict,
    validate_state,
)
from .trajectories import Ensemble, _held_prefixes, posterior_means, sample_ensemble

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CHECKPOINTS",
    "ExperimentConfig",
    "ConfigError",
    "ValidationFailure",
    "TestResult",
    "KsResult",
    "ReportBundle",
    "ks_test",
    "build_model",
    "build_state",
    "build_probe",
    "validate_config",
    "simulate_ensemble",
    "estimate_ensemble",
    "run_experiment",
    "prepare_run",
    "persist_trajectories",
    "load_trajectories",
    "git_blob_sha1",
    "canonical_json",
]

DEFAULT_SEED = 1729  # documented constant; never derived from the clock
DEFAULT_CHECKPOINTS = (10, 30, 100, 300, 1000, 3000, 10000)

DEFAULT_TOLERANCES = {
    "born_ci_sigmas": 3.0,
    "rate_rel_tol": 0.10,
    "ks_alpha": 0.01,
    "clt_mean_sigmas": 3.0,
    "clt_var_tol": 0.1,
    "boundary_margin_stds": 5.0,
    "kernel_distance_final": 0.1,
    "laplace_rel_tol": 0.05,
}

DEFAULT_WINDOW = {"sigmas": est.DEFAULT_WINDOW_SIGMAS, "nodes": est.DEFAULT_WINDOW_NODES,
                  "min_sigmas": est.MIN_WINDOW_SIGMAS}
KS_MIN_SAMPLES = 50  # below this the asymptotic Kolmogorov p-value is not used
# declared sizes that reach an allocation, refused before anything is built
MAX_OUTCOMES = 10**8  # ensemble x k_max draws, 5x clt_binary's: a continuous table keeps 800 MB
MAX_SUM_CELLS = 10**8  # ensemble x held prefix lengths x nodes: 800 MB of float64, as MAX_OUTCOMES
MAX_WINDOW_NODES = 10_000  # a window factor, nodes x columns: 64 MB for a 400-node diagonal state


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


class ValidationFailure(RuntimeError):
    """Raised when a run aborts because the probe fails its validators."""

    def __init__(self, report):
        super().__init__("probe failed assumption validation:\n" + report.summary())
        self.report = report


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    kind: str
    spectral: dict
    probe: dict
    state: dict
    sampler: str = "de-finetti"
    k_max: int = 1000
    checkpoints: tuple[int, ...] = ()
    ensemble: int = 1
    seed: int = DEFAULT_SEED
    region: tuple = ()
    hidden_nu: float | None = None
    tolerances: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    persist_trajectories: bool = False

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:  # [] is unhashable
            raise ConfigError(f"unknown experiment kind: {self.kind!r}")
        if self.sampler not in ("de-finetti", "sequential"):
            raise ConfigError(f"unknown sampler: {self.sampler!r}")
        if self.sampler == "sequential" and (self.kind == "clt" or self.hidden_nu is not None):
            what = "kind clt" if self.kind == "clt" else "hidden_nu"
            raise ConfigError(f"{what} needs sampler de-finetti: sequential draws no hidden value")
        if not isinstance(self.persist_trajectories, bool):  # "false" would be truthy
            raise ConfigError("persist_trajectories must be true or false")
        for name in ("spectral", "probe", "state", "tolerances", "window"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")
        for name, least in (("k_max", 1), ("ensemble", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), least)
        if self.ensemble * self.k_max > MAX_OUTCOMES:
            raise ConfigError(
                f"ensemble x k_max must be at most {MAX_OUTCOMES:.0e}, "
                f"got {self.ensemble} x {self.k_max}"
            )
        # both limit laws live on the absolutely continuous part of the spectrum
        if self.kind in ("clt", "kernel-convergence") and not self.spectral.get("intervals"):
            raise ConfigError(f"a {self.kind} experiment needs a spectral interval")
        if self.kind == "clt" and self.ensemble < KS_MIN_SAMPLES:
            raise ConfigError(
                f"a clt experiment needs an ensemble of at least {KS_MIN_SAMPLES}"
            )
        if not self.checkpoints:
            self.checkpoints = _held_prefixes(DEFAULT_CHECKPOINTS, self.k_max)
        raw_checkpoints, self.checkpoints = self.checkpoints, _coerced(
            "checkpoints", self.checkpoints, lambda v: tuple(sorted({int(c) for c in v}))
        )
        if self.checkpoints[-1] > self.k_max:
            raise ConfigError("checkpoints must not exceed k_max")
        if self.checkpoints[0] < 1:
            raise ConfigError(f"checkpoints must be positive, got {list(self.checkpoints)}")
        for c in raw_checkpoints:  # int() above truncates 10.7, True and "10"
            _require_count("checkpoints", c, 1)
        self.region = _coerced("region", self.region, lambda v: tuple(
            tuple(map(float, c)) if isinstance(c, (list, tuple)) else float(c) for c in v
        ))
        if self.hidden_nu is not None:
            self.hidden_nu = _coerced("hidden_nu", self.hidden_nu, float)
            if not math.isfinite(self.hidden_nu):
                raise ConfigError(f"hidden_nu must be finite, got {self.hidden_nu!r}")
        _require_known("tolerance", self.tolerances, DEFAULT_TOLERANCES)
        _require_known("window", self.window, DEFAULT_WINDOW)
        tol = {**DEFAULT_TOLERANCES, **self.tolerances}
        self.tolerances = {k: _coerced(f"tolerance {k}", v, float) for k, v in tol.items()}
        for k, v in self.tolerances.items():  # nan fails every comparison
            if not 0.0 <= v < math.inf or (k == "ks_alpha" and v > 1.0):
                bound = "in [0, 1]" if k == "ks_alpha" else "finite and at least 0"
                raise ConfigError(f"tolerance {k} must be {bound}, got {v!r}")
        self.window = {**DEFAULT_WINDOW, **self.window}
        _require_count("window nodes", self.window["nodes"], 1)
        if self.window["nodes"] > MAX_WINDOW_NODES:
            raise ConfigError(
                f"window nodes must be at most {MAX_WINDOW_NODES}, got {self.window['nodes']}"
            )
        for k in ("sigmas", "min_sigmas"):
            self.window[k] = v = _coerced(f"window {k}", self.window[k], float)
            if not 0.0 < v < math.inf:
                raise ConfigError(f"window {k} must be finite and positive, got {v!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require_known("config", d, cls.__dataclass_fields__)
        missing = {"kind", "spectral", "probe", "state"} - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["checkpoints"] = list(self.checkpoints)
        d["region"] = [list(c) if isinstance(c, tuple) else c for c in self.region]
        return d

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _coerced(name: str, value, convert):
    """convert(value), with a ConfigError naming the field if it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric, got {value!r}") from exc
    except OverflowError as exc:  # int(inf)
        raise ConfigError(f"{name} must be finite, got {value!r}") from exc


def _require_known(name: str, given, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


def _median(values) -> float:
    """``np.median`` of the values, bit for bit, without the ``numpy.ma`` import
    it makes on its first call: the mean of the middle one or two, or nan."""
    a = np.asarray(values, dtype=float).ravel()
    lo, hi = (a.size - 1) // 2, a.size // 2  # the middle value, or the middle two
    part = np.partition(a, [lo, hi])
    return math.nan if np.isnan(a).any() else float(np.mean(part[lo : hi + 1]))


def canonical_json(tree) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def git_blob_sha1(data: bytes) -> str:
    """Content hash the way git hashes a blob."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# builders

def build_model(config: ExperimentConfig) -> SpectralModel:
    try:
        return model_from_dict(config.spectral)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad spectral declaration: {exc}") from exc


def _psi_from_spec(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    name = spec.get("name", "flat")
    if name == "flat":
        return lambda nu: np.ones_like(nu)
    if name == "exp":
        rate = float(spec.get("rate", 0.5))
        return lambda nu: np.exp(rate * nu)
    if name == "linear":
        a = float(spec.get("intercept", 1.0))
        b = float(spec.get("slope", 0.5))
        return lambda nu: a + b * nu
    if name == "cosine":
        amp = float(spec.get("amplitude", 0.5))
        freq = float(spec.get("frequency", np.pi))
        return lambda nu: 1.0 + amp * np.cos(freq * nu)
    raise ConfigError(f"unknown wave-function name: {name!r}")


def build_state(model: SpectralModel, spec: dict) -> StateKernel:
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises
            return _state_from_spec(model, spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state declaration: {exc}") from exc


def _state_from_spec(model: SpectralModel, spec: dict) -> StateKernel:
    kind = spec.get("type", "pure")
    if kind == "pure":
        psi_spec = spec.get("psi", {"name": "flat"})
        if not isinstance(psi_spec, dict):
            raise ConfigError(f"psi must be a JSON object, got {psi_spec!r}")
        if "re" in psi_spec:
            psi = np.asarray(psi_spec["re"], dtype=float) + 1j * np.asarray(
                psi_spec.get("im", np.zeros_like(psi_spec["re"])), dtype=float
            )
            return pure_state(model, psi)
        return pure_state(model, _psi_from_spec(psi_spec))
    if kind == "diagonal":
        return diagonal_state(model, np.asarray(spec["weights"], dtype=float))
    if kind == "kernel":
        return state_from_dict(model, spec)
    raise ConfigError(f"unknown state type: {kind!r}")


def build_probe(config: ExperimentConfig, model: SpectralModel) -> ProbeModel:
    try:
        probe = probe_from_config(config.probe)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad probe declaration: {exc}") from exc
    probe._quadrature(np.array(model.hull))  # the outcome rule of the laws on the hull must fit
    return probe


@functools.lru_cache(maxsize=8)
def _build_cached(config_json: str) -> tuple[SpectralModel, StateKernel, ProbeModel]:
    """Model, state and probe of a config; the only place they are built."""
    config = ExperimentConfig.from_dict(json.loads(config_json))
    model = build_model(config)
    cells = config.ensemble * len(_held_prefixes(config.checkpoints, config.k_max)) * model.size
    if cells > MAX_SUM_CELLS:
        raise ConfigError(f"ensemble x held prefix lengths x grid nodes must be at most "
                          f"{MAX_SUM_CELLS:.0e}, got {cells:.3g}")
    state = build_state(model, config.state)
    probe = build_probe(config, model)
    # a hidden value or region the run cannot use fails here, before validation and sampling
    if config.hidden_nu is not None:
        model.region_mask([config.hidden_nu])
    if config.kind == "born-frequency":
        model.region_mask(config.region)
    elif config.kind == "rate-convergence":
        est.rate_region(model, state, config.region)
    return model, state, probe


def prepare_run(config: ExperimentConfig):
    """Model, state and probe of a config that may be simulated.

    The probe must pass its validators before any simulation unless the
    experiment itself is the validation run; failures raise
    ``ValidationFailure`` with the validator report attached.
    """
    model, state, probe = _build_cached(config.canonical_json())
    if config.kind != "assumption-validation":
        probe_report = validate_probe(probe, model)
        if not probe_report.passed:
            raise ValidationFailure(probe_report)
    return model, state, probe


# ---------------------------------------------------------------------------
# statistical tests

@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    n: int


def ks_test(samples, reference_cdf) -> KsResult:
    """One-sample Kolmogorov-Smirnov statistic with its asymptotic p-value."""
    from scipy.special import kolmogorov  # imported here: no other run loads scipy
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(
            f"Kolmogorov-Smirnov test needs at least {KS_MIN_SAMPLES} samples, got {n}"
        )
    cdf = np.asarray(reference_cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    d = float(np.max(np.maximum(steps - cdf, cdf - (steps - 1.0 / n))))
    return KsResult(statistic=d, pvalue=float(kolmogorov(math.sqrt(n) * d)), n=n)


@dataclass(frozen=True)
class TestResult:
    """One quantitative check: pass iff the statistic meets its threshold."""

    name: str
    description: str
    statistic: float
    threshold: float
    comparison: str  # "<=" or ">="
    sample_size: int
    config_hash: str
    content_hash: str

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.statistic <= self.threshold
        if self.comparison == ">=":
            return self.statistic >= self.threshold
        raise ValueError(f"unknown comparison {self.comparison!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} ({self.statistic:.6g} {self.comparison} "
            f"{self.threshold:.6g}, n={self.sample_size})"
        )


# ---------------------------------------------------------------------------
# simulation

def simulate_ensemble(config: ExperimentConfig) -> Ensemble:
    """All ensemble trajectories, in ensemble order."""
    _, state, probe = _build_cached(config.canonical_json())
    return sample_ensemble(
        state, probe, config.k_max, config.ensemble, config.seed,
        sampler=config.sampler, checkpoints=config.checkpoints, hidden_nu=config.hidden_nu,
    )


# ---------------------------------------------------------------------------
# estimation per experiment kind: each fills its fields of the report and
# returns its test results, as (name, description, statistic, threshold,
# comparison, sample size) rows, and its tables

class _Run(NamedTuple):
    config: ExperimentConfig
    ensemble: Ensemble
    model: SpectralModel
    state: StateKernel
    probe: ProbeModel


def _estimate_born(run: _Run, table, col, report):
    config = run.config
    stat = est.mle_consistency_stat(
        run.ensemble, config.k_max, run.model, config.region, run.state,
        ci_sigmas=config.tolerances["born_ci_sigmas"],
    )
    report.consistency = vars(stat)
    results = [(
        "born-frequency",
        "frequency of the limiting estimate in the region equals the "
        "spectral probability of the region",
        abs(stat.frequency - stat.exact_probability),
        stat.ci_halfwidth,
        "<=",
        stat.count,
    )]
    return results, {"born_frequency": (
        ["frequency", "exact_probability", "ci_halfwidth", "count"],
        [[stat.frequency, stat.exact_probability, stat.ci_halfwidth, stat.count]],
    )}


def _estimate_rate(run: _Run, table, col, report):
    cps = run.config.checkpoints
    traces = est.rate_traces(
        run.state, run.ensemble, run.config.region, cps, run.model, run.probe,
        estimates=table[:, col[cps[-1]]],
    )
    report.rate_traces = [vars(t) for t in traces]
    medians = [_median([t.values[i] for t in traces]) for i in range(len(cps))]
    target = _median([t.target for t in traces])
    results = [(
        "rate-convergence",
        "posterior mass of the excluded region decays at the "
        "relative-entropy rate",
        abs(medians[-1] / target - 1.0) if target else abs(medians[-1]),
        run.config.tolerances["rate_rel_tol"],
        "<=",
        len(traces),
    )]
    return results, {"rate_trace": (
        ["checkpoint", "median_rate", "target"],
        [[c, m, target] for c, m in zip(cps, medians)],
    )}


def _estimate_clt(run: _Run, table, col, report):
    config, ensemble, tol = run.config, run.ensemble, run.config.tolerances
    samples = est.clt_samples(
        ensemble, config.k_max, run.model, run.probe,
        estimates=table[:, col[config.k_max]], margin_stds=tol["boundary_margin_stds"],
    )
    if samples.count < KS_MIN_SAMPLES:
        raise ConfigError(
            f"only {samples.count} of {len(ensemble)} clt trajectories remain "
            f"({samples.excluded_boundary} excluded near an interval boundary, "
            f"{samples.excluded_atoms} on atoms); at least {KS_MIN_SAMPLES} are needed"
        )
    res = samples.residuals
    report.clt_residuals = res.tolist()
    report.extra["clt_excluded_boundary"] = samples.excluded_boundary
    report.extra["clt_excluded_atoms"] = samples.excluded_atoms
    from scipy.special import ndtr

    ks = ks_test(res, ndtr)
    results = [
        (
            "clt-ks",
            "standardized estimator residuals are standard normal "
            "(Kolmogorov-Smirnov)",
            ks.pvalue,
            tol["ks_alpha"],
            ">=",
            ks.n,
        ),
        (
            "clt-mean",
            "standardized residuals have zero mean",
            abs(float(res.mean())),
            tol["clt_mean_sigmas"] / math.sqrt(res.size),
            "<=",
            res.size,
        ),
        (
            "clt-variance",
            "standardized residuals have unit variance",
            abs(float(res.var()) - 1.0),
            tol["clt_var_tol"],
            "<=",
            res.size,
        ),
    ]
    return results, {"clt_residuals": (["residual"], [[r] for r in res.tolist()])}


def _estimate_kernel(run: _Run, table, col, report):
    config, ensemble, cps = run.config, run.ensemble, run.config.checkpoints
    # one window a table entry: the distances read the checkpoints, the Laplace ratios k_max
    distances, _, ratios = est.kernel_distances(
        run.state, ensemble, list(col), run.model, run.probe, estimates=table,
        window_sigmas=config.window["sigmas"],
        window_nodes=int(config.window["nodes"]),
        min_sigmas=config.window["min_sigmas"],
    )
    ratios = ratios[:, col[config.k_max]].tolist()
    medians = [_median(distances[:, col[c]]) for c in cps]
    report.distance_series = [
        {"checkpoint": c, "median_distance": m} for c, m in zip(cps, medians)
    ]
    report.laplace_checks = [{"ratio": r} for r in ratios]
    results = [
        (
            "laplace-ratio",
            "rescaled likelihood integral matches its Gaussian value",
            abs(_median(ratios) - 1.0),
            config.tolerances["laplace_rel_tol"],
            "<=",
            len(ratios),
        ),
        (
            "kernel-distance-monotone",
            "trace-norm distance to the Gaussian kernel decreases across "
            "checkpoints",
            max(np.diff(medians)) if len(medians) > 1 else 0.0,
            0.0,
            "<=",
            len(ensemble),
        ),
        (
            "kernel-distance-final",
            "trace-norm distance to the Gaussian kernel is small at the "
            "final checkpoint",
            medians[-1],
            config.tolerances["kernel_distance_final"],
            "<=",
            len(ensemble),
        ),
    ]
    return results, {
        "kernel_distance": (
            ["checkpoint", "median_distance"], [[c, m] for c, m in zip(cps, medians)]
        ),
        "laplace_ratio": (["ratio"], [[r] for r in ratios]),
    }


def _estimate_assumptions(run: _Run, table, col, report):
    probe_report = validate_probe(run.probe, run.model)
    state_report = validate_state(run.state)
    results, rows = [], []
    for check in probe_report.checks:
        results.append((
            f"assumption-{check.name}",
            f"probe assumption check: {check.name}",
            0.0 if check.passed else 1.0,
            0.0,
            "<=",
            run.model.size,
        ))
        rows.append([check.name, check.passed, check.worst_value, check.worst_location])
    results.append((
        "state-validity",
        "initial state is Hermitian, positive and normalized",
        0.0 if state_report.passed else 1.0,
        0.0,
        "<=",
        run.model.size,
    ))
    rows.append(
        ["state", state_report.passed, state_report.trace_defect, "trace defect"]
    )
    report.extra["probe_caveats"] = list(probe_report.caveats)
    return results, {"assumptions": (["check", "passed", "worst_value", "location"], rows)}


KINDS: dict[str, Callable] = {
    "born-frequency": _estimate_born,
    "rate-convergence": _estimate_rate,
    "clt": _estimate_clt,
    "kernel-convergence": _estimate_kernel,
    "assumption-validation": _estimate_assumptions,
}


def estimate_ensemble(
    config: ExperimentConfig, ensemble: Ensemble, content_hash: str
) -> ReportBundle:
    """Report bundle of one experiment, not yet written: estimates, test results, tables."""
    run = _Run(config, ensemble, *_build_cached(config.canonical_json()))
    report = est.EstimatorReport(
        kind=config.kind,
        seeds={
            "master": config.seed,
            "splitting": "default_rng(SeedSequence(master, spawn_key=(index,)))",
        },
        tolerances=dict(sorted(config.tolerances.items())),
    )
    cps = config.checkpoints
    report.extra["checkpoints"] = list(cps)
    # every estimate is read from one table, one search per (trajectory, held prefix length)
    col = {c: i for i, c in enumerate(_held_prefixes(cps, config.k_max))}
    table = est.mle_table(ensemble, list(col), run.model, run.probe)

    # posterior-mean diagnostic (no limit statement attached to it)
    report.posterior_means = posterior_means(run.state, ensemble[:100], config.k_max)
    rows, tables = KINDS[config.kind](run, table, col, report)

    # estimator paths are part of every report (first 100 trajectories)
    for row in table[:100]:
        estimates = [float(row[col[c]]) for c in cps]
        report.mle_paths.append({"checkpoints": cps, "estimates": estimates, "refined": True})
    config_hash = config.config_hash()
    results = [
        TestResult(name, description, float(statistic), float(threshold), comparison, int(n),
                   config_hash, content_hash)
        for name, description, statistic, threshold, comparison, n in rows
    ]
    return ReportBundle(config, config_hash, content_hash, results, report, tables)


# ---------------------------------------------------------------------------
# persistence

def _manifest(config: ExperimentConfig) -> dict:
    """The manifest of trajectories simulated for ``config``."""
    return {"count": config.ensemble, "k_max": config.k_max, "checkpoints": list(config.checkpoints),
            "master_seed": config.seed, "config_hash": config.config_hash()}


def persist_trajectories(out_dir, ensemble: Ensemble, config: ExperimentConfig):
    """The ensemble arrays as ``trajectories/{stats,sums,hidden}.npy`` (``hidden``
    only from the mixture sampler), with a manifest naming the config.  ``stats``
    holds each row's statistic after each held prefix length (int64 counts or
    the float64 Gaussian statistic); a statistic that is the row itself is
    written once, as the (E x k) float64 rows, whose prefixes are the others.
    An ``outcomes.npy`` of the old layout goes."""
    base = Path(out_dir) / "trajectories"
    base.mkdir(parents=True, exist_ok=True)
    (base / "outcomes.npy").unlink(missing_ok=True)
    stats = ensemble.stats
    arrays = {"stats": np.stack(stats[:, -1, 0]) if stats.dtype == object else stats,
              "sums": ensemble.sums, "hidden": ensemble.hidden}
    for name, array in arrays.items():
        if array is not None:
            np.save(base / f"{name}.npy", array)
    with open(base / "manifest.json", "w") as fh:
        json.dump(_manifest(config), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_trajectories(out_dir, config: ExperimentConfig) -> Ensemble:
    """Round-trip of ``persist_trajectories``, bit for bit.  A manifest written for
    another config, the old CSV and outcome-block layouts, and arrays that are
    missing, unreadable or of another dtype or shape, raise ``ConfigError``."""
    base = Path(out_dir) / "trajectories"
    manifest_path = base / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no persisted trajectories under {out_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    again, wanted = "; run simulate again", _manifest(config)
    keys = set(manifest) if isinstance(manifest, dict) else set()
    if "entries" in keys:
        raise ConfigError(f"trajectories under {out_dir} are in the old CSV layout{again}")
    if (base / "outcomes.npy").exists():
        raise ConfigError(f"trajectories under {out_dir} are in the old outcome-block "
                          f"layout{again}")
    missing = [key for key in wanted if key not in keys]
    if missing:
        raise ConfigError(f"{manifest_path} lacks the keys {missing}{again}")
    stale = [f"{key} {manifest[key]} != {v}" for key, v in wanted.items() if manifest[key] != v]
    if stale:
        raise ConfigError(f"trajectories under {out_dir} were simulated for another "
                          f"config ({', '.join(stale)}){again}")
    model, _, probe = _build_cached(config.canonical_json())
    e, k, ends = config.ensemble, config.k_max, _held_prefixes(config.checkpoints, config.k_max)
    stat = probe.statistic(np.empty((1, 0)))  # the family's statistic: its dtype and width
    rows = stat.dtype == object  # the row itself
    specs = {
        "stats": (np.dtype(float), (e, k)) if rows else (stat.dtype, (e, len(ends), stat.shape[1])),
        "sums": (np.dtype(float), (e, len(ends), model.size)),
        "hidden": (np.dtype(float), (e,)),
    }
    arrays = dict.fromkeys(specs)
    for name in specs if config.sampler == "de-finetti" else ("stats", "sums"):
        path = base / f"{name}.npy"
        try:
            arrays[name] = a = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}{again}") from exc
        if (a.dtype, a.shape) != specs[name]:
            raise ConfigError(f"{path} holds {a.dtype} {a.shape}, not "
                              f"{specs[name][0]} {specs[name][1]}{again}")
    stats = arrays["stats"]
    if rows:
        stats = np.stack([probe.statistic(stats[:, :c]) for c in ends], 1)
    return Ensemble(stats, arrays["sums"], k, ends, arrays["hidden"], config.seed)


# ---------------------------------------------------------------------------
# report bundles

@dataclass
class ReportBundle:
    config: ExperimentConfig
    config_hash: str
    content_hash: str
    results: list[TestResult]
    report: est.EstimatorReport
    tables: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "content_hash": self.content_hash,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }

    def summary_text(self) -> str:
        lines = [f"experiment: {self.config.kind} (seed {self.config.seed})"]
        lines += [r.summary() for r in self.results]
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "summary.json", "w") as fh:
            json.dump(self.summary_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(out / "estimator_report.json", "w") as fh:
            # report fields hold plain values (vars, unlike asdict, copies none)
            json.dump(vars(self.report), fh, sort_keys=True, indent=2)
            fh.write("\n")
        tables = out / "tables"
        tables.mkdir(exist_ok=True)
        for name, (header, rows) in sorted(self.tables.items()):
            with open(tables / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def validate_config(config: ExperimentConfig):
    """Build everything the config names and run both validator suites."""
    model, state, probe = _build_cached(config.canonical_json())
    return validate_probe(probe, model), validate_state(state)


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    workers: int = 1,
    content_hash: str | None = None,
) -> ReportBundle:
    """Simulate, estimate, and bundle one experiment deterministically.

    Runs only what ``prepare_run`` admits, so a probe that fails its
    validators aborts before any simulation.
    """
    if workers != 1:  # the keyword stays only for perfbench/child.py
        raise ValueError(f"run_experiment runs in process; workers must be 1, got {workers}")
    if content_hash is None:
        content_hash = git_blob_sha1(config.canonical_json().encode())
    prepare_run(config)
    ensemble = simulate_ensemble(config)
    bundle = estimate_ensemble(config, ensemble, content_hash)
    if out_dir is not None:
        bundle.write(out_dir)
        if config.persist_trajectories:
            persist_trajectories(out_dir, ensemble, config)
    return bundle
