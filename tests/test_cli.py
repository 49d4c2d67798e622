"""Command-line contract: subcommands, exit codes, pipeline equivalence."""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import harness
from qndsim.cli import main

SEED = 20260810
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# a finite table whose laws at nu >= 0.5 have no mass, and its continuous twin
ZERO_MASS_TABLE = {
    "kind": "tabulated",
    "nu_grid": [0, 0.25, 0.5, 0.75, 1],
    "values": [[0.5, 0.5, 0, 0, 0], [0.5, 0.5, 0, 0, 0]],
    "outcomes": [0, 1],
}
ZERO_MASS_DENSITY = {
    "kind": "tabulated",
    "nu_grid": [0, 0.25, 0.5, 0.75, 1],
    "values": [[0.5, 0.5, 0, 0, 0]] * 4,
    "xi_grid": [-1, 0, 1, 2],
}
TABLE = {"kind": "tabulated", "nu_grid": [0, 0.5, 1], "values": [[0.5] * 3] * 2, "outcomes": [0, 1]}
DENSITY = {"kind": "tabulated", "nu_grid": [0, 0.5, 1], "values": [[0.5] * 3] * 3, "xi_grid": [0, 1, 2]}


def _on_unit(probe: dict) -> dict:
    """Overrides declaring ``probe`` for a pure state on [0, 1]."""
    return {"spectral": {"intervals": [[0.0, 1.0]]}, "state": {"type": "pure"}, "probe": probe}


def _write_config(path: Path, **overrides) -> Path:
    tree = {
        "kind": "born-frequency",
        "spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]]},
        "probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
        "state": {"type": "diagonal", "weights": [0.3, 0.7]},
        "k_max": 50,
        "ensemble": 40,
        "seed": SEED,
        "region": [1.0],
    }
    tree.update(overrides)
    path.write_text(json.dumps(tree, indent=1))
    return path


def test_validate_passes_healthy_config(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "normalization: pass" in out
    report = json.loads((tmp_path / "v" / "validation_report.json").read_text())
    assert report["passed"] is True


def test_validate_fails_on_zero_density(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        spectral={"intervals": [[0.0, 1.0]], "nodes_per_interval": 5},
        probe={
            "kind": "tabulated",
            "nu_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "values": [[0.5, 0.5, 0.0, 0.5, 0.5], [0.5, 0.5, 1.0, 0.5, 0.5]],
            "outcomes": [0.0, 1.0],
        },
        state={"type": "pure", "psi": {"name": "flat"}},
    )
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "positivity: FAIL" in capsys.readouterr().out


def test_validate_passes_narrow_gaussian_readout(tmp_path, capsys):
    # exp(-z^2/2) underflows to 0 far from nu; the family is still positive
    tree = json.loads((CONFIGS / "clt_gaussian.json").read_text())
    tree["probe"]["sigma"] = 0.01
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "positivity: pass" in out and "dominance: pass" in out


def test_missing_config_exits_two(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


def test_malformed_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"kind": "clt"}))
    assert main(["verify", "--config", str(schema)]) == 2


@pytest.mark.parametrize("kind", ["clt", "kernel-convergence"])
def test_atoms_only_limit_law_exits_two(tmp_path, capsys, kind):
    cfg = _write_config(tmp_path / "cfg.json", kind=kind, region=[], hidden_nu=1.0)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs a spectral interval" in err


def _interval_config(path: Path, **overrides) -> Path:
    return _write_config(
        path,
        spectral={"intervals": [[0.0, 1.0]], "h": {"name": "uniform"}, "nodes_per_interval": 40},
        probe={"kind": "gaussian-readout", "sigma": 1.0},
        state={"type": "pure", "psi": {"name": "flat"}},
        region=[],
        hidden_nu=0.5,
        **overrides,
    )


def test_kernel_window_leaving_spectrum_exits_two(tmp_path, capsys):
    # at k=1 the zoom window of a sigma=1 readout is far wider than [0, 1]
    cfg = _interval_config(
        tmp_path / "cfg.json",
        kind="kernel-convergence",
        k_max=100,
        checkpoints=[1, 100],
        ensemble=2,
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exits the spectrum" in err


def test_kernel_window_where_the_state_has_no_weight_exits_two(tmp_path, capsys, recwarn):
    # the wave function vanishes below 0.6 and the hidden value is pinned at 0.3,
    # so the rescaled posterior kernel has zero trace on its window
    tree = json.loads((CONFIGS / "kernel_convergence.json").read_text())
    tree.update(
        ensemble=2, hidden_nu=0.3, checkpoints=[1000, 10000],
        state={"type": "pure", "psi": {"re": [0.0] * 240 + [1.0] * 160}},
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: rescaled kernel has zero trace on its window\n"
    assert not recwarn.list


def test_clt_ensemble_too_small_for_ks_exits_two(tmp_path, capsys):
    cfg = _interval_config(tmp_path / "cfg.json", kind="clt", k_max=10, ensemble=10)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ensemble of at least 50" in err


@pytest.mark.parametrize(
    "overrides, remaining",
    [
        ({"hidden_nu": 0.02, "ensemble": 60}, "only 0 of 60"),  # all at the boundary
        ({"ensemble": 55}, "only 45 of 55"),  # too few left for the KS test
    ],
    ids=["all-excluded", "below-ks-minimum"],
)
def test_clt_exclusions_below_ks_minimum_exit_two(tmp_path, capsys, overrides, remaining):
    tree = json.loads((CONFIGS / "clt_gaussian.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**tree, **overrides}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and remaining in err and "excluded" in err


_TABLE = {"values": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], "outcomes": [0.0, 1.0]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"probe": {"kind": "tabulated", **_TABLE}}, "bad probe declaration"),
        ({"state": {"type": "diagonal"}}, "bad state declaration"),
        ({"state": {"type": "diagonal", "weights": [1.0]}}, "bad state declaration"),
        ({"spectral": [1, 2]}, "spectral must be a JSON object"),
        ({"k_max": "abc"}, "k_max must be an integer"),
        ({"seed": -1}, "seed must be an integer of at least 0"),
        ({"kind": "rate-convergence", "checkpoints": [0]}, "checkpoints must be positive"),
        ({"window": {"nodes": 0}}, "window nodes must be an integer of at least 1"),
        ({"checkpoints": ["abc"]}, "checkpoints must be numeric"),
        ({"region": [["a", "b"]]}, "region must be numeric"),
        ({"hidden_nu": "x"}, "hidden_nu must be numeric"),
        ({"tolerances": {"rate_rel_tol": "x"}}, "tolerance rate_rel_tol must be numeric"),
        ({"window": {"sigmas": "x"}}, "window sigmas must be numeric"),
        ({"spectral": {"atoms": [[0.0, 1.0]], "nodes_per_interval": "a"}}, "nodes_per_interval"),
        ({"probe": {"kind": "gaussian-readout", "sigma": "nan"}}, "sigma must be finite"),
        ({"tolerances": {"ks_alhpa": 0.01}}, "unknown tolerance keys: ['ks_alhpa']"),
        ({"window": {"node": 5}}, "unknown window keys: ['node']"),
        ({"checkpoints": [-1, 50]}, "checkpoints must be positive"),
        ({"spectral": {"atoms": [["a", 0.3], [1.0, 0.7]]}}, "atoms and intervals must be numeric"),
        ({"spectral": {"intervals": [[0.0, "b"]]}}, "atoms and intervals must be numeric"),
        ({"region": [[0.6]]}, "neither a point nor a pair"),
        ({"region": [[0.1, 0.2, 0.3]]}, "neither a point nor a pair"),
        ({"kind": "rate-convergence", "region": [[0.6]]}, "neither a point nor a pair"),
        ({"kind": "rate-convergence", "region": [[0.1, 0.2, 0.3]]}, "neither a point nor a pair"),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[float("nan"), 1.0]]},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "interval endpoints must be finite",
        ),
        ({"state": {"type": "pure", "psi": [1, 2]}}, "psi must be a JSON object"),
        (
            {"probe": {"kind": "binary-phase", "embed": {"source": [["a", 1]]}}},
            "embed source must be a pair of numbers",
        ),
        ({"state": {"type": "diagonal", "weights": [float("nan"), 0.7]}}, "finite and nonnegative"),
        (
            {
                "kind": "rate-convergence",
                "spectral": {
                    "intervals": [[0.0, 1.0]], "h": {"table": [[0, 1], [1, float("nan")]]}
                },
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "density table entries must be finite",
        ),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1e308]]},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "interval [0.0, 1e+308] overflows",
        ),
        ({"spectral": {"atoms": [[0.0, float("nan")], [1.0, 0.7]]}}, "weights finite and positive"),
        ({"spectral": {"atoms": [[0.0, 0.3], [1.0, float("inf")]]}}, "weights finite and positive"),
        ({"spectral": {"atoms": [[0.0, 0.3], [float("inf"), 0.7]]}}, "positions must be finite"),
        (
            {"spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": float("inf")}},
            "nodes_per_interval must be an integer",
        ),
        (
            {"spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 1e308}},
            "nodes_per_interval must lie in [2, 1000000]",
        ),
        ({"checkpoints": [float("inf")]}, "checkpoints must be finite"),
        ({"probe": {"kind": "gaussian-readout", "sigma": 1e308}}, "needs inf panels"),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1e20]]},
                "probe": {"kind": "gaussian-readout", "sigma": 1.0},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "needs 2e+20 panels",
        ),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1.0]]},
                "state": {"type": "pure", "psi": {"name": "exp", "rate": 1e20}},
                "region": [[0.5, 1.0]],
            },
            "not finite and positive",
        ),
        (
            {"probe": {"kind": "binary-phase", "embed": {"source": [0.0, 1e-308]}}},
            "slope ** 2 must be finite",
        ),
        *(
            (
                {"spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]], "quadrature_tol": tol}},
                "quadrature_tol must be finite and positive",
            )
            for tol in (float("nan"), float("inf"), 0.0, -1.0)
        ),
        (
            {"spectral": {"atoms": [[0.0, 0.3], [1.0, 0.7]], "multiplicity": 1e308}},
            "multiplicity must lie in [1, 1000]",
        ),
        ({"window": {"nodes": 10**12}}, "window nodes must be at most 10000"),
        ({"ensemble": 10**12}, "ensemble x k_max must be at most 1e+08"),
        ({"k_max": 10**15}, "ensemble x k_max must be at most 1e+08"),
        ({"probe": {"kind": "gaussian-readout", "sigma": 1e-308}}, "needs inf panels"),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1.0]], "h": 1e308},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "spectral mass of [0.0, 1.0] overflows float64",
        ),
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1e-308]]},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "the cells of [0.0, 1e-308] are 1.56e-310 wide, not a positive normal float",
        ),
        (  # 1e8 outcomes pass MAX_OUTCOMES; the (2e5, 5, 400) sums stack would take 3.0 GiB
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 400},
                "state": {"type": "pure"},
                "ensemble": 200_000,
                "k_max": 500,
                "region": [[0.5, 1.0]],
            },
            "ensemble x held prefix lengths x grid nodes must be at most 1e+08, got 4e+08",
        ),
        ({"kind": []}, "unknown experiment kind: []"),  # unhashable: no dict lookup
        (
            {
                "kind": "rate-convergence",
                "spectral": {"intervals": [[0.0, 1.0]], "h": {"table": [[0, 1, 2], [1, 1, 1]]}},
                "state": {"type": "pure"},
                "region": [[0.5, 1.0]],
            },
            "density table must be (nu, value) pairs",
        ),
        (
            {"kind": "rate-convergence", "region": [[1.0, 0.6]]},
            "empty region component (1.0, 0.6)",
        ),
        ({"state": {"type": "diagonal", "weights": [0.0, 0.0]}}, "node probabilities sum to zero"),
        (  # a fractional count, not the OverflowError of an infinite one
            {"spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 2.5}},
            "nodes_per_interval must be an integer",
        ),
        (  # refused when the kernel windows are sized, before any is built
            {
                "kind": "kernel-convergence",
                "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 2},
                "probe": {"kind": "gaussian-readout", "sigma": 1.0},
                "state": {"type": "pure"},
                "region": [],
                "hidden_nu": 0.5,
                "checkpoints": [50],
            },
            "interval has fewer than 3 nodes",
        ),
        (
            {"spectral": {"intervals": [[0.0, 1.0]]}, "state": {"type": "pure"}, "hidden_nu": 1.5},
            "point 1.5 lies outside the spectrum",
        ),
        (  # inside the hull, in the gap between the two intervals
            {
                "spectral": {"intervals": [[0.0, 0.4], [0.6, 1.0]]},
                "state": {"type": "pure"},
                "hidden_nu": 0.5,
            },
            "point 0.5 lies outside the spectrum",
        ),
        (
            {
                "spectral": {"intervals": [[0.0, 1.0]]},
                "state": {"type": "pure"},
                "probe": ZERO_MASS_TABLE,
            },
            "the tabulated law has no mass at nu_grid points [0.5, 0.75, 1]",
        ),
        (  # a continuous law: a warning and a sampler drawing from no law
            {
                "spectral": {"intervals": [[0.0, 1.0]]},
                "state": {"type": "pure"},
                "probe": ZERO_MASS_DENSITY,
            },
            "the tabulated law has no mass at nu_grid points [0.5, 0.75, 1]",
        ),
        (
            _on_unit({**TABLE, "outcomes": [0, 1, 2]}),
            "values must be a 3 x 3 table (outcomes x nu_grid), got shape (2, 3)",
        ),
        (
            _on_unit({**DENSITY, "values": [[0.5] * 3] * 2, "xi_grid": [0, 1, 2, 3]}),
            "values must be a 4 x 3 table (xi_grid x nu_grid), got shape (2, 3)",
        ),
        (
            _on_unit({**TABLE, "nu_grid": [0, 0.25, 0.5, 1]}),
            "values must be a 2 x 4 table (outcomes x nu_grid), got shape (2, 3)",
        ),
        (
            _on_unit({**TABLE, "nu_grid": [0, 1, 0.5]}),
            "nu_grid must be finite and strictly increasing",
        ),
        (
            _on_unit({**TABLE, "nu_grid": [0, 0.5, 0.5, 1], "values": [[0.5] * 4] * 2}),
            "nu_grid must be finite and strictly increasing",
        ),
        (
            _on_unit({**TABLE, "values": [[0.5, float("inf"), 0.5], [0.5] * 3]}),
            "tabulated densities must be finite and nonnegative",
        ),
        (
            _on_unit({**TABLE, "values": [[0.5, float("nan"), 0.5], [0.5] * 3]}),
            "tabulated densities must be finite and nonnegative",
        ),
        (
            _on_unit({**DENSITY, "xi_grid": [0, 2, 1]}),
            "xi_grid must be finite and strictly increasing",
        ),
        (
            _on_unit({**DENSITY, "values": [[0.5] * 3], "xi_grid": [0.0]}),
            "xi_grid needs at least 2 points",
        ),
        (
            _on_unit({**TABLE, "outcomes": [0, "a"]}),
            "outcomes must be numbers: could not convert string to float: 'a'",
        ),
        (
            _on_unit({**TABLE, "outcomes": [0, float("inf")]}),
            "outcomes must be a list of finite, distinct numbers",
        ),
        (
            _on_unit({**TABLE, "outcomes": [0, float("nan")]}),
            "outcomes must be a list of finite, distinct numbers",
        ),
        (
            _on_unit({**TABLE, "outcomes": [0, 0, 1], "values": [[0.3] * 3, [0.2] * 3, [0.5] * 3]}),
            "outcomes must be a list of finite, distinct numbers",
        ),
        (
            {"tolerances": {"kernel_distance_final": float("nan")}},
            "tolerance kernel_distance_final must be finite and at least 0, got nan",
        ),
        (
            {"tolerances": {"rate_rel_tol": -0.1}},
            "tolerance rate_rel_tol must be finite and at least 0, got -0.1",
        ),
        (
            {"tolerances": {"laplace_rel_tol": float("inf")}},
            "tolerance laplace_rel_tol must be finite and at least 0, got inf",
        ),
        ({"tolerances": {"ks_alpha": 1.5}}, "tolerance ks_alpha must be in [0, 1], got 1.5"),
        ({"tolerances": {"ks_alpha": -0.01}}, "tolerance ks_alpha must be in [0, 1], got -0.01"),
        ({"window": {"sigmas": float("nan")}}, "window sigmas must be finite and positive, got nan"),
        ({"window": {"sigmas": float("inf")}}, "window sigmas must be finite and positive, got inf"),
        ({"window": {"min_sigmas": -1}}, "window min_sigmas must be finite and positive, got -1.0"),
        ({"window": {"min_sigmas": 0}}, "window min_sigmas must be finite and positive, got 0.0"),
        *(
            (
                {
                    "kind": "rate-convergence",
                    "spectral": {"intervals": [[0.0, 1.0]]},
                    "state": {"type": "pure"},
                    "region": [region],
                },
                message,
            )
            for region, message in (
                ([float("nan"), 1.0], "region component (nan, 1.0) is not finite"),
                ([0.6, float("nan")], "region component (0.6, nan) is not finite"),
                ([0.6, float("inf")], "region component (0.6, inf) is not finite"),
            )
        ),
        ({"region": [float("nan")]}, "region point nan is not finite"),
        (  # the chain-rule sampler records no hidden values to standardise against
            {
                "kind": "clt",
                "sampler": "sequential",
                "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 40},
                "probe": {"kind": "gaussian-readout", "sigma": 1.0},
                "state": {"type": "pure"},
                "ensemble": 60,
                "region": [],
            },
            "kind clt needs sampler de-finetti: sequential draws no hidden value",
        ),
        (
            {"sampler": "sequential", "hidden_nu": 1.0},
            "hidden_nu needs sampler de-finetti: sequential draws no hidden value",
        ),
        (
            {"persist_trajectories": "false"},
            "persist_trajectories must be true or false",
        ),
        # checkpoints that int() would truncate to a count
        ({"checkpoints": [10.7, 30]}, "checkpoints must be an integer of at least 1, got 10.7"),
        ({"checkpoints": [True, 30]}, "checkpoints must be an integer of at least 1, got True"),
        ({"checkpoints": ["10", 30]}, "checkpoints must be an integer of at least 1, got '10'"),
        ({"hidden_nu": float("nan")}, "hidden_nu must be finite, got nan"),
        ({"region": []}, "region is empty"),
    ],
    ids=[
        "tabulated-without-nu-grid",
        "diagonal-without-weights",
        "diagonal-wrong-length",
        "spectral-not-object",
        "k-max-string",
        "negative-seed",
        "no-positive-checkpoint",
        "zero-window-nodes",
        "checkpoints-string",
        "region-string",
        "hidden-nu-string",
        "tolerance-string",
        "window-sigmas-string",
        "nodes-per-interval-string",
        "sigma-nan",
        "unknown-tolerance-key",
        "unknown-window-key",
        "negative-checkpoint",
        "atom-string",
        "interval-string",
        "born-region-single",
        "born-region-triple",
        "rate-region-single",
        "rate-region-triple",
        "interval-nan",
        "psi-list",
        "embed-source-nested",
        "state-weight-nan",
        "h-table-nan",
        "interval-overflow",
        "atom-weight-nan",
        "atom-weight-inf",
        "atom-position-inf",
        "nodes-per-interval-inf",
        "nodes-per-interval-huge",
        "checkpoint-inf",
        "sigma-huge",
        "interval-wide-for-sigma",
        "psi-overflow",
        "embed-source-narrow",
        "quadrature-tol-nan",
        "quadrature-tol-inf",
        "quadrature-tol-zero",
        "quadrature-tol-negative",
        "multiplicity-huge",
        "window-nodes-huge",
        "ensemble-huge",
        "k-max-huge",
        "sigma-tiny",
        "h-overflow",
        "interval-subnormal",
        "sums-stack-huge",
        "kind-unhashable",
        "h-table-triples",
        "rate-region-reversed",
        "state-weights-zero",
        "nodes-per-interval-fractional",
        "kernel-interval-two-nodes",
        "hidden-nu-outside-hull",
        "hidden-nu-in-gap",
        "tabulated-zero-mass",
        "tabulated-density-zero-mass",
        "tabulated-rows-vs-outcomes",
        "tabulated-rows-vs-xi-grid",
        "tabulated-columns-vs-nu-grid",
        "tabulated-nu-grid-unsorted",
        "tabulated-nu-grid-repeated",
        "tabulated-value-inf",
        "tabulated-value-nan",
        "tabulated-xi-grid-unsorted",
        "tabulated-xi-grid-one-point",
        "tabulated-outcome-string",
        "tabulated-outcome-inf",
        "tabulated-outcome-nan",
        "tabulated-outcomes-repeated",
        "tolerance-nan",
        "tolerance-negative",
        "tolerance-inf",
        "ks-alpha-above-one",
        "ks-alpha-negative",
        "window-sigmas-nan",
        "window-sigmas-inf",
        "window-min-sigmas-negative",
        "window-min-sigmas-zero",
        "rate-region-nan-start",
        "rate-region-nan-end",
        "rate-region-inf-end",
        "born-region-point-nan",
        "clt-sequential",
        "hidden-nu-sequential",
        "persist-trajectories-string",
        "checkpoint-fractional",
        "checkpoint-bool",
        "checkpoint-string-digits",
        "hidden-nu-nan",
        "born-region-empty",
    ],
)
def test_malformed_declarations_exit_two(tmp_path, capsys, recwarn, overrides, message):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not recwarn.list  # a warning would print a second line outside pytest
    if message != "interval has fewer than 3 nodes":  # the only one refused by estimate
        assert main(["validate", "--config", str(cfg)]) == 2  # refused where it is built
        assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "state, message",
    [
        ({"type": "pure", "psi": {"name": "sawtooth"}}, "unknown wave-function name: 'sawtooth'"),
        ({"type": "mixed"}, "unknown state type: 'mixed'"),
    ],
    ids=["wave-function", "state-type"],
)
def test_unknown_state_declarations_exit_two(tmp_path, capsys, state, message):
    cfg = _write_config(tmp_path / "cfg.json", state=state)
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"kind": "rate-convergence", "region": [[2.0, 3.0]]}, "outside the grid hull"),
        (
            {
                "kind": "rate-convergence",
                "state": {"type": "diagonal", "weights": [1.0, 0.0]},
                "region": [[0.5, 1.0]],
            },
            "zero prior spectral mass",
        ),
        ({"region": [0.5]}, "point 0.5 lies outside the spectrum"),
    ],
    ids=["rate-region-outside-hull", "rate-region-without-prior-mass", "born-point-off-spectrum"],
)
def test_bad_region_exits_two_before_validation_and_sampling(
    tmp_path, capsys, monkeypatch, overrides, message
):
    def never(*args, **kwargs):
        raise AssertionError("the region must be checked before this runs")

    monkeypatch.setattr(harness, "validate_probe", never)
    monkeypatch.setattr(harness, "sample_ensemble", never)
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def _rate_sums_stack_too_large(path: Path) -> Path:
    # 200,000 x 5 held prefix lengths (the default checkpoints to k_max) x 400 nodes: 4e8 cells
    tree = json.loads((CONFIGS / "rate_convergence.json").read_text())
    del tree["checkpoints"]
    path.write_text(json.dumps({**tree, "ensemble": 200_000, "k_max": 500}))
    return path


@pytest.mark.parametrize("command", ["validate", "simulate", "verify"])
@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: _write_config(path, region=[0.5]), "point 0.5 lies outside the spectrum"),
        (_rate_sums_stack_too_large, "ensemble x held prefix lengths x grid nodes must be at most"),
        (
            lambda path: _write_config(
                path,
                spectral={"intervals": [[0.0, 1.0]]},
                state={"type": "pure"},
                hidden_nu=1.5,
            ),
            "point 1.5 lies outside the spectrum",
        ),
        (
            lambda path: _write_config(
                path,
                spectral={"intervals": [[0.0, 1.0]]},
                state={"type": "pure"},
                probe=ZERO_MASS_TABLE,
            ),
            "the tabulated law has no mass at nu_grid points [0.5, 0.75, 1]",
        ),
    ],
    ids=[
        "born-point-off-spectrum",
        "rate-sums-stack-huge",
        "hidden-nu-outside-hull",
        "tabulated-zero-mass",
    ],
)
def test_validate_refuses_what_verify_refuses(
    tmp_path, capsys, monkeypatch, command, write, message
):
    def never(*args, **kwargs):
        raise AssertionError("the config must be refused before validation")

    monkeypatch.setattr(harness, "validate_probe", never)
    cfg = write(tmp_path / "cfg.json")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_estimate_without_simulate_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "simulate first" in capsys.readouterr().err


@pytest.mark.parametrize(
    "simulated, estimated, message",
    [
        (({"k_max": 30}, []), ({"k_max": 50}, []), "k_max 30 != 50"),
        (({}, ["--seed", "5"]), ({}, ["--seed", "99"]), "master_seed 5 != 99"),
        # same seed, size and checkpoints: only the config hash tells the
        # state the trajectories were drawn from
        (({}, []), ({"state": {"type": "diagonal", "weights": [0.5, 0.5]}}, []), "config_hash"),
    ],
    ids=["k-max", "seed", "state"],
)
def test_estimate_refuses_trajectories_of_another_config(
    tmp_path, capsys, simulated, estimated, message
):
    out = tmp_path / "out"
    sim = _write_config(tmp_path / "sim.json", **simulated[0])
    est = _write_config(tmp_path / "est.json", **estimated[0])
    assert main(["simulate", "--config", str(sim), "--out", str(out), *simulated[1]]) == 0
    capsys.readouterr()
    assert main(["estimate", "--config", str(est), "--out", str(out), *estimated[1]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (out / "summary.json").exists()


def _old_csv_layout(base: Path) -> None:
    manifest = json.loads((base / "manifest.json").read_text())
    manifest["entries"] = [{"index": 0, "hidden_nu": 1.0, "seed": {"master": SEED, "index": 0}}]
    (base / "manifest.json").write_text(json.dumps(manifest))
    for array in base.glob("*.npy"):
        array.unlink()
    (base / "traj_00000.csv").write_text("step,outcome\n1,1.0\n")


def _old_outcome_block_layout(base: Path) -> None:
    (base / "stats.npy").unlink()
    np.save(base / "outcomes.npy", np.zeros((40, 50)))


def _old_k_column_layout(base: Path) -> None:
    # the layout that stored the prefix k twice: the checkpoints, then k again
    for name in ("stats", "sums"):
        held = np.load(base / f"{name}.npy")
        np.save(base / f"{name}.npy", np.concatenate([held, held[:, -1:]], axis=1))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_key(base: Path, key: str) -> None:
    manifest = json.loads((base / "manifest.json").read_text())
    del manifest[key]
    (base / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_old_csv_layout, "old CSV layout"),
        (lambda base: (base / "sums.npy").unlink(), "sums.npy"),
        (lambda base: (base / "hidden.npy").unlink(), "hidden.npy"),
        (_old_outcome_block_layout, "old outcome-block layout"),
        (lambda base: _truncate(base / "stats.npy"), "stats.npy"),
        (lambda base: _truncate(base / "sums.npy"), "sums.npy"),
        (lambda base: np.save(base / "sums.npy", np.load(base / "sums.npy")[1:]), "(39, 3, 2)"),
        (lambda base: np.save(base / "stats.npy", np.zeros((40, 3, 1), dtype=int)),
         "holds int64 (40, 3, 1), not int64 (40, 3, 2)"),
        (lambda base: np.save(base / "stats.npy", np.load(base / "stats.npy") * 1.0),
         "holds float64 (40, 3, 2), not int64 (40, 3, 2)"),
        (_old_k_column_layout, "holds int64 (40, 4, 2), not int64 (40, 3, 2)"),
        (lambda base: _drop_key(base, "config_hash"), "lacks the keys ['config_hash']"),
    ],
    ids=[
        "old-csv-layout",
        "missing-sums",
        "missing-hidden",
        "old-outcome-block-layout",
        "truncated-stats",
        "truncated-sums",
        "sums-rows",
        "stats-shape",
        "stats-dtype",
        "old-k-column-layout",
        "manifest-key",
    ],
)
def test_malformed_persisted_trajectories_exit_two(tmp_path, capsys, damage, message):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    damage(out / "trajectories")
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "run simulate again" in err
    assert not (out / "summary.json").exists()


def test_simulate_then_estimate_matches_verify(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    pipe = tmp_path / "pipeline"
    single = tmp_path / "single"
    assert main(["simulate", "--config", str(cfg), "--out", str(pipe)]) == 0
    assert (pipe / "trajectories" / "manifest.json").exists()
    assert main(["estimate", "--config", str(cfg), "--out", str(pipe)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(single)]) == 0
    for name in ("estimator_report.json", "summary.json", "tables/born_frequency.csv"):
        assert (pipe / name).read_bytes() == (single / name).read_bytes()


def test_simulate_applies_the_probe_gate_of_verify(tmp_path, capsys):
    # the identity phase gives f(1 | 0) = 0, which the validators refuse
    cfg = _write_config(
        tmp_path / "cfg.json", probe={"kind": "binary-phase"}, k_max=20, ensemble=50
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg)]) == 1
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: probe failed assumption validation:"
    ]
    assert "positive-curvature: FAIL" in err
    assert not (out / "trajectories" / "manifest.json").exists()


def test_verify_reruns_are_idempotent(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "summary.json").read_bytes()
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == first


def test_seed_override_is_recorded(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 99


def test_verify_exits_one_on_failed_test(tmp_path, capsys):
    # an absurdly tight confidence band forces the Born check to fail
    cfg = _write_config(
        tmp_path / "cfg.json", tolerances={"born_ci_sigmas": 1e-6}
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_report_renders_existing_bundle(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "born-frequency: pass" in text
    assert "config hash:" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--config", str(CONFIGS / "born_frequency.json")], "simulate needs --out"),
        (["estimate", "--config", str(CONFIGS / "born_frequency.json")], "estimate needs --out"),
        (["report"], "report needs --out"),
    ],
    ids=["simulate", "estimate", "report"],
)
def test_commands_without_out_exit_two(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_report_without_bundle_exits_two(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2


_SUMMARY = {
    "config": {"kind": "born-frequency", "seed": SEED},
    "config_hash": "c",
    "content_hash": "h",
    "passed": True,
}


@pytest.mark.parametrize(
    "summary, message",
    [
        ({}, "KeyError: 'config'"),
        ({**_SUMMARY, "results": [{"name": "born-frequency", "passed": True}]}, "TypeError"),
        ({**_SUMMARY, "results": "x"}, "AttributeError"),
        ({**_SUMMARY, "results": [0]}, "AttributeError"),
    ],
    ids=["empty", "result-missing-fields", "results-string", "result-number"],
)
def test_malformed_report_exits_two(tmp_path, capsys, summary, message):
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert main(["report", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# every mutation of a shipped declaration reaches a documented exit

def _paths(tree, prefix=()):
    """The path of every leaf and container below a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _shipped_capped():
    trees = {}
    for path in sorted(CONFIGS.glob("*.json")):
        tree = json.loads(path.read_text())
        trees[path.stem] = {**tree, "ensemble": min(tree["ensemble"], 60)}
    return trees


SHIPPED = _shipped_capped()
DELETE = "<delete>"
# no large valid size: nodes_per_interval 1e6 or multiplicity 1000 would
# allocate gigabytes in validate_probe or the kernel stack
REPLACEMENTS = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, -1, 0, 1e20, 1e-308,
    "x", None, [], {}, True, [[1, "a"]], [[]],
]


def _mutated(tree, path, value):
    """A copy of ``tree`` with the entry at ``path`` replaced by ``value`` or deleted."""
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


def _main_exits_cleanly(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, which must exit 0, 1 or 2
    without a warning, and with one stderr line on exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    where=st.sampled_from([(name, p) for name, tree in SHIPPED.items() for p in _paths(tree)]),
    value=st.sampled_from([DELETE, *REPLACEMENTS]),
)
def test_every_mutated_declaration_exits_cleanly(where, value):
    name, path = where
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(_mutated(SHIPPED[name], path, value)))
        code, out, err = _main_exits_cleanly(
            ["verify", "--config", str(config), "--out", str(Path(tmp) / "out")]
        )
    if code == 1:  # a failed verdict, or a probe that failed its validators
        assert "overall: FAIL" in out or err.startswith("error: probe failed assumption validation")


@pytest.fixture(scope="module")
def born_bundle(tmp_path_factory) -> Path:
    """A born config, its persisted trajectories and its report bundle."""
    out = tmp_path_factory.mktemp("born")
    cfg = _write_config(out / "cfg.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _tree_paths(path: Path) -> list:
    tree = json.loads(path.read_text())
    return [(tree, p) for p in _paths(tree)]


@settings(max_examples=300, deadline=None)
@given(where=st.data(), value=st.sampled_from([DELETE, *REPLACEMENTS]))
def test_every_mutated_summary_reports_cleanly(born_bundle, where, value):
    tree, path = where.draw(st.sampled_from(_tree_paths(born_bundle / "summary.json")))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "summary.json").write_text(json.dumps(_mutated(tree, path, value)))
        code, _, err = _main_exits_cleanly(["report", "--out", tmp])
    assert code != 1
    if code == 2:
        assert "summary.json" in err


@settings(max_examples=100, deadline=None)
@given(where=st.data(), value=st.sampled_from([DELETE, *REPLACEMENTS]))
def test_every_mutated_manifest_estimates_cleanly(born_bundle, where, value):
    manifest = born_bundle / "trajectories" / "manifest.json"
    tree, path = where.draw(st.sampled_from(_tree_paths(manifest)))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(born_bundle / "trajectories", Path(tmp) / "trajectories")
        (Path(tmp) / "trajectories" / "manifest.json").write_text(
            json.dumps(_mutated(tree, path, value))
        )
        config = str(born_bundle / "cfg.json")
        code, out, _ = _main_exits_cleanly(["estimate", "--config", config, "--out", tmp])
    if code == 1:
        assert "overall: FAIL" in out
