"""Asymptotic normality of the maximum-likelihood estimate.

For a hidden value nu in the interior of the spectrum, the standardized
residual sqrt(k F(nu)) (estimate_k - nu) approaches a standard normal; F
is the Fisher information of the probe family.  For the Gaussian readout
the residual is exactly the standardized sample mean at every k, so the
normal law holds without any asymptotics; the two-outcome phase probe
needs k to grow.  The script collects residuals for both families and
reports Kolmogorov-Smirnov p-values plus a ten-bin histogram.

Run:  python demos/clt_demo.py
Writes demos/output/clt_residuals.csv (family, residual).
"""

import csv
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import qndsim as q

OUT = Path(__file__).parent / "output"
SEED = 13


def collect(probe_spec, k, label, ensemble=800):
    cfg = q.ExperimentConfig.from_dict(
        {
            "kind": "clt",
            "spectral": {"intervals": [[0.0, 1.0]], "nodes_per_interval": 200},
            "probe": probe_spec,
            "state": {"type": "pure", "psi": {"name": "flat"}},
            "k_max": k,
            "checkpoints": [k],
            "ensemble": ensemble,
            "seed": SEED,
        }
    )
    model = q.build_model(cfg)
    state = q.build_state(model, cfg.state)
    probe = q.build_probe(cfg, model)
    trajs = q.simulate_ensemble(cfg)
    estimates = q.mle_table(trajs, [k], model, probe)[:, 0]
    samples = q.clt_samples(trajs, k, model, probe, estimates=estimates)
    ks = q.ks_test(samples.residuals, ndtr)
    print(
        f"{label}: k={k}, {samples.count} residuals "
        f"(excluded {samples.excluded_boundary} near the boundary), "
        f"mean {samples.residuals.mean():+.3f}, var {samples.residuals.var():.3f}, "
        f"KS p={ks.pvalue:.3f}"
    )
    edges = np.linspace(-3, 3, 11)
    hist, _ = np.histogram(samples.residuals, bins=edges, density=True)
    for lo, hi, h in zip(edges, edges[1:], hist):
        print(f"  [{lo:+.1f},{hi:+.1f})  {'#' * int(120 * h)}")
    return label, samples.residuals


def main():
    rows = []
    rows.append(collect({"kind": "gaussian-readout", "sigma": 0.05}, 10, "gaussian readout"))
    rows.append(
        collect(
            {"kind": "binary-phase", "embed": {"source": [0.0, 1.0]}},
            4000,
            "binary phase",
        )
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / "clt_residuals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "residual"])
        for label, residuals in rows:
            for r in residuals:
                writer.writerow([label, repr(float(r))])
    print(f"wrote {OUT / 'clt_residuals.csv'}")


if __name__ == "__main__":
    main()
