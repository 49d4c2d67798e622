"""Exponential decay of excluded spectral regions.

With a Gaussian readout of strength 1 and the true value pinned at 0.2,
the posterior mass of the region [0.6, 1.0] decays like exp(-k S), where
S is the smallest Kullback-Leibler divergence from the true outcome law
to the laws indexed by the region: here S = (0.6 - 0.2)^2 / 2 = 0.08.
The script prints the measured decay rate -(1/k) log mass(region) at
geometric checkpoints next to that target.

Run:  python demos/rate_demo.py
Writes demos/output/rate_trace.csv (checkpoint, median rate, target).
"""

import csv
from pathlib import Path

import numpy as np

import qndsim as q

OUT = Path(__file__).parent / "output"
SEED = 11


def main():
    model = q.build_spectral_model(intervals=[(0.0, 1.0)], nodes_per_interval=400)
    probe = q.bind_extension(q.GaussianReadout(sigma=1.0), model)
    state = q.pure_state(model, lambda nu: np.ones_like(nu))
    region = [(0.6, 1.0)]
    checkpoints = [10, 30, 100, 300, 1000, 3000, 10000]

    trajs = q.sample_ensemble(
        state, probe, 10_000, 20, SEED, checkpoints=checkpoints, hidden_nu=0.2
    )
    # the refined estimate after the last checkpoint sets each trace's target
    finals = q.mle_table(trajs, checkpoints[-1:], model, probe)[:, 0]
    traces = q.rate_traces(state, trajs, region, checkpoints, model, probe, estimates=finals)

    target = float(np.median([t.target for t in traces]))
    medians = [
        float(np.median([t.values[c] for t in traces])) for c in range(len(checkpoints))
    ]

    OUT.mkdir(exist_ok=True)
    with open(OUT / "rate_trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "median_rate", "target"])
        for k, m in zip(checkpoints, medians):
            writer.writerow([k, m, target])

    print("decay rate of posterior mass on [0.6, 1.0], true value 0.2:")
    for k, m in zip(checkpoints, medians):
        print(f"  k={k:6d}  rate {m:.4f}")
    print(f"\nrelative-entropy target  {target:.4f}")
    print("closed form (0.6-0.2)^2/2 = 0.0800")
    print(f"wrote {OUT / 'rate_trace.csv'}")


if __name__ == "__main__":
    main()
