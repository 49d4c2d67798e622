"""Purification over a two-point spectrum.

A system whose observable takes the values 0 or 1 (with prior weights
0.3 / 0.7) is probed repeatedly by a two-outcome phase measurement.  Each
outcome tilts the posterior spectral weights by a Bayes factor; over many
probes the posterior concentrates on a single spectral point, and the
frequency with which each point wins matches its weight in the initial
state.  This script tracks the posterior weight of the winning atom along
single trajectories and tallies the winner over an ensemble.

Run:  python demos/purification_demo.py
Writes demos/output/purification_weights.csv (step, median posterior
weight at the hidden atom) and prints the ensemble tally.
"""

import csv
from pathlib import Path

import numpy as np

import qndsim as q

OUT = Path(__file__).parent / "output"
SEED = 7


def main():
    model = q.build_spectral_model(atoms=[(0.0, 0.3), (1.0, 0.7)])
    probe = q.BinaryPhase.embedded(0.0, 1.0)
    state = q.diagonal_state(model, np.array([0.3, 0.7]))

    steps = [0, 1, 2, 5, 10, 20, 50, 100, 200]
    ensemble = 400
    # row i draws from trajectory_rng(SEED, i)
    trajectories = q.sample_ensemble(state, probe, max(steps), ensemble, SEED, checkpoints=steps)
    rows = np.arange(ensemble)
    node = np.argmin(np.abs(model.nodes - trajectories.hidden[:, None]), axis=1)
    weight_at_hidden = np.column_stack(
        [q.posterior_weights(state, trajectories, k)[rows, node] for k in steps]
    )
    winners = q.mle_table(trajectories, [max(steps)], model, probe)[:, 0]

    OUT.mkdir(exist_ok=True)
    with open(OUT / "purification_weights.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "median_weight_at_hidden_atom"])
        for c, k in enumerate(steps):
            writer.writerow([k, float(np.median(weight_at_hidden[:, c]))])

    frequency = float(np.mean(np.asarray(winners) == 1.0))
    print("posterior weight at the hidden atom (median over 400 trajectories):")
    for c, k in enumerate(steps):
        bar = "#" * int(50 * np.median(weight_at_hidden[:, c]))
        print(f"  k={k:4d}  {np.median(weight_at_hidden[:, c]):.4f} {bar}")
    print(f"\nestimate landed on atom 1 in {frequency:.3f} of trajectories")
    print("initial spectral weight of atom 1: 0.700 (the Born frequency)")
    print(f"wrote {OUT / 'purification_weights.csv'}")


if __name__ == "__main__":
    main()
