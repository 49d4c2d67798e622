"""Outside-in spans around the public calls of each qndsim layer.

A ``Tracer`` replaces a function with a wrapper at the name its caller looks
up, so that the program itself stays untouched.  Several names are imported
into the calling module (``harness.validate_probe``,
``estimators.relative_entropy``), which is why each target below names the
namespace of the call-site and not the defining module.

Spans live in memory and are written out once, when the repetition ends.
A span's self time is its duration minus the time its direct child spans
cover; spans nest strictly because the traced run is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

RUN_SPAN = "harness.run"
BUILD_SPAN = "spectral.build"

# span name -> name of its computed operation count (None: calls only)
LAYERS = {
    "harness.validate": None,
    "harness.simulate": None,
    "harness.estimate": None,
    "harness.write": None,
    "probes.loglik": "probes.loglik_cells",
    "trajectories.sample": "trajectories.outcomes",
    "estimators.mle": None,
    "probes.relative_entropy": "probes.relative_entropy_cells",
    "probes.fisher": None,
    "estimators.rescaled_kernel": None,
    "estimators.trace_norm": None,
    "estimators.limit_kernel": None,
    "estimators.laplace": None,
    BUILD_SPAN: None,
}


def _loglik_cells(probe, nodes, outcomes, *args, **kwargs) -> int:
    return int(np.size(nodes) * np.size(outcomes))


def _sampled_outcomes(state, probe, k, *args, **kwargs) -> int:
    return int(k)


def _relative_entropy_cells(probe, nu, region_nodes, *args, **kwargs) -> int:
    # region nodes times the outcome quadrature the call integrates over
    xi_nodes = probe._quadrature(np.asarray([nu], dtype=float))[0]
    return int(np.size(region_nodes) * xi_nodes.size)


class Tracer:
    """Span recorder for one repetition; ``install`` patches the program."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list = []  # (id, parent id, name, start, end, count)
        self._stack: list[int] = []

    def wrap(self, func, name: str, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            n = count(*args, **kwargs) if count is not None else 0
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, n)

        return traced

    def install(self) -> None:
        from qndsim import estimators, harness, probes, trajectories

        targets = [
            (harness, "validate_probe", "harness.validate", None),
            (harness, "simulate_ensemble", "harness.simulate", None),
            (harness, "estimate_ensemble", "harness.estimate", None),
            (harness.ReportBundle, "write", "harness.write", None),
            (trajectories, "definetti_sample", "trajectories.sample", _sampled_outcomes),
            (estimators, "mle", "estimators.mle", None),
            (estimators, "relative_entropy", "probes.relative_entropy", _relative_entropy_cells),
            (estimators, "rescaled_posterior_kernel", "estimators.rescaled_kernel", None),
            (estimators, "trace_norm_distance", "estimators.trace_norm", None),
            (estimators, "limit_kernel", "estimators.limit_kernel", None),
            (estimators, "laplace_condition_check", "estimators.laplace", None),
        ]
        # a probe family that overrides one of these methods is traced too
        for cls in vars(probes).values():
            if isinstance(cls, type) and issubclass(cls, probes.ProbeModel):
                if "loglik_node_sums" in vars(cls):
                    targets.append((cls, "loglik_node_sums", "probes.loglik", _loglik_cells))
                if "fisher" in vars(cls):
                    targets.append((cls, "fisher", "probes.fisher", None))
        for owner, attr, name, count in targets:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, calls and operation counts of this repetition."""
        children = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for name, count_name in LAYERS.items():
            out[f"{name}_s"] = 0.0
            out[f"{name}_calls"] = 0
            if count_name:
                out[count_name] = 0
        run = None
        for sid, _, name, start, end, n in self.spans:
            if name == RUN_SPAN:
                run = (end - start, end - start - children[sid])
            elif name in LAYERS:
                out[f"{name}_s"] += end - start - children[sid]
                out[f"{name}_calls"] += 1
                if LAYERS[name]:
                    out[LAYERS[name]] += n
        if run is None:
            raise RuntimeError("no run span was recorded")
        # the run span's children are validate, simulate, estimate and write;
        # its self time is what they leave uncovered
        out["harness.traced_run_s"], out["harness.other_s"] = run
        out["harness.coverage_pct"] = 100.0 * (run[0] - run[1]) / run[0]
        return out

    def write(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "count")
        rows = [dict(zip(fields, s), rep=self.rep) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
