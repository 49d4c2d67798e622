"""The benchmark's view of the program: every name ``perfbench`` looks up.

``perfbench/child.py`` drives a run through ``qndsim.harness`` and
``perfbench/spans.py`` wraps functions by name where their callers look them
up.  A renamed or removed name would make the benchmark fail, or leave a
span silently empty, so the names are read from those files and checked here.
"""

import json
import re
from pathlib import Path

from qndsim import estimators, harness, probes, trajectories

ROOT = Path(__file__).resolve().parent.parent
CHILD = (ROOT / "perfbench" / "child.py").read_text()
SPANS = (ROOT / "perfbench" / "spans.py").read_text()
OWNERS = {
    "harness": harness,
    "harness.ReportBundle": harness.ReportBundle,
    "trajectories": trajectories,
    "estimators": estimators,
}
# methods the tracer wraps on a family that defines them, which no family does
# any more: their spans read 0 until the benchmark stops looking them up (the
# sampler sums every family through ``statistic`` and ``_node_sums``)
RETIRED = {"loglik_node_sums"}


def test_every_name_the_benchmark_looks_up_exists():
    looked_up = {("harness", n) for n in re.findall(r"(?<![\"\w.])harness\.([A-Za-z]\w*)", CHILD)}
    targets = re.findall(r"\(([\w.]+), \"(\w+)\", \"[\w.]+\"", SPANS)
    looked_up |= {(owner, name) for owner, name in targets if owner != "cls"}
    assert {("harness", "run_experiment"), ("trajectories", "definetti_sample")} <= looked_up
    for owner, name in sorted(looked_up):
        assert callable(getattr(OWNERS[owner], name)), f"{owner}.{name}"
    # the tracer wraps the probe families that define these methods themselves
    families = [
        c for c in vars(probes).values() if isinstance(c, type) and issubclass(c, probes.ProbeModel)
    ]
    for method in re.findall(r"if \"(\w+)\" in vars\(cls\)", SPANS):
        assert any(method in vars(c) for c in families) != (method in RETIRED), method
    assert "probe._quadrature" in SPANS and callable(probes.ProbeModel._quadrature)


def test_the_benchmark_call_runs(tmp_path):
    raw = (ROOT / "configs" / "rate_convergence.json").read_bytes()
    tree = json.loads(raw)
    tree.update(k_max=200, checkpoints=[10, 200], ensemble=3)
    config = harness.ExperimentConfig.from_dict(tree)
    model = harness.build_model(config)
    state = harness.build_state(model, config.state)
    harness.build_probe(config, model)
    content_hash = harness.git_blob_sha1(raw)
    bundle = harness.run_experiment(config, out_dir=tmp_path, workers=1, content_hash=content_hash)
    assert bundle.content_hash == content_hash and state.values.nbytes > 0
    assert {r.name: bool(r.passed) for r in bundle.results}
    for name in ("summary.json", "estimator_report.json"):
        assert (tmp_path / name).is_file()
