"""Command-line entry point: validate, simulate, estimate, verify, report.

Exit codes: 0 when everything passes, 1 when an assumption check or a test
result fails, 2 for usage and configuration errors.  The default master
seed is a fixed constant, never the clock, and any ``--seed`` override is
recorded in every output.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    TestResult,
    ValidationFailure,
    estimate_ensemble,
    git_blob_sha1,
    load_trajectories,
    persist_trajectories,
    prepare_run,
    run_experiment,
    simulate_ensemble,
    validate_config,
)
from .estimators import WindowError
from .probes import ProbeError
from .spectral import RegionError, SpectralModelError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

log = logging.getLogger("qndsim")


def _add_common(parser, config_required=True):
    if config_required:
        parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--verbose", action="store_true", help="chatty logging")


def _read_config(path: str, seed_override: int | None):
    raw = Path(path).read_bytes()
    tree = json.loads(raw)
    if seed_override is not None:
        tree["seed"] = int(seed_override)
    config = ExperimentConfig.from_dict(tree)
    return config, git_blob_sha1(raw)


def _cmd_validate(args) -> int:
    config, content_hash = _read_config(args.config, args.seed)
    probe_report, state_report = validate_config(config)
    text = probe_report.summary() + "\n" + state_report.summary()
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "config_hash": config.config_hash(),
            "content_hash": content_hash,
            "probe_checks": [c.__dict__ for c in probe_report.checks],
            "probe_caveats": list(probe_report.caveats),
            "state": state_report.__dict__,
            "passed": probe_report.passed and state_report.passed,
        }
        with open(out / "validation_report.json", "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK if (probe_report.passed and state_report.passed) else EXIT_FAIL


def _cmd_simulate(args) -> int:
    config, _ = _read_config(args.config, args.seed)
    if args.out is None:
        raise ConfigError("simulate needs --out to persist trajectories")
    prepare_run(config)  # the gate verify applies
    ensemble = simulate_ensemble(config)
    persist_trajectories(args.out, ensemble, config)
    log.info("persisted %d trajectories to %s", len(ensemble), args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    config, content_hash = _read_config(args.config, args.seed)
    if args.out is None:
        raise ConfigError("estimate needs --out with persisted trajectories")
    try:
        ensemble = load_trajectories(args.out, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}; run simulate first", file=sys.stderr)
        return EXIT_USAGE
    bundle = estimate_ensemble(config, ensemble, content_hash)
    bundle.write(args.out)
    print(bundle.summary_text())
    return EXIT_OK if bundle.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    config, content_hash = _read_config(args.config, args.seed)
    bundle = run_experiment(config, out_dir=args.out, content_hash=content_hash)
    print(bundle.summary_text())
    return EXIT_OK if bundle.passed else EXIT_FAIL


def _cmd_report(args) -> int:
    if args.out is None:
        raise ConfigError("report needs --out pointing at a report bundle")
    summary = Path(args.out) / "summary.json"
    if not summary.exists():
        print(f"error: no summary.json under {args.out}", file=sys.stderr)
        return EXIT_USAGE
    with open(summary) as fh:
        tree = json.load(fh)
    try:
        lines = [
            f"experiment: {tree['config']['kind']} (seed {tree['config']['seed']})",
            f"config hash: {tree['config_hash']}",
            f"content hash: {tree['content_hash']}",
            *(TestResult(**{k: v for k, v in r.items() if k != "passed"}).summary()
              for r in tree["results"]),
            "overall: " + ("pass" if tree["passed"] else "FAIL"),
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # r.items() of a non-object
        raise ConfigError(f"malformed {summary}: {type(exc).__name__}: {exc}") from exc
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="simulate and verify repeated non-demolition measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("validate", _cmd_validate, True),
        ("simulate", _cmd_simulate, True),
        ("estimate", _cmd_estimate, True),
        ("verify", _cmd_verify, True),
        ("report", _cmd_report, False),
    ):
        p = sub.add_parser(name)
        _add_common(p, config_required=needs_config)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (
        ConfigError,
        ProbeError,
        RegionError,
        SpectralModelError,
        WindowError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
