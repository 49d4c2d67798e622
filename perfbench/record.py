"""Record the reference verdicts and bundle digests of every workload.

usage: python3 perfbench/record.py [WORKLOAD ...]

Runs each workload once per config seed the benchmark can choose (see
``run.config_seed``) and rewrites ``reference.json``.  Run it only at a
commit whose outputs are the reference; the benchmark then counts any
verdict that differs as a failed repetition.
"""

import json
import shutil
import sys

from run import HERE, OUT, ROOT, RUN_LIMIT_S, SEED_COUNT, WORKLOADS, config_seed, spawn


def main(names) -> int:
    path = HERE / "reference.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    for name in names or WORKLOADS:
        entries = references.setdefault(name, {})
        for n in range(SEED_COUNT):
            seed = config_seed(n)
            rep_dir = OUT / "record" / f"{name}-{seed}"
            shutil.rmtree(rep_dir, ignore_errors=True)
            config = ROOT / "configs" / WORKLOADS[name][0]
            result = spawn(ROOT, config, seed, "run", rep_dir, 0, RUN_LIMIT_S)
            if "error" in result:
                print(f"{name} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            entries[str(seed)] = {"verdicts": result["verdicts"], "digests": result["digests"]}
            print(f"{name} seed {seed}: {result['verdicts']} in {result['run_s']:.1f} s", flush=True)
            path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
