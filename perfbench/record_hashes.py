"""Record the result hashes that ``run.py`` checks each run against.

    python3 perfbench/record_hashes.py --workloads all --seeds 0-99 \
        [--out perfbench/expected_hashes.json]

Computes each workload's result hash once per seed with the same stage code
the timed runs use and merges them into ``--out``. Re-record only when a
change is meant to alter results; a performance change must leave every
recorded hash as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import serve_mixed as sm  # noqa: E402
import servers  # noqa: E402
import workloads as w  # noqa: E402
from spread import parse_seeds  # noqa: E402


def experiment_digest(workload: str, seed: int) -> str:
    fx = w.setup(w.EXPERIMENTS[workload], seed)
    try:
        trained = w.learn(fx)
        curves = w.predict(fx, trained)
    finally:
        fx.close()
    return w.outcome(fx, trained, curves).digest


def serve_digest(seed: int) -> str:
    table = sm.make_table(seed)
    server = servers.start([(sm.MODULE_ID, table.csv_path)], sm.LEARNER)[0]
    try:
        results = [sm.run_steps(server.endpoint(), seed, c, table,
                                steps=sm.HASHED_STEPS)
                   for c in range(sm.CLIENTS)]
    finally:
        server.stop()
    if any(r.failed for r in results):
        raise RuntimeError(f"serve_mixed seed {seed}: {results[0].errors[:3]}")
    return sm.digest(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", default=str(bench.EXPECTED))
    args = parser.parse_args()
    names = bench.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    out = Path(args.out)
    table = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    for name in names:
        for seed in parse_seeds(args.seeds):
            digest = serve_digest(seed) if name == "serve_mixed" \
                else experiment_digest(name, seed)
            table.setdefault(name, {})[str(seed)] = digest
            print(name, seed, digest, flush=True)
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
