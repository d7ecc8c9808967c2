"""Write bench/reference.json: the digest of every op's encoded output for the
first COUNT instances of each workload on the pinned seeds.

    python3 bench/make_reference.py

Run it only when an output is meant to change; the benchmark counts every
op whose output differs from its reference digest as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

PINNED_SEEDS = (0, 1, 2)
COUNT = 600


def main() -> int:
    digests: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        for seed in PINNED_SEEDS:
            row = []
            for index in range(COUNT):
                inst = workloads.instance(workload, seed, index)
                text = workloads.run_op(inst)
                problems = workloads.check_output(inst, text) + workloads.deep_check(inst, text)
                if problems:
                    print(f"{workload} seed {seed} op {index}: {problems}", file=sys.stderr)
                    return 1
                row.append(workloads.digest(text))
            digests.setdefault(workload, {})[str(seed)] = row
            print(f"{workload} seed {seed}: {COUNT} digests", flush=True)
    out = {"seeds": list(PINNED_SEEDS), "count": COUNT, "digests": digests}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
