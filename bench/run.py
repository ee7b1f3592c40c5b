"""Closed-loop scan benchmark for vulnhunt.

Run from the repository root::

    python3 bench/run.py --workload fixture-full --seed 0 --seconds 55 --trace 0

One client in one process runs full scans back to back on one workload,
each starting after the previous one finished, with ``worker_parallelism``
1.  Inputs are generated from ``--seed`` into ``.bench_work/`` and loaded
through the public loaders; every scan's output is checked.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced scans alternate and the per-layer metrics are printed.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``bench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS, Sizes

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def main(argv: list[str] | None = None, sizes=None) -> int:
    """Parse arguments, run one invocation and print its result line.

    ``sizes`` (a ``workloads.Sizes``) shrinks the generated workloads for
    the self-test; the command line always uses the defaults.
    """
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "vulnhunt").is_dir() or not (REPO / "tests" / "fixture_data.py").is_file():
        print(f"bench: no vulnhunt sources under {REPO}; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (str(REPO / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         sizes or Sizes())
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
