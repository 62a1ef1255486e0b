#!/usr/bin/env python3
"""relab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload engine_cold --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload engine_cold --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --self-test

The package is imported from ``src/`` next to this directory, and stage
processes find it through ``PYTHONPATH``; without ``src/relab`` the run
exits with code 1 and prints no result. Every metric is printed as a
``name value unit`` line, and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Each run works in its own directory under
``.bench_work/`` in the repository root. What a run keeps until its end
(the registered corpus, the filled engine root) is left there: deleting
files that are already on disk slows the file operations of the runs
that follow (see ``workloads.young``). Remove ``.bench_work/`` when done.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_work"
WORKLOAD_NAMES = ("engine_cold", "engine_warm", "study")


def use_source_tree() -> None:
    """Import relab from src/, in this process and in every child."""
    if not (SRC / "relab" / "__init__.py").is_file():
        sys.exit(f"relab sources not found: {SRC / 'relab'}")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects tampered output")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    if args.self_test:
        import selftest

        return selftest.main(work)
    import workloads

    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), work
    )
    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
