#!/usr/bin/env python3
"""End-to-end tour: corpus, job, cached rerun, fork, bundle round trip.

Builds a small synthetic corpus under --root, runs one manifest through
the sandboxed engine, reruns it to show full cache reuse, forks it with
a different seed, and exports a portable trial bundle. Everything the
tour prints comes from the same APIs the command line and HTTP gateway
use.

Example:
    python3 scripts/run_demo.py --root /tmp/relab-demo
"""

import argparse
import os
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
# stages run in their own processes, which find relab through PYTHONPATH
_prior = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC if _prior is None else SRC + os.pathsep + _prior

from relab.cli import Engine, apply_overrides
from relab.manifest import DatasetSelector, EvalConfig, default_manifest
from relab.provenance import export_bundle
from relab.synthdata import SynthConfig, generate_and_register


def section(title):
    print(f"\n=== {title} ===")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("./demo-root"))
    args = parser.parse_args()
    if args.root.exists():
        sys.exit(f"{args.root} already exists; pick a fresh --root")

    engine = Engine(args.root)

    section("synthetic corpus")
    synth = SynthConfig(num_courses=2, sessions_per_course=3, num_weeks=3,
                        learners_per_session=60, seed=11)
    course_ids = generate_and_register(synth, engine.registry)
    print(f"registered {course_ids} under {engine.registry.root}")

    section("submit and execute")
    manifest = default_manifest(
        experiment_name="demo-dropout",
        selector=DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme="both", k=3),
        seed=5,
        feature_weeks=1,
    )
    started = time.monotonic()
    job_id, report, trial = engine.run_job(manifest)
    print(f"{job_id}: {report.phase} in {time.monotonic() - started:.1f}s, "
          f"{len(report.entries)} units, {report.cache_hits} cache hits")
    print(f"trial {trial.trial_id}")

    section("evaluation report")
    print(engine.scheduler.eval_report(job_id).to_csv(), end="")

    section("identical rerun hits the cache everywhere")
    started = time.monotonic()
    rerun_id, rerun, rerun_trial = engine.run_job(manifest)
    print(f"{rerun_id}: {rerun.phase} in {time.monotonic() - started:.1f}s, "
          f"{rerun.cache_hits}/{len(rerun.entries)} cache hits")
    print(f"same trial: {rerun_trial.trial_id == trial.trial_id}")

    section("fork with a different seed")
    forked_manifest = apply_overrides(manifest, ["seed=6", "experiment_name=demo-fork"])
    fork_id, fork_report, fork_trial = engine.run_job(
        forked_manifest, parent_trial_id=trial.trial_id
    )
    print(f"{fork_id}: {fork_report.phase}; trial {fork_trial.trial_id}")
    print(f"parent {fork_trial.parent_trial_id}")

    section("portable bundle")
    path, digest = export_bundle(
        engine.ledger, engine.cache, trial.trial_id,
        args.root / "bundles" / f"{trial.trial_id}.tar",
    )
    print(f"{path}\nsha256 {digest}")
    print("\nimport it elsewhere with:")
    print(f"  relab --root <other-root> fork {path}")


if __name__ == "__main__":
    main()
