"""What the benchmark under ``bench/`` takes from the package.

``bench/`` is read here and never changed. A renamed function breaks
``bench/run.py --trace 1``, and a manifest schema change or a new
trial-id layout fails every ``engine_cold`` operation; none of these
shows in the package's other tests.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relab import ENGINE_VERSION
from relab.cli import Engine
from relab.manifest import parse_manifest
from relab.study import StudyConfig, run_study
from relab.synthdata import SynthConfig, generate_and_register

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``tracing`` and ``workloads`` modules."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_name_resolves(bench):
    tracing, _ = bench
    missing = []
    for span, (module, attr) in sorted(tracing.TARGETS.items()):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{span}: {module}.{attr}")
    assert tracing.TARGETS and missing == []


def test_traced_study_equals_the_untraced_one(bench, monkeypatch):
    # the tracer swaps relab.study.course_pairs for a closure, which the
    # study's pool must never have to pickle; two CPUs force the pool
    tracing, _ = bench
    cfg = StudyConfig(
        synth=SynthConfig(num_courses=2, learners_per_session=60, seed=3),
        weeks=(1, 2),
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plain = run_study(cfg)
    with tracing.Tracer().active():
        traced = run_study(cfg)
    assert traced == plain


def test_bench_manifest_parses(bench):
    _, workloads = bench
    manifest = parse_manifest(json.dumps(workloads.manifest_doc(1)))
    assert manifest.seed == 1


def test_recorded_trial_id_matches_the_bench_recomputation(bench, tmp_path):
    # the trial-id byte layout is recomputed under bench/; a version bump
    # may change the version string in it, never the layout
    _, workloads = bench
    synth = dataclasses.replace(
        workloads.engine_synth(1), num_courses=1, learners_per_session=40
    )
    engine = Engine(tmp_path)
    generate_and_register(synth, engine.registry)
    doc = workloads.manifest_doc(1)
    _, report, trial = engine.run_job(parse_manifest(json.dumps(doc)))
    assert report.phase == "succeeded"
    data = engine.registry.data_dir
    assert trial.trial_id == workloads.checks.expected_trial_id(doc, data, ENGINE_VERSION)


def test_self_test_passes():
    work_root = REPO / ".bench_work"  # where every run leaves its work
    before = set(work_root.glob("*"))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--self-test"],
            capture_output=True, text=True, timeout=300, cwd=REPO,
        )
    finally:
        for path in set(work_root.glob("*")) - before:
            shutil.rmtree(path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
