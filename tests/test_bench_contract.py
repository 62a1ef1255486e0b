"""What the benchmark under ``bench/`` takes from the package.

``bench/`` is read here and never changed. A renamed function breaks
``bench/run.py --trace 1``, and a manifest schema change fails every
``engine_cold`` operation; neither shows in the package's other tests.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relab.manifest import parse_manifest

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


def test_bench_manifest_parses(bench):
    _, workloads = bench
    manifest = parse_manifest(json.dumps(workloads.manifest_doc(1)))
    assert manifest.seed == 1


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
