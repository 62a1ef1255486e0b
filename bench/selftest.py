"""Shows that the output checks bite: each must pass on genuine output and
fail once that output is tampered with.

    python3 bench/run.py --self-test

Runs one cold engine job and one small study, then tampers with a
prediction score, a registered data file, a bundle byte, and the study's
mean bias and p-value, in that order. Exit code 0 means every check
passed on genuine output and failed on every tampered copy.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import tarfile
from pathlib import Path

import checks
import tracing
import workloads
from checks import CheckFailed

import relab.study as study
from relab import ENGINE_VERSION
from relab.cli import Engine
from relab.manifest import parse_manifest
from relab.provenance import export_bundle
from relab.synthdata import SynthConfig, generate_and_register

SEED = 3


def _expect(name: str, check, should_pass: bool) -> bool:
    try:
        check()
        passed = True
    except CheckFailed:
        passed = False
    ok = passed == should_pass
    verdict = "passes" if passed else "fails"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    return ok


def _demote_top_positive(path: Path) -> None:
    """Give the highest-scored dropout a score below every non-dropout."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lowest_negative = min(float(r["score"]) for r in rows if r["label"] == "0")
    top = max((r for r in rows if r["label"] == "1"), key=lambda r: float(r["score"]))
    top["score"] = repr(lowest_negative - 1.0)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["learner_id", "score", "label"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _flip_first_output_byte(bundle: bytes) -> bytes:
    with tarfile.open(fileobj=io.BytesIO(bundle), mode="r:") as tar:
        member = next(m for m in tar.getmembers() if m.name.startswith("outputs/"))
    data = bytearray(bundle)
    data[member.offset_data] ^= 0x01
    return bytes(data)


def engine_checks(work: Path) -> bool:
    doc = workloads.manifest_doc(SEED)
    manifest = parse_manifest(json.dumps(doc))
    engine = Engine(work / "root")
    generate_and_register(workloads.engine_synth(SEED), engine.registry)
    job_id, report, trial = engine.run_job(manifest, workloads.PARALLELISM)
    if trial is None:
        print(f"BAD cold job finished {report.phase}")
        return False
    rows = [(r.course_id, r.scheme, r.auc) for r in engine.scheduler.eval_report(job_id).rows]
    results = engine.root / "engine" / "jobs" / job_id / "results"
    data_dir = engine.registry.root / "data"

    def aucs():
        checks.eval_rows_match_predictions(rows, results, workloads.K)

    def trial_id():
        expected = checks.expected_trial_id(doc, data_dir, ENGINE_VERSION)
        checks.require(expected == trial.trial_id, "trial id differs")

    bundle_path, _ = export_bundle(engine.ledger, engine.cache, trial.trial_id,
                                   work / "trial.tar")
    bundle = bundle_path.read_bytes()
    flipped = _flip_first_output_byte(bundle)

    ok = _expect("report AUCs match predictions.csv", aucs, True)
    ok &= _expect("trial id matches the README layout", trial_id, True)
    ok &= _expect("bundle members match stage digests",
                  lambda: checks.bundle_matches_record(bundle, trial.stage_digests), True)

    _demote_top_positive(results / "course000:holdout:test" / "predictions.csv")
    ok &= _expect("tampered prediction score", aucs, False)

    data_file = next(p for p in sorted(data_dir.rglob("events.csv")))
    original = data_file.read_bytes()
    data_file.write_bytes(original[:-1] + bytes([original[-1] ^ 0x01]))
    ok &= _expect("tampered registered data file", trial_id, False)
    data_file.write_bytes(original)

    ok &= _expect("flipped bundle byte",
                  lambda: checks.bundle_matches_record(flipped, trial.stage_digests), False)
    ok &= _expect("flipped bundle byte, compared with a second export",
                  lambda: checks.require(flipped == bundle, "exports differ"), False)
    return ok


def study_checks() -> bool:
    synth = SynthConfig(num_courses=3, learners_per_session=300, seed=SEED)
    report = study.run_study(study.StudyConfig(synth=synth, weeks=(1, 2)))

    def consistent(r):
        return lambda: checks.study_report_consistent(r, 3, 2)

    shifted_mean = dataclasses.replace(report, mean_bias=report.mean_bias + 1e-9)
    shifted_p = dataclasses.replace(
        report, test=dataclasses.replace(report.test, p_value=report.test.p_value * 1.001)
    )
    ok = _expect("study report is consistent", consistent(report), True)
    ok &= _expect("tampered mean_bias", consistent(shifted_mean), False)
    ok &= _expect("tampered signed-rank p-value", consistent(shifted_p), False)
    # three positive differences: W = 6 is the largest of 8 equally likely sums
    ok &= _expect("enumeration of [1, 2, 3] gives p = 1/4",
                  lambda: checks.require(
                      checks.signed_rank_p_by_enumeration([1.0, 2.0, 3.0]) == 0.25, ""),
                  True)
    return ok


def declared_metrics() -> bool:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    ok = _expect("BENCHMARK.json per_layer lists what traced runs print",
                 lambda: checks.require(declared == list(tracing.PER_LAYER), ""), True)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    ok &= _expect("BENCHMARK.json end_to_end lists what untraced runs print",
                  lambda: checks.require(declared == list(workloads.END_TO_END), ""), True)
    return ok


def main(work: Path) -> int:
    ok = engine_checks(work)
    ok &= study_checks()
    ok &= declared_metrics()
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1
