"""Pins the stored and printed bytes of every JSON record.

Each record here is built from fixed values, so the sha256 of its bytes
is fixed too. A change to how a manifest, a trial record, a cache entry
or an evaluation report is serialized shows up as a changed digest; the
trial id and every cache key hash these bytes. A registry index file is
compared byte for byte when a course is registered again, so its bytes
are pinned too.
"""

from dataclasses import replace

import pytest

import relab.provenance as provenance
from relab.cli import stable_json
from relab.evalstats import (
    BiasReport,
    EvalReport,
    EvalRow,
    PairedAuc,
    PairedSample,
    StatTestResult,
    WeekBias,
)
from relab.hashing import sha256_bytes
from relab.manifest import (
    DatasetSelector,
    EvalConfig,
    canonicalize,
    default_manifest,
    render_manifest,
)
from relab.provenance import CacheStore, TrialLedger, TrialRecord
from relab.registry import Registry

CREATED_AT = "2026-01-02T03:04:05+00:00"

CANONICAL_SHA = "3ae3668dca0502162025ace82dd3fecf72ac4b3429c6e102cba3c79b25216d4e"
RENDERED_SHA = "7d59bbb624d8b00806a2256b23770b68c953cf80c0eec1b98e35d17e6db710e2"
LEDGER_LINE_SHA = "13390eba7044b615e295841446089f1150dc512283d06252bb053f93ffac9f9a"
CACHE_ENTRY_SHA = "a587bd3b5c819312ec03d198e8f50b9958dbf2863ccd4578a46bea1ff2472a6a"
REPORT_JSON_SHA = "79465f86140577b7f7b9352ce5eb448e7a19f103032fcd62a0fdf613918d6846"
REPORT_CSV_SHA = "18414165e10e562fc8e4a8b3bf66c610c959aa846b21c547492bfcd63c94235b"
INDEX_SHA = "e07c3bd9c16836eb0ee49d5c1b4b72382020b168f6e8049e65f68bf9730a340f"


def make_manifest():
    manifest = default_manifest(
        experiment_name="pinned-bytes",
        selector=DatasetSelector(kind="whole_course", course_id="course000"),
        eval_config=EvalConfig(scheme="both", k=3, ci_level=0.9),
        seed=901,
        feature_weeks=2,
    )
    # an int timeout renders as the float the stage holds
    stages = tuple(
        replace(s, timeout=30) if s.name == "train" else s for s in manifest.stages
    )
    return replace(manifest, stages=stages)


def make_record():
    return TrialRecord(
        trial_id="ab" * 32,
        manifest_digest="cd" * 32,
        image_ref="builtin/refpipe@v1",
        data_digests=("11" * 32, "22" * 32),
        stage_digests={
            "train-course000": {"model.json": "44" * 32},
            "extract-course000-s1": {
                "labels.csv": "66" * 32,
                "features.csv": "55" * 32,
            },
        },
        eval_digest="77" * 32,
        engine_version="0.1.0",
        created_at=CREATED_AT,
        parent_trial_id="ef" * 32,
    )


def make_report():
    rows = (
        EvalRow("ALL", 1, "cross_validation", 0.71, 0.65, 0.77),
        EvalRow("ALL", 1, "holdout", 0.625, 0.5, 0.75),
        EvalRow("course000", 1, "cross_validation", 0.7),
        EvalRow("course000", 1, "holdout", 0.6),
        EvalRow("course001", 1, "cross_validation", 0.72),
        EvalRow("course001", 1, "holdout", 0.65),
    )
    aggregate = BiasReport(
        n_pairs=2,
        mean_bias=0.085,
        ci_lo=-0.1,
        ci_hi=0.27,
        test=StatTestResult(statistic=3.0, n_effective=2, p_value=0.5, method="exact"),
        per_week=(
            WeekBias(week=1, n_pairs=2, mean_bias=0.085, statistic=3.0,
                     p_value=0.5, method="exact"),
        ),
        pairs=PairedSample(
            pairs=(
                PairedAuc("course000", 1, 0.6, 0.7),
                PairedAuc("course001", 1, 0.65, 0.72),
            )
        ),
    )
    return EvalReport(
        rows=rows, aggregate=aggregate, metadata={"k": 3, "scheme": "both"}, ci_level=0.9
    )


def test_manifest_bytes():
    manifest = make_manifest()
    assert '"timeout": 30.0' in render_manifest(manifest)
    assert sha256_bytes(canonicalize(manifest)) == CANONICAL_SHA
    assert sha256_bytes(render_manifest(manifest).encode("utf-8")) == RENDERED_SHA


def test_ledger_line_bytes(tmp_path):
    ledger = TrialLedger(tmp_path / "ledger.jsonl")
    ledger.append(make_record())
    assert sha256_bytes(ledger.path.read_bytes()) == LEDGER_LINE_SHA


def test_cache_entry_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(provenance, "_utc_now", lambda: CREATED_AT)
    store = CacheStore(tmp_path / "cache")
    src = tmp_path / "out"
    src.mkdir()
    files = {"predictions.csv": b"learner,score\n1,0.5\n", "model.json": b"{}"}
    for rel, data in files.items():
        (src / rel).write_bytes(data)
    digests = {rel: sha256_bytes(data) for rel, data in files.items()}
    store.put("12" * 32, digests, src)
    (entry,) = store.entries_dir.iterdir()
    assert sha256_bytes(entry.read_bytes()) == CACHE_ENTRY_SHA


@pytest.mark.parametrize(
    "render, expected",
    [
        (lambda r: stable_json(r.to_json_obj()), REPORT_JSON_SHA),
        (lambda r: r.to_csv(), REPORT_CSV_SHA),
    ],
    ids=["json", "csv"],
)
def test_eval_report_bytes(render, expected):
    assert sha256_bytes(render(make_report()).encode("utf-8")) == expected


def test_registry_index_bytes(tmp_path):
    registry = Registry(tmp_path / "registry")
    files = {
        ("2014-spring", "events.csv"): b"learner,week\n1,1\n",
        ("2014-spring", "logs/session.json"): b"{}",
        ("2013-fall", "events.csv"): b"learner,week\n2,3\n",
    }
    for (session_id, rel), data in files.items():
        path = registry.session_dir("course000", session_id) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    registry.register_course(
        {
            "course_id": "course000",
            "sessions": [
                {
                    "session_id": "2014-spring",
                    "start_date": "2014-01-06",
                    "num_weeks": 6,
                    "files": ["logs/session.json", "events.csv"],
                },
                {
                    "session_id": "2013-fall",
                    "start_date": "2013-09-02",
                    "num_weeks": 5,
                    "files": [
                        {
                            "path": "events.csv",
                            "digest": sha256_bytes(files[("2013-fall", "events.csv")]),
                        }
                    ],
                },
            ],
        }
    )
    (index,) = registry.index_dir.iterdir()
    assert sha256_bytes(index.read_bytes()) == INDEX_SHA
