"""Tests for job planning, execution, state tracking, and reports."""

import dataclasses
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import relab.executor as executor
import relab.scheduler as scheduler_module
from relab.executor import StageZygote, ZygoteStartError
from relab.manifest import (
    EvalConfig,
    JobManifest,
    StageSpec,
    default_manifest,
    validate_manifest,
)
from relab.provenance import IntegrityError
from relab.registry import AccessPolicy, DatasetSelector, Registry, check_export
from relab.scheduler import (
    JobState,
    Scheduler,
    SchedulerError,
    UNIT_CACHED,
    UNIT_DONE,
    UNIT_FAILED,
    UNIT_PENDING,
    UNIT_RUNNING,
    UNIT_SKIPPED,
    WorkUnit,
    plan_units,
)
from relab.study import StudyConfig, course_pairs
from relab.synthdata import SynthConfig, generate_and_register, generate_corpus

from conftest import exited

CORPUS = SynthConfig(
    num_courses=2,
    sessions_per_course=3,
    num_weeks=3,
    learners_per_session=30,
    seed=11,
)


@pytest.fixture(scope="module")
def corpus_registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    registry = Registry(root)
    generate_and_register(CORPUS, registry)
    return registry


@pytest.fixture(scope="module")
def single_session_registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("single")
    registry = Registry(root)
    cfg = SynthConfig(
        num_courses=1,
        sessions_per_course=1,
        num_weeks=3,
        learners_per_session=20,
        seed=5,
    )
    generate_and_register(cfg, registry)
    return registry


def make_manifest(scheme="both", k=3, seed=11, selector=None, weeks=1):
    return default_manifest(
        experiment_name="dropout-replication",
        selector=selector or DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme=scheme, k=k if scheme != "holdout" else None),
        seed=seed,
        feature_weeks=weeks,
    )


def units_by_stage(units):
    out = {}
    for u in units:
        out.setdefault(u.stage, []).append(u)
    return out


class TestPlanShapes:
    def test_holdout_three_sessions_is_six_units(self, corpus_registry):
        m = make_manifest(
            scheme="holdout",
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        )
        units, _ = plan_units(m, corpus_registry)
        assert len(units) == 6
        stages = units_by_stage(units)
        assert len(stages["extract"]) == 3
        assert len(stages["train"]) == 1
        assert len(stages["test"]) == 1
        assert len(stages["evaluate"]) == 1

    def test_cv_single_session_is_twelve_units(self, corpus_registry):
        course = corpus_registry.load_course("course000")
        sid = course.sessions[0].session_id
        m = make_manifest(
            scheme="cross_validation",
            k=5,
            selector=DatasetSelector(
                kind="single_session", course_id="course000", session_id=sid
            ),
        )
        units, _ = plan_units(m, corpus_registry)
        assert len(units) == 12
        stages = units_by_stage(units)
        assert len(stages["extract"]) == 1
        assert len(stages["train"]) == 5
        assert len(stages["test"]) == 5
        assert len(stages["evaluate"]) == 1

    def test_both_shares_extract_units(self, corpus_registry):
        m = make_manifest(
            scheme="both",
            k=5,
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        )
        units, _ = plan_units(m, corpus_registry)
        # 3 extract + (train+test) holdout + 5*(train+test) cv + 1 evaluate
        assert len(units) == 16
        stages = units_by_stage(units)
        assert len(stages["extract"]) == 3
        cv_trains = [u for u in stages["train"] if ":cv:" in u.unit_id]
        extract_ids = {u.unit_id for u in stages["extract"]}
        for unit in cv_trains:
            assert set(unit.depends_on) <= extract_ids

    def test_holdout_trains_on_all_but_latest(self, corpus_registry):
        m = make_manifest(
            scheme="holdout",
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        )
        units, _ = plan_units(m, corpus_registry)
        sessions = [
            s.session_id for s in corpus_registry.load_course("course000").sessions
        ]
        by_id = {u.unit_id: u for u in units}
        train = by_id["course000:holdout:train"]
        assert set(train.depends_on) == {
            f"course000:{sid}:extract" for sid in sessions[:-1]
        }
        test = by_id["course000:holdout:test"]
        assert test.session_id == sessions[-1]
        assert train.unit_id in test.depends_on

    def test_cv_session_choice(self, corpus_registry):
        sessions = [
            s.session_id for s in corpus_registry.load_course("course000").sessions
        ]
        sel = DatasetSelector(kind="whole_course", course_id="course000")
        both_units, _ = plan_units(make_manifest("both", selector=sel), corpus_registry)
        cv_units = [u for u in both_units if ":cv:" in u.unit_id]
        assert {u.session_id for u in cv_units} == {sessions[-2]}

        pure_units, _ = plan_units(
            make_manifest("cross_validation", selector=sel), corpus_registry
        )
        cv_units = [u for u in pure_units if ":cv:" in u.unit_id]
        assert {u.session_id for u in cv_units} == {sessions[-1]}

    def test_evaluate_depends_on_all_tests(self, corpus_registry):
        m = make_manifest("both")
        units, _ = plan_units(m, corpus_registry)
        for course_id in ("course000", "course001"):
            tests = {
                u.unit_id
                for u in units
                if u.stage == "test" and u.course_id == course_id
            }
            ev = next(
                u for u in units if u.unit_id == f"{course_id}:evaluate"
            )
            assert set(ev.depends_on) == tests

    def test_plan_is_pure(self, corpus_registry):
        m = make_manifest("both")
        a, digests_a = plan_units(m, corpus_registry)
        b, digests_b = plan_units(m, corpus_registry)
        assert a == b
        assert digests_a == digests_b

    def test_cache_keys_distinct_and_seeded(self, corpus_registry):
        m7 = make_manifest("both", seed=7)
        m8 = make_manifest("both", seed=8)
        units7, _ = plan_units(m7, corpus_registry)
        units8, _ = plan_units(m8, corpus_registry)
        keys7 = [u.cache_key for u in units7]
        assert len(set(keys7)) == len(keys7)
        assert set(keys7).isdisjoint(u.cache_key for u in units8)

    def test_acyclic(self, corpus_registry):
        units, _ = plan_units(make_manifest("both"), corpus_registry)
        order = {}
        remaining = {u.unit_id: set(u.depends_on) for u in units}
        rank = 0
        while remaining:
            free = sorted(uid for uid, deps in remaining.items() if not deps)
            assert free, "cycle detected"
            for uid in free:
                order[uid] = rank
                del remaining[uid]
            for deps in remaining.values():
                deps.difference_update(free)
            rank += 1

    def test_data_digests_cover_selected_sessions(self, corpus_registry):
        m = make_manifest("holdout")
        _, digests = plan_units(m, corpus_registry)
        expected = set()
        for course_id in corpus_registry.course_ids():
            for session in corpus_registry.load_course(course_id).sessions:
                expected.update(f.digest for f in session.data_files)
        assert set(digests) == expected
        assert list(digests) == sorted(digests)

    def test_course_without_sessions_is_skipped(self, tmp_path):
        registry = literal_registry(tmp_path / "with-empty")
        registry.register_course({"course_id": "course-0", "sessions": []})
        m = make_manifest("both", k=2)
        assert validate_manifest(m, registry).violations == ()
        assert plan_units(m, registry) == plan_units(
            m, literal_registry(tmp_path / "without")
        )
        only_empty = make_manifest(
            "both", k=2,
            selector=DatasetSelector(kind="whole_course", course_id="course-0"),
        )
        assert validate_manifest(only_empty, registry).violations == (
            "selector matches no sessions",
        )
        with pytest.raises(SchedulerError, match="matches no sessions"):
            plan_units(only_empty, registry)


def literal_registry(root):
    """Two courses whose data files are literal bytes, for golden digests."""
    registry = Registry(root)
    courses = {
        "course-a": [("2013-spring", "2013-01-07"), ("2013-fall", "2013-09-02"),
                     ("2014-spring", "2014-01-06")],
        "course-b": [("2015-spring", "2015-03-02"), ("2015-fall", "2015-09-07")],
    }
    for course_id, sessions in courses.items():
        descriptor = {"course_id": course_id, "platform_schema": "event-log-v1",
                      "sessions": []}
        for session_id, start in sessions:
            sdir = registry.session_dir(course_id, session_id)
            sdir.mkdir(parents=True)
            (sdir / "events.csv").write_bytes(f"{course_id},{session_id}\n".encode())
            (sdir / "session.json").write_bytes(b"{}")
            descriptor["sessions"].append({
                "session_id": session_id, "start_date": start, "num_weeks": 5,
                "files": ["events.csv", "session.json"],
            })
        registry.register_course(descriptor)
    return registry


class TestGoldenPlan:
    """Cache keys stay outside determinism_digest(); pin the planned bytes."""

    UNITS_JSON_SHA256 = {
        "holdout": "b60c9e27381f74d19e396682ea1eba22fb1371c246b14821fa3fa5c141bae859",
        "cross_validation":
            "165bd1b76681489e05b2538c0e1f727d2bc554bc96072d48799000aad0ebda0b",
        "both": "571cddb572f4a4fc3f01c7cc9efb876d6173060af46987dc672119f4c0070da8",
    }

    @pytest.mark.parametrize("scheme", sorted(UNITS_JSON_SHA256))
    def test_units_json_bytes(self, tmp_path, scheme):
        sched = Scheduler(tmp_path / "engine", literal_registry(tmp_path / "reg"))
        job_id = sched.submit(make_manifest(scheme, k=3))
        sched.plan(job_id)
        units_json = (tmp_path / "engine" / "jobs" / job_id / "units.json").read_bytes()
        assert hashlib.sha256(units_json).hexdigest() == self.UNITS_JSON_SHA256[scheme]


def stub_stages(manifest):
    """The manifest with every stage writing its declared outputs empty."""
    return JobManifest(
        experiment_name=manifest.experiment_name,
        image_ref=manifest.image_ref,
        stages=tuple(
            StageSpec(
                name=s.name,
                command=("/bin/sh", "-c",
                         "for f in " + " ".join(s.outputs)
                         + '; do : > "$OUTPUT_DIR/$f"; done'),
                timeout=s.timeout,
                outputs=s.outputs,
            )
            for s in manifest.stages
        ),
        dataset_selector=manifest.dataset_selector,
        eval_config=manifest.eval_config,
        seed=manifest.seed,
        feature_weeks=manifest.feature_weeks,
    )


class TestStagedTree:
    """The DATA_DIR layout each stage receives is a contract with stage images."""

    EXTRACT = ["events.csv", "params.json", "session.json"]
    EVALUATE = [
        "params.json",
        "preds/cv_fold_01/predictions.csv",
        "preds/cv_fold_02/predictions.csv",
        "preds/cv_fold_03/predictions.csv",
        "preds/holdout/predictions.csv",
    ]
    EXPECTED = {
        "course-a:2013-fall:extract": EXTRACT,
        "course-a:2013-spring:extract": EXTRACT,
        "course-a:2014-spring:extract": EXTRACT,
        "course-a:holdout:train": [
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
            "sessions/2013-spring/features.csv",
            "sessions/2013-spring/labels.csv",
        ],
        "course-a:holdout:test": [
            "model/model.json",
            "params.json",
            "sessions/2014-spring/features.csv",
            "sessions/2014-spring/labels.csv",
        ],
        "course-a:2013-fall:cv:fold01:train": [
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:2013-fall:cv:fold01:test": [
            "model/model.json",
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:2013-fall:cv:fold02:train": [
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:2013-fall:cv:fold02:test": [
            "model/model.json",
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:2013-fall:cv:fold03:train": [
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:2013-fall:cv:fold03:test": [
            "model/model.json",
            "params.json",
            "sessions/2013-fall/features.csv",
            "sessions/2013-fall/labels.csv",
        ],
        "course-a:evaluate": EVALUATE,
        "course-b:2015-fall:extract": EXTRACT,
        "course-b:2015-spring:extract": EXTRACT,
        "course-b:holdout:train": [
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:holdout:test": [
            "model/model.json",
            "params.json",
            "sessions/2015-fall/features.csv",
            "sessions/2015-fall/labels.csv",
        ],
        "course-b:2015-spring:cv:fold01:train": [
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:2015-spring:cv:fold01:test": [
            "model/model.json",
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:2015-spring:cv:fold02:train": [
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:2015-spring:cv:fold02:test": [
            "model/model.json",
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:2015-spring:cv:fold03:train": [
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:2015-spring:cv:fold03:test": [
            "model/model.json",
            "params.json",
            "sessions/2015-spring/features.csv",
            "sessions/2015-spring/labels.csv",
        ],
        "course-b:evaluate": EVALUATE,
    }

    def test_data_dir_per_unit(self, tmp_path, monkeypatch):
        trees = {}
        real = scheduler_module.run_stage

        def spy(stage, sandbox, *args):
            data = sandbox.data_mount
            trees[data.parent.name] = sorted(
                p.relative_to(data).as_posix()
                for p in data.rglob("*") if p.is_file()
            )
            return real(stage, sandbox, *args)

        monkeypatch.setattr(scheduler_module, "run_stage", spy)
        _, _, report = run_job(
            literal_registry(tmp_path / "reg"), tmp_path / "engine",
            stub_stages(make_manifest("both", k=3)),
        )
        assert report.phase == "succeeded"
        assert trees == self.EXPECTED


class TestSubmit:
    def test_valid_manifest_queued(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        state = sched.status(job_id)
        assert state.phase == "queued"
        assert state.unit_states == {}

    def test_holdout_over_single_session_rejected(
        self, single_session_registry, tmp_path
    ):
        sched = Scheduler(tmp_path, single_session_registry)
        with pytest.raises(SchedulerError, match="holdout requires"):
            sched.submit(make_manifest("holdout"))

    def test_resubmission_new_job_id(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        a = sched.submit(make_manifest())
        b = sched.submit(make_manifest())
        assert a != b

    def test_two_schedulers_on_one_root_claim_distinct_ids(
        self, corpus_registry, tmp_path
    ):
        scheds = [Scheduler(tmp_path, corpus_registry) for _ in range(2)]
        manifest = make_manifest()
        n_threads, per_thread = 8, 10
        barrier = threading.Barrier(n_threads)
        ids, errors = [], []

        def submit_many(sched):
            barrier.wait()
            for _ in range(per_thread):
                try:
                    ids.append(sched.submit(manifest))
                except Exception as exc:  # noqa: BLE001 - recorded, asserted below
                    errors.append(exc)

        threads = [
            threading.Thread(target=submit_many, args=(scheds[i % 2],))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(ids) == len(set(ids)) == n_threads * per_thread
        for job_id in ids:
            assert (tmp_path / "jobs" / job_id / "manifest.json").is_file()

    def test_non_numeric_job_names_ignored(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        (tmp_path / "jobs" / "job-notes").mkdir()
        (tmp_path / "jobs" / "job-000004").write_text("not a job")
        assert sched.submit(make_manifest()) == "job-000005"

    def test_unknown_job_rejected(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        with pytest.raises(SchedulerError, match="unknown job"):
            sched.status("job-999999")

    @pytest.mark.parametrize("name", ["..", ".", "job-notes", "job-000001/.."])
    def test_only_claimed_job_names_are_jobs(self, corpus_registry, tmp_path, name):
        sched = Scheduler(tmp_path, corpus_registry)
        sched.submit(make_manifest())
        (tmp_path / "jobs" / "job-notes").mkdir()
        before = sorted(tmp_path.rglob("*"))
        for call in (sched.status, sched.cancel, sched.plan):
            with pytest.raises(SchedulerError, match="unknown job"):
                call(name)
        assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def executed(tmp_path_factory, corpus_registry):
    """One fully executed both-schemes job, shared by the read-only tests."""
    sched = Scheduler(tmp_path_factory.mktemp("engine"), corpus_registry)
    job_id = sched.submit(make_manifest("both", k=3))
    sched.plan(job_id)
    report = sched.execute(job_id, parallelism=1)
    return sched, job_id, report


class TestExecute:
    def test_success_and_report_shape(self, executed):
        sched, job_id, report = executed
        assert report.phase == "succeeded"
        assert len(report.entries) == 24  # 12 units per course
        assert [e.unit_id for e in report.entries] == [
            e.unit_id
            for e in sorted(
                report.entries,
                key=lambda e: (e.course_id, e.session_id, e.stage, e.unit_id),
            )
        ]
        assert set(report.eval_artifacts) == {"course000", "course001"}
        assert all(e.state == UNIT_DONE for e in report.entries)

    def test_rerun_fully_cached(self, executed):
        sched, job_id, first = executed
        job2 = sched.submit(make_manifest("both", k=3))
        sched.plan(job2)
        start = time.monotonic()
        second = sched.execute(job2, parallelism=1)
        elapsed = time.monotonic() - start
        assert second.phase == "succeeded"
        assert second.cache_hits == len(second.entries)
        assert all(e.state == UNIT_CACHED for e in second.entries)
        assert second.determinism_digest() == first.determinism_digest()
        assert elapsed < 5.0

    def test_topological_safety_from_event_log(self, executed):
        sched, job_id, report = executed
        events = [
            json.loads(line)
            for line in (sched.jobs_dir / job_id / "events.jsonl")
            .read_text()
            .splitlines()
        ]
        position = {}
        for i, event in enumerate(events):
            if event["event"] == "unit":
                position.setdefault((event["unit_id"], event["state"]), i)
        units = {u.unit_id: u for u in sched._job(job_id).units}
        for unit in units.values():
            started = position[(unit.unit_id, "running")]
            for dep in unit.depends_on:
                settled = position.get((dep, "done"), position.get((dep, "cached")))
                assert settled is not None and settled < started

    def test_serial_execution_never_interleaves(self, executed):
        sched, job_id, report = executed
        events = [
            json.loads(line)
            for line in (sched.jobs_dir / job_id / "events.jsonl")
            .read_text()
            .splitlines()
        ]
        in_flight = 0
        for event in events:
            if event["event"] != "unit":
                continue
            if event["state"] == "running":
                in_flight += 1
                assert in_flight <= 1
            elif event["state"] in ("done", "failed"):
                in_flight -= 1

    def test_serial_dispatch_takes_least_ready_unit(self, executed):
        sched, job_id, report = executed
        job_dir = sched.jobs_dir / job_id
        units = {
            u["unit_id"]: WorkUnit(**u)
            for u in json.loads((job_dir / "units.json").read_text())["units"]
        }
        states = {}
        for line in (job_dir / "events.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event["event"] != "unit":
                continue
            if event["state"] == "running":
                ready = [
                    u for uid, u in units.items()
                    if states[uid] == "pending"
                    and all(states[d] == "done" for d in u.depends_on)
                ]
                assert min(ready, key=WorkUnit.sort_key).unit_id == event["unit_id"]
            states[event["unit_id"]] = event["state"]

    def test_status_terminal_counts(self, executed):
        sched, job_id, report = executed
        state = sched.status(job_id)
        assert state.phase == "succeeded"
        counts = state.counts()
        assert counts["done"] == 24
        assert sum(counts.values()) == 24

    def test_execute_requires_planned(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        with pytest.raises(SchedulerError, match="planned"):
            sched.execute(job_id)

    def test_manifest_that_no_longer_parses_fails_before_a_unit_runs(
        self, corpus_registry, tmp_path
    ):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest("holdout"))
        sched.plan(job_id)
        path = sched.jobs_dir / job_id / "manifest.json"
        doc = json.loads(path.read_text())
        doc["stages"][-1]["outputs"] = []  # as stored before evaluate had to declare
        path.write_text(json.dumps(doc))
        with pytest.raises(SchedulerError, match=f"job {job_id} has a manifest that"):
            sched.execute(job_id)
        state = sched.status(job_id)
        assert state.phase == "planning"
        assert set(state.unit_states.values()) == {"pending"}

    def test_eval_report_rows(self, executed):
        sched, job_id, report = executed
        eval_report = sched.eval_report(job_id)
        course_rows = [r for r in eval_report.rows if r.course_id != "ALL"]
        assert {(r.course_id, r.scheme) for r in course_rows} == {
            (c, s)
            for c in ("course000", "course001")
            for s in ("holdout", "cross_validation")
        }
        assert all(0.0 <= r.auc <= 1.0 for r in course_rows)
        assert eval_report.metadata == {"job_id": job_id}
        assert eval_report.aggregate is not None


class TestRestart:
    def test_execute_after_restart(self, corpus_registry, tmp_path):
        sched_a = Scheduler(tmp_path, corpus_registry)
        job_id = sched_a.submit(
            make_manifest(
                "holdout",
                selector=DatasetSelector(kind="whole_course", course_id="course000"),
            )
        )
        sched_a.plan(job_id)

        sched_b = Scheduler(tmp_path, corpus_registry)  # fresh process stand-in
        report = sched_b.execute(job_id, parallelism=1)
        assert report.phase == "succeeded"
        assert len(report.entries) == 6

    def test_replayed_state_matches(self, executed):
        sched, job_id, report = executed
        fresh = Scheduler(sched.root, sched.registry)
        state = fresh.status(job_id)
        assert state == sched.status(job_id)

    def test_torn_last_event_line_dropped(self, corpus_registry, tmp_path):
        sched_a = Scheduler(tmp_path, corpus_registry)
        job_id = sched_a.submit(make_manifest("holdout"))
        sched_a.plan(job_id)
        events = sched_a.jobs_dir / job_id / "events.jsonl"
        intact = events.read_bytes()
        with open(events, "ab") as fh:  # a writer killed mid-append
            fh.write(b'{"event": "phase", "pha')

        sched_b = Scheduler(tmp_path, corpus_registry)
        assert sched_b.status(job_id) == sched_a.status(job_id)
        sched_b.cancel(job_id)  # appends after the cut start on a line of their own
        logged = events.read_bytes()
        assert logged.startswith(intact)
        assert all(json.loads(line) for line in logged[len(intact):].splitlines())
        fresh = Scheduler(tmp_path, corpus_registry)
        assert fresh.status(job_id) == sched_b.status(job_id)
        assert fresh.status(job_id).phase == "cancelled"

    def test_torn_middle_event_line_raises(self, corpus_registry, tmp_path):
        sched_a = Scheduler(tmp_path, corpus_registry)
        job_id = sched_a.submit(make_manifest("holdout"))
        events = sched_a.jobs_dir / job_id / "events.jsonl"
        lines = events.read_bytes().splitlines(keepends=True)
        events.write_bytes(lines[0][:10] + b"\n" + b"".join(lines[1:]))
        with pytest.raises(json.JSONDecodeError):
            Scheduler(tmp_path, corpus_registry).status(job_id)


class TestFailureIsolation:
    def test_one_course_failure_leaves_others_alone(
        self, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("broken")
        registry = Registry(root / "registry")
        generate_and_register(CORPUS, registry)
        # simulate data loss for course001's first session after registration
        victim = registry.load_course("course001").sessions[0]
        (registry.session_dir("course001", victim.session_id) / "events.csv").unlink()

        sched = Scheduler(root / "engine", registry)
        job_id = sched.submit(make_manifest("holdout"))
        sched.plan(job_id)
        report = sched.execute(job_id, parallelism=1)

        assert report.phase == "partial"
        by_id = {e.unit_id: e for e in report.entries}
        for entry in report.entries:
            if entry.course_id == "course000":
                assert entry.state == UNIT_DONE
        broken = by_id[f"course001:{victim.session_id}:extract"]
        assert broken.state == UNIT_FAILED
        assert by_id["course001:holdout:train"].state == UNIT_SKIPPED
        assert by_id["course001:holdout:test"].state == UNIT_SKIPPED
        assert by_id["course001:evaluate"].state == UNIT_SKIPPED
        # untouched sibling session still extracts fine
        other = [
            e
            for e in report.entries
            if e.course_id == "course001"
            and e.stage == "extract"
            and e.unit_id != broken.unit_id
        ]
        assert all(e.state == UNIT_DONE for e in other)
        assert set(sched.eval_report(job_id).metadata) == {"job_id"}


def slowed_holdout_manifest():
    """A one-course holdout job whose stages each sleep half a second first."""
    manifest = make_manifest(
        "holdout",
        selector=DatasetSelector(kind="whole_course", course_id="course000"),
    )
    return dataclasses.replace(manifest, stages=tuple(
        dataclasses.replace(
            s, command=("/bin/sh", "-c", "sleep 0.5 && python3 -m relab.refpipe")
        )
        for s in manifest.stages
    ))


class TestCancel:
    def test_cancel_planned_job_skips_everything(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        sched.plan(job_id)
        sched.cancel(job_id)
        state = sched.status(job_id)
        assert state.phase == "cancelled"
        assert set(state.unit_states.values()) == {UNIT_SKIPPED}

    def test_cancel_queued_job(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        sched.cancel(job_id)
        assert sched.status(job_id).phase == "cancelled"

    def test_cancel_terminal_job_rejected(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        sched.cancel(job_id)
        with pytest.raises(SchedulerError, match="terminal"):
            sched.cancel(job_id)

    def test_cancel_running_job_starts_nothing_new(
        self, corpus_registry, tmp_path
    ):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(slowed_holdout_manifest())
        sched.plan(job_id)
        reports = {}
        thread = threading.Thread(
            target=lambda: reports.setdefault(
                "report", sched.execute(job_id, parallelism=1)
            )
        )
        thread.start()
        time.sleep(0.2)  # let the first unit start
        sched.cancel(job_id)
        t_ack = time.time()
        thread.join(timeout=30)
        assert not thread.is_alive()

        report = reports["report"]
        assert report.phase == "cancelled"
        states = {e.unit_id: e.state for e in report.entries}
        assert UNIT_SKIPPED in states.values()
        events = [
            json.loads(line)
            for line in (sched.jobs_dir / job_id / "events.jsonl")
            .read_text()
            .splitlines()
        ]
        late_starts = [
            e
            for e in events
            if e["event"] == "unit"
            and e["state"] == "running"
            and e["ts"] > t_ack
        ]
        assert late_starts == []


class TestJobStateIsTheFiles:
    """A scheduler holds no stale copy of a job another scheduler writes."""

    def test_reader_sees_the_run_of_another_scheduler(
        self, corpus_registry, tmp_path
    ):
        runner = Scheduler(tmp_path, corpus_registry)
        reader = Scheduler(tmp_path, corpus_registry)
        job_id = runner.submit(make_manifest(
            "holdout",
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        ))
        assert reader.status(job_id).phase == "queued"
        runner.plan(job_id)
        runner.execute(job_id)
        runner.set_trial(job_id, "ab" * 32)

        assert reader.status(job_id) == runner.status(job_id)
        assert reader.status(job_id).trial_id == "ab" * 32
        assert reader.eval_report(job_id) == runner.eval_report(job_id)

    def test_cancel_reaches_a_replayed_job_while_it_runs(
        self, corpus_registry, tmp_path
    ):
        submitter = Scheduler(tmp_path, corpus_registry)
        job_id = submitter.submit(slowed_holdout_manifest())
        submitter.plan(job_id)

        runner = Scheduler(tmp_path, corpus_registry)  # knows the job only from disk
        reports = {}
        thread = threading.Thread(
            target=lambda: reports.setdefault("report", runner.execute(job_id))
        )
        thread.start()
        time.sleep(0.2)  # let the first unit start
        runner.cancel(job_id)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert reports["report"].phase == "cancelled"


class TestNoJobCache:
    """The scheduler that submitted a job keeps no copy of it either."""

    def test_submitter_sees_the_run_of_another_scheduler(
        self, corpus_registry, tmp_path
    ):
        submitter = Scheduler(tmp_path, corpus_registry)
        runner = Scheduler(tmp_path, corpus_registry)
        job_id = submitter.submit(make_manifest(
            "holdout",
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        ))
        runner.plan(job_id)
        assert runner.execute(job_id).phase == "succeeded"
        runner.set_trial(job_id, "cd" * 32)

        assert submitter.status(job_id) == runner.status(job_id)
        assert submitter.status(job_id).trial_id == "cd" * 32
        assert submitter.eval_report(job_id) == runner.eval_report(job_id)

    def test_cancel_of_a_job_another_scheduler_runs_ends_it_cancelled(
        self, corpus_registry, tmp_path
    ):
        submitter = Scheduler(tmp_path, corpus_registry)
        job_id = submitter.submit(slowed_holdout_manifest())
        runner = Scheduler(tmp_path, corpus_registry)
        runner.plan(job_id)
        reports = {}
        thread = threading.Thread(
            target=lambda: reports.setdefault("report", runner.execute(job_id))
        )
        thread.start()
        try:
            time.sleep(0.2)  # let the first unit start
            submitter.cancel(job_id)
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert reports["report"].phase == "cancelled"
        assert submitter.status(job_id).phase == "cancelled"

    def test_cancel_while_planning_ends_the_job_cancelled(
        self, corpus_registry, tmp_path, monkeypatch
    ):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest())
        real_plan_units = scheduler_module.plan_units

        def plan_then_cancel(manifest, registry):
            planned = real_plan_units(manifest, registry)
            Scheduler(tmp_path, corpus_registry).cancel(job_id)
            return planned

        monkeypatch.setattr(scheduler_module, "plan_units", plan_then_cancel)
        with pytest.raises(SchedulerError, match="cancelled while planning"):
            sched.plan(job_id)
        state = sched.status(job_id)
        assert state.phase == "cancelled"
        assert state.unit_states == {}
        assert not (sched.jobs_dir / job_id / "units.json").exists()

    def test_status_polled_while_the_job_runs(self, executed):
        sched, _, first = executed
        job_id = sched.submit(make_manifest("both", k=3))
        sched.plan(job_id)
        order = ("running", "succeeded")
        stop = threading.Event()
        errors, seen = [], []

        def poll():
            last = (-1, 0)
            while not stop.is_set():
                try:
                    state = sched.status(job_id)
                    now = (order.index(state.phase) if state.phase in order else -1,
                           state.counts()[UNIT_CACHED])
                    if now < last:
                        errors.append(f"went back from {last} to {now}")
                    last = now
                    seen.append(state.phase)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=poll) for _ in range(4)]
        try:
            for t in readers:
                t.start()
            report = sched.execute(job_id)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in readers)
        assert errors == []
        assert report.determinism_digest() == first.determinism_digest()
        fresh = Scheduler(sched.root, sched.registry)
        assert fresh.status(job_id) == sched.status(job_id)
        assert seen

    def test_no_cancel_handle_outlives_execute(self, executed):
        """The job's lock, the one handle a driver holds, is free again."""
        sched, job_id, report = executed
        with open(sched.jobs_dir / job_id / "lock", "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)  # raises when held


EXECUTE_IN_CHILD = """
import sys
from relab.registry import Registry
from relab.scheduler import Scheduler
root, registry_root, job_id = sys.argv[1:]
print(Scheduler(root, Registry(registry_root)).execute(job_id).phase)
"""


def wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"still waiting after {timeout} s"
        time.sleep(0.05)


def job_events(sched, job_id):
    return [
        json.loads(line)
        for line in (sched.jobs_dir / job_id / "events.jsonl").read_text().splitlines()
    ]


class TestOneDriver:
    """One call in any process drives a job; cancel reaches it from anywhere."""

    def test_two_schedulers_execute_one_planned_job_once(
        self, corpus_registry, tmp_path
    ):
        manifest = make_manifest(
            "holdout",
            selector=DatasetSelector(kind="whole_course", course_id="course000"),
        )

        def execute(sched, job_id, start, outcomes):
            start.wait()
            try:
                outcomes.append(sched.execute(job_id).phase)
            except SchedulerError:
                outcomes.append("refused")

        submitter = Scheduler(tmp_path, corpus_registry)
        for _ in range(10):
            job_id = submitter.submit(manifest)
            submitter.plan(job_id)
            start, outcomes = threading.Barrier(2), []
            threads = [
                threading.Thread(target=execute, args=(
                    Scheduler(tmp_path, corpus_registry), job_id, start, outcomes
                ))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert sorted(outcomes) == ["refused", "succeeded"]
            phases = [e["phase"] for e in job_events(submitter, job_id)
                      if e["event"] == "phase"]
            assert phases.count("running") == 1

    def test_a_job_another_process_drives_is_cancelled_from_here(
        self, corpus_registry, tmp_path, children
    ):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(slowed_holdout_manifest())
        sched.plan(job_id)
        child = children.start(EXECUTE_IN_CHILD, tmp_path, corpus_registry.root, job_id)
        wait_until(lambda: sched.status(job_id).phase == "running")

        for call in (sched.plan, sched.execute):
            with pytest.raises(SchedulerError, match="driven by another call"):
                call(job_id)
        sched.cancel(job_id)
        assert children.finish(child).split() == ["cancelled"]
        assert sched.status(job_id).phase == "cancelled"

    def test_a_dead_drivers_job_is_cancelled_and_its_manifest_resubmitted(
        self, corpus_registry, tmp_path, children
    ):
        manifest = slowed_holdout_manifest()
        reference = Scheduler(tmp_path / "reference", corpus_registry)
        ref_id = reference.submit(manifest)
        reference.plan(ref_id)
        uninterrupted = reference.execute(ref_id, parallelism=3)

        sched = Scheduler(tmp_path / "root", corpus_registry)
        job_id = sched.submit(manifest)
        sched.plan(job_id)
        child = children.start(EXECUTE_IN_CHILD, sched.root, corpus_registry.root, job_id)
        wait_until(lambda: sched.status(job_id).counts()[UNIT_DONE] >= 1)
        children.kill(child)  # the child, its zygote and its stages
        dead = sched.status(job_id)
        assert dead.phase == "running"
        finished = {u for u, state in dead.unit_states.items() if state == UNIT_DONE}

        Scheduler(sched.root, corpus_registry).cancel(job_id)
        state = sched.status(job_id)
        assert state.phase == "cancelled"
        assert state.counts()[UNIT_PENDING] == state.counts()[UNIT_RUNNING] == 0

        rerun_id = sched.submit(manifest)
        sched.plan(rerun_id)
        report = sched.execute(rerun_id, parallelism=3)
        assert report.phase == "succeeded"
        assert report.determinism_digest() == uninterrupted.determinism_digest()
        assert finished <= {e.unit_id for e in report.entries if e.state == UNIT_CACHED}

    def test_fail_of_a_job_another_call_drives_leaves_its_phase(
        self, corpus_registry, tmp_path
    ):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest("holdout"))
        sched.plan(job_id)
        with open(sched.jobs_dir / job_id / "lock", "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # another call drives the job
            Scheduler(tmp_path, corpus_registry).fail(job_id, "RuntimeError: boom")
        assert sched.status(job_id).phase == "planning"
        last = job_events(sched, job_id)[-1]
        assert (last["event"], last["error"]) == ("error", "RuntimeError: boom")


class TestSubmitWarnings:
    def test_validation_warning_logged_as_event(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        k = CORPUS.learners_per_session + 1  # more folds than learners
        job_id = sched.submit(make_manifest("cross_validation", k=k))
        events = [
            json.loads(line)
            for line in (sched.jobs_dir / job_id / "events.jsonl")
            .read_text()
            .splitlines()
        ]
        warnings = [e["warning"] for e in events if e["event"] == "warning"]
        assert len(warnings) == CORPUS.num_courses
        assert all(w.startswith(f"cv k={k} exceeds pooled learner count")
                   for w in warnings)
        assert sched.status(job_id).phase == "queued"

    def test_no_warning_event_without_a_warning(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest("cross_validation", k=3))
        events = (sched.jobs_dir / job_id / "events.jsonl").read_text()
        assert '"warning"' not in events


def with_extract_command(manifest, command, extra_output):
    """The manifest with the extract stage replaced, declaring one more output."""
    return dataclasses.replace(manifest, stages=tuple(
        StageSpec(name=s.name, command=command, timeout=s.timeout,
                  outputs=s.outputs + (extra_output,))
        if s.name == "extract" else s
        for s in manifest.stages
    ))


HOLDOUT_COURSE000 = make_manifest(
    "holdout", selector=DatasetSelector(kind="whole_course", course_id="course000")
)


# each extract also writes raw.dat, which the default allowlist denies
WITH_RAW_DAT = with_extract_command(
    HOLDOUT_COURSE000,
    ("/bin/sh", "-c", 'python3 -m relab.refpipe && echo raw > "$OUTPUT_DIR/raw.dat"'),
    "raw.dat",
)


class TestCacheHitExports:
    # course000's extracts write about 1.2 kB of features.csv, then 0.7 kB
    # of labels.csv, and its test 1.3 kB of predictions.csv: a 1200-byte
    # quota denies the last two
    @pytest.mark.parametrize(
        "policy, reasons",
        [
            (AccessPolicy(), {"not allowlisted"}),
            (AccessPolicy(max_export_bytes=1200), {"not allowlisted", "quota"}),
        ],
        ids=["default", "quota"],
    )
    def test_cached_rerun_exports_what_a_run_exports(
        self, corpus_registry, tmp_path, policy, reasons
    ):
        sched = Scheduler(tmp_path, corpus_registry, policy=policy)
        trees = []
        for _ in range(2):
            job_id = sched.submit(WITH_RAW_DAT)
            sched.plan(job_id)
            report = sched.execute(job_id)
            assert report.phase == "succeeded"
            results = sched.jobs_dir / job_id / "results"
            trees.append({
                p.relative_to(results).as_posix(): p.read_bytes()
                for p in results.rglob("*") if p.is_file()
            })
        assert report.cache_hits == len(report.entries)
        extracts = [e for e in report.entries if e.stage == "extract"]
        assert all("raw.dat" in e.output_digests for e in extracts)
        denied = {}
        for e in report.entries:
            sizes = {
                rel: len(sched.cache.get_blob(digest))
                for rel, digest in e.output_digests.items()
            }
            for decision in check_export(sizes, policy):
                if not decision.allowed:
                    denied[f"{e.unit_id}/{decision.path}"] = decision.reason
        assert set(denied.values()) == reasons
        assert trees[0] and not set(denied) & set(trees[0])
        assert trees[1] == trees[0]

    def test_cached_rerun_reads_no_denied_blob(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        trees, reports = [], []
        for rerun in (False, True):
            job_id = sched.submit(WITH_RAW_DAT)
            sched.plan(job_id)
            reports.append(sched.execute(job_id))
            assert reports[-1].phase == "succeeded"
            results = sched.jobs_dir / job_id / "results"
            trees.append({
                p.relative_to(results).as_posix(): p.read_bytes()
                for p in results.rglob("*") if p.is_file()
            })
            if not rerun:
                # raw.dat's blob keeps its size but no longer matches its
                # digest, so any read of it fails the rerun
                (digest,) = {e.output_digests["raw.dat"] for e in reports[0].entries
                             if "raw.dat" in e.output_digests}
                blob = sched.cache.blob_path(digest)
                blob.write_bytes(blob.read_bytes().upper())
                with pytest.raises(IntegrityError):
                    sched.cache.get_blob(digest)
        assert reports[1].cache_hits == len(reports[1].entries)
        assert trees[1] == trees[0]

    def test_each_denial_is_an_export_event(self, corpus_registry, tmp_path):
        sched = Scheduler(tmp_path, corpus_registry)
        for cached in (False, True):  # executed, then every unit a cache hit
            job_id = sched.submit(WITH_RAW_DAT)
            sched.plan(job_id)
            report = sched.execute(job_id)
            assert report.phase == "succeeded"
            assert report.cache_hits == (len(report.entries) if cached else 0)
            exports = [e for e in job_events(sched, job_id) if e["event"] == "export"]
            assert sorted(e["unit_id"] for e in exports) == sorted(
                e.unit_id for e in report.entries if e.stage == "extract"
            )
            assert all(e["denied"] == {"raw.dat": "not allowlisted"} for e in exports)


class TestExportPolicyKeepsTheReport:
    def test_eval_report_reads_a_metrics_file_the_policy_withholds(
        self, corpus_registry, tmp_path
    ):
        reports = []
        for name, policy in (("default", AccessPolicy()),
                             ("csv-only", AccessPolicy(export_allowlist=("*.csv",)))):
            sched = Scheduler(tmp_path / name, corpus_registry, policy=policy)
            job_id = sched.submit(HOLDOUT_COURSE000)
            sched.plan(job_id)
            assert sched.execute(job_id).phase == "succeeded"
            reports.append(sched.eval_report(job_id).to_csv())
        results = sched.jobs_dir / job_id / "results"
        assert not list(results.rglob("metrics.json"))
        assert reports[1] == reports[0]


class TestDataDrift:
    def test_drifted_session_fails_its_course_only(self, tmp_path):
        registry = Registry(tmp_path / "registry")
        generate_and_register(CORPUS, registry)
        victim = registry.load_course("course001").sessions[0]
        events = registry.session_dir("course001", victim.session_id) / "events.csv"
        # truncated after registration, at a line end: the stage would take it
        lines = events.read_bytes().splitlines(keepends=True)
        events.write_bytes(b"".join(lines[: len(lines) // 2]))

        _, _, report = run_job(registry, tmp_path / "engine", make_manifest("holdout"))

        assert report.phase == "partial"
        by_id = {e.unit_id: e for e in report.entries}
        broken = by_id[f"course001:{victim.session_id}:extract"]
        assert broken.state == UNIT_FAILED
        assert f"data drift in {events}" in broken.detail
        for unit_id in ("course001:holdout:train", "course001:holdout:test",
                        "course001:evaluate"):
            assert by_id[unit_id].state == UNIT_SKIPPED
        assert all(e.state == UNIT_DONE for e in report.entries
                   if e.course_id == "course000")


class RecordingZygote(StageZygote):
    """A stage zygote that records the pids of the zygotes that ran stages,
    and how many starts failed."""

    def __init__(self):
        super().__init__()
        self.pids = []
        self.failed_starts = 0

    def run(self, *args):
        try:
            outcome = super().run(*args)
        except ZygoteStartError:
            self.failed_starts += 1
            raise
        with self._lock:
            if self.pid is not None and self.pid not in self.pids:
                self.pids.append(self.pid)
        return outcome


@pytest.fixture
def process_zygote(monkeypatch):
    """The process zygote while the test runs: a recording one, closed after."""
    zygote = RecordingZygote()
    monkeypatch.setattr(scheduler_module, "process_zygote", lambda: zygote)
    yield zygote
    zygote.close()


def assert_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


RUN_JOB_AND_PRINT_ZYGOTE = """
import os, sys, time
from relab.executor import process_zygote
from relab.manifest import default_manifest, EvalConfig
from relab.registry import DatasetSelector, Registry
from relab.scheduler import Scheduler
root, registry_root, ending = sys.argv[1:]
sched = Scheduler(os.path.join(root, "engine"), Registry(registry_root))
job_id = sched.submit(default_manifest(
    experiment_name="zygote-lifetime",
    selector=DatasetSelector(kind="whole_course", course_id="course000"),
    eval_config=EvalConfig(scheme="holdout"),
    seed=11,
    feature_weeks=1,
))
sched.plan(job_id)
assert sched.execute(job_id).phase == "succeeded"
if ending == "exit":
    print(process_zygote().pid)
    sys.exit(0)
with open(os.path.join(root, "zygote.pid.tmp"), "w") as fh:
    fh.write(str(process_zygote().pid))
os.rename(os.path.join(root, "zygote.pid.tmp"), os.path.join(root, "zygote.pid"))
time.sleep(600)
"""


def one_course_holdout():
    return make_manifest(
        "holdout",
        selector=DatasetSelector(kind="whole_course", course_id="course000"),
    )


def run_job(registry, root, manifest, parallelism=1):
    sched = Scheduler(root, registry)
    job_id = sched.submit(manifest)
    sched.plan(job_id)
    return sched, job_id, sched.execute(job_id, parallelism=parallelism)


class TestStageZygote:
    def test_fork_and_subprocess_paths_agree(
        self, corpus_registry, tmp_path, monkeypatch, process_zygote, spawned
    ):
        fork_sched, fork_job, forked = run_job(
            corpus_registry, tmp_path / "fork", make_manifest("both", k=3)
        )
        assert forked.phase == "succeeded"
        assert spawned == [] and len(process_zygote.pids) == 1

        monkeypatch.setattr(executor, "_forkable", lambda stage, backend: False)
        spawn_sched, spawn_job, spawned_report = run_job(
            corpus_registry, tmp_path / "spawn", make_manifest("both", k=3)
        )
        assert len(spawned) == len(spawned_report.entries) == 24
        assert len(process_zygote.pids) == 1

        def digests(report):
            return {e.unit_id: dict(e.output_digests) for e in report.entries}

        def aucs(sched, job_id):
            return [
                (r.course_id, r.scheme, r.auc)
                for r in sched.eval_report(job_id).rows
            ]

        assert digests(forked) == digests(spawned_report)
        assert forked.determinism_digest() == spawned_report.determinism_digest()
        assert aucs(fork_sched, fork_job) == aucs(spawn_sched, spawn_job)

    def test_succeeded_work_trees_deleted(self, executed):
        sched, job_id, report = executed
        job_dir = sched.jobs_dir / job_id
        assert list((job_dir / "work").iterdir()) == []
        assert all(
            (job_dir / "results" / e.unit_id).is_dir() for e in report.entries
        )

    def test_failed_unit_keeps_its_work_tree(self, tmp_path):
        # registered malformed, so the extract stage runs and fails on it
        registry = Registry(tmp_path / "registry")
        descriptors = generate_corpus(CORPUS, registry.root)
        victim = registry.session_dir("course001", "course001-run1")
        (victim / "session.json").write_text("not json")
        for descriptor in descriptors:
            registry.register_course(descriptor)
        sched, job_id, report = run_job(
            registry,
            tmp_path / "engine",
            make_manifest(
                "holdout",
                selector=DatasetSelector(kind="whole_course", course_id="course001"),
            ),
        )
        kept = [p.name for p in (sched.jobs_dir / job_id / "work").iterdir()]
        assert kept == ["course001:course001-run1:extract"]
        log = sched.jobs_dir / job_id / "work" / kept[0] / "scratch" / "_stage.log"
        assert b"extract stage failed" in log.read_bytes()

    def test_cached_rerun_starts_no_process(
        self, executed, monkeypatch, process_zygote
    ):
        sched, job_id, first = executed
        started = []
        real = subprocess.Popen

        def spy(*args, **kwargs):
            started.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", spy)
        job2 = sched.submit(make_manifest("both", k=3))
        sched.plan(job2)
        second = sched.execute(job2, parallelism=1)
        assert second.cache_hits == len(second.entries)
        assert started == []
        assert process_zygote.pid is None

    def test_every_call_forks_from_one_zygote(
        self, corpus_registry, tmp_path, process_zygote, spawned
    ):
        manifest = one_course_holdout()
        for root in ("first", "second"):
            _, _, report = run_job(corpus_registry, tmp_path / root, manifest)
            assert report.phase == "succeeded" and report.cache_hits == 0
            assert len(process_zygote.pids) == 1
            assert not exited(process_zygote.pids[0])  # it outlives the call
        assert spawned == []
        process_zygote.close()
        assert_gone(process_zygote.pids)

    def test_concurrent_calls_share_one_zygote(
        self, corpus_registry, tmp_path, process_zygote, spawned
    ):
        manifest = one_course_holdout()
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda n=n: reports.append(
                    run_job(corpus_registry, tmp_path / str(n), manifest, 2)[2]
                ))
                for n in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [r.phase for r in reports] == ["succeeded"] * 4
        assert len({r.determinism_digest() for r in reports}) == 1
        assert spawned == [] and len(process_zygote.pids) == 1

    def test_a_failed_start_is_tried_again_by_the_next_call_only(
        self, corpus_registry, tmp_path, monkeypatch, process_zygote, spawned
    ):
        monkeypatch.setattr(executor, "_ZYGOTE_CODE", "raise SystemExit(1)")
        manifest = one_course_holdout()
        for calls in (1, 2):
            _, _, report = run_job(corpus_registry, tmp_path / str(calls), manifest)
            assert report.phase == "succeeded"
            assert process_zygote.failed_starts == calls
            assert len(spawned) == calls * len(report.entries)
        assert process_zygote.pid is None

    def test_killed_zygote_is_replaced(
        self, executed, corpus_registry, tmp_path, process_zygote
    ):
        _, _, reference = executed
        sched = Scheduler(tmp_path, corpus_registry)
        job_id = sched.submit(make_manifest("both", k=3))
        sched.plan(job_id)
        reports = {}
        thread = threading.Thread(
            target=lambda: reports.setdefault(
                "report", sched.execute(job_id, parallelism=2)
            )
        )
        thread.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and (
            not process_zygote.pids or sched.status(job_id).counts()["done"] < 2
        ):
            time.sleep(0.01)
        os.kill(process_zygote.pids[0], signal.SIGKILL)
        thread.join(timeout=120)
        assert not thread.is_alive()

        report = reports["report"]
        assert report.phase == "succeeded"
        assert report.determinism_digest() == reference.determinism_digest()
        assert len(process_zygote.pids) >= 2
        assert_gone(process_zygote.pids[:1])
        assert process_zygote.pid == process_zygote.pids[-1]
        process_zygote.close()
        assert_gone(process_zygote.pids)

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_the_zygote_ends_with_its_process(
        self, corpus_registry, tmp_path, children, ending
    ):
        # the child runs one job and prints its zygote's pid; it then exits
        # without closing anything, or waits to be killed alone, so that
        # only end-of-file on its socket tells the zygote to exit
        child = children.start(
            RUN_JOB_AND_PRINT_ZYGOTE, tmp_path, corpus_registry.root, ending
        )
        if ending == "exit":
            pid = int(children.finish(child))
        else:
            pid_file = tmp_path / "zygote.pid"
            wait_until(pid_file.exists)
            pid = int(pid_file.read_text())
            assert not exited(pid)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while not exited(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert exited(pid)


class TestEngineMatchesLibrary:
    def test_pipeline_aucs_equal_study_aucs(self, tmp_path_factory):
        cfg = SynthConfig(
            num_courses=1,
            sessions_per_course=3,
            num_weeks=3,
            learners_per_session=40,
            seed=13,
        )
        root = tmp_path_factory.mktemp("equiv")
        registry = Registry(root / "registry")
        generate_and_register(cfg, registry)
        sched = Scheduler(root / "engine", registry)
        manifest = make_manifest("both", k=5, seed=13)
        job_id = sched.submit(manifest)
        sched.plan(job_id)
        report = sched.execute(job_id)
        assert report.phase == "succeeded"

        rows = {
            r.scheme: r.auc
            for r in sched.eval_report(job_id).rows
            if r.course_id == "course000"
        }
        pair = course_pairs(StudyConfig(synth=cfg, weeks=(1,), k=5), 0)[0]
        assert rows["holdout"] == pair.holdout_auc
        assert rows["cross_validation"] == pair.cv_auc
