"""Tests for the course catalog and export policy enforcement."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relab
from relab.registry import (
    AccessPolicy,
    DatasetSelector,
    Registry,
    RegistryError,
    check_export,
)


def make_registry(tmp_path, courses):
    """courses: {course_id: [(session_id, start_date, files: {name: bytes})]}"""
    r = Registry(tmp_path / "registry")
    for course_id, sessions in courses.items():
        descriptor = {"course_id": course_id, "platform_schema": "event-log-v1", "sessions": []}
        for session_id, start, files in sessions:
            sdir = r.session_dir(course_id, session_id)
            sdir.mkdir(parents=True, exist_ok=True)
            for name, payload in files.items():
                (sdir / name).write_bytes(payload)
            descriptor["sessions"].append(
                {
                    "session_id": session_id,
                    "start_date": start,
                    "num_weeks": 5,
                    "files": sorted(files),
                }
            )
        r.register_course(descriptor)
    return r


BASIC = {
    "course-a": [
        ("2013-spring", "2013-01-07", {"events.csv": b"a1", "session.json": b"{}"}),
        ("2013-fall", "2013-09-02", {"events.csv": b"a2", "session.json": b"{}"}),
        ("2014-spring", "2014-01-06", {"events.csv": b"a3", "session.json": b"{}"}),
    ],
    "course-b": [
        ("2015-only", "2015-03-02", {"events.csv": b"b1", "session.json": b"{}"}),
    ],
}


class TestRegisterCourse:
    def test_register_and_load(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        course = r.load_course("course-a")
        assert len(course.sessions) == 3
        assert course.sessions[0].session_id == "2013-spring"
        assert all(len(f.digest) == 64 for s in course.sessions for f in s.data_files)

    def test_missing_file_rejected(self, tmp_path):
        r = Registry(tmp_path / "registry")
        with pytest.raises(RegistryError, match="file not found"):
            r.register_course(
                {
                    "course_id": "ghost",
                    "sessions": [
                        {
                            "session_id": "s1",
                            "start_date": "2020-01-06",
                            "num_weeks": 5,
                            "files": ["events.csv"],
                        }
                    ],
                }
            )

    def test_reregister_identical_is_idempotent(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        descriptor = {
            "course_id": "course-b",
            "platform_schema": "event-log-v1",
            "sessions": [
                {
                    "session_id": "2015-only",
                    "start_date": "2015-03-02",
                    "num_weeks": 5,
                    "files": ["events.csv", "session.json"],
                }
            ],
        }
        course = r.register_course(descriptor)
        assert len(course.sessions) == 1
        assert r.course_ids().count("course-b") == 1

    def test_conflicting_reregistration_rejected(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        sdir = r.session_dir("course-b", "2015-only")
        (sdir / "events.csv").write_bytes(b"tampered")
        with pytest.raises(RegistryError, match="different content"):
            r.register_course(
                {
                    "course_id": "course-b",
                    "platform_schema": "event-log-v1",
                    "sessions": [
                        {
                            "session_id": "2015-only",
                            "start_date": "2015-03-02",
                            "num_weeks": 5,
                            "files": ["events.csv", "session.json"],
                        }
                    ],
                }
            )

    def test_writers_past_every_existence_check_register_one_content(
        self, tmp_path, monkeypatch
    ):
        # two registries on one root, as two processes would hold them;
        # each looks for the index file before the other has published it
        first, second = Registry(tmp_path / "registry"), Registry(tmp_path / "registry")
        descriptor = {
            "course_id": "course-c",
            "sessions": [{"session_id": "s1", "start_date": "2016-01-04",
                          "num_weeks": 5, "files": ["events.csv"]}],
        }
        sdir = first.session_dir("course-c", "s1")
        sdir.mkdir(parents=True)
        (sdir / "events.csv").write_bytes(b"c1")
        index = first.index_dir
        real = Path.exists
        monkeypatch.setattr(
            Path, "exists", lambda path: path.parent != index and real(path)
        )
        first.register_course(descriptor)
        published = (index / "course-c.json").read_bytes()
        descriptor["sessions"][0]["num_weeks"] = 6
        with pytest.raises(RegistryError, match="different content"):
            second.register_course(descriptor)
        assert (index / "course-c.json").read_bytes() == published

    def test_descriptor_digest_mismatch(self, tmp_path):
        r = Registry(tmp_path / "registry")
        sdir = r.session_dir("c", "s")
        sdir.mkdir(parents=True)
        (sdir / "events.csv").write_bytes(b"data")
        with pytest.raises(RegistryError, match="digest mismatch"):
            r.register_course(
                {
                    "course_id": "c",
                    "sessions": [
                        {
                            "session_id": "s",
                            "start_date": "2020-01-06",
                            "num_weeks": 5,
                            "files": [{"path": "events.csv", "digest": "0" * 64}],
                        }
                    ],
                }
            )

    def test_descriptor_digest_must_be_a_string(self, tmp_path):
        r = Registry(tmp_path / "registry")
        sdir = r.session_dir("c", "s")
        sdir.mkdir(parents=True)
        (sdir / "events.csv").write_bytes(b"data")
        session = {"session_id": "s", "start_date": "2020-01-06", "num_weeks": 5,
                   "files": [{"path": "events.csv", "digest": 5}]}
        with pytest.raises(RegistryError, match="not a string"):
            r.register_course({"course_id": "c", "sessions": [session]})

    @pytest.mark.parametrize("schema", [[1, {"x": 2}], 5, None, {"v": 1}])
    def test_platform_schema_must_be_a_string(self, tmp_path, schema):
        r = Registry(tmp_path / "registry")
        with pytest.raises(RegistryError, match="platform_schema must be a string"):
            r.register_course({"course_id": "c", "platform_schema": schema, "sessions": []})
        assert r.course_ids() == []

    @pytest.mark.parametrize(
        "course_fields, session_fields, file_fields, unknown",
        [
            ({"bogus": 1}, {}, {}, "'bogus'"),
            ({}, {"start": "2020-01-06"}, {}, "'start'"),
            ({}, {}, {"size": 4}, "'size'"),
        ],
        ids=["course", "session", "file"],
    )
    def test_unknown_descriptor_keys_rejected(
        self, tmp_path, course_fields, session_fields, file_fields, unknown
    ):
        r = Registry(tmp_path / "registry")
        sdir = r.session_dir("c", "s")
        sdir.mkdir(parents=True)
        (sdir / "events.csv").write_bytes(b"data")
        session = {"session_id": "s", "start_date": "2020-01-06", "num_weeks": 5,
                   "files": [{"path": "events.csv", **file_fields}], **session_fields}
        descriptor = {"course_id": "c", "sessions": [session], **course_fields}
        with pytest.raises(RegistryError, match=f"unknown key\\(s\\) {unknown}"):
            r.register_course(descriptor)
        assert r.course_ids() == []

    def test_misspelt_sessions_key_rejected(self, tmp_path):
        # accepted, it would register a course that every selector skips
        r = Registry(tmp_path / "registry")
        session = {"session_id": "s", "start_date": "2020-01-06", "num_weeks": 5}
        with pytest.raises(RegistryError, match="unknown key\\(s\\) 'session'"):
            r.register_course({"course_id": "c", "session": [session]})
        assert r.course_ids() == []

    @pytest.mark.parametrize("course_id", ["../../outside", "..", ".", "a/b", "a\0b"])
    def test_course_id_is_one_path_component(self, tmp_path, course_id):
        r = Registry(tmp_path / "registry")
        with pytest.raises(RegistryError, match="one path component"):
            r.register_course({"course_id": course_id, "sessions": []})
        assert not list(tmp_path.rglob("*.json"))

    def test_session_id_is_one_path_component(self, tmp_path):
        # another course's file, where the session id would point
        r = make_registry(tmp_path, BASIC)
        descriptor = {
            "course_id": "course-c",
            "sessions": [
                {
                    "session_id": "../course-b/2015-only",
                    "start_date": "2016-01-04",
                    "num_weeks": 5,
                    "files": ["events.csv"],
                }
            ],
        }
        with pytest.raises(RegistryError, match="one path component"):
            r.register_course(descriptor)
        assert r.course_ids() == ["course-a", "course-b"]

    def test_duplicate_start_dates_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="distinct"):
            make_registry(
                tmp_path,
                {
                    "c": [
                        ("s1", "2020-01-06", {"events.csv": b"x"}),
                        ("s2", "2020-01-06", {"events.csv": b"y"}),
                    ]
                },
            )

    def test_verify_detects_drift(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        r.materialize_session("course-a", "2013-fall", tmp_path / "before")
        path = r.session_dir("course-a", "2013-fall") / "events.csv"
        path.write_bytes(b"evil")
        registered = hashlib.sha256(b"a2").hexdigest()[:12]
        found = hashlib.sha256(b"evil").hexdigest()[:12]
        with pytest.raises(RegistryError) as info:
            r.materialize_session("course-a", "2013-fall", tmp_path / "after")
        assert str(info.value) == (
            f"data drift in {path}: registered {registered}..., found {found}..."
        )


    def test_concurrent_writer_processes_register_one_course(self, tmp_path):
        # more writers than cores register the same descriptor in each of
        # many fresh roots, meeting at a file barrier before every call
        script = (
            "import json, sys, time\n"
            "from pathlib import Path\n"
            "from relab.registry import Registry\n"
            "base, me, n = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])\n"
            "descriptor = json.loads((base / 'descriptor.json').read_text())\n"
            "failed = 0\n"
            "for root in sorted(base.glob('root*')):\n"
            "    (root / f'ready.{me}').touch()\n"
            "    while len(list(root.glob('ready.*'))) < n:\n"
            "        time.sleep(0.0005)\n"
            "    try:\n"
            "        Registry(root).register_course(descriptor)\n"
            "    except Exception as exc:\n"
            "        failed += 1\n"
            "        print(root.name, repr(exc), file=sys.stderr)\n"
            "sys.exit(1 if failed else 0)\n"
        )
        files = {"events.csv": b"b1", "session.json": b"{}"}
        descriptor = {
            "course_id": "course-b",
            "sessions": [{"session_id": "2015-only", "start_date": "2015-03-02",
                          "num_weeks": 5, "files": sorted(files)}],
        }
        (tmp_path / "descriptor.json").write_text(json.dumps(descriptor))
        for i in range(40):
            sdir = Registry(tmp_path / f"root{i:02d}").session_dir(
                "course-b", "2015-only"
            )
            sdir.mkdir(parents=True)
            for name, payload in files.items():
                (sdir / name).write_bytes(payload)
        n = max(4, (os.cpu_count() or 1) + 1)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(i), str(n)]
            )
            for i in range(n)
        ]
        for proc in writers:
            assert proc.wait(timeout=120) == 0
        for i in range(40):
            course = Registry(tmp_path / f"root{i:02d}").load_course("course-b")
            assert course.sessions[0].session_id == "2015-only"
        assert not list(tmp_path.rglob("*.tmp"))


def selected(courses):
    return [(c.course_id, [s.session_id for s in c.sessions]) for c in courses]


class TestMaterializeSession:
    def test_copies_exactly_the_registered_files(self, tmp_path):
        r = make_registry(tmp_path, {"c": [("s", "2020-01-06", {
            "events.csv": b"e", "..data.csv": b"d", "session.json": b"{}",
        })]})
        (r.session_dir("c", "s") / "unregistered.csv").write_bytes(b"u")
        dest = tmp_path / "dest"
        r.materialize_session("c", "s", dest)
        copied = {
            p.relative_to(dest).as_posix(): p.read_bytes()
            for p in dest.rglob("*") if p.is_file()
        }
        assert copied == {
            "events.csv": b"e", "..data.csv": b"d", "session.json": b"{}",
        }

    def test_missing_file_raises(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        (r.session_dir("course-b", "2015-only") / "session.json").unlink()
        with pytest.raises(FileNotFoundError, match="session.json"):
            r.materialize_session("course-b", "2015-only", tmp_path / "dest")


class TestLearnerCount:
    def test_counts_the_roster(self, tmp_path):
        meta = json.dumps({"learners": ["a", "b", "c"]}).encode()
        r = make_registry(tmp_path, {"c": [("s", "2020-01-06", {"session.json": meta})]})
        assert r.learner_count("c", "s") == 3

    @pytest.mark.parametrize(
        "meta", [None, b"not json", b"{}", b"[]"],
        ids=["missing", "not-json", "no-learners", "not-an-object"],
    )
    def test_unreadable_session_json_is_none(self, tmp_path, meta):
        files = {"events.csv": b"e"}
        if meta is not None:
            files["session.json"] = meta
        r = make_registry(tmp_path, {"c": [("s", "2020-01-06", files)]})
        assert r.learner_count("c", "s") is None


def test_only_the_registry_reads_session_directories():
    # a registered file reaches any other module through materialize_session
    # or learner_count, so it is digest-checked or only counted
    callers = []
    for path in sorted(Path(relab.__file__).parent.glob("*.py")):
        if path.name == "registry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "session_dir"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


class TestResolveSelector:
    def test_whole_course_ordered_by_start_date(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        courses = r.resolve_selector(
            DatasetSelector(kind="whole_course", course_id="course-a")
        )
        assert selected(courses) == [
            ("course-a", ["2013-spring", "2013-fall", "2014-spring"])
        ]
        assert courses == [r.load_course("course-a")]

    def test_single_session(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        sel = DatasetSelector(
            kind="single_session", course_id="course-a", session_id="2013-fall"
        )
        (course,) = r.resolve_selector(sel)
        assert selected([course]) == [("course-a", ["2013-fall"])]
        assert course.sessions == (r.load_course("course-a").session("2013-fall"),)

    def test_all_courses(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        courses = r.resolve_selector(DatasetSelector(kind="all_courses"))
        assert selected(courses) == [
            ("course-a", ["2013-spring", "2013-fall", "2014-spring"]),
            ("course-b", ["2015-only"]),
        ]

    def test_unknown_ids(self, tmp_path):
        r = make_registry(tmp_path, BASIC)
        with pytest.raises(RegistryError, match="unknown course"):
            r.resolve_selector(DatasetSelector(kind="whole_course", course_id="nope"))
        with pytest.raises(RegistryError, match="unknown session"):
            r.resolve_selector(
                DatasetSelector(
                    kind="single_session", course_id="course-a", session_id="nope"
                )
            )

    def test_selector_field_requirements(self):
        with pytest.raises(RegistryError):
            DatasetSelector(kind="single_session", course_id="c")
        with pytest.raises(RegistryError):
            DatasetSelector(kind="whole_course")
        with pytest.raises(RegistryError):
            DatasetSelector(kind="all_courses", course_id="c")
        with pytest.raises(RegistryError):
            DatasetSelector(kind="mystery")


class TestAccessPolicy:
    def test_relaxations_rejected(self):
        with pytest.raises(RegistryError):
            AccessPolicy(max_export_bytes=0)

    def test_defaults(self):
        policy = AccessPolicy()
        assert policy.export_allowlist == ("*.csv", "*.json")
        assert policy.max_export_bytes == 64 * 1024 * 1024


class TestCheckExport:
    def test_examples(self):
        policy = AccessPolicy(export_allowlist=("*.csv", "*.bin"))
        decisions = check_export({"model.bin": 10, "predictions.csv": 10}, policy)
        assert all(d.allowed for d in decisions)

    def test_not_allowlisted(self):
        policy = AccessPolicy(export_allowlist=("predictions.csv",))
        (decision,) = check_export({"raw_dump/clickstream.csv": 5}, policy)
        assert not decision.allowed
        assert decision.reason == "not allowlisted"

    def test_star_does_not_cross_directories(self):
        policy = AccessPolicy(export_allowlist=("*.csv",))
        decisions = {
            d.path: d.allowed
            for d in check_export({"a.csv": 1, "sub/b.csv": 1}, policy)
        }
        assert decisions == {"a.csv": True, "sub/b.csv": False}

    def test_quota_denies_later_paths(self):
        policy = AccessPolicy(export_allowlist=("*.csv",), max_export_bytes=100)
        decisions = check_export({"a.csv": 60, "b.csv": 60, "c.csv": 30}, policy)
        by_path = {d.path: d for d in decisions}
        assert by_path["a.csv"].allowed
        assert not by_path["b.csv"].allowed and by_path["b.csv"].reason == "quota"
        assert by_path["c.csv"].allowed  # still fits after b was denied

    def test_traversal_denied(self):
        policy = AccessPolicy(export_allowlist=("*",))
        for bad in ("../up.csv", "/abs.csv", "a/../../b.csv", ""):
            (decision,) = check_export({bad: 1}, policy)
            assert not decision.allowed
            assert decision.reason == "traversal"

    def test_empty_is_empty(self):
        assert check_export({}, AccessPolicy()) == ()

    def test_a_name_starting_with_two_dots_is_exported(self):
        (decision,) = check_export({"..data.csv": 3}, AccessPolicy())
        assert decision.allowed and decision.reason == "allowed"

    @given(
        paths=st.dictionaries(
            st.from_regex(r"[a-z]{1,6}\.(csv|json|bin)", fullmatch=True),
            st.integers(1, 100),
            max_size=6,
        ),
        base=st.lists(
            st.sampled_from(["*.csv", "*.json", "*.bin", "a*.csv"]),
            max_size=3,
            unique=True,
        ),
        extra=st.sampled_from(["*.csv", "*.json", "*.bin", "*"]),
    )
    @settings(max_examples=60)
    def test_allowlist_monotone_when_quota_slack(self, paths, base, extra):
        # adding a pattern never revokes an allowed path (quota non-binding)
        p1 = AccessPolicy(export_allowlist=tuple(base) or ("*.none",))
        p2 = AccessPolicy(export_allowlist=(tuple(base) or ("*.none",)) + (extra,))
        allowed1 = {d.path for d in check_export(paths, p1) if d.allowed}
        allowed2 = {d.path for d in check_export(paths, p2) if d.allowed}
        assert allowed1 <= allowed2


class TestValidateManifest:
    def test_holdout_single_session_violation(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        r = make_registry(tmp_path, BASIC)
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="course-b"),
            eval_config=EvalConfig(scheme="holdout"),
            seed=1,
            feature_weeks=2,
        )
        report = validate_manifest(m, r)
        assert not report.ok
        assert "holdout requires >= 2 sessions" in report.violations[0]

    def test_unknown_course_violation(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        r = make_registry(tmp_path, BASIC)
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="missing"),
            eval_config=EvalConfig(scheme="holdout"),
            seed=1,
            feature_weeks=2,
        )
        report = validate_manifest(m, r)
        assert not report.ok and "unknown course" in report.violations[0]

    def test_selector_id_outside_the_index_is_unknown(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        r = make_registry(tmp_path, BASIC)
        # an index document where the selector's id would point
        (r.root / "elsewhere.json").write_bytes(
            (r.index_dir / "course-a.json").read_bytes()
        )
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="../elsewhere"),
            eval_config=EvalConfig(scheme="holdout"),
            seed=1,
            feature_weeks=2,
        )
        report = validate_manifest(m, r)
        assert not report.ok and "unknown course" in report.violations[0]
        with pytest.raises(RegistryError, match="unknown course"):
            r.resolve_selector(m.dataset_selector)

    def test_valid_manifest_clean_report(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        r = make_registry(tmp_path, BASIC)
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="course-a"),
            eval_config=EvalConfig(scheme="holdout"),
            seed=1,
            feature_weeks=2,
        )
        report = validate_manifest(m, r)
        assert report.ok and report.violations == ()

    def test_feature_weeks_vs_num_weeks(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        r = make_registry(tmp_path, BASIC)
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="course-a"),
            eval_config=EvalConfig(scheme="holdout"),
            seed=1,
            feature_weeks=5,
        )
        report = validate_manifest(m, r)
        assert any("feature_weeks" in v for v in report.violations)

    def test_cv_k_warning_uses_session_metadata(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        meta = json.dumps({"learners": ["a", "b", "c"]}).encode()
        r = make_registry(
            tmp_path,
            {
                "tiny": [
                    ("s1", "2020-01-06", {"events.csv": b"x", "session.json": meta}),
                ]
            },
        )
        m = default_manifest(
            experiment_name="exp",
            selector=DatasetSelector(kind="whole_course", course_id="tiny"),
            eval_config=EvalConfig(scheme="cross_validation", k=5),
            seed=1,
            feature_weeks=2,
        )
        report = validate_manifest(m, r)
        assert report.ok  # warning, not violation
        assert any("exceeds pooled learner count" in w for w in report.warnings)

    def test_cv_k_warning_counts_only_the_cv_session(self, tmp_path):
        from relab.manifest import EvalConfig, default_manifest, validate_manifest

        def meta(n):
            return json.dumps({"learners": [f"l{i}" for i in range(n)]}).encode()

        r = make_registry(
            tmp_path,
            {
                "two": [
                    ("s1", "2020-01-06", {"events.csv": b"x", "session.json": meta(3)}),
                    ("s2", "2020-06-01", {"events.csv": b"y", "session.json": meta(6)}),
                ]
            },
        )

        def warnings(scheme):
            m = default_manifest(
                experiment_name="exp",
                selector=DatasetSelector(kind="whole_course", course_id="two"),
                eval_config=EvalConfig(scheme=scheme, k=5),
                seed=1,
                feature_weeks=2,
            )
            report = validate_manifest(m, r)
            assert report.ok
            return report.warnings

        # both: folds split s1 (3 learners), although 9 are pooled
        (warning,) = warnings("both")
        assert "exceeds pooled learner count 3" in warning and "'s1'" in warning
        # cross-validation alone: folds split s2 (6 learners)
        assert warnings("cross_validation") == ()
