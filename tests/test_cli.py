"""Tests for the command-line frontend: exit codes, output bytes, fork."""

import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

import relab
from relab.cli import Engine, apply_overrides, run
from relab.manifest import (
    DatasetSelector,
    EvalConfig,
    ManifestError,
    default_manifest,
    parse_manifest,
    render_manifest,
)
from relab.provenance import (
    IntegrityError,
    export_bundle,
    manifest_for_trial,
    record_trial,
)

SYNTH_CFG = {
    "num_courses": 1,
    "sessions_per_course": 3,
    "num_weeks": 2,
    "learners_per_session": 30,
    "seed": 11,
}

HEX64 = re.compile(r"^[0-9a-f]{64}$")


def cli(capsys, *argv):
    """Run one invocation; returns (exit_code, stdout, stderr)."""
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_manifest_text(seed=5, scheme="both", k=2, weeks=1):
    manifest = default_manifest(
        experiment_name="cli-check",
        selector=DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme=scheme, k=None if scheme == "holdout" else k),
        seed=seed,
        feature_weeks=weeks,
    )
    return render_manifest(manifest)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A state root with a registered corpus, built through the CLI."""
    base = tmp_path_factory.mktemp("cli")
    state = base / "state"
    cfg_path = base / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    manifest_path = base / "manifest.json"
    manifest_path.write_text(make_manifest_text())

    assert run(["--root", str(state), "synth", "--config", str(cfg_path),
                "--out", str(state / "registry")]) == 0
    assert run(["--root", str(state), "register", "--descriptor",
                str(state / "registry" / "descriptors")]) == 0
    return {"state": state, "manifest": manifest_path, "base": base}


@pytest.fixture(scope="module")
def submitted(root, tmp_path_factory):
    """One successful job, shared by the read-only tests."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["--root", str(root["state"]), "submit",
                    "--manifest", str(root["manifest"])])
    lines = buf.getvalue().splitlines()
    assert code == 0
    return {"job_id": lines[0], "trial_id": lines[1].split()[1]}


class TestSubmit:
    def test_prints_job_then_trial(self, root, submitted):
        assert re.match(r"^job-\d{6}$", submitted["job_id"])
        assert HEX64.match(submitted["trial_id"])

    def test_invalid_manifest_exits_1(self, root, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment_name": ""}')
        code, out, err = cli(capsys, "--root", root["state"], "submit",
                             "--manifest", bad)
        assert code == 1
        assert "submit failed" in err

    @pytest.mark.parametrize("course_id", [7, ["a"]], ids=["number", "list"])
    def test_selector_id_that_is_no_string_exits_1(
        self, root, tmp_path, capsys, course_id
    ):
        doc = json.loads(make_manifest_text())
        doc["dataset_selector"] = {"kind": "whole_course", "course_id": course_id}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = cli(capsys, "--root", root["state"], "submit",
                           "--manifest", bad)
        assert code == 1
        assert "submit failed: selector course_id must be a string" in err

    def test_missing_manifest_file_exits_1(self, root, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "submit",
                           "--manifest", root["base"] / "nope.json")
        assert code == 1
        assert "submit failed" in err

    def test_bad_parallelism_exits_1(self, root, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "submit",
                           "--manifest", root["manifest"], "--parallelism", 0)
        assert code == 1
        # the job it submitted ends failed, with the cause in its event log
        job_dir = max((root["state"] / "engine" / "jobs").iterdir())
        _, out, _ = cli(capsys, "--root", root["state"], "status", job_dir.name)
        assert json.loads(out)["phase"] == "failed"
        events = (job_dir / "events.jsonl").read_text().splitlines()
        errors = [e["error"] for e in map(json.loads, events) if e["event"] == "error"]
        assert errors == ["SchedulerError: parallelism must be a positive integer"]


class TestStatus:
    def test_reports_phase_and_counts(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "status",
                           submitted["job_id"])
        assert code == 0
        state = json.loads(out)
        assert state["phase"] == "succeeded"
        assert state["job_id"] == submitted["job_id"]
        assert sum(state["counts"].values()) == len(state["unit_states"])
        assert state["counts"]["failed"] == 0

    def test_unknown_job_exits_1(self, root, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "status", "job-999999")
        assert code == 1

    @pytest.mark.parametrize("command", ["status", "results"])
    @pytest.mark.parametrize("job_id", ["..", "."])
    def test_dot_job_id_is_unknown(self, root, capsys, command, job_id):
        code, out, err = cli(capsys, "--root", root["state"], command, job_id)
        assert (code, out) == (1, "")
        assert "unknown job" in err


class TestResults:
    def test_csv_byte_stable(self, root, submitted, capsys):
        first = cli(capsys, "--root", root["state"], "results",
                    submitted["job_id"], "--format", "csv")
        second = cli(capsys, "--root", root["state"], "results",
                     submitted["job_id"], "--format", "csv")
        assert first == second
        code, out, _ = first
        assert code == 0
        assert out.splitlines()[0] == "course_id,week,scheme,auc,ci_lo,ci_hi"

    def test_json_byte_stable_and_parses(self, root, submitted, capsys):
        first = cli(capsys, "--root", root["state"], "results",
                    submitted["job_id"], "--format", "json")
        second = cli(capsys, "--root", root["state"], "results",
                     submitted["job_id"], "--format", "json")
        assert first == second
        report = json.loads(first[1])
        assert {"aggregate", "ci_level", "metadata", "rows"} <= set(report)

    def test_non_terminal_job_exits_1(self, root, capsys):
        from relab.manifest import parse_manifest

        engine = Engine(root["state"])
        job_id = engine.scheduler.submit(parse_manifest(make_manifest_text(seed=99)))
        code, _, err = cli(capsys, "--root", root["state"], "results", job_id)
        assert code == 1
        assert "not terminal" in err

    def test_unknown_job_exits_1(self, root, capsys):
        code, _, _ = cli(capsys, "--root", root["state"], "results", "job-424242")
        assert code == 1

    def test_job_whose_stored_manifest_no_longer_parses(self, root, capsys):
        # as an engine that let evaluate declare no metrics.json stored it
        engine = Engine(root["state"])
        job_id = engine.scheduler.submit(parse_manifest(make_manifest_text(seed=98)))
        path = engine.scheduler.jobs_dir / job_id / "manifest.json"
        doc = json.loads(path.read_text())
        doc["stages"][-1]["outputs"] = []
        path.write_text(json.dumps(doc))

        code, out, _ = cli(capsys, "--root", root["state"], "status", job_id)
        assert (code, json.loads(out)["phase"]) == (0, "queued")
        engine.scheduler.cancel(job_id)
        assert engine.scheduler.status(job_id).phase == "cancelled"
        code, out, err = cli(capsys, "--root", root["state"], "results", job_id)
        assert (code, out) == (1, "")
        assert f"job {job_id} has a manifest that no longer parses" in err
        assert "must declare 'metrics.json'" in err

    def test_corrupt_metrics_blob_exits_1(self, root, submitted, tmp_path, capsys):
        # the report reads each evaluate unit's metrics.json from the cache
        state = tmp_path / "state"
        shutil.copytree(root["state"], state)
        job_dir = state / "engine" / "jobs" / submitted["job_id"]
        digest = next(iter(json.loads((job_dir / "report.json").read_text())
                           ["eval_artifacts"].values()))
        Engine(state).scheduler.cache.blob_path(digest).write_bytes(b"tampered")
        code, _, err = cli(capsys, "--root", state, "results", submitted["job_id"])
        assert code == 1
        assert "blob corrupt on disk" in err


class TestFork:
    def test_no_override_fork_reproduces_trial(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] != submitted["job_id"]
        assert lines[1] == f"trial {submitted['trial_id']}"

    def test_override_changes_trial(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set", "seed=6")
        assert code == 0
        forked = out.splitlines()[1].split()[1]
        assert HEX64.match(forked)
        assert forked != submitted["trial_id"]

    def test_override_reaches_a_stage_field(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set", "stages.1.timeout=5")
        assert code == 0
        forked = out.splitlines()[1].split()[1]
        assert HEX64.match(forked)
        assert forked != submitted["trial_id"]
        engine = Engine(root["state"])
        manifest = manifest_for_trial(engine.ledger.get(forked), engine.cache)
        assert [s.timeout for s in manifest.stages] == [600.0, 5.0, 600.0, 600.0]

    def test_override_selects_a_course_by_its_text(self, root, submitted, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set",
                           "dataset_selector.kind=whole_course",
                           "--set", "dataset_selector.course_id=7")
        assert code == 1
        assert "unknown course '7'" in err

    def test_unknown_source_exits_1(self, root, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "fork", "nope")
        assert code == 1
        assert "fork failed" in err

    def test_file_that_is_no_tar_exits_1(self, root, tmp_path, capsys):
        bogus = tmp_path / "bogus.tar"
        bogus.write_bytes(b"not a tar archive\n" * 64)
        code, _, err = cli(capsys, "--root", root["state"], "fork", bogus)
        assert code == 1
        assert "fork failed" in err and "not a tar archive" in err

    def test_bundle_whose_trial_is_no_record_exits_1(self, root, tmp_path, capsys):
        bundle = tmp_path / "list.tar"
        with tarfile.open(bundle, "w") as tar:
            for name, data in (("trial.json", b"[1,2]"), ("manifest.json", b"{}"),
                               ("manifest.canonical", b"{}")):
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        code, _, err = cli(capsys, "--root", root["state"], "fork", bundle)
        assert code == 1
        assert "fork failed" in err and "not a trial record" in err

    def test_bad_override_exits_1(self, root, submitted, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set", "not_a_field=1")
        assert code == 1
        assert "fork failed" in err

    def test_non_finite_override_exits_1(self, root, submitted, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set", "stages.1.timeout=NaN")
        assert code == 1
        assert "NaN is not a JSON number" in err

    def test_fork_from_bundle_in_fresh_root(self, root, submitted,
                                            tmp_path, capsys):
        bundle_dir = tmp_path / "bundles"
        bundle_dir.mkdir()
        code, out, _ = cli(capsys, "--root", root["state"], "bundle",
                           submitted["trial_id"], "--out", bundle_dir)
        assert code == 0
        bundle_path = out.split()[1]

        fresh = tmp_path / "fresh"
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        assert cli(capsys, "--root", fresh, "synth", "--config", cfg_path,
                   "--out", fresh / "registry")[0] == 0
        assert cli(capsys, "--root", fresh, "register", "--descriptor",
                   fresh / "registry" / "descriptors")[0] == 0

        code, out, _ = cli(capsys, "--root", fresh, "fork", bundle_path)
        assert code == 0
        # identical data + manifest + engine: the rerun lands on the
        # same trial identity with byte-identical outputs
        assert out.splitlines()[1] == f"trial {submitted['trial_id']}"


class TestCompare:
    def test_identical_trials_exit_0(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "compare",
                           "--a", submitted["trial_id"],
                           "--b", submitted["trial_id"])
        assert code == 0
        summary = json.loads(out)
        assert all(v for k, v in summary.items() if k.endswith("_equal"))

    def test_different_trials_exit_2(self, root, submitted, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "fork",
                           submitted["trial_id"], "--set", "seed=8")
        assert code == 0
        other = out.splitlines()[1].split()[1]
        code, out, _ = cli(capsys, "--root", root["state"], "compare",
                           "--a", submitted["trial_id"], "--b", other)
        assert code == 2
        summary = json.loads(out)
        assert summary["data_equal"] is True
        assert summary["manifest_equal"] is False
        assert summary["eval_equal"] is False

    def test_metrics_of_a_later_course_reach_eval_equal(self, tmp_path, capsys):
        # two trials whose first course's metrics agree
        engine = Engine(tmp_path / "state")
        trials = []
        for name, later in (("a", b'{"auc": 0.8}'), ("b", b'{"auc": 0.9}')):
            metrics = {"course000": engine.cache.put_blob(b'{"auc": 0.7}'),
                       "course001": engine.cache.put_blob(later)}
            report = SimpleNamespace(
                phase="succeeded",
                data_digests=(),
                entries=tuple(
                    SimpleNamespace(unit_id=f"{c}:evaluate", stage="evaluate",
                                    output_digests={"metrics.json": d})
                    for c, d in metrics.items()
                ),
                eval_artifacts=metrics,
            )
            manifest = parse_manifest(make_manifest_text())
            manifest = dataclasses.replace(manifest, experiment_name=name)
            trials.append(record_trial(engine.ledger, report, manifest, engine.cache))
        code, out, _ = cli(capsys, "--root", tmp_path / "state", "compare",
                           "--a", trials[0].trial_id, "--b", trials[1].trial_id)
        assert code == 2
        assert json.loads(out)["eval_equal"] is False

    def test_unknown_trial_exits_1(self, root, submitted, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "compare",
                           "--a", submitted["trial_id"], "--b", "0" * 64)
        assert code == 1
        assert "unknown trial" in err


def session_descriptor(drop=None, **fields):
    """A one-session course descriptor, with one session field dropped or set."""
    session = {"session_id": "s1", "start_date": "2020-01-06", "num_weeks": 3,
               "files": []}
    session.update(fields)
    session.pop(drop, None)
    return {"course_id": "c9", "sessions": [session]}


MALFORMED_DESCRIPTORS = [
    pytest.param(["c9"], id="descriptor-not-an-object"),
    pytest.param({"course_id": "c9", "sessions": ["s1"]}, id="session-not-an-object"),
    pytest.param(session_descriptor(drop="start_date"), id="no-start-date"),
    pytest.param(session_descriptor(start_date="monday"), id="bad-start-date"),
    pytest.param(session_descriptor(drop="num_weeks"), id="no-num-weeks"),
    pytest.param(session_descriptor(num_weeks="three"), id="bad-num-weeks"),
    pytest.param(session_descriptor(files=[{"digest": "0" * 64}]), id="file-no-path"),
]


class TestSynthAndRegister:
    @pytest.mark.parametrize("descriptor", MALFORMED_DESCRIPTORS)
    def test_register_malformed_descriptor_exits_1(
        self, root, tmp_path, capsys, descriptor
    ):
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(descriptor))
        code, _, err = cli(capsys, "--root", root["state"], "register",
                           "--descriptor", path)
        assert code == 1
        assert err.startswith("register failed: ")

    @pytest.mark.parametrize("config", [None, "{not json"], ids=["missing", "not-json"])
    def test_synth_unreadable_config_exits_1(self, tmp_path, capsys, config):
        path = tmp_path / "synth.json"
        if config is not None:
            path.write_text(config)
        code, _, err = cli(capsys, "synth", "--config", path, "--out", tmp_path / "out")
        assert code == 1
        assert err.startswith("synth failed: ")

    def test_register_is_idempotent(self, root, capsys):
        code, out, _ = cli(capsys, "--root", root["state"], "register",
                           "--descriptor", root["state"] / "registry" / "descriptors")
        assert code == 0
        assert out.split() == ["course000"]

    def test_register_missing_descriptor_exits_1(self, root, tmp_path, capsys):
        code, _, err = cli(capsys, "--root", root["state"], "register",
                           "--descriptor", tmp_path / "empty")
        assert code == 1

    def test_synth_refuses_nonempty_target(self, root, capsys):
        cfg = root["base"] / "synth.json"
        code, _, err = cli(capsys, "--root", root["state"], "synth",
                           "--config", cfg, "--out", root["state"] / "registry")
        assert code == 1
        assert "synth failed" in err


    def test_module_entry_point_runs(self, tmp_path):
        src = Path(relab.__file__).resolve().parent.parent
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(src) + (
            os.pathsep + inherited if inherited else ""))
        env.pop("RELAB_ROOT", None)  # the default root is under the cwd
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(SYNTH_CFG))
        out = tmp_path / "corpus"
        proc = subprocess.run(
            [sys.executable, "-m", "relab.cli", "synth", "--config", str(cfg),
             "--out", str(out)],
            env=env, cwd=tmp_path, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "descriptors" / "course000.json").is_file()
        assert not (tmp_path / "relab-root").exists()  # synth opens no root


def build_root(state, base):
    """Synthesize and register the test corpus under `state`, via the CLI."""
    cfg_path = base / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    assert run(["--root", str(state), "synth", "--config", str(cfg_path),
                "--out", str(Path(state) / "registry")]) == 0
    assert run(["--root", str(state), "register", "--descriptor",
                str(Path(state) / "registry" / "descriptors")]) == 0


class TestSharedRoot:
    """Every surface over a root reads job and trial state from its files."""

    def test_second_engine_sees_the_first_engines_job(self, tmp_path, capsys):
        build_root(tmp_path / "state", tmp_path)
        capsys.readouterr()
        first, second = Engine(tmp_path / "state"), Engine(tmp_path / "state")
        manifest = parse_manifest(make_manifest_text())
        job_id = first.scheduler.submit(manifest)
        assert second.scheduler.status(job_id).phase == "queued"
        _, trial = first.finish_job(job_id, manifest)

        assert trial is not None
        assert second.scheduler.status(job_id) == first.scheduler.status(job_id)
        assert second.scheduler.status(job_id).trial_id == trial.trial_id
        assert (second.scheduler.eval_report(job_id).to_csv()
                == first.scheduler.eval_report(job_id).to_csv())
        assert second.ledger.get(trial.trial_id) == trial
        digests = [
            export_bundle(engine.ledger, engine.cache, trial.trial_id,
                          tmp_path / f"{name}.tar")[1]
            for name, engine in (("first", first), ("second", second))
        ]
        assert digests[0] == digests[1]

    def test_relative_root_runs_a_job(self, tmp_path, monkeypatch, capsys):
        # stages find relab through PYTHONPATH, which must survive the chdir
        monkeypatch.setenv("PYTHONPATH", str(Path(relab.__file__).parent.parent))
        monkeypatch.chdir(tmp_path)
        build_root("rel", Path("."))
        Path("manifest.json").write_text(make_manifest_text())
        capsys.readouterr()
        code, out, err = cli(capsys, "--root", "rel", "submit",
                             "--manifest", "manifest.json")
        assert code == 0, err
        assert out.splitlines()[1].startswith("trial ")

    def test_torn_ledger_tail_is_cut(self, tmp_path, capsys):
        state = tmp_path / "state"
        build_root(state, tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(make_manifest_text())
        capsys.readouterr()
        code, out, _ = cli(capsys, "--root", state, "submit", "--manifest", manifest)
        assert code == 0
        job_id = out.splitlines()[0]
        ledger = state / "engine" / "ledger.jsonl"
        with open(ledger, "ab") as fh:  # a writer killed mid-append
            fh.write(b'{"trial_id": "ab')

        code, _, _ = cli(capsys, "--root", state, "status", job_id)
        assert code == 0
        manifest.write_text(make_manifest_text(seed=6))
        code, out, _ = cli(capsys, "--root", state, "submit", "--manifest", manifest)
        assert code == 0
        lines = ledger.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[1]["trial_id"] == out.splitlines()[1].split()[1]

    def test_truncated_cache_entry_fails_the_job_with_its_cause(
        self, tmp_path, capsys
    ):
        state = tmp_path / "state"
        build_root(state, tmp_path)
        capsys.readouterr()
        engine = Engine(state)
        manifest = parse_manifest(make_manifest_text(scheme="holdout"))
        first_id, _, _ = engine.run_job(manifest)
        entry = min(engine.cache.entries_dir.iterdir())
        entry.write_bytes(entry.read_bytes()[:-20])  # a writer cut short

        cause = f"cache entry corrupt on disk: {entry}"
        with pytest.raises(IntegrityError) as raised:
            engine.run_job(manifest)
        assert str(raised.value) == cause
        jobs = engine.scheduler.jobs_dir.iterdir()
        (job_dir,) = [d for d in jobs if d.name != first_id]
        assert engine.scheduler.status(job_dir.name).phase == "failed"
        events = (job_dir / "events.jsonl").read_text().splitlines()
        errors = [e["error"] for e in map(json.loads, events) if e["event"] == "error"]
        assert errors == [f"IntegrityError: {cause}"]

    def test_submit_over_a_truncated_cache_entry_exits_3(self, tmp_path, capsys):
        state = tmp_path / "state"
        build_root(state, tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(make_manifest_text(scheme="holdout"))
        capsys.readouterr()
        code, _, _ = cli(capsys, "--root", state, "submit", "--manifest", manifest)
        assert code == 0
        entry = min((state / "engine" / "cache" / "entries").glob("*.json"))
        entry.write_bytes(entry.read_bytes()[:-20])

        code, _, err = cli(capsys, "--root", state, "submit", "--manifest", manifest)
        assert code == 3
        assert f"submit failed: cache entry corrupt on disk: {entry}" in err
        assert "Traceback" not in err

    def test_root_keeps_no_tmp_file_and_no_unended_log_line(self, tmp_path, capsys):
        state = tmp_path / "state"
        build_root(state, tmp_path)
        capsys.readouterr()
        engine = Engine(state)
        manifest = parse_manifest(make_manifest_text())
        _, cold, trial = engine.run_job(manifest)
        _, warm, again = engine.run_job(manifest)
        assert cold.phase == warm.phase == "succeeded"
        assert warm.cache_hits == len(warm.entries)
        assert again == trial
        export_bundle(engine.ledger, engine.cache, trial.trial_id,
                      state / "bundles" / "trial.tar")

        assert not list(state.rglob("*.tmp"))
        logs = list(state.rglob("*.jsonl"))
        assert len(logs) == 3  # two jobs' events and the ledger
        assert all(log.read_bytes().endswith(b"\n") for log in logs)


class TestOverrides:
    def setup_method(self):
        from relab.manifest import parse_manifest

        self.manifest = parse_manifest(make_manifest_text())

    def test_json_values_parse(self):
        out = apply_overrides(self.manifest, ["seed=6", "feature_weeks=2"])
        assert out.seed == 6
        assert out.feature_weeks == 2

    def test_strings_pass_through(self):
        out = apply_overrides(self.manifest, ["experiment_name=renamed"])
        assert out.experiment_name == "renamed"

    def test_names_and_selector_ids_keep_their_text(self):
        out = apply_overrides(self.manifest, [
            "experiment_name=1e3", "image_ref=true",
            "dataset_selector.kind=single_session",
            "dataset_selector.course_id=7", "dataset_selector.session_id=[1]",
        ])
        assert (out.experiment_name, out.image_ref) == ("1e3", "true")
        assert out.dataset_selector == DatasetSelector(
            kind="single_session", course_id="7", session_id="[1]"
        )
        back = apply_overrides(out, [
            "dataset_selector.kind=all_courses",
            "dataset_selector.course_id=null", "dataset_selector.session_id=null",
        ])
        assert back.dataset_selector == DatasetSelector(kind="all_courses")

    def test_dotted_path_reaches_nested_fields(self):
        out = apply_overrides(self.manifest, ["eval_config.k=3"])
        assert out.eval_config.k == 3

    def test_numeric_segment_indexes_the_stages(self):
        out = apply_overrides(self.manifest, [
            "stages.1.timeout=5", "stages.3.command=[\"python3\", \"x.py\"]",
        ])
        assert [s.timeout for s in out.stages] == [600.0, 5.0, 600.0, 600.0]
        assert out.stages[3].command == ("python3", "x.py")

    @pytest.mark.parametrize("key", [
        "stages.4.timeout", "stages.-1.timeout", "stages.x.timeout",
        "stages.1.outputs.0.x", "stages.1.timeout.x",
    ])
    def test_bad_stage_path_rejected(self, key):
        with pytest.raises(ManifestError, match="unknown override path"):
            apply_overrides(self.manifest, [f"{key}=5"])

    def test_stage_name_keeps_its_text(self):
        # read as JSON, 1e3 would become 1000.0; as text it names no stage
        with pytest.raises(ManifestError, match="unknown stage name '1e3'"):
            apply_overrides(self.manifest, ["stages.0.name=1e3"])
        out = apply_overrides(self.manifest, ["stages.0.name=extract"])
        assert out == self.manifest

    def test_unknown_field_rejected(self):
        with pytest.raises(ManifestError, match="unknown override field"):
            apply_overrides(self.manifest, ["bogus=1"])

    def test_unknown_path_rejected(self):
        with pytest.raises(ManifestError, match="unknown override path"):
            apply_overrides(self.manifest, ["bogus.deep=1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ManifestError, match="key=value"):
            apply_overrides(self.manifest, ["seed"])

    def test_invalid_result_rejected(self):
        with pytest.raises(ManifestError):
            apply_overrides(self.manifest, ["seed=-1"])
