"""Tests for sandboxed stage execution."""

import ast
import contextlib
import hashlib
import json
import os
import shutil
import signal
import stat
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import relab
import relab.executor as executor
from relab.executor import (
    BACKEND_CONTAINER,
    STATUS_FAILED,
    STATUS_POLICY_VIOLATION,
    STATUS_SUCCEEDED,
    STATUS_TIMEOUT,
    ZYGOTE_PRELOAD,
    ExecutorBackend,
    ExecutorError,
    SandboxSpec,
    StageZygote,
    ZygoteCall,
    build_command,
    collect_outputs,
    run_stage,
    stage_environment,
)
from relab.hashing import sha256_file
from relab.provenance import CacheStore
from relab.manifest import DEFAULT_STAGE_COMMAND, StageSpec
from relab.refpipe import Hyperparams
from relab.registry import AccessPolicy
from relab.synthdata import SynthConfig, generate_session

from conftest import exited


def make_sandbox(tmp_path, **overrides):
    dirs = {}
    for name in ("data", "scratch", "out"):
        d = tmp_path / name
        d.mkdir(exist_ok=True)
        dirs[name] = d
    kwargs = dict(
        data_mount=dirs["data"],
        scratch_dir=dirs["scratch"],
        output_dir=dirs["out"],
        env={
            "STAGE": "extract",
            "COURSE_ID": "course000",
            "SESSION_ID": "course000-run0",
            "SEED": "7",
        },
    )
    kwargs.update(overrides)
    return SandboxSpec(**kwargs)


def sh_stage(script, outputs=(), timeout=30.0, name="extract"):
    return StageSpec(
        name=name,
        command=("/bin/sh", "-c", script),
        timeout=timeout,
        outputs=tuple(outputs),
    )


BACKEND = ExecutorBackend()
CHECKOUT = Path(__file__).resolve().parents[1]


class TestSandboxSpec:
    def test_valid(self, tmp_path):
        sb = make_sandbox(tmp_path)
        assert sb.data_mount.is_dir()

    def test_relative_path_rejected(self, tmp_path):
        with pytest.raises(ExecutorError, match="absolute"):
            make_sandbox(tmp_path, scratch_dir="scratch")

    def test_nested_paths_rejected(self, tmp_path):
        inner = tmp_path / "data" / "inner"
        (tmp_path / "data").mkdir(exist_ok=True)
        inner.mkdir()
        with pytest.raises(ExecutorError, match="disjoint"):
            make_sandbox(tmp_path, output_dir=inner)

    @pytest.mark.parametrize("missing", ["STAGE", "COURSE_ID", "SESSION_ID", "SEED"])
    def test_missing_env_key_rejected(self, tmp_path, missing):
        env = {
            "STAGE": "extract",
            "COURSE_ID": "c",
            "SESSION_ID": "s",
            "SEED": "1",
        }
        del env[missing]
        with pytest.raises(ExecutorError, match=missing):
            make_sandbox(tmp_path, env=env)


class TestExecutorBackend:
    def test_local_default(self):
        backend = ExecutorBackend()
        assert backend.kind == "local_process"

    @pytest.mark.parametrize(
        "template",
        [
            ("runner", "{IMAGE}", "{DATA_MOUNT}"),  # missing OUTPUT_DIR
            ("runner", "{IMAGE}", "{IMAGE}", "{DATA_MOUNT}", "{OUTPUT_DIR}"),
        ],
    )
    def test_container_placeholder_counts(self, template):
        with pytest.raises(ExecutorError, match="exactly once"):
            ExecutorBackend(runtime_command_template=template)

    def test_container_valid_template(self):
        backend = ExecutorBackend(
            runtime_command_template=(
                "runner",
                "--image={IMAGE}",
                "-v",
                "{DATA_MOUNT}:/data:ro",
                "-v",
                "{OUTPUT_DIR}:/out",
            ),
        )
        assert backend.kind == BACKEND_CONTAINER

    def test_build_command_substitution(self, tmp_path):
        sb = make_sandbox(tmp_path, image_ref="img:1")
        backend = ExecutorBackend(
            runtime_command_template=(
                "runner",
                "--image={IMAGE}",
                "{DATA_MOUNT}",
                "{OUTPUT_DIR}",
            ),
        )
        stage = sh_stage("true", outputs=["x.csv"])
        cmd = build_command(stage, sb, backend)
        assert cmd[:4] == (
            "runner",
            "--image=img:1",
            str(sb.data_mount),
            str(sb.output_dir),
        )
        assert cmd[4:] == stage.command

    def test_build_command_local_passthrough(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage("true", outputs=["x.csv"])
        assert build_command(stage, sb, BACKEND) == stage.command


class TestStageEnvironment:
    def test_contract_variables(self, tmp_path):
        sb = make_sandbox(tmp_path)
        env = stage_environment(sb)
        assert env["STAGE"] == "extract"
        assert env["COURSE_ID"] == "course000"
        assert env["SESSION_ID"] == "course000-run0"
        assert env["SEED"] == "7"
        assert env["DATA_DIR"] == str(sb.data_mount)
        assert env["OUTPUT_DIR"] == str(sb.output_dir)
        assert env["SCRATCH_DIR"] == str(sb.scratch_dir)

    def test_parent_env_scrubbed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECRET_TOKEN", "hunter2")
        env = stage_environment(make_sandbox(tmp_path))
        assert "SECRET_TOKEN" not in env

    def test_relative_pythonpath_made_absolute(self, tmp_path, monkeypatch):
        parent = tmp_path / "parent"
        (parent / "src").mkdir(parents=True)
        absolute = str(tmp_path / "elsewhere")
        monkeypatch.chdir(parent)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["src", "", absolute]))
        env = stage_environment(make_sandbox(tmp_path))
        entries = env["PYTHONPATH"].split(os.pathsep)
        assert all(os.path.isabs(entry) for entry in entries)
        resolved = [Path(entry).resolve() for entry in entries[:2]]
        assert resolved == [(parent / "src").resolve(), parent.resolve()]
        assert entries[2] == absolute

    def test_pythonpath_absent_when_unset(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PYTHONPATH", raising=False)
        env = stage_environment(make_sandbox(tmp_path))
        assert "PYTHONPATH" not in env


class TestRunStage:
    def test_success_digests_outputs(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage('printf hello > "$OUTPUT_DIR/out.csv"', outputs=["out.csv"])
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        assert result.exit_code == 0
        expected = hashlib.sha256(b"hello").hexdigest()
        assert result.output_digests == {"out.csv": expected}

    def test_runs_in_scratch_with_contract_env(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            'printf "%s\\n%s\\n%s\\n%s\\n" "$(pwd)" "$STAGE" "$SEED" '
            '"$DATA_DIR" > "$OUTPUT_DIR/env.csv"',
            outputs=["env.csv"],
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        lines = (sb.output_dir / "env.csv").read_text().splitlines()
        assert lines[0] == str(sb.scratch_dir.resolve())
        assert lines[1] == "extract"
        assert lines[2] == "7"
        assert lines[3] == str(sb.data_mount)

    def test_log_captures_exact_bytes(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            'printf "alpha\\n"; printf "beta\\n" >&2; printf "gamma"',
            outputs=(),
            name="evaluate",
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        log_bytes = result.log_path.read_bytes()
        assert log_bytes == b"alpha\nbeta\ngamma"
        assert result.log_digest == hashlib.sha256(log_bytes).hexdigest()

    def test_relative_pythonpath_finds_package(self, tmp_path, monkeypatch):
        monkeypatch.chdir(CHECKOUT)
        monkeypatch.setenv("PYTHONPATH", "src")
        sb = make_sandbox(tmp_path)
        stage = StageSpec(
            name="evaluate",
            command=("python3", "-c", "import relab.refpipe"),
            timeout=30.0,
            outputs=(),
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED, result.log_path.read_text()

    def test_nonzero_exit_fails(self, tmp_path):
        sb = make_sandbox(tmp_path)
        result = run_stage(sh_stage("exit 3", outputs=["x.csv"]), sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert result.exit_code == 3
        assert "exit code 3" in result.detail

    def test_missing_declared_output_fails(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            'printf a > "$OUTPUT_DIR/a.csv"', outputs=["a.csv", "b.csv"]
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert "missing output" in result.detail
        assert "b.csv" in result.detail
        assert list(result.output_digests) == ["a.csv"]

    def test_output_that_is_a_link_fails(self, tmp_path):
        host = tmp_path / "host.csv"
        host.write_text("not the stage's\n")
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            f'printf a > "$OUTPUT_DIR/a.csv" && ln -s {host} "$OUTPUT_DIR/b.csv"',
            outputs=["a.csv", "b.csv"],
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert result.detail == "output b.csv is a link"
        assert list(result.output_digests) == ["a.csv"]

    def test_output_behind_a_linked_directory_fails(self, tmp_path):
        # a link out of OUTPUT_DIR and one within it are refused alike
        host = tmp_path / "host"
        host.mkdir()
        (host / "b.csv").write_text("not the stage's\n")
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            'mkdir "$OUTPUT_DIR/own" && printf a > "$OUTPUT_DIR/own/a.csv" '
            f'&& ln -s {host} "$OUTPUT_DIR/sub" && ln -s own "$OUTPUT_DIR/mine"',
            outputs=["own/a.csv", "sub/b.csv", "mine/a.csv"],
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert result.detail == (
            "output sub/b.csv lies behind a linked directory; "
            "output mine/a.csv lies behind a linked directory"
        )
        assert list(result.output_digests) == ["own/a.csv"]

    def test_output_dir_swapped_for_a_link_is_not_followed(self, tmp_path):
        host = tmp_path / "host"
        host.mkdir()
        (host / "b.csv").write_text("not the stage's\n")
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            f'rmdir "$OUTPUT_DIR" && ln -s {host} "$OUTPUT_DIR"', outputs=["b.csv"]
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert result.detail == "missing output: ['b.csv']"
        assert result.outputs == {}

    def test_output_swapped_for_a_link_after_the_stage_is_not_read(self, tmp_path):
        # once the stage has run, its output is swapped for a link to a host
        # file; export and cache still get the bytes that were hashed
        host = tmp_path / "host.csv"
        host.write_text("not the stage's\n")
        sb = make_sandbox(tmp_path)
        stage = sh_stage('printf own > "$OUTPUT_DIR/x.csv"', outputs=["x.csv"])
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        (sb.output_dir / "x.csv").unlink()
        (sb.output_dir / "x.csv").symlink_to(host)
        collect_outputs(result.outputs, AccessPolicy(), tmp_path / "results")
        store = CacheStore(tmp_path / "cache")
        entry = store.put("ab" * 32, result.outputs)
        assert (tmp_path / "results" / "x.csv").read_bytes() == b"own"
        assert store.get_blob(entry.output_digests["x.csv"]) == b"own"

    def test_output_size_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor, "MAX_OUTPUT_BYTES", 4)
        sb = make_sandbox(tmp_path)
        stage = sh_stage('printf hello > "$OUTPUT_DIR/a.csv"', outputs=["a.csv"])
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_FAILED
        assert "limit 4" in result.detail

    def test_timeout_terminates(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage("sleep 30", outputs=["x.csv"], timeout=0.5)
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_TIMEOUT
        assert result.duration < 10.0

    @pytest.mark.parametrize(
        "end, timeout, status",
        [
            pytest.param('printf x > "$OUTPUT_DIR/x.csv"', 30.0, STATUS_SUCCEEDED,
                         id="clean-exit"),
            pytest.param("sleep 30", 0.5, STATUS_TIMEOUT, id="timeout"),
        ],
    )
    def test_background_child_ends_with_the_stage(
        self, tmp_path, end, timeout, status
    ):
        pid_file = tmp_path / "child.pid"
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            f"sleep 30 & echo $! > {pid_file}; {end}", outputs=["x.csv"],
            timeout=timeout,
        )
        result = run_stage(stage, sb, BACKEND)
        pid = int(pid_file.read_text())
        try:
            assert result.status == status
            deadline = time.monotonic() + 10.0
            while not exited(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert exited(pid)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize(
        "create",
        [
            pytest.param('printf x > "$DATA_DIR/new.txt"', id="file"),
            pytest.param('mkdir "$DATA_DIR/new.txt"', id="empty-dir"),
            pytest.param('ln -s /nonexistent "$DATA_DIR/new.txt"', id="dangling-link"),
            pytest.param('ln -s "$SCRATCH_DIR" "$DATA_DIR/new.txt"', id="link-to-dir"),
        ],
    )
    def test_create_in_mount_is_policy_violation(self, tmp_path, create):
        sb = make_sandbox(tmp_path)
        (sb.data_mount / "a.csv").write_text("orig")
        result = run_stage(sh_stage(create, outputs=(), name="evaluate"), sb, BACKEND)
        assert result.status == STATUS_POLICY_VIOLATION
        assert "created ['new.txt']" in result.detail

    def test_link_in_mount_is_not_followed_by_the_chmod(self, tmp_path):
        outside = tmp_path / "outside.csv"
        outside.write_text("x")
        outside.chmod(0o600)
        sb = make_sandbox(tmp_path)
        (sb.data_mount / "link.csv").symlink_to(outside)
        stage = sh_stage(
            f'stat -c %a {outside} > "$OUTPUT_DIR/mode.csv"',
            outputs=["mode.csv"],
            name="evaluate",
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        assert (sb.output_dir / "mode.csv").read_text() == "600\n"

    def test_link_swapped_for_a_file_is_modified_and_its_target_keeps_its_mode(
        self, tmp_path
    ):
        outside = tmp_path / "outside.csv"
        outside.write_text("x")
        outside.chmod(0o600)
        sb = make_sandbox(tmp_path)
        (sb.data_mount / "a.csv").write_text("orig")
        stage = sh_stage(
            f'rm -f "$DATA_DIR/a.csv"; ln -s {outside} "$DATA_DIR/a.csv"',
            outputs=(),
            name="evaluate",
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_POLICY_VIOLATION
        assert "modified ['a.csv']" in result.detail
        assert stat.S_IMODE(outside.stat().st_mode) == 0o600

    def test_delete_in_mount_is_policy_violation(self, tmp_path):
        sb = make_sandbox(tmp_path)
        (sb.data_mount / "a.csv").write_text("orig")
        stage = sh_stage('rm "$DATA_DIR/a.csv"', outputs=(), name="evaluate")
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_POLICY_VIOLATION
        assert "deleted" in result.detail

    def test_violation_outranks_clean_exit(self, tmp_path):
        # the stage hides its tracks behind exit 0; the sweep still sees it
        sb = make_sandbox(tmp_path)
        stage = sh_stage('printf x > "$DATA_DIR/new.txt"; exit 0', outputs=(), name="evaluate")
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_POLICY_VIOLATION

    def test_overwrite_never_passes_silently(self, tmp_path):
        # non-root: the chmod blocks the write and the stage fails on its
        # own error; root bypasses file modes, so the digest sweep must
        # catch the mutation instead. Either way the run is not clean.
        sb = make_sandbox(tmp_path)
        target = sb.data_mount / "a.csv"
        target.write_text("orig")
        mode_before = stat.S_IMODE(target.stat().st_mode)
        stage = sh_stage('printf evil > "$DATA_DIR/a.csv"', outputs=(), name="evaluate")
        result = run_stage(stage, sb, BACKEND)
        if os.geteuid() == 0:
            assert result.status == STATUS_POLICY_VIOLATION
            assert "modified" in result.detail
        else:
            assert result.status == STATUS_FAILED
            assert target.read_text() == "orig"
        assert stat.S_IMODE(target.stat().st_mode) == mode_before

    def test_scratch_and_output_writable(self, tmp_path):
        sb = make_sandbox(tmp_path)
        stage = sh_stage(
            'printf tmp > "$SCRATCH_DIR/w.tmp" && printf ok > "$OUTPUT_DIR/ok.csv"',
            outputs=["ok.csv"],
        )
        result = run_stage(stage, sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED

    def test_deterministic_reruns(self, tmp_path):
        script = 'printf "a,b\\n1,2\\n" > "$OUTPUT_DIR/t.csv"; printf done'
        results = []
        for sub in ("one", "two"):
            root = tmp_path / sub
            root.mkdir()
            sb = make_sandbox(root)
            results.append(run_stage(sh_stage(script, outputs=["t.csv"]), sb, BACKEND))
        assert results[0].output_digests == results[1].output_digests
        assert results[0].log_digest == results[1].log_digest

    def test_missing_directory_rejected(self, tmp_path):
        sb = make_sandbox(tmp_path)
        sb.output_dir.rmdir()
        with pytest.raises(ExecutorError, match="output_dir"):
            run_stage(sh_stage("true", outputs=["x.csv"]), sb, BACKEND)

    def test_container_template_end_to_end(self, tmp_path):
        # a stand-in runtime: checks its own flags, then execs the command
        runner = tmp_path / "fake_runtime.py"
        runner.write_text(
            "import os, sys\n"
            "image, mount, outdir = sys.argv[1:4]\n"
            "assert image and os.path.isdir(mount) and os.path.isdir(outdir)\n"
            "os.execvp(sys.argv[4], sys.argv[4:])\n"
        )
        backend = ExecutorBackend(
            runtime_command_template=(
                sys.executable,
                str(runner),
                "{IMAGE}",
                "{DATA_MOUNT}",
                "{OUTPUT_DIR}",
            ),
        )
        sb = make_sandbox(tmp_path, image_ref="img:test")
        stage = sh_stage('printf ok > "$OUTPUT_DIR/ok.csv"', outputs=["ok.csv"])
        result = run_stage(stage, sb, backend)
        assert result.status == STATUS_SUCCEEDED
        assert (sb.output_dir / "ok.csv").read_text() == "ok"


def zygote_children(zygote):
    path = Path(f"/proc/{zygote.pid}/task/{zygote.pid}/children")
    return path.read_text().split()


class TestStageZygote:
    def default_stage(self, timeout=30.0):
        return StageSpec(
            name="extract",
            command=DEFAULT_STAGE_COMMAND,
            timeout=timeout,
            outputs=("features.csv", "labels.csv"),
        )

    def test_forked_stage_fails_like_a_spawned_one(self, tmp_path, spawned):
        zygote = StageZygote()
        try:
            result = run_stage(
                self.default_stage(),
                make_sandbox(tmp_path),
                BACKEND,
                ZygoteCall(zygote),
            )
        finally:
            zygote.close()
        assert spawned == []
        assert result.status == STATUS_FAILED
        assert result.exit_code == 1
        assert result.detail == "exit code 1"
        assert b"extract stage failed" in result.log_path.read_bytes()

    def test_tiny_timeout_kills_the_forked_stage(self, tmp_path, spawned):
        zygote = StageZygote()
        try:
            # the first run starts the zygote; the second blocks opening a
            # FIFO, which the mount sweep records by its type without reading
            for name in ("warm", "hang"):
                (tmp_path / name).mkdir()
            run_stage(
                self.default_stage(),
                make_sandbox(tmp_path / "warm"),
                BACKEND,
                ZygoteCall(zygote),
            )
            sb = make_sandbox(tmp_path / "hang")
            os.mkfifo(sb.data_mount / "params.json")
            result = run_stage(
                self.default_stage(timeout=0.2), sb, BACKEND, ZygoteCall(zygote)
            )
            assert spawned == []
            assert result.status == STATUS_TIMEOUT
            assert result.exit_code == -signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while zygote_children(zygote) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert zygote_children(zygote) == []
            pid = zygote.pid
        finally:
            zygote.close()
        assert zygote.pid is None
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_timeout_past_what_poll_takes(self, tmp_path, spawned):
        sb = make_sandbox(tmp_path)
        generate_session(SynthConfig(learners_per_session=40), 0, 0).write_dir(
            sb.data_mount, course_id="course000"
        )
        (sb.data_mount / "params.json").write_text('{"feature_weeks": 2}')
        zygote = StageZygote()
        try:
            result = run_stage(
                self.default_stage(timeout=1e308),
                sb,
                BACKEND,
                ZygoteCall(zygote),
            )
        finally:
            zygote.close()
        assert spawned == []
        assert result.status == STATUS_SUCCEEDED, result.detail

    def test_a_hung_start_gives_up_at_the_start_limit(
        self, tmp_path, monkeypatch, spawned
    ):
        # the start holds the zygote's lock, so it is bounded by its own
        # limit, not by the stage's timeout
        monkeypatch.setattr(executor, "_ZYGOTE_CODE", "import time; time.sleep(30)")
        monkeypatch.setattr(executor, "ZYGOTE_START_SECONDS", 0.5)
        zygote = StageZygote()
        started = time.monotonic()
        try:
            result = run_stage(
                self.default_stage(timeout=1e308),
                make_sandbox(tmp_path),
                BACKEND,
                ZygoteCall(zygote),
            )
        finally:
            zygote.close()
        assert time.monotonic() - started < 20.0
        assert len(spawned) == 1 and zygote.pid is None
        assert result.detail == "exit code 1"

    def test_custom_command_and_container_spawn(self, tmp_path, spawned):
        zygote = StageZygote()
        container = ExecutorBackend(
            runtime_command_template=(
                "/bin/sh", "-c", 'exit 0', "{IMAGE}", "{DATA_MOUNT}", "{OUTPUT_DIR}",
            ),
        )
        try:
            run_stage(
                sh_stage("exit 0", name="evaluate"),
                make_sandbox(tmp_path),
                BACKEND,
                ZygoteCall(zygote),
            )
            run_stage(
                StageSpec(
                    name="evaluate",
                    command=DEFAULT_STAGE_COMMAND,
                    timeout=30.0,
                    outputs=(),
                ),
                make_sandbox(tmp_path),
                container,
                ZygoteCall(zygote),
            )
            assert zygote.pid is None
        finally:
            zygote.close()
        assert [c[0] for c in spawned] == ["/bin/sh", "/bin/sh"]

    def test_preload_holds_every_module_a_stage_imports(self, tmp_path, children):
        # every run is a fresh interpreter that first imports what a zygote
        # without the preload list would hold: relab.refpipe; it prints the
        # modules that the preload list, or one stage, adds to that
        script = (
            "import importlib, json, os, sys\n"
            "import relab.refpipe\n"
            "before = set(sys.modules)\n"
            "request = json.loads(sys.argv[1])\n"
            "for name in request.get('preload', ()):\n"
            "    importlib.import_module(name)\n"
            "code = 0\n"
            "if 'env' in request:\n"
            "    os.environ.clear()\n"
            "    os.environ.update(request['env'])\n"
            "    code = relab.refpipe.run_stage_from_env()\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
        )

        def run(request):
            child = children.start(script, json.dumps(request))
            return json.loads(children.finish(child))

        folds = {"fold_count": 3, "fold_index": 1, "fold_seed": 5}
        log = generate_session(SynthConfig(learners_per_session=40), 0, 0)
        features = {
            Path("sessions", log.session_id, n): ("extract", n)
            for n in ("features.csv", "labels.csv")
        }
        inputs = {  # stage -> (params, {input path: (stage, its output)})
            "extract": ({"feature_weeks": 2}, {}),
            "train": (
                dict(folds, hyperparams=asdict(Hyperparams(max_iterations=20))),
                features,
            ),
            "test": (
                folds, {**features, Path("model/model.json"): ("train", "model.json")}
            ),
            "evaluate": (
                {"course_id": "course000", "week": 2,
                 "schemes": ["holdout", "cross_validation"]},
                {Path("preds", d, "predictions.csv"): ("test", "predictions.csv")
                 for d in ("holdout", "cv_fold_1")},
            ),
        }
        added = {}
        for stage, (params, files) in inputs.items():
            data, out = tmp_path / stage / "data", tmp_path / stage / "out"
            out.mkdir(parents=True)
            if stage == "extract":
                log.write_dir(data, course_id="course000")
            for rel, (source, name) in files.items():
                (data / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(tmp_path / source / "out" / name, data / rel)
            (data / "params.json").write_text(json.dumps(params))
            env = {
                "STAGE": stage, "COURSE_ID": "course000", "SESSION_ID": log.session_id,
                "SEED": "7", "DATA_DIR": str(data), "OUTPUT_DIR": str(out),
                "SCRATCH_DIR": str(out),
            }
            code, added[stage] = run({"env": env})
            assert code == 0, stage
        assert added["extract"] and added["train"]  # numpy's lazy modules
        _, preloaded = run({"preload": ZYGOTE_PRELOAD})
        assert {s: sorted(set(m) - set(preloaded)) for s, m in added.items()} == {
            s: [] for s in inputs
        }


@pytest.mark.parametrize("path", ["spawned", "forked"])
def test_a_stage_that_ignores_the_terminate_is_killed_after_the_grace(
    tmp_path, monkeypatch, spawned, path
):
    monkeypatch.setattr(executor, "TIMEOUT_GRACE_SECONDS", 0.3)
    sb = make_sandbox(tmp_path)
    zygote = StageZygote()
    try:
        if path == "spawned":
            stage = sh_stage("trap '' TERM; sleep 30", outputs=["x.csv"], timeout=0.3)
        else:
            # forks keep the zygote's ignored SIGTERM; a first run starts the
            # zygote, then the stage blocks opening a FIFO, which the mount
            # sweep records by its type
            monkeypatch.setattr(
                executor, "_ZYGOTE_CODE",
                "import signal; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
                + executor._ZYGOTE_CODE,
            )
            stage = StageSpec(name="extract", command=DEFAULT_STAGE_COMMAND,
                              timeout=0.3, outputs=("features.csv",))
            run_stage(replace(stage, timeout=30.0), sb, BACKEND, ZygoteCall(zygote))
            os.mkfifo(sb.data_mount / "params.json")
        started = time.monotonic()
        result = run_stage(stage, sb, BACKEND, ZygoteCall(zygote))
    finally:
        zygote.close()
    assert time.monotonic() - started < 5.0
    assert len(spawned) == (1 if path == "spawned" else 0)
    assert result.status == STATUS_TIMEOUT
    assert result.exit_code == -signal.SIGKILL


class TestCollectOutputs:
    def run_ok(self, tmp_path, script, outputs):
        sb = make_sandbox(tmp_path)
        result = run_stage(sh_stage(script, outputs=outputs), sb, BACKEND)
        assert result.status == STATUS_SUCCEEDED
        return sb, result

    def test_allowlisted_outputs_copied(self, tmp_path):
        sb, result = self.run_ok(
            tmp_path,
            'printf m > "$OUTPUT_DIR/metrics.json" && printf p > "$OUTPUT_DIR/p.csv"',
            ["metrics.json", "p.csv"],
        )
        dest = tmp_path / "store"
        exported, decisions = collect_outputs(
            result.outputs, AccessPolicy(), dest
        )
        assert set(exported) == {"metrics.json", "p.csv"}
        assert (dest / "metrics.json").read_text() == "m"
        assert all(d.allowed for d in decisions)

    def test_non_allowlisted_denied_with_reason(self, tmp_path):
        sb, result = self.run_ok(
            tmp_path,
            'printf b > "$OUTPUT_DIR/weights.bin" && printf m > "$OUTPUT_DIR/metrics.json"',
            ["weights.bin", "metrics.json"],
        )
        dest = tmp_path / "store"
        exported, decisions = collect_outputs(
            result.outputs, AccessPolicy(), dest
        )
        assert exported == ("metrics.json",)
        denied = {d.path: d.reason for d in decisions if not d.allowed}
        assert denied == {"weights.bin": "not allowlisted"}
        assert not (dest / "weights.bin").exists()

    def test_quota_denial(self, tmp_path):
        sb, result = self.run_ok(
            tmp_path,
            'printf aaaaaaaa > "$OUTPUT_DIR/a.csv" && printf bb > "$OUTPUT_DIR/b.csv"',
            ["a.csv", "b.csv"],
        )
        policy = AccessPolicy(max_export_bytes=9)
        exported, decisions = collect_outputs(
            result.outputs, policy, tmp_path / "store"
        )
        assert exported == ("a.csv",)
        reasons = {d.path: d.reason for d in decisions if not d.allowed}
        assert "quota" in reasons["b.csv"]


def test_no_module_signals_a_process_by_its_pid():
    # a pid may be free, or another process's, by the time a signal is
    # sent; stages are signalled by a pidfd or an unreaped group leader
    callers = []
    for path in sorted(Path(relab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "kill"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
