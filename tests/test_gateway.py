"""Tests for the HTTP gateway and its equivalence with the command line."""

import dataclasses
import json
import socket
import threading

import pytest
import requests

from relab.cli import Engine, run
from relab.gateway import make_server
from relab.hashing import sha256_bytes
from relab.manifest import (
    DatasetSelector,
    EvalConfig,
    StageSpec,
    default_manifest,
    parse_manifest,
    render_manifest,
)
from relab.synthdata import SynthConfig, generate_and_register

CORPUS = SynthConfig(
    num_courses=1,
    sessions_per_course=3,
    num_weeks=2,
    learners_per_session=30,
    seed=11,
)


def manifest_text(seed=5):
    manifest = default_manifest(
        experiment_name="gateway-check",
        selector=DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme="both", k=2),
        seed=seed,
        feature_weeks=1,
    )
    return render_manifest(manifest)


def new_engine(path) -> Engine:
    engine = Engine(path)
    generate_and_register(CORPUS, engine.registry)
    return engine


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    """A live server over a fresh root; one executed job shared by tests."""
    engine = new_engine(tmp_path_factory.mktemp("gw") / "state")
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    response = requests.post(f"{base}/jobs", data=manifest_text().encode())
    assert response.status_code == 202
    job_id = response.json()["job_id"]
    server.wait_idle()

    yield {"base": base, "server": server, "engine": engine, "job_id": job_id}
    server.shutdown()


def raw_request(gateway, request: bytes):
    """Send bytes as they are; the reply's head and body once it closes."""
    port = gateway["server"].server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


class TestJobEndpoints:
    def test_submit_runs_to_success(self, gateway):
        response = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        assert response.status_code == 200
        state = response.json()
        assert state["phase"] == "succeeded"
        assert state["counts"]["failed"] == 0

    def test_invalid_manifest_is_400(self, gateway):
        response = requests.post(
            f"{gateway['base']}/jobs", data=b'{"experiment_name": ""}'
        )
        assert response.status_code == 400
        assert "stages" in response.json()["error"]

    @pytest.mark.parametrize("body", [
        pytest.param(
            json.dumps(dict(json.loads(manifest_text()), feature_weeks="abc")).encode(),
            id="wrongly-typed-field",
        ),
        pytest.param(b'\xff{"experiment_name": "x"}', id="not-utf-8"),
        *[
            pytest.param(
                json.dumps(dict(json.loads(manifest_text()), dataset_selector={
                    "kind": "whole_course", "course_id": course_id,
                })).encode(),
                id=f"course-id-{name}",
            )
            for name, course_id in (("number", 7), ("list", ["a"]))
        ],
    ])
    def test_malformed_body_is_400(self, gateway, body):
        response = requests.post(f"{gateway['base']}/jobs", data=body)
        assert response.status_code == 400
        assert response.json()["error"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, gateway, length):
        # a raw socket: an HTTP client would not send such a header; the
        # timeout fails a server that waits for the body instead of hanging
        head, body = raw_request(
            gateway,
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n{}",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("path", ["/jobs/..", "/jobs/.", "/jobs/../report"])
    def test_dot_job_id_is_404(self, gateway, path):
        # a raw socket: an HTTP client removes dot segments before sending
        head, body = raw_request(gateway, f"GET {path} HTTP/1.0\r\n\r\n".encode())
        assert head.startswith(b"HTTP/1.1 404 ")
        assert "unknown job" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, gateway):
        assert requests.get(f"{gateway['base']}/jobs/job-999999").status_code == 404

    def test_unknown_endpoint_is_404(self, gateway):
        assert requests.get(f"{gateway['base']}/nope").status_code == 404
        assert requests.post(f"{gateway['base']}/nope", data=b"x").status_code == 404

    def test_trial_id_header_present_after_success(self, gateway):
        response = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        trial_id = response.headers["X-Trial-Id"]
        assert gateway["engine"].ledger.get(trial_id) is not None

    def test_report_json_and_csv(self, gateway):
        base, job_id = gateway["base"], gateway["job_id"]
        as_json = requests.get(f"{base}/jobs/{job_id}/report")
        assert as_json.status_code == 200
        report = as_json.json()
        assert {"aggregate", "ci_level", "metadata", "rows"} <= set(report)
        as_csv = requests.get(f"{base}/jobs/{job_id}/report?format=csv")
        assert as_csv.status_code == 200
        assert as_csv.text.splitlines()[0] == "course_id,week,scheme,auc,ci_lo,ci_hi"

    def test_report_of_unknown_job_is_404(self, gateway):
        response = requests.get(f"{gateway['base']}/jobs/job-999999/report")
        assert response.status_code == 404

    def test_report_while_running_is_409(self, gateway):
        delay = ("/bin/sh", "-c", "sleep 1.0 && python3 -m relab.refpipe")
        manifest = default_manifest(
            experiment_name="slow",
            selector=DatasetSelector(kind="all_courses"),
            eval_config=EvalConfig(scheme="cross_validation", k=2),
            seed=3,
            feature_weeks=1,
        )
        manifest = dataclasses.replace(
            manifest,
            stages=tuple(
                StageSpec(name=s.name, command=delay, timeout=s.timeout,
                          outputs=s.outputs)
                for s in manifest.stages
            ),
        )
        response = requests.post(
            f"{gateway['base']}/jobs", data=render_manifest(manifest).encode()
        )
        assert response.status_code == 202
        job_id = response.json()["job_id"]
        report = requests.get(f"{gateway['base']}/jobs/{job_id}/report")
        assert report.status_code == 409
        assert report.json()["phase"] in ("queued", "planning", "running")
        gateway["server"].wait_idle()

    def test_bundle_digest_matches_body(self, gateway):
        response = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        trial_id = response.headers["X-Trial-Id"]
        bundle = requests.get(f"{gateway['base']}/trials/{trial_id}/bundle")
        assert bundle.status_code == 200
        assert bundle.headers["Content-Type"] == "application/x-tar"
        assert sha256_bytes(bundle.content) == bundle.headers["X-Bundle-Digest"]

    def test_bundle_of_unknown_trial_is_404(self, gateway):
        response = requests.get(f"{gateway['base']}/trials/{'0' * 64}/bundle")
        assert response.status_code == 404


class TestJobStateOnDisk:
    """What the gateway reports about a job comes from files under the root."""

    def test_second_server_sends_trial_id(self, gateway):
        first = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        server = make_server(Engine(gateway["engine"].root), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            response = requests.get(
                f"http://127.0.0.1:{server.server_address[1]}"
                f"/jobs/{gateway['job_id']}"
            )
        finally:
            server.shutdown()
        assert response.headers["X-Trial-Id"] == first.headers["X-Trial-Id"]
        assert response.content == first.content

    def test_job_thread_failure_logged(self, gateway, monkeypatch):
        def boom(job_id, parallelism=1):
            raise RuntimeError("executor exploded")

        monkeypatch.setattr(gateway["engine"].scheduler, "execute", boom)
        response = requests.post(f"{gateway['base']}/jobs",
                                 data=manifest_text(seed=6).encode())
        job_id = response.json()["job_id"]
        gateway["server"].wait_idle()

        status = requests.get(f"{gateway['base']}/jobs/{job_id}")
        assert status.json()["phase"] == "failed"
        assert "X-Trial-Id" not in status.headers
        events_path = gateway["engine"].scheduler.jobs_dir / job_id / "events.jsonl"
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        errors = [e["error"] for e in events if e["event"] == "error"]
        assert errors == ["RuntimeError: executor exploded"]


    def test_job_another_engine_ran_is_served(self, tmp_path):
        server = make_server(new_engine(tmp_path / "state"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        cli_engine = Engine(tmp_path / "state")  # what `relab submit` runs
        manifest = parse_manifest(manifest_text())
        try:
            job_id = cli_engine.scheduler.submit(manifest)
            assert requests.get(f"{base}/jobs/{job_id}").json()["phase"] == "queued"
            _, trial = cli_engine.finish_job(job_id, manifest)

            status = requests.get(f"{base}/jobs/{job_id}")
            report = requests.get(f"{base}/jobs/{job_id}/report")
            bundle = requests.get(f"{base}/trials/{trial.trial_id}/bundle")
        finally:
            server.shutdown()
        assert status.status_code == 200
        assert status.json()["phase"] == "succeeded"
        assert status.headers["X-Trial-Id"] == trial.trial_id
        assert report.status_code == 200
        assert bundle.status_code == 200
        assert bundle.headers["X-Bundle-Digest"] == sha256_bytes(bundle.content)


class TestWorkerThreads:
    def test_finished_job_threads_are_dropped(self):
        release = threading.Event()
        threads = {}

        class StubEngine:
            def finish_job(self, job_id, manifest, parallelism=1):
                threads[job_id] = threading.current_thread()
                if job_id == "third":
                    release.wait(timeout=30)

        server = make_server(StubEngine(), port=0)
        try:
            server.launch("first", None)
            server.launch("second", None)
            server.wait_idle()
            server.launch("third", None)
            workers = set(server._workers)
            alive = [w.is_alive() for w in workers]
            release.set()
            server.wait_idle()
        finally:
            release.set()
            server.server_close()
        assert len(workers) == 1 and alive == [True]
        assert threads["first"] not in workers
        assert threads["second"] not in workers
        assert server._workers == set()


@pytest.fixture(scope="module")
def pair(gateway, tmp_path_factory):
    """The gateway fixture's manifest run through the command line instead."""
    import io
    from contextlib import redirect_stdout

    base = tmp_path_factory.mktemp("cli-twin")
    new_engine(base / "state")
    manifest_path = base / "manifest.json"
    manifest_path.write_text(manifest_text())

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["--root", str(base / "state"), "submit",
                    "--manifest", str(manifest_path)])
    assert code == 0
    lines = buf.getvalue().splitlines()
    return {
        "cli_root": base / "state",
        "cli_job": lines[0],
        "cli_trial": lines[1].split()[1],
    }


class TestSurfacesAgree:
    """The command line and the gateway expose one behavior.

    The same manifest runs once through each surface over identical
    corpora in separate roots; every user-visible artifact must match
    byte for byte.
    """

    def run_cli(self, capsys, *argv):
        code = run([str(a) for a in argv])
        return code, capsys.readouterr().out

    def test_job_ids_and_trial_ids_agree(self, gateway, pair):
        assert pair["cli_job"] == gateway["job_id"]
        response = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        assert response.headers["X-Trial-Id"] == pair["cli_trial"]

    def test_status_bodies_agree(self, gateway, pair, capsys):
        _, out = self.run_cli(capsys, "--root", pair["cli_root"],
                              "status", pair["cli_job"])
        response = requests.get(f"{gateway['base']}/jobs/{gateway['job_id']}")
        assert response.text == out

    def test_results_bodies_agree(self, gateway, pair, capsys):
        base, job_id = gateway["base"], gateway["job_id"]
        for fmt in ("csv", "json"):
            _, out = self.run_cli(capsys, "--root", pair["cli_root"], "results",
                                  pair["cli_job"], "--format", fmt)
            response = requests.get(f"{base}/jobs/{job_id}/report?format={fmt}")
            assert response.text == out, f"{fmt} output differs between surfaces"

    def test_bundle_bytes_agree(self, gateway, pair, tmp_path, capsys):
        # same store through both surfaces: identical bytes; records in
        # different stores differ only in recording metadata, so the
        # archives legitimately diverge there
        engine_root = gateway["engine"].root
        code, out = self.run_cli(capsys, "--root", engine_root, "bundle",
                                 pair["cli_trial"], "--out", tmp_path)
        assert code == 0
        digest, path = out.split()
        response = requests.get(
            f"{gateway['base']}/trials/{pair['cli_trial']}/bundle"
        )
        assert response.headers["X-Bundle-Digest"] == digest
        with open(path, "rb") as handle:
            assert response.content == handle.read()
