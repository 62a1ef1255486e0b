"""Minimal HTTP gateway over one engine root.

Endpoints, all JSON unless noted:

* ``POST /jobs`` - body is a manifest document; responds ``202`` with
  ``{"job_id": ...}`` and runs the job in a background thread with one
  worker, or ``400`` when the body is not a valid manifest in UTF-8 or
  its ``Content-Length`` is not a decimal byte count.
* ``GET /jobs/{id}`` - job phase and unit states, ``404`` when unknown.
  Matches byte-for-byte with the command line ``status`` output.
* ``GET /jobs/{id}/report`` - evaluation report of a terminal job
  (``?format=csv`` for the csv rendering), ``409`` while the job is
  still queued, planning, or running.
* ``GET /trials/{id}/bundle`` - portable trial archive as
  ``application/x-tar``; the ``X-Bundle-Digest`` header carries the
  sha256 of the body.

The server binds localhost by default and speaks plain HTTP with no
authentication: it is a single-user, same-machine control surface, not
a deployment target. Anything reachable through it is limited to what
the scheduler's sandbox policy allows.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .hashing import stable_json
from .manifest import JobManifest, ManifestError, parse_manifest
from .provenance import ProvenanceError, export_bundle
from .scheduler import SchedulerError


class Gateway(ThreadingHTTPServer):
    """HTTP server owning background job threads for one engine.

    It keeps no state of its own about jobs: ``Engine.finish_job`` puts
    each job's trial id, or the cause of its failure, into the job's
    event log, which every surface over the root reads.
    """

    daemon_threads = True

    def __init__(self, engine, address):
        super().__init__(address, _Handler)
        self.engine = engine
        self._workers: set = set()  # job threads still running

    def launch(self, job_id: str, manifest: JobManifest) -> None:
        worker = threading.Thread(
            target=self._run_job, args=(job_id, manifest), daemon=True
        )
        self._workers.add(worker)
        worker.start()

    def _run_job(self, job_id: str, manifest: JobManifest) -> None:
        try:
            self.engine.finish_job(job_id, manifest)
        except Exception:  # finish_job logged the cause in the job's events
            pass
        finally:
            self._workers.discard(threading.current_thread())

    def wait_idle(self) -> None:
        """Join the job threads still running (tests, orderly shutdown)."""
        for worker in list(self._workers):
            worker.join()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):
        pass

    def _send(self, code: int, body: bytes, content_type: str, headers=None):
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, obj: dict, headers=None):
        body = stable_json(obj).encode("utf-8")
        self._send(code, body, "application/json", headers)

    def _engine(self):
        return self.server.engine

    # -- routes ---------------------------------------------------------------

    def do_POST(self):
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts != ["jobs"]:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():  # int() takes "-1", which would read to EOF
            self.close_connection = True  # the body was never read
            self._send_json(400, {"error": f"bad Content-Length: {length!r}"})
            return
        body = self.rfile.read(int(length))
        try:
            manifest = parse_manifest(body.decode("utf-8"))
            job_id = self._engine().scheduler.submit(manifest)
        except (UnicodeDecodeError, ManifestError, SchedulerError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self.server.launch(job_id, manifest)
        self._send_json(202, {"job_id": job_id})

    def do_GET(self):
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            self._get_status(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "report":
            self._get_report(parts[1], parse_qs(url.query))
        elif len(parts) == 3 and parts[0] == "trials" and parts[2] == "bundle":
            self._get_bundle(parts[1])
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def _get_status(self, job_id: str):
        try:
            state = self._engine().scheduler.status(job_id)
        except SchedulerError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        headers = {"X-Trial-Id": state.trial_id} if state.trial_id else {}
        self._send_json(200, state.to_json_obj(), headers)

    def _get_report(self, job_id: str, query: dict):
        scheduler = self._engine().scheduler
        try:
            state = scheduler.status(job_id)
        except SchedulerError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        try:  # a job not terminal yet raises here too
            report = scheduler.eval_report(job_id)
        except (SchedulerError, ProvenanceError, OSError) as exc:
            self._send_json(409, {"error": str(exc), "phase": state.phase})
            return
        fmt = query.get("format", ["json"])[0]
        if fmt == "csv":
            self._send(200, report.to_csv().encode("utf-8"), "text/csv")
        else:
            self._send_json(200, report.to_json_obj())

    def _get_bundle(self, trial_id: str):
        engine = self._engine()
        dest = Path(engine.scheduler.root) / "bundles" / f"{trial_id}.tar"
        try:
            path, digest = export_bundle(engine.ledger, engine.cache, trial_id, dest)
        except ProvenanceError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send(
            200,
            path.read_bytes(),
            "application/x-tar",
            {"X-Bundle-Digest": digest},
        )


def make_server(engine, host: str = "127.0.0.1", port: int = 0) -> Gateway:
    """Bind and return the server without starting its accept loop."""
    return Gateway(engine, (host, port))


def serve(engine, host: str = "127.0.0.1", port: int = 8349) -> None:
    server = make_server(engine, host, port)
    print(f"listening on http://{host}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
