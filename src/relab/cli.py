"""Command-line frontend over the registry, scheduler, and trial ledger.

One state root holds everything: ``<root>/registry`` is the course
catalog and data store, ``<root>/engine`` holds jobs, the artifact
cache, and the trial ledger. Every subcommand takes the root via
``--root`` (default: the ``RELAB_ROOT`` environment variable, falling
back to ``./relab-root``).

Exit codes, fixed for scripting:

* 0 - success (for ``compare``: the trials' outputs are identical)
* 1 - invalid input: bad manifest, unknown id, bad override, bad flags
* 2 - partial job (some courses failed), or differing ``compare``
* 3 - failed job or internal error

``submit`` and ``fork`` print the job id on the first stdout line and,
when the job succeeds, ``trial <trial_id>`` on the second.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Tuple

from .manifest import JobManifest, ManifestError, parse_manifest
from .provenance import (
    CacheStore,
    ProvenanceError,
    TrialLedger,
    TrialRecord,
    export_bundle,
    import_bundle,
    manifest_for_trial,
    record_trial,
)
from .registry import Registry, RegistryError
from .scheduler import JobReport, Scheduler, SchedulerError
from .synthdata import SynthConfig, generate_corpus

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARTIAL = 2
EXIT_FAILED = 3

DEFAULT_ROOT = "./relab-root"


class Engine:
    """Facade binding one state root's registry, scheduler, and ledger."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.registry = Registry(self.root / "registry")
        self.scheduler = Scheduler(self.root / "engine", self.registry)
        self.ledger = TrialLedger(self.root / "engine" / "ledger.jsonl")

    @property
    def cache(self) -> CacheStore:
        return self.scheduler.cache

    def run_job(
        self,
        manifest: JobManifest,
        parallelism: int = 1,
        parent_trial_id: Optional[str] = None,
    ) -> Tuple[str, JobReport, Optional[TrialRecord]]:
        """Submit, plan, execute; record a trial when the job succeeds."""
        job_id = self.scheduler.submit(manifest)
        report, trial = self.finish_job(job_id, manifest, parallelism, parent_trial_id)
        return job_id, report, trial

    def finish_job(
        self,
        job_id: str,
        manifest: JobManifest,
        parallelism: int = 1,
        parent_trial_id: Optional[str] = None,
    ) -> Tuple[JobReport, Optional[TrialRecord]]:
        """Plan and execute a submitted job; record a trial if it succeeds.

        The job's event log gets the trial id, or the cause of an
        exception before it re-raises, so any process over this root can
        tell what became of the job.
        """
        try:
            self.scheduler.plan(job_id)
            report = self.scheduler.execute(job_id, parallelism)
            trial = None
            if report.phase == "succeeded":
                trial = record_trial(
                    self.ledger,
                    report,
                    manifest,
                    parent_trial_id=parent_trial_id,
                    cache=self.cache,
                )
                self.scheduler.set_trial(job_id, trial.trial_id)
        except Exception as exc:
            self.scheduler.fail(job_id, f"{type(exc).__name__}: {exc}")
            raise
        return report, trial

    def resolve_trial(self, source: str) -> TrialRecord:
        """A trial id in the ledger, or a bundle path to import first."""
        record = self.ledger.get(source)
        if record is not None:
            return record
        path = Path(source)
        if path.is_file():
            return import_bundle(path, self.ledger, self.cache)
        raise ProvenanceError(f"no trial or bundle named {source!r}")


def stable_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _phase_exit(phase: str) -> int:
    if phase == "succeeded":
        return EXIT_OK
    if phase == "partial":
        return EXIT_PARTIAL
    return EXIT_FAILED


def _print_job_outcome(job_id, report, trial) -> int:
    print(job_id)
    if trial is not None:
        print(f"trial {trial.trial_id}")
    if report.phase != "succeeded":
        failed = [e.unit_id for e in report.entries if e.state == "failed"]
        print(
            f"job {job_id} finished {report.phase}; failed units: {failed}",
            file=sys.stderr,
        )
    return _phase_exit(report.phase)


# ---------------------------------------------------------------------------
# subcommands


def cmd_submit(engine: Engine, args) -> int:
    try:
        manifest = parse_manifest(Path(args.manifest).read_text())
        job_id, report, trial = engine.run_job(manifest, args.parallelism)
    except (OSError, ManifestError, SchedulerError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ProvenanceError as exc:  # the job ran and failed on stored state
        print(f"submit failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return _print_job_outcome(job_id, report, trial)


def cmd_status(engine: Engine, args) -> int:
    try:
        state = engine.scheduler.status(args.job_id)
    except SchedulerError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(stable_json(state.to_json_obj()))
    return EXIT_OK


def cmd_results(engine: Engine, args) -> int:
    try:
        report = engine.scheduler.eval_report(args.job_id)
    except SchedulerError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(stable_json(report.to_json_obj()))
    return EXIT_OK


# fields whose override value is the raw text, never its JSON reading, so
# that course "7" stays "7"; a selector id still clears with "null"
_TEXT_OVERRIDES = ("experiment_name", "image_ref", "stages.<i>.name")
_ID_OVERRIDES = ("dataset_selector.course_id", "dataset_selector.session_id")
_STAGE_INDEX = re.compile(r"^stages\.[0-9]+\.")


def _override_value(key: str, raw: str):
    field = _STAGE_INDEX.sub("stages.<i>.", key)
    if field in _TEXT_OVERRIDES or (field in _ID_OVERRIDES and raw != "null"):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(manifest: JobManifest, settings: List[str]) -> JobManifest:
    """Apply ``dotted.key=value`` overrides through the manifest document.

    Values parse as JSON when possible (numbers, booleans, lists) and
    fall back to plain strings; the names and selector ids always take
    the plain string. A decimal segment indexes a list, so
    ``stages.1.timeout=5`` sets the second stage's timeout. Re-parsing the
    document enforces every manifest validity rule on the result.
    """
    obj = asdict(manifest)
    for setting in settings:
        if "=" not in setting:
            raise ManifestError(f"override must be key=value: {setting!r}")
        key, raw = setting.split("=", 1)
        target = obj
        parts = key.split(".")
        for part in parts[:-1]:
            if isinstance(target, tuple):
                in_range = part.isascii() and part.isdigit() and int(part) < len(target)
                target = target[int(part)] if in_range else None
            else:
                target = target.get(part)
            if not isinstance(target, (dict, tuple)):
                raise ManifestError(f"unknown override path: {key!r}")
        if not isinstance(target, dict) or parts[-1] not in target:
            raise ManifestError(f"unknown override field: {key!r}")
        target[parts[-1]] = _override_value(key, raw)
    return parse_manifest(json.dumps(obj))


def cmd_fork(engine: Engine, args) -> int:
    try:
        source = engine.resolve_trial(args.source)
        manifest = apply_overrides(
            manifest_for_trial(source, engine.cache), args.set or []
        )
        job_id, report, trial = engine.run_job(
            manifest, args.parallelism, parent_trial_id=source.trial_id
        )
    except (ProvenanceError, ManifestError, SchedulerError) as exc:
        print(f"fork failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return _print_job_outcome(job_id, report, trial)


def cmd_compare(engine: Engine, args) -> int:
    a = engine.ledger.get(args.a)
    b = engine.ledger.get(args.b)
    if a is None or b is None:
        missing = args.a if a is None else args.b
        print(f"unknown trial: {missing}", file=sys.stderr)
        return EXIT_INVALID
    stage_equal = a.stage_digests == b.stage_digests
    summary = {
        "a": a.trial_id,
        "b": b.trial_id,
        "manifest_equal": a.manifest_digest == b.manifest_digest,
        "data_equal": a.data_digests == b.data_digests,
        "engine_equal": a.engine_version == b.engine_version,
        "eval_equal": a.eval_digest == b.eval_digest,
        "stage_digests_equal": stage_equal,
    }
    sys.stdout.write(stable_json(summary))
    identical = summary["eval_equal"] and stage_equal
    return EXIT_OK if identical else EXIT_PARTIAL


def cmd_bundle(engine: Engine, args) -> int:
    out = Path(args.out)
    if out.is_dir() or args.out.endswith(os.sep):
        out = out / f"{args.trial_id}.tar"
    try:
        path, digest = export_bundle(engine.ledger, engine.cache, args.trial_id, out)
    except ProvenanceError as exc:
        print(f"bundle failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"{digest}  {path}")
    return EXIT_OK


def cmd_serve(engine: Engine, args) -> int:
    from .gateway import serve

    serve(engine, host=args.host, port=args.port)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        overrides = json.loads(Path(args.config).read_text()) if args.config else {}
        cfg = SynthConfig(**overrides)
        out = Path(args.out)
        descriptors = generate_corpus(cfg, out)
    except (OSError, TypeError, ValueError) as exc:
        print(f"synth failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    desc_dir = out / "descriptors"
    desc_dir.mkdir(parents=True, exist_ok=True)
    for descriptor in descriptors:
        path = desc_dir / f"{descriptor['course_id']}.json"
        path.write_text(stable_json(descriptor))
    print(
        f"generated {len(descriptors)} courses under {out / 'data'}; "
        f"descriptors in {desc_dir}"
    )
    return EXIT_OK


def cmd_register(engine: Engine, args) -> int:
    path = Path(args.descriptor)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        print(f"no descriptors found at {path}", file=sys.stderr)
        return EXIT_INVALID
    try:
        for f in files:
            course = engine.registry.register_course(json.loads(f.read_text()))
            print(course.course_id)
    except (OSError, RegistryError, json.JSONDecodeError) as exc:
        print(f"register failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relab",
        description="Reproducible replication engine for course-dropout experiments.",
    )
    parser.add_argument(
        "--root",
        default=os.environ.get("RELAB_ROOT", DEFAULT_ROOT),
        help="state root holding registry/ and engine/ (env: RELAB_ROOT)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("submit", help="run a manifest end to end")
    p.add_argument("--manifest", required=True)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="job phase and unit states")
    p.add_argument("job_id")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("results", help="evaluation report of a finished job")
    p.add_argument("job_id")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_results)

    p = sub.add_parser("fork", help="re-run a trial, optionally modified")
    p.add_argument("source", help="trial id or bundle path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=cmd_fork)

    p = sub.add_parser("compare", help="compare two recorded trials")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bundle", help="export a trial as a portable archive")
    p.add_argument("trial_id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("serve", help="HTTP gateway over this root")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8349)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="JSON file of generator field overrides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("register", help="register course descriptors")
    p.add_argument("--descriptor", required=True, help="descriptor file or directory")
    p.set_defaults(func=cmd_register)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.func is cmd_synth:  # the one command that never opens the root
        return cmd_synth(args)
    return args.func(Engine(Path(args.root)), args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
