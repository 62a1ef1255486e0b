"""Job orchestration: manifest in, deterministic evaluation report out.

Planning turns a validated manifest into a DAG of work units, one per
(course, session, stage) with per-fold units for cross-validation:

* holdout: one extract unit per session, one train unit over the
  training sessions, one test unit on the test session.
* cross-validation with k folds inside the CV session: that session's
  extract unit plus k (train, test) pairs sharing it.
* both schemes: the union of the two plans, sharing extract units and
  one per-course evaluate unit.

Which session plays which role is ``evalstats.session_roles``.

Every unit gets a cache key at planning time by one rule, chained
Merkle-style: ``cache_key(stage, manifest digest, inputs, seed)`` where
the inputs are the dependencies' keys in order, then (for an extract
only) the sorted registered data-file digests, then the digest of the
unit's canonical params. Identical configuration therefore reuses cached
outputs no matter which job produced them, and the cache store is the
only channel through which units exchange data.

Execution runs a single coordinator and a bounded worker pool. A unit
is ready once its last dependency settles; while a worker is free, the
ready unit first in lexicographic (course_id, session_id, stage) order
dispatches, or is marked without executing when cached. A cancel stops
dispatching and waits for the units in flight. A failure skips exactly the
failed unit's transitive dependents, so one course's failure never
touches another course. Default-command stages are forked from one
``StageZygote`` per ``execute`` call. A succeeded unit's work tree is
deleted once its outputs are in the cache and in ``results/``; a failed
unit's tree stays, with the stage log that explains it. Job state
changes append to a JSONL event log that fully reconstructs the job. A
scheduler keeps no job between calls: each call replays the job from its
files. One call in any thread or process drives a job, by ``flock`` on
``jobs/<id>/lock``, which dies with its holder; a ``cancel`` that cannot
take it publishes ``jobs/<id>/cancel`` for the driver.
"""

from __future__ import annotations

import fcntl
import heapq
import json
import re
import shutil
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import closing, contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .evalstats import EvalReport, EvalRow, build_eval_report, session_roles
from .executor import (
    STATUS_SUCCEEDED,
    ExecutorBackend,
    SandboxSpec,
    StageResult,
    StageZygote,
    collect_outputs,
    run_stage,
)
from .hashing import append_jsonl, canonical_json_bytes, read_jsonl, sha256_bytes
from .hashing import write_once
from .manifest import JobManifest, canonicalize, parse_manifest, render_manifest
from .manifest import validate_manifest
from .provenance import CacheEntry, CacheStore, cache_key
from .refpipe import Hyperparams
from .registry import AccessPolicy, Registry, check_export, check_file_digest

TERMINAL_PHASES = ("succeeded", "failed", "partial", "cancelled")

UNIT_PENDING = "pending"
UNIT_RUNNING = "running"
UNIT_DONE = "done"
UNIT_FAILED = "failed"
UNIT_SKIPPED = "skipped"
UNIT_CACHED = "cached"

_SETTLED = (UNIT_DONE, UNIT_CACHED)

# the names ``Scheduler._claim_job_dir`` gives jobs; no other name is a job
_JOB_ID = re.compile(r"job-[0-9]+")

# what a unit's report shows when no stage ran for it
_NOT_RUN = StageResult(status="", exit_code=0, duration=0.0, log_digest="")


def _cached(entry: CacheEntry) -> StageResult:
    return StageResult(
        status="cached",
        exit_code=0,
        duration=0.0,
        log_digest="",
        output_digests=entry.output_digests,
    )


class SchedulerError(Exception):
    """Raised for invalid submissions, unknown jobs, and bad transitions."""


class JobBusyError(SchedulerError):
    """Raised when another call, in this process or another, drives the job."""


@dataclass(frozen=True)
class WorkUnit:
    unit_id: str
    stage: str
    course_id: str
    session_id: str  # empty for aggregate stages (train-over-pool, evaluate)
    depends_on: Tuple[str, ...]
    cache_key: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "depends_on", tuple(self.depends_on))
        object.__setattr__(self, "params", dict(self.params))

    def sort_key(self):
        return (self.course_id, self.session_id, self.stage, self.unit_id)


@dataclass(frozen=True)
class JobState:
    job_id: str
    phase: str
    unit_states: Mapping[str, str]
    trial_id: Optional[str] = None  # a header on HTTP, not part of the body

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in (UNIT_PENDING, UNIT_RUNNING, UNIT_DONE,
                              UNIT_FAILED, UNIT_SKIPPED, UNIT_CACHED)}
        for state in self.unit_states.values():
            out[state] += 1
        return out

    def to_json_obj(self) -> dict:
        """One rendering shared by every frontend surface."""
        return {
            "job_id": self.job_id,
            "phase": self.phase,
            "unit_states": dict(sorted(self.unit_states.items())),
            "counts": self.counts(),
        }


@dataclass(frozen=True)
class UnitReport:
    unit_id: str
    stage: str
    course_id: str
    session_id: str
    state: str
    cache_key: str
    stage_status: str = ""  # executor status for executed units
    output_digests: Mapping[str, str] = field(default_factory=dict)
    duration: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class JobReport:
    job_id: str
    phase: str
    manifest_digest: str
    entries: Tuple[UnitReport, ...]
    data_digests: Tuple[str, ...]
    eval_artifacts: Mapping[str, str]  # course_id -> metrics digest
    cache_hits: int
    wall_clock: float

    def determinism_digest(self) -> str:
        """Digest of everything that must not vary across reruns.

        Timings, cache hit counts, and the job id are bookkeeping; unit
        outcomes, artifact digests, and inputs are content.
        """
        entries = [
            {
                "unit_id": e.unit_id,
                "state": "done" if e.state == UNIT_CACHED else e.state,
                "output_digests": dict(sorted(e.output_digests.items())),
            }
            for e in self.entries
        ]
        payload = {
            "manifest_digest": self.manifest_digest,
            "data_digests": list(self.data_digests),
            "entries": entries,
            "eval_artifacts": dict(sorted(self.eval_artifacts.items())),
        }
        return sha256_bytes(canonical_json_bytes(payload))


# ---------------------------------------------------------------------------
# planning


def _params_digest(params: Mapping[str, object]) -> str:
    return sha256_bytes(canonical_json_bytes(dict(params)))


def plan_units(
    manifest: JobManifest, registry: Registry
) -> Tuple[Tuple[WorkUnit, ...], Tuple[str, ...]]:
    """Expand a manifest into work units plus the data digests they read."""
    courses = registry.resolve_selector(manifest.dataset_selector)
    if not courses:
        raise SchedulerError("selector matches no sessions")

    manifest_digest = sha256_bytes(canonicalize(manifest))
    seed = manifest.seed
    hyper = asdict(Hyperparams())
    units: List[WorkUnit] = []
    data_digests = set()

    def unit(unit_id, stage, course_id, session_id, deps, params, inputs=()):
        """Append one unit, keyed by the one rule every unit follows."""
        key_inputs = [d.cache_key for d in deps] + list(inputs)
        key_inputs.append(_params_digest(params))
        units.append(
            WorkUnit(
                unit_id=unit_id,
                stage=stage,
                course_id=course_id,
                session_id=session_id,
                depends_on=[d.unit_id for d in deps],
                cache_key=cache_key(stage, manifest_digest, key_inputs, seed),
                params=params,
            )
        )
        return units[-1]

    def train_and_test(prefix, train_session, train_deps, test_extract, fold_params):
        """One arm: a model, and its predictions on ``test_extract``'s session."""
        course_id = test_extract.course_id
        train = unit(f"{prefix}:train", "train", course_id, train_session,
                     train_deps, dict(fold_params, hyperparams=hyper))
        return unit(f"{prefix}:test", "test", course_id, test_extract.session_id,
                    [train, test_extract], fold_params)

    use_holdout = manifest.eval_config.uses_holdout
    use_cv = manifest.eval_config.uses_cv
    for course in courses:
        course_id, sessions = course.course_id, course.sessions
        try:
            train_idx, test_idx, cv_idx = session_roles(
                len(sessions), use_holdout, use_cv
            )
        except ValueError as exc:
            raise SchedulerError(f"{exc} for course {course_id!r}") from None

        extracts: Dict[str, WorkUnit] = {}
        for session in sessions if use_holdout else [sessions[cv_idx]]:
            file_digests = sorted(f.digest for f in session.data_files)
            data_digests.update(file_digests)
            extracts[session.session_id] = unit(
                f"{course_id}:{session.session_id}:extract", "extract", course_id,
                session.session_id, [], {"feature_weeks": manifest.feature_weeks},
                file_digests,
            )

        tests = []
        if use_holdout:
            train_deps = [extracts[sessions[i].session_id] for i in train_idx]
            tests.append(train_and_test(
                f"{course_id}:holdout", "", train_deps,
                extracts[sessions[test_idx].session_id], {},
            ))
        if use_cv:
            k = manifest.eval_config.k
            cv_extract = extracts[sessions[cv_idx].session_id]
            for fold in range(1, k + 1):
                fold_params = {"fold_count": k, "fold_index": fold, "fold_seed": seed}
                tests.append(train_and_test(
                    f"{course_id}:{cv_extract.session_id}:cv:fold{fold:02d}",
                    cv_extract.session_id, [cv_extract], cv_extract, fold_params,
                ))

        schemes = []
        if use_holdout:
            schemes.append("holdout")
        if use_cv:
            schemes.append("cross_validation")
        eval_params = {
            "week": manifest.feature_weeks,
            "schemes": schemes,
            "course_id": course_id,
            "cv_pooling": manifest.eval_config.cv_pooling,
        }
        unit(f"{course_id}:evaluate", "evaluate", course_id, "",
             sorted(tests, key=lambda u: u.unit_id), eval_params)

    return tuple(units), tuple(sorted(data_digests))


def _input_dir(dep: WorkUnit) -> str:
    """Where a dependency's outputs sit in a consuming unit's DATA_DIR."""
    if dep.stage == "extract":
        return f"sessions/{dep.session_id}"
    if dep.stage == "train":
        return "model"
    if dep.stage == "test":
        fold = dep.params.get("fold_index")
        return "preds/holdout" if fold is None else f"preds/cv_fold_{int(fold):02d}"
    raise SchedulerError(f"no unit reads the outputs of a {dep.stage!r} unit")


# ---------------------------------------------------------------------------
# scheduler


class _Job:
    """One call's replay of a job's files; its setters append events."""

    def __init__(self, job_id: str, job_dir: Path):
        self.job_id = job_id
        self.dir = job_dir
        self.phase = "queued"
        self.manifest: Optional[JobManifest] = None
        self.units: Tuple[WorkUnit, ...] = ()
        self.data_digests: Tuple[str, ...] = ()
        self.unit_states: Dict[str, str] = {}
        self.trial_id: Optional[str] = None

    @property
    def events_path(self) -> Path:
        return self.dir / "events.jsonl"

    @property
    def cancel_requested(self) -> bool:
        """Whether a ``cancel`` asked the call driving the job to stop."""
        return (self.dir / "cancel").exists()

    def append_event(self, event: dict) -> None:
        append_jsonl(self.events_path, dict(event, ts=time.time()))

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.append_event({"event": "phase", "phase": phase})

    def set_unit_state(self, unit_id: str, state: str) -> None:
        self.unit_states[unit_id] = state
        self.append_event({"event": "unit", "unit_id": unit_id, "state": state})

    def set_cancelled(self) -> None:
        """Skip every unit pending, or running under a dead driver; end cancelled."""
        for unit_id, state in sorted(self.unit_states.items()):
            if state in (UNIT_PENDING, UNIT_RUNNING):
                self.set_unit_state(unit_id, UNIT_SKIPPED)
        self.set_phase("cancelled")


class Scheduler:
    """Single-host coordinator over a worker pool, file-backed throughout."""

    def __init__(
        self,
        root: Path,
        registry: Registry,
        backend: Optional[ExecutorBackend] = None,
        policy: Optional[AccessPolicy] = None,
    ):
        self.root = Path(root).absolute()  # sandbox mounts must be absolute
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.registry = registry
        self.cache = CacheStore(self.root / "cache")
        self.backend = backend if backend is not None else ExecutorBackend()
        self.policy = policy if policy is not None else AccessPolicy()

    # -- job bookkeeping ----------------------------------------------------

    def _new_job_id(self) -> str:
        existing = [
            int(p.name[4:]) for p in self.jobs_dir.iterdir() if _JOB_ID.fullmatch(p.name)
        ]
        return f"job-{(max(existing) + 1 if existing else 1):06d}"

    def _claim_job_dir(self) -> Tuple[str, Path]:
        """Create the next job's directory; the `mkdir` is the claim.

        Another scheduler on the same root (the CLI and `serve`) may take
        the id between the scan and the `mkdir`; then the scan runs again.
        """
        while True:
            job_id = self._new_job_id()
            try:
                (self.jobs_dir / job_id).mkdir()
            except FileExistsError:
                continue
            return job_id, self.jobs_dir / job_id

    def _job_dir(self, job_id: str) -> Path:
        """The directory of a job ``_claim_job_dir`` made; else unknown job."""
        job_dir = self.jobs_dir / job_id
        if not (_JOB_ID.fullmatch(job_id) and job_dir.is_dir()):
            raise SchedulerError(f"unknown job {job_id!r}")
        return job_dir

    def _job(self, job_id: str) -> _Job:
        """A fresh replay of the job's manifest, units and event log.

        No job is kept between calls, also none this scheduler submitted
        or runs, so a job another scheduler on the root wrote (the CLI
        beside ``serve``) is never seen stale. A replay needs no lock: the
        job's JSON files are published whole (``write_once``) and its log
        skips a line still being appended.
        """
        job_dir = self._job_dir(job_id)
        job = _Job(job_id, job_dir)
        manifest_path = job_dir / "manifest.json"
        if manifest_path.is_file():
            job.manifest = parse_manifest(manifest_path.read_text())
        units_path = job_dir / "units.json"
        if units_path.is_file():
            obj = json.loads(units_path.read_text())
            job.units = tuple(WorkUnit(**u) for u in obj["units"])
            job.data_digests = tuple(obj["data_digests"])
        for event in read_jsonl(job.events_path):
            if event["event"] == "phase":
                job.phase = event["phase"]
            elif event["event"] == "unit":
                job.unit_states[event["unit_id"]] = event["state"]
            elif event["event"] == "trial":
                job.trial_id = event["trial_id"]
        return job

    @contextmanager
    def _drive(self, job_id: str) -> Iterator[_Job]:
        """Hold the job's lock for the block; yield a replay made under it."""
        with open(self._job_dir(job_id) / "lock", "ab") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise JobBusyError(f"job {job_id} is driven by another call") from None
            yield self._job(job_id)

    # -- operations -----------------------------------------------------------

    def submit(self, manifest: JobManifest) -> str:
        """Persist a validated manifest as a new queued job."""
        report = validate_manifest(manifest, self.registry)
        if not report.ok:
            raise SchedulerError(
                "manifest validation failed: " + "; ".join(report.violations)
            )
        job = _Job(*self._claim_job_dir())
        write_once(job.dir / "manifest.json", render_manifest(manifest).encode())
        job.append_event(
            {
                "event": "submitted",
                "job_id": job.job_id,
                "manifest_digest": sha256_bytes(canonicalize(manifest)),
            }
        )
        for warning in report.warnings:
            job.append_event({"event": "warning", "warning": warning})
        job.set_phase("queued")
        return job.job_id

    def plan(self, job_id: str) -> Tuple[WorkUnit, ...]:
        with self._drive(job_id) as job:
            if job.phase != "queued":
                raise SchedulerError(
                    f"plan requires a queued job, {job_id} is {job.phase}"
                )
            job.set_phase("planning")
            try:
                units, data_digests = plan_units(job.manifest, self.registry)
            except Exception:
                job.set_phase("failed")
                raise
            if job.cancel_requested:
                job.set_cancelled()
                raise SchedulerError(f"job {job_id} cancelled while planning")
            write_once(
                job.dir / "units.json",
                canonical_json_bytes(
                    {
                        "units": [asdict(u) for u in units],
                        "data_digests": list(data_digests),
                    }
                ),
            )
            for unit in units:
                job.set_unit_state(unit.unit_id, UNIT_PENDING)
            job.append_event({"event": "planned", "units": len(units)})
        return units

    def status(self, job_id: str) -> JobState:
        job = self._job(job_id)
        return JobState(
            job_id=job_id,
            phase=job.phase,
            unit_states=job.unit_states,
            trial_id=job.trial_id,
        )

    def cancel(self, job_id: str) -> None:
        """End the job now if no live call drives it; otherwise ask its driver.

        A dead driver's job ends here too. A live driver sees
        ``jobs/<id>/cancel``, starts nothing new and ends the job cancelled.
        """
        try:
            with self._drive(job_id) as job:
                if job.phase not in TERMINAL_PHASES:
                    job.set_cancelled()
                    return
        except JobBusyError:
            job = self._job(job_id)
            if job.phase not in TERMINAL_PHASES:
                write_once(job.dir / "cancel", b"")
                return
        raise SchedulerError(f"job {job_id} already terminal: {job.phase}")

    def set_trial(self, job_id: str, trial_id: str) -> None:
        """Log the trial a succeeded job was recorded as."""
        self._job(job_id).append_event({"event": "trial", "trial_id": trial_id})

    def fail(self, job_id: str, cause: str) -> None:
        """Log why driving a job raised; an unfinished job no call drives fails."""
        self._job(job_id).append_event({"event": "error", "error": cause})
        with suppress(JobBusyError), self._drive(job_id) as job:
            if job.phase not in TERMINAL_PHASES:
                job.set_phase("failed")

    # -- execution ------------------------------------------------------------

    def execute(self, job_id: str, parallelism: int = 1) -> JobReport:
        """Run a planned job, holding its lock until the job is terminal."""
        if parallelism < 1:
            raise SchedulerError("parallelism must be a positive integer")
        with self._drive(job_id) as job:
            if job.phase != "planning" or not job.units:
                raise SchedulerError(
                    f"execute requires a planned job, {job_id} is {job.phase}"
                )
            job.set_phase("running")
            started = time.monotonic()
            results = self._dispatch(job, parallelism)
            states = set(job.unit_states.values())
            if job.cancel_requested:
                job.set_cancelled()
            elif states <= set(_SETTLED):
                job.set_phase("succeeded")
            elif states & set(_SETTLED):
                job.set_phase("partial")
            else:
                job.set_phase("failed")
        report = self._assemble_report(job, results, time.monotonic() - started)
        write_once(job.dir / "report.json", canonical_json_bytes(asdict(report)))
        return report

    def _dispatch(self, job: _Job, parallelism: int) -> Dict[str, StageResult]:
        """The coordinator loop over this call's replay; returns the results.

        Unit states, results and the ready heap change on this thread only.
        """
        units_by_id = {u.unit_id: u for u in job.units}
        dependents: Dict[str, List[str]] = {u.unit_id: [] for u in job.units}
        for unit in job.units:
            for dep in unit.depends_on:
                dependents[dep].append(unit.unit_id)
        # dependencies not yet settled; a unit is ready when its count is 0
        unsettled = {u.unit_id: len(u.depends_on) for u in job.units}
        ready = [u.sort_key() for u in job.units if not u.depends_on]
        heapq.heapify(ready)
        results: Dict[str, StageResult] = {}

        def finish(unit_id: str, state: str, result: StageResult) -> None:
            """Record an outcome; ready the dependents or skip them."""
            results[unit_id] = result
            job.set_unit_state(unit_id, state)
            if state == UNIT_FAILED:
                stack = list(dependents[unit_id])
                while stack:
                    uid = stack.pop()
                    if job.unit_states[uid] == UNIT_PENDING:
                        job.set_unit_state(uid, UNIT_SKIPPED)
                        stack.extend(dependents[uid])
                return
            for uid in dependents[unit_id]:
                unsettled[uid] -= 1
                if not unsettled[uid]:
                    heapq.heappush(ready, units_by_id[uid].sort_key())

        futures = {}
        # the zygote is local to this call: serve runs several jobs at once;
        # it is closed after the pool has waited for every worker
        with closing(StageZygote()) as zygote, ThreadPoolExecutor(
            max_workers=parallelism
        ) as pool:
            while True:
                # after a cancel nothing new starts; in-flight units finish
                while ready and len(futures) < parallelism and not job.cancel_requested:
                    unit = units_by_id[heapq.heappop(ready)[-1]]
                    entry = self.cache.get(unit.cache_key)
                    if entry is not None:
                        self._export_cached(entry, self._results_dir(job, unit))
                        finish(unit.unit_id, UNIT_CACHED, _cached(entry))
                    else:
                        job.set_unit_state(unit.unit_id, UNIT_RUNNING)
                        deps = [units_by_id[d] for d in unit.depends_on]
                        fut = pool.submit(self._run_unit, job, unit, deps, zygote)
                        futures[fut] = unit
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in done:
                    unit = futures.pop(fut)
                    result = fut.result()
                    ok = result.status == STATUS_SUCCEEDED
                    finish(unit.unit_id, UNIT_DONE if ok else UNIT_FAILED, result)
        return results

    # -- unit execution ---------------------------------------------------------

    def _results_dir(self, job: _Job, unit: WorkUnit) -> Path:
        return job.dir / "results" / unit.unit_id

    def _export_cached(self, entry: CacheEntry, dest: Path) -> None:
        """Export what the policy lets an executed unit export, from blobs.

        The quota is charged with the blobs' sizes, which are the sizes of
        the output files they were stored from.
        """
        digests = entry.output_digests
        sizes = {
            rel: self.cache.blob_path(d).stat().st_size for rel, d in digests.items()
        }
        decisions = check_export(sizes, self.policy)
        exported = {d.path: digests[d.path] for d in decisions if d.allowed}
        self.cache.materialize(replace(entry, output_digests=exported), dest)

    def _run_unit(
        self,
        job: _Job,
        unit: WorkUnit,
        deps: List[WorkUnit],
        zygote: StageZygote,
    ) -> StageResult:
        """Worker body: stage inputs, run the sandboxed stage, export.

        A succeeded unit's work tree is deleted; a failed one's is kept.
        """
        work = job.dir / "work" / unit.unit_id
        if work.exists():
            shutil.rmtree(work)
        data = work / "data"
        scratch = work / "scratch"
        out = work / "out"
        for d in (data, scratch, out):
            d.mkdir(parents=True)
        try:
            self._stage_inputs(unit, deps, data)
        except Exception as exc:
            return StageResult(
                status="failed",
                exit_code=-1,
                duration=0.0,
                log_digest="",
                detail=f"input staging failed: {exc}",
            )
        sandbox = SandboxSpec(
            data_mount=data,
            scratch_dir=scratch,
            output_dir=out,
            env={
                "STAGE": unit.stage,
                "COURSE_ID": unit.course_id,
                "SESSION_ID": unit.session_id,
                "SEED": str(job.manifest.seed),
            },
            image_ref=job.manifest.image_ref,
        )
        result = run_stage(
            job.manifest.stage(unit.stage), sandbox, self.backend, zygote
        )
        if result.status == STATUS_SUCCEEDED:
            collect_outputs(result, self.policy, out, self._results_dir(job, unit))
            self.cache.put(unit.cache_key, result.output_digests, out)
            shutil.rmtree(work, ignore_errors=True)
        return result

    def _stage_inputs(
        self, unit: WorkUnit, deps: List[WorkUnit], data: Path
    ) -> None:
        """Build the unit's read-only data tree from registry and cache.

        An extract reads its session's registered files, and fails on bytes
        that no longer match their registered digest; every dependency's
        outputs go where its own stage puts them (``_input_dir``).
        """
        if unit.stage == "extract":
            course = self.registry.load_course(unit.course_id)
            session = course.session(unit.session_id)
            src = self.registry.session_dir(unit.course_id, unit.session_id)
            for f in session.data_files:
                content = (src / f.path).read_bytes()
                check_file_digest(src / f.path, f.digest, sha256_bytes(content))
                target = data / f.path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(content)
        for dep in deps:
            entry = self.cache.get(dep.cache_key)
            if entry is None:
                raise SchedulerError(f"outputs of {dep.unit_id} missing from cache")
            self.cache.materialize(entry, data / _input_dir(dep))
        (data / "params.json").write_bytes(
            canonical_json_bytes(dict(unit.params))
        )

    # -- reporting ---------------------------------------------------------------

    def _assemble_report(
        self, job: _Job, results: Mapping[str, StageResult], wall_clock: float
    ) -> JobReport:
        entries = []
        eval_artifacts = {}
        for unit in sorted(job.units, key=WorkUnit.sort_key):
            state = job.unit_states[unit.unit_id]
            result = results.get(unit.unit_id, _NOT_RUN)
            entry = UnitReport(
                unit_id=unit.unit_id,
                stage=unit.stage,
                course_id=unit.course_id,
                session_id=unit.session_id,
                state=state,
                cache_key=unit.cache_key,
                stage_status=result.status,
                output_digests=dict(result.output_digests),
                duration=result.duration,
                detail=result.detail,
            )
            entries.append(entry)
            if unit.stage == "evaluate" and state in _SETTLED:
                digest = entry.output_digests.get("metrics.json", "")
                if digest:
                    eval_artifacts[unit.course_id] = digest
        return JobReport(
            job_id=job.job_id,
            phase=job.phase,
            manifest_digest=sha256_bytes(canonicalize(job.manifest)),
            entries=tuple(entries),
            data_digests=job.data_digests,
            eval_artifacts=eval_artifacts,
            cache_hits=list(job.unit_states.values()).count(UNIT_CACHED),
            wall_clock=wall_clock,
        )

    def eval_report(self, job_id: str) -> EvalReport:
        """Pool every course's metrics artifact into one evaluation table."""
        job = self._job(job_id)
        if job.phase not in TERMINAL_PHASES:
            raise SchedulerError(f"job {job_id} not terminal: {job.phase}")
        rows = []
        for unit in job.units:
            if unit.stage != "evaluate":
                continue
            if job.unit_states.get(unit.unit_id) not in _SETTLED:
                continue
            metrics_path = self._results_dir(job, unit) / "metrics.json"
            obj = json.loads(metrics_path.read_text())
            for row in obj["rows"]:
                rows.append(
                    EvalRow(
                        course_id=obj["course_id"],
                        week=int(obj["week"]),
                        scheme=row["scheme"],
                        auc=float(row["auc"]),
                    )
                )
        ci = job.manifest.eval_config.ci_level if job.manifest else 0.95
        return build_eval_report(rows, ci_level=ci, metadata={"job_id": job_id})
