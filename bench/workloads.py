"""The benchmark's workloads, each a closed loop driven from one process.

Each workload sets up its inputs several times (``SETUP_REPEATS`` unless
it asks for more), half before the measured phase and the rest after it,
and reports the median set-up time, then repeats its operation, starting the next only
when the previous one (checks included) has finished, until the next one
would end after ``seconds``. Every operation's outputs are checked; an
operation whose check fails, or that raises, counts as failed.

The set-up's files are flushed to disk before the measured phase starts,
so that the kernel's write-back of them does not land in it. Scratch an
operation makes is deleted while it is young; state that lives for the
whole run is left in place (see ``young``).

With ``trace`` set, even-numbered operations run with the layer wrappers
installed and odd-numbered ones without; the per-layer metrics come from
the traced operations and the tracing overhead compares the two halves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import checks
from checks import CheckFailed, require
from tracing import Tracer, layer_metrics, spawn_import_probe

import relab.provenance as provenance
import relab.study as study
import relab.synthdata as synthdata
from relab import ENGINE_VERSION
from relab.cli import Engine
from relab.manifest import parse_manifest
from relab.registry import Registry

SETUP_REPEATS = 3
# set-ups per run, half on each side of the measured phase (Run.setup):
# registering the engine corpus takes about 0.35 s, the study's fresh
# interpreter about 1.4 s
ENGINE_SETUP_REPEATS = 9
STUDY_SETUP_REPEATS = 5
MIN_OPS = 3

# (metric, unit): the end-to-end metrics every listed workload prints with
# tracing off. op_s is the median wall time of the workload's operation:
# one cold job on engine_cold, one run_study call on study.
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

# no workload uses more engine workers than the host has cores
PARALLELISM = max(1, min(2, os.cpu_count() or 1))

# engine corpus: 2 courses x 3 sessions; a `both` k=5 job plans 16 units
# per course (3 extracts, 1 + 5 trains, 1 + 5 tests, 1 evaluate). The
# session shift is off: the engine's cost follows the corpus size, which
# the shift makes vary by about 9% between seeds (2% without it).
ENGINE_COURSES = 2
ENGINE_LEARNERS = 200
K = 5

# engine_warm: cheap reruns and bundle round trips are repeated per round
# so that each round yields several samples next to one CLI call
RERUNS_PER_ROUND = 5
BUNDLES_PER_ROUND = 5

# study: the default study corpus (shifted, strong signal) cut from
# 45 courses x 2000 learners to 3 x 1000, scored at feature weeks 1 and 2
STUDY_COURSES = 3
STUDY_LEARNERS = 1000
STUDY_WEEKS = (1, 2)


def engine_synth(seed: int) -> synthdata.SynthConfig:
    return synthdata.SynthConfig(
        num_courses=ENGINE_COURSES,
        sessions_per_course=3,
        learners_per_session=ENGINE_LEARNERS,
        session_shift_sd=0.0,
        seed=seed,
    )


def manifest_doc(seed: int) -> dict:
    """A complete manifest document, as a user would hand it to `relab submit`."""
    outputs = {
        "extract": ["features.csv", "labels.csv"],
        "train": ["model.json"],
        "test": ["predictions.csv"],
        "evaluate": ["metrics.json"],
    }
    return {
        "experiment_name": "bench-dropout",
        "image_ref": "builtin/refpipe@v1",
        "seed": seed,
        "feature_weeks": 1,
        "stages": [
            {
                "name": name,
                "command": ["python3", "-m", "relab.refpipe"],
                "timeout": 600.0,
                "outputs": files,
            }
            for name, files in outputs.items()
        ],
        "dataset_selector": {"kind": "all_courses", "course_id": None, "session_id": None},
        "eval_config": {
            "scheme": "both",
            "k": K,
            "metric": "auc",
            "ci_level": 0.95,
            "cv_pooling": "pooled",
        },
    }


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


@contextmanager
def young(*paths: Path):
    """Delete the files and trees at ``paths`` when the block ends.

    Scratch is deleted while it is young, before the kernel has written it
    back: on a file system mounted with ``discard``, deleting files that
    already own disk blocks queues work that slowed mkdir on the reference
    host from about 20 us to 100-500 us for over a minute, which would
    leak into later operations and runs. State that lives for the whole
    run is therefore left under the run's directory (see run.py).
    """
    try:
        yield
    finally:
        for path in paths:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)


def write_back(root: Path) -> None:
    """fsync every file under root, so that the kernel's deferred write-back
    of the set-up's files happens now rather than during the measured phase."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            if os.path.islink(path):
                continue
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def peak_rss_mb(pid="self") -> float:
    """VmHWM of a process: the high-water mark of its memory since exec.

    getrusage's ru_maxrss is not used: on Linux it also counts the
    parent's resident set at the fork that preceded exec.
    """
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class ChildPeakSampler:
    """Largest VmHWM of any child process, sampled while the block runs.

    A child is read only once its command line differs from this
    process's, that is after its exec; before exec it still shows this
    process's memory. Growth in a child's last few milliseconds can be
    missed.
    """

    PERIOD_S = 0.005

    def __init__(self):
        self.peak_mb = 0.0
        with open("/proc/self/cmdline", "rb") as fh:
            self._own_cmdline = fh.read()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(self.PERIOD_S):
            for task in os.listdir("/proc/self/task"):
                try:
                    with open(f"/proc/self/task/{task}/children") as fh:
                        pids = fh.read().split()
                except FileNotFoundError:
                    continue
                for pid in pids:
                    try:
                        with open(f"/proc/{pid}/cmdline", "rb") as fh:
                            if fh.read() == self._own_cmdline:
                                continue
                        self.peak_mb = max(self.peak_mb, peak_rss_mb(pid))
                    except (FileNotFoundError, ProcessLookupError, RuntimeError):
                        continue

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """Bookkeeping for one run: operation counts, samples and tracing."""

    def __init__(self, seconds: float, trace: bool, work: Path):
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = defaultdict(list)
        self.traced = defaultdict(list)  # primary timing of traced operations
        self.tracer = Tracer()
        self.setup_tracer = Tracer()
        self.traced_ops = 0
        self.setups = SETUP_REPEATS
        self.setup_times = []
        self.children = ChildPeakSampler()

    def setup(self, body, repeats: int = SETUP_REPEATS) -> None:
        """Time ``repeats`` calls of body(i): the first half now, the rest
        when the measured phase has ended (see loop).

        The host's speed drifts over tens of seconds; set-ups on both sides
        of the measured phase let the median span the run, as op_s does.
        A body that fills a directory returns it; every one but the first
        is deleted right after its call, while its files are young. The
        first is flushed to disk before this returns.
        """
        self.setups = repeats
        self._setup_body = body
        for i in range((repeats + 1) // 2):
            self._setup_once(i)
        write_back(self.work)

    def _setup_once(self, i: int) -> None:
        with self.setup_tracer.active() if self.trace else nullcontext():
            start = time.perf_counter()
            filled = self._setup_body(i)
            self.setup_times.append(time.perf_counter() - start)
        if i > 0 and filled is not None:
            shutil.rmtree(filled)  # still young, see young()

    def setup_s(self) -> float:
        return statistics.median(self.setup_times)

    def attempt(self, fn, *args) -> None:
        """One operation; a raised CheckFailed or error counts it failed."""
        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            traceback.print_exc()

    def sample(self, name: str, value: float, traced: bool) -> None:
        (self.traced if traced else self.samples)[name].append(value)

    def loop(self, round_fn) -> None:
        """Closed loop of round_fn(i, traced) until the next would overrun."""
        started = time.perf_counter()
        last = 0.0
        i = 0
        with self.children:
            while i < MIN_OPS or time.perf_counter() - started + last <= self.seconds:
                traced = self.trace and i % 2 == 0
                t0 = time.perf_counter()
                with self.tracer.active() if traced else nullcontext():
                    round_fn(i, traced)
                last = time.perf_counter() - t0
                self.traced_ops += traced
                i += 1
        for k in range(len(self.setup_times), self.setups):
            self._setup_once(k)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def layer_result(self, primary: str, measured: dict) -> dict:
        """Per-layer metrics; the overhead compares traced and untraced `primary`."""
        untraced = statistics.median(self.samples[primary])
        traced = statistics.median(self.traced[primary])
        return layer_metrics(
            self.tracer,
            self.traced_ops,
            self.setup_tracer,
            self.setups,
            spawn_import_probe(self.work / "probe"),
            100.0 * (traced - untraced) / untraced,
            measured,
        )


# ---------------------------------------------------------------------------
# engine_cold


def engine_cold(seed: int, run: Run) -> dict:
    """Cold `both` k=5 jobs, each on a fresh state root with an empty cache."""
    synth = engine_synth(seed)
    doc = manifest_doc(seed)
    manifest = parse_manifest(json.dumps(doc))
    corpus = run.work / "corpus"

    def register(i):
        target = corpus if i == 0 else run.work / f"corpus{i}"
        synthdata.generate_and_register(synth, Registry(target))
        return target

    run.setup(register, ENGINE_SETUP_REPEATS)

    import scipy.stats  # noqa: F401  (first used by the report the checks read)

    trial_id = checks.expected_trial_id(doc, corpus / "data", ENGINE_VERSION)
    study_cfg = study.StudyConfig(synth=synth, weeks=(1,), k=K, fold_seed=seed)
    library = {}
    for course_idx in range(ENGINE_COURSES):
        for pair in study.course_pairs(study_cfg, course_idx):
            library[pair.course_id] = pair
    first = {}

    def op(i, traced):
        root = run.work / f"cold{i}"
        with young(root):
            root.mkdir()
            (root / "registry").symlink_to(corpus.resolve(), target_is_directory=True)
            engine = Engine(root)
            start = time.perf_counter()
            job_id, report, trial = engine.run_job(manifest, PARALLELISM)
            elapsed = time.perf_counter() - start
            run.sample("job_s", elapsed, traced)
            run.sample("disk_bytes", tree_bytes(root / "engine"), traced)

            require(report.phase == "succeeded", f"{job_id} finished {report.phase}")
            require(report.cache_hits == 0, f"{report.cache_hits} hits on an empty cache")
            require(trial is not None and trial.trial_id == trial_id,
                    f"trial id {trial and trial.trial_id} != recomputed {trial_id}")
            digest = report.determinism_digest()
            first.setdefault("digest", digest)
            require(digest == first["digest"], "determinism digest differs between jobs")

            rows = [(r.course_id, r.scheme, r.auc)
                    for r in engine.scheduler.eval_report(job_id).rows]
            require({(c, s) for c, s, _ in rows if c != "ALL"}
                    == {(c, s) for c in library for s in ("holdout", "cross_validation")},
                    "report does not hold one row per course and scheme")
            checks.eval_rows_match_predictions(
                rows, root / "engine" / "jobs" / job_id / "results", K)
            for course_id, scheme, value in rows:
                if course_id != "ALL":
                    pair = library[course_id]
                    want = pair.holdout_auc if scheme == "holdout" else pair.cv_auc
                    require(value == want,
                            f"{course_id} {scheme}: engine {value!r} != study {want!r}")

    run.loop(lambda i, traced: run.attempt(op, i, traced))
    if run.trace:
        disk = statistics.median(run.samples["disk_bytes"] + run.traced["disk_bytes"])
        return run.layer_result("job_s", {
            "engine.disk_mb": disk / 1e6,
            "engine.child_peak_rss_mb": run.children.peak_mb,
        })
    return {
        "setup_s": metric(run.setup_s(), "s"),
        "op_s": metric(run.median("job_s"), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# engine_warm


def engine_warm(seed: int, run: Run) -> dict:
    """Cached reruns, bundle round trips and `relab results` on a filled root."""
    synth = engine_synth(seed)
    manifest = parse_manifest(json.dumps(manifest_doc(seed)))
    fill = {}

    def fill_root(i):
        engine = Engine(run.work / f"warm{i}")
        synthdata.generate_and_register(synth, engine.registry)
        _, report, trial = engine.run_job(manifest, PARALLELISM)
        if i == 0:
            fill.update(engine=engine, report=report, trial=trial)
        return engine.root

    run.setup(fill_root)
    engine, trial = fill["engine"], fill["trial"]
    if fill["report"].phase != "succeeded" or trial is None:
        raise RuntimeError(f"cache-filling job finished {fill['report'].phase}")
    fill_digest = fill["report"].determinism_digest()
    import scipy.stats  # noqa: F401  (first used by the report the checks read)

    reference, _ = provenance.export_bundle(
        engine.ledger, engine.cache, trial.trial_id, run.work / "reference.tar")
    reference = reference.read_bytes()
    cli = [sys.executable, "-c", "from relab.cli import main; main()",
           "--root", str(engine.root)]

    def rerun(traced):
        start = time.perf_counter()
        job_id, report, again = engine.run_job(manifest, PARALLELISM)
        run.sample("rerun_s", time.perf_counter() - start, traced)
        run.sample("units", len(report.entries), traced)
        require(report.phase == "succeeded", f"rerun {job_id} finished {report.phase}")
        require(report.cache_hits == len(report.entries),
                f"{report.cache_hits} cache hits for {len(report.entries)} units")
        statuses = {e.stage_status for e in report.entries}
        require(statuses == {"cached"}, f"rerun stage statuses {sorted(statuses)}")
        require(report.determinism_digest() == fill_digest,
                "rerun determinism digest differs from the cold fill")
        require(again.trial_id == trial.trial_id, "rerun recorded another trial id")
        fill["job_id"] = job_id

    def roundtrip(traced):
        bundle, fresh = run.work / "bundle.tar", run.work / "imported"
        with young(bundle, fresh):
            start = time.perf_counter()
            path, digest = provenance.export_bundle(
                engine.ledger, engine.cache, trial.trial_id, bundle)
            data = path.read_bytes()
            require(data == reference, "two exports of one trial differ")
            require(digest == hashlib.sha256(data).hexdigest(),
                    "bundle digest is not the SHA-256 of the file")
            checks.bundle_matches_record(data, trial.stage_digests)
            target = Engine(fresh)
            imported = provenance.import_bundle(path, target.ledger, target.cache)
            require(imported.trial_id == trial.trial_id, "import changed the trial id")
            require(imported.parent_trial_id == trial.trial_id,
                    "imported record's parent_trial_id is not its own id")
            run.sample("bundle_roundtrip_s", time.perf_counter() - start, traced)

    def results_cli(traced):
        job_id = fill["job_id"]
        start = time.perf_counter()
        proc = subprocess.run(cli + ["results", job_id, "--format", "csv"],
                              capture_output=True)
        run.sample("results_cli_s", time.perf_counter() - start, traced)
        require(proc.returncode == 0, f"relab results exited {proc.returncode}")
        expected = engine.scheduler.eval_report(job_id).to_csv()
        require(proc.stdout == expected.encode("utf-8"),
                "relab results bytes differ from the in-process report")

    def round_(i, traced):
        for _ in range(RERUNS_PER_ROUND):
            run.attempt(rerun, traced)
        for _ in range(BUNDLES_PER_ROUND):
            run.attempt(roundtrip, traced)
        run.attempt(results_cli, traced)

    run.loop(round_)
    if run.trace:
        return run.layer_result("rerun_s", {"engine.child_peak_rss_mb": run.children.peak_mb})
    return {
        "setup_s": metric(run.setup_s(), "s"),
        "units_per_s": metric(run.median("units") / run.median("rerun_s"), "units/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "child_peak_rss_mb": metric(run.children.peak_mb, "MB"),
        "rerun_s": metric(run.median("rerun_s"), "s"),
        "bundle_roundtrip_s": metric(run.median("bundle_roundtrip_s"), "s"),
        "results_cli_s": metric(run.median("results_cli_s"), "s"),
    }


# ---------------------------------------------------------------------------
# study

# a study script's start-up: the imports, scipy.stats included, and the
# sampling of every session of the corpus
_STUDY_SETUP = """
import json, sys
import scipy.stats
from relab.study import run_study
from relab.synthdata import SynthConfig, sample_session
cfg = SynthConfig(**json.loads(sys.argv[1]))
for c in range(cfg.num_courses):
    for s in range(cfg.sessions_per_course):
        sample_session(cfg, c, s)
"""


def study_workload(seed: int, run: Run) -> dict:
    """`run_study` on a reduced, shifted copy of the default study corpus."""
    synth = dataclasses.replace(
        study.default_study_synth(),
        num_courses=STUDY_COURSES,
        learners_per_session=STUDY_LEARNERS,
        seed=seed,
    )
    cfg = study.StudyConfig(synth=synth, weeks=STUDY_WEEKS)
    argv = [sys.executable, "-c", _STUDY_SETUP, json.dumps(dataclasses.asdict(synth))]

    def start_study(i):
        subprocess.run(argv, check=True)

    run.setup(start_study, STUDY_SETUP_REPEATS)
    import scipy.stats  # noqa: F401  (the first call's import is set-up, not study time)

    def op(i, traced):
        start = time.perf_counter()
        report = study.run_study(cfg)
        run.sample("study_s", time.perf_counter() - start, traced)
        checks.study_report_consistent(report, STUDY_COURSES, len(STUDY_WEEKS))

    run.loop(lambda i, traced: run.attempt(op, i, traced))
    if run.trace:
        return run.layer_result("study_s", {})
    return {
        "setup_s": metric(run.setup_s(), "s"),
        "op_s": metric(run.median("study_s"), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


WORKLOADS = {
    "engine_cold": engine_cold,
    "engine_warm": engine_warm,
    "study": study_workload,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    run = Run(seconds, trace, work)
    metrics = WORKLOADS[name](seed, run)
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
