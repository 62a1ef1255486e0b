"""Per-layer spans for the benchmark, recorded from outside relab.

``Tracer.active()`` wraps the public functions of each relab module for
the duration of a ``with`` block and restores them afterwards. A module
function is replaced in every relab module that holds a reference to it
(``from .hashing import sha256_file`` binds a second name), so calls
through any import site are seen. Methods are replaced on their class.

A span records its name, start, end and the spans that caused it: the
innermost open span of the same thread or, for the outermost span on a
scheduler worker thread, every span open on the main thread when it
began (the worker serves ``Scheduler.execute``, whatever the main thread
is inside at that moment). A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# span name -> (module, function or Class.method)
TARGETS = {
    "cli.run_job": ("relab.cli", "Engine.run_job"),
    "manifest.validate": ("relab.manifest", "validate_manifest"),
    "registry.load_course": ("relab.registry", "Registry.load_course"),
    "scheduler.plan": ("relab.scheduler", "Scheduler.plan"),
    "scheduler.execute": ("relab.scheduler", "Scheduler.execute"),
    "scheduler.eval_report": ("relab.scheduler", "Scheduler.eval_report"),
    "executor.run_stage": ("relab.executor", "run_stage"),
    "executor.collect_outputs": ("relab.executor", "collect_outputs"),
    "provenance.cache_put": ("relab.provenance", "CacheStore.put"),
    "provenance.cache_get": ("relab.provenance", "CacheStore.get"),
    "provenance.materialize": ("relab.provenance", "CacheStore.materialize"),
    "provenance.put_blob": ("relab.provenance", "CacheStore.put_blob"),
    "provenance.get_blob": ("relab.provenance", "CacheStore.get_blob"),
    "provenance.record_trial": ("relab.provenance", "record_trial"),
    "provenance.ledger_append": ("relab.provenance", "TrialLedger.append"),
    "provenance.export_bundle": ("relab.provenance", "export_bundle"),
    "provenance.import_bundle": ("relab.provenance", "import_bundle"),
    "hashing.sha256_file": ("relab.hashing", "sha256_file"),
    "refpipe.train_logreg": ("relab.refpipe", "train_logreg"),
    "refpipe.predict": ("relab.refpipe", "predict"),
    "synthdata.sample_session": ("relab.synthdata", "sample_session"),
    "synthdata.generate_and_register": ("relab.synthdata", "generate_and_register"),
    "study.course_pairs": ("relab.study", "course_pairs"),
    "evalstats.auc": ("relab.evalstats", "auc"),
    "evalstats.kfold_split": ("relab.evalstats", "kfold_split"),
    "evalstats.bias_report": ("relab.evalstats", "bias_report"),
}


def _count_blob_written(tracer, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.add("provenance.blob_bytes_written", len(data))


def _count_hashed(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.add("hashing.bytes_hashed", os.path.getsize(path))


def _count_execute(tracer, args, kwargs, result):
    tracer.add("scheduler.units", len(result.entries))
    tracer.add("scheduler.cache_hits", result.cache_hits)


# counters read from a wrapped call's arguments or result
HOOKS = {
    "executor.run_stage": lambda t, a, k, r: t.add("executor.stage_process_s", r.duration),
    "scheduler.execute": _count_execute,
    "provenance.put_blob": _count_blob_written,
    "provenance.get_blob": lambda t, a, k, r: t.add("provenance.blob_bytes_read", len(r)),
    "hashing.sha256_file": _count_hashed,
}

# (metric, unit, better): the per-layer metrics every traced run prints,
# each per measured operation except generate_and_register (per set-up);
# the engine.* pair is measured around the program, not by a wrapper
PER_LAYER = (
    ("executor.run_stage_s", "s", "lower"),
    ("executor.run_stage_n", "count", "lower"),
    ("executor.stage_process_s", "s", "lower"),
    ("executor.sandbox_overhead_s", "s", "lower"),
    ("executor.spawn_import_s", "s", "lower"),
    ("executor.collect_outputs_s", "s", "lower"),
    ("scheduler.plan_s", "s", "lower"),
    ("scheduler.execute_s", "s", "lower"),
    ("scheduler.execute_self_s", "s", "lower"),
    ("scheduler.units", "count", "lower"),
    ("scheduler.cache_hits", "count", "higher"),
    ("scheduler.eval_report_s", "s", "lower"),
    ("registry.load_course_s", "s", "lower"),
    ("registry.load_course_n", "count", "lower"),
    ("manifest.validate_s", "s", "lower"),
    ("provenance.cache_put_s", "s", "lower"),
    ("provenance.cache_put_n", "count", "lower"),
    ("provenance.blob_bytes_written", "bytes", "lower"),
    ("provenance.cache_get_s", "s", "lower"),
    ("provenance.cache_get_n", "count", "lower"),
    ("provenance.materialize_s", "s", "lower"),
    ("provenance.blob_bytes_read", "bytes", "lower"),
    ("provenance.record_trial_s", "s", "lower"),
    ("provenance.ledger_append_s", "s", "lower"),
    ("provenance.export_bundle_s", "s", "lower"),
    ("provenance.import_bundle_s", "s", "lower"),
    ("hashing.sha256_file_s", "s", "lower"),
    ("hashing.bytes_hashed", "bytes", "lower"),
    ("refpipe.train_logreg_s", "s", "lower"),
    ("refpipe.train_logreg_n", "count", "lower"),
    ("refpipe.predict_s", "s", "lower"),
    ("synthdata.sample_session_s", "s", "lower"),
    ("synthdata.generate_and_register_s", "s", "lower"),
    ("study.course_pairs_s", "s", "lower"),
    ("evalstats.auc_s", "s", "lower"),
    ("evalstats.kfold_split_s", "s", "lower"),
    ("evalstats.bias_report_s", "s", "lower"),
    ("cli.run_job_s", "s", "lower"),
    ("engine.disk_mb", "MB", "lower"),
    ("engine.child_peak_rss_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

class Tracer:
    """Spans and counters kept in memory while wrappers are installed."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent ids)
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._main_stack = []
        self._local = threading.local()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parents = (stack[-1],) if stack else tuple(self._main_stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parents))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def active(self):
        """Install every wrapper for the block; restore the originals after."""
        for module, _ in TARGETS.values():
            importlib.import_module(module)
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "relab" or n.startswith("relab.")
        ]
        undo = []
        for name, (module, attr) in TARGETS.items():
            mod = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original))
                undo.append((cls, method, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))
        try:
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def busy(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for _, n, _, _, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        children = defaultdict(list)
        for _, _, start, end, parents in self.spans:
            for parent in parents:
                children[parent].append((start, end))
        total = 0.0
        for span_id, n, start, end, _ in self.spans:
            if n != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[span_id]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total


def spawn_import_probe(work: Path, repeats: int = 5) -> float:
    """Median wall time of ``python3 -m relab.refpipe`` importing and exiting.

    The probe runs with the environment and working directory a stage
    gets; its STAGE names no stage, so the module exits right after import
    with code 2 instead of running one.
    """
    from relab.executor import SandboxSpec, stage_environment

    dirs = {name: work / name for name in ("data", "scratch", "out")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    sandbox = SandboxSpec(
        data_mount=dirs["data"].resolve(),
        scratch_dir=dirs["scratch"].resolve(),
        output_dir=dirs["out"].resolve(),
        env={"STAGE": "probe", "COURSE_ID": "", "SESSION_ID": "", "SEED": "0"},
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            ["python3", "-m", "relab.refpipe"],
            cwd=sandbox.scratch_dir,
            env=stage_environment(sandbox),
            capture_output=True,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 2 or b"unknown stage" not in proc.stderr:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def layer_metrics(
    tracer: Tracer,
    ops: int,
    setup_tracer: Tracer,
    setups: int,
    spawn_import_s: float,
    overhead_pct: float,
    measured: dict,
) -> dict:
    """Every PER_LAYER metric, per traced operation (set-up ones per set-up).

    ``<span>_s`` is the busy time and ``<span>_n`` the call count of a
    wrapped span; ``measured`` holds the engine.* metrics a workload takes
    around the program (absent ones read 0); any other name not derived
    below is a HOOKS counter.
    """

    def per_op(name: str) -> float:
        span, suffix = name[:-2], name[-2:]
        if span in TARGETS and suffix == "_s":
            return tracer.busy(span) / ops
        if span in TARGETS and suffix == "_n":
            return tracer.calls(span) / ops
        return tracer.counters[name] / ops

    derived = {
        "executor.sandbox_overhead_s": (
            per_op("executor.run_stage_s") - per_op("executor.stage_process_s")
        ),
        "scheduler.execute_self_s": tracer.self_time("scheduler.execute") / ops,
        "executor.spawn_import_s": spawn_import_s,
        "synthdata.generate_and_register_s": (
            setup_tracer.busy("synthdata.generate_and_register") / setups
        ),
        "trace.overhead_pct": overhead_pct,
        "engine.disk_mb": measured.get("engine.disk_mb", 0.0),
        "engine.child_peak_rss_mb": measured.get("engine.child_peak_rss_mb", 0.0),
    }
    return {
        name: {"value": derived[name] if name in derived else per_op(name), "unit": unit}
        for name, unit, _ in PER_LAYER
    }

__all__ = ["PER_LAYER", "TARGETS", "Tracer", "layer_metrics", "spawn_import_probe"]
