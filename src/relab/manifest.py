"""Experiment manifests: parse, validate, render, and canonicalize.

A manifest is a single JSON document that pins everything a trial depends
on: the experiment environment reference, the four-stage pipeline, the
dataset selection, the evaluation scheme, the seed, and the feature
window. Unknown fields are rejected rather than ignored so that two
replications cannot silently diverge through typos or extensions.

Canonical form (the bytes that get hashed into trial identity) is the
dataclass field tree (``dataclasses.asdict``, every default explicit)
serialized as sorted-key minified UTF-8 JSON, so a field added to any
manifest dataclass enters the digest; `canonicalize` is a pure function
of field values, independent of how the source document was formatted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

from .evalstats import SCHEME_CV, SCHEME_HOLDOUT, session_roles
from .hashing import canonical_json_bytes, stable_json
from .refpipe import FEATURES_FILE, LABELS_FILE, METRICS_FILE, MODEL_FILE
from .refpipe import PREDICTIONS_FILE
from .registry import DatasetSelector, Registry, RegistryError, normalize_relative

STAGE_ORDER = ("extract", "train", "test", "evaluate")
EVAL_SCHEMES = (SCHEME_HOLDOUT, SCHEME_CV, "both")
CV_POOLINGS = ("pooled",)

DEFAULT_STAGE_COMMAND = ("python3", "-m", "relab.refpipe")
DEFAULT_STAGE_TIMEOUT = 600.0
DEFAULT_STAGE_OUTPUTS = {
    "extract": (FEATURES_FILE, LABELS_FILE),
    "train": (MODEL_FILE,),
    "test": (PREDICTIONS_FILE,),
    "evaluate": (METRICS_FILE,),
}


class ManifestError(Exception):
    """Raised for syntax errors, missing/unknown fields, and bad values."""


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ManifestError(f"missing required field {key!r} in {where}")
    return obj[key]


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ManifestError(f"unknown field(s) in {where}: {', '.join(extra)}")


def _typed(value, types, what: str, kind: str):
    """`value` when it is one of `types`, else an error; a boolean never is."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ManifestError(f"{what} must be {kind}")
    return value


def _strings(value, what: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ManifestError(f"{what} must be a list of strings")
    return tuple(value)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class StageSpec:
    name: str
    command: Tuple[str, ...]
    timeout: float
    outputs: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "timeout", float(self.timeout))
        if self.name not in STAGE_ORDER:
            raise ManifestError(f"unknown stage name {self.name!r}")
        if self.timeout <= 0:
            raise ManifestError(f"stage {self.name!r} timeout must be positive")
        if not self.command:
            raise ManifestError(f"stage {self.name!r} command must be non-empty")
        for path in self.outputs:
            if normalize_relative(path) != path:
                raise ManifestError(
                    f"stage {self.name!r} output {path!r} must be a clean relative path"
                )
        if self.name != "evaluate" and not self.outputs:
            raise ManifestError(f"stage {self.name!r} must declare outputs")


@dataclass(frozen=True)
class EvalConfig:
    scheme: str
    k: Optional[int] = None
    metric: str = "auc"
    ci_level: float = 0.95
    cv_pooling: str = "pooled"

    def __post_init__(self):
        object.__setattr__(self, "ci_level", float(self.ci_level))
        if self.scheme not in EVAL_SCHEMES:
            raise ManifestError(f"unknown eval scheme {self.scheme!r}")
        if self.metric != "auc":
            raise ManifestError(f"unsupported metric {self.metric!r}")
        if not (0.0 < self.ci_level < 1.0):
            raise ManifestError("ci_level must lie strictly between 0 and 1")
        if self.cv_pooling not in CV_POOLINGS:
            raise ManifestError(f"unknown cv_pooling {self.cv_pooling!r}")
        if self.uses_cv:
            if self.k is None or self.k < 2:
                raise ManifestError("cross-validation requires k >= 2")

    @property
    def uses_cv(self) -> bool:
        return self.scheme != SCHEME_HOLDOUT

    @property
    def uses_holdout(self) -> bool:
        return self.scheme != SCHEME_CV


@dataclass(frozen=True)
class JobManifest:
    experiment_name: str
    image_ref: str
    stages: Tuple[StageSpec, ...]
    dataset_selector: DatasetSelector
    eval_config: EvalConfig
    seed: int
    feature_weeks: int

    def __post_init__(self):
        if not self.experiment_name:
            raise ManifestError("experiment_name must be non-empty")
        if not self.image_ref:
            raise ManifestError("image_ref must be non-empty")
        names = tuple(s.name for s in self.stages)
        if names != STAGE_ORDER:
            raise ManifestError(
                f"stage order violation: expected {list(STAGE_ORDER)}, got {list(names)}"
            )
        if METRICS_FILE not in self.stage("evaluate").outputs:
            raise ManifestError(f"stage 'evaluate' must declare {METRICS_FILE!r}")
        if not (0 <= self.seed < 1 << 64):
            raise ManifestError("seed must fit in an unsigned 64-bit integer")
        if self.feature_weeks < 1:
            raise ManifestError("feature_weeks must be >= 1")

    def stage(self, name: str) -> StageSpec:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# parse / render / canonicalize


def _parse_stage(obj: dict, index: int) -> StageSpec:
    where = f"stages[{index}]"
    if not isinstance(obj, dict):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(obj, _field_names(StageSpec), where)
    name = _typed(_require(obj, "name", where), str, f"{where}.name", "a string")
    command = _strings(obj.get("command", DEFAULT_STAGE_COMMAND), f"{where}.command")
    timeout = _typed(obj.get("timeout", DEFAULT_STAGE_TIMEOUT), (int, float),
                     f"{where}.timeout", "a number")
    outputs = _strings(obj.get("outputs", DEFAULT_STAGE_OUTPUTS.get(name, ())),
                       f"{where}.outputs")
    return StageSpec(name=name, command=command, timeout=timeout, outputs=outputs)


def _parse_selector(obj: dict) -> DatasetSelector:
    if not isinstance(obj, dict):
        raise ManifestError("dataset_selector must be an object")
    _reject_unknown(obj, _field_names(DatasetSelector), "dataset_selector")
    try:
        return DatasetSelector.from_json_obj(obj)
    except RegistryError as exc:
        raise ManifestError(str(exc)) from exc


def _parse_eval(obj: dict) -> EvalConfig:
    if not isinstance(obj, dict):
        raise ManifestError("eval_config must be an object")
    _reject_unknown(obj, _field_names(EvalConfig), "eval_config")
    _require(obj, "scheme", "eval_config")
    _typed(obj.get("k"), (int, type(None)), "eval_config.k", "an integer")
    if "ci_level" in obj:
        _typed(obj["ci_level"], (int, float), "eval_config.ci_level", "a number")
    return EvalConfig(**obj)


def _reject_constant(name: str):
    # json.loads reads NaN, Infinity and -Infinity, which are not JSON
    raise ManifestError(f"{name} is not a JSON number")


def parse_manifest(text: str) -> JobManifest:
    """Parse a manifest document, applying documented defaults.

    Raises ManifestError with position information for syntax errors and
    with field names for structural problems; unknown fields and the
    non-standard constants ``NaN`` and ``Infinity`` anywhere in the
    document are errors.
    """
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ManifestError("manifest must be a JSON object")
    _reject_unknown(obj, _field_names(JobManifest), "manifest")
    stages_obj = _require(obj, "stages", "manifest")
    if not isinstance(stages_obj, list) or len(stages_obj) != 4:
        raise ManifestError("stages must be a list of exactly 4 entries")
    return JobManifest(
        experiment_name=_typed(_require(obj, "experiment_name", "manifest"), str,
                               "experiment_name", "a string"),
        image_ref=_typed(_require(obj, "image_ref", "manifest"), str,
                         "image_ref", "a string"),
        stages=tuple(_parse_stage(s, i) for i, s in enumerate(stages_obj)),
        dataset_selector=_parse_selector(_require(obj, "dataset_selector", "manifest")),
        eval_config=_parse_eval(_require(obj, "eval_config", "manifest")),
        seed=_typed(_require(obj, "seed", "manifest"), int, "seed", "an integer"),
        feature_weeks=_typed(_require(obj, "feature_weeks", "manifest"), int,
                             "feature_weeks", "an integer"),
    )


def render_manifest(m: JobManifest) -> str:
    """Human-readable document that parses back to an equal manifest."""
    return stable_json(asdict(m))


def canonicalize(m: JobManifest) -> bytes:
    """Deterministic bytes for hashing: sorted keys, minified, UTF-8."""
    return canonical_json_bytes(asdict(m))


def default_manifest(
    experiment_name: str,
    selector: DatasetSelector,
    eval_config: EvalConfig,
    seed: int,
    feature_weeks: int,
    image_ref: str = "builtin/refpipe@v1",
) -> JobManifest:
    """Convenience constructor with the built-in pipeline's default stages."""
    stages = tuple(
        StageSpec(
            name=name,
            command=DEFAULT_STAGE_COMMAND,
            timeout=DEFAULT_STAGE_TIMEOUT,
            outputs=DEFAULT_STAGE_OUTPUTS[name],
        )
        for name in STAGE_ORDER
    )
    return JobManifest(
        experiment_name=experiment_name,
        image_ref=image_ref,
        stages=stages,
        dataset_selector=selector,
        eval_config=eval_config,
        seed=seed,
        feature_weeks=feature_weeks,
    )


# ---------------------------------------------------------------------------
# validation against a registry


def validate_manifest(m: JobManifest, registry: Registry) -> ValidationReport:
    """Check a manifest against registry state; violations are data.

    Violations: unresolvable selector, holdout over a single-session
    course. Warnings: CV fold count exceeding the CV session's learner
    count (when roster sizes are discoverable from session metadata).
    """
    violations = []
    warnings = []
    try:
        courses = registry.resolve_selector(m.dataset_selector)
    except RegistryError as exc:
        return ValidationReport(violations=(str(exc),))
    if not courses:
        return ValidationReport(violations=("selector matches no sessions",))

    cfg = m.eval_config
    for course in courses:
        course_id, sessions = course.course_id, course.sessions
        try:
            _, _, cv_idx = session_roles(
                len(sessions), cfg.uses_holdout, cfg.uses_cv
            )
        except ValueError as exc:
            violations.append(
                f"{exc}; course {course_id!r} selects {len(sessions)}"
            )
            cv_idx = None
        for session in sessions:
            if m.feature_weeks >= session.num_weeks:
                violations.append(
                    f"feature_weeks={m.feature_weeks} must be < num_weeks="
                    f"{session.num_weeks} for {course_id}/{session.session_id}"
                )
        if cv_idx is not None:
            cv_session = sessions[cv_idx].session_id
            count = registry.learner_count(course_id, cv_session)
            if count is not None and cfg.k > count:
                warnings.append(
                    f"cv k={cfg.k} exceeds pooled learner count {count} of cv "
                    f"session {cv_session!r} in course {course_id!r}"
                )
    return ValidationReport(violations=tuple(violations), warnings=tuple(warnings))


__all__ = [
    "CV_POOLINGS",
    "DEFAULT_STAGE_COMMAND",
    "DEFAULT_STAGE_OUTPUTS",
    "DEFAULT_STAGE_TIMEOUT",
    "EVAL_SCHEMES",
    "EvalConfig",
    "JobManifest",
    "ManifestError",
    "STAGE_ORDER",
    "StageSpec",
    "ValidationReport",
    "canonicalize",
    "default_manifest",
    "parse_manifest",
    "render_manifest",
    "validate_manifest",
]
