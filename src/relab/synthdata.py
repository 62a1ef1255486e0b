"""Seeded synthetic MOOC corpus generator.

Generative story, per session: each learner draws per-event-type latent
engagements z_t = TYPE_CORR * g + sqrt(1 - TYPE_CORR^2) * u_t, where g is
a shared factor and u_t is idiosyncratic, all standard normal. Weekly
event counts of type t are Poisson with mean base_activity_rate *
type_mix_t * session shift factors * exp(ENGAGEMENT_SIGMA * z_t).
Dropout follows a constant per-learner weekly hazard
sigmoid(logit(dropout_hazard) + hazard_shift - activity_effect * s),
where s is the session's hazard driver: a weighted combination of the
z_t, rescaled to unit variance. The first week whose hazard coin fires is
the learner's last active week; no events are produced afterwards.
Learners whose coin never fires stay active through the final week.

Session shift (session_shift_sd > 0) perturbs, per session: a global rate
factor, a per-event-type rate factor, the hazard log-odds, and - the part
that makes the shift matter to a model - the hazard driver weights
(alpha_t proportional to exp(gain * session_shift_sd * xi_t), normalized).
With shift 0 every session's hazard listens to the uniform combination of
type engagements, so a model fitted on one session transfers perfectly in
distribution to another. With shift > 0 the informative direction in
feature space rotates between sessions, so models fitted on earlier
sessions degrade on a future session while same-population
cross-validation does not see that rotation. The fixed gain constants
below weight the rotation strongly relative to the level shifts: level
shifts mostly add between-session difficulty noise that hits any
evaluation scheme, while the rotation is what separates transfer
performance from within-session performance.

Two observation facts worth knowing when designing experiments on this
corpus: (1) events run through the dropout week inclusive, so week-1
counts are never truncated; with activity_effect = 0 the label mechanism
is independent of the counts and a week-1 feature model is exactly null.
(2) For feature windows covering week 2 onward, truncation itself encodes
the dropout process into the features, which is learnable signal even at
activity_effect = 0, as in real clickstreams.

Everything is a pure function of (config, course_idx, session_idx): the
per-session RNG seed is the first 8 bytes of
SHA-256(LP(seed_be8) || LP(course_be8) || LP(session_be8)), big-endian.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from .hashing import sha256_concat
from .refpipe import EVENT_TYPES, WEEK_SECONDS, EventLog, _sigmoid, date_epoch

ENGAGEMENT_SIGMA = 0.6
TYPE_CORR = 0.5  # correlation of per-type engagements through the shared factor

# relative gains of the per-session perturbations, all scaled by
# session_shift_sd: the driver-weight rotation dominates by design
ALPHA_ROTATION_GAIN = 2.5
RATE_LEVEL_GAIN = 0.5
TYPE_LEVEL_GAIN = 0.5
HAZARD_LEVEL_GAIN = 0.5

# plausible MOOC activity mix over EVENT_TYPES order:
# video_play, quiz_attempt, forum_post, forum_view, page_view,
# assignment_submit, wiki_view
TYPE_MIX = np.array([0.35, 0.10, 0.06, 0.12, 0.25, 0.07, 0.05])

FIRST_START = dt.date(2013, 1, 7)
SESSION_GAP_DAYS = 182  # sessions of a course start ~26 weeks apart


@dataclass(frozen=True)
class SynthConfig:
    num_courses: int = 45
    sessions_per_course: int = 3
    num_weeks: int = 5
    learners_per_session: int = 200
    base_activity_rate: float = 8.0
    dropout_hazard: float = 0.18
    activity_effect: float = 1.2
    session_shift_sd: float = 0.35
    seed: int = 7

    def __post_init__(self):
        if self.num_courses < 1 or self.sessions_per_course < 1:
            raise ValueError("corpus shape must be positive")
        if self.num_weeks < 2:
            raise ValueError("num_weeks must be >= 2")
        if self.learners_per_session < 2:
            raise ValueError("learners_per_session must be >= 2")
        if self.base_activity_rate <= 0:
            raise ValueError("base_activity_rate must be positive")
        if not (0.0 < self.dropout_hazard < 1.0):
            raise ValueError("dropout_hazard must lie in (0, 1)")
        if self.session_shift_sd < 0:
            raise ValueError("session_shift_sd must be >= 0")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def derive_seed(seed: int, course_idx: int, session_idx: int) -> int:
    """Independent per-(course, session) RNG seed; see module docstring."""
    digest = sha256_concat(
        seed.to_bytes(8, "big"),
        course_idx.to_bytes(8, "big"),
        session_idx.to_bytes(8, "big"),
    )
    return int(digest[:16], 16)


def course_id_for(course_idx: int) -> str:
    return f"course{course_idx:03d}"


def session_id_for(course_idx: int, session_idx: int) -> str:
    return f"{course_id_for(course_idx)}-run{session_idx + 1}"


def session_start(session_idx: int) -> dt.date:
    return FIRST_START + dt.timedelta(days=SESSION_GAP_DAYS * session_idx)


@dataclass
class SessionSample:
    """Array-level view of one generated session (no timestamps yet)."""

    course_id: str
    session_id: str
    start_date: dt.date
    num_weeks: int
    learner_ids: tuple
    hazard_driver: np.ndarray  # standardized per-learner hazard input
    active_weeks: np.ndarray  # last week (1-based) with events possible
    counts: np.ndarray  # (n, num_weeks, 7) int64

    @property
    def labels(self) -> np.ndarray:
        """dropout = 1 iff zero events in the final week (matches pipeline)."""
        return (self.counts[:, -1, :].sum(axis=1) == 0).astype(np.int8)

    def feature_matrix(self, feature_weeks: int) -> np.ndarray:
        if not 1 <= feature_weeks < self.num_weeks:
            raise ValueError("feature_weeks must satisfy 1 <= w < num_weeks")
        n = len(self.learner_ids)
        return self.counts[:, :feature_weeks, :].reshape(n, -1).astype(float)


def sample_session(cfg: SynthConfig, course_idx: int, session_idx: int) -> SessionSample:
    """Draw one session's counts and dropout structure, deterministically.

    The RNG consumption order is fixed (shifts, engagement, hazard coins,
    counts) so identical inputs give identical arrays.
    """
    if not 0 <= course_idx < cfg.num_courses:
        raise ValueError("course_idx out of range")
    if not 0 <= session_idx < cfg.sessions_per_course:
        raise ValueError("session_idx out of range")
    rng = np.random.default_rng(derive_seed(cfg.seed, course_idx, session_idx))
    n, weeks = cfg.learners_per_session, cfg.num_weeks
    ntypes = len(EVENT_TYPES)

    # per-session perturbations, drawn first in a fixed order
    sd = cfg.session_shift_sd
    rate_shift = float(np.exp(rng.normal(0.0, RATE_LEVEL_GAIN * sd)))
    type_shift = np.exp(rng.normal(0.0, TYPE_LEVEL_GAIN * sd, size=ntypes))
    hazard_shift = float(rng.normal(0.0, HAZARD_LEVEL_GAIN * sd))
    alpha = np.exp(ALPHA_ROTATION_GAIN * sd * rng.standard_normal(ntypes))
    alpha = alpha / alpha.sum()

    # latent engagements: shared factor plus per-type idiosyncrasy
    g = rng.standard_normal(n)
    u = rng.standard_normal((n, ntypes))
    rho = TYPE_CORR
    z_types = rho * g[:, None] + np.sqrt(1.0 - rho * rho) * u

    # this session's hazard driver, rescaled to unit variance
    combined = z_types @ alpha
    driver_sd = np.sqrt(rho * rho + (1.0 - rho * rho) * float(alpha @ alpha))
    driver = combined / driver_sd

    base_logit = float(np.log(cfg.dropout_hazard / (1.0 - cfg.dropout_hazard)))
    hazard = _sigmoid(base_logit + hazard_shift - cfg.activity_effect * driver)

    coins = rng.random((n, weeks)) < hazard[:, None]
    fired = coins.any(axis=1)
    first_fire = coins.argmax(axis=1) + 1
    active_weeks = np.where(fired, first_fire, weeks)

    lam = (
        cfg.base_activity_rate
        * rate_shift
        * (TYPE_MIX * type_shift)[None, :]
        * np.exp(ENGAGEMENT_SIGMA * z_types)
    )
    counts = rng.poisson(np.broadcast_to(lam[:, None, :], (n, weeks, ntypes)))
    week_grid = np.arange(1, weeks + 1)[None, :, None]
    counts = np.where(week_grid <= active_weeks[:, None, None], counts, 0)

    session_id = session_id_for(course_idx, session_idx)
    learner_ids = tuple(f"{session_id}-l{i:05d}" for i in range(n))
    return SessionSample(
        course_id=course_id_for(course_idx),
        session_id=session_id,
        start_date=session_start(session_idx),
        num_weeks=weeks,
        learner_ids=learner_ids,
        hazard_driver=driver,
        active_weeks=active_weeks,
        counts=counts.astype(np.int64),
    )


def generate_session(cfg: SynthConfig, course_idx: int, session_idx: int) -> EventLog:
    """Materialize a SessionSample into an event log with timestamps.

    Timestamps are drawn uniformly (second resolution) within each event's
    week, continuing the same RNG stream, so the weekly counts of the
    materialized log equal the sampled count arrays exactly.
    """
    sample = sample_session(cfg, course_idx, session_idx)
    # continue the stream deterministically for timestamp jitter
    rng = np.random.default_rng(
        derive_seed(cfg.seed, course_idx, session_idx) ^ 0x9E3779B97F4A7C15
    )
    n, weeks, ntypes = sample.counts.shape
    flat = sample.counts.reshape(-1)
    learner_grid, week_grid, type_grid = np.meshgrid(
        np.arange(n), np.arange(1, weeks + 1), np.arange(ntypes), indexing="ij"
    )
    ev_learner = np.repeat(learner_grid.reshape(-1), flat)
    ev_week = np.repeat(week_grid.reshape(-1), flat)
    ev_type = np.repeat(type_grid.reshape(-1), flat)
    offsets = rng.integers(0, WEEK_SECONDS, size=len(ev_learner))

    timestamps = date_epoch(sample.start_date) + (ev_week - 1) * WEEK_SECONDS + offsets
    roster = np.array(sample.learner_ids, dtype=object)
    return EventLog(
        session_id=sample.session_id,
        start_date=sample.start_date,
        num_weeks=weeks,
        learners=sample.learner_ids,
        learner_ids=roster[ev_learner],
        timestamps=timestamps.astype(np.int64),
        event_types=ev_type.astype(np.int8),
    )


def generate_corpus(cfg: SynthConfig, registry_root: Path) -> List[dict]:
    """Write the data tree under <registry_root>/data and return descriptors.

    Refuses to run over a non-empty data directory: generated corpora are
    immutable inputs, never merged in place.
    """
    registry_root = Path(registry_root)
    data_dir = registry_root / "data"
    if data_dir.exists() and any(data_dir.iterdir()):
        raise ValueError(f"target data directory {data_dir} is not empty")
    data_dir.mkdir(parents=True, exist_ok=True)
    descriptors = []
    for course_idx in range(cfg.num_courses):
        course_id = course_id_for(course_idx)
        sessions = []
        for session_idx in range(cfg.sessions_per_course):
            log = generate_session(cfg, course_idx, session_idx)
            log.write_dir(data_dir / course_id / log.session_id, course_id=course_id)
            sessions.append(
                {
                    "session_id": log.session_id,
                    "start_date": log.start_date.isoformat(),
                    "num_weeks": log.num_weeks,
                    "files": ["events.csv", "session.json"],
                }
            )
        descriptors.append(
            {
                "course_id": course_id,
                "platform_schema": "event-log-v1",
                "sessions": sessions,
            }
        )
    return descriptors


def generate_and_register(cfg: SynthConfig, registry) -> List[str]:
    """Generate a corpus inside a registry's root and register every course."""
    descriptors = generate_corpus(cfg, registry.root)
    for descriptor in descriptors:
        registry.register_course(descriptor)
    return [d["course_id"] for d in descriptors]
