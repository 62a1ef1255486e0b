"""Desk-scale replication study over synthetic corpora, in memory.

This module runs the same computation the engine performs through
sandboxed stages (weekly-count features, dropout labels, standardized
logistic model, future-session holdout vs k-fold cross-validation) but
directly over sampled count arrays, skipping CSV materialization and
process isolation. Row ordering, fold seeding, pooling, and scoring
mirror the stage implementations exactly, so a course's (holdout, cv)
AUC pair computed here equals the engine's exactly (``==``); a test
asserts that equivalence.

The two evaluation architectures answer the same question ("how good is
a dropout model for this course?") the two ways practitioners answer it:

* holdout: train on earlier sessions, score a future one: performance
  of a deployed model on a future cohort.
* cross_validation: k-fold within one training session, out-of-fold
  predictions pooled and scored once.

Both arms run on every course, with the sessions ``evalstats.session_roles``
assigns.

With no between-session shift the two agree in expectation; with shift,
cross-validation never pays the transfer cost and reads high.

The default StudyConfig is calibrated so that, over 45 courses, the
paired Wilcoxon test detects the positive bias decisively under shift
(p ~ 1e-5) while staying null-calibrated at shift 0 (0/20 seed
rejections at alpha=0.01 when frozen). Use this path for statistical
experiments (many corpora, many seeds); use the engine when provenance,
caching, and isolation matter.

Every fit uses ``Hyperparams()``, the constants the engine plans its
``train`` units with, and the bias report's interval is a 95% one.

``run_study`` spreads the fits (one holdout model or CV fold of one
course and week) over the CPUs the process may use, in forked workers;
its report is bit-identical to a serial run's.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .evalstats import (
    BiasReport,
    PairedAuc,
    PairedSample,
    auc,
    bias_report,
    kfold_split,
    session_roles,
)
from .refpipe import Hyperparams, Standardizer, predict, train_logreg
from .synthdata import SynthConfig, course_id_for, sample_session


def default_study_synth() -> SynthConfig:
    """Corpus used by the bias study: 45 courses x 3 sessions, shifted.

    Sessions are large (2000 learners) and the activity signal strong, so
    fold models and the holdout model all sit on the flat part of the
    learning curve. That keeps the two architectures statistically
    equivalent at shift 0; see the study docstring.
    """
    return SynthConfig(
        learners_per_session=2000,
        base_activity_rate=20.0,
        activity_effect=3.0,
        session_shift_sd=0.5,
        seed=7,
    )


@dataclass(frozen=True)
class StudyConfig:
    synth: SynthConfig = field(default_factory=default_study_synth)
    weeks: Tuple[int, ...] = (1,)
    k: int = 5
    fold_seed: Optional[int] = None  # defaults to synth.seed

    def __post_init__(self):
        if not self.weeks:
            raise ValueError("weeks must be non-empty")
        for w in self.weeks:
            if not 1 <= w < self.synth.num_weeks:
                raise ValueError("weeks must satisfy 1 <= w < num_weeks")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.synth.sessions_per_course < 2:
            raise ValueError("the paired study needs >= 2 sessions per course")

    @property
    def effective_fold_seed(self) -> int:
        return self.synth.seed if self.fold_seed is None else self.fold_seed


# fit 0 of a study week is its holdout model; fits 1..k are its CV folds
HOLDOUT_FIT = 0

# (cfg, course arrays) in a pool worker, inherited from run_study at fork
_worker_state = None


def _course_arrays(cfg: StudyConfig, course_idx: int):
    """A course's feature matrices per study week and its label vectors.

    Both list the sessions in start-date order.
    """
    sessions = [
        sample_session(cfg.synth, course_idx, s)
        for s in range(cfg.synth.sessions_per_course)
    ]
    features = {w: [s.feature_matrix(w) for s in sessions] for w in cfg.weeks}
    return features, [s.labels for s in sessions]


def _fits(cfg: StudyConfig) -> List[Tuple[int, int]]:
    """One course's fits as (week, fit), in the order its scores are read."""
    return [(w, fit) for w in cfg.weeks for fit in range(cfg.k + 1)]


def _fit_scores(cfg: StudyConfig, course, week: int, fit: int) -> np.ndarray:
    """Train one fit on its rows of ``course`` and score its test rows.

    Sessions take the roles ``session_roles`` gives a job running both
    schemes.
    """
    features, labels = course
    X_parts = features[week]
    train_idx, test_idx, cv_idx = session_roles(len(labels), True, True)
    if fit == HOLDOUT_FIT:
        # future-session holdout: sessions are in chronological order
        X_train = np.vstack([X_parts[i] for i in train_idx])
        y_train = np.concatenate([labels[i] for i in train_idx])
        X_test = X_parts[test_idx]
    else:
        X_cv, y_cv = X_parts[cv_idx], labels[cv_idx]
        test_mask = kfold_split(len(y_cv), cfg.k, cfg.effective_fold_seed) == fit
        X_train, y_train, X_test = X_cv[~test_mask], y_cv[~test_mask], X_cv[test_mask]
    std = Standardizer.fit(X_train)
    model = train_logreg(std.transform(X_train), y_train, Hyperparams())
    return predict(model, std.transform(X_test))


def _pairs_from_scores(cfg: StudyConfig, course_idx: int, course, scores):
    """(holdout, cv) AUC pairs of a course from its scores in ``_fits`` order.

    CV's out-of-fold predictions are pooled and scored once.
    """
    _, labels = course
    _, test_idx, cv_idx = session_roles(len(labels), True, True)
    y_cv = labels[cv_idx]
    assignment = kfold_split(len(y_cv), cfg.k, cfg.effective_fold_seed)
    scores = iter(scores)
    pairs = []
    for w in cfg.weeks:
        holdout_auc = auc(next(scores), labels[test_idx])
        pooled = np.empty(len(y_cv))
        for fold in range(1, cfg.k + 1):
            pooled[assignment == fold] = next(scores)
        pairs.append(
            PairedAuc(
                course_id=course_id_for(course_idx),
                week=w,
                holdout_auc=holdout_auc,
                cv_auc=auc(pooled, y_cv),
            )
        )
    return tuple(pairs)


def course_pairs(cfg: StudyConfig, course_idx: int) -> Tuple[PairedAuc, ...]:
    """(holdout, cv) AUC pairs for one course, one pair per study week."""
    course = _course_arrays(cfg, course_idx)
    scores = [_fit_scores(cfg, course, w, fit) for w, fit in _fits(cfg)]
    return _pairs_from_scores(cfg, course_idx, course, scores)


def _init_worker(cfg: StudyConfig, courses) -> None:
    global _worker_state
    _worker_state = (cfg, courses)


def _worker_fit(descriptor: Tuple[int, int, int]) -> np.ndarray:
    cfg, courses = _worker_state
    course_idx, week, fit = descriptor
    return _fit_scores(cfg, courses[course_idx], week, fit)


def _score_fits(cfg: StudyConfig, courses, descriptors) -> List[np.ndarray]:
    """Each (course, week, fit) descriptor's scores, over the usable CPUs.

    The workers are forks: they inherit ``courses`` and slice each fit's
    rows themselves, so the parent holds no training matrix. Every fit
    runs the same arithmetic on the same arrays wherever it runs, so the
    scores are bit-identical to a serial run's.
    """
    workers = min(len(os.sched_getaffinity(0)), len(descriptors))
    if workers == 1:
        return [_fit_scores(cfg, courses[c], w, fit) for c, w, fit in descriptors]
    # a forked pool starts no helper process that could outlive this call
    pool = multiprocessing.get_context("fork").Pool(
        workers, _init_worker, (cfg, courses)
    )
    try:
        return pool.map(_worker_fit, descriptors, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def run_study(cfg: StudyConfig) -> BiasReport:
    """Paired bias analysis pooled over every course and study week.

    The fits of all courses are spread over the CPUs this process may
    use; the report equals a serial run's (``==``).
    """
    courses = [_course_arrays(cfg, c) for c in range(cfg.synth.num_courses)]
    fits = _fits(cfg)
    descriptors = [(c, w, fit) for c in range(len(courses)) for w, fit in fits]
    scores = _score_fits(cfg, courses, descriptors)
    pairs = []
    for c, course in enumerate(courses):
        course_scores = scores[c * len(fits) : (c + 1) * len(fits)]
        pairs.extend(_pairs_from_scores(cfg, c, course, course_scores))
    return bias_report(PairedSample(pairs=tuple(pairs)))
