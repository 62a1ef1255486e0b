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

``course_pairs`` is the whole computation of one course: it samples the
course's sessions and fits the holdout model and the k CV folds of each
study week. ``run_study`` maps it over the courses, serially on one
usable CPU and otherwise in a pool of forked workers, one course per
task; its report is bit-identical to a serial run's. On a 2-core host
the default 45-course study took 0.8-1.1 s pooled and 1.5-1.7 s serially.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

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
        if len(set(self.weeks)) != len(self.weeks):
            raise ValueError("weeks must not repeat")
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


def _fit_scores(X_train, y_train, X_test) -> np.ndarray:
    """Scores of ``X_test`` under a model fit to the standardized train rows."""
    std = Standardizer.fit(X_train)
    model = train_logreg(std.transform(X_train), y_train, Hyperparams())
    return predict(model, std.transform(X_test))


def course_pairs(cfg: StudyConfig, course_idx: int) -> Tuple[PairedAuc, ...]:
    """(holdout, cv) AUC pairs for one course, one pair per study week.

    Sessions, sampled in start-date order, take the roles
    ``session_roles`` gives a job running both schemes. CV's out-of-fold
    predictions are pooled and scored once.
    """
    sessions = [
        sample_session(cfg.synth, course_idx, s)
        for s in range(cfg.synth.sessions_per_course)
    ]
    labels = [s.labels for s in sessions]
    train_idx, test_idx, cv_idx = session_roles(len(sessions), True, True)
    y_train = np.concatenate([labels[i] for i in train_idx])
    y_cv = labels[cv_idx]
    assignment = kfold_split(len(y_cv), cfg.k, cfg.effective_fold_seed)
    pairs = []
    for w in cfg.weeks:
        X = [s.feature_matrix(w) for s in sessions]
        # future-session holdout: sessions are in chronological order
        X_train = np.vstack([X[i] for i in train_idx])
        holdout = _fit_scores(X_train, y_train, X[test_idx])
        X_cv = X[cv_idx]
        pooled = np.empty(len(y_cv))
        for fold in range(1, cfg.k + 1):
            test = assignment == fold
            pooled[test] = _fit_scores(X_cv[~test], y_cv[~test], X_cv[test])
        pairs.append(
            PairedAuc(
                course_id=course_id_for(course_idx),
                week=w,
                holdout_auc=auc(holdout, labels[test_idx]),
                cv_auc=auc(pooled, y_cv),
            )
        )
    return tuple(pairs)


def _pooled_course_pairs(cfg: StudyConfig, course_idx: int):
    # the pool pickles this function by name; course_pairs may be swapped
    # for a wrapper pickle cannot send, so it is looked up in the worker
    return course_pairs(cfg, course_idx)


def run_study(cfg: StudyConfig) -> BiasReport:
    """Paired bias analysis pooled over every course and study week.

    Courses are spread over the CPUs this process may use, in at most
    one forked worker per CPU; the report equals a serial run's (``==``).
    """
    courses = range(cfg.synth.num_courses)
    workers = min(len(os.sched_getaffinity(0)), len(courses))
    if workers == 1:
        per_course = [course_pairs(cfg, c) for c in courses]
    else:
        # a forked pool starts no helper process that could outlive this call
        pool = multiprocessing.get_context("fork").Pool(workers)
        try:
            per_course = pool.starmap(
                _pooled_course_pairs, [(cfg, c) for c in courses], chunksize=1
            )
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.close()
            pool.join()
    pairs = tuple(p for course in per_course for p in course)
    return bias_report(PairedSample(pairs=pairs))
