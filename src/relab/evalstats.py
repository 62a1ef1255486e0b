"""Evaluation statistics: AUC, confidence intervals, paired tests, the
evaluation design (which session plays which role) and fold assignment.

Everything here is deterministic given its inputs. scipy is imported lazily
and only for the Student-t quantile; the rest is numpy and stdlib math so
that worker processes importing this module stay cheap to start.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ALL_COURSES",
    "BiasReport",
    "EvalReport",
    "EvalRow",
    "PairedAuc",
    "PairedSample",
    "StatTestResult",
    "WeekBias",
    "auc",
    "bias_report",
    "build_eval_report",
    "kfold_split",
    "mean_ci",
    "session_roles",
    "wilcoxon_signed_rank",
]

# course_id used for cross-course summary rows in reports
ALL_COURSES = "ALL"

# largest effective sample size for which the signed-rank null distribution
# is enumerated exactly; beyond this the normal approximation takes over
EXACT_WILCOXON_MAX_N = 25

SCHEME_HOLDOUT = "holdout"
SCHEME_CV = "cross_validation"
VALID_SCHEMES = (SCHEME_HOLDOUT, SCHEME_CV)


# ---------------------------------------------------------------------------
# small result containers


@dataclass(frozen=True)
class StatTestResult:
    """Outcome of a paired significance test."""

    statistic: float
    n_effective: int
    p_value: float
    method: str


@dataclass(frozen=True)
class PairedAuc:
    """One course's AUC under both estimation schemes at one feature week."""

    course_id: str
    week: int
    holdout_auc: float
    cv_auc: float

    @property
    def difference(self) -> float:
        return self.cv_auc - self.holdout_auc


@dataclass(frozen=True)
class PairedSample:
    """A collection of per-course paired AUCs sharing an experiment."""

    pairs: tuple

    def differences(self) -> np.ndarray:
        return np.array([p.difference for p in self.pairs], dtype=float)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class WeekBias:
    """Per-feature-week slice of the paired bias analysis."""

    week: int
    n_pairs: int
    mean_bias: float
    statistic: float
    p_value: float
    method: str


@dataclass(frozen=True)
class BiasReport:
    """Paired comparison of cross-validated vs holdout AUC across courses."""

    n_pairs: int
    mean_bias: float
    ci_lo: float
    ci_hi: float
    test: StatTestResult
    per_week: tuple
    pairs: PairedSample

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        del obj["pairs"]
        return obj


# ---------------------------------------------------------------------------
# ranking and AUC


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their rank span."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    n = len(values)
    change = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(change)
    ends = np.r_[starts[1:], n]
    # mean of the 1-based positions start+1 .. end
    avg = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank-sum identity.

    Equals the probability that a uniformly chosen positive outscores a
    uniformly chosen negative, with tied scores counted as half a win.
    Runs in O(n log n); requires at least one positive and one negative.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc is undefined when only one class is present")
    ranks = _midranks(s)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# confidence interval


def mean_ci(values: Sequence[float], level: float) -> tuple:
    """Mean with a two-sided Student-t interval (variance from the sample).

    The interval is not clipped: endpoints may leave [0, 1] even when the
    inputs are AUCs, which keeps coverage honest for small n.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("mean_ci requires at least two values")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be strictly between 0 and 1")
    n = len(v)
    m = float(v.mean())
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        return (m, m, m)
    from scipy import stats as _spstats  # deferred: only distribution quantiles

    q = float(_spstats.t.ppf((1.0 + level) / 2.0, n - 1))
    half = q * sd / math.sqrt(n)
    return (m, m - half, m + half)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _signed_rank_statistic(d: np.ndarray) -> float:
    """Sum of |difference| midranks over the positive differences."""
    ranks = _midranks(np.abs(d))
    return float(ranks[d > 0].sum())


def _wilcoxon_exact_p(d: np.ndarray) -> float:
    """Exact two-sided p for nonzero differences d, ties allowed.

    Under the null every sign pattern is equally likely while |d| (hence the
    midranks) stays fixed, so the null distribution of W is the distribution
    of a random subset sum of the midranks. Doubling the midranks makes them
    integers, which lets a dense subset-sum table enumerate all 2^n patterns
    in O(n * total) instead of 2^n work. Counts stay below 2^25 and are
    exact in float64.
    """
    n = len(d)
    ranks = _midranks(np.abs(d))
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    w2 = int(np.rint(2.0 * float(ranks[d > 0].sum())))
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=float)
    dist[0] = 1.0
    for r in doubled:
        # full RHS evaluation before assignment keeps the 0/1 knapsack exact
        dist[r:] = dist[r:] + dist[:-r]
    denom = 2.0**n
    p_ge = float(dist[w2:].sum()) / denom
    p_le = float(dist[: w2 + 1].sum()) / denom
    return min(1.0, 2.0 * min(p_ge, p_le))


def _wilcoxon_normal_p(d: np.ndarray) -> float:
    """Normal-approximation two-sided p with tie-corrected variance.

    Applies a 0.5 continuity correction toward the null mean.
    """
    n = len(d)
    w = _signed_rank_statistic(d)
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float((tie_counts.astype(float) ** 3 - tie_counts).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0.0:
        return 1.0
    z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var)
    sf = 0.5 * math.erfc(z / math.sqrt(2.0))
    return min(1.0, 2.0 * sf)


def wilcoxon_signed_rank(
    diffs: Union[Sequence[float], PairedSample],
) -> StatTestResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped before ranking. With at most
    ``EXACT_WILCOXON_MAX_N`` nonzero differences the p-value is exact over
    all sign patterns (ties handled through midranks); larger samples use
    the tie-corrected normal approximation with continuity correction.
    An empty effective sample yields statistic 0 and p-value 1.
    """
    if isinstance(diffs, PairedSample):
        d = diffs.differences()
    else:
        d = np.asarray(diffs, dtype=float)
    if d.ndim != 1:
        raise ValueError("differences must form a 1-d array")
    if not np.isfinite(d).all():
        raise ValueError("differences must be finite")
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return StatTestResult(statistic=0.0, n_effective=0, p_value=1.0, method="exact")
    w = _signed_rank_statistic(d)
    if n <= EXACT_WILCOXON_MAX_N:
        return StatTestResult(
            statistic=w, n_effective=n, p_value=_wilcoxon_exact_p(d), method="exact"
        )
    return StatTestResult(
        statistic=w,
        n_effective=n,
        p_value=_wilcoxon_normal_p(d),
        method="normal_approx",
    )


# ---------------------------------------------------------------------------
# evaluation design and folds


def session_roles(n_sessions: int, holdout: bool, cv: bool) -> tuple:
    """Positional roles of ``n_sessions`` sessions in start-date order.

    Returns ``(train, test, cv_session)``. The holdout arm trains on every
    session but the latest (``train``, a range) and tests on the latest
    (``test``). The cross-validation arm splits one session into folds:
    with the holdout arm beside it, that is the most recent session the
    holdout arm trains on (the second-to-latest), the estimate one would
    compute before the future session runs; on its own, the latest. An
    arm that does not run gets an empty range or None. Holdout needs at
    least two sessions.
    """
    last = n_sessions - 1
    if not holdout:
        return range(0), None, last if cv else None
    if n_sessions < 2:
        raise ValueError("holdout requires >= 2 sessions")
    return range(last), last, last - 1 if cv else None


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """Assign each of n rows a fold label in 1..k, balanced within one row.

    A seeded uniform shuffle is chunked contiguously, so the first n % k
    folds get one extra row. Deterministic for a given (n, k, seed).
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("n and k must be integers")
    if k < 2 or k > n:
        raise ValueError("k must satisfy 2 <= k <= n")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    out = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    offset = 0
    for fold in range(1, k + 1):
        size = base + (1 if fold <= extra else 0)
        out[perm[offset : offset + size]] = fold
        offset += size
    return out


# ---------------------------------------------------------------------------
# bias report


def bias_report(sample: PairedSample, ci_level: float = 0.95) -> BiasReport:
    """Summarize cv - holdout AUC differences across courses.

    Returns the mean difference with a Student-t interval, the signed-rank
    test over all pairs, and the same test sliced per feature week.
    Requires at least two pairs.
    """
    if len(sample) < 2:
        raise ValueError("bias_report requires at least two pairs")
    diffs = sample.differences()
    mean_bias, ci_lo, ci_hi = mean_ci(diffs, ci_level)
    test = wilcoxon_signed_rank(diffs)
    weeks = sorted({p.week for p in sample.pairs})
    per_week = []
    for week in weeks:
        wd = np.array(
            [p.difference for p in sample.pairs if p.week == week], dtype=float
        )
        wres = wilcoxon_signed_rank(wd)
        per_week.append(
            WeekBias(
                week=week,
                n_pairs=len(wd),
                mean_bias=float(wd.mean()),
                statistic=wres.statistic,
                p_value=wres.p_value,
                method=wres.method,
            )
        )
    return BiasReport(
        n_pairs=len(sample),
        mean_bias=mean_bias,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        test=test,
        per_week=tuple(per_week),
        pairs=sample,
    )


# ---------------------------------------------------------------------------
# evaluation report assembly


@dataclass(frozen=True)
class EvalRow:
    """One (course, feature week, scheme) AUC; summary rows carry a CI."""

    course_id: str
    week: int
    scheme: str
    auc: float
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None


@dataclass(frozen=True)
class EvalReport:
    """Tabular AUC results plus the cross-scheme aggregate, serializable."""

    rows: tuple
    aggregate: Optional[BiasReport]
    metadata: dict = field(default_factory=dict)
    ci_level: float = 0.95

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["course_id", "week", "scheme", "auc", "ci_lo", "ci_hi"])
        for row in self.rows:
            writer.writerow(
                [
                    row.course_id,
                    row.week,
                    row.scheme,
                    _fmt(row.auc),
                    _fmt(row.ci_lo),
                    _fmt(row.ci_hi),
                ]
            )
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        aggregate = None if self.aggregate is None else self.aggregate.to_json_obj()
        return dict(asdict(self), aggregate=aggregate)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def build_eval_report(
    rows: Iterable[EvalRow], ci_level: float = 0.95, metadata: Optional[dict] = None
) -> EvalReport:
    """Assemble per-course rows into a report with summaries and bias stats.

    Adds one ``ALL`` row per (week, scheme) holding the cross-course mean
    AUC and its t-interval, and, when any course reports both schemes for
    the same week, a paired bias aggregate over those courses.
    """
    course_rows = sorted(rows, key=lambda r: (r.course_id, r.week, r.scheme))
    for row in course_rows:
        if row.course_id == ALL_COURSES:
            raise ValueError(f"course_id {ALL_COURSES!r} is reserved for summaries")
        if row.scheme not in VALID_SCHEMES:
            raise ValueError(f"unknown scheme {row.scheme!r}")

    grouped: dict = {}
    for row in course_rows:
        grouped.setdefault((row.week, row.scheme), []).append(row.auc)
    summary_rows = []
    for (week, scheme) in sorted(grouped):
        values = grouped[(week, scheme)]
        if len(values) >= 2:
            m, lo, hi = mean_ci(values, ci_level)
        else:
            m, lo, hi = float(values[0]), None, None
        summary_rows.append(
            EvalRow(
                course_id=ALL_COURSES,
                week=week,
                scheme=scheme,
                auc=m,
                ci_lo=lo,
                ci_hi=hi,
            )
        )

    by_course_week: dict = {}
    for row in course_rows:
        by_course_week.setdefault((row.course_id, row.week), {})[row.scheme] = row.auc
    paired = [
        PairedAuc(
            course_id=course,
            week=week,
            holdout_auc=schemes[SCHEME_HOLDOUT],
            cv_auc=schemes[SCHEME_CV],
        )
        for (course, week), schemes in sorted(by_course_week.items())
        if SCHEME_HOLDOUT in schemes and SCHEME_CV in schemes
    ]
    aggregate = None
    if len(paired) >= 2:
        aggregate = bias_report(PairedSample(pairs=tuple(paired)), ci_level=ci_level)

    return EvalReport(
        rows=tuple(course_rows) + tuple(summary_rows),
        aggregate=aggregate,
        metadata=dict(metadata or {}),
        ci_level=ci_level,
    )
