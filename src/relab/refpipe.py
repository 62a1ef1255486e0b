"""Built-in reference experiment: weekly activity counts -> dropout logistic model.

The library half of this module is pure functions over in-memory arrays
(event logs, feature matrices, models). The bottom half is the stage
entrypoint executed inside the sandbox: it reads its role and directories
from environment variables, consumes CSV/JSON inputs from the read-only
data mount, and writes declared outputs. File formats are plain CSV/JSON
so any external pipeline image can interoperate.

Feature definition: for each of the first `feature_weeks` weeks, one count
per event type (seven types), giving 7 * feature_weeks columns. Week i is
the half-open interval [start + 7*(i-1) days, start + 7*i days). The label
is dropout = 1 iff the learner has no event of any type during the final
week of the session. Enrolled learners with no events at all get all-zero
feature rows and dropout = 1.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .evalstats import SCHEME_CV, SCHEME_HOLDOUT, auc, kfold_split
from .hashing import canonical_json_bytes

EVENT_TYPES = (
    "video_play",
    "quiz_attempt",
    "forum_post",
    "forum_view",
    "page_view",
    "assignment_submit",
    "wiki_view",
)
EVENT_TYPE_INDEX = {name: i for i, name in enumerate(EVENT_TYPES)}
_EVENT_TYPE_NAMES = np.array(EVENT_TYPES, dtype=object)
NUM_EVENT_TYPES = len(EVENT_TYPES)

WEEK_SECONDS = 7 * 86400

# file names inside stage data mounts
EVENTS_FILE = "events.csv"
EVENT_COLUMNS = ("learner_id", "timestamp", "event_type")
SESSION_META_FILE = "session.json"
PARAMS_FILE = "params.json"
FEATURES_FILE = "features.csv"
LABELS_FILE = "labels.csv"
MODEL_FILE = "model.json"
PREDICTIONS_FILE = "predictions.csv"
METRICS_FILE = "metrics.json"

# ---------------------------------------------------------------------------
# time helpers


def parse_utc(text: str) -> int:
    """ISO-8601 instant -> epoch seconds; naive values are taken as UTC."""
    value = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=dt.timezone.utc)
    return int(value.timestamp())


def format_utc(epoch_seconds: int) -> str:
    value = dt.datetime.fromtimestamp(int(epoch_seconds), tz=dt.timezone.utc)
    return value.strftime("%Y-%m-%dT%H:%M:%SZ")


def date_epoch(day: dt.date) -> int:
    """Midnight UTC of a calendar date, as epoch seconds."""
    return int(
        dt.datetime.combine(day, dt.time(), tzinfo=dt.timezone.utc).timestamp()
    )


# Epoch range whose years have four digits. numpy zero-pads years below
# 1000 where strftime does not, so only this range takes numpy's formatter.
_FOUR_DIGIT_YEARS = (
    date_epoch(dt.date(1000, 1, 1)),
    date_epoch(dt.date(9999, 12, 31)) + 86399,
)
# Shape of a canonical stamp, "YYYY-MM-DDTHH:MM:SSZ": 0 marks a digit.
_CANONICAL_SHAPE = np.array(
    [0 if c == "0" else ord(c) for c in "0000-00-00T00:00:00Z"], dtype=np.uint32
)


def format_utc_column(epochs: np.ndarray) -> list:
    """`format_utc` of every epoch, by one numpy call for four-digit years."""
    epochs = np.asarray(epochs, dtype=np.int64)
    if len(epochs) and (
        epochs.min() < _FOUR_DIGIT_YEARS[0] or epochs.max() > _FOUR_DIGIT_YEARS[1]
    ):
        return [format_utc(t) for t in epochs]
    stamps = epochs.astype("datetime64[s]")
    return np.datetime_as_string(stamps, unit="s", timezone="UTC").tolist()


def parse_utc_column(stamps: Sequence[str]) -> np.ndarray:
    """`parse_utc` of every stamp, as int64 epoch seconds.

    A column of canonical stamps (what `format_utc` writes) is parsed by
    one numpy conversion, accepted only if formatting the result back
    reproduces every input string. Any other ISO-8601 form (an offset, a
    naive or fractional stamp, a space separator) is parsed per stamp by
    `parse_utc`. numpy warns on a timezone suffix, so only strings of
    the exact canonical shape, with the "Z" cut off, reach it.
    """
    text = np.array(stamps, dtype=str)
    if text.dtype == np.dtype("U20"):
        chars = text.view(np.uint32).reshape(len(text), 20)
        digits = (chars >= ord("0")) & (chars <= ord("9"))
        if np.where(_CANONICAL_SHAPE == 0, digits, chars == _CANONICAL_SHAPE).all():
            try:
                parsed = text.astype("U19").astype("datetime64[s]")
            except ValueError:
                parsed = None
            if parsed is not None and (
                np.datetime_as_string(parsed, unit="s", timezone="UTC") == text
            ).all():
                return parsed.astype(np.int64)
    return np.array([parse_utc(s) for s in stamps], dtype=np.int64)


# ---------------------------------------------------------------------------
# event log


@dataclass
class EventLog:
    """One session's clickstream plus the metadata needed to bucket it.

    `learners` is the enrolled roster (sorted, unique); it may include
    learners with no events. Per-event arrays are parallel: `learner_ids`
    (strings), `timestamps` (epoch seconds, int64), `event_types` (indices
    into EVENT_TYPES).
    """

    session_id: str
    start_date: dt.date
    num_weeks: int
    learners: tuple
    learner_ids: np.ndarray
    timestamps: np.ndarray
    event_types: np.ndarray

    def __post_init__(self):
        if self.num_weeks < 1:
            raise ValueError("num_weeks must be >= 1")
        if not self.learners:
            raise ValueError("roster must not be empty")
        if list(self.learners) != sorted(set(self.learners)):
            raise ValueError("roster must be sorted and deduplicated")
        if any(not l for l in self.learners):
            raise ValueError("learner ids must be non-empty")
        n = len(self.learner_ids)
        if len(self.timestamps) != n or len(self.event_types) != n:
            raise ValueError("event arrays must have equal length")
        if n:
            lo = self.start_epoch
            hi = lo + self.num_weeks * WEEK_SECONDS
            ts = self.timestamps
            if ts.min() < lo or ts.max() >= hi:
                raise ValueError("timestamps must fall within the session weeks")
            if self.event_types.min() < 0 or self.event_types.max() >= NUM_EVENT_TYPES:
                raise ValueError("unknown event type code")
            roster = np.array(self.learners)
            pos = np.searchsorted(roster, self.learner_ids.astype(str))
            pos_clipped = np.clip(pos, 0, len(roster) - 1)
            if not (roster[pos_clipped] == self.learner_ids).all():
                raise ValueError("event learner ids must appear in the roster")

    @property
    def start_epoch(self) -> int:
        return date_epoch(self.start_date)

    @property
    def n_events(self) -> int:
        return len(self.timestamps)

    def week_of(self) -> np.ndarray:
        """1-based week index of every event."""
        return (self.timestamps - self.start_epoch) // WEEK_SECONDS + 1

    @classmethod
    def from_rows(
        cls,
        session_id: str,
        start_date: dt.date,
        num_weeks: int,
        rows: Iterable,
        roster: Optional[Sequence[str]] = None,
    ) -> "EventLog":
        """Build from (learner_id, timestamp, event_type) triples.

        Timestamps may be ISO strings or epoch seconds; event types are
        names. Without an explicit roster the observed learners are used.
        """
        lids, stamps, types = [], [], []
        for learner_id, stamp, event_type in rows:
            lids.append(str(learner_id))
            stamps.append(parse_utc(stamp) if isinstance(stamp, str) else int(stamp))
            types.append(event_type)
        return cls._from_columns(
            session_id, start_date, num_weeks, lids, stamps, types, roster
        )

    @classmethod
    def _from_columns(
        cls, session_id, start_date, num_weeks, lids, stamps, types, roster
    ) -> "EventLog":
        learners = sorted(set(roster) if roster is not None else set(lids))
        return cls(
            session_id=session_id,
            start_date=start_date,
            num_weeks=num_weeks,
            learners=tuple(learners),
            learner_ids=np.array(lids, dtype=object),
            timestamps=np.asarray(stamps, dtype=np.int64),
            event_types=np.array([EVENT_TYPE_INDEX[t] for t in types], dtype=np.int8),
        )

    @classmethod
    def from_dir(cls, directory: Path) -> "EventLog":
        """Read `session.json` + `events.csv` from a session directory.

        Columns are found by header name, in any order; blank lines are
        skipped. Timestamps are any ISO-8601 instant `parse_utc` accepts.
        A header without one of `EVENT_COLUMNS` (an empty file has none)
        raises ValueError; a header alone is a session with no events.
        """
        directory = Path(directory)
        meta = json.loads((directory / SESSION_META_FILE).read_text("utf-8"))
        events = directory / EVENTS_FILE
        header, rows = _read_table(events)
        column = {name: i for i, name in enumerate(header)}
        missing = [name for name in EVENT_COLUMNS if name not in column]
        if missing:
            raise ValueError(f"{events} has no column {', '.join(missing)}")
        lids, stamps, types = (
            [row[column[name]] for row in rows] for name in EVENT_COLUMNS
        )
        return cls._from_columns(
            meta["session_id"],
            dt.date.fromisoformat(meta["start_date"]),
            int(meta["num_weeks"]),
            lids,
            parse_utc_column(stamps),
            types,
            meta["learners"],
        )

    def write_dir(self, directory: Path, course_id: str = "") -> None:
        """Write `session.json` + `events.csv` into a session directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "session_id": self.session_id,
            "course_id": course_id,
            "start_date": self.start_date.isoformat(),
            "num_weeks": self.num_weeks,
            "learners": list(self.learners),
        }
        (directory / SESSION_META_FILE).write_bytes(canonical_json_bytes(meta))
        order = np.lexsort(
            (self.event_types, self.learner_ids.astype(str), self.timestamps)
        )
        _write_table(directory / EVENTS_FILE, EVENT_COLUMNS, zip(
            self.learner_ids[order].tolist(),
            format_utc_column(self.timestamps[order]),
            _EVENT_TYPE_NAMES[self.event_types[order]].tolist(),
        ))


# ---------------------------------------------------------------------------
# features and labels


@dataclass
class FeatureMatrix:
    """Per-learner, per-week event-type counts for weeks 1..feature_weeks."""

    learners: tuple
    counts: np.ndarray  # shape (n_learners, feature_weeks, NUM_EVENT_TYPES)

    @property
    def feature_weeks(self) -> int:
        return self.counts.shape[1]

    @property
    def X(self) -> np.ndarray:
        """Week-major flat design matrix, shape (n, 7 * feature_weeks)."""
        n = len(self.learners)
        return self.counts.reshape(n, -1).astype(float)

    def column_names(self) -> list:
        return [
            f"w{week}_{etype}"
            for week in range(1, self.feature_weeks + 1)
            for etype in EVENT_TYPES
        ]


@dataclass
class LabelVector:
    """Dropout labels aligned with a FeatureMatrix learner index."""

    learners: tuple
    y: np.ndarray  # int8, 1 = no activity in the final week


def extract_features(log: EventLog, feature_weeks: int) -> FeatureMatrix:
    """Count events per (learner, week, type) over the leading weeks.

    Requires feature_weeks < num_weeks so features never overlap the label
    week. Order of event records does not matter.
    """
    if not 1 <= feature_weeks < log.num_weeks:
        raise ValueError("feature_weeks must satisfy 1 <= w < num_weeks")
    roster = np.array(log.learners)
    counts = np.zeros((len(roster), feature_weeks, NUM_EVENT_TYPES), dtype=np.int64)
    if log.n_events:
        weeks = log.week_of()
        mask = weeks <= feature_weeks
        rows = np.searchsorted(roster, log.learner_ids[mask].astype(str))
        np.add.at(
            counts,
            (rows, weeks[mask] - 1, log.event_types[mask].astype(np.int64)),
            1,
        )
    return FeatureMatrix(learners=log.learners, counts=counts)


def label_dropout(log: EventLog) -> LabelVector:
    """dropout = 1 iff a learner has zero events in the final week."""
    if log.num_weeks < 2:
        raise ValueError("labeling requires num_weeks >= 2")
    roster = np.array(log.learners)
    y = np.ones(len(roster), dtype=np.int8)
    if log.n_events:
        final = log.week_of() == log.num_weeks
        active = np.unique(log.learner_ids[final].astype(str))
        y[np.isin(roster, active)] = 0
    return LabelVector(learners=log.learners, y=y)


# ---------------------------------------------------------------------------
# standardization and the logistic model


@dataclass
class Standardizer:
    """Column-wise mean/scale computed on the training split only."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != len(self.mean):
            raise ValueError("column count does not match standardizer")
        return (X - self.mean) / self.scale

    def to_json_obj(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Standardizer":
        return cls(
            mean=np.asarray(obj["mean"], dtype=float),
            scale=np.asarray(obj["scale"], dtype=float),
        )


@dataclass(frozen=True)
class Hyperparams:
    """Newton's stopping rule and the weights' L2 penalty.

    A fit stops once its largest Newton step component is below
    ``tolerance``, or after ``max_iterations`` steps. A positive
    ``l2_penalty`` keeps the Hessian positive definite, also when a
    standardized column is constant.
    """

    tolerance: float = 1e-10
    max_iterations: int = 50
    l2_penalty: float = 1e-4

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not self.l2_penalty > 0:
            raise ValueError("l2_penalty must be positive")


@dataclass
class ModelParams:
    """Trained logistic model: weights, bias, and training metadata."""

    weights: np.ndarray
    bias: float
    hyperparams: Hyperparams
    seed: int
    loss_trace: tuple
    degenerate: bool = False

    def to_json_obj(self) -> dict:
        return dict(asdict(self), weights=self.weights.tolist())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelParams":
        return cls(**dict(
            obj,
            weights=np.asarray(obj["weights"], dtype=float),
            hyperparams=Hyperparams(**obj["hyperparams"]),
            loss_trace=tuple(obj["loss_trace"]),
        ))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.

    Both branches share one exp of -|z|, written as minimum(z, -z) because
    `minimum` returns a NaN operand as it is, sign bit included.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _loss_at(
    z: np.ndarray, y: np.ndarray, weights: np.ndarray, l2_penalty: float
) -> float:
    """logistic_loss from the scores ``z = X @ weights + bias``."""
    ce = np.logaddexp(0.0, z) - y * z
    # np.add.reduce(x) / n is the sum and division ndarray.mean makes,
    # without its Python-level wrapper
    penalty = 0.5 * l2_penalty * float(weights @ weights)
    return float(np.add.reduce(ce) / len(y) + penalty)


def _gradient_at(
    X: np.ndarray, p: np.ndarray, y: np.ndarray, weights: np.ndarray, l2_penalty: float
):
    """logistic_gradient from the probabilities ``p = sigmoid(X @ weights + bias)``."""
    n = len(y)
    residual = p - y
    grad_w = X.T @ residual / n + l2_penalty * weights
    grad_b = float(np.add.reduce(residual) / n)
    return grad_w, grad_b


def logistic_loss(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float, l2_penalty: float
) -> float:
    """L2-regularized mean logistic loss; the bias is not penalized."""
    return _loss_at(X @ weights + bias, y, weights, l2_penalty)


def logistic_gradient(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float, l2_penalty: float
):
    """Gradient of logistic_loss wrt (weights, bias)."""
    p = _sigmoid(X @ weights + bias)
    return _gradient_at(X, p, y, weights, l2_penalty)


def _cholesky_solve(H: list, g: list) -> list:
    """Solve ``H x = g`` for a symmetric positive definite H, on Python floats.

    A hand-written Cholesky factor and two triangular solves. Every dot
    product is ``math.fsum`` of the rounded products, which is correctly
    rounded: unlike LAPACK, whose kernels the CPU chooses, or ``sum``,
    whose float algorithm changed in Python 3.12, it gives the same bits
    on every host.
    """
    m = len(g)
    L = [[0.0] * m for _ in range(m)]
    for i in range(m):
        row = L[i]
        for j in range(i + 1):
            s = H[i][j] - math.fsum(map(operator.mul, row[:j], L[j][:j]))
            if i > j:
                row[j] = s / L[j][j]
            elif s > 0:
                row[i] = math.sqrt(s)
            else:
                raise ValueError("training diverged: Hessian not positive definite")
    u = []
    for i in range(m):  # L u = g
        u.append((g[i] - math.fsum(map(operator.mul, L[i][:i], u))) / L[i][i])
    x = [0.0] * m
    for i in reversed(range(m)):  # L^T x = u
        x[i] = (u[i] - math.fsum(L[k][i] * x[k] for k in range(i + 1, m))) / L[i][i]
    return x


def _newton_step(
    X1: np.ndarray, p: np.ndarray, grad: np.ndarray, l2_penalty: float
) -> np.ndarray:
    """The Newton step ``H^-1 g`` of (weights, bias) from ``X1 = [X 1]``.

    ``H = X1^T diag(p(1-p)) X1 / n``, plus ``l2_penalty`` on the weights'
    diagonal only.
    """
    n, m = X1.shape
    H = X1.T @ (X1 * (p * (1.0 - p))[:, None]) / n
    H[np.arange(m - 1), np.arange(m - 1)] += l2_penalty
    return np.array(_cholesky_solve(H.tolist(), grad.tolist()))


def train_logreg(
    X: np.ndarray,
    y: np.ndarray,
    hp: Optional[Hyperparams] = None,
    seed: int = 0,
) -> ModelParams:
    """Damped Newton (IRLS) from zero init; deterministic.

    Each step solves ``H d = g`` for (weights, bias), and is halved while
    it would raise the loss by more than ``hp.tolerance`` of it. The fit
    stops once the largest component of ``d`` is below ``hp.tolerance``,
    or after ``hp.max_iterations`` steps. ``loss_trace`` holds the loss of
    every iterate, the start and the result included.

    X must already be standardized by the caller. A single-class y yields a
    bias-only model at the (clipped) class prior, flagged degenerate.
    """
    hp = hp or Hyperparams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError("X rows must match y length")
    if len(y) < 2:
        raise ValueError("training requires at least two rows")
    n, d = X.shape
    weights = np.zeros(d)
    bias = 0.0
    degenerate = bool(y.min() == y.max())
    if degenerate:
        prior = float(np.clip(y.mean(), 1.0 / (n + 1), n / (n + 1.0)))
        bias = float(np.log(prior / (1.0 - prior)))
    X1 = np.hstack([X, np.ones((n, 1))])
    z = X @ weights + bias  # one forward pass serves the loss, gradient and Hessian
    losses = [_loss_at(z, y, weights, hp.l2_penalty)]
    for _ in range(0 if degenerate else hp.max_iterations):
        p = _sigmoid(z)
        grad_w, grad_b = _gradient_at(X, p, y, weights, hp.l2_penalty)
        step = _newton_step(X1, p, np.append(grad_w, grad_b), hp.l2_penalty)
        # a smaller rise is rounding: near the optimum it is all a step changes
        limit = losses[-1] * (1.0 + hp.tolerance)
        t = 1.0
        while True:  # ends: at t == 0 the iterate, and so its loss, is unchanged
            new_weights = weights - t * step[:d]
            new_bias = bias - t * float(step[d])
            z = X @ new_weights + new_bias
            loss = _loss_at(z, y, new_weights, hp.l2_penalty)
            if not loss > limit:
                break
            t *= 0.5
        weights, bias = new_weights, new_bias
        losses.append(loss)
        if not np.abs(step).max() >= hp.tolerance:
            break
    if not (np.isfinite(weights).all() and np.isfinite(bias)):
        raise ValueError("training diverged to non-finite parameters")
    return ModelParams(
        weights=weights,
        bias=bias,
        hyperparams=hp,
        seed=seed,
        loss_trace=tuple(losses),
        degenerate=degenerate,
    )


def predict(model: ModelParams, X: np.ndarray) -> np.ndarray:
    """sigmoid(X @ w + b); X must match the model's column count."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise ValueError("X column count does not match model weights")
    return _sigmoid(X @ model.weights + model.bias)


# ---------------------------------------------------------------------------
# CSV interchange used between stages


def _write_table(path: Path, header: Sequence[str], rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path: Path):
    """-> (header, rows) as strings; blank lines skipped, an empty file ([], [])."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        return next(reader, []), [row for row in reader if row]


def write_features_csv(path: Path, fm: FeatureMatrix) -> None:
    counts = fm.counts.reshape(len(fm.learners), -1).tolist()
    _write_table(path, ["learner_id"] + fm.column_names(),
                 ([learner] + row for learner, row in zip(fm.learners, counts)))


def read_features_csv(path: Path):
    """-> (learner ids, column names, float design matrix)."""
    header, rows = _read_table(path)
    columns = header[1:]
    X = np.array([[float(v) for v in r[1:]] for r in rows], dtype=float)
    return [r[0] for r in rows], columns, X.reshape(len(rows), len(columns))


def write_labels_csv(path: Path, lv: LabelVector) -> None:
    _write_table(path, ["learner_id", "dropout"], zip(lv.learners, lv.y.tolist()))


def read_labels_csv(path: Path):
    _, rows = _read_table(path)
    return [r[0] for r in rows], np.array([int(r[1]) for r in rows], dtype=np.int8)


def write_predictions_csv(path: Path, learner_ids, scores, labels) -> None:
    _write_table(path, ["learner_id", "score", "label"], (
        [learner, repr(float(score)), int(label)]
        for learner, score, label in zip(learner_ids, scores, labels)
    ))


def read_predictions_csv(path: Path):
    _, rows = _read_table(path)
    labels = np.array([int(r[2]) for r in rows], dtype=np.int8)
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows]), labels


# ---------------------------------------------------------------------------
# stage entrypoint (runs inside the sandbox)

# The DATA_DIR layout (``input_dir``), and the test dirs each scheme pools
SESSIONS_DIR = "sessions"
MODEL_DIR = "model"
PREDS_DIR = "preds"
_CV_FOLD_DIR = "cv_fold_"
_SCHEME_PREDS = {SCHEME_HOLDOUT: SCHEME_HOLDOUT, SCHEME_CV: _CV_FOLD_DIR + "*"}


def input_dir(stage: str, session_id: str, fold_index: Optional[int]) -> str:
    """Where the outputs of a ``stage`` unit sit in a consuming unit's DATA_DIR."""
    if stage == "extract":
        return f"{SESSIONS_DIR}/{session_id}"
    if stage == "train":
        return MODEL_DIR
    if stage == "test":
        if fold_index is None:
            return f"{PREDS_DIR}/{SCHEME_HOLDOUT}"
        return f"{PREDS_DIR}/{_CV_FOLD_DIR}{fold_index:02d}"
    raise ValueError(f"no unit reads the outputs of a {stage!r} unit")


def _unit_rows(data_dir: Path, params: dict, held_out: bool):
    """This unit's rows of its sessions: (learner ids, X, y).

    Every session's rows are pooled in (session_id, learner_id) order,
    which fold assignment indexes. A fold unit takes its fold's rows
    (``held_out``) or the rest; any other unit takes every row.
    """
    keys, Xs, ys = [], [], []
    for sdir in sorted(filter(Path.is_dir, (data_dir / SESSIONS_DIR).iterdir())):
        learners, _, X = read_features_csv(sdir / FEATURES_FILE)
        label_learners, y = read_labels_csv(sdir / LABELS_FILE)
        if learners != label_learners:
            raise ValueError(f"feature/label learner mismatch in {sdir.name}")
        keys.extend((sdir.name, learner) for learner in learners)
        Xs.append(X)
        ys.append(y)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if params.get("fold_count") is not None:
        k, seed = int(params["fold_count"]), int(params["fold_seed"])
        in_fold = kfold_split(len(keys), k, seed) == int(params["fold_index"])
        order = [i for i, fold in zip(order, in_fold) if fold == held_out]
    X, y = np.concatenate(Xs)[order], np.concatenate(ys)[order]
    return [keys[i][1] for i in order], X, y


def _stage_extract(data_dir: Path, output_dir: Path, params: dict) -> None:
    log = EventLog.from_dir(data_dir)
    fm = extract_features(log, int(params["feature_weeks"]))
    write_features_csv(output_dir / FEATURES_FILE, fm)
    write_labels_csv(output_dir / LABELS_FILE, label_dropout(log))


def _stage_train(data_dir: Path, output_dir: Path, params: dict, seed: int) -> None:
    _, X, y = _unit_rows(data_dir, params, held_out=False)
    hp = Hyperparams(**params["hyperparams"])
    std = Standardizer.fit(X)
    model = train_logreg(std.transform(X), y, hp, seed=seed)
    payload = {
        "standardizer": std.to_json_obj(),
        "model": model.to_json_obj(),
    }
    (output_dir / MODEL_FILE).write_bytes(canonical_json_bytes(payload))


def _stage_test(data_dir: Path, output_dir: Path, params: dict) -> None:
    payload = json.loads((data_dir / MODEL_DIR / MODEL_FILE).read_text("utf-8"))
    std = Standardizer.from_json_obj(payload["standardizer"])
    model = ModelParams.from_json_obj(payload["model"])
    learner_ids, X, y = _unit_rows(data_dir, params, held_out=True)
    scores = predict(model, std.transform(X))
    write_predictions_csv(output_dir / PREDICTIONS_FILE, learner_ids, scores, y)


def _stage_evaluate(data_dir: Path, output_dir: Path, params: dict) -> None:
    """One AUC per scheme over the pooled predictions of its test dirs."""
    rows = []
    for scheme in params["schemes"]:
        if scheme not in _SCHEME_PREDS:
            raise ValueError(f"unknown scheme {scheme!r}")
        preds = [
            read_predictions_csv(d / PREDICTIONS_FILE)[1:]
            for d in sorted((data_dir / PREDS_DIR).glob(_SCHEME_PREDS[scheme]))
        ]
        if not preds:
            raise ValueError(f"no predictions for scheme {scheme!r}")
        scores, labels = (np.concatenate(column) for column in zip(*preds))
        rows.append({"scheme": scheme, "auc": auc(scores, labels), "n": len(labels)})
    metrics = {"course_id": params["course_id"], "week": int(params["week"]),
               "rows": rows}
    (output_dir / METRICS_FILE).write_bytes(canonical_json_bytes(metrics))


def run_stage_from_env() -> int:
    """Entry used by the sandbox: dispatch on STAGE and run to completion."""
    try:
        stage = os.environ["STAGE"]
        data_dir = Path(os.environ["DATA_DIR"])
        output_dir = Path(os.environ["OUTPUT_DIR"])
        seed = int(os.environ["SEED"])
    except KeyError as exc:
        print(f"missing required environment variable: {exc}", file=sys.stderr)
        return 2
    path = data_dir / PARAMS_FILE
    params = json.loads(path.read_text("utf-8")) if path.exists() else {}
    stages = {"extract": _stage_extract, "train": partial(_stage_train, seed=seed),
              "test": _stage_test, "evaluate": _stage_evaluate}
    if stage not in stages:
        print(f"unknown stage {stage!r}", file=sys.stderr)
        return 2
    try:
        stages[stage](data_dir, output_dir, params)
    except Exception as exc:  # surfaced as a failed unit, never a crash dump
        print(f"{stage} stage failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_stage_from_env())


if __name__ == "__main__":
    main()
