"""Tests for the reference pipeline: features, labels, model, stage contract.

The gradient oracle is central finite differences computed here; training
examples rely on separability arguments rather than frozen weights.
"""

from __future__ import annotations

import ast
import datetime as dt
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relab
from relab import refpipe
from relab.evalstats import auc
from relab.hashing import canonical_json_bytes
from relab.refpipe import (
    EVENT_TYPES,
    EventLog,
    Hyperparams,
    Standardizer,
    extract_features,
    label_dropout,
    logistic_gradient,
    logistic_loss,
    predict,
    train_logreg,
)
from relab.study import StudyConfig, default_study_synth, run_study
from relab.synthdata import SynthConfig, sample_session

START = dt.date(2020, 1, 6)


def make_log(rows, roster=None, num_weeks=5, session_id="s1"):
    return EventLog.from_rows(
        session_id=session_id,
        start_date=START,
        num_weeks=num_weeks,
        rows=rows,
        roster=roster,
    )


def ts(day_offset, hour=12):
    day = START + dt.timedelta(days=day_offset)
    return f"{day.isoformat()}T{hour:02d}:00:00Z"


# ---------------------------------------------------------------------------
# event log


class TestEventLog:
    def test_roster_includes_inactive_learners(self):
        log = make_log([("a", ts(0), "video_play")], roster=["a", "b"])
        assert log.learners == ("a", "b")

    def test_event_outside_session_rejected(self):
        with pytest.raises(ValueError):
            make_log([("a", "2020-03-01T00:00:00Z", "video_play")], num_weeks=5)
        with pytest.raises(ValueError):
            make_log([("a", "2020-01-05T23:59:59Z", "video_play")], num_weeks=5)

    def test_event_learner_must_be_enrolled(self):
        with pytest.raises(ValueError):
            make_log([("ghost", ts(0), "video_play")], roster=["a"])

    def test_unknown_event_type_rejected(self):
        with pytest.raises(KeyError):
            make_log([("a", ts(0), "telepathy")])

    def test_dir_round_trip(self, tmp_path):
        log = make_log(
            [
                ("a", ts(0), "video_play"),
                ("b", ts(8), "quiz_attempt"),
                ("a", ts(29), "page_view"),
                ("c", "2020-01-20T14:30:00+02:00", "forum_post"),
            ],
            roster=["a", "b", "c", "d"],
        )
        log.write_dir(tmp_path, course_id="course-x")
        back = EventLog.from_dir(tmp_path)
        assert back.learners == log.learners
        assert back.num_weeks == log.num_weeks
        assert back.start_date == log.start_date
        assert _triples(back) == _triples(log)
        assert "c,2020-01-20T12:30:00Z,forum_post" in (
            (tmp_path / "events.csv").read_text().splitlines()
        )
        meta = json.loads((tmp_path / "session.json").read_text())
        assert meta["course_id"] == "course-x"


def _triples(log):
    return sorted(
        zip(log.learner_ids.tolist(), log.timestamps.tolist(), log.event_types.tolist())
    )


def _write_events(session_dir, text, start="2013-01-07", num_weeks=5):
    """A session dir whose events.csv is `text` verbatim."""
    session_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "session_id": "s1",
        "course_id": "c1",
        "start_date": start,
        "num_weeks": num_weeks,
        "learners": ["a", "b"],
    }
    (session_dir / "session.json").write_text(json.dumps(meta))
    (session_dir / "events.csv").write_text(text, newline="")
    return session_dir


def _events_column(session_dir):
    lines = (session_dir / "events.csv").read_text().splitlines()
    return [line.split(",")[1] for line in lines[1:]]


# one year-999 stamp: strftime writes "999-...", numpy would write "0999-..."
YEAR_999 = refpipe.date_epoch(dt.date(999, 6, 1)) + 3661
EDGE_EPOCHS = [
    0,
    -1,
    refpipe.parse_utc("1969-12-31T23:59:59Z"),
    refpipe.parse_utc("9999-12-31T23:59:59Z"),
    YEAR_999,
]

# non-canonical ISO-8601 stamps the reader must take through parse_utc
ODD_STAMPS = [
    "2013-01-07T07:12:00+02:00",
    "2013-01-07T05:12:00",
    "2013-01-07T05:12:00.750Z",
    "2013-01-07 05:12:00Z",
    "2013-01-07T05:12Z",
]


class TestEventCodec:
    @pytest.mark.parametrize("epoch", EDGE_EPOCHS)
    def test_writer_matches_format_utc_oracle(self, tmp_path, epoch):
        assert refpipe.format_utc_column(np.array([epoch])) == [
            refpipe.format_utc(epoch)
        ]
        day = dt.datetime.fromtimestamp(epoch, tz=dt.timezone.utc).date()
        log = EventLog.from_rows(
            "s1", day, 1, [("a", epoch, "video_play"), ("b", epoch, "wiki_view")]
        )
        log.write_dir(tmp_path)
        assert _events_column(tmp_path) == [refpipe.format_utc(epoch)] * 2

    def test_writer_column_with_one_out_of_range_year(self):
        epochs = np.array([0, YEAR_999, 1357534320], dtype=np.int64)
        column = refpipe.format_utc_column(epochs)
        assert column == [refpipe.format_utc(e) for e in epochs]
        assert column[1] == "999-06-01T01:01:01Z"

    def test_writer_random_column_matches_oracle(self):
        epochs = np.random.default_rng(3).integers(-(10**10), 10**11, size=5000)
        assert refpipe.format_utc_column(epochs) == [
            refpipe.format_utc(e) for e in epochs
        ]

    @pytest.mark.parametrize("stamp", ODD_STAMPS)
    def test_reader_matches_parse_utc(self, tmp_path, stamp):
        stamps = ["2013-01-07T05:00:00Z", stamp, "2013-01-08T00:00:00Z"]
        assert refpipe.parse_utc_column(stamps).tolist() == [
            refpipe.parse_utc(s) for s in stamps
        ]
        rows = "".join(f"a,{s},page_view\n" for s in stamps)
        log = EventLog.from_dir(
            _write_events(tmp_path, "learner_id,timestamp,event_type\n" + rows)
        )
        assert log.timestamps.tolist() == [refpipe.parse_utc(s) for s in stamps]

    def test_reader_canonical_column_skips_parse_utc(self, monkeypatch):
        epochs = np.random.default_rng(4).integers(0, 2 * 10**9, size=2000)
        stamps = [refpipe.format_utc(e) for e in epochs]
        monkeypatch.setattr(refpipe, "parse_utc", None)
        parsed = refpipe.parse_utc_column(stamps)
        assert parsed.dtype == np.int64
        assert parsed.tolist() == epochs.tolist()
        assert refpipe.parse_utc_column([]).tolist() == []

    @pytest.mark.parametrize(
        "stamp", ["2013-02-30T00:00:00Z", "2013-01-07T24:00:00Z", "", "NaT"]
    )
    def test_reader_rejects_what_parse_utc_rejects(self, stamp):
        with pytest.raises(ValueError):
            refpipe.parse_utc(stamp)
        with pytest.raises(ValueError):
            refpipe.parse_utc_column(["2013-01-07T05:00:00Z", stamp])

    def test_blank_lines_skipped(self, tmp_path):
        text = (
            "learner_id,timestamp,event_type\n\n"
            "a,2013-01-07T05:00:00Z,page_view\n\n\n"
            "b,2013-01-08T05:00:00Z,quiz_attempt\n\n"
        )
        log = EventLog.from_dir(_write_events(tmp_path, text))
        assert log.learner_ids.tolist() == ["a", "b"]
        assert log.event_types.tolist() == [4, 1]

    def test_header_columns_in_any_order(self, tmp_path):
        text = (
            "event_type,timestamp,learner_id\n"
            "page_view,2013-01-07T05:00:00Z,a\n"
            "quiz_attempt,2013-01-08T05:00:00Z,b\n"
        )
        log = EventLog.from_dir(_write_events(tmp_path, text))
        assert log.learner_ids.tolist() == ["a", "b"]
        assert log.timestamps.tolist() == [1357534800, 1357621200]
        assert log.event_types.tolist() == [4, 1]

    def test_missing_timestamp_column_fails_extract(self, tmp_path, capsys):
        data = _write_events(
            tmp_path / "data", "learner_id,event_type\na,page_view\n"
        )
        (data / "params.json").write_text('{"feature_weeks": 2}')
        out = tmp_path / "out"
        out.mkdir()
        assert _run(_stage_env("extract", data, out)) == 1
        assert "timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("text, missing", [
        ("learner_id,timestamp\na,2013-01-07T05:00:00Z\n", "event_type"),
        ("timestamp,event_type\n2013-01-07T05:00:00Z,page_view\n", "learner_id"),
        ("", "learner_id, timestamp, event_type"),
    ])
    def test_header_without_a_column_names_file_and_columns(
        self, tmp_path, text, missing
    ):
        events = _write_events(tmp_path, text) / "events.csv"
        with pytest.raises(ValueError) as info:
            EventLog.from_dir(tmp_path)
        assert str(info.value) == f"{events} has no column {missing}"

    def test_header_alone_is_a_session_without_events(self, tmp_path):
        log = EventLog.from_dir(
            _write_events(tmp_path, "learner_id,timestamp,event_type\n")
        )
        assert log.n_events == 0
        assert log.learners == ("a", "b")


# ---------------------------------------------------------------------------
# feature extraction


class TestExtractFeatures:
    def test_week_one_counts(self):
        log = make_log(
            [
                ("a", ts(0), "video_play"),
                ("a", ts(1), "video_play"),
                ("a", ts(2), "video_play"),
                ("a", ts(3), "quiz_attempt"),
            ]
        )
        fm = extract_features(log, 1)
        assert fm.learners == ("a",)
        assert fm.counts[0, 0].tolist() == [3, 1, 0, 0, 0, 0, 0]

    def test_empty_log_with_enrolled_learners(self):
        log = make_log([], roster=["a", "b"])
        fm = extract_features(log, 2)
        assert fm.counts.shape == (2, 2, 7)
        assert fm.counts.sum() == 0

    def test_week_boundary_is_half_open(self):
        # exactly start + 7 days belongs to week 2
        log = make_log([("a", "2020-01-13T00:00:00Z", "forum_post")])
        fm = extract_features(log, 2)
        assert fm.counts[0, 0].sum() == 0
        assert fm.counts[0, 1, EVENT_TYPES.index("forum_post")] == 1

    def test_events_past_feature_weeks_ignored(self):
        log = make_log([("a", ts(0), "wiki_view"), ("a", ts(22), "wiki_view")])
        fm = extract_features(log, 2)
        assert fm.counts.sum() == 1

    def test_feature_weeks_must_precede_label_week(self):
        log = make_log([("a", ts(0), "video_play")], num_weeks=3)
        with pytest.raises(ValueError):
            extract_features(log, 3)
        with pytest.raises(ValueError):
            extract_features(log, 0)

    def test_permutation_invariance(self):
        rows = [
            ("b", ts(1), "page_view"),
            ("a", ts(0), "video_play"),
            ("a", ts(9), "forum_view"),
            ("c", ts(15), "assignment_submit"),
        ]
        fm1 = extract_features(make_log(rows), 3)
        fm2 = extract_features(make_log(rows[::-1]), 3)
        assert fm1.learners == fm2.learners
        assert (fm1.counts == fm2.counts).all()

    def test_column_names_week_major(self):
        log = make_log([("a", ts(0), "video_play")])
        fm = extract_features(log, 2)
        names = fm.column_names()
        assert names[0] == "w1_video_play"
        assert names[7] == "w2_video_play"
        assert len(names) == 14


# ---------------------------------------------------------------------------
# labels


class TestLabelDropout:
    def test_final_week_activity_means_stay(self):
        log = make_log([("a", ts(28), "page_view")], roster=["a", "b"])
        lv = label_dropout(log)
        assert dict(zip(lv.learners, lv.y)) == {"a": 0, "b": 1}

    def test_early_activity_only_means_dropout(self):
        log = make_log([("a", ts(0), "video_play")], num_weeks=5)
        assert label_dropout(log).y.tolist() == [1]

    def test_absent_learner_is_dropout(self):
        log = make_log([("a", ts(29), "quiz_attempt")], roster=["a", "zzz"])
        assert label_dropout(log).y.tolist() == [0, 1]

    def test_requires_two_weeks(self):
        log = make_log([("a", ts(0), "video_play")], num_weeks=1)
        with pytest.raises(ValueError):
            label_dropout(log)

    @given(
        day=st.integers(0, 27),
        etype=st.sampled_from(EVENT_TYPES),
        name=st.sampled_from(["a", "b"]),
    )
    @settings(max_examples=40)
    def test_pre_final_events_never_change_labels(self, day, etype, name):
        base_rows = [("a", ts(28), "page_view")]
        lv_base = label_dropout(make_log(base_rows, roster=["a", "b"]))
        mutated = base_rows + [(name, ts(day), etype)]
        lv_mut = label_dropout(make_log(mutated, roster=["a", "b"]))
        assert lv_base.y.tolist() == lv_mut.y.tolist()


# ---------------------------------------------------------------------------
# logistic model


def numerical_gradient(X, y, w, b, l2, eps=1e-5):
    gw = np.zeros_like(w)
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += eps
        wm[j] -= eps
        gw[j] = (logistic_loss(X, y, wp, b, l2) - logistic_loss(X, y, wm, b, l2)) / (
            2 * eps
        )
        gb = (
            logistic_loss(X, y, w, b + eps, l2) - logistic_loss(X, y, w, b - eps, l2)
        ) / (2 * eps)
    return gw, gb


class TestLogisticModel:
    def test_zero_iterations_predicts_half(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([0, 1])
        model = train_logreg(X, y, Hyperparams(max_iterations=0))
        assert (model.weights == 0).all() and model.bias == 0
        assert (predict(model, X) == 0.5).all()
        assert model.loss_trace == pytest.approx((np.log(2.0),))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"l2_penalty": 0.0}, "l2_penalty must be positive"),
            ({"l2_penalty": float("nan")}, "l2_penalty must be positive"),
            ({"tolerance": 0.0}, "tolerance must be positive"),
            ({"max_iterations": -1}, "max_iterations must be non-negative"),
        ],
    )
    def test_hyperparams_refused(self, fields, message):
        # without the penalty a constant column makes the Hessian singular
        with pytest.raises(ValueError, match=message):
            Hyperparams(**fields)

    def test_gradient_at_zero_closed_form(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20).astype(float)
        gw, gb = logistic_gradient(X, y, np.zeros(3), 0.0, 0.0)
        expected = ((0.5 - y)[:, None] * X).mean(axis=0)
        assert gw == pytest.approx(expected, abs=1e-12)
        assert gb == pytest.approx(float((0.5 - y).mean()), abs=1e-12)

    def test_separable_training_reaches_auc_one(self):
        X_raw = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        std = Standardizer.fit(X_raw)
        model = train_logreg(std.transform(X_raw), y)
        scores = predict(model, std.transform(X_raw))
        assert auc(scores, y) == 1.0
        assert not model.degenerate

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            l2 = float(rng.uniform(0, 0.01))
            gw, gb = logistic_gradient(X, y, w, b, l2)
            nw, nb = numerical_gradient(X, y, w, b, l2)
            analytic = np.r_[gw, gb]
            numeric = np.r_[nw, nb]
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-6

    def test_loss_trace_non_increasing_with_safe_step(self, monkeypatch):
        # separable heavy-tailed rows, on which some full Newton step would
        # raise the loss: the fit halves that step
        rng = np.random.default_rng(1)
        X = rng.standard_cauchy(size=(40, 3))
        y = (X[:, 0] > 0).astype(float)
        evaluated = []
        loss_at = refpipe._loss_at
        monkeypatch.setattr(
            refpipe, "_loss_at", lambda *a: evaluated.append(loss_at(*a)) or evaluated[-1]
        )
        model = train_logreg(X, y)
        assert len(evaluated) > len(model.loss_trace)  # a rejected step was scored
        assert_converged(X, y, model)

    def test_default_step_monotone_on_standardized_counts(self):
        rng = np.random.default_rng(8)
        X_raw = rng.poisson(3.0, size=(80, 14)).astype(float)
        y = rng.integers(0, 2, size=80)
        X = Standardizer.fit(X_raw).transform(X_raw)
        model = train_logreg(X, y)
        trace = np.array(model.loss_trace)
        assert (np.diff(trace) <= 1e-9).all()

    def test_single_class_degenerate_prior(self):
        X = np.zeros((4, 2))
        y = np.array([1, 1, 1, 1])
        model = train_logreg(X, y)
        assert model.degenerate
        assert (model.weights == 0).all()
        # clipped prior 4/5 -> bias = log(4)
        assert model.bias == pytest.approx(np.log(4.0))
        assert model.loss_trace == (logistic_loss(X, y, model.weights, model.bias, 1e-4),)

    def test_training_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        m1 = train_logreg(X, y)
        m2 = train_logreg(X, y)
        assert (m1.weights == m2.weights).all()
        assert m1.bias == m2.bias
        assert m1.loss_trace == m2.loss_trace

    def test_predict_dimension_mismatch(self):
        model = train_logreg(np.eye(3), np.array([0, 1, 0]), Hyperparams(max_iterations=1))
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 5)))

    def test_standardizer_constant_column(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        std = Standardizer.fit(X)
        out = std.transform(X)
        assert out[:, 0].tolist() == [0.0, 0.0]
        assert np.isfinite(out).all()

    def test_model_json_round_trip(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)
        model = train_logreg(X, y, Hyperparams(max_iterations=3))
        back = refpipe.ModelParams.from_json_obj(
            json.loads(json.dumps(model.to_json_obj()))
        )
        assert (back.weights == model.weights).all()
        assert back.bias == model.bias
        assert back.hyperparams == model.hyperparams

    def test_one_newton_step_matches_the_closed_form_solve(self):
        rng = np.random.default_rng(14)
        n, d = 37, 5
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        hp = Hyperparams(max_iterations=1, l2_penalty=0.01)
        model = train_logreg(X, y, hp)
        # at zero every p(1-p) is 1/4; the bias is not penalized
        X1 = np.hstack([X, np.ones((n, 1))])
        H = X1.T @ X1 / (4 * n) + np.diag([hp.l2_penalty] * d + [0.0])
        zero = np.zeros(d)
        grad_w, grad_b = logistic_gradient(X, y, zero, 0.0, hp.l2_penalty)
        step = np.linalg.solve(H, np.append(grad_w, grad_b))
        fitted = np.append(model.weights, model.bias)
        np.testing.assert_allclose(fitted, -step, rtol=1e-12, atol=1e-15)
        assert model.loss_trace == (
            logistic_loss(X, y, zero, 0.0, hp.l2_penalty),
            logistic_loss(X, y, model.weights, model.bias, hp.l2_penalty),
        )

    def test_cholesky_solve_matches_lapack(self):
        rng = np.random.default_rng(15)
        for m in (1, 2, 8, 15):
            A = rng.normal(size=(m + 3, m))
            H = A.T @ A + 0.1 * np.eye(m)
            g = rng.normal(size=m)
            x = refpipe._cholesky_solve(H.tolist(), g.tolist())
            np.testing.assert_allclose(x, np.linalg.solve(H, g), rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError, match="diverged"):
            refpipe._cholesky_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])


def assert_converged(X, y, model):
    """The fit stopped at the optimum: its gradient is gone, and no
    iterate's loss rose by more than the rounding the fit tolerates."""
    hp = model.hyperparams
    grad_w, grad_b = logistic_gradient(X, y, model.weights, model.bias, hp.l2_penalty)
    assert max(np.abs(grad_w).max(), abs(grad_b)) <= 1e-8
    trace = np.array(model.loss_trace)
    assert len(trace) <= hp.max_iterations + 1
    assert (np.diff(trace) <= hp.tolerance * trace[:-1]).all()


def _study_course_problems():
    """Holdout training sets of one shifted default-study course, weeks 1-2."""
    synth = default_study_synth()
    sessions = [sample_session(synth, 0, s) for s in (0, 1)]
    y = np.concatenate([s.labels for s in sessions])
    for week in (1, 2):
        X_raw = np.vstack([s.feature_matrix(week) for s in sessions])
        yield Standardizer.fit(X_raw).transform(X_raw), y


class TestNewtonConvergence:
    def test_golden_problems_converge(self):
        for shape in ((2000, 14), (600, 7)):
            X, y = _golden_problem(sum(shape), *shape)
            assert_converged(X, y, train_logreg(X, y))

    def test_shifted_study_course_converges(self):
        for X, y in _study_course_problems():
            assert len(y) == 4000
            assert_converged(X, y, train_logreg(X, y))


def _masked_sigmoid(z):
    """The two-branch sigmoid the kernel once used; oracle for its bytes."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _golden_problem(seed, n, d):
    """Standardized Poisson weekly counts with noisy labels tied to them."""
    rng = np.random.default_rng(seed)
    X_raw = rng.poisson(3.0, size=(n, d)).astype(float)
    X = Standardizer.fit(X_raw).transform(X_raw)
    y = (X[:, :3].sum(axis=1) + rng.normal(scale=1.5, size=n) < 0).astype(float)
    return X, y


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestKernelGolden:
    """Byte-level pins of the training kernel's outputs.

    Engine digests, trial ids and study AUCs all descend from these floats,
    so a rewrite of the kernel keeps every pin unedited, or changes them
    under a new ENGINE_VERSION.
    """

    MODEL_SHA = {
        (2000, 14): "ca3b54e649c6d5f718ea4222ad184b93f6c5f6c3a9907b4793097aafa8bff6d7",
        (600, 7): "16c7b6f56aed9b9ebf5212d5d53449789fa2e6df23479438f1538016c81a9b0f",
    }
    PREDICT_SHA = {
        (2000, 14): "6db4bc53cdc04514487cc930b933985a54f88841a0d932d06128d976628e9264",
        (600, 7): "0d296d1507eb8fdaea586bcfadfc8dbfce489ada0ae45b5ebea6368880d8a52b",
    }
    STUDY_REPR_SHA = "63f50834dcf4597997ba209fe9e4276018d5ef0c971e18f349bd827a3bf42d75"

    @pytest.mark.parametrize("shape", [(2000, 14), (600, 7)])
    def test_model_and_predictions_pinned(self, shape):
        X, y = _golden_problem(sum(shape), *shape)
        model = train_logreg(X, y)
        assert not model.degenerate
        assert len(model.loss_trace) <= model.hyperparams.max_iterations + 1
        model_bytes = canonical_json_bytes(model.to_json_obj())
        assert _sha256(model_bytes) == self.MODEL_SHA[shape]
        X_new, _ = _golden_problem(sum(shape) + 1, 300, shape[1])
        assert _sha256(predict(model, X_new).tobytes()) == self.PREDICT_SHA[shape]

    def test_sigmoid_bytes_match_masked_formula(self):
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0]
        )
        rng = np.random.default_rng(16)
        z = np.concatenate(
            [special, rng.normal(scale=12.0, size=100_000), rng.uniform(-800, 800, 50)]
        )
        assert refpipe._sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
        # unaligned and strided views take the same path through exp
        for view in (z[3:], z[1::3]):
            assert refpipe._sigmoid(view).tobytes() == _masked_sigmoid(view).tobytes()

    def test_small_study_pinned(self):
        cfg = StudyConfig(
            synth=SynthConfig(
                num_courses=2, sessions_per_course=3, learners_per_session=150, seed=5
            ),
            weeks=(1, 2),
        )
        assert _sha256(repr(run_study(cfg)).encode()) == self.STUDY_REPR_SHA


# ---------------------------------------------------------------------------
# CSV interchange


class TestCsvRoundTrips:
    def test_features_and_labels(self, tmp_path):
        log = make_log(
            [("a", ts(0), "video_play"), ("b", ts(8), "quiz_attempt")],
            roster=["a", "b", "c"],
        )
        fm = extract_features(log, 2)
        lv = label_dropout(log)
        refpipe.write_features_csv(tmp_path / "f.csv", fm)
        refpipe.write_labels_csv(tmp_path / "l.csv", lv)
        learners, columns, X = refpipe.read_features_csv(tmp_path / "f.csv")
        assert learners == list(fm.learners)
        assert columns == fm.column_names()
        assert (X == fm.X).all()
        label_learners, y = refpipe.read_labels_csv(tmp_path / "l.csv")
        assert label_learners == list(lv.learners)
        assert (y == lv.y).all()

    def test_predictions_bit_exact(self, tmp_path):
        scores = np.array([0.1234567890123456789, 1e-17, 0.5])
        refpipe.write_predictions_csv(
            tmp_path / "p.csv", ["a", "b", "c"], scores, [1, 0, 1]
        )
        _, back, labels = refpipe.read_predictions_csv(tmp_path / "p.csv")
        assert (back == scores).all()
        assert labels.tolist() == [1, 0, 1]


# ---------------------------------------------------------------------------
# stage entrypoint


def _write_session(tmp_path, session_id, rows, roster):
    session_dir = tmp_path / session_id
    make_log(rows, roster=roster, session_id=session_id).write_dir(
        session_dir, course_id="c1"
    )
    return session_dir


def _run(env):
    with mock.patch.dict(os.environ, env, clear=True):
        return refpipe.run_stage_from_env()


def _stage_env(stage, data_dir, output_dir, seed=7):
    return {
        "STAGE": stage,
        "COURSE_ID": "c1",
        "SESSION_ID": "s1",
        "SEED": str(seed),
        "DATA_DIR": str(data_dir),
        "OUTPUT_DIR": str(output_dir),
        "SCRATCH_DIR": str(output_dir),
    }


def _synthetic_rows(rng, learners, weeks=5, stay_fraction=0.5):
    rows = []
    stay = set(learners[: int(len(learners) * stay_fraction)])
    for learner in learners:
        active_weeks = weeks if learner in stay else 2
        for week in range(active_weeks):
            for _ in range(int(rng.integers(1, 4)) + (3 if learner in stay else 0)):
                day = week * 7 + int(rng.integers(0, 7))
                etype = EVENT_TYPES[int(rng.integers(0, 7))]
                rows.append((learner, ts(day, hour=int(rng.integers(0, 24))), etype))
    return rows


class TestStageEntrypoint:
    def test_missing_env_returns_2(self, capsys):
        assert _run({"STAGE": "extract"}) == 2
        assert "environment" in capsys.readouterr().err

    def test_unknown_stage_returns_2(self, tmp_path, capsys):
        env = _stage_env("fuse", tmp_path, tmp_path)
        assert _run(env) == 2

    def test_stage_error_returns_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        data.mkdir()
        out.mkdir()
        (data / "params.json").write_text('{"feature_weeks": 2}')
        assert _run(_stage_env("extract", data, out)) == 1
        assert "failed" in capsys.readouterr().err

    def test_full_four_stage_flow(self, tmp_path):
        rng = np.random.default_rng(0)
        learners_a = [f"a{i:03d}" for i in range(40)]
        learners_b = [f"b{i:03d}" for i in range(40)]

        extract_out = {}
        for sid, learners in (("sa", learners_a), ("sb", learners_b)):
            sdir = _write_session(
                tmp_path, sid, _synthetic_rows(rng, learners), learners
            )
            (sdir / "params.json").write_text('{"feature_weeks": 3}')
            out = tmp_path / f"out_{sid}"
            out.mkdir()
            assert _run(_stage_env("extract", sdir, out)) == 0
            extract_out[sid] = out

        train_data = tmp_path / "train_data"
        (train_data / "sessions" / "sa").mkdir(parents=True)
        for name in ("features.csv", "labels.csv"):
            (train_data / "sessions" / "sa" / name).write_bytes(
                (extract_out["sa"] / name).read_bytes()
            )
        (train_data / "params.json").write_text(
            json.dumps(
                {
                    "hyperparams": asdict(Hyperparams()),
                    "fold_count": None,
                }
            )
        )
        train_out = tmp_path / "train_out"
        train_out.mkdir()
        assert _run(_stage_env("train", train_data, train_out)) == 0
        model_payload = json.loads((train_out / "model.json").read_text())
        assert len(model_payload["model"]["weights"]) == 21

        test_data = tmp_path / "test_data"
        (test_data / "model").mkdir(parents=True)
        (test_data / "model" / "model.json").write_bytes(
            (train_out / "model.json").read_bytes()
        )
        (test_data / "sessions" / "sb").mkdir(parents=True)
        for name in ("features.csv", "labels.csv"):
            (test_data / "sessions" / "sb" / name).write_bytes(
                (extract_out["sb"] / name).read_bytes()
            )
        (test_data / "params.json").write_text('{"fold_count": null}')
        test_out = tmp_path / "test_out"
        test_out.mkdir()
        assert _run(_stage_env("test", test_data, test_out)) == 0
        ids, scores, labels = refpipe.read_predictions_csv(
            test_out / "predictions.csv"
        )
        assert len(ids) == 40
        assert ((scores > 0) & (scores < 1)).all()

        eval_data = tmp_path / "eval_data"
        (eval_data / "preds" / "holdout").mkdir(parents=True)
        (eval_data / "preds" / "holdout" / "predictions.csv").write_bytes(
            (test_out / "predictions.csv").read_bytes()
        )
        (eval_data / "params.json").write_text(
            json.dumps({"course_id": "c1", "week": 3, "schemes": ["holdout"]})
        )
        eval_out = tmp_path / "eval_out"
        eval_out.mkdir()
        assert _run(_stage_env("evaluate", eval_data, eval_out)) == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert metrics["course_id"] == "c1"
        assert metrics["rows"][0]["scheme"] == "holdout"
        assert 0.5 < metrics["rows"][0]["auc"] <= 1.0

    def test_cv_folds_partition_predictions(self, tmp_path):
        rng = np.random.default_rng(1)
        learners = [f"x{i:03d}" for i in range(30)]
        sdir = _write_session(tmp_path, "s1", _synthetic_rows(rng, learners), learners)
        (sdir / "params.json").write_text('{"feature_weeks": 2}')
        extract_out = tmp_path / "eo"
        extract_out.mkdir()
        assert _run(_stage_env("extract", sdir, extract_out)) == 0

        seen = []
        for fold in (1, 2, 3):
            for role in ("train", "test"):
                data = tmp_path / f"{role}_f{fold}"
                (data / "sessions" / "s1").mkdir(parents=True)
                for name in ("features.csv", "labels.csv"):
                    (data / "sessions" / "s1" / name).write_bytes(
                        (extract_out / name).read_bytes()
                    )
                params = {
                    "fold_count": 3,
                    "fold_index": fold,
                    "fold_seed": 99,
                    "hyperparams": asdict(Hyperparams(max_iterations=20)),
                }
                (data / "params.json").write_text(json.dumps(params))
                out = tmp_path / f"out_{role}_f{fold}"
                out.mkdir()
                if role == "train":
                    assert _run(_stage_env("train", data, out)) == 0
                    model_dir = out
                else:
                    (data / "model").mkdir()
                    (data / "model" / "model.json").write_bytes(
                        (model_dir / "model.json").read_bytes()
                    )
                    assert _run(_stage_env("test", data, out)) == 0
                    ids, _, _ = refpipe.read_predictions_csv(out / "predictions.csv")
                    seen.extend(ids)
        assert sorted(seen) == learners


def test_only_refpipe_spells_the_data_dir_layout():
    # the scheduler stages a unit's inputs where refpipe's stages read
    # them, both through refpipe.input_dir. A literal that is a layout
    # directory, alone or leading a path, or a fold directory, counts.
    # "sessions" alone is also a registry descriptor key, so it counts
    # only where it joins a path.
    spelled = []
    for path in sorted(Path(relab.__file__).parent.glob("*.py")):
        if path.name == "refpipe.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        joined = {
            id(operand)
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            for operand in (node.left, node.right)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            head, slash, _ = node.value.partition("/")
            if "cv_fold_" in node.value or head in ("model", "preds") or (
                head == "sessions" and (slash or id(node) in joined)
            ):
                spelled.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert spelled == []
