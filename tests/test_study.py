"""In-memory study tests: shapes, determinism, config validation, the course pool."""

import dataclasses
import glob
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relab.refpipe as refpipe
from relab.study import StudyConfig, course_pairs, default_study_synth, run_study
from relab.synthdata import SynthConfig

TINY = StudyConfig(
    synth=SynthConfig(
        num_courses=3,
        sessions_per_course=3,
        learners_per_session=60,
        seed=21,
    ),
    weeks=(1, 2),
)


class TestStudyConfig:
    def test_default_is_valid(self):
        cfg = StudyConfig()
        assert cfg.synth.num_courses == 45
        assert cfg.synth.sessions_per_course == 3
        assert cfg.synth.session_shift_sd > 0
        assert cfg.k == 5

    def test_rejects_bad_weeks(self):
        with pytest.raises(ValueError):
            StudyConfig(weeks=())
        with pytest.raises(ValueError):
            StudyConfig(weeks=(0,))
        with pytest.raises(ValueError):
            StudyConfig(weeks=(TINY.synth.num_weeks,), synth=TINY.synth)

    def test_rejects_repeated_weeks(self):
        # a repeated week would count every course twice in one test
        with pytest.raises(ValueError, match="repeat"):
            StudyConfig(weeks=(1, 1), synth=TINY.synth)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            StudyConfig(k=1)

    def test_rejects_single_session_corpus(self):
        with pytest.raises(ValueError):
            StudyConfig(
                synth=SynthConfig(sessions_per_course=1, num_courses=1)
            )

    def test_fold_seed_defaults_to_synth_seed(self):
        assert TINY.effective_fold_seed == TINY.synth.seed
        override = StudyConfig(synth=TINY.synth, fold_seed=99)
        assert override.effective_fold_seed == 99


class TestCoursePairs:
    def test_one_pair_per_week(self):
        pairs = course_pairs(TINY, 0)
        assert [p.week for p in pairs] == list(TINY.weeks)
        assert all(p.course_id == "course000" for p in pairs)

    def test_aucs_in_unit_interval(self):
        for pair in course_pairs(TINY, 1):
            assert 0.0 <= pair.holdout_auc <= 1.0
            assert 0.0 <= pair.cv_auc <= 1.0

    def test_difference_orientation(self):
        pair = course_pairs(TINY, 0)[0]
        assert pair.difference == pair.cv_auc - pair.holdout_auc

    def test_deterministic(self):
        assert course_pairs(TINY, 2) == course_pairs(TINY, 2)


class TestRunStudy:
    def test_report_shape(self):
        report = run_study(TINY)
        n_pairs = TINY.synth.num_courses * len(TINY.weeks)
        assert report.n_pairs == n_pairs
        assert len(report.pairs.pairs) == n_pairs
        assert 0.0 <= report.test.p_value <= 1.0
        assert len(report.per_week) == len(TINY.weeks)



def child_pids():
    """Pids of this process's children, read from every thread's list."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            pids.update(fh.read().split())
    return pids


def overflowing_solve(H, g):
    """A Newton step that overflows the weights: every fit raises."""
    return [float("inf")] * len(g)


class TestFitPool:
    def test_one_worker_report_equals_the_pooled_one(self, monkeypatch):
        pooled = run_study(TINY)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_study(TINY) == pooled
        n = len(TINY.weeks)  # pairs come in course order
        for c in range(TINY.synth.num_courses):
            assert course_pairs(TINY, c) == pooled.pairs.pairs[c * n : (c + 1) * n]

    def test_no_process_outlives_the_call(self):
        before = child_pids()
        run_study(TINY)
        assert multiprocessing.active_children() == []
        assert child_pids() <= before

    @pytest.mark.parametrize("cpus", ["pooled", "one"])
    def test_a_fit_that_raises_raises_from_run_study(self, monkeypatch, cpus):
        if cpus == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        # forked workers inherit the patched solve
        monkeypatch.setattr(refpipe, "_cholesky_solve", overflowing_solve)
        before = child_pids()
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
            run_study(TINY)
        assert multiprocessing.active_children() == []
        assert child_pids() <= before


class TestBiasStudyScript:
    def test_artifacts_match_run_study(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "cv_bias_study.py"
        out = tmp_path / "study"
        proc = subprocess.run(
            [sys.executable, str(script), "--courses", "2", "--learners", "200",
             "--weeks", "1,2", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        synth = dataclasses.replace(
            default_study_synth(), num_courses=2, learners_per_session=200
        )
        report = run_study(StudyConfig(synth=synth, weeks=(1, 2)))
        rows = (out / "pairs.csv").read_text().splitlines()
        assert rows[0] == "course_id,week,holdout_auc,cv_auc"
        assert [row.split(",") for row in rows[1:]] == [
            [p.course_id, str(p.week), repr(p.holdout_auc), repr(p.cv_auc)]
            for p in report.pairs.pairs
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary == json.loads(json.dumps(report.to_json_obj()))


class TestDemoScript:
    def test_runs_from_a_plain_checkout(self, tmp_path):
        # no PYTHONPATH and no installed package: the script alone must let
        # its stage processes find relab
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(script), "--root", str(tmp_path / "demo")],
            capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "same trial: True" in proc.stdout
        assert "24/24 cache hits" in proc.stdout
