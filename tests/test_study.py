"""In-memory study tests: shapes, determinism, config validation."""

import pytest

from relab.study import StudyConfig, course_pairs, run_study
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

