"""Generator tests: determinism, signal calibration, corpus layout."""

import math

import numpy as np
import pytest

from relab.evalstats import auc
from relab.hashing import sha256_file
from relab.refpipe import EVENT_TYPES, Hyperparams, Standardizer, predict, train_logreg
from relab.synthdata import (
    TYPE_MIX,
    SynthConfig,
    course_id_for,
    derive_seed,
    generate_corpus,
    generate_session,
    sample_session,
    session_id_for,
    session_start,
)

SMALL = SynthConfig(
    num_courses=2,
    sessions_per_course=2,
    num_weeks=3,
    learners_per_session=40,
    seed=11,
)


def fit_and_score(X_train, y_train, X_test):
    std = Standardizer.fit(X_train)
    model = train_logreg(std.transform(X_train), y_train, Hyperparams())
    return predict(model, std.transform(X_test))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SynthConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_courses": 0},
            {"sessions_per_course": 0},
            {"num_weeks": 1},
            {"learners_per_session": 1},
            {"base_activity_rate": 0.0},
            {"dropout_hazard": 0.0},
            {"dropout_hazard": 1.0},
            {"session_shift_sd": -0.1},
            {"seed": -1},
            {"seed": 1 << 64},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    def test_type_mix_is_a_distribution(self):
        assert len(TYPE_MIX) == len(EVENT_TYPES)
        assert math.isclose(float(TYPE_MIX.sum()), 1.0, abs_tol=1e-12)
        assert (TYPE_MIX > 0).all()


class TestIdsAndSeeds:
    def test_id_formats(self):
        assert course_id_for(3) == "course003"
        assert session_id_for(3, 0) == "course003-run1"

    def test_session_starts_are_increasing(self):
        starts = [session_start(i) for i in range(4)]
        assert starts == sorted(starts)
        assert len(set(starts)) == 4

    def test_derived_seeds_distinct_across_indices(self):
        seeds = {
            derive_seed(7, c, s) for c in range(10) for s in range(10)
        }
        assert len(seeds) == 100

    def test_derived_seed_sensitive_to_master_seed(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


class TestSampleSession:
    def test_shapes_and_ranges(self):
        s = sample_session(SMALL, 0, 0)
        n, w = SMALL.learners_per_session, SMALL.num_weeks
        assert s.counts.shape == (n, w, len(EVENT_TYPES))
        assert (s.counts >= 0).all()
        assert s.active_weeks.min() >= 1 and s.active_weeks.max() <= w
        assert len(s.learner_ids) == n

    def test_counts_zero_after_active_week(self):
        s = sample_session(SMALL, 0, 0)
        for i in range(len(s.learner_ids)):
            last = s.active_weeks[i]
            assert s.counts[i, last:, :].sum() == 0

    def test_week_one_counts_never_truncated(self):
        # learners dropping in week 1 still produce week-1 events
        cfg = SynthConfig(
            num_courses=1,
            sessions_per_course=1,
            num_weeks=3,
            learners_per_session=400,
            dropout_hazard=0.5,
            activity_effect=0.0,
            seed=5,
        )
        s = sample_session(cfg, 0, 0)
        week1_dropouts = s.active_weeks == 1
        assert week1_dropouts.any()
        assert s.counts[week1_dropouts, 0, :].sum() > 0

    def test_labels_match_final_week_inactivity(self):
        s = sample_session(SMALL, 0, 0)
        expected = (s.counts[:, -1, :].sum(axis=1) == 0).astype(np.int8)
        assert (s.labels == expected).all()

    def test_determinism(self):
        a = sample_session(SMALL, 1, 1)
        b = sample_session(SMALL, 1, 1)
        assert (a.counts == b.counts).all()
        assert (a.active_weeks == b.active_weeks).all()

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            sample_session(SMALL, SMALL.num_courses, 0)
        with pytest.raises(ValueError):
            sample_session(SMALL, 0, SMALL.sessions_per_course)


class TestSignalCalibration:
    def test_no_activity_effect_gives_null_auc(self):
        # with activity_effect 0 the labels ignore the counts entirely, so
        # a week-1 model (whose features are never truncated) scores ~0.5
        cfg = SynthConfig(
            num_courses=1,
            sessions_per_course=2,
            learners_per_session=3000,
            activity_effect=0.0,
            session_shift_sd=0.0,
            seed=13,
        )
        train = sample_session(cfg, 0, 0)
        test = sample_session(cfg, 0, 1)
        scores = fit_and_score(
            train.feature_matrix(1), train.labels, test.feature_matrix(1)
        )
        value = auc(scores, test.labels)
        assert 0.45 < value < 0.55

    def test_strong_effect_gives_learnable_holdout_signal(self):
        cfg = SynthConfig(
            num_courses=1,
            sessions_per_course=2,
            learners_per_session=800,
            activity_effect=2.0,
            session_shift_sd=0.0,
            seed=13,
        )
        train = sample_session(cfg, 0, 0)
        test = sample_session(cfg, 0, 1)
        scores = fit_and_score(
            train.feature_matrix(1), train.labels, test.feature_matrix(1)
        )
        assert auc(scores, test.labels) > 0.7

    def test_stronger_effect_does_not_reduce_holdout_auc(self):
        # one-sided sign test over 20 seeds at alpha=0.05
        wins = 0
        n_seeds = 20
        for seed in range(n_seeds):
            aucs = []
            for eff in (0.8, 2.4):
                cfg = SynthConfig(
                    num_courses=1,
                    sessions_per_course=2,
                    learners_per_session=300,
                    activity_effect=eff,
                    session_shift_sd=0.0,
                    seed=100 + seed,
                )
                train = sample_session(cfg, 0, 0)
                test = sample_session(cfg, 0, 1)
                scores = fit_and_score(
                    train.feature_matrix(1), train.labels, test.feature_matrix(1)
                )
                aucs.append(auc(scores, test.labels))
            wins += aucs[1] > aucs[0]
        # P(X >= wins | p=0.5) must be < 0.05: with n=20 that needs >= 15
        tail = sum(
            math.comb(n_seeds, i) for i in range(wins, n_seeds + 1)
        ) / 2 ** n_seeds
        assert tail < 0.05, f"wins={wins}/{n_seeds}, tail={tail:.4f}"


class TestGenerateSession:
    def test_event_log_counts_match_sample(self):
        log = generate_session(SMALL, 0, 0)
        sample = sample_session(SMALL, 0, 0)
        assert len(log.timestamps) == sample.counts.sum()

    def test_event_log_is_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_session(SMALL, 0, 1).write_dir(d1, course_id="course000")
        generate_session(SMALL, 0, 1).write_dir(d2, course_id="course000")
        assert (d1 / "events.csv").read_bytes() == (d2 / "events.csv").read_bytes()
        assert (d1 / "session.json").read_bytes() == (
            d2 / "session.json"
        ).read_bytes()


class TestGenerateCorpus:
    def test_layout_and_descriptors(self, tmp_path):
        descs = generate_corpus(SMALL, tmp_path)
        assert len(descs) == SMALL.num_courses
        for d in descs:
            assert len(d["sessions"]) == SMALL.sessions_per_course
            for s in d["sessions"]:
                sdir = tmp_path / "data" / d["course_id"] / s["session_id"]
                assert (sdir / "events.csv").is_file()
                assert (sdir / "session.json").is_file()

    def test_session_starts_ordered_in_descriptor(self, tmp_path):
        descs = generate_corpus(SMALL, tmp_path)
        for d in descs:
            dates = [s["start_date"] for s in d["sessions"]]
            assert dates == sorted(dates)
            assert len(set(dates)) == len(dates)

    def test_refuses_non_empty_target(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "junk.txt").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            generate_corpus(SMALL, tmp_path)

    def test_regeneration_identical_digests(self, tmp_path):
        generate_corpus(SMALL, tmp_path / "r1")
        generate_corpus(SMALL, tmp_path / "r2")
        files1 = sorted((tmp_path / "r1").rglob("*.csv")) + sorted(
            (tmp_path / "r1").rglob("*.json")
        )
        assert files1
        for f1 in files1:
            f2 = tmp_path / "r2" / f1.relative_to(tmp_path / "r1")
            assert sha256_file(f1) == sha256_file(f2)


# sha256 of every file generate_corpus writes, by path under data/: the
# bench-shaped corpus (no shift) and a shifted default-shape corpus with
# fewer learners. Any change to the generator or to the event-log writer
# that moves a byte fails here.
BENCH_SHAPED = SynthConfig(
    num_courses=2, learners_per_session=200, session_shift_sd=0.0, seed=901
)
SHIFTED_SMALL = SynthConfig(num_courses=2, learners_per_session=30, seed=17)

GOLDEN_CORPORA = [
    (
        BENCH_SHAPED,
        {
            "course000/course000-run1/events.csv": "b09aab7b17bc693f8a1fd2fb60c2d8d5fa77beef5b75e0343f2cc2ccd0c84e91",
            "course000/course000-run1/session.json": "b34814a8e97ccb0452a61d509e40ac1d4ce84e00ab0976046f2504930ff34962",
            "course000/course000-run2/events.csv": "a5e0197a02339c19660520759aca2b7512217f4ea247f3e0e49c06f195b04362",
            "course000/course000-run2/session.json": "ea0d5b2f467763d6d55e18782c009ca97168fd02404100f08b0c9a650af5f35a",
            "course000/course000-run3/events.csv": "5e208853cfd0f4e09fa6783b29923a4f7496b3d5fbeabd5e2875ed876700e3ec",
            "course000/course000-run3/session.json": "ac962334ce0e3a95ca376f80b756eee9f0264980304885681fa954128175e56b",
            "course001/course001-run1/events.csv": "cef99e7be7b55b41623f62c960604745ad17b7192043a565fe6e90dfcf91aad4",
            "course001/course001-run1/session.json": "0dfe137547341183f3aba92129eb6d1bcf02b06da6020cf064e8dd0dfccafaa4",
            "course001/course001-run2/events.csv": "7820a3b93959880c537d94a79133e743b25ebdec7fe1116a96bdc8c9a118640f",
            "course001/course001-run2/session.json": "4a7b795c5e9a1f3fe84a27a289489201a7f45d3b259d86a45a420dd2feb59d88",
            "course001/course001-run3/events.csv": "2a9a7d263981eb2de7132bda080b0e5a97ec379910f0cdc126852244402edce3",
            "course001/course001-run3/session.json": "0079b40a70066db4bd49a61894675b0c2d54d98a3efc52c1e9a47ae63101f10c",
        },
    ),
    (
        SHIFTED_SMALL,
        {
            "course000/course000-run1/events.csv": "2fc2a0e853462527582f299c9cde3c093389845055cdb246e8a231102131e955",
            "course000/course000-run1/session.json": "05aee39a396d90e2aae673b3ca5f8b01b9f326b13c3216f76d40fff4c275c4e5",
            "course000/course000-run2/events.csv": "c95a41bf992010d2e4cd2a5eb1fcacef5b06fcb58d00964da457be6b3ab8a2ac",
            "course000/course000-run2/session.json": "a4e04bad2e4b33a93d99dd6da6c47948d8202f893ac58691c0c9ad9a0406b12d",
            "course000/course000-run3/events.csv": "5f72c25f30b348c52f563f7f313d7a41e7cf588981d0c8b98aaac30392885f4a",
            "course000/course000-run3/session.json": "86963b749501cd1debd767f17a3e4ad441e8794d049401a7eb2fa29077a5ef9c",
            "course001/course001-run1/events.csv": "888484e840d80899972bfec7fee85c91c01a9b6f47b9724b990c4b87b7683d48",
            "course001/course001-run1/session.json": "e3af61fa4f2cc0f5342cd1be800962da9a1a17e219c639b05423f0105bb88ab4",
            "course001/course001-run2/events.csv": "97f8309ccf81c4afb87907927f4cd525ea23fe7a7450a7ae6afd667f1a277435",
            "course001/course001-run2/session.json": "24773fece4942c7db222b7b5ddc4d8e601aab697a16402a53f8d012ff0f78e02",
            "course001/course001-run3/events.csv": "64c18f0960ff30ca18640823e59544db9ac9920af01a89be1a292426f0342f77",
            "course001/course001-run3/session.json": "4f29b47b9a8219038769c49a0c3ace2786679e02465a8f2a66033d2d66f039b3",
        },
    ),
]


class TestCorpusGolden:
    @pytest.mark.parametrize(
        "cfg,expected", GOLDEN_CORPORA, ids=["bench-shaped", "shifted-small"]
    )
    def test_corpus_bytes_pinned(self, tmp_path, cfg, expected):
        generate_corpus(cfg, tmp_path)
        data = tmp_path / "data"
        got = {
            p.relative_to(data).as_posix(): sha256_file(p)
            for p in sorted(data.rglob("*"))
            if p.is_file()
        }
        assert got == expected
