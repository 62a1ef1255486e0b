"""Tests for the evaluation harness: AUC, CIs, Wilcoxon, session roles,
folds, bias report.

Expected values come from independent oracles computed in this file
(brute-force pairwise AUC, full sign-pattern enumeration for the Wilcoxon
test) or from closed-form hand calculations frozen as literals.
"""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import relab
from relab import evalstats
from relab.evalstats import (
    PairedAuc,
    PairedSample,
    auc,
    bias_report,
    build_eval_report,
    kfold_split,
    mean_ci,
    session_roles,
    wilcoxon_signed_rank,
)


# ---------------------------------------------------------------------------
# independent oracles


def auc_bruteforce(scores, labels):
    """Probability a random positive outscores a random negative, ties 0.5.

    O(n_pos * n_neg) pairwise counting; deliberately independent of the
    rank-based implementation under test.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def wilcoxon_enumeration_oracle(diffs):
    """Exact two-sided p by enumerating all 2^n sign patterns.

    Ranks of |d| come from scipy.stats.rankdata (midranks), a code path
    independent of the implementation under test.
    """
    d = np.asarray([x for x in diffs if x != 0], dtype=float)
    n = len(d)
    if n == 0:
        return 0.0, 0, 1.0
    ranks = spstats.rankdata(np.abs(d))
    w_obs = float(ranks[d > 0].sum())
    patterns = np.array(list(itertools.product([0, 1], repeat=n)), dtype=float)
    w_all = patterns @ ranks
    total = 2.0**n
    p_ge = (w_all >= w_obs - 1e-12).sum() / total
    p_le = (w_all <= w_obs + 1e-12).sum() / total
    return w_obs, n, min(1.0, 2.0 * min(p_ge, p_le))


# ---------------------------------------------------------------------------
# AUC


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_flipped_labels(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [0, 0, 1, 1]) == 0.0

    def test_ties_counted_half(self):
        # pairs: (0.6 vs 0.4)=1, (0.6 vs 0.6)=0.5, (0.2 vs 0.4)=0,
        # (0.2 vs 0.6)=0 -> 1.5/4
        assert auc([0.6, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == pytest.approx(0.375)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [0, 0])

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores inject plenty of ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pytest.approx(
                auc_bruteforce(scores, labels), abs=1e-12
            )

    @given(
        # coarse grid keeps exp()/affine transforms injective in float64
        scores=st.lists(
            st.floats(0, 1, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=4,
            max_size=40,
        ),
        shift=st.floats(0.1, 5.0),
    )
    def test_monotone_transform_invariance(self, scores, shift):
        n = len(scores)
        labels = np.array([i % 2 for i in range(n)])
        s = np.asarray(scores)
        base = auc(s, labels)
        assert auc(np.exp(shift * s), labels) == pytest.approx(base, abs=1e-12)
        assert auc(shift * s + 3.0, labels) == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=40))
    def test_complement_under_label_flip(self, scores):
        n = len(scores)
        labels = np.array([i % 2 for i in range(n)])
        assert auc(scores, 1 - labels) == pytest.approx(
            1.0 - auc(scores, labels), abs=1e-12
        )


# ---------------------------------------------------------------------------
# mean_ci


class TestMeanCi:
    def test_zero_variance(self):
        assert mean_ci([0.7, 0.7, 0.7, 0.7], 0.95) == (0.7, 0.7, 0.7)

    def test_three_point_example(self):
        # s=0.1, se=0.1/sqrt(3), t_{0.975,2}=4.302653
        m, lo, hi = mean_ci([0.6, 0.7, 0.8], 0.95)
        assert m == pytest.approx(0.7)
        assert lo == pytest.approx(0.4515, abs=1e-3)
        assert hi == pytest.approx(0.9485, abs=1e-3)
        q = spstats.t.ppf(0.975, 2)
        se = np.std([0.6, 0.7, 0.8], ddof=1) / math.sqrt(3)
        assert lo == pytest.approx(0.7 - q * se, abs=1e-12)
        assert hi == pytest.approx(0.7 + q * se, abs=1e-12)

    def test_interval_monotone_in_level(self):
        values = [0.5, 0.6, 0.9, 0.4, 0.7]
        widths = []
        for level in (0.5, 0.8, 0.95, 0.99):
            _, lo, hi = mean_ci(values, level)
            widths.append(hi - lo)
        assert widths == sorted(widths)

    def test_not_clipped_to_unit_interval(self):
        _, lo, hi = mean_ci([0.05, 0.9], 0.999)
        assert lo < 0.0 and hi > 1.0

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            mean_ci([0.7], 0.95)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            mean_ci([0.1, 0.2], 1.0)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


class TestWilcoxon:
    def test_all_zero_differences(self):
        res = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert res.statistic == 0.0
        assert res.n_effective == 0
        assert res.p_value == 1.0

    def test_three_positive_diffs(self):
        # all 8 sign patterns; P(W >= 6) = 1/8, doubled
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert res.statistic == 6.0
        assert res.method == "exact"
        assert res.p_value == pytest.approx(0.25)

    def test_zero_diffs_dropped(self):
        res = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 0.0])
        assert res.n_effective == 3
        assert res.p_value == pytest.approx(0.25)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 13))
            # one-decimal quantization produces frequent tied magnitudes
            diffs = np.round(rng.normal(0.1, 1.0, size=n), 1)
            w_oracle, n_oracle, p_oracle = wilcoxon_enumeration_oracle(diffs)
            res = wilcoxon_signed_rank(diffs)
            assert res.method == "exact"
            assert res.n_effective == n_oracle
            assert res.statistic == pytest.approx(w_oracle, abs=1e-12)
            assert res.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_exact_and_normal_agree_mid_sample(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(12, 26))
            diffs = np.round(rng.normal(0.2, 1.0, size=n), 1)
            diffs = diffs[diffs != 0]
            if len(diffs) < 12:
                continue
            exact = evalstats._wilcoxon_exact_p(diffs)
            approx = evalstats._wilcoxon_normal_p(diffs)
            assert abs(exact - approx) < 0.02

    def test_large_sample_uses_normal_approx(self):
        diffs = np.arange(1, 31, dtype=float)
        res = wilcoxon_signed_rank(diffs)
        assert res.method == "normal_approx"
        assert res.n_effective == 30
        assert res.p_value < 1e-5

    def test_method_threshold_boundary(self):
        rng = np.random.default_rng(3)
        d25 = rng.normal(0.5, 1.0, size=25)
        d26 = rng.normal(0.5, 1.0, size=26)
        assert wilcoxon_signed_rank(d25).method == "exact"
        assert wilcoxon_signed_rank(d26).method == "normal_approx"

    @given(
        st.lists(
            st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 1)),
            min_size=1,
            max_size=18,
        )
    )
    @settings(max_examples=60)
    def test_sign_symmetry(self, diffs):
        d = np.asarray(diffs)
        res_pos = wilcoxon_signed_rank(d)
        res_neg = wilcoxon_signed_rank(-d)
        assert res_pos.p_value == pytest.approx(res_neg.p_value, abs=1e-12)


# ---------------------------------------------------------------------------
# session roles and folds


class TestSessionRoles:
    def test_holdout_trains_on_all_but_latest(self):
        train, test, cv = session_roles(4, holdout=True, cv=False)
        assert list(train) == [0, 1, 2] and test == 3 and cv is None

    def test_both_splits_the_latest_training_session(self):
        train, test, cv = session_roles(3, holdout=True, cv=True)
        assert list(train) == [0, 1] and test == 2 and cv == 1

    def test_cv_alone_splits_the_latest_session(self):
        for n in (1, 3):
            train, test, cv = session_roles(n, holdout=False, cv=True)
            assert list(train) == [] and test is None and cv == n - 1

    def test_holdout_needs_two_sessions(self):
        with pytest.raises(ValueError, match="holdout requires >= 2 sessions"):
            session_roles(1, holdout=True, cv=True)


class TestKfold:
    def test_balanced_ten_by_five(self):
        folds = kfold_split(10, 5, seed=1)
        sizes = np.bincount(folds)[1:]
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_uneven_seven_by_five(self):
        folds = kfold_split(7, 5, seed=1)
        sizes = sorted(np.bincount(folds)[1:], reverse=True)
        assert sizes == [2, 2, 1, 1, 1]

    def test_deterministic(self):
        a = kfold_split(40, 5, seed=99)
        b = kfold_split(40, 5, seed=99)
        assert (a == b).all()
        c = kfold_split(40, 5, seed=100)
        assert (a != c).any()

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)

    @given(
        n=st.integers(2, 200),
        k=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_partition_properties(self, n, k, seed):
        if k > n:
            return
        folds = kfold_split(n, k, seed)
        assert folds.shape == (n,)
        assert set(np.unique(folds)) == set(range(1, k + 1))
        sizes = np.bincount(folds)[1:]
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


# ---------------------------------------------------------------------------
# bias report and eval report assembly


def _pairs(holdout, cv):
    return PairedSample(
        pairs=tuple(
            PairedAuc(f"c{i:02d}", 1, holdout_auc=h, cv_auc=c)
            for i, (h, c) in enumerate(zip(holdout, cv))
        )
    )


class TestBiasReport:
    def test_identical_arrays(self):
        vals = [0.6, 0.7, 0.8]
        rep = bias_report(_pairs(vals, vals), ci_level=0.95)
        assert rep.mean_bias == 0.0
        assert rep.test.p_value == 1.0

    def test_constant_positive_offset(self):
        rng = np.random.default_rng(17)
        holdout = rng.uniform(0.55, 0.85, size=40)
        rep = bias_report(_pairs(holdout, holdout + 0.05), ci_level=0.95)
        assert rep.mean_bias == pytest.approx(0.05)
        assert rep.test.method == "normal_approx"
        assert rep.test.p_value < 0.001

    def test_symmetric_mixed_signs_rarely_reject(self):
        # distribution-level property: under exact symmetry the test should
        # not reject at small alpha in the vast majority of seeds
        rejections = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            noise = rng.normal(0, 0.02, size=30)
            holdout = rng.uniform(0.6, 0.8, size=30)
            rep = bias_report(_pairs(holdout, holdout + noise), ci_level=0.95)
            if rep.test.p_value < 0.01:
                rejections += 1
        assert rejections <= 4

    def test_requires_two_pairs(self):
        with pytest.raises(ValueError):
            bias_report(_pairs([0.5], [0.6]), ci_level=0.95)


class TestEvalReport:
    def _rows(self):
        rows = []
        for course in ("c00", "c01", "c02"):
            for scheme, bump in (("holdout", 0.0), ("cross_validation", 0.04)):
                rows.append(
                    evalstats.EvalRow(
                        course_id=course,
                        week=4,
                        scheme=scheme,
                        auc=0.70 + bump + 0.01 * int(course[1:]),
                    )
                )
        return rows

    def test_summary_rows_and_aggregate(self):
        report = build_eval_report(self._rows(), ci_level=0.95, metadata={"k": 5})
        all_rows = [r for r in report.rows if r.course_id == evalstats.ALL_COURSES]
        assert {(r.week, r.scheme) for r in all_rows} == {
            (4, "holdout"),
            (4, "cross_validation"),
        }
        for row in all_rows:
            assert row.ci_lo is not None and row.ci_lo <= row.auc <= row.ci_hi
        assert report.aggregate is not None
        assert report.aggregate.mean_bias == pytest.approx(0.04)
        assert report.aggregate.per_week[0].week == 4

    def test_csv_round_shape(self):
        report = build_eval_report(self._rows(), ci_level=0.95, metadata={})
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "course_id,week,scheme,auc,ci_lo,ci_hi"
        # 6 per-course rows + 2 summary rows
        assert len(lines) == 1 + 6 + 2

    def test_holdout_only_has_no_aggregate(self):
        rows = [r for r in self._rows() if r.scheme == "holdout"]
        report = build_eval_report(rows, ci_level=0.95, metadata={})
        assert report.aggregate is None

    def test_json_obj_is_canonical_material(self):
        report = build_eval_report(self._rows(), ci_level=0.95, metadata={"k": 5})
        obj = report.to_json_obj()
        import json

        a = json.dumps(obj, sort_keys=True)
        b = json.dumps(
            build_eval_report(self._rows(), ci_level=0.95, metadata={"k": 5}).to_json_obj(),
            sort_keys=True,
        )
        assert a == b


def test_only_evalstats_spells_a_scheme_name():
    # manifest, scheduler and refpipe name a scheme by SCHEME_HOLDOUT and
    # SCHEME_CV; a unit-id part such as ":holdout" is no scheme name
    schemes = (evalstats.SCHEME_HOLDOUT, evalstats.SCHEME_CV)
    spelled = []
    for path in sorted(Path(relab.__file__).parent.glob("*.py")):
        if path.name == "evalstats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and node.value in schemes:
                spelled.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert spelled == []
