"""Tests for manifest parsing, validation, and canonical serialization."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relab import manifest as mf
from relab.manifest import (
    EvalConfig,
    JobManifest,
    ManifestError,
    StageSpec,
    canonicalize,
    default_manifest,
    parse_manifest,
    render_manifest,
)
from relab.registry import DatasetSelector


def minimal_doc(**overrides):
    doc = {
        "experiment_name": "replication-1",
        "image_ref": "builtin/refpipe@v1",
        "seed": 42,
        "feature_weeks": 2,
        "stages": [
            {"name": "extract"},
            {"name": "train"},
            {"name": "test"},
            {"name": "evaluate"},
        ],
        "dataset_selector": {"kind": "whole_course", "course_id": "c00"},
        "eval_config": {"scheme": "holdout"},
    }
    doc.update(overrides)
    return doc


def with_stage(index, **fields):
    doc = minimal_doc()
    doc["stages"][index].update(fields)
    return doc


WRONGLY_TYPED = [  # (field the error names, document)
    pytest.param("feature_weeks", minimal_doc(feature_weeks="abc"), id="weeks-str"),
    pytest.param("feature_weeks", minimal_doc(feature_weeks=True), id="weeks-bool"),
    pytest.param("timeout", with_stage(1, timeout="abc"), id="timeout-str"),
    pytest.param("command", with_stage(0, command=5), id="command-int"),
    pytest.param("command", with_stage(0, command=["python3", 5]), id="command-item"),
    pytest.param("outputs", with_stage(0, outputs="features.csv"), id="outputs-str"),
    pytest.param("name", with_stage(2, name=["test"]), id="name-list"),
    pytest.param("experiment_name", minimal_doc(experiment_name=None), id="name-null"),
    pytest.param("image_ref", minimal_doc(image_ref=7), id="image-int"),
    pytest.param(
        "ci_level",
        minimal_doc(eval_config={"scheme": "holdout", "ci_level": "x"}),
        id="ci-str",
    ),
    pytest.param(
        "k",
        minimal_doc(eval_config={"scheme": "cross_validation", "k": "3"}),
        id="k-str",
    ),
]


class TestParse:
    @pytest.mark.parametrize("field, doc", WRONGLY_TYPED)
    def test_wrongly_typed_field_is_a_manifest_error(self, field, doc):
        with pytest.raises(ManifestError, match=field):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_a_manifest_error(self, constant):
        text = json.dumps(with_stage(1, timeout=1.5)).replace("1.5", constant)
        with pytest.raises(ManifestError, match=f"{constant} is not a JSON number"):
            parse_manifest(text)

    def test_minimal_document_defaults(self):
        m = parse_manifest(json.dumps(minimal_doc()))
        assert m.eval_config.ci_level == 0.95
        assert m.eval_config.metric == "auc"
        assert m.seed == 42
        assert m.stage("extract").outputs == ("features.csv", "labels.csv")
        assert m.stage("train").timeout == 600.0

    def test_cv_config(self):
        doc = minimal_doc(eval_config={"scheme": "cross_validation", "k": 5})
        m = parse_manifest(json.dumps(doc))
        assert m.eval_config.scheme == "cross_validation"
        assert m.eval_config.k == 5
        assert m.eval_config.uses_cv and not m.eval_config.uses_holdout

    def test_stage_order_violation(self):
        doc = minimal_doc(
            stages=[
                {"name": "train"},
                {"name": "extract"},
                {"name": "test"},
                {"name": "evaluate"},
            ]
        )
        with pytest.raises(ManifestError, match="stage order violation"):
            parse_manifest(json.dumps(doc))

    def test_wrong_stage_count(self):
        doc = minimal_doc(stages=[{"name": "extract"}])
        with pytest.raises(ManifestError, match="exactly 4"):
            parse_manifest(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest('{\n  "experiment_name": }')

    def test_unknown_top_level_field(self):
        doc = minimal_doc(extra_knob=1)
        with pytest.raises(ManifestError, match="extra_knob"):
            parse_manifest(json.dumps(doc))

    def test_unknown_nested_field(self):
        doc = minimal_doc(eval_config={"scheme": "holdout", "bootstrap": True})
        with pytest.raises(ManifestError, match="bootstrap"):
            parse_manifest(json.dumps(doc))

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ManifestError, match="seed"):
            parse_manifest(json.dumps(doc))

    def test_seed_must_be_integer(self):
        with pytest.raises(ManifestError, match="integer"):
            parse_manifest(json.dumps(minimal_doc(seed="42")))
        with pytest.raises(ManifestError, match="integer"):
            parse_manifest(json.dumps(minimal_doc(seed=True)))

    def test_seed_range(self):
        with pytest.raises(ManifestError, match="64-bit"):
            parse_manifest(json.dumps(minimal_doc(seed=-1)))
        with pytest.raises(ManifestError, match="64-bit"):
            parse_manifest(json.dumps(minimal_doc(seed=2**64)))

    def test_fold_mean_pooling_is_refused(self):
        doc = minimal_doc(
            eval_config={"scheme": "both", "k": 3, "cv_pooling": "fold_mean"}
        )
        with pytest.raises(ManifestError, match="'fold_mean'"):
            parse_manifest(json.dumps(doc))

    def test_cv_requires_k(self):
        doc = minimal_doc(eval_config={"scheme": "both"})
        with pytest.raises(ManifestError, match="k >= 2"):
            parse_manifest(json.dumps(doc))

    def test_output_traversal_rejected(self):
        doc = minimal_doc(
            stages=[
                {"name": "extract", "outputs": ["../escape.csv"]},
                {"name": "train"},
                {"name": "test"},
                {"name": "evaluate"},
            ]
        )
        with pytest.raises(ManifestError, match="relative"):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize(
        "path", [".", "./features.csv", "a//b.csv", "sub/", "a\\b.csv", "a\0b.csv"]
    )
    def test_output_the_path_rule_would_change_is_refused(self, path):
        doc = with_stage(0, outputs=["features.csv", "labels.csv", path])
        with pytest.raises(ManifestError, match=re.escape(repr(path))):
            parse_manifest(json.dumps(doc))

    def test_evaluate_must_declare_metrics_json(self):
        with pytest.raises(ManifestError, match="'metrics.json'"):
            parse_manifest(json.dumps(with_stage(3, outputs=[])))
        with pytest.raises(ManifestError, match="'metrics.json'"):
            parse_manifest(json.dumps(with_stage(3, outputs=["report.json"])))

    def test_feature_weeks_positive(self):
        with pytest.raises(ManifestError, match="feature_weeks"):
            parse_manifest(json.dumps(minimal_doc(feature_weeks=0)))


# ---------------------------------------------------------------------------
# canonical form


selectors = st.one_of(
    st.builds(
        DatasetSelector,
        kind=st.just("whole_course"),
        course_id=st.text("abc", min_size=1, max_size=4),
    ),
    st.builds(
        DatasetSelector,
        kind=st.just("single_session"),
        course_id=st.text("abc", min_size=1, max_size=4),
        session_id=st.text("xyz", min_size=1, max_size=4),
    ),
    st.just(DatasetSelector(kind="all_courses")),
)

eval_configs = st.one_of(
    st.builds(
        EvalConfig,
        scheme=st.just("holdout"),
        ci_level=st.sampled_from([0.9, 0.95, 0.99]),
    ),
    st.builds(
        EvalConfig,
        scheme=st.sampled_from(["cross_validation", "both"]),
        k=st.integers(2, 10),
        ci_level=st.sampled_from([0.9, 0.95]),
        cv_pooling=st.just("pooled"),
    ),
)

manifests = st.builds(
    default_manifest,
    experiment_name=st.text("abcdef-", min_size=1, max_size=12),
    selector=selectors,
    eval_config=eval_configs,
    seed=st.integers(0, 2**64 - 1),
    feature_weeks=st.integers(1, 6),
)


class TestCanonicalForm:
    @given(manifests)
    @settings(max_examples=80)
    def test_parse_render_round_trip(self, m):
        assert parse_manifest(render_manifest(m)) == m

    @given(manifests)
    @settings(max_examples=80)
    def test_canonical_stable_through_round_trip(self, m):
        assert canonicalize(parse_manifest(render_manifest(m))) == canonicalize(m)

    def test_formatting_independent(self):
        doc = minimal_doc()
        pretty = json.dumps(doc, indent=4)
        reordered = json.dumps(dict(reversed(list(doc.items()))))
        assert canonicalize(parse_manifest(pretty)) == canonicalize(
            parse_manifest(reordered)
        )

    def test_seed_changes_bytes(self):
        a = parse_manifest(json.dumps(minimal_doc(seed=1)))
        b = parse_manifest(json.dumps(minimal_doc(seed=2)))
        assert canonicalize(a) != canonicalize(b)

    @given(manifests)
    @settings(max_examples=40)
    def test_single_field_mutations_change_bytes(self, m):
        base = canonicalize(m)
        variants = [
            JobManifest(
                experiment_name=m.experiment_name + "x",
                image_ref=m.image_ref,
                stages=m.stages,
                dataset_selector=m.dataset_selector,
                eval_config=m.eval_config,
                seed=m.seed,
                feature_weeks=m.feature_weeks,
            ),
            JobManifest(
                experiment_name=m.experiment_name,
                image_ref=m.image_ref + "x",
                stages=m.stages,
                dataset_selector=m.dataset_selector,
                eval_config=m.eval_config,
                seed=m.seed,
                feature_weeks=m.feature_weeks,
            ),
            JobManifest(
                experiment_name=m.experiment_name,
                image_ref=m.image_ref,
                stages=m.stages,
                dataset_selector=m.dataset_selector,
                eval_config=m.eval_config,
                seed=(m.seed + 1) % 2**64,
                feature_weeks=m.feature_weeks,
            ),
            JobManifest(
                experiment_name=m.experiment_name,
                image_ref=m.image_ref,
                stages=m.stages,
                dataset_selector=m.dataset_selector,
                eval_config=m.eval_config,
                seed=m.seed,
                feature_weeks=m.feature_weeks + 1,
            ),
        ]
        for variant in variants:
            assert canonicalize(variant) != base

    def test_canonical_bytes_minified_sorted(self):
        m = parse_manifest(json.dumps(minimal_doc()))
        data = canonicalize(m)
        assert b"\n" not in data and b": " not in data
        obj = json.loads(data)
        assert list(obj) == sorted(obj)


class TestStageSpec:
    def test_timeout_positive(self):
        with pytest.raises(ManifestError):
            StageSpec(name="extract", command=("x",), timeout=0, outputs=("a.csv",))

    def test_outputs_required_for_core_stages(self):
        with pytest.raises(ManifestError):
            StageSpec(name="train", command=("x",), timeout=1, outputs=())
        StageSpec(name="evaluate", command=("x",), timeout=1, outputs=())
