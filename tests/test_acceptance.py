"""Acceptance gate: one test per shipping criterion, tolerances inline.

Every criterion is a single test function, so ``pytest -v`` prints
exactly one pass/fail line per criterion. Numeric criteria verify the
library against independently coded oracles (brute-force pairwise AUC,
literal sign-pattern enumeration, central finite differences); systems
criteria drive the real engine end to end over synthetic corpora.
"""

import dataclasses
import time

import numpy as np
from scipy.stats import rankdata

from relab.cli import Engine
from relab.evalstats import (
    _wilcoxon_normal_p,
    auc,
    wilcoxon_signed_rank,
)
from relab.executor import (
    STATUS_POLICY_VIOLATION,
    STATUS_SUCCEEDED,
    ExecutorBackend,
    SandboxSpec,
    collect_outputs,
    run_stage,
)
from relab.manifest import (
    DatasetSelector,
    EvalConfig,
    StageSpec,
    default_manifest,
)
from relab.provenance import export_bundle, import_bundle, manifest_for_trial
from relab.refpipe import logistic_gradient, logistic_loss
from relab.registry import AccessPolicy, Registry
from relab.scheduler import UNIT_CACHED, Scheduler, plan_units
from relab.study import StudyConfig, default_study_synth, run_study
from relab.synthdata import SynthConfig, generate_and_register

CORPUS = SynthConfig(
    num_courses=2,
    sessions_per_course=3,
    num_weeks=2,
    learners_per_session=30,
    seed=11,
)


def make_manifest(scheme, k=None, seed=5, weeks=1, name="acceptance"):
    return default_manifest(
        experiment_name=name,
        selector=DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme=scheme, k=k),
        seed=seed,
        feature_weeks=weeks,
    )


def new_engine(path, synth=CORPUS) -> Engine:
    engine = Engine(path)
    generate_and_register(synth, engine.registry)
    return engine


def _ok(num, detail):
    print(f"criterion {num} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. rank-based AUC equals brute-force pairwise AUC


def brute_force_auc(scores, labels):
    """O(n^2) definition: P(pos > neg) + P(pos == neg) / 2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    wins = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return wins / (len(pos) * len(neg))


def test_criterion_1_auc_matches_brute_force():
    rng = np.random.default_rng(20260814)
    started = time.monotonic()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        if i % 3 == 0:
            scores = np.round(scores, 1)  # heavy ties
        if i % 250 == 0:
            scores = np.zeros(n)  # all tied
        delta = abs(auc(scores, labels) - brute_force_auc(scores, labels))
        worst = max(worst, delta)
    elapsed = time.monotonic() - started
    assert worst < 1e-12, f"worst AUC deviation {worst:.3e} exceeds 1e-12"
    assert elapsed < 10.0, f"1000 instances took {elapsed:.1f}s, budget 10s"
    _ok(1, f"1000 instances, worst deviation {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Wilcoxon signed-rank: exact vs enumeration, exact vs normal


def enumerated_two_sided_p(d):
    """All 2^n sign patterns, literally; ranks via scipy for independence."""
    n = len(d)
    ranks = rankdata(np.abs(d), method="average")
    patterns = np.arange(2**n, dtype=np.int64)
    positive = (patterns[:, None] >> np.arange(n)) & 1
    w_all = positive @ ranks
    w_obs = ranks[d > 0].sum()
    # midranks are exact multiples of 0.5, so comparisons are exact
    p_ge = np.count_nonzero(w_all >= w_obs) / 2.0**n
    p_le = np.count_nonzero(w_all <= w_obs) / 2.0**n
    return min(1.0, 2.0 * min(p_ge, p_le))


def test_criterion_2_wilcoxon_exact_and_normal():
    rng = np.random.default_rng(97)
    started = time.monotonic()

    worst_exact = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        d = rng.integers(1, 6, size=n) * rng.choice([-1.0, 1.0], size=n)
        result = wilcoxon_signed_rank(d)
        assert result.method == "exact"
        worst_exact = max(worst_exact, abs(result.p_value - enumerated_two_sided_p(d)))
    assert worst_exact < 1e-12, (
        f"exact p deviates from enumeration by {worst_exact:.3e}"
    )

    worst_gap = 0.0
    for n in range(12, 26):
        for _ in range(20):
            d = rng.normal(size=n)
            exact = wilcoxon_signed_rank(d)
            assert exact.method == "exact"
            gap = abs(exact.p_value - _wilcoxon_normal_p(d))
            worst_gap = max(worst_gap, gap)
    elapsed = time.monotonic() - started
    assert worst_gap <= 0.02, (
        f"exact vs normal p gap {worst_gap:.4f} exceeds 0.02 for n in 12..25"
    )
    assert elapsed < 30.0, f"criterion took {elapsed:.1f}s, budget 30s"
    _ok(2, f"enumeration dev {worst_exact:.1e}, normal gap {worst_gap:.4f}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. analytic gradient vs central finite differences


def test_criterion_3_logistic_gradient_check():
    rng = np.random.default_rng(4242)
    eps = 1e-6
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0.0, 0.5))

        grad_w, grad_b = logistic_gradient(X, y, w, b, l2)
        fd = np.empty(d + 1)
        for j in range(d):
            bump = np.zeros(d)
            bump[j] = eps
            fd[j] = (
                logistic_loss(X, y, w + bump, b, l2)
                - logistic_loss(X, y, w - bump, b, l2)
            ) / (2 * eps)
        fd[d] = (
            logistic_loss(X, y, w, b + eps, l2)
            - logistic_loss(X, y, w, b - eps, l2)
        ) / (2 * eps)

        analytic = np.append(grad_w, grad_b)
        rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
        worst = max(worst, rel)
    assert worst < 1e-6, f"worst gradient relative error {worst:.3e}"
    _ok(3, f"50 instances, worst relative error {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. end-to-end determinism and caching


def test_criterion_4_determinism_and_cache(tmp_path):
    engine = new_engine(tmp_path / "state")
    manifest = make_manifest("both", k=3)

    _, first, trial_first = engine.run_job(manifest)
    _, second, trial_second = engine.run_job(manifest)

    def digests(report):
        return {e.unit_id: dict(e.output_digests) for e in report.entries}

    assert first.phase == second.phase == "succeeded"
    assert trial_first.trial_id == trial_second.trial_id
    assert digests(first) == digests(second)
    assert first.determinism_digest() == second.determinism_digest()

    assert second.cache_hits == len(second.entries)
    assert all(e.state == UNIT_CACHED for e in second.entries)
    assert all(e.stage_status == "cached" for e in second.entries), (
        "cached rerun must not execute any stage"
    )
    _ok(4, f"trial {trial_first.trial_id[:12]} stable; "
           f"{second.cache_hits}/{len(second.entries)} cache hits, 0 executions")


# ---------------------------------------------------------------------------
# 5. execute-against policy: mount writes and raw exports are blocked


def test_criterion_5_sandbox_policy(tmp_path):
    dirs = {}
    for name in ("data", "scratch", "out", "dest"):
        (tmp_path / name).mkdir()
        dirs[name] = tmp_path / name
    (dirs["data"] / "events.csv").write_text("learner,week\nu0,1\n")

    def sandbox():
        return SandboxSpec(
            data_mount=dirs["data"],
            scratch_dir=dirs["scratch"],
            output_dir=dirs["out"],
            env={"STAGE": "test", "COURSE_ID": "course000",
                 "SESSION_ID": "course000-run0", "SEED": "7"},
        )

    backend = ExecutorBackend()

    # (i) writing into the data mount
    intrusive = StageSpec(
        name="test",
        command=("/bin/sh", "-c",
                 'echo leak > "$DATA_DIR/evil.txt"; '
                 'echo p > "$OUTPUT_DIR/predictions.csv"'),
        timeout=30.0,
        outputs=("predictions.csv",),
    )
    result = run_stage(intrusive, sandbox(), backend)
    assert result.status == STATUS_POLICY_VIOLATION
    assert "evil.txt" in result.detail
    (dirs["data"] / "evil.txt").unlink()  # reset the mount for part (ii)
    (dirs["out"] / "predictions.csv").unlink(missing_ok=True)

    # (ii) exporting a raw copy under a non-allowlisted name
    exfiltrating = StageSpec(
        name="test",
        command=("/bin/sh", "-c", 'cp "$DATA_DIR/events.csv" "$OUTPUT_DIR/raw.dat"'),
        timeout=30.0,
        outputs=("raw.dat",),
    )
    result = run_stage(exfiltrating, sandbox(), backend)
    assert result.status == STATUS_SUCCEEDED
    exported, decisions = collect_outputs(
        result, AccessPolicy(), dirs["out"], dirs["dest"]
    )
    denied = {d.path: d for d in decisions if not d.allowed}
    assert exported == ()
    assert "raw.dat" in denied
    assert "allowlist" in denied["raw.dat"].reason
    assert not (dirs["dest"] / "raw.dat").exists()
    _ok(5, "mount write -> policy_violation; raw.dat export -> denied")


# ---------------------------------------------------------------------------
# 6. cross-validation optimism is detected under shift, absent without


def test_criterion_6_cv_optimism_replication():
    started = time.monotonic()

    shifted = run_study(StudyConfig())
    assert shifted.n_pairs == 45
    assert shifted.mean_bias > 0.0, (
        f"mean cv - holdout difference {shifted.mean_bias:+.4f} not positive"
    )
    assert shifted.test.p_value < 0.01, (
        f"two-sided signed-rank p {shifted.test.p_value:.2e} not below 0.01"
    )

    rejections = 0
    for seed in range(1000, 1020):
        null_synth = dataclasses.replace(
            default_study_synth(), session_shift_sd=0.0, seed=seed
        )
        null = run_study(StudyConfig(synth=null_synth))
        rejections += null.test.p_value < 0.01
    elapsed = time.monotonic() - started
    assert rejections <= 2, (
        f"null study rejected in {rejections}/20 seeds; at most 2 allowed"
    )
    assert elapsed < 600.0, f"study took {elapsed:.0f}s, budget 600s"
    _ok(6, f"shift: bias {shifted.mean_bias:+.4f}, p {shifted.test.p_value:.1e}; "
           f"null: {rejections}/20 rejections; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. fan-out: 8 workers finish the 45-course job in under 40% of serial


def test_criterion_7_parallel_fanout_speedup(tmp_path):
    synth = SynthConfig(
        num_courses=45,
        sessions_per_course=3,
        num_weeks=2,
        learners_per_session=40,
        seed=17,
    )
    registry = Registry(tmp_path / "registry")
    generate_and_register(synth, registry)
    manifest = make_manifest("holdout")

    def timed_run(parallelism):
        scheduler = Scheduler(tmp_path / f"run-par{parallelism}", registry)
        job_id = scheduler.submit(manifest)
        scheduler.plan(job_id)
        started = time.monotonic()
        report = scheduler.execute(job_id, parallelism=parallelism)
        return report, time.monotonic() - started

    serial_report, serial_s = timed_run(1)
    fanout_report, fanout_s = timed_run(8)

    assert serial_report.phase == fanout_report.phase == "succeeded"
    assert serial_report.determinism_digest() == fanout_report.determinism_digest()
    ratio = fanout_s / serial_s
    assert fanout_s < 0.40 * serial_s, (
        f"parallelism=8 took {fanout_s:.1f}s vs {serial_s:.1f}s serial "
        f"({ratio:.0%} of serial); criterion requires < 40%"
    )
    _ok(7, f"identical reports; 8-way {fanout_s:.1f}s vs serial {serial_s:.1f}s "
           f"({ratio:.0%})")


# ---------------------------------------------------------------------------
# 8. forkability: bundle round trip re-executes byte-identically


def test_criterion_8_fork_roundtrip(tmp_path):
    origin = new_engine(tmp_path / "origin")
    manifest = make_manifest("holdout")
    _, origin_report, origin_trial = origin.run_job(manifest)
    assert origin_report.phase == "succeeded"
    bundle_path, _ = export_bundle(
        origin.ledger, origin.cache, origin_trial.trial_id, tmp_path / "trial.tar"
    )

    replica = new_engine(tmp_path / "replica")
    imported = import_bundle(bundle_path, replica.ledger, replica.cache)
    assert imported.trial_id == origin_trial.trial_id
    assert imported.parent_trial_id == imported.trial_id  # import marker

    replica_manifest = manifest_for_trial(imported, replica.cache)
    _, replica_report, replica_trial = replica.run_job(
        replica_manifest, parent_trial_id=imported.trial_id
    )
    assert replica_report.phase == "succeeded"
    assert replica_trial.trial_id == origin_trial.trial_id

    rerun_digests = {
        e.unit_id: dict(e.output_digests) for e in replica_report.entries
    }
    recorded = {u: dict(m) for u, m in imported.stage_digests.items()}
    assert rerun_digests == recorded, "re-executed outputs diverge from bundle"
    _ok(8, f"bundle {origin_trial.trial_id[:12]} re-executed byte-identically "
           f"({len(recorded)} units)")


# ---------------------------------------------------------------------------
# 9. plan shapes


def test_criterion_9_plan_shapes(tmp_path):
    three = Registry(tmp_path / "three")
    generate_and_register(
        SynthConfig(num_courses=1, sessions_per_course=3, num_weeks=2,
                    learners_per_session=20, seed=3),
        three,
    )
    holdout_units, _ = plan_units(make_manifest("holdout"), three)
    assert len(holdout_units) == 6, (
        f"holdout over 3 sessions planned {len(holdout_units)} units, want 6"
    )

    single = Registry(tmp_path / "single")
    generate_and_register(
        SynthConfig(num_courses=1, sessions_per_course=1, num_weeks=2,
                    learners_per_session=20, seed=3),
        single,
    )
    cv_units, _ = plan_units(make_manifest("cross_validation", k=5), single)
    assert len(cv_units) == 12, (
        f"cv k=5 over one session planned {len(cv_units)} units, want 12"
    )
    _ok(9, "holdout/3 sessions -> 6 units; cv k=5/1 session -> 12 units")
