#!/usr/bin/env python3
"""Sweep feature weeks and measure cross-validation optimism.

Runs the paired (cv - holdout) AUC comparison over a synthetic corpus
for each requested feature week, prints a per-week summary table, and
writes three artifacts into --out:

* pairs.csv    - per course and week, the raw (holdout, cv) AUC pair
* per_week.csv - per week: mean bias, signed-rank statistic, p-value
* summary.json - the full pooled report, including the 95% CI

Example:
    python3 scripts/cv_bias_study.py --out bias-study
    python3 scripts/cv_bias_study.py --shift-sd 0 --seed 1000 --out null-run
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relab.hashing import stable_json
from relab.study import StudyConfig, default_study_synth, run_study


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weeks", default="1,2,3,4",
                        help="comma-separated feature weeks (default: 1,2,3,4)")
    parser.add_argument("--courses", type=int, default=45)
    parser.add_argument("--learners", type=int, default=2000)
    parser.add_argument("--shift-sd", type=float, default=0.5,
                        help="between-session shift; 0 removes the bias")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args()


def main():
    args = parse_args()
    weeks = tuple(int(w) for w in args.weeks.split(","))
    synth = dataclasses.replace(
        default_study_synth(),
        num_courses=args.courses,
        learners_per_session=args.learners,
        session_shift_sd=args.shift_sd,
        seed=args.seed,
    )
    cfg = StudyConfig(synth=synth, weeks=weeks)

    started = time.monotonic()
    report = run_study(cfg)
    elapsed = time.monotonic() - started

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "pairs.csv", "w") as fh:
        fh.write("course_id,week,holdout_auc,cv_auc\n")
        for pair in report.pairs.pairs:
            fh.write(f"{pair.course_id},{pair.week},"
                     f"{pair.holdout_auc!r},{pair.cv_auc!r}\n")
    with open(args.out / "per_week.csv", "w") as fh:
        fh.write("week,n_pairs,mean_bias,statistic,p_value,method\n")
        for row in report.per_week:
            fh.write(f"{row.week},{row.n_pairs},{row.mean_bias!r},"
                     f"{row.statistic!r},{row.p_value!r},{row.method}\n")
    (args.out / "summary.json").write_text(stable_json(report.to_json_obj()))

    print(f"{args.courses} courses, shift sd {args.shift_sd}, seed {args.seed}, "
          f"{elapsed:.0f}s\n")
    print(f"{'week':>4}  {'pairs':>5}  {'mean cv-holdout':>15}  {'p':>10}")
    for row in report.per_week:
        print(f"{row.week:>4}  {row.n_pairs:>5}  {row.mean_bias:>+15.4f}  "
              f"{row.p_value:>10.2e}")
    print(f"\npooled: bias {report.mean_bias:+.4f} "
          f"[{report.ci_lo:+.4f}, {report.ci_hi:+.4f}], "
          f"p {report.test.p_value:.2e} ({report.test.method}, "
          f"n={report.test.n_effective})")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
