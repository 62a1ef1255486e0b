"""Output checks, computed apart from relab.

Each check recomputes a result from the bytes the program wrote, with
the standard library and numpy only, or tests a property the method
must have. None compares against a stored copy of earlier output. A
failed check raises ``CheckFailed``; the workload counts the operation
as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tarfile
from pathlib import Path

import numpy as np

AUC_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# digests and identifiers, from the README's byte layout


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _lp(field: bytes) -> bytes:
    return len(field).to_bytes(8, "big") + field


def expected_trial_id(manifest_doc: dict, data_dir: Path, engine_version: str) -> str:
    """Trial id of ``manifest_doc`` over every data file under ``data_dir``."""
    digests = sorted(
        hashlib.sha256(p.read_bytes()).hexdigest()
        for p in data_dir.rglob("*")
        if p.is_file()
    )
    fields = [
        b"relab.trial.v1",
        canonical_bytes(manifest_doc),
        manifest_doc["image_ref"].encode("utf-8"),
        len(digests).to_bytes(8, "big"),
        *(d.encode("ascii") for d in digests),
        engine_version.encode("utf-8"),
    ]
    h = hashlib.sha256()
    for field in fields:
        h.update(_lp(field))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# AUC


def pairwise_auc(scores, labels) -> float:
    """P(positive outscores negative) + 1/2 P(tie), over every pair."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    require(len(pos) > 0 and len(neg) > 0, "predictions hold a single class")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def read_predictions(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["score"]) for r in rows], [int(r["label"]) for r in rows]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=AUC_TOLERANCE)


def eval_rows_match_predictions(rows, results_dir: Path, folds: int) -> None:
    """Every course and ALL row of an engine report, from predictions.csv.

    ``rows`` are (course_id, scheme, auc) triples; holdout AUCs come from
    the holdout test unit's predictions, cross-validation AUCs from the
    pooled out-of-fold predictions of the fold test units.
    """
    by_scheme = {}
    for course_id, scheme, value in rows:
        if course_id == "ALL":
            continue
        if scheme == "holdout":
            scores, labels = read_predictions(
                results_dir / f"{course_id}:holdout:test" / "predictions.csv"
            )
        else:
            fold_dirs = sorted(results_dir.glob(f"{course_id}:*:cv:fold*:test"))
            require(len(fold_dirs) == folds, f"{course_id}: {len(fold_dirs)} folds")
            scores, labels = [], []
            for d in fold_dirs:
                s, y = read_predictions(d / "predictions.csv")
                scores += s
                labels += y
        expected = pairwise_auc(scores, labels)
        require(
            _close(value, expected),
            f"{course_id} {scheme}: report AUC {value!r}, predictions give {expected!r}",
        )
        by_scheme.setdefault(scheme, []).append(value)
    require(by_scheme, "report holds no course rows")
    for course_id, scheme, value in rows:
        if course_id == "ALL":
            expected = math.fsum(by_scheme[scheme]) / len(by_scheme[scheme])
            require(_close(value, expected), f"ALL {scheme}: mean {value!r} != {expected!r}")


# ---------------------------------------------------------------------------
# bundles


def bundle_matches_record(bundle: bytes, stage_digests: dict) -> None:
    """Every outputs/ member hashes to the record's stage digest, none missing."""
    expected = {
        f"outputs/{unit}/{rel}": digest
        for unit, files in stage_digests.items()
        for rel, digest in files.items()
    }
    seen = set()
    with tarfile.open(fileobj=io.BytesIO(bundle), mode="r:") as tar:
        for info in tar.getmembers():
            if not info.name.startswith("outputs/"):
                continue
            require(info.name in expected, f"unexpected bundle member {info.name}")
            data = tar.extractfile(info).read()
            require(
                hashlib.sha256(data).hexdigest() == expected[info.name],
                f"bundle member {info.name} does not hash to its stage digest",
            )
            seen.add(info.name)
    require(seen == set(expected), f"bundle lacks {sorted(set(expected) - seen)}")


# ---------------------------------------------------------------------------
# the bias study


def _midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def signed_rank_p_by_enumeration(diffs) -> float:
    """Two-sided signed-rank p-value over all 2^n sign patterns, literally."""
    d = [x for x in diffs if x != 0.0]
    n = len(d)
    require(0 < n <= 20, f"enumeration needs 1..20 nonzero differences, got {n}")
    ranks = _midranks([abs(x) for x in d])
    doubled = np.array([round(2 * r) for r in ranks], dtype=np.int64)
    observed = sum(int(r) for r, x in zip(doubled, d) if x > 0)
    patterns = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    sums = patterns @ doubled
    p_ge = np.count_nonzero(sums >= observed) / 2.0**n
    p_le = np.count_nonzero(sums <= observed) / 2.0**n
    return min(1.0, 2.0 * min(p_ge, p_le))


def study_report_consistent(report, courses: int, weeks: int) -> None:
    pairs = report.pairs.pairs
    require(report.n_pairs == courses * weeks, f"n_pairs {report.n_pairs}")
    require(len(pairs) == courses * weeks, f"{len(pairs)} pairs")
    for p in pairs:
        for value in (p.holdout_auc, p.cv_auc):
            require(0.0 <= value <= 1.0, f"{p.course_id} AUC {value} outside [0, 1]")
    diffs = np.array([p.cv_auc - p.holdout_auc for p in pairs])
    require(
        report.mean_bias == float(np.mean(diffs)),
        f"mean_bias {report.mean_bias!r} != mean difference {float(np.mean(diffs))!r}",
    )
    expected_p = signed_rank_p_by_enumeration(diffs.tolist())
    require(
        math.isclose(report.test.p_value, expected_p, rel_tol=1e-12, abs_tol=0.0),
        f"signed-rank p {report.test.p_value!r} != enumeration {expected_p!r}",
    )
