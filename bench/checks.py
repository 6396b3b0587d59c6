"""Per-operation output checks.  Each returns a list of problems; an empty
list means the operation's output is correct.  The checks read only what
the program wrote and the generated inputs, never emprob's own objects."""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

# Scores may move by this much against the reference row without the op
# counting as failed.  Running the default m=2 EM fit to full convergence
# (tol 1e-14, 11,241 iterations instead of 4,182) moves p_posterior by up to
# 0.0135 and p_gmm_cdf by 1e-4, and such a fit is a legitimate change.  The
# case itself is pinned by the exact raw-sum check, not by the scores.
SCORE_TOLERANCE = 0.02
RAW_SUM_TOLERANCE = 1e-9
SCORE_KEYS = ("p_gmm_cdf", "p_kde_cdf", "p_posterior")
CATEGORIES = ("LOW", "MEDIUM", "HIGH")

REFERENCE = Path(__file__).resolve().parent / "reference" / "patient_scores.csv"


def band_tag(band: tuple[float, float]) -> str:
    return f"{band[0]:g}_{band[1]:g}"


def expected_artifacts(bands) -> set[str]:
    names = {"scores.csv", "fit_report.json", "density_samples.csv",
             "tree_full.dot", "tree_pruned.dot"}
    for band in bands:
        tag = band_tag(band)
        names |= {f"band_{tag}.cxt", f"lattice_{tag}.dot", f"supports_{tag}.csv"}
    return names


def artifact_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def check_report(out_dir: Path, bands, n_cases: int) -> list[str]:
    """The artifact set is complete, scores.csv has one row per case and
    every score lies in [0, 1]."""
    problems = []
    names = {p.name for p in out_dir.iterdir()}
    expected = expected_artifacts(bands)
    if names != expected:
        problems.append(f"artifact set: missing {sorted(expected - names)}, "
                        f"unexpected {sorted(names - expected)}")
    scores = out_dir / "scores.csv"
    if not scores.is_file():
        return problems + ["scores.csv not written"]
    with open(scores, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        try:
            cols = [header.index(k) for k in SCORE_KEYS]
        except ValueError:
            return problems + [f"scores.csv header lacks {SCORE_KEYS}"]
        rows = 0
        for row in reader:
            rows += 1
            try:
                values = [float(row[c]) for c in cols]
            except (IndexError, ValueError):
                problems.append(f"scores.csv row {rows} is malformed")
                break
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"scores.csv row {rows} has a score outside [0, 1]: {values}")
                break
    if rows != n_cases:
        problems.append(f"scores.csv has {rows} rows, expected {n_cases}")
    return problems


def load_reference(path: Path = REFERENCE) -> dict[str, dict[str, float]]:
    """Reference scores per admissible case, keyed by its sorted answer ids
    joined by spaces."""
    with open(path, newline="", encoding="utf-8") as f:
        return {row["answers"]: {k: float(row[k]) for k in SCORE_KEYS}
                for row in csv.DictReader(f)}


def category_of(p: float, thresholds) -> str:
    t1, t2 = thresholds
    return CATEGORIES[0] if p < t1 else CATEGORIES[1] if p < t2 else CATEGORIES[2]


def check_patient(stdout: str, exit_code: int, answers: list[str], patients_doc: dict,
                  reference: dict[str, dict[str, float]]) -> list[str]:
    """score-patient exited 0 and printed JSON whose raw sum, category and
    scores agree with an independent sum, the thresholds and the reference."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    problems = []
    if doc.get("answers") != sorted(answers):
        problems.append(f"answers {doc.get('answers')} != {sorted(answers)}")
    means = patients_doc["mean_weights"]
    expected_sum = float(sum((Fraction(means[a]) for a in answers), Fraction(0)))
    raw = doc.get("raw_sum")
    if not isinstance(raw, (int, float)) or abs(raw - expected_sum) > RAW_SUM_TOLERANCE:
        problems.append(f"raw_sum {raw!r} != {expected_sum!r}")
    scores = {k: doc.get(k) for k in SCORE_KEYS}
    if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in scores.values()):
        return problems + [f"scores missing or outside [0, 1]: {scores}"]
    want = category_of(scores["p_gmm_cdf"], patients_doc["thresholds"])
    if doc.get("category") != want:
        problems.append(f"category {doc.get('category')!r} != {want!r} for "
                        f"p_gmm_cdf {scores['p_gmm_cdf']!r}")
    ref = reference.get(" ".join(sorted(answers)))
    if ref is None:
        problems.append("no reference row for these answers")
    else:
        for k in SCORE_KEYS:
            if abs(scores[k] - ref[k]) > SCORE_TOLERANCE:
                problems.append(f"{k} {scores[k]!r} differs from reference {ref[k]!r} "
                                f"by more than {SCORE_TOLERANCE}")
    return problems
