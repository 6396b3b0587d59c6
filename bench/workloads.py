"""Seeded inputs and workload definitions for the emprob benchmark.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished, from one process, with no worker
threads and no parallel children.

- report-default: the paper's run.  The shipped six-question schema (1,536
  cases) with the default PipelineConfig.  EM and FCA take almost all of the
  time here.  The seed changes nothing: the shipped data are the input.
- report-unmerged: the 22-answer schema with the four flu-like symptoms
  listed separately and no merge rule (12,288 cases), one mixture component
  and two narrow bands.  Case-count scaling, KDE scoring, the tree and the
  writers show here, while EM is bypassed (one iteration per fit).
- patient-cli: a clinician scores seed-chosen admissible patients one after
  another through the real CLI with the shipped data.  Each call reads one
  case instead of writing 35 files.

The generator only reads the shipped data files and never imports emprob, so
the inputs it writes are independent of the code under test.  The same seed
gives byte-identical files.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_DATA = ROOT / "src" / "emprob" / "data"

WORKLOADS = ("report-default", "report-unmerged", "patient-cli")

# q1's merged answer and the four symptoms it stands for; merging the
# generated columns back by their mean reproduces the shipped matrix exactly.
MERGED_ID = "a_2_q1"
SYMPTOMS = (
    ("a_21_q1", "Fever"),
    ("a_22_q1", "Fatigue"),
    ("a_23_q1", "Faintness"),
    ("a_24_q1", "Headache"),
)
# weights are quarter points in [-1, 3]; held here in quarters
QUARTER_MIN, QUARTER_MAX = -4, 12
# How far, in quarter points, a drawn symptom weight may lie from the doctor's
# merged weight.  Draws over the whole [-1, 3] range gave trees of 2,700 to
# 4,500 nodes from seed to seed; within two quarter points the tree keeps
# 4,550-4,700 nodes and the concept count stays within 1.5%.
SYMPTOM_SPREAD = 2

THRESHOLDS = (0.33, 0.68)
UNMERGED_BANDS = ((0.0, 0.02), (0.98, 1.0))
N_PATIENTS = 8


def shipped_questionnaire() -> dict:
    return json.loads((SHIPPED_DATA / "questionnaire.json").read_text(encoding="utf-8"))


def shipped_weights() -> tuple[list[str], list[list[str]]]:
    """Header and doctor rows of the shipped weight CSV, as text cells."""
    with open(SHIPPED_DATA / "weights.csv", newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r]
    return rows[0], rows[1:]


def unmerged_questionnaire_doc() -> dict:
    """The shipped schema with MERGED_ID replaced by the four symptoms."""
    doc = shipped_questionnaire()
    for q in doc["questions"]:
        answers = []
        for a in q["answers"]:
            if a["id"] == MERGED_ID:
                answers.extend({"id": sid, "label": label} for sid, label in SYMPTOMS)
            else:
                answers.append(a)
        q["answers"] = answers
    return {"questions": doc["questions"]}


def _four_quarters(rng: random.Random, mean: int) -> list[int]:
    """Four quarter-point weights in [-1, 3], each within SYMPTOM_SPREAD of
    `mean` and averaging exactly `mean` (all in quarters)."""
    lo = max(QUARTER_MIN, mean - SYMPTOM_SPREAD)
    hi = min(QUARTER_MAX, mean + SYMPTOM_SPREAD)
    while True:
        three = [rng.randint(lo, hi) for _ in range(3)]
        last = 4 * mean - sum(three)
        if lo <= last <= hi:
            return three + [last]


def _quarter_text(q: int) -> str:
    return format(q / 4, "g")


def unmerged_weights_csv(rng: random.Random) -> str:
    """15 x 22 weight CSV: per doctor, the four symptom weights are drawn
    on the quarter grid near the doctor's shipped merged weight, with their
    mean fixed to it; every other column is copied from the shipped matrix."""
    header, rows = shipped_weights()
    col = header.index(MERGED_ID)
    lines = [",".join(header[:col] + [sid for sid, _ in SYMPTOMS] + header[col + 1 :])]
    for row in rows:
        mean = Fraction(row[col]) * 4  # in quarters
        if mean.denominator != 1:
            raise ValueError(f"merged weight {row[col]} is not on the quarter grid")
        four = [_quarter_text(q) for q in _four_quarters(rng, int(mean))]
        lines.append(",".join(row[:col] + four + row[col + 1 :]))
    return "\n".join(lines) + "\n"


def exact_mean_weights() -> dict[str, Fraction]:
    """Per-answer mean over doctors of the shipped matrix, in exact arithmetic."""
    header, rows = shipped_weights()
    return {
        aid: sum((Fraction(r[j]) for r in rows), Fraction(0)) / len(rows)
        for j, aid in enumerate(header) if j > 0
    }


def case_count(doc: dict) -> int:
    """Admissible cases of a questionnaire document without merge rules:
    one answer per exclusive question; "none" or a non-empty symptom subset
    for the multi-select question."""
    n = 1
    for q in doc["questions"]:
        k = len(q["answers"])
        n *= 2 ** (k - 1) if q.get("mode") == "multi_select_with_exclusive_none" else k
    return n


def _symptom_subsets(question: dict) -> list[list[str]]:
    symptoms = [a["id"] for a in question["answers"] if a["id"] != question["none_answer_id"]]
    return [
        [s for i, s in enumerate(symptoms) if bits >> i & 1]
        for bits in range(1, 2 ** len(symptoms))
    ]


def patient_answer_sets(rng: random.Random, n: int = N_PATIENTS) -> list[list[str]]:
    """Admissible answer-id sets for the shipped schema.  The first patient
    answers the symptom question "No" and the second reports at least two
    symptoms; the rest are drawn uniformly over that question's options."""
    questions = shipped_questionnaire()["questions"]
    patients = []
    for k in range(n):
        ids = []
        for q in questions:
            if q.get("mode") != "multi_select_with_exclusive_none":
                ids.append(rng.choice(q["answers"])["id"])
                continue
            subsets = _symptom_subsets(q)
            if k == 0:
                ids.append(q["none_answer_id"])
            elif k == 1:
                ids.extend(rng.choice([s for s in subsets if len(s) >= 2]))
            else:
                options = [[q["none_answer_id"]]] + subsets
                ids.extend(rng.choice(options))
        patients.append(sorted(ids))
    return patients


def write_inputs(workload: str, seed: int, dest: Path) -> dict[str, Path]:
    """Write the workload's generated input files under dest; returns them
    by role.  The shipped data are not copied: report-default and
    patient-cli read them from the package as a user would."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    if workload == "report-unmerged":
        files["questionnaire"] = dest / "questionnaire.json"
        files["questionnaire"].write_text(
            json.dumps(unmerged_questionnaire_doc(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        files["weights"] = dest / "weights.csv"
        files["weights"].write_text(unmerged_weights_csv(rng), encoding="utf-8")
    elif workload == "patient-cli":
        doc = {
            "thresholds": list(THRESHOLDS),
            "mean_weights": {a: str(v) for a, v in exact_mean_weights().items()},
            "patients": patient_answer_sets(rng),
        }
        files["patients"] = dest / "patients.json"
        files["patients"].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return files
