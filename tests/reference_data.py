"""Reference data shared by the test modules: the unmerged 22-answer schema
and the reference two-component mixture.

It lives outside conftest.py because test modules import it by name, and
the benchmark's tests have a conftest module of their own.
"""

import numpy as np

from emprob import (
    GaussianMixture,
    WeightMatrix,
    default_questionnaire,
    default_weight_matrix,
    load_questionnaire,
)

# q_1 with the four flu-like symptoms listed separately (22 answers total);
# the embedded merge rule collapses them back into the shipped schema.
UNMERGED_SYMPTOM_IDS = ("a_21_q1", "a_22_q1", "a_23_q1", "a_24_q1")


def unmerged_questionnaire_doc():
    base = default_questionnaire()
    doc = {"questions": [], "merge_rules": [
        {
            "source_answer_ids": list(UNMERGED_SYMPTOM_IDS),
            "merged_answer": {"id": "a_2_q1", "label": "Fever/ Fatigue/ Faintness/ Headache"},
        }
    ]}
    for q in base.questions:
        answers = []
        for a in q.answers:
            if a.id == "a_2_q1":
                for sid, label in zip(
                    UNMERGED_SYMPTOM_IDS, ("Fever", "Fatigue", "Faintness", "Headache")
                ):
                    answers.append({"id": sid, "label": label})
            else:
                answers.append({"id": a.id, "label": a.label})
        doc["questions"].append(
            {
                "id": q.id,
                "label": q.label,
                "mode": q.mode.value,
                "answers": answers,
                "none_answer_id": q.none_answer_id,
            }
        )
    return doc


def unmerged_questionnaire():
    return load_questionnaire(unmerged_questionnaire_doc())


def unmerged_weight_matrix():
    """15x22 matrix whose merge reproduces the shipped 15x19 matrix exactly.

    Doctor d_4's four symptom weights are distinct values averaging 0.75;
    every other doctor repeats their merged value four times.
    """
    wm = default_weight_matrix()
    col = wm.answer_ids.index("a_2_q1")
    ids = wm.answer_ids[:col] + UNMERGED_SYMPTOM_IDS + wm.answer_ids[col + 1 :]
    rows = []
    for d, row in zip(wm.doctors, wm.values):
        v = row[col]
        four = (1.0, 0.5, 1.5, 0.0) if d == "d_4" else (v, v, v, v)
        rows.append(list(row[:col]) + list(four) + list(row[col + 1 :]))
    return WeightMatrix(doctors=wm.doctors, answer_ids=ids, values=np.array(rows))

# Reference two-component parameters (mixture weights, means, sigmas).
REFERENCE_GMM = GaussianMixture(
    weights=(0.364801, 0.635199),
    means=(0.359548, 0.572878),
    sigmas=(0.128782, 0.156241),
)
