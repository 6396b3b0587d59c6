"""Reference data shared by the test modules: the unmerged 22-answer schema,
the reference two-component mixture, and formal contexts for the FCA tests.

It lives outside conftest.py because test modules import it by name, and
the benchmark's tests have a conftest module of their own.
"""

import json

import numpy as np

from emprob import (
    FormalContext,
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


def write_unmerged_inputs(directory, columns=None, weights=None):
    """Write the unmerged questionnaire and a 22-column weight matrix
    (default: unmerged_weight_matrix()) as input files; ``columns`` reorders
    the weight columns by position.  Returns the pipeline config keys."""
    wm = unmerged_weight_matrix() if weights is None else weights
    order = range(len(wm.answer_ids)) if columns is None else columns
    lines = ["doctor," + ",".join(wm.answer_ids[j] for j in order)]
    for d, row in zip(wm.doctors, wm.values):
        lines.append(d + "," + ",".join(repr(float(row[j])) for j in order))
    q_path, w_path = directory / "questionnaire.json", directory / "weights.csv"
    q_path.write_text(json.dumps(unmerged_questionnaire_doc()))
    w_path.write_text("\n".join(lines) + "\n")
    return {"questionnaire_path": str(q_path), "weights_path": str(w_path)}


# Reference two-component parameters (mixture weights, means, sigmas).
REFERENCE_GMM = GaussianMixture(
    weights=(0.364801, 0.635199),
    means=(0.359548, 0.572878),
    sigmas=(0.128782, 0.156241),
)


def random_context(rng, max_side=8):
    n_obj = int(rng.integers(1, max_side + 1))
    n_att = int(rng.integers(1, max_side + 1))
    inc = rng.random((n_obj, n_att)) < rng.uniform(0.2, 0.8)
    return FormalContext(
        objects=tuple(f"o{i}" for i in range(n_obj)),
        attributes=tuple(f"y{j}" for j in range(n_att)),
        incidence=inc,
    )


def edge_case_contexts():
    """No objects, no attributes, duplicate rows, and all ones."""
    def ctx(inc):
        n_obj, n_att = inc.shape
        return FormalContext(tuple(f"o{i}" for i in range(n_obj)),
                             tuple(f"y{j}" for j in range(n_att)), inc)

    rows = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=bool)
    return [ctx(np.zeros((0, 4), dtype=bool)), ctx(np.zeros((5, 0), dtype=bool)),
            ctx(rows[[0, 1, 0, 2, 1, 1]]), ctx(np.ones((4, 3), dtype=bool))]
