"""Reference data shared by the test modules: the unmerged 22-answer schema,
the reference two-component mixture, formal contexts for the FCA tests, and
oracles kept apart from the code they check: a mixture's log-likelihood
summed from its pdf, readers for the texts the renderers return, a
row-by-row scores renderer, derivation by position on a
context's incidence, and a per-node tree grower, a root-to-leaf predictor
and a round-based pruner.

It lives outside conftest.py because test modules import it by name, and
the benchmark's tests have a conftest module of their own.
"""

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from emprob import (
    FormalContext,
    GaussianMixture,
    ProbabilityCategory,
    TreeNode,
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


# q2's four answers merged in pairs, then the two pairs merged: the last
# rule's sources are both earlier rules' merged answers
CHAINED_Q2_RULES = [
    {"source_answer_ids": ["a_1_q2", "a_2_q2"], "merged_answer": {"id": "m1", "label": "m1"}},
    {"source_answer_ids": ["a_3_q2", "a_4_q2"], "merged_answer": {"id": "m2", "label": "m2"}},
    {"source_answer_ids": ["m1", "m2"], "merged_answer": {"id": "m3", "label": "m3"}},
]


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


def log_likelihood(model, x):
    """The sample log-likelihood of a mixture, summed from its pdf."""
    return float(np.log(model.pdf(x)).sum())


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


def read_cxt(text):
    """A Burmeister context as context_to_cxt renders it, read by position."""
    lines = text.split("\n")
    assert lines[:2] == ["B", ""] and lines[4] == "", lines[:5]
    n_obj, n_att = int(lines[2]), int(lines[3])
    assert n_obj >= 0 and n_att >= 0
    names, rows = lines[5 : 5 + n_obj + n_att], lines[5 + n_obj + n_att :]
    assert len(names) == n_obj + n_att and rows[n_obj:] == [""], "wrong line count"
    assert all(len(row) == n_att and set(row) <= {"X", "."} for row in rows[:n_obj])
    incidence = np.array([[ch == "X" for ch in row] for row in rows[:n_obj]], dtype=bool)
    return FormalContext(tuple(names[:n_obj]), tuple(names[n_obj:]),
                         incidence.reshape(n_obj, n_att))


SCORE_FIELDS = ("raw_sums", "normalized", "score_gmm_cdf", "score_kde_cdf", "score_posterior")
SCORE_COLUMNS = ("raw_sum", "normalized_sum", "p_gmm_cdf", "p_kde_cdf", "p_posterior")


def scores_rows_text(table):
    """scores.csv built one row at a time from its cells and joined into
    one string, the reference text for scores_to_csv."""
    lines = [",".join(["case_id", *table.answer_ids, *SCORE_COLUMNS, "category"])]
    values = [getattr(table, field) for field in SCORE_FIELDS]
    categories = [c.name for c in ProbabilityCategory]
    for i in range(len(table)):
        row = [str(i)]
        row.extend("1" if v else "0" for v in table.case_set.matrix[i])
        row.extend(format(float(v[i]), ".17g") for v in values)
        row.append(categories[table.category[i]])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_scores_csv(text):
    """A scores CSV as scores_to_csv renders it, parsed with csv into the
    ScoreTable fields it holds, plus case_ids, answer_ids and matrix."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header[0] == "case_id" and header[-6:] == [*SCORE_COLUMNS, "category"], header
    assert rows and all(len(row) == len(header) for row in rows)
    cols = list(zip(*rows))
    assert all(set(col) <= {"0", "1"} for col in cols[1:-6])
    categories = [c.name for c in ProbabilityCategory]
    return SimpleNamespace(
        case_ids=tuple(map(int, cols[0])),
        answer_ids=tuple(header[1:-6]),
        matrix=np.array(cols[1:-6]).T == "1",
        category=np.array([categories.index(c) for c in cols[-1]]),
        **{f: np.array(list(map(float, col))) for f, col in zip(SCORE_FIELDS, cols[-6:-1])},
    )


def extent(ctx, attrs):
    """Positions of the objects having every attribute at the positions attrs."""
    return tuple(np.flatnonzero(ctx.incidence[:, list(attrs)].all(axis=1)).tolist())


def intent(ctx, objs):
    """Positions of the attributes shared by every object at the positions objs."""
    return tuple(np.flatnonzero(ctx.incidence[list(objs)].all(axis=0)).tolist())


def support(ctx, *attributes):
    """Number of objects having every named attribute."""
    return len(extent(ctx, map(ctx.attributes.index, attributes)))


def names(labels, positions):
    return tuple(labels[i] for i in positions)


def predict(root, row, answer_ids):
    """The category a tree gives one answer-indicator row, whose columns
    ``answer_ids`` name."""
    node = root
    while not node.is_leaf:
        present = row[answer_ids.index(node.split_answer_id)]
        node = node.true_child if present else node.false_child
    return node.prediction


def gini(counts):
    """The Gini impurity of a node's label counts."""
    n = sum(counts)
    return 1.0 - sum((c / n) ** 2 for c in counts)


def majority(counts):
    """The first category with the most cases."""
    best = 0
    for k, c in enumerate(counts):
        if c > counts[best]:
            best = k
    return best


def reference_tree(matrix, labels, answer_ids):
    """The Gini tree grown one node at a time: every answer's split is
    scored with its own bincount and compared with the best so far by exact
    integer cross-multiplication (strict improvement, the first best answer
    kept on ties)."""
    matrix = np.asarray(matrix, dtype=bool)
    labels = np.asarray(labels)

    def grow(idx, depth):
        node_counts = tuple(int(c) for c in np.bincount(labels[idx], minlength=3))
        node = TreeNode(counts=node_counts, depth=depth)
        n = int(idx.size)
        if max(node_counts) == n:
            return node
        best_num, best_den, best_j = sum(c * c for c in node_counts), n, None
        for j in range(len(answer_ids)):
            col = matrix[idx, j]
            n_left = int(col.sum())
            if not 0 < n_left < n:
                continue
            left = tuple(int(c) for c in np.bincount(labels[idx[col]], minlength=3))
            right = tuple(a - b for a, b in zip(node_counts, left))
            n_right = n - n_left
            num = sum(c * c for c in left) * n_right + sum(c * c for c in right) * n_left
            den = n_left * n_right
            if num * best_den > best_num * den:
                best_num, best_den, best_j = num, den, j
        if best_j is None:
            return node
        col = matrix[idx, best_j]
        true_idx, false_idx = idx[col], idx[~col]
        node.split_answer_id = answer_ids[best_j]
        node.true_child = grow(true_idx, depth + 1)
        node.false_child = grow(false_idx, depth + 1)
        return node

    return grow(np.arange(matrix.shape[0]), 0)


def _copy(node):
    if node.is_leaf:
        return replace(node)
    return replace(node, true_child=_copy(node.true_child), false_child=_copy(node.false_child))


def link_strengths(root):
    """Every internal node with its link strength g = (R_leaf - R_subtree) /
    (leaves - 1), errors normalized by the root's sample count, exact."""
    links = []
    n_total = root.n_samples

    def walk(node):  # (subtree error, leaves)
        leaf_error = node.n_samples - max(node.counts)
        if node.is_leaf:
            return leaf_error, 1
        e_true, l_true = walk(node.true_child)
        e_false, l_false = walk(node.false_child)
        error, leaves = e_true + e_false, l_true + l_false
        links.append((node, Fraction(leaf_error - error, n_total * (leaves - 1))))
        return error, leaves

    walk(root)
    return links


def reference_prune(root, alpha):
    """Weakest-link pruning in rounds: collapse every node whose link
    strength is the current minimum, while that minimum is below alpha."""
    root = _copy(root)
    while not root.is_leaf:
        links = link_strengths(root)
        g_min = min(g for _, g in links)
        if not g_min < alpha:
            break
        for node, g in links:
            if g == g_min:
                node.split_answer_id = None
                node.true_child = node.false_child = None
    return root
