from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import emprob.tree
from emprob import (
    ValidationError,
    fit_decision_tree,
    iter_nodes,
    leaf_count,
    node_count,
    prune_tree,
    tree_depth,
    tree_to_dot,
)
from reference_data import (
    gini,
    link_strengths,
    majority,
    predict,
    reference_prune,
    reference_tree,
)

IDS3 = ("f0", "f1", "f2")


def grow(matrix, labels, answer_ids=IDS3):
    """A tree over hand-built indicator columns, by default f0, f1, f2."""
    return fit_decision_tree(SimpleNamespace(matrix=matrix, answer_ids=answer_ids), labels)


def assert_matches_reference(matrix, labels):
    ids = tuple(f"f{j}" for j in range(matrix.shape[1]))
    tree, expected = grow(matrix, labels, ids), reference_tree(matrix, labels, ids)
    assert tree_to_dot(tree) == tree_to_dot(expected)
    assert tree == expected  # every field
    for node in iter_nodes(tree):
        assert node.prediction == majority(node.counts)
    return tree, expected


def random_inputs(rng, n_max=120, m_max=8):
    """Indicator matrices with independent, duplicated and complementary
    columns or few distinct rows, so that many splits tie, and labels that
    are random or follow the first column."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    kind = rng.integers(4)
    if kind == 0:
        matrix = rng.random((n, m)) < rng.uniform(0.05, 0.95)
    elif kind == 1:
        matrix = (rng.random((n, m // 2 + 1)) < 0.5)[:, rng.integers(0, m // 2 + 1, m)]
    elif kind == 2:
        half = rng.random((n, m // 2 + 1)) < 0.5
        matrix = np.concatenate([half, ~half], axis=1)[:, :m]
    else:
        matrix = (rng.random((3, m)) < 0.5)[rng.integers(0, 3, n)]
    if rng.random() < 0.5:
        labels = rng.integers(0, rng.integers(1, 4), n)
    else:
        labels = (matrix[:, 0] + rng.integers(0, 2, n)) % 3
    return matrix, labels


def _weighted_child_gini(matrix, labels, j, n_labels=3):
    mask = matrix[:, j]
    n = len(labels)
    total = 0.0
    for part in (labels[mask], labels[~mask]):
        if part.size == 0:
            return None
        counts = np.bincount(part, minlength=n_labels)
        total += part.size / n * (1.0 - ((counts / part.size) ** 2).sum())
    return total


def test_single_class_gives_single_leaf():
    matrix = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=bool)
    labels = np.array([2, 2, 2])
    root = grow(matrix, labels)
    assert root.is_leaf
    assert root.prediction == 2
    assert root.counts == (0, 0, 3)
    assert gini(root.counts) == 0.0


def test_perfect_separator_gives_depth_one_tree():
    matrix = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]], dtype=bool)
    labels = np.array([2, 2, 0, 0])
    root = grow(matrix, labels)
    assert root.split_answer_id == "f0"
    assert tree_depth(root) == 1
    assert root.true_child.is_leaf and gini(root.true_child.counts) == 0.0
    assert root.false_child.is_leaf and gini(root.false_child.counts) == 0.0
    assert root.true_child.prediction == 2
    assert root.false_child.prediction == 0


def test_tie_breaks_to_lowest_answer_index():
    # columns 0 and 1 are identical, both separating perfectly
    matrix = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 0], [0, 0, 1]], dtype=bool)
    labels = np.array([1, 1, 0, 0])
    root = grow(matrix, labels)
    assert IDS3.index(root.split_answer_id) == 0


def test_label_tie_breaks_to_lowest_category():
    matrix = np.zeros((4, 3), dtype=bool)  # nothing to split on
    labels = np.array([0, 0, 1, 1])
    root = grow(matrix, labels)
    assert root.is_leaf
    assert root.counts == (2, 2, 0)
    assert root.prediction == 0
    # and 1 beats 2 the same way
    root = grow(matrix, np.array([1, 1, 2, 2]))
    assert root.prediction == 1


def test_empty_case_set_rejected():
    with pytest.raises(ValidationError):
        grow(np.zeros((0, 3), dtype=bool), np.array([], dtype=int))


@pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 1.0], ["0", "1"]])
def test_non_integer_labels_rejected(labels):
    with pytest.raises(ValidationError, match="integers"):
        grow(np.eye(2, 3, dtype=bool), np.array(labels))


def test_random_trees_match_reference():
    rng = np.random.default_rng(16)
    for _ in range(150):
        tree, expected = assert_matches_reference(*random_inputs(rng))
        for alpha in (0.0, 0.01, 0.05, 0.2):
            assert prune_tree(tree, alpha) == reference_prune(expected, alpha), alpha


def test_exact_comparison_picks_among_close_leaders(monkeypatch):
    # float scores this close are rare, so widen the shortlist: most nodes
    # then choose their split by the exact comparison alone
    monkeypatch.setattr(emprob.tree, "_REL", 0.5)
    rng = np.random.default_rng(17)
    for _ in range(60):
        assert_matches_reference(*random_inputs(rng))


def test_tree_on_more_cases_than_int64_cross_products_allow():
    # num * best_den grows like n^5 / 16 and passes 2^63 near 10,800 cases
    rng = np.random.default_rng(12288)
    matrix = rng.random((12288, 8)) < rng.uniform(0.2, 0.8, 8)
    labels = (matrix[:, :3].sum(axis=1) + (rng.random(12288) < 0.3)) % 3
    tree, expected = assert_matches_reference(matrix, labels)
    assert node_count(tree) == 495
    for alpha in (0.0, 0.001, 0.01):
        assert prune_tree(tree, alpha) == reference_prune(expected, alpha), alpha


@pytest.mark.parametrize("matrix, labels", [
    (np.zeros((5, 0), dtype=bool), np.array([0, 1, 2, 2, 1])),  # no answer to test
    (np.array([[1, 0, 1]], dtype=bool), np.array([2])),  # one case
])
def test_degenerate_inputs_give_one_leaf(matrix, labels):
    tree, _ = assert_matches_reference(matrix, labels)
    assert tree.is_leaf and tree.counts == tuple(np.bincount(labels, minlength=3))


def test_split_requires_strict_improvement():
    # a useless feature must not be used even though a split is possible
    matrix = np.array([[1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
    labels = np.array([0, 0, 1, 1])
    root = grow(matrix, labels)
    assert root.is_leaf


def test_full_tree_shape_and_root(tree_full):
    assert node_count(tree_full) == 679
    assert leaf_count(tree_full) == 340
    assert tree_depth(tree_full) == 14
    assert tree_full.split_answer_id == "a_1_q3"
    assert tree_full.counts == (508, 530, 498)


def test_root_gain_is_maximal(case_set, score_table, tree_full):
    labels = np.asarray(score_table.category, dtype=int)
    gains = []
    parent_gini = 1.0 - ((np.bincount(labels, minlength=3) / 1536.0) ** 2).sum()
    for j in range(case_set.matrix.shape[1]):
        child = _weighted_child_gini(case_set.matrix, labels, j)
        gains.append(-np.inf if child is None else parent_gini - child)
    assert int(np.argmax(gains)) == case_set.answer_ids.index(tree_full.split_answer_id)
    children = (tree_full.true_child, tree_full.false_child)
    weighted = sum(c.n_samples * gini(c.counts) for c in children) / tree_full.n_samples
    gain = gini(tree_full.counts) - weighted
    assert gain == pytest.approx(max(gains), rel=1e-12)
    assert gain == pytest.approx(0.08480877346462679, rel=1e-12)


def test_counts_partition(tree_full):
    for node in iter_nodes(tree_full):
        if not node.is_leaf:
            combined = tuple(
                a + b for a, b in zip(node.true_child.counts, node.false_child.counts)
            )
            assert combined == node.counts


def test_iter_nodes_preorder(tree_full):
    nodes = list(iter_nodes(tree_full))
    assert nodes[0] is tree_full
    assert nodes[1] is tree_full.true_child


def test_predict_reproduces_training_labels(tree_full, case_set, score_table):
    labels = np.asarray(score_table.category, dtype=int)
    predicted = [predict(tree_full, row, case_set.answer_ids) for row in case_set.matrix]
    assert_array_equal(predicted, labels)


def test_prune_alpha_zero_is_identity(tree_full):
    pruned = prune_tree(tree_full, 0.0)
    assert node_count(pruned) == node_count(tree_full)
    assert [n.split_answer_id for n in iter_nodes(pruned)] == [
        n.split_answer_id for n in iter_nodes(tree_full)
    ]


def test_prune_alpha_infinite_collapses_to_root_leaf(tree_full):
    pruned = prune_tree(tree_full, 1e9)
    assert pruned.is_leaf
    assert pruned.counts == (508, 530, 498)
    assert pruned.prediction == 1  # MEDIUM is the global majority


def test_prune_rejects_negative_alpha(tree_full):
    for alpha in (-0.01, float("nan")):
        with pytest.raises(ValidationError):
            prune_tree(tree_full, alpha)


def test_prune_monotone_and_preserves_root(tree_full):
    before = node_count(tree_full)
    sizes = []
    for alpha in (0.0, 0.001, 0.005, 0.01, 0.02, 0.05):
        pruned = prune_tree(tree_full, alpha)
        sizes.append(leaf_count(pruned))
        if not pruned.is_leaf:
            assert pruned.split_answer_id == "a_1_q3"
    assert sizes == sorted(sizes, reverse=True)
    assert node_count(tree_full) == before  # input tree untouched
    pruned = prune_tree(tree_full, 0.01)
    assert (node_count(pruned), leaf_count(pruned), tree_depth(pruned)) == (25, 13, 5)


PRUNED_SIZES = {  # alpha -> (nodes, leaves) of the pruned default tree
    0.001: (117, 59), 0.002: (73, 37), 0.005: (37, 19),
    0.01: (25, 13), 0.02: (11, 6), 0.05: (5, 3),
}


def test_prune_default_tree_sizes(tree_full):
    before = tree_to_dot(tree_full)
    for alpha, sizes in PRUNED_SIZES.items():
        pruned = prune_tree(tree_full, alpha)
        assert (node_count(pruned), leaf_count(pruned)) == sizes, alpha
    assert tree_to_dot(tree_full) == before  # no node of the input changed


def test_prune_default_tree_matches_reference(tree_full):
    strengths = sorted({g for _, g in link_strengths(tree_full)})
    sample = [strengths[i] for i in np.linspace(0, len(strengths) - 1, 40).round().astype(int)]
    assert len(set(sample)) == 40
    for alpha in [*PRUNED_SIZES, *map(float, sample)]:
        expected = tree_to_dot(reference_prune(tree_full, alpha))
        assert tree_to_dot(prune_tree(tree_full, alpha)) == expected, alpha


def test_prune_keeps_a_subtree_whose_link_strength_equals_alpha():
    # 16 cases, so the link strengths 1/8 (the f1 split under f0) and 1/4
    # (the root, once that split is gone) equal a float alpha exactly
    matrix = np.zeros((16, 2), dtype=bool)
    matrix[:8, 0] = True
    matrix[:6, 1] = matrix[8:10, 1] = True
    labels = np.array([2] * 6 + [0] * 10)
    root = grow(matrix, labels, ("f0", "f1"))
    assert node_count(root) == 5
    assert sorted(g for _, g in link_strengths(root)) == [Fraction(1, 8), Fraction(3, 16)]
    for alpha, nodes in ((0.125, 5), (np.nextafter(0.125, 1.0), 3), (0.25, 3),
                         (np.nextafter(0.25, 1.0), 1)):
        pruned = prune_tree(root, alpha)
        assert node_count(pruned) == nodes, alpha
        assert pruned == reference_prune(root, alpha), alpha
