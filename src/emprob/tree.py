"""Gini decision tree over answer indicators.

Splits are binary tests "answer present / absent".  Split selection and
pruning avoid float comparisons: candidate splits are ranked by the exact
rational form of the weighted Gini criterion (integer cross-multiplication),
and cost-complexity pruning uses Fractions.  Ties between equally good
splits resolve to the lowest answer index in questionnaire order, and label
ties inside a node resolve to the lowest category, so rebuilding the tree on
the same inputs is deterministic down to the last node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from emprob.cases import CaseSet
from emprob.schema import ValidationError

# labels are categories LOW, MEDIUM, HIGH
_N_LABELS = 3


@dataclass
class TreeNode:
    """One node; a leaf when split_answer_index is None."""

    counts: tuple[int, ...]
    prediction: int
    impurity: float
    depth: int
    split_answer_index: int | None = None
    split_answer_id: str | None = None
    gain: float | None = None
    true_child: "TreeNode | None" = None
    false_child: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split_answer_index is None

    @property
    def n_samples(self) -> int:
        return sum(self.counts)

    @property
    def percentages(self) -> tuple[float, ...]:
        """Per-category share of this node's cases, in percent."""
        n = self.n_samples
        return tuple(100.0 * c / n for c in self.counts)


def _gini(counts: Sequence[int]) -> float:
    n = sum(counts)
    if n == 0:
        return 0.0
    return 1.0 - sum((c / n) ** 2 for c in counts)


def _majority(counts: Sequence[int]) -> int:
    # first maximum wins, preferring the lowest category on ties
    best = 0
    for k, c in enumerate(counts):
        if c > counts[best]:
            best = k
    return best


def fit_decision_tree(cases: CaseSet, categories: np.ndarray) -> TreeNode:
    """Grow a full binary Gini tree explaining per-case categories (values
    in [0, 3)) by the answer indicators of ``cases.matrix``, whose columns
    ``cases.answer_ids`` name the splits.

    A node splits only when some partition into two non-empty children
    strictly lowers the weighted Gini impurity, compared in exact rational
    arithmetic; growth stops at nodes that are pure or unsplittable.
    """
    matrix = np.asarray(cases.matrix, dtype=bool)
    labels = np.asarray(categories)
    answer_ids = tuple(cases.answer_ids)
    if matrix.ndim != 2 or matrix.shape[1] != len(answer_ids):
        raise ValidationError("matrix shape does not match answer ids")
    if labels.shape != (matrix.shape[0],):
        raise ValidationError("labels length does not match matrix rows")
    if matrix.shape[0] == 0:
        raise ValidationError("cannot build a tree from zero cases")
    if labels.min() < 0 or labels.max() >= _N_LABELS:
        raise ValidationError(f"labels must lie in [0, {_N_LABELS})")

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        node_counts = tuple(int(c) for c in np.bincount(labels[idx], minlength=_N_LABELS))
        node = TreeNode(
            counts=node_counts,
            prediction=_majority(node_counts),
            impurity=_gini(node_counts),
            depth=depth,
        )
        n = int(idx.size)
        parent_sq = sum(c * c for c in node_counts)
        if max(node_counts) == n:  # pure
            return node

        # S(split) = sum(cL^2)/nL + sum(cR^2)/nR as an exact fraction;
        # maximizing S minimizes weighted child impurity
        best_num = parent_sq  # S(no split) = parent_sq / n
        best_den = n
        best_j = None
        best_left: tuple[int, ...] | None = None
        for j in range(len(answer_ids)):
            col = matrix[idx, j]
            n_left = int(col.sum())
            if not 0 < n_left < n:
                continue
            left_counts = tuple(
                int(c) for c in np.bincount(labels[idx[col]], minlength=_N_LABELS)
            )
            right_counts = tuple(a - b for a, b in zip(node_counts, left_counts))
            n_right = n - n_left
            a_sq = sum(c * c for c in left_counts)
            b_sq = sum(c * c for c in right_counts)
            num = a_sq * n_right + b_sq * n_left
            den = n_left * n_right
            # strict improvement, first best j kept on ties
            if num * best_den > best_num * den:
                best_num, best_den, best_j, best_left = num, den, j, left_counts
        if best_j is None:
            return node

        col = matrix[idx, best_j]
        true_idx = idx[col]
        false_idx = idx[~col]
        node.split_answer_index = best_j
        node.split_answer_id = answer_ids[best_j]
        true_child = grow(true_idx, depth + 1)
        false_child = grow(false_idx, depth + 1)
        node.true_child = true_child
        node.false_child = false_child
        node.gain = node.impurity - (
            true_idx.size * true_child.impurity + false_idx.size * false_child.impurity
        ) / n
        return node

    return grow(np.arange(matrix.shape[0]), 0)


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Preorder traversal."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.false_child)  # type: ignore[arg-type]
            stack.append(node.true_child)  # type: ignore[arg-type]


def leaf_count(root: TreeNode) -> int:
    return sum(1 for n in iter_nodes(root) if n.is_leaf)


def node_count(root: TreeNode) -> int:
    return sum(1 for _ in iter_nodes(root))


def tree_depth(root: TreeNode) -> int:
    return max(n.depth for n in iter_nodes(root))


def _copy(node: TreeNode) -> TreeNode:
    if node.is_leaf:
        return replace(node)
    return replace(node, true_child=_copy(node.true_child), false_child=_copy(node.false_child))


def _links(root: TreeNode) -> list[tuple[TreeNode, Fraction]]:
    """Every internal node with its link strength g, from one post-order
    pass that sums each subtree's errors and leaves once."""
    links = []
    n_total = root.n_samples

    def walk(node: TreeNode) -> tuple[int, int]:  # (subtree error, leaves)
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


def prune_tree(root: TreeNode, alpha: float) -> TreeNode:
    """Minimal cost-complexity pruning.

    Repeatedly collapses every internal node whose link strength
    g(t) = (R_leaf(t) - R_subtree(t)) / (leaves(t) - 1), with errors
    normalized by the root's sample count, is the current minimum, while that
    minimum stays strictly below alpha.  alpha=0 returns an unchanged copy.
    The input tree is not modified.
    """
    if not alpha >= 0:  # also rejects NaN
        raise ValidationError(f"alpha must be nonnegative, got {alpha!r}")
    root = _copy(root)
    while not root.is_leaf:
        links = _links(root)
        g_min = min(g for _, g in links)
        if not g_min < alpha:
            break
        # a node inside a collapsed subtree is collapsed too, harmlessly:
        # it is a copy and no longer reachable
        for node, g in links:
            if g == g_min:
                node.split_answer_index = node.split_answer_id = node.gain = None
                node.true_child = node.false_child = None
    return root


def predict_matrix(root: TreeNode, matrix: np.ndarray) -> np.ndarray:
    """Classes for every row of an indicator matrix."""
    matrix = np.asarray(matrix, dtype=bool)
    out = np.empty(matrix.shape[0], dtype=int)
    for i in range(matrix.shape[0]):
        node = root
        while not node.is_leaf:
            node = node.true_child if matrix[i, node.split_answer_index] else node.false_child
        out[i] = node.prediction
    return out
