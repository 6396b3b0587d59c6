"""Gini decision tree over answer indicators.

Splits are binary tests "answer present / absent".  The tree grows one depth
at a time, as histogram tree learners do (Chen & Guestrin 2016, XGBoost):
one bincount gives every open node's child label counts for every answer.
Split selection stays exact: floats only shortlist a node's leaders by the
weighted Gini criterion, a ratio of integers, and close leaders are compared
by integer cross-multiplication.  Ties between equally good splits resolve
to the lowest answer index in questionnaire order, and label ties inside a
node to the lowest category, so rebuilding the tree on the same inputs is
deterministic down to the last node.  Pruning finds the optimally pruned
subtree T(alpha) in one exact bottom-up pass (Breiman, Friedman, Olshen &
Stone 1984, Classification and Regression Trees, ch. 3 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from emprob.cases import CaseSet
from emprob.schema import ValidationError
from emprob.scoring import real_bound

# labels are categories LOW, MEDIUM, HIGH
_N_LABELS = 3
# split scores within this relative distance of a node's best float score
# are compared exactly; float64 rounds each score by about 1e-16
_REL = 1e-12


# the generated eq and repr recurse into the children, which fails on a tree
# deeper than the recursion limit
@dataclass(eq=False, repr=False)
class TreeNode:
    """Label counts and depth; a split node also has the answer it tests and
    the children where that answer is present (true) and absent (false).

    Two trees are equal when their preorders (iter_nodes) hold the same
    counts, depths, split answers and leaves; repr shows one node and not
    its children.
    """

    counts: tuple[int, ...]
    depth: int
    split_answer_id: str | None = None
    true_child: "TreeNode | None" = None
    false_child: "TreeNode | None" = None

    @property
    def prediction(self) -> int:
        """The first maximum of the counts: the lowest category on ties."""
        return self.counts.index(max(self.counts))

    @property
    def is_leaf(self) -> bool:
        return self.true_child is None

    @property
    def n_samples(self) -> int:
        return sum(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNode):
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __repr__(self) -> str:
        return (f"TreeNode(counts={self.counts!r}, depth={self.depth!r}, "
                f"split_answer_id={self.split_answer_id!r})")


def _preorder(root: TreeNode) -> list[tuple]:
    return [(n.counts, n.depth, n.split_answer_id, n.is_leaf) for n in iter_nodes(root)]


def fit_decision_tree(cases: CaseSet, categories: np.ndarray) -> TreeNode:
    """Grow a full binary Gini tree explaining per-case categories (integers
    in [0, 3)) by the answer indicators of ``cases.matrix``, whose columns
    ``cases.answer_ids`` name the splits.

    A node splits only when some partition into two non-empty children
    strictly lowers the weighted Gini impurity, compared in exact rational
    arithmetic; growth stops at nodes that are pure or unsplittable.  All
    open nodes of one depth are split together.
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
    if labels.dtype.kind not in "biu":
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= _N_LABELS:
        raise ValidationError(f"labels must lie in [0, {_N_LABELS})")

    n_answers = len(answer_ids)
    labels = labels.astype(np.intp)
    root = TreeNode(tuple(np.bincount(labels, minlength=_N_LABELS).tolist()), 0)
    # the open nodes of one depth, each case's node as a position in it (-1
    # once closed), the cases still open, and the answers those cases have
    frontier = [root] if n_answers and max(root.counts) < root.n_samples else []
    position = np.zeros(labels.size, dtype=np.intp)
    live = np.arange(labels.size)
    has_case, has_answer = np.nonzero(matrix)
    while frontier:
        at = np.arange(len(frontier))
        counts = np.array([node.counts for node in frontier])
        sizes = counts.sum(axis=1)
        kept = position[has_case] >= 0
        has_case, has_answer = has_case[kept], has_answer[kept]
        # every node's true-child label counts for every answer at once
        slot = (position[has_case] * _N_LABELS + labels[has_case]) * n_answers + has_answer
        left = np.bincount(slot, minlength=counts.size * n_answers).reshape(*counts.shape, -1)
        right = counts[:, :, None] - left
        n_left = left.sum(axis=1)
        n_right = sizes[:, None] - n_left
        # S(split) = sum(cL^2)/nL + sum(cR^2)/nR = num/den; maximizing S
        # minimizes weighted child impurity
        num = (left * left).sum(axis=1) * n_right + (right * right).sum(axis=1) * n_left
        den = n_left * n_right
        score = np.divide(num, den, out=np.full(den.shape, -np.inf), where=den > 0)
        # floats only shortlist each node's leaders; leaders with the same
        # integers tie exactly, and the others are compared in Python ints
        near = (score >= score.max(axis=1, keepdims=True) * (1 - _REL)) & (den > 0)
        best = near.argmax(axis=1)
        rival = near & ((num != num[at, best, None]) | (den != den[at, best, None]))
        for k in np.flatnonzero(rival.any(axis=1)).tolist():
            for j in np.flatnonzero(near[k]).tolist():  # first best j kept on ties
                if int(num[k, j]) * int(den[k, best[k]]) > int(num[k, best[k]]) * int(den[k, j]):
                    best[k] = j
        # S(split) > S(no split) = sum(c^2)/n, strictly, unless both
        # children keep the node's label proportions
        true_counts = left[at, :, best]
        same = (true_counts * sizes[:, None] == counts * n_left[at, best, None]).all(axis=1)
        splits = near.any(axis=1) & ~same
        split = np.flatnonzero(splits)
        children = np.stack([true_counts, counts - true_counts], axis=1)[split]
        is_open = np.zeros((len(frontier), 2), dtype=bool)
        is_open[split] = children.max(axis=2) < children.sum(axis=2)
        next_frontier = []
        for k, j, (t_counts, f_counts), (t_open, f_open) in zip(
            split.tolist(), best[split].tolist(), children.tolist(), is_open[split].tolist()
        ):
            node = frontier[k]
            t, f = (TreeNode(tuple(c), node.depth + 1) for c in (t_counts, f_counts))
            node.split_answer_id, node.true_child, node.false_child = answer_ids[j], t, f
            next_frontier += [t] * t_open + [f] * f_open
        # each case of a split node moves to its child's place in the next
        # frontier, true child first
        renumber = np.full(2 * len(frontier), -1)
        renumber[is_open.ravel()] = np.arange(len(next_frontier))
        node_of = position[live]
        absent = ~matrix[live, best[node_of]]
        position[live] = np.where(splits[node_of], renumber[2 * node_of + absent], -1)
        live = live[position[live] >= 0]
        frontier = next_frontier
    return root


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Preorder, true child first: the order in which ``io.tree_to_dot``
    numbers the nodes."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += [node.false_child, node.true_child]


def leaf_count(root: TreeNode) -> int:
    return sum(1 for n in iter_nodes(root) if n.is_leaf)


def node_count(root: TreeNode) -> int:
    return sum(1 for _ in iter_nodes(root))


def tree_depth(root: TreeNode) -> int:
    return max(n.depth for n in iter_nodes(root))


def prune_tree(root: TreeNode, alpha: float) -> TreeNode:
    """Minimal cost-complexity pruning: the optimally pruned subtree T(alpha)
    (Breiman, Friedman, Olshen & Stone 1984, CART, ch. 3 and 10).

    One bottom-up pass keeps a split when its pruned subtree costs no more
    than the node as a leaf, R(subtree) + alpha * leaves <= R(leaf) + alpha,
    errors normalized by the root's sample count and compared exactly.  This
    is the tree weakest-link pruning reaches by collapsing the minimum link
    strength g(t) = (R_leaf(t) - R_subtree(t)) / (leaves(t) - 1) while it is
    strictly below alpha, so a subtree whose g ties alpha is kept.  alpha=0
    returns an unchanged copy; the input tree is not modified.
    """
    # every link strength is below 1, so any alpha from 1 up collapses every
    # split as 1 does; clamped to [-1, 1], an integer beyond any float converts
    try:
        capped = real_bound(max(min(alpha, 1), -1))
    except TypeError:
        raise ValidationError(f"alpha must be a real number, got {alpha!r}") from None
    if not capped >= 0:  # also rejects NaN
        raise ValidationError(f"alpha must be nonnegative, got {alpha!r}")
    p, q = capped.as_integer_ratio()  # the capped alpha = p / q exactly
    n_total = root.n_samples
    # reversed preorder reaches a node after both its subtrees, the false
    # subtree first, so a split node pops its true child's result off the top
    # of the stack and its false child's from under it
    stack: list[tuple[TreeNode, int, int]] = []  # (pruned subtree, errors, leaves)
    for node in reversed(list(iter_nodes(root))):
        error = node.n_samples - max(node.counts)
        if not node.is_leaf:
            (t, e_true, l_true), (f, e_false, l_false) = stack.pop(), stack.pop()
            sub_error, leaves = e_true + e_false, l_true + l_false
            if q * (error - sub_error) >= p * n_total * (leaves - 1):
                stack.append((replace(node, true_child=t, false_child=f), sub_error, leaves))
                continue
        stack.append((TreeNode(node.counts, node.depth), error, 1))
    return stack.pop()[0]
