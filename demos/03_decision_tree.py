"""
Explaining the categories with a decision tree
==============================================

The score table labels every case LOW, MEDIUM, or HIGH. A Gini-impurity
tree over the answer indicators explains those labels; cost-complexity
pruning shrinks it to the load-bearing splits, and both versions export
to DOT.
"""

from pathlib import Path

from emprob import (
    KernelDensityEstimate,
    default_questionnaire,
    default_weight_matrix,
    elicit_probabilities,
    em_fit,
    enumerate_cases,
    fit_decision_tree,
    iter_nodes,
    leaf_count,
    mean_weights,
    node_count,
    prune_tree,
    tree_depth,
    tree_to_dot,
    weight_sum_table,
)

questionnaire = default_questionnaire()
cases = enumerate_cases(questionnaire)
table = weight_sum_table(cases, mean_weights(default_weight_matrix()))
gmm, _ = em_fit(table.normalized, 2)
kde = KernelDensityEstimate.from_data(table.normalized)
scores = elicit_probabilities(table, gmm, kde)

# grow the full tree: at every node, the answer whose presence/absence
# split lowers weighted Gini impurity the most
tree = fit_decision_tree(cases, scores.category)
print(
    f"full tree: {node_count(tree)} nodes, {leaf_count(tree)} leaves, "
    f"depth {tree_depth(tree)}"
)

# the root picks the single most informative answer; its yes-branch
# majority is HIGH, though not every yes-case is HIGH
root_question = questionnaire.question_of_answer(tree.split_answer_id)
print(f"root split: {tree.split_answer_id} ({root_question.label})")
yes = tree.true_child
print(
    f"yes branch: {yes.n_samples} cases, counts LOW/MEDIUM/HIGH = "
    f"{yes.counts[0]}/{yes.counts[1]}/{yes.counts[2]}"
)

# pruning trades training accuracy for readability: collapse every subtree
# whose impurity gain per pruned leaf falls below alpha
for alpha in (0.002, 0.01, 0.05):
    pruned = prune_tree(tree, alpha)
    print(
        f"alpha={alpha:<6}: {node_count(pruned)} nodes, "
        f"{leaf_count(pruned)} leaves, depth {tree_depth(pruned)}"
    )

# the pruned tree reads as a handful of if/else rules; DOT renders both
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
(out / "tree_full.dot").write_text(tree_to_dot(tree), encoding="utf-8")
(out / "tree_pruned.dot").write_text(tree_to_dot(prune_tree(tree, 0.01)), encoding="utf-8")
print(f"\nwrote {out / 'tree_full.dot'}")
print(f"wrote {out / 'tree_pruned.dot'}")

# each case walks the answer tests from the root to a leaf, which predicts
# its majority category, so the training agreement is the leaves' majority
# counts over all cases: the full tree reproduces the labels exactly
agree = sum(max(n.counts) for n in iter_nodes(tree) if n.is_leaf) / tree.n_samples
print(f"training-label agreement of the full tree: {agree:.3f}")
