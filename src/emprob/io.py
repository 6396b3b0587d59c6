"""Rendering: Burmeister contexts, DOT diagrams and CSV tables as text.

Every renderer returns a string and writes nothing; ``emprob.pipeline``
writes the files.  The text is deterministic: fixed column orders, no
timestamps, floats rendered with 17 significant digits so values round-trip
exactly and re-running a pipeline reproduces files byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from emprob.fca import ConceptLattice, FormalContext
from emprob.schema import ValidationError
from emprob.scoring import COLUMNS, ProbabilityCategory, ScoreTable, approach_scores
from emprob.tree import TreeNode, iter_nodes

CATEGORY_NAMES = tuple(c.name for c in ProbabilityCategory)


def context_to_cxt(context: FormalContext) -> str:
    """Render a formal context in Burmeister format.

    Layout: a ``B`` line, a blank line, the object and attribute counts, a
    blank line, one line per object name, one per attribute name, then one
    incidence row per object using ``X`` and ``.``.
    """
    for name in (*context.objects, *context.attributes):
        if "\n" in name or "\r" in name:
            raise ValidationError(f"name contains a newline: {name!r}")
    lines = ["B", "", str(context.n_objects), str(context.n_attributes), ""]
    lines.extend(context.objects)
    lines.extend(context.attributes)
    # one row of X and . per object, each ended by a newline
    block = np.full((context.n_objects, context.n_attributes + 1), ord("\n"), np.uint8)
    block[:, :-1] = np.where(context.incidence, np.uint8(ord("X")), np.uint8(ord(".")))
    return "\n".join(lines) + "\n" + block.tobytes().decode("ascii")


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(parts: Sequence[str]) -> str:
    # \n inside a quoted DOT string is a line break in the rendered label.
    return '"' + "\\n".join(_dot_escape(p) for p in parts) + '"'


def tree_to_dot(root: TreeNode) -> str:
    """Render a decision tree as a DOT digraph.

    Every node shows its majority category with that category's percentage
    and case count, plus the per-category counts; internal nodes lead with
    the tested answer.  Edges are labeled yes (answer present) and no.
    Nodes are numbered in ``iter_nodes`` order.
    """
    nodes = list(iter_nodes(root))
    number = {id(node): k for k, node in enumerate(nodes)}
    lines = ["digraph decision_tree {", "  node [shape=box];"]
    edges: list[str] = []
    for k, node in enumerate(nodes):
        n, c = node.n_samples, max(node.counts)
        majority = f"{CATEGORY_NAMES[node.prediction]} {100.0 * c / n:.1f}% ({c} of {n})"
        counts = "counts " + "/".join(str(c) for c in node.counts)
        if node.is_leaf:
            label = _dot_label([majority, counts])
            lines.append(f"  n{k} [label={label}, style=filled, fillcolor=lightgrey];")
        else:
            label = _dot_label([f"{node.split_answer_id}?", majority, counts])
            lines.append(f"  n{k} [label={label}];")
            edges += [f"  n{k} -> n{number[id(node.true_child)]} [label=yes];",
                      f"  n{k} -> n{number[id(node.false_child)]} [label=no];"]
    return "\n".join([*lines, *edges, "}"]) + "\n"


def lattice_to_dot(lattice: ConceptLattice) -> str:
    """Render a concept lattice as a DOT digraph, edges pointing from super-
    to sub-concept.

    Each node shows the attributes introduced at that concept (those in its
    intent but in no upper neighbor's intent) and its extent size.  An
    attribute a is introduced at exactly one concept, its attribute concept,
    whose extent a' is the largest of all concepts whose intent holds a, so
    the labels come from one argmax over the extent sizes; the edges are
    the rows of ``lattice.covers``.
    """
    sizes = lattice.extent_sizes
    home = np.where(lattice.intents, sizes[:, None], -1).argmax(axis=0).tolist()
    ids = list(map(str, range(len(sizes))))
    nodes = [f'  c{k} [label="|extent| = {n}"];' for k, n in zip(ids, sizes.tolist())]
    introduced: dict[int, list[str]] = {}
    for name, k in zip(lattice.context.attributes, home):
        introduced.setdefault(k, []).append(name)
    for k, names in introduced.items():
        label = _dot_label([", ".join(names), f"|extent| = {sizes[k]}"])
        nodes[k] = f"  c{k} [label={label}];"
    # an edge line is its upper node's head and its lower node's tail
    head = np.array([f"  c{k} -> " for k in ids], dtype=object)
    tail = np.array([f"c{k};\n" for k in ids], dtype=object)
    edges = np.stack([head[lattice.covers[:, 1]], tail[lattice.covers[:, 0]]], axis=1)
    lines = ["digraph concept_lattice {", "  node [shape=ellipse];", *nodes, ""]
    return "\n".join(lines) + "".join(edges.ravel().tolist()) + "}\n"


def scores_to_csv(table: ScoreTable) -> str:
    """Render one row per case: case_id, answer indicators (0/1), the
    ``COLUMNS`` (raw and normalized sums, the three scores), and the
    category."""
    header = ["case_id", *table.case_set.answer_ids, *COLUMNS, "category"]
    width = 2 * len(table.case_set.answer_ids)
    # each row's indicator cells, "0," or "1," per answer
    cells = np.full((len(table), width), ord(","), np.uint8)
    cells[:, ::2] = np.where(table.case_set.matrix, np.uint8(ord("1")), np.uint8(ord("0")))
    indicators = cells.tobytes().decode("ascii")
    scores = np.column_stack([table.sums.raw_sums, table.sums.normalized, table.score_gmm_cdf,
                              table.score_kde_cdf, table.score_posterior]).tolist()
    row = "%d,%s" + ",".join(["%.17g"] * len(COLUMNS)) + ",%s\n"
    return ",".join(header) + "\n" + "".join(
        row % (i, indicators[i * width : (i + 1) * width], *values, CATEGORY_NAMES[k])
        for i, (values, k) in enumerate(zip(scores, table.category.tolist()))
    )


def density_samples_to_csv(gmm, kde) -> str:
    """Tabulate the fitted curves on an even 1001-point grid over [0, 1]:
    mixture pdf, each weighted component pdf, kernel pdf, and the three score
    curves."""
    xs = np.linspace(0.0, 1.0, 1001)
    scores = approach_scores(gmm, kde, xs)
    names = ["x", "gmm_pdf", *(f"component_{k + 1}_pdf" for k in range(gmm.n_components)),
             "kde_pdf", *COLUMNS[-len(scores):]]
    rows = np.column_stack([xs, gmm.pdf(xs), gmm.component_pdfs(xs), kde.pdf(xs), *scores])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    return ",".join(names) + "\n" + "".join(row % tuple(values) for values in rows.tolist())


def supports_to_csv(context: FormalContext) -> str:
    """Support counts of every single attribute and every attribute pair."""
    inc = context.incidence.astype(np.int64)
    counts = inc.T @ inc  # counts[i, j]: objects having attributes i and j
    atts = context.attributes
    lines = ["attributes,support"] + [f"{a},{counts[i, i]}" for i, a in enumerate(atts)]
    for i in range(len(atts)):
        for j in range(i + 1, len(atts)):
            lines.append(f"{atts[i]};{atts[j]},{counts[i, j]}")
    return "\n".join(lines) + "\n"
