import dataclasses
import json
import re

import numpy as np
import pytest

from emprob import (
    FormalContext,
    PipelineConfig,
    ValidationError,
    build_lattice,
    export_cxt,
    export_density_samples_csv,
    export_scores_csv,
    export_supports_csv,
    fit_decision_tree,
    lattice_to_dot,
    prepare,
    tree_to_dot,
    write_json,
)
from reference_data import (
    SCORE_FIELDS,
    edge_case_contexts,
    random_context,
    read_cxt,
    read_scores_csv,
    write_scores_rows,
    write_unmerged_inputs,
)

DIAGONAL = FormalContext(
    objects=("case_a", "case_b"),
    attributes=("y1", "y2"),
    incidence=np.eye(2, dtype=bool),
)


def test_format_float_round_trips():
    """The writers render floats with the %.17g row template, which
    round-trips any float64."""
    rng = np.random.default_rng(3)
    values = [0.0, 1.0, -1.5, 7.2, 1e-300, 5e-324, 1e300, np.pi, 1 / 3]
    values.extend(rng.standard_normal(50))
    row = ",".join(["%.17g"] * len(values)) + "\n"
    cells = (row % tuple(values)).rstrip("\n").split(",")
    assert [float(c) for c in cells] == [float(v) for v in values]
    assert "%.17g" % 7.2 == "7.2000000000000002"


def test_export_cxt_layout(tmp_path):
    path = tmp_path / "ctx.cxt"
    export_cxt(DIAGONAL, path)
    assert path.read_text() == (
        "B\n\n2\n2\n\ncase_a\ncase_b\ny1\ny2\nX.\n.X\n"
    )


def test_cxt_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    contexts = []
    for _ in range(5):
        n_obj = int(rng.integers(1, 9))
        n_att = int(rng.integers(1, 9))
        contexts.append(FormalContext(
            objects=tuple(f"o{i}" for i in range(n_obj)),
            attributes=tuple(f"y{j}" for j in range(n_att)),
            incidence=rng.random((n_obj, n_att)) < 0.5,
        ))
    # a whitespace-only name is a line of its own, not a blank separator
    blank_name = FormalContext(
        objects=("o1", "o2"), attributes=("y1", " "),
        incidence=np.array([[1, 0], [1, 1]], dtype=bool),
    )
    for k, ctx in enumerate(contexts + edge_case_contexts() + [blank_name]):
        path = tmp_path / f"round_{k}.cxt"
        export_cxt(ctx, path)
        back = read_cxt(path)
        assert back.objects == ctx.objects
        assert back.attributes == ctx.attributes
        np.testing.assert_array_equal(back.incidence, ctx.incidence)


def test_export_cxt_rejects_newline_in_name(tmp_path):
    bad = FormalContext(
        objects=("one\ntwo",), attributes=("y",),
        incidence=np.ones((1, 1), dtype=bool),
    )
    with pytest.raises(ValidationError):
        export_cxt(bad, tmp_path / "bad.cxt")


def test_scores_csv_round_trip(score_table, tmp_path):
    path = tmp_path / "scores.csv"
    export_scores_csv(score_table, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1537
    parsed = read_scores_csv(path)
    assert parsed.case_ids == tuple(range(1536))
    assert parsed.answer_ids == score_table.answer_ids
    np.testing.assert_array_equal(parsed.matrix, score_table.case_set.matrix)
    for field in (*SCORE_FIELDS, "category"):
        np.testing.assert_array_equal(getattr(parsed, field), getattr(score_table, field))


def test_scores_csv_full_precision(score_table, tmp_path):
    path = tmp_path / "scores.csv"
    export_scores_csv(score_table, path)
    first = path.read_text().splitlines()[1]
    # raw sum of the all-first-answers case is 7.2; the cell must carry all
    # 17 significant digits, not a shortest-repr rendering
    assert ",7.2000000000000002," in first


def test_scores_csv_matches_the_row_writer(score_table, tmp_path):
    """Byte for byte the row-by-row reference writer's file: on the default
    table, on the table of the unmerged inputs merged back, and on raw sums
    that need every digit or print specially."""
    unmerged = prepare(PipelineConfig(**write_unmerged_inputs(tmp_path))).table
    raw = np.random.default_rng(19).standard_normal(len(score_table)) * 10.0
    raw[:6] = (-0.0, 5e-324, 1e-300, 1 / 3, 7.2, -1e16)
    special = dataclasses.replace(score_table, raw_sums=raw)
    for k, table in enumerate((score_table, unmerged, special)):
        export_scores_csv(table, tmp_path / f"scores_{k}.csv")
        write_scores_rows(table, tmp_path / f"rows_{k}.csv")
        written = (tmp_path / f"scores_{k}.csv", tmp_path / f"rows_{k}.csv")
        assert written[0].read_bytes() == written[1].read_bytes(), k


SCORES_HEADER = "case_id,a_1_q1,raw_sum,normalized_sum,p_gmm_cdf,p_kde_cdf,p_posterior,category\n"


@pytest.mark.parametrize("reader, text", [
    (read_cxt, "2\n2\n"),
    (read_cxt, "B\n\ntwo\n2\n\n"),
    (read_cxt, "B\n\n2\n2\n\no1\no2\ny1\ny2\nX.\n"),
    (read_cxt, "B\n\n1\n2\n\no1\ny1\ny2\nXQ\n"),
    (read_scores_csv, ""),
    (read_scores_csv, SCORES_HEADER + "0,1,0.5\n"),
    (read_scores_csv, SCORES_HEADER + "0,1,0.5,0.5,abc,0.5,0.5,LOW\n"),
    (read_scores_csv, SCORES_HEADER + "0,1,0.5,0.5,0.5,0.5,0.5,BOGUS\n"),
])
def test_reference_readers_fail_loudly(tmp_path, reader, text):
    """The round-trip oracles never read a file they cannot parse as
    something else."""
    path = tmp_path / "bad"
    path.write_text(text)
    with pytest.raises((AssertionError, ValueError)):
        reader(path)


def test_density_samples_csv(gmm, kde, tmp_path):
    path = tmp_path / "density.csv"
    export_density_samples_csv(gmm, kde, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("x,gmm_pdf,component_1_pdf,component_2_pdf,"
                        "kde_pdf,p_gmm_cdf,p_kde_cdf,p_posterior")
    assert len(lines) == 1002
    table = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    xs = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_array_equal(table[:, 0], xs)
    np.testing.assert_array_equal(table[:, 1], gmm.pdf(xs))
    np.testing.assert_allclose(table[:, 1], table[:, 2] + table[:, 3], rtol=1e-12)
    np.testing.assert_array_equal(table[:, 4], kde.pdf(xs))
    np.testing.assert_array_equal(table[:, 5], gmm.cdf(xs))
    np.testing.assert_array_equal(table[:, 6], kde.cdf(xs))
    k = int(np.argmax(gmm.means))
    np.testing.assert_array_equal(table[:, 7], gmm.posterior(xs, k))


def test_tree_dot_single_leaf(case_set):
    tree = fit_decision_tree(case_set, np.zeros(len(case_set), dtype=int))
    text = tree_to_dot(tree)
    assert text.startswith("digraph decision_tree {")
    assert text.count("[label=") == 1
    assert "->" not in text
    assert "LOW 100.0% (1536 of 1536)" in text
    assert "fillcolor=lightgrey" in text


def test_tree_dot_real_tree(tree_full):
    text = tree_to_dot(tree_full)
    # root line: tested answer, then majority and counts on DOT-escaped
    # newlines (single backslash in the file)
    assert '"a_1_q3?\\nMEDIUM 34.5% (530 of 1536)\\ncounts 508/530/498"' in text
    assert text.count("label=yes") == text.count("label=no")
    assert "\\\\n" not in text


def test_lattice_dot_diamond():
    lattice = build_lattice(DIAGONAL)
    text = lattice_to_dot(lattice)
    assert text.startswith("digraph concept_lattice {")
    assert text.count("[label=") == 4
    assert text.count("->") == 4
    assert '"|extent| = 2"' in text
    assert '"y1\\n|extent| = 1"' in text
    assert '"y2\\n|extent| = 1"' in text
    # the bottom concept inherits both attributes from its covers, so it
    # introduces none and shows only its extent size
    assert '"|extent| = 0"' in text


def introduced_by_definition(lattice):
    """Per concept, the attributes in its intent and in no upper cover's intent."""
    inherited = [set() for _ in lattice.concepts]
    for lower, upper in lattice.edges:
        inherited[lower].update(lattice.concepts[upper].intent)
    return [[a for a in c.intent if a not in inh]
            for c, inh in zip(lattice.concepts, inherited)]


def test_lattice_dot_labels_match_the_definition():
    rng = np.random.default_rng(67)
    contexts = [random_context(rng, max_side=10) for _ in range(40)]
    for ctx in contexts + edge_case_contexts():
        lattice = build_lattice(ctx)
        expected = []
        for c, introduced in zip(lattice.concepts, introduced_by_definition(lattice)):
            names = ", ".join(ctx.attributes[a] for a in introduced)
            size = f"|extent| = {len(c.extent)}"
            expected.append(f"{names}\\n{size}" if names else size)
        labels = re.findall(r'^  c\d+ \[label="(.*)"\];$', lattice_to_dot(lattice), re.M)
        assert labels == expected


def test_dot_escapes_quotes_in_names():
    ctx = FormalContext(
        objects=("o",), attributes=('say "hi"',),
        incidence=np.ones((1, 1), dtype=bool),
    )
    text = lattice_to_dot(build_lattice(ctx))
    assert '\\"hi\\"' in text


def test_supports_csv(tmp_path):
    ctx = FormalContext(
        objects=("o1", "o2", "o3"),
        attributes=("y1", "y2"),
        incidence=np.array([[1, 1], [0, 1], [0, 1]], dtype=bool),
    )
    path = tmp_path / "supports.csv"
    export_supports_csv(ctx, path)
    assert path.read_text() == (
        "attributes,support\ny1,1\ny2,3\ny1;y2,1\n"
    )


def test_write_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"zeta": 1, "alpha": {"b": [1, 2], "a": 0.5}}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": [1, 2], "a": 0.5}}
    write_json({"zeta": 1, "alpha": {"b": [1, 2], "a": 0.5}}, tmp_path / "doc2.json")
    assert (tmp_path / "doc2.json").read_bytes() == path.read_bytes()
