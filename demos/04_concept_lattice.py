"""
Formal concept analysis of a probability band
==============================================

Which answer patterns characterize the least-probable cases? Restricting
the score table to one probability band gives a formal context (cases x
answers); a top-down neighbour walk, one lattice level at a time, finds
its concepts and the covering relation that forms the lattice. Attribute
supports summarize the band in one table.
"""

from pathlib import Path

from emprob import (
    KernelDensityEstimate,
    build_band_context,
    build_lattice,
    context_to_cxt,
    default_questionnaire,
    default_weight_matrix,
    elicit_probabilities,
    em_fit,
    enumerate_cases,
    lattice_to_dot,
    mean_weights,
    supports_to_csv,
    weight_sum_table,
)

questionnaire = default_questionnaire()
table = weight_sum_table(
    enumerate_cases(questionnaire), mean_weights(default_weight_matrix())
)
gmm, _ = em_fit(table.normalized, 2)
kde = KernelDensityEstimate.from_data(table.normalized)
scores = elicit_probabilities(table, gmm, kde)

# the lowest band: cases whose mixture-CDF score falls in [0, 0.1)
ctx = build_band_context(scores, (0.0, 0.1), approach=1)
print(f"band [0, 0.1): {ctx.n_objects} cases, {ctx.n_attributes} answers")

# derivation reads the incidence (cases x answers): the cases having every
# answer of a set are the rows whose columns for that set are all true
col = {answer: j for j, answer in enumerate(ctx.attributes)}
no_outdoor = ctx.incidence[:, col["a_2_q6"]]
both = no_outdoor & ctx.incidence[:, col["a_2_q4"]]
print(f"cases without outdoor activity: {no_outdoor.sum()}")
print(f"... that also saw no tick bite: {both.sum()}")
print(f"support a_2_q6: {ctx.incidence.sum(axis=0)[col['a_2_q6']]}")

# every concept is a maximal rectangle of the incidence: a case set and
# the exact attribute set those cases share, row k of lattice.extent_bits
# (packed) and of lattice.intents
lattice = build_lattice(ctx)
print(f"concepts: {len(lattice.intents)}, covering edges: {len(lattice.covers)}")
n_cases, n_answers = lattice.extent_sizes, lattice.intents.sum(axis=1)
widest = int((n_cases * n_answers).argmax())
answers = tuple(a for a, has in zip(ctx.attributes, lattice.intents[widest]) if has)
print(f"largest rectangle: {n_cases[widest]} cases x {n_answers[widest]} answers {answers}")

# three artifacts per band: a Burmeister context for FCA tools, a DOT
# lattice diagram, and the single/pair support counts
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
(out / "band_0_0.1.cxt").write_text(context_to_cxt(ctx), encoding="utf-8")
(out / "lattice_0_0.1.dot").write_text(lattice_to_dot(lattice), encoding="utf-8")
(out / "supports_0_0.1.csv").write_text(supports_to_csv(ctx), encoding="utf-8")
for name in ("band_0_0.1.cxt", "lattice_0_0.1.dot", "supports_0_0.1.csv"):
    print(f"wrote {out / name}")
