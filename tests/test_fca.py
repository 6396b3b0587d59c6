import itertools
import tracemalloc

import numpy as np
import pytest

from emprob import (
    FormalContext,
    ValidationError,
    build_band_context,
    build_lattice,
    enumerate_concepts,
    supports_to_csv,
)
from emprob.pipeline import DEFAULT_BANDS
from reference_data import edge_case_contexts, extent, intent, names, random_context, support

DIAGONAL = FormalContext(
    objects=("o1", "o2"),
    attributes=("y1", "y2"),
    incidence=np.eye(2, dtype=bool),
)


def extent_rows(lattice):
    """The lattice's packed extents unpacked into 0/1 rows over the objects."""
    return np.unpackbits(lattice.extent_bits, axis=1, count=lattice.context.n_objects,
                         bitorder="little")


def brute_force_concepts(ctx):
    """All (extent, intent) position pairs via closure of every attribute
    subset."""
    found = set()
    for r in range(ctx.n_attributes + 1):
        for subset in itertools.combinations(range(ctx.n_attributes), r):
            ext = extent(ctx, subset)
            found.add((ext, intent(ctx, ext)))
    return found


def test_context_validation():
    with pytest.raises(ValidationError):
        FormalContext(objects=("o",), attributes=("y",), incidence=np.eye(2, dtype=bool))
    with pytest.raises(ValidationError):
        FormalContext(objects=("o", "o"), attributes=("y", "z"),
                      incidence=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValidationError, match="duplicate attribute names"):
        FormalContext(objects=("o", "p"), attributes=("y", "y"),
                      incidence=np.zeros((2, 2), dtype=bool))


def test_derive_both_sides():
    assert extent(DIAGONAL, ()) == (0, 1)
    assert extent(DIAGONAL, (0,)) == (0,)
    assert intent(DIAGONAL, (1,)) == (1,)
    assert intent(DIAGONAL, ()) == (0, 1)
    with pytest.raises(ValueError):
        support(DIAGONAL, "bogus")


def test_empty_extent_has_full_intent():
    assert extent(DIAGONAL, (0, 1)) == ()
    assert intent(DIAGONAL, ()) == (0, 1)


def test_galois_laws():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ctx = random_context(rng, max_side=6)
        objs = range(ctx.n_objects)
        a = tuple(o for o in objs if rng.random() < 0.5)
        b_extra = tuple(o for o in objs if o in a or rng.random() < 0.5)
        up = intent(ctx, a)
        down_up = extent(ctx, up)
        # extension: A subset of A''
        assert set(a) <= set(down_up)
        # antitone: A subset of B implies B' subset of A'
        assert set(intent(ctx, b_extra)) <= set(up)
        # idempotence of triple application
        assert intent(ctx, down_up) == up


def test_diagonal_concepts():
    concepts = enumerate_concepts(DIAGONAL)
    assert len(concepts) == 4
    pairs = {(names(DIAGONAL.objects, objs), names(DIAGONAL.attributes, attrs))
             for objs, attrs in concepts}
    assert pairs == {
        (("o1", "o2"), ()),
        (("o1",), ("y1",)),
        (("o2",), ("y2",)),
        ((), ("y1", "y2")),
    }


def test_full_incidence_single_concept():
    ctx = FormalContext(
        objects=("a", "b", "c"),
        attributes=("x", "y"),
        incidence=np.ones((3, 2), dtype=bool),
    )
    concepts = enumerate_concepts(ctx)
    assert len(concepts) == 1
    assert concepts[0] == ((0, 1, 2), (0, 1))


def test_enumeration_order_endpoints():
    rng = np.random.default_rng(47)
    for _ in range(10):
        ctx = random_context(rng, max_side=6)
        concepts = enumerate_concepts(ctx)
        assert concepts[0][0] == tuple(range(ctx.n_objects))
        assert concepts[-1][1] == tuple(range(ctx.n_attributes))


def test_lectic_order():
    rng = np.random.default_rng(53)
    for _ in range(10):
        ctx = random_context(rng, max_side=6)
        concepts = enumerate_concepts(ctx)
        for (_, a), (_, b) in zip(concepts, concepts[1:]):
            diff = set(a) ^ set(b)
            assert min(diff) in b  # lectic successor property


def test_concepts_match_brute_force():
    rng = np.random.default_rng(59)
    for _ in range(15):
        ctx = random_context(rng, max_side=6)
        concepts = enumerate_concepts(ctx)
        got = set(concepts)
        assert got == brute_force_concepts(ctx)
        assert len(concepts) == len(got)  # no duplicates


def test_single_concept_lattice_has_no_edges():
    ctx = FormalContext(
        objects=("a",), attributes=("x",), incidence=np.ones((1, 1), dtype=bool)
    )
    lattice = build_lattice(ctx)
    assert len(lattice.concepts) == 1
    assert lattice.edges == ()
    assert lattice.concepts[0] == lattice.concepts[-1] == ((0,), (0,))


def test_chain_of_nested_extents():
    ctx = FormalContext(
        objects=("o1", "o2", "o3"),
        attributes=("y1", "y2"),
        incidence=np.array([[1, 1], [0, 1], [0, 0]], dtype=bool),
    )
    lattice = build_lattice(ctx)
    assert len(lattice.concepts) == 3
    assert len(lattice.edges) == 2


def test_diamond_lattice():
    lattice = build_lattice(DIAGONAL)
    assert len(lattice.concepts) == 4
    assert len(lattice.edges) == 4
    assert lattice.concepts[0] == ((0, 1), ())  # the top
    assert lattice.concepts[-1] == ((), (0, 1))  # the bottom


def test_edges_are_transitive_reduction():
    rng = np.random.default_rng(61)
    contexts = [random_context(rng, max_side=10) for _ in range(40)]
    for ctx in contexts + edge_case_contexts():
        lattice = build_lattice(ctx)
        concepts = lattice.concepts
        # lectic order: intents compared as bit vectors, attribute 0 first
        vectors = [tuple(a in attrs for a in range(ctx.n_attributes)) for _, attrs in concepts]
        assert vectors == sorted(vectors)
        assert concepts[0][0] == tuple(range(ctx.n_objects))  # the top
        assert concepts[-1][1] == tuple(range(ctx.n_attributes))  # the bottom
        extents = [frozenset(objs) for objs, _ in concepts]
        proper = {
            (i, j)
            for i in range(len(concepts))
            for j in range(len(concepts))
            if i != j and extents[i] < extents[j]
        }
        covers = {
            (i, j)
            for i, j in proper
            if not any((i, k) in proper and (k, j) in proper for k in range(len(concepts)))
        }
        assert set(lattice.edges) == covers


def test_enumerate_concepts_is_the_lattice_concepts():
    rng = np.random.default_rng(71)
    contexts = [random_context(rng, max_side=10) for _ in range(40)]
    for ctx in contexts + edge_case_contexts():
        assert enumerate_concepts(ctx) == build_lattice(ctx).concepts


def test_band_context_full_range(score_table):
    ctx = build_band_context(score_table, (0.0, 1.0))
    assert ctx.n_objects == 1536
    assert ctx.attributes == score_table.case_set.answer_ids


def test_band_context_reference_counts(reference_score_table):
    ctx = build_band_context(reference_score_table, (0.0, 0.1))
    assert ctx.n_objects == 162
    assert support(ctx, "a_2_q6") == 145
    assert support(ctx, "a_2_q4", "a_2_q6") == 128
    rows = supports_to_csv(ctx).splitlines()
    assert {"a_2_q6,145", "a_2_q4;a_2_q6,128"} <= set(rows)


def test_band_context_brute_force_complement(score_table):
    s = score_table.score_gmm_cdf
    ctx = build_band_context(score_table, (0.9, 1.0))
    assert ctx.n_objects == ((s >= 0.9) & (s <= 1.0)).sum()
    inner = build_band_context(score_table, (0.9, 0.999999))
    assert inner.n_objects == ((s >= 0.9) & (s < 0.999999)).sum()


def test_band_context_object_names_are_canonical_indices(score_table, case_set):
    ctx = build_band_context(score_table, (0.0, 0.1))
    for name, row in zip(ctx.objects, ctx.incidence):
        i = int(name[1:])
        np.testing.assert_array_equal(row, case_set.matrix[i])


def test_band_context_empty_band(score_table):
    # no approach-1 score sits below the minimum score
    lo = float(score_table.score_gmm_cdf.min())
    if lo > 0:
        ctx = build_band_context(score_table, (0.0, lo / 2))
        assert ctx.n_objects == 0
        concepts = enumerate_concepts(ctx)
        assert len(concepts) == 1
        assert concepts[0][1] == tuple(range(ctx.n_attributes))


def test_band_context_rejects_bad_bands(score_table):
    # a bound is a real number, and a bool or a numeric string is none
    for band in ((-0.1, 0.5), (0.5, 1.1), (0.5, 0.5), (0.7, 0.2), ("0", "0.5"), (False, True)):
        with pytest.raises(ValidationError):
            build_band_context(score_table, band)


def reference_lattice(ctx):
    """Intents (lectic order), extents and sorted (lower, upper) covers of
    a context, by definition: the intents are the intersections of object
    intents plus the full attribute set, and the covers are the transitive
    reduction of proper extent inclusion."""
    m = ctx.n_attributes
    found = {frozenset(range(m))}
    for row in ctx.incidence:
        g = frozenset(np.flatnonzero(row).tolist())
        found |= {g & b for b in found}
    intents = np.array(sorted(tuple(a in b for a in range(m)) for b in found), dtype=bool)
    extents = (ctx.incidence[None] | ~intents[:, None]).all(axis=2)
    below = (extents[:, None] <= extents[None]).all(axis=2) & ~np.eye(len(found), dtype=bool)
    step = below.astype(np.int64)
    covers = np.argwhere(below & (step @ step == 0))
    return intents, extents, covers


def test_identity_context_wider_than_a_word():
    n = 70
    ctx = FormalContext(
        objects=tuple(f"o{i}" for i in range(n)),
        attributes=tuple(f"y{j}" for j in range(n)),
        incidence=np.eye(n, dtype=bool),
    )
    lattice = build_lattice(ctx)
    # top, one concept per object, bottom; each object concept covers the
    # bottom and is covered by the top
    assert len(lattice.concepts) == 72
    assert len(lattice.edges) == 140
    assert lattice.concepts[0][0] == tuple(range(n))  # the top
    assert lattice.concepts[-1][1] == tuple(range(n))  # the bottom


def test_wide_sparse_contexts_match_the_definition():
    rng = np.random.default_rng(73)
    for n_obj, n_att, density in ((65, 70, 0.05), (130, 66, 0.04), (100, 129, 0.03)):
        ctx = FormalContext(
            objects=tuple(f"o{i}" for i in range(n_obj)),
            attributes=tuple(f"y{j}" for j in range(n_att)),
            incidence=rng.random((n_obj, n_att)) < density,
        )
        intents, extents, covers = reference_lattice(ctx)
        lattice = build_lattice(ctx)
        np.testing.assert_array_equal(lattice.intents, intents)
        np.testing.assert_array_equal(extent_rows(lattice), extents)
        np.testing.assert_array_equal(lattice.covers, covers)
        assert lattice.edges == tuple(map(tuple, covers.tolist()))


def test_mask_limited_candidates_match_the_definition():
    """Seeded contexts for every case of the candidate and bottom rules:
    objects with every answer (the bottom's extent is then not empty),
    all-zero and duplicate rows, no objects or no answers, and more than 64
    objects or more than 64 answers."""
    rng = np.random.default_rng(19)
    shapes = ((0, 5), (7, 0), (12, 6), (40, 9), (70, 8), (20, 70), (90, 80))
    for (n_obj, n_att), full_rows in itertools.product(shapes, (0, 2)):
        for _ in range(3):
            inc = rng.random((n_obj, n_att)) < min(0.5, 2.0 / max(n_att, 1))
            if n_obj >= 6:
                inc[rng.integers(n_obj, size=2)] = False  # rows with no answer
                inc[3:5] = inc[5]  # duplicate rows
                inc[:full_rows] = True
            ctx = FormalContext(tuple(f"o{i}" for i in range(n_obj)),
                                tuple(f"y{j}" for j in range(n_att)), inc)
            intents, extents, covers = reference_lattice(ctx)
            lattice = build_lattice(ctx)
            np.testing.assert_array_equal(lattice.intents, intents)
            np.testing.assert_array_equal(extent_rows(lattice), extents)
            np.testing.assert_array_equal(lattice.covers, covers)


def test_packed_extents_and_int32_covers():
    """Over random, edge-case (no objects, no answers) and mask-rule
    contexts, most with a number of objects that is not a multiple of 8:
    extent_bits is one row of _pack's bytes per concept with 0 padding
    bits, extent_sizes counts each bool extent row, and covers is int32."""
    rng = np.random.default_rng(29)
    contexts = [random_context(rng, max_side=10) for _ in range(40)] + edge_case_contexts()
    for n_obj, n_att in ((0, 5), (7, 0), (12, 6), (40, 9), (70, 8), (20, 70), (90, 80)):
        inc = rng.random((n_obj, n_att)) < min(0.5, 2.0 / max(n_att, 1))
        contexts.append(FormalContext(tuple(f"o{i}" for i in range(n_obj)),
                                      tuple(f"y{j}" for j in range(n_att)), inc))
    assert {ctx.n_objects % 8 for ctx in contexts} == set(range(8))
    for ctx in contexts:
        lattice = build_lattice(ctx)
        bits, n = lattice.extent_bits, ctx.n_objects
        assert bits.dtype == np.uint8
        assert bits.shape == (len(lattice.intents), max(1, -(-n // 8)))
        assert not np.unpackbits(bits, axis=1, bitorder="little")[:, n:].any()
        np.testing.assert_array_equal(lattice.extent_sizes, extent_rows(lattice).sum(axis=1))
        assert lattice.covers.dtype == np.int32


def test_default_band_lattices_are_small(score_table):
    """The ten default band lattices (13,683 concepts, 52,858 edges) keep
    their extents as the walk's packed bytes: building them retains under
    1.25 MiB and peaks under 2 MiB, where bool extent rows and 64-bit covers
    retained over 3 MiB."""
    contexts = [build_band_context(score_table, band) for band in DEFAULT_BANDS]
    tracemalloc.start()
    try:
        lattices = [build_lattice(ctx) for ctx in contexts]
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(lattice.intents) for lattice in lattices) == 13683
    assert sum(len(lattice.covers) for lattice in lattices) == 52858
    assert retained < 1.25 * 2**20 and peak < 2 * 2**20, (retained, peak)
