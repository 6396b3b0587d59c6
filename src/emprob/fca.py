"""Formal concept analysis over case-answer incidence.

A formal context pairs objects (cases) with attributes (answers) through a
boolean incidence matrix.  Concepts are maximal rectangles (extent, intent).
The concept lattice is built by Lindig's neighbour step (Lindig 2000, "Fast
Concept Analysis") done one level at a time on arrays: extents are packed
into 64-bit words over the objects, and each level ANDs all its concepts'
extents with the attribute columns outside their intents at once, finds
the candidates' intents, and keeps the lower covers.
Covers not seen before form the next level, so the walk reaches every
concept and every edge of the lattice diagram.  One sort then puts the
concepts in lectic order of their intents.  A ConceptLattice holds the
result as arrays: intents (concepts x attributes), extents (concepts x
objects) and covers (edges x 2, (lower, upper) index pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from emprob.schema import ValidationError


@dataclass(frozen=True)
class FormalContext:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: np.ndarray  # bool, shape (n_objects, n_attributes)

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError("duplicate object names")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValidationError("duplicate attribute names")
        inc = np.asarray(self.incidence, dtype=bool)
        if inc.shape != (len(self.objects), len(self.attributes)):
            raise ValidationError(
                f"incidence shape {inc.shape} does not match "
                f"{len(self.objects)} objects x {len(self.attributes)} attributes"
            )
        inc.setflags(write=False)
        object.__setattr__(self, "incidence", inc)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class Concept:
    """A maximal (extent, intent) pair; indices into the context's lists."""

    extent: tuple[int, ...]
    intent: tuple[int, ...]


def _words(rows: np.ndarray, bitorder: str) -> np.ndarray:
    """Each bool row packed into 64-bit words, shape (rows, words).

    With bitorder "big" column 0 is the top bit of word 0, so comparing the
    words in order compares the rows as binary numbers with column 0 most
    significant.  Every row gets at least one word.
    """
    r, c = rows.shape
    packed = np.zeros((r, 8 * max(1, -(-c // 64))), np.uint8)
    packed[:, : -(-c // 8)] = np.packbits(rows, axis=1, bitorder=bitorder)
    return packed.view(">u8" if bitorder == "big" else "<u8").astype(np.uint64)


def _indices(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Each bool row as the ascending tuple of its True columns."""
    nz, pos = np.nonzero(rows)
    ends = np.cumsum(np.bincount(nz, minlength=len(rows))).tolist()
    pos = pos.tolist()
    return [tuple(pos[s:e]) for s, e in zip([0] + ends, ends)]


def enumerate_concepts(context: FormalContext) -> tuple[Concept, ...]:
    """All formal concepts in lectic order of their intents.

    The first concept has full extent (the lattice top) and the last has
    full intent (the bottom).
    """
    return build_lattice(context).concepts


@dataclass(frozen=True, eq=False)
class ConceptLattice:
    """Concepts plus their covering relation, held as arrays.

    Row k of ``intents`` (K x attributes) and ``extents`` (K x objects) is
    concept k, in lectic order of the intents, so concept 0 is the top and
    the last is the bottom.  ``covers`` (E x 2) holds the (lower, upper)
    index pairs, sorted: the lower concept's extent is contained in the
    upper's, with no concept strictly between.  ``concepts`` and ``edges``
    are the same as tuples, built on first use.
    """

    context: FormalContext
    intents: np.ndarray
    extents: np.ndarray
    covers: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.intents, self.extents, self.covers):
            a.setflags(write=False)

    @property
    def top(self) -> int:
        return 0

    @property
    def bottom(self) -> int:
        return len(self.intents) - 1

    @cached_property
    def concepts(self) -> tuple[Concept, ...]:
        return tuple(map(Concept, _indices(self.extents), _indices(self.intents)))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.covers.T.tolist()))


def build_lattice(context: FormalContext) -> ConceptLattice:
    """The context's concepts, in lectic order of intents, and their
    covering relation, from a top-down walk one level at a time.

    Lindig's neighbour step: for a concept (X, Y), every X & a' with a
    outside Y is a closed extent below X, and it is a lower cover exactly
    when every attribute b its intent B adds to Y generates it too, that
    is, when each such X & b' has an intent as large as B (it always
    contains X & a', so its intent lies within B).  Level 0 is the top
    concept; each level after it holds the covers first found from the
    level before.  A level forms all its concepts' candidates X & a' at
    once, one 64-bit word of the packed extents at a time, finds their
    intents from the nonzero words, and ranks each candidate by (intent
    size, attribute): a candidate no attribute of its intent outranks is a
    cover, found once from its least generator.  Only the new covers'
    extents are kept, from their parent's extent and generator column.
    Intents grow along every cover, so there are at most attributes + 1
    levels.  One sort of the packed intents then puts the concepts in
    lectic order.
    """
    inc = context.incidence
    n, m = inc.shape
    cols = _words(inc.T, "little").T  # (words, m): each attribute's extent
    missing = ~cols
    level_ext = _words(np.ones((1, n), dtype=bool), "little").T  # (words, concepts)
    level_int = inc.all(axis=0)[None]
    ext_parts, int_parts = [level_ext], [level_int]
    keys = _words(level_int, "big")  # the intent of every concept found
    first = 0  # index of the level's first concept
    lowers, uppers = [], []
    last = (m + 1) ** 2  # above every (intent size, attribute) rank
    while len(level_int):
        parent, attr = np.nonzero(~level_int)
        # a candidate's intent: the attributes whose extent holds it, one
        # word of the candidate extents at a time and from their nonzero
        # words only (most candidates are small or empty)
        outside = np.zeros((len(parent), m), dtype=bool)
        for w in range(len(cols)):
            words = level_ext[w, parent] & cols[w, attr]
            hit = np.flatnonzero(words)
            outside[hit] |= (missing[w] & words[hit, None]) != 0
        cand_int = ~outside
        # attributes of Y rank last and never outrank
        rank = np.full((len(level_int), m), last, dtype=np.min_scalar_type(last))
        rank[parent, attr] = cand_int.sum(axis=1) * (m + 1) + attr
        outranked = cand_int & (rank[parent] < rank[parent, attr][:, None])
        cover = np.flatnonzero(~outranked.any(axis=1))
        cover_keys = _words(cand_int[cover], "big")
        # number the covers: a cover found before, at this level or an
        # earlier one, keeps its number, and the first of each new intent
        # gets the next free one
        both = np.concatenate([keys, cover_keys])
        order = np.lexsort(both.T[::-1])  # stable: a known intent leads its run
        start = np.ones(len(order), dtype=bool)
        start[1:] = (both[order[1:]] != both[order[:-1]]).any(axis=1)
        leader = np.empty_like(order)
        leader[order] = order[start][np.cumsum(start) - 1]
        n_known = len(keys)
        lead = leader[n_known:]
        new = lead == np.arange(n_known, len(both))
        ids = np.arange(len(both))
        ids[n_known:][new] = n_known + np.arange(np.count_nonzero(new))
        lowers.append(ids[lead])
        uppers.append(first + parent[cover])
        fresh = cover[new]
        level_ext = level_ext[:, parent[fresh]] & cols[:, attr[fresh]]
        level_int = cand_int[fresh]
        ext_parts.append(level_ext)
        int_parts.append(level_int)
        keys = np.concatenate([keys, cover_keys[new]])
        first = n_known
    order = np.lexsort(keys.T[::-1])
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    lower, upper = position[np.concatenate(lowers)], position[np.concatenate(uppers)]
    edge_order = np.lexsort((upper, lower))
    extents = np.concatenate(ext_parts, axis=1)[:, order].T.astype("<u8", order="C")
    extents = np.unpackbits(extents.view(np.uint8), axis=1, count=n, bitorder="little")
    return ConceptLattice(
        context=context,
        intents=np.concatenate(int_parts)[order],
        extents=extents.view(bool),
        covers=np.stack([lower[edge_order], upper[edge_order]], axis=1),
    )


def build_band_context(table, band: tuple[float, float], approach: int = 1) -> FormalContext:
    """Formal context of the cases whose score falls in a probability band.

    Objects are the qualifying cases (named by canonical index), attributes
    are all answer ids, and incidence is each case's answer assignment.
    The band [lo, hi) is half-open except when hi is 1, which is included so
    the top band covers the full score range.  An empty band yields a
    context with zero objects rather than an error.

    ``table`` is a ScoreTable; ``approach`` picks the score: 1 = gmm_cdf,
    2 = kde_cdf, 3 = posterior.
    """
    lo, hi = (float(b) for b in band)
    if not (0.0 <= lo < hi <= 1.0):
        raise ValidationError(f"band must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    scores = table.scores_by_approach(approach)
    mask = (scores >= lo) & (scores < hi)
    if hi == 1.0:
        mask |= scores == 1.0
    idx = np.flatnonzero(mask)
    return FormalContext(
        objects=tuple(f"c{i}" for i in idx),
        attributes=table.answer_ids,
        incidence=table.case_set.matrix[idx],
    )
