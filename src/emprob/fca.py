"""Formal concept analysis over case-answer incidence.

A formal context pairs objects (cases) with attributes (answers) through a
boolean incidence matrix.  Concepts are maximal rectangles (extent, intent).
The concept lattice is built by Lindig's neighbour step (Lindig 2000, "Fast
Concept Analysis") done one level at a time on arrays.  Extents are packed
into bytes over the objects, and intents and masks (the OR of a concept's
objects' answer rows) into 64-bit words over the attributes.  Each level
ANDs its concepts' extents with the answer columns in their masks and
outside their intents, folds the candidates' intents from per-byte AND
tables of the object rows, and keeps the lower covers by a count of equal
intents; the bottom concept, when no object has every answer, covers the
concepts whose mask is their intent.  Candidates outside the masks would
all have empty extents and are never formed.  Covers not seen before form
the next level, so the walk reaches every concept and every edge of the
lattice diagram.  One sort then puts the concepts in lectic order of their
intents.  A ConceptLattice holds the result as arrays: intents (concepts x
attributes), the walk's packed extents (concepts x object bytes) and covers
(edges x 2, (lower, upper) index pairs); the extents are unpacked only into
the index tuples of ``concepts``, when those are asked for.
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


def _pack(rows: np.ndarray, size: int = 1) -> np.ndarray:
    """Each bool row packed into bytes, padded to whole blocks of ``size``
    bytes and at least one; column 8 j + k is bit k of byte j."""
    r, c = rows.shape
    packed = np.zeros((r, size * max(1, -(-c // (8 * size)))), np.uint8)
    packed[:, : -(-c // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed


def _words(rows: np.ndarray) -> np.ndarray:
    """Each bool row packed into 64-bit words, shape (rows, words): column
    64 w + k is bit k of word w, and every row gets at least one word."""
    return _pack(rows, 8).view("<u8").astype(np.uint64)


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Little-order packed words back to bool rows of ``count`` columns."""
    rows = words.astype("<u8").view(np.uint8)
    return np.unpackbits(rows, axis=1, count=count, bitorder="little").view(bool)


def _count(words: np.ndarray) -> np.ndarray:
    """The number of set bits in each row of packed bytes or words."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.intp)


def _least(words: np.ndarray) -> np.ndarray:
    """The least set bit position in each row of little-order packed words;
    every row must have one."""
    w = (words != 0).argmax(axis=1)
    x = words[np.arange(len(words)), w]
    return 64 * w + np.bitwise_count((x & (~x + np.uint64(1))) - np.uint64(1))


def _tables(rows: np.ndarray, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AND and OR tables of the objects' packed answer rows, (extent bytes
    x 256, words) each.  Entry 256 j + v combines the rows of the objects
    that byte j of a packed extent holds at the bits set in v; the empty
    AND is ``full``, the empty OR is 0."""
    n, w = rows.shape
    n_bytes = max(1, -(-n // 8))
    tables = []
    for fill, op in ((full, np.bitwise_and), (np.zeros_like(full), np.bitwise_or)):
        objects = np.empty((8 * n_bytes, w), np.uint64)
        objects[:] = fill
        objects[:n] = rows
        objects = objects.reshape(n_bytes, 8, w)
        table = np.empty((n_bytes, 256, w), np.uint64)
        table[:, 0] = fill
        for k in range(8):
            op(table[:, : 1 << k], objects[:, k, None], out=table[:, 1 << k : 2 << k])
        tables.append(table.reshape(-1, w))
    return tables[0], tables[1]


# table entries gathered at once by _fold: bounds its temporary arrays
_FOLD_ENTRIES = 1 << 13


def _fold(table: np.ndarray, extents: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``op`` over the table entries of each packed extent's bytes: with
    the AND table the extent's intent, with the OR table its mask."""
    out = np.empty((len(extents), table.shape[1]), np.uint64)
    offsets = 256 * np.arange(extents.shape[1])
    step = max(1, _FOLD_ENTRIES // extents.shape[1])
    for s in range(0, len(extents), step):
        op.reduce(table[extents[s : s + step] + offsets], axis=1, out=out[s : s + step])
    return out


def _indices(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Each bool or 0/1 row as the ascending tuple of its nonzero columns."""
    nz, pos = np.nonzero(rows)
    ends = np.cumsum(np.bincount(nz, minlength=len(rows))).tolist()
    pos = pos.tolist()
    return [tuple(pos[s:e]) for s, e in zip([0] + ends, ends)]


def enumerate_concepts(context: FormalContext) -> tuple[tuple[tuple, tuple], ...]:
    """All formal concepts, (extent, intent) pairs of ascending index
    tuples, in lectic order of their intents: the first has full extent
    (the lattice top) and the last full intent (the bottom)."""
    return build_lattice(context).concepts


@dataclass(frozen=True, eq=False)
class ConceptLattice:
    """Concepts plus their covering relation, held as arrays.

    Row k of ``intents`` (K x attributes, bool) and ``extent_bits`` (K x
    max(1, ceil(objects / 8)), uint8) is concept k, in lectic order of the
    intents, so concept 0 is the top and the last is the bottom.  An extent
    row is packed as ``_pack`` packs: object 8 j + i is bit i of byte j, and
    the padding bits are 0.  ``covers`` (E x 2, int32) holds the (lower,
    upper) index pairs, sorted: the lower concept's extent is contained in
    the upper's, with no concept strictly between.  ``extent_sizes`` counts
    each extent's objects from the bits.  ``concepts`` ((extent, intent)
    pairs of index tuples) and ``edges`` are the same as tuples, built on
    first use.
    """

    context: FormalContext
    intents: np.ndarray
    extent_bits: np.ndarray
    covers: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.intents, self.extent_bits, self.covers):
            a.setflags(write=False)

    @property
    def extent_sizes(self) -> np.ndarray:
        return _count(self.extent_bits)

    @cached_property
    def concepts(self) -> tuple[tuple[tuple, tuple], ...]:
        extents = np.unpackbits(self.extent_bits, axis=1, count=self.context.n_objects,
                                bitorder="little")
        return tuple(zip(_indices(extents), _indices(self.intents)))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.covers.T.tolist()))


def build_lattice(context: FormalContext) -> ConceptLattice:
    """The context's concepts, in lectic order of intents, and their
    covering relation, from a top-down walk one level at a time.

    Lindig's neighbour step: for a concept (X, Y), every X & a' with a
    outside Y is a closed extent below X, and it is a lower cover exactly
    when every answer b its intent B adds to Y generates it too.  Each
    such X & b' contains X & a', so its intent lies within B, and the
    cover test is a count: p = (X, Y) has |B - Y| candidates of intent B.
    Each concept carries its mask, the OR of its objects' answer rows, and
    forms candidates only for the answers in its mask and outside Y; for
    any other answer X & a' is empty.  An empty candidate can only be the
    bottom concept, when no object has every answer, and the bottom then
    covers exactly the concepts whose mask equals their intent.

    Level 0 is the top concept; each level after it holds the covers first
    found from the level before.  A level forms all its candidates at
    once: their extents are packed bytes, their intents and the new
    concepts' masks are packed words folded from per-byte AND and OR
    tables of the object rows.  A candidate (p, a) of intent B is a cover,
    found once, when a is the least answer of B - Y and one bincount finds
    |B - Y| candidates of p with intent B: those whose least added answer
    generates a candidate of their own intent size.  Intents grow along
    every cover, so there are at most answers + 1 levels.  One sort of the
    intents then puts the concepts in lectic order.
    """
    inc = context.incidence
    n, m = inc.shape
    full = _words(np.ones((1, m), dtype=bool))[0]
    meet, join = _tables(_words(inc), full)
    cols = _pack(inc.T)  # (m, bytes): each answer's extent
    level_ext = _pack(np.ones((1, n), dtype=bool))  # (concepts, bytes)
    level_int = _fold(meet, level_ext, np.bitwise_and)  # (concepts, words)
    ext_parts = [level_ext]
    keys = level_int  # the intent of every concept found, in the order found
    first = 0  # index of the level's first concept
    lowers, uppers = [], []
    while len(level_int):
        mask = _fold(join, level_ext, np.bitwise_or)
        parent, attr = np.nonzero(_unpack(mask & ~level_int, m))
        cand_ext = level_ext[parent] & cols[attr]
        cand_int = _fold(meet, cand_ext, np.bitwise_and)
        size = _count(cand_int)
        # each candidate's least added answer generates a candidate whose
        # intent holds the first one's, so of the same size only if equal
        least = _least(cand_int & ~level_int[parent])
        number = np.zeros((len(level_int), m), dtype=np.intp)
        number[parent, attr] = np.arange(len(parent))
        rep = number[parent, least]
        same = np.bincount(rep[size == size[rep]], minlength=len(parent))
        cover = np.flatnonzero((least == attr) & (same == size - _count(level_int)[parent]))
        bottom_of = np.flatnonzero(
            (mask == level_int).all(axis=1) & (level_int != full).any(axis=1))
        cover_ext = np.concatenate([cand_ext[cover], np.zeros_like(level_ext[bottom_of])])
        cover_keys = np.concatenate([cand_int[cover], np.tile(full, (len(bottom_of), 1))])
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
        uppers.append(first + np.concatenate([parent[cover], bottom_of]))
        level_ext, level_int = cover_ext[new], cover_keys[new]
        ext_parts.append(level_ext)
        keys = np.concatenate([keys, level_int])
        first = n_known
    intents = _unpack(keys, m)
    # lectic order sorts on column 0 first; with no answers there is one concept
    order = np.lexsort(intents.T[::-1]) if m else np.arange(len(intents))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    # the (lower, upper) pairs are distinct, so sorting their keys sorts them
    k = len(order)
    edge = np.sort(position[np.concatenate(lowers)] * k + position[np.concatenate(uppers)])
    # int32 indices: K cannot reach 2**31, since K extents of at least 31
    # objects (2**31 concepts need that many) would take 8 GiB of bits first
    covers = np.stack(np.divmod(edge, k), axis=1).astype(np.int32)
    return ConceptLattice(
        context=context,
        intents=intents[order],
        extent_bits=np.concatenate(ext_parts)[order],
        covers=covers,
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
