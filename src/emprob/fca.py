"""Formal concept analysis over case-answer incidence.

A formal context pairs objects (cases) with attributes (answers) through a
boolean incidence matrix.  Concepts are maximal rectangles (extent, intent).
Each attribute's column is held as one Python int over the objects, so a
derivation is a chain of bitwise ANDs.  The concept lattice is built in one
top-down pass of Lindig's neighbour step (Lindig 2000, "Fast Concept
Analysis"): from the top concept down, each concept's lower covers are
found once and each cover not seen before joins the pass, so it reaches
every concept and every edge of the lattice diagram.  One sort then puts
the concepts in lectic order of their intents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def _attr_mask(self, attrs: Iterable[str]) -> np.ndarray:
        mask = np.zeros(self.n_attributes, dtype=bool)
        for a in attrs:
            try:
                mask[self.attributes.index(a)] = True
            except ValueError:
                raise ValidationError(f"unknown attribute {a!r}") from None
        return mask

    def extent_mask(self, attr_mask: np.ndarray) -> np.ndarray:
        """Objects that have every attribute of the mask."""
        return self.incidence[:, attr_mask].all(axis=1)

    def intent_mask(self, object_mask: np.ndarray) -> np.ndarray:
        """Attributes shared by every object of the mask."""
        return self.incidence[object_mask].all(axis=0)

    def extent_of(self, attrs: Iterable[str]) -> tuple[str, ...]:
        mask = self.extent_mask(self._attr_mask(attrs))
        return tuple(o for o, m in zip(self.objects, mask) if m)

    def intent_of(self, objs: Iterable[str]) -> tuple[str, ...]:
        mask = np.zeros(self.n_objects, dtype=bool)
        for o in objs:
            try:
                mask[self.objects.index(o)] = True
            except ValueError:
                raise ValidationError(f"unknown object {o!r}") from None
        amask = self.intent_mask(mask)
        return tuple(a for a, m in zip(self.attributes, amask) if m)

    def support(self, attrs: Iterable[str]) -> int:
        """Number of objects having all the given attributes."""
        return int(self.extent_mask(self._attr_mask(attrs)).sum())


def derive(context: FormalContext, side: str, s: Iterable[str]) -> tuple[str, ...]:
    """Derivation (prime) operator.

    side="attributes": s is a set of attributes, returns the objects having
    them all.  side="objects": s is a set of objects, returns their common
    attributes.  The empty set derives to the whole other side.
    """
    if side == "attributes":
        return context.extent_of(s)
    if side == "objects":
        return context.intent_of(s)
    raise ValidationError(f"side must be 'objects' or 'attributes', got {side!r}")


@dataclass(frozen=True)
class Concept:
    """A maximal (extent, intent) pair; indices into the context's lists."""

    extent: tuple[int, ...]
    intent: tuple[int, ...]

    def extent_names(self, context: FormalContext) -> tuple[str, ...]:
        return tuple(context.objects[i] for i in self.extent)

    def intent_names(self, context: FormalContext) -> tuple[str, ...]:
        return tuple(context.attributes[i] for i in self.intent)


def _columns(context: FormalContext) -> list[int]:
    """Each attribute's extent as an int: bit g is set when object g has it."""
    packed = np.packbits(context.incidence, axis=0, bitorder="little")
    return [int.from_bytes(packed[:, a].tobytes(), "little") for a in range(context.n_attributes)]


def _bits(masks: list[int], width: int) -> np.ndarray:
    """Each bitset of ``width`` bits as a bool row: column j is bit j."""
    n_bytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(x.to_bytes(n_bytes, "little") for x in masks), np.uint8)
    rows = np.unpackbits(packed.reshape(len(masks), n_bytes), axis=1, bitorder="little")
    return rows[:, :width]


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


@dataclass(frozen=True)
class ConceptLattice:
    """Concepts plus their covering relation.

    Edges are (lower, upper) index pairs: the lower concept's extent is
    contained in the upper's, with no concept strictly between.
    """

    context: FormalContext
    concepts: tuple[Concept, ...]
    edges: tuple[tuple[int, int], ...]
    top: int
    bottom: int


def build_lattice(context: FormalContext) -> ConceptLattice:
    """The context's concepts, in lectic order of intents, and their
    covering relation, from one top-down walk.

    Lindig's neighbour step: for a concept (X, Y), every X & a' with a
    outside Y is a closed extent below X, and the maximal ones among them
    are X's lower covers.  A cover's intent is Y plus the attributes whose
    X & a' is that cover, since any other a outside Y gives an X & a' that
    does not contain it.  Each cover not seen before joins the walk.
    """
    m = context.n_attributes
    cols = _columns(context)
    # attribute a is bit m - 1 - a, so intents in numeric order are in
    # lectic order (attribute 0 decides first)
    bits = [1 << (m - 1 - a) for a in range(m)]
    full = (1 << context.n_objects) - 1
    extents = [full]
    intents = [sum(b for b, col in zip(bits, cols) if col == full)]
    index = {full: 0}
    edges: list[tuple[int, int]] = []
    for upper, ext in enumerate(extents):  # the walk appends as it goes
        intent = intents[upper]
        generators: dict[int, int] = {}
        for b, col in zip(bits, cols):
            if not intent & b:
                cand = ext & col
                generators[cand] = generators.get(cand, 0) | b
        covers: list[int] = []
        # largest first, so a set is a cover unless a kept cover contains it
        for cand in sorted(generators, key=int.bit_count, reverse=True):
            for kept in covers:
                if cand & kept == cand:
                    break
            else:
                covers.append(cand)
                lower = index.setdefault(cand, len(extents))
                if lower == len(extents):
                    extents.append(cand)
                    intents.append(intent | generators[cand])
                edges.append((lower, upper))
    order = sorted(range(len(intents)), key=intents.__getitem__)
    rank = {old: new for new, old in enumerate(order)}
    concepts = tuple(map(
        Concept,
        _indices(_bits([extents[i] for i in order], context.n_objects)),
        _indices(_bits([intents[i] for i in order], m)[:, ::-1]),
    ))
    return ConceptLattice(
        context=context,
        concepts=concepts,
        edges=tuple(sorted((rank[lo], rank[up]) for lo, up in edges)),
        top=0,
        bottom=len(concepts) - 1,
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
