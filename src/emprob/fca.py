"""Formal concept analysis over case-answer incidence.

A formal context pairs objects (cases) with attributes (answers) through a
boolean incidence matrix.  Concepts are maximal rectangles (extent, intent).
Each attribute's column is held as one Python int over the objects, so a
derivation is a chain of bitwise ANDs.  Concepts are enumerated with
Next-Closure (Ganter 1984) in lectic order of intents, which visits every
closed attribute set exactly once.  The covering relation, which gives the
concept lattice diagram, comes from Lindig's neighbour step (Lindig 2000,
"Fast Concept Analysis").
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


def _indices(masks: list[int], width: int) -> list[tuple[int, ...]]:
    """Each bitset of ``width`` bits as the ascending tuple of its set bits."""
    n_bytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(x.to_bytes(n_bytes, "little") for x in masks), np.uint8)
    rows, pos = np.nonzero(
        np.unpackbits(packed.reshape(len(masks), n_bytes), axis=1, bitorder="little")
    )
    ends = np.cumsum(np.bincount(rows, minlength=len(masks))).tolist()
    pos = pos.tolist()
    return [tuple(pos[s:e]) for s, e in zip([0] + ends, ends)]


def enumerate_concepts(context: FormalContext) -> tuple[Concept, ...]:
    """All formal concepts in lectic order of their intents (Next-Closure).

    The first concept has full extent (the lattice top) and the last has
    full intent (the bottom).
    """
    m = context.n_attributes
    cols = _columns(context)
    ext = full = (1 << context.n_objects) - 1
    intent = sum(1 << a for a in range(m) if cols[a] == full)
    extents, intents = [ext], [intent]
    while True:
        # prefix[i]: the extent of the intent's attributes below i
        prefix = [full]
        for a in range(m):
            prefix.append(prefix[-1] & cols[a] if intent >> a & 1 else prefix[-1])
        missing = [a for a in range(m) if not intent >> a & 1]
        # try each attribute outside the intent, the last first
        for k in range(len(missing) - 1, -1, -1):
            i = missing[k]
            ext = prefix[i] & cols[i]
            # lectic successor: the closure adds nothing below position i
            for j in missing[:k]:
                if ext & cols[j] == ext:
                    break
            else:
                intent = (intent & ((1 << i) - 1)) | (1 << i)
                for j in range(i + 1, m):
                    if ext & cols[j] == ext:
                        intent |= 1 << j
                extents.append(ext)
                intents.append(intent)
                break
        else:
            return tuple(map(Concept, _indices(extents, context.n_objects),
                             _indices(intents, m)))


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
    """Enumerate the context's concepts and compute their covering relation.

    Lindig's neighbour step: for a concept (X, Y), every X & a' with a
    outside Y is a closed extent below X, and the maximal ones among them
    are X's lower covers.  For a in Y, X & a' is X itself.
    """
    concepts = enumerate_concepts(context)
    cols = _columns(context)
    full = (1 << context.n_objects) - 1
    extents = []
    for c in concepts:
        ext = full
        for a in c.intent:
            ext &= cols[a]
        extents.append(ext)
    index = {ext: i for i, ext in enumerate(extents)}
    edges: list[tuple[int, int]] = []
    for upper, ext in enumerate(extents):
        below = {ext & col for col in cols}
        below.discard(ext)
        covers: list[int] = []
        # largest first, so a set is a cover unless a kept cover contains it
        for cand in sorted(below, key=int.bit_count, reverse=True):
            for kept in covers:
                if cand & kept == cand:
                    break
            else:
                covers.append(cand)
        edges.extend((index[cand], upper) for cand in covers)
    return ConceptLattice(
        context=context,
        concepts=concepts,
        edges=tuple(sorted(edges)),
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
