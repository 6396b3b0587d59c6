"""Formal concept analysis over case-answer incidence.

A formal context pairs objects (cases) with attributes (answers) through a
boolean incidence matrix.  Concepts are maximal rectangles (extent, intent);
they are enumerated with the Next-Closure algorithm in lectic order of
intents, which visits every closed attribute set exactly once.  The covering
relation between concepts gives the concept lattice diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def enumerate_concepts(context: FormalContext) -> tuple[Concept, ...]:
    """All formal concepts in lectic order of their intents (Next-Closure).

    The first concept has full extent (the lattice top) and the last has
    full intent (the bottom).
    """
    m = context.n_attributes
    inc = context.incidence

    def closure(attr_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext = inc[:, attr_mask].all(axis=1)
        return ext, inc[ext].all(axis=0)

    def as_concept(ext: np.ndarray, intent: np.ndarray) -> Concept:
        return Concept(
            extent=tuple(int(i) for i in np.flatnonzero(ext)),
            intent=tuple(int(i) for i in np.flatnonzero(intent)),
        )

    ext, A = closure(np.zeros(m, dtype=bool))
    concepts = [as_concept(ext, A)]
    while True:
        found = False
        work = A.copy()
        for i in range(m - 1, -1, -1):
            if work[i]:
                work[i] = False
                continue
            cand = work.copy()
            cand[i] = True
            ext, B = closure(cand)
            # lectic successor: nothing new may appear below position i
            if not (B[:i] & ~work[:i]).any():
                concepts.append(as_concept(ext, B))
                A = B
                found = True
                break
        if not found:
            return tuple(concepts)


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


def _validate_concepts(context: FormalContext, concepts: Sequence[Concept]) -> None:
    """Each pair must be closed: extent' = intent and intent' = extent."""
    for c in concepts:
        ext = np.zeros(context.n_objects, dtype=bool)
        ext[list(c.extent)] = True
        intent = np.zeros(context.n_attributes, dtype=bool)
        intent[list(c.intent)] = True
        if not np.array_equal(context.intent_mask(ext), intent):
            raise ValidationError(f"closure violation: extent' != intent for {c}")
        if not np.array_equal(context.extent_mask(intent), ext):
            raise ValidationError(f"closure violation: intent' != extent for {c}")


def build_lattice(
    context: FormalContext, concepts: Sequence[Concept] | None = None
) -> ConceptLattice:
    """Compute the covering relation over the context's concepts.

    When a concept list is passed it must be the complete set for this
    context; each pair is checked for the closure property.  Without one,
    concepts are enumerated here.
    """
    if concepts is None:
        concepts = enumerate_concepts(context)
    else:
        concepts = tuple(concepts)
        _validate_concepts(context, concepts)
    intent_bits = []
    for c in concepts:
        bits = 0
        for a in c.intent:
            bits |= 1 << a
        intent_bits.append(bits)

    n = len(concepts)
    by_size_desc = sorted(range(n), key=lambda i: (-len(concepts[i].intent), i))
    edges: list[tuple[int, int]] = []
    for c_idx in range(n):
        cb = intent_bits[c_idx]
        accepted: list[int] = []
        # candidates with strictly smaller intent, largest (nearest) first
        for d_idx in by_size_desc:
            db = intent_bits[d_idx]
            if db == cb or (db & cb) != db:
                continue  # not a proper subset of cb
            if any(db & intent_bits[a] == db for a in accepted):
                continue  # some accepted cover lies strictly between
            accepted.append(d_idx)
        edges.extend((c_idx, d_idx) for d_idx in accepted)

    top = max(range(n), key=lambda i: (len(concepts[i].extent), -i))
    bottom = max(range(n), key=lambda i: (len(concepts[i].intent), -i))
    return ConceptLattice(
        context=context,
        concepts=concepts,
        edges=tuple(sorted(edges)),
        top=top,
        bottom=bottom,
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
