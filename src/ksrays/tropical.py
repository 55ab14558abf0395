"""Anticlique sections and the tropical dimension.

An anticlique section of a clique collection picks exactly one ray from
each clique so that the picked rays are pairwise non-orthogonal with
respect to the parent configuration (an independent transversal).  The
tropical dimension is the smallest number of maximal cliques for which
no section exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .rays import Configuration
from .orthograph import (
    _bits,
    _clique_mates,
    _inside_cliques,
    _section_masks,
    _walk_cliques,
    clique_masks,
)


@dataclass(frozen=True)
class TropicalWitness:
    """A section-free collection of maximal cliques at the tropical dimension."""

    clique_indices: tuple[int, ...]  # into the parent's maximal-clique list
    union: frozenset[int]  # ray indices


def admits_anticlique_section(
    parent: Configuration, cliques: list[tuple[int, ...]] | list[frozenset]
) -> frozenset[int] | None:
    """A section of the collection as a ray-index set, or None.

    Picks are unique per clique and pairwise non-orthogonal in the
    parent's full orthogonality relation.
    """
    if not cliques:
        raise ValueError("empty clique collection")
    valid = set(clique_masks(parent))
    masks = []
    for c in cliques:
        mask = 0
        for v in c:
            mask |= 1 << v
        if mask not in valid:
            raise ValueError(f"{sorted(set(c))} is not a maximal clique of the parent")
        masks.append(mask)
    got = _section_masks(parent.adj, masks)
    return None if got is None else frozenset(_bits(got))


def _require_covered(config: Configuration) -> None:
    """Raise ValueError unless every orthogonal pair lies in some d-clique,
    the precondition of every tropical-dimension search."""
    covered = _clique_mates(config)
    for i, row in enumerate(config.adj):
        extra = row & ~covered[i]
        if extra:
            j = (extra & -extra).bit_length() - 1
            raise ValueError(f"orthogonal pair ({i}, {j}) lies in no maximal clique")


def tropical_dimension(
    config: Configuration,
    max_n: int,
    sample_per_n: int | float = 2000,
    rng: random.Random | None = None,
):
    """Smallest n <= max_n with a section-free clique collection.

    Returns (n, witnesses) or None if every examined collection up to
    max_n admits a section.  No collection has more cliques than the
    m maximal cliques, so only levels n <= min(max_n, m) are searched.

    A level whose C(m, n) clique n-sets number at most sample_per_n is
    scanned in full, which is never more section calls than sampling
    it, and its answer is exact; ``sample_per_n=math.inf`` makes every
    level exact (``ksrays tropical --exhaustive``).  A lower level that
    does not fit is sampled with sample_per_n random n-sets.  A top
    level n = max_n that does not fit is searched over every
    pairwise-disjoint n-tuple plus sample_per_n random ones; a
    section-free overlapping tuple raises AssertionError, as only the
    full scan lists such witnesses.

    The disjoint tuples are the max_n-cliques of the disjointness graph
    on the cliques.  Their sections are exactly the independent
    max_n-sets of the graph on their union U: a clique holds at most one
    pick, so max_n picks meet each of the cliques once.  The verdict
    thus depends on U alone, and each distinct union is decided once;
    its witnesses share one ray set.  Raises ValueError if max_n < 1 or
    an orthogonal pair lies in no d-clique.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    _require_covered(config)
    rng = rng or random.Random(20240901)
    masks = clique_masks(config)
    m = len(masks)
    rows = config.adj
    for n in range(1, min(max_n, m) + 1):
        if math.comb(m, n) <= sample_per_n:
            tuples = combinations(range(m), n)
        elif n < max_n:
            tuples = _sampled_tuples(m, n, sample_per_n, rng)
        else:
            break
        witnesses = [
            _witness(masks, tup)
            for tup in tuples
            if _section_masks(rows, [masks[i] for i in tup]) is None
        ]
        if witnesses:
            return n, witnesses
    else:
        return None

    # The top level n = max_n does not fit the budget.  Clique i weighs
    # its rays plus bit shift + i: a disjoint tuple's OR is its union
    # below bit shift and its clique indices above.
    shift = config.n
    rays = (1 << shift) - 1
    disjoint = [_inside_cliques(config, ~mask) for mask in masks]
    verdicts: dict[int, frozenset[int] | None] = {}
    witnesses = []

    def decide(tagged: int) -> None:
        union = tagged & rays
        if union not in verdicts:
            tup = _bits(tagged >> shift)
            free = _section_masks(rows, [masks[i] for i in tup]) is None
            verdicts[union] = frozenset(_bits(union)) if free else None
        if verdicts[union] is not None:
            witnesses.append(TropicalWitness(_bits(tagged >> shift), verdicts[union]))

    weights = [c | 1 << (shift + i) for i, c in enumerate(masks)]
    _walk_cliques(disjoint, n, weights, decide)
    for tup in _sampled_tuples(m, n, sample_per_n, rng):
        if any(
            masks[a] & masks[b] for a, b in combinations(tup, 2)
        ) and _section_masks(rows, [masks[i] for i in tup]) is None:
            raise AssertionError(
                "witness with overlapping cliques found; rerun with "
                "sample_per_n=math.inf (`ksrays tropical --exhaustive`)"
            )
    return (n, witnesses) if witnesses else None


def _witness(masks, tup) -> TropicalWitness:
    union = 0
    for i in tup:
        union |= masks[i]
    return TropicalWitness(tuple(tup), frozenset(_bits(union)))


def _sampled_tuples(m: int, n: int, count: int, rng: random.Random):
    for _ in range(count):
        yield tuple(sorted(rng.sample(range(m), n)))
