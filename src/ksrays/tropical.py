"""Anticlique sections, tropical dimension, and tropical subconfigurations.

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
    _section_masks,
    _walk_cliques,
    clique_incidence,
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
    covered = [0] * config.n
    for mask in clique_masks(config):
        for v in _bits(mask):
            covered[v] |= mask
    for i, row in enumerate(config.adj):
        extra = row & ~covered[i]
        if extra:
            j = (extra & -extra).bit_length() - 1
            raise ValueError(f"orthogonal pair ({i}, {j}) lies in no maximal clique")


def tropical_dimension(
    config: Configuration,
    max_n: int,
    sample_per_n: int = 2000,
    rng: random.Random | None = None,
):
    """Smallest n <= max_n with a section-free clique collection.

    Returns (n, witnesses) or None if every examined collection up to
    max_n admits a section.  Levels below max_n are sampled rather than
    fully enumerated.  Level max_n is searched over every
    pairwise-disjoint tuple plus a random sample of overlapping ones; a
    section-free overlapping tuple raises AssertionError, as only the
    full scan ``iter_witnesses`` (``ksrays tropical --exhaustive``)
    finds such witnesses.

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
    for n in range(1, max_n):
        witnesses = [
            _witness(masks, tup)
            for tup in _sampled_tuples(m, n, sample_per_n, rng)
            if _section_masks(rows, [masks[i] for i in tup]) is None
        ]
        if witnesses:
            return n, witnesses

    # Clique i weighs its rays plus bit shift + i: a disjoint tuple's OR
    # is its union below bit shift and its clique indices above.
    shift = config.n
    rays = (1 << shift) - 1
    incidence = clique_incidence(config)
    disjoint = []
    for mask in masks:
        meets = 0
        for v in _bits(mask):
            meets |= incidence[v]
        disjoint.append(~meets & ((1 << m) - 1))
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
    _walk_cliques(disjoint, max_n, weights, decide)
    for tup in _sampled_tuples(m, max_n, sample_per_n, rng):
        if any(
            masks[a] & masks[b] for a, b in combinations(tup, 2)
        ) and _section_masks(rows, [masks[i] for i in tup]) is None:
            raise AssertionError(
                "witness with overlapping cliques found; rerun with "
                "`ksrays tropical --exhaustive` (iter_witnesses)"
            )
    return (max_n, witnesses) if witnesses else None


def _witness(masks, tup) -> TropicalWitness:
    union = 0
    for i in tup:
        union |= masks[i]
    return TropicalWitness(tuple(tup), frozenset(_bits(union)))


def _sampled_tuples(m: int, n: int, count: int, rng: random.Random):
    if n > m:
        return
    for _ in range(count):
        yield tuple(sorted(rng.sample(range(m), n)))


def iter_witnesses(
    config: Configuration,
    n: int,
    start: int = 0,
    progress=None,
    progress_every: int = 100_000,
):
    """Scan all n-subsets of the maximal cliques for section-free ones.

    Yields (position, clique index tuple) pairs in lexicographic order,
    beginning at the given position; a caller can checkpoint the last
    position seen and resume later.  Positions count every examined
    subset, witness or not, so the stream is restartable at any point.
    The optional progress callback receives (position, total) every
    progress_every subsets.
    """
    if start < 0:
        raise ValueError("start position must be non-negative")
    masks = clique_masks(config)
    rows = config.adj
    total = math.comb(len(masks), n)
    for pos, tup in enumerate(_combinations_from(len(masks), n, start), start):
        if progress is not None and pos % progress_every == 0:
            progress(pos, total)
        if _section_masks(rows, [masks[i] for i in tup]) is None:
            yield pos, tup


def _combinations_from(m: int, n: int, start: int):
    """The n-subsets of range(m) in lexicographic order, from rank start on.

    The start-th subset is unranked with binomial coefficients; every
    later one keeps a prefix of it and is larger at the next place, so
    nothing before the start is generated.
    """
    if start >= math.comb(m, n):
        return
    first = []
    x = 0
    for j in range(n, 0, -1):
        while start >= (c := math.comb(m - x - 1, j - 1)):
            start -= c
            x += 1
        first.append(x)
        x += 1
    yield tuple(first)
    for j in range(n - 1, -1, -1):
        head = tuple(first[:j])
        for tail in combinations(range(first[j] + 1, m), n - j):
            yield head + tail


def enumerate_tropical_subconfigurations(
    config: Configuration, witnesses: list[TropicalWitness] | None = None
) -> list[Configuration]:
    """Distinct unions over all tropical witnesses, as subconfigurations.

    Witnesses default to the restricted tropical-dimension search with
    max_n = d - 2 (the value realized by the built-in datasets).
    """
    if witnesses is None:
        got = tropical_dimension(config, config.dim - 2)
        if got is None:
            return []
        _, witnesses = got
    unions = sorted(tuple(sorted(u)) for u in {w.union for w in witnesses})
    return [config.restrict(u) for u in unions]
