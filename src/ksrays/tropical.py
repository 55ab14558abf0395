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
from functools import reduce
from itertools import combinations
from operator import attrgetter, or_

from .rays import Configuration
from .orthograph import _bits, _clique_mates, _inside_cliques, _section_masks, clique_masks


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

    The sections of a disjoint n-tuple are exactly the independent
    n-sets of the graph on its union U: a clique holds at most one
    pick, so n picks meet each of the cliques once.  So each distinct
    union is decided once, and only a section-free one has its tuples,
    the exact covers of U, listed; they share one ray set.  Raises
    ValueError if max_n < 1, if sample_per_n is neither a non-negative
    int nor math.inf, or if an orthogonal pair lies in no d-clique.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    ok = sample_per_n == math.inf or isinstance(sample_per_n, int) and sample_per_n >= 0
    if not ok or isinstance(sample_per_n, bool):
        raise ValueError(f"sample_per_n must be a non-negative int or math.inf, got {sample_per_n!r}")
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
            TropicalWitness(tup, frozenset(_bits(reduce(or_, picked))))
            for tup in tuples
            if _section_masks(rows, picked := [masks[i] for i in tup]) is None
        ]
        if witnesses:
            return n, witnesses
    else:
        return None

    # The top level n = max_n does not fit the budget.
    witnesses = []
    for union, tup in _distinct_unions(config, n).items():
        if _section_masks(rows, [masks[i] for i in tup]) is None:
            rays = frozenset(_bits(union))
            witnesses += (TropicalWitness(c, rays) for c in _exact_covers(config, union, n))
    witnesses.sort(key=attrgetter("clique_indices"))
    for tup in _sampled_tuples(m, n, sample_per_n, rng):
        picked = [masks[i] for i in tup]
        if reduce(or_, picked).bit_count() < n * config.dim and _section_masks(rows, picked) is None:
            raise AssertionError("witness with overlapping cliques found; rerun with "
                                 "sample_per_n=math.inf (`ksrays tropical --exhaustive`)")
    return (n, witnesses) if witnesses else None


def _distinct_unions(config: Configuration, n: int) -> dict[int, tuple[int, ...]]:
    """Each distinct union of n pairwise-disjoint d-cliques, mapped to
    its lexicographically first index tuple, by a lexicographic walk
    that enters each partial union once.  That skips no union's first
    tuple: a later prefix with the union of an earlier one could be
    swapped for it, giving an earlier tuple.  A tuple's first clique
    holds its union's lowest ray (the masks are lexicographic), so the
    partial unions seen are forgotten when that ray changes."""
    masks = clique_masks(config)
    if n == 1:
        return {mask: (i,) for i, mask in enumerate(masks)}
    disjoint = [_inside_cliques(config, ~mask) for mask in masks]
    reps: dict[int, tuple[int, ...]] = {}
    seen: set[int] = set()

    def rec(cand: int, union: int, acc: tuple[int, ...], need: int) -> None:
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            cand ^= low
            left -= 1
            i = low.bit_length() - 1
            grown = union | masks[i]
            if need == 1:
                if grown not in reps:
                    reps[grown] = (*acc, i)
                continue
            nxt = cand & disjoint[i]
            if nxt.bit_count() >= need - 1 and grown not in seen:
                seen.add(grown)
                rec(nxt, grown, (*acc, i), need - 1)

    ray = 0
    try:
        for i, mask in enumerate(masks):
            if mask & -mask != ray:
                ray = mask & -mask
                seen.clear()
            rec(disjoint[i] >> i + 1 << i + 1, mask, (i,), n - 1)
    finally:
        del rec  # the closure refers to itself: break the cycle
    return reps


def _exact_covers(config: Configuration, union: int, n: int) -> list[tuple[int, ...]]:
    """Index tuples of the n d-cliques that partition the ray set union,
    in lexicographic order.  Branches on the lowest uncovered ray (Knuth,
    *Dancing Links*, arXiv cs/0011047), which the next clique of a cover
    holds as the masks are lexicographic; the last one is looked up."""
    masks = clique_masks(config)
    index: dict[int, int] = {}
    by_low: dict[int, list[tuple[int, int]]] = {}
    for i in _bits(_inside_cliques(config, union)):
        index[masks[i]] = i
        by_low.setdefault(masks[i] & -masks[i], []).append((i, masks[i]))
    covers: list[tuple[int, ...]] = []

    def rec(left: int, acc: tuple[int, ...], need: int) -> None:
        if need == 1:
            if left in index:
                covers.append((*acc, index[left]))
            return
        for i, mask in by_low.get(left & -left, ()):
            if not mask & ~left:
                rec(left ^ mask, (*acc, i), need - 1)

    try:
        rec(union, (), n)
    finally:
        del rec  # the closure refers to itself: break the cycle
    return covers


def _sampled_tuples(m: int, n: int, count: int, rng: random.Random):
    # Random.sample indexes a list as it does a range, by the same draws.
    population = list(range(m))
    for _ in range(count):
        yield tuple(sorted(rng.sample(population, n)))
