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
from .orthograph import _bits, _section_masks, clique_masks


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


def _disjoint_tuples(masks: list[int], size: int):
    """Yield index tuples of pairwise-disjoint clique masks, lexicographic."""
    return (tup for tup, _ in _disjoint_unions(masks, size))


def _disjoint_unions(masks: list[int], size: int):
    """Yield (index tuple, union mask) of pairwise-disjoint clique masks."""
    m = len(masks)
    # Precompute compatibility bitsets over clique indices.
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if masks[i] & masks[j] == 0:
                compat[i] |= 1 << j

    out: list[int] = []

    def rec(cand: int, depth: int, union: int):
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            out.append(i)
            if depth + 1 == size:
                yield tuple(out), union | masks[i]
            else:
                nxt = cand & compat[i]
                if nxt.bit_count() >= size - depth - 1:
                    yield from rec(nxt, depth + 1, union | masks[i])
            out.pop()

    yield from rec((1 << m) - 1, 0, 0)


def tropical_dimension(
    config: Configuration,
    max_n: int,
    exhaustive: bool = False,
    sample_per_n: int = 2000,
    rng: random.Random | None = None,
):
    """Smallest n <= max_n with a section-free clique collection.

    Returns (n, witnesses) or None if every examined collection up to
    max_n admits a section.  In the default (non-exhaustive) mode,
    levels below the first failing one are sampled rather than fully
    enumerated, and the failing level is searched over pairwise-disjoint
    tuples plus a random sample of overlapping ones; a section-free
    overlapping tuple raises AssertionError.  With ``exhaustive=True``,
    every level is a full enumeration (long run).

    The sections of n pairwise-disjoint cliques with union U are exactly
    the independent n-sets of the graph on U: a clique holds at most one
    pick, so n picks meet each of the n cliques once.  The verdict thus
    depends on U alone, and the disjoint scan decides each distinct
    union once; its witnesses share one ray set per union.
    """
    rng = rng or random.Random(20240901)
    masks = clique_masks(config)
    m = len(masks)
    rows = config.adj

    # Precondition: every orthogonal pair lies in some d-clique.
    covered = [0] * config.n
    for mask in masks:
        for v in _bits(mask):
            covered[v] |= mask & ~(1 << v)
    for i in range(config.n):
        extra = config.adj[i] & ~covered[i]
        if extra:
            j = (extra & -extra).bit_length() - 1
            raise ValueError(
                f"orthogonal pair ({i}, {j}) lies in no maximal clique"
            )

    for n in range(1, max_n + 1):
        witnesses: list[TropicalWitness] = []
        if exhaustive:
            pool = combinations(range(m), n)
        elif n < max_n:
            pool = _sampled_tuples(m, n, sample_per_n, rng)
        else:
            pool = None  # handled below
        if pool is not None:
            for tup in pool:
                if _section_masks(rows, [masks[i] for i in tup]) is None:
                    witnesses.append(_witness(masks, tup))
            if witnesses:
                return n, witnesses
            continue
        # Restricted top level: disjoint tuples, decided once per union,
        # plus an overlap sample.
        free: dict[int, frozenset[int] | None] = {}
        for tup, union in _disjoint_unions(masks, n):
            if union not in free:
                no_section = _section_masks(rows, [masks[i] for i in tup]) is None
                free[union] = frozenset(_bits(union)) if no_section else None
            if free[union] is not None:
                witnesses.append(TropicalWitness(tup, free[union]))
        for tup in _sampled_tuples(m, n, sample_per_n, rng):
            if any(
                masks[a] & masks[b] for a, b in combinations(tup, 2)
            ) and _section_masks(rows, [masks[i] for i in tup]) is None:
                raise AssertionError(
                    "witness with overlapping cliques found; rerun exhaustively"
                )
        if witnesses:
            return n, witnesses
    return None


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
