"""Clique and anticlique machinery on the orthogonality graph.

The enumeration kernel is an ordered backtracking over index-increasing
extensions with bitset candidate intersection; anticlique counting reuses
the same kernel on the complement graph.  The d-cliques are cached on
each configuration as bitmasks and inherited by its restrictions; the
anticlique-section search over them also decides KS colourability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rays import Configuration


@dataclass(frozen=True)
class Signature:
    """Pair of count sequences: k-cliques and k-anticliques, k >= 1.

    Both sequences are truncated at the last nonzero entry.  Two
    configurations with different signatures cannot have isomorphic
    orthogonality graphs.
    """

    cliques: tuple[int, ...]
    anticliques: tuple[int, ...]

    def rows(self) -> str:
        return (
            ", ".join(map(str, self.cliques))
            + "\n"
            + ", ".join(map(str, self.anticliques))
        )


def _size_counts(rows: tuple[int, ...] | list[int], n: int) -> list[int]:
    """Count cliques of every size in a bitset-adjacency graph.

    Returns counts[k] = number of k-cliques, counts[0] = 1 (the empty
    clique).  Recursion visits each clique exactly once in increasing
    index order.
    """
    counts = [0] * (n + 1)
    counts[0] = 1

    def rec(cand: int, size: int) -> None:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            counts[size + 1] += 1
            nxt = cand & rows[v]
            if nxt:
                rec(nxt, size + 1)

    full = (1 << n) - 1
    rec(full, 0)
    return counts


def _trim(counts: list[int]) -> tuple[int, ...]:
    last = 0
    for k, c in enumerate(counts):
        if c:
            last = k
    return tuple(counts[1 : last + 1])


def _complement_rows(config: Configuration) -> list[int]:
    full = (1 << config.n) - 1
    return [
        (~config.adj[i] & full) & ~(1 << i) for i in range(config.n)
    ]


def signature(config: Configuration) -> Signature:
    """Full clique and anticlique count sequences (cached per instance)."""
    cached = config._signature
    if cached is not None:
        return cached
    cl = _trim(_size_counts(config.adj, config.n))
    ac = _trim(_size_counts(_complement_rows(config), config.n))
    sig = Signature(cl, ac)
    object.__setattr__(config, "_signature", sig)
    return sig


def count_cliques(config: Configuration, k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    cl = signature(config).cliques
    return cl[k - 1] if k <= len(cl) else 0


def count_anticliques(config: Configuration, k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    ac = signature(config).anticliques
    return ac[k - 1] if k <= len(ac) else 0


def clique_masks(config: Configuration) -> tuple[int, ...]:
    """All cliques of size d as bitmasks, lexicographic (cached per instance).

    Every configuration in scope has clique number d; use
    :func:`is_saturated` to detect smaller dead-end cliques.
    """
    cached = config._cliques
    if cached is not None:
        return cached
    d = config.dim
    rows = config.adj
    out: list[int] = []

    def rec(cand: int, size: int, clique: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            if size + 1 == d:
                out.append(clique | low)
            else:
                nxt = cand & rows[low.bit_length() - 1]
                if nxt.bit_count() >= d - size - 1:
                    rec(nxt, size + 1, clique | low)

    rec((1 << config.n) - 1, 0, 0)
    masks = tuple(out)
    object.__setattr__(config, "_cliques", masks)
    return masks


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def maximal_cliques(config: Configuration) -> list[tuple[int, ...]]:
    """All cliques of size d, as index tuples in lexicographic order."""
    return [_bits(m) for m in clique_masks(config)]


def _section_masks(rows, masks) -> int | None:
    """Independent-transversal search over clique bitmasks.

    Returns the picked ray set as a bitmask, or None if no section
    exists.  Each node branches on the unsatisfied clique with the
    fewest candidates, ties to the lowest index, and forbids the
    neighbours of every pick.  A KS colouring is exactly a section of
    all d-cliques.
    """

    def rec(forbidden: int, picked: int) -> int | None:
        best_cand = 0
        best_cnt = None
        for mask in masks:
            if mask & picked:
                continue  # already satisfied by an earlier pick
            cand = mask & ~forbidden
            cnt = cand.bit_count()
            if cnt == 0:
                return None
            if best_cnt is None or cnt < best_cnt:
                best_cand, best_cnt = cand, cnt
                if cnt == 1:
                    break
        if best_cnt is None:
            return picked
        cand = best_cand
        while cand:
            low = cand & -cand
            cand ^= low
            got = rec(forbidden | rows[low.bit_length() - 1], picked | low)
            if got is not None:
                return got
        return None

    return rec(0, 0)


def is_saturated(config: Configuration):
    """Check that every clique of size < d extends inside the configuration.

    Returns (True, None) or (False, witness) where the witness is a
    non-extendable clique of size < d (maximal in the graph-theoretic
    sense).
    """
    d = config.dim
    rows = config.adj
    full = (1 << config.n) - 1
    stack: list[int] = []
    witness: list[tuple[int, ...]] = []

    def rec(cand: int, common: int) -> bool:
        # common = common neighbourhood of the current clique over all
        # indices; cand = index-increasing part of it.
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            stack.append(v)
            new_common = common & rows[v]
            if new_common == 0 and len(stack) < d:
                witness.append(tuple(stack))
                stack.pop()
                return False
            if not rec(cand & rows[v], new_common):
                stack.pop()
                return False
            stack.pop()
        return True

    ok = rec(full, full)
    return (True, None) if ok else (False, witness[0])


def steiner_check(config: Configuration) -> bool:
    """True iff every (d-1)-clique lies in exactly one d-clique.

    A (d-1)-clique W is contained in as many d-cliques as it has common
    neighbours, so the check is a popcount on the common neighbourhood.
    """
    d = config.dim
    rows = config.adj
    ok = True

    def rec(cand: int, common: int, size: int) -> bool:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            new_common = common & rows[v]
            if size + 1 == d - 1:
                if new_common.bit_count() != 1:
                    return False
            else:
                if not rec(cand & rows[v], new_common, size + 1):
                    return False
        return True

    full = (1 << config.n) - 1
    return rec(full, full, 0)


def capacity(config: Configuration) -> int:
    """Number of d-cliques of the configuration."""
    return len(clique_masks(config))


def max_clique_intersections(config: Configuration) -> set[int]:
    """Set of |U & U'| over distinct maximal (size-d) cliques."""
    cliques = clique_masks(config)
    sizes: set[int] = set()
    for i, a in enumerate(cliques):
        for b in cliques[i + 1 :]:
            sizes.add((a & b).bit_count())
    return sizes
