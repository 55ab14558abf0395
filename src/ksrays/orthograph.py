"""Clique and anticlique machinery on the orthogonality graph.

Clique counts of every size come from a pivot tree over bitset
candidate sets, whose leaves each stand for a binomial row of cliques;
anticlique counting runs it on the complement graph.  One k-clique
walker, an ordered backtracking over index-increasing extensions, lists the
d-cliques and the Pauli parity tuples and checks the Steiner property; the
tropical top level walks its disjoint clique tuples by union.  The d-cliques are
cached on each configuration as bitmasks and inherited by its
restrictions, which find them through the per-ray clique-incidence
bitsets (:func:`_inside_cliques`); the exact-hit search over them finds
anticlique sections, KS colourings and the colour classes of partition
colourings.  Saturation is decided by a pivoting Bron–Kerbosch walk over
the maximal cliques.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, repeat
from math import comb
from operator import and_, or_, rshift

from .rays import Configuration, _bit_flags


@dataclass(frozen=True)
class Signature:
    """Pair of count sequences: k-cliques and k-anticliques, k >= 1.

    Both sequences are truncated at the last nonzero entry.  Two
    configurations with different signatures cannot have isomorphic
    orthogonality graphs.
    """

    cliques: tuple[int, ...]
    anticliques: tuple[int, ...]


@cache
def _binomial_row(q: int) -> tuple[int, ...]:
    """C(q, j) for j = 0..q."""
    return tuple(comb(q, j) for j in range(q + 1))


def _size_counts(rows: tuple[int, ...] | list[int], cand: int) -> list[int]:
    """Count cliques of every size inside the vertex bitmask cand of a
    bitset-adjacency graph.

    Returns counts[k] = number of k-cliques, counts[0] = 1 (the empty
    clique), for k up to the size of cand.  The walk is the pivot tree of
    Jain & Seshadhri, *The Power of Pivoting for Exact Clique Counting*
    (WSDM 2020).  A node holds h rays that every clique below it
    contains and q pivots that each clique may take or leave.  Its
    lowest candidate p becomes the next pivot: the cliques whose other
    rays all lie in p's neighbourhood are counted by one child on
    cand & rows[p].  Every other clique has a first candidate u outside
    that neighbourhood, so each such u in turn is held for one child on
    the candidates still left that are adjacent to u.  A leaf, a node
    with no candidates, stands for C(q, j) cliques of each size h + j,
    and each clique lies under exactly one leaf.  Leaves are tallied by
    (h, q) and expanded into binomial rows once at the end.
    """
    if not cand:
        return [1]
    stride = cand.bit_count() + 1
    tally = [0] * (stride * stride)  # tally[h * stride + q]: leaves seen
    # Nodes wait on a stack as (candidates, h * stride + q); the order in
    # which they are expanded does not change the tally.
    stack = [(cand, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        cand, key = pop()
        low = cand & -cand
        row = rows[low.bit_length() - 1]
        nxt = cand & row
        if nxt:
            push((nxt, key + 1))
        else:
            tally[key + 1] += 1
        rest = cand & ~row ^ low
        key += stride
        while rest:
            u = rest & -rest
            rest ^= u
            cand ^= u
            nxt = cand & rows[u.bit_length() - 1]
            if nxt:
                push((nxt, key))
            else:
                tally[key] += 1
    counts = [0] * stride
    for key in compress(range(len(tally)), tally):
        held, pivots = divmod(key, stride)
        leaves = tally[key]
        for k, c in enumerate(_binomial_row(pivots), held):
            counts[k] += leaves * c
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
    full = (1 << config.n) - 1
    cl = _trim(_size_counts(config.adj, full))
    ac = _trim(_size_counts(_complement_rows(config), full))
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


def _walk_cliques(rows, k: int, weights, emit) -> None:
    """Call emit once per k-clique of the bitset graph rows, in
    lexicographic order of index tuples, with the OR of weights over it.

    Each level stops once fewer candidates remain than picks still
    needed, and the last two picks are the edges inside the candidate
    set.  The empty clique (k = 0) is emitted as 0.
    """

    def rec(cand: int, need: int, acc: int) -> None:
        left = cand.bit_count()
        if need == 2:
            while left > 1:
                low = cand & -cand
                cand ^= low
                left -= 1
                v = low.bit_length() - 1
                base = acc | weights[v]
                nxt = cand & rows[v]
                while nxt:
                    pick = nxt & -nxt
                    nxt ^= pick
                    emit(base | weights[pick.bit_length() - 1])
            return
        while left >= need:
            low = cand & -cand
            cand ^= low
            left -= 1
            v = low.bit_length() - 1
            nxt = cand & rows[v]
            if nxt.bit_count() >= need - 1:
                rec(nxt, need - 1, acc | weights[v])

    try:
        if k == 0:
            emit(0)
        elif k == 1:
            for w in weights:
                emit(w)
        else:
            rec((1 << len(rows)) - 1, k, 0)
    finally:
        del rec  # the closure refers to itself: break the cycle


def clique_masks(config: Configuration) -> tuple[int, ...]:
    """All cliques of size d as bitmasks, lexicographic (cached per instance).

    Every configuration in scope has clique number d; use
    :func:`is_saturated` to detect smaller dead-end cliques.
    """
    cached = config._cliques
    if cached is not None:
        return cached
    out: list[int] = []
    if config.dim:
        weights = [1 << v for v in range(config.n)]
        _walk_cliques(config.adj, config.dim, weights, out.append)
    masks = tuple(out)
    object.__setattr__(config, "_cliques", masks)
    return masks


#: _FLAG_OF_BIT[k] maps a byte to b"1" if its bit k is set, else b"0".
_FLAG_OF_BIT = tuple(
    bytes(49 if b >> k & 1 else 48 for b in range(256)) for k in range(8)
)
_LIMB_MASK = (1 << 64) - 1
#: XOR with a byte's place in a little-endian limb gives its place in
#: the native array("Q") layout.
_NATIVE_BYTE = 0 if sys.byteorder == "little" else 7


def clique_incidence(config: Configuration) -> tuple[int, ...]:
    """Per-ray bitsets over the d-cliques (cached per instance).

    Bit j of entry v is set iff ray v lies in clique_masks(config)[j].
    Limb k of every mask goes into one array("Q"), so the byte holding
    ray v recurs every 8 bytes of limb v >> 6; translating that byte
    slice to "0"/"1" by bit v & 7 gives the bitset's binary digits.
    The arrays are filled from iterators, which keeps the transient
    memory at about one buffer per limb.
    """
    cached = config._incidence
    if cached is not None:
        return cached
    masks = clique_masks(config)
    limbs = []
    for k in range(-(-config.n // 64)):
        limb = map(and_, map(rshift, masks, repeat(64 * k)), repeat(_LIMB_MASK))
        limbs.append(array("Q", limb).tobytes())
    bitsets = []
    for v in range(config.n):
        column = limbs[v >> 6][(v >> 3 & 7) ^ _NATIVE_BYTE :: 8]
        bitsets.append(int(column.translate(_FLAG_OF_BIT[v & 7])[::-1] or b"0", 2))
    out = tuple(bitsets)
    object.__setattr__(config, "_incidence", out)
    return out


def _inside_cliques(config: Configuration, keep: int) -> int:
    """Bitset over clique_masks(config): bit j is set iff clique j lies
    inside the ray set keep, that is, none of its rays was dropped.  It
    is the complement of the OR of the dropped rays' incidence bitsets."""
    dropped = compress(clique_incidence(config), _bit_flags(~keep, config.n))
    return ~reduce(or_, dropped, 0) & ((1 << len(clique_masks(config))) - 1)


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _clique_mates(config: Configuration) -> list[int]:
    """Per ray, the ray itself and every ray sharing a d-clique with it."""
    mates = [1 << v for v in range(config.n)]
    for mask in clique_masks(config):
        for v in _bits(mask):
            mates[v] |= mask
    return mates


def maximal_cliques(config: Configuration) -> list[tuple[int, ...]]:
    """All cliques of size d, as index tuples in lexicographic order."""
    return [_bits(m) for m in clique_masks(config)]


def _section_masks(rows, masks, quota: int = 1, leaf=None) -> int | None:
    """Exact-hit search: a ray set meeting every mask in exactly quota
    rays, as a bitmask, or None (TAOCP 7.2.2.1, Algorithm M).

    A pick v forbids rows[v]: its neighbours for an anticlique section
    (a KS colouring is a section of all d-cliques), its clique-mates for
    a colour class of one ray per clique, and v itself for larger
    quotas, whose hits are counted.  A quota-1 clique that is hit needs
    no count, as rows[v] has forbidden its other rays.  A clique's key
    is its free rays plus its hits: an overfull clique or a key below
    the quota fails the node, a full clique forbids its free rays, and a
    key equal to the quota forces the clique.  Each node branches on the
    clique with the lowest key, ties to the lowest index, and a failed
    candidate is forbidden to its later siblings.  ``leaf(picked)`` may
    reject a complete set, and the search then goes on.
    """

    # The constants ride as defaults (top lies above every key): the loop
    # reads them as fast locals, which matters for the many calls on a
    # handful of cliques.
    def rec(out: int, picked: int, masks=masks, rows=rows, quota=quota,
            count=quota > 1, top=quota + len(rows), leaf=leaf) -> int | None:
        free_of = ~out
        best = 0
        best_key = top
        for mask in masks:
            if mask & picked:
                if not count:
                    continue
                key = (mask & picked).bit_count()
                if key >= quota:
                    if key > quota:
                        return None
                    if mask & free_of:
                        out |= mask
                        free_of = ~out
                    continue
                free = mask & free_of
                key += free.bit_count()
            else:
                free = mask & free_of
                key = free.bit_count()
            if key <= quota:
                if key < quota:
                    return None
                best = free
                break
            if key < best_key:
                best, best_key = free, key
        if not best:
            return picked if leaf is None or leaf(picked) else None
        while best:
            low = best & -best
            best ^= low
            got = rec(out | rows[low.bit_length() - 1], picked | low)
            if got is not None:
                return got
            out |= low
        return None

    try:
        return rec(0, 0)
    finally:
        del rec  # the closure refers to itself: break the cycle


def _gf2_reduce(pivots: dict[int, tuple[int, int]], row: int, combo: int = 0):
    """Reduce a bit row by the pivots, XORing their combinations into
    combo; the row comes back zero iff it lies in the pivots' span."""
    while row and (hit := pivots.get(row.bit_length() - 1)):
        row, combo = row ^ hit[0], combo ^ hit[1]
    return row, combo


def _gf2_eliminate(rows) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Gaussian elimination over GF(2) on Python-int bit rows.

    Returns (pivots, kernel).  pivots maps each leading bit, in the order
    the inputs became pivots, to its reduced row and the combination
    (bitmask over input indices) that produced it.  kernel holds the
    combinations that reduced an input to zero: a basis of all zero sums.
    ``_gf2_reduce(pivots, t)`` solves for a target t.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, row in enumerate(rows):
        row, combo = _gf2_reduce(pivots, row, 1 << i)
        if row:
            pivots[row.bit_length() - 1] = (row, combo)
        else:
            kernel.append(combo)
    return pivots, kernel


def is_saturated(config: Configuration):
    """Check that every clique of size < d extends inside the configuration.

    Returns (True, None) or (False, witness) where the witness is a
    non-extendable clique of size < d (maximal in the graph-theoretic
    sense), as sorted indices.

    Saturation means no maximal clique has fewer than d rays, so this is
    a Bron–Kerbosch walk over the maximal cliques (CACM 1973) that stops
    at the first small one.  A node holds the clique R, the candidates P
    and the excluded rays X, whose union is R's common neighbourhood.
    It branches only on the candidates outside one pivot's neighbourhood
    (Tomita, Tanaka & Takahashi, TCS 2006); the pivot is the lowest ray
    of X, or of P when X is empty, which measured faster here than the
    pivot with the most neighbours in P.  A node is entered only while
    |R| + 1 < d: every maximal clique through a node with candidates left
    has more rays than R.
    """
    d = config.dim
    rows = config.adj
    witness: list[int] = []

    def rec(clique: int, size: int, p: int, x: int) -> bool:
        pivot = x or p
        cand = p & ~rows[(pivot & -pivot).bit_length() - 1]
        while cand:
            low = cand & -cand
            cand ^= low
            row = rows[low.bit_length() - 1]
            if p & row:
                if size + 2 < d and not rec(clique | low, size + 1, p & row, x & row):
                    return False
            elif not x & row:
                witness.append(clique | low)
                return False
            p ^= low
            x |= low
        return True

    try:
        if config.n and d > 1 and not rec(0, 0, (1 << config.n) - 1, 0):
            return False, _bits(witness[0])
        return True, None
    finally:
        del rec  # the closure refers to itself: break the cycle


def steiner_check(config: Configuration) -> bool:
    """True iff every (d-1)-clique lies in exactly one d-clique.

    A (d-1)-clique W is contained in as many d-cliques as it has common
    neighbours.  The walker ORs the complements of W's rows, which is
    the complement of that common neighbourhood, so the check is a
    popcount.  For d = 1 the one 0-clique lies in every ray, so the
    check holds iff there is exactly one ray; an empty configuration
    passes.
    """
    full = (1 << config.n) - 1
    if not full:
        return True
    accs: set[int] = set()
    _walk_cliques(config.adj, config.dim - 1, [full & ~row for row in config.adj], accs.add)
    return all((full & ~acc).bit_count() == 1 for acc in accs)


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
