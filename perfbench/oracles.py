"""Exact reference computations that share no code with ``ksrays``.

Rays are tuples of ``(re, im)`` integer pairs.  Orthogonality comes from
exact Gaussian-integer inner products; everything else is plain
enumeration over that relation, written for clarity rather than speed.
Ray sets and clique sets are Python-int bitmasks over ray indices.
"""

from __future__ import annotations

import math
from fractions import Fraction


def inner(x, y) -> tuple[int, int]:
    """<x, y> = sum of conj(x_k) * y_k, as an exact (re, im) pair."""
    re = im = 0
    for (a, b), (c, d) in zip(x, y, strict=True):
        re += a * c + b * d
        im += a * d - b * c
    return re, im


def orthogonality(vectors) -> list[int]:
    """Row i has bit j set iff rays i and j are orthogonal."""
    n = len(vectors)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if inner(vectors[i], vectors[j]) == (0, 0):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def mask(indices) -> int:
    return sum(1 << i for i in set(indices))


def cliques(rows: list[int], d: int, within: int | None = None) -> list[tuple[int, ...]]:
    """All d-cliques inside ``within`` (default: every ray), lexicographic."""
    verts = bits(within) if within is not None else list(range(len(rows)))
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], cands: list[int]) -> None:
        if len(clique) == d:
            out.append(tuple(clique))
            return
        for k, v in enumerate(cands):
            if len(clique) + len(cands) - k < d:
                return
            extend(clique + [v], [w for w in cands[k + 1:] if (rows[v] >> w) & 1])

    extend([], verts)
    return out


def size_counts(rows: list[int], within: int, complement: bool = False) -> tuple[int, ...]:
    """Number of k-cliques (or k-anticliques) inside ``within``, k >= 1."""
    verts = bits(within)
    counts: dict[int, int] = {}

    def related(v: int, w: int) -> bool:
        return bool((rows[v] >> w) & 1) != complement

    def extend(size: int, cands: list[int]) -> None:
        for k, v in enumerate(cands):
            counts[size + 1] = counts.get(size + 1, 0) + 1
            extend(size + 1, [w for w in cands[k + 1:] if related(v, w)])

    extend(0, verts)
    return tuple(counts[k] for k in range(1, max(counts) + 1))


def independent_sets(rows: list[int], within: int) -> list[int]:
    """Every set of pairwise non-orthogonal rays inside ``within``."""
    out: list[int] = []

    def extend(chosen: int, cands: list[int]) -> None:
        out.append(chosen)
        for k, v in enumerate(cands):
            extend(chosen | (1 << v), [w for w in cands[k + 1:] if not (rows[v] >> w) & 1])

    extend(0, bits(within))
    return out


def ks_colouring(indep: list[int], clique_masks: list[int], avoid: int = 0) -> int | None:
    """Naive KS oracle: an independent set, disjoint from ``avoid``, that
    meets every clique exactly once; None if there is none."""
    for ones in indep:
        if ones & avoid:
            continue
        if all((ones & c).bit_count() == 1 for c in clique_masks):
            return ones
    return None


def noncolourable_deletions(rows: list[int], d: int, within: int) -> list[int]:
    """Rays v of ``within`` whose deletion leaves a set with no KS colouring."""
    indep = independent_sets(rows, within)
    cl = [mask(c) for c in cliques(rows, d, within)]
    out = []
    for v in bits(within):
        kept = [c for c in cl if not (c >> v) & 1]
        if ks_colouring(indep, kept, avoid=1 << v) is None:
            out.append(v)
    return out


def is_critical(rows: list[int], d: int, within: int) -> bool:
    """No KS colouring, and every single-ray deletion has one."""
    indep = independent_sets(rows, within)
    cl = [mask(c) for c in cliques(rows, d, within)]
    if ks_colouring(indep, cl) is not None:
        return False
    return all(
        ks_colouring(indep, [c for c in cl if not (c >> v) & 1], avoid=1 << v) is not None
        for v in bits(within)
    )


def section(rows: list[int], clique_list) -> tuple[int, ...] | None:
    """One ray per clique, in the given clique order, pairwise
    non-orthogonal; None if no such choice exists."""
    picks: list[int] = []

    def extend(k: int) -> bool:
        if k == len(clique_list):
            return True
        for v in clique_list[k]:
            if all(v == p or not (rows[v] >> p) & 1 for p in picks):
                picks.append(v)
                if extend(k + 1):
                    return True
                picks.pop()
        return False

    return tuple(picks) if extend(0) else None


def check_section(rows: list[int], clique_list, chosen) -> bool:
    """``chosen`` meets every clique exactly once and has no orthogonal pair."""
    chosen = set(chosen)
    if any(len(chosen & set(c)) != 1 for c in clique_list):
        return False
    if not chosen <= set().union(*map(set, clique_list)):
        return False
    return all(not (rows[v] >> w) & 1 for v in chosen for w in chosen)


def check_partition_colouring(clique_list, values, partition) -> bool:
    """Every clique carries colour a exactly partition[a] times."""
    for c in clique_list:
        counts = [0] * len(partition)
        for v in c:
            if not 0 <= values[v] < len(partition):
                return False
            counts[values[v]] += 1
        if tuple(counts) != tuple(partition):
            return False
    return True


class CliqueIndex:
    """The parent's cliques, indexed by ray for containment counting."""

    def __init__(self, clique_masks: list[int], n: int):
        self.masks = clique_masks
        self.size = len(clique_masks)
        self.touching = [0] * n  # ray -> set of cliques through it
        for k, c in enumerate(clique_masks):
            for v in bits(c):
                self.touching[v] |= 1 << k

    def capacity(self, rayset: int) -> int:
        """Number of cliques inside ``rayset``: those touching no ray
        outside it."""
        outside = 0
        for v, t in enumerate(self.touching):
            if not (rayset >> v) & 1:
                outside |= t
        return self.size - outside.bit_count()


def covers(clique_masks: list[int], target: int, parts: int) -> set[tuple[int, ...]]:
    """Every set of ``parts`` pairwise-disjoint cliques whose union is
    ``target``, as sorted tuples of clique indices."""
    inside = [k for k, c in enumerate(clique_masks) if c & ~target == 0]
    out: set[tuple[int, ...]] = set()

    def extend(chosen: list[int], left: int) -> None:
        if not left:
            if len(chosen) == parts:
                out.add(tuple(sorted(chosen)))
            return
        if len(chosen) == parts:
            return
        low = left & -left
        for k in inside:
            c = clique_masks[k]
            if c & low and c & ~left == 0:
                extend(chosen + [k], left & ~c)

    extend([], target)
    return out


def check_witnesses(claimed: list[tuple[int, ...]], expected: set[tuple[int, ...]]) -> bool:
    """The claimed witness list is exactly the expected set, no repeats."""
    claimed = [tuple(sorted(w)) for w in claimed]
    return len(claimed) == len(set(claimed)) and set(claimed) == expected


def clique_entropy(values) -> float:
    return -sum(float(p) * math.log(p) for p in values if p)


def check_probability_weight(clique_list, values) -> bool:
    """Exact: rational values in [0, 1], every clique summing to 1."""
    if not all(isinstance(v, Fraction) and 0 <= v <= 1 for v in values):
        return False
    return all(sum(values[v] for v in c) == 1 for c in clique_list)


# --- Pauli words as 8x8 integer matrices ------------------------------

_LETTER = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, 1), (-1, 0)),
    "Z": ((1, 0), (0, -1)),
}


def word_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """Tensor product of real 2x2 letters; letter k acts on index bit k."""
    dim = 1 << len(text)
    return tuple(
        tuple(
            math.prod(_LETTER[ch][(i >> k) & 1][(j >> k) & 1] for k, ch in enumerate(text))
            for j in range(dim)
        )
        for i in range(dim)
    )


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def edge_sign(matrices) -> int | None:
    """s if the matrices commute pairwise and multiply to s * identity."""
    for i, a in enumerate(matrices):
        for b in matrices[i + 1:]:
            if matmul(a, b) != matmul(b, a):
                return None
    prod = matrices[0]
    for m in matrices[1:]:
        prod = matmul(prod, m)
    dim = len(prod)
    for s in (1, -1):
        if all(prod[i][j] == (s if i == j else 0) for i in range(dim) for j in range(dim)):
            return s
    return None


def check_parity_proof(edges, edge_sign_of) -> bool:
    """An odd number of negative edges, every vertex of even degree, and
    every recorded sign equal to the product sign."""
    degree: dict[int, int] = {}
    negatives = 0
    for members, sign in edges:
        if edge_sign_of(tuple(members)) != sign:
            return False
        negatives += sign < 0
        for v in members:
            degree[v] = degree.get(v, 0) + 1
    return negatives % 2 == 1 and all(x % 2 == 0 for x in degree.values())
