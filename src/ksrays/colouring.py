"""Decision procedures for KS and partition-compatible colourings.

A KS colouring is an anticlique section of all d-cliques: one ray per
clique carries the value 1 and its orthogonal rays are forced to 0.  A
colouring of a partition is one exact-hit search of :mod:`orthograph`
per colour class, each class meeting every clique in exactly its part's
number of rays.  A KS colouring is a (d-1, 1) colouring, so "no KS
colouring", like "no colouring" of any partition with an odd part, is
first tried as a GF(2) parity proof: a sound certificate, cheaper than
the search.  The exact-hit search decides whenever no proof exists.  A
naive alternative, enumerating every independent set and testing the
one-per-clique condition, is equivalent but far larger; the two are
cross-checked in the test suite on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .rays import Configuration
from .orthograph import (
    _bits,
    _clique_mates,
    _clique_polys,
    _complement_rows,
    _deletion_polys,
    _gf2_eliminate,
    _gf2_reduce,
    _section_masks,
    clique_masks,
)


@dataclass(frozen=True)
class Colouring:
    """Total colour assignment together with the partition it realizes.

    values[i] is the colour of ray i; partition is non-increasing and
    sums to the dimension.  A KS colouring uses partition (d-1, 1) with
    colour 1 on the distinguished rays.
    """

    values: tuple[int, ...]
    partition: tuple[int, ...]

    def ones(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values) if v == 1)


@dataclass
class ReductionStep:
    """One deletion round over all current representatives."""

    parents: list[tuple[int, ...]]
    survivors_per_parent: list[int]
    survivors: int  # m: non-colourable deletions, summed over parents
    signature_classes: int  # k: distinct signatures among all survivors
    representatives: list[tuple[int, ...]] = field(default_factory=list)
    finished: list[tuple[int, ...]] = field(default_factory=list)  # critical parents


@dataclass
class CriticalReport:
    """Trace of the signature-based reduction to critical configurations."""

    start: tuple[int, ...]
    iterations: list[ReductionStep]
    results: list[tuple[int, ...]]  # index sets into the starting config


def _check_partition(partition, d: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in partition)
    if len(p) < 2:
        raise ValueError("partition needs at least 2 parts")
    if any(x <= 0 for x in p):
        raise ValueError("partition parts must be positive")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition must be non-increasing")
    if sum(p) != d:
        raise ValueError(f"partition must sum to the dimension {d}")
    return p


def find_ks_colouring(config: Configuration) -> Colouring | None:
    """A KS colouring of the configuration, or None (exhaustive search).

    The returned witness is the first found in deterministic
    clique/ray-index order.
    """
    got = _section_masks(config.adj, clique_masks(config))
    if got is None:
        return None
    values = tuple((got >> i) & 1 for i in range(config.n))
    return Colouring(values, (config.dim - 1, 1))


def is_ks_configuration(config: Configuration) -> bool:
    """True iff the configuration admits no KS colouring: at once when a
    :func:`parity_proof` exists, else by exhaustive search."""
    masks = clique_masks(config)
    return bool(_parity_combo(masks, config.n)) or _section_masks(config.adj, masks) is None


def is_critical(config: Configuration) -> bool:
    """True iff non-colourable and every single-ray deletion is colourable."""
    if not is_ks_configuration(config):
        return False
    masks = clique_masks(config)
    return all(
        _section_masks(config.adj, [c for c in masks if not c >> i & 1]) is not None
        for i in range(config.n)
    )


def verify_partition_colouring(config: Configuration, colouring: Colouring) -> bool:
    """Check the per-clique colour counts against the colouring's partition."""
    if len(colouring.values) != config.n:
        raise ValueError("colouring is not total on the configuration")
    part = colouring.partition
    # A ray with a colour outside the partition joins no class, so each
    # clique through it falls short of its part counts.
    classes = [0] * len(part)
    for v, c in enumerate(colouring.values):
        if 0 <= c < len(part):
            classes[c] |= 1 << v
    return all(
        (mask & cls).bit_count() == p
        for mask in clique_masks(config)
        for cls, p in zip(classes, part)
    )


def parity_proof(config: Configuration) -> tuple[int, ...] | None:
    """An odd set of clique indices covering every ray an even number of
    times, or None.  It refutes every colouring with an odd part: that
    colour's indicator sums to 1 mod 2 on each clique, so its sum over
    the set is 1, yet the set counts each ray an even number of times.
    """
    return _bits(_parity_combo(clique_masks(config), config.n)) or None


def _parity_combo(masks, n: int) -> int:
    """A parity proof over the masks as a bitmask of their indices, or 0."""
    rhs = 1 << n  # the right-hand side, 1, of every clique row
    pivots, _ = _gf2_eliminate([m | rhs for m in masks])
    rest, combo = _gf2_reduce(pivots, rhs)
    return 0 if rest else combo


def find_partition_colouring(
    config: Configuration, partition
) -> Colouring | None:
    """A colouring compatible with the partition, or None (exhaustive).

    A :func:`parity_proof` refutes any partition with an odd part at
    once.  Otherwise colour j's rays are one exact-hit search of quota
    part[j] over the clique masks minus the rays already coloured, from
    the last part down to the second; each class found starts the search
    for the next, and the first part takes whatever rays remain.  A pick
    forbids its clique-mates in a class of one ray per clique, and only
    itself in a larger one.  Classes of one size are symmetric, so each
    must start above the lowest ray of the class found before it.
    """
    part = _check_partition(partition, config.dim)
    if any(p % 2 for p in part) and parity_proof(config) is not None:
        return None
    masks = clique_masks(config)
    selves = [1 << v for v in range(config.n)]
    mates = _clique_mates(config)
    classes = [0] * len(part)

    def colour(j: int, coloured: int, floor: int) -> bool:
        if j == 0:
            return True

        def leaf(picked: int) -> bool:
            classes[j] = picked
            low = picked ^ (picked - 1) if part[j - 1] == part[j] else 0
            return colour(j - 1, coloured | picked, low)

        rest = [mask & ~(coloured | floor) for mask in masks]
        rows = mates if part[j] == 1 else selves
        return _section_masks(rows, rest, part[j], leaf) is not None

    try:
        if not colour(len(part) - 1, 0, 0):
            return None
    finally:
        del colour  # the closure refers to itself: break the cycle
    values = [0] * config.n
    for j, picked in enumerate(classes):
        for v in _bits(picked):
            values[v] = j
    return Colouring(tuple(values), part)


def critical_reduce(parent: Configuration) -> CriticalReport:
    """Signature-based reduction of a KS configuration to critical ones.

    Each round deletes every ray of every current representative and
    keeps the non-colourable results.  All survivors of the round are
    grouped together by full signature and the first representative of
    each class (parents in order, deleted index increasing) is carried
    into the next round.  Representatives with no non-colourable
    deletion are critical and are moved to the result list.
    Deterministic by construction.

    Children are keep-masks over the input, tested on its clique masks:
    none is built or recounted.  Counts are packed clique polynomials
    (:func:`orthograph._clique_polys`) with one memo per side for the
    whole call, so the input's counts and every child's through-counts
    share their subproblems.  A child's counts are its parent's minus
    those through the deleted ray (:func:`orthograph._deletion_polys`),
    and the packed (clique, anticlique) pair keys the grouping as it is.

    A subset of a colourable set is colourable: a section of P - w cut
    to the rays of P - w - v is a section of P - w - v.  So for a
    representative rep = P - w, a child rep - v needs a search only if
    P - v was non-colourable; every other child is colourable at once.
    Each representative carries its parent's non-colourable deletions
    as its suspects (every ray in the first round), and only those are
    decided.

    A suspect is first tried as a parity proof, and searched only when it
    has none.  The rays a proof's cliques cover are kept as its support
    for the rest of the call: a child holding a whole support holds every
    clique of that proof, so it is non-colourable with no further work.
    """
    if not is_ks_configuration(parent):
        raise ValueError("input configuration admits a KS colouring")

    adj, comp = parent.adj, _complement_rows(parent)
    adj_memo: dict[int, int] = {}
    comp_memo: dict[int, int] = {}
    masks = clique_masks(parent)
    full = (1 << parent.n) - 1
    supports: list[int] = []
    # Representatives carry their suspects and packed (clique,
    # anticlique) counts; a round's children share one size, so equal
    # counts are equal signatures.
    [cl] = _clique_polys(adj, [full], adj_memo)
    [ac] = _clique_polys(comp, [full], comp_memo)
    current = [(full, full, (cl, ac))]
    iterations: list[ReductionStep] = []
    results: set[int] = set()
    noncolourable: dict[int, bool] = {}

    while current:
        per_parent: list[int] = []
        finished: list[tuple[int, ...]] = []
        by_sig: dict[tuple, tuple[int, int]] = {}
        for rep, suspects, (cl, ac) in current:
            inside = [m for m in masks if m & rep == m]
            bad = 0
            for v in _bits(rep & suspects):
                child = rep ^ (1 << v)
                if child not in noncolourable and not any(not u & ~child for u in supports):
                    kept = [m for m in inside if not m >> v & 1]
                    combo = _parity_combo(kept, parent.n)
                    if combo:
                        supports.append(reduce(or_, [kept[i] for i in _bits(combo)]))
                    noncolourable[child] = bool(combo) or _section_masks(adj, kept) is None
                # A child with no verdict holds a stored support.
                if noncolourable.get(child, True):
                    bad |= 1 << v
            per_parent.append(bad.bit_count())
            if not bad:
                results.add(rep)
                finished.append(_bits(rep))
            deleted = _bits(bad)
            sigs = zip(
                _deletion_polys(adj, rep, deleted, cl, adj_memo),
                _deletion_polys(comp, rep, deleted, ac, comp_memo),
            )
            for v, sig in zip(deleted, sigs):
                by_sig.setdefault(sig, (rep ^ (1 << v), bad))
        iterations.append(
            ReductionStep(
                parents=[_bits(rep) for rep, _, _ in current],
                survivors_per_parent=per_parent,
                survivors=sum(per_parent),
                signature_classes=len(by_sig),
                representatives=[_bits(child) for child, _ in by_sig.values()],
                finished=finished,
            )
        )
        current = [(child, bad, sig) for sig, (child, bad) in by_sig.items()]

    return CriticalReport(_bits(full), iterations, sorted(_bits(r) for r in results))
