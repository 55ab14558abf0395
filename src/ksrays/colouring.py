"""Decision procedures for KS and partition-compatible colourings.

KS colourability is decided by the anticlique-section search of
:mod:`orthograph`: one ray per maximal clique is chosen to carry the
value 1, orthogonal rays are forced to 0, and the search backtracks over
the most-constrained clique first.
A naive alternative, enumerating every independent set and testing the
one-per-clique condition, is equivalent but far larger; the two are
cross-checked in the test suite on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rays import Configuration
from .orthograph import (
    Signature,
    _section_masks,
    clique_masks,
    maximal_cliques,
    signature,
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
    """True iff the configuration admits no KS colouring."""
    return _section_masks(config.adj, clique_masks(config)) is None


def is_critical(config: Configuration) -> bool:
    """True iff non-colourable and every single-ray deletion is colourable."""
    if not is_ks_configuration(config):
        return False
    return all(
        not is_ks_configuration(config.delete(i)) for i in range(config.n)
    )


def verify_partition_colouring(config: Configuration, colouring: Colouring) -> bool:
    """Check the per-clique colour counts against the colouring's partition."""
    if len(colouring.values) != config.n:
        raise ValueError("colouring is not total on the configuration")
    part = colouring.partition
    for clique in maximal_cliques(config):
        counts = [0] * len(part)
        for v in clique:
            c = colouring.values[v]
            if c >= len(part):
                return False
            counts[c] += 1
        if tuple(counts) != part:
            return False
    return True


def find_partition_colouring(
    config: Configuration, partition
) -> Colouring | None:
    """A colouring compatible with the partition, or None (exhaustive).

    Backtracks over rays in a clique-grouped order with per-clique
    colour-count bookkeeping; colours of equal multiplicity are
    symmetry-broken by order of first use.
    """
    part = _check_partition(partition, config.dim)
    s = len(part)
    cliques = maximal_cliques(config)
    n = config.n

    # Process rays so that cliques complete early: walk the cliques in
    # order and append unseen members.
    order: list[int] = []
    seen = [False] * n
    for c in cliques:
        for v in c:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    for v in range(n):
        if not seen[v]:
            order.append(v)

    member_cliques: list[list[int]] = [[] for _ in range(n)]
    for ci, c in enumerate(cliques):
        for v in c:
            member_cliques[v].append(ci)

    counts = [[0] * s for _ in cliques]
    values = [-1] * n

    def rec(pos: int, used: int) -> bool:
        if pos == len(order):
            return all(tuple(counts[ci]) == part for ci in range(len(cliques)))
        v = order[pos]
        for a in range(s):
            # Symmetry break: a colour of the same multiplicity as its
            # predecessor may only appear after the predecessor has.
            if a > 0 and part[a] == part[a - 1] and not (used >> (a - 1)) & 1:
                continue
            ok = True
            for ci in member_cliques[v]:
                counts[ci][a] += 1
                if counts[ci][a] > part[a]:
                    ok = False
            if ok:
                values[v] = a
                if rec(pos + 1, used | (1 << a)):
                    return True
                values[v] = -1
            for ci in member_cliques[v]:
                counts[ci][a] -= 1
        return False

    if rec(0, 0):
        for v in range(n):
            if values[v] < 0:
                values[v] = 0
        return Colouring(tuple(values), part)
    return None


def critical_reduce(parent: Configuration) -> CriticalReport:
    """Signature-based reduction of a KS configuration to critical ones.

    Each round deletes every ray of every current representative and
    keeps the non-colourable results.  All survivors of the round are
    grouped together by full signature and the first representative of
    each class (parents in order, deleted index increasing) is carried
    into the next round.  Representatives with no non-colourable
    deletion are critical and are moved to the result list.
    Deterministic by construction.
    """
    if not is_ks_configuration(parent):
        raise ValueError("input configuration admits a KS colouring")

    start = tuple(range(parent.n))
    current: list[tuple[int, ...]] = [start]
    iterations: list[ReductionStep] = []
    results: list[tuple[int, ...]] = []
    colourable: dict[tuple[int, ...], bool] = {}

    def ks(indices: tuple[int, ...]) -> bool:
        got = colourable.get(indices)
        if got is None:
            got = is_ks_configuration(parent.restrict(indices))
            colourable[indices] = got
        return got

    while current:
        per_parent: list[int] = []
        finished: list[tuple[int, ...]] = []
        by_sig: dict[Signature, tuple[int, ...]] = {}
        for rep in current:
            bad = [
                child
                for k in range(len(rep))
                if ks(child := rep[:k] + rep[k + 1:])
            ]
            per_parent.append(len(bad))
            if not bad:
                if rep not in results:
                    results.append(rep)
                finished.append(rep)
                continue
            for child in bad:
                sig = signature(parent.restrict(child))
                if sig not in by_sig:
                    by_sig[sig] = child
        reps = list(by_sig.values())
        iterations.append(
            ReductionStep(
                parents=list(current),
                survivors_per_parent=per_parent,
                survivors=sum(per_parent),
                signature_classes=len(by_sig),
                representatives=reps,
                finished=finished,
            )
        )
        current = reps

    return CriticalReport(start, iterations, sorted(results))
