"""Shared fixtures and the naive colourability oracle used for cross-checks."""

from __future__ import annotations

import gc
import hashlib

import pytest

from ksrays import builtin
from ksrays.orthograph import maximal_cliques
from ksrays.rays import Configuration


#: Two critical sets that ``critical_reduce`` does not return: a 40-ray
#: subset of T0 (indices into T0) whose signature matches none of
#: ``critical_reduce(T0)``'s results, and a 52-ray subset of M with 56
#: cliques and no parity proof.
T0_MISSED_40 = (
    2, 3, 4, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25,
    26, 27, 29, 30, 31, 32, 33, 34, 35, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
)
M_CRITICAL_52 = (
    0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 18, 19, 21, 22, 23, 25,
    26, 27, 28, 29, 30, 32, 34, 35, 37, 38, 39, 40, 43, 44, 45, 46, 47, 48, 49,
    50, 52, 53, 54, 55, 56, 57, 58, 60, 61, 62, 63,
)


@pytest.fixture(scope="session")
def m_config() -> Configuration:
    return builtin("M")


@pytest.fixture(scope="session")
def n_config() -> Configuration:
    return builtin("N")


@pytest.fixture(scope="session")
def t0_config() -> Configuration:
    return builtin("T0")


@pytest.fixture(scope="session")
def kp40_config() -> Configuration:
    return builtin("KP40")


@pytest.fixture(scope="session")
def kp36_config() -> Configuration:
    return builtin("KP36")


def unreachable_after(call) -> int:
    """Objects the cyclic collector finds unreachable after one call,
    with the collector off while it runs.  A warm-up call fills every
    per-instance cache first, so only what the call leaves behind in
    reference cycles is counted."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def witness_digest(witnesses) -> str:
    """SHA-256 of ``repr([(w.clique_indices, sorted(w.union)) for w in
    witnesses])``, hashed one witness at a time so that the listing of
    M's 308,992 witnesses is never held whole."""
    digest = hashlib.sha256(b"[")
    rays: dict[int, str] = {}
    for k, w in enumerate(witnesses):
        if id(w.union) not in rays:
            rays[id(w.union)] = repr(sorted(w.union))
        digest.update(f"{', ' if k else ''}({w.clique_indices!r}, {rays[id(w.union)]})".encode())
    digest.update(b"]")
    return digest.hexdigest()


def independent_sets(rows, n: int):
    """All independent vertex sets as bitmasks, including the empty set."""

    def rec(mask: int, allowed: int):
        yield mask
        cand = allowed
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            yield from rec(mask | low, cand & ~rows[v])

    yield from rec(0, (1 << n) - 1)


def naive_ks_ones(config: Configuration):
    """Reference KS-colourability decision by full independent-set scan.

    Returns the 1-set of some KS colouring as a bitmask, or None when
    the configuration admits none.  Exponential; small inputs only.
    """
    cliques = [sum(1 << v for v in c) for c in maximal_cliques(config)]
    if not cliques:
        return 0
    for ones in independent_sets(config.adj, config.n):
        if all((ones & cm).bit_count() == 1 for cm in cliques):
            return ones
    return None
