"""Clique/anticlique counting, saturation, and derived graph quantities.

Counts produced by the bitset backtracking kernel are cross-checked
against brute-force subset enumeration on small configurations.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ksrays import builtin
from ksrays.rays import Configuration, make_ray
from ksrays.orthograph import (
    Signature,
    capacity,
    clique_masks,
    count_anticliques,
    count_cliques,
    is_saturated,
    max_clique_intersections,
    maximal_cliques,
    signature,
    steiner_check,
)


def brute_clique_counts(config: Configuration) -> list[int]:
    """Clique counts by direct subset enumeration; exponential."""
    counts = [0] * (config.dim + 1)
    for k in range(1, config.dim + 1):
        for sub in combinations(range(config.n), k):
            if all(
                (config.adj[i] >> j) & 1 for i, j in combinations(sub, 2)
            ):
                counts[k] += 1
    return counts[1:]


def small_configs(
    seed: int, count: int, m: Configuration, low: int = 2, high: int = 12,
    chain: bool = False,
):
    """Seeded random restrictions of m with low..high rays.

    With chain, each is followed by a restriction of it and by a
    two-step deletion chain from it.
    """
    import random

    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(low, high)
        sub = m.restrict(rng.sample(range(m.n), size))
        yield sub
        if chain:
            yield sub.restrict(
                rng.sample(range(sub.n), rng.randint(sub.n // 2, sub.n))
            )
            first = sub.delete(rng.randrange(sub.n))
            yield first.delete(rng.randrange(first.n))


class TestSignature:
    def test_kernel_matches_brute_force(self, m_config):
        for sub in small_configs(11, 25, m_config):
            sig = signature(sub)
            brute = brute_clique_counts(sub)
            padded = list(sig.cliques) + [0] * (len(brute) - len(sig.cliques))
            assert padded == brute

    def test_trailing_zeros_trimmed(self, n_config):
        sig = signature(n_config)
        assert sig.cliques[-1] != 0
        assert sig.anticliques[-1] != 0

    def test_first_entry_is_ray_count(self, t0_config):
        sig = signature(t0_config)
        assert sig.cliques[0] == t0_config.n
        assert sig.anticliques[0] == t0_config.n

    def test_cached_on_configuration(self, n_config):
        assert signature(n_config) is signature(n_config)

    def test_count_helpers_agree(self, n_config):
        sig = signature(n_config)
        assert count_cliques(n_config, 2) == sig.cliques[1]
        assert count_anticliques(n_config, 2) == sig.anticliques[1]


class TestMaximalCliques:
    def test_m_has_320_full_cliques(self, m_config):
        cliques = maximal_cliques(m_config)
        assert len(cliques) == 320
        assert capacity(m_config) == 320

    def test_cliques_are_orthonormal_octuples(self, m_config):
        for c in maximal_cliques(m_config)[:10]:
            assert len(c) == 8
            for i, j in combinations(c, 2):
                assert (m_config.adj[i] >> j) & 1

    def test_lexicographic_order(self, n_config):
        cliques = maximal_cliques(n_config)
        assert cliques == sorted(cliques)

    def test_matches_clique_count_row(self, t0_config):
        assert len(maximal_cliques(t0_config)) == signature(t0_config).cliques[-1]


class TestSubconfigurations:
    """Restrictions inherit the parent's clique masks and adjacency; both
    must equal what a configuration built from the same rays computes."""

    @pytest.mark.parametrize("name, seed", [("M", 21), ("E8", 22), ("B", 23)])
    def test_inherited_data_matches_fresh_build(self, name, seed):
        parent = builtin(name)
        subs = list(
            small_configs(seed, 3, parent, parent.n // 2, parent.n - 4, chain=True)
        )
        assert sum(capacity(sub) > 0 for sub in subs) >= 3
        for sub in subs:
            fresh = Configuration(sub.rays)
            assert sub.adj == fresh.adj
            assert clique_masks(sub) == clique_masks(fresh)
            assert capacity(sub) == count_cliques(sub, sub.dim)


class TestSaturation:
    def test_m_is_saturated(self, m_config):
        ok, witness = is_saturated(m_config)
        assert ok
        assert witness is None

    def test_n_is_not_saturated(self, n_config):
        ok, witness = is_saturated(n_config)
        assert not ok
        assert witness is not None
        # The witness is a dead-end clique: mutually orthogonal, no
        # extension to a full octuple inside the configuration.
        for i, j in combinations(witness, 2):
            assert (n_config.adj[i] >> j) & 1

    def test_single_basis_is_saturated(self):
        basis = Configuration(
            [make_ray([1 if i == j else 0 for j in range(4)]) for i in range(4)]
        )
        ok, _ = is_saturated(basis)
        assert ok


class TestSteinerAndIntersections:
    def test_steiner_property_of_m(self, m_config):
        # Every 7-clique inside M extends to exactly one full octuple.
        assert steiner_check(m_config)

    def test_steiner_fails_for_n(self, n_config):
        assert not steiner_check(n_config)

    def test_m_intersection_sizes(self, m_config):
        assert max_clique_intersections(m_config) == {0, 1, 2, 3, 4, 5, 6}

    def test_steiner_property_of_e8(self):
        # 16200 7-cliques = 2025 maximal cliques x 8, so each 7-clique
        # extends to exactly one full octuple; the check confirms it.
        assert steiner_check(builtin("E8"))


class TestAnticliques:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_complement_duality(self, seed):
        import random

        rng = random.Random(seed)
        m = builtin("M")
        sub = m.restrict(rng.sample(range(m.n), rng.randint(2, 10)))
        flipped = Configuration(
            sub.rays,
            [
                ((1 << sub.n) - 1) & ~row & ~(1 << i)
                for i, row in enumerate(sub.adj)
            ],
        )
        assert signature(sub).anticliques == signature(flipped).cliques
