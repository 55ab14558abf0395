"""Anticlique sections and the tropical dimension machinery.

The full restricted enumeration over the 64-ray configuration runs in
the acceptance suite; tests here exercise the section search and the
disjoint-tuple generator on small instances.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from ksrays import builtin
from ksrays.datasets import T0_INDICES
from ksrays.orthograph import maximal_cliques
from ksrays.rays import Configuration, make_ray
from ksrays.tropical import (
    _disjoint_tuples,
    admits_anticlique_section,
    iter_witnesses,
    tropical_dimension,
)


def eighteen_ray_config():
    from ksrays.rays import Configuration, make_ray

    vectors = [
        (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
        (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
        (1, -1, 1, -1), (1, -1, -1, 1), (0, 0, 1, 1),
        (1, 1, 1, 1), (0, 1, 0, -1),
        (1, 0, 0, 1), (1, 0, 0, -1),
        (0, 1, -1, 0),
        (1, 1, -1, 1), (1, 1, 1, -1),
        (-1, 1, 1, 1),
    ]
    return Configuration([make_ray(v) for v in vectors])


def cliques_inside(config, index_set):
    wanted = set(index_set)
    return [
        c for c in maximal_cliques(config) if set(c) <= wanted
    ]


class TestSections:
    def test_single_clique_always_has_section(self, m_config):
        clique = maximal_cliques(m_config)[0]
        section = admits_anticlique_section(m_config, [clique])
        assert section is not None
        assert len(section) == 1

    def test_section_is_independent_transversal(self, m_config):
        cliques = maximal_cliques(m_config)[:4]
        section = admits_anticlique_section(m_config, cliques)
        assert section is not None
        for c in cliques:
            assert len(section & frozenset(c)) >= 1
        for i, j in combinations(sorted(section), 2):
            assert not (m_config.adj[i] >> j) & 1

    def test_non_maximal_clique_rejected(self, m_config):
        with pytest.raises(ValueError, match="maximal clique"):
            admits_anticlique_section(m_config, [(0, 1, 2)])

    def test_empty_collection_rejected(self, m_config):
        with pytest.raises(ValueError):
            admits_anticlique_section(m_config, [])

    def test_t0_cover_has_no_section(self, m_config):
        # Six disjoint full cliques with union exactly the 48-ray
        # tropical set; no independent transversal exists.
        inside = cliques_inside(m_config, T0_INDICES)
        masks = [sum(1 << v for v in c) for c in inside]
        target = sum(1 << v for v in T0_INDICES)
        found = None
        for tup in _disjoint_tuples(masks, 6):
            union = 0
            for i in tup:
                union |= masks[i]
            if union == target:
                found = [inside[i] for i in tup]
                break
        assert found is not None
        assert admits_anticlique_section(m_config, found) is None


class TestDisjointTuples:
    def test_enumerates_all_disjoint_pairs(self):
        masks = [0b0011, 0b0110, 0b1100, 0b1000]
        got = list(_disjoint_tuples(masks, 2))
        assert got == [(0, 2), (0, 3), (1, 3)]

    def test_tuples_are_lexicographic_and_disjoint(self, m_config):
        masks = [
            sum(1 << v for v in c) for c in maximal_cliques(m_config)[:40]
        ]
        tuples = list(_disjoint_tuples(masks, 3))
        assert tuples == sorted(tuples)
        for tup in tuples:
            for a, b in combinations(tup, 2):
                assert masks[a] & masks[b] == 0


class TestTropicalDimension:
    def test_five_subsets_always_admit_sections(self, m_config):
        rng = random.Random(3)
        cliques = maximal_cliques(m_config)
        for _ in range(50):
            chosen = [cliques[i] for i in rng.sample(range(len(cliques)), 5)]
            assert admits_anticlique_section(m_config, chosen) is not None

    def test_uncovered_orthogonal_pair_rejected(self, n_config):
        # The 36-ray set has orthogonal pairs outside every full clique,
        # so the tropical dimension is undefined for it.
        with pytest.raises(ValueError, match="no maximal clique"):
            tropical_dimension(n_config, 3)

    def test_small_instance_full_scan(self):
        # Classic 18-ray, 9-basis contextuality set in dimension 4: the
        # nine bases admit no independent transversal, every smaller
        # collection does.
        cfg = eighteen_ray_config()
        assert len(maximal_cliques(cfg)) == 9
        for n in range(1, 9):
            assert list(iter_witnesses(cfg, n)) == []
        assert [t for _, t in iter_witnesses(cfg, 9)] == [tuple(range(9))]

    def test_precondition_on_small_instance(self):
        # The 18-ray set has orthogonal pairs outside every basis, so
        # the dimension search refuses it up front.
        with pytest.raises(ValueError, match="no maximal clique"):
            tropical_dimension(eighteen_ray_config(), 9)

    def test_iter_witnesses_resumes(self):
        cfg = eighteen_ray_config()
        full = list(iter_witnesses(cfg, 8)) + list(iter_witnesses(cfg, 9))
        assert list(iter_witnesses(cfg, 8)) == []
        nine = list(iter_witnesses(cfg, 9))
        assert nine == [(0, tuple(range(9)))]
        assert list(iter_witnesses(cfg, 9, start=1)) == []
        assert full == nine
        # Three more rays add five bases: 14 cliques, and 23 witnesses
        # spread over the 364 eleven-subsets.  The stream resumed at any
        # position is the suffix of the full stream, and its positions
        # count every subset from there on.
        cfg = Configuration(
            list(cfg.rays)
            + [make_ray(v) for v in ((1, 0, 0, 0), (0, 0, 1, -1), (0, 1, 1, 0))]
        )
        full = list(iter_witnesses(cfg, 11))
        assert len(full) == 23
        for k in range(366):
            seen = []
            got = list(
                iter_witnesses(
                    cfg, 11, start=k, progress=lambda p, t: seen.append(p),
                    progress_every=1,
                )
            )
            assert got == [w for w in full if w[0] >= k]
            assert seen == list(range(k, 364))

    def test_progress_callback_reports_positions(self):
        cfg = eighteen_ray_config()
        seen = []
        list(
            iter_witnesses(
                cfg, 5, progress=lambda p, t: seen.append((p, t)), progress_every=50
            )
        )
        assert seen
        positions = [p for p, _ in seen]
        assert positions == sorted(positions)
        assert all(t == 126 for _, t in seen)
