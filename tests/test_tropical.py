"""Anticlique sections and the tropical dimension machinery.

The full restricted enumeration over the 64-ray configuration runs in
the acceptance suite; tests here exercise the section search and the
disjoint-tuple generator on small instances.
"""

from __future__ import annotations

import random
from itertools import combinations, takewhile

import pytest

from ksrays import builtin
from ksrays.datasets import T0_INDICES, TROPICAL_INDEX_SETS
from ksrays.orthograph import _bits, _section_masks, clique_masks, maximal_cliques
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


def covers_orthogonal_pairs(config, keep: int) -> bool:
    """Every orthogonal pair inside ``keep`` lies in a d-clique inside it."""
    covered = {}
    for c in clique_masks(config):
        if c & ~keep == 0:
            for v in _bits(c):
                covered[v] = covered.get(v, 0) | c
    return all(config.adj[v] & keep & ~covered.get(v, 0) == 0 for v in _bits(keep))


def m_minus_overlapping_pair(m):
    """M without the first overlapping pair of removable cliques.

    A clique is removable when M without its rays still has every
    orthogonal pair inside a clique; the first overlapping pair whose
    joint removal keeps that property leaves 52 rays and 184 cliques.
    """
    masks = clique_masks(m)
    full = (1 << m.n) - 1
    removable = [
        i for i, c in enumerate(masks) if covers_orthogonal_pairs(m, full & ~c)
    ]
    removed = next(
        masks[i] | masks[j]
        for i, j in combinations(removable, 2)
        if masks[i] & masks[j]
        and covers_orthogonal_pairs(m, full & ~(masks[i] | masks[j]))
    )
    return m.restrict(v for v in range(m.n) if not (removed >> v) & 1)


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


class TestUnionVerdict:
    """The restricted top level decides each disjoint union once; the
    direct per-tuple section test is the oracle."""

    def test_disjoint_verdict_is_tropical_union_membership(self, m_config):
        masks = clique_masks(m_config)
        tropical = {sum(1 << v for v in t) for t in TROPICAL_INDEX_SETS}
        rng = random.Random(2024)
        verdicts = set()
        checked = 0
        while checked < 2000:
            tup, union = [], 0
            for _ in range(6):
                cand = [i for i, c in enumerate(masks) if not c & union]
                if not cand:
                    break
                i = rng.choice(cand)
                tup.append(i)
                union |= masks[i]
            else:
                free = _section_masks(m_config.adj, [masks[i] for i in tup]) is None
                assert free == (union in tropical), sorted(tup)
                verdicts.add(free)
                checked += 1
        assert verdicts == {True, False}

    def test_witnesses_match_per_tuple_scan(self, m_config):
        sub = m_minus_overlapping_pair(m_config)
        masks = clique_masks(sub)
        assert (sub.n, len(masks)) == (52, 184)
        got = tropical_dimension(sub, 6)
        assert got is not None and got[0] == 6
        head = [w for w in got[1] if w.clique_indices[0] == 0]
        direct = [
            tup
            for tup in takewhile(lambda t: t[0] == 0, _disjoint_tuples(masks, 6))
            if _section_masks(sub.adj, [masks[i] for i in tup]) is None
        ]
        assert len(direct) == 2568
        assert [w.clique_indices for w in head] == direct
        for w in head:
            assert w.union == frozenset(
                v for i in w.clique_indices for v in _bits(masks[i])
            )
        # One shared ray set per distinct union.
        assert len({id(w.union) for w in got[1]}) == len({w.union for w in got[1]})
