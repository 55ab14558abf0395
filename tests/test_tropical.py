"""Anticlique sections and the tropical dimension machinery.

The full restricted enumeration over the 64-ray configuration runs in
the acceptance suite; tests here exercise the section search, the
clique walker on disjointness rows, the top level's distinct unions and
exact covers, and its per-union verdicts against a per-tuple scan over a
direct disjoint-tuple generator, on small instances and slices of M.
"""

from __future__ import annotations

import math
import random
from functools import cache
from itertools import combinations, takewhile

import pytest
from conftest import unreachable_after, witness_digest

from ksrays import builtin
from ksrays.datasets import T0_INDICES, TROPICAL_INDEX_SETS
from ksrays.orthograph import (
    _bits,
    _section_masks,
    _walk_cliques,
    clique_masks,
    maximal_cliques,
)
from ksrays.rays import Configuration, make_ray
from ksrays.tropical import (
    _distinct_unions,
    _exact_covers,
    admits_anticlique_section,
    tropical_dimension,
)


def _disjoint_unions(masks: list[int], size: int):
    """Yield (index tuple, union mask) of pairwise-disjoint clique masks,
    in lexicographic order, by a direct recursion: the oracle for the
    clique walker on disjointness rows."""
    m = len(masks)
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


def walk_disjoint(masks: list[int], size: int, n: int):
    """(index tuple, union mask) of the size-cliques of the disjointness
    graph, from the clique walker with tagged weights: the rays of
    clique i below bit n, and bit n + i."""
    rows = [
        sum(1 << j for j, b in enumerate(masks) if j != i and not a & b)
        for i, a in enumerate(masks)
    ]
    tagged = []
    _walk_cliques(rows, size, [c | 1 << (n + i) for i, c in enumerate(masks)], tagged.append)
    return [(_bits(t >> n), t & ((1 << n) - 1)) for t in tagged]


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


@cache
def union_walk_input(name: str) -> Configuration:
    """The inputs of the union-walk oracle tests: built-ins, the 52-ray
    restriction of M, and M without 12 seeded rays."""
    if name == "M-52":
        return m_minus_overlapping_pair(builtin("M"))
    if name.startswith("M-12/"):
        rng = random.Random(int(name[5:]))
        return builtin("M").restrict(sorted(rng.sample(range(64), 52)))
    return builtin(name)


def oracle_unions(masks, size: int):
    """Each distinct union of the brute-force generator, mapped to its
    disjoint tuples in lexicographic order."""
    covers: dict[int, list[tuple[int, ...]]] = {}
    for tup, union in _disjoint_unions(list(masks), size):
        covers.setdefault(union, []).append(tup)
    return covers


UNION_CASES = [
    ("M-52", 6), ("M-52", 2), ("M-52", 1), ("T0", 6), ("T0", 2), ("T0", 1),
    ("KP40", 5), ("KP40", 2), ("KP40", 1), ("M-12/1", 3), ("M-12/2", 4),
    ("M-12/3", 2), ("M-12/4", 1),
]


class TestUnionWalk:
    """The distinct unions and their exact covers against the direct
    disjoint-tuple generator."""

    @pytest.mark.parametrize("name,size", UNION_CASES)
    def test_unions_and_covers_match_generator(self, name, size):
        config = union_walk_input(name)
        masks = clique_masks(config)
        want = oracle_unions(masks, size)
        assert want, "every case has a disjoint tuple"
        got = _distinct_unions(config, size)
        # Each union once, with its lexicographically first tuple, in
        # the order of those tuples.
        assert list(got.items()) == [(u, tups[0]) for u, tups in want.items()]
        for union, tups in want.items():
            assert _exact_covers(config, union, size) == tups

    def test_no_disjoint_tuple(self, kp40_config):
        # At most 5 of KP40's 25 cliques are pairwise disjoint.
        assert not list(_disjoint_unions(list(clique_masks(kp40_config)), 6))
        assert _distinct_unions(kp40_config, 6) == {}
        assert tropical_dimension(kp40_config, 6, sample_per_n=0) is None

    def test_ray_set_without_cover(self, kp40_config):
        # All 40 rays (10 cliques' worth, but at most 5 are disjoint),
        # or two overlapping cliques, have no exact cover.
        full = (1 << kp40_config.n) - 1
        assert _exact_covers(kp40_config, full, 10) == []
        a, b = next(
            (a, b) for a, b in combinations(clique_masks(kp40_config), 2) if a & b
        )
        assert _exact_covers(kp40_config, a | b, 2) == []

    def test_searches_leave_no_reference_cycles(self, kp40_config):
        sub = union_walk_input("M-52")
        unions = list(_distinct_unions(sub, 6))
        assert unreachable_after(lambda: _distinct_unions(sub, 3)) == 0
        assert unreachable_after(lambda: _exact_covers(sub, unions[0], 6)) == 0
        assert unreachable_after(
            lambda: tropical_dimension(kp40_config, 5, sample_per_n=10)
        ) == 0


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
        for tup, union in _disjoint_unions(masks, 6):
            if union == target:
                found = [inside[i] for i in tup]
                break
        assert found is not None
        assert admits_anticlique_section(m_config, found) is None


class TestDisjointTuples:
    def test_enumerates_all_disjoint_pairs(self):
        masks = [0b0011, 0b0110, 0b1100, 0b1000]
        assert walk_disjoint(masks, 2, 4) == [
            ((0, 2), 0b1111), ((0, 3), 0b1011), ((1, 3), 0b1110)
        ]

    def test_tuples_are_lexicographic_and_disjoint(self, m_config):
        masks = list(clique_masks(m_config)[:40])
        for size in range(1, 5):
            got = walk_disjoint(masks, size, m_config.n)
            assert got == list(_disjoint_unions(masks, size))
            tuples = [tup for tup, _ in got]
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

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_below_one_rejected(self, m_config, max_n):
        with pytest.raises(ValueError, match=rf"^max_n must be at least 1, got {max_n}$"):
            tropical_dimension(m_config, max_n)

    def test_small_instance_full_scan(self, kp40_config):
        # Every level of KP40 scanned in full agrees with the default
        # search: the disjoint walk at level 5, nothing below it.
        default = tropical_dimension(kp40_config, 5)
        full = tropical_dimension(kp40_config, 5, sample_per_n=math.inf)
        assert full is not None and full[0] == 5
        assert len(full[1]) == 26
        assert full == default
        assert tropical_dimension(kp40_config, 4, sample_per_n=math.inf) is None

    def test_level_within_budget_makes_no_draws(self, kp40_config):
        # KP40's 25 cliques make 25 singletons and 300 pairs: both
        # levels fit a budget of 300, so neither is sampled.
        class NoDraws(random.Random):
            def sample(self, *args, **kwargs):
                raise AssertionError("a level within the budget was sampled")

        assert len(clique_masks(kp40_config)) == 25
        assert tropical_dimension(kp40_config, 2, sample_per_n=300, rng=NoDraws()) is None

    @pytest.mark.parametrize("budget", [2000, math.inf])
    def test_levels_stop_at_the_clique_count(self, budget):
        # One basis is one clique, so no collection has two cliques and
        # a huge max_n ends after level 1.
        basis = Configuration(
            [make_ray(tuple(int(i == j) for j in range(8))) for i in range(8)]
        )
        assert len(clique_masks(basis)) == 1
        assert tropical_dimension(basis, 10**9, sample_per_n=budget) is None

    @pytest.mark.parametrize("budget", [-5, -1, 2.5, math.nan, -math.inf, True, False, "10", None])
    def test_bad_budget_rejected(self, kp40_config, budget):
        with pytest.raises(ValueError, match="sample_per_n must be a non-negative int or math.inf"):
            tropical_dimension(kp40_config, 5, sample_per_n=budget)

    @pytest.mark.parametrize("budget", [0, 1, math.inf, float("inf")])
    def test_good_budget_accepted(self, kp40_config, budget):
        got = tropical_dimension(kp40_config, 5, sample_per_n=budget)
        assert got is not None and got[0] == 5 and len(got[1]) == 26

    def test_precondition_on_small_instance(self):
        # The 18-ray set has orthogonal pairs outside every basis, so
        # the dimension search refuses it up front.
        with pytest.raises(ValueError, match="no maximal clique"):
            tropical_dimension(eighteen_ray_config(), 9)


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
            for tup, _ in takewhile(lambda pair: pair[0][0] == 0, _disjoint_unions(masks, 6))
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
        assert len(got[1]) == 19312
        assert witness_digest(got[1]).startswith("17331d454fd0aec6")
